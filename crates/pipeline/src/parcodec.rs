//! Intra-image parallelism: per-subband parallel Rice decoding.
//!
//! A `scales`-deep decomposition has `3 * scales + 1` subbands and each is
//! entropy-coded independently — the subband boundary is a natural
//! parallelism seam. The encoder's line cascade codes every subband into its
//! own [`BitWriter`] fragment, and [`ParallelCodec`] splices the fragments,
//! at arbitrary bit offsets, into **exactly** the bytes the sequential codec
//! writes while recording where each one starts; on the way back a
//! [`SubbandDirectory`] of bit offsets lets the subbands decode concurrently.

use crate::PipelineError;
use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::{subband_order, CoderError, LosslessCodec, StreamHeader};
use lwc_image::Image;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Bit offsets of every subband payload inside one compressed stream, in
/// [`subband_order`] order.
///
/// The directory is side information — the stream format itself is unchanged
/// and carries no offsets. It comes either for free from a parallel encode
/// ([`ParallelCodec::compress_with_directory`]) or from a single sequential
/// scan of an existing stream ([`SubbandDirectory::scan`]), which only walks
/// the unary/remainder structure without reconstructing any value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubbandDirectory {
    header: StreamHeader,
    /// Start bit of each subband payload; `offsets[0] == header.bits()`
    /// (the serialized header size — [`StreamHeader::BITS`] for lossless
    /// streams, 8 more for near-lossless ones).
    offsets: Vec<u64>,
}

impl SubbandDirectory {
    /// The stream header the directory was built from.
    #[must_use]
    pub fn header(&self) -> &StreamHeader {
        &self.header
    }

    /// Start bit offsets of the subband payloads, in [`subband_order`] order.
    #[must_use]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Builds a directory by scanning a sequential stream once.
    ///
    /// # Errors
    ///
    /// Returns an error if the header is invalid, the stream is truncated,
    /// or it was coded with a different number of scales than `codec` uses.
    pub fn scan(codec: &LosslessCodec, bytes: &[u8]) -> Result<Self, CoderError> {
        let mut reader = BitReader::new(bytes);
        let header = StreamHeader::read(&mut reader)?;
        header.ensure_scales(codec.scales())?;
        header.ensure_plausible_length(bytes.len())?;
        let subbands = codec.subband_codec();
        let mut offsets = Vec::with_capacity(3 * header.scales as usize + 1);
        for (scale, band) in subband_order(header.scales) {
            offsets.push(reader.bits_read());
            subbands.skip_subband(&mut reader, header.band_len(scale, band))?;
        }
        Ok(Self { header, offsets })
    }
}

/// Per-subband parallel Rice codec for a single image.
///
/// Streams are **byte-identical** to [`LosslessCodec::compress`]: the codec's
/// single-pass encode session produces one bitstream fragment per subband
/// and a bit-level splice concatenates them in the sequential layout.
/// Decoding runs the subbands concurrently from a [`SubbandDirectory`].
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::ParallelCodec;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let codec = ParallelCodec::new(4, 2)?;
/// let image = synth::ct_phantom(64, 64, 12, 1);
/// let bytes = codec.compress(&image)?;
/// let back = codec.decompress(&bytes)?;
/// assert_eq!(image.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelCodec {
    codec: LosslessCodec,
    workers: usize,
}

impl ParallelCodec {
    /// Creates a codec with the given decomposition depth and worker count.
    /// `workers == 0` selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero.
    pub fn new(scales: u32, workers: usize) -> Result<Self, PipelineError> {
        Ok(Self::with_codec(LosslessCodec::new(scales)?, workers))
    }

    /// Wraps an existing sequential codec. `workers == 0` selects the
    /// machine's available parallelism.
    #[must_use]
    pub fn with_codec(codec: LosslessCodec, workers: usize) -> Self {
        let workers = if workers == 0 {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            workers
        };
        Self { codec, workers }
    }

    /// The sequential codec whose streams this one reproduces.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// Worker threads used per image.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Compresses `image`, producing exactly the bytes of
    /// [`LosslessCodec::compress`].
    ///
    /// # Errors
    ///
    /// Returns an error if the image cannot be decomposed to the configured
    /// depth.
    pub fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        Ok(self.compress_with_directory(image)?.0)
    }

    /// Compresses `image` and also returns the [`SubbandDirectory`] the
    /// encode discovered for free (each subband fragment knows its length),
    /// enabling a fully parallel [`ParallelCodec::decompress_with_directory`]
    /// without a scan. The encode itself is the codec's one streaming pass
    /// ([`LosslessCodec::begin`]); the worker pool only serves decoding.
    ///
    /// # Errors
    ///
    /// See [`ParallelCodec::compress`].
    pub fn compress_with_directory(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, SubbandDirectory), PipelineError> {
        let view = image.view();
        let mut session = self.codec.begin(view.width(), view.height(), view.bit_depth())?;
        for y in 0..view.height() {
            session.push_row(view.row(y));
        }
        let (header, fragments) = session.finish_subbands();

        // Splice the fragments into the sequential layout.
        let mut writer = BitWriter::new();
        header.write(&mut writer);
        let mut offsets = Vec::with_capacity(fragments.len());
        for (bytes, bits) in &fragments {
            offsets.push(writer.bit_len());
            writer.append(bytes, *bits);
        }
        Ok((writer.into_bytes(), SubbandDirectory { header, offsets }))
    }

    /// Decompresses a stream produced by this codec or by
    /// [`LosslessCodec::compress`].
    ///
    /// A sequential scan first recovers the subband directory (cheap relative
    /// to a full decode: no value is reconstructed), then the subbands decode
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or mismatched configuration.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        let directory = SubbandDirectory::scan(&self.codec, bytes)?;
        self.decompress_with_directory(bytes, &directory)
    }

    /// Decompresses with a known [`SubbandDirectory`], skipping the scan —
    /// the fully parallel decode path.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// a directory that does not match the stream.
    pub fn decompress_with_directory(
        &self,
        bytes: &[u8],
        directory: &SubbandDirectory,
    ) -> Result<Image, PipelineError> {
        let header = directory.header;
        header.ensure_scales(self.codec.scales())?;
        header.ensure_plausible_length(bytes.len())?;
        // The directory is side information: make sure it actually describes
        // this stream before decoding at its offsets.
        let stream_header = StreamHeader::read(&mut BitReader::new(bytes))?;
        if stream_header != header {
            return Err(CoderError::MalformedStream(format!(
                "directory was built for a {}x{} stream at {} scales, but the stream header says \
                 {}x{} at {}",
                header.width,
                header.height,
                header.scales,
                stream_header.width,
                stream_header.height,
                stream_header.scales
            ))
            .into());
        }
        let order: Vec<(u32, usize)> = subband_order(header.scales).collect();
        if directory.offsets.len() != order.len() {
            return Err(CoderError::MalformedStream(format!(
                "directory holds {} subbands but the stream layout has {}",
                directory.offsets.len(),
                order.len()
            ))
            .into());
        }
        let subbands = *self.codec.subband_codec();
        let decoded: Vec<Vec<i32>> = run_indexed(self.workers, order.len(), |i| {
            let mut reader = BitReader::new(bytes);
            reader.skip_bits(directory.offsets[i])?;
            let (scale, band) = order[i];
            let samples = subbands.decode_subband(&mut reader, header.band_len(scale, band))?;
            // Each subband must end exactly where the directory says the
            // next one starts — Rice data is self-delimiting at any bit
            // offset, so without this check a directory from a different
            // same-geometry stream would decode plausible garbage.
            if let Some(&next) = directory.offsets.get(i + 1) {
                if reader.bits_read() != next {
                    return Err(CoderError::MalformedStream(format!(
                        "subband {i} ended at bit {} but the directory places the next at {next}",
                        reader.bits_read()
                    )));
                }
            }
            Ok(samples)
        })?;
        Ok(self.codec.reassemble(&header, &decoded)?)
    }
}

/// Runs `job(0..count)` across `workers` scoped threads with dynamic work
/// stealing and returns the outputs in index order. Shared with the
/// tile-parallel engines in [`crate::TiledCompressor`] and
/// [`crate::TiledFixedDwt2d`] (whose jobs fail with different error types,
/// hence the generic `E`).
pub(crate) fn run_indexed<Out, Err, Job>(
    workers: usize,
    count: usize,
    job: Job,
) -> Result<Vec<Out>, PipelineError>
where
    Out: Send,
    Err: Into<PipelineError> + Send,
    Job: Fn(usize) -> Result<Out, Err> + Sync,
{
    let workers = workers.min(count).max(1);
    if workers == 1 {
        return (0..count).map(|i| job(i).map_err(Into::into)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Out>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let failure: Mutex<Option<Err>> = Mutex::new(None);
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    return;
                }
                match job(index) {
                    Ok(output) => *slots[index].lock().expect("slot poisoned") = Some(output),
                    Err(error) => {
                        failure.lock().expect("failure poisoned").get_or_insert(error);
                        // Drain the remaining work: the run is doomed.
                        cursor.store(count, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });
    if let Some(error) = failure.into_inner().expect("failure poisoned") {
        return Err(error.into());
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("slot poisoned").ok_or_else(|| {
                PipelineError::Config("parallel worker abandoned a work item".into())
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_image::{stats, synth};

    fn phantom(kind: usize, size: usize, seed: u64) -> Image {
        match kind % 3 {
            0 => synth::ct_phantom(size, size, 12, seed),
            1 => synth::mr_slice(size, size, 12, seed),
            _ => synth::random_image(size, size, 12, seed),
        }
    }

    #[test]
    fn streams_are_byte_identical_to_the_sequential_codec() {
        for scales in 1..=5u32 {
            let sequential = LosslessCodec::new(scales).unwrap();
            for workers in [1, 2, 4] {
                let parallel = ParallelCodec::with_codec(sequential, workers);
                for kind in 0..3 {
                    let image = phantom(kind, 64, 7 * scales as u64 + kind as u64);
                    let expected = sequential.compress(&image).unwrap();
                    let actual = parallel.compress(&image).unwrap();
                    assert_eq!(actual, expected, "kind {kind}, {scales} scales, {workers} workers");
                }
            }
        }
    }

    #[test]
    fn roundtrip_with_and_without_directory() {
        let codec = ParallelCodec::new(4, 3).unwrap();
        let image = phantom(0, 128, 5);
        let (bytes, directory) = codec.compress_with_directory(&image).unwrap();
        let via_scan = codec.decompress(&bytes).unwrap();
        let via_directory = codec.decompress_with_directory(&bytes, &directory).unwrap();
        assert!(stats::bit_exact(&image, &via_scan).unwrap());
        assert!(stats::bit_exact(&image, &via_directory).unwrap());
    }

    #[test]
    fn scan_recovers_the_encode_directory() {
        let codec = ParallelCodec::new(3, 2).unwrap();
        let image = phantom(1, 64, 9);
        let (bytes, from_encode) = codec.compress_with_directory(&image).unwrap();
        let scanned = SubbandDirectory::scan(codec.codec(), &bytes).unwrap();
        assert_eq!(scanned, from_encode);
        assert_eq!(scanned.offsets()[0], StreamHeader::BITS);
    }

    #[test]
    fn parallel_decoder_reads_sequential_streams() {
        let sequential = LosslessCodec::new(3).unwrap();
        let parallel = ParallelCodec::with_codec(sequential, 4);
        let image = phantom(2, 64, 11);
        let bytes = sequential.compress(&image).unwrap();
        let back = parallel.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let codec = ParallelCodec::new(3, 2).unwrap();
        let image = phantom(0, 32, 3);
        let mut bytes = codec.compress(&image).unwrap();
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(codec.decompress(&bad).is_err());
        bytes.truncate(bytes.len() / 2);
        assert!(codec.decompress(&bytes).is_err());
    }

    #[test]
    fn mismatched_directory_is_rejected() {
        let three = ParallelCodec::new(3, 2).unwrap();
        let four = ParallelCodec::new(4, 2).unwrap();
        let image = phantom(0, 64, 4);
        let (bytes, directory) = three.compress_with_directory(&image).unwrap();
        assert!(four.decompress_with_directory(&bytes, &directory).is_err());
        assert!(four.decompress(&bytes).is_err());
    }

    #[test]
    fn directory_from_another_stream_is_rejected() {
        let codec = ParallelCodec::new(3, 2).unwrap();
        let (small_bytes, _) = codec.compress_with_directory(&phantom(0, 64, 5)).unwrap();
        let (_, large_directory) =
            codec.compress_with_directory(&synth::ct_phantom(128, 128, 12, 6)).unwrap();
        // Same scale count, different geometry: the stream header check must
        // refuse to decode at the foreign directory's offsets.
        assert!(codec.decompress_with_directory(&small_bytes, &large_directory).is_err());
    }

    #[test]
    fn same_geometry_directory_swap_is_rejected_not_silently_decoded() {
        // Two streams with identical headers but different payloads: pairing
        // one stream with the other's directory must error (via the
        // subband-boundary consistency check), never return a wrong image.
        let codec = ParallelCodec::new(3, 2).unwrap();
        let (bytes_a, dir_a) = codec.compress_with_directory(&phantom(0, 64, 21)).unwrap();
        let (bytes_b, dir_b) = codec.compress_with_directory(&phantom(0, 64, 22)).unwrap();
        assert_ne!(dir_a, dir_b, "payloads should differ enough to shift offsets");
        assert!(codec.decompress_with_directory(&bytes_a, &dir_b).is_err());
        assert!(codec.decompress_with_directory(&bytes_b, &dir_a).is_err());
    }

    #[test]
    fn zero_workers_selects_available_parallelism() {
        let codec = ParallelCodec::new(2, 0).unwrap();
        assert!(codec.workers() >= 1);
    }

    #[test]
    fn rectangular_images_roundtrip() {
        let codec = ParallelCodec::new(3, 2).unwrap();
        let image = synth::mr_slice(96, 48, 12, 13);
        let sequential = codec.codec().compress(&image).unwrap();
        assert_eq!(codec.compress(&image).unwrap(), sequential);
        let back = codec.decompress(&sequential).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }
}
