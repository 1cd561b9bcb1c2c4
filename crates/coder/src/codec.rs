//! End-to-end lossless image codec: reversible 5/3 transform + Rice-coded
//! subbands, with an opt-in near-lossless quantization mode.

use crate::bitio::{BitReader, BitWriter};
use crate::quant::{self, clamp_reconstruction, QuantSchedule};
use crate::{CoderError, RowEncoder, SubbandCodec};
use lwc_image::{Image, ImageView};
use lwc_lifting::geometry::band_len;
use lwc_lifting::{CoeffRowMut, Lifting53, LineIdwt53};
use std::fmt;

/// Magic number identifying a lossless `lwc` compressed stream ("LWC1").
const MAGIC: u32 = 0x4C57_4331;

/// Magic number identifying a near-lossless quantized stream ("LWCQ"): the
/// `LWC1` layout plus one trailing header byte carrying the per-pixel error
/// bound `δ` the detail bands were quantized for. A `δ = 0` configuration
/// never writes this magic — its streams are byte-identical to `LWC1` — so
/// an `LWCQ` header whose delta field is zero is malformed by definition.
const QUANT_MAGIC: u32 = 0x4C57_4351;

/// Parsed fixed-size stream header (see [`LosslessCodec`] for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Nominal bit depth of the pixels.
    pub bit_depth: u32,
    /// Decomposition depth the stream was coded with.
    pub scales: u32,
    /// Near-lossless per-pixel error bound the detail bands were quantized
    /// for; 0 means lossless (the legacy `LWC1` layout, bit for bit).
    pub delta: u8,
}

impl StreamHeader {
    /// Size of the serialized lossless (`LWC1`) header in bits; a
    /// near-lossless (`LWCQ`) header adds the 8-bit delta field.
    pub const BITS: u64 = 32 + 20 + 20 + 5 + 4;

    /// Reads and validates a header (either magic).
    ///
    /// # Errors
    ///
    /// * [`CoderError::MalformedStream`] if the stream ends inside the
    ///   header, a dimension, the bit depth or the scale count is zero, or
    ///   an `LWCQ` header carries a zero delta (a forged quantizer header:
    ///   `δ = 0` streams are written with the `LWC1` magic).
    /// * [`CoderError::UnsupportedFormat`] if the magic number is wrong.
    pub fn read(reader: &mut BitReader<'_>) -> Result<Self, CoderError> {
        let magic = reader
            .read_bits(32)
            .map_err(|_| CoderError::MalformedStream("truncated header: no magic".to_owned()))?
            as u32;
        if magic != MAGIC && magic != QUANT_MAGIC {
            return Err(CoderError::UnsupportedFormat("bad magic number".to_owned()));
        }
        let mut field = |bits: u32, name: &str| {
            reader.read_bits(bits).map_err(|_| {
                CoderError::MalformedStream(format!("truncated header: missing {name}"))
            })
        };
        let width = field(20, "width")? as usize;
        let height = field(20, "height")? as usize;
        let bit_depth = field(5, "bit depth")? as u32;
        let scales = field(4, "scale count")? as u32;
        let delta = if magic == QUANT_MAGIC { field(8, "quantizer delta")? as u8 } else { 0 };
        // The 20-bit fields bound the dimensions at 2^20 - 1 by construction;
        // only the zero cases need rejecting.
        if width == 0 || height == 0 {
            return Err(CoderError::MalformedStream(format!(
                "implausible dimensions {width}x{height}"
            )));
        }
        if bit_depth == 0 {
            return Err(CoderError::MalformedStream("zero bit depth".to_owned()));
        }
        if scales == 0 {
            return Err(CoderError::MalformedStream("zero decomposition scales".to_owned()));
        }
        if magic == QUANT_MAGIC && delta == 0 {
            return Err(CoderError::MalformedStream(
                "malformed quantizer header: near-lossless magic with zero delta".to_owned(),
            ));
        }
        Ok(Self { width, height, bit_depth, scales, delta })
    }

    /// Checks that a stream of `stream_bytes` total bytes could plausibly
    /// encode the dimensions this header declares. Every sample costs at
    /// least one bit in the Rice layout (a `k = 0` zero is the lone
    /// terminator bit), so a header whose pixel count exceeds the stream's
    /// bit count is forged or corrupt — and must be rejected **before** any
    /// buffer is sized from the declared dimensions. A ~30-byte stream
    /// claiming a (2^20 - 1)^2 image would otherwise drive terabyte-scale
    /// allocations (a decompression bomb).
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] if the dimensions cannot fit.
    pub fn ensure_plausible_length(&self, stream_bytes: usize) -> Result<(), CoderError> {
        let pixels = self.width as u64 * self.height as u64;
        if pixels > stream_bytes as u64 * 8 {
            return Err(CoderError::MalformedStream(format!(
                "header declares {}x{} pixels but the {stream_bytes}-byte stream cannot encode \
                 even one bit per sample",
                self.width, self.height
            )));
        }
        Ok(())
    }

    /// Checks the header's scale count against a codec's configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::UnsupportedFormat`] on a mismatch.
    pub fn ensure_scales(&self, expected: u32) -> Result<(), CoderError> {
        if self.scales != expected {
            return Err(CoderError::UnsupportedFormat(format!(
                "stream uses {} scales but the codec is configured for {expected}",
                self.scales
            )));
        }
        Ok(())
    }

    /// Serializes the header: the `LWC1` layout for `delta = 0` (so
    /// lossless streams never change a bit), the `LWCQ` magic plus the
    /// trailing delta byte otherwise.
    pub fn write(&self, writer: &mut BitWriter) {
        let magic = if self.delta == 0 { MAGIC } else { QUANT_MAGIC };
        writer.write_bits(u64::from(magic), 32);
        writer.write_bits(self.width as u64, 20);
        writer.write_bits(self.height as u64, 20);
        writer.write_bits(u64::from(self.bit_depth), 5);
        writer.write_bits(u64::from(self.scales), 4);
        if self.delta != 0 {
            writer.write_bits(u64::from(self.delta), 8);
        }
    }

    /// Sample count of subband `(scale, band)`. For dimensions divisible by
    /// `2^scale` all four bands of a scale share `(w >> scale) * (h >> scale)`
    /// samples; ragged dimensions follow the `ceil(n / 2)` pyramid of
    /// [`lwc_lifting::geometry`], where detail bands may even be empty.
    #[must_use]
    pub fn band_len(&self, scale: u32, band: usize) -> usize {
        band_len(self.width, self.height, scale, band)
    }
}

/// The `(scale, band)` sequence in which subbands are serialized: the deepest
/// approximation first, then for each scale from the deepest to the finest
/// the horizontal, vertical and diagonal details — `3 * scales + 1` entries.
///
/// Shared by the decoder, the fixed-path tile coder in `lwc-pipeline` and
/// the reference encoders of the tests, so they can never disagree on the
/// layout.
pub fn subband_order(scales: u32) -> impl Iterator<Item = (u32, usize)> {
    std::iter::once((scales, 0))
        .chain((1..=scales).rev().flat_map(|scale| (1..=3).map(move |band| (scale, band))))
}

/// Position of `(scale, band)` in [`subband_order`]`(scales)`: the deepest
/// approximation first, then detail triples from the deepest scale down.
pub(crate) fn subband_slot(scales: u32, scale: u32, band: usize) -> usize {
    if band == 0 {
        0
    } else {
        1 + 3 * (scales - scale) as usize + (band - 1)
    }
}

/// Statistics of one compression run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionReport {
    /// Size of the raw image in bytes (at its nominal bit depth, packed).
    pub raw_bytes: usize,
    /// Size of the compressed stream in bytes.
    pub compressed_bytes: usize,
    /// Average compressed bits per pixel.
    pub bits_per_pixel: f64,
}

impl CompressionReport {
    /// Compression ratio (raw / compressed); greater than 1 means the stream
    /// shrank.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}

impl fmt::Display for CompressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} bytes ({:.2}:1, {:.2} bpp)",
            self.raw_bytes,
            self.compressed_bytes,
            self.ratio(),
            self.bits_per_pixel
        )
    }
}

/// Lossless (and optionally near-lossless) wavelet image codec.
///
/// The stream layout is:
///
/// ```text
/// magic (32) | width (20) | height (20) | bit depth (5) | scales (4)
///            | delta (8, LWCQ streams only)
/// deepest approximation subband, then for each scale from the deepest to
/// the finest: horizontal, vertical, diagonal detail subbands
/// ```
///
/// All subbands are Rice coded with a per-subband parameter
/// (see [`SubbandCodec`]).
///
/// The forward transform is the line-based fused cascade
/// ([`lwc_lifting::LineDwt53`]): every encode is one streaming pass over the
/// pixel rows with an `O(width x levels)` coefficient working set (see
/// [`RowEncoder`]). Its bytes equal the multi-pass composition — the whole
/// frame through [`Lifting53::forward_view`], each subband copied out,
/// quantized and coded — which stays in-tree as the test reference. Decode
/// runs the inverse cascade ([`lwc_lifting::LineIdwt53`]), which pulls rows
/// straight from the decoded subbands and writes image rows into the output
/// buffer; its samples equal the multi-pass [`Lifting53`] inverse of the
/// Mallat layout on every stream an encoder writes.
///
/// A codec built with [`LosslessCodec::near_lossless`] quantizes the detail
/// subbands before coding so that every reconstructed pixel stays within
/// the configured `δ` of the original (see [`crate::quant`]); its streams
/// carry the `LWCQ` magic and the delta byte, and any codec — whatever its
/// own `δ` — decodes them, honoring the *stream's* delta the way the
/// volumetric decoder honors a container's `z_scales`. With `δ = 0` the
/// codec and its streams are exactly the legacy lossless ones, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LosslessCodec {
    transform: Lifting53,
    subbands: SubbandCodec,
    delta: u8,
}

impl LosslessCodec {
    /// Creates a lossless codec with the given decomposition depth.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero.
    pub fn new(scales: u32) -> Result<Self, CoderError> {
        Ok(Self { transform: Lifting53::new(scales)?, subbands: SubbandCodec::new(), delta: 0 })
    }

    /// Creates a near-lossless codec: detail subbands are quantized by the
    /// deterministic schedule for per-pixel bound `delta`
    /// ([`QuantSchedule::for_delta`]), so `max |orig - recon| <= delta` for
    /// every pixel. `delta = 0` is exactly [`LosslessCodec::new`].
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero.
    pub fn near_lossless(scales: u32, delta: u8) -> Result<Self, CoderError> {
        Ok(Self { delta, ..Self::new(scales)? })
    }

    /// Decomposition depth used by the codec.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.transform.scales()
    }

    /// The near-lossless per-pixel error bound streams are encoded for
    /// (0 = lossless).
    #[must_use]
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// The quantization schedule this codec encodes with.
    #[must_use]
    pub fn schedule(&self) -> QuantSchedule {
        QuantSchedule::for_delta(self.delta, self.scales())
    }

    /// The multi-pass reversible transform at this codec's depth: the
    /// reference the encoder's and decoder's line cascades reproduce bit for
    /// bit.
    #[must_use]
    pub fn transform(&self) -> &Lifting53 {
        &self.transform
    }

    /// The subband entropy coder.
    #[must_use]
    pub fn subband_codec(&self) -> &SubbandCodec {
        &self.subbands
    }

    /// The header this codec would write for `image`.
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::UnsupportedFormat`] if the dimensions or scale
    /// count do not fit the header's fixed-width fields — the serializer
    /// would otherwise truncate them silently (the image bit depth always
    /// fits: `lwc_image::Image` caps it at 16).
    pub fn header_for(&self, image: &Image) -> Result<StreamHeader, CoderError> {
        self.header_for_view(&image.view())
    }

    /// The header this codec would write for a borrowed window; see
    /// [`LosslessCodec::header_for`].
    ///
    /// # Errors
    ///
    /// See [`LosslessCodec::header_for`].
    pub fn header_for_view(&self, view: &ImageView<'_>) -> Result<StreamHeader, CoderError> {
        self.header_for_dims(view.width(), view.height(), view.bit_depth())
    }

    /// The header this codec would write for a frame of the given shape —
    /// the entry point for row-streaming encoders that never hold an image;
    /// see [`LosslessCodec::header_for`].
    ///
    /// # Errors
    ///
    /// See [`LosslessCodec::header_for`]; additionally rejects a zero or
    /// 32-bit-plus `bit_depth` (which the 5-bit header field cannot carry).
    pub fn header_for_dims(
        &self,
        width: usize,
        height: usize,
        bit_depth: u32,
    ) -> Result<StreamHeader, CoderError> {
        let header =
            StreamHeader { width, height, bit_depth, scales: self.scales(), delta: self.delta };
        if header.bit_depth == 0 || header.bit_depth >= 32 {
            return Err(CoderError::UnsupportedFormat(format!(
                "bit depth {bit_depth} does not fit the stream format's 5-bit field"
            )));
        }
        if header.width >= (1 << 20) || header.height >= (1 << 20) {
            return Err(CoderError::UnsupportedFormat(format!(
                "image dimensions {}x{} exceed the stream format's 20-bit fields",
                header.width, header.height
            )));
        }
        if header.scales >= (1 << 4) {
            return Err(CoderError::UnsupportedFormat(format!(
                "{} scales exceed the stream format's 4-bit field",
                header.scales
            )));
        }
        Ok(header)
    }

    /// Wraps a reconstructed sample buffer as an [`Image`], clamping a
    /// near-lossless reconstruction into the pixel range first
    /// ([`clamp_reconstruction`]); lossless buffers are validated as-is.
    fn image_from_raw(header: &StreamHeader, mut data: Vec<i32>) -> Result<Image, CoderError> {
        clamp_reconstruction(&mut data, header.bit_depth, header.delta);
        Ok(Image::from_samples(header.width, header.height, header.bit_depth, data)?)
    }

    /// Runs the inverse transform over per-subband sample vectors in
    /// [`subband_order`] order, returning the raw row-major sample buffer
    /// without the pixel-range validation of [`lwc_image::Image`]. The 3-D
    /// codec reconstructs z-coefficient planes through this path: their
    /// samples are signed z-transform outputs that only return to the pixel
    /// range after the inverse z pass.
    ///
    /// # Errors
    ///
    /// Returns an error if the header is inconsistent with the subband data.
    pub fn reassemble_raw(
        &self,
        header: &StreamHeader,
        subbands: &[Vec<i32>],
    ) -> Result<Vec<i32>, CoderError> {
        // Checked before the frame is sized from the header.
        self.check_subbands(header, subbands)?;
        let mut data = vec![0i32; header.width * header.height];
        self.inverse_into(header, subbands, &mut data)?;
        Ok(data)
    }

    /// [`LosslessCodec::reassemble_raw`] writing into a caller-supplied
    /// `width x height` buffer — the volume decoder points it at each
    /// plane's slot of the brick. The inverse cascade
    /// ([`lwc_lifting::LineIdwt53`]) pulls every subband row as it needs
    /// it; rows of a near-lossless stream's quantized bands are dequantized
    /// as they are pulled, driven by the *header's* delta so any codec
    /// configuration decodes any stream. No Mallat-layout frame is built.
    ///
    /// # Errors
    ///
    /// Returns an error if the header is inconsistent with the subband data
    /// or `out` does not hold `width x height` samples.
    pub fn reassemble_into(
        &self,
        header: &StreamHeader,
        subbands: &[Vec<i32>],
        out: &mut [i32],
    ) -> Result<(), CoderError> {
        self.check_subbands(header, subbands)?;
        self.inverse_into(header, subbands, out)
    }

    /// [`LosslessCodec::reassemble_into`] once the subbands are checked.
    fn inverse_into(
        &self,
        header: &StreamHeader,
        subbands: &[Vec<i32>],
        out: &mut [i32],
    ) -> Result<(), CoderError> {
        let scales = self.scales();
        let schedule = QuantSchedule::for_delta(header.delta, scales);
        let fill = |row: CoeffRowMut<'_>| {
            let len = row.samples.len();
            let samples = &subbands[subband_slot(scales, row.scale, row.band)];
            row.samples.copy_from_slice(&samples[row.y * len..(row.y + 1) * len]);
            quant::dequantize(row.samples, schedule.allowance(row.scale, row.band));
        };
        LineIdwt53::inverse_into(header.width, header.height, scales, fill, out)?;
        Ok(())
    }

    /// Checks that `subbands` holds one vector per subband of this codec's
    /// layout, each as long as `header`'s geometry implies.
    fn check_subbands(
        &self,
        header: &StreamHeader,
        subbands: &[Vec<i32>],
    ) -> Result<(), CoderError> {
        let expected = 3 * self.scales() as usize + 1;
        if subbands.len() != expected {
            return Err(CoderError::MalformedStream(format!(
                "{} subbands supplied but the layout has {expected}",
                subbands.len()
            )));
        }
        for ((scale, band), samples) in subband_order(self.scales()).zip(subbands) {
            if samples.len() != header.band_len(scale, band) {
                return Err(CoderError::MalformedStream(format!(
                    "subband at scale {scale} holds {} samples but the header implies {}",
                    samples.len(),
                    header.band_len(scale, band)
                )));
            }
        }
        Ok(())
    }

    /// Compresses `image` into a self-contained byte stream.
    ///
    /// # Errors
    ///
    /// Returns an error if the image cannot be decomposed to the configured
    /// depth.
    pub fn compress(&self, image: &Image) -> Result<Vec<u8>, CoderError> {
        self.compress_view(&image.view())
    }

    /// Compresses a borrowed (possibly strided) window of a larger frame —
    /// the entry point of the tile-parallel engine, which compresses tiles
    /// straight out of the frame without copying them into owned images. For
    /// a full-frame view this is exactly [`LosslessCodec::compress`].
    ///
    /// The view's rows run through one [`RowEncoder`] session, so no
    /// frame-sized coefficient buffer is ever allocated.
    ///
    /// # Errors
    ///
    /// See [`LosslessCodec::begin`].
    pub fn compress_view(&self, view: &ImageView<'_>) -> Result<Vec<u8>, CoderError> {
        let mut session = self.begin(view.width(), view.height(), view.bit_depth())?;
        for y in 0..view.height() {
            session.push_row(view.row(y));
        }
        Ok(session.finish())
    }

    /// Starts a streaming encode of a `width x height` frame whose rows will
    /// be pushed top to bottom with [`RowEncoder::push_row`] — the push-style
    /// counterpart of the tiled engine's row-band decode, for frames that
    /// never have to be resident in memory. The finished stream is this
    /// codec's (`LWC1`, or `LWCQ` with its near-lossless bound),
    /// byte-identical to [`LosslessCodec::compress`] of the same frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape does not fit the header fields (see
    /// [`LosslessCodec::header_for_dims`]) or a dimension is zero.
    pub fn begin(
        &self,
        width: usize,
        height: usize,
        bit_depth: u32,
    ) -> Result<RowEncoder, CoderError> {
        Ok(RowEncoder::new(self.header_for_dims(width, height, bit_depth)?)?)
    }

    /// Reconstructs the image from a stream produced by
    /// [`LosslessCodec::compress`]. Lossless (`LWC1`) streams come back
    /// pixel-exact; near-lossless (`LWCQ`) streams come back within the
    /// *stream's* delta of the original, whatever this codec's own delta.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or mismatched configuration.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Image, CoderError> {
        let (header, data) = self.decompress_raw(bytes)?;
        Self::image_from_raw(&header, data)
    }

    /// Like [`LosslessCodec::decompress`] but returns the header plus the
    /// raw row-major sample buffer without pixel-range validation — the
    /// decode path for z-coefficient planes inside `LWCV` bricks, whose
    /// samples are signed transform outputs rather than pixels.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or mismatched configuration.
    pub fn decompress_raw(&self, bytes: &[u8]) -> Result<(StreamHeader, Vec<i32>), CoderError> {
        let (header, subbands) = self.decode_subbands(bytes)?;
        let data = self.reassemble_raw(&header, &subbands)?;
        Ok((header, data))
    }

    /// The entropy-decoding half of [`LosslessCodec::decompress_raw`]: the
    /// validated header plus every subband's coded samples (quantizer
    /// indices for a near-lossless stream) in [`subband_order`] order,
    /// ready for [`LosslessCodec::reassemble_into`].
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams (bytes past the last
    /// subband's padding included) or a scale count other than this codec's.
    pub fn decode_subbands(
        &self,
        bytes: &[u8],
    ) -> Result<(StreamHeader, Vec<Vec<i32>>), CoderError> {
        let mut reader = BitReader::new(bytes);
        let header = StreamHeader::read(&mut reader)?;
        header.ensure_scales(self.scales())?;
        header.ensure_plausible_length(bytes.len())?;
        let subbands = subband_order(self.scales())
            .map(|(scale, band)| {
                self.subbands.decode_subband(&mut reader, header.band_len(scale, band))
            })
            .collect::<Result<_, _>>()?;
        reader.ensure_consumed()?;
        Ok((header, subbands))
    }

    /// Compresses and reports the sizes.
    ///
    /// # Errors
    ///
    /// See [`LosslessCodec::compress`].
    pub fn compress_with_report(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, CompressionReport), CoderError> {
        let bytes = self.compress(image)?;
        let raw_bits = image.pixel_count() * image.bit_depth() as usize;
        let report = CompressionReport {
            raw_bytes: raw_bits.div_ceil(8),
            compressed_bytes: bytes.len(),
            bits_per_pixel: bytes.len() as f64 * 8.0 / image.pixel_count() as f64,
        };
        Ok((bytes, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_image::{stats, synth};

    #[test]
    fn compress_decompress_is_lossless_on_phantoms() {
        let codec = LosslessCodec::new(4).unwrap();
        for image in [
            synth::ct_phantom(64, 64, 12, 1),
            synth::mr_slice(64, 64, 12, 2),
            synth::gradient(64, 64, 12),
            synth::flat(64, 64, 12, 777),
        ] {
            let bytes = codec.compress(&image).unwrap();
            let back = codec.decompress(&bytes).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap());
        }
    }

    #[test]
    fn structured_images_actually_compress() {
        // At clinically realistic raster sizes the phantom's smooth regions
        // dominate and the codec removes a good third of the volume; the
        // ratio keeps improving with resolution (1.9:1 at 512², see
        // EXPERIMENTS.md).
        let codec = LosslessCodec::new(5).unwrap();
        let image = synth::ct_phantom(256, 256, 12, 3);
        let (_bytes, report) = codec.compress_with_report(&image).unwrap();
        assert!(report.ratio() > 1.5, "a CT phantom should compress well, got {report}");
        assert!(report.bits_per_pixel < 8.0);
    }

    #[test]
    fn random_images_do_not_compress_but_stay_lossless() {
        let codec = LosslessCodec::new(3).unwrap();
        let image = synth::random_image(64, 64, 12, 5);
        let (bytes, report) = codec.compress_with_report(&image).unwrap();
        assert!(report.ratio() < 1.1, "uniform noise is incompressible: {report}");
        let back = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn rectangular_images_roundtrip() {
        let codec = LosslessCodec::new(3).unwrap();
        let image = synth::mr_slice(96, 48, 12, 9);
        let bytes = codec.compress(&image).unwrap();
        let back = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let codec = LosslessCodec::new(3).unwrap();
        let image = synth::ct_phantom(32, 32, 12, 0);
        let mut bytes = codec.compress(&image).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(codec.decompress(&bad).is_err());
        // Truncation.
        bytes.truncate(8);
        assert!(codec.decompress(&bytes).is_err());
        // Wrong codec configuration.
        let other = LosslessCodec::new(4).unwrap();
        let full = codec.compress(&image).unwrap();
        assert!(other.decompress(&full).is_err());
    }

    #[test]
    fn bad_magic_is_an_unsupported_format_error() {
        let codec = LosslessCodec::new(3).unwrap();
        let mut bytes = codec.compress(&synth::ct_phantom(32, 32, 12, 1)).unwrap();
        bytes[3] ^= 0x01;
        assert!(matches!(codec.decompress(&bytes), Err(CoderError::UnsupportedFormat(_))));
    }

    #[test]
    fn truncated_headers_are_malformed_not_garbage() {
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&synth::ct_phantom(32, 32, 12, 2)).unwrap();
        // Every header-length prefix, including the empty stream, must be
        // rejected with a specific malformed-stream error (the magic check
        // needs 4 whole bytes, so shorter prefixes are truncation too).
        for len in 0..StreamHeader::BITS.div_ceil(8) as usize {
            let prefix = &bytes[..len];
            match codec.decompress(prefix) {
                Err(CoderError::MalformedStream(msg)) => {
                    assert!(msg.contains("truncated header"), "len {len}: {msg}");
                }
                other => panic!("len {len}: expected MalformedStream, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_dimensions_and_depths_are_rejected() {
        // Hand-craft headers with invalid fields; the payload is irrelevant
        // because validation must fail first.
        let craft = |width: u64, height: u64, depth: u64, scales: u64| {
            let mut w = BitWriter::new();
            w.write_bits(u64::from(super::MAGIC), 32);
            w.write_bits(width, 20);
            w.write_bits(height, 20);
            w.write_bits(depth, 5);
            w.write_bits(scales, 4);
            w.write_bits(0, 64);
            w.into_bytes()
        };
        let codec = LosslessCodec::new(3).unwrap();
        for (bytes, what) in [
            (craft(0, 32, 12, 3), "zero width"),
            (craft(32, 0, 12, 3), "zero height"),
            (craft(32, 32, 0, 3), "zero bit depth"),
            (craft(32, 32, 12, 0), "zero scales"),
        ] {
            assert!(
                matches!(codec.decompress(&bytes), Err(CoderError::MalformedStream(_))),
                "{what} must be a malformed-stream error"
            );
        }
    }

    #[test]
    fn forged_huge_dimensions_are_rejected_before_any_allocation() {
        // Decompression-bomb regression: a ~30-byte stream whose header
        // claims a (2^20 - 1)^2 image must come back as a fast typed error —
        // the declared pixel count exceeds the stream's bit count, and no
        // buffer may ever be sized from those dimensions.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(super::MAGIC), 32);
        w.write_bits((1 << 20) - 1, 20);
        w.write_bits((1 << 20) - 1, 20);
        w.write_bits(12, 5);
        w.write_bits(3, 4);
        w.write_bits(0, 64); // a token payload, irrelevant
        let bytes = w.into_bytes();
        let codec = LosslessCodec::new(3).unwrap();
        match codec.decompress(&bytes) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("cannot encode"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
        // The plausibility rule never rejects a real stream: every legit
        // stream carries at least one bit per pixel by construction.
        let image = synth::ct_phantom(48, 40, 12, 5);
        let real = codec.compress(&image).unwrap();
        let header = StreamHeader::read(&mut BitReader::new(&real)).unwrap();
        header.ensure_plausible_length(real.len()).unwrap();
        assert_eq!(codec.decompress(&real).unwrap().samples(), image.samples());
    }

    #[test]
    fn reassemble_rejects_inconsistent_subband_shapes() {
        let codec = LosslessCodec::new(2).unwrap();
        let header = StreamHeader { width: 16, height: 16, bit_depth: 12, scales: 2, delta: 0 };
        // Wrong subband count.
        assert!(matches!(
            codec.reassemble_raw(&header, &[vec![0; 16]]),
            Err(CoderError::MalformedStream(_))
        ));
        // Right count, one band oversized.
        let mut bands: Vec<Vec<i32>> = subband_order(2)
            .map(|(scale, band)| vec![0i32; header.band_len(scale, band)])
            .collect();
        bands[3].push(7);
        assert!(matches!(
            codec.reassemble_raw(&header, &bands),
            Err(CoderError::MalformedStream(_))
        ));
        // Scales deeper than the geometry are no longer an error: the ragged
        // pyramid saturates at one sample, so a 2x2 image reassembles at any
        // depth as long as the band lengths agree.
        let tiny = StreamHeader { width: 2, height: 2, bit_depth: 12, scales: 2, delta: 0 };
        let bands: Vec<Vec<i32>> =
            subband_order(2).map(|(scale, band)| vec![0i32; tiny.band_len(scale, band)]).collect();
        assert_eq!(codec.reassemble_raw(&tiny, &bands).unwrap().len(), 4);
    }

    #[test]
    fn odd_and_prime_dimensions_roundtrip() {
        // The ragged pyramid: sizes the original even-only codec rejected now
        // compress and reconstruct exactly, at any depth.
        for (w, h) in [(37, 53), (1, 1), (1, 17), (101, 63), (64, 37), (3, 3)] {
            for scales in [1u32, 3, 5] {
                let codec = LosslessCodec::new(scales).unwrap();
                let image = synth::random_image(w, h, 12, (w * h + scales as usize) as u64);
                let bytes = codec.compress(&image).unwrap();
                let back = codec.decompress(&bytes).unwrap();
                assert!(stats::bit_exact(&image, &back).unwrap(), "{w}x{h} at {scales} scales");
            }
        }
    }

    #[test]
    fn compress_view_of_a_tile_matches_compressing_the_owned_tile() {
        use lwc_image::TileRect;
        let frame = synth::ct_phantom(96, 96, 12, 5);
        let codec = LosslessCodec::new(3).unwrap();
        let rect = TileRect { x: 17, y: 32, width: 41, height: 33 };
        let via_view = codec.compress_view(&frame.view_rect(rect).unwrap()).unwrap();
        let via_copy = codec.compress(&frame.crop(rect).unwrap()).unwrap();
        assert_eq!(via_view, via_copy);
        let back = codec.decompress(&via_view).unwrap();
        assert!(stats::bit_exact(&frame.crop(rect).unwrap(), &back).unwrap());
    }

    #[test]
    fn header_roundtrips_through_the_bit_layer() {
        let header = StreamHeader { width: 640, height: 480, bit_depth: 12, scales: 5, delta: 0 };
        let mut w = BitWriter::new();
        header.write(&mut w);
        assert_eq!(w.bit_len(), StreamHeader::BITS);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(StreamHeader::read(&mut r).unwrap(), header);
        assert_eq!(header.band_len(5, 0), 20 * 15);
        assert_eq!(header.band_len(5, 3), 20 * 15);
        // Ragged geometry: a 5-wide layout splits 3 | 2 at the first scale.
        let ragged = StreamHeader { width: 5, height: 4, bit_depth: 12, scales: 1, delta: 0 };
        assert_eq!(ragged.band_len(1, 0), 3 * 2);
        assert_eq!(ragged.band_len(1, 1), 2 * 2);
    }

    #[test]
    fn subband_order_visits_every_band_once() {
        let order: Vec<(u32, usize)> = subband_order(3).collect();
        assert_eq!(
            order,
            vec![(3, 0), (3, 1), (3, 2), (3, 3), (2, 1), (2, 2), (2, 3), (1, 1), (1, 2), (1, 3)]
        );
        assert_eq!(subband_order(6).count(), 3 * 6 + 1);
    }

    #[test]
    fn near_lossless_streams_carry_the_quant_magic_and_honor_the_bound() {
        let image = synth::ct_phantom(96, 80, 12, 13);
        for delta in [2u8, 4, 8] {
            let codec = LosslessCodec::near_lossless(3, delta).unwrap();
            let bytes = codec.compress(&image).unwrap();
            assert_eq!(&bytes[..4], &QUANT_MAGIC.to_be_bytes(), "delta {delta}");
            let header = StreamHeader::read(&mut BitReader::new(&bytes)).unwrap();
            assert_eq!(header.delta, delta);
            let mut w = BitWriter::new();
            header.write(&mut w);
            assert_eq!(w.bit_len(), StreamHeader::BITS + 8);
            // Any codec decodes the stream, honoring the header's delta.
            let plain = LosslessCodec::new(3).unwrap();
            let back = plain.decompress(&bytes).unwrap();
            let diff = stats::max_abs_diff(&image, &back).unwrap();
            assert!(diff <= i32::from(delta), "delta {delta}: max diff {diff}");
            // And the stream genuinely shrinks relative to lossless.
            assert!(bytes.len() < plain.compress(&image).unwrap().len(), "delta {delta}");
        }
    }

    #[test]
    fn delta_zero_is_byte_identical_to_the_lossless_codec() {
        let image = synth::mr_slice(64, 48, 12, 3);
        let lossless = LosslessCodec::new(4).unwrap();
        let zero = LosslessCodec::near_lossless(4, 0).unwrap();
        assert_eq!(zero.delta(), 0);
        assert_eq!(lossless.compress(&image).unwrap(), zero.compress(&image).unwrap());
        // delta = 1 degenerates to the lossless schedule (the synthesis gain
        // floor) and therefore also to byte-identical streams.
        let one = LosslessCodec::near_lossless(4, 1).unwrap();
        assert!(one.schedule().is_lossless());
        let bytes = one.compress(&image).unwrap();
        assert_eq!(&bytes[..4], &QUANT_MAGIC.to_be_bytes(), "delta is still in the header");
        let back = LosslessCodec::new(4).unwrap().decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn quant_headers_with_zero_delta_are_malformed() {
        // Craft an otherwise-valid LWCQ header whose delta byte is zero: the
        // writer never produces this (delta 0 streams use the LWC1 magic),
        // so it must be refused as a forged quantizer header.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(QUANT_MAGIC), 32);
        w.write_bits(32, 20);
        w.write_bits(32, 20);
        w.write_bits(12, 5);
        w.write_bits(3, 4);
        w.write_bits(0, 8); // delta = 0: malformed by definition
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let codec = LosslessCodec::new(3).unwrap();
        match codec.decompress(&bytes) {
            Err(CoderError::MalformedStream(msg)) => {
                assert!(msg.contains("quantizer"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
        // A truncated LWCQ header (delta byte missing) is typed, too.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(QUANT_MAGIC), 32);
        w.write_bits(32, 20);
        w.write_bits(32, 20);
        w.write_bits(12, 5);
        w.write_bits(3, 4);
        let bytes = w.into_bytes();
        assert!(matches!(codec.decompress(&bytes), Err(CoderError::MalformedStream(_))));
    }

    #[test]
    fn near_lossless_roundtrips_clamp_into_the_pixel_range() {
        // A flat image at the top of the pixel range: quantization error
        // could push reconstructions past 2^bd - 1, which the clamp (not a
        // range error) must absorb while keeping the bound.
        for value in [0i32, 4095] {
            let image = {
                let mut samples = vec![value; 48 * 40];
                // A spot of contrast so the detail bands are nonzero.
                samples[5 * 48 + 7] = 4095 - value;
                Image::from_samples(48, 40, 12, samples).unwrap()
            };
            let codec = LosslessCodec::near_lossless(3, 8).unwrap();
            let back = codec.decompress(&codec.compress(&image).unwrap()).unwrap();
            assert!(stats::max_abs_diff(&image, &back).unwrap() <= 8);
            assert!(back.samples().iter().all(|&v| (0..=4095).contains(&v)));
        }
    }

    #[test]
    fn report_display_is_readable() {
        let report =
            CompressionReport { raw_bytes: 1000, compressed_bytes: 500, bits_per_pixel: 6.0 };
        assert!(report.to_string().contains("2.00:1"));
        assert!((report.ratio() - 2.0).abs() < 1e-12);
    }
}
