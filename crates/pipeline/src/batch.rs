//! Inter-image parallelism: the batch Rice-codec engine.

use crate::pool::{resolve_workers, run_indexed};
use crate::report::BatchReport;
use crate::stream::OrderedStream;
use crate::{PipelineError, TiledCompressor, TiledFixedCompressor};
use lwc_coder::LosslessCodec;
use lwc_image::Image;
use std::time::Instant;

/// Fans batches of images across worker threads, each running the
/// end-to-end lossless Rice codec.
///
/// The engine never re-orders or re-encodes anything: every image is
/// compressed by the very same [`LosslessCodec`] a sequential caller would
/// use, so each output stream is **byte-identical** to
/// [`LosslessCodec::compress`] and results always come back in input order.
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::BatchCompressor;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let engine = BatchCompressor::new(4, 2)?;
/// let batch: Vec<_> = (0..4).map(|s| synth::ct_phantom(64, 64, 12, s)).collect();
/// let (streams, report) = engine.compress_batch(&batch)?;
/// assert_eq!(streams.len(), 4);
/// assert!(report.megabytes_per_second() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchCompressor {
    codec: LosslessCodec,
    workers: usize,
}

impl BatchCompressor {
    /// Creates an engine with the given decomposition depth and worker
    /// count. `workers == 0` selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero.
    pub fn new(scales: u32, workers: usize) -> Result<Self, PipelineError> {
        Ok(Self::with_codec(LosslessCodec::new(scales)?, workers))
    }

    /// Wraps an existing codec. `workers == 0` selects the machine's
    /// available parallelism.
    #[must_use]
    pub fn with_codec(codec: LosslessCodec, workers: usize) -> Self {
        Self { codec, workers: resolve_workers(workers) }
    }

    /// The codec every worker runs.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// Number of worker threads used for batches.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tile-parallel engine sharing this engine's codec and worker
    /// budget — the scaling path for images too large to transform (or even
    /// address, past the legacy format's 2^20-pixel sides) as one block.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PipelineError::Config`] for an invalid tile shape.
    pub fn tiled(
        &self,
        tile_width: usize,
        tile_height: usize,
    ) -> Result<TiledCompressor, PipelineError> {
        TiledCompressor::with_codec(self.codec, tile_width, tile_height, self.workers)
    }

    /// The complete paper-exact codec sharing this engine's depth and worker
    /// budget: the tile-parallel fixed-point line cascade feeding the
    /// fixed-word Rice coder into `LWCF` containers.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid tile shape or an unbuildable
    /// word-length plan.
    pub fn tiled_fixed(
        &self,
        bank: &lwc_filters::FilterBank,
        tile_size: usize,
    ) -> Result<TiledFixedCompressor, PipelineError> {
        TiledFixedCompressor::new(bank, self.codec.scales(), tile_size, self.workers)
    }

    /// Compresses a whole batch, returning the per-image streams (in input
    /// order) and the wall-clock throughput of the run.
    ///
    /// # Errors
    ///
    /// Returns the first per-image codec error, if any.
    pub fn compress_batch(
        &self,
        images: &[Image],
    ) -> Result<(Vec<Vec<u8>>, BatchReport), PipelineError> {
        let raw_bytes: usize =
            images.iter().map(|i| (i.pixel_count() * i.bit_depth() as usize).div_ceil(8)).sum();
        let start = Instant::now();
        let streams = run_indexed(self.workers, images.len(), |i| self.codec.compress(&images[i]))?;
        let wall = start.elapsed();
        let compressed_bytes = streams.iter().map(Vec::len).sum();
        let report = BatchReport {
            images: images.len(),
            raw_bytes,
            compressed_bytes,
            workers: self.workers.min(images.len().max(1)),
            wall,
        };
        Ok((streams, report))
    }

    /// Decompresses a whole batch of streams, returning the images in input
    /// order and the wall-clock throughput (rated against the *decoded* raw
    /// volume).
    ///
    /// # Errors
    ///
    /// Returns the first per-stream codec error, if any.
    pub fn decompress_batch(
        &self,
        streams: &[Vec<u8>],
    ) -> Result<(Vec<Image>, BatchReport), PipelineError> {
        let start = Instant::now();
        let images =
            run_indexed(self.workers, streams.len(), |i| self.codec.decompress(&streams[i]))?;
        let wall = start.elapsed();
        let raw_bytes =
            images.iter().map(|i| (i.pixel_count() * i.bit_depth() as usize).div_ceil(8)).sum();
        let report = BatchReport {
            images: images.len(),
            raw_bytes,
            compressed_bytes: streams.iter().map(Vec::len).sum(),
            workers: self.workers.min(streams.len().max(1)),
            wall,
        };
        Ok((images, report))
    }

    /// Streaming compression: images are pulled from `images` a window of
    /// `workers × 2` at a time, each window is compressed on the worker pool,
    /// and the streams are yielded in input order. Peak memory is bounded by
    /// the worker count, not the batch length.
    pub fn compress_iter<I>(&self, images: I) -> OrderedStream<Vec<u8>>
    where
        I: IntoIterator<Item = Image>,
        I::IntoIter: Send + 'static,
    {
        let codec = self.codec;
        OrderedStream::new(
            self.workers,
            images.into_iter(),
            move |image| Ok(codec.compress(image)?),
        )
    }

    /// Streaming decompression, the inverse of
    /// [`BatchCompressor::compress_iter`].
    pub fn decompress_iter<I>(&self, streams: I) -> OrderedStream<Image>
    where
        I: IntoIterator<Item = Vec<u8>>,
        I::IntoIter: Send + 'static,
    {
        let codec = self.codec;
        OrderedStream::new(self.workers, streams.into_iter(), move |bytes| {
            Ok(codec.decompress(bytes)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_image::{stats, synth};

    fn batch(n: usize, size: usize) -> Vec<Image> {
        (0..n)
            .map(|s| match s % 3 {
                0 => synth::ct_phantom(size, size, 12, s as u64),
                1 => synth::mr_slice(size, size, 12, s as u64),
                _ => synth::random_image(size, size, 12, s as u64),
            })
            .collect()
    }

    #[test]
    fn batch_streams_match_the_sequential_codec_exactly() {
        let engine = BatchCompressor::new(4, 3).unwrap();
        let images = batch(7, 64);
        let (streams, report) = engine.compress_batch(&images).unwrap();
        assert_eq!(report.images, 7);
        for (image, stream) in images.iter().zip(&streams) {
            assert_eq!(stream, &engine.codec().compress(image).unwrap());
        }
        let (decoded, _) = engine.decompress_batch(&streams).unwrap();
        for (image, back) in images.iter().zip(&decoded) {
            assert!(stats::bit_exact(image, back).unwrap());
        }
    }

    #[test]
    fn streaming_api_preserves_order_and_content() {
        let engine = BatchCompressor::new(3, 2).unwrap();
        let images = batch(9, 32);
        let sequential: Vec<Vec<u8>> =
            images.iter().map(|i| engine.codec().compress(i).unwrap()).collect();
        let streamed: Vec<Vec<u8>> =
            engine.compress_iter(images.clone()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, sequential);

        let roundtripped: Vec<Image> =
            engine.decompress_iter(streamed).map(|r| r.unwrap()).collect();
        for (image, back) in images.iter().zip(&roundtripped) {
            assert!(stats::bit_exact(image, back).unwrap());
        }
    }

    #[test]
    fn zero_workers_selects_available_parallelism() {
        let engine = BatchCompressor::new(2, 0).unwrap();
        assert!(engine.workers() >= 1);
    }

    #[test]
    fn errors_propagate_from_workers() {
        let engine = BatchCompressor::new(5, 2).unwrap();
        // A corrupt stream in the middle of an otherwise fine batch must
        // surface as an error, not as a wrong image.
        let images = batch(4, 64);
        let (mut streams, _) = engine.compress_batch(&images).unwrap();
        let half = streams[2].len() / 2;
        streams[2].truncate(half);
        assert!(engine.decompress_batch(&streams).is_err());
    }

    #[test]
    fn small_images_now_decompose_at_any_depth() {
        // The ragged pyramid removed the old even-dimensions restriction:
        // 16x16 over 5 scales is valid and lossless.
        let engine = BatchCompressor::new(5, 2).unwrap();
        let images = vec![synth::flat(16, 16, 12, 1), synth::random_image(15, 9, 12, 2)];
        let (streams, _) = engine.compress_batch(&images).unwrap();
        let (decoded, _) = engine.decompress_batch(&streams).unwrap();
        for (image, back) in images.iter().zip(&decoded) {
            assert!(stats::bit_exact(image, back).unwrap());
        }
    }

    #[test]
    fn tiled_engine_shares_codec_and_workers() {
        let engine = BatchCompressor::new(3, 2).unwrap();
        let tiled = engine.tiled(32, 32).unwrap();
        assert_eq!(tiled.workers(), engine.workers());
        assert_eq!(tiled.codec().scales(), engine.codec().scales());
        let image = synth::ct_phantom(80, 80, 12, 11);
        let bytes = tiled.compress(&image).unwrap();
        assert!(stats::bit_exact(&image, &tiled.decompress(&bytes).unwrap()).unwrap());
        assert!(engine.tiled(0, 4).is_err());
    }

    #[test]
    fn tiled_fixed_engine_shares_depth_and_workers() {
        let engine = BatchCompressor::new(3, 2).unwrap();
        let bank = lwc_filters::FilterBank::table1(lwc_filters::FilterId::F1);
        let fixed = engine.tiled_fixed(&bank, 32).unwrap();
        assert_eq!(fixed.workers(), engine.workers());
        assert_eq!(fixed.scales(), engine.codec().scales());
        let image = synth::ct_phantom(64, 64, 12, 13);
        let bytes = fixed.compress(&image).unwrap();
        assert!(stats::bit_exact(&image, &fixed.decompress(&bytes).unwrap()).unwrap());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = BatchCompressor::new(3, 2).unwrap();
        let (streams, report) = engine.compress_batch(&[]).unwrap();
        assert!(streams.is_empty());
        assert_eq!(report.images, 0);
    }
}
