//! The unified compression-engine interface: the [`Codec`] trait.
//!
//! The workspace has three 2-D engines — [`LosslessCodec`] (sequential,
//! `LWC1`), [`TiledCompressor`] (tile-parallel lifting, `LWC1`/`LWCT`) and
//! [`TiledFixedCompressor`] (tile-parallel paper-exact fixed point, `LWCF`)
//! — that all answer the same two questions: bytes from an image, an image
//! from bytes. [`Codec`] names that contract once, so call sites (the batch
//! engine, the server's op dispatch, the reproduction binary) hold a
//! `&dyn Codec` and never enumerate engines; the 3-D brick engine
//! ([`VolumeCompressor`], `LWCV`) and the near-lossless mode (`LWCQ`, a
//! quantizer bound threaded through the lifting engines) slotted in exactly
//! that way.
//!
//! The trait is **object safe** and deliberately small: two required
//! methods plus capability reporting. Random tile access and bounded-memory
//! row-band streaming have default implementations that treat the whole
//! image as one tile / one band, which is exactly right for the
//! whole-image engines; the tiled engines override them with their real
//! directory-driven paths. Every implementation routes through the same
//! inherent methods it always had, so trait dispatch is byte-identical to
//! concrete calls — a property the test suite pins down.

use crate::{PipelineError, RowBand, TiledCompressor, TiledFixedCompressor, VolumeCompressor};
use lwc_coder::{CompressionReport, LosslessCodec};
use lwc_image::{Image, ImageStack};

/// What a [`Codec`] implementation can do beyond plain
/// compress/decompress — capability flags a generic caller can branch on
/// instead of downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecCapabilities {
    /// The container formats the engine reads/writes (e.g. `"LWC1/LWCT"`).
    pub containers: &'static str,
    /// `true` if streams may hold more than one independently decodable
    /// tile, making [`Codec::decompress_tile`] genuine random access.
    pub tiled: bool,
    /// `true` if [`Codec::decompress_row_bands`] streams with memory
    /// bounded by one band instead of materializing the frame.
    pub streaming_decode: bool,
    /// `true` if the engine runs the paper-exact fixed-point datapath
    /// (Table I banks at Table II word lengths) rather than the reversible
    /// lifting transform.
    pub fixed_point: bool,
    /// `true` if the engine accepts a near-lossless configuration
    /// ([`LosslessCodec::near_lossless`]): detail-band quantization under a
    /// per-pixel bound `δ`, with `δ = 0` byte-identical to the lossless
    /// streams.
    pub near_lossless: bool,
}

/// A lossless — or bounded-error near-lossless — image compression engine.
///
/// The contract every implementation honors:
///
/// * `decompress(compress(image))` is pixel-exact for every supported image
///   when the engine is configured losslessly; an engine configured with a
///   near-lossless bound `δ` (see [`CodecCapabilities::near_lossless`])
///   reconstructs every pixel within `δ` of the original instead,
/// * streams depend only on the image and the engine's configuration, never
///   on worker counts or scheduling,
/// * malformed input to `decompress*` surfaces as a typed
///   [`PipelineError`], never a panic.
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::{Codec, TiledCompressor};
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let engine: Box<dyn Codec> = Box::new(TiledCompressor::new(3, 64, 2)?);
/// let image = synth::ct_phantom(128, 96, 12, 1);
/// let bytes = engine.compress(&image)?;
/// assert_eq!(engine.decompress(&bytes)?.samples(), image.samples());
/// # Ok(())
/// # }
/// ```
pub trait Codec: Send + Sync {
    /// Short human-readable engine name (for logs and reports).
    fn name(&self) -> &'static str;

    /// What the engine can do; see [`CodecCapabilities`].
    fn capabilities(&self) -> CodecCapabilities;

    /// Compresses `image` into the engine's container format.
    ///
    /// # Errors
    ///
    /// Returns an error if the image cannot be handled by the engine's
    /// configuration (e.g. undecomposable geometry).
    fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError>;

    /// Reconstructs the image — pixel-exact for lossless streams, within the
    /// stream's declared bound `δ` for near-lossless ones.
    ///
    /// # Errors
    ///
    /// Returns a typed error for malformed streams or streams the engine's
    /// configuration cannot read.
    fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError>;

    /// Compresses and reports size accounting. The default computes the
    /// report from the stream; engines with richer internal accounting may
    /// override.
    ///
    /// # Errors
    ///
    /// See [`Codec::compress`].
    fn compress_with_report(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, CompressionReport), PipelineError> {
        let bytes = self.compress(image)?;
        let pixels = image.pixel_count().max(1);
        let report = CompressionReport {
            raw_bytes: (image.pixel_count() * image.bit_depth() as usize).div_ceil(8),
            compressed_bytes: bytes.len(),
            bits_per_pixel: bytes.len() as f64 * 8.0 / pixels as f64,
        };
        Ok((bytes, report))
    }

    /// Compress followed by decompress — the losslessness probe.
    ///
    /// # Errors
    ///
    /// See [`Codec::compress`] and [`Codec::decompress`].
    fn roundtrip(&self, image: &Image) -> Result<Image, PipelineError> {
        let bytes = self.compress(image)?;
        self.decompress(&bytes)
    }

    /// Decodes one tile (row-major `index`) of the stream. For engines
    /// without tiled containers the whole image is the single tile `0`; the
    /// tiled engines override this with directory-driven random access.
    ///
    /// # Errors
    ///
    /// See [`Codec::decompress`]; additionally errors for an out-of-range
    /// `index`.
    fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        if index != 0 {
            return Err(PipelineError::from(lwc_coder::CoderError::MalformedStream(format!(
                "tile index {index} out of range: a {} stream is a single tile",
                self.name()
            ))));
        }
        self.decompress(bytes)
    }

    /// Streaming decode: yields the image as horizontal [`RowBand`]s, top
    /// to bottom. The default yields one band covering the whole image;
    /// tiled engines override it with genuinely bounded-memory decode
    /// (see [`CodecCapabilities::streaming_decode`]).
    ///
    /// # Errors
    ///
    /// Malformed containers may error here or through the iterator's items.
    fn decompress_row_bands<'a>(
        &'a self,
        bytes: &'a [u8],
    ) -> Result<Box<dyn Iterator<Item = Result<RowBand, PipelineError>> + 'a>, PipelineError> {
        let image = self.decompress(bytes)?;
        Ok(Box::new(std::iter::once(Ok(RowBand { y: 0, image }))))
    }
}

impl Codec for LosslessCodec {
    fn name(&self) -> &'static str {
        "lossless"
    }

    fn capabilities(&self) -> CodecCapabilities {
        CodecCapabilities {
            containers: "LWC1/LWCQ",
            tiled: false,
            streaming_decode: false,
            fixed_point: false,
            near_lossless: true,
        }
    }

    fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        Ok(LosslessCodec::compress(self, image)?)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        Ok(LosslessCodec::decompress(self, bytes)?)
    }
}

impl Codec for TiledCompressor {
    fn name(&self) -> &'static str {
        "tiled"
    }

    fn capabilities(&self) -> CodecCapabilities {
        CodecCapabilities {
            containers: "LWC1/LWCQ/LWCT",
            tiled: true,
            streaming_decode: true,
            fixed_point: false,
            near_lossless: true,
        }
    }

    fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        TiledCompressor::compress(self, image)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        TiledCompressor::decompress(self, bytes)
    }

    fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        TiledCompressor::decompress_tile(self, bytes, index)
    }

    fn decompress_row_bands<'a>(
        &'a self,
        bytes: &'a [u8],
    ) -> Result<Box<dyn Iterator<Item = Result<RowBand, PipelineError>> + 'a>, PipelineError> {
        Ok(Box::new(TiledCompressor::decompress_row_bands(self, bytes)?))
    }
}

impl Codec for TiledFixedCompressor {
    fn name(&self) -> &'static str {
        "tiled-fixed"
    }

    fn capabilities(&self) -> CodecCapabilities {
        CodecCapabilities {
            containers: "LWCF",
            tiled: true,
            streaming_decode: true,
            fixed_point: true,
            near_lossless: false,
        }
    }

    fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        TiledFixedCompressor::compress(self, image)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        TiledFixedCompressor::decompress(self, bytes)
    }

    fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        TiledFixedCompressor::decompress_tile(self, bytes, index)
    }

    fn decompress_row_bands<'a>(
        &'a self,
        bytes: &'a [u8],
    ) -> Result<Box<dyn Iterator<Item = Result<RowBand, PipelineError>> + 'a>, PipelineError> {
        Ok(Box::new(TiledFixedCompressor::decompress_row_bands(self, bytes)?))
    }
}

impl Codec for VolumeCompressor {
    fn name(&self) -> &'static str {
        "volume"
    }

    fn capabilities(&self) -> CodecCapabilities {
        CodecCapabilities {
            containers: "LWCV",
            // Streams hold independently decodable bricks; for single-slice
            // volumes `decompress_tile` is genuine directory-driven random
            // access. The bounded-memory streaming path is the volumetric
            // `decompress_slabs`, not the 2-D row-band iterator, so
            // `streaming_decode` stays false at this trait's granularity.
            tiled: true,
            streaming_decode: false,
            fixed_point: false,
            near_lossless: true,
        }
    }

    fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        let stack = ImageStack::from_slices(std::slice::from_ref(image))
            .map_err(lwc_coder::CoderError::from)?;
        self.compress_stack(&stack)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        let stack = self.decompress_stack(bytes)?;
        if stack.depth() != 1 {
            return Err(PipelineError::from(lwc_coder::CoderError::UnsupportedFormat(format!(
                "stream holds a {}-slice volume, not an image; use decompress_stack",
                stack.depth()
            ))));
        }
        Ok(stack.slice_image(0).map_err(lwc_coder::CoderError::from)?)
    }

    fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        VolumeCompressor::decompress_brick_image(self, bytes, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_filters::{FilterBank, FilterId};
    use lwc_image::{stats, synth};

    fn engines() -> Vec<Box<dyn Codec>> {
        vec![
            Box::new(LosslessCodec::new(3).unwrap()),
            Box::new(TiledCompressor::new(3, 32, 2).unwrap()),
            Box::new(
                TiledFixedCompressor::new(&FilterBank::table1(FilterId::F1), 3, 32, 2).unwrap(),
            ),
            Box::new(VolumeCompressor::new(3, 1, 32, 8, 2).unwrap()),
        ]
    }

    #[test]
    fn every_engine_roundtrips_through_the_trait() {
        let image = synth::ct_phantom(96, 64, 12, 3);
        for engine in engines() {
            let back = engine.roundtrip(&image).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap(), "{}", engine.name());
        }
    }

    #[test]
    fn trait_dispatch_is_byte_identical_to_concrete_calls() {
        let image = synth::mr_slice(96, 64, 12, 5);
        let tiled = TiledCompressor::new(3, 32, 2).unwrap();
        assert_eq!(
            Codec::compress(&tiled, &image).unwrap(),
            TiledCompressor::compress(&tiled, &image).unwrap()
        );
        let fixed = TiledFixedCompressor::new(&FilterBank::table1(FilterId::F2), 3, 32, 2).unwrap();
        assert_eq!(
            Codec::compress(&fixed, &image).unwrap(),
            TiledFixedCompressor::compress(&fixed, &image).unwrap()
        );
    }

    #[test]
    fn capabilities_describe_the_engines() {
        let caps: Vec<CodecCapabilities> = engines().iter().map(|e| e.capabilities()).collect();
        assert!(!caps[0].tiled && !caps[0].fixed_point && caps[0].near_lossless);
        assert!(caps[1].tiled && caps[1].streaming_decode && caps[1].near_lossless);
        assert!(caps[2].fixed_point && !caps[2].near_lossless);
        assert_eq!(caps[2].containers, "LWCF");
        assert!(caps[3].tiled && !caps[3].fixed_point && caps[3].near_lossless);
        assert_eq!(caps[3].containers, "LWCV");
    }

    #[test]
    fn near_lossless_engines_honor_the_bound_through_the_trait() {
        let image = synth::ct_phantom(96, 64, 12, 13);
        let codec = LosslessCodec::near_lossless(3, 2).unwrap();
        let engines: Vec<Box<dyn Codec>> = vec![
            Box::new(codec),
            Box::new(TiledCompressor::with_codec(codec, 32, 32, 2).unwrap()),
            Box::new(VolumeCompressor::with_codec(codec, 1, 32, 32, 8, 2).unwrap()),
        ];
        for engine in engines {
            assert!(engine.capabilities().near_lossless, "{}", engine.name());
            let back = engine.roundtrip(&image).unwrap();
            let err = stats::max_abs_diff(&image, &back).unwrap();
            assert!(err <= 2, "{}: max error {err}", engine.name());
        }
    }

    #[test]
    fn default_tile_access_treats_the_image_as_tile_zero() {
        let image = synth::ct_phantom(64, 64, 12, 7);
        let engine: Box<dyn Codec> = Box::new(LosslessCodec::new(3).unwrap());
        let bytes = engine.compress(&image).unwrap();
        let tile = engine.decompress_tile(&bytes, 0).unwrap();
        assert!(stats::bit_exact(&image, &tile).unwrap());
        assert!(engine.decompress_tile(&bytes, 1).is_err());
    }

    #[test]
    fn default_row_bands_yield_one_band() {
        let image = synth::ct_phantom(64, 48, 12, 9);
        let engine: Box<dyn Codec> = Box::new(LosslessCodec::new(3).unwrap());
        let bytes = engine.compress(&image).unwrap();
        let bands: Vec<RowBand> =
            engine.decompress_row_bands(&bytes).unwrap().map(|b| b.unwrap()).collect();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].y, 0);
        assert!(stats::bit_exact(&image, &bands[0].image).unwrap());
    }

    #[test]
    fn reports_agree_on_sizes() {
        let image = synth::ct_phantom(64, 64, 12, 11);
        for engine in engines() {
            let (bytes, report) = engine.compress_with_report(&image).unwrap();
            assert_eq!(report.compressed_bytes, bytes.len(), "{}", engine.name());
            assert_eq!(report.raw_bytes, (64 * 64 * 12usize).div_ceil(8));
            if engine.capabilities().fixed_point {
                // The paper-exact datapath must carry every Table II
                // fractional bit to stay lossless, so its streams *expand*
                // (near-random fraction entropy) — the honest reproduction
                // result, quantified in `reproduce conclusions`.
                assert!(report.ratio() > 0.0, "{}", engine.name());
            } else {
                assert!(report.ratio() > 1.0, "{}", engine.name());
            }
        }
    }
}
