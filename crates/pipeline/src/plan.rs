//! Job plans: the one shape every tile and brick operation takes.
//!
//! A [`Plan`] is `n` independent parts, `run(i)` computing part `i`, and a
//! step placing each finished part into the output. The engines build their
//! plans — encode: tiles or bricks into a container; decode: the parts
//! covering a requested box into that box — and run them with
//! [`Plan::execute`]. A caller with a scheduler of its own (the server) runs
//! the same plans part by part. A [`DecodePlan`] owns the stream bytes and
//! the parsed header and directory, so a container is parsed and validated
//! once per plan, never once per part.

use crate::engine::PartCodec;
use crate::pool::run_indexed;
use crate::{scatter_region, PipelineError};
use lwc_coder::{CoderError, ContainerHeader, FixedStream, LosslessCodec, VolumeStream};
use lwc_dwt::FixedDwt2d;
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack};
use std::sync::Mutex;

/// `n` independent parts of one operation and the step that places them.
///
/// Parts may run in any order on any thread; each finished part is placed
/// into the sink (one at a time), and [`Plan::finish`] assembles the output
/// once every part is placed. Outputs never depend on the run order, which
/// is what keeps every engine's bytes independent of its worker count.
pub trait Plan: Send + Sync {
    /// What one part produces.
    type Part: Send;
    /// Where placed parts accumulate.
    type Sink: Send;
    /// The assembled result.
    type Output;

    /// Number of independent parts.
    fn parts(&self) -> usize;

    /// An empty sink ready for every part.
    fn sink(&self) -> Self::Sink;

    /// Computes part `index`.
    ///
    /// # Errors
    ///
    /// Returns the part's codec error.
    fn run(&self, index: usize) -> Result<Self::Part, PipelineError>;

    /// Places finished part `index` into the sink.
    fn place(&self, sink: &mut Self::Sink, index: usize, part: Self::Part);

    /// Assembles the output from a sink holding every part.
    ///
    /// # Errors
    ///
    /// Returns a container or validation error.
    fn finish(&self, sink: Self::Sink) -> Result<Self::Output, PipelineError>;

    /// Runs every part across `workers` scoped threads, placing each part as
    /// it finishes — at most one part per worker is ever held unplaced —
    /// then assembles the output.
    ///
    /// # Errors
    ///
    /// Returns the first part error, or the assembly error. A part whose
    /// `run` or `place` panics fails the plan with
    /// [`PipelineError::Config`]; the panic does not reach the caller.
    fn execute(&self, workers: usize) -> Result<Self::Output, PipelineError> {
        let sink = Mutex::new(self.sink());
        run_indexed(workers, self.parts(), |index| {
            let part = self.run(index)?;
            self.place(&mut sink.lock().expect("a placing worker panicked"), index, part);
            Ok::<(), PipelineError>(())
        })?;
        self.finish(sink.into_inner().expect("a placing worker panicked"))
    }
}

/// Decodes one part of a parsed stream: `(index, box, payload)` to the
/// part's plane-major samples. It holds the stream's part codec and header.
type DecodeFn =
    Box<dyn Fn(usize, BrickRect, &[u8]) -> Result<Vec<i32>, PipelineError> + Send + Sync>;

/// The decode plan of one parsed stream over a requested box.
///
/// Every format is a volume here: the tiles of a 2-D stream (`LWCT`,
/// `LWCF`) are one-slice bricks, and a legacy `LWC1`/`LWCQ` stream is one
/// brick covering the image. The box starts as the whole stream;
/// [`DecodePlan::select`] narrows it to a tile, a band or any region, and
/// the plan's parts become the bricks covering it. `B` owns the bytes:
/// `&[u8]` for an engine's own call, `Vec<u8>` for a plan that must outlive
/// the call (a server request).
///
/// ```
/// use lwc_image::{synth, BrickRect, TileRect};
/// use lwc_pipeline::{DecodePlan, Plan, TiledCompressor};
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let image = synth::ct_phantom(100, 60, 12, 1);
/// let bytes = TiledCompressor::new(3, 32, 1)?.compress(&image)?;
/// // The header picks the engine; the region picks the tiles.
/// let mut plan = DecodePlan::sniff(bytes.as_slice())?;
/// let plane = TileRect { x: 20, y: 10, width: 40, height: 30 };
/// plan.select(BrickRect { plane, z: 0, depth: 1 })?;
/// assert_eq!(plan.parts(), 4);
/// let region = plan.execute(2)?.into_image().expect("one slice");
/// assert_eq!(region, image.crop(plane).expect("inside"));
/// # Ok(())
/// # }
/// ```
pub struct DecodePlan<B> {
    bytes: B,
    /// The validated directory: part `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u64>,
    decoder: DecodeFn,
    volume: bool,
    grid: BrickGrid,
    bit_depth: u32,
    region: BrickRect,
    /// Plane-major indices of the parts covering `region`.
    indices: Vec<usize>,
}

impl<B: AsRef<[u8]>> DecodePlan<B> {
    /// Builds the plan a stream's own header calls for — `LWCF`, `LWCV`,
    /// otherwise `LWCT` or a legacy `LWC1`/`LWCQ` stream — with the part
    /// codec the header describes (depth, tile and brick shape, filter
    /// bank), so a reader never needs to know how the stream was produced.
    /// The header is read once. Near-lossless streams decode within their
    /// bound: the quantizer rides in the per-part stream headers.
    ///
    /// # Errors
    ///
    /// Returns a typed error for empty, truncated or malformed streams;
    /// every header read is bounds-checked, so sniffing never panics.
    pub fn sniff(bytes: B) -> Result<Self, PipelineError> {
        if FixedStream::sniff(bytes.as_ref()) {
            Self::parts(bytes, FixedDwt2d::for_header)
        } else if VolumeStream::sniff(bytes.as_ref()) {
            Self::parts(bytes, crate::volume::VolumeCodec::for_header)
        } else {
            Self::parts(bytes, LosslessCodec::for_header)
        }
    }

    /// The plan of a `C` stream over the whole frame, parsed here once.
    /// `codec` gives the part codec for the parsed header, which then
    /// refuses a header it cannot decode.
    pub(crate) fn parts<C: PartCodec>(
        bytes: B,
        codec: impl FnOnce(&C::Header) -> Result<C, PipelineError>,
    ) -> Result<Self, PipelineError> {
        let (header, offsets) = C::parse(bytes.as_ref())?;
        let codec = codec(&header)?;
        codec.check(&header)?;
        let grid = header.bricks()?;
        let bit_depth = header.common().bit_depth;
        let decoder: DecodeFn =
            Box::new(move |index, rect, part| codec.decode(&header, index, rect, part));
        let (region, indices) = (grid.bounds(), (0..grid.brick_count()).collect());
        Ok(Self { bytes, offsets, decoder, volume: C::VOLUME, grid, bit_depth, region, indices })
    }
}

impl<B> DecodePlan<B> {
    /// `true` for `LWCV` volumes, `false` for the 2-D formats (one slice).
    #[must_use]
    pub fn is_volume(&self) -> bool {
        self.volume
    }

    /// The stream's part grid: tiles as one-slice bricks for 2-D streams, a
    /// single brick for a legacy stream.
    #[must_use]
    pub fn grid(&self) -> &BrickGrid {
        &self.grid
    }

    /// Bits per decoded sample.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// The box the plan decodes.
    #[must_use]
    pub fn region(&self) -> BrickRect {
        self.region
    }

    /// Narrows the plan to the parts covering `region` (volume coordinates;
    /// a 2-D stream is one slice deep).
    ///
    /// # Errors
    ///
    /// Returns [`CoderError::MalformedStream`] for an empty box or one
    /// reaching outside the stream; the plan is left unchanged.
    pub fn select(&mut self, region: BrickRect) -> Result<(), PipelineError> {
        let fits = self.grid.covering_indices(region);
        self.indices = fits.ok_or_else(|| {
            let stream = self.grid.bounds();
            CoderError::MalformedStream(format!("region {region} does not fit the stream {stream}"))
        })?;
        self.region = region;
        Ok(())
    }
}

impl<B: AsRef<[u8]> + Send + Sync> Plan for DecodePlan<B> {
    /// The part's plane-major samples.
    type Part = Vec<i32>;
    /// The box's slice-major samples.
    type Sink = Vec<i32>;
    type Output = ImageStack;

    fn parts(&self) -> usize {
        self.indices.len()
    }

    fn sink(&self) -> Vec<i32> {
        vec![0; self.region.voxel_count()]
    }

    fn run(&self, slot: usize) -> Result<Vec<i32>, PipelineError> {
        let index = self.indices[slot];
        let bytes =
            &self.bytes.as_ref()[self.offsets[index] as usize..self.offsets[index + 1] as usize];
        (self.decoder)(index, self.grid.rect(index), bytes)
    }

    fn place(&self, sink: &mut Vec<i32>, slot: usize, part: Vec<i32>) {
        scatter_region(sink, self.region, self.grid.rect(self.indices[slot]), &part);
    }

    /// Range-validates every sample against the stream's bit depth (a
    /// corrupt brick can decode structurally yet leave the pixel range).
    fn finish(&self, sink: Vec<i32>) -> Result<ImageStack, PipelineError> {
        let BrickRect { plane, depth, .. } = self.region;
        Ok(ImageStack::from_samples(plane.width, plane.height, depth, self.bit_depth, sink)
            .map_err(CoderError::from)?)
    }
}

/// Decodes any 2-D stream (`LWC1`/`LWCQ`, `LWCT`, `LWCF`, or a one-slice
/// `LWCV` volume) with the parameters its header records.
///
/// # Errors
///
/// See [`DecodePlan::sniff`]; additionally errors for a multi-slice volume.
pub fn decompress_auto(bytes: &[u8]) -> Result<Image, PipelineError> {
    Ok(DecodePlan::sniff(bytes)?.execute(1)?.into_image().map_err(CoderError::from)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TiledCompressor, TiledFixedCompressor, VolumeCompressor};
    use lwc_coder::{FixedHeader, TiledStream};
    use lwc_image::{synth, TileRect};

    fn fixed_stream(image: &Image) -> Vec<u8> {
        let header = FixedHeader {
            width: image.width(),
            height: image.height(),
            bit_depth: image.bit_depth(),
            scales: 3,
            filter: 0,
            tile_width: 32,
            tile_height: 32,
        };
        TiledFixedCompressor::for_stream(&header, 1).unwrap().compress(image).unwrap()
    }

    #[test]
    fn decompress_auto_sniffs_all_three_formats_and_rejects_short_buffers() {
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 3));
        assert!(
            TiledStream::sniff(&tiled)
                && !TiledStream::sniff(&legacy)
                && FixedStream::sniff(&fixed)
        );
        for stream in [&legacy, &tiled] {
            let back = decompress_auto(stream).unwrap();
            assert_eq!(back.samples(), image.samples());
            // Every short prefix — including the empty buffer — must come
            // back as a typed error, never a panic or slice failure.
            for len in 0..8.min(stream.len()) {
                assert!(decompress_auto(&stream[..len]).is_err(), "prefix of {len} bytes");
            }
        }
        let back = decompress_auto(&fixed).unwrap();
        assert_eq!(back.samples(), synth::ct_phantom(64, 48, 12, 3).samples());
        for len in 0..8 {
            assert!(decompress_auto(&fixed[..len]).is_err(), "fixed prefix of {len} bytes");
        }
        // A near-lossless LWCQ stream decodes within its bound through the
        // same sniff, and its short prefixes are typed errors too.
        let quantized = LosslessCodec::near_lossless(3, 2).unwrap().compress(&image).unwrap();
        assert!(!TiledStream::sniff(&quantized) && !FixedStream::sniff(&quantized));
        let back = decompress_auto(&quantized).unwrap();
        assert!(lwc_image::stats::max_abs_diff(&image, &back).unwrap() <= 2);
        for len in 0..8 {
            assert!(decompress_auto(&quantized[..len]).is_err(), "LWCQ prefix of {len} bytes");
        }
    }

    #[test]
    fn engine_sniffing_matches_the_stream_parameters() {
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 5));
        let volume = VolumeCompressor::new(3, 1, 32, 4, 1)
            .unwrap()
            .compress_stack(&synth::ct_volume(40, 36, 6, 10, 5))
            .unwrap();
        let shape = |plan: &DecodePlan<&[u8]>| {
            let grid = plan.grid();
            let plane = grid.plane();
            let tile = (plane.tile_width(), plane.tile_height(), grid.brick_depth());
            (plane.image_width(), plane.image_height(), grid.image_depth(), tile)
        };
        let legacy_plan = DecodePlan::sniff(legacy.as_slice()).unwrap();
        assert_eq!(shape(&legacy_plan), (70, 50, 1, (70, 50, 1)));
        assert_eq!((legacy_plan.bit_depth(), legacy_plan.is_volume()), (12, false));
        let tiled_plan = DecodePlan::sniff(tiled.as_slice()).unwrap();
        assert_eq!(shape(&tiled_plan), (70, 50, 1, (32, 32, 1)));
        assert_eq!((tiled_plan.bit_depth(), tiled_plan.is_volume()), (12, false));
        let fixed_plan = DecodePlan::sniff(fixed.as_slice()).unwrap();
        assert_eq!(shape(&fixed_plan), (64, 48, 1, (32, 32, 1)));
        assert_eq!((fixed_plan.bit_depth(), fixed_plan.is_volume()), (12, false));
        let volume_plan = DecodePlan::sniff(volume.as_slice()).unwrap();
        assert_eq!(shape(&volume_plan), (40, 36, 6, (32, 32, 4)));
        assert_eq!((volume_plan.bit_depth(), volume_plan.is_volume()), (10, true));
        assert!(DecodePlan::sniff(&[][..]).is_err());
        assert!(DecodePlan::sniff(&[0x4C, 0x57][..]).is_err());
    }

    #[test]
    fn boxes_whose_end_overflows_are_typed_errors() {
        let image = synth::ct_phantom(70, 50, 12, 4);
        let bytes = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let mut plan = DecodePlan::sniff(bytes.as_slice()).unwrap();
        let plane = TileRect { x: usize::MAX, y: 0, width: 2, height: 1 };
        assert!(plan.select(BrickRect { plane, z: 0, depth: 1 }).is_err());
        assert!(image.crop(plane).is_err());
        let plane = TileRect { x: 0, y: usize::MAX, width: 1, height: 2 };
        assert!(plan.select(BrickRect { plane, z: 0, depth: 1 }).is_err());
        assert_eq!(plan.parts(), 6, "a refused box leaves the plan unchanged");

        let engine = VolumeCompressor::new(3, 1, 32, 4, 1).unwrap();
        let volume = engine.compress_stack(&synth::ct_volume(40, 36, 6, 12, 4)).unwrap();
        let plane = TileRect { x: 0, y: 0, width: 8, height: 8 };
        let region = BrickRect { plane, z: usize::MAX, depth: 2 };
        assert!(matches!(
            engine.decompress_region(&volume, region),
            Err(PipelineError::Coder(CoderError::MalformedStream(_)))
        ));
    }

    /// Parts `0..parts`; part `panic_at` panics.
    struct PanickingPlan {
        parts: usize,
        panic_at: usize,
    }

    impl Plan for PanickingPlan {
        type Part = usize;
        type Sink = usize;
        type Output = usize;

        fn parts(&self) -> usize {
            self.parts
        }

        fn sink(&self) -> usize {
            0
        }

        fn run(&self, index: usize) -> Result<usize, PipelineError> {
            assert_ne!(index, self.panic_at, "injected part panic");
            Ok(index)
        }

        fn place(&self, sink: &mut usize, _: usize, part: usize) {
            *sink += part;
        }

        fn finish(&self, sink: usize) -> Result<usize, PipelineError> {
            Ok(sink)
        }
    }

    #[test]
    fn a_panicking_part_fails_execute_with_a_typed_error() {
        for workers in [1, 2] {
            for panic_at in [0, 3, 7] {
                let plan = PanickingPlan { parts: 8, panic_at };
                match plan.execute(workers) {
                    Err(PipelineError::Config(message)) => {
                        assert!(message.contains("injected part panic"), "{message}");
                    }
                    other => panic!("{workers} workers, part {panic_at}: {other:?}"),
                }
            }
            // The caller keeps running, and a sound plan still executes.
            let sound = PanickingPlan { parts: 8, panic_at: usize::MAX };
            assert_eq!(sound.execute(workers).unwrap(), 28);
        }
    }
}
