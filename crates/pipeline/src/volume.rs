//! Brick-parallel volumetric compression: the 3-D engine.
//!
//! Medical studies are mostly *stacks* of correlated slices. This module
//! lifts the tile-sharded 2-D engine one dimension: an
//! [`lwc_image::ImageStack`] is partitioned by a [`BrickGrid`] into bricks
//! (a tile footprint times a run of slices), every brick runs a separable
//! 3-D DWT — the reversible 5/3 kernels of `lwc-lifting` along z
//! ([`lwc_lifting::forward_z`]) composed with the ordinary 2-D transform per
//! resulting coefficient plane — and the per-plane streams are wrapped in
//! the versioned `LWCV` container ([`lwc_coder::volume`]) behind the same
//! 48-bit offset directory as `LWCT`. That buys, in one move:
//!
//! * **inter-slice decorrelation** — adjacent CT/MRI slices are nearly
//!   identical, so the z detail planes are close to zero and Rice-code
//!   tightly; `z_scales = 0` switches the z transform off and the per-plane
//!   substreams become byte-identical to the 2-D tiled path's,
//! * **brick parallelism** — one volume request fans into
//!   `bricks_z x tiles` independent encode/decode jobs with worker-count
//!   independent bytes (the same [`Plan`] discipline as every other
//!   engine),
//! * **bounded-memory decode** — [`VolumeCompressor::decompress_slabs`]
//!   walks the directory one brick layer at a time, the volumetric mirror of
//!   `decompress_row_bands`, sound because z transforms never cross brick
//!   boundaries.

use crate::plan::PartDecoder;
use crate::pool::resolve_workers;
use crate::report::TiledReport;
use crate::tiled::check_tile_shape;
use crate::{DecodePlan, PipelineError, Plan};
use lwc_coder::volume::{split_brick_payload, write_brick_payload};
use lwc_coder::{
    check_z_scales, plane_delta_for_volume, write_container, CoderError, LosslessCodec,
    VolumeHeader,
};
use lwc_image::{BrickGrid, BrickRect, ImageStack, ImageView, TileRect};
use lwc_lifting::{forward_z, inverse_z};
use std::borrow::Borrow;
use std::time::Instant;

/// Default nominal brick depth in slices: deep enough that two z scales have
/// material to work with, shallow enough that a brick (tile footprint x
/// depth, i32) stays cache-friendly and slab-streaming memory stays low.
pub const DEFAULT_BRICK_DEPTH: usize = 8;

/// Brick-parallel lossless codec for volumes (stacks of slices).
///
/// Streams are deterministic for a given brick shape — the worker count
/// never changes a byte — and every brick decodes independently through the
/// container directory.
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::VolumeCompressor;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let engine = VolumeCompressor::new(3, 1, 32, 4, 0)?;
/// let volume = synth::ct_volume(70, 50, 11, 12, 1); // ragged bricks all round
/// let bytes = engine.compress_stack(&volume)?;
/// let back = engine.decompress_stack(&bytes)?;
/// assert_eq!(volume.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct VolumeCompressor {
    /// The user-facing codec; its `delta` is the per-voxel bound the volume
    /// container advertises.
    codec: LosslessCodec,
    /// The codec actually applied per coefficient plane: its delta is
    /// [`plane_delta_for_volume`] of the volume bound, shrunk so the z-axis
    /// synthesis stages cannot amplify the per-plane error past the volume
    /// bound. Identical to `codec` when `delta == 0` or `z_scales == 0`.
    plane_codec: LosslessCodec,
    z_scales: u32,
    tile_width: usize,
    tile_height: usize,
    brick_depth: usize,
    workers: usize,
}

impl VolumeCompressor {
    /// Creates an engine with the given 2-D decomposition depth, z-axis
    /// decomposition depth (0 disables inter-slice decorrelation), square
    /// tile side, brick depth in slices and worker count. `workers == 0`
    /// selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero or a brick dimension is out of
    /// range.
    pub fn new(
        scales: u32,
        z_scales: u32,
        tile_size: usize,
        brick_depth: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        Self::with_codec(
            LosslessCodec::new(scales)?,
            z_scales,
            tile_size,
            tile_size,
            brick_depth,
            workers,
        )
    }

    /// Wraps an existing per-plane codec with an explicit (possibly
    /// non-square) brick shape. `workers == 0` selects the machine's
    /// available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] if a brick dimension is zero, a
    /// tile dimension does not fit the per-plane stream format's 20-bit
    /// fields, or `z_scales` breaks the container's rule
    /// ([`lwc_coder::check_z_scales`]).
    pub fn with_codec(
        codec: LosslessCodec,
        z_scales: u32,
        tile_width: usize,
        tile_height: usize,
        brick_depth: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        if brick_depth == 0 {
            return Err(PipelineError::Config("brick dimensions must be nonzero".into()));
        }
        check_tile_shape(tile_width, tile_height)?;
        check_z_scales(z_scales).map_err(|e| PipelineError::Config(e.to_string()))?;
        let workers = resolve_workers(workers);
        let plane_codec = LosslessCodec::near_lossless(
            codec.scales(),
            plane_delta_for_volume(codec.delta(), z_scales),
        )?;
        Ok(Self { codec, plane_codec, z_scales, tile_width, tile_height, brick_depth, workers })
    }

    /// The per-plane 2-D codec.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// z-axis decomposition depth (0 = per-slice 2-D coding).
    #[must_use]
    pub fn z_scales(&self) -> u32 {
        self.z_scales
    }

    /// Nominal tile width.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Nominal tile height.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_height
    }

    /// Nominal brick depth in slices.
    #[must_use]
    pub fn brick_depth(&self) -> usize {
        self.brick_depth
    }

    /// Worker threads used per volume.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The brick grid this engine would use for a `width x height x depth`
    /// volume.
    ///
    /// # Errors
    ///
    /// Returns an error for zero volume dimensions.
    pub fn grid(
        &self,
        width: usize,
        height: usize,
        depth: usize,
    ) -> Result<BrickGrid, PipelineError> {
        BrickGrid::new(width, height, depth, self.tile_width, self.tile_height, self.brick_depth)
            .map_err(|e| PipelineError::Config(format!("invalid brick grid: {e}")))
    }

    /// Compresses a volume, fanning the bricks across the worker pool. The
    /// bytes depend only on the volume and the brick shape, never on the
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns the first per-brick codec error, if any.
    pub fn compress_stack(&self, stack: &ImageStack) -> Result<Vec<u8>, PipelineError> {
        Ok(self.compress_stack_with_report(stack)?.0)
    }

    /// Compresses and reports brick-level throughput (the report's `tiles`
    /// field counts bricks).
    ///
    /// # Errors
    ///
    /// See [`VolumeCompressor::compress_stack`].
    pub fn compress_stack_with_report(
        &self,
        stack: &ImageStack,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let start = Instant::now();
        let plan = self.encode_plan(stack)?;
        let bytes = plan.execute(self.workers)?;
        let report = TiledReport {
            tiles: plan.parts(),
            raw_bytes: (stack.voxel_count() * stack.bit_depth() as usize).div_ceil(8),
            compressed_bytes: bytes.len(),
            workers: self.workers.min(plan.parts()),
            wall: start.elapsed(),
        };
        Ok((bytes, report))
    }

    /// The encode plan of `stack`: one part per brick of its grid. `S` owns
    /// or borrows the volume.
    ///
    /// # Errors
    ///
    /// Returns an error for zero volume dimensions.
    pub fn encode_plan<S: Borrow<ImageStack>>(
        &self,
        stack: S,
    ) -> Result<BrickEncodePlan<S>, PipelineError> {
        let volume = stack.borrow();
        let grid = self.grid(volume.width(), volume.height(), volume.depth())?;
        Ok(BrickEncodePlan { engine: *self, stack, grid })
    }

    /// Compresses one brick (plane-major `index` of `grid`) into its
    /// standalone payload — the unit a scheduler can fan across workers.
    /// Byte-identical to the payload [`VolumeCompressor::compress_stack`]
    /// places in the container's `index` directory slot, by construction:
    /// `compress_stack` itself is built on this.
    ///
    /// The brick is gathered plane-major, z-lifted in place
    /// ([`lwc_lifting::forward_z`]; a no-op at `z_scales = 0`), and every
    /// resulting coefficient plane is 2-D coded as one `LWC1` stream —
    /// negative z coefficients ride through the same subband coder pixels
    /// do, which handles any `i32`.
    ///
    /// # Errors
    ///
    /// Returns the brick's codec error; `grid` must describe `stack` (an
    /// out-of-bounds box surfaces as a view error).
    pub fn encode_brick(
        &self,
        stack: &ImageStack,
        grid: &BrickGrid,
        index: usize,
    ) -> Result<Vec<u8>, PipelineError> {
        let rect = grid.rect(index);
        let mut samples = stack.view_brick(rect).map_err(CoderError::from)?.to_samples();
        let plane_len = rect.plane.pixel_count();
        forward_z(&mut samples, plane_len, rect.depth, self.z_scales).map_err(CoderError::from)?;
        let planes = samples
            .chunks_exact(plane_len)
            .map(|plane| {
                let view = ImageView::from_raw(
                    plane,
                    rect.plane.width,
                    rect.plane.height,
                    rect.plane.width,
                    stack.bit_depth(),
                )
                .map_err(CoderError::from)?;
                Ok(self.plane_codec.compress_view(&view)?)
            })
            .collect::<Result<Vec<_>, PipelineError>>()?;
        Ok(write_brick_payload(&planes))
    }

    /// Assembles per-brick payloads (plane-major `grid` order, one per
    /// brick, as produced by [`VolumeCompressor::encode_brick`]) into the
    /// `LWCV` container [`VolumeCompressor::compress_stack`] writes.
    ///
    /// # Errors
    ///
    /// Returns a container error if the payload count disagrees with the
    /// grid or an offset overflows the directory format.
    pub fn assemble_container(
        &self,
        grid: &BrickGrid,
        bit_depth: u32,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<u8>, PipelineError> {
        let header = VolumeHeader {
            width: grid.plane().image_width(),
            height: grid.plane().image_height(),
            depth: grid.image_depth(),
            bit_depth,
            scales: self.codec.scales(),
            z_scales: self.z_scales,
            tile_width: grid.plane().tile_width(),
            tile_height: grid.plane().tile_height(),
            brick_depth: grid.brick_depth(),
            delta: self.codec.delta(),
        };
        Ok(write_container(&header, payloads)?)
    }

    /// Reconstructs the volume from an `LWCV` container — voxel-exact for
    /// lossless streams, within the per-voxel bound `δ` the container header
    /// declares for near-lossless ones (each plane's stream header is
    /// cross-checked against the bound the container implies).
    ///
    /// Each brick is placed into the volume as it finishes decoding. Every
    /// reconstructed sample is range-validated against the container's bit
    /// depth after the inverse z transform — corrupt brick payloads that
    /// decode structurally but produce out-of-range voxels are rejected.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// bricks that disagree with the container's grid geometry.
    pub fn decompress_stack(&self, bytes: &[u8]) -> Result<ImageStack, PipelineError> {
        self.decode_plan(bytes)?.execute(self.workers)
    }

    /// The decode plan of an `LWCV` container over the whole volume; `B`
    /// owns or borrows the bytes. The container is parsed and validated
    /// here, once; [`DecodePlan::select`] narrows the plan to a region.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed header or directory, or a container
    /// coded at a different 2-D depth than this engine's codec.
    pub fn decode_plan<B: AsRef<[u8]>>(&self, bytes: B) -> Result<DecodePlan<B>, PipelineError> {
        DecodePlan::container(bytes, |header: VolumeHeader| {
            self.ensure_scales(&header)?;
            Ok(PartDecoder::Volume(*self, header))
        })
    }

    /// Streaming decode: yields the volume one brick-layer **slab** at a
    /// time (front to back), decoding each slab's bricks on the worker
    /// pool. Peak memory is bounded by one slab — `width x height x
    /// brick_depth` voxels plus one decoded brick per worker — regardless of
    /// the volume's slice count; sound because the z transform never crosses
    /// a brick boundary. The volumetric mirror of
    /// [`crate::TiledCompressor::decompress_row_bands`].
    ///
    /// # Errors
    ///
    /// Returns an error if the container header or directory is malformed;
    /// per-slab decode errors surface through the iterator's items.
    pub fn decompress_slabs<'a>(&self, bytes: &'a [u8]) -> Result<VolumeSlabs<'a>, PipelineError> {
        Ok(VolumeSlabs { plan: self.decode_plan(bytes)?, workers: self.workers, next_layer: 0 })
    }

    /// Decodes the minimal set of bricks covering the box `rect` and crops
    /// the box out — region-of-interest access over the container directory,
    /// decoding nothing outside the covering bricks. The bricks fan across
    /// the worker pool.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or a box that does not fit
    /// the volume.
    pub fn decompress_region(
        &self,
        bytes: &[u8],
        rect: BrickRect,
    ) -> Result<ImageStack, PipelineError> {
        let mut plan = self.decode_plan(bytes)?;
        plan.select(rect)?;
        plan.execute(self.workers)
    }

    fn ensure_scales(&self, header: &VolumeHeader) -> Result<(), PipelineError> {
        if header.scales != self.codec.scales() {
            return Err(CoderError::UnsupportedFormat(format!(
                "volume stream uses {} scales but the codec is configured for {}",
                header.scales,
                self.codec.scales()
            ))
            .into());
        }
        Ok(())
    }

    /// Decodes one brick (plane-major `index`, placed at `rect`) to its
    /// plane-major raw samples: splits the payload's plane table, entropy
    /// decodes every coefficient plane and runs its inverse cascade straight
    /// into the plane's slot of the brick buffer (the raw, range-unchecked
    /// path), then inverts the z transform with the **container's**
    /// `z_scales`. Each plane's stream header must carry the per-plane
    /// quantizer delta the container's volume bound implies; near-lossless
    /// voxels are clamped to the container's sample range after the inverse
    /// z transform (clamping only moves a reconstruction toward the
    /// original, so the bound holds).
    pub(crate) fn decode_brick(
        &self,
        header: &VolumeHeader,
        index: usize,
        rect: BrickRect,
        bytes: &[u8],
    ) -> Result<Vec<i32>, CoderError> {
        let expected_delta = plane_delta_for_volume(header.delta, header.z_scales);
        let plane_len = rect.plane.pixel_count();
        let planes = split_brick_payload(bytes, rect.depth)?;
        let mut samples = vec![0i32; plane_len * rect.depth];
        for ((z, plane_bytes), slot) in
            planes.iter().enumerate().zip(samples.chunks_exact_mut(plane_len))
        {
            let (plane_header, subbands) = self.codec.decode_subbands(plane_bytes)?;
            if plane_header.delta != expected_delta {
                return Err(CoderError::MalformedStream(format!(
                    "brick {index} plane {z} carries quantizer delta {} but the container's \
                     volume bound {} implies {}",
                    plane_header.delta, header.delta, expected_delta
                )));
            }
            if plane_header.width != rect.plane.width || plane_header.height != rect.plane.height {
                return Err(CoderError::MalformedStream(format!(
                    "brick {index} plane {z} decodes to {}x{} but the grid places a {}x{} brick \
                     there",
                    plane_header.width, plane_header.height, rect.plane.width, rect.plane.height
                )));
            }
            if plane_header.bit_depth != header.bit_depth {
                return Err(CoderError::MalformedStream(format!(
                    "brick {index} plane {z} carries {}-bit samples but the container header says \
                     {}-bit",
                    plane_header.bit_depth, header.bit_depth
                )));
            }
            self.codec.reassemble_into(&plane_header, &subbands, slot)?;
        }
        inverse_z(&mut samples, plane_len, rect.depth, header.z_scales)?;
        if header.delta != 0 {
            // i64 keeps a forged bit depth from overflowing the shift before
            // the range validation downstream rejects it.
            let max = ((1i64 << header.bit_depth) - 1).min(i64::from(i32::MAX)) as i32;
            for sample in &mut samples {
                *sample = (*sample).clamp(0, max);
            }
        }
        Ok(samples)
    }
}

/// The encode plan of a [`VolumeCompressor`]: one part per brick,
/// assembled into the `LWCV` container.
pub struct BrickEncodePlan<S> {
    engine: VolumeCompressor,
    stack: S,
    grid: BrickGrid,
}

impl<S: Borrow<ImageStack> + Send + Sync> Plan for BrickEncodePlan<S> {
    type Part = Vec<u8>;
    type Sink = Vec<Vec<u8>>;
    type Output = Vec<u8>;

    fn parts(&self) -> usize {
        self.grid.brick_count()
    }

    fn sink(&self) -> Vec<Vec<u8>> {
        vec![Vec::new(); self.parts()]
    }

    fn run(&self, index: usize) -> Result<Vec<u8>, PipelineError> {
        self.engine.encode_brick(self.stack.borrow(), &self.grid, index)
    }

    fn place(&self, sink: &mut Vec<Vec<u8>>, index: usize, part: Vec<u8>) {
        sink[index] = part;
    }

    fn finish(&self, sink: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        self.engine.assemble_container(&self.grid, self.stack.borrow().bit_depth(), &sink)
    }
}

/// Scatters the intersection of a decoded brick (plane-major `samples`) with
/// a requested region into the region's slice-major buffer (both boxes in
/// volume coordinates; disjoint boxes are a no-op). A 2-D tile is a
/// one-slice brick.
pub fn scatter_region(region: &mut [i32], want: BrickRect, brick: BrickRect, samples: &[i32]) {
    let x0 = want.plane.x.max(brick.plane.x);
    let x1 = want.plane.right().min(brick.plane.right());
    let y0 = want.plane.y.max(brick.plane.y);
    let y1 = want.plane.bottom().min(brick.plane.bottom());
    let z0 = want.z.max(brick.z);
    let z1 = want.back().min(brick.back());
    if x0 >= x1 || y0 >= y1 || z0 >= z1 {
        return;
    }
    let plane_len = brick.plane.pixel_count();
    for z in z0..z1 {
        for y in y0..y1 {
            let src = (z - brick.z) * plane_len
                + (y - brick.plane.y) * brick.plane.width
                + (x0 - brick.plane.x);
            let dst = ((z - want.z) * want.plane.height + (y - want.plane.y)) * want.plane.width
                + (x0 - want.plane.x);
            region[dst..dst + (x1 - x0)].copy_from_slice(&samples[src..src + (x1 - x0)]);
        }
    }
}

/// One brick-layer slab of a streamed volumetric decode; see
/// [`VolumeCompressor::decompress_slabs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeSlab {
    /// First slice of the volume this slab covers.
    pub z: usize,
    /// The decoded slab (full width x height, one brick layer of slices).
    pub stack: ImageStack,
}

/// Iterator over the slabs of a compressed volume, yielded front to back:
/// each slab is the volume's decode plan narrowed to one brick layer.
pub struct VolumeSlabs<'a> {
    plan: DecodePlan<&'a [u8]>,
    workers: usize,
    next_layer: usize,
}

impl Iterator for VolumeSlabs<'_> {
    type Item = Result<VolumeSlab, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let grid = *self.plan.grid();
        if self.next_layer >= grid.bricks_z() {
            return None;
        }
        let (z, depth) = grid.z_extent(self.next_layer);
        self.next_layer += 1;
        let plane = TileRect {
            x: 0,
            y: 0,
            width: grid.plane().image_width(),
            height: grid.plane().image_height(),
        };
        let stack = self
            .plan
            .select(BrickRect { plane, z, depth })
            .and_then(|()| self.plan.execute(self.workers));
        Some(stack.map(|stack| VolumeSlab { z, stack }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::VolumeStream;
    use lwc_image::{synth, TileRect};

    #[test]
    fn multi_brick_roundtrip_is_lossless() {
        let engine = VolumeCompressor::new(3, 2, 32, 4, 3).unwrap();
        for volume in [
            synth::ct_volume(70, 50, 11, 12, 1), // ragged everywhere
            synth::ct_volume(64, 64, 8, 12, 2),  // exact grid
            synth::ct_volume(33, 97, 3, 8, 3),   // odd dims, shallow stack
        ] {
            let bytes = engine.compress_stack(&volume).unwrap();
            assert!(VolumeStream::sniff(&bytes));
            let back = engine.decompress_stack(&bytes).unwrap();
            assert_eq!(volume, back);
        }
    }

    #[test]
    fn per_brick_encode_plus_assembly_matches_compress() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 7, 12, 4);
        let reference = engine.compress_stack(&volume).unwrap();
        let grid = engine.grid(70, 50, 7).unwrap();
        let payloads: Vec<Vec<u8>> = (0..grid.brick_count())
            .map(|i| engine.encode_brick(&volume, &grid, i).unwrap())
            .collect();
        let assembled = engine.assemble_container(&grid, volume.bit_depth(), &payloads).unwrap();
        assert_eq!(assembled, reference);
    }

    #[test]
    fn streams_do_not_depend_on_the_worker_count() {
        let volume = synth::ct_volume(70, 50, 9, 12, 5);
        let reference =
            VolumeCompressor::new(3, 2, 32, 4, 1).unwrap().compress_stack(&volume).unwrap();
        for workers in [2, 3, 8] {
            let engine = VolumeCompressor::new(3, 2, 32, 4, workers).unwrap();
            assert_eq!(engine.compress_stack(&volume).unwrap(), reference, "{workers} workers");
        }
    }

    #[test]
    fn zero_z_scales_plane_substreams_match_the_2d_codec() {
        // With z_scales = 0 the z transform is the identity, so every plane
        // substream must be byte-identical to the 2-D codec's stream for the
        // same tile of the same slice — the property pinning the volumetric
        // datapath to the tiled one.
        let engine = VolumeCompressor::new(3, 0, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 6, 12, 6);
        let grid = engine.grid(70, 50, 6).unwrap();
        for index in [0usize, 3, grid.brick_count() - 1] {
            let rect = grid.rect(index);
            let payload = engine.encode_brick(&volume, &grid, index).unwrap();
            let planes = split_brick_payload(&payload, rect.depth).unwrap();
            for (z, plane) in planes.iter().enumerate() {
                let slice = volume.slice(rect.z + z).unwrap();
                let tile = slice.subview(rect.plane).unwrap();
                let reference = engine.codec().compress_view(&tile).unwrap();
                assert_eq!(plane, &reference.as_slice(), "brick {index} plane {z}");
            }
        }
    }

    #[test]
    fn slab_streaming_decode_reassembles_the_volume() {
        let engine = VolumeCompressor::new(3, 2, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 11, 12, 7);
        let bytes = engine.compress_stack(&volume).unwrap();
        let mut next_z = 0;
        let mut slabs = 0;
        for slab in engine.decompress_slabs(&bytes).unwrap() {
            let slab = slab.unwrap();
            assert_eq!(slab.z, next_z, "slabs arrive front to back");
            for z in 0..slab.stack.depth() {
                assert_eq!(
                    slab.stack.slice_image(z).unwrap(),
                    volume.slice_image(next_z + z).unwrap(),
                    "slice {}",
                    next_z + z
                );
            }
            next_z += slab.stack.depth();
            slabs += 1;
        }
        assert_eq!(slabs, 11usize.div_ceil(4));
        assert_eq!(next_z, 11);
    }

    #[test]
    fn regions_decode_only_their_covering_bricks() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(70, 50, 9, 12, 8);
        let bytes = engine.compress_stack(&volume).unwrap();
        for rect in [
            BrickRect { plane: TileRect { x: 10, y: 12, width: 30, height: 20 }, z: 2, depth: 5 },
            BrickRect { plane: TileRect { x: 0, y: 0, width: 70, height: 50 }, z: 0, depth: 9 },
            BrickRect { plane: TileRect { x: 69, y: 49, width: 1, height: 1 }, z: 8, depth: 1 },
        ] {
            let region = engine.decompress_region(&bytes, rect).unwrap();
            for z in 0..rect.depth {
                for y in 0..rect.plane.height {
                    for x in 0..rect.plane.width {
                        assert_eq!(
                            region.get(x, y, z),
                            volume.get(rect.plane.x + x, rect.plane.y + y, rect.z + z)
                        );
                    }
                }
            }
        }
        // Out-of-bounds regions are typed errors.
        let bad =
            BrickRect { plane: TileRect { x: 60, y: 0, width: 20, height: 8 }, z: 0, depth: 1 };
        assert!(engine.decompress_region(&bytes, bad).is_err());
        let empty =
            BrickRect { plane: TileRect { x: 0, y: 0, width: 0, height: 1 }, z: 0, depth: 1 };
        assert!(engine.decompress_region(&bytes, empty).is_err());
    }

    #[test]
    fn near_lossless_roundtrips_stay_within_the_volume_bound() {
        let volume = synth::ct_volume(70, 50, 9, 12, 14);
        for z_scales in [0u32, 1, 2] {
            for delta in [1u8, 2, 4, 8] {
                let codec = LosslessCodec::near_lossless(3, delta).unwrap();
                let engine = VolumeCompressor::with_codec(codec, z_scales, 32, 32, 4, 2).unwrap();
                let bytes = engine.compress_stack(&volume).unwrap();
                let back = engine.decompress_stack(&bytes).unwrap();
                let mut worst = 0i64;
                for (a, b) in volume.samples().iter().zip(back.samples()) {
                    worst = worst.max((i64::from(*a) - i64::from(*b)).abs());
                }
                assert!(
                    worst <= i64::from(delta),
                    "z_scales {z_scales} delta {delta}: max error {worst}"
                );
            }
        }
    }

    #[test]
    fn zero_delta_engines_are_byte_identical_to_lossless_ones() {
        let volume = synth::ct_volume(48, 40, 6, 12, 15);
        let lossless = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let near = VolumeCompressor::with_codec(
            LosslessCodec::near_lossless(3, 0).unwrap(),
            1,
            32,
            32,
            4,
            2,
        )
        .unwrap();
        assert_eq!(
            lossless.compress_stack(&volume).unwrap(),
            near.compress_stack(&volume).unwrap()
        );
    }

    #[test]
    fn planes_with_mismatched_quantizer_deltas_are_rejected() {
        // Lossless brick payloads behind a header that claims a volume bound
        // implying a nonzero per-plane delta: the cross-check must refuse the
        // forgery before trusting any plane. z_scales = 0 keeps the implied
        // per-plane delta equal to the volume bound.
        let engine = VolumeCompressor::new(3, 0, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(48, 40, 5, 12, 16);
        let grid = engine.grid(48, 40, 5).unwrap();
        let payloads: Vec<Vec<u8>> = (0..grid.brick_count())
            .map(|i| engine.encode_brick(&volume, &grid, i).unwrap())
            .collect();
        let header = VolumeHeader {
            width: 48,
            height: 40,
            depth: 5,
            bit_depth: 12,
            scales: 3,
            z_scales: 0,
            tile_width: grid.plane().tile_width(),
            tile_height: grid.plane().tile_height(),
            brick_depth: grid.brick_depth(),
            delta: 2,
        };
        let forged = write_container(&header, &payloads).unwrap();
        match engine.decompress_stack(&forged) {
            Err(PipelineError::Coder(CoderError::MalformedStream(msg))) => {
                assert!(msg.contains("quantizer delta"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn three_d_beats_per_slice_2d_on_correlated_stacks() {
        // The reason this subsystem exists: inter-slice redundancy that
        // per-slice coding cannot touch.
        let volume = synth::ct_volume(64, 64, 16, 12, 9);
        let flat = VolumeCompressor::new(4, 0, 64, 8, 2).unwrap();
        let deep = VolumeCompressor::new(4, 3, 64, 8, 2).unwrap();
        let flat_bytes = flat.compress_stack(&volume).unwrap().len();
        let deep_bytes = deep.compress_stack(&volume).unwrap().len();
        assert!(
            deep_bytes < flat_bytes,
            "3-D coding must beat per-slice 2-D on a correlated stack: {deep_bytes} vs {flat_bytes}"
        );
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let engine = VolumeCompressor::new(3, 1, 32, 4, 2).unwrap();
        let volume = synth::ct_volume(48, 40, 5, 12, 3);
        let bytes = engine.compress_stack(&volume).unwrap();
        for len in [2, 31, 32, bytes.len() / 2, bytes.len() - 1] {
            assert!(engine.decompress_stack(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        // Corrupting the first plane substream's magic inside brick 0's
        // payload must fail that brick's decode. (The payload starts with a
        // u32 length per plane; the substream header follows the table.)
        let stream = VolumeStream::parse(&bytes).unwrap();
        let brick0 = stream.part_bytes(0);
        let grid = engine.grid(48, 40, 5).unwrap();
        let table_bytes = 4 * grid.rect(0).depth;
        let offset = brick0.as_ptr() as usize - bytes.as_ptr() as usize + table_bytes;
        let mut flipped = bytes.clone();
        flipped[offset] ^= 0x40;
        assert!(engine.decompress_stack(&flipped).is_err());
        // Mismatched 2-D codec depth.
        let other = VolumeCompressor::new(4, 1, 32, 4, 2).unwrap();
        assert!(other.decompress_stack(&bytes).is_err());
        // A different z_scales configuration still decodes: the container
        // header, not the engine, carries the z decomposition.
        let other_z = VolumeCompressor::new(3, 3, 32, 4, 2).unwrap();
        assert_eq!(other_z.decompress_stack(&bytes).unwrap(), volume);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(VolumeCompressor::new(0, 1, 32, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 16, 32, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 1, 0, 4, 1).is_err());
        assert!(VolumeCompressor::new(3, 1, 32, 0, 1).is_err());
        let codec = LosslessCodec::new(3).unwrap();
        assert!(VolumeCompressor::with_codec(codec, 1, 1 << 20, 32, 4, 1).is_err());
    }

    #[test]
    fn zero_workers_selects_available_parallelism_and_report_counts_bricks() {
        let engine = VolumeCompressor::new(2, 1, 16, 2, 0).unwrap();
        assert!(engine.workers() >= 1);
        let volume = synth::ct_volume(48, 48, 4, 12, 2);
        let (_bytes, report) = engine.compress_stack_with_report(&volume).unwrap();
        assert_eq!(report.tiles, 9 * 2);
        assert!(report.ratio() > 0.0);
    }
}
