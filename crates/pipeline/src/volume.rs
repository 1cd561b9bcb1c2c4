//! Brick-parallel volumetric compression: the 3-D engine and its part codec.
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
//!   independent bytes (the same [`BrickEngine`] as the 2-D formats),
//! * **bounded-memory decode** — [`VolumeCompressor::decompress_slabs`]
//!   walks the directory one brick layer at a time, the volumetric mirror of
//!   `decompress_row_bands`, sound because z transforms never cross brick
//!   boundaries.

use crate::engine::{BrickEngine, Layer, Layers, PartCodec};
use crate::report::TiledReport;
use crate::tiled::decode_plane;
use crate::{PipelineError, Plan};
use lwc_coder::volume::{split_brick_payload, write_brick_payload};
use lwc_coder::{
    check_z_scales, clamp_reconstruction, plane_delta_for_volume, CoderError, ContainerHeader,
    LosslessCodec, VolumeHeader,
};
use lwc_image::{BrickGrid, BrickRect, ImageStack, ImageView, VolumeView};
use lwc_lifting::{forward_z, inverse_z};

/// Default nominal brick depth in slices: deep enough that two z scales have
/// material to work with, shallow enough that a brick (tile footprint x
/// depth, i32) stays cache-friendly and slab-streaming memory stays low.
pub const DEFAULT_BRICK_DEPTH: usize = 8;

/// Brick-parallel lossless codec for volumes (stacks of slices): the
/// [`BrickEngine`] over `LWCV` bricks.
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
pub type VolumeCompressor = BrickEngine<VolumeCodec>;

/// The part codec of `LWCV` bricks: the z transform plus one
/// [`LosslessCodec`] stream per coefficient plane.
#[derive(Debug, Clone, Copy)]
pub struct VolumeCodec {
    /// The user-facing codec; its `delta` is the per-voxel bound the volume
    /// container advertises.
    codec: LosslessCodec,
    /// The codec actually applied per coefficient plane: its delta is
    /// [`plane_delta_for_volume`] of the volume bound, shrunk so the z-axis
    /// synthesis stages cannot amplify the per-plane error past the volume
    /// bound. Identical to `codec` when `delta == 0` or `z_scales == 0`.
    plane_codec: LosslessCodec,
    z_scales: u32,
}

impl VolumeCodec {
    fn new(codec: LosslessCodec, z_scales: u32) -> Result<Self, PipelineError> {
        check_z_scales(z_scales).map_err(|e| PipelineError::Config(e.to_string()))?;
        let plane_delta = plane_delta_for_volume(codec.delta(), z_scales);
        let plane_codec = LosslessCodec::near_lossless(codec.scales(), plane_delta)?;
        Ok(Self { codec, plane_codec, z_scales })
    }
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
        let codec = LosslessCodec::new(scales)?;
        Self::with_codec(codec, z_scales, tile_size, tile_size, brick_depth, workers)
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
        let codec = VolumeCodec::new(codec, z_scales)?;
        Self::build(codec, tile_width, tile_height, brick_depth, workers)
    }

    /// The per-plane 2-D codec.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec.codec
    }

    /// z-axis decomposition depth (0 = per-slice 2-D coding).
    #[must_use]
    pub fn z_scales(&self) -> u32 {
        self.codec.z_scales
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
        self.bricks(width, height, depth)
    }

    /// Compresses a volume, fanning the bricks across the worker pool. The
    /// bytes depend only on the volume and the brick shape, never on the
    /// worker count.
    ///
    /// # Errors
    ///
    /// Returns the first per-brick codec error, if any.
    pub fn compress_stack(&self, stack: &ImageStack) -> Result<Vec<u8>, PipelineError> {
        Ok(self.encode(stack)?.0)
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
        self.encode(stack)
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
        self.decode_plan(bytes)?.execute(self.workers())
    }

    /// Streaming decode: yields the volume one brick-layer **slab** at a
    /// time (front to back), decoding each slab's bricks on the worker
    /// pool. Peak memory is bounded by one slab — `width x height x
    /// brick_depth` voxels plus one decoded brick per worker — regardless of
    /// the volume's slice count; sound because the z transform never crosses
    /// a brick boundary. The volumetric mirror of
    /// [`crate::TiledCompressor::decompress_row_bands`].
    ///
    /// A stream that does not parse yields its error as the first item, and
    /// each slab's decode error is that slab's item.
    #[must_use]
    pub fn decompress_slabs<'a>(&self, bytes: &'a [u8]) -> VolumeSlabs<'a> {
        self.layers(bytes)
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
        plan.execute(self.workers())
    }
}

impl PartCodec for VolumeCodec {
    type Header = VolumeHeader;
    type Frame = ImageStack;
    const VOLUME: bool = true;

    /// The brick is gathered plane-major, z-lifted in place
    /// ([`lwc_lifting::forward_z`]; a no-op at `z_scales = 0`), and every
    /// resulting coefficient plane is 2-D coded as one `LWC1` stream —
    /// negative z coefficients ride through the same subband coder pixels
    /// do, which handles any `i32`.
    fn encode(&self, frame: &VolumeView<'_>, rect: BrickRect) -> Result<Vec<u8>, PipelineError> {
        let mut samples = frame.subvolume(rect).map_err(CoderError::from)?.to_samples();
        let plane_len = rect.plane.pixel_count();
        forward_z(&mut samples, plane_len, rect.depth, self.z_scales).map_err(CoderError::from)?;
        let (width, height) = (rect.plane.width, rect.plane.height);
        let planes = samples
            .chunks_exact(plane_len)
            .map(|plane| {
                let view = ImageView::from_raw(plane, width, height, width, frame.bit_depth())?;
                self.plane_codec.compress_view(&view)
            })
            .collect::<Result<Vec<_>, CoderError>>()?;
        Ok(write_brick_payload(&planes))
    }

    /// Splits the payload's plane table, entropy decodes every coefficient
    /// plane and runs its inverse cascade straight into the plane's slot of
    /// the brick buffer (the raw, range-unchecked path), then inverts the z
    /// transform with the **container's** `z_scales`. Each plane's stream
    /// header must carry the per-plane quantizer delta the container's
    /// volume bound implies; near-lossless voxels are clamped to the
    /// container's sample range after the inverse z transform.
    fn decode(
        &self,
        header: &VolumeHeader,
        index: usize,
        rect: BrickRect,
        bytes: &[u8],
    ) -> Result<Vec<i32>, PipelineError> {
        let container = (plane_delta_for_volume(header.delta, header.z_scales), header.bit_depth);
        let plane_len = rect.plane.pixel_count();
        let planes = split_brick_payload(bytes, rect.depth)?;
        let mut samples = vec![0i32; plane_len * rect.depth];
        for ((z, plane), slot) in planes.iter().enumerate().zip(samples.chunks_exact_mut(plane_len))
        {
            let part = format_args!("brick {index} plane {z}");
            decode_plane(&self.codec, plane, container, rect.plane, &part, slot)?;
        }
        inverse_z(&mut samples, plane_len, rect.depth, header.z_scales)
            .map_err(CoderError::from)?;
        clamp_reconstruction(&mut samples, header.bit_depth, header.delta);
        Ok(samples)
    }

    fn header(&self, grid: &BrickGrid, bit_depth: u32) -> Result<VolumeHeader, PipelineError> {
        Ok(VolumeHeader {
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
        })
    }

    fn check(&self, header: &VolumeHeader) -> Result<(), PipelineError> {
        Ok(header.ensure_scales(self.codec.scales())?)
    }

    fn for_header(header: &VolumeHeader) -> Result<Self, PipelineError> {
        Self::new(LosslessCodec::new(header.scales)?, header.z_scales)
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
pub type VolumeSlabs<'a> = Layers<'a, VolumeSlab>;

impl Layer for VolumeSlab {
    fn rect(grid: &BrickGrid, index: usize) -> Option<BrickRect> {
        let (z, depth) = (index < grid.bricks_z()).then(|| grid.z_extent(index))?;
        Some(BrickRect { z, depth, ..grid.bounds() })
    }

    fn new(rect: BrickRect, stack: ImageStack) -> Result<Self, PipelineError> {
        Ok(Self { z: rect.z, stack })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::{write_container, VolumeStream};
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
        let bytes = engine.compress_stack(&volume).unwrap();
        let stream = VolumeStream::parse(&bytes).unwrap();
        for index in [0usize, 3, grid.brick_count() - 1] {
            let rect = grid.rect(index);
            let payload = stream.part_bytes(index);
            let planes = split_brick_payload(payload, rect.depth).unwrap();
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
        for slab in engine.decompress_slabs(&bytes) {
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
        let bytes = engine.compress_stack(&volume).unwrap();
        let stream = VolumeStream::parse(&bytes).unwrap();
        let payloads: Vec<Vec<u8>> =
            (0..grid.brick_count()).map(|i| stream.part_bytes(i).to_vec()).collect();
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
