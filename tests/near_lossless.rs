//! Property tests of the near-lossless mode's headline guarantee: for any
//! content, any decomposition depth, any tile/brick shape and any configured
//! bound δ, the reconstruction satisfies `max|orig − recon| ≤ δ` — and δ = 0
//! is byte-identical to the lossless streams, on every engine that carries
//! the quantizer ([`LosslessCodec`], [`TiledCompressor`],
//! [`VolumeCompressor`], [`BatchCompressor`]).

use lwc_core::lwc_coder::{plane_delta_for_volume, QuantSchedule};
use lwc_core::prelude::*;
use proptest::prelude::*;

const DELTAS: [u8; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential codec: the bound holds for arbitrary content, depth and δ.
    #[test]
    fn sequential_codec_respects_the_bound(
        seed in 0u64..10_000,
        scales in 1u32..=4,
        delta_index in 0usize..DELTAS.len(),
        width in 17usize..80,
        height in 16usize..64,
    ) {
        let delta = DELTAS[delta_index];
        let image = synth::random_image(width, height, 12, seed);
        let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
        let back = codec.decompress(&codec.compress(&image).unwrap()).unwrap();
        prop_assert!(stats::max_abs_diff(&image, &back).unwrap() <= i32::from(delta));
    }

    /// Tile-parallel engine: the bound holds across tile shapes and worker
    /// counts, whole-image and per-tile.
    #[test]
    fn tiled_engine_respects_the_bound_per_tile(
        seed in 0u64..10_000,
        scales in 1u32..=3,
        delta_index in 0usize..DELTAS.len(),
        tile_w in 16usize..48,
        tile_h in 16usize..48,
        workers in 1usize..=3,
    ) {
        let delta = DELTAS[delta_index];
        let image = synth::ct_phantom(70, 55, 12, seed);
        let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
        let engine = TiledCompressor::with_codec(codec, tile_w, tile_h, workers).unwrap();
        let stream = engine.compress(&image).unwrap();
        let back = engine.decompress(&stream).unwrap();
        prop_assert!(stats::max_abs_diff(&image, &back).unwrap() <= i32::from(delta));
        if lwc_core::lwc_coder::TiledStream::sniff(&stream) {
            let grid = engine.grid(70, 55).unwrap();
            for index in [0, grid.tile_count() - 1] {
                let tile = engine.decompress_tile(&stream, index).unwrap();
                let crop = image.crop(grid.rect(index)).unwrap();
                prop_assert!(stats::max_abs_diff(&crop, &tile).unwrap() <= i32::from(delta));
            }
        }
    }

    /// Tiled engine with one tile covering the frame: the legacy single
    /// stream, same bound, same bytes as the sequential codec.
    #[test]
    fn single_tile_engine_matches_the_sequential_bytes_and_bound(
        seed in 0u64..10_000,
        scales in 1u32..=3,
        delta_index in 0usize..DELTAS.len(),
    ) {
        let delta = DELTAS[delta_index];
        let image = synth::mr_slice(48, 37, 12, seed);
        let codec = LosslessCodec::near_lossless(scales, delta).unwrap();
        let single = TiledCompressor::with_codec(codec, 48, 37, 2).unwrap();
        let stream = single.compress(&image).unwrap();
        prop_assert_eq!(&stream, &codec.compress(&image).unwrap());
        let back = single.decompress(&stream).unwrap();
        prop_assert!(stats::max_abs_diff(&image, &back).unwrap() <= i32::from(delta));
    }

    /// Volumetric engine: the container bound holds per voxel across brick
    /// shapes and z depths — the z-axis synthesis gain is the engine's
    /// problem, not the caller's.
    #[test]
    fn volume_engine_respects_the_bound(
        seed in 0u64..10_000,
        z_scales in 0u32..=2,
        delta_index in 0usize..DELTAS.len(),
        tile in 16usize..40,
        brick_depth in 4usize..10,
    ) {
        let delta = DELTAS[delta_index];
        let stack = synth::ct_volume(36, 28, 12, 9, seed);
        let codec = LosslessCodec::near_lossless(2, delta).unwrap();
        let engine =
            VolumeCompressor::with_codec(codec, z_scales, tile, tile, brick_depth, 2).unwrap();
        let back = engine.decompress_stack(&engine.compress_stack(&stack).unwrap()).unwrap();
        for (&a, &b) in stack.samples().iter().zip(back.samples()) {
            prop_assert!((a - b).abs() <= i32::from(delta));
        }
    }

    /// The schedule's analytic bound is itself ≤ δ — the static guarantee
    /// the roundtrip tests witness dynamically.
    #[test]
    fn schedule_bounds_never_exceed_delta(delta in 0u8..=64, scales in 1u32..=6) {
        let schedule = QuantSchedule::for_delta(delta, scales);
        prop_assert!(schedule.bound() <= u64::from(delta));
        // The volumetric derivation is consistent: amplifying the plane
        // delta by the z gain stays within the volume bound.
        for z_scales in 0..=3u32 {
            let plane = plane_delta_for_volume(delta, z_scales);
            prop_assert!(plane <= delta);
        }
    }
}

#[test]
fn zero_delta_is_byte_identical_to_lossless_on_every_engine() {
    let image = synth::ct_phantom(96, 70, 12, 3);
    let stack = synth::ct_volume(48, 40, 12, 10, 3);
    let lossless = LosslessCodec::new(3).unwrap();
    let zero = LosslessCodec::near_lossless(3, 0).unwrap();
    assert_eq!(
        lossless.compress(&image).unwrap(),
        zero.compress(&image).unwrap(),
        "sequential codec"
    );
    assert_eq!(
        TiledCompressor::with_codec(lossless, 32, 32, 2).unwrap().compress(&image).unwrap(),
        TiledCompressor::with_codec(zero, 32, 32, 2).unwrap().compress(&image).unwrap(),
        "tiled engine"
    );
    assert_eq!(
        VolumeCompressor::with_codec(lossless, 1, 32, 32, 8, 2)
            .unwrap()
            .compress_stack(&stack)
            .unwrap(),
        VolumeCompressor::with_codec(zero, 1, 32, 32, 8, 2)
            .unwrap()
            .compress_stack(&stack)
            .unwrap(),
        "volume engine"
    );
    let images = vec![image; 3];
    let (lossless_streams, _) =
        BatchCompressor::with_codec(lossless, 2).compress_batch(&images).unwrap();
    let (zero_streams, _) = BatchCompressor::with_codec(zero, 2).compress_batch(&images).unwrap();
    assert_eq!(lossless_streams, zero_streams, "batch engine");
}

#[test]
fn batch_engine_threads_the_bound_through_its_workers() {
    let images: Vec<Image> = (0..5).map(|k| synth::mr_slice(60, 44, 12, k)).collect();
    for delta in DELTAS {
        let codec = LosslessCodec::near_lossless(3, delta).unwrap();
        let batch = BatchCompressor::with_codec(codec, 3);
        let (streams, _) = batch.compress_batch(&images).unwrap();
        let (decoded, _) = batch.decompress_batch(&streams).unwrap();
        for (original, back) in images.iter().zip(&decoded) {
            assert!(stats::max_abs_diff(original, back).unwrap() <= i32::from(delta), "δ={delta}");
        }
    }
}
