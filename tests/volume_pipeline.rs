//! Property and integration tests for the volumetric compression core:
//!
//! * 3-D round trips are lossless over randomized stack shapes (including
//!   prime/odd dimensions and slice counts smaller than a brick), tile and
//!   brick sizes, 2-D and z decomposition depths and worker counts,
//! * `LWCV` bytes never depend on the worker count,
//! * with `z_scales = 0` every per-plane substream is **byte-identical** to
//!   the 2-D codec's stream for the same tile of the same slice — the
//!   property that pins the volumetric and planar datapaths together,
//! * the slab-streaming decoder reassembles the volume exactly and in z
//!   order with one brick layer resident at a time,
//! * corrupt containers — truncated, padded, version-forged, or
//!   directory-tampered — are rejected, never miscoded, and forged headers
//!   declaring implausible voxel counts are refused **before any
//!   allocation** by the decompression-bomb guard.

use lwc_coder::volume::{split_brick_payload, VOLUME_HEADER_BYTES};
use lwc_core::prelude::*;
use proptest::prelude::*;

/// Deterministic mix of stack sources; the seeds make every run
/// reproducible. Even kinds use the correlated CT volume (slices evolve
/// smoothly along z), odd kinds stack independent per-slice phantoms — the
/// z transform must round-trip both.
fn phantom_stack(kind: usize, width: usize, height: usize, depth: usize, seed: u64) -> ImageStack {
    if kind % 2 == 0 {
        synth::ct_volume(width, height, depth, 12, seed)
    } else {
        let slices: Vec<Image> = (0..depth)
            .map(|z| match kind % 4 {
                1 => synth::mr_slice(width, height, 12, seed + z as u64),
                _ => synth::random_image(width, height, 12, seed + z as u64),
            })
            .collect();
        ImageStack::from_slices(&slices).expect("uniform slices")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn volume_roundtrip_is_lossless(
        width in 1usize..=70,
        height in 1usize..=70,
        depth in 1usize..=11,
        tile in 8usize..=48,
        brick in 1usize..=6,
        scales in 1u32..=4,
        z_scales in 0u32..=3,
        workers in 1usize..=4,
        kind in 0usize..4,
    ) {
        let engine = VolumeCompressor::with_codec(
            LosslessCodec::new(scales).expect("scales >= 1"),
            z_scales,
            tile,
            tile,
            brick,
            workers,
        )
        .expect("valid brick shape");
        let stack = phantom_stack(kind, width, height, depth, (width * 131 + height) as u64);
        let bytes = engine.compress_stack(&stack).expect("compress");
        let back = engine.decompress_stack(&bytes).expect("decompress");
        prop_assert!(
            back.samples() == stack.samples(),
            "{}x{}x{}, tile {}, brick {}, {} scales, {} z-scales, {} workers, kind {}",
            width, height, depth, tile, brick, scales, z_scales, workers, kind
        );
    }

    #[test]
    fn worker_count_never_changes_the_bytes(
        width in 1usize..=60,
        height in 1usize..=60,
        depth in 2usize..=10,
        workers in 2usize..=5,
    ) {
        let one = VolumeCompressor::new(3, 2, 24, 3, 1).expect("engine");
        let many = VolumeCompressor::new(3, 2, 24, 3, workers).expect("engine");
        let stack = phantom_stack(0, width, height, depth, (width + height * 7) as u64);
        prop_assert!(
            one.compress_stack(&stack).expect("1 worker")
                == many.compress_stack(&stack).expect("many workers"),
            "{}x{}x{}, {} workers", width, height, depth, workers
        );
    }

    #[test]
    fn zero_z_scales_planes_match_the_2d_tiled_path_byte_for_byte(
        width in 1usize..=60,
        height in 1usize..=60,
        depth in 1usize..=8,
        tile in 8usize..=40,
        scales in 1u32..=4,
    ) {
        // With no z decorrelation, each plane of each brick must be the 2-D
        // codec's exact bytes for that tile of that slice: the volumetric
        // container is then pure per-slice 2-D coding, seekable by brick.
        let codec = LosslessCodec::new(scales).expect("scales");
        let engine = VolumeCompressor::with_codec(codec, 0, tile, tile, 4, 2)
            .expect("valid brick shape");
        let stack = phantom_stack(2, width, height, depth, (width * 17 + depth) as u64);
        let bytes = engine.compress_stack(&stack).expect("compress");
        let stream = VolumeStream::parse(&bytes).expect("parse");
        let grid = stream.grid().expect("grid");
        for index in 0..grid.brick_count() {
            let rect = grid.rect(index);
            let planes = split_brick_payload(stream.brick_bytes(index), rect.depth)
                .expect("well-formed brick payload");
            for (dz, plane) in planes.iter().enumerate() {
                let slice = stack.slice(rect.z + dz).expect("slice in range");
                let tile_view = slice.subview(rect.plane).expect("tile in range");
                let expect = codec.compress_view(&tile_view).expect("2-D compress");
                prop_assert!(
                    *plane == expect.as_slice(),
                    "brick {} plane {} differs from the 2-D codec", index, dz
                );
            }
        }
    }

    #[test]
    fn slab_streaming_decode_reassembles_exactly(
        width in 1usize..=60,
        height in 1usize..=60,
        depth in 1usize..=12,
        brick in 1usize..=5,
        z_scales in 0u32..=2,
    ) {
        let engine = VolumeCompressor::new(3, z_scales, 24, brick, 2).expect("engine");
        let stack = phantom_stack(0, width, height, depth, (depth * 997 + width) as u64);
        let bytes = engine.compress_stack(&stack).expect("compress");
        let mut next_z = 0usize;
        for slab in engine.decompress_slabs(&bytes) {
            let slab = slab.expect("slab decode");
            prop_assert!(slab.z == next_z, "slabs must arrive in z order");
            prop_assert_eq!(slab.stack.width(), width);
            prop_assert_eq!(slab.stack.height(), height);
            for dz in 0..slab.stack.depth() {
                prop_assert!(
                    slab.stack.slice_image(dz).expect("slab slice").samples()
                        == stack.slice_image(slab.z + dz).expect("source slice").samples(),
                    "slice {} differs", slab.z + dz
                );
            }
            next_z += slab.stack.depth();
        }
        prop_assert!(next_z == depth, "slabs must cover every slice");
    }
}

#[test]
fn corrupt_volume_containers_are_rejected_not_miscoded() {
    let engine = VolumeCompressor::new(3, 2, 24, 3, 2).unwrap();
    let stack = phantom_stack(0, 50, 40, 7, 5);
    let bytes = engine.compress_stack(&stack).unwrap();
    let entry_bytes = 6; // 48-bit directory offsets

    // Truncation anywhere: header, directory, payloads.
    for len in
        [0, 4, VOLUME_HEADER_BYTES - 1, VOLUME_HEADER_BYTES + entry_bytes + 1, bytes.len() - 1]
    {
        assert!(engine.decompress_stack(&bytes[..len]).is_err(), "prefix of {len} bytes");
    }
    // Trailing garbage disagrees with the directory's end offset.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 0, 0]);
    assert!(engine.decompress_stack(&padded).is_err());
    // An unknown container version is refused outright.
    let mut versioned = bytes.clone();
    versioned[4] = 0x7F;
    assert!(engine.decompress_stack(&versioned).is_err());
    // Shifting the first directory offset breaks the payload-start invariant.
    let mut shifted = bytes.clone();
    shifted[VOLUME_HEADER_BYTES + entry_bytes - 1] ^= 0x01;
    assert!(engine.decompress_stack(&shifted).is_err());
    // Swapping two interior offsets breaks monotonicity.
    let mut swapped = bytes.clone();
    let (a, b) = (VOLUME_HEADER_BYTES + entry_bytes, VOLUME_HEADER_BYTES + 2 * entry_bytes);
    for i in 0..entry_bytes {
        swapped.swap(a + i, b + i);
    }
    assert!(engine.decompress_stack(&swapped).is_err());
    // A mis-scaled engine is refused (the header's own parameters win on
    // decode, so this must come back as a typed mismatch, not a miscode).
    let other = VolumeCompressor::new(5, 2, 24, 3, 2).unwrap();
    assert!(other.decompress_stack(&bytes).is_err());
    // And the untouched stream still decodes (the corruptions above were
    // real corruptions, not an over-strict parser).
    assert_eq!(engine.decompress_stack(&bytes).unwrap().samples(), stack.samples());
}

#[test]
fn forged_headers_are_rejected_before_any_allocation() {
    // A hand-built 32-byte header declaring a ~7 x 10^22-voxel volume over a
    // tiny payload: the pixels-vs-stream-bits plausibility guard must refuse
    // it at parse time — long before any buffer is sized from the header.
    let mut forged = Vec::new();
    forged.extend_from_slice(&0x4C57_4356u32.to_be_bytes()); // magic "LWCV"
    forged.push(1); // version
    forged.extend_from_slice(&0xFFFF_FFF1u32.to_be_bytes()); // width
    forged.extend_from_slice(&0xFFFF_FFF3u32.to_be_bytes()); // height
    forged.extend_from_slice(&0x0000_0FFFu32.to_be_bytes()); // depth
    forged.push(12); // bit depth
    forged.push(3); // scales
    forged.push(2); // z scales
    forged.extend_from_slice(&64u32.to_be_bytes()); // tile width
    forged.extend_from_slice(&64u32.to_be_bytes()); // tile height
    forged.extend_from_slice(&8u32.to_be_bytes()); // brick depth
    forged.extend_from_slice(&[0u8; 64]); // a sliver of "payload"
    let err = VolumeStream::parse(&forged).expect_err("forged header must be refused");
    assert!(
        err.to_string().contains("cannot encode even one bit per sample"),
        "the plausibility guard, not a later check, must fire: {err}"
    );

    // The same forgery applied to a genuine stream: inflating the declared
    // depth of a real container must also trip the guard.
    let engine = VolumeCompressor::new(3, 1, 32, 4, 1).unwrap();
    let bytes = engine.compress_stack(&phantom_stack(0, 40, 30, 4, 9)).unwrap();
    let mut inflated = bytes.clone();
    inflated[13..17].copy_from_slice(&0xFFFF_FFF0u32.to_be_bytes()); // depth field
    let err = VolumeStream::parse(&inflated).expect_err("inflated depth must be refused");
    assert!(
        err.to_string().contains("cannot encode even one bit per sample"),
        "guard must fire on the inflated depth: {err}"
    );
    // The untouched stream still parses and decodes.
    assert!(VolumeStream::parse(&bytes).is_ok());
    assert!(engine.decompress_stack(&bytes).is_ok());
}

/// Release-scale acceptance smoke (debug builds skip it; CI runs the same
/// thing through `reproduce volume` on every push): a 256x256x32 correlated
/// stack compresses and decompresses losslessly through the brick-parallel
/// path, and the 3-D bytes beat per-slice 2-D coding of the same voxels.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-scale; covered by `reproduce volume` in CI")]
fn large_volume_roundtrips_and_beats_per_slice_2d() {
    let stack = synth::ct_volume(256, 256, 32, 12, 9);
    let codec = LosslessCodec::new(4).unwrap();
    let engine = VolumeCompressor::with_codec(codec, 3, 64, 64, DEFAULT_BRICK_DEPTH, 0).unwrap();
    let bytes = engine.compress_stack(&stack).unwrap();
    let back = engine.decompress_stack(&bytes).unwrap();
    assert_eq!(back.samples(), stack.samples());
    let slice_engine = TiledCompressor::with_codec(codec, 64, 64, 0).unwrap();
    let per_slice: usize = (0..stack.depth())
        .map(|z| slice_engine.compress(&stack.slice_image(z).unwrap()).unwrap().len())
        .sum();
    assert!(
        bytes.len() < per_slice,
        "3-D ({} bytes) must beat per-slice 2-D ({per_slice} bytes) on a correlated stack",
        bytes.len()
    );
}

/// FNV-1a 64 over a byte stream: a stable, dependency-free fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `LWCV` bytes of fixed stacks are pinned by digest, so a rewrite of
/// any layer below the container (the z pass, the 2-D cascade, the coder)
/// must reproduce them exactly. Covers a ragged odd-sided stack (bricks of
/// 8 and 3 slices), a brick-aligned one and a single slice, at z depths 0–3
/// (3 runs an 8-slice brick down to one approximation plane), with lossless
/// and near-lossless (δ = 2) planes.
#[test]
fn lwcv_bytes_are_pinned() {
    let stacks = [
        synth::ct_volume(70, 50, 11, 12, 21),
        synth::ct_volume(64, 64, 16, 12, 22),
        synth::ct_volume(40, 30, 1, 12, 23),
    ];
    #[rustfmt::skip]
    let expected: [[[u64; 4]; 2]; 3] = [
        [
            [0x3a9a_55d6_0a41_f354, 0xfd6d_4f5e_82cf_5c1b, 0xc912_245d_8838_ac67, 0xa66c_4521_505e_d864],
            [0xea7e_f50b_8b40_7bd5, 0xcbec_c95e_b616_9702, 0x90e8_fb93_cd14_307f, 0x64c7_625d_2d44_ae8e],
        ],
        [
            [0x1bf0_e0c6_fe41_2d34, 0x5f18_e822_208b_95b2, 0xb49b_9973_7284_0740, 0x1d65_652e_d81b_65be],
            [0x8792_783a_ada7_eb27, 0xd8eb_afc1_6f8c_e4ba, 0x1dc8_fa6a_8dc8_cae0, 0xde54_c94e_112c_2120],
        ],
        [
            [0x9484_0b6b_8fad_35f6, 0x020f_25d6_1fd9_23a1, 0x03a1_66f3_0b83_e7f4, 0x1f30_eec5_7160_3a97],
            [0xcbcf_8466_88e5_4584, 0xb31d_3cf9_671c_721f, 0x2182_fb07_f40f_dad4, 0x3fd5_4676_3631_0df9],
        ],
    ];
    let mut got = [[[0u64; 4]; 2]; 3];
    for (s, stack) in stacks.iter().enumerate() {
        for (d, delta) in [0u8, 2].into_iter().enumerate() {
            for z_scales in 0..4u32 {
                let codec = LosslessCodec::near_lossless(3, delta).expect("codec");
                let engine = VolumeCompressor::with_codec(codec, z_scales, 32, 32, 8, 2)
                    .expect("valid brick shape");
                let bytes = engine.compress_stack(stack).expect("compress");
                got[s][d][z_scales as usize] = fnv1a64(&bytes);
            }
        }
    }
    assert_eq!(got, expected, "LWCV bytes moved: {got:#018x?}");
}
