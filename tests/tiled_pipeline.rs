//! Property and integration tests for the tile-sharded compression core:
//!
//! * tiled round trips are lossless over randomized image sizes (including
//!   prime/odd dimensions smaller than a tile), tile sizes, decomposition
//!   depths and worker counts,
//! * a single-tile grid produces a stream **byte-identical** to the legacy
//!   [`LosslessCodec`], and multi-tile streams never depend on the worker
//!   count,
//! * the row-band streaming decoder reassembles the image exactly and in
//!   order,
//! * corrupt containers — truncated, padded, directory-tampered, or paired
//!   with the wrong codec configuration — are rejected, never miscoded.

use lwc_core::prelude::*;
use proptest::prelude::*;

/// Deterministic mix of modalities; the seeds make every run reproducible.
fn phantom(kind: usize, width: usize, height: usize, seed: u64) -> Image {
    match kind % 4 {
        0 => synth::ct_phantom(width, height, 12, seed),
        1 => synth::mr_slice(width, height, 12, seed),
        2 => synth::random_image(width, height, 12, seed),
        _ => synth::gradient(width, height, 12),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_roundtrip_is_lossless(
        width in 1usize..=150,
        height in 1usize..=150,
        tile in 8usize..=96,
        scales in 1u32..=5,
        workers in 1usize..=4,
        kind in 0usize..4,
    ) {
        let engine = TiledCompressor::with_codec(
            LosslessCodec::new(scales).expect("scales >= 1"),
            tile,
            tile,
            workers,
        )
        .expect("valid tile shape");
        let image = phantom(kind, width, height, (width * 1000 + height) as u64);
        let bytes = engine.compress(&image).expect("compress");
        let back = engine.decompress(&bytes).expect("decompress");
        prop_assert!(
            stats::bit_exact(&image, &back).expect("same shape"),
            "{width}x{height}, tile {tile}, {scales} scales, {workers} workers, kind {kind}"
        );
    }

    #[test]
    fn single_tile_grids_match_the_legacy_stream_byte_for_byte(
        width in 1usize..=120,
        height in 1usize..=120,
        scales in 1u32..=5,
        workers in 1usize..=4,
    ) {
        // Tile at least as large as the image: the engine must emit exactly
        // the legacy codec's bytes, and both decoders must accept them.
        let codec = LosslessCodec::new(scales).expect("scales >= 1");
        let engine = TiledCompressor::with_codec(codec, width.max(height), width.max(height), workers)
            .expect("valid tile shape");
        let image = phantom(2, width, height, (width + height) as u64);
        let tiled = engine.compress(&image).expect("tiled compress");
        let legacy = codec.compress(&image).expect("legacy compress");
        prop_assert_eq!(&tiled, &legacy);
        let back = engine.decompress(&legacy).expect("tiled engine reads legacy streams");
        prop_assert!(stats::bit_exact(&image, &back).expect("same shape"));
    }

    #[test]
    fn row_band_streaming_decode_reassembles_exactly(
        width in 1usize..=130,
        height in 1usize..=130,
        tile in 8usize..=64,
        workers in 1usize..=3,
    ) {
        let engine = TiledCompressor::with_codec(
            LosslessCodec::new(3).expect("scales"),
            tile,
            tile,
            workers,
        )
        .expect("valid tile shape");
        let image = phantom(0, width, height, (width * 7 + height) as u64);
        let bytes = engine.compress(&image).expect("compress");
        let mut rebuilt = Image::zeros(width, height, 12).expect("frame");
        let mut next_y = 0usize;
        for band in engine.decompress_row_bands(&bytes) {
            let band = band.expect("band decode");
            prop_assert_eq!(band.y, next_y);
            prop_assert_eq!(band.image.width(), width);
            let rect = TileRect { x: 0, y: band.y, width, height: band.image.height() };
            rebuilt
                .view_rect_mut(rect)
                .expect("band rect in bounds")
                .copy_from_image(&band.image)
                .expect("band shape");
            next_y += band.image.height();
        }
        prop_assert_eq!(next_y, height);
        prop_assert!(stats::bit_exact(&image, &rebuilt).expect("same shape"));
    }
}

#[test]
fn worker_count_never_changes_the_stream() {
    let image = phantom(1, 200, 170, 31);
    let mut streams = Vec::new();
    for workers in [1usize, 2, 5] {
        let engine =
            TiledCompressor::with_codec(LosslessCodec::new(4).unwrap(), 64, 48, workers).unwrap();
        streams.push(engine.compress(&image).unwrap());
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[0], streams[2]);
}

#[test]
fn corrupt_tile_directories_are_rejected_not_miscoded() {
    let engine = TiledCompressor::with_codec(LosslessCodec::new(3).unwrap(), 32, 32, 2).unwrap();
    let image = phantom(0, 100, 70, 9);
    let bytes = engine.compress(&image).unwrap();
    let header_bytes = 23; // fixed LWCT header size
    let entry_bytes = 6; // 48-bit directory offsets

    // Truncation anywhere: header, directory, payloads.
    for len in [0, 4, header_bytes - 1, header_bytes + entry_bytes + 1, bytes.len() - 1] {
        assert!(engine.decompress(&bytes[..len]).is_err(), "prefix of {len} bytes");
    }
    // Trailing garbage disagrees with the directory's end offset.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 0, 0]);
    assert!(engine.decompress(&padded).is_err());
    // Shifting the first payload offset breaks the payload-start invariant.
    let mut shifted = bytes.clone();
    shifted[header_bytes + entry_bytes - 1] ^= 0x01;
    assert!(engine.decompress(&shifted).is_err());
    // Swapping two interior offsets breaks monotonicity.
    let mut swapped = bytes.clone();
    let (a, b) = (header_bytes + entry_bytes, header_bytes + 2 * entry_bytes);
    for i in 0..entry_bytes {
        swapped.swap(a + i, b + i);
    }
    assert!(engine.decompress(&swapped).is_err());
    // An unknown container version is refused outright.
    let mut versioned = bytes.clone();
    versioned[4] = 0x7F;
    assert!(engine.decompress(&versioned).is_err());
    // A mis-scaled codec is refused before any tile decodes.
    let other = TiledCompressor::with_codec(LosslessCodec::new(5).unwrap(), 32, 32, 2).unwrap();
    assert!(other.decompress(&bytes).is_err());
    // And the untouched stream still decodes (the corruptions above were
    // real corruptions, not an over-strict parser).
    assert!(stats::bit_exact(&image, &engine.decompress(&bytes).unwrap()).unwrap());
}

#[test]
fn batch_and_tiled_engines_compose() {
    // The batch engine hands out a tiled engine sharing codec and workers;
    // both must agree with the sequential codec on a single-tile image.
    let batch = BatchCompressor::new(3, 2).unwrap();
    let tiled = batch.tiled(DEFAULT_TILE_SIZE, DEFAULT_TILE_SIZE).unwrap();
    let image = phantom(0, 96, 96, 3);
    assert_eq!(tiled.compress(&image).unwrap(), batch.codec().compress(&image).unwrap());
}

/// Release-scale acceptance smoke (debug builds skip it; CI runs the same
/// thing through `reproduce tiled 4096`): a 4096x4096 synthetic image
/// compresses and decompresses losslessly through the tiled path.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-scale; covered by `reproduce tiled 4096` in CI")]
fn large_image_roundtrips_through_the_tiled_path() {
    let engine = TiledCompressor::new(5, DEFAULT_TILE_SIZE, 0).unwrap();
    let image = synth::ct_phantom(4096, 4096, 12, 42);
    let bytes = engine.compress(&image).unwrap();
    let back = engine.decompress(&bytes).unwrap();
    assert!(stats::bit_exact(&image, &back).unwrap());
}

/// FNV-1a 64 of a stream: a compact pin for whole byte sequences.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `LWCT` bytes are pinned by digest, so a rewrite of the container
/// framing (header, directory, writer) must reproduce them exactly. Covers
/// a ragged multi-tile frame (100×70 over 32² tiles) as version 1 (δ = 0)
/// and version 2 (δ = 2), and a single-tile frame, which the engine emits as
/// the legacy `LWC1` (δ = 0) or `LWCQ` (δ = 2) stream.
#[test]
fn lwct_bytes_are_pinned() {
    let ragged = phantom(0, 100, 70, 41);
    let single = phantom(1, 64, 48, 42);
    let expected: [[u64; 2]; 2] = [
        [0xff6d_b3b5_c28a_1163, 0x6bd7_4c39_0769_4389],
        [0x5b5b_8a7e_6a11_bef8, 0x8ab0_f4f5_1995_5523],
    ];
    let mut got = [[0u64; 2]; 2];
    for (d, (delta, legacy_magic)) in [(0u8, b"LWC1"), (2, b"LWCQ")].into_iter().enumerate() {
        let codec = LosslessCodec::near_lossless(3, delta).unwrap();
        let tiled =
            TiledCompressor::with_codec(codec, 32, 32, 2).unwrap().compress(&ragged).unwrap();
        let whole =
            TiledCompressor::with_codec(codec, 64, 64, 2).unwrap().compress(&single).unwrap();
        assert_eq!((&tiled[..4], tiled[4]), (&b"LWCT"[..], d as u8 + 1), "delta {delta}");
        assert_eq!(&whole[..4], legacy_magic, "delta {delta}");
        got[d] = [fnv1a64(&tiled), fnv1a64(&whole)];
    }
    assert_eq!(got, expected, "LWCT bytes moved: {got:#018x?}");
}
