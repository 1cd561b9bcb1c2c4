//! Property-based and end-to-end tests of the paper-exact fixed-path codec:
//! `LWCF` round trips across Table I banks × decomposition depths × tile
//! shapes × worker counts, worker-count independence of the bytes, typed
//! rejection of truncated or tampered containers, and byte-identical
//! engine and plan paths.

use lwc_core::lwc_coder::{
    write_container, CoderError, FixedHeader, FixedStream, FIXED_HEADER_BYTES,
};
use lwc_core::prelude::*;
use proptest::prelude::*;

fn engine(filter_index: usize, scales: u32, tile: usize, workers: usize) -> TiledFixedCompressor {
    let bank = FilterBank::table1(FilterId::ALL[filter_index]);
    TiledFixedCompressor::new(&bank, scales, tile, workers).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `decompress(compress(x))` is pixel-exact for every Table I bank at
    /// every depth/tile/worker combination, and the bytes never depend on
    /// the worker count: any parallel schedule emits the 1-worker stream.
    #[test]
    fn lwcf_roundtrips_and_ignores_worker_count(
        seed in 0u64..10_000,
        filter_index in 0usize..6,
        scales in 1u32..=3,
        tile_multiplier in 1usize..=3,
        width_multiplier in 1usize..=4,
        height_multiplier in 1usize..=4,
        workers in 2usize..=5,
    ) {
        // Every occurring tile shape must halve `scales` times, so dimensions
        // and tiles are multiples of 2^scales.
        let unit = 1usize << scales;
        let tile = tile_multiplier * unit;
        let image =
            synth::random_image(width_multiplier * unit, height_multiplier * unit, 12, seed);
        let parallel = engine(filter_index, scales, tile, workers);
        let bytes = parallel.compress(&image).unwrap();
        prop_assert!(FixedStream::sniff(&bytes));
        let sequential = engine(filter_index, scales, tile, 1);
        prop_assert_eq!(&bytes, &sequential.compress(&image).unwrap());
        prop_assert!(stats::bit_exact(&image, &parallel.decompress(&bytes).unwrap()).unwrap());
    }

    /// Truncated containers and tampered directory entries surface as typed
    /// errors, never panics, hangs or out-of-bounds slices.
    #[test]
    fn corrupt_lwcf_containers_are_rejected(seed in 0u64..10_000, cut in 1usize..64) {
        let image = synth::random_image(64, 64, 12, seed);
        let codec = engine(0, 3, 32, 1);
        let bytes = codec.compress(&image).unwrap();
        prop_assert!(FixedStream::sniff(&bytes));
        // The directory's final entry must equal the container length, so
        // dropping any suffix is a parse error before a slice is taken.
        let truncated = &bytes[..bytes.len() - cut.min(bytes.len() - 4)];
        prop_assert!(codec.decompress(truncated).is_err());
        // Forging a directory offset trips the monotonic/bounds validation.
        let mut forged = bytes.clone();
        forged[FIXED_HEADER_BYTES + (cut % 6)] ^= 0x80;
        prop_assert!(FixedStream::parse(&forged).is_err());
        prop_assert!(codec.decompress(&forged).is_err());
    }

    /// The engine's own calls and the job plans they are built from give
    /// the same bytes: a 2-worker `compress` equals its encode plan run on
    /// one thread, and a sniffed decode plan reads the stream back.
    #[test]
    fn engine_and_plan_paths_are_byte_identical(seed in 0u64..10_000, filter_index in 0usize..6) {
        let image = synth::random_image(48, 48, 12, seed);
        let concrete = engine(filter_index, 2, 16, 2);
        let bytes = concrete.compress(&image).unwrap();
        prop_assert_eq!(&bytes, &concrete.encode_plan(&image).unwrap().execute(1).unwrap());
        prop_assert!(stats::bit_exact(&image, &concrete.decompress(&bytes).unwrap()).unwrap());
        prop_assert!(stats::bit_exact(&image, &decompress_auto(&bytes).unwrap()).unwrap());
        // Tile access hits the directory.
        let grid = concrete.grid(48, 48).unwrap();
        let last = grid.tile_count() - 1;
        let tile = concrete.decompress_tile(&bytes, last).unwrap();
        prop_assert!(stats::bit_exact(&image.crop(grid.rect(last)).unwrap(), &tile).unwrap());
    }
}

/// Full-scale smoke: the CI frame size through compress, decompress and
/// random tile access. Debug builds skip it (the fixed datapath is far too
/// slow unoptimized); CI covers the release run through
/// `reproduce fixed-codec 4096` as well.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: 4096x4096 frame")]
fn full_scale_lwcf_roundtrip() {
    let bank = FilterBank::table1(FilterId::F1);
    let engine = TiledFixedCompressor::new(&bank, 5, DEFAULT_TILE_SIZE, 0).unwrap();
    let frame = synth::ct_phantom(4096, 4096, 12, 42);
    let bytes = engine.compress(&frame).unwrap();
    assert!(FixedStream::sniff(&bytes));
    let grid = engine.grid(4096, 4096).unwrap();
    let last = grid.tile_count() - 1;
    let tile = engine.decompress_tile(&bytes, last).unwrap();
    assert!(stats::bit_exact(&frame.crop(grid.rect(last)).unwrap(), &tile).unwrap());
    assert!(stats::bit_exact(&frame, &engine.decompress(&bytes).unwrap()).unwrap());
}

/// The Table II word plan holds 13 signed input bits, so 12-bit pixels are
/// the deepest the fixed datapath round-trips. Deeper images are refused
/// with a typed error before any tile runs, and so is a container whose
/// header claims them.
#[test]
fn pixels_deeper_than_the_word_plan_are_refused_both_ways() {
    fn refused<T>(result: Result<T, PipelineError>) -> bool {
        matches!(result, Err(PipelineError::Coder(CoderError::UnsupportedFormat(_))))
    }
    for f in 0..6 {
        let codec = engine(f, 3, 32, 2);
        for depth in [13, 16] {
            let image = synth::random_image(64, 48, depth, f as u64);
            assert!(refused(codec.compress(&image)), "{depth}-bit input, bank {f}");
        }
        let image = synth::random_image(64, 48, 12, f as u64);
        let back = codec.decompress(&codec.compress(&image).unwrap()).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap(), "12-bit round trip, bank {f}");
    }
    // Valid 12-bit payloads under a header that claims 13-bit pixels.
    let codec = engine(0, 3, 32, 1);
    let bytes = codec.compress(&synth::random_image(64, 48, 12, 7)).unwrap();
    let stream = FixedStream::parse(&bytes).unwrap();
    let header = FixedHeader { bit_depth: 13, ..*stream.header() };
    let payloads: Vec<Vec<u8>> =
        (0..stream.grid().unwrap().tile_count()).map(|i| stream.part_bytes(i).to_vec()).collect();
    let forged = write_container(&header, &payloads).unwrap();
    assert!(refused(codec.decode_plan(forged.as_slice())));
    assert!(refused(codec.decompress(&forged)));
    assert!(refused(codec.decompress_tile(&forged, 0)));
    assert!(refused(DecodePlan::sniff(forged.as_slice())));
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `LWCF` bytes are pinned by digest for every Table I bank, so a
/// rewrite of the transform or the tile driver under the container must
/// reproduce them exactly. Covers a ragged multi-tile grid (96×80 over 32²
/// tiles, a 16-row bottom band, 3 scales) and a single-tile 64² grid at 4
/// scales.
#[test]
fn lwcf_bytes_are_pinned() {
    #[rustfmt::skip]
    let expected: [[u64; 2]; 6] = [
        [0xa8a6_3c37_4ab4_37cb, 0xe3a1_1def_a1ad_41f1],
        [0x5150_fb24_602a_9c4f, 0x70e7_3db0_dc13_cb6e],
        [0xceeb_3855_1926_af0f, 0xb706_9b63_89e8_8f9e],
        [0x97af_7c52_6d7c_122d, 0xf034_8938_f2a9_e12a],
        [0x3a74_fc32_69df_9e9c, 0x555d_72af_cbe5_b181],
        [0xaf52_22f0_b3c0_9407, 0x785f_514d_0ff0_c42f],
    ];
    let ragged = synth::ct_phantom(96, 80, 12, 31);
    let single = synth::mr_slice(64, 64, 12, 32);
    let mut got = [[0u64; 2]; 6];
    for (f, row) in got.iter_mut().enumerate() {
        row[0] = fnv1a64(&engine(f, 3, 32, 2).compress(&ragged).unwrap());
        row[1] = fnv1a64(&engine(f, 4, 64, 2).compress(&single).unwrap());
    }
    assert_eq!(got, expected, "LWCF bytes moved: {got:#018x?}");
}
