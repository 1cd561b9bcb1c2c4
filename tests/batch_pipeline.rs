//! Property tests for the batch compression engine and the codec:
//!
//! * the lossless codec roundtrips bit-exactly on randomized synthetic
//!   phantoms across all six Table I filter banks and 1–5 decomposition
//!   levels (the fixed-point DWT side of the claim), and across 1–5 coding
//!   scales (the Rice-codec side),
//! * the multithreaded [`BatchCompressor`] produces streams byte-identical
//!   to the single-threaded codec, in input order, through both the batch
//!   and the streaming APIs.

use lwc_core::prelude::*;

/// Deterministic mix of modalities; the seeds make every run reproducible.
fn phantom(kind: usize, width: usize, height: usize, seed: u64) -> Image {
    match kind % 4 {
        0 => synth::ct_phantom(width, height, 12, seed),
        1 => synth::mr_slice(width, height, 12, seed),
        2 => synth::random_image(width, height, 12, seed),
        _ => synth::gradient(width, height, 12),
    }
}

#[test]
fn fixed_dwt_roundtrips_across_all_banks_and_levels() {
    for seed in 0..3u64 {
        let image = phantom(seed as usize, 64, 64, seed);
        for id in FilterId::ALL {
            for levels in 1..=5u32 {
                let report = lwc_core::verify_lossless(&image, id, levels)
                    .unwrap_or_else(|e| panic!("{id} at {levels} levels failed: {e}"));
                assert!(report.bit_exact, "{id} at {levels} levels, seed {seed}");
            }
        }
    }
}

#[test]
fn codec_roundtrips_across_one_to_five_scales() {
    for seed in 0..3u64 {
        for scales in 1..=5u32 {
            let codec = LosslessCodec::new(scales).unwrap();
            for kind in 0..4 {
                let image = phantom(kind, 64, 64, seed * 10 + kind as u64);
                let bytes = codec.compress(&image).unwrap();
                let back = codec.decompress(&bytes).unwrap();
                assert!(
                    stats::bit_exact(&image, &back).unwrap(),
                    "kind {kind}, {scales} scales, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn rectangular_images_roundtrip_through_the_batch_engine() {
    let engine = BatchCompressor::new(3, 2).unwrap();
    let images = vec![phantom(0, 128, 64, 5), phantom(1, 64, 128, 6), phantom(2, 96, 32, 7)];
    let (streams, _) = engine.compress_batch(&images).unwrap();
    let (decoded, _) = engine.decompress_batch(&streams).unwrap();
    for (image, back) in images.iter().zip(&decoded) {
        assert!(stats::bit_exact(image, back).unwrap());
    }
}

#[test]
fn batch_compressor_is_byte_identical_to_the_sequential_codec() {
    let codec = LosslessCodec::new(4).unwrap();
    let images: Vec<Image> = (0..10).map(|k| phantom(k, 64, 64, 100 + k as u64)).collect();
    let sequential: Vec<Vec<u8>> = images.iter().map(|i| codec.compress(i).unwrap()).collect();

    for workers in [1, 2, 4] {
        let engine = BatchCompressor::with_codec(codec, workers);
        let (batched, report) = engine.compress_batch(&images).unwrap();
        assert_eq!(batched, sequential, "{workers} workers");
        assert_eq!(report.images, images.len());

        let streamed: Vec<Vec<u8>> =
            engine.compress_iter(images.clone()).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, sequential, "{workers} workers, streaming");
    }
}

/// The headline scaling claim: a four-worker batch compresses faster than
/// one worker, with streams byte-identical.
///
/// Byte-identity is always enforced; the measured speedup is printed on
/// every run. The wall-clock *assertion* (≥ 2× for the paper-sized
/// 16×(512×512) batch on a ≥ 4-core machine) only arms when
/// `LWC_STRICT_PERF=1` is set — timing assertions on shared, possibly
/// throttled CI runners fail spuriously, and the default `cargo test` run
/// is unoptimized debug code where the big workload would cost minutes.
#[test]
fn four_worker_batch_outpaces_the_sequential_codec() {
    let strict = std::env::var_os("LWC_STRICT_PERF").is_some_and(|v| v == "1");
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let (count, size) = if strict { (16, 512) } else { (8, 256) };
    let images: Vec<Image> = (0..count).map(|k| phantom(k, size, size, 300 + k as u64)).collect();

    let sequential = BatchCompressor::new(5, 1).unwrap();
    let parallel = BatchCompressor::with_codec(*sequential.codec(), 4);

    // Warm-up pass so page faults and lazy allocations hit neither timing.
    let _ = parallel.compress_batch(&images[..2]).unwrap();

    let (expected, seq_report) = sequential.compress_batch(&images).unwrap();
    let (actual, par_report) = parallel.compress_batch(&images).unwrap();
    assert_eq!(actual, expected, "parallel streams must be byte-identical");

    let speedup = par_report.speedup_over(&seq_report);
    eprintln!(
        "sequential: {seq_report}\nparallel:   {par_report}\nspeedup: {speedup:.2}x on {cores} cores"
    );
    if strict {
        let required = if cores >= 4 { 2.0 } else { 1.1 };
        assert!(
            speedup >= required,
            "expected >= {required}x speedup on {cores} cores, measured {speedup:.2}x"
        );
    }
}
