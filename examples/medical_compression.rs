//! Lossless compression of synthetic medical studies — the application the
//! paper's hardware is meant to serve (compression for storage and retrieval
//! of medical images).
//!
//! For each modality-like workload the example:
//!
//! 1. verifies that the paper's fixed-point DWT is bit exact with every
//!    Table I filter bank,
//! 2. compresses the study with the end-to-end lossless codec and reports
//!    the achieved rate against the image entropy,
//! 3. writes one of the studies to a PGM file so it can be inspected.
//!
//! Run with `cargo run --release --example medical_compression`.

use lwc_core::prelude::*;

struct Study {
    name: &'static str,
    image: Image,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let size = 512;
    let studies = vec![
        Study { name: "CT head phantom", image: synth::ct_phantom(size, size, 12, 11) },
        Study { name: "MR brain-like slice", image: synth::mr_slice(size, size, 12, 22) },
        Study {
            name: "uniform noise (worst case)",
            image: synth::random_image(size, size, 12, 33),
        },
    ];

    println!("=== lossless transform check (paper Section 3) ===");
    let check = synth::random_image(128, 128, 12, 5);
    for id in FilterId::ALL {
        let report = lwc_core::verify_lossless(&check, id, 6)?;
        println!("  {id}: {report}");
        assert!(report.bit_exact);
    }

    println!("\n=== end-to-end lossless compression ===");
    let codec = LosslessCodec::new(5)?;
    for study in &studies {
        let entropy = stats::entropy_bits_per_pixel(&study.image);
        let diff_entropy = stats::first_difference_entropy(&study.image);
        let (bytes, report) = codec.compress_with_report(&study.image)?;
        let decoded = codec.decompress(&bytes)?;
        assert!(stats::bit_exact(&study.image, &decoded)?);
        println!("  {:<28} {report}", study.name);
        println!(
            "  {:<28} entropy {entropy:.2} bpp, 1st-difference entropy {diff_entropy:.2} bpp",
            ""
        );
    }

    println!("\n=== batch engine: whole study through the worker pool ===");
    // The streaming API pulls two images per worker at a time and runs them
    // on the pool, so a long study never has to be resident at once.
    let engine = BatchCompressor::with_codec(codec, 0);
    let study: Vec<Image> = studies.iter().map(|s| s.image.clone()).collect();
    let (batch_streams, batch_report) = engine.compress_batch(&study)?;
    for (image, stream) in study.iter().zip(&batch_streams) {
        assert_eq!(stream, &codec.compress(image)?, "batch stream must match the sequential codec");
    }
    println!("  {batch_report}");
    let streamed: Vec<Vec<u8>> = engine.compress_iter(study.clone()).collect::<Result<_, _>>()?;
    assert_eq!(streamed, batch_streams);
    let restored: Vec<Image> = engine.decompress_iter(streamed).collect::<Result<_, _>>()?;
    for (original, back) in study.iter().zip(&restored) {
        assert!(stats::bit_exact(original, back)?);
    }
    println!("  streaming round trip: {} images bit exact", restored.len());

    // Persist one study for visual inspection with any PGM viewer.
    let out = std::env::temp_dir().join("lwc_ct_phantom.pgm");
    pgm::save(&studies[0].image, &out)?;
    println!("\nwrote {} for inspection", out.display());

    Ok(())
}
