//! The exact error each engine refuses with: a stream coded at another
//! depth or with another filter bank, a tile index outside the grid, and a
//! configuration no container can carry. Every case names the variant it
//! must fail with, so a refactor that keeps refusing but changes *how* is
//! caught here, not only by an `is_err()`.

use lwc_core::lwc_coder::CoderError;
use lwc_core::prelude::*;

/// The variant of a refusal, as one comparable name.
fn kind(error: &PipelineError) -> String {
    match error {
        PipelineError::Coder(CoderError::MalformedStream(_)) => "Coder::MalformedStream".into(),
        PipelineError::Coder(CoderError::UnsupportedFormat(_)) => "Coder::UnsupportedFormat".into(),
        PipelineError::Config(_) => "Config".into(),
        other => format!("{other:?}"),
    }
}

/// Drops the success value so every case has one type.
fn refusal<T>(result: Result<T, PipelineError>) -> Result<(), PipelineError> {
    result.map(|_| ())
}

#[test]
fn engines_refuse_with_the_pinned_variant() {
    let image = synth::ct_phantom(64, 48, 12, 1);
    let volume = synth::ct_volume(40, 36, 6, 12, 2);
    let f1 = FilterBank::table1(FilterId::F1);
    let f5 = FilterBank::table1(FilterId::F5);

    let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
    let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
    let fixed = TiledFixedCompressor::new(&f1, 3, 32, 1).unwrap().compress(&image).unwrap();
    let stack = VolumeCompressor::new(3, 1, 32, 4, 1).unwrap().compress_stack(&volume).unwrap();
    let codec = LosslessCodec::new(3).unwrap();

    let unsupported = "Coder::UnsupportedFormat";
    let malformed = "Coder::MalformedStream";
    let config = "Config";
    let cases: Vec<(&str, Result<(), PipelineError>, &str)> = vec![
        (
            "LWCT at another depth",
            refusal(TiledCompressor::new(4, 32, 1).unwrap().decompress(&tiled)),
            unsupported,
        ),
        (
            "LWCF at another depth",
            refusal(TiledFixedCompressor::new(&f1, 2, 32, 1).unwrap().decompress(&fixed)),
            unsupported,
        ),
        (
            "LWCV at another depth",
            refusal(VolumeCompressor::new(4, 1, 32, 4, 1).unwrap().decompress_stack(&stack)),
            unsupported,
        ),
        (
            "LWCF with another filter bank",
            refusal(TiledFixedCompressor::new(&f5, 3, 32, 1).unwrap().decompress(&fixed)),
            unsupported,
        ),
        (
            "LWCT tile index out of range",
            refusal(TiledCompressor::new(3, 32, 1).unwrap().decompress_tile(&tiled, 4)),
            malformed,
        ),
        (
            "LWCF tile index out of range",
            refusal(TiledFixedCompressor::new(&f1, 3, 32, 1).unwrap().decompress_tile(&fixed, 4)),
            malformed,
        ),
        (
            "legacy tile index other than 0",
            refusal(TiledCompressor::new(3, 256, 1).unwrap().decompress_tile(&legacy, 1)),
            malformed,
        ),
        ("LWCT zero tile side", refusal(TiledCompressor::new(3, 0, 1)), config),
        (
            "LWCT tile side of 2^20",
            refusal(TiledCompressor::with_codec(codec, 1 << 20, 32, 1)),
            config,
        ),
        ("LWCF zero tile side", refusal(TiledFixedCompressor::new(&f1, 3, 0, 1)), config),
        ("LWCF tile side of 2^20", refusal(TiledFixedCompressor::new(&f1, 3, 1 << 20, 1)), config),
        ("LWCV zero tile side", refusal(VolumeCompressor::new(3, 1, 0, 4, 1)), config),
        (
            "LWCV tile side of 2^20",
            refusal(VolumeCompressor::with_codec(codec, 1, 32, 1 << 20, 4, 1)),
            config,
        ),
        ("LWCV z_scales 16", refusal(VolumeCompressor::new(3, 16, 32, 4, 1)), config),
        ("LWCV brick depth 0", refusal(VolumeCompressor::new(3, 1, 32, 0, 1)), config),
    ];
    for (case, result, expected) in cases {
        match result {
            Ok(()) => panic!("{case}: accepted, expected {expected}"),
            Err(error) => assert_eq!(kind(&error), expected, "{case}: {error}"),
        }
    }
}
