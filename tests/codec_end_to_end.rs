//! Integration tests for the end-to-end lossless compression pipeline
//! (reversible transform + Rice-coded subbands) on the medical-like
//! workloads.

use lwc_core::lwc_coder::volume::{split_brick_payload, write_brick_payload};
use lwc_core::lwc_coder::{write_container, CoderError, Container, ContainerHeader};
use lwc_core::lwc_coder::{TiledHeader, VolumeHeader};
use lwc_core::prelude::*;

#[test]
fn every_workload_decodes_bit_exactly() {
    let codec = LosslessCodec::new(4).unwrap();
    for (name, image) in [
        ("ct", synth::ct_phantom(128, 128, 12, 1)),
        ("mr", synth::mr_slice(128, 128, 12, 2)),
        ("noise", synth::random_image(128, 128, 12, 3)),
        ("gradient", synth::gradient(128, 128, 12)),
        ("flat", synth::flat(128, 128, 12, 100)),
        ("checkerboard", synth::checkerboard(128, 128, 12, 2)),
    ] {
        let (bytes, report) = codec.compress_with_report(&image).unwrap();
        let decoded = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &decoded).unwrap(), "{name}");
        assert!(report.compressed_bytes > 0, "{name}");
    }
}

#[test]
fn structured_content_compresses_noise_does_not() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, ct) = codec.compress_with_report(&synth::ct_phantom(256, 256, 12, 7)).unwrap();
    let (_b, noise) = codec.compress_with_report(&synth::random_image(256, 256, 12, 7)).unwrap();
    assert!(ct.ratio() > 1.5, "CT phantom: {ct}");
    assert!(noise.ratio() < 1.05, "uniform noise: {noise}");
    assert!(ct.bits_per_pixel < noise.bits_per_pixel);
}

#[test]
fn flat_images_collapse_to_almost_nothing() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, report) = codec.compress_with_report(&synth::flat(256, 256, 12, 1234)).unwrap();
    assert!(
        report.bits_per_pixel < 1.3,
        "a constant image should cost about a bit per pixel, got {report}"
    );
}

#[test]
fn compression_improves_with_resolution_on_smooth_content() {
    let codec = LosslessCodec::new(5).unwrap();
    let (_b, small) = codec.compress_with_report(&synth::ct_phantom(128, 128, 12, 9)).unwrap();
    let (_b, large) = codec.compress_with_report(&synth::ct_phantom(256, 256, 12, 9)).unwrap();
    assert!(large.bits_per_pixel < small.bits_per_pixel);
}

#[test]
fn different_bit_depths_roundtrip_through_the_codec() {
    for depth in [8u32, 10, 12, 16] {
        let image = synth::mr_slice(64, 64, depth, depth as u64);
        let codec = LosslessCodec::new(3).unwrap();
        let bytes = codec.compress(&image).unwrap();
        let decoded = codec.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &decoded).unwrap(), "{depth}-bit");
        assert_eq!(decoded.bit_depth(), depth);
    }
}

#[test]
fn corrupted_streams_are_rejected_not_miscoded() {
    let codec = LosslessCodec::new(3).unwrap();
    let image = synth::ct_phantom(64, 64, 12, 4);
    let bytes = codec.compress(&image).unwrap();
    // Flipping the magic or truncating the stream must produce an error.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x55;
    assert!(codec.decompress(&bad_magic).is_err());
    let truncated = &bytes[..bytes.len() / 2];
    assert!(codec.decompress(truncated).is_err());
}

/// Container `bytes` with one byte appended to its last part's stream: the
/// part payload itself, or the last plane stream of a brick `planes` deep.
fn grow_last_part<H: ContainerHeader>(bytes: &[u8], planes: Option<usize>) -> Vec<u8> {
    let container = Container::<H>::parse(bytes).unwrap();
    let mut parts: Vec<Vec<u8>> =
        (0..container.part_count()).map(|i| container.part_bytes(i).to_vec()).collect();
    let last = parts.last_mut().unwrap();
    match planes {
        None => last.push(0),
        Some(depth) => {
            let mut streams: Vec<Vec<u8>> =
                split_brick_payload(last, depth).unwrap().into_iter().map(<[u8]>::to_vec).collect();
            streams.last_mut().unwrap().push(0);
            *last = write_brick_payload(&streams);
        }
    }
    write_container(container.header(), &parts).unwrap()
}

#[test]
fn bytes_past_the_last_subband_are_refused() {
    let malformed = |error| matches!(error, PipelineError::Coder(CoderError::MalformedStream(_)));
    let image = synth::ct_phantom(40, 24, 12, 1);
    for codec in [LosslessCodec::new(2).unwrap(), LosslessCodec::near_lossless(2, 2).unwrap()] {
        let bytes = codec.compress(&image).unwrap();
        let grown = [bytes.as_slice(), &[0]].concat();
        assert!(matches!(codec.decompress(&grown), Err(CoderError::MalformedStream(_))));
        assert!(codec.decompress(&bytes).is_ok());
    }
    let tiled = TiledCompressor::new(2, 16, 1).unwrap();
    let bytes = tiled.compress(&image).unwrap();
    assert!(tiled.decompress(&grow_last_part::<TiledHeader>(&bytes, None)).is_err_and(malformed));
    assert_eq!(tiled.decompress(&bytes).unwrap(), image);
    let volume = VolumeCompressor::new(2, 1, 16, 2, 1).unwrap();
    let stack = synth::ct_volume(24, 16, 4, 12, 2);
    let bytes = volume.compress_stack(&stack).unwrap();
    let grown = grow_last_part::<VolumeHeader>(&bytes, Some(2));
    assert!(volume.decompress_stack(&grown).is_err_and(malformed));
    assert_eq!(volume.decompress_stack(&bytes).unwrap().samples(), stack.samples());
}

#[test]
fn pgm_roundtrip_composes_with_the_codec() {
    let dir = std::env::temp_dir().join("lwc_codec_end_to_end");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("study.pgm");
    let image = synth::ct_phantom(64, 64, 12, 6);
    pgm::save(&image, &path).unwrap();
    let loaded = pgm::load(&path).unwrap();
    let codec = LosslessCodec::new(3).unwrap();
    let decoded = codec.decompress(&codec.compress(&loaded).unwrap()).unwrap();
    assert!(stats::bit_exact(&image, &decoded).unwrap());
    std::fs::remove_file(&path).ok();
}
