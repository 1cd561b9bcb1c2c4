//! Hostile-input sweep over the one container parser: every single-bit flip
//! in the header, the directory and the first 64 payload bytes, and every
//! prefix, of one small stream per format (`LWCT` v1 and v2, `LWCF`,
//! `LWCV` v1 and v2, legacy `LWC1` and near-lossless `LWCQ`). Sniffing a
//! plan and executing it must return a typed error or a stack — never
//! panic, neither on the caller's thread nor inside a part (where the
//! pipeline would turn it into an error).

use lwc_core::lwc_coder::bitio::BitReader;
use lwc_core::lwc_coder::{Container, ContainerHeader, StreamHeader, TiledHeader};
use lwc_core::prelude::*;
use std::panic::{self, AssertUnwindSafe};

/// Where a stream's payloads start: the end of a container's directory, or
/// of a legacy stream's header.
fn framing_bytes(bytes: &[u8]) -> usize {
    fn payload_start<H: ContainerHeader>(bytes: &[u8]) -> Option<usize> {
        Some(Container::<H>::parse(bytes).ok()?.into_offsets()[0] as usize)
    }
    payload_start::<TiledHeader>(bytes)
        .or_else(|| payload_start::<FixedHeader>(bytes))
        .or_else(|| payload_start::<VolumeHeader>(bytes))
        .unwrap_or_else(|| {
            let mut reader = BitReader::new(bytes);
            StreamHeader::read(&mut reader).expect("a legacy stream");
            (reader.bits_read() as usize).div_ceil(8)
        })
}

/// Sniffs and executes `bytes`; `Err` describes a panic, anywhere.
fn decode_without_panic(bytes: &[u8]) -> Result<(), String> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        DecodePlan::sniff(bytes).and_then(|plan| plan.execute(1))
    }));
    match outcome {
        Err(_) => Err("the caller's thread panicked".to_owned()),
        Ok(Err(PipelineError::Config(message))) if message.contains("panicked") => Err(message),
        Ok(_) => Ok(()),
    }
}

#[test]
fn flipped_and_truncated_containers_never_panic() {
    let image = synth::ct_phantom(40, 24, 12, 1);
    let stack = synth::ct_volume(24, 16, 3, 12, 2);
    let lossless = LosslessCodec::new(2).unwrap();
    let near = LosslessCodec::near_lossless(2, 2).unwrap();
    let bank = FilterBank::table1(FilterId::F1);
    let lwct = |codec| TiledCompressor::with_codec(codec, 16, 16, 1).unwrap().compress(&image);
    let lwcv = |codec| {
        VolumeCompressor::with_codec(codec, 1, 16, 16, 2, 1).unwrap().compress_stack(&stack)
    };
    let fixed = TiledFixedCompressor::new(&bank, 2, 16, 1).unwrap();
    let streams = [
        ("LWCT v1", lwct(lossless).unwrap()),
        ("LWCT v2", lwct(near).unwrap()),
        ("LWCF", fixed.compress(&synth::ct_phantom(32, 32, 12, 3)).unwrap()),
        ("LWCV v1", lwcv(lossless).unwrap()),
        ("LWCV v2", lwcv(near).unwrap()),
        ("LWC1", lossless.compress(&image).unwrap()),
        ("LWCQ", near.compress(&image).unwrap()),
    ];
    for (name, bytes) in &streams {
        assert_eq!(bytes[..4], name.as_bytes()[..4], "{name} magic");
        let framing = framing_bytes(bytes);
        assert!(DecodePlan::sniff(bytes.as_slice()).unwrap().execute(1).is_ok(), "{name}");
        let mut flipped = bytes.clone();
        for bit in 0..8 * (framing + 64).min(bytes.len()) {
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            let outcome = decode_without_panic(&flipped);
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            assert_eq!(outcome, Ok(()), "{name}: bit {bit} flipped");
        }
        for len in 0..bytes.len() {
            assert_eq!(decode_without_panic(&bytes[..len]), Ok(()), "{name}: {len}-byte prefix");
        }
    }
}
