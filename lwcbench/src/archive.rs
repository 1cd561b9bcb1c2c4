//! `archive-2d` and `archive-nl`: single-threaded PACS ingest and retrieval
//! of 12-bit 2048² frames held as DICOM Part 10 bytes.
//!
//! Ingest is `dicom::parse` then `LosslessCodec::compress` at 5 scales;
//! retrieval is `LosslessCodec::decompress`. A frame is 16 MiB of `i32`,
//! beyond a core's L2, so the transform is memory-bound; there is no
//! scheduler and no socket. `archive-nl` runs the same frames and ops through
//! `LosslessCodec::near_lossless(5, 2)`, so it differs only in the quantizer.

use crate::decomp::{decode_frame, encode_plane};
use crate::host::Noise;
use crate::inputs::Frames;
use crate::report::{
    check, check_attribution, finish, keep_going, layer_metrics, msamples_per_s, repeated_setup,
    timed, Outcome, Tally,
};
use crate::stats::{median, min_samples_for};
use crate::trace::{Profile, Tracer};
use crate::{Args, Res};
use lwc_coder::LosslessCodec;
use lwc_image::{dicom, Image};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-pixel error bound of `archive-nl`.
pub const NEAR_LOSSLESS_DELTA: u8 = 2;
const SIZE: usize = 2048;
const SCALES: u32 = 5;
/// Retrieval latency tail: the highest percentile a run of ~40 retrievals
/// supports with ten samples beyond it.
const TAIL_PERCENTILE: f64 = 75.0;
const SETUP_REPS: usize = 3;

/// Inputs plus what the reads need, made before timing starts.
struct Setup {
    frames: Frames,
    /// The engine's stream for every frame (retrieval inputs and the bytes
    /// every ingest must reproduce).
    streams: Vec<Vec<u8>>,
    ratio: f64,
}

fn prepare(seed: u64, size: usize, codec: &LosslessCodec) -> Res<Setup> {
    let frames = Frames::generate(seed, size)?;
    let streams =
        frames.images.iter().map(|image| codec.compress(image)).collect::<Result<Vec<_>, _>>()?;
    let raw_bits: usize =
        frames.images.iter().map(|i| i.pixel_count() * i.bit_depth() as usize).sum();
    let stored_bits: usize = streams.iter().map(|s| s.len() * 8).sum();
    // One untimed pass over every op.
    for (bytes, stream) in frames.dicom.iter().zip(&streams) {
        ingest(codec, bytes)?;
        codec.decompress(stream)?;
    }
    Ok(Setup { frames, streams, ratio: raw_bits as f64 / stored_bits as f64 })
}

fn ingest(codec: &LosslessCodec, dicom_bytes: &[u8]) -> Res<(Image, Vec<u8>)> {
    let image = dicom::parse(dicom_bytes)?.frame0()?;
    let stream = codec.compress(&image)?;
    Ok((image, stream))
}

fn check_ingest(setup: &Setup, k: usize, image: &Image, stream: &[u8]) -> Result<(), String> {
    check(image == &setup.frames.images[k], || {
        format!("frame {k}: DICOM parse changed the pixels")
    })?;
    check(stream == setup.streams[k].as_slice(), || {
        format!("frame {k}: encode is not deterministic")
    })
}

fn check_retrieval(setup: &Setup, k: usize, back: &Image, delta: u8) -> Result<(), String> {
    let source = &setup.frames.images[k];
    check(back.width() == source.width() && back.height() == source.height(), || {
        format!("frame {k}: decoded shape differs")
    })?;
    let worst =
        source.samples().iter().zip(back.samples()).map(|(a, b)| (a - b).unsigned_abs()).max();
    check(worst.unwrap_or(0) <= u32::from(delta), || {
        format!("frame {k}: max error {worst:?} exceeds the bound {delta}")
    })
}

pub fn run(args: &Args, delta: u8) -> Res<Outcome> {
    let codec = LosslessCodec::near_lossless(SCALES, delta)?;
    let (setup, setup_s) = repeated_setup(SETUP_REPS, || prepare(args.seed, SIZE, &codec))?;
    let samples = SIZE * SIZE;
    let frames = setup.frames.images.len();
    let need = min_samples_for(TAIL_PERCENTILE, 10);
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let noise = Noise::sample();
    let start = Instant::now();
    let mut latency_samples = Vec::new();
    if args.trace {
        let tracer = Tracer::new();
        let (mut plain_ms, mut traced_ms, mut k) = (0.0, 0.0, 0);
        while keep_going(start, args.seconds, k, frames) {
            let i = k % frames;
            k += 1;
            let (ingested, ms_in) = timed(|| ingest(&codec, &setup.frames.dicom[i]));
            let (back, ms_out) = timed(|| codec.decompress(&setup.streams[i]));
            plain_ms += ms_in + ms_out;
            let (traced, ms_enc) = timed(|| {
                tracer.op("op.encode", |c| {
                    let image = c.span("image.dicom_parse", |_| {
                        dicom::parse(&setup.frames.dicom[i]).and_then(|d| d.frame0())
                    })?;
                    encode_plane(c, &codec, &image.view())
                })
            });
            let (traced_back, ms_dec) =
                timed(|| tracer.op("op.decode", |c| decode_frame(c, &codec, &setup.streams[i])));
            traced_ms += ms_enc + ms_dec;
            tally.record(
                ingested
                    .map_err(|e| e.to_string())
                    .and_then(|(image, stream)| check_ingest(&setup, i, &image, &stream)),
            );
            let back = back.map_err(|e| e.to_string());
            tally.record(back.clone().and_then(|b| check_retrieval(&setup, i, &b, delta)));
            tally.record(traced.map_err(|e| e.to_string()).and_then(|stream| {
                check(stream == setup.streams[i], || {
                    format!("frame {i}: traced encode differs from the engine's bytes")
                })
            }));
            tally.record(traced_back.map_err(|e| e.to_string()).and_then(|b| {
                check(back.as_ref().ok() == Some(&b), || {
                    format!("frame {i}: traced decode differs from the engine's")
                })
            }));
        }
        let profile = Profile::new(tracer.spans());
        metrics = layer_metrics(&tracer, &profile, 1);
        metrics.insert("trace.overhead_pct".into(), 100.0 * (traced_ms / plain_ms - 1.0));
        tally.record(check_attribution(&metrics));
        crate::trace::write_out(&profile, args);
    } else {
        let (mut encode_ms, mut decode_ms) = (Vec::new(), Vec::new());
        let mut k = 0;
        while keep_going(start, args.seconds, decode_ms.len(), need) {
            let i = k % frames;
            k += 1;
            let (ingested, ms) = timed(|| ingest(&codec, &setup.frames.dicom[i]));
            if tally.record(
                ingested
                    .map_err(|e| e.to_string())
                    .and_then(|(image, stream)| check_ingest(&setup, i, &image, &stream)),
            ) {
                encode_ms.push(ms);
            }
            let (back, ms) = timed(|| codec.decompress(&setup.streams[i]));
            if tally.record(
                back.map_err(|e| e.to_string()).and_then(|b| check_retrieval(&setup, i, &b, delta)),
            ) {
                decode_ms.push(ms);
            }
        }
        let busy_s = (encode_ms.iter().sum::<f64>() + decode_ms.iter().sum::<f64>()) / 1e3;
        metrics.insert("encode_msamples_per_s".into(), msamples_per_s(samples, median(&encode_ms)));
        metrics.insert("decode_msamples_per_s".into(), msamples_per_s(samples, median(&decode_ms)));
        metrics
            .insert("requests_per_s".into(), (encode_ms.len() + decode_ms.len()) as f64 / busy_s);
        latency_samples = decode_ms;
    }
    let latency = (!args.trace).then_some((
        &latency_samples[..],
        TAIL_PERCENTILE,
        "retrieval: decompress of one frame",
    ));
    Ok(finish(tally, metrics, noise, setup_s, setup.ratio, latency))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_repeats_for_a_seed_and_changes_with_it() {
        let codec = LosslessCodec::near_lossless(SCALES, 0).unwrap();
        let a = prepare(3, 64, &codec).unwrap();
        let b = prepare(3, 64, &codec).unwrap();
        let c = prepare(4, 64, &codec).unwrap();
        assert_eq!((a.frames == b.frames, a.streams == b.streams), (true, true));
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        assert_ne!(a.ratio.to_bits(), c.ratio.to_bits());
    }
}
