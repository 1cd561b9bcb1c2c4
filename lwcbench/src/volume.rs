//! `volume-ct`: 12-bit 256×256×64 correlated CT stacks through the
//! brick-parallel `VolumeCompressor` (4 scales, 3 z-scales, 64² tiles, brick
//! depth 8, 2 workers): whole-stack encode, whole-stack decode, and seeded
//! 64×64×16 cuboid region reads.
//!
//! The planes fit in L2, so the z-transform, the fresh thread scope every
//! fan-out starts, and the container parse on every region read carry a
//! large share of the time here.

use crate::decomp::{compress_volume, decompress_volume};
use crate::host::Noise;
use crate::inputs::{ct_stacks, cuboid, derive, Rng};
use crate::report::{
    check, check_attribution, finish, keep_going, layer_metrics, msamples_per_s, repeated_setup,
    timed, Outcome, Tally,
};
use crate::stats::{median, min_samples_for};
use crate::trace::{Profile, Tracer};
use crate::{Args, Res};
use lwc_image::{BrickRect, ImageStack};
use lwc_pipeline::VolumeCompressor;
use std::collections::BTreeMap;
use std::time::Instant;

const DIMS: (usize, usize, usize) = (256, 256, 64);
const STACKS: usize = 2;
const REGION: (usize, usize, usize) = (64, 64, 16);
const WORKERS: usize = 2;
/// Region reads per whole-stack encode and decode.
const READS_PER_CYCLE: usize = 16;
/// Pre-generated region list, cycled through by the timed loop.
const REGIONS: usize = 1024;
/// Region-read latency tail. A run makes ~900 reads, enough for p95 with ten
/// samples beyond. But every read waits for both workers, so on a shared host
/// p95 and p90 track the hypervisor's steal bursts (0.27 spread across
/// seeds); p75 is the highest tail that stays within the bound.
const TAIL_PERCENTILE: f64 = 75.0;
const SETUP_REPS: usize = 3;

fn engine() -> Res<VolumeCompressor> {
    Ok(VolumeCompressor::new(4, 3, 64, 8, WORKERS)?)
}

/// Inputs plus what the reads need, made before timing starts.
struct Setup {
    stacks: Vec<ImageStack>,
    streams: Vec<Vec<u8>>,
    regions: Vec<BrickRect>,
    ratio: f64,
}

fn prepare(
    seed: u64,
    dims: (usize, usize, usize),
    region: (usize, usize, usize),
    engine: &VolumeCompressor,
) -> Res<Setup> {
    let stacks = ct_stacks(seed, STACKS, dims.0, dims.1, dims.2);
    let streams = stacks.iter().map(|s| engine.compress_stack(s)).collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::new(derive(seed, 40));
    let regions = (0..REGIONS).map(|_| cuboid(&mut rng, dims, region)).collect::<Vec<_>>();
    let raw_bits: usize = stacks.iter().map(|s| s.voxel_count() * s.bit_depth() as usize).sum();
    let stored_bits: usize = streams.iter().map(|s| s.len() * 8).sum();
    // One untimed pass over every op.
    for (k, stream) in streams.iter().enumerate() {
        engine.compress_stack(&stacks[k])?;
        engine.decompress_stack(stream)?;
        engine.decompress_region(stream, regions[k])?;
    }
    Ok(Setup { stacks, streams, regions, ratio: raw_bits as f64 / stored_bits as f64 })
}

fn crop(stack: &ImageStack, rect: BrickRect) -> Res<Vec<i32>> {
    Ok(stack.view().subvolume(rect)?.to_samples())
}

fn check_encode(setup: &Setup, k: usize, stream: &[u8]) -> Result<(), String> {
    check(stream == setup.streams[k].as_slice(), || {
        format!("stack {k}: encode is not deterministic")
    })
}

fn check_decode(setup: &Setup, k: usize, back: &ImageStack) -> Result<(), String> {
    check(back == &setup.stacks[k], || format!("stack {k}: decode is not lossless"))
}

fn check_region(setup: &Setup, k: usize, rect: BrickRect, back: &ImageStack) -> Result<(), String> {
    let want = crop(&setup.stacks[k], rect).map_err(|e| e.to_string())?;
    check(back.samples() == want.as_slice(), || {
        format!("stack {k}: region {rect:?} differs from the source crop")
    })
}

pub fn run(args: &Args) -> Res<Outcome> {
    let engine = engine()?;
    let (setup, setup_s) =
        repeated_setup(SETUP_REPS, || prepare(args.seed, DIMS, REGION, &engine))?;
    let voxels = DIMS.0 * DIMS.1 * DIMS.2;
    let need = min_samples_for(TAIL_PERCENTILE, 10);
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let mut latency_samples = Vec::new();
    let noise = Noise::sample();
    let start = Instant::now();
    let mut next_region = 0;
    let mut region = || {
        next_region = (next_region + 1) % REGIONS;
        setup.regions[next_region]
    };
    let err = |e: Box<dyn std::error::Error + Send + Sync>| e.to_string();
    if args.trace {
        let tracer = Tracer::new();
        let (mut plain_ms, mut traced_ms, mut cycles) = (0.0, 0.0, 0);
        while keep_going(start, args.seconds, cycles, STACKS) {
            let k = cycles % STACKS;
            cycles += 1;
            let stack = &setup.stacks[k];
            let stream = &setup.streams[k];
            let (bytes, ms) = timed(|| engine.compress_stack(stack));
            plain_ms += ms;
            let (traced, ms) =
                timed(|| tracer.op("op.encode", |c| compress_volume(c, &engine, WORKERS, stack)));
            traced_ms += ms;
            tally
                .record(bytes.map_err(|e| e.to_string()).and_then(|b| check_encode(&setup, k, &b)));
            tally.record(traced.map_err(err).and_then(|b| {
                check(&b == stream, || {
                    format!("stack {k}: traced encode differs from the engine's bytes")
                })
            }));
            let (back, ms) = timed(|| engine.decompress_stack(stream));
            plain_ms += ms;
            let (traced, ms) =
                timed(|| tracer.op("op.decode", |c| decompress_volume(c, WORKERS, stream, None)));
            traced_ms += ms;
            tally.record(back.map_err(|e| e.to_string()).and_then(|b| check_decode(&setup, k, &b)));
            tally.record(traced.map_err(err).and_then(|b| check_decode(&setup, k, &b)));
            for _ in 0..READS_PER_CYCLE / 4 {
                let rect = region();
                let (back, ms) = timed(|| engine.decompress_region(stream, rect));
                plain_ms += ms;
                let (traced, ms) = timed(|| {
                    tracer.op("op.region", |c| decompress_volume(c, WORKERS, stream, Some(rect)))
                });
                traced_ms += ms;
                tally.record(
                    back.map_err(|e| e.to_string()).and_then(|b| check_region(&setup, k, rect, &b)),
                );
                tally.record(traced.map_err(err).and_then(|b| check_region(&setup, k, rect, &b)));
            }
        }
        let profile = Profile::new(tracer.spans());
        metrics = layer_metrics(&tracer, &profile, WORKERS);
        metrics.insert("trace.overhead_pct".into(), 100.0 * (traced_ms / plain_ms - 1.0));
        tally.record(check_attribution(&metrics));
        crate::trace::write_out(&profile, args);
    } else {
        let (mut encode_ms, mut decode_ms, mut region_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut cycles = 0;
        while keep_going(start, args.seconds, region_ms.len(), need) {
            let k = cycles % STACKS;
            cycles += 1;
            let (bytes, ms) = timed(|| engine.compress_stack(&setup.stacks[k]));
            if tally
                .record(bytes.map_err(|e| e.to_string()).and_then(|b| check_encode(&setup, k, &b)))
            {
                encode_ms.push(ms);
            }
            let (back, ms) = timed(|| engine.decompress_stack(&setup.streams[k]));
            if tally
                .record(back.map_err(|e| e.to_string()).and_then(|b| check_decode(&setup, k, &b)))
            {
                decode_ms.push(ms);
            }
            for _ in 0..READS_PER_CYCLE {
                let rect = region();
                let (back, ms) = timed(|| engine.decompress_region(&setup.streams[k], rect));
                if tally.record(
                    back.map_err(|e| e.to_string()).and_then(|b| check_region(&setup, k, rect, &b)),
                ) {
                    region_ms.push(ms);
                }
            }
        }
        let ops = encode_ms.len() + decode_ms.len() + region_ms.len();
        let busy_s = (encode_ms.iter().chain(&decode_ms).chain(&region_ms).sum::<f64>()) / 1e3;
        metrics.insert("encode_msamples_per_s".into(), msamples_per_s(voxels, median(&encode_ms)));
        metrics.insert("decode_msamples_per_s".into(), msamples_per_s(voxels, median(&decode_ms)));
        metrics.insert("requests_per_s".into(), ops as f64 / busy_s);
        latency_samples = region_ms;
    }
    let latency = (!args.trace).then_some((
        &latency_samples[..],
        TAIL_PERCENTILE,
        "one 64x64x16 region read",
    ));
    Ok(finish(tally, metrics, noise, setup_s, setup.ratio, latency))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_regions_and_ratio_repeat_for_a_seed_and_change_with_it() {
        let engine = engine().unwrap();
        let (dims, region) = ((64, 64, 16), (16, 16, 4));
        let a = prepare(3, dims, region, &engine).unwrap();
        let b = prepare(3, dims, region, &engine).unwrap();
        let c = prepare(4, dims, region, &engine).unwrap();
        assert_eq!((a.stacks == b.stacks, a.regions == b.regions), (true, true));
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        assert_ne!(a.regions, c.regions);
        assert_ne!(a.ratio.to_bits(), c.ratio.to_bits());
    }
}
