//! `serve-mixed`: an in-process loopback `Server` (2 workers, 4 scales, 128²
//! tiles, a provisioned in-flight budget, response cache off) under a closed
//! loop: one load thread keeps at most two requests in flight on one
//! connection and sends the next only when a reply arrives.
//!
//! The requests are a fixed list set by the seed: compress, decompress,
//! decompress-tile and 2-D decompress-region on 512² frames, and
//! compress-volume, decompress-volume and 3-D decompress-region on 128²×16
//! stacks — every server fan-out path. Each request does little work and its
//! data stays in cache, so framing, socket, scheduler wait and fan-out carry
//! most of the latency.

use crate::decomp::{
    compress_tiled, compress_volume, crop_tiles, decode_tiles, decompress_region_2d,
    decompress_tiled, decompress_volume,
};
use crate::host::Noise;
use crate::inputs::{ct_stacks, request_list, serve_frames, Kind, Request, ServeShape};
use crate::report::{
    check, check_attribution, finish, keep_going, layer_metrics, msamples_per_s, repeated_setup,
    timed, Outcome, Tally,
};
use crate::stats::{median, min_samples_for};
use crate::trace::{Ctx, Profile, Tracer};
use crate::{Args, Res};
use lwc_coder::{LosslessCodec, TiledStream};
use lwc_image::{pgm, BrickRect, Image, ImageStack};
use lwc_pipeline::{TiledCompressor, VolumeCompressor};
use lwc_server::rawvol::{read_raw_volume, write_raw_volume};
use lwc_server::{Client, Op, Server, ServerConfig, ServerStats};
use std::collections::BTreeMap;
use std::time::Instant;

const SHAPE: ServeShape =
    ServeShape { frames: 4, frame: 512, tile: 128, stacks: 2, stack: (128, 128, 16) };
const WORKERS: usize = 2;
const SCALES: u32 = 4;
/// The server's default z decomposition and brick depth.
const Z_SCALES: u32 = 2;
const BRICK_DEPTH: usize = 8;
const IN_FLIGHT: usize = 2;
/// Request latency tail. A run completes several thousand requests, enough
/// for p99 with ten samples beyond, but on a shared host p99 tracks the
/// hypervisor's steal bursts (a 0.29 spread across seeds); p90, inside the
/// cluster of whole-volume and 3-D region requests, stays within the bound.
const TAIL_PERCENTILE: f64 = 90.0;
const SETUP_REPS: usize = 3;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        // Provisioned: the budget covers every request the load can have in
        // flight, so a correct server refuses none.
        queue_depth: 4 * IN_FLIGHT,
        conn_inflight: 4 * IN_FLIGHT,
        cache_entries: 0,
        scales: SCALES,
        tile_size: SHAPE.tile,
        z_scales: Z_SCALES,
        brick_depth: BRICK_DEPTH,
        ..ServerConfig::default()
    }
}

/// The library engines the server builds for this configuration, run on
/// one thread as the server's per-request engine is.
struct Engines {
    tiled: TiledCompressor,
    volume: VolumeCompressor,
}

impl Engines {
    fn new(shape: ServeShape) -> Res<Self> {
        let codec = LosslessCodec::new(SCALES)?;
        Ok(Self {
            tiled: TiledCompressor::with_codec(codec, shape.tile, shape.tile, 1)?,
            volume: VolumeCompressor::with_codec(
                codec,
                Z_SCALES,
                shape.tile,
                shape.tile,
                BRICK_DEPTH,
                1,
            )?,
        })
    }
}

/// Inputs in wire form, the request list, and every request's expected
/// reply.
struct Fixed {
    frames: Vec<Image>,
    stacks: Vec<ImageStack>,
    pgm: Vec<Vec<u8>>,
    raw: Vec<Vec<u8>>,
    frame_streams: Vec<Vec<u8>>,
    stack_streams: Vec<Vec<u8>>,
    list: Vec<Request>,
    /// Wire payload of every list entry.
    payloads: Vec<(Op, Vec<u8>)>,
    /// The library engine's reply to every list entry.
    expected: Vec<Vec<u8>>,
    /// Raw bits over stored bits of the list's compress requests.
    ratio: f64,
}

fn pgm_bytes(image: &Image) -> Res<Vec<u8>> {
    let mut bytes = Vec::with_capacity(image.pixel_count() * 2 + 32);
    pgm::write_pgm(image, &mut bytes)?;
    Ok(bytes)
}

/// The `decompress-region` wire prefix: six big-endian u32 (x, y, z, width,
/// height, depth), then the stream.
fn region_payload(rect: BrickRect, stream: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(24 + stream.len());
    for field in
        [rect.plane.x, rect.plane.y, rect.z, rect.plane.width, rect.plane.height, rect.depth]
    {
        payload.extend_from_slice(&(field as u32).to_be_bytes());
    }
    payload.extend_from_slice(stream);
    payload
}

impl Fixed {
    fn generate(seed: u64, shape: ServeShape, engines: &Engines) -> Res<Self> {
        let frames = serve_frames(seed, shape.frames, shape.frame);
        let (w, h, d) = shape.stack;
        let stacks = ct_stacks(seed, shape.stacks, w, h, d);
        let pgm = frames.iter().map(pgm_bytes).collect::<Res<Vec<_>>>()?;
        let raw = stacks.iter().map(write_raw_volume).collect::<Vec<_>>();
        let frame_streams =
            frames.iter().map(|f| engines.tiled.compress(f)).collect::<Result<Vec<_>, _>>()?;
        let stack_streams = stacks
            .iter()
            .map(|s| engines.volume.compress_stack(s))
            .collect::<Result<Vec<_>, _>>()?;
        let list = request_list(seed, shape);
        let mut fixed = Self {
            frames,
            stacks,
            pgm,
            raw,
            frame_streams,
            stack_streams,
            list,
            payloads: Vec::new(),
            expected: Vec::new(),
            ratio: 0.0,
        };
        fixed.payloads = fixed.list.iter().map(|r| fixed.payload(r)).collect();
        fixed.expected =
            fixed.list.iter().map(|r| fixed.direct(engines, r)).collect::<Res<Vec<_>>>()?;
        for (request, reply) in fixed.list.iter().zip(&fixed.expected) {
            fixed.check_lossless(request, reply)?;
        }
        let (mut raw_bits, mut stored_bits) = (0usize, 0usize);
        for (request, reply) in fixed.list.iter().zip(&fixed.expected) {
            let voxels = match request.kind {
                Kind::Compress => fixed.frames[request.input].pixel_count(),
                Kind::CompressVolume => fixed.stacks[request.input].voxel_count(),
                _ => continue,
            };
            raw_bits += voxels * crate::inputs::BIT_DEPTH as usize;
            stored_bits += reply.len() * 8;
        }
        fixed.ratio = raw_bits as f64 / stored_bits as f64;
        Ok(fixed)
    }

    fn payload(&self, r: &Request) -> (Op, Vec<u8>) {
        let frame_stream = || self.frame_streams[r.input].as_slice();
        let stack_stream = || self.stack_streams[r.input].as_slice();
        match r.kind {
            Kind::Compress => (Op::Compress, self.pgm[r.input].clone()),
            Kind::Decompress => (Op::Decompress, frame_stream().to_vec()),
            Kind::DecompressTile => {
                let mut payload = r.tile.to_be_bytes().to_vec();
                payload.extend_from_slice(frame_stream());
                (Op::DecompressTile, payload)
            }
            Kind::Region2d => (Op::DecompressRegion, region_payload(r.rect, frame_stream())),
            Kind::CompressVolume => (Op::CompressVolume, self.raw[r.input].clone()),
            Kind::DecompressVolume => (Op::DecompressVolume, stack_stream().to_vec()),
            Kind::Region3d => (Op::DecompressRegion, region_payload(r.rect, stack_stream())),
        }
    }

    /// The request run through the library engine the server would build.
    fn direct(&self, engines: &Engines, r: &Request) -> Res<Vec<u8>> {
        match r.kind {
            Kind::Compress => {
                Ok(engines.tiled.compress(&pgm::read_pgm(self.pgm[r.input].as_slice())?)?)
            }
            Kind::Decompress => pgm_bytes(&engines.tiled.decompress(&self.frame_streams[r.input])?),
            Kind::DecompressTile => pgm_bytes(
                &engines.tiled.decompress_tile(&self.frame_streams[r.input], r.tile as usize)?,
            ),
            Kind::Region2d => {
                let stream = TiledStream::parse(&self.frame_streams[r.input])?;
                let grid = stream.grid()?;
                let covering =
                    grid.covering_indices(r.rect.plane).ok_or("region outside the frame")?;
                let tiles = covering
                    .iter()
                    .map(|&i| Ok((grid.rect(i), engines.tiled.decompress_parsed_tile(&stream, i)?)))
                    .collect::<Res<Vec<_>>>()?;
                pgm_bytes(&crop_tiles(&tiles, r.rect.plane, stream.header().bit_depth)?)
            }
            Kind::CompressVolume => {
                Ok(engines.volume.compress_stack(&read_raw_volume(&self.raw[r.input])?)?)
            }
            Kind::DecompressVolume => Ok(write_raw_volume(
                &engines.volume.decompress_stack(&self.stack_streams[r.input])?,
            )),
            Kind::Region3d => Ok(write_raw_volume(
                &engines.volume.decompress_region(&self.stack_streams[r.input], r.rect)?,
            )),
        }
    }

    /// The same request recomposed from the layers' functions, traced.
    fn traced(&self, ctx: Ctx<'_>, engines: &Engines, r: &Request) -> Res<Vec<u8>> {
        let frame_stream = || self.frame_streams[r.input].as_slice();
        let stack_stream = || self.stack_streams[r.input].as_slice();
        let to_pgm = |image: &Image| ctx.span("image.pgm_write", |_| pgm_bytes(image));
        let to_raw =
            |stack: &ImageStack| ctx.span("server.rawvol_write", |_| write_raw_volume(stack));
        match r.kind {
            Kind::Compress => {
                let image =
                    ctx.span("image.pgm_parse", |_| pgm::read_pgm(self.pgm[r.input].as_slice()))?;
                compress_tiled(ctx, &engines.tiled, 1, &image)
            }
            Kind::Decompress => to_pgm(&decompress_tiled(ctx, 1, frame_stream())?),
            Kind::DecompressTile => {
                let (_, tiles) = decode_tiles(ctx, 1, frame_stream(), Some(&[r.tile as usize]))?;
                to_pgm(&tiles[0].1)
            }
            Kind::Region2d => to_pgm(&decompress_region_2d(ctx, 1, frame_stream(), r.rect.plane)?),
            Kind::CompressVolume => {
                let stack =
                    ctx.span("server.rawvol_read", |_| read_raw_volume(&self.raw[r.input]))?;
                compress_volume(ctx, &engines.volume, 1, &stack)
            }
            Kind::DecompressVolume => Ok(to_raw(&decompress_volume(ctx, 1, stack_stream(), None)?)),
            Kind::Region3d => Ok(to_raw(&decompress_volume(ctx, 1, stack_stream(), Some(r.rect))?)),
        }
    }

    /// Decode replies must equal the source pixels.
    fn check_lossless(&self, r: &Request, reply: &[u8]) -> Res<()> {
        let want = match r.kind {
            Kind::Compress | Kind::CompressVolume => return Ok(()),
            Kind::Decompress => self.pgm[r.input].clone(),
            Kind::DecompressTile => {
                let grid = TiledStream::parse(&self.frame_streams[r.input])?.grid()?;
                pgm_bytes(&self.frames[r.input].view_rect(grid.rect(r.tile as usize))?.to_image()?)?
            }
            Kind::Region2d => {
                pgm_bytes(&self.frames[r.input].view_rect(r.rect.plane)?.to_image()?)?
            }
            Kind::DecompressVolume => self.raw[r.input].clone(),
            Kind::Region3d => {
                let stack = &self.stacks[r.input];
                let crop = stack.view().subvolume(r.rect)?.to_samples();
                write_raw_volume(&ImageStack::from_samples(
                    r.rect.plane.width,
                    r.rect.plane.height,
                    r.rect.depth,
                    stack.bit_depth(),
                    crop,
                )?)
            }
        };
        if want == reply {
            Ok(())
        } else {
            Err(format!("{} reply differs from the source pixels", r.kind.name()).into())
        }
    }
}

/// A bound server with its fixed request set, warmed up.
struct Setup {
    server: Server,
    fixed: Fixed,
}

fn prepare(seed: u64, engines: &Engines) -> Res<Setup> {
    let fixed = Fixed::generate(seed, SHAPE, engines)?;
    let server = Server::bind("127.0.0.1:0", server_config())?;
    // One untimed pass over the request list.
    let mut warm = Tally::default();
    drive(&server, &fixed, 0.0, 0, &mut warm)?;
    if let Some(why) = warm.first_failure() {
        return Err(format!("warm-up pass failed: {why}").into());
    }
    Ok(Setup { server, fixed })
}

/// What one closed-loop phase measured.
struct Load {
    /// Client latency in ms of every request that succeeded, by kind.
    latency: BTreeMap<Kind, Vec<f64>>,
    completed: usize,
    wall_s: f64,
    before: ServerStats,
    after: ServerStats,
}

/// Closed loop over the request list for `seconds` (at least one pass, and
/// at least `need` replies): keeps `IN_FLIGHT` requests outstanding on one
/// connection and checks every reply against the library engine's.
fn drive(
    server: &Server,
    fixed: &Fixed,
    seconds: f64,
    need: usize,
    tally: &mut Tally,
) -> Res<Load> {
    let mut client = Client::connect(server.local_addr())?;
    let before = server.stats();
    let mut latency: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut pending: Vec<(u64, usize, Instant)> = Vec::with_capacity(IN_FLIGHT);
    let (mut sent, mut completed) = (0usize, 0usize);
    let list = fixed.list.len();
    let start = Instant::now();
    let submit = |client: &mut Client,
                  pending: &mut Vec<(u64, usize, Instant)>,
                  sent: &mut usize|
     -> Res<()> {
        let index = *sent % list;
        let (op, payload) = &fixed.payloads[index];
        let payload = payload.clone();
        let at = Instant::now();
        let id = client.submit(*op, payload)?;
        pending.push((id, index, at));
        *sent += 1;
        Ok(())
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut client, &mut pending, &mut sent)?;
    }
    while !pending.is_empty() {
        let response = client.receive()?;
        let at = pending
            .iter()
            .position(|p| p.0 == response.request_id)
            .ok_or("reply to a request that was not sent")?;
        let (_, index, sent_at) = pending.swap_remove(at);
        let ms = sent_at.elapsed().as_secs_f64() * 1e3;
        let kind = fixed.list[index].kind;
        let ok =
            response.result.map_err(|e| format!("{} failed: {e}", kind.name())).and_then(|reply| {
                check(reply == fixed.expected[index], || {
                    format!("{} reply differs from the library engine's", kind.name())
                })
            });
        if tally.record(ok) {
            latency.entry(kind).or_default().push(ms);
            completed += 1;
        }
        if sent < list || keep_going(start, seconds, completed, need) {
            submit(&mut client, &mut pending, &mut sent)?;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = server.stats();
    tally.record(check(
        after.rejected_busy == before.rejected_busy && after.error_replies == before.error_replies,
        || {
            format!(
                "provisioned server refused or failed {} busy / {} error replies",
                after.rejected_busy - before.rejected_busy,
                after.error_replies - before.error_replies
            )
        },
    ));
    Ok(Load { latency, completed, wall_s, before, after })
}

pub fn run(args: &Args) -> Res<Outcome> {
    let engines = Engines::new(SHAPE)?;
    let (setup, setup_s) = repeated_setup(SETUP_REPS, || prepare(args.seed, &engines))?;
    let fixed = &setup.fixed;
    let mut tally = Tally::default();
    let mut metrics = BTreeMap::new();
    let mut latency_samples = Vec::new();
    let noise = Noise::sample();
    if args.trace {
        // Phase 1: the closed loop, for client latency per op and the
        // scheduler's counters.
        let load = drive(&setup.server, fixed, args.seconds / 2.0, 0, &mut tally)?;
        let requests =
            (load.after.completed_requests - load.before.completed_requests).max(1) as f64;
        metrics.insert(
            "server.steals_per_request".into(),
            (load.after.steals - load.before.steals) as f64 / requests,
        );
        metrics.insert("server.active_workers".into(), load.after.active_workers as f64);
        metrics.insert(
            "server.rejected_busy".into(),
            (load.after.rejected_busy - load.before.rejected_busy) as f64,
        );
        metrics.insert(
            "server.error_replies".into(),
            (load.after.error_replies - load.before.error_replies) as f64,
        );
        // Phase 2: every request run directly through the library engine and
        // through the traced recomposition, alternately.
        let tracer = Tracer::new();
        let mut direct: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
        let (mut plain_ms, mut traced_ms, mut k) = (0.0, 0.0, 0);
        let start = Instant::now();
        while k < fixed.list.len() || keep_going(start, args.seconds / 2.0, 0, 0) {
            let index = k % fixed.list.len();
            k += 1;
            let request = &fixed.list[index];
            let (reply, ms) = timed(|| fixed.direct(&engines, request));
            plain_ms += ms;
            let root = match request.kind {
                Kind::Compress | Kind::CompressVolume => "op.encode",
                Kind::Region2d | Kind::Region3d => "op.region",
                _ => "op.decode",
            };
            let (traced, traced_op_ms) =
                timed(|| tracer.op(root, |c| fixed.traced(c, &engines, request)));
            traced_ms += traced_op_ms;
            let name = request.kind.name();
            if tally.record(reply.map_err(|e| e.to_string()).and_then(|r| {
                check(r == fixed.expected[index], || format!("direct {name} is not deterministic"))
            })) {
                direct.entry(request.kind).or_default().push(ms);
            }
            tally.record(traced.map_err(|e| e.to_string()).and_then(|r| {
                check(r == fixed.expected[index], || {
                    format!("traced {name} differs from the engine's bytes")
                })
            }));
        }
        let profile = Profile::new(tracer.spans());
        metrics.extend(layer_metrics(&tracer, &profile, 1));
        metrics.insert("trace.overhead_pct".into(), 100.0 * (traced_ms / plain_ms - 1.0));
        for kind in Kind::ALL {
            let direct_ms = median(direct.get(&kind).map_or(&[][..], Vec::as_slice));
            let client_ms = median(load.latency.get(&kind).map_or(&[][..], Vec::as_slice));
            metrics.insert(format!("server.direct_ms.{}", kind.name()), direct_ms);
            metrics.insert(format!("server.overhead_ms.{}", kind.name()), client_ms - direct_ms);
        }
        tally.record(check_attribution(&metrics));
        crate::trace::write_out(&profile, args);
    } else {
        let need = min_samples_for(TAIL_PERCENTILE, 10);
        let load = drive(&setup.server, fixed, args.seconds, need, &mut tally)?;
        let all: Vec<f64> = load.latency.values().flatten().copied().collect();
        let samples = SHAPE.frame * SHAPE.frame;
        let of = |kind| load.latency.get(&kind).map_or(&[][..], Vec::as_slice);
        metrics.insert(
            "encode_msamples_per_s".into(),
            msamples_per_s(samples, median(of(Kind::Compress))),
        );
        metrics.insert(
            "decode_msamples_per_s".into(),
            msamples_per_s(samples, median(of(Kind::Decompress))),
        );
        metrics.insert("requests_per_s".into(), load.completed as f64 / load.wall_s);
        latency_samples = all;
    }
    let latency = (!args.trace).then_some((
        &latency_samples[..],
        TAIL_PERCENTILE,
        "one request, client side, any of the seven ops",
    ));
    Ok(finish(tally, metrics, noise, setup_s, fixed.ratio, latency))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: ServeShape =
        ServeShape { frames: 2, frame: 64, tile: 32, stacks: 2, stack: (32, 32, 8) };

    #[test]
    fn fixed_set_and_ratio_repeat_for_a_seed_and_change_with_it() {
        let engines = Engines::new(SMALL).unwrap();
        let a = Fixed::generate(5, SMALL, &engines).unwrap();
        let b = Fixed::generate(5, SMALL, &engines).unwrap();
        let c = Fixed::generate(6, SMALL, &engines).unwrap();
        assert_eq!(a.list, b.list);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        assert!(a.ratio > 1.0);
        assert_ne!(a.list, c.list);
        assert_ne!(a.expected, c.expected);
        assert_ne!(a.ratio.to_bits(), c.ratio.to_bits());
    }

    #[test]
    fn traced_recomposition_reproduces_every_reply() {
        let engines = Engines::new(SMALL).unwrap();
        let fixed = Fixed::generate(9, SMALL, &engines).unwrap();
        let tracer = Tracer::new();
        for (request, want) in fixed.list.iter().zip(&fixed.expected) {
            let got = tracer.op("op.decode", |c| fixed.traced(c, &engines, request)).unwrap();
            assert_eq!(&got, want, "{:?}", request.kind);
        }
    }
}
