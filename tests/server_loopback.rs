//! End-to-end tests of the compression service over real loopback sockets:
//!
//! * a 16-bit PGM compressed through the server decompresses — whole-image
//!   and single-tile ops — to pixels byte-identical to the sequential
//!   [`LosslessCodec`] path, across 1/2/4 worker pools,
//! * pipelined multi-request submission completes every request,
//! * malformed payloads, short sniff buffers, unknown ops, oversized frames
//!   and bad magic all come back as typed errors (or a closed connection for
//!   unrecoverable framing), never hangs or panics,
//! * an exhausted in-flight budget — global or per-connection — answers
//!   `busy` rather than buffering unboundedly,
//! * the optional response cache answers repeats byte-identically (and a
//!   disabled cache matches those bytes exactly),
//! * stats report the work done and graceful shutdown leaves clients with a
//!   clean disconnect.

use lwc_core::prelude::*;
use lwc_server::{ErrorCode, Frame, Op, PROTOCOL_VERSION};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Accumulates bytes off a raw socket until one whole frame decodes (a
/// single `read` may legally return a partial frame).
fn read_reply_frame(stream: &mut TcpStream) -> Frame {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match Frame::decode(&buf, 1 << 20) {
            Ok((frame, _)) => return frame,
            Err(_) => {
                let n = stream.read(&mut chunk).expect("reply read");
                assert!(n > 0, "connection closed before a full reply frame");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

fn test_server(workers: usize, queue_depth: usize) -> Server {
    let config = ServerConfig {
        workers,
        queue_depth,
        scales: 3,
        tile_size: 32,
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("bind loopback")
}

#[test]
fn sixteen_bit_roundtrip_matches_the_sequential_codec_across_worker_counts() {
    // The acceptance path: a 16-bit PGM through the server, whole-image and
    // single-tile decompression, pixels byte-identical to the sequential
    // LosslessCodec on the same tiles.
    let image = synth::random_image(80, 60, 16, 7);
    for workers in [1usize, 2, 4] {
        let server = test_server(workers, 8);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        let stream = client.compress_image(&image).expect("compress");
        // The server compresses deterministically: its bytes are exactly the
        // tiled engine's (32-pixel tiles, 3 scales, worker-count-free).
        let reference_engine =
            TiledCompressor::with_codec(LosslessCodec::new(3).unwrap(), 32, 32, 1).unwrap();
        assert_eq!(stream, reference_engine.compress(&image).unwrap(), "{workers} workers");

        // Whole-image decompression through the server.
        let back = client.decompress(&stream).expect("decompress");
        assert_eq!(back.samples(), image.samples(), "{workers} workers");
        assert_eq!(back.bit_depth(), 16);

        // Single-tile decompression: every tile equals the sequential
        // codec's decode of that tile's crop.
        let grid = reference_engine.grid(80, 60).unwrap();
        for index in [0, grid.tile_count() - 1] {
            let tile = client.decompress_tile(&stream, index as u32).expect("tile");
            let expected = image.crop(grid.rect(index)).unwrap();
            assert!(stats::bit_exact(&expected, &tile).unwrap(), "tile {index}");
        }
        // And an out-of-range tile is a typed remote error.
        let err = client.decompress_tile(&stream, grid.tile_count() as u32).unwrap_err();
        assert!(
            matches!(err, ServerError::Remote { code: ErrorCode::TileIndexOutOfRange, .. }),
            "{err}"
        );
    }
}

#[test]
fn fixed_path_lwcf_streams_roundtrip_through_the_server() {
    // E2E regression for the paper-exact codec: an `LWCF` stream produced
    // locally decompresses through the existing LWCP ops — whole image and
    // single tile — with the server sniffing the third magic.
    let image = synth::random_image(64, 64, 12, 13);
    let bank = FilterBank::table1(FilterId::F2);
    let engine = TiledFixedCompressor::new(&bank, 3, 32, 1).unwrap();
    let stream = engine.compress(&image).unwrap();

    let server = test_server(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Whole-image decompression through the server.
    let back = client.decompress(&stream).expect("decompress LWCF");
    assert_eq!(back.samples(), image.samples());

    // Single-tile decompression agrees with the local engine per tile.
    let grid = engine.grid(64, 64).unwrap();
    for index in [0, grid.tile_count() - 1] {
        let tile = client.decompress_tile(&stream, index as u32).expect("tile");
        let expected = image.crop(grid.rect(index)).unwrap();
        assert!(stats::bit_exact(&expected, &tile).unwrap(), "tile {index}");
    }
    // Out-of-range tile index: the same typed error as the lifting path.
    let err = client.decompress_tile(&stream, grid.tile_count() as u32).unwrap_err();
    assert!(
        matches!(err, ServerError::Remote { code: ErrorCode::TileIndexOutOfRange, .. }),
        "{err}"
    );

    // Sniff hardening: every 0..8-byte prefix of an LWCF stream — which
    // includes the full magic with a truncated header — answers a typed
    // BadPayload, never a panic or hang.
    for len in 0..8usize {
        let err = client.decompress(&stream[..len]).unwrap_err();
        assert!(
            matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }),
            "{len}-byte LWCF prefix: {err}"
        );
        let err = client.decompress_tile(&stream[..len], 0).unwrap_err();
        assert!(
            matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }),
            "{len}-byte LWCF prefix (tile): {err}"
        );
    }
    // The connection survived the whole gauntlet.
    assert!(client.stats().expect("stats").contains("\"completed_requests\""));
}

#[test]
fn pipelined_requests_all_complete_in_request_order() {
    let server = test_server(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let images: Vec<Image> = (0..6).map(|k| synth::ct_phantom(48, 40, 12, k)).collect();
    let requests: Vec<(Op, Vec<u8>)> = images
        .iter()
        .map(|image| {
            let mut payload = Vec::new();
            pgm::write_pgm(image, &mut payload).unwrap();
            (Op::Compress, payload)
        })
        .collect();
    let results = client.pipeline(requests).expect("pipeline");
    assert_eq!(results.len(), images.len());
    let codec = TiledCompressor::with_codec(LosslessCodec::new(3).unwrap(), 32, 32, 1).unwrap();
    for (image, result) in images.iter().zip(results) {
        let stream = result.expect("per-request success");
        assert_eq!(stream, codec.compress(image).unwrap());
    }
    let stats = server.stats();
    assert_eq!(stats.completed_requests, images.len() as u64);
    assert_eq!(stats.rejected_busy, 0);
}

#[test]
fn short_and_malformed_payloads_are_typed_remote_errors() {
    let server = test_server(1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // 0..8-byte decompress payloads — the magic-sniffing path server-side —
    // must answer BadPayload, never crash the worker or hang the client.
    for len in 0..8usize {
        let err = client.decompress(&vec![0x4C; len]).unwrap_err();
        assert!(
            matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }),
            "{len}-byte payload: {err}"
        );
    }
    // Same for decompress-tile, whose payload embeds the stream after the
    // index prefix (an absent prefix is also a typed error).
    let err = client.decompress_tile(&[], 0).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    let err = client.request(Op::DecompressTile, vec![0, 0]).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    // Garbage PGM for compress.
    let err = client.compress(b"not a pgm").unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    // The connection survived all of it.
    let stats = client.stats().expect("stats still works");
    assert!(stats.contains("\"error_replies\""), "{stats}");
}

#[test]
fn unknown_ops_oversized_frames_and_bad_magic_are_refused() {
    let server = test_server(1, 4);

    // Unknown op: replied with a typed error, connection stays usable.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = Frame { op: Op::Stats, request_id: 42, payload: vec![] }.encode();
    raw[5] = 0x6E; // not an op this build knows
    stream.write_all(&raw).unwrap();
    let frame = read_reply_frame(&mut stream);
    let (code, _) = frame.error_info().expect("typed error");
    assert_eq!(code, ErrorCode::UnknownOp);
    assert_eq!(frame.request_id, 42);

    // A declared payload beyond the limit: error frame, then the server
    // closes (the frame boundary is lost).
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut huge = Frame { op: Op::Compress, request_id: 7, payload: vec![] }.encode();
    huge[14..18].copy_from_slice(&u32::MAX.to_be_bytes());
    stream.write_all(&huge).unwrap();
    let frame = read_reply_frame(&mut stream);
    assert_eq!(frame.error_info().expect("typed").0, ErrorCode::FrameTooLarge);
    assert_eq!(frame.request_id, 7, "the reply echoes the oversized frame's request id");

    // Bad magic: error frame then close.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&[0u8; 32]).unwrap();
    let frame = read_reply_frame(&mut stream);
    assert_eq!(frame.error_info().expect("typed").0, ErrorCode::MalformedFrame);

    // Wrong protocol version: typed refusal.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut versioned = Frame { op: Op::Stats, request_id: 1, payload: vec![] }.encode();
    versioned[4] = PROTOCOL_VERSION + 9;
    stream.write_all(&versioned).unwrap();
    let frame = read_reply_frame(&mut stream);
    assert_eq!(frame.error_info().expect("typed").0, ErrorCode::UnsupportedVersion);
}

#[test]
fn a_full_queue_pushes_back_with_busy_instead_of_buffering() {
    // One worker, a queue of one, and a flood of pipelined requests: the
    // server must answer every frame — some Ok, some Busy — and the tallies
    // must account for every request. (Which requests go busy is timing
    // dependent; that *none* are silently dropped is not.)
    let server = test_server(1, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let image = synth::ct_phantom(64, 64, 12, 5);
    let mut payload = Vec::new();
    pgm::write_pgm(&image, &mut payload).unwrap();
    let total = 24usize;
    let requests: Vec<(Op, Vec<u8>)> =
        (0..total).map(|_| (Op::Compress, payload.clone())).collect();
    let results = client.pipeline(requests).expect("pipeline");
    assert_eq!(results.len(), total);
    let mut ok = 0u64;
    let mut busy = 0u64;
    for result in results {
        match result {
            Ok(_) => ok += 1,
            Err(e) if e.is_busy() => busy += 1,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(ok > 0, "at least some requests must complete");
    assert_eq!(ok + busy, total as u64);
    let stats = server.stats();
    assert_eq!(stats.completed_requests, ok);
    assert_eq!(stats.rejected_busy, busy);
}

#[test]
fn per_connection_cap_answers_busy_without_spending_the_global_budget() {
    // A generous global budget but a per-connection cap of 2: a pipelined
    // flood on one connection must see `busy` from the *connection* limit
    // (the global budget of 64 cannot be the cause for 24 requests), and
    // every request must still be answered.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 64,
        conn_inflight: 2,
        scales: 3,
        tile_size: 32,
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let image = synth::ct_phantom(64, 64, 12, 5);
    let mut payload = Vec::new();
    pgm::write_pgm(&image, &mut payload).unwrap();
    let total = 24usize;
    let requests: Vec<(Op, Vec<u8>)> =
        (0..total).map(|_| (Op::Compress, payload.clone())).collect();
    let results = client.pipeline(requests).expect("pipeline");
    let mut ok = 0u64;
    let mut busy = 0u64;
    for result in results {
        match result {
            Ok(_) => ok += 1,
            Err(ServerError::Remote { code: ErrorCode::Busy, message }) => {
                assert!(
                    message.contains("connection pipeline limit"),
                    "busy must name the per-connection cap, got: {message}"
                );
                busy += 1;
            }
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(ok >= 2, "at least the capped window completes");
    assert!(busy > 0, "a 24-deep pipeline must trip a cap of 2");
    assert_eq!(ok + busy, total as u64);
    let stats = server.stats();
    assert_eq!(stats.completed_requests, ok);
    assert_eq!(stats.rejected_busy, busy);
    // A second connection is not starved by the first one's rejections.
    let mut fresh = Client::connect(server.local_addr()).expect("connect");
    fresh.compress_image(&image).expect("fresh connection serves");
}

#[test]
fn response_cache_serves_repeats_byte_identically_and_counts_hits() {
    let image = synth::random_image(80, 60, 16, 11);
    let cached_config = ServerConfig {
        workers: 2,
        cache_entries: 32,
        scales: 3,
        tile_size: 32,
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cached_config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Identical compress payload twice: the second answer comes from the
    // cache and must be byte-identical to the first (which is itself the
    // deterministic engine output).
    let first = client.compress_image(&image).expect("compress (miss)");
    let second = client.compress_image(&image).expect("compress (hit)");
    assert_eq!(first, second);
    // Same for decompress of the produced stream.
    let once = client.decompress(&first).expect("decompress (miss)");
    let twice = client.decompress(&first).expect("decompress (hit)");
    assert_eq!(once.samples(), twice.samples());
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 2, "one compress hit, one decompress hit");
    assert_eq!(stats.cache_misses, 2, "one compress miss, one decompress miss");
    assert_eq!(stats.completed_requests, 4);

    // Cache disabled (the default): byte-identical responses to the cached
    // path — the cache is an exact shortcut, never a different answer.
    let server = test_server(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.compress_image(&image).expect("uncached compress"), first);
    let plain = client.decompress(&first).expect("uncached decompress");
    assert_eq!(plain.samples(), once.samples());
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0, "a disabled cache counts nothing");
}

#[test]
fn graceful_shutdown_disconnects_clients_and_joins_threads() {
    let mut server = test_server(2, 8);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let image = synth::mr_slice(40, 40, 12, 1);
    client.compress_image(&image).expect("request before shutdown");
    server.shutdown();
    // Post-shutdown the port no longer serves: either the connect fails or
    // anything sent on the old connection errors/disconnects.
    let outcome = client.compress_image(&image);
    assert!(outcome.is_err(), "server answered after shutdown");
    // Shutdown is idempotent (and runs again harmlessly on drop).
    server.shutdown();
}

#[test]
fn volume_ops_roundtrip_across_worker_counts_with_identical_bytes() {
    // compress-volume / decompress-volume over loopback: the stream bytes
    // must not depend on the worker count (brick fan-out included), and the
    // decoded voxels must match the input exactly.
    let stack = synth::ct_volume(48, 40, 12, 12, 31);
    let mut reference: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 4] {
        let server = test_server(workers, 8);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let stream = client.compress_volume(&stack).expect("compress-volume");
        match &reference {
            None => reference = Some(stream.clone()),
            Some(bytes) => {
                assert_eq!(&stream, bytes, "LWCV bytes changed with {workers} workers")
            }
        }
        let back = client.decompress_volume(&stream).expect("decompress-volume");
        assert_eq!(back.samples(), stack.samples(), "lossy at {workers} workers");
        assert_eq!((back.width(), back.height(), back.depth()), (48, 40, 12));
    }
}

#[test]
fn region_ops_serve_crops_of_both_2d_and_volume_streams() {
    let server = test_server(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // 2-D region: a rectangle straddling tile boundaries of an LWCT stream
    // (test_server uses 32-pixel tiles) comes back equal to the source crop.
    let image = synth::ct_phantom(80, 60, 12, 3);
    let stream = client.compress_image(&image).expect("compress");
    let region = client.decompress_region_image(&stream, 17, 9, 50, 40).expect("region");
    for y in 0..40 {
        for x in 0..50 {
            assert_eq!(region.get(x, y), image.get(17 + x, 9 + y), "pixel ({x}, {y})");
        }
    }

    // Volumetric region: a cuboid straddling brick boundaries of an LWCV
    // stream equals the source crop voxel for voxel.
    let stack = synth::ct_volume(48, 40, 12, 12, 8);
    let vstream = client.compress_volume(&stack).expect("compress-volume");
    let rect = BrickRect { plane: TileRect { x: 11, y: 7, width: 30, height: 25 }, z: 5, depth: 6 };
    let crop = client.decompress_region_volume(&vstream, rect).expect("volume region");
    for z in 0..rect.depth {
        let want = stack.slice(rect.z + z).expect("source slice");
        let got = crop.slice(z).expect("crop slice");
        for y in 0..rect.plane.height {
            for x in 0..rect.plane.width {
                assert_eq!(
                    got.get(x, y),
                    want.get(rect.plane.x + x, rect.plane.y + y),
                    "voxel ({x}, {y}, {z})"
                );
            }
        }
    }

    // Typed errors: an out-of-bounds cuboid, a multi-slice region of a 2-D
    // stream, and a volume stream sent to the 2-D decompress op.
    let bad_rect =
        BrickRect { plane: TileRect { x: 40, y: 0, width: 20, height: 10 }, z: 0, depth: 1 };
    let err = client.decompress_region_volume(&vstream, bad_rect).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    let deep = BrickRect { plane: TileRect { x: 0, y: 0, width: 8, height: 8 }, z: 0, depth: 2 };
    let err = client.decompress_region_volume(&stream, deep).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    let err = client.decompress(&vstream).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
}

#[test]
fn near_lossless_ops_respect_the_bound_and_reject_forged_quantizers() {
    let image = synth::ct_phantom(80, 60, 12, 21);

    // A δ=0 service is byte-identical to the default lossless one.
    let lossless = test_server(2, 8);
    let mut lossless_client = Client::connect(lossless.local_addr()).expect("connect");
    let lossless_stream = lossless_client.compress_image(&image).expect("compress");
    let zero_config = ServerConfig {
        workers: 2,
        queue_depth: 8,
        scales: 3,
        tile_size: 32,
        delta: 0,
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let zero = Server::bind("127.0.0.1:0", zero_config).expect("bind loopback");
    let mut zero_client = Client::connect(zero.local_addr()).expect("connect");
    assert_eq!(zero_client.compress_image(&image).expect("compress"), lossless_stream);

    // A δ=2 service produces the near-lossless engine's exact bytes, and any
    // server — near-lossless knob or not — decodes them within the bound,
    // because the quantizer rides in the stream headers.
    let config = ServerConfig {
        workers: 2,
        queue_depth: 8,
        scales: 3,
        tile_size: 32,
        // z_scales = 0 keeps the implied per-plane delta equal to the
        // container delta, so the plane/container mismatch forgery below is
        // actually a mismatch.
        z_scales: 0,
        delta: 2,
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let stream = client.compress_image(&image).expect("compress");
    assert_ne!(stream, lossless_stream, "δ=2 must quantize");
    let engine =
        TiledCompressor::with_codec(LosslessCodec::near_lossless(3, 2).unwrap(), 32, 32, 1)
            .unwrap();
    assert_eq!(stream, engine.compress(&image).unwrap());
    let back = lossless_client.decompress(&stream).expect("decompress on lossless server");
    assert!(stats::max_abs_diff(&image, &back).unwrap() <= 2);

    // Volumetric op under the same bound.
    let stack = synth::ct_volume(40, 32, 12, 10, 5);
    let vstream = client.compress_volume(&stack).expect("compress-volume");
    let vback = client.decompress_volume(&vstream).expect("decompress-volume");
    for (&a, &b) in stack.samples().iter().zip(vback.samples()) {
        assert!((a - b).abs() <= 2, "voxel error {} exceeds δ=2", (a - b).abs());
    }

    // Forged quantizer headers are typed refusals, not panics or wrong
    // pixels. LWCT v2 keeps its delta at byte 23: zeroing it forges a
    // near-lossless version claiming no quantizer...
    let mut forged = stream.clone();
    forged[23] = 0;
    let err = lossless_client.decompress(&forged).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    // ...and a different nonzero value contradicts the per-tile headers.
    let mut mismatched = stream.clone();
    mismatched[23] = 3;
    let err = lossless_client.decompress(&mismatched).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    // LWCV v2 keeps its delta at byte 32: same two forgeries.
    let mut forged = vstream.clone();
    forged[32] = 0;
    let err = client.decompress_volume(&forged).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
    let mut mismatched = vstream.clone();
    mismatched[32] = 7;
    let err = client.decompress_volume(&mismatched).unwrap_err();
    assert!(matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }), "{err}");
}

/// A `decompress-region` payload: the box as six `u32` BE words (x, y, z,
/// width, height, depth), then the stream.
fn region_payload(rect: BrickRect, stream: &[u8]) -> Vec<u8> {
    let words =
        [rect.plane.x, rect.plane.y, rect.z, rect.plane.width, rect.plane.height, rect.depth];
    let mut payload: Vec<u8> = words.iter().flat_map(|&w| (w as u32).to_be_bytes()).collect();
    payload.extend_from_slice(stream);
    payload
}

#[test]
fn inline_and_fanned_decodes_reply_with_identical_bytes() {
    // One worker runs every plan inline; two and four fan multi-part plans
    // out part by part. The reply bytes must not tell them apart, for every
    // format the decode ops read — regions of LWCT, LWCF, a legacy
    // single-tile LWC1 stream and LWCV included.
    let image = synth::ct_phantom(80, 60, 12, 17);
    let lwct = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
    let lwc1 = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
    let square = synth::mr_slice(64, 64, 12, 17);
    let bank = FilterBank::table1(FilterId::F2);
    let lwcf = TiledFixedCompressor::new(&bank, 3, 32, 1).unwrap().compress(&square).unwrap();
    let stack = synth::ct_volume(48, 40, 12, 12, 17);
    let lwcv = VolumeCompressor::new(3, 2, 32, 4, 1).unwrap().compress_stack(&stack).unwrap();
    let plane =
        |x, y, width, height| BrickRect { plane: TileRect { x, y, width, height }, z: 0, depth: 1 };
    let cuboid =
        BrickRect { plane: TileRect { x: 11, y: 7, width: 30, height: 25 }, z: 3, depth: 6 };
    let requests = [
        (Op::Decompress, lwct.clone()),
        (Op::Decompress, lwcf.clone()),
        (Op::Decompress, lwc1.clone()),
        (Op::DecompressVolume, lwcv.clone()),
        (Op::DecompressRegion, region_payload(plane(17, 9, 50, 40), &lwct)),
        (Op::DecompressRegion, region_payload(plane(20, 10, 40, 30), &lwcf)),
        (Op::DecompressRegion, region_payload(plane(17, 9, 50, 40), &lwc1)),
        (Op::DecompressRegion, region_payload(cuboid, &lwcv)),
    ];
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for workers in [1usize, 2, 4] {
        let server = test_server(workers, 16);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let replies: Vec<Vec<u8>> = requests
            .iter()
            .map(|(op, payload)| client.request(*op, payload.clone()).expect("decode"))
            .collect();
        match &reference {
            None => reference = Some(replies),
            Some(bytes) => assert!(&replies == bytes, "replies changed with {workers} workers"),
        }
    }
    // The shared replies are the right pixels too.
    let replies = reference.expect("three runs");
    let crop = |bytes: &[u8]| pgm::read_pgm(bytes).expect("PGM reply");
    assert_eq!(crop(&replies[5]), square.crop(plane(20, 10, 40, 30).plane).unwrap());
    assert_eq!(crop(&replies[6]), image.crop(plane(17, 9, 50, 40).plane).unwrap());
    assert_eq!(crop(&replies[4]), crop(&replies[6]));
    let volume = lwc_server::rawvol::read_raw_volume(&replies[7]).expect("raw volume reply");
    assert_eq!(volume.get(0, 0, 0), stack.get(11, 7, 3));
    assert_eq!(volume.get(29, 24, 5), stack.get(40, 31, 8));
}

#[test]
fn a_corrupt_tile_fails_the_fanned_decode_with_bad_payload_and_settles_the_budget() {
    // A valid LWCT header and directory around one corrupted tile payload:
    // the fanned decode parts all run, one fails, and the request gets one
    // typed refusal instead of a hang, a panic or a wrong image.
    let image = synth::ct_phantom(80, 60, 12, 23);
    let stream = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
    let tile = lwc_coder::TiledStream::parse(&stream).unwrap().tile_bytes(4).as_ptr() as usize
        - stream.as_ptr() as usize;
    let mut corrupt = stream.clone();
    corrupt[tile] ^= 0xFF; // the tile's stream magic
    let server = test_server(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let across_tile_4 =
        BrickRect { plane: TileRect { x: 20, y: 20, width: 40, height: 30 }, z: 0, depth: 1 };
    for (op, payload) in [
        (Op::Decompress, corrupt.clone()),
        (Op::DecompressRegion, region_payload(across_tile_4, &corrupt)),
    ] {
        let err = client.request(op, payload).unwrap_err();
        assert!(
            matches!(err, ServerError::Remote { code: ErrorCode::BadPayload, .. }),
            "{op:?}: {err}"
        );
        // The connection stays usable.
        assert_eq!(client.decompress(&stream).expect("valid stream after"), image);
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"in_flight\": 0,"), "{stats}");
    assert!(stats.contains("\"error_replies\": 2,"), "{stats}");
}
