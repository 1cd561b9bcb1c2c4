//! The event-driven compression server.
//!
//! One nonblocking I/O thread multiplexes every connection through a
//! readiness [`Poller`] (epoll on Linux, poll(2) elsewhere — see the
//! `polling` shim): per-connection state machines reassemble frames
//! incrementally and drain write buffers as sockets allow, so thousands of
//! idle connections cost no threads. Validated requests pass admission
//! control — a **global in-flight budget** plus a per-connection cap, both
//! answered with typed `busy` — and enter a work-stealing scheduler
//! ([`WorkStealing`]): one deque per codec worker, owner LIFO at the bottom,
//! idle workers stealing FIFO from the top. A multi-tile request splits
//! itself into per-tile tasks on its worker's own deque, so one large image
//! fans across every idle worker while the assembled bytes stay identical
//! to the sequential engine's. Completed responses ride a completion queue
//! back to the I/O thread, which wakes via [`Poller::notify`]. An optional
//! content-hash LRU cache answers repeated compress/decompress payloads
//! without touching the engine at all.

use crate::cache::ResponseCache;
use crate::conn::{ConnPhase, Connection, ReadResult};
use crate::error::ServerError;
use crate::frame::{into_frame, FrameEvent};
use crate::protocol::{
    ErrorCode, Frame, FrameHeader, Op, DEFAULT_MAX_PAYLOAD_BYTES, FRAME_HEADER_BYTES,
};
use crate::rawvol::{raw_volume_len, read_raw_volume, write_raw_volume};
use crate::sched::WorkStealing;
use crate::stats::{Metrics, SchedSnapshot, ServerStats};
use lwc_coder::bitio::BitReader;
use lwc_coder::fixedtiled::is_fixed;
use lwc_coder::tiled::is_tiled;
use lwc_coder::{
    is_volume, FixedHeader, FixedStream, LosslessCodec, StreamHeader, TiledHeader, TiledStream,
    VolumeHeader, VolumeStream,
};
use lwc_image::pgm;
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, TileGrid, TileRect};
use lwc_pipeline::{
    scatter_region, Codec, TiledCompressor, TiledFixedCompressor, VolumeCompressor,
    DEFAULT_BRICK_DEPTH, DEFAULT_TILE_SIZE,
};
use polling::{Event, Poller, NOTIFY_KEY};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Codec worker threads; `0` selects the machine's available parallelism.
    pub workers: usize,
    /// Global in-flight request budget: requests admitted and not yet
    /// answered, across all connections. `0` selects `4 x workers` (a few
    /// requests of lookahead per worker, like the paper's FIFOs hold a few
    /// rows per pipeline stage). The field keeps its historical name from
    /// the bounded-queue era so callers survive the switch.
    pub queue_depth: usize,
    /// Per-connection cap on admitted-but-unanswered requests; `0` selects
    /// 64 (twice the client library's pipeline window), so one connection
    /// cannot monopolize the global budget.
    pub conn_inflight: usize,
    /// Hot-response cache capacity in entries; `0` disables the cache.
    pub cache_entries: usize,
    /// Hot-response cache budget in bytes (request + response per entry);
    /// `0` selects 256 MiB when the cache is enabled.
    pub cache_bytes: usize,
    /// Decomposition depth used for `compress` requests.
    pub scales: u32,
    /// Square tile size used for `compress` requests (images larger than one
    /// tile produce `LWCT` containers).
    pub tile_size: usize,
    /// z-axis decomposition depth used for `compress-volume` requests
    /// (`0` codes every slice independently).
    pub z_scales: u32,
    /// Near-lossless per-pixel error bound δ applied to `compress` and
    /// `compress-volume` requests; `0` (the default) keeps the service
    /// lossless and byte-identical to earlier releases. Decompression always
    /// honors the quantizer recorded in the incoming stream, whatever this
    /// is set to.
    pub delta: u8,
    /// Brick depth in slices used for `compress-volume` requests.
    pub brick_depth: usize,
    /// Per-frame payload ceiling, validated before allocation.
    pub max_payload_bytes: usize,
    /// Event-loop tick and mid-frame patience quantum: a peer that stalls
    /// mid-frame is dropped after 100 of these.
    pub read_timeout: Duration,
    /// How long a response may sit unflushed against a stalled peer before
    /// the connection is dropped.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 0,
            conn_inflight: 0,
            cache_entries: 0,
            cache_bytes: 0,
            scales: 4,
            tile_size: DEFAULT_TILE_SIZE,
            z_scales: 2,
            delta: 0,
            brick_depth: DEFAULT_BRICK_DEPTH,
            max_payload_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// How many event-loop ticks (of `read_timeout` each) a peer gets *inside*
/// a started frame before the connection is dropped (the slow-loris budget:
/// 100 ticks x 100 ms = 10 s to finish a started frame).
const MID_FRAME_PATIENCE_POLLS: u32 = 100;

/// Poller key of the listening socket; connections use keys from 1 up.
const LISTENER_KEY: usize = 0;

/// A request admitted into the scheduler.
struct Job {
    op: Op,
    request_id: u64,
    token: usize,
    payload: Vec<u8>,
}

/// A multi-tile `compress` fanned across workers: each tile task encodes
/// one payload; the last to finish assembles the container.
struct CompressFan {
    token: usize,
    request_id: u64,
    /// Original PGM request payload (the cache key on insert).
    payload: Vec<u8>,
    image: Image,
    grid: TileGrid,
    parts: Mutex<Vec<Option<Vec<u8>>>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<(ErrorCode, String)>>,
}

/// A multi-tile `decompress` fanned across workers: each tile task decodes
/// one tile image; the last to finish scatters them into the frame.
struct DecodeFan {
    token: usize,
    request_id: u64,
    /// The compressed container (re-parsed per tile; the directory makes
    /// that a slice lookup, not a scan).
    payload: Vec<u8>,
    /// `true` for `LWCF`, `false` for `LWCT`.
    fixed: bool,
    width: usize,
    height: usize,
    bit_depth: u32,
    grid: TileGrid,
    parts: Mutex<Vec<Option<Image>>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<(ErrorCode, String)>>,
}

/// A multi-brick `compress-volume` fanned across workers: each brick task
/// encodes one payload; the last to finish assembles the `LWCV` container.
struct VolumeFan {
    token: usize,
    request_id: u64,
    stack: ImageStack,
    grid: BrickGrid,
    parts: Mutex<Vec<Option<Vec<u8>>>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<(ErrorCode, String)>>,
}

/// A fanned volumetric decode: each brick task decodes one brick's raw
/// samples; the last to finish scatters them into the requested box. Serves
/// both `decompress-volume` (the box is the whole volume) and
/// `decompress-region` over `LWCV` streams.
struct VolumeDecodeFan {
    token: usize,
    request_id: u64,
    /// [`Op::OkDecompressVolume`] or [`Op::OkDecompressRegion`].
    respond_op: Op,
    /// The `LWCV` container (request prefix stripped; re-parsed per brick —
    /// the directory makes that a slice lookup, not a scan).
    stream: Vec<u8>,
    engine: VolumeCompressor,
    header: VolumeHeader,
    grid: BrickGrid,
    /// The requested box, in volume coordinates.
    rect: BrickRect,
    /// Plane-major brick indices covering the box; slot `i` of `parts`
    /// holds brick `indices[i]`.
    indices: Vec<usize>,
    parts: Mutex<Vec<Option<Vec<i32>>>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<(ErrorCode, String)>>,
}

/// A fanned 2-D `decompress-region`: each task decodes one covering tile of
/// an `LWCT`/`LWCF` directory; the last to finish crops the region out.
struct RegionFan {
    token: usize,
    request_id: u64,
    /// The container (request prefix stripped).
    stream: Vec<u8>,
    /// `true` for `LWCF`, `false` for `LWCT`.
    fixed: bool,
    rect: TileRect,
    bit_depth: u32,
    grid: TileGrid,
    /// Row-major tile indices covering the rectangle.
    indices: Vec<usize>,
    parts: Mutex<Vec<Option<Image>>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<(ErrorCode, String)>>,
}

/// What worker deques carry: whole requests, or per-tile slices of one.
enum Task {
    Request(Job),
    CompressTile { fan: Arc<CompressFan>, index: usize },
    DecodeTile { fan: Arc<DecodeFan>, index: usize },
    VolumeBrick { fan: Arc<VolumeFan>, index: usize },
    VolumeDecodeBrick { fan: Arc<VolumeDecodeFan>, slot: usize },
    RegionTile { fan: Arc<RegionFan>, slot: usize },
}

/// A finished response traveling from a worker back to the I/O thread.
struct Completion {
    token: usize,
    frame: Frame,
}

struct Shared {
    config: ServerConfig,
    engine: TiledCompressor,
    volume_engine: VolumeCompressor,
    sched: WorkStealing<Task>,
    metrics: Metrics,
    cache: Option<Mutex<ResponseCache>>,
    completions: Mutex<VecDeque<Completion>>,
    poller: Poller,
    shutdown: AtomicBool,
    loop_exit: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats::snapshot(
            &self.metrics,
            self.config.workers,
            self.config.queue_depth,
            SchedSnapshot {
                queue_len: self.sched.queued(),
                steals: self.sched.steals(),
                active_workers: self.sched.active_workers(),
            },
        )
    }
}

/// A running compression service bound to a TCP address.
///
/// Dropping the server shuts it down gracefully: admission stops, in-flight
/// requests drain through the workers, responses flush, threads join.
///
/// ```
/// use lwc_image::synth;
/// use lwc_server::{Client, Server, ServerConfig};
///
/// # fn main() -> Result<(), lwc_server::ServerError> {
/// let config = ServerConfig { workers: 2, scales: 3, tile_size: 64, ..ServerConfig::default() };
/// let server = Server::bind("127.0.0.1:0", config)?;
/// let mut client = Client::connect(server.local_addr())?;
/// let image = synth::ct_phantom(96, 80, 12, 1);
/// let stream = client.compress_image(&image)?;
/// let back = client.decompress(&stream)?;
/// assert_eq!(image.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    io: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the event loop and the worker pool.
    ///
    /// Bind to port 0 for an OS-assigned loopback port
    /// ([`Server::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound, the platform has no
    /// readiness backend, or the configuration is invalid (zero scales,
    /// out-of-range tile size).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Self, ServerError> {
        let mut config = config;
        if config.workers == 0 {
            config.workers = thread::available_parallelism().map(usize::from).unwrap_or(1);
        }
        if config.queue_depth == 0 {
            config.queue_depth = 4 * config.workers;
        }
        if config.conn_inflight == 0 {
            config.conn_inflight = 64;
        }
        if config.cache_entries > 0 && config.cache_bytes == 0 {
            config.cache_bytes = 256 << 20;
        }
        if config.max_payload_bytes < FRAME_HEADER_BYTES {
            return Err(ServerError::Config(format!(
                "max payload of {} bytes cannot carry any request",
                config.max_payload_bytes
            )));
        }
        // The shared engine runs single-threaded per tile: the pool's
        // parallelism lives across tasks, not inside one.
        let codec =
            LosslessCodec::near_lossless(config.scales, config.delta).map_err(ServerError::from)?;
        let engine = TiledCompressor::with_codec(codec, config.tile_size, config.tile_size, 1)?;
        let volume_engine = VolumeCompressor::with_codec(
            codec,
            config.z_scales,
            config.tile_size,
            config.tile_size,
            config.brick_depth,
            1,
        )?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(&listener, LISTENER_KEY, true, false)?;
        let shared = Arc::new(Shared {
            config,
            engine,
            volume_engine,
            sched: WorkStealing::new(config.workers),
            metrics: Metrics::default(),
            cache: (config.cache_entries > 0)
                .then(|| Mutex::new(ResponseCache::new(config.cache_entries, config.cache_bytes))),
            completions: Mutex::new(VecDeque::new()),
            poller,
            shutdown: AtomicBool::new(false),
            loop_exit: AtomicBool::new(false),
        });

        let workers = (0..config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    shared.sched.run(worker, |w, task| run_task(&shared, w, task));
                })
            })
            .collect();
        let io = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || event_loop(&shared, listener))
        };
        Ok(Self { shared, addr, io: Some(io), workers })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resolved configuration (workers, budgets and cache filled in).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// A snapshot of the server's counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Gracefully shuts the server down: stop admitting, drain in-flight
    /// requests through the workers, flush their responses, close
    /// connections, join every thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared.sched.close();
        }
        let _ = self.shared.poller.notify();
        // Workers first: once they are done, every completion is queued and
        // the still-running event loop has delivered or is delivering it.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.shared.loop_exit.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The I/O thread: accepts, reads, admits, flushes, delivers completions.
fn event_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: HashMap<usize, Connection> = HashMap::new();
    let mut next_token: usize = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut accepting = true;
    let mut exit_deadline: Option<Instant> = None;

    loop {
        let _ = shared.poller.wait(&mut events, Some(shared.config.read_timeout));
        if accepting && shared.shutdown.load(Ordering::SeqCst) {
            // Stop taking new connections; existing ones get ShuttingDown
            // replies from admission until the drain finishes.
            let _ = shared.poller.delete(&listener);
            accepting = false;
        }
        let mut dead: Vec<usize> = Vec::new();
        for &event in &events {
            match event.key {
                NOTIFY_KEY => {} // completions are drained below either way
                LISTENER_KEY => {
                    if accepting {
                        accept_ready(shared, &listener, &mut conns, &mut next_token);
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else { continue };
                    if event.readable && conn.read_ready(&mut scratch) == ReadResult::Dead {
                        dead.push(token);
                        continue;
                    }
                    if pump_frames(shared, conn, token) {
                        dead.push(token);
                    }
                }
            }
        }
        deliver_completions(shared, &mut conns);
        flush_and_sweep(shared, &mut conns, &mut dead);
        for token in dead {
            close_conn(shared, &mut conns, token);
        }
        if shared.loop_exit.load(Ordering::SeqCst) {
            // Workers have joined: no further completions can appear. Keep
            // ticking until pending responses flush, with a bounded grace.
            let deadline =
                *exit_deadline.get_or_insert_with(|| Instant::now() + shared.config.write_timeout);
            let outstanding = !shared.completions.lock().expect("poisoned").is_empty()
                || conns.values().any(|c| c.pending_write() > 0);
            if !outstanding || Instant::now() >= deadline {
                break;
            }
        }
    }
    for (_, conn) in conns.drain() {
        let _ = shared.poller.delete(&conn.stream);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    if accepting {
        let _ = shared.poller.delete(&listener);
    }
}

/// Accepts until the listener would block.
fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut HashMap<usize, Connection>,
    next_token: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    continue; // dropped: the listener is about to deregister
                }
                let Ok(conn) = Connection::new(stream, shared.config.max_payload_bytes) else {
                    continue;
                };
                let token = loop {
                    let candidate = *next_token;
                    *next_token = next_token.wrapping_add(1);
                    if candidate != LISTENER_KEY
                        && candidate != NOTIFY_KEY
                        && !conns.contains_key(&candidate)
                    {
                        break candidate;
                    }
                };
                if shared.poller.add(&conn.stream, token, true, false).is_ok() {
                    Metrics::bump(&shared.metrics.accepted_connections);
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            // WouldBlock, or transient failure (EMFILE): the next readiness
            // event retries either way.
            Err(_) => break,
        }
    }
}

/// Drains every complete frame the accumulator holds. Returns `true` if the
/// connection must be closed outright (never: violations drain instead).
fn pump_frames(shared: &Arc<Shared>, conn: &mut Connection, token: usize) -> bool {
    if matches!(conn.phase, ConnPhase::Draining { .. }) {
        return false;
    }
    loop {
        match conn.acc.next_event() {
            Ok(None) => return false,
            Ok(Some(FrameEvent::Frame(header, payload))) => {
                handle_frame(shared, conn, token, header, payload);
            }
            Ok(Some(FrameEvent::Oversized(header))) => {
                // The header parsed — the request id is known and the reply
                // addressable — but the payload was never read, so the frame
                // boundary is lost: reply, FIN after flush, drain, close.
                queue_error(
                    shared,
                    conn,
                    header.request_id,
                    ErrorCode::FrameTooLarge,
                    &format!(
                        "declared payload of {} bytes exceeds the {}-byte limit",
                        header.payload_len, shared.config.max_payload_bytes
                    ),
                );
                enter_drain(conn);
                return false;
            }
            Err(e) => {
                // Broken framing before a request id could be read (bad
                // magic or version): reply once with id 0, then drain —
                // a byte stream with a lost frame boundary cannot resync.
                let (code, message) = match e {
                    ServerError::Protocol { code, message } => (code, message),
                    other => (ErrorCode::MalformedFrame, other.to_string()),
                };
                queue_error(shared, conn, 0, code, &message);
                enter_drain(conn);
                return false;
            }
        }
    }
}

/// Switches a connection into the violation-drain phase.
fn enter_drain(conn: &mut Connection) {
    conn.phase = ConnPhase::Draining { fin_sent: false, drained: 0 };
    conn.last_read = Instant::now();
}

/// Queues an error reply and counts it.
fn queue_error(
    shared: &Arc<Shared>,
    conn: &mut Connection,
    request_id: u64,
    code: ErrorCode,
    message: &str,
) {
    Metrics::bump(&shared.metrics.error_replies);
    conn.queue_frame(&Frame::error(request_id, code, message));
}

/// One complete frame off the wire: validate the op, then admit.
fn handle_frame(
    shared: &Arc<Shared>,
    conn: &mut Connection,
    token: usize,
    header: FrameHeader,
    payload: Vec<u8>,
) {
    Metrics::bump(&shared.metrics.received_requests);
    Metrics::add(&shared.metrics.bytes_in, (FRAME_HEADER_BYTES + payload.len()) as u64);
    match into_frame(header, payload) {
        Ok(frame) if frame.op.is_request() => admit(shared, conn, token, frame),
        Ok(frame) => {
            // A known op, but not a request (a response op on the request
            // path). The frame boundary is intact: the connection stays
            // usable.
            queue_error(
                shared,
                conn,
                frame.request_id,
                ErrorCode::UnknownOp,
                &format!("op {:?} is not a request", frame.op),
            );
        }
        Err(e) => {
            // Unknown op byte: the payload was fully consumed, so this is
            // also recoverable.
            let (code, message) = match e {
                ServerError::Protocol { code, message } => (code, message),
                other => (ErrorCode::MalformedFrame, other.to_string()),
            };
            queue_error(shared, conn, header.request_id, code, &message);
        }
    }
}

/// Admission control: stats inline, then cache, then the global budget and
/// the per-connection cap, then the scheduler.
fn admit(shared: &Arc<Shared>, conn: &mut Connection, token: usize, frame: Frame) {
    if frame.op == Op::Stats {
        // Served inline on the I/O thread: stats must answer even (indeed,
        // especially) when every worker is saturated. Snapshot first so the
        // reply does not count itself.
        let stats = shared.stats();
        Metrics::bump(&shared.metrics.completed_requests);
        conn.queue_frame(&Frame {
            op: Op::OkStats,
            request_id: frame.request_id,
            payload: stats.to_json().into_bytes(),
        });
        return;
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::ShuttingDown,
            "server is shutting down",
        );
        return;
    }
    let cacheable = matches!(frame.op, Op::Compress | Op::Decompress);
    if cacheable {
        if let Some(cache) = &shared.cache {
            if let Some(response) = cache.lock().expect("poisoned").get(frame.op, &frame.payload) {
                Metrics::bump(&shared.metrics.cache_hits);
                Metrics::bump(&shared.metrics.completed_requests);
                conn.queue_frame(&Frame {
                    op: frame.op.response(),
                    request_id: frame.request_id,
                    payload: response,
                });
                return;
            }
        }
    }
    // Only the I/O thread increments in_flight, so check-then-bump cannot
    // race past the budget.
    if shared.metrics.in_flight.load(Ordering::Relaxed) >= shared.config.queue_depth as u64 {
        Metrics::bump(&shared.metrics.rejected_busy);
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::Busy,
            &format!("in-flight budget exhausted ({} requests); retry", shared.config.queue_depth),
        );
        return;
    }
    if conn.in_flight >= shared.config.conn_inflight {
        Metrics::bump(&shared.metrics.rejected_busy);
        queue_error(
            shared,
            conn,
            frame.request_id,
            ErrorCode::Busy,
            &format!(
                "connection pipeline limit reached ({} in flight); retry",
                shared.config.conn_inflight
            ),
        );
        return;
    }
    if cacheable && shared.cache.is_some() {
        Metrics::bump(&shared.metrics.cache_misses);
    }
    Metrics::bump(&shared.metrics.in_flight);
    conn.in_flight += 1;
    let request_id = frame.request_id;
    let job = Job { op: frame.op, request_id, token, payload: frame.payload };
    if shared.sched.inject(Task::Request(job)).is_err() {
        Metrics::settle(&shared.metrics.in_flight);
        conn.in_flight -= 1;
        queue_error(shared, conn, request_id, ErrorCode::ShuttingDown, "server is shutting down");
    }
}

/// Routes queued completions to their connections, settling in-flight
/// accounting (a vanished connection still settles the global budget).
fn deliver_completions(shared: &Arc<Shared>, conns: &mut HashMap<usize, Connection>) {
    loop {
        let completion = shared.completions.lock().expect("poisoned").pop_front();
        let Some(Completion { token, frame }) = completion else { return };
        Metrics::settle(&shared.metrics.in_flight);
        if let Some(conn) = conns.get_mut(&token) {
            conn.in_flight -= 1;
            conn.queue_frame(&frame);
        }
    }
}

/// Flushes pending writes, updates poller interest, applies timeouts, sends
/// the draining FIN, and collects finished/stalled connections.
fn flush_and_sweep(
    shared: &Arc<Shared>,
    conns: &mut HashMap<usize, Connection>,
    dead: &mut Vec<usize>,
) {
    let now = Instant::now();
    let patience = shared.config.read_timeout * MID_FRAME_PATIENCE_POLLS;
    for (&token, conn) in conns.iter_mut() {
        if dead.contains(&token) {
            continue;
        }
        if conn.pending_write() > 0 {
            match conn.flush() {
                Ok(written) => Metrics::add(&shared.metrics.bytes_out, written as u64),
                Err(_) => {
                    dead.push(token);
                    continue;
                }
            }
        }
        let reply_flushed = conn.pending_write() == 0;
        if let ConnPhase::Draining { fin_sent, .. } = &mut conn.phase {
            if !*fin_sent && reply_flushed {
                // Reply flushed: signal our end with FIN, then keep draining
                // so the close cannot become a reply-destroying reset.
                let _ = conn.stream.shutdown(Shutdown::Write);
                *fin_sent = true;
            }
        }
        let stalled = match conn.phase {
            ConnPhase::Open | ConnPhase::PeerClosed => {
                (conn.acc.mid_frame() && now.duration_since(conn.last_read) > patience)
                    || (conn.pending_write() > 0
                        && now.duration_since(conn.last_write) > shared.config.write_timeout)
            }
            ConnPhase::Draining { .. } => {
                now.duration_since(conn.last_read) > shared.config.write_timeout
            }
        };
        if stalled || conn.finished() {
            dead.push(token);
            continue;
        }
        let want_read = conn.phase != ConnPhase::PeerClosed;
        let want_write = conn.pending_write() > 0;
        if (want_read != conn.want_read || want_write != conn.want_write)
            && shared.poller.modify(&conn.stream, token, want_read, want_write).is_ok()
        {
            conn.want_read = want_read;
            conn.want_write = want_write;
        }
    }
}

/// Deregisters and drops a connection. Its outstanding jobs still settle
/// the global in-flight budget when their completions arrive.
fn close_conn(shared: &Arc<Shared>, conns: &mut HashMap<usize, Connection>, token: usize) {
    if let Some(conn) = conns.remove(&token) {
        let _ = shared.poller.delete(&conn.stream);
    }
}

/// Executes one scheduled task on a worker thread.
fn run_task(shared: &Arc<Shared>, worker: usize, task: Task) {
    match task {
        Task::Request(job) => run_request(shared, worker, job),
        Task::CompressTile { fan, index } => run_compress_tile(shared, &fan, index),
        Task::DecodeTile { fan, index } => run_decode_tile(shared, &fan, index),
        Task::VolumeBrick { fan, index } => run_volume_brick(shared, &fan, index),
        Task::VolumeDecodeBrick { fan, slot } => run_volume_decode_brick(shared, &fan, slot),
        Task::RegionTile { fan, slot } => run_region_tile(shared, &fan, slot),
    }
}

/// Runs a whole request: multi-tile work splits itself into per-tile tasks
/// on this worker's own deque (idle workers steal them); everything else
/// executes directly.
fn run_request(shared: &Arc<Shared>, worker: usize, job: Job) {
    let job = match try_fan_out(shared, worker, job) {
        Ok(()) => return, // tiles queued; the last to finish responds
        Err(job) => job,
    };
    let outcome = execute(shared, job.op, &job.payload)
        .and_then(|payload| ensure_frame_fits(shared, payload));
    match outcome {
        Ok(response) => {
            cache_insert(shared, job.op, &job.payload, &response);
            respond_ok(shared, job.token, job.op.response(), job.request_id, response);
        }
        Err((code, message)) => respond_error(shared, job.token, job.request_id, code, &message),
    }
}

/// Splits a multi-tile compress/decompress into per-tile tasks. `Err(job)`
/// hands the request back for the direct path (single tile, single worker,
/// or any condition the direct path will classify with its typed error).
fn try_fan_out(shared: &Arc<Shared>, worker: usize, job: Job) -> Result<(), Job> {
    if shared.sched.workers() < 2 {
        return Err(job);
    }
    match job.op {
        Op::Compress => {
            let Ok(image) = pgm::read_pgm(job.payload.as_slice()) else { return Err(job) };
            let Ok(grid) = shared.engine.grid(image.width(), image.height()) else {
                return Err(job);
            };
            if grid.tile_count() < 2 {
                return Err(job);
            }
            let tiles = grid.tile_count();
            let fan = Arc::new(CompressFan {
                token: job.token,
                request_id: job.request_id,
                payload: job.payload,
                image,
                grid,
                parts: Mutex::new(vec![None; tiles]),
                remaining: AtomicUsize::new(tiles),
                failed: Mutex::new(None),
            });
            for index in 0..tiles {
                shared
                    .sched
                    .push_local(worker, Task::CompressTile { fan: Arc::clone(&fan), index });
            }
            Ok(())
        }
        Op::Decompress => {
            // Probe the container shape; any parse problem falls back to the
            // direct path for its typed error.
            let probe = if is_tiled(&job.payload) {
                TiledStream::parse(&job.payload).ok().and_then(|s| {
                    let h = *s.header();
                    s.grid().ok().map(|g| (false, h.width, h.height, h.bit_depth, g))
                })
            } else if is_fixed(&job.payload) {
                FixedStream::parse(&job.payload).ok().and_then(|s| {
                    let h = *s.header();
                    s.grid().ok().map(|g| (true, h.width, h.height, h.bit_depth, g))
                })
            } else {
                None
            };
            let Some((fixed, width, height, bit_depth, grid)) = probe else { return Err(job) };
            if grid.tile_count() < 2
                || ensure_response_fits(shared, width, height, bit_depth).is_err()
            {
                return Err(job);
            }
            let tiles = grid.tile_count();
            let fan = Arc::new(DecodeFan {
                token: job.token,
                request_id: job.request_id,
                payload: job.payload,
                fixed,
                width,
                height,
                bit_depth,
                grid,
                parts: Mutex::new(vec![None; tiles]),
                remaining: AtomicUsize::new(tiles),
                failed: Mutex::new(None),
            });
            for index in 0..tiles {
                shared.sched.push_local(worker, Task::DecodeTile { fan: Arc::clone(&fan), index });
            }
            Ok(())
        }
        Op::CompressVolume => {
            let Ok(stack) = read_raw_volume(&job.payload) else { return Err(job) };
            let Ok(grid) = shared.volume_engine.grid(stack.width(), stack.height(), stack.depth())
            else {
                return Err(job);
            };
            if grid.brick_count() < 2 {
                return Err(job);
            }
            let bricks = grid.brick_count();
            let fan = Arc::new(VolumeFan {
                token: job.token,
                request_id: job.request_id,
                stack,
                grid,
                parts: Mutex::new(vec![None; bricks]),
                remaining: AtomicUsize::new(bricks),
                failed: Mutex::new(None),
            });
            for index in 0..bricks {
                shared.sched.push_local(worker, Task::VolumeBrick { fan: Arc::clone(&fan), index });
            }
            Ok(())
        }
        Op::DecompressVolume => {
            let Some((engine, header, grid)) = probe_volume(&job.payload) else { return Err(job) };
            let whole = BrickRect {
                plane: TileRect { x: 0, y: 0, width: header.width, height: header.height },
                z: 0,
                depth: header.depth,
            };
            let Some(indices) = grid.covering_indices(whole) else { return Err(job) };
            if indices.len() < 2
                || ensure_volume_response_fits(
                    shared,
                    header.width,
                    header.height,
                    header.depth,
                    header.bit_depth,
                )
                .is_err()
            {
                return Err(job);
            }
            fan_volume_decode(
                shared,
                worker,
                &job,
                Op::OkDecompressVolume,
                job.payload.clone(),
                engine,
                header,
                grid,
                whole,
                indices,
            );
            Ok(())
        }
        Op::DecompressRegion => {
            let Ok((rect, stream_bytes)) = split_region_request(&job.payload) else {
                return Err(job);
            };
            if is_volume(stream_bytes) {
                let Some((engine, header, grid)) = probe_volume(stream_bytes) else {
                    return Err(job);
                };
                let Some(indices) = grid.covering_indices(rect) else { return Err(job) };
                if indices.len() < 2
                    || ensure_volume_response_fits(
                        shared,
                        rect.plane.width,
                        rect.plane.height,
                        rect.depth,
                        header.bit_depth,
                    )
                    .is_err()
                {
                    return Err(job);
                }
                fan_volume_decode(
                    shared,
                    worker,
                    &job,
                    Op::OkDecompressRegion,
                    stream_bytes.to_vec(),
                    engine,
                    header,
                    grid,
                    rect,
                    indices,
                );
                return Ok(());
            }
            // 2-D containers: the region must be a single slice.
            if rect.z != 0 || rect.depth != 1 {
                return Err(job);
            }
            let probe = if is_tiled(stream_bytes) {
                TiledStream::parse(stream_bytes).ok().and_then(|s| {
                    let h = *s.header();
                    s.grid().ok().map(|g| (false, h.bit_depth, g))
                })
            } else if is_fixed(stream_bytes) {
                FixedStream::parse(stream_bytes).ok().and_then(|s| {
                    let h = *s.header();
                    s.grid().ok().map(|g| (true, h.bit_depth, g))
                })
            } else {
                None
            };
            let Some((fixed, bit_depth, grid)) = probe else { return Err(job) };
            let Some(indices) = grid.covering_indices(rect.plane) else { return Err(job) };
            if indices.len() < 2
                || ensure_response_fits(shared, rect.plane.width, rect.plane.height, bit_depth)
                    .is_err()
            {
                return Err(job);
            }
            let slots = indices.len();
            let fan = Arc::new(RegionFan {
                token: job.token,
                request_id: job.request_id,
                stream: stream_bytes.to_vec(),
                fixed,
                rect: rect.plane,
                bit_depth,
                grid,
                indices,
                parts: Mutex::new(vec![None; slots]),
                remaining: AtomicUsize::new(slots),
                failed: Mutex::new(None),
            });
            for slot in 0..slots {
                shared.sched.push_local(worker, Task::RegionTile { fan: Arc::clone(&fan), slot });
            }
            Ok(())
        }
        _ => Err(job),
    }
}

/// Parses an `LWCV` payload into the header-matched single-threaded engine
/// and the grid; `None` hands the request to the direct path for its typed
/// error.
fn probe_volume(bytes: &[u8]) -> Option<(VolumeCompressor, VolumeHeader, BrickGrid)> {
    if !is_volume(bytes) {
        return None;
    }
    let stream = VolumeStream::parse(bytes).ok()?;
    let header = *stream.header();
    let grid = stream.grid().ok()?;
    let engine = volume_engine_for(&header).ok()?;
    Some((engine, header, grid))
}

/// Queues the per-brick decode tasks of a volumetric fan.
#[allow(clippy::too_many_arguments)]
fn fan_volume_decode(
    shared: &Arc<Shared>,
    worker: usize,
    job: &Job,
    respond_op: Op,
    stream: Vec<u8>,
    engine: VolumeCompressor,
    header: VolumeHeader,
    grid: BrickGrid,
    rect: BrickRect,
    indices: Vec<usize>,
) {
    let slots = indices.len();
    let fan = Arc::new(VolumeDecodeFan {
        token: job.token,
        request_id: job.request_id,
        respond_op,
        stream,
        engine,
        header,
        grid,
        rect,
        indices,
        parts: Mutex::new(vec![None; slots]),
        remaining: AtomicUsize::new(slots),
        failed: Mutex::new(None),
    });
    for slot in 0..slots {
        shared.sched.push_local(worker, Task::VolumeDecodeBrick { fan: Arc::clone(&fan), slot });
    }
}

/// Encodes one tile of a fanned-out compress; the last finisher assembles.
fn run_compress_tile(shared: &Arc<Shared>, fan: &Arc<CompressFan>, index: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        match shared.engine.encode_tile(&fan.image, &fan.grid, index) {
            Ok(bytes) => fan.parts.lock().expect("poisoned")[index] = Some(bytes),
            Err(e) => {
                let mut failed = fan.failed.lock().expect("poisoned");
                if failed.is_none() {
                    *failed = Some((ErrorCode::Internal, format!("compression failed: {e}")));
                }
            }
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_compress(shared, fan);
    }
}

/// Assembles the `LWCT` container from the fanned tile payloads —
/// byte-identical to the sequential engine, which is built on the same
/// per-tile encode and container writer.
fn finish_compress(shared: &Arc<Shared>, fan: &Arc<CompressFan>) {
    if let Some((code, message)) = fan.failed.lock().expect("poisoned").take() {
        respond_error(shared, fan.token, fan.request_id, code, &message);
        return;
    }
    let parts = std::mem::take(&mut *fan.parts.lock().expect("poisoned"));
    let payloads: Vec<Vec<u8>> =
        parts.into_iter().map(|p| p.expect("every tile encoded")).collect();
    let outcome = shared
        .engine
        .assemble_container(&fan.grid, fan.image.bit_depth(), &payloads)
        .map_err(|e| (ErrorCode::Internal, format!("compression failed: {e}")))
        .and_then(|bytes| ensure_frame_fits(shared, bytes));
    match outcome {
        Ok(response) => {
            cache_insert(shared, Op::Compress, &fan.payload, &response);
            respond_ok(shared, fan.token, Op::OkCompress, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Decodes one tile of a fanned-out decompress; the last finisher scatters.
fn run_decode_tile(shared: &Arc<Shared>, fan: &Arc<DecodeFan>, index: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        let bad =
            |e: ServerError| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
        let result = if fan.fixed {
            FixedStream::parse(&fan.payload).map_err(|e| bad(e.into())).and_then(|stream| {
                let engine = fixed_engine(stream.header()).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index).map_err(|e| bad(e.into()))
            })
        } else {
            TiledStream::parse(&fan.payload).map_err(|e| bad(e.into())).and_then(|stream| {
                let engine = tiled_engine(stream.header()).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index).map_err(|e| bad(e.into()))
            })
        };
        match result {
            Ok(tile) => fan.parts.lock().expect("poisoned")[index] = Some(tile),
            Err(em) => {
                let mut failed = fan.failed.lock().expect("poisoned");
                if failed.is_none() {
                    *failed = Some(em);
                }
            }
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_decode(shared, fan);
    }
}

/// Scatters the fanned tile images into the output frame and serializes the
/// PGM response — the same scatter the sequential decompress performs.
fn finish_decode(shared: &Arc<Shared>, fan: &Arc<DecodeFan>) {
    if let Some((code, message)) = fan.failed.lock().expect("poisoned").take() {
        respond_error(shared, fan.token, fan.request_id, code, &message);
        return;
    }
    let parts = std::mem::take(&mut *fan.parts.lock().expect("poisoned"));
    let internal = |e: String| (ErrorCode::Internal, format!("decompression failed: {e}"));
    let outcome = Image::zeros(fan.width, fan.height, fan.bit_depth)
        .map_err(|e| internal(e.to_string()))
        .and_then(|mut frame| {
            for (index, tile) in parts.into_iter().enumerate() {
                let tile = tile.expect("every tile decoded");
                frame
                    .view_rect_mut(fan.grid.rect(index))
                    .and_then(|mut window| window.copy_from_image(&tile))
                    .map_err(|e| internal(e.to_string()))?;
            }
            encode_pgm(&frame)
        })
        .and_then(|bytes| ensure_frame_fits(shared, bytes));
    match outcome {
        Ok(response) => {
            cache_insert(shared, Op::Decompress, &fan.payload, &response);
            respond_ok(shared, fan.token, Op::OkDecompress, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Encodes one brick of a fanned-out compress-volume; the last finisher
/// assembles the `LWCV` container.
fn run_volume_brick(shared: &Arc<Shared>, fan: &Arc<VolumeFan>, index: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        match shared.volume_engine.encode_brick(&fan.stack, &fan.grid, index) {
            Ok(bytes) => fan.parts.lock().expect("poisoned")[index] = Some(bytes),
            Err(e) => {
                let mut failed = fan.failed.lock().expect("poisoned");
                if failed.is_none() {
                    *failed = Some((ErrorCode::Internal, format!("compression failed: {e}")));
                }
            }
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_volume_compress(shared, fan);
    }
}

/// Assembles the `LWCV` container from the fanned brick payloads —
/// byte-identical to the sequential engine, which is built on the same
/// per-brick encode and container writer.
fn finish_volume_compress(shared: &Arc<Shared>, fan: &Arc<VolumeFan>) {
    if let Some((code, message)) = fan.failed.lock().expect("poisoned").take() {
        respond_error(shared, fan.token, fan.request_id, code, &message);
        return;
    }
    let parts = std::mem::take(&mut *fan.parts.lock().expect("poisoned"));
    let payloads: Vec<Vec<u8>> =
        parts.into_iter().map(|p| p.expect("every brick encoded")).collect();
    let outcome = shared
        .volume_engine
        .assemble_container(&fan.grid, fan.stack.bit_depth(), &payloads)
        .map_err(|e| (ErrorCode::Internal, format!("compression failed: {e}")))
        .and_then(|bytes| ensure_frame_fits(shared, bytes));
    match outcome {
        Ok(response) => {
            respond_ok(shared, fan.token, Op::OkCompressVolume, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Decodes one brick of a fanned-out volumetric decode (whole volume or
/// region); the last finisher scatters.
fn run_volume_decode_brick(shared: &Arc<Shared>, fan: &Arc<VolumeDecodeFan>, slot: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        let bad = |e: String| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
        let result =
            VolumeStream::parse(&fan.stream).map_err(|e| bad(e.to_string())).and_then(|stream| {
                fan.engine
                    .decode_brick_samples(&stream, &fan.grid, fan.indices[slot])
                    .map_err(|e| bad(e.to_string()))
            });
        match result {
            Ok(samples) => fan.parts.lock().expect("poisoned")[slot] = Some(samples),
            Err(em) => {
                let mut failed = fan.failed.lock().expect("poisoned");
                if failed.is_none() {
                    *failed = Some(em);
                }
            }
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_volume_decode(shared, fan);
    }
}

/// Scatters the fanned brick samples into the requested region and
/// serializes the raw-volume response — the same scatter the sequential
/// volumetric decode performs.
fn finish_volume_decode(shared: &Arc<Shared>, fan: &Arc<VolumeDecodeFan>) {
    if let Some((code, message)) = fan.failed.lock().expect("poisoned").take() {
        respond_error(shared, fan.token, fan.request_id, code, &message);
        return;
    }
    let parts = std::mem::take(&mut *fan.parts.lock().expect("poisoned"));
    let internal = |e: String| (ErrorCode::Internal, format!("decompression failed: {e}"));
    let rect = fan.rect;
    let mut region = vec![0i32; rect.plane.width * rect.plane.height * rect.depth];
    for (slot, samples) in parts.into_iter().enumerate() {
        let samples = samples.expect("every brick decoded");
        scatter_region(&mut region, rect, fan.grid.rect(fan.indices[slot]), &samples);
    }
    let outcome = ImageStack::from_samples(
        rect.plane.width,
        rect.plane.height,
        rect.depth,
        fan.header.bit_depth,
        region,
    )
    .map_err(|e| internal(e.to_string()))
    .map(|stack| write_raw_volume(&stack))
    .and_then(|bytes| ensure_frame_fits(shared, bytes));
    match outcome {
        Ok(response) => {
            respond_ok(shared, fan.token, fan.respond_op, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Decodes one covering tile of a fanned-out 2-D region request; the last
/// finisher crops and assembles.
fn run_region_tile(shared: &Arc<Shared>, fan: &Arc<RegionFan>, slot: usize) {
    if fan.failed.lock().expect("poisoned").is_none() {
        let bad =
            |e: ServerError| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
        let index = fan.indices[slot];
        let result = if fan.fixed {
            FixedStream::parse(&fan.stream).map_err(|e| bad(e.into())).and_then(|stream| {
                let engine = fixed_engine(stream.header()).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index).map_err(|e| bad(e.into()))
            })
        } else {
            TiledStream::parse(&fan.stream).map_err(|e| bad(e.into())).and_then(|stream| {
                let engine = tiled_engine(stream.header()).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index).map_err(|e| bad(e.into()))
            })
        };
        match result {
            Ok(tile) => fan.parts.lock().expect("poisoned")[slot] = Some(tile),
            Err(em) => {
                let mut failed = fan.failed.lock().expect("poisoned");
                if failed.is_none() {
                    *failed = Some(em);
                }
            }
        }
    }
    if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        finish_region(shared, fan);
    }
}

/// Crops the covering tiles to the requested rectangle, assembles the region
/// image and serializes the PGM response.
fn finish_region(shared: &Arc<Shared>, fan: &Arc<RegionFan>) {
    if let Some((code, message)) = fan.failed.lock().expect("poisoned").take() {
        respond_error(shared, fan.token, fan.request_id, code, &message);
        return;
    }
    let parts = std::mem::take(&mut *fan.parts.lock().expect("poisoned"));
    let internal = |e: String| (ErrorCode::Internal, format!("decompression failed: {e}"));
    let rect = fan.rect;
    let mut region = vec![0i32; rect.width * rect.height];
    for (slot, tile) in parts.into_iter().enumerate() {
        let tile = tile.expect("every tile decoded");
        copy_tile_into_region(&mut region, rect, fan.grid.rect(fan.indices[slot]), &tile);
    }
    let outcome = Image::from_samples(rect.width, rect.height, fan.bit_depth, region)
        .map_err(|e| internal(e.to_string()))
        .and_then(|image| encode_pgm(&image))
        .and_then(|bytes| ensure_frame_fits(shared, bytes));
    match outcome {
        Ok(response) => {
            respond_ok(shared, fan.token, Op::OkDecompressRegion, fan.request_id, response);
        }
        Err((code, message)) => respond_error(shared, fan.token, fan.request_id, code, &message),
    }
}

/// Copies the intersection of a decoded tile with the requested rectangle
/// into the region buffer (region-local coordinates). Tiles that miss the
/// rectangle entirely are a no-op, so callers can scatter any covering set.
fn copy_tile_into_region(
    region: &mut [i32],
    want: TileRect,
    tile_rect: TileRect,
    tile: &lwc_image::Image,
) {
    let x0 = want.x.max(tile_rect.x);
    let y0 = want.y.max(tile_rect.y);
    let x1 = want.right().min(tile_rect.right());
    let y1 = want.bottom().min(tile_rect.bottom());
    if x0 >= x1 || y0 >= y1 {
        return;
    }
    for y in y0..y1 {
        let src_off = (y - tile_rect.y) * tile_rect.width + (x0 - tile_rect.x);
        let dst_off = (y - want.y) * want.width + (x0 - want.x);
        let n = x1 - x0;
        region[dst_off..dst_off + n].copy_from_slice(&tile.samples()[src_off..src_off + n]);
    }
}

/// Inserts a successful cacheable response into the hot-response cache.
fn cache_insert(shared: &Arc<Shared>, op: Op, payload: &[u8], response: &[u8]) {
    if !matches!(op, Op::Compress | Op::Decompress) {
        return;
    }
    if let Some(cache) = &shared.cache {
        cache.lock().expect("poisoned").insert(op, payload.to_vec(), response.to_vec());
    }
}

/// Queues a success completion and wakes the I/O thread.
fn respond_ok(shared: &Arc<Shared>, token: usize, op: Op, request_id: u64, payload: Vec<u8>) {
    Metrics::bump(&shared.metrics.completed_requests);
    push_completion(shared, token, Frame { op, request_id, payload });
}

/// Queues an error completion and wakes the I/O thread.
fn respond_error(
    shared: &Arc<Shared>,
    token: usize,
    request_id: u64,
    code: ErrorCode,
    message: &str,
) {
    Metrics::bump(&shared.metrics.error_replies);
    push_completion(shared, token, Frame::error(request_id, code, message));
}

fn push_completion(shared: &Arc<Shared>, token: usize, frame: Frame) {
    shared.completions.lock().expect("poisoned").push_back(Completion { token, frame });
    let _ = shared.poller.notify();
}

/// Refuses a response that would exceed the frame limit — the server never
/// emits a frame it would itself refuse to read.
fn ensure_frame_fits(shared: &Shared, payload: Vec<u8>) -> Result<Vec<u8>, (ErrorCode, String)> {
    if payload.len() > shared.config.max_payload_bytes {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "response of {} bytes exceeds the {}-byte frame limit (raise --max-frame-mb)",
                payload.len(),
                shared.config.max_payload_bytes
            ),
        ));
    }
    Ok(payload)
}

/// Executes one validated request against the shared engine (the direct,
/// non-fanned path; also the only path for `decompress-tile`).
fn execute(shared: &Shared, op: Op, payload: &[u8]) -> Result<Vec<u8>, (ErrorCode, String)> {
    match op {
        Op::Compress => {
            let image = pgm::read_pgm(payload)
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid PGM payload: {e}")))?;
            Codec::compress(&shared.engine, &image)
                .map_err(|e| (ErrorCode::Internal, format!("compression failed: {e}")))
        }
        Op::Decompress => {
            let bad = |e: ServerError| {
                (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"))
            };
            if is_volume(payload) {
                return Err((
                    ErrorCode::BadPayload,
                    "stream is a volumetric LWCV container: use decompress-volume".to_owned(),
                ));
            }
            // Check the response size from the header dimensions before any
            // decode work — a stream whose pixels cannot fit one response
            // frame is refused up front (see `ensure_response_fits`).
            let image = if is_tiled(payload) {
                let header = *TiledStream::parse(payload).map_err(|e| bad(e.into()))?.header();
                ensure_response_fits(shared, header.width, header.height, header.bit_depth)?;
                let engine = tiled_engine(&header).map_err(bad)?;
                Codec::decompress(&engine, payload).map_err(|e| bad(e.into()))?
            } else if is_fixed(payload) {
                let header = *FixedStream::parse(payload).map_err(|e| bad(e.into()))?.header();
                ensure_response_fits(shared, header.width, header.height, header.bit_depth)?;
                let engine = fixed_engine(&header).map_err(bad)?;
                Codec::decompress(&engine, payload).map_err(|e| bad(e.into()))?
            } else {
                let header =
                    StreamHeader::read(&mut BitReader::new(payload)).map_err(|e| bad(e.into()))?;
                ensure_response_fits(shared, header.width, header.height, header.bit_depth)?;
                decompress_auto(payload).map_err(bad)?
            };
            encode_pgm(&image)
        }
        Op::DecompressTile => {
            let (index, stream_bytes) = split_tile_request(payload)?;
            let bad = |e: ServerError| {
                (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"))
            };
            if is_volume(stream_bytes) {
                return Err((
                    ErrorCode::BadPayload,
                    "stream is a volumetric LWCV container: use decompress-region".to_owned(),
                ));
            }
            // One container parse serves the range check, the size check,
            // the engine parameters and the tile decode.
            let tile = if is_tiled(stream_bytes) {
                let stream = TiledStream::parse(stream_bytes).map_err(|e| bad(e.into()))?;
                let tiles = stream.tile_count();
                if index as usize >= tiles {
                    return Err((
                        ErrorCode::TileIndexOutOfRange,
                        format!("tile index {index} out of range: the stream has {tiles} tiles"),
                    ));
                }
                let header = *stream.header();
                let rect = stream.grid().map_err(|e| bad(e.into()))?.rect(index as usize);
                ensure_response_fits(shared, rect.width, rect.height, header.bit_depth)?;
                let engine = tiled_engine(&header).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index as usize).map_err(|e| bad(e.into()))?
            } else if is_fixed(stream_bytes) {
                let stream = FixedStream::parse(stream_bytes).map_err(|e| bad(e.into()))?;
                let tiles = stream.tile_count();
                if index as usize >= tiles {
                    return Err((
                        ErrorCode::TileIndexOutOfRange,
                        format!("tile index {index} out of range: the stream has {tiles} tiles"),
                    ));
                }
                let header = *stream.header();
                let rect = stream.grid().map_err(|e| bad(e.into()))?.rect(index as usize);
                ensure_response_fits(shared, rect.width, rect.height, header.bit_depth)?;
                let engine = fixed_engine(&header).map_err(bad)?;
                engine.decompress_parsed_tile(&stream, index as usize).map_err(|e| bad(e.into()))?
            } else {
                if index != 0 {
                    return Err((
                        ErrorCode::TileIndexOutOfRange,
                        format!(
                            "tile index {index} out of range: a legacy stream is a single tile"
                        ),
                    ));
                }
                let header = StreamHeader::read(&mut BitReader::new(stream_bytes))
                    .map_err(|e| bad(e.into()))?;
                ensure_response_fits(shared, header.width, header.height, header.bit_depth)?;
                decompress_auto(stream_bytes).map_err(bad)?
            };
            encode_pgm(&tile)
        }
        Op::CompressVolume => {
            let stack = read_raw_volume(payload)
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid raw volume payload: {e}")))?;
            shared
                .volume_engine
                .compress_stack(&stack)
                .map_err(|e| (ErrorCode::Internal, format!("compression failed: {e}")))
        }
        Op::DecompressVolume => {
            let bad =
                |e: String| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
            if !is_volume(payload) {
                return Err(bad("not an LWCV container".to_owned()));
            }
            // Check the response size from the header dimensions before any
            // decode work, exactly as the 2-D path does.
            let stream = VolumeStream::parse(payload).map_err(|e| bad(e.to_string()))?;
            let header = *stream.header();
            ensure_volume_response_fits(
                shared,
                header.width,
                header.height,
                header.depth,
                header.bit_depth,
            )?;
            let engine = volume_engine_for(&header).map_err(|e| bad(e.to_string()))?;
            let stack = engine.decompress_stack(payload).map_err(|e| bad(e.to_string()))?;
            Ok(write_raw_volume(&stack))
        }
        Op::DecompressRegion => {
            let (rect, stream_bytes) = split_region_request(payload)?;
            if is_volume(stream_bytes) {
                let bad =
                    |e: String| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
                let stream = VolumeStream::parse(stream_bytes).map_err(|e| bad(e.to_string()))?;
                let header = *stream.header();
                ensure_volume_response_fits(
                    shared,
                    rect.plane.width,
                    rect.plane.height,
                    rect.depth,
                    header.bit_depth,
                )?;
                let engine = volume_engine_for(&header).map_err(|e| bad(e.to_string()))?;
                let stack = engine
                    .decompress_region(stream_bytes, rect)
                    .map_err(|e| (ErrorCode::BadPayload, format!("region decode failed: {e}")))?;
                return Ok(write_raw_volume(&stack));
            }
            if rect.z != 0 || rect.depth != 1 {
                return Err((
                    ErrorCode::BadPayload,
                    format!(
                        "a 2-D stream holds a single slice: the region must have z = 0 and \
                         depth = 1, got z = {} depth = {}",
                        rect.z, rect.depth
                    ),
                ));
            }
            let image = decompress_region_2d(shared, rect.plane, stream_bytes)?;
            encode_pgm(&image)
        }
        Op::Stats => Ok(shared.stats().to_json().into_bytes()),
        other => Err((ErrorCode::UnknownOp, format!("{other:?} is not a request op"))),
    }
}

/// Decodes the minimal covering tile set of a 2-D region request
/// sequentially and crops it to the rectangle (the direct, non-fanned
/// region path; also the only 2-D region path for legacy `LWC1` streams,
/// which are a single tile).
fn decompress_region_2d(
    shared: &Shared,
    rect: TileRect,
    stream_bytes: &[u8],
) -> Result<lwc_image::Image, (ErrorCode, String)> {
    let bad = |e: ServerError| (ErrorCode::BadPayload, format!("invalid compressed payload: {e}"));
    let region_err = |w: usize, h: usize| {
        (
            ErrorCode::BadPayload,
            format!(
                "region out of bounds: {}x{} at ({}, {}) exceeds the {w}x{h} image",
                rect.width, rect.height, rect.x, rect.y
            ),
        )
    };
    let (bit_depth, grid, indices) = if is_tiled(stream_bytes) {
        let stream = TiledStream::parse(stream_bytes).map_err(|e| bad(e.into()))?;
        let header = *stream.header();
        let grid = stream.grid().map_err(|e| bad(e.into()))?;
        let indices =
            grid.covering_indices(rect).ok_or_else(|| region_err(header.width, header.height))?;
        (header.bit_depth, grid, indices)
    } else if is_fixed(stream_bytes) {
        let stream = FixedStream::parse(stream_bytes).map_err(|e| bad(e.into()))?;
        let header = *stream.header();
        let grid = stream.grid().map_err(|e| bad(e.into()))?;
        let indices =
            grid.covering_indices(rect).ok_or_else(|| region_err(header.width, header.height))?;
        (header.bit_depth, grid, indices)
    } else {
        // A legacy LWC1 stream is a single tile covering the whole image.
        let header =
            StreamHeader::read(&mut BitReader::new(stream_bytes)).map_err(|e| bad(e.into()))?;
        let grid = TileGrid::new(header.width, header.height, header.width, header.height)
            .map_err(|e| bad(e.into()))?;
        let indices =
            grid.covering_indices(rect).ok_or_else(|| region_err(header.width, header.height))?;
        (header.bit_depth, grid, indices)
    };
    ensure_response_fits(shared, rect.width, rect.height, bit_depth)?;
    let mut region = vec![0i32; rect.width * rect.height];
    for index in indices {
        let tile = if is_tiled(stream_bytes) || is_fixed(stream_bytes) {
            decompress_tile_auto(stream_bytes, index).map_err(bad)?
        } else {
            decompress_auto(stream_bytes).map_err(bad)?
        };
        copy_tile_into_region(&mut region, rect, grid.rect(index), &tile);
    }
    Image::from_samples(rect.width, rect.height, bit_depth, region)
        .map_err(|e| (ErrorCode::Internal, format!("decompression failed: {e}")))
}

/// Decodes one tile of a tiled or fixed container, header-driven.
fn decompress_tile_auto(bytes: &[u8], index: usize) -> Result<lwc_image::Image, ServerError> {
    if is_fixed(bytes) {
        let stream = FixedStream::parse(bytes)?;
        let engine = fixed_engine(stream.header())?;
        Ok(engine.decompress_parsed_tile(&stream, index)?)
    } else {
        let stream = TiledStream::parse(bytes)?;
        let engine = tiled_engine(stream.header())?;
        Ok(engine.decompress_parsed_tile(&stream, index)?)
    }
}

/// Refuses a decompression whose PGM response could not fit one frame under
/// the server's payload limit — checked from the header dimensions before
/// any decode work, so a client can't make the server decode terabytes it
/// could never send back (and a legitimate-but-huge stream gets a typed
/// error instead of an unreadable oversized response frame).
fn ensure_response_fits(
    shared: &Shared,
    width: usize,
    height: usize,
    bit_depth: u32,
) -> Result<(), (ErrorCode, String)> {
    let per_sample: u128 = if bit_depth > 8 { 2 } else { 1 };
    let need = width as u128 * height as u128 * per_sample + 64;
    if need > shared.config.max_payload_bytes as u128 {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "a {width}x{height} {bit_depth}-bit image decompresses to ~{need} response \
                 bytes, beyond the {}-byte frame limit (raise --max-frame-mb or decode locally)",
                shared.config.max_payload_bytes
            ),
        ));
    }
    Ok(())
}

fn encode_pgm(image: &lwc_image::Image) -> Result<Vec<u8>, (ErrorCode, String)> {
    let mut bytes = Vec::with_capacity(image.pixel_count() * 2 + 64);
    pgm::write_pgm(image, &mut bytes)
        .map_err(|e| (ErrorCode::Internal, format!("PGM serialization failed: {e}")))?;
    Ok(bytes)
}

fn split_tile_request(payload: &[u8]) -> Result<(u32, &[u8]), (ErrorCode, String)> {
    let index_bytes: [u8; 4] =
        payload.get(..4).and_then(|b| b.try_into().ok()).ok_or_else(|| {
            (
                ErrorCode::BadPayload,
                "decompress-tile payload must start with a 4-byte tile index".to_owned(),
            )
        })?;
    Ok((u32::from_be_bytes(index_bytes), &payload[4..]))
}

/// Decompresses any container format the service knows (`LWC1`/`LWCQ`,
/// `LWCT`, `LWCF`), taking the decomposition depth (and tile shape, and for `LWCF`
/// the filter bank) from the stream itself — the service never requires
/// clients to know how a stream was produced.
pub(crate) fn decompress_auto(bytes: &[u8]) -> Result<lwc_image::Image, ServerError> {
    Ok(engine_for(bytes)?.decompress(bytes)?)
}

/// Single-threaded engine with the parameters of a parsed tiled header.
/// The engine codec is lossless; near-lossless streams decode correctly
/// anyway because the quantizer is honored from the per-tile stream headers
/// and cross-checked against the container's delta field.
fn tiled_engine(header: &TiledHeader) -> Result<TiledCompressor, ServerError> {
    let codec = LosslessCodec::new(header.scales)?;
    Ok(TiledCompressor::with_codec(codec, header.tile_width, header.tile_height, 1)?)
}

/// Single-threaded fixed-path engine with the parameters of a parsed `LWCF`
/// header.
fn fixed_engine(header: &FixedHeader) -> Result<TiledFixedCompressor, ServerError> {
    Ok(TiledFixedCompressor::for_stream(header, 1)?)
}

/// Single-threaded volumetric engine with the parameters of a parsed `LWCV`
/// header — decompression always follows the stream's own parameters, never
/// the server's configured ones.
fn volume_engine_for(header: &VolumeHeader) -> Result<VolumeCompressor, ServerError> {
    let codec = LosslessCodec::new(header.scales)?;
    Ok(VolumeCompressor::with_codec(
        codec,
        header.z_scales,
        header.tile_width,
        header.tile_height,
        header.brick_depth,
        1,
    )?)
}

/// Refuses a volumetric decode whose raw-volume response could not fit one
/// frame under the server's payload limit — checked from the header
/// dimensions before any decode work, the 3-D analogue of
/// [`ensure_response_fits`].
fn ensure_volume_response_fits(
    shared: &Shared,
    width: usize,
    height: usize,
    depth: usize,
    bit_depth: u32,
) -> Result<(), (ErrorCode, String)> {
    let need = raw_volume_len(width, height, depth, bit_depth);
    if need > shared.config.max_payload_bytes as u128 {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "a {width}x{height}x{depth} {bit_depth}-bit volume decompresses to ~{need} \
                 response bytes, beyond the {}-byte frame limit (raise --max-frame-mb, request \
                 a region, or decode locally)",
                shared.config.max_payload_bytes
            ),
        ));
    }
    Ok(())
}

/// Splits a `decompress-region` payload into the requested rectangle and the
/// compressed stream. The 24-byte prefix is six `u32` big-endian fields:
/// x, y, z, width, height, depth.
fn split_region_request(payload: &[u8]) -> Result<(BrickRect, &[u8]), (ErrorCode, String)> {
    let prefix: &[u8; 24] = payload.get(..24).and_then(|b| b.try_into().ok()).ok_or_else(|| {
        (
            ErrorCode::BadPayload,
            "decompress-region payload must start with a 24-byte rectangle \
             (six u32 BE: x, y, z, width, height, depth)"
                .to_owned(),
        )
    })?;
    let word = |i: usize| {
        u32::from_be_bytes(prefix[4 * i..4 * i + 4].try_into().expect("4 bytes")) as usize
    };
    let rect = BrickRect {
        plane: TileRect { x: word(0), y: word(1), width: word(3), height: word(4) },
        z: word(2),
        depth: word(5),
    };
    if rect.plane.width == 0 || rect.plane.height == 0 || rect.depth == 0 {
        return Err((
            ErrorCode::BadPayload,
            format!(
                "region dimensions must be nonzero, got {}x{}x{}",
                rect.plane.width, rect.plane.height, rect.depth
            ),
        ));
    }
    Ok((rect, &payload[24..]))
}

/// Builds a single-threaded [`Codec`] matching the stream's own parameters —
/// the three-way magic sniff (`LWCT` / `LWCF` / otherwise a single
/// `LWC1`/`LWCQ` stream for the plain [`LosslessCodec`]) behind the
/// decompression ops. All header reads reject empty/truncated buffers with
/// typed errors, so sniffing never slices out of bounds.
fn engine_for(bytes: &[u8]) -> Result<Box<dyn Codec>, ServerError> {
    if is_tiled(bytes) {
        Ok(Box::new(tiled_engine(TiledStream::parse(bytes)?.header())?))
    } else if is_fixed(bytes) {
        Ok(Box::new(fixed_engine(FixedStream::parse(bytes)?.header())?))
    } else {
        let header = StreamHeader::read(&mut BitReader::new(bytes))?;
        Ok(Box::new(LosslessCodec::new(header.scales)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_image::synth;

    fn fixed_stream(image: &lwc_image::Image) -> Vec<u8> {
        // The server crate has no lwc-filters dependency by design; a
        // header-driven engine (the same path the sniff uses) builds the
        // stream.
        let header = FixedHeader {
            width: image.width(),
            height: image.height(),
            bit_depth: image.bit_depth(),
            scales: 3,
            filter: 0,
            tile_width: 32,
            tile_height: 32,
        };
        TiledFixedCompressor::for_stream(&header, 1).unwrap().compress(image).unwrap()
    }

    #[test]
    fn decompress_auto_sniffs_all_three_formats_and_rejects_short_buffers() {
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 3));
        assert!(is_tiled(&tiled) && !is_tiled(&legacy) && is_fixed(&fixed));
        for stream in [&legacy, &tiled] {
            let back = decompress_auto(stream).unwrap();
            assert_eq!(back.samples(), image.samples());
            // Every short prefix — including the empty buffer — must come
            // back as a typed error, never a panic or slice failure.
            for len in 0..8.min(stream.len()) {
                assert!(decompress_auto(&stream[..len]).is_err(), "prefix of {len} bytes");
            }
        }
        let back = decompress_auto(&fixed).unwrap();
        assert_eq!(back.samples(), synth::ct_phantom(64, 48, 12, 3).samples());
        for len in 0..8 {
            assert!(decompress_auto(&fixed[..len]).is_err(), "fixed prefix of {len} bytes");
        }
        // A near-lossless LWCQ stream decodes within its bound through the
        // same sniff, and its short prefixes are typed errors too.
        let quantized = LosslessCodec::near_lossless(3, 2).unwrap().compress(&image).unwrap();
        assert!(!is_tiled(&quantized) && !is_fixed(&quantized));
        let back = decompress_auto(&quantized).unwrap();
        assert!(lwc_image::stats::max_abs_diff(&image, &back).unwrap() <= 2);
        for len in 0..8 {
            assert!(decompress_auto(&quantized[..len]).is_err(), "LWCQ prefix of {len} bytes");
        }
    }

    #[test]
    fn engine_sniffing_matches_the_stream_parameters() {
        let image = synth::ct_phantom(70, 50, 12, 3);
        let legacy = LosslessCodec::new(3).unwrap().compress(&image).unwrap();
        let tiled = TiledCompressor::new(3, 32, 1).unwrap().compress(&image).unwrap();
        let fixed = fixed_stream(&synth::ct_phantom(64, 48, 12, 5));
        assert_eq!(engine_for(&legacy).unwrap().name(), "lossless");
        assert_eq!(engine_for(&tiled).unwrap().name(), "tiled");
        let sniffed = engine_for(&fixed).unwrap();
        assert_eq!(sniffed.name(), "tiled-fixed");
        assert!(sniffed.capabilities().fixed_point);
        assert!(engine_for(&[]).is_err());
        assert!(engine_for(&[0x4C, 0x57]).is_err());
    }
}
