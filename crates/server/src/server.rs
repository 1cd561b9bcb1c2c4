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
//! idle workers stealing FIFO from the top.
//!
//! A worker turns each request into the engine's job [`Plan`] — tiles or
//! bricks to encode, or the parts covering the requested box to decode —
//! building it once: the container is parsed and validated there, and every
//! typed refusal and the response-size check happen before any codec work.
//! A plan with one part, or a pool with one worker, runs inline. Otherwise
//! one generic fan pushes a `Task::Part` per part onto the worker's own
//! deque, idle workers steal them, each part is placed into the output as it
//! finishes, and the last one assembles the reply; the bytes are the
//! sequential engine's either way. The task boundary is also the panic
//! boundary: a panicking request or part becomes that request's one
//! `Internal` reply and the worker lives on. Completed responses ride a
//! completion queue back to the I/O thread, which wakes via
//! [`Poller::notify`]. An optional content-hash LRU cache answers repeated
//! compress/decompress payloads without touching the engine at all.

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
use lwc_coder::{LosslessCodec, VolumeStream};
use lwc_image::pgm;
use lwc_image::{BrickRect, ImageStack, TileRect};
use lwc_pipeline::{
    DecodePlan, PipelineError, Plan, TiledCompressor, VolumeCompressor, DEFAULT_BRICK_DEPTH,
    DEFAULT_TILE_SIZE,
};
use polling::{Event, Poller, NOTIFY_KEY};
use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Shutdown, SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
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

/// What worker deques carry: whole requests, or one part of a fanned one.
enum Task {
    Request(Job),
    Part { fan: Arc<Fan>, index: usize },
}

/// A typed error reply: its code and message.
type Refusal = (ErrorCode, String);

/// Where a request's reply goes. `cache_key` holds the request payload of a
/// cacheable op while the response cache is on.
struct ReplyTo {
    token: usize,
    request_id: u64,
    op: Op,
    cache_key: Option<Vec<u8>>,
}

impl ReplyTo {
    /// Sends the one reply a request gets — a success (cached if cacheable)
    /// or a typed error — and wakes the I/O thread.
    fn send(self, shared: &Shared, outcome: Result<Vec<u8>, Refusal>) {
        match outcome.and_then(|payload| ensure_frame_fits(shared, payload)) {
            Ok(payload) => {
                if let (Some(key), Some(cache)) = (self.cache_key, &shared.cache) {
                    cache.lock().expect("poisoned").insert(self.op, key, payload.clone());
                }
                Metrics::bump(&shared.metrics.completed_requests);
                let frame = Frame { op: self.op.response(), request_id: self.request_id, payload };
                push_completion(shared, self.token, frame);
            }
            Err((code, message)) => {
                Metrics::bump(&shared.metrics.error_replies);
                push_completion(shared, self.token, Frame::error(self.request_id, code, &message));
            }
        }
    }
}

/// A request's plan as the workers see it: parts to run and place, then
/// one response payload to assemble. Type-erased so one fan carries every op.
trait Work: Send + Sync {
    fn parts(&self) -> usize;
    /// Runs part `index` and places it into the plan's sink.
    fn run_part(&self, index: usize) -> Result<(), Refusal>;
    /// Assembles the placed parts into the response payload.
    fn finish(&self) -> Result<Vec<u8>, Refusal>;
}

/// A [`Plan`] with its sink, the error class its failures answer, and the
/// encoding of its output as a response payload.
struct Planned<P: Plan> {
    plan: P,
    sink: Mutex<Option<P::Sink>>,
    /// `BadPayload` for decodes (the stream is at fault), `Internal` for
    /// encodes; with the message prefix.
    failure: (ErrorCode, &'static str),
    respond: fn(&P, P::Output) -> Result<Vec<u8>, Refusal>,
}

impl<P: Plan + 'static> Planned<P> {
    fn boxed(
        plan: P,
        failure: (ErrorCode, &'static str),
        respond: fn(&P, P::Output) -> Result<Vec<u8>, Refusal>,
    ) -> Box<dyn Work> {
        let sink = Mutex::new(Some(plan.sink()));
        Box::new(Self { plan, sink, failure, respond })
    }
}

impl<P: Plan + 'static> Work for Planned<P> {
    fn parts(&self) -> usize {
        self.plan.parts()
    }

    fn run_part(&self, index: usize) -> Result<(), Refusal> {
        let part = self.plan.run(index).map_err(|e| refuse(self.failure, e))?;
        let mut sink = self.sink.lock().expect("poisoned");
        self.plan.place(sink.as_mut().expect("parts run before finish"), index, part);
        Ok(())
    }

    fn finish(&self) -> Result<Vec<u8>, Refusal> {
        let sink = self.sink.lock().expect("poisoned").take().expect("finished once");
        let output = self.plan.finish(sink).map_err(|e| refuse(self.failure, e))?;
        (self.respond)(&self.plan, output)
    }
}

/// A request fanned out as one task per part; the last part to finish
/// assembles and replies.
struct Fan {
    work: Box<dyn Work>,
    reply: Mutex<Option<ReplyTo>>,
    remaining: AtomicUsize,
    failed: Mutex<Option<Refusal>>,
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

/// Executes one scheduled task on a worker thread — the server's one panic
/// boundary: every call into a plan runs under [`guarded`], so a panicking
/// request or part becomes that request's single `Internal` reply, the
/// in-flight budget settles when it is delivered, and the worker (and the
/// scheduler's busy count) carries on.
fn run_task(shared: &Arc<Shared>, worker: usize, task: Task) {
    match task {
        Task::Request(Job { op, request_id, token, payload }) => {
            let cacheable = shared.cache.is_some() && matches!(op, Op::Compress | Op::Decompress);
            let cache_key = cacheable.then(|| payload.clone());
            let reply = ReplyTo { token, request_id, op, cache_key };
            match guarded(|| plan_request(shared, op, payload)) {
                Ok(work) if work.parts() >= 2 && shared.sched.workers() >= 2 => {
                    let parts = work.parts();
                    let fan = Arc::new(Fan {
                        work,
                        reply: Mutex::new(Some(reply)),
                        remaining: AtomicUsize::new(parts),
                        failed: Mutex::new(None),
                    });
                    for index in 0..parts {
                        shared
                            .sched
                            .push_local(worker, Task::Part { fan: Arc::clone(&fan), index });
                    }
                }
                Ok(work) => reply.send(
                    shared,
                    guarded(|| {
                        (0..work.parts()).try_for_each(|index| work.run_part(index))?;
                        work.finish()
                    }),
                ),
                Err(refusal) => reply.send(shared, Err(refusal)),
            }
        }
        Task::Part { fan, index } => {
            if fan.failed.lock().expect("poisoned").is_none() {
                if let Err(refusal) = guarded(|| fan.work.run_part(index)) {
                    fan.failed.lock().expect("poisoned").get_or_insert(refusal);
                }
            }
            if fan.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let outcome = match fan.failed.lock().expect("poisoned").take() {
                    Some(refusal) => Err(refusal),
                    None => guarded(|| fan.work.finish()),
                };
                let reply = fan.reply.lock().expect("poisoned").take().expect("one reply per fan");
                reply.send(shared, outcome);
            }
        }
    }
}

/// Runs `f`, turning a panic into an `Internal` refusal.
fn guarded<T>(f: impl FnOnce() -> Result<T, Refusal>) -> Result<T, Refusal> {
    panic::catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err((ErrorCode::Internal, "the request's handler panicked".to_owned())))
}

/// Builds a request's plan: parses and validates the payload (a container
/// is parsed once, here), makes every typed refusal, and checks a decode's
/// response size from the header before any decode work.
fn plan_request(shared: &Shared, op: Op, payload: Vec<u8>) -> Result<Box<dyn Work>, Refusal> {
    const ENCODE: (ErrorCode, &str) = (ErrorCode::Internal, "compression failed");
    const DECODE: (ErrorCode, &str) = (ErrorCode::BadPayload, "invalid compressed payload");
    let bad = |e: PipelineError| refuse(DECODE, e);
    #[cfg(test)]
    if op == Op::Compress && payload == tests::PANIC_PROBE {
        return Ok(Planned::boxed(tests::PanicPlan, ENCODE, |_, ()| Ok(Vec::new())));
    }
    let plan = match op {
        Op::Compress => {
            let image = pgm::read_pgm(payload.as_slice())
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid PGM payload: {e}")))?;
            let plan = shared.engine.encode_plan(image).map_err(|e| refuse(ENCODE, e))?;
            return Ok(Planned::boxed(plan, ENCODE, |_, bytes| Ok(bytes)));
        }
        Op::CompressVolume => {
            let stack = read_raw_volume(&payload)
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid raw volume payload: {e}")))?;
            let plan = shared.volume_engine.encode_plan(stack).map_err(|e| refuse(ENCODE, e))?;
            return Ok(Planned::boxed(plan, ENCODE, |_, bytes| Ok(bytes)));
        }
        Op::Decompress => {
            if VolumeStream::sniff(&payload) {
                return Err((
                    ErrorCode::BadPayload,
                    "stream is a volumetric LWCV container: use decompress-volume".to_owned(),
                ));
            }
            DecodePlan::sniff(payload).map_err(bad)?
        }
        Op::DecompressVolume => {
            if !VolumeStream::sniff(&payload) {
                return Err((
                    ErrorCode::BadPayload,
                    "invalid compressed payload: not an LWCV container".to_owned(),
                ));
            }
            DecodePlan::sniff(payload).map_err(bad)?
        }
        Op::DecompressTile => {
            let index = tile_index(&payload)?;
            let mut stream = payload;
            stream.drain(..4);
            if VolumeStream::sniff(&stream) {
                return Err((
                    ErrorCode::BadPayload,
                    "stream is a volumetric LWCV container: use decompress-region".to_owned(),
                ));
            }
            let mut plan = DecodePlan::sniff(stream).map_err(bad)?;
            let tiles = plan.grid().brick_count();
            if index >= tiles {
                return Err((
                    ErrorCode::TileIndexOutOfRange,
                    format!("tile index {index} out of range: the stream has {tiles} tiles"),
                ));
            }
            plan.select(plan.grid().rect(index)).map_err(bad)?;
            plan
        }
        Op::DecompressRegion => {
            let region = region_of(&payload)?;
            let mut stream = payload;
            stream.drain(..24);
            let mut plan = DecodePlan::sniff(stream).map_err(bad)?;
            plan.select(region)
                .map_err(|e| (ErrorCode::BadPayload, format!("invalid region: {e}")))?;
            plan
        }
        other => return Err((ErrorCode::UnknownOp, format!("{other:?} is not a request op"))),
    };
    ensure_response_fits(shared, &plan)?;
    Ok(Planned::boxed(plan, DECODE, decoded))
}

fn refuse(failure: (ErrorCode, &str), error: impl std::fmt::Display) -> Refusal {
    (failure.0, format!("{}: {error}", failure.1))
}

/// A decoded box as a response payload: a raw volume for `LWCV` streams, a
/// PGM image for the 2-D formats.
fn decoded(plan: &DecodePlan<Vec<u8>>, stack: ImageStack) -> Result<Vec<u8>, Refusal> {
    if plan.is_volume() {
        return Ok(write_raw_volume(&stack));
    }
    let image = stack
        .into_image()
        .map_err(|e| (ErrorCode::Internal, format!("decompression failed: {e}")))?;
    let mut bytes = Vec::with_capacity(image.pixel_count() * 2 + 64);
    pgm::write_pgm(&image, &mut bytes)
        .map_err(|e| (ErrorCode::Internal, format!("PGM serialization failed: {e}")))?;
    Ok(bytes)
}

fn push_completion(shared: &Shared, token: usize, frame: Frame) {
    shared.completions.lock().expect("poisoned").push_back(Completion { token, frame });
    let _ = shared.poller.notify();
}

/// Refuses a response that would exceed the frame limit — the server never
/// emits a frame it would itself refuse to read.
fn ensure_frame_fits(shared: &Shared, payload: Vec<u8>) -> Result<Vec<u8>, Refusal> {
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

/// Refuses a decode whose response (PGM image or raw volume) could not fit
/// one frame under the server's payload limit — checked from the header
/// dimensions before any decode work, so a client can't make the server
/// decode terabytes it could never send back (and a legitimate-but-huge
/// stream gets a typed error instead of an unreadable oversized frame).
fn ensure_response_fits<B>(shared: &Shared, plan: &DecodePlan<B>) -> Result<(), Refusal> {
    let BrickRect { plane, depth, .. } = plan.region();
    let bit_depth = plan.bit_depth();
    let need = if plan.is_volume() {
        raw_volume_len(plane.width, plane.height, depth, bit_depth)
    } else {
        let per_sample: u128 = if bit_depth > 8 { 2 } else { 1 };
        plane.width as u128 * plane.height as u128 * per_sample + 64
    };
    if need > shared.config.max_payload_bytes as u128 {
        return Err((
            ErrorCode::FrameTooLarge,
            format!(
                "a {}x{}x{depth} {bit_depth}-bit box decompresses to ~{need} response bytes, \
                 beyond the {}-byte frame limit (raise --max-frame-mb, request a region, or \
                 decode locally)",
                plane.width, plane.height, shared.config.max_payload_bytes
            ),
        ));
    }
    Ok(())
}

/// The tile index prefixing a `decompress-tile` payload (one `u32` BE).
fn tile_index(payload: &[u8]) -> Result<usize, Refusal> {
    let bytes: [u8; 4] = payload.get(..4).and_then(|b| b.try_into().ok()).ok_or_else(|| {
        (
            ErrorCode::BadPayload,
            "decompress-tile payload must start with a 4-byte tile index".to_owned(),
        )
    })?;
    Ok(u32::from_be_bytes(bytes) as usize)
}

/// The box prefixing a `decompress-region` payload: six `u32` BE fields,
/// x, y, z, width, height, depth.
fn region_of(payload: &[u8]) -> Result<BrickRect, Refusal> {
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
    Ok(rect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use lwc_image::synth;

    /// A `compress` payload that plans [`PanicPlan`] instead of a PGM.
    pub(super) const PANIC_PROBE: &[u8] = b"panic probe";

    /// A two-part plan whose every part panics.
    pub(super) struct PanicPlan;

    impl Plan for PanicPlan {
        type Part = ();
        type Sink = ();
        type Output = ();

        fn parts(&self) -> usize {
            2
        }

        fn sink(&self) {}

        fn run(&self, index: usize) -> Result<(), PipelineError> {
            panic!("part {index} panics")
        }

        fn place(&self, (): &mut (), _: usize, (): ()) {}

        fn finish(&self, (): ()) -> Result<(), PipelineError> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_plan_answers_internal_once_and_the_server_keeps_serving() {
        // One worker runs the plan inline inside the request task; two fan
        // its parts out as tasks of their own.
        for workers in [1, 2] {
            let config = ServerConfig {
                workers,
                scales: 3,
                tile_size: 32,
                read_timeout: Duration::from_millis(20),
                ..ServerConfig::default()
            };
            let mut server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let err = client.request(Op::Compress, PANIC_PROBE.to_vec()).unwrap_err();
            assert!(
                matches!(err, ServerError::Remote { code: ErrorCode::Internal, .. }),
                "{workers} workers: {err}"
            );
            // A second reply to the panicking request would answer this one
            // (a request-id mismatch) and count a second error.
            let image = synth::ct_phantom(48, 40, 12, 1);
            let stream = client.compress_image(&image).expect("compress after the panic");
            assert_eq!(client.decompress(&stream).expect("decompress"), image);
            let stats = client.stats().expect("stats");
            assert!(stats.contains("\"error_replies\": 1,"), "{workers} workers: {stats}");
            assert!(stats.contains("\"in_flight\": 0,"), "{workers} workers: {stats}");
            // Every worker survived and went idle: shutdown drains and joins.
            server.shutdown();
        }
    }
}
