//! # lwc-server — the compression service
//!
//! The paper's architecture is a streaming producer/consumer pipeline:
//! stages coupled by bounded FIFOs, each sized so the datapath never stalls
//! and never buffers more than a few rows. This crate is that organisation
//! lifted to the network boundary — the serving layer the ROADMAP's
//! "millions of users" north star calls for, layered on the engines the
//! workspace already has:
//!
//! * [`protocol`] — the versioned, length-prefixed `LWCP` wire format
//!   ([`Frame`], [`Op`], typed [`ErrorCode`]s), with payload limits enforced
//!   *before* allocation,
//! * [`frame`] — blocking frame I/O for the client, plus the incremental
//!   [`FrameAccumulator`](frame::FrameAccumulator) the server's event loop
//!   parses with,
//! * [`Server`] — a **nonblocking event loop** (epoll on Linux via the
//!   vendored `polling` shim, poll(2) elsewhere): one I/O thread multiplexes
//!   every connection through per-connection state machines, and a
//!   [work-stealing scheduler](sched::WorkStealing) fans the parts of one
//!   large request's job [`Plan`](lwc_pipeline::Plan) — its tiles or
//!   bricks — across every codec worker.
//!   Backpressure is a **global in-flight budget** plus a per-connection
//!   cap: overload answers `busy` instead of buffering without bound (the
//!   FIFO-sizing trade-off made observable), and an optional content-hash
//!   LRU cache serves repeated payloads without touching the engine,
//! * [`Client`] — synchronous request/response plus pipelined multi-request
//!   submission over one connection,
//! * [`loadgen`] — a concurrent load generator measuring requests/s and
//!   MB/s against a live server (the data behind `BENCH_throughput.json`'s
//!   `serve` section),
//! * the `serve` binary — `cargo run -p lwc-server --bin serve` — which puts
//!   the service on a real port.
//!
//! ```
//! use lwc_image::synth;
//! use lwc_server::{Client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), lwc_server::ServerError> {
//! let config = ServerConfig { workers: 2, scales: 3, tile_size: 64, ..ServerConfig::default() };
//! let server = Server::bind("127.0.0.1:0", config)?;
//! let mut client = Client::connect(server.local_addr())?;
//! let image = synth::mr_slice(80, 60, 12, 5);
//! let stream = client.compress_image(&image)?;
//! let back = client.decompress(&stream)?;
//! assert_eq!(image.samples(), back.samples());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod client;
mod conn;
mod error;
pub mod frame;
pub mod loadgen;
pub mod protocol;
pub mod rawvol;
pub mod sched;
mod server;
mod stats;

pub use client::{Client, Response, PIPELINE_WINDOW};
pub use error::ServerError;
pub use loadgen::{LoadGenConfig, LoadReport};
pub use protocol::{ErrorCode, Frame, Op, DEFAULT_MAX_PAYLOAD_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
pub use stats::ServerStats;
