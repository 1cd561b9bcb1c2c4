//! # lwc-pipeline — multithreaded batch compression engine
//!
//! The paper's architecture earns its throughput from pipelining: the row and
//! column passes of the 2-D DWT overlap in hardware, and one image follows
//! the next through the datapath with no dead cycles. This crate is the
//! software analogue of that organisation, layered on the bit-exact models of
//! the rest of the workspace:
//!
//! * [`BatchCompressor`] — *inter-image* parallelism: a batch of images is
//!   fanned across worker threads, each running the end-to-end Rice codec
//!   ([`lwc_coder::LosslessCodec`]). Streams are byte-identical to the
//!   sequential codec and come back in input order.
//! * [`BrickEngine`] — the one *intra-image* parallel engine: tile shape,
//!   brick depth and workers, one encode plan ([`EncodePlan`]), one decode
//!   plan ([`DecodePlan`]) and one streaming layer iterator ([`Layers`]),
//!   over a crate-private part codec per container format that codes one
//!   tile or brick. A 2-D frame is a one-slice volume, so the three engines
//!   below are its three instances.
//! * [`TiledCompressor`] — *intra-image* parallelism at the **tile** level:
//!   the image is sharded by a [`lwc_image::TileGrid`] into independently
//!   coded tiles wrapped in the versioned `LWCT` container
//!   ([`lwc_coder::tiled`]), lifting the whole-image size limit, fanning one
//!   large image across the pool, and enabling bounded-memory row-band
//!   streaming decode ([`TiledCompressor::decompress_row_bands`]).
//! * [`BatchCompressor::compress_iter`] / [`BatchCompressor::decompress_iter`]
//!   — the streaming form: images are pulled from the source a bounded
//!   window at a time, each window runs on the worker pool, and compressed
//!   streams come out in order, so an arbitrarily long study never has to
//!   be resident in memory at once.
//! * [`TiledFixedCompressor`] — the **complete paper-exact codec**: the
//!   same tile sharding applied to the fixed-point datapath. Every tile runs
//!   through the line-buffer cascade [`lwc_dwt::LineFixedDwt`], whose words
//!   are bit-identical to the multi-pass [`lwc_dwt::FixedDwt2d`] transform
//!   of that region, into the fixed-word Rice coder
//!   ([`lwc_coder::FixedSubbandCodec`]), wrapped in the versioned `LWCF`
//!   container. This is the end-to-end realization of the paper's
//!   architecture — Table I banks at Table II word lengths with an entropy
//!   back end — rather than the engineering-preferred lifting path.
//! * [`VolumeCompressor`] — the **volumetric** engine: an
//!   [`lwc_image::ImageStack`] is sharded by a [`lwc_image::BrickGrid`] into
//!   bricks, each brick runs a separable 3-D DWT (the reversible 5/3 kernel
//!   along z composed with the 2-D transform per coefficient plane) and the
//!   per-plane streams ride in the versioned `LWCV` container
//!   ([`lwc_coder::volume`]). Bricks encode and decode brick-parallel with
//!   worker-count-independent bytes, decode can stream one brick layer at a
//!   time ([`VolumeCompressor::decompress_slabs`]), and at `z_scales = 0`
//!   every plane substream is byte-identical to the 2-D tiled path.
//! * **Near-lossless mode** — the lifting engines ([`TiledCompressor`],
//!   [`VolumeCompressor`], [`BatchCompressor`]) accept
//!   an [`lwc_coder::LosslessCodec::near_lossless`] configuration: detail
//!   subbands are uniformly quantized under a deterministic schedule derived
//!   from a per-pixel error bound `δ` ([`lwc_coder::QuantSchedule`]), the
//!   bound is enforced end to end (`max|orig − recon| ≤ δ`, with the z-axis
//!   synthesis gain accounted for in the volumetric path via
//!   [`lwc_coder::plane_delta_for_volume`]), and `δ = 0` is byte-identical
//!   to the lossless streams.
//! * [`BatchReport`] — wall-clock throughput of a batch run (MB/s, images/s,
//!   compression ratio).
//!
//! * [`Plan`] — the one shape of every tile and brick operation: `n`
//!   independent parts, `run(i)`, and a step placing each part into the
//!   output. The engine builds encode plans and [`DecodePlan`]s over a
//!   requested box (whole image or volume, tile, band, slab, region) and
//!   runs them with [`Plan::execute`]; the server runs the same plans part
//!   by part on its own scheduler. [`DecodePlan::sniff`] reads a stream's
//!   header once and builds the plan, with the part codec that header
//!   calls for, so format dispatch is one function ([`decompress_auto`] for
//!   a whole 2-D stream).
//!
//! Tiles and bricks are the only *intra-image* parallel axis: a frame that
//! fits one tile is coded by the sequential [`lwc_coder::LosslessCodec`]
//! (splitting one frame by subband or by row measured slower than its
//! single-pass line cascade), and every tile, brick, batch and streaming
//! fan-out above runs on the same scoped work-stealing helper, which turns a
//! panicking job into a typed [`PipelineError`] instead of unwinding into
//! the caller.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod engine;
mod error;
mod plan;
mod pool;
mod report;
mod stream;
mod tiled;
mod tiledfixed;
mod volume;

pub use batch::BatchCompressor;
pub use engine::{BrickEngine, EncodePlan, Layers};
pub use error::PipelineError;
pub use plan::{decompress_auto, DecodePlan, Plan};
pub use report::{BatchReport, TiledReport};
pub use stream::OrderedStream;
pub use tiled::{RowBand, RowBands, TiledCompressor, DEFAULT_TILE_SIZE};
pub use tiledfixed::TiledFixedCompressor;
pub use volume::{scatter_region, VolumeCompressor, VolumeSlab, VolumeSlabs, DEFAULT_BRICK_DEPTH};
