//! Intra-image parallelism for arbitrarily large images: the tile-sharded
//! lossless engine and its part codec.
//!
//! [`BatchCompressor`](crate::BatchCompressor) fans *images* across workers;
//! this engine fans the **tiles** of one image — with the bricks of
//! [`VolumeCompressor`](crate::VolumeCompressor), the only intra-image
//! parallel axis. Each tile of a [`TileGrid`] is an independent
//! [`LosslessCodec`] stream (transformed with the same boundary extension
//! the whole-image transform uses, just over the tile), wrapped in the
//! versioned [`lwc_coder::tiled`] container with a per-tile byte-offset
//! directory. That buys three things at once:
//!
//! * **scale** — the legacy stream format caps dimensions at 2^20 - 1 and the
//!   monolithic transform keeps the whole frame plus intermediates hot; tiles
//!   bound the working set per worker to one tile regardless of image size,
//! * **intra-image parallelism** — one 16k x 16k plate becomes thousands of
//!   independent encode/decode jobs for the worker pool,
//! * **bounded-memory decode** — [`TiledCompressor::decompress_row_bands`]
//!   walks the directory one tile-row at a time, so a consumer can stream a
//!   huge image top to bottom without ever materializing all of it.
//!
//! The legacy rule lives in this module's part codec, once: a single-tile
//! grid encodes to the legacy `LWC1`/`LWCQ` stream itself, and bytes that
//! are not `LWCT` decode as a one-tile stream.

use crate::engine::{parse_container, BrickEngine, Layer, Layers, PartCodec};
use crate::PipelineError;
use lwc_coder::bitio::BitReader;
use lwc_coder::{
    clamp_reconstruction, write_container, CoderError, ContainerHeader, LosslessCodec,
    StreamHeader, TiledHeader, TiledStream,
};
use lwc_image::{BrickGrid, BrickRect, Image, ImageStack, TileGrid, TileRect, VolumeView};
use std::fmt::Display;

/// Default nominal tile side: big enough to amortize per-tile headers and
/// keep deep decompositions meaningful, small enough that a tile (i32
/// samples plus codec scratch) stays comfortably inside L2.
pub const DEFAULT_TILE_SIZE: usize = 256;

/// Tile-parallel lossless codec for single large images: the
/// [`BrickEngine`] over [`LosslessCodec`] tiles.
///
/// Streams are deterministic for a given tile size — the worker count never
/// changes a byte — and a grid that degenerates to one tile emits the legacy
/// single-image stream unchanged, so `TiledCompressor` with a tile at least
/// as large as the image is **byte-identical** to [`LosslessCodec::compress`].
/// Decoding sniffs the container magic and accepts both formats; a legacy
/// stream is one tile. Near-lossless tiles are cross-checked against the
/// container's quantizer delta.
///
/// ```
/// use lwc_image::synth;
/// use lwc_pipeline::TiledCompressor;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let engine = TiledCompressor::new(4, 64, 0)?;
/// let image = synth::ct_phantom(200, 150, 12, 1); // ragged 64-pixel grid
/// let bytes = engine.compress(&image)?;
/// let back = engine.decompress(&bytes)?;
/// assert_eq!(image.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
pub type TiledCompressor = BrickEngine<LosslessCodec>;

impl TiledCompressor {
    /// Creates an engine with the given decomposition depth, square tile
    /// side and worker count. `workers == 0` selects the machine's available
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if `scales` is zero or the tile size is out of range.
    pub fn new(scales: u32, tile_size: usize, workers: usize) -> Result<Self, PipelineError> {
        Self::with_codec(LosslessCodec::new(scales)?, tile_size, tile_size, workers)
    }

    /// Wraps an existing codec with an explicit (possibly non-square) tile
    /// shape. `workers == 0` selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] if a tile dimension is zero or does
    /// not fit the per-tile stream format's 20-bit fields.
    pub fn with_codec(
        codec: LosslessCodec,
        tile_width: usize,
        tile_height: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        Self::build(codec, tile_width, tile_height, 1, workers)
    }

    /// The per-tile codec.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// The tile grid this engine would use for a `width x height` image.
    ///
    /// # Errors
    ///
    /// Returns an error for zero image dimensions.
    pub fn grid(&self, width: usize, height: usize) -> Result<TileGrid, PipelineError> {
        Ok(*self.bricks(width, height, 1)?.plane())
    }
}

/// Lossless 2-D tiles: each tile is one [`LosslessCodec`] stream.
impl PartCodec for LosslessCodec {
    type Header = TiledHeader;
    type Frame = Image;
    const VOLUME: bool = false;

    fn encode(&self, frame: &VolumeView<'_>, rect: BrickRect) -> Result<Vec<u8>, PipelineError> {
        let view = frame.slice(0).and_then(|slice| slice.subview(rect.plane));
        Ok(self.compress_view(&view.map_err(CoderError::from)?)?)
    }

    fn decode(
        &self,
        header: &TiledHeader,
        index: usize,
        rect: BrickRect,
        bytes: &[u8],
    ) -> Result<Vec<i32>, PipelineError> {
        let mut samples = vec![0; rect.plane.pixel_count()];
        let tile = format_args!("tile {index}");
        let container = (header.delta, header.bit_depth);
        decode_plane(self, bytes, container, rect.plane, &tile, &mut samples)?;
        clamp_reconstruction(&mut samples, header.bit_depth, header.delta);
        Ok(samples)
    }

    fn header(&self, grid: &BrickGrid, bit_depth: u32) -> Result<TiledHeader, PipelineError> {
        let plane = grid.plane();
        Ok(TiledHeader {
            width: plane.image_width(),
            height: plane.image_height(),
            bit_depth,
            scales: self.scales(),
            tile_width: plane.tile_width(),
            tile_height: plane.tile_height(),
            delta: self.delta(),
        })
    }

    fn check(&self, header: &TiledHeader) -> Result<(), PipelineError> {
        Ok(header.ensure_scales(self.scales())?)
    }

    fn for_header(header: &TiledHeader) -> Result<Self, PipelineError> {
        Ok(Self::new(header.scales)?)
    }

    /// An `LWCT` container, or else a legacy stream: one tile covering the
    /// image, whose header stands in for the container's.
    fn parse(bytes: &[u8]) -> Result<(TiledHeader, Vec<u64>), PipelineError> {
        if TiledStream::sniff(bytes) {
            return parse_container(bytes);
        }
        let legacy = StreamHeader::read(&mut BitReader::new(bytes))?;
        // The sink is sized from the header before any payload is read.
        legacy.ensure_plausible_length(bytes.len())?;
        let header = TiledHeader {
            width: legacy.width,
            height: legacy.height,
            bit_depth: legacy.bit_depth,
            scales: legacy.scales,
            tile_width: legacy.width,
            tile_height: legacy.height,
            delta: legacy.delta,
        };
        Ok((header, vec![0, bytes.len() as u64]))
    }

    /// The `LWCT` container, or for a single-tile grid the legacy stream its
    /// one part already is.
    fn assemble(header: &TiledHeader, mut parts: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one part"));
        }
        Ok(write_container(header, &parts)?)
    }
}

/// Entropy decodes one `LWC1`/`LWCQ` stream of a part — a tile, or a
/// coefficient plane of a brick — and runs its inverse cascade straight into
/// `out`, after checking the stream's header against its `container`: the
/// quantizer delta the container implies, the bit depth, and the part's
/// `rect`. `part` names the stream in errors.
pub(crate) fn decode_plane(
    codec: &LosslessCodec,
    bytes: &[u8],
    (delta, bit_depth): (u8, u32),
    rect: TileRect,
    part: &dyn Display,
    out: &mut [i32],
) -> Result<(), CoderError> {
    let (stream, subbands) = codec.decode_subbands(bytes)?;
    let mismatch = if stream.delta != delta {
        format!("carries quantizer delta {} but the container implies {delta}", stream.delta)
    } else if (stream.width, stream.height) != (rect.width, rect.height) {
        let (width, height) = (stream.width, stream.height);
        format!("decodes to {width}x{height} but the grid places {}x{}", rect.width, rect.height)
    } else if stream.bit_depth != bit_depth {
        format!("carries {}-bit samples but the container says {bit_depth}-bit", stream.bit_depth)
    } else {
        return codec.reassemble_into(&stream, &subbands, out);
    };
    Err(CoderError::MalformedStream(format!("{part} {mismatch}")))
}

/// One horizontal band of a streamed tiled decode; see
/// [`TiledCompressor::decompress_row_bands`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBand {
    /// Row of the full image where this band starts.
    pub y: usize,
    /// The decoded band (full image width, one tile-row tall).
    pub image: Image,
}

/// Iterator over the row bands of a compressed stream, yielded top to
/// bottom: each band is the stream's decode plan narrowed to one tile-row.
pub type RowBands<'a> = Layers<'a, RowBand>;

impl Layer for RowBand {
    fn rect(grid: &BrickGrid, index: usize) -> Option<BrickRect> {
        let plane = grid.plane();
        let band = (index < plane.tiles_y()).then(|| plane.rect_at(0, index))?;
        Some(BrickRect { plane: TileRect { width: plane.image_width(), ..band }, z: 0, depth: 1 })
    }

    fn new(rect: BrickRect, stack: ImageStack) -> Result<Self, PipelineError> {
        Ok(Self { y: rect.plane.y, image: stack.into_image().map_err(CoderError::from)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::tiled::TILED_HEADER_BYTES;
    use lwc_image::{stats, synth};

    #[test]
    fn multi_tile_roundtrip_is_lossless() {
        let engine = TiledCompressor::new(3, 32, 3).unwrap();
        for image in [
            synth::ct_phantom(100, 60, 12, 1),  // ragged both edges
            synth::random_image(64, 64, 12, 2), // exact grid
            synth::mr_slice(33, 97, 12, 3),     // ragged, odd dims
        ] {
            let bytes = engine.compress(&image).unwrap();
            let back = engine.decompress(&bytes).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap());
        }
    }

    #[test]
    fn single_tile_grid_is_byte_identical_to_the_legacy_codec() {
        let engine = TiledCompressor::new(4, 256, 2).unwrap();
        let image = synth::ct_phantom(96, 64, 12, 7);
        let tiled = engine.compress(&image).unwrap();
        let legacy = engine.codec().compress(&image).unwrap();
        assert_eq!(tiled, legacy);
        assert!(!TiledStream::sniff(&tiled));
        // And the engine decodes plain legacy streams.
        let back = engine.decompress(&legacy).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn streams_do_not_depend_on_the_worker_count() {
        let image = synth::ct_phantom(150, 110, 12, 5);
        let reference = TiledCompressor::new(3, 48, 1).unwrap().compress(&image).unwrap();
        for workers in [2, 3, 8] {
            let engine = TiledCompressor::new(3, 48, workers).unwrap();
            assert_eq!(engine.compress(&image).unwrap(), reference, "{workers} workers");
        }
    }

    #[test]
    fn row_band_streaming_decode_reassembles_the_image() {
        let engine = TiledCompressor::new(3, 32, 2).unwrap();
        let image = synth::mr_slice(100, 83, 12, 9);
        let bytes = engine.compress(&image).unwrap();
        let mut rebuilt = Image::zeros(100, 83, 12).unwrap();
        let mut bands = 0;
        let mut next_y = 0;
        for band in engine.decompress_row_bands(&bytes) {
            let band = band.unwrap();
            assert_eq!(band.y, next_y, "bands arrive top to bottom");
            assert_eq!(band.image.width(), 100);
            next_y += band.image.height();
            let rect = lwc_image::TileRect {
                x: 0,
                y: band.y,
                width: band.image.width(),
                height: band.image.height(),
            };
            rebuilt.view_rect_mut(rect).unwrap().copy_from_image(&band.image).unwrap();
            bands += 1;
        }
        assert_eq!(bands, 83usize.div_ceil(32));
        assert_eq!(next_y, 83);
        assert!(stats::bit_exact(&image, &rebuilt).unwrap());
    }

    #[test]
    fn legacy_streams_stream_as_one_band() {
        let engine = TiledCompressor::new(3, 256, 2).unwrap();
        let image = synth::ct_phantom(64, 64, 12, 0);
        let bytes = engine.codec().compress(&image).unwrap();
        let bands: Vec<RowBand> = engine.decompress_row_bands(&bytes).map(|b| b.unwrap()).collect();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].y, 0);
        assert!(stats::bit_exact(&image, &bands[0].image).unwrap());
    }

    #[test]
    fn single_tiles_decode_independently_and_match_their_crops() {
        let engine = TiledCompressor::new(3, 32, 2).unwrap();
        let image = synth::ct_phantom(100, 60, 12, 6);
        let bytes = engine.compress(&image).unwrap();
        let grid = engine.grid(100, 60).unwrap();
        for index in 0..grid.tile_count() {
            let tile = engine.decompress_tile(&bytes, index).unwrap();
            let expected = image.crop(grid.rect(index)).unwrap();
            assert!(stats::bit_exact(&expected, &tile).unwrap(), "tile {index}");
        }
        // Out-of-range indices are typed errors, not panics.
        assert!(engine.decompress_tile(&bytes, grid.tile_count()).is_err());
    }

    #[test]
    fn legacy_streams_are_a_single_tile() {
        let engine = TiledCompressor::new(3, 256, 2).unwrap();
        let image = synth::mr_slice(64, 48, 12, 8);
        let legacy = engine.codec().compress(&image).unwrap();
        let tile = engine.decompress_tile(&legacy, 0).unwrap();
        assert!(stats::bit_exact(&image, &tile).unwrap());
        assert!(engine.decompress_tile(&legacy, 1).is_err());
        // A flipped magic and a truncated stream are errors on every legacy
        // entry point.
        let mut bad_magic = legacy.clone();
        bad_magic[0] ^= 0xFF;
        let truncated = &legacy[..legacy.len() / 2];
        for bad in [&bad_magic[..], truncated] {
            assert!(engine.decompress(bad).is_err());
            assert!(engine.decompress_tile(bad, 0).is_err());
            assert!(engine.decompress_row_bands(bad).next().unwrap().is_err());
        }
    }

    #[test]
    fn sniffing_short_buffers_returns_typed_errors() {
        // Regression: every 0..8-byte prefix of both container formats (and
        // raw garbage) must surface as Err from the magic-sniffing entry
        // points, never a panic or slice failure.
        let engine = TiledCompressor::new(3, 32, 2).unwrap();
        let image = synth::ct_phantom(70, 50, 12, 2);
        let tiled = engine.compress(&image).unwrap();
        let legacy = engine.codec().compress(&image).unwrap();
        for stream in [&tiled, &legacy, &vec![0xA5u8; 8]] {
            for len in 0..=8.min(stream.len()) {
                let prefix = &stream[..len];
                assert!(engine.decompress(prefix).is_err(), "decompress, prefix {len}");
                assert!(engine.decompress_tile(prefix, 0).is_err(), "tile, prefix {len}");
                // The row-band iterator yields the failure as its first item.
                let first = engine.decompress_row_bands(prefix).next();
                assert!(matches!(first, Some(Err(_))), "bands, prefix {len}");
            }
        }
    }

    #[test]
    fn corrupt_containers_are_rejected() {
        let engine = TiledCompressor::new(3, 32, 2).unwrap();
        let image = synth::ct_phantom(100, 60, 12, 4);
        let bytes = engine.compress(&image).unwrap();
        // Truncations at every structural boundary.
        for len in [2, TILED_HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
            assert!(engine.decompress(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        // A flipped payload byte corrupts exactly one tile.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(engine.decompress(&flipped).is_err());
        // Mismatched codec depth.
        let other = TiledCompressor::new(4, 32, 2).unwrap();
        assert!(other.decompress(&bytes).is_err());
    }

    #[test]
    fn near_lossless_roundtrips_stay_within_the_bound() {
        let image = synth::ct_phantom(100, 60, 12, 11);
        for delta in [1u8, 2, 4, 8] {
            let codec = LosslessCodec::near_lossless(3, delta).unwrap();
            let engine = TiledCompressor::with_codec(codec, 32, 32, 2).unwrap();
            let bytes = engine.compress(&image).unwrap();
            assert!(TiledStream::sniff(&bytes));
            assert!(engine.decompress_row_bands(&bytes).all(|band| band.is_ok()));
            let back = engine.decompress(&bytes).unwrap();
            let err = stats::max_abs_diff(&image, &back).unwrap();
            assert!(err <= i32::from(delta), "delta {delta}: max error {err}");
            // Tile access and band streaming honor the bound too.
            let tile = engine.decompress_tile(&bytes, 0).unwrap();
            let rect = engine.grid(100, 60).unwrap().rect(0);
            let crop = image.crop(rect).unwrap();
            assert!(stats::max_abs_diff(&crop, &tile).unwrap() <= i32::from(delta));
        }
    }

    #[test]
    fn zero_delta_engines_are_byte_identical_to_lossless_ones() {
        let image = synth::mr_slice(100, 60, 12, 12);
        let lossless = TiledCompressor::new(3, 32, 2).unwrap();
        let near =
            TiledCompressor::with_codec(LosslessCodec::near_lossless(3, 0).unwrap(), 32, 32, 2)
                .unwrap();
        assert_eq!(lossless.compress(&image).unwrap(), near.compress(&image).unwrap());
    }

    #[test]
    fn tiles_with_mismatched_quantizer_deltas_are_rejected() {
        // A container whose header claims delta = 2 but whose tiles were
        // coded losslessly is a forgery: the per-tile cross-check must catch
        // it before any tile is trusted.
        let engine = TiledCompressor::new(3, 32, 2).unwrap();
        let image = synth::ct_phantom(100, 60, 12, 13);
        let grid = engine.grid(100, 60).unwrap();
        let bytes = engine.compress(&image).unwrap();
        let stream = TiledStream::parse(&bytes).unwrap();
        let payloads: Vec<Vec<u8>> =
            (0..grid.tile_count()).map(|i| stream.part_bytes(i).to_vec()).collect();
        let header = TiledHeader {
            width: 100,
            height: 60,
            bit_depth: 12,
            scales: 3,
            tile_width: grid.tile_width(),
            tile_height: grid.tile_height(),
            delta: 2,
        };
        let forged = write_container(&header, &payloads).unwrap();
        match engine.decompress(&forged) {
            Err(PipelineError::Coder(CoderError::MalformedStream(msg))) => {
                assert!(msg.contains("quantizer delta"), "{msg}");
            }
            other => panic!("expected MalformedStream, got {other:?}"),
        }
    }

    #[test]
    fn invalid_tile_shapes_are_rejected() {
        assert!(TiledCompressor::new(3, 0, 1).is_err());
        let codec = LosslessCodec::new(3).unwrap();
        assert!(TiledCompressor::with_codec(codec, 1 << 20, 32, 1).is_err());
        assert!(TiledCompressor::with_codec(codec, 32, 0, 1).is_err());
    }

    #[test]
    fn zero_workers_selects_available_parallelism_and_report_counts_tiles() {
        let engine = TiledCompressor::new(2, 16, 0).unwrap();
        assert!(engine.workers() >= 1);
        let image = synth::ct_phantom(48, 48, 12, 2);
        let (bytes, report) = engine.compress_with_report(&image).unwrap();
        assert_eq!(report.tiles, 9);
        assert_eq!(report.compressed_bytes, bytes.len());
        assert_eq!(report.raw_bytes, (48 * 48 * 12usize).div_ceil(8));
        assert!(report.tiles_per_second() > 0.0);
        assert!(report.ratio() > 0.0);
    }
}
