//! Intra-image parallelism for arbitrarily large images: the tile-sharded
//! compression engine.
//!
//! [`BatchCompressor`](crate::BatchCompressor) fans *images* across workers;
//! this module fans the **tiles** of one image — with the bricks of
//! [`VolumeCompressor`](crate::VolumeCompressor), the only intra-image
//! parallel axis. Each tile of a
//! [`TileGrid`] is an independent [`LosslessCodec`] stream (transformed with
//! the same boundary extension the whole-image transform uses, just over the
//! tile), wrapped in the versioned [`lwc_coder::tiled`] container with a
//! per-tile byte-offset directory. That buys three things at once:
//!
//! * **scale** — the legacy stream format caps dimensions at 2^20 - 1 and the
//!   monolithic transform keeps the whole frame plus intermediates hot; tiles
//!   bound the working set per worker to one tile regardless of image size,
//! * **intra-image parallelism** — one 16k x 16k plate becomes thousands of
//!   independent encode/decode jobs for the worker pool,
//! * **bounded-memory decode** — [`TiledCompressor::decompress_row_bands`]
//!   walks the directory one tile-row at a time, so a consumer can stream a
//!   huge image top to bottom without ever materializing all of it.

use crate::plan::PartDecoder;
use crate::pool::resolve_workers;
use crate::report::TiledReport;
use crate::{DecodePlan, PipelineError, Plan};
use lwc_coder::bitio::BitReader;
use lwc_coder::{
    check_tile_sides, write_container, CoderError, LosslessCodec, StreamHeader, TiledHeader,
    TiledStream,
};
use lwc_image::{BrickRect, Image, TileGrid, TileRect};
use std::borrow::Borrow;
use std::time::Instant;

/// Default nominal tile side: big enough to amortize per-tile headers and
/// keep deep decompositions meaningful, small enough that a tile (i32
/// samples plus codec scratch) stays comfortably inside L2.
pub const DEFAULT_TILE_SIZE: usize = 256;

/// Tile-parallel lossless codec for single large images.
///
/// Streams are deterministic for a given tile size — the worker count never
/// changes a byte — and a grid that degenerates to one tile emits the legacy
/// single-image stream unchanged, so `TiledCompressor` with a tile at least
/// as large as the image is **byte-identical** to [`LosslessCodec::compress`].
/// Decoding sniffs the container magic and accepts both formats.
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
#[derive(Debug, Clone, Copy)]
pub struct TiledCompressor {
    codec: LosslessCodec,
    tile_width: usize,
    tile_height: usize,
    workers: usize,
}

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
        check_tile_shape(tile_width, tile_height)?;
        let workers = resolve_workers(workers);
        Ok(Self { codec, tile_width, tile_height, workers })
    }

    /// The per-tile codec.
    #[must_use]
    pub fn codec(&self) -> &LosslessCodec {
        &self.codec
    }

    /// Nominal tile width.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Nominal tile height.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_height
    }

    /// Worker threads used per image.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tile grid this engine would use for a `width x height` image.
    ///
    /// # Errors
    ///
    /// Returns an error for zero image dimensions.
    pub fn grid(&self, width: usize, height: usize) -> Result<TileGrid, PipelineError> {
        TileGrid::new(width, height, self.tile_width, self.tile_height)
            .map_err(|e| PipelineError::Config(format!("invalid tile grid: {e}")))
    }

    /// Compresses `image`, fanning the tiles across the worker pool.
    ///
    /// Single-tile grids produce the legacy stream byte-identically; larger
    /// grids produce the tiled container. Either way the bytes depend only on
    /// the image and the tile shape, never on the worker count.
    ///
    /// # Errors
    ///
    /// Returns the first per-tile codec error, if any.
    pub fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        Ok(self.compress_with_report(image)?.0)
    }

    /// Compresses and reports tile-level throughput.
    ///
    /// # Errors
    ///
    /// See [`TiledCompressor::compress`].
    pub fn compress_with_report(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let start = Instant::now();
        let plan = self.encode_plan(image)?;
        let bytes = plan.execute(self.workers)?;
        let report = TiledReport {
            tiles: plan.parts(),
            raw_bytes: (image.pixel_count() * image.bit_depth() as usize).div_ceil(8),
            compressed_bytes: bytes.len(),
            workers: self.workers.min(plan.parts()),
            wall: start.elapsed(),
        };
        Ok((bytes, report))
    }

    /// The encode plan of `image`: one part per tile of its grid. `I` owns
    /// or borrows the image.
    ///
    /// # Errors
    ///
    /// Returns an error for zero image dimensions.
    pub fn encode_plan<I: Borrow<Image>>(
        &self,
        image: I,
    ) -> Result<TileEncodePlan<I>, PipelineError> {
        let grid = self.grid(image.borrow().width(), image.borrow().height())?;
        Ok(TileEncodePlan { engine: *self, image, grid })
    }

    /// Compresses one tile of `image` (row-major `index` of `grid`) into
    /// its standalone per-tile stream — the unit a scheduler can fan across
    /// workers. Byte-identical to the payload
    /// [`TiledCompressor::compress`] places in the container's `index`
    /// directory slot, by construction: `compress` itself is built on this.
    /// For a single-tile grid the payload is the legacy stream itself.
    ///
    /// # Errors
    ///
    /// Returns the tile's codec error; `grid` must describe `image` (an
    /// out-of-bounds rectangle surfaces as a view error).
    pub fn encode_tile(
        &self,
        image: &Image,
        grid: &TileGrid,
        index: usize,
    ) -> Result<Vec<u8>, PipelineError> {
        let view = image.view_rect(grid.rect(index)).map_err(CoderError::from)?;
        Ok(self.codec.compress_view(&view)?)
    }

    /// Assembles per-tile payloads (row-major `grid` order, one per tile,
    /// as produced by [`TiledCompressor::encode_tile`]) into the `LWCT`
    /// container [`TiledCompressor::compress`] writes for a multi-tile
    /// grid (a single-tile grid emits its one payload, the legacy stream,
    /// instead).
    ///
    /// # Errors
    ///
    /// Returns a container error if the payload count disagrees with the
    /// grid or an offset overflows the directory format.
    pub fn assemble_container(
        &self,
        grid: &TileGrid,
        bit_depth: u32,
        payloads: &[Vec<u8>],
    ) -> Result<Vec<u8>, PipelineError> {
        let header = TiledHeader {
            width: grid.image_width(),
            height: grid.image_height(),
            bit_depth,
            scales: self.codec.scales(),
            tile_width: grid.tile_width(),
            tile_height: grid.tile_height(),
            delta: self.codec.delta(),
        };
        Ok(write_container(&header, payloads)?)
    }

    /// Reconstructs the image from a tiled container **or** a legacy
    /// single-image stream (the magic is sniffed). Lossless streams
    /// reconstruct pixel-exactly; near-lossless streams reconstruct within
    /// the per-pixel bound `δ` their headers declare (each tile's stream
    /// header is cross-checked against the container's quantizer delta).
    ///
    /// Each tile is placed into the frame as it finishes decoding, so peak
    /// memory stays at the output frame plus one tile per worker — not two
    /// copies of the image.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// tiles that disagree with the container's grid geometry.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        Ok(self
            .decode_plan(bytes)?
            .execute(self.workers)?
            .into_image()
            .map_err(CoderError::from)?)
    }

    /// The decode plan of a tiled container or a legacy single-image stream
    /// (the magic is sniffed), over the whole image; `B` owns or borrows the
    /// bytes. The container is parsed and validated here, once.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed header or directory, or a container
    /// coded at a different depth than this engine's codec.
    pub fn decode_plan<B: AsRef<[u8]>>(&self, bytes: B) -> Result<DecodePlan<B>, PipelineError> {
        if !TiledStream::sniff(bytes.as_ref()) {
            return DecodePlan::legacy(self.codec, bytes);
        }
        DecodePlan::container(bytes, |header: TiledHeader| {
            self.ensure_scales(&header)?;
            Ok(PartDecoder::Tiled(*self, header))
        })
    }

    /// Random tile access: decodes exactly one tile (row-major `index`) of a
    /// tiled container without touching any other tile — the directory's
    /// 48-bit byte offsets make this a slice-and-decode, not a scan. A
    /// legacy single-image stream counts as one tile (index 0 yields the
    /// whole image), so callers can treat every stream uniformly.
    ///
    /// This is the code path behind the server's `decompress-tile` op and
    /// the natural seed for region-of-interest decode.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams, mismatched configuration, or
    /// an `index` outside the container's tile grid.
    pub fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        if !TiledStream::sniff(bytes) {
            if index != 0 {
                return Err(CoderError::MalformedStream(format!(
                    "tile index {index} out of range: a legacy stream is a single tile"
                ))
                .into());
            }
            return Ok(self.codec.decompress(bytes)?);
        }
        self.decompress_parsed_tile(&TiledStream::parse(bytes)?, index)
    }

    /// [`TiledCompressor::decompress_tile`] over an already-parsed container
    /// — the path for callers that hold a [`TiledStream`] (e.g. a server
    /// that parsed it once to learn the tile count) and must not pay for a
    /// second directory parse per tile.
    ///
    /// # Errors
    ///
    /// See [`TiledCompressor::decompress_tile`].
    pub fn decompress_parsed_tile(
        &self,
        stream: &TiledStream<'_>,
        index: usize,
    ) -> Result<Image, PipelineError> {
        self.ensure_scales(stream.header())?;
        let grid = stream.grid()?;
        if index >= grid.tile_count() {
            return Err(CoderError::MalformedStream(format!(
                "tile index {index} out of range: the container has {} tiles",
                grid.tile_count()
            ))
            .into());
        }
        Ok(self.decode_tile(stream.header(), index, grid.rect(index), stream.part_bytes(index))?)
    }

    /// Streaming decode: yields the image one tile-row **band** at a time
    /// (top to bottom), decoding each band's tiles on the worker pool. Peak
    /// memory is bounded by one band — the `image_width x tile_height` band
    /// image plus one decoded tile per worker placed into it — plus the
    /// compressed bytes, regardless of the image height. Legacy
    /// streams yield a single band covering the whole image.
    ///
    /// # Errors
    ///
    /// Returns an error if the container header or directory is malformed;
    /// per-band decode errors surface through the iterator's items.
    pub fn decompress_row_bands<'a>(&self, bytes: &'a [u8]) -> Result<RowBands<'a>, PipelineError> {
        let plan = match self.decode_plan(bytes) {
            // A legacy stream's header errors surface through its one band,
            // as its decode errors do.
            Err(error) if !TiledStream::sniff(bytes) => Err(Some(error)),
            plan => Ok(plan?),
        };
        Ok(RowBands { plan, workers: self.workers, next_row: 0 })
    }

    fn ensure_scales(&self, header: &TiledHeader) -> Result<(), PipelineError> {
        if header.scales != self.codec.scales() {
            return Err(CoderError::UnsupportedFormat(format!(
                "tiled stream uses {} scales but the codec is configured for {}",
                header.scales,
                self.codec.scales()
            ))
            .into());
        }
        Ok(())
    }

    /// Decodes one tile payload (row-major `index`, placed at `rect`),
    /// validating it against the container header and its grid rectangle.
    pub(crate) fn decode_tile(
        &self,
        header: &TiledHeader,
        index: usize,
        rect: TileRect,
        bytes: &[u8],
    ) -> Result<Image, CoderError> {
        let tile_header = StreamHeader::read(&mut BitReader::new(bytes))?;
        if tile_header.delta != header.delta {
            return Err(CoderError::MalformedStream(format!(
                "tile {index} carries quantizer delta {} but the container header says {}",
                tile_header.delta, header.delta
            )));
        }
        let tile = self.codec.decompress(bytes)?;
        if tile.width() != rect.width || tile.height() != rect.height {
            return Err(CoderError::MalformedStream(format!(
                "tile {index} decodes to {}x{} but the grid places a {}x{} tile there",
                tile.width(),
                tile.height(),
                rect.width,
                rect.height
            )));
        }
        if tile.bit_depth() != header.bit_depth {
            return Err(CoderError::MalformedStream(format!(
                "tile {index} carries {}-bit pixels but the container header says {}-bit",
                tile.bit_depth(),
                header.bit_depth
            )));
        }
        Ok(tile)
    }
}

/// Refuses a tile shape no container can carry: a zero side, or one the
/// coder's tile-side rule ([`check_tile_sides`]) rejects. Every engine
/// constructor checks its tiles here.
pub(crate) fn check_tile_shape(tile_width: usize, tile_height: usize) -> Result<(), PipelineError> {
    if tile_width == 0 || tile_height == 0 {
        return Err(PipelineError::Config("tile dimensions must be nonzero".into()));
    }
    check_tile_sides(tile_width, tile_height).map_err(|e| PipelineError::Config(e.to_string()))
}

/// The encode plan of a [`TiledCompressor`]: one part per tile, assembled
/// into the `LWCT` container — or, for a single-tile grid, the legacy
/// stream the one part already is.
pub struct TileEncodePlan<I> {
    engine: TiledCompressor,
    image: I,
    grid: TileGrid,
}

impl<I: Borrow<Image> + Send + Sync> Plan for TileEncodePlan<I> {
    type Part = Vec<u8>;
    type Sink = Vec<Vec<u8>>;
    type Output = Vec<u8>;

    fn parts(&self) -> usize {
        self.grid.tile_count()
    }

    fn sink(&self) -> Vec<Vec<u8>> {
        vec![Vec::new(); self.parts()]
    }

    fn run(&self, index: usize) -> Result<Vec<u8>, PipelineError> {
        self.engine.encode_tile(self.image.borrow(), &self.grid, index)
    }

    fn place(&self, sink: &mut Vec<Vec<u8>>, index: usize, part: Vec<u8>) {
        sink[index] = part;
    }

    fn finish(&self, mut sink: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        if self.grid.is_single() {
            return Ok(sink.pop().expect("a single-tile grid has one part"));
        }
        self.engine.assemble_container(&self.grid, self.image.borrow().bit_depth(), &sink)
    }
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
pub struct RowBands<'a> {
    /// The stream's plan, or the error building it (yielded as the first
    /// item).
    plan: Result<DecodePlan<&'a [u8]>, Option<PipelineError>>,
    workers: usize,
    next_row: usize,
}

impl<'a> RowBands<'a> {
    pub(crate) fn new(plan: DecodePlan<&'a [u8]>, workers: usize) -> Self {
        Self { plan: Ok(plan), workers, next_row: 0 }
    }
}

impl Iterator for RowBands<'_> {
    type Item = Result<RowBand, PipelineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let plan = match &mut self.plan {
            Ok(plan) => plan,
            Err(error) => return error.take().map(Err),
        };
        let grid = *plan.grid().plane();
        if self.next_row >= grid.tiles_y() {
            return None;
        }
        let band = TileRect { width: grid.image_width(), ..grid.rect_at(0, self.next_row) };
        self.next_row += 1;
        let image = plan
            .select(BrickRect { plane: band, z: 0, depth: 1 })
            .and_then(|()| plan.execute(self.workers))
            .and_then(|stack| Ok(stack.into_image().map_err(CoderError::from)?));
        Some(image.map(|image| RowBand { y: band.y, image }))
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
    fn per_tile_encode_plus_assembly_matches_compress() {
        // The scheduler's fan-out path must reproduce `compress` exactly —
        // tile payloads encoded one by one, container assembled at the end.
        for engine in
            [TiledCompressor::new(3, 32, 2).unwrap(), TiledCompressor::new(3, 32, 1).unwrap()]
        {
            let image = synth::ct_phantom(100, 60, 12, 6);
            let reference = engine.compress(&image).unwrap();
            let grid = engine.grid(100, 60).unwrap();
            let payloads: Vec<Vec<u8>> = (0..grid.tile_count())
                .map(|i| engine.encode_tile(&image, &grid, i).unwrap())
                .collect();
            let assembled = engine.assemble_container(&grid, image.bit_depth(), &payloads).unwrap();
            assert_eq!(assembled, reference);
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
        for band in engine.decompress_row_bands(&bytes).unwrap() {
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
        let bands: Vec<RowBand> =
            engine.decompress_row_bands(&bytes).unwrap().map(|b| b.unwrap()).collect();
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
            assert!(engine.decompress_row_bands(bad).unwrap().next().unwrap().is_err());
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
                // The row-band iterator may defer the failure to the first
                // item (legacy sniff) — either way it must be an Err.
                match engine.decompress_row_bands(prefix) {
                    Err(_) => {}
                    Ok(mut bands) => {
                        assert!(matches!(bands.next(), Some(Err(_))), "bands, prefix {len}");
                    }
                }
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
            assert!(engine.decompress_row_bands(&bytes).is_ok());
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
        let payloads: Vec<Vec<u8>> =
            (0..grid.tile_count()).map(|i| engine.encode_tile(&image, &grid, i).unwrap()).collect();
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
