//! End-to-end compression on the **paper-exact fixed-point** datapath: the
//! tile-parallel `LWCF` engine.
//!
//! [`TiledCompressor`](crate::TiledCompressor) pairs the lifting transform
//! with the Rice coder; this module closes the same loop for the datapath the
//! paper actually builds. A [`TiledFixedCompressor`] cuts the frame into a
//! [`TileGrid`], runs every tile's strided window through the line-buffer
//! cascade [`LineFixedDwt`] (bit-identical to the multi-pass
//! [`FixedDwt2d::forward`] of that region), Rice-codes the tile's `i64`
//! transform words with [`FixedSubbandCodec`], and wraps the payloads in the
//! versioned `LWCF` container ([`lwc_coder::fixedtiled`]). Decode runs the
//! multi-pass [`FixedDwt2d::inverse`] per tile.
//!
//! The stream is deterministic for a given tile shape — the worker count
//! never changes a byte. Grids parallelize per **tile** (payloads are
//! byte-aligned and concatenated by the shared directory writer); a
//! single-tile grid codes its one payload sequentially.

use crate::plan::PartDecoder;
use crate::pool::resolve_workers;
use crate::report::TiledReport;
use crate::tiled::check_tile_shape;
use crate::{DecodePlan, PipelineError, Plan, RowBands};
use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::{
    subband_order, write_container, CoderError, FixedHeader, FixedStream, FixedSubbandCodec,
};
use lwc_dwt::{Decomposition, Dwt2d, DwtError, FixedDwt2d, LineFixedDwt, Subband};
use lwc_filters::{FilterBank, FilterId};
use lwc_image::{Image, TileGrid, TileRect};
use std::time::Instant;

/// The subband named by a [`subband_order`] band index.
fn band_of(index: usize) -> Subband {
    match index {
        0 => Subband::Approx,
        _ => Subband::DETAILS[index - 1],
    }
}

/// Tile-parallel lossless codec over the paper-exact fixed-point DWT.
///
/// Every stream is an `LWCF` container (there is no legacy fixed format, so
/// even a single-tile grid is wrapped); decode is pixel-exact by the paper's
/// central losslessness claim, validated end to end here. Pixels may be at
/// most 12 bits deep: the Table II word plan sizes every scale for a 13-bit
/// signed input word.
///
/// ```
/// use lwc_filters::{FilterBank, FilterId};
/// use lwc_image::synth;
/// use lwc_pipeline::TiledFixedCompressor;
///
/// # fn main() -> Result<(), lwc_pipeline::PipelineError> {
/// let bank = FilterBank::table1(FilterId::F1);
/// let engine = TiledFixedCompressor::new(&bank, 3, 64, 2)?;
/// let image = synth::ct_phantom(256, 192, 12, 1);
/// let bytes = engine.compress(&image)?;
/// let back = engine.decompress(&bytes)?;
/// assert_eq!(image.samples(), back.samples());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledFixedCompressor {
    transform: FixedDwt2d,
    tile_width: usize,
    tile_height: usize,
    workers: usize,
    codec: FixedSubbandCodec,
}

impl TiledFixedCompressor {
    /// Creates an engine over the given Table I bank with the paper's default
    /// word lengths, a square nominal tile and the given worker count.
    /// `workers == 0` selects the machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if the word-length plan cannot be built, or
    /// [`PipelineError::Config`] if the tile size is zero or does not fit the
    /// container's 20-bit tile sides.
    pub fn new(
        bank: &FilterBank,
        scales: u32,
        tile_size: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        Self::build(FixedDwt2d::paper_default(bank, scales)?, tile_size, tile_size, workers)
    }

    /// Builds the engine an `LWCF` stream's header calls for: the stored
    /// Table I bank at the stored depth and tile shape, with the paper's
    /// default word lengths (the only plan version 1 pairs with).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown filter index or an unbuildable plan.
    pub fn for_stream(header: &FixedHeader, workers: usize) -> Result<Self, PipelineError> {
        let bank = FilterBank::table1(filter_of(header)?);
        let transform = FixedDwt2d::paper_default(&bank, header.scales)?;
        Self::build(transform, header.tile_width, header.tile_height, workers)
    }

    fn build(
        transform: FixedDwt2d,
        tile_width: usize,
        tile_height: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        check_tile_shape(tile_width, tile_height)?;
        let workers = resolve_workers(workers);
        Ok(Self { transform, tile_width, tile_height, workers, codec: FixedSubbandCodec::new() })
    }

    /// The paper-exact transform configuration (bank, Table II word plan,
    /// depth) every tile is coded with.
    #[must_use]
    pub fn transform(&self) -> &FixedDwt2d {
        &self.transform
    }

    /// The decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.transform.scales()
    }

    /// The Table I filter bank of the transform.
    #[must_use]
    pub fn filter_id(&self) -> FilterId {
        self.transform.bank().id()
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

    /// The tile grid this engine would use for a `width x height` image,
    /// after checking that **every** tile shape that occurs in the grid
    /// (nominal, ragged right, ragged bottom, ragged corner) supports the
    /// configured decomposition depth.
    ///
    /// # Errors
    ///
    /// * [`PipelineError::Config`] for zero frame dimensions.
    /// * [`PipelineError::Dwt`] with [`DwtError::NotDecomposable`] naming the
    ///   offending tile shape if any tile cannot be decomposed.
    pub fn grid(&self, width: usize, height: usize) -> Result<TileGrid, PipelineError> {
        let grid = TileGrid::new(width, height, self.tile_width, self.tile_height)
            .map_err(|e| PipelineError::Config(format!("invalid tile grid: {e}")))?;
        let last_w = width - (grid.tiles_x() - 1) * grid.tile_width();
        let last_h = height - (grid.tiles_y() - 1) * grid.tile_height();
        for tw in [grid.tile_width(), last_w] {
            for th in [grid.tile_height(), last_h] {
                Dwt2d::check_decomposable(tw, th, self.scales())?;
            }
        }
        Ok(grid)
    }

    /// Refuses pixels deeper than the word plan carries: its signed input
    /// word holds `input_bits - 1` magnitude bits, so deeper samples would
    /// overflow a word on decode (or the accumulator on encode).
    fn check_bit_depth(&self, bit_depth: u32) -> Result<(), PipelineError> {
        let max = self.transform.plan().input_bits() - 1;
        if bit_depth > max {
            return Err(CoderError::UnsupportedFormat(format!(
                "{bit_depth}-bit pixels exceed the fixed datapath's {max}-bit input"
            ))
            .into());
        }
        Ok(())
    }

    /// The `LWCF` header this engine would write for an image of the given
    /// geometry.
    fn header_for(&self, grid: &TileGrid, bit_depth: u32) -> FixedHeader {
        FixedHeader {
            width: grid.image_width(),
            height: grid.image_height(),
            bit_depth,
            scales: self.scales(),
            filter: self.filter_id().index() as u8,
            tile_width: grid.tile_width(),
            tile_height: grid.tile_height(),
        }
    }

    /// Compresses `image` into an `LWCF` container, fanning the tiles across
    /// the worker pool. The bytes depend only on the image and the tile shape,
    /// never on the worker count.
    ///
    /// # Errors
    ///
    /// Returns the first transform or coder error, if any; notably
    /// [`PipelineError::Dwt`] if a tile shape of the grid cannot be
    /// decomposed to the configured depth.
    pub fn compress(&self, image: &Image) -> Result<Vec<u8>, PipelineError> {
        Ok(self.compress_with_report(image)?.0)
    }

    /// Compresses and reports tile-level throughput.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedCompressor::compress`].
    pub fn compress_with_report(
        &self,
        image: &Image,
    ) -> Result<(Vec<u8>, TiledReport), PipelineError> {
        let start = Instant::now();
        let plan = self.encode_plan(image)?;
        let bytes = plan.execute(self.workers())?;
        let report = TiledReport {
            tiles: plan.parts(),
            raw_bytes: (image.pixel_count() * image.bit_depth() as usize).div_ceil(8),
            compressed_bytes: bytes.len(),
            workers: self.workers().min(plan.parts()),
            wall: start.elapsed(),
        };
        Ok((bytes, report))
    }

    /// The encode plan of `image`: one part per tile of its grid.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedCompressor::grid`]; additionally
    /// [`CoderError::UnsupportedFormat`] for pixels deeper than 12 bits.
    pub fn encode_plan<'a>(
        &'a self,
        image: &'a Image,
    ) -> Result<FixedEncodePlan<'a>, PipelineError> {
        let grid = self.grid(image.width(), image.height())?;
        self.check_bit_depth(image.bit_depth())?;
        Ok(FixedEncodePlan { engine: self, image, grid })
    }

    /// Compresses one tile of `image` (row-major `index` of `grid`) into
    /// its standalone `LWCF` tile payload — the unit a scheduler can fan
    /// across workers. The tile's strided window runs through the line
    /// cascade straight out of the frame. Byte-identical to the payload
    /// [`TiledFixedCompressor::compress`] places at that directory slot, by
    /// construction: `compress` itself is built on this.
    ///
    /// # Errors
    ///
    /// Returns the tile's transform error; `grid` must describe `image`.
    pub fn encode_tile(
        &self,
        image: &Image,
        grid: &TileGrid,
        index: usize,
    ) -> Result<Vec<u8>, PipelineError> {
        let view = image.view_rect(grid.rect(index)).map_err(DwtError::from)?;
        let tile = LineFixedDwt::forward_view(&self.transform, &view)?;
        Ok(encode_tile_payload(self.codec, &tile))
    }

    /// Assembles per-tile payloads (row-major `grid` order, as produced by
    /// [`TiledFixedCompressor::encode_tile`]) into the `LWCF` container
    /// [`TiledFixedCompressor::compress`] writes.
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
        Ok(write_container(&self.header_for(grid, bit_depth), payloads)?)
    }

    /// Reconstructs the image from an `LWCF` container. The result is
    /// pixel-exact. Each tile is placed into the frame as it finishes
    /// decoding, so peak memory stays at the output frame plus one tile per
    /// worker.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed streams or containers whose filter or
    /// depth disagree with this engine's transform.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Image, PipelineError> {
        Ok(self
            .decode_plan(bytes)?
            .execute(self.workers())?
            .into_image()
            .map_err(CoderError::from)?)
    }

    /// The decode plan of an `LWCF` container over the whole image; `B` owns
    /// or borrows the bytes. The container is parsed and validated here,
    /// once.
    ///
    /// # Errors
    ///
    /// Returns an error for a malformed header or directory, or a container
    /// whose filter or depth disagree with this engine's transform.
    pub fn decode_plan<B: AsRef<[u8]>>(&self, bytes: B) -> Result<DecodePlan<B>, PipelineError> {
        DecodePlan::container(bytes, |header: FixedHeader| {
            self.ensure_compatible(&header)?;
            Ok(PartDecoder::Fixed(Box::new(self.clone()), header))
        })
    }

    /// Random tile access: decodes exactly one tile (row-major `index`)
    /// without touching any other tile, via the container's 48-bit offset
    /// directory.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedCompressor::decompress`]; additionally errors for an
    /// `index` outside the container's grid.
    pub fn decompress_tile(&self, bytes: &[u8], index: usize) -> Result<Image, PipelineError> {
        let stream = FixedStream::parse(bytes)?;
        self.ensure_compatible(stream.header())?;
        let grid = stream.grid()?;
        if index >= grid.tile_count() {
            return Err(CoderError::MalformedStream(format!(
                "tile index {index} out of range: the container has {} tiles",
                grid.tile_count()
            ))
            .into());
        }
        self.decode_tile(stream.header(), grid.rect(index), stream.part_bytes(index))
    }

    /// Streaming decode: yields the image one tile-row **band** at a time
    /// (top to bottom), decoding each band's tiles on the worker pool. Peak
    /// memory is bounded by one band plus the compressed bytes, regardless
    /// of the image height.
    ///
    /// # Errors
    ///
    /// Returns an error if the container header or directory is malformed;
    /// per-band decode errors surface through the iterator's items.
    pub fn decompress_row_bands<'a>(&self, bytes: &'a [u8]) -> Result<RowBands<'a>, PipelineError> {
        Ok(RowBands::new(self.decode_plan(bytes)?, self.workers()))
    }

    fn ensure_compatible(&self, header: &FixedHeader) -> Result<(), PipelineError> {
        self.check_bit_depth(header.bit_depth)?;
        if header.scales != self.scales() {
            return Err(CoderError::UnsupportedFormat(format!(
                "fixed stream uses {} scales but the engine is configured for {}",
                header.scales,
                self.scales()
            ))
            .into());
        }
        if header.filter as usize != self.filter_id().index() {
            return Err(CoderError::UnsupportedFormat(format!(
                "fixed stream uses filter index {} but the engine runs {}",
                header.filter,
                self.filter_id()
            ))
            .into());
        }
        Ok(())
    }

    /// Decodes one tile payload placed at `rect` back to its pixels.
    pub(crate) fn decode_tile(
        &self,
        header: &FixedHeader,
        rect: TileRect,
        bytes: &[u8],
    ) -> Result<Image, PipelineError> {
        let tile = decode_tile_payload(self.codec, bytes, &rect, header)?;
        Ok(self.transform.inverse(&tile)?)
    }
}

/// The encode plan of a [`TiledFixedCompressor`]: one part per tile,
/// assembled into the `LWCF` container (a single-tile grid is wrapped too).
pub struct FixedEncodePlan<'a> {
    engine: &'a TiledFixedCompressor,
    image: &'a Image,
    grid: TileGrid,
}

impl Plan for FixedEncodePlan<'_> {
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
        self.engine.encode_tile(self.image, &self.grid, index)
    }

    fn place(&self, sink: &mut Vec<Vec<u8>>, index: usize, part: Vec<u8>) {
        sink[index] = part;
    }

    fn finish(&self, sink: Vec<Vec<u8>>) -> Result<Vec<u8>, PipelineError> {
        self.engine.assemble_container(&self.grid, self.image.bit_depth(), &sink)
    }
}

/// The Table I bank an `LWCF` header names.
fn filter_of(header: &FixedHeader) -> Result<FilterId, CoderError> {
    FilterId::ALL.get(header.filter as usize).copied().ok_or_else(|| {
        CoderError::UnsupportedFormat(format!(
            "filter index {} is not a Table I bank",
            header.filter
        ))
    })
}

/// Sequential per-tile encode: subbands in [`subband_order`], one
/// concatenated fixed-subband stream.
fn encode_tile_payload(codec: FixedSubbandCodec, tile: &Decomposition<i64>) -> Vec<u8> {
    let mut writer = BitWriter::new();
    for (scale, band) in subband_order(tile.scales()) {
        codec.encode_subband(&mut writer, &tile.subband(scale, band_of(band)));
    }
    writer.into_bytes()
}

/// Decodes one tile payload back into the tile's Mallat-layout word
/// container, validating exact consumption of the payload.
fn decode_tile_payload(
    codec: FixedSubbandCodec,
    payload: &[u8],
    rect: &TileRect,
    header: &FixedHeader,
) -> Result<Decomposition<i64>, PipelineError> {
    let mut tile = Decomposition::from_raw(
        vec![0i64; rect.width * rect.height],
        rect.width,
        rect.height,
        header.scales,
        filter_of(header)?,
        header.bit_depth,
    );
    let mut reader = BitReader::new(payload);
    for (scale, band) in subband_order(header.scales) {
        let sb = tile.subband_rect(scale, band_of(band));
        let words = codec.decode_subband(&mut reader, sb.len())?;
        let width = tile.width();
        let data = tile.data_mut();
        for (row, chunk) in words.chunks_exact(sb.width).enumerate() {
            let start = (sb.y + row) * width + sb.x;
            data[start..start + sb.width].copy_from_slice(chunk);
        }
    }
    // Anything beyond byte-alignment padding is corruption, not slack.
    if payload.len() as u64 * 8 - reader.bits_read() >= 8 {
        return Err(CoderError::MalformedStream(format!(
            "tile payload has {} trailing bytes after its last subband",
            (payload.len() as u64 * 8 - reader.bits_read()) / 8
        ))
        .into());
    }
    Ok(tile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::FIXED_HEADER_BYTES;
    use lwc_image::{stats, synth};

    fn engine(scales: u32, tile: usize, workers: usize) -> TiledFixedCompressor {
        let bank = FilterBank::table1(FilterId::F1);
        TiledFixedCompressor::new(&bank, scales, tile, workers).unwrap()
    }

    #[test]
    fn multi_tile_roundtrip_is_lossless() {
        let engine = engine(3, 32, 3);
        for image in [
            synth::ct_phantom(96, 64, 12, 1),   // exact grid
            synth::random_image(64, 64, 12, 2), // single-column grid
            synth::mr_slice(32, 96, 12, 3),
        ] {
            let bytes = engine.compress(&image).unwrap();
            assert!(FixedStream::sniff(&bytes));
            let back = engine.decompress(&bytes).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap());
        }
    }

    #[test]
    fn per_tile_encode_plus_assembly_matches_compress() {
        // The scheduler's fan-out path must reproduce `compress` exactly.
        let engine = engine(3, 32, 2);
        let image = synth::ct_phantom(96, 64, 12, 4);
        let reference = engine.compress(&image).unwrap();
        let grid = engine.grid(96, 64).unwrap();
        let payloads: Vec<Vec<u8>> =
            (0..grid.tile_count()).map(|i| engine.encode_tile(&image, &grid, i).unwrap()).collect();
        let assembled = engine.assemble_container(&grid, image.bit_depth(), &payloads).unwrap();
        assert_eq!(assembled, reference);
    }

    #[test]
    fn every_bank_roundtrips() {
        for id in FilterId::ALL {
            let bank = FilterBank::table1(id);
            let engine = TiledFixedCompressor::new(&bank, 3, 32, 2).unwrap();
            let image = synth::ct_phantom(64, 96, 12, id.index() as u64);
            let back = engine.decompress(&engine.compress(&image).unwrap()).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap(), "{id}");
        }
    }

    #[test]
    fn streams_do_not_depend_on_the_worker_count() {
        let image = synth::ct_phantom(128, 96, 12, 5);
        let reference = engine(3, 32, 1).compress(&image).unwrap();
        for workers in [2, 3, 8] {
            assert_eq!(engine(3, 32, workers).compress(&image).unwrap(), reference);
        }
        // Single-tile grids are worker-independent too.
        let single_ref = engine(3, 256, 1).compress(&image).unwrap();
        for workers in [2, 3, 8] {
            assert_eq!(engine(3, 256, workers).compress(&image).unwrap(), single_ref);
        }
    }

    #[test]
    fn single_tile_grid_matches_the_monolithic_payload() {
        let image = synth::mr_slice(64, 64, 12, 7);
        let eng = engine(3, 64, 4);
        let single = eng.compress(&image).unwrap();
        // Hand-build the sequential container.
        let tile = eng.transform().forward(&image).unwrap();
        let payload = encode_tile_payload(FixedSubbandCodec::new(), &tile);
        let grid = eng.grid(64, 64).unwrap();
        let header = eng.header_for(&grid, image.bit_depth());
        let sequential = write_container(&header, &[payload]).unwrap();
        assert_eq!(single, sequential);
    }

    #[test]
    fn multi_tile_payloads_compose_from_the_multi_pass_reference() {
        // The engine codes every tile through the line cascade. Payloads
        // hand-built from the multi-pass transform of each tile's crop must
        // assemble into the very same container on ragged grids.
        for (id, width, height, scales, tile) in [
            (FilterId::F2, 96, 80, 3, 32),
            (FilterId::F4, 72, 56, 2, 32),
            (FilterId::F6, 40, 104, 3, 24),
        ] {
            let eng = TiledFixedCompressor::new(&FilterBank::table1(id), scales, tile, 3).unwrap();
            let image = synth::mr_slice(width, height, 12, id.index() as u64);
            let grid = eng.grid(width, height).unwrap();
            let payloads: Vec<Vec<u8>> = (0..grid.tile_count())
                .map(|i| {
                    let crop = image.crop(grid.rect(i)).unwrap();
                    encode_tile_payload(eng.codec, &eng.transform().forward(&crop).unwrap())
                })
                .collect();
            let header = eng.header_for(&grid, image.bit_depth());
            let reference = write_container(&header, &payloads).unwrap();
            assert_eq!(eng.compress(&image).unwrap(), reference, "{id} {width}x{height}/{tile}");
        }
    }

    #[test]
    fn for_stream_rebuilds_a_compatible_engine() {
        let writer =
            TiledFixedCompressor::new(&FilterBank::table1(FilterId::F3), 2, 32, 2).unwrap();
        let image = synth::ct_phantom(64, 64, 12, 9);
        let bytes = writer.compress(&image).unwrap();
        let header = *FixedStream::parse(&bytes).unwrap().header();
        let reader = TiledFixedCompressor::for_stream(&header, 2).unwrap();
        assert_eq!(reader.filter_id(), FilterId::F3);
        let back = reader.decompress(&bytes).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn single_tiles_decode_independently_and_match_their_crops() {
        let eng = engine(2, 32, 2);
        let image = synth::ct_phantom(96, 64, 12, 6);
        let bytes = eng.compress(&image).unwrap();
        let grid = eng.grid(96, 64).unwrap();
        for index in 0..grid.tile_count() {
            let tile = eng.decompress_tile(&bytes, index).unwrap();
            let expected = image.crop(grid.rect(index)).unwrap();
            assert!(stats::bit_exact(&expected, &tile).unwrap(), "tile {index}");
        }
        assert!(eng.decompress_tile(&bytes, grid.tile_count()).is_err());
    }

    #[test]
    fn row_band_streaming_decode_reassembles_the_image() {
        let eng = engine(2, 32, 2);
        let image = synth::mr_slice(96, 64, 12, 9);
        let bytes = eng.compress(&image).unwrap();
        let mut rebuilt = Image::zeros(96, 64, 12).unwrap();
        let mut next_y = 0;
        for band in eng.decompress_row_bands(&bytes).unwrap() {
            let band = band.unwrap();
            assert_eq!(band.y, next_y, "bands arrive top to bottom");
            assert_eq!(band.image.width(), 96);
            next_y += band.image.height();
            let rect = TileRect { x: 0, y: band.y, width: 96, height: band.image.height() };
            rebuilt.view_rect_mut(rect).unwrap().copy_from_image(&band.image).unwrap();
        }
        assert_eq!(next_y, 64);
        assert!(stats::bit_exact(&image, &rebuilt).unwrap());
    }

    #[test]
    fn undecomposable_geometry_is_rejected_up_front() {
        // 3 scales demand tile sides divisible by 8; 100 is not.
        let eng = engine(3, 32, 2);
        assert!(eng.compress(&synth::flat(100, 96, 12, 0)).is_err());
        let bank = FilterBank::table1(FilterId::F1);
        assert!(matches!(TiledFixedCompressor::new(&bank, 2, 0, 1), Err(PipelineError::Config(_))));
    }

    #[test]
    fn tile_sides_beyond_the_container_rule_are_refused_up_front() {
        // Refused at construction, not after every tile has been encoded.
        let bank = FilterBank::table1(FilterId::F1);
        for side in [1 << 20, usize::MAX] {
            let engine = TiledFixedCompressor::new(&bank, 2, side, 1);
            assert!(matches!(engine, Err(PipelineError::Config(_))), "tile side {side}");
        }
    }

    #[test]
    fn mismatched_engines_refuse_the_stream() {
        let image = synth::ct_phantom(64, 64, 12, 4);
        let bytes = engine(3, 32, 2).compress(&image).unwrap();
        assert!(engine(2, 32, 2).decompress(&bytes).is_err(), "wrong depth");
        let other = TiledFixedCompressor::new(&FilterBank::table1(FilterId::F5), 3, 32, 2).unwrap();
        assert!(other.decompress(&bytes).is_err(), "wrong filter");
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let eng = engine(2, 32, 2);
        let image = synth::ct_phantom(96, 64, 12, 8);
        let bytes = eng.compress(&image).unwrap();
        for len in [0, 3, FIXED_HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
            assert!(eng.decompress(&bytes[..len]).is_err(), "prefix of {len} bytes");
        }
        // Trailing garbage after the last payload fails the directory's
        // exact-end check.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 4]);
        assert!(eng.decompress(&padded).is_err());
        // A flipped byte inside a payload can never silently reproduce the
        // original image: it either breaks the stream structure (Err) or
        // changes decoded words.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        match eng.decompress(&flipped) {
            Err(_) => {}
            Ok(img) => assert!(!stats::bit_exact(&image, &img).unwrap()),
        }
    }

    #[test]
    fn zero_workers_selects_available_parallelism_and_report_counts_tiles() {
        let eng = engine(2, 16, 0);
        assert!(eng.workers() >= 1);
        let image = synth::ct_phantom(48, 48, 12, 2);
        let (bytes, report) = eng.compress_with_report(&image).unwrap();
        assert_eq!(report.tiles, 9);
        assert_eq!(report.compressed_bytes, bytes.len());
        assert_eq!(report.raw_bytes, (48 * 48 * 12usize).div_ceil(8));
        assert!(report.ratio() > 0.0);
    }
}
