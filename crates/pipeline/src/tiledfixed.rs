//! End-to-end compression on the **paper-exact fixed-point** datapath: the
//! tile-parallel `LWCF` engine and its part codec.
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

use crate::engine::{BrickEngine, PartCodec};
use crate::PipelineError;
use lwc_coder::bitio::{BitReader, BitWriter};
use lwc_coder::{subband_order, CoderError, ContainerHeader, FixedHeader, FixedSubbandCodec};
use lwc_dwt::{Decomposition, Dwt2d, DwtError, FixedDwt2d, LineFixedDwt, Subband};
use lwc_filters::{FilterBank, FilterId};
use lwc_image::{BrickGrid, BrickRect, Image, TileGrid, TileRect, VolumeView};
use lwc_lifting::geometry::band_len;

/// The subbands in [`subband_order`] band-index order.
const BANDS: [Subband; 4] =
    [Subband::Approx, Subband::DETAILS[0], Subband::DETAILS[1], Subband::DETAILS[2]];

/// Tile-parallel lossless codec over the paper-exact fixed-point DWT: the
/// [`BrickEngine`] whose part codec is the [`FixedDwt2d`] transform.
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
pub type TiledFixedCompressor = BrickEngine<FixedDwt2d>;

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
        Self::build(FixedDwt2d::paper_default(bank, scales)?, tile_size, tile_size, 1, workers)
    }

    /// Builds the engine an `LWCF` stream's header calls for: the stored
    /// Table I bank at the stored depth and tile shape, with the paper's
    /// default word lengths (the only plan version 1 pairs with).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown filter index or an unbuildable plan.
    pub fn for_stream(header: &FixedHeader, workers: usize) -> Result<Self, PipelineError> {
        let transform = FixedDwt2d::for_header(header)?;
        Self::build(transform, header.tile_width, header.tile_height, 1, workers)
    }

    /// The paper-exact transform configuration (bank, Table II word plan,
    /// depth) every tile is coded with.
    #[must_use]
    pub fn transform(&self) -> &FixedDwt2d {
        &self.codec
    }

    /// The decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.codec.scales()
    }

    /// The Table I filter bank of the transform.
    #[must_use]
    pub fn filter_id(&self) -> FilterId {
        self.codec.bank().id()
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
        let grid = *self.bricks(width, height, 1)?.plane();
        check_tiles(&self.codec, &grid)?;
        Ok(grid)
    }
}

/// Refuses a grid with a tile shape the transform cannot decompose.
fn check_tiles(transform: &FixedDwt2d, grid: &TileGrid) -> Result<(), DwtError> {
    grid.tile_shapes().try_for_each(|(w, h)| Dwt2d::check_decomposable(w, h, transform.scales()))
}

/// Refuses pixels deeper than the word plan carries: its signed input word
/// holds `input_bits - 1` magnitude bits, so deeper samples would overflow a
/// word on decode (or the accumulator on encode).
fn check_bit_depth(transform: &FixedDwt2d, bit_depth: u32) -> Result<(), CoderError> {
    let max = transform.plan().input_bits() - 1;
    if bit_depth > max {
        let message = format!("{bit_depth}-bit pixels exceed the fixed datapath's {max}-bit input");
        return Err(CoderError::UnsupportedFormat(message));
    }
    Ok(())
}

/// Paper-exact fixed-point tiles: the line cascade and the fixed-word Rice
/// coder.
impl PartCodec for FixedDwt2d {
    type Header = FixedHeader;
    type Frame = Image;
    const VOLUME: bool = false;

    /// The tile's strided window runs through the line cascade straight out
    /// of the frame.
    fn encode(&self, frame: &VolumeView<'_>, rect: BrickRect) -> Result<Vec<u8>, PipelineError> {
        let view = frame.slice(0).and_then(|slice| slice.subview(rect.plane));
        let tile = LineFixedDwt::forward_view(self, &view.map_err(DwtError::from)?)?;
        Ok(encode_tile_payload(FixedSubbandCodec::new(), &tile))
    }

    /// The tile's subbands decode in [`subband_order`] through one scratch
    /// band into its Mallat-layout word container, the payload consumed
    /// exactly; then the multi-pass inverse.
    fn decode(
        &self,
        header: &FixedHeader,
        _index: usize,
        rect: BrickRect,
        bytes: &[u8],
    ) -> Result<Vec<i32>, PipelineError> {
        let (TileRect { width, height, .. }, scales) = (rect.plane, self.scales());
        let (id, depth) = (self.bank().id(), header.bit_depth);
        let mut tile =
            Decomposition::from_raw(vec![0; width * height], width, height, scales, id, depth);
        // LWCF tiles are divisible by 2^scales: every band is a full quarter
        // of the layout above it, so a scale-1 band is the largest.
        let mut words = vec![0; band_len(width, height, 1, 1)];
        let mut reader = BitReader::new(bytes);
        for (scale, band) in subband_order(scales) {
            let words = &mut words[..band_len(width, height, scale, band)];
            FixedSubbandCodec::new().decode_subband_into(&mut reader, words)?;
            let sb = tile.subband_rect(scale, BANDS[band]);
            for (row, chunk) in words.chunks_exact(sb.width).enumerate() {
                let start = (sb.y + row) * width + sb.x;
                tile.data_mut()[start..start + sb.width].copy_from_slice(chunk);
            }
        }
        reader.ensure_consumed()?;
        Ok(self.inverse(&tile)?.into_samples())
    }

    fn header(&self, grid: &BrickGrid, bit_depth: u32) -> Result<FixedHeader, PipelineError> {
        let plane = grid.plane();
        check_tiles(self, plane)?;
        check_bit_depth(self, bit_depth)?;
        Ok(FixedHeader {
            width: plane.image_width(),
            height: plane.image_height(),
            bit_depth,
            scales: self.scales(),
            filter: self.bank().id().index() as u8,
            tile_width: plane.tile_width(),
            tile_height: plane.tile_height(),
        })
    }

    fn check(&self, header: &FixedHeader) -> Result<(), PipelineError> {
        check_bit_depth(self, header.bit_depth)?;
        header.ensure_scales(self.scales())?;
        let (filter, id) = (header.filter, self.bank().id());
        if usize::from(filter) != id.index() {
            let message =
                format!("fixed stream uses filter index {filter} but the engine runs {id}");
            return Err(CoderError::UnsupportedFormat(message).into());
        }
        Ok(())
    }

    /// The stored Table I bank at the stored depth, with the paper's
    /// default word lengths (the only plan version 1 pairs with).
    fn for_header(header: &FixedHeader) -> Result<Self, PipelineError> {
        let filter = header.filter;
        let id = FilterId::ALL.get(usize::from(filter)).ok_or_else(|| {
            CoderError::UnsupportedFormat(format!("filter index {filter} is not a Table I bank"))
        })?;
        Ok(Self::paper_default(&FilterBank::table1(*id), header.scales)?)
    }
}

/// Sequential per-tile encode: subbands in [`subband_order`], one
/// concatenated fixed-subband stream.
fn encode_tile_payload(codec: FixedSubbandCodec, tile: &Decomposition<i64>) -> Vec<u8> {
    let mut writer = BitWriter::new();
    for (scale, band) in subband_order(tile.scales()) {
        codec.encode_subband(&mut writer, &tile.subband(scale, BANDS[band]));
    }
    writer.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_coder::{write_container, FixedStream, FIXED_HEADER_BYTES};
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
        let header = FixedHeader {
            width: 64,
            height: 64,
            bit_depth: image.bit_depth(),
            scales: 3,
            filter: FilterId::F1.index() as u8,
            tile_width: 64,
            tile_height: 64,
        };
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
                    encode_tile_payload(
                        FixedSubbandCodec::new(),
                        &eng.transform().forward(&crop).unwrap(),
                    )
                })
                .collect();
            let header = FixedHeader {
                width,
                height,
                bit_depth: image.bit_depth(),
                scales,
                filter: id.index() as u8,
                tile_width: tile,
                tile_height: tile,
            };
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
        for band in eng.decompress_row_bands(&bytes) {
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
