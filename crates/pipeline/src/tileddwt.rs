//! Tile-parallel driver for the paper-exact fixed-point DWT.
//!
//! [`TiledCompressor`](crate::TiledCompressor) shards the *lifting codec*
//! path by tiles; this module does the same for the **paper-exact**
//! fixed-point datapath. A [`TiledFixedDwt2d`] cuts the frame into a
//! [`TileGrid`] of regions, transforms every region independently through
//! [`FixedDwt2d::forward_view`] on the worker pool (the hardware's
//! region-parallel trade of area for throughput — one MAC datapath per
//! concurrent tile), and reassembles the inverse through
//! [`FixedDwt2d::inverse_into`] windows. Each tile's coefficients are
//! **bit-identical** to running the monolithic transform on that region —
//! the per-tile arithmetic *is* the monolithic transform, only the driver
//! changes — so the result never depends on the worker count, and a grid
//! that degenerates to one tile reproduces [`FixedDwt2d::forward`] exactly.

use crate::pool::run_indexed;
use crate::report::TiledDwtReport;
use crate::PipelineError;
use lwc_dwt::{Decomposition, Dwt2d, DwtError, FixedDwt2d};
use lwc_filters::FilterBank;
use lwc_image::{Image, TileGrid};
use std::thread;
use std::time::Instant;

/// Tile-parallel fixed-point 2-D DWT for single large frames.
///
/// The frame is sharded by a [`TileGrid`]; every tile is transformed with the
/// unmodified [`FixedDwt2d`] region APIs, so the per-tile coefficient words
/// are bit-identical to the monolithic transform of that region regardless of
/// the worker count, and the full round trip stays lossless by construction.
/// Because the fixed-point pyramid halves dimensions exactly, every tile of
/// the grid (including ragged right/bottom tiles) must be decomposable to the
/// configured depth; [`TiledFixedDwt2d::grid`] checks this up front and
/// returns a typed error instead of failing mid-transform.
///
/// ```
/// use lwc_filters::{FilterBank, FilterId};
/// use lwc_image::synth;
/// use lwc_pipeline::TiledFixedDwt2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bank = FilterBank::table1(FilterId::F1);
/// let engine = TiledFixedDwt2d::new(&bank, 3, 64, 2)?;
/// let frame = synth::ct_phantom(256, 192, 12, 1);
/// let tiles = engine.forward(&frame)?;
/// assert_eq!(tiles.grid().tile_count(), 12);
/// let back = engine.inverse(&tiles)?;
/// assert!(lwc_image::stats::bit_exact(&frame, &back)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TiledFixedDwt2d {
    inner: FixedDwt2d,
    tile_width: usize,
    tile_height: usize,
    workers: usize,
}

impl TiledFixedDwt2d {
    /// Builds the driver with the paper's default word lengths, a square
    /// nominal tile and the given worker count. `workers == 0` selects the
    /// machine's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error if the word-length plan cannot be built or the tile
    /// size is zero.
    pub fn new(
        bank: &FilterBank,
        scales: u32,
        tile_size: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        Self::with_transform(
            FixedDwt2d::paper_default(bank, scales)?,
            tile_size,
            tile_size,
            workers,
        )
    }

    /// Wraps an existing sequential transform with an explicit (possibly
    /// non-square) tile shape. `workers == 0` selects the machine's available
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] if a tile dimension is zero.
    pub fn with_transform(
        inner: FixedDwt2d,
        tile_width: usize,
        tile_height: usize,
        workers: usize,
    ) -> Result<Self, PipelineError> {
        if tile_width == 0 || tile_height == 0 {
            return Err(PipelineError::Config("tile dimensions must be nonzero".into()));
        }
        let workers = if workers == 0 {
            thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            workers
        };
        Ok(Self { inner, tile_width, tile_height, workers })
    }

    /// The sequential transform every tile runs through unmodified.
    #[must_use]
    pub fn inner(&self) -> &FixedDwt2d {
        &self.inner
    }

    /// The decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.inner.scales()
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

    /// Worker threads used per frame.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The tile grid this driver would use for a `width × height` frame,
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
                Dwt2d::check_decomposable(tw, th, self.scales()).map_err(PipelineError::from)?;
            }
        }
        Ok(grid)
    }

    /// Forward transform: the frame's tiles to per-tile raw coefficient
    /// words, fanned across the worker pool.
    ///
    /// The output is deterministic for a given tile shape — tiles are
    /// independent and returned in row-major grid order, so the worker count
    /// never changes a word. A single-tile grid yields exactly
    /// [`FixedDwt2d::forward`] of the whole frame.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedDwt2d::grid`] and [`FixedDwt2d::forward_view`].
    pub fn forward(&self, frame: &Image) -> Result<TiledDecomposition, PipelineError> {
        Ok(self.forward_with_report(frame)?.0)
    }

    /// Forward transform plus tile-level throughput accounting.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedDwt2d::forward`].
    pub fn forward_with_report(
        &self,
        frame: &Image,
    ) -> Result<(TiledDecomposition, TiledDwtReport), PipelineError> {
        let start = Instant::now();
        let grid = self.grid(frame.width(), frame.height())?;
        let inner = &self.inner;
        let tiles = run_indexed(self.workers, grid.tile_count(), |index| {
            let view = frame.view_rect(grid.rect(index)).map_err(DwtError::from)?;
            inner.forward_view(&view)
        })?;
        let report = TiledDwtReport {
            tiles: grid.tile_count(),
            samples: frame.pixel_count(),
            workers: self.workers.min(grid.tile_count()),
            wall: start.elapsed(),
        };
        Ok((TiledDecomposition { grid, bit_depth: frame.bit_depth(), tiles }, report))
    }

    /// Inverse transform: scatters every tile's reconstruction back into a
    /// frame. Tiles are synthesized on the worker pool; with one worker the
    /// pixels are written straight into the frame windows through
    /// [`FixedDwt2d::inverse_into`] (no per-tile image is materialized).
    /// Either path produces identical pixels.
    ///
    /// # Errors
    ///
    /// Everything [`FixedDwt2d::inverse`] reports, plus
    /// [`PipelineError::Config`] if the decomposition's tiles disagree with
    /// its grid.
    pub fn inverse(&self, tiles: &TiledDecomposition) -> Result<Image, PipelineError> {
        let grid = tiles.grid;
        if tiles.tiles.len() != grid.tile_count() {
            return Err(PipelineError::Config(format!(
                "tiled decomposition carries {} tiles but its grid has {}",
                tiles.tiles.len(),
                grid.tile_count()
            )));
        }
        let mut frame = Image::zeros(grid.image_width(), grid.image_height(), tiles.bit_depth)
            .map_err(|e| PipelineError::Dwt(e.into()))?;
        if self.workers.min(grid.tile_count()) == 1 {
            for (index, tile) in tiles.tiles.iter().enumerate() {
                let mut window = frame.view_rect_mut(grid.rect(index)).map_err(DwtError::from)?;
                self.inner.inverse_into(tile, &mut window)?;
            }
            return Ok(frame);
        }
        let inner = &self.inner;
        let decoded = run_indexed(self.workers, grid.tile_count(), |index| {
            inner.inverse(&tiles.tiles[index])
        })?;
        for (index, tile) in decoded.iter().enumerate() {
            frame
                .view_rect_mut(grid.rect(index))
                .and_then(|mut window| window.copy_from_image(tile))
                .map_err(|e| PipelineError::Dwt(e.into()))?;
        }
        Ok(frame)
    }

    /// Convenience helper: forward followed by inverse.
    ///
    /// # Errors
    ///
    /// See [`TiledFixedDwt2d::forward`] and [`TiledFixedDwt2d::inverse`].
    pub fn roundtrip(&self, frame: &Image) -> Result<Image, PipelineError> {
        let tiles = self.forward(frame)?;
        self.inverse(&tiles)
    }
}

/// The per-tile coefficients of one tile-parallel forward transform: a
/// [`TileGrid`] plus one [`Decomposition`] per tile in row-major grid order.
///
/// Each entry is exactly what [`FixedDwt2d::forward_view`] produces for that
/// tile's region — the container adds geometry, not arithmetic — so
/// downstream consumers (entropy coding, subband statistics, the
/// architecture model) can treat every tile as an ordinary monolithic
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct TiledDecomposition {
    grid: TileGrid,
    bit_depth: u32,
    tiles: Vec<Decomposition<i64>>,
}

impl TiledDecomposition {
    /// The grid the frame was sharded by.
    #[must_use]
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Bit depth of the source frame's pixels.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.grid.image_width()
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.grid.image_height()
    }

    /// The per-tile decompositions in row-major grid order.
    #[must_use]
    pub fn tiles(&self) -> &[Decomposition<i64>] {
        &self.tiles
    }

    /// One tile's decomposition (row-major `index`).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn tile(&self, index: usize) -> &Decomposition<i64> {
        &self.tiles[index]
    }

    /// Consumes the container, yielding the per-tile decompositions.
    #[must_use]
    pub fn into_tiles(self) -> Vec<Decomposition<i64>> {
        self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_filters::FilterId;
    use lwc_image::{stats, synth};

    #[test]
    fn tiles_are_bit_identical_to_the_monolithic_transform_per_region() {
        let bank = FilterBank::table1(FilterId::F2);
        let engine = TiledFixedDwt2d::new(&bank, 3, 32, 3).unwrap();
        let frame = synth::ct_phantom(96, 64, 12, 5);
        let tiles = engine.forward(&frame).unwrap();
        let grid = engine.grid(96, 64).unwrap();
        for index in 0..grid.tile_count() {
            let crop = frame.crop(grid.rect(index)).unwrap();
            let monolithic = engine.inner().forward(&crop).unwrap();
            assert_eq!(tiles.tile(index), &monolithic, "tile {index}");
        }
    }

    #[test]
    fn single_tile_grid_reproduces_the_monolithic_transform_exactly() {
        let bank = FilterBank::table1(FilterId::F4);
        let engine = TiledFixedDwt2d::new(&bank, 4, 1 << 12, 2).unwrap();
        let frame = synth::mr_slice(64, 64, 12, 9);
        let tiles = engine.forward(&frame).unwrap();
        assert!(tiles.grid().is_single());
        assert_eq!(tiles.tiles().len(), 1);
        assert_eq!(tiles.tile(0), &engine.inner().forward(&frame).unwrap());
    }

    #[test]
    fn output_is_independent_of_the_worker_count() {
        let bank = FilterBank::table1(FilterId::F1);
        let frame = synth::random_image(128, 96, 12, 3);
        let reference = TiledFixedDwt2d::new(&bank, 2, 32, 1).unwrap().forward(&frame).unwrap();
        for workers in [2, 3, 8] {
            let engine = TiledFixedDwt2d::new(&bank, 2, 32, workers).unwrap();
            assert_eq!(engine.forward(&frame).unwrap(), reference, "{workers} workers");
        }
    }

    #[test]
    fn roundtrip_is_lossless_for_all_banks() {
        for id in FilterId::ALL {
            let bank = FilterBank::table1(id);
            let engine = TiledFixedDwt2d::new(&bank, 3, 32, 2).unwrap();
            let frame = synth::ct_phantom(64, 96, 12, id.index() as u64);
            let back = engine.roundtrip(&frame).unwrap();
            assert!(stats::bit_exact(&frame, &back).unwrap(), "{id}");
        }
    }

    #[test]
    fn sequential_and_parallel_inverse_agree() {
        let bank = FilterBank::table1(FilterId::F3);
        let frame = synth::mr_slice(96, 96, 12, 11);
        let one = TiledFixedDwt2d::new(&bank, 2, 32, 1).unwrap();
        let many = TiledFixedDwt2d::new(&bank, 2, 32, 4).unwrap();
        let tiles = one.forward(&frame).unwrap();
        let a = one.inverse(&tiles).unwrap();
        let b = many.inverse(&tiles).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert!(stats::bit_exact(&frame, &a).unwrap());
    }

    #[test]
    fn undecomposable_tile_shapes_are_rejected_up_front() {
        let bank = FilterBank::table1(FilterId::F1);
        // 3 scales demand tile sides divisible by 8; a 100-pixel frame over
        // 48-pixel tiles leaves a ragged 4-pixel edge that cannot halve
        // three times.
        let engine = TiledFixedDwt2d::new(&bank, 3, 48, 2).unwrap();
        assert!(matches!(
            engine.grid(100, 96),
            Err(PipelineError::Dwt(DwtError::NotDecomposable { .. }))
        ));
        assert!(engine.forward(&synth::flat(100, 96, 12, 0)).is_err());
        // The same frame with aligned tiles is fine.
        let aligned = TiledFixedDwt2d::new(&bank, 3, 32, 2).unwrap();
        assert!(aligned.grid(96, 96).is_ok());
    }

    #[test]
    fn inverse_rejects_inconsistent_containers() {
        let bank = FilterBank::table1(FilterId::F1);
        let engine = TiledFixedDwt2d::new(&bank, 2, 32, 2).unwrap();
        let frame = synth::ct_phantom(64, 64, 12, 1);
        let mut tiles = engine.forward(&frame).unwrap();
        tiles.tiles.pop();
        assert!(matches!(engine.inverse(&tiles), Err(PipelineError::Config(_))));
        // A transform with a different filter refuses the tiles.
        let other = TiledFixedDwt2d::new(&FilterBank::table1(FilterId::F5), 2, 32, 2).unwrap();
        let tiles = engine.forward(&frame).unwrap();
        assert!(other.inverse(&tiles).is_err());
    }

    #[test]
    fn zero_workers_selects_available_parallelism_and_report_counts_tiles() {
        let bank = FilterBank::table1(FilterId::F6);
        let engine = TiledFixedDwt2d::new(&bank, 2, 16, 0).unwrap();
        assert!(engine.workers() >= 1);
        let frame = synth::ct_phantom(48, 48, 12, 2);
        let (tiles, report) = engine.forward_with_report(&frame).unwrap();
        assert_eq!(report.tiles, 9);
        assert_eq!(tiles.width(), 48);
        assert_eq!(tiles.bit_depth(), 12);
        assert!(report.megasamples_per_second() > 0.0);
        assert_eq!(report.samples, 48 * 48);
    }

    #[test]
    fn invalid_tile_shapes_are_rejected() {
        let bank = FilterBank::table1(FilterId::F1);
        assert!(TiledFixedDwt2d::new(&bank, 2, 0, 1).is_err());
        let inner = FixedDwt2d::paper_default(&bank, 2).unwrap();
        assert!(TiledFixedDwt2d::with_transform(inner, 32, 0, 1).is_err());
    }
}
