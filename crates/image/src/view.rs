//! Borrowed, strided views into an [`Image`] and the tile grid that
//! partitions one.
//!
//! A [`TileGrid`] splits an image into rectangular tiles (with ragged right
//! and bottom edges when the dimensions are not multiples of the tile size);
//! an [`ImageView`] borrows one such rectangle without copying it, and an
//! [`ImageViewMut`] is the writable counterpart used to scatter decoded tiles
//! back into a full-size frame. The whole-image accessors of [`Image`] are
//! expressed over the full-frame view, so the monolithic and tiled code paths
//! share one implementation.

use crate::{Image, ImageError};

/// A rectangle inside an image, in pixel coordinates.
///
/// Produced by [`TileGrid::rect`] and consumed by [`Image::view_rect`] /
/// [`Image::view_rect_mut`]; also used for subband geometry by the transform
/// crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRect {
    /// Left edge (column of the first pixel).
    pub x: usize,
    /// Top edge (row of the first pixel).
    pub y: usize,
    /// Width in pixels (may be zero for degenerate subband rectangles).
    pub width: usize,
    /// Height in pixels (may be zero for degenerate subband rectangles).
    pub height: usize,
}

impl TileRect {
    /// Number of pixels covered.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// `true` if the rectangle covers no pixels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// One past the right edge. Saturates, so a rectangle whose edge
    /// overflows `usize` fits no image instead of wrapping into one.
    #[must_use]
    pub fn right(&self) -> usize {
        self.x.saturating_add(self.width)
    }

    /// One past the bottom edge; saturates like [`TileRect::right`].
    #[must_use]
    pub fn bottom(&self) -> usize {
        self.y.saturating_add(self.height)
    }
}

/// A read-only, possibly strided rectangular window into an image's samples.
///
/// The view borrows the underlying buffer — taking one is O(1) and never
/// copies pixel data. Rows are contiguous; consecutive rows are `stride`
/// samples apart (`stride == width` for a full-frame or owned-tile view).
///
/// ```
/// use lwc_image::{synth, TileGrid};
///
/// let image = synth::ct_phantom(100, 60, 12, 1);
/// let grid = TileGrid::new(100, 60, 32, 32).unwrap();
/// // The bottom-right tile is ragged: 4 columns by 28 rows.
/// let rect = grid.rect(grid.tile_count() - 1);
/// assert_eq!((rect.width, rect.height), (4, 28));
/// let view = image.view_rect(rect).unwrap();
/// assert_eq!(view.get(0, 0), image.get(rect.x, rect.y));
/// // Materialize the tile when an owned copy is actually needed.
/// let tile = view.to_image().unwrap();
/// assert_eq!(tile.width(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ImageView<'a> {
    pub(crate) samples: &'a [i32],
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u32,
}

impl<'a> ImageView<'a> {
    /// Builds a view over a raw strided buffer. `samples` must hold at least
    /// `(height - 1) * stride + width` values.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero dimensions, a
    /// stride shorter than the width, or a buffer too short for the geometry.
    pub fn from_raw(
        samples: &'a [i32],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u32,
    ) -> Result<Self, ImageError> {
        check_raw_geometry(samples.len(), width, height, stride)?;
        Ok(Self { samples, width, height, stride, bit_depth })
    }

    /// View width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Distance between consecutive rows in the underlying buffer.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Nominal unsigned bit depth inherited from the underlying image.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Number of pixels in the view.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Sample at column `x`, row `y` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> i32 {
        assert!(x < self.width && y < self.height, "pixel ({x},{y}) out of bounds");
        self.samples[y * self.stride + x]
    }

    /// Row `y` of the view as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row(&self, y: usize) -> &'a [i32] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.samples[y * self.stride..y * self.stride + self.width]
    }

    /// A sub-window of this view. `rect` is in view coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `rect` does not fit.
    pub fn subview(&self, rect: TileRect) -> Result<ImageView<'a>, ImageError> {
        check_rect(rect, self.width, self.height)?;
        Ok(ImageView {
            samples: &self.samples[rect.y * self.stride + rect.x..],
            width: rect.width,
            height: rect.height,
            stride: self.stride,
            bit_depth: self.bit_depth,
        })
    }

    /// Copies the window into an owned [`Image`].
    ///
    /// # Errors
    ///
    /// Returns an error if the samples do not fit the recorded bit depth
    /// (impossible for views taken from a validated [`Image`]).
    pub fn to_image(&self) -> Result<Image, ImageError> {
        let mut samples = Vec::with_capacity(self.pixel_count());
        for y in 0..self.height {
            samples.extend_from_slice(self.row(y));
        }
        Image::from_samples(self.width, self.height, self.bit_depth, samples)
    }

    /// Largest decomposition depth a transform requiring even dimensions at
    /// every scale can apply to this view (see [`Image::max_scales`]).
    #[must_use]
    pub fn max_scales(&self) -> u32 {
        let mut scales = 0;
        let mut w = self.width;
        let mut h = self.height;
        while w >= 2 && h >= 2 && w % 2 == 0 && h % 2 == 0 {
            scales += 1;
            w /= 2;
            h /= 2;
        }
        scales
    }
}

/// The writable counterpart of [`ImageView`]: a strided rectangular window
/// used to scatter decoded tiles or row bands into a full-size frame without
/// materializing intermediate copies.
#[derive(Debug)]
pub struct ImageViewMut<'a> {
    samples: &'a mut [i32],
    width: usize,
    height: usize,
    stride: usize,
    bit_depth: u32,
}

impl<'a> ImageViewMut<'a> {
    /// Builds a mutable view over a raw strided buffer; see
    /// [`ImageView::from_raw`] for the geometry contract.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero dimensions, a
    /// stride shorter than the width, or a buffer too short for the geometry.
    pub fn from_raw(
        samples: &'a mut [i32],
        width: usize,
        height: usize,
        stride: usize,
        bit_depth: u32,
    ) -> Result<Self, ImageError> {
        check_raw_geometry(samples.len(), width, height, stride)?;
        Ok(Self { samples, width, height, stride, bit_depth })
    }

    /// View width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// View height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Distance between consecutive rows in the underlying buffer.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Nominal unsigned bit depth inherited from the underlying image.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Row `y` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row_mut(&mut self, y: usize) -> &mut [i32] {
        assert!(y < self.height, "row {y} out of bounds");
        &mut self.samples[y * self.stride..y * self.stride + self.width]
    }

    /// Copies `source` (same shape) into this window, row by row.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ShapeMismatch`] when the shapes differ.
    pub fn copy_from_view(&mut self, source: &ImageView<'_>) -> Result<(), ImageError> {
        if source.width() != self.width || source.height() != self.height {
            return Err(ImageError::ShapeMismatch {
                left: (self.width, self.height),
                right: (source.width(), source.height()),
            });
        }
        for y in 0..self.height {
            self.row_mut(y).copy_from_slice(source.row(y));
        }
        Ok(())
    }

    /// Copies an owned image (same shape) into this window.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ShapeMismatch`] when the shapes differ.
    pub fn copy_from_image(&mut self, source: &Image) -> Result<(), ImageError> {
        self.copy_from_view(&source.view())
    }
}

/// The partition of a `width x height` image into rectangular tiles.
///
/// Interior tiles are `tile_width x tile_height`; tiles on the right and
/// bottom edges are clipped to the image, so every pixel belongs to exactly
/// one tile and no tile is empty. Tiles are indexed row-major.
///
/// ```
/// use lwc_image::TileGrid;
///
/// let grid = TileGrid::new(70, 50, 32, 32).unwrap();
/// assert_eq!((grid.tiles_x(), grid.tiles_y()), (3, 2));
/// // Ragged right edge: the last column of tiles is 6 pixels wide.
/// assert_eq!(grid.rect(2).width, 6);
/// // Ragged bottom edge: the last row of tiles is 18 pixels tall.
/// assert_eq!(grid.rect(5).height, 18);
/// // Every pixel is covered exactly once.
/// let covered: usize = grid.rects().map(|r| r.pixel_count()).sum();
/// assert_eq!(covered, 70 * 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    image_width: usize,
    image_height: usize,
    tile_width: usize,
    tile_height: usize,
}

impl TileGrid {
    /// Creates a grid over a `width x height` image with the given nominal
    /// tile size. Tile dimensions larger than the image are clipped (a tile
    /// size of `usize::MAX` therefore always yields a single-tile grid).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if any dimension is zero.
    pub fn new(
        image_width: usize,
        image_height: usize,
        tile_width: usize,
        tile_height: usize,
    ) -> Result<Self, ImageError> {
        if image_width == 0 || image_height == 0 || tile_width == 0 || tile_height == 0 {
            return Err(ImageError::InvalidDimensions {
                width: image_width.min(tile_width),
                height: image_height.min(tile_height),
                samples: 0,
            });
        }
        Ok(Self {
            image_width,
            image_height,
            tile_width: tile_width.min(image_width),
            tile_height: tile_height.min(image_height),
        })
    }

    /// The single-tile grid covering the whole image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if a dimension is zero.
    pub fn single(image_width: usize, image_height: usize) -> Result<Self, ImageError> {
        Self::new(image_width, image_height, image_width, image_height)
    }

    /// Width of the covered image.
    #[must_use]
    pub fn image_width(&self) -> usize {
        self.image_width
    }

    /// Height of the covered image.
    #[must_use]
    pub fn image_height(&self) -> usize {
        self.image_height
    }

    /// Nominal (interior) tile width.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Nominal (interior) tile height.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_height
    }

    /// Number of tile columns.
    #[must_use]
    pub fn tiles_x(&self) -> usize {
        self.image_width.div_ceil(self.tile_width)
    }

    /// Number of tile rows.
    #[must_use]
    pub fn tiles_y(&self) -> usize {
        self.image_height.div_ceil(self.tile_height)
    }

    /// Total number of tiles.
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles_x() * self.tiles_y()
    }

    /// `true` if the grid is a single tile covering the whole image.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.tile_count() == 1
    }

    /// The rectangle of tile `(tx, ty)`; edge tiles are clipped to the image.
    ///
    /// # Panics
    ///
    /// Panics if `tx >= tiles_x()` or `ty >= tiles_y()`.
    #[must_use]
    pub fn rect_at(&self, tx: usize, ty: usize) -> TileRect {
        assert!(tx < self.tiles_x() && ty < self.tiles_y(), "tile ({tx},{ty}) out of bounds");
        let x = tx * self.tile_width;
        let y = ty * self.tile_height;
        TileRect {
            x,
            y,
            width: self.tile_width.min(self.image_width - x),
            height: self.tile_height.min(self.image_height - y),
        }
    }

    /// The rectangle of tile `index` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= tile_count()`.
    #[must_use]
    pub fn rect(&self, index: usize) -> TileRect {
        assert!(index < self.tile_count(), "tile index {index} out of bounds");
        self.rect_at(index % self.tiles_x(), index / self.tiles_x())
    }

    /// All tile rectangles in row-major order.
    pub fn rects(&self) -> impl Iterator<Item = TileRect> + '_ {
        (0..self.tile_count()).map(|i| self.rect(i))
    }

    /// The distinct `(width, height)` tile shapes of the grid: the nominal
    /// tile, then the ragged right column, bottom row and corner where the
    /// image does not divide evenly.
    pub fn tile_shapes(&self) -> impl Iterator<Item = (usize, usize)> {
        let sides = |nominal: usize, image: usize, tiles: usize| {
            let last = image - (tiles - 1) * nominal;
            [nominal, last].into_iter().take(if last == nominal { 1 } else { 2 })
        };
        let heights = sides(self.tile_height, self.image_height, self.tiles_y());
        sides(self.tile_width, self.image_width, self.tiles_x())
            .flat_map(move |w| heights.clone().map(move |h| (w, h)))
    }

    /// Row-major index of the tile containing pixel `(x, y)`, or `None` if
    /// the pixel lies outside the image — the lookup behind random tile
    /// access by coordinate (region-of-interest decode).
    #[must_use]
    pub fn tile_index_at(&self, x: usize, y: usize) -> Option<usize> {
        if x >= self.image_width || y >= self.image_height {
            return None;
        }
        Some((y / self.tile_height) * self.tiles_x() + x / self.tile_width)
    }

    /// Row-major indices of the minimal tile set covering `rect` — the work
    /// list of a region-of-interest decode. `None` if the rectangle is empty
    /// or does not fit the image.
    #[must_use]
    pub fn covering_indices(&self, rect: TileRect) -> Option<Vec<usize>> {
        if rect.is_empty() || rect.right() > self.image_width || rect.bottom() > self.image_height {
            return None;
        }
        let tx0 = rect.x / self.tile_width;
        let tx1 = (rect.right() - 1) / self.tile_width;
        let ty0 = rect.y / self.tile_height;
        let ty1 = (rect.bottom() - 1) / self.tile_height;
        let mut indices = Vec::with_capacity((tx1 - tx0 + 1) * (ty1 - ty0 + 1));
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                indices.push(ty * self.tiles_x() + tx);
            }
        }
        Some(indices)
    }
}

fn check_raw_geometry(
    len: usize,
    width: usize,
    height: usize,
    stride: usize,
) -> Result<(), ImageError> {
    if width == 0 || height == 0 || stride < width {
        return Err(ImageError::InvalidDimensions { width, height, samples: len });
    }
    let needed = (height - 1).checked_mul(stride).and_then(|v| v.checked_add(width));
    if !needed.is_some_and(|n| n <= len) {
        return Err(ImageError::InvalidDimensions { width, height, samples: len });
    }
    Ok(())
}

pub(crate) fn check_rect(rect: TileRect, width: usize, height: usize) -> Result<(), ImageError> {
    if rect.is_empty() || rect.right() > width || rect.bottom() > height {
        return Err(ImageError::RegionOutOfBounds {
            rect: (rect.x, rect.y, rect.width, rect.height),
            image: (width, height),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn full_view_mirrors_the_image() {
        let image = synth::ct_phantom(48, 32, 12, 1);
        let view = image.view();
        assert_eq!(view.width(), 48);
        assert_eq!(view.height(), 32);
        assert_eq!(view.stride(), 48);
        assert_eq!(view.bit_depth(), 12);
        assert_eq!(view.pixel_count(), 48 * 32);
        assert_eq!(view.max_scales(), image.max_scales());
        for y in [0, 15, 31] {
            assert_eq!(view.row(y), image.row(y));
        }
        assert_eq!(view.get(47, 31), image.get(47, 31));
        assert_eq!(view.to_image().unwrap(), image);
    }

    #[test]
    fn rect_views_are_strided_windows() {
        let image = synth::random_image(40, 30, 12, 7);
        let rect = TileRect { x: 8, y: 5, width: 16, height: 10 };
        let view = image.view_rect(rect).unwrap();
        assert_eq!(view.stride(), 40);
        for y in 0..10 {
            for x in 0..16 {
                assert_eq!(view.get(x, y), image.get(8 + x, 5 + y));
            }
        }
        let tile = view.to_image().unwrap();
        assert_eq!(tile.width(), 16);
        assert_eq!(tile.height(), 10);
        assert_eq!(tile.get(0, 0), image.get(8, 5));
    }

    #[test]
    fn subview_composes() {
        let image = synth::gradient(32, 32, 12);
        let outer = image.view_rect(TileRect { x: 4, y: 4, width: 20, height: 20 }).unwrap();
        let inner = outer.subview(TileRect { x: 2, y: 3, width: 5, height: 5 }).unwrap();
        assert_eq!(inner.get(0, 0), image.get(6, 7));
        assert!(outer.subview(TileRect { x: 18, y: 0, width: 5, height: 5 }).is_err());
    }

    #[test]
    fn out_of_bounds_rects_are_rejected() {
        let image = synth::flat(16, 16, 8, 1);
        for rect in [
            TileRect { x: 0, y: 0, width: 17, height: 4 },
            TileRect { x: 12, y: 0, width: 8, height: 8 },
            TileRect { x: 0, y: 9, width: 4, height: 8 },
            TileRect { x: 0, y: 0, width: 0, height: 4 },
        ] {
            assert!(
                matches!(image.view_rect(rect), Err(ImageError::RegionOutOfBounds { .. })),
                "{rect:?} should be rejected"
            );
        }
    }

    #[test]
    fn mutable_views_scatter_tiles() {
        let source = synth::mr_slice(20, 12, 12, 3);
        let mut frame = Image::zeros(50, 40, 12).unwrap();
        let rect = TileRect { x: 25, y: 20, width: 20, height: 12 };
        frame.view_rect_mut(rect).unwrap().copy_from_image(&source).unwrap();
        let back = frame.view_rect(rect).unwrap().to_image().unwrap();
        assert_eq!(back, source);
        // Pixels outside the window are untouched.
        assert_eq!(frame.get(0, 0), 0);
        assert_eq!(frame.get(24, 20), 0);
        // Shape mismatches are rejected.
        let wrong = synth::flat(3, 3, 12, 0);
        assert!(matches!(
            frame.view_rect_mut(rect).unwrap().copy_from_image(&wrong),
            Err(ImageError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn view_from_raw_validates_geometry() {
        let buf = vec![0i32; 10];
        assert!(ImageView::from_raw(&buf, 5, 2, 5, 8).is_ok());
        assert!(ImageView::from_raw(&buf, 5, 2, 6, 8).is_err(), "buffer too short");
        assert!(ImageView::from_raw(&buf, 6, 1, 5, 8).is_err(), "stride below width");
        assert!(ImageView::from_raw(&buf, 0, 1, 5, 8).is_err(), "zero width");
        assert!(ImageView::from_raw(&buf, 1, 0, 5, 8).is_err(), "zero height");
        assert!(ImageView::from_raw(&buf, usize::MAX, 2, usize::MAX, 8).is_err(), "overflow");
        let mut buf = vec![0i32; 10];
        assert!(ImageViewMut::from_raw(&mut buf, 5, 2, 5, 8).is_ok());
        assert!(ImageViewMut::from_raw(&mut buf, 5, 3, 5, 8).is_err());
    }

    #[test]
    fn grid_covers_every_pixel_exactly_once() {
        for (w, h, tw, th) in
            [(64, 64, 16, 16), (70, 50, 32, 32), (1, 1, 8, 8), (37, 53, 8, 16), (16, 16, 100, 100)]
        {
            let grid = TileGrid::new(w, h, tw, th).unwrap();
            let mut hits = vec![0u8; w * h];
            for rect in grid.rects() {
                assert!(!rect.is_empty());
                assert!(rect.right() <= w && rect.bottom() <= h);
                for y in rect.y..rect.bottom() {
                    for x in rect.x..rect.right() {
                        hits[y * w + x] += 1;
                    }
                }
            }
            assert!(hits.iter().all(|&c| c == 1), "{w}x{h} in {tw}x{th} tiles");
        }
    }

    #[test]
    fn grid_geometry_accessors() {
        let grid = TileGrid::new(100, 60, 32, 32).unwrap();
        assert_eq!(grid.image_width(), 100);
        assert_eq!(grid.image_height(), 60);
        assert_eq!(grid.tile_width(), 32);
        assert_eq!(grid.tile_height(), 32);
        assert_eq!(grid.tiles_x(), 4);
        assert_eq!(grid.tiles_y(), 2);
        assert_eq!(grid.tile_count(), 8);
        assert!(!grid.is_single());
        assert_eq!(grid.rect(0), TileRect { x: 0, y: 0, width: 32, height: 32 });
        assert_eq!(grid.rect_at(3, 1), TileRect { x: 96, y: 32, width: 4, height: 28 });
        assert_eq!(grid.rect(7), grid.rect_at(3, 1));

        let single = TileGrid::single(512, 512).unwrap();
        assert!(single.is_single());
        assert_eq!(single.rect(0).pixel_count(), 512 * 512);
        // Oversized tile requests clip to the image and become single grids.
        let clipped = TileGrid::new(8, 8, usize::MAX, usize::MAX).unwrap();
        assert!(clipped.is_single());
    }

    #[test]
    fn tile_shapes_are_the_distinct_tile_sizes() {
        let shapes = |grid: TileGrid| grid.tile_shapes().collect::<Vec<_>>();
        let ragged = TileGrid::new(100, 60, 32, 32).unwrap();
        assert_eq!(shapes(ragged), [(32, 32), (32, 28), (4, 32), (4, 28)]);
        assert_eq!(shapes(TileGrid::new(64, 60, 32, 32).unwrap()), [(32, 32), (32, 28)]);
        assert_eq!(shapes(TileGrid::new(64, 64, 32, 32).unwrap()), [(32, 32)]);
        assert_eq!(shapes(TileGrid::single(7, 5).unwrap()), [(7, 5)]);
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(TileGrid::new(0, 8, 4, 4).is_err());
        assert!(TileGrid::new(8, 0, 4, 4).is_err());
        assert!(TileGrid::new(8, 8, 0, 4).is_err());
        assert!(TileGrid::new(8, 8, 4, 0).is_err());
    }

    #[test]
    fn tile_rect_helpers() {
        let rect = TileRect { x: 3, y: 4, width: 5, height: 6 };
        assert_eq!(rect.pixel_count(), 30);
        assert_eq!(rect.right(), 8);
        assert_eq!(rect.bottom(), 10);
        assert!(!rect.is_empty());
        assert!(TileRect { x: 0, y: 0, width: 0, height: 3 }.is_empty());
    }
}
