//! Volumetric containers: an owned slice stack and the 3-D brick grid.
//!
//! Medical data is mostly CT/MRI *volumes*, not lone slices. An
//! [`ImageStack`] owns `depth` equally shaped slices in one contiguous
//! buffer (slice-major: slice `z` occupies `width * height` consecutive
//! samples); a [`VolumeView`] is the borrowed strided window used by the
//! volumetric codec, handing out per-slice [`ImageView`]s at zero cost; and
//! a [`BrickGrid`] extends [`TileGrid`] with a z axis, partitioning the
//! volume into bricks with ragged right/bottom/back edges — the 3-D analogue
//! of the tile partition the 2-D engines are built on.

use crate::view::check_rect;
use crate::{Image, ImageError, ImageView, TileGrid, TileRect};

/// A rectangular box inside a volume, in voxel coordinates — the 3-D
/// counterpart of [`TileRect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrickRect {
    /// The in-plane rectangle (x/y extent, shared by every covered slice).
    pub plane: TileRect,
    /// First covered slice.
    pub z: usize,
    /// Number of covered slices.
    pub depth: usize,
}

impl BrickRect {
    /// Number of voxels covered.
    #[must_use]
    pub fn voxel_count(&self) -> usize {
        self.plane.pixel_count() * self.depth
    }

    /// One past the last covered slice; saturates like [`TileRect::right`].
    #[must_use]
    pub fn back(&self) -> usize {
        self.z.saturating_add(self.depth)
    }
}

/// `width x height x depth at (x, y, z)`, as error messages name a box.
impl std::fmt::Display for BrickRect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TileRect { x, y, width, height } = self.plane;
        write!(f, "{width}x{height}x{} at ({x}, {y}, {})", self.depth, self.z)
    }
}

/// An owned stack of equally shaped slices — the volume exchange type.
///
/// Samples are stored slice-major and row-major within a slice, so slice `z`
/// is the contiguous range `z * width * height ..` and borrows as an
/// ordinary [`ImageView`]. All slices share one bit depth and every sample
/// is validated against it on construction, exactly like [`Image`].
///
/// ```
/// use lwc_image::{synth, ImageStack};
///
/// let volume = synth::ct_volume(48, 40, 7, 12, 1);
/// assert_eq!((volume.width(), volume.height(), volume.depth()), (48, 40, 7));
/// let slice = volume.slice(3).unwrap();
/// assert_eq!(slice.get(0, 0), volume.get(0, 0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageStack {
    width: usize,
    height: usize,
    depth: usize,
    bit_depth: u32,
    samples: Vec<i32>,
}

impl ImageStack {
    /// Builds a stack from a slice-major sample buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero dimensions or a
    /// buffer whose length is not `width * height * depth`,
    /// [`ImageError::InvalidBitDepth`] outside 1–16, and
    /// [`ImageError::SampleOutOfRange`] if any sample does not fit the
    /// declared depth.
    pub fn from_samples(
        width: usize,
        height: usize,
        depth: usize,
        bit_depth: u32,
        samples: Vec<i32>,
    ) -> Result<Self, ImageError> {
        let voxels = width.checked_mul(height).and_then(|p| p.checked_mul(depth));
        if width == 0 || height == 0 || depth == 0 || voxels != Some(samples.len()) {
            return Err(ImageError::InvalidDimensions { width, height, samples: samples.len() });
        }
        if !(1..=16).contains(&bit_depth) {
            return Err(ImageError::InvalidBitDepth(bit_depth));
        }
        let max = (1i32 << bit_depth) - 1;
        if let Some(&value) = samples.iter().find(|v| !(0..=max).contains(*v)) {
            return Err(ImageError::SampleOutOfRange { value, bit_depth });
        }
        Ok(Self { width, height, depth, bit_depth, samples })
    }

    /// Assembles a stack from parts the caller already validated: nonzero
    /// dimensions whose product is `samples.len()`, a bit depth in 1–16 and
    /// every sample in `[0, 2^bit_depth)`. The DICOM reader builds its
    /// samples in range by construction, so it skips the range pass.
    pub(crate) fn from_checked_parts(
        width: usize,
        height: usize,
        depth: usize,
        bit_depth: u32,
        samples: Vec<i32>,
    ) -> Self {
        debug_assert_eq!(samples.len(), width * height * depth);
        debug_assert!(samples.iter().all(|v| (0..1 << bit_depth).contains(v)));
        Self { width, height, depth, bit_depth, samples }
    }

    /// An all-zero stack.
    ///
    /// # Errors
    ///
    /// Returns an error for zero dimensions or an unsupported bit depth.
    pub fn zeros(
        width: usize,
        height: usize,
        depth: usize,
        bit_depth: u32,
    ) -> Result<Self, ImageError> {
        let voxels = width
            .checked_mul(height)
            .and_then(|p| p.checked_mul(depth))
            .ok_or(ImageError::InvalidDimensions { width, height, samples: usize::MAX })?;
        Self::from_samples(width, height, depth, bit_depth, vec![0; voxels])
    }

    /// Stacks owned slices of identical shape into a volume.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for an empty slice list and
    /// [`ImageError::ShapeMismatch`] when a slice disagrees with the first
    /// one in shape (bit depths must match too).
    pub fn from_slices(slices: &[Image]) -> Result<Self, ImageError> {
        let Some(first) = slices.first() else {
            return Err(ImageError::InvalidDimensions { width: 0, height: 0, samples: 0 });
        };
        let mut samples = Vec::with_capacity(first.pixel_count() * slices.len());
        for slice in slices {
            if slice.width() != first.width()
                || slice.height() != first.height()
                || slice.bit_depth() != first.bit_depth()
            {
                return Err(ImageError::ShapeMismatch {
                    left: (first.width(), first.height()),
                    right: (slice.width(), slice.height()),
                });
            }
            samples.extend_from_slice(slice.samples());
        }
        Self::from_samples(first.width(), first.height(), slices.len(), first.bit_depth(), samples)
    }

    /// Slice width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Slice height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of slices.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Unsigned bit depth shared by every slice.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Total number of voxels.
    #[must_use]
    pub fn voxel_count(&self) -> usize {
        self.width * self.height * self.depth
    }

    /// The sample at `(x, y, z)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize, z: usize) -> i32 {
        assert!(
            x < self.width && y < self.height && z < self.depth,
            "voxel ({x},{y},{z}) out of bounds"
        );
        self.samples[(z * self.height + y) * self.width + x]
    }

    /// The slice-major sample buffer.
    #[must_use]
    pub fn samples(&self) -> &[i32] {
        &self.samples
    }

    /// Consumes the stack, returning its sample buffer.
    #[must_use]
    pub fn into_samples(self) -> Vec<i32> {
        self.samples
    }

    /// Borrows slice `z` as an [`ImageView`] (O(1), no copy).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `z >= depth`.
    pub fn slice(&self, z: usize) -> Result<ImageView<'_>, ImageError> {
        if z >= self.depth {
            return Err(ImageError::RegionOutOfBounds {
                rect: (0, z, self.width, self.height),
                image: (self.width, self.height),
            });
        }
        let plane = self.width * self.height;
        ImageView::from_raw(
            &self.samples[z * plane..(z + 1) * plane],
            self.width,
            self.height,
            self.width,
            self.bit_depth,
        )
    }

    /// Copies slice `z` into an owned [`Image`].
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `z >= depth`.
    pub fn slice_image(&self, z: usize) -> Result<Image, ImageError> {
        self.slice(z)?.to_image()
    }

    /// Unwraps a single-slice stack into an [`Image`] without copying.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if the stack holds more
    /// than one slice.
    pub fn into_image(self) -> Result<Image, ImageError> {
        if self.depth != 1 {
            return Err(ImageError::InvalidDimensions {
                width: self.width,
                height: self.height,
                samples: self.samples.len(),
            });
        }
        Ok(Image::from_checked_parts(self.width, self.height, self.bit_depth, self.samples))
    }

    /// Moves slice 0 into an owned [`Image`]: the buffer is truncated to
    /// one plane and shrunk, so nothing is copied and the other slices are
    /// freed.
    pub(crate) fn into_first_slice(self) -> Image {
        let mut samples = self.samples;
        samples.truncate(self.width * self.height);
        samples.shrink_to_fit();
        Image::from_checked_parts(self.width, self.height, self.bit_depth, samples)
    }

    /// The read-only view of the whole volume.
    #[must_use]
    pub fn view(&self) -> VolumeView<'_> {
        VolumeView {
            samples: &self.samples,
            width: self.width,
            height: self.height,
            depth: self.depth,
            row_stride: self.width,
            slice_stride: self.width * self.height,
            bit_depth: self.bit_depth,
        }
    }

    /// The view of the box `rect` — strided in x/y and in z.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if the box does not fit.
    pub fn view_brick(&self, rect: BrickRect) -> Result<VolumeView<'_>, ImageError> {
        self.view().subvolume(rect)
    }
}

/// A read-only strided window into a volume's samples — the 3-D counterpart
/// of [`ImageView`]. Rows are contiguous; consecutive rows are `row_stride`
/// samples apart and consecutive slices `slice_stride` samples apart.
#[derive(Debug, Clone, Copy)]
pub struct VolumeView<'a> {
    samples: &'a [i32],
    width: usize,
    height: usize,
    depth: usize,
    row_stride: usize,
    slice_stride: usize,
    bit_depth: u32,
}

impl<'a> VolumeView<'a> {
    /// Window width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Window height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of covered slices.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Nominal unsigned bit depth inherited from the underlying stack.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Number of voxels in the window.
    #[must_use]
    pub fn voxel_count(&self) -> usize {
        self.width * self.height * self.depth
    }

    /// The sample at `(x, y, z)` of the window.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize, z: usize) -> i32 {
        assert!(
            x < self.width && y < self.height && z < self.depth,
            "voxel ({x},{y},{z}) out of bounds"
        );
        self.samples[z * self.slice_stride + y * self.row_stride + x]
    }

    /// Row `y` of slice `z` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height` or `z >= depth`.
    #[must_use]
    pub fn row(&self, y: usize, z: usize) -> &'a [i32] {
        assert!(y < self.height && z < self.depth, "row ({y},{z}) out of bounds");
        let start = z * self.slice_stride + y * self.row_stride;
        &self.samples[start..start + self.width]
    }

    /// Slice `z` of the window as an [`ImageView`] (still strided in x/y).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `z >= depth`.
    pub fn slice(&self, z: usize) -> Result<ImageView<'a>, ImageError> {
        if z >= self.depth {
            return Err(ImageError::RegionOutOfBounds {
                rect: (0, z, self.width, self.height),
                image: (self.width, self.height),
            });
        }
        ImageView::from_raw(
            &self.samples[z * self.slice_stride..],
            self.width,
            self.height,
            self.row_stride,
            self.bit_depth,
        )
    }

    /// A sub-window of this view; `rect` is in window coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if the box does not fit.
    pub fn subvolume(&self, rect: BrickRect) -> Result<VolumeView<'a>, ImageError> {
        check_rect(rect.plane, self.width, self.height)?;
        if rect.depth == 0 || rect.back() > self.depth {
            return Err(ImageError::RegionOutOfBounds {
                rect: (rect.plane.x, rect.z, rect.plane.width, rect.depth),
                image: (self.width, self.depth),
            });
        }
        let origin = rect.z * self.slice_stride + rect.plane.y * self.row_stride + rect.plane.x;
        Ok(VolumeView {
            samples: &self.samples[origin..],
            width: rect.plane.width,
            height: rect.plane.height,
            depth: rect.depth,
            row_stride: self.row_stride,
            slice_stride: self.slice_stride,
            bit_depth: self.bit_depth,
        })
    }

    /// Copies the window into an owned slice-major buffer (plane by plane).
    #[must_use]
    pub fn to_samples(&self) -> Vec<i32> {
        let mut out = Vec::with_capacity(self.voxel_count());
        for z in 0..self.depth {
            for y in 0..self.height {
                out.extend_from_slice(self.row(y, z));
            }
        }
        out
    }
}

/// A 2-D view is a one-slice volume: no sample is copied.
impl<'a> From<ImageView<'a>> for VolumeView<'a> {
    fn from(view: ImageView<'a>) -> Self {
        Self {
            samples: view.samples,
            width: view.width(),
            height: view.height(),
            depth: 1,
            row_stride: view.stride(),
            slice_stride: view.stride() * view.height(),
            bit_depth: view.bit_depth(),
        }
    }
}

/// The partition of a volume into bricks: a [`TileGrid`] in the plane and a
/// ragged subdivision along z. Every voxel belongs to exactly one brick and
/// no brick is empty; bricks are indexed plane-major (all tiles of z-layer
/// 0, then all tiles of z-layer 1, ...), so one z-layer of bricks — a *slab*
/// — is a contiguous index range, which is what the bounded-memory slab
/// streaming decoder walks.
///
/// ```
/// use lwc_image::BrickGrid;
///
/// let grid = BrickGrid::new(70, 50, 11, 32, 32, 4).unwrap();
/// assert_eq!((grid.plane().tiles_x(), grid.plane().tiles_y()), (3, 2));
/// assert_eq!(grid.bricks_z(), 3); // ragged back edge: 4 + 4 + 3 slices
/// assert_eq!(grid.brick_count(), 18);
/// assert_eq!(grid.rect(grid.brick_count() - 1).depth, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickGrid {
    plane: TileGrid,
    image_depth: usize,
    brick_depth: usize,
}

impl BrickGrid {
    /// Creates a grid over a `width x height x depth` volume with the given
    /// nominal brick shape. Brick dimensions larger than the volume clip.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if any dimension is zero.
    pub fn new(
        width: usize,
        height: usize,
        depth: usize,
        tile_width: usize,
        tile_height: usize,
        brick_depth: usize,
    ) -> Result<Self, ImageError> {
        if depth == 0 || brick_depth == 0 {
            return Err(ImageError::InvalidDimensions {
                width,
                height,
                samples: depth.min(brick_depth),
            });
        }
        Ok(Self {
            plane: TileGrid::new(width, height, tile_width, tile_height)?,
            image_depth: depth,
            brick_depth: brick_depth.min(depth),
        })
    }

    /// The in-plane tile partition shared by every z-layer of bricks.
    #[must_use]
    pub fn plane(&self) -> &TileGrid {
        &self.plane
    }

    /// Number of slices of the covered volume.
    #[must_use]
    pub fn image_depth(&self) -> usize {
        self.image_depth
    }

    /// Nominal (interior) brick depth in slices.
    #[must_use]
    pub fn brick_depth(&self) -> usize {
        self.brick_depth
    }

    /// Number of brick layers along z.
    #[must_use]
    pub fn bricks_z(&self) -> usize {
        self.image_depth.div_ceil(self.brick_depth)
    }

    /// Total number of bricks.
    #[must_use]
    pub fn brick_count(&self) -> usize {
        self.bricks_z() * self.plane.tile_count()
    }

    /// `true` if a single brick covers the whole volume.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.brick_count() == 1
    }

    /// The box of the whole volume.
    #[must_use]
    pub fn bounds(&self) -> BrickRect {
        let plane = TileRect {
            x: 0,
            y: 0,
            width: self.plane.image_width(),
            height: self.plane.image_height(),
        };
        BrickRect { plane, z: 0, depth: self.image_depth }
    }

    /// The z extent `(first slice, depth)` of brick layer `bz`; the back
    /// layer is clipped to the volume.
    ///
    /// # Panics
    ///
    /// Panics if `bz >= bricks_z()`.
    #[must_use]
    pub fn z_extent(&self, bz: usize) -> (usize, usize) {
        assert!(bz < self.bricks_z(), "brick layer {bz} out of bounds");
        let z = bz * self.brick_depth;
        (z, self.brick_depth.min(self.image_depth - z))
    }

    /// The box of brick `index` in plane-major order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= brick_count()`.
    #[must_use]
    pub fn rect(&self, index: usize) -> BrickRect {
        assert!(index < self.brick_count(), "brick index {index} out of bounds");
        let per_layer = self.plane.tile_count();
        let (z, depth) = self.z_extent(index / per_layer);
        BrickRect { plane: self.plane.rect(index % per_layer), z, depth }
    }

    /// All brick boxes in plane-major order.
    pub fn rects(&self) -> impl Iterator<Item = BrickRect> + '_ {
        (0..self.brick_count()).map(|i| self.rect(i))
    }

    /// Plane-major index of the brick containing voxel `(x, y, z)`, or
    /// `None` outside the volume — coordinate-addressed random access for
    /// region-of-interest decode.
    #[must_use]
    pub fn brick_index_at(&self, x: usize, y: usize, z: usize) -> Option<usize> {
        if z >= self.image_depth {
            return None;
        }
        let tile = self.plane.tile_index_at(x, y)?;
        Some((z / self.brick_depth) * self.plane.tile_count() + tile)
    }

    /// Plane-major indices of the minimal brick set covering the box `rect`
    /// — the work list of a volumetric region-of-interest decode. `None` if
    /// the box is empty or does not fit the volume.
    #[must_use]
    pub fn covering_indices(&self, rect: BrickRect) -> Option<Vec<usize>> {
        if rect.depth == 0 || rect.back() > self.image_depth {
            return None;
        }
        let tiles = self.plane.covering_indices(rect.plane)?;
        let bz0 = rect.z / self.brick_depth;
        let bz1 = (rect.back() - 1) / self.brick_depth;
        let per_layer = self.plane.tile_count();
        let mut indices = Vec::with_capacity(tiles.len() * (bz1 - bz0 + 1));
        for bz in bz0..=bz1 {
            indices.extend(tiles.iter().map(|&t| bz * per_layer + t));
        }
        Some(indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn stack_slices_are_zero_copy_windows() {
        let volume = synth::ct_volume(20, 14, 5, 12, 7);
        assert_eq!(volume.voxel_count(), 20 * 14 * 5);
        for z in 0..5 {
            let slice = volume.slice(z).unwrap();
            assert_eq!(slice.stride(), 20);
            for y in [0usize, 7, 13] {
                for x in [0usize, 9, 19] {
                    assert_eq!(slice.get(x, y), volume.get(x, y, z));
                }
            }
            assert_eq!(
                volume.slice_image(z).unwrap().samples(),
                slice.to_image().unwrap().samples()
            );
        }
        assert!(volume.slice(5).is_err());
    }

    #[test]
    fn from_slices_and_back() {
        let slices: Vec<Image> = (0..4).map(|z| synth::mr_slice(16, 12, 12, z as u64)).collect();
        let stack = ImageStack::from_slices(&slices).unwrap();
        for (z, slice) in slices.iter().enumerate() {
            assert_eq!(&stack.slice_image(z).unwrap(), slice);
        }
        assert!(ImageStack::from_slices(&[]).is_err());
        let mut bad = slices.clone();
        bad.push(synth::flat(8, 8, 12, 0));
        assert!(matches!(ImageStack::from_slices(&bad), Err(ImageError::ShapeMismatch { .. })));
    }

    #[test]
    fn construction_validates_shape_depth_and_range() {
        assert!(ImageStack::from_samples(2, 2, 2, 8, vec![0; 8]).is_ok());
        assert!(ImageStack::from_samples(2, 2, 0, 8, vec![]).is_err());
        assert!(ImageStack::from_samples(2, 2, 2, 8, vec![0; 7]).is_err());
        assert!(ImageStack::from_samples(2, 2, 2, 0, vec![0; 8]).is_err());
        assert!(ImageStack::from_samples(2, 2, 2, 17, vec![0; 8]).is_err());
        assert!(matches!(
            ImageStack::from_samples(2, 2, 2, 8, vec![0, 0, 0, 256, 0, 0, 0, 0]),
            Err(ImageError::SampleOutOfRange { value: 256, .. })
        ));
        assert!(matches!(
            ImageStack::from_samples(2, 2, 2, 8, vec![0, 0, -1, 0, 0, 0, 0, 0]),
            Err(ImageError::SampleOutOfRange { value: -1, .. })
        ));
    }

    #[test]
    fn volume_views_are_strided_boxes() {
        let volume = synth::ct_volume(30, 22, 9, 12, 3);
        let rect =
            BrickRect { plane: TileRect { x: 5, y: 4, width: 12, height: 10 }, z: 2, depth: 4 };
        let view = volume.view_brick(rect).unwrap();
        assert_eq!((view.width(), view.height(), view.depth()), (12, 10, 4));
        for z in 0..4 {
            for y in 0..10 {
                for x in 0..12 {
                    assert_eq!(view.get(x, y, z), volume.get(5 + x, 4 + y, 2 + z));
                }
            }
        }
        // Plane-major materialization agrees with direct indexing.
        let gathered = view.to_samples();
        assert_eq!(gathered.len(), rect.voxel_count());
        assert_eq!(gathered[0], volume.get(5, 4, 2));
        assert_eq!(gathered[12 * 10], volume.get(5, 4, 3));
        // Slices of the window stay strided.
        let slice = view.slice(1).unwrap();
        assert_eq!(slice.stride(), 30);
        assert_eq!(slice.get(0, 0), volume.get(5, 4, 3));
        // Out-of-bounds boxes are rejected.
        assert!(volume.view_brick(BrickRect { plane: rect.plane, z: 6, depth: 4 }).is_err());
        assert!(volume.view_brick(BrickRect { plane: rect.plane, z: 0, depth: 0 }).is_err());
    }

    #[test]
    fn brick_grid_covers_every_voxel_exactly_once() {
        for (w, h, d, tw, th, bd) in [
            (64, 64, 8, 16, 16, 4),
            (70, 50, 11, 32, 32, 4),
            (1, 1, 1, 8, 8, 8),
            (37, 53, 13, 8, 16, 5),
            (16, 16, 3, 100, 100, 100),
        ] {
            let grid = BrickGrid::new(w, h, d, tw, th, bd).unwrap();
            let mut hits = vec![0u8; w * h * d];
            for rect in grid.rects() {
                assert!(rect.voxel_count() > 0);
                for z in rect.z..rect.back() {
                    for y in rect.plane.y..rect.plane.bottom() {
                        for x in rect.plane.x..rect.plane.right() {
                            hits[(z * h + y) * w + x] += 1;
                        }
                    }
                }
            }
            assert!(hits.iter().all(|&c| c == 1), "{w}x{h}x{d} in {tw}x{th}x{bd} bricks");
        }
    }

    #[test]
    fn brick_indexing_is_plane_major() {
        let grid = BrickGrid::new(70, 50, 11, 32, 32, 4).unwrap();
        assert_eq!(grid.bricks_z(), 3);
        assert_eq!(grid.brick_count(), 18);
        assert_eq!(grid.z_extent(2), (8, 3));
        // Brick 7 = z-layer 1, plane tile 1.
        let rect = grid.rect(7);
        assert_eq!((rect.z, rect.depth), (4, 4));
        assert_eq!(rect.plane, grid.plane().rect(1));
        assert_eq!(grid.brick_index_at(33, 0, 5), Some(7));
        assert_eq!(grid.brick_index_at(0, 0, 0), Some(0));
        assert_eq!(grid.brick_index_at(69, 49, 10), Some(grid.brick_count() - 1));
        assert_eq!(grid.brick_index_at(70, 0, 0), None);
        assert_eq!(grid.brick_index_at(0, 0, 11), None);
        assert!(!grid.is_single());
        assert!(BrickGrid::new(8, 8, 2, 8, 8, 2).unwrap().is_single());
        assert!(BrickGrid::new(8, 8, 0, 8, 8, 2).is_err());
        assert!(BrickGrid::new(8, 8, 2, 8, 8, 0).is_err());
    }
}
