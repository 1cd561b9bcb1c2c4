//! Row-major integer raster.

use crate::view::check_rect;
use crate::{ImageError, ImageView, ImageViewMut, TileRect};
use std::fmt;

/// A grayscale image with signed integer samples and an explicit bit depth.
///
/// Medical modalities in the paper's scope (X-ray CT) deliver 12-bit
/// unsigned samples; the DWT datapath treats them as 13-bit signed values
/// (sign + 12 magnitude bits). The container stores `i32` samples and records
/// the nominal unsigned bit depth so workload generators, the word-length
/// analysis and the entropy coder agree on ranges.
///
/// ```
/// use lwc_image::Image;
/// # fn main() -> Result<(), lwc_image::ImageError> {
/// let img = Image::from_samples(2, 2, 8, vec![0, 255, 10, 20])?;
/// assert_eq!(img.get(1, 0), 255);
/// assert_eq!(img.row(1), &[10, 20]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    bit_depth: u32,
    samples: Vec<i32>,
}

impl Image {
    /// Creates a zero-filled image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero width/height and
    /// [`ImageError::InvalidBitDepth`] for depths outside 1–16.
    pub fn zeros(width: usize, height: usize, bit_depth: u32) -> Result<Self, ImageError> {
        Self::from_samples(width, height, bit_depth, vec![0; width.saturating_mul(height)])
    }

    /// Creates an image from a row-major sample buffer.
    ///
    /// # Errors
    ///
    /// * [`ImageError::InvalidDimensions`] if the buffer length differs from
    ///   `width * height` or a dimension is zero.
    /// * [`ImageError::InvalidBitDepth`] if `bit_depth` is outside 1–16.
    /// * [`ImageError::SampleOutOfRange`] if a sample exceeds the unsigned
    ///   range of `bit_depth` bits.
    pub fn from_samples(
        width: usize,
        height: usize,
        bit_depth: u32,
        samples: Vec<i32>,
    ) -> Result<Self, ImageError> {
        if width == 0 || height == 0 || samples.len() != width * height {
            return Err(ImageError::InvalidDimensions { width, height, samples: samples.len() });
        }
        if bit_depth == 0 || bit_depth > 16 {
            return Err(ImageError::InvalidBitDepth(bit_depth));
        }
        let max = (1i32 << bit_depth) - 1;
        if let Some(&value) = samples.iter().find(|&&v| v < 0 || v > max) {
            return Err(ImageError::SampleOutOfRange { value, bit_depth });
        }
        Ok(Self { width, height, bit_depth, samples })
    }

    /// Assembles an image from parts another constructor already validated.
    pub(crate) fn from_checked_parts(
        width: usize,
        height: usize,
        bit_depth: u32,
        samples: Vec<i32>,
    ) -> Self {
        Self { width, height, bit_depth, samples }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Nominal unsigned bit depth of the samples.
    #[must_use]
    pub fn bit_depth(&self) -> u32 {
        self.bit_depth
    }

    /// Number of pixels.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Largest representable sample value for the bit depth.
    #[must_use]
    pub fn max_sample(&self) -> i32 {
        (1i32 << self.bit_depth) - 1
    }

    /// Sample at column `x`, row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= width` or `y >= height`.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> i32 {
        self.view().get(x, y)
    }

    /// Row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row(&self, y: usize) -> &[i32] {
        self.view().row(y)
    }

    /// The borrowed full-frame view of this image (O(1), no copy). All
    /// rectangular accessors are defined in terms of this view, so owned and
    /// tiled code paths share one implementation.
    ///
    /// ```
    /// use lwc_image::synth;
    ///
    /// let image = synth::gradient(32, 16, 12);
    /// let view = image.view();
    /// assert_eq!(view.row(3), image.row(3));
    /// ```
    #[must_use]
    pub fn view(&self) -> ImageView<'_> {
        ImageView::from_raw(&self.samples, self.width, self.height, self.width, self.bit_depth)
            .expect("a validated image is always a valid view")
    }

    /// A borrowed view of the `rect` window of this image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `rect` does not fit.
    pub fn view_rect(&self, rect: TileRect) -> Result<ImageView<'_>, ImageError> {
        self.view().subview(rect)
    }

    /// The mutable full-frame view.
    #[must_use]
    pub fn view_mut(&mut self) -> ImageViewMut<'_> {
        ImageViewMut::from_raw(
            &mut self.samples,
            self.width,
            self.height,
            self.width,
            self.bit_depth,
        )
        .expect("a validated image is always a valid view")
    }

    /// A mutable view of the `rect` window, used to scatter decoded tiles
    /// into a frame.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `rect` does not fit.
    pub fn view_rect_mut(&mut self, rect: TileRect) -> Result<ImageViewMut<'_>, ImageError> {
        check_rect(rect, self.width, self.height)?;
        ImageViewMut::from_raw(
            &mut self.samples[rect.y * self.width + rect.x..],
            rect.width,
            rect.height,
            self.width,
            self.bit_depth,
        )
    }

    /// Copies the `rect` window out into an owned image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::RegionOutOfBounds`] if `rect` does not fit.
    pub fn crop(&self, rect: TileRect) -> Result<Image, ImageError> {
        self.view_rect(rect)?.to_image()
    }

    /// All samples in row-major order.
    #[must_use]
    pub fn samples(&self) -> &[i32] {
        &self.samples
    }

    /// Consumes the image and returns the sample buffer.
    #[must_use]
    pub fn into_samples(self) -> Vec<i32> {
        self.samples
    }

    /// Returns `true` if the image is square with a power-of-two side — the
    /// shape the pyramid algorithm (and the paper's 512×512 workload) uses.
    #[must_use]
    pub fn is_dyadic_square(&self) -> bool {
        self.width == self.height && self.width.is_power_of_two()
    }

    /// Returns the largest number of decomposition scales applicable to this
    /// image (each scale halves both dimensions; both halves must stay even
    /// until the last scale).
    #[must_use]
    pub fn max_scales(&self) -> u32 {
        self.view().max_scales()
    }

    /// Checks that two images have identical dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::ShapeMismatch`] when they differ.
    pub fn check_same_shape(&self, other: &Image) -> Result<(), ImageError> {
        if self.width != other.width || self.height != other.height {
            return Err(ImageError::ShapeMismatch {
                left: (self.width, self.height),
                right: (other.width, other.height),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} image, {}-bit", self.width, self.height, self.bit_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_inputs() {
        assert!(Image::zeros(4, 4, 12).is_ok());
        assert!(matches!(Image::zeros(0, 4, 12), Err(ImageError::InvalidDimensions { .. })));
        assert!(matches!(Image::zeros(4, 4, 0), Err(ImageError::InvalidBitDepth(0))));
        assert!(matches!(Image::zeros(4, 4, 17), Err(ImageError::InvalidBitDepth(17))));
        assert!(matches!(
            Image::from_samples(2, 1, 8, vec![1, 2, 3]),
            Err(ImageError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Image::from_samples(2, 1, 8, vec![1, 300]),
            Err(ImageError::SampleOutOfRange { value: 300, .. })
        ));
        assert!(matches!(
            Image::from_samples(2, 1, 8, vec![-1, 0]),
            Err(ImageError::SampleOutOfRange { value: -1, .. })
        ));
    }

    #[test]
    fn accessors_return_expected_values() {
        let img = Image::from_samples(3, 2, 12, vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert_eq!(img.bit_depth(), 12);
        assert_eq!(img.pixel_count(), 6);
        assert_eq!(img.max_sample(), 4095);
        assert_eq!(img.get(2, 1), 6);
        assert_eq!(img.row(0), &[1, 2, 3]);
        assert_eq!(img.samples().len(), 6);
        assert_eq!(img.clone().into_samples(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_panics_out_of_bounds() {
        let img = Image::zeros(2, 2, 8).unwrap();
        let _ = img.get(2, 0);
    }

    #[test]
    fn dyadic_square_and_scales() {
        let img = Image::zeros(512, 512, 12).unwrap();
        assert!(img.is_dyadic_square());
        assert!(img.max_scales() >= 6, "a 512x512 image supports the paper's 6 scales");
        let img = Image::zeros(48, 20, 8).unwrap();
        assert!(!img.is_dyadic_square());
        assert_eq!(img.max_scales(), 2);
        let img = Image::zeros(3, 3, 8).unwrap();
        assert_eq!(img.max_scales(), 0);
    }

    #[test]
    fn shape_check() {
        let a = Image::zeros(4, 4, 8).unwrap();
        let b = Image::zeros(4, 8, 8).unwrap();
        assert!(a.check_same_shape(&a).is_ok());
        assert!(a.check_same_shape(&b).is_err());
    }

    #[test]
    fn display_mentions_shape_and_depth() {
        let img = Image::zeros(16, 8, 12).unwrap();
        assert_eq!(img.to_string(), "16x8 image, 12-bit");
    }
}
