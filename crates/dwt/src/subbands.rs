//! Mallat-layout decomposition container and subband views.

use lwc_filters::FilterId;
use std::fmt;

/// One of the four subbands produced at each scale of the 2-D pyramid.
///
/// The paper (Fig. 1) writes them as `d^HH` (approximation — low-pass along
/// rows **and** columns), `d^HG`, `d^GH` and `d^GG`; the names below use the
/// more common orientation wording, with the paper's symbol in the docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subband {
    /// `d^HH`: low-pass rows, low-pass columns — the approximation fed to
    /// the next scale.
    Approx,
    /// `d^GH`: high-pass along rows, low-pass along columns — responds to
    /// vertical edges (horizontal detail).
    HorizontalDetail,
    /// `d^HG`: low-pass along rows, high-pass along columns — responds to
    /// horizontal edges (vertical detail).
    VerticalDetail,
    /// `d^GG`: high-pass along both — diagonal detail.
    DiagonalDetail,
}

impl Subband {
    /// The three detail subbands, in the order the coder serializes them.
    pub const DETAILS: [Subband; 3] =
        [Subband::HorizontalDetail, Subband::VerticalDetail, Subband::DiagonalDetail];

    /// The paper's notation for the subband.
    #[must_use]
    pub fn paper_symbol(self) -> &'static str {
        match self {
            Subband::Approx => "dHH",
            Subband::HorizontalDetail => "dGH",
            Subband::VerticalDetail => "dHG",
            Subband::DiagonalDetail => "dGG",
        }
    }
}

impl fmt::Display for Subband {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_symbol())
    }
}

/// A rectangular region of the Mallat layout occupied by one subband.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubbandRect {
    /// Left column of the region.
    pub x: usize,
    /// Top row of the region.
    pub y: usize,
    /// Width of the region in samples.
    pub width: usize,
    /// Height of the region in samples.
    pub height: usize,
}

impl SubbandRect {
    /// Number of samples in the region.
    #[must_use]
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Returns `true` when the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A multi-scale wavelet decomposition stored in the Mallat layout: the
/// scale-`s` approximation occupies the top-left `width/2^s × height/2^s`
/// corner, with the three scale-`s` detail bands in the adjacent quadrants.
///
/// The sample type is `f64` for the reference transform and raw `i64`
/// fixed-point words (with per-scale formats described by the word-length
/// plan) for the hardware-accurate transform.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition<T> {
    data: Vec<T>,
    width: usize,
    height: usize,
    scales: u32,
    filter: FilterId,
    input_bit_depth: u32,
}

impl<T: Copy> Decomposition<T> {
    /// Wraps a Mallat-layout buffer. Intended for the transform
    /// implementations in this crate; users normally obtain decompositions
    /// from [`Dwt2d::forward`](crate::Dwt2d::forward) or
    /// [`FixedDwt2d::forward`](crate::FixedDwt2d::forward).
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not equal `width * height`.
    #[must_use]
    pub fn from_raw(
        data: Vec<T>,
        width: usize,
        height: usize,
        scales: u32,
        filter: FilterId,
        input_bit_depth: u32,
    ) -> Self {
        assert_eq!(data.len(), width * height, "buffer length must match dimensions");
        Self { data, width, height, scales, filter, input_bit_depth }
    }

    /// Width of the underlying layout (equals the source image width).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the underlying layout (equals the source image height).
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of decomposition scales.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.scales
    }

    /// Filter bank that produced the decomposition.
    #[must_use]
    pub fn filter(&self) -> FilterId {
        self.filter
    }

    /// Bit depth of the source image (needed to rebuild it losslessly).
    #[must_use]
    pub fn input_bit_depth(&self) -> u32 {
        self.input_bit_depth
    }

    /// The whole Mallat-layout buffer, row major.
    #[must_use]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the Mallat-layout buffer.
    #[must_use]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Region of the layout occupied by `band` at `scale` (1-based).
    ///
    /// For [`Subband::Approx`] only `scale == scales()` is meaningful (the
    /// approximations of shallower scales have been overwritten by deeper
    /// ones), but the rectangle is still returned for any scale because the
    /// in-place transforms use it while iterating.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or exceeds the decomposition depth.
    #[must_use]
    pub fn subband_rect(&self, scale: u32, band: Subband) -> SubbandRect {
        assert!(scale >= 1 && scale <= self.scales, "scale {scale} out of range");
        let w = self.width >> scale;
        let h = self.height >> scale;
        match band {
            Subband::Approx => SubbandRect { x: 0, y: 0, width: w, height: h },
            Subband::HorizontalDetail => SubbandRect { x: w, y: 0, width: w, height: h },
            Subband::VerticalDetail => SubbandRect { x: 0, y: h, width: w, height: h },
            Subband::DiagonalDetail => SubbandRect { x: w, y: h, width: w, height: h },
        }
    }

    /// Copies the samples of `band` at `scale` into a new vector
    /// (row major inside the band).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or exceeds the decomposition depth.
    #[must_use]
    pub fn subband(&self, scale: u32, band: Subband) -> Vec<T> {
        let rect = self.subband_rect(scale, band);
        let mut out = Vec::with_capacity(rect.len());
        for y in rect.y..rect.y + rect.height {
            let row_start = y * self.width + rect.x;
            out.extend_from_slice(&self.data[row_start..row_start + rect.width]);
        }
        out
    }

    /// Sample at `(x, y)` of the full layout.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(x < self.width && y < self.height, "({x},{y}) out of bounds");
        self.data[y * self.width + x]
    }

    /// Applies `f` to every sample of the layout, producing a new
    /// decomposition with the same geometry.
    #[must_use]
    pub fn map<U: Copy, F: FnMut(T) -> U>(&self, mut f: F) -> Decomposition<U> {
        Decomposition {
            data: self.data.iter().map(|&v| f(v)).collect(),
            width: self.width,
            height: self.height,
            scales: self.scales,
            filter: self.filter,
            input_bit_depth: self.input_bit_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decomposition() -> Decomposition<f64> {
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        Decomposition::from_raw(data, 8, 8, 2, FilterId::F1, 12)
    }

    #[test]
    fn accessors_report_geometry() {
        let d = sample_decomposition();
        assert_eq!(d.width(), 8);
        assert_eq!(d.height(), 8);
        assert_eq!(d.scales(), 2);
        assert_eq!(d.filter(), FilterId::F1);
        assert_eq!(d.input_bit_depth(), 12);
        assert_eq!(d.data().len(), 64);
    }

    #[test]
    fn subband_rects_tile_each_scale() {
        let d = sample_decomposition();
        // Scale 1 splits the 8x8 layout into four 4x4 quadrants.
        let a = d.subband_rect(1, Subband::Approx);
        let h = d.subband_rect(1, Subband::HorizontalDetail);
        let v = d.subband_rect(1, Subband::VerticalDetail);
        let g = d.subband_rect(1, Subband::DiagonalDetail);
        assert_eq!((a.x, a.y, a.width, a.height), (0, 0, 4, 4));
        assert_eq!((h.x, h.y), (4, 0));
        assert_eq!((v.x, v.y), (0, 4));
        assert_eq!((g.x, g.y), (4, 4));
        assert_eq!(a.len() + h.len() + v.len() + g.len(), 64);
        // Scale 2 subbands are 2x2.
        assert_eq!(d.subband_rect(2, Subband::DiagonalDetail).len(), 4);
    }

    #[test]
    fn subband_extraction_matches_layout() {
        let d = sample_decomposition();
        let hd = d.subband(1, Subband::HorizontalDetail);
        // First row of the top-right quadrant of an 8-wide row-major ramp.
        assert_eq!(&hd[0..4], &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(hd.len(), 16);
    }

    #[test]
    fn get_and_map_work() {
        let d = sample_decomposition();
        assert_eq!(d.get(3, 2), 19.0);
        let doubled = d.map(|v| (v * 2.0) as i64);
        assert_eq!(doubled.get(3, 2), 38);
        assert_eq!(doubled.scales(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scale_zero_rejected() {
        let d = sample_decomposition();
        let _ = d.subband_rect(0, Subband::Approx);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn mismatched_buffer_rejected() {
        let _ = Decomposition::from_raw(vec![0.0; 10], 8, 8, 1, FilterId::F1, 12);
    }

    #[test]
    fn paper_symbols() {
        assert_eq!(Subband::Approx.paper_symbol(), "dHH");
        assert_eq!(Subband::DiagonalDetail.to_string(), "dGG");
        assert_eq!(Subband::DETAILS.len(), 3);
    }
}
