//! Two-dimensional reversible 5/3 transform in the Mallat layout.

use crate::geometry::{band_rect, scaled_dim};
use crate::lifting1d::{forward_53, inverse_53};
use crate::LiftingError;
use lwc_image::{Image, ImageView};

/// Integer wavelet coefficients in the Mallat layout, produced by
/// [`Lifting53::forward`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftingCoefficients {
    data: Vec<i32>,
    width: usize,
    height: usize,
    scales: u32,
    input_bit_depth: u32,
}

impl LiftingCoefficients {
    /// Assembles a coefficient container from a Mallat-layout buffer — the
    /// entry point used by entropy decoders that rebuild the layout subband
    /// by subband. Any `width x height >= 1 x 1` geometry is accepted; ragged
    /// (non-power-of-two) dimensions follow the `ceil(n / 2)` pyramid of
    /// [`crate::geometry`].
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::NoScales`] for zero scales and
    /// [`LiftingError::ConfigurationMismatch`] if the buffer length does not
    /// match the geometry.
    pub fn from_raw(
        data: Vec<i32>,
        width: usize,
        height: usize,
        scales: u32,
        input_bit_depth: u32,
    ) -> Result<Self, LiftingError> {
        if scales == 0 {
            return Err(LiftingError::NoScales);
        }
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(LiftingError::ConfigurationMismatch(format!(
                "buffer holds {} samples but the layout needs {}",
                data.len(),
                width * height
            )));
        }
        Ok(Self { data, width, height, scales, input_bit_depth })
    }

    /// Width of the layout.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the layout.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.scales
    }

    /// Bit depth of the source image.
    #[must_use]
    pub fn input_bit_depth(&self) -> u32 {
        self.input_bit_depth
    }

    /// The whole coefficient buffer, row major, Mallat layout.
    #[must_use]
    pub fn data(&self) -> &[i32] {
        &self.data
    }

    /// Copies the samples of one subband. `band` is indexed like
    /// `lwc_dwt::Subband`: 0 = approximation, 1 = horizontal detail,
    /// 2 = vertical detail, 3 = diagonal detail. A detail band of a
    /// dimension that has contracted to one sample is empty.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is out of range or `band > 3`.
    #[must_use]
    pub fn subband(&self, scale: u32, band: usize) -> Vec<i32> {
        assert!(scale >= 1 && scale <= self.scales, "scale {scale} out of range");
        let rect = band_rect(self.width, self.height, scale, band);
        let mut out = Vec::with_capacity(rect.pixel_count());
        for y in rect.y..rect.bottom() {
            let start = y * self.width + rect.x;
            out.extend_from_slice(&self.data[start..start + rect.width]);
        }
        out
    }
}

/// The reversible 2-D LeGall 5/3 lifting transform.
///
/// Images of **any** dimensions (down to a single pixel, including odd and
/// prime sizes) decompose to any depth: every pass halves the active region
/// rounding up, so a dimension saturates at one sample instead of failing.
/// For dimensions divisible by `2^scales` the transform is bit-identical to
/// the classic even-only pyramid.
///
/// See the crate documentation for an end-to-end example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifting53 {
    scales: u32,
}

impl Lifting53 {
    /// Creates a transform with the given decomposition depth.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::NoScales`] if `scales` is zero.
    pub fn new(scales: u32) -> Result<Self, LiftingError> {
        if scales == 0 {
            return Err(LiftingError::NoScales);
        }
        Ok(Self { scales })
    }

    /// Decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.scales
    }

    /// Forward reversible transform of `image`.
    ///
    /// # Errors
    ///
    /// Currently infallible for any valid image; the `Result` is kept for
    /// API stability.
    pub fn forward(&self, image: &Image) -> Result<LiftingCoefficients, LiftingError> {
        self.forward_view(&image.view())
    }

    /// Forward transform of a borrowed (possibly strided) window, one full
    /// pass over the active region per scale. The codec encodes through the
    /// line cascade ([`crate::LineDwt53`]) instead; this multi-pass form is
    /// the bit-exact reference that cascade is tested against.
    ///
    /// ```
    /// use lwc_image::{synth, TileRect};
    /// use lwc_lifting::Lifting53;
    ///
    /// # fn main() -> Result<(), lwc_lifting::LiftingError> {
    /// let frame = synth::ct_phantom(64, 64, 12, 1);
    /// let rect = TileRect { x: 16, y: 8, width: 31, height: 27 };
    /// let tile = frame.view_rect(rect)?;
    /// let lifting = Lifting53::new(3)?;
    /// // Identical to transforming an owned copy of the tile.
    /// assert_eq!(lifting.forward_view(&tile)?, lifting.forward(&frame.crop(rect)?)?);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Currently infallible for any valid view; the `Result` is kept for
    /// API stability.
    pub fn forward_view(&self, view: &ImageView<'_>) -> Result<LiftingCoefficients, LiftingError> {
        let width = view.width();
        let height = view.height();
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            data.extend_from_slice(view.row(y));
        }
        let mut cur_w = width;
        let mut cur_h = height;
        for _ in 0..self.scales {
            forward_scale(&mut data, width, cur_w, cur_h);
            cur_w = cur_w.div_ceil(2);
            cur_h = cur_h.div_ceil(2);
        }
        Ok(LiftingCoefficients {
            data,
            width,
            height,
            scales: self.scales,
            input_bit_depth: view.bit_depth(),
        })
    }

    /// Inverse reversible transform, one full pass over the active region
    /// per scale. The decoders reconstruct through the inverse line cascade
    /// ([`crate::LineIdwt53`]) instead; this multi-pass form is the bit-exact
    /// reference that cascade is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::ConfigurationMismatch`] if the coefficients
    /// carry a different depth, or an image error if the reconstructed
    /// samples fall outside the original bit depth (impossible for
    /// coefficients produced by [`Lifting53::forward`]).
    pub fn inverse(&self, coeffs: &LiftingCoefficients) -> Result<Image, LiftingError> {
        let data = self.inverse_raw(coeffs)?;
        Ok(Image::from_samples(coeffs.width, coeffs.height, coeffs.input_bit_depth, data)?)
    }

    /// Inverse transform returning the raw row-major sample buffer *without*
    /// the bit-depth range validation of [`Lifting53::inverse`] — the form
    /// that also reconstructs signed z-coefficient planes, whose values
    /// return to the pixel range only after the inverse z pass.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::ConfigurationMismatch`] if the coefficients
    /// carry a different decomposition depth.
    pub fn inverse_raw(&self, coeffs: &LiftingCoefficients) -> Result<Vec<i32>, LiftingError> {
        self.inverse_raw_owned(coeffs.clone())
    }

    /// [`Lifting53::inverse_raw`] consuming the coefficients: the inverse
    /// runs in place on their buffer, which comes back as the reconstructed
    /// samples, so no frame-sized copy is made.
    ///
    /// # Errors
    ///
    /// See [`Lifting53::inverse_raw`].
    pub fn inverse_raw_owned(&self, coeffs: LiftingCoefficients) -> Result<Vec<i32>, LiftingError> {
        if coeffs.scales != self.scales {
            return Err(LiftingError::ConfigurationMismatch(format!(
                "coefficients have {} scales but the transform expects {}",
                coeffs.scales, self.scales
            )));
        }
        let width = coeffs.width;
        let height = coeffs.height;
        let mut data = coeffs.data;
        for s in (1..=self.scales).rev() {
            let cur_w = scaled_dim(width, s - 1);
            let cur_h = scaled_dim(height, s - 1);
            inverse_scale(&mut data, width, cur_w, cur_h);
        }
        Ok(data)
    }

    /// Convenience round trip used by tests and examples.
    ///
    /// # Errors
    ///
    /// See [`Lifting53::forward`] and [`Lifting53::inverse`].
    pub fn roundtrip(&self, image: &Image) -> Result<Image, LiftingError> {
        let c = self.forward(image)?;
        self.inverse(&c)
    }
}

fn forward_scale(data: &mut [i32], stride: usize, cur_w: usize, cur_h: usize) {
    if cur_w >= 2 {
        let a_w = cur_w.div_ceil(2);
        let mut row = vec![0i32; cur_w];
        for y in 0..cur_h {
            let base = y * stride;
            row.copy_from_slice(&data[base..base + cur_w]);
            let (a, d) = forward_53(&row);
            data[base..base + a_w].copy_from_slice(&a);
            data[base + a_w..base + cur_w].copy_from_slice(&d);
        }
    }
    if cur_h >= 2 {
        let a_h = cur_h.div_ceil(2);
        let mut col = vec![0i32; cur_h];
        for x in 0..cur_w {
            for (y, slot) in col.iter_mut().enumerate() {
                *slot = data[y * stride + x];
            }
            let (a, d) = forward_53(&col);
            for (y, &v) in a.iter().enumerate() {
                data[y * stride + x] = v;
            }
            for (y, &v) in d.iter().enumerate() {
                data[(y + a_h) * stride + x] = v;
            }
        }
    }
}

fn inverse_scale(data: &mut [i32], stride: usize, cur_w: usize, cur_h: usize) {
    if cur_h >= 2 {
        let a_h = cur_h.div_ceil(2);
        let mut approx = vec![0i32; a_h];
        let mut detail = vec![0i32; cur_h - a_h];
        for x in 0..cur_w {
            for (y, slot) in approx.iter_mut().enumerate() {
                *slot = data[y * stride + x];
            }
            for (y, slot) in detail.iter_mut().enumerate() {
                *slot = data[(y + a_h) * stride + x];
            }
            let col = inverse_53(&approx, &detail);
            for (y, &v) in col.iter().enumerate() {
                data[y * stride + x] = v;
            }
        }
    }
    if cur_w >= 2 {
        let a_w = cur_w.div_ceil(2);
        let mut approx = vec![0i32; a_w];
        let mut detail = vec![0i32; cur_w - a_w];
        for y in 0..cur_h {
            let base = y * stride;
            approx.copy_from_slice(&data[base..base + a_w]);
            detail.copy_from_slice(&data[base + a_w..base + cur_w]);
            let row = inverse_53(&approx, &detail);
            data[base..base + cur_w].copy_from_slice(&row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_image::{stats, synth, TileRect};

    #[test]
    fn roundtrip_is_exact_on_all_workloads() {
        let lifting = Lifting53::new(4).unwrap();
        for image in [
            synth::random_image(64, 64, 12, 1),
            synth::ct_phantom(64, 64, 12, 2),
            synth::mr_slice(64, 64, 12, 3),
            synth::checkerboard(64, 64, 12, 1),
            synth::gradient(64, 64, 12),
        ] {
            let back = lifting.roundtrip(&image).unwrap();
            assert_eq!(stats::max_abs_diff(&image, &back).unwrap(), 0);
        }
    }

    #[test]
    fn rectangular_and_deep_decompositions_work() {
        let lifting = Lifting53::new(6).unwrap();
        let image = synth::random_image(128, 64, 12, 5);
        let back = lifting.roundtrip(&image).unwrap();
        assert_eq!(stats::max_abs_diff(&image, &back).unwrap(), 0);
    }

    #[test]
    fn ragged_odd_and_prime_dimensions_roundtrip() {
        // The generalized pyramid: odd, prime and single-sample dimensions
        // all decompose and reconstruct exactly, at any depth.
        for (w, h) in [(37, 53), (1, 1), (1, 17), (17, 1), (3, 3), (101, 63), (64, 37), (2, 5)] {
            for scales in [1u32, 2, 3, 6] {
                let lifting = Lifting53::new(scales).unwrap();
                let image = synth::random_image(w, h, 12, (w * h) as u64 + scales as u64);
                let back = lifting.roundtrip(&image).unwrap();
                assert_eq!(
                    stats::max_abs_diff(&image, &back).unwrap(),
                    0,
                    "{w}x{h} at {scales} scales"
                );
            }
        }
    }

    #[test]
    fn forward_view_matches_owned_tile_transform() {
        let frame = synth::ct_phantom(96, 80, 12, 9);
        let lifting = Lifting53::new(3).unwrap();
        for rect in [
            TileRect { x: 0, y: 0, width: 32, height: 32 },
            TileRect { x: 33, y: 17, width: 31, height: 29 },
            TileRect { x: 95, y: 0, width: 1, height: 80 },
        ] {
            let via_view = lifting.forward_view(&frame.view_rect(rect).unwrap()).unwrap();
            let via_copy = lifting.forward(&frame.crop(rect).unwrap()).unwrap();
            assert_eq!(via_view, via_copy, "{rect:?}");
        }
    }

    #[test]
    fn detail_subbands_of_smooth_images_are_small() {
        let lifting = Lifting53::new(2).unwrap();
        let coeffs = lifting.forward(&synth::gradient(64, 64, 12)).unwrap();
        for band in 1..=3 {
            let max = coeffs.subband(1, band).iter().map(|v| v.abs()).max().unwrap();
            // The gradient steps by ~65 grey levels per pixel; detail stays
            // within a couple of steps (mirror boundary doubles one of them),
            // i.e. tiny compared with the 4095 dynamic range.
            assert!(max <= 150, "band {band}: max {max}");
        }
        // The approximation keeps the DC level (unlike the √2-gain banks).
        let approx = coeffs.subband(2, 0);
        let max_in = 4095;
        assert!(approx.iter().all(|&v| v.abs() <= 2 * max_in));
    }

    #[test]
    fn ragged_subbands_partition_the_layout() {
        let lifting = Lifting53::new(3).unwrap();
        let image = synth::random_image(37, 21, 12, 8);
        let coeffs = lifting.forward(&image).unwrap();
        // Per scale, the four bands cover the parent region exactly.
        for scale in 1..=3u32 {
            let parent = scaled_dim(37, scale - 1) * scaled_dim(21, scale - 1);
            let total: usize = (0..=3).map(|b| coeffs.subband(scale, b).len()).sum();
            assert_eq!(total, parent, "scale {scale}");
        }
        // A one-wide image has empty horizontal details.
        let thin = Lifting53::new(2).unwrap().forward(&synth::flat(1, 9, 8, 3)).unwrap();
        assert!(thin.subband(1, 1).is_empty());
        assert!(thin.subband(1, 3).is_empty());
        assert_eq!(thin.subband(1, 0).len(), 5);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Lifting53::new(0).is_err());
        let coeffs = Lifting53::new(2).unwrap().forward(&synth::flat(32, 32, 8, 1)).unwrap();
        assert!(matches!(
            Lifting53::new(3).unwrap().inverse(&coeffs),
            Err(LiftingError::ConfigurationMismatch(_))
        ));
        assert!(matches!(
            LiftingCoefficients::from_raw(vec![0; 10], 4, 4, 1, 8),
            Err(LiftingError::ConfigurationMismatch(_))
        ));
        assert!(matches!(
            LiftingCoefficients::from_raw(vec![0; 16], 4, 4, 0, 8),
            Err(LiftingError::NoScales)
        ));
    }

    #[test]
    fn accessors_report_geometry() {
        let lifting = Lifting53::new(2).unwrap();
        assert_eq!(lifting.scales(), 2);
        let coeffs = lifting.forward(&synth::flat(32, 16, 12, 5)).unwrap();
        assert_eq!(coeffs.width(), 32);
        assert_eq!(coeffs.height(), 16);
        assert_eq!(coeffs.scales(), 2);
        assert_eq!(coeffs.input_bit_depth(), 12);
        assert_eq!(coeffs.data().len(), 512);
        assert_eq!(coeffs.subband(1, 3).len(), 16 * 8);
    }

    #[test]
    fn flat_image_detail_is_zero_and_approx_preserves_level() {
        let lifting = Lifting53::new(3).unwrap();
        let coeffs = lifting.forward(&synth::flat(64, 64, 12, 1000)).unwrap();
        for s in 1..=3 {
            for band in 1..=3 {
                assert!(coeffs.subband(s, band).iter().all(|&v| v == 0));
            }
        }
        assert!(coeffs.subband(3, 0).iter().all(|&v| v == 1000));
    }
}
