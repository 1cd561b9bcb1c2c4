//! Two-dimensional pyramid transform in the paper's fixed-point arithmetic.

use crate::fixed1d::{analyze_periodic_fixed, synthesize_periodic_fixed, FixedStep};
use crate::{Decomposition, Dwt2d, DwtError};
use lwc_filters::{FilterBank, QuantizedBank};
use lwc_fixed::round_half_up_shift;
use lwc_image::{Image, ImageView};
use lwc_wordlen::WordLengthPlan;

/// Number of columns gathered into the contiguous scratch buffer per block.
///
/// The column passes used to walk the image with a stride of one row per
/// tap — a cache miss per access for any realistically sized image. Instead,
/// a block of this many columns is transposed into a scratch buffer with
/// row-wise (sequential) reads, filtered as contiguous 1-D signals, and
/// transposed back with row-wise writes. The win comes from making every
/// image access sequential (the hardware prefetcher's favourite pattern) and
/// from filtering columns as contiguous slices; 32 columns keep the
/// transpose's working set of distinct cache lines per row small while
/// amortizing the two copies over the whole filter length.
const COLUMN_BLOCK: usize = 32;

/// The bit-exact software model of the paper's datapath: 2-D pyramid DWT with
/// 32-bit fixed-point words, Table II per-scale integer parts, 64-bit
/// accumulation and round-half-up narrowing.
///
/// The forward transform produces raw coefficient words whose format depends
/// on the scale (deeper scales have wider integer parts); the inverse
/// transform reverses the alignment and finally rounds back to integer
/// pixels. For the paper's configuration the complete round trip is bit
/// exact — the lossless claim this reproduction verifies.
///
/// ```
/// use lwc_dwt::FixedDwt2d;
/// use lwc_filters::{FilterBank, FilterId};
/// use lwc_image::synth;
///
/// # fn main() -> Result<(), lwc_dwt::DwtError> {
/// let bank = FilterBank::table1(FilterId::F1);
/// let hw = FixedDwt2d::paper_default(&bank, 4)?;
/// let image = synth::ct_phantom(64, 64, 12, 0);
/// let coeffs = hw.forward(&image)?;
/// assert!(lwc_image::stats::bit_exact(&image, &hw.inverse(&coeffs)?)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FixedDwt2d {
    bank: FilterBank,
    quantized: QuantizedBank,
    plan: WordLengthPlan,
}

impl FixedDwt2d {
    /// Builds the transform with the paper's default word lengths (32-bit
    /// words and coefficients, 13-bit input).
    ///
    /// # Errors
    ///
    /// Returns an error if the word-length plan or the coefficient
    /// quantization cannot be built.
    pub fn paper_default(bank: &FilterBank, scales: u32) -> Result<Self, DwtError> {
        let plan = WordLengthPlan::paper_default(bank, scales)?;
        Self::with_plan(bank, plan)
    }

    /// Builds the transform with an explicit word-length plan (used by the
    /// word-length ablation experiments).
    ///
    /// # Errors
    ///
    /// Returns an error if the plan was derived for a different filter or if
    /// the coefficients do not fit the plan's coefficient format.
    pub fn with_plan(bank: &FilterBank, plan: WordLengthPlan) -> Result<Self, DwtError> {
        if plan.filter() != bank.id() {
            return Err(DwtError::ConfigurationMismatch(format!(
                "plan was derived for {} but the bank is {}",
                plan.filter(),
                bank.id()
            )));
        }
        let quantized = QuantizedBank::new(bank, plan.coeff_format().total_bits())?;
        Ok(Self { bank: bank.clone(), quantized, plan })
    }

    /// The floating-point filter bank.
    #[must_use]
    pub fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// The quantized coefficients the datapath actually multiplies with.
    #[must_use]
    pub fn quantized_bank(&self) -> &QuantizedBank {
        &self.quantized
    }

    /// The word-length plan in use.
    #[must_use]
    pub fn plan(&self) -> &WordLengthPlan {
        &self.plan
    }

    /// The decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.plan.scales()
    }

    /// Fixed-point step for the pass producing scale `to` data from scale
    /// `from` data — the per-pass alignment/rounding schedule. Public so
    /// alternative drivers (e.g. the line-based [`crate::LineFixedDwt`])
    /// reuse the exact schedule instead of mirroring it.
    #[must_use]
    pub fn step(&self, from: u32, to: u32) -> FixedStep {
        FixedStep {
            in_frac_bits: self.plan.frac_bits_for_scale(from),
            out_frac_bits: self.plan.frac_bits_for_scale(to),
            coeff_frac_bits: self.plan.coeff_format().frac_bits(),
            word_bits: self.plan.word_bits(),
        }
    }

    /// Forward transform: image pixels to raw fixed-point coefficient words.
    ///
    /// # Errors
    ///
    /// * [`DwtError::NotDecomposable`] if the image does not support the
    ///   configured depth.
    /// * [`DwtError::Fixed`] if a word overflows (cannot happen when the
    ///   image respects the plan's input bit depth).
    pub fn forward(&self, image: &Image) -> Result<Decomposition<i64>, DwtError> {
        self.forward_view(&image.view())
    }

    /// Forward transform of a borrowed (possibly strided) window of a larger
    /// frame, gathered with stride-aware row reads. This multi-pass form is
    /// the Table II reference the tests and `reproduce` check the line
    /// cascade ([`crate::LineFixedDwt`]) against; the `LWCF` codec encodes
    /// through the cascade.
    ///
    /// ```
    /// use lwc_dwt::FixedDwt2d;
    /// use lwc_filters::{FilterBank, FilterId};
    /// use lwc_image::{synth, TileRect};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let bank = FilterBank::table1(FilterId::F1);
    /// let hw = FixedDwt2d::paper_default(&bank, 2)?;
    /// let frame = synth::ct_phantom(128, 128, 12, 0);
    /// let rect = TileRect { x: 32, y: 64, width: 32, height: 32 };
    /// let coeffs = hw.forward_view(&frame.view_rect(rect)?)?;
    /// assert_eq!(coeffs, hw.forward(&frame.crop(rect)?)?);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`FixedDwt2d::forward`].
    pub fn forward_view(&self, view: &ImageView<'_>) -> Result<Decomposition<i64>, DwtError> {
        Dwt2d::check_decomposable(view.width(), view.height(), self.scales())?;
        let width = view.width();
        let height = view.height();
        let input_shift = self.plan.frac_bits_for_scale(0);
        let mut data: Vec<i64> = Vec::with_capacity(width * height);
        for y in 0..height {
            data.extend(view.row(y).iter().map(|&v| (v as i64) << input_shift));
        }

        let mut cur_w = width;
        let mut cur_h = height;
        for s in 1..=self.scales() {
            self.forward_scale(&mut data, width, cur_w, cur_h, s)?;
            cur_w /= 2;
            cur_h /= 2;
        }
        Ok(Decomposition::from_raw(
            data,
            width,
            height,
            self.scales(),
            self.bank.id(),
            view.bit_depth(),
        ))
    }

    /// Inverse transform: raw coefficient words back to an image, with the
    /// final rounding to integer pixels.
    ///
    /// # Errors
    ///
    /// * [`DwtError::ConfigurationMismatch`] if the decomposition was made
    ///   with a different filter or depth.
    /// * [`DwtError::Fixed`] if a word overflows during reconstruction.
    pub fn inverse(&self, decomposition: &Decomposition<i64>) -> Result<Image, DwtError> {
        if decomposition.filter() != self.bank.id() {
            return Err(DwtError::ConfigurationMismatch(format!(
                "decomposition was made with {} but the transform uses {}",
                decomposition.filter(),
                self.bank.id()
            )));
        }
        if decomposition.scales() != self.scales() {
            return Err(DwtError::ConfigurationMismatch(format!(
                "decomposition has {} scales but the transform expects {}",
                decomposition.scales(),
                self.scales()
            )));
        }
        let width = decomposition.width();
        let height = decomposition.height();
        let mut data = decomposition.data().to_vec();
        for s in (1..=self.scales()).rev() {
            let cur_w = width >> (s - 1);
            let cur_h = height >> (s - 1);
            self.inverse_scale(&mut data, width, cur_w, cur_h, s)?;
        }
        // Final rounding from the scale-0 format back to integer pixels.
        let frac0 = self.plan.frac_bits_for_scale(0);
        let max = (1i32 << decomposition.input_bit_depth()) - 1;
        let samples: Vec<i32> = data
            .iter()
            .map(|&raw| (round_half_up_shift(raw, frac0) as i32).clamp(0, max))
            .collect();
        Ok(Image::from_samples(width, height, decomposition.input_bit_depth(), samples)?)
    }

    /// Convenience helper: forward followed by inverse.
    ///
    /// # Errors
    ///
    /// See [`FixedDwt2d::forward`] and [`FixedDwt2d::inverse`].
    pub fn roundtrip(&self, image: &Image) -> Result<Image, DwtError> {
        let d = self.forward(image)?;
        self.inverse(&d)
    }

    fn forward_scale(
        &self,
        data: &mut [i64],
        stride: usize,
        cur_w: usize,
        cur_h: usize,
        s: u32,
    ) -> Result<(), DwtError> {
        let row_step = self.step(s - 1, s);
        let col_step = self.step(s, s);
        let lp = self.quantized.analysis_lowpass();
        let hp = self.quantized.analysis_highpass();

        let mut row = vec![0i64; cur_w];
        for y in 0..cur_h {
            let base = y * stride;
            row.copy_from_slice(&data[base..base + cur_w]);
            let (a, d) = analyze_periodic_fixed(&row, lp, hp, row_step)?;
            data[base..base + cur_w / 2].copy_from_slice(&a);
            data[base + cur_w / 2..base + cur_w].copy_from_slice(&d);
        }
        blocked_column_pass(data, stride, cur_w, cur_h, |col| {
            let (a, d) = analyze_periodic_fixed(col, lp, hp, col_step)?;
            let half = col.len() / 2;
            col[..half].copy_from_slice(&a);
            col[half..].copy_from_slice(&d);
            Ok(())
        })
    }

    fn inverse_scale(
        &self,
        data: &mut [i64],
        stride: usize,
        cur_w: usize,
        cur_h: usize,
        s: u32,
    ) -> Result<(), DwtError> {
        let col_step = self.step(s, s);
        let row_step = self.step(s, s - 1);
        let lp = self.quantized.synthesis_lowpass();
        let hp = self.quantized.synthesis_highpass();

        // Undo the column pass, through the same blocked transpose as the
        // forward column pass (the gather naturally lands the approximation
        // rows in the first half of each scratch column and the detail rows
        // in the second).
        blocked_column_pass(data, stride, cur_w, cur_h, |col| {
            let (a, d) = col.split_at(col.len() / 2);
            let full = synthesize_periodic_fixed(a, d, lp, hp, col_step)?;
            col.copy_from_slice(&full);
            Ok(())
        })?;
        // Undo the row pass, dropping back to the shallower scale's format.
        let mut approx = vec![0i64; cur_w / 2];
        let mut detail = vec![0i64; cur_w / 2];
        for y in 0..cur_h {
            let base = y * stride;
            approx.copy_from_slice(&data[base..base + cur_w / 2]);
            detail.copy_from_slice(&data[base + cur_w / 2..base + cur_w]);
            let row = synthesize_periodic_fixed(&approx, &detail, lp, hp, row_step)?;
            data[base..base + cur_w].copy_from_slice(&row);
        }
        Ok(())
    }
}

/// Drives one column pass of the active `cur_w × cur_h` region through the
/// blocked transpose scratch: a block of [`COLUMN_BLOCK`] columns is gathered
/// with sequential row reads, each column is handed to `filter_column` as a
/// contiguous signal to transform in place, and the block is scattered back
/// with sequential row writes.
fn blocked_column_pass<F>(
    data: &mut [i64],
    stride: usize,
    cur_w: usize,
    cur_h: usize,
    mut filter_column: F,
) -> Result<(), DwtError>
where
    F: FnMut(&mut [i64]) -> Result<(), DwtError>,
{
    let block = COLUMN_BLOCK.min(cur_w);
    let mut scratch = vec![0i64; cur_h * block];
    for x0 in (0..cur_w).step_by(block) {
        let bw = block.min(cur_w - x0);
        // Transpose a block of columns in with sequential row reads.
        for y in 0..cur_h {
            let row = &data[y * stride + x0..y * stride + x0 + bw];
            for (j, &v) in row.iter().enumerate() {
                scratch[j * cur_h + y] = v;
            }
        }
        for j in 0..bw {
            filter_column(&mut scratch[j * cur_h..(j + 1) * cur_h])?;
        }
        // Transpose back out with sequential row writes.
        for y in 0..cur_h {
            let row = &mut data[y * stride + x0..y * stride + x0 + bw];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = scratch[j * cur_h + y];
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Subband;
    use lwc_filters::FilterId;
    use lwc_image::{stats, synth};

    #[test]
    fn roundtrip_is_bit_exact_for_all_banks_on_random_images() {
        // The paper's validation: random images, hardware arithmetic, output
        // must match the original exactly.
        for id in FilterId::ALL {
            let bank = FilterBank::table1(id);
            let hw = FixedDwt2d::paper_default(&bank, 4).unwrap();
            let image = synth::random_image(64, 64, 12, id.index() as u64);
            let back = hw.roundtrip(&image).unwrap();
            assert!(
                stats::bit_exact(&image, &back).unwrap(),
                "{id}: fixed-point roundtrip must be lossless, max diff {}",
                stats::max_abs_diff(&image, &back).unwrap()
            );
        }
    }

    #[test]
    fn six_scale_roundtrip_matches_paper_configuration() {
        let bank = FilterBank::table1(FilterId::F2);
        let hw = FixedDwt2d::paper_default(&bank, 6).unwrap();
        let image = synth::random_image(128, 128, 12, 77);
        let back = hw.roundtrip(&image).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }

    #[test]
    fn phantom_images_are_also_lossless() {
        let bank = FilterBank::table1(FilterId::F1);
        let hw = FixedDwt2d::paper_default(&bank, 5).unwrap();
        for image in [synth::ct_phantom(96, 64, 12, 3), synth::mr_slice(64, 96, 12, 4)] {
            let back = hw.roundtrip(&image).unwrap();
            assert!(stats::bit_exact(&image, &back).unwrap());
        }
    }

    #[test]
    fn forward_matches_float_reference_within_a_fraction_of_an_lsb() {
        let bank = FilterBank::table1(FilterId::F4);
        let hw = FixedDwt2d::paper_default(&bank, 3).unwrap();
        let float = Dwt2d::new(bank.clone(), 3).unwrap();
        let image = synth::ct_phantom(64, 64, 12, 9);
        let fixed = hw.forward(&image).unwrap();
        let reference = float.forward(&image).unwrap();
        // Compare the deepest approximation subband.
        let frac = hw.plan().frac_bits_for_scale(3) as f64;
        let lsb = frac.exp2().recip();
        let fa = fixed.subband(3, Subband::Approx);
        let ra = reference.subband(3, Subband::Approx);
        for (f, r) in fa.iter().zip(&ra) {
            let v = *f as f64 * lsb;
            assert!((v - r).abs() < 0.01, "fixed {v} vs float {r}");
        }
    }

    #[test]
    fn detail_subbands_of_a_flat_image_are_zero_words() {
        let bank = FilterBank::table1(FilterId::F5);
        let hw = FixedDwt2d::paper_default(&bank, 2).unwrap();
        let image = synth::flat(32, 32, 12, 2222);
        let d = hw.forward(&image).unwrap();
        for band in Subband::DETAILS {
            let max = d.subband(1, band).iter().map(|v| v.abs()).max().unwrap();
            // Allow a couple of LSBs of rounding noise in the raw words.
            assert!(max <= 2, "{band}: {max}");
        }
    }

    #[test]
    fn mismatched_plan_and_bank_are_rejected() {
        let f1 = FilterBank::table1(FilterId::F1);
        let f4 = FilterBank::table1(FilterId::F4);
        let plan = WordLengthPlan::paper_default(&f1, 3).unwrap();
        assert!(matches!(
            FixedDwt2d::with_plan(&f4, plan),
            Err(DwtError::ConfigurationMismatch(_))
        ));
    }

    #[test]
    fn inverse_rejects_foreign_decompositions() {
        let f1 = FixedDwt2d::paper_default(&FilterBank::table1(FilterId::F1), 2).unwrap();
        let f6 = FixedDwt2d::paper_default(&FilterBank::table1(FilterId::F6), 2).unwrap();
        let image = synth::random_image(32, 32, 12, 0);
        let d = f1.forward(&image).unwrap();
        assert!(f6.inverse(&d).is_err());
    }

    #[test]
    fn undecomposable_images_are_rejected() {
        let hw = FixedDwt2d::paper_default(&FilterBank::table1(FilterId::F1), 5).unwrap();
        let image = synth::flat(48, 48, 12, 1);
        assert!(matches!(hw.forward(&image), Err(DwtError::NotDecomposable { .. })));
    }

    #[test]
    fn accessors_expose_configuration() {
        let bank = FilterBank::table1(FilterId::F3);
        let hw = FixedDwt2d::paper_default(&bank, 4).unwrap();
        assert_eq!(hw.scales(), 4);
        assert_eq!(hw.bank().id(), FilterId::F3);
        assert_eq!(hw.plan().word_bits(), 32);
        assert_eq!(hw.quantized_bank().format().frac_bits(), 30);
    }

    #[test]
    fn tile_views_transform_identically_to_owned_tiles() {
        use lwc_image::TileRect;
        let bank = FilterBank::table1(FilterId::F2);
        let hw = FixedDwt2d::paper_default(&bank, 3).unwrap();
        let frame = synth::ct_phantom(128, 96, 12, 12);
        for rect in [
            TileRect { x: 0, y: 0, width: 64, height: 64 },
            TileRect { x: 64, y: 32, width: 64, height: 64 },
            TileRect { x: 24, y: 8, width: 32, height: 40 },
        ] {
            let via_view = hw.forward_view(&frame.view_rect(rect).unwrap()).unwrap();
            let tile = frame.crop(rect).unwrap();
            assert_eq!(via_view, hw.forward(&tile).unwrap(), "{rect:?}");
            assert!(stats::bit_exact(&hw.inverse(&via_view).unwrap(), &tile).unwrap());
        }
    }

    #[test]
    fn eight_bit_images_roundtrip_with_the_13_bit_plan() {
        // Shallower data than the plan assumes still round-trips (the plan is
        // a worst-case bound).
        let bank = FilterBank::table1(FilterId::F6);
        let hw = FixedDwt2d::paper_default(&bank, 3).unwrap();
        let image = synth::random_image(64, 64, 8, 5);
        let back = hw.roundtrip(&image).unwrap();
        assert!(stats::bit_exact(&image, &back).unwrap());
    }
}
