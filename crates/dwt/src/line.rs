//! Line-based fused multi-scale transform for the paper-exact fixed-point
//! datapath: the whole pyramid in one streaming pass over the image.
//!
//! The scheduling mirrors `lwc-lifting`'s `LineDwt53`: each level keeps a
//! bounded ring of horizontally transformed rows and level `n + 1` consumes
//! LL rows as level `n` emits them, so a deep decomposition reads the frame
//! from memory once instead of once per scale. The twist on this datapath is
//! the paper's **periodic** ("circular convolution") extension: unlike the
//! symmetric extension of the lifting path, the first few outputs of a
//! vertical pass tap the *bottom* rows of the active region and the last few
//! tap the *top* rows. The engine therefore splits each level's output rows
//! into an interior **streamed** range (all taps inside a sliding window,
//! computed as soon as the window covers them) and a small **deferred**
//! boundary set (computed at flush from a retained `O(filter length)` prefix
//! plus the window tail). Only the boundary rows wait for the end of input —
//! the working set stays `O(width x levels)`.
//!
//! Arithmetic is exactly the datapath's: the horizontal pass *is*
//! [`crate::analyze_periodic_fixed`] (the same `MacAccumulator::mac_slice`
//! interior fast path as the multi-pass driver), and the vertical pass
//! accumulates the same quantized taps into the same 64-bit accumulator and
//! narrows through the same [`FixedStep::round`]. The once-per-pass overflow
//! bound (`lwc_fixed::dot_product_fits_i64` against the kernel L1 norm, see
//! the `fixed1d` module docs) makes the unchecked row-major evaluation exact,
//! and exact 64-bit sums are order-independent — so every coefficient is
//! **bit-identical** to [`crate::FixedDwt2d::forward`], which stays in-tree
//! as the reference the property tests diff against.

use crate::fixed1d::{analyze_periodic_fixed_into, indexed, kernel_l1, FixedStep};
use crate::{Decomposition, Dwt2d, DwtError, FixedDwt2d};
use lwc_filters::{FilterId, QuantizedKernel};
use lwc_fixed::{dot_product_fits_i64, MacAccumulator};
use lwc_image::ImageView;
use std::collections::VecDeque;

/// One row of raw fixed-point subband words emitted by [`LineFixedDwt`].
///
/// `band` follows the workspace convention (0 = approximation, 1 =
/// horizontal detail, 2 = vertical detail, 3 = diagonal detail); `y` is the
/// row inside the subband's `(width >> scale) x (height >> scale)`
/// rectangle. Because the periodic extension is non-local, boundary rows of
/// a band are emitted *after* its interior rows — consumers must scatter by
/// `y`, not assume top-to-bottom order (the lifting-path `LineDwt53` is the
/// in-order engine).
#[derive(Debug)]
pub struct FixedCoeffRow<'a> {
    /// Scale of the subband, `1..=scales`.
    pub scale: u32,
    /// Band index, `0..=3`.
    pub band: usize,
    /// Row inside the subband rectangle.
    pub y: usize,
    /// The raw coefficient words, left to right, in the scale's Table II
    /// fixed-point format.
    pub samples: &'a [i64],
}

/// Per-level state: a sliding window of horizontally transformed rows plus a
/// retained prefix for the periodic boundary outputs.
#[derive(Debug)]
struct FixedLevel {
    /// 1-based scale this level produces.
    scale: u32,
    /// Active region entering this level.
    w: usize,
    h: usize,
    half: usize,
    row_step: FixedStep,
    col_step: FixedStep,
    /// Union of both analysis kernels' tap index ranges.
    min_m: i32,
    max_m: i32,
    /// Merged tap table over the union range: `(m, lowpass c, highpass c)`
    /// with zero coefficients outside a kernel's support, so the vertical
    /// pass reads each tap row once and feeds both accumulators.
    taps: Vec<(i32, i64, i64)>,
    /// Larger of the two kernels' L1 norms in raw units, for the
    /// once-per-output overflow bound.
    l1_max: u128,
    /// Output rows `[stream_start, hi)` are computed while streaming; rows
    /// `[0, stream_start)` and `[hi, half)` are deferred to flush because the
    /// periodic extension wraps them around the frame edge.
    stream_start: usize,
    hi: usize,
    /// Rows with index below this stay retained for the deferred outputs.
    prefix_cap: usize,
    /// Retained head rows, indexed absolutely; each entry carries the row and
    /// its max absolute sample (for the overflow bound).
    prefix: Vec<Option<(Vec<i64>, u64)>>,
    /// Sliding window of rows `[window_start, expected_next)`.
    window: VecDeque<(Vec<i64>, u64)>,
    window_start: usize,
    expected_next: usize,
    received: usize,
    next_stream: usize,
    /// Scratch for the vertical pass (both accumulators + both output rows).
    acc: Vec<i64>,
    acc2: Vec<i64>,
    approx_row: Vec<i64>,
    detail_row: Vec<i64>,
    /// Recycled row buffers (fed by [`FixedLevel::trim`] and consumed input
    /// rows), so the steady-state streaming pass allocates nothing per row.
    spare: Vec<Vec<i64>>,
}

impl FixedLevel {
    #[allow(clippy::too_many_arguments)]
    fn new(
        scale: u32,
        w: usize,
        h: usize,
        s_in: usize,
        row_step: FixedStep,
        col_step: FixedStep,
        lp: &QuantizedKernel,
        hp: &QuantizedKernel,
    ) -> Self {
        let half = h / 2;
        let min_m = lp.min_index().min(hp.min_index());
        let max_m = lp.max_index().max(hp.max_index());
        debug_assert!(min_m <= 0 && max_m >= 1, "analysis kernels must straddle the origin");
        // Interior output rows: every tap `2k + m` stays inside `[0, h)`.
        let lo = (((-i64::from(min_m)).max(0) + 1) / 2).min(half as i64) as usize;
        let hi_raw = (h as i64 - 1 - i64::from(max_m)).div_euclid(2) + 1;
        let hi = hi_raw.clamp(lo as i64, half as i64) as usize;
        // The first streamable output additionally needs all its taps at or
        // after `s_in`, the start of this level's contiguous input run.
        let cand = (s_in as i64 - i64::from(min_m) + 1).div_euclid(2);
        let stream_start = cand.clamp(lo as i64, hi as i64) as usize;
        // Deferred head outputs read unwrapped rows up to
        // `2 (stream_start - 1) + max_m`; deferred tail outputs wrap to rows
        // below `max_m - 1`; rows below `s_in` only ever arrive at flush.
        let prefix_cap = (2 * stream_start as i64 + i64::from(max_m) - 1)
            .max(s_in as i64)
            .clamp(0, h as i64) as usize;
        Self {
            scale,
            w,
            h,
            half,
            row_step,
            col_step,
            min_m,
            max_m,
            taps: (min_m..=max_m)
                .map(|m| {
                    let ca = indexed(lp).find(|&(i, _)| i == m).map_or(0, |(_, c)| c);
                    let cd = indexed(hp).find(|&(i, _)| i == m).map_or(0, |(_, c)| c);
                    (m, ca, cd)
                })
                .collect(),
            l1_max: kernel_l1(lp).max(kernel_l1(hp)),
            stream_start,
            hi,
            prefix_cap,
            prefix: (0..prefix_cap).map(|_| None).collect(),
            window: VecDeque::new(),
            window_start: s_in,
            expected_next: s_in,
            received: 0,
            next_stream: stream_start,
            acc: Vec::new(),
            acc2: Vec::new(),
            approx_row: Vec::new(),
            detail_row: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Returns a row buffer to the pool. The cascade produces more free rows
    /// than [`FixedLevel::receive`] consumes (the trimmed window row *and*
    /// the spent input row per step), so the pool is capped — a handful of
    /// buffers covers the steady state and the excess is freed.
    fn recycle(&mut self, row: Vec<i64>) {
        if self.spare.len() < 4 {
            self.spare.push(row);
        }
    }

    fn row(&self, idx: usize) -> &(Vec<i64>, u64) {
        if idx >= self.window_start && idx < self.expected_next {
            &self.window[idx - self.window_start]
        } else {
            self.prefix[idx].as_ref().expect("retention keeps every tapped row")
        }
    }

    /// Receives input row `j`: applies the horizontal pass (the *same*
    /// [`crate::analyze_periodic_fixed`] as the multi-pass row loop, via its
    /// buffer-reusing `_into` form) and stores the `[approx | detail]` row.
    fn receive(
        &mut self,
        j: usize,
        src: &[i64],
        lp: &QuantizedKernel,
        hp: &QuantizedKernel,
    ) -> Result<(), DwtError> {
        debug_assert_eq!(src.len(), self.w);
        let mut hrow = self.spare.pop().unwrap_or_default();
        hrow.clear();
        hrow.resize(self.w, 0);
        analyze_periodic_fixed_into(src, lp, hp, self.row_step, &mut hrow)?;
        let max_abs = hrow.iter().map(|&v| v.unsigned_abs()).max().unwrap_or(0);
        self.received += 1;
        if j == self.expected_next {
            if j < self.prefix_cap {
                self.prefix[j] = Some((hrow.clone(), max_abs));
            }
            self.window.push_back((hrow, max_abs));
            self.expected_next += 1;
        } else {
            // Flush-time arrival of a deferred head row from the level below.
            debug_assert!(j < self.window_start, "out-of-order rows only precede the run");
            debug_assert!(j < self.prefix_cap, "late rows must fit the retained prefix");
            self.prefix[j] = Some((hrow, max_abs));
        }
        Ok(())
    }

    /// Vertical pass for output row `k` into the level's scratch rows —
    /// bit-identical to filtering each column with
    /// [`analyze_periodic_fixed`]: exact 64-bit dot products (proved in range
    /// by the same L1-norm bound, checked per output here) followed by the
    /// same [`FixedStep::round`].
    fn compute_output(
        &mut self,
        k: usize,
        wrap: bool,
        lp: &QuantizedKernel,
        hp: &QuantizedKernel,
    ) -> Result<(), DwtError> {
        let tap_index = |m: i32| -> usize {
            let raw = 2 * k as i64 + i64::from(m);
            if wrap {
                raw.rem_euclid(self.h as i64) as usize
            } else {
                raw as usize
            }
        };
        let max_abs =
            (self.min_m..=self.max_m).map(|m| self.row(tap_index(m)).1).max().unwrap_or(0);
        let fits = dot_product_fits_i64(self.l1_max, u128::from(max_abs));
        if fits {
            // Fused pass: each tap row is read once and feeds both
            // accumulators. Zero coefficients outside a kernel's support add
            // exact zero terms, and exact 64-bit sums are order-independent,
            // so both output rows match the per-kernel tap-order reference
            // word for word.
            let mut acc_a = std::mem::take(&mut self.acc);
            acc_a.clear();
            acc_a.resize(self.w, 0);
            let mut acc_d = std::mem::take(&mut self.acc2);
            acc_d.clear();
            acc_d.resize(self.w, 0);
            // Blocked over x so both accumulator chunks stay L1-resident
            // across the tap sweep; at 4096-wide levels the full-width
            // accumulators alone would spill L1 on every tap.
            const X_BLOCK: usize = 1024;
            for x0 in (0..self.w).step_by(X_BLOCK) {
                let x1 = (x0 + X_BLOCK).min(self.w);
                for &(m, ca, cd) in &self.taps {
                    let r = &self.row(tap_index(m)).0[x0..x1];
                    if cd == 0 {
                        for (sa, &v) in acc_a[x0..x1].iter_mut().zip(r) {
                            *sa += ca * v;
                        }
                    } else if ca == 0 {
                        for (sd, &v) in acc_d[x0..x1].iter_mut().zip(r) {
                            *sd += cd * v;
                        }
                    } else {
                        let (aa, dd) = (&mut acc_a[x0..x1], &mut acc_d[x0..x1]);
                        for ((sa, sd), &v) in aa.iter_mut().zip(dd.iter_mut()).zip(r) {
                            *sa += ca * v;
                            *sd += cd * v;
                        }
                    }
                }
            }
            let mut a_out = std::mem::take(&mut self.approx_row);
            a_out.clear();
            for &a in &acc_a {
                a_out.push(self.col_step.round(a)?);
            }
            let mut d_out = std::mem::take(&mut self.detail_row);
            d_out.clear();
            for &d in &acc_d {
                d_out.push(self.col_step.round(d)?);
            }
            self.acc = acc_a;
            self.acc2 = acc_d;
            self.approx_row = a_out;
            self.detail_row = d_out;
        } else {
            // Pathological magnitudes (impossible under a valid Table II
            // plan): fall back to the per-tap checked accumulator in tap
            // order, preserving the reference's error behaviour.
            for (kernel, is_detail) in [(lp, false), (hp, true)] {
                let mut acc = MacAccumulator::new();
                let mut out = Vec::with_capacity(self.w);
                for x in 0..self.w {
                    acc.clear();
                    for (m, c) in indexed(kernel) {
                        acc.mac(c, self.row(tap_index(m)).0[x])?;
                    }
                    out.push(self.col_step.round(acc.value())?);
                }
                if is_detail {
                    self.detail_row = out;
                } else {
                    self.approx_row = out;
                }
            }
        }
        Ok(())
    }

    /// Drops window rows no future output can tap: streamed output `k` reads
    /// from row `2k + min_m`, and the deferred outputs read the retained
    /// prefix plus rows from `2 hi + min_m` (which also covers the wrapped
    /// bottom taps `h + min_m` of the deferred head, since `2 hi <= h`).
    fn trim(&mut self) {
        let keep = (2 * self.next_stream.min(self.hi) as i64 + i64::from(self.min_m)).max(0);
        while (self.window_start as i64) < keep {
            if let Some((row, _)) = self.window.pop_front() {
                self.recycle(row);
            }
            self.window_start += 1;
        }
    }

    fn buffered_samples(&self) -> usize {
        self.window.iter().map(|(r, _)| r.len()).sum::<usize>()
            + self.prefix.iter().flatten().map(|(r, _)| r.len()).sum::<usize>()
            + self.acc.capacity()
            + self.acc2.capacity()
            + self.approx_row.capacity()
            + self.detail_row.capacity()
            + self.spare.iter().map(Vec::capacity).sum::<usize>()
    }
}

/// Line-based fused forward transform over the paper-exact fixed-point
/// datapath: push pixel rows in with [`LineFixedDwt::push_row`], receive raw
/// subband coefficient rows through a callback, and call
/// [`LineFixedDwt::finish`] after the last row.
///
/// Bit-identical to [`FixedDwt2d::forward`] on every decomposable geometry
/// and every Table I bank (the property tests diff the two) while buffering
/// `O(width x levels)` samples. See the module docs for how the periodic
/// boundary rows are deferred.
///
/// ```
/// use lwc_dwt::{FixedDwt2d, LineFixedDwt};
/// use lwc_filters::{FilterBank, FilterId};
/// use lwc_image::synth;
///
/// # fn main() -> Result<(), lwc_dwt::DwtError> {
/// let bank = FilterBank::table1(FilterId::F4);
/// let hw = FixedDwt2d::paper_default(&bank, 3)?;
/// let image = synth::mr_slice(64, 64, 12, 9);
/// let fused = LineFixedDwt::forward_view(&hw, &image.view())?;
/// assert_eq!(fused, hw.forward(&image)?); // bit-identical, one pass
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LineFixedDwt {
    width: usize,
    height: usize,
    scales: u32,
    filter: FilterId,
    input_shift: u32,
    lp: QuantizedKernel,
    hp: QuantizedKernel,
    levels: Vec<FixedLevel>,
    rows_in: usize,
    finished: bool,
}

impl LineFixedDwt {
    /// Creates a streaming transform for a `width x height` frame using the
    /// configuration (bank, word-length plan, depth) of `dwt`.
    ///
    /// # Errors
    ///
    /// Returns [`DwtError::NotDecomposable`] if the frame does not support
    /// the configured depth.
    pub fn new(dwt: &FixedDwt2d, width: usize, height: usize) -> Result<Self, DwtError> {
        let scales = dwt.scales();
        Dwt2d::check_decomposable(width, height, scales)?;
        let lp = dwt.quantized_bank().analysis_lowpass().clone();
        let hp = dwt.quantized_bank().analysis_highpass().clone();
        let mut levels = Vec::with_capacity(scales as usize);
        let mut s_in = 0usize;
        for l in 0..scales {
            let s = l + 1;
            let level = FixedLevel::new(
                s,
                width >> l,
                height >> l,
                s_in,
                dwt.step(s - 1, s),
                dwt.step(s, s),
                &lp,
                &hp,
            );
            s_in = level.stream_start;
            levels.push(level);
        }
        Ok(Self {
            width,
            height,
            scales,
            filter: dwt.bank().id(),
            input_shift: dwt.plan().frac_bits_for_scale(0),
            lp,
            hp,
            levels,
            rows_in: 0,
            finished: false,
        })
    }

    /// Frame width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.scales
    }

    /// Samples currently buffered across every level (sliding windows,
    /// retained prefixes and scratch) — bounded by the filter support times
    /// the level widths, independent of the frame height.
    #[must_use]
    pub fn working_set_samples(&self) -> usize {
        self.levels.iter().map(FixedLevel::buffered_samples).sum()
    }

    /// Pushes the next pixel row (top to bottom), emitting every coefficient
    /// row whose periodic taps are covered anywhere in the cascade.
    ///
    /// # Errors
    ///
    /// Returns [`DwtError::Fixed`] if a word overflows (cannot happen when
    /// the frame respects the plan's input bit depth).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the frame width, if more than
    /// `height` rows are pushed, or after [`LineFixedDwt::finish`].
    pub fn push_row(
        &mut self,
        row: &[i32],
        emit: &mut dyn FnMut(FixedCoeffRow<'_>),
    ) -> Result<(), DwtError> {
        assert!(!self.finished, "push_row called after finish");
        assert_eq!(row.len(), self.width, "row length must equal the frame width");
        assert!(self.rows_in < self.height, "more rows pushed than the frame height");
        let shifted: Vec<i64> = row.iter().map(|&v| (v as i64) << self.input_shift).collect();
        let j = self.rows_in;
        self.rows_in += 1;
        self.cascade(vec![(j, shifted)], false, emit)
    }

    /// Flushes the deferred periodic boundary rows after the last input row,
    /// level by level up the cascade.
    ///
    /// # Errors
    ///
    /// See [`LineFixedDwt::push_row`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed or on a second call.
    pub fn finish(&mut self, emit: &mut dyn FnMut(FixedCoeffRow<'_>)) -> Result<(), DwtError> {
        assert!(!self.finished, "finish called twice");
        assert_eq!(self.rows_in, self.height, "finish called before every row was pushed");
        self.finished = true;
        self.cascade(Vec::new(), true, emit)
    }

    /// One bottom-up sweep: deliver pending LL rows to each level, stream
    /// what became computable, and (on flush) compute the deferred boundary
    /// rows — each level's flush runs only after the level below delivered
    /// its complete output.
    fn cascade(
        &mut self,
        mut inputs: Vec<(usize, Vec<i64>)>,
        flush: bool,
        emit: &mut dyn FnMut(FixedCoeffRow<'_>),
    ) -> Result<(), DwtError> {
        let mut outputs: Vec<(usize, Vec<i64>)> = Vec::new();
        let level_count = self.levels.len();
        for li in 0..level_count {
            let is_top = li + 1 == level_count;
            let level = &mut self.levels[li];
            for (j, row) in inputs.drain(..) {
                level.receive(j, &row, &self.lp, &self.hp)?;
                // The consumed input row has this level's exact width — feed
                // it back to the pool instead of freeing it.
                level.recycle(row);
            }
            // Streamed interior rows whose window coverage is complete.
            while level.next_stream < level.hi
                && 2 * level.next_stream as i64 + i64::from(level.max_m)
                    < level.expected_next as i64
            {
                let k = level.next_stream;
                level.compute_output(k, false, &self.lp, &self.hp)?;
                level.next_stream += 1;
                level.trim();
                Self::emit_rows(level, k, is_top, &mut outputs, emit);
            }
            if flush {
                debug_assert_eq!(level.received, level.h, "flush requires the complete input");
                for k in (0..level.stream_start).chain(level.hi..level.half) {
                    level.compute_output(k, true, &self.lp, &self.hp)?;
                    Self::emit_rows(level, k, is_top, &mut outputs, emit);
                }
            }
            std::mem::swap(&mut inputs, &mut outputs);
        }
        debug_assert!(inputs.is_empty() && outputs.is_empty());
        Ok(())
    }

    /// Routes the level's scratch output rows: details to the emit callback,
    /// the LL half up the cascade (or out as band 0 at the top).
    fn emit_rows(
        level: &FixedLevel,
        k: usize,
        is_top: bool,
        outputs: &mut Vec<(usize, Vec<i64>)>,
        emit: &mut dyn FnMut(FixedCoeffRow<'_>),
    ) {
        let half_w = level.w / 2;
        let scale = level.scale;
        emit(FixedCoeffRow { scale, band: 1, y: k, samples: &level.approx_row[half_w..] });
        emit(FixedCoeffRow { scale, band: 2, y: k, samples: &level.detail_row[..half_w] });
        emit(FixedCoeffRow { scale, band: 3, y: k, samples: &level.detail_row[half_w..] });
        if is_top {
            emit(FixedCoeffRow { scale, band: 0, y: k, samples: &level.approx_row[..half_w] });
        } else {
            outputs.push((k, level.approx_row[..half_w].to_vec()));
        }
    }

    /// Convenience driver: runs a whole (possibly strided) view through the
    /// streaming engine and assembles the in-place Mallat layout — the exact
    /// product of [`FixedDwt2d::forward_view`]. The `LWCF` codec encodes
    /// every tile window of a frame through it.
    ///
    /// # Errors
    ///
    /// See [`LineFixedDwt::new`] and [`LineFixedDwt::push_row`].
    pub fn forward_view(
        dwt: &FixedDwt2d,
        view: &ImageView<'_>,
    ) -> Result<Decomposition<i64>, DwtError> {
        let width = view.width();
        let height = view.height();
        let mut engine = Self::new(dwt, width, height)?;
        let mut data = vec![0i64; width * height];
        let bit_depth = view.bit_depth();
        {
            let mut sink = |c: FixedCoeffRow<'_>| {
                let w_s = width >> c.scale;
                let h_s = height >> c.scale;
                let start = match c.band {
                    0 => c.y * width,
                    1 => c.y * width + w_s,
                    2 => (h_s + c.y) * width,
                    _ => (h_s + c.y) * width + w_s,
                };
                data[start..start + c.samples.len()].copy_from_slice(c.samples);
            };
            for y in 0..height {
                engine.push_row(view.row(y), &mut sink)?;
            }
            engine.finish(&mut sink)?;
        }
        Ok(Decomposition::from_raw(data, width, height, engine.scales, engine.filter, bit_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwc_filters::FilterBank;
    use lwc_image::synth;

    #[test]
    fn fused_matches_multi_pass_across_banks_and_geometries() {
        for id in FilterId::ALL {
            for (w, h, scales) in [(32usize, 32usize, 1u32), (64, 32, 3), (32, 64, 4), (96, 96, 5)]
            {
                let bank = FilterBank::table1(id);
                let hw = FixedDwt2d::paper_default(&bank, scales).unwrap();
                let image = synth::random_image(w, h, 12, (w + h) as u64 + id.index() as u64);
                let fused = LineFixedDwt::forward_view(&hw, &image.view()).unwrap();
                let multi = hw.forward(&image).unwrap();
                assert_eq!(fused, multi, "{id}: {w}x{h} at {scales} scales");
            }
        }
    }

    #[test]
    fn every_band_row_is_emitted_exactly_once() {
        let bank = FilterBank::table1(FilterId::F1);
        let hw = FixedDwt2d::paper_default(&bank, 3).unwrap();
        let image = synth::ct_phantom(64, 32, 12, 5);
        let mut engine = LineFixedDwt::new(&hw, 64, 32).unwrap();
        let mut seen = std::collections::HashMap::new();
        let mut emitted = 0usize;
        let mut sink = |c: FixedCoeffRow<'_>| {
            let slot = seen.entry((c.scale, c.band, c.y)).or_insert(0usize);
            *slot += 1;
            emitted += c.samples.len();
        };
        for y in 0..32 {
            engine.push_row(image.view().row(y), &mut sink).unwrap();
        }
        engine.finish(&mut sink).unwrap();
        assert_eq!(emitted, 64 * 32, "every pixel position maps to one coefficient");
        assert!(seen.values().all(|&n| n == 1), "no band row may be emitted twice");
    }

    #[test]
    fn working_set_is_bounded_by_width_not_height() {
        let bank = FilterBank::table1(FilterId::F4);
        let hw = FixedDwt2d::paper_default(&bank, 4).unwrap();
        let (w, h) = (128usize, 512usize);
        let image = synth::mr_slice(w, h, 12, 11);
        let mut engine = LineFixedDwt::new(&hw, w, h).unwrap();
        let mut peak = 0usize;
        let mut sink = |_c: FixedCoeffRow<'_>| {};
        for y in 0..h {
            engine.push_row(image.view().row(y), &mut sink).unwrap();
            peak = peak.max(engine.working_set_samples());
        }
        engine.finish(&mut sink).unwrap();
        peak = peak.max(engine.working_set_samples());
        assert!(peak <= 64 * w * 4, "peak {peak}");
        assert!(peak < w * h / 4, "peak {peak} not far below the {} pixels", w * h);
    }

    #[test]
    fn undecomposable_frames_are_rejected() {
        let bank = FilterBank::table1(FilterId::F1);
        let hw = FixedDwt2d::paper_default(&bank, 5).unwrap();
        assert!(matches!(LineFixedDwt::new(&hw, 48, 48), Err(DwtError::NotDecomposable { .. })));
    }
}
