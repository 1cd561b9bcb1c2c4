//! Line-based fused multi-scale 5/3 transform: the whole pyramid in one
//! streaming pass over the image.
//!
//! [`crate::Lifting53`] makes a full pass over the active region per scale
//! (a row pass, then a column pass), so a deep decomposition re-reads the
//! LL band from memory once per level. This module implements the scheduling
//! the hardware world uses instead (PAPERS.md, *"Area and Throughput
//! Trade-Offs in the Design of Pipelined Discrete Wavelet Transform
//! Architectures"*): **line-based** evaluation, where each level owns a
//! fixed set of line buffers and level `n + 1` consumes LL rows as level `n`
//! emits them. Rows flow from the input straight up the level cascade in a
//! single pass, with an `O(width x levels)` working set instead of
//! `O(pixels)`.
//!
//! The 5/3 lifting steps make this cheap: the vertical predict for detail
//! row `k` needs horizontally-transformed rows `2k`, `2k + 1` and `2k + 2`,
//! and the vertical update for approximation row `k` needs detail rows
//! `k - 1` and `k`. So each level allocates seven rows once — three even
//! rows, the latest odd row, two detail rows and the update's output row,
//! the slots indexed by row number — which cover the filter support
//! including the symmetric (mirror) boundary taps. A pushed row is
//! transformed into its slot and every output whose taps are now present is
//! computed at once; the height is known, so the last row emits every
//! boundary output and nothing waits for a flush. The ragged
//! `ceil(n / 2)` pyramid of [`crate::geometry`] is handled exactly like the
//! multi-pass driver: one-sample dimensions pass through, odd dimensions
//! mirror at the tail.
//!
//! Every emitted coefficient is computed by the *same integer formulas* as
//! [`crate::Lifting53::forward`], so the output is **bit-identical** to the
//! multi-pass driver — the workspace property tests diff the two across
//! random odd/prime dimensions and depths, and the multi-pass transform
//! stays in-tree as the reference.
//!
//! [`LineIdwt53`] runs the same organisation backwards (synthesis): each
//! level keeps its two most recent reconstructed even rows and detail rows,
//! pulls approximation rows from the next coarser level on demand and
//! detail rows from a caller-supplied source, undoes the vertical update and
//! predict over whole rows, then the horizontal step, and hands finished
//! rows to the next finer level — so a decode writes image rows top to
//! bottom straight into its output, with no Mallat frame in between.

use crate::geometry::{band_rect, scaled_dim};
use crate::lifting1d::{
    approx_len, detail_len, forward_53_into, inverse_53_into, mirror, predict_rows, unpredict_rows,
    unupdate_rows, update_rows,
};
use crate::transform::LiftingCoefficients;
use crate::LiftingError;
use lwc_image::ImageView;

/// One row of subband coefficients emitted by [`LineDwt53`].
///
/// `band` follows the workspace convention (0 = approximation, 1 =
/// horizontal detail, 2 = vertical detail, 3 = diagonal detail); `y` is the
/// row inside the subband's rectangle (see [`crate::geometry::band_rect`]).
/// Rows of each subband are emitted top to bottom; the approximation band is
/// emitted only at the deepest scale. Detail rows of a dimension that has
/// contracted to one sample are empty slices.
#[derive(Debug)]
pub struct CoeffRow<'a> {
    /// Scale of the subband, `1..=scales`.
    pub scale: u32,
    /// Band index, `0..=3`.
    pub band: usize,
    /// Row inside the subband rectangle.
    pub y: usize,
    /// The coefficient row, left to right.
    pub samples: &'a [i32],
}

/// A zeroed row of `w` samples: every fixed row slot of both cascades.
// Not `vec![0; w]`: that is a `calloc`, which glibc serves under the arena
// lock every time, while a `malloc` of a row comes from the thread's cache,
// so parallel brick codes do not queue on the lock.
#[allow(clippy::slow_vector_initialization)]
fn zero_row(w: usize) -> Vec<i32> {
    let mut row = Vec::with_capacity(w);
    row.resize(w, 0);
    row
}

/// The shape check both cascades share, then one level per scale, built by
/// `level(scale, width, height)` over the ragged `ceil(n / 2)` pyramid.
fn build_levels<L>(
    width: usize,
    height: usize,
    scales: u32,
    level: impl Fn(u32, usize, usize) -> L,
) -> Result<Vec<L>, LiftingError> {
    if scales == 0 {
        return Err(LiftingError::NoScales);
    }
    if width == 0 || height == 0 {
        return Err(LiftingError::ConfigurationMismatch(format!(
            "line transform needs nonzero dimensions, got {width}x{height}"
        )));
    }
    Ok((0..scales).map(|l| level(l + 1, scaled_dim(width, l), scaled_dim(height, l))).collect())
}

/// Per-level state of the forward cascade: fixed row slots sized by the 5/3
/// filter support, not the image height. Rows are horizontally transformed
/// `[approx | detail]` rows split at `a_w`, each slot indexed by its row
/// number like [`SynthesisLevel`]'s.
#[derive(Debug)]
struct AnalysisLevel {
    /// 1-based scale this level produces.
    scale: u32,
    /// Height of the region entering this level.
    h: usize,
    a_w: usize,
    a_h: usize,
    d_h: usize,
    /// Even rows; `evens[i % 3]` holds even row `i`. Three, because
    /// approximation row 0 waits for detail row 1, which needs even row 2.
    evens: [Vec<i32>; 3],
    /// The latest odd row.
    odd: Vec<i32>,
    /// Detail rows `[band 2 row | band 3 row]`; `details[k % 2]` holds row `k`.
    details: [Vec<i32>; 2],
    /// The update's output row: `[LL row | band 1 row]`.
    approx: Vec<i32>,
    approx_done: usize,
    rows_in: usize,
}

impl AnalysisLevel {
    fn new(scale: u32, w: usize, h: usize) -> Self {
        let row = || zero_row(w);
        Self {
            scale,
            h,
            a_w: approx_len(w),
            a_h: approx_len(h),
            d_h: detail_len(h),
            evens: [row(), row(), row()],
            odd: row(),
            details: [row(), row()],
            approx: row(),
            approx_done: 0,
            rows_in: 0,
        }
    }

    fn buffered_samples(&self) -> usize {
        self.evens.iter().chain(&self.details).chain([&self.odd, &self.approx]).map(Vec::len).sum()
    }

    /// Vertical predict for detail row `k` from even rows `k` and `right`,
    /// then the vertical update for every approximation row it completes.
    fn detail(
        &mut self,
        k: usize,
        right: usize,
        coarser: &mut [AnalysisLevel],
        emit: &mut dyn FnMut(CoeffRow<'_>),
    ) {
        let row = &mut self.details[k % 2];
        predict_rows(&self.odd, &self.evens[k % 3], &self.evens[right % 3], row);
        let (band2, band3) = row.split_at(self.a_w);
        emit(CoeffRow { scale: self.scale, band: 2, y: k, samples: band2 });
        emit(CoeffRow { scale: self.scale, band: 3, y: k, samples: band3 });
        // Approximation row `j` reads detail rows `j - 1` and `j`, mirrored
        // in detail-index space, and is computed as soon as both exist.
        while self.approx_done < self.a_h {
            let j = self.approx_done;
            let prev = mirror(j as i64 - 1, self.d_h as i64) as usize;
            let next = mirror(j as i64, self.d_h as i64) as usize;
            if prev.max(next) > k {
                break;
            }
            let (evens, details) = (&self.evens, &self.details);
            update_rows(&evens[j % 3], &details[prev % 2], &details[next % 2], &mut self.approx);
            self.emit_approx(j, coarser, emit);
            self.approx_done += 1;
        }
    }

    /// Emits approximation row `j`'s band 1 half and sends its LL half up
    /// the cascade, or out as band 0 at the deepest level.
    fn emit_approx(
        &self,
        j: usize,
        coarser: &mut [AnalysisLevel],
        emit: &mut dyn FnMut(CoeffRow<'_>),
    ) {
        let (ll, band1) = self.approx.split_at(self.a_w);
        emit(CoeffRow { scale: self.scale, band: 1, y: j, samples: band1 });
        if coarser.is_empty() {
            emit(CoeffRow { scale: self.scale, band: 0, y: j, samples: ll });
        } else {
            push_row(coarser, ll, emit);
        }
    }
}

/// The horizontal analysis step of one row into `out`, split at `a_w`.
fn lift_row(row: &[i32], a_w: usize, out: &mut [i32]) {
    let (approx, detail) = out.split_at_mut(a_w);
    forward_53_into(row, approx, detail);
}

/// Feeds the next row of `levels[0]` (the level's width) through the
/// cascade: it is transformed into its slot, every detail and approximation
/// row whose taps are now present is computed, and each LL row goes on to
/// the coarser levels `levels[1..]` — [`pull_row`] in reverse.
fn push_row(levels: &mut [AnalysisLevel], row: &[i32], emit: &mut dyn FnMut(CoeffRow<'_>)) {
    let (level, coarser) = levels.split_first_mut().expect("a cascade has at least one level");
    let r = level.rows_in;
    debug_assert!(r < level.h, "more rows pushed than the level holds");
    level.rows_in += 1;
    if level.h == 1 {
        // No vertical pass (exactly like the multi-pass driver): the single
        // horizontally transformed row is approximation row 0.
        lift_row(row, level.a_w, &mut level.approx);
        level.emit_approx(0, coarser, emit);
        return;
    }
    let k = r / 2;
    if r % 2 == 1 {
        lift_row(row, level.a_w, &mut level.odd);
        if r + 1 == level.h {
            // Even-height tail: the right even neighbour is mirrored in
            // even-subsequence index space, exactly as in `forward_53`.
            let right = mirror(k as i64 + 1, level.a_h as i64) as usize;
            level.detail(k, right, coarser, emit);
        }
        return;
    }
    lift_row(row, level.a_w, &mut level.evens[k % 3]);
    if k >= 1 {
        level.detail(k - 1, k, coarser, emit);
    }
}

/// Line-based fused forward 5/3 transform: push rows in with
/// [`LineDwt53::push_row`], receive subband coefficient rows through a
/// callback, and call [`LineDwt53::finish`] after the last row.
///
/// The engine is bit-identical to [`crate::Lifting53::forward`] on every
/// image geometry (any dimensions, any depth) while holding only
/// `O(width x levels)` samples — see the module documentation for the
/// scheduling and the row-slot sizing.
///
/// ```
/// use lwc_image::synth;
/// use lwc_lifting::{Lifting53, LineDwt53};
///
/// # fn main() -> Result<(), lwc_lifting::LiftingError> {
/// let image = synth::mr_slice(37, 53, 12, 1); // ragged odd dimensions
/// let fused = LineDwt53::forward_view(&image.view(), 3)?;
/// let multi_pass = Lifting53::new(3)?.forward(&image)?;
/// assert_eq!(fused, multi_pass); // bit-identical, one pass over memory
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LineDwt53 {
    width: usize,
    height: usize,
    scales: u32,
    levels: Vec<AnalysisLevel>,
}

impl LineDwt53 {
    /// Creates a streaming transform for a `width x height` image.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::NoScales`] for zero scales and
    /// [`LiftingError::ConfigurationMismatch`] for zero dimensions.
    pub fn new(width: usize, height: usize, scales: u32) -> Result<Self, LiftingError> {
        let levels = build_levels(width, height, scales, AnalysisLevel::new)?;
        Ok(Self { width, height, scales, levels })
    }

    /// Image width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Decomposition depth.
    #[must_use]
    pub fn scales(&self) -> u32 {
        self.scales
    }

    /// Samples held in every level's row slots — the engine's coefficient
    /// working set. Allocated once by [`LineDwt53::new`]: at most seven rows
    /// of each level's width, independent of the image height.
    #[must_use]
    pub fn working_set_samples(&self) -> usize {
        self.levels.iter().map(AnalysisLevel::buffered_samples).sum()
    }

    /// Pushes the next image row (top to bottom), emitting every coefficient
    /// row that becomes computable anywhere in the cascade. The last row
    /// emits every remaining boundary row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the image width or if more
    /// than `height` rows are pushed.
    pub fn push_row(&mut self, row: &[i32], emit: &mut dyn FnMut(CoeffRow<'_>)) {
        assert_eq!(row.len(), self.width, "row length must equal the image width");
        assert!(self.levels[0].rows_in < self.height, "more rows pushed than the image height");
        push_row(&mut self.levels, row, emit);
    }

    /// Checks that the whole image was pushed; the last row has already
    /// emitted every coefficient.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed.
    pub fn finish(&self) {
        assert_eq!(
            self.levels[0].rows_in, self.height,
            "finish called before every row was pushed"
        );
    }

    /// Convenience driver: runs the whole view through the streaming engine
    /// and assembles the Mallat layout — the exact product of
    /// [`crate::Lifting53::forward_view`], used by the bit-identity tests
    /// and benches. Streaming consumers use [`LineDwt53::push_row`] instead
    /// and never materialize the full coefficient frame.
    ///
    /// # Errors
    ///
    /// See [`LineDwt53::new`].
    pub fn forward_view(
        view: &ImageView<'_>,
        scales: u32,
    ) -> Result<LiftingCoefficients, LiftingError> {
        let width = view.width();
        let height = view.height();
        let mut engine = Self::new(width, height, scales)?;
        let mut data = vec![0i32; width * height];
        let mut sink = |c: CoeffRow<'_>| {
            let rect = band_rect(width, height, c.scale, c.band);
            debug_assert_eq!(c.samples.len(), rect.width);
            let start = (rect.y + c.y) * width + rect.x;
            data[start..start + c.samples.len()].copy_from_slice(c.samples);
        };
        for y in 0..height {
            engine.push_row(view.row(y), &mut sink);
        }
        engine.finish();
        LiftingCoefficients::from_raw(data, width, height, scales, view.bit_depth())
    }
}

/// One row of subband coefficients requested by [`LineIdwt53`]: the source
/// fills `samples` with row `y` of subband `(scale, band)`, numbered as in
/// [`CoeffRow`]. `samples` is exactly the subband's width; empty bands are
/// never requested.
#[derive(Debug)]
pub struct CoeffRowMut<'a> {
    /// Scale of the subband, `1..=scales`.
    pub scale: u32,
    /// Band index, `0..=3`.
    pub band: usize,
    /// Row inside the subband rectangle.
    pub y: usize,
    /// The row to fill, left to right.
    pub samples: &'a mut [i32],
}

/// Per-level state of the inverse cascade. Rows of the vertical domain are
/// `[approx | detail]` split at `a_w`, like [`AnalysisLevel`]'s; the slots
/// are indexed by row parity, since synthesis only ever reads the two most
/// recent even rows and the two most recent detail rows.
#[derive(Debug)]
struct SynthesisLevel {
    /// 1-based scale this level reconstructs.
    scale: u32,
    /// Height of the region this level reconstructs.
    h: usize,
    a_w: usize,
    a_h: usize,
    d_h: usize,
    /// The approximation row being assembled: `[coarser LL row | band 1 row]`.
    approx: Vec<i32>,
    /// Reconstructed even rows; `evens[j % 2]` holds even row `j`.
    evens: [Vec<i32>; 2],
    evens_done: usize,
    /// Detail rows `[band 2 row | band 3 row]`; `details[k % 2]` holds row `k`.
    details: [Vec<i32>; 2],
    details_loaded: usize,
    /// A reconstructed odd row on its way through the horizontal step.
    odd: Vec<i32>,
    next_row: usize,
}

impl SynthesisLevel {
    fn new(scale: u32, w: usize, h: usize) -> Self {
        let row = || zero_row(w);
        Self {
            scale,
            h,
            a_w: approx_len(w),
            a_h: approx_len(h),
            d_h: detail_len(h),
            approx: row(),
            evens: [row(), row()],
            evens_done: 0,
            details: [row(), row()],
            details_loaded: 0,
            odd: if h >= 2 { row() } else { Vec::new() },
            next_row: 0,
        }
    }

    /// Assembles approximation row `j`: its left part is the coarser
    /// level's reconstructed row `j` (or band 0 at the deepest level), its
    /// right part band 1's row `j`.
    fn pull_approx<F: FnMut(CoeffRowMut<'_>)>(
        &mut self,
        j: usize,
        coarser: &mut [SynthesisLevel],
        fill: &mut F,
    ) {
        let (ll, band1) = self.approx.split_at_mut(self.a_w);
        if coarser.is_empty() {
            fill(CoeffRowMut { scale: self.scale, band: 0, y: j, samples: ll });
        } else {
            pull_row(coarser, fill, ll);
        }
        if !band1.is_empty() {
            fill(CoeffRowMut { scale: self.scale, band: 1, y: j, samples: band1 });
        }
    }

    /// Loads detail rows up to and including row `k`.
    fn load_details<F: FnMut(CoeffRowMut<'_>)>(&mut self, k: usize, fill: &mut F) {
        while self.details_loaded <= k {
            let y = self.details_loaded;
            let (band2, band3) = self.details[y % 2].split_at_mut(self.a_w);
            fill(CoeffRowMut { scale: self.scale, band: 2, y, samples: band2 });
            if !band3.is_empty() {
                fill(CoeffRowMut { scale: self.scale, band: 3, y, samples: band3 });
            }
            self.details_loaded += 1;
        }
    }

    /// Undoes the vertical update for every even row up to and including
    /// row `j`. Even row `j` reads detail rows `j - 1` and `j`, mirrored in
    /// detail-index space exactly as the forward update wrote them.
    fn ensure_even<F: FnMut(CoeffRowMut<'_>)>(
        &mut self,
        j: usize,
        coarser: &mut [SynthesisLevel],
        fill: &mut F,
    ) {
        while self.evens_done <= j {
            let i = self.evens_done;
            let prev = mirror(i as i64 - 1, self.d_h as i64) as usize;
            let next = mirror(i as i64, self.d_h as i64) as usize;
            self.load_details(prev.max(next), fill);
            self.pull_approx(i, coarser, fill);
            let details = &self.details;
            unupdate_rows(
                &self.approx,
                &details[prev % 2],
                &details[next % 2],
                &mut self.evens[i % 2],
            );
            self.evens_done += 1;
        }
    }
}

/// The horizontal synthesis step of one vertical-domain row into `out`.
fn unlift_row(row: &[i32], a_w: usize, out: &mut [i32]) {
    if row.len() >= 2 {
        let (approx, detail) = row.split_at(a_w);
        inverse_53_into(approx, detail, out);
    } else {
        out.copy_from_slice(row);
    }
}

/// Reconstructs the next row of `levels[0]` into `out` (the level's width),
/// pulling from the coarser levels `levels[1..]` as needed.
fn pull_row<F: FnMut(CoeffRowMut<'_>)>(
    levels: &mut [SynthesisLevel],
    fill: &mut F,
    out: &mut [i32],
) {
    let (level, coarser) = levels.split_first_mut().expect("a cascade has at least one level");
    let r = level.next_row;
    debug_assert!(r < level.h, "more rows pulled than the level holds");
    level.next_row += 1;
    if level.h == 1 {
        // No vertical pass, exactly like the multi-pass inverse: the single
        // approximation row goes straight through the horizontal step.
        level.pull_approx(0, coarser, fill);
        unlift_row(&level.approx, level.a_w, out);
        return;
    }
    let k = r / 2;
    if r % 2 == 0 {
        level.ensure_even(k, coarser, fill);
        unlift_row(&level.evens[k % 2], level.a_w, out);
        return;
    }
    // Odd row k sits between even rows k and k + 1; an even-height level
    // mirrors its last right neighbour back in even-index space.
    let right = mirror(k as i64 + 1, level.a_h as i64) as usize;
    level.ensure_even(right.max(k), coarser, fill);
    unpredict_rows(
        &level.details[k % 2],
        &level.evens[k % 2],
        &level.evens[right % 2],
        &mut level.odd,
    );
    unlift_row(&level.odd, level.a_w, out);
}

/// Line-based inverse 5/3 transform: the synthesis counterpart of
/// [`LineDwt53`], reconstructing image rows top to bottom while pulling
/// subband rows from a source on demand.
///
/// Each level holds six rows of its own width (the row being assembled,
/// two even rows, two detail rows, one odd row), so the working set is
/// `O(width x levels)` whatever the image height. Subband rows are
/// requested in order within each band, so the source can dequantize or
/// otherwise transform each row as it is pulled.
///
/// **Arithmetic.** The vertical steps run the wrapping `i32` row kernels;
/// the horizontal step, like [`crate::Lifting53`]'s inverse, holds the even
/// samples in `i64` within one row. The two agree whenever no intermediate
/// leaves `i32` — every coefficient frame an encoder produces from pixels
/// of 16 bits or fewer — so on those frames the output is **bit-identical**
/// to [`crate::Lifting53::inverse_raw`]. On any other input (forged
/// streams) it returns wrapped samples and never panics; callers that need
/// pixels range-check the result.
///
/// ```
/// use lwc_image::synth;
/// use lwc_lifting::{Lifting53, LineIdwt53};
///
/// # fn main() -> Result<(), lwc_lifting::LiftingError> {
/// let image = synth::mr_slice(37, 53, 12, 1); // ragged odd dimensions
/// let coeffs = Lifting53::new(3)?.forward(&image)?;
/// let cascade = LineIdwt53::inverse_raw(&coeffs)?;
/// assert_eq!(cascade, Lifting53::new(3)?.inverse_raw(&coeffs)?);
/// assert_eq!(cascade, image.samples());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LineIdwt53 {
    levels: Vec<SynthesisLevel>,
}

impl LineIdwt53 {
    fn new(width: usize, height: usize, scales: u32) -> Result<Self, LiftingError> {
        Ok(Self { levels: build_levels(width, height, scales, SynthesisLevel::new)? })
    }

    /// Reconstructs a `width x height` image decomposed to `scales` levels
    /// into `out` (row major), requesting each subband row from `fill` as
    /// the cascade needs it.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::NoScales`] for zero scales and
    /// [`LiftingError::ConfigurationMismatch`] for zero dimensions or an
    /// `out` slice that is not `width * height` long.
    pub fn inverse_into<F: FnMut(CoeffRowMut<'_>)>(
        width: usize,
        height: usize,
        scales: u32,
        mut fill: F,
        out: &mut [i32],
    ) -> Result<(), LiftingError> {
        if width.checked_mul(height) != Some(out.len()) {
            return Err(LiftingError::ConfigurationMismatch(format!(
                "output holds {} samples but the image needs {width}x{height}",
                out.len()
            )));
        }
        let mut cascade = Self::new(width, height, scales)?;
        for row in out.chunks_exact_mut(width) {
            pull_row(&mut cascade.levels, &mut fill, row);
        }
        Ok(())
    }

    /// Convenience entry point over a Mallat-layout container: the cascade
    /// counterpart of [`crate::Lifting53::inverse_raw`], used by the
    /// bit-identity tests and benches. Decoders feed
    /// [`LineIdwt53::inverse_into`] from their subbands instead and never
    /// build the Mallat frame.
    ///
    /// # Errors
    ///
    /// Currently infallible for any valid container; the `Result` mirrors
    /// [`crate::Lifting53::inverse_raw`].
    pub fn inverse_raw(coeffs: &LiftingCoefficients) -> Result<Vec<i32>, LiftingError> {
        let (width, height) = (coeffs.width(), coeffs.height());
        let data = coeffs.data();
        let fill = |row: CoeffRowMut<'_>| {
            let rect = band_rect(width, height, row.scale, row.band);
            let start = (rect.y + row.y) * width + rect.x;
            row.samples.copy_from_slice(&data[start..start + rect.width]);
        };
        let mut out = vec![0i32; width * height];
        Self::inverse_into(width, height, coeffs.scales(), fill, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lifting53;
    use lwc_image::synth;

    #[test]
    fn fused_matches_multi_pass_across_geometries() {
        for (w, h) in [
            (1usize, 1usize),
            (1, 17),
            (17, 1),
            (2, 2),
            (2, 5),
            (5, 2),
            (3, 3),
            (4, 4),
            (7, 11),
            (37, 53),
            (64, 64),
            (101, 63),
            (64, 37),
        ] {
            for scales in [1u32, 2, 3, 5, 8] {
                let image = synth::random_image(w, h, 12, (w * 1000 + h) as u64 + scales as u64);
                let fused = LineDwt53::forward_view(&image.view(), scales).unwrap();
                let multi = Lifting53::new(scales).unwrap().forward(&image).unwrap();
                assert_eq!(fused, multi, "{w}x{h} at {scales} scales");
            }
        }
    }

    #[test]
    fn emission_is_in_order_and_complete_per_band() {
        let image = synth::ct_phantom(45, 29, 12, 3);
        let scales = 3u32;
        let mut engine = LineDwt53::new(45, 29, scales).unwrap();
        let mut next_y = std::collections::HashMap::new();
        let mut emitted = 0usize;
        let mut sink = |c: CoeffRow<'_>| {
            let expected = next_y.entry((c.scale, c.band)).or_insert(0usize);
            assert_eq!(c.y, *expected, "band ({}, {}) out of order", c.scale, c.band);
            *expected += 1;
            emitted += c.samples.len();
        };
        for y in 0..29 {
            engine.push_row(image.view().row(y), &mut sink);
        }
        assert_eq!(emitted, 45 * 29, "the last row emits every remaining coefficient");
        engine.finish();
        for ((scale, band), rows) in next_y {
            let rect = band_rect(45, 29, scale, band);
            assert_eq!(rows, rect.height, "band ({scale}, {band}) incomplete");
        }
    }

    #[test]
    fn working_set_is_bounded_by_width_not_height() {
        let (w, h, scales) = (128usize, 512usize, 4u32);
        let image = synth::mr_slice(w, h, 12, 7);
        let mut engine = LineDwt53::new(w, h, scales).unwrap();
        // Every level's rows are allocated up front: seven of its width.
        let held = engine.working_set_samples();
        let level_widths: usize = (0..scales).map(|l| scaled_dim(w, l)).sum();
        assert!(held <= 7 * level_widths, "{held} samples held");
        let mut sink = |_c: CoeffRow<'_>| {};
        for y in 0..h {
            engine.push_row(image.view().row(y), &mut sink);
            assert_eq!(engine.working_set_samples(), held, "after row {y}");
        }
        engine.finish();
        assert_eq!(engine.working_set_samples(), held, "after finish");
    }

    #[test]
    fn inverse_cascade_matches_multi_pass_across_geometries() {
        for (w, h) in [
            (1usize, 1usize),
            (1, 17),
            (17, 1),
            (2, 2),
            (2, 5),
            (5, 2),
            (3, 3),
            (4, 4),
            (7, 11),
            (37, 53),
            (64, 64),
            (101, 63),
            (64, 37),
        ] {
            for scales in [1u32, 2, 3, 5, 8] {
                let image = synth::random_image(w, h, 12, (w * 1000 + h) as u64 + scales as u64);
                let lifting = Lifting53::new(scales).unwrap();
                let coeffs = lifting.forward(&image).unwrap();
                let cascade = LineIdwt53::inverse_raw(&coeffs).unwrap();
                assert_eq!(cascade, lifting.inverse_raw(&coeffs).unwrap(), "{w}x{h}/{scales}");
                assert_eq!(cascade, image.samples(), "{w}x{h} at {scales} scales");
            }
        }
    }

    #[test]
    fn inverse_requests_every_band_row_once_in_order() {
        let (w, h, scales) = (45usize, 29usize, 3u32);
        let mut next_y = std::collections::HashMap::new();
        let mut requested = 0usize;
        let fill = |row: CoeffRowMut<'_>| {
            let expected = next_y.entry((row.scale, row.band)).or_insert(0usize);
            assert_eq!(row.y, *expected, "band ({}, {}) out of order", row.scale, row.band);
            *expected += 1;
            assert_eq!(row.samples.len(), band_rect(w, h, row.scale, row.band).width);
            requested += row.samples.len();
        };
        let mut out = vec![0i32; w * h];
        LineIdwt53::inverse_into(w, h, scales, fill, &mut out).unwrap();
        assert_eq!(requested, w * h, "every coefficient is requested exactly once");
        for ((scale, band), rows) in next_y {
            assert_eq!(rows, band_rect(w, h, scale, band).height, "band ({scale}, {band})");
        }
    }

    #[test]
    fn inverse_rejects_bad_shapes() {
        let fill = |_row: CoeffRowMut<'_>| {};
        let mut out = vec![0i32; 16];
        assert!(matches!(
            LineIdwt53::inverse_into(4, 4, 0, fill, &mut out),
            Err(LiftingError::NoScales)
        ));
        for (w, h) in [(0usize, 4usize), (4, 0), (5, 4)] {
            assert!(matches!(
                LineIdwt53::inverse_into(w, h, 2, fill, &mut out),
                Err(LiftingError::ConfigurationMismatch(_))
            ));
        }
    }

    #[test]
    fn misuse_panics() {
        assert!(LineDwt53::new(0, 4, 1).is_err());
        assert!(LineDwt53::new(4, 4, 0).is_err());
        let mut engine = LineDwt53::new(4, 2, 1).unwrap();
        let mut sink = |_c: CoeffRow<'_>| {};
        engine.push_row(&[0; 4], &mut sink);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.finish()));
        assert!(result.is_err(), "finish before the last row must panic");
    }
}
