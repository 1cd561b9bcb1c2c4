//! Line-based fused multi-scale 5/3 transform: the whole pyramid in one
//! streaming pass over the image.
//!
//! [`crate::Lifting53`] makes a full pass over the active region per scale
//! (a row pass, then a column pass), so a deep decomposition re-reads the
//! LL band from memory once per level. This module implements the scheduling
//! the hardware world uses instead (PAPERS.md, *"Area and Throughput
//! Trade-Offs in the Design of Pipelined Discrete Wavelet Transform
//! Architectures"*): **line-based** evaluation, where each level keeps a
//! bounded ring of line buffers and level `n + 1` consumes LL rows as level
//! `n` emits them. Rows flow from the input straight up the level cascade in
//! a single pass, with an `O(width x levels)` working set instead of
//! `O(pixels)`.
//!
//! The 5/3 lifting steps make this cheap: the vertical predict for detail
//! row `k` needs horizontally-transformed rows `2k`, `2k + 1` and `2k + 2`,
//! and the vertical update for approximation row `k` needs detail rows
//! `k - 1` and `k`, so a ring of about six rows per level covers the filter
//! support including the symmetric (mirror) boundary taps. The ragged
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
use std::collections::VecDeque;

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

/// Per-level state of the line cascade: a ring of horizontally transformed
/// rows plus the last few vertical detail rows, sized by the 5/3 filter
/// support (not the image height).
#[derive(Debug)]
struct Level {
    /// 1-based scale this level produces.
    scale: u32,
    /// Active region entering this level.
    w: usize,
    h: usize,
    /// Horizontal split of a transformed row: `[approx | detail]`.
    a_w: usize,
    /// Vertical output counts.
    a_h: usize,
    d_h: usize,
    /// Ring of horizontally transformed rows; `rows[0]` has absolute row
    /// index `rows_start`.
    rows: VecDeque<Vec<i32>>,
    rows_start: usize,
    rows_in: usize,
    /// Recent vertical detail rows; `details[0]` has index `details_start`.
    details: VecDeque<Vec<i32>>,
    details_start: usize,
    next_detail: usize,
    next_approx: usize,
    flushed: bool,
    /// Recycled row buffers (the ring never allocates in steady state).
    spare: Vec<Vec<i32>>,
}

impl Level {
    fn new(scale: u32, w: usize, h: usize) -> Self {
        Self {
            scale,
            w,
            h,
            a_w: approx_len(w),
            a_h: approx_len(h),
            d_h: detail_len(h),
            rows: VecDeque::new(),
            rows_start: 0,
            rows_in: 0,
            details: VecDeque::new(),
            details_start: 0,
            next_detail: 0,
            next_approx: 0,
            flushed: false,
            spare: Vec::new(),
        }
    }

    fn row(&self, index: usize) -> &[i32] {
        &self.rows[index - self.rows_start]
    }

    fn detail(&self, index: usize) -> &[i32] {
        &self.details[index - self.details_start]
    }

    fn take_buf(&mut self) -> Vec<i32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Receives one input row: applies the horizontal lifting step (identical
    /// to the multi-pass row pass) and appends the `[approx | detail]` row to
    /// the ring.
    fn receive(&mut self, src: &[i32]) {
        debug_assert_eq!(src.len(), self.w);
        let mut buf = self.take_buf();
        buf.resize(self.w, 0);
        if self.w >= 2 {
            let (a, d) = buf.split_at_mut(self.a_w);
            forward_53_into(src, a, d);
        } else {
            buf.copy_from_slice(src);
        }
        self.rows.push_back(buf);
        self.rows_in += 1;
    }

    /// Computes every vertical output whose dependencies are satisfied,
    /// emitting detail rows (bands 2/3) and horizontal-detail rows (band 1)
    /// and pushing LL rows either up the cascade (`out`) or out as the
    /// deepest approximation (band 0) when `is_top`.
    fn pump(
        &mut self,
        is_top: bool,
        out: &mut Vec<Vec<i32>>,
        pool: &mut Vec<Vec<i32>>,
        emit: &mut dyn FnMut(CoeffRow<'_>),
    ) {
        if self.h == 1 {
            // No vertical pass (exactly like the multi-pass driver): the
            // single horizontally transformed row is approximation row 0.
            if self.next_approx == 0 && self.rows_in == 1 {
                let row = &self.rows[0];
                emit(CoeffRow { scale: self.scale, band: 1, y: 0, samples: &row[self.a_w..] });
                if is_top {
                    emit(CoeffRow { scale: self.scale, band: 0, y: 0, samples: &row[..self.a_w] });
                } else {
                    let mut ll = pool.pop().unwrap_or_default();
                    ll.clear();
                    ll.extend_from_slice(&row[..self.a_w]);
                    out.push(ll);
                }
                self.next_approx = 1;
            }
            return;
        }
        loop {
            let mut progressed = false;
            if self.try_detail(emit) {
                progressed = true;
            }
            if self.try_approx(is_top, out, pool, emit) {
                progressed = true;
            }
            if !progressed {
                break;
            }
            self.trim();
        }
    }

    /// Vertical predict for detail row `next_detail`, if its rows are in.
    fn try_detail(&mut self, emit: &mut dyn FnMut(CoeffRow<'_>)) -> bool {
        let k = self.next_detail;
        if k >= self.d_h {
            return false;
        }
        let interior = 2 * k + 2 < self.h;
        if interior && self.rows_in <= 2 * k + 2 {
            return false;
        }
        if !interior && !self.flushed {
            // Even-height mirror tail: needs the last row, i.e. end of input.
            return false;
        }
        let mut buf = self.take_buf();
        {
            let r0 = self.row(2 * k);
            let r1 = self.row(2 * k + 1);
            let r2 = if interior {
                self.row(2 * k + 2)
            } else {
                // The right even neighbour is mirrored in even-subsequence
                // index space, exactly as in `forward_53`.
                let m = mirror(k as i64 + 1, self.a_h as i64) as usize;
                self.row(2 * m)
            };
            buf.resize(r1.len(), 0);
            predict_rows(r1, r0, r2, &mut buf);
        }
        emit(CoeffRow { scale: self.scale, band: 2, y: k, samples: &buf[..self.a_w] });
        emit(CoeffRow { scale: self.scale, band: 3, y: k, samples: &buf[self.a_w..] });
        self.details.push_back(buf);
        self.next_detail += 1;
        true
    }

    /// Vertical update for approximation row `next_approx`, if its detail
    /// rows are computed.
    fn try_approx(
        &mut self,
        is_top: bool,
        out: &mut Vec<Vec<i32>>,
        pool: &mut Vec<Vec<i32>>,
        emit: &mut dyn FnMut(CoeffRow<'_>),
    ) -> bool {
        let j = self.next_approx;
        if j >= self.a_h {
            return false;
        }
        let ready = if j == 0 {
            // Needs d(-1) and d(0): d(-1) mirrors to detail row 1 when it
            // exists, else row 0.
            self.next_detail >= 2.min(self.d_h)
        } else if j < self.d_h {
            self.next_detail > j
        } else {
            // Odd-height tail: both taps mirror into already-computed rows,
            // but only once every detail row exists.
            self.next_detail == self.d_h
        };
        if !ready {
            return false;
        }
        let mut buf = self.take_buf();
        {
            let (dm1, d0) = if j == 0 {
                (self.detail(1.min(self.d_h - 1)), self.detail(0))
            } else if j < self.d_h {
                (self.detail(j - 1), self.detail(j))
            } else {
                let m = mirror(j as i64, self.d_h as i64) as usize;
                (self.detail(j - 1), self.detail(m))
            };
            let r = self.row(2 * j);
            buf.resize(r.len(), 0);
            update_rows(r, dm1, d0, &mut buf);
        }
        emit(CoeffRow { scale: self.scale, band: 1, y: j, samples: &buf[self.a_w..] });
        if is_top {
            emit(CoeffRow { scale: self.scale, band: 0, y: j, samples: &buf[..self.a_w] });
        } else {
            let mut ll = pool.pop().unwrap_or_default();
            ll.clear();
            ll.extend_from_slice(&buf[..self.a_w]);
            out.push(ll);
        }
        self.spare.push(buf);
        self.next_approx += 1;
        true
    }

    /// Drops ring entries no future output can reference. The retention
    /// bounds are the filter support: approximation row `j` reads input row
    /// `2j` and detail rows `j - 2..=j`; the even-height mirror tail reads
    /// input row `2 * next_detail - 2`.
    fn trim(&mut self) {
        let keep_rows = (2 * self.next_approx).min((2 * self.next_detail).saturating_sub(2));
        while self.rows_start < keep_rows {
            let buf = self.rows.pop_front().expect("retention keeps rows_start in range");
            self.spare.push(buf);
            self.rows_start += 1;
        }
        let keep_details = self.next_approx.saturating_sub(2);
        while self.details_start < keep_details {
            let buf = self.details.pop_front().expect("retention keeps details_start in range");
            self.spare.push(buf);
            self.details_start += 1;
        }
    }

    fn buffered_samples(&self) -> usize {
        self.rows.iter().map(Vec::len).sum::<usize>()
            + self.details.iter().map(Vec::len).sum::<usize>()
            + self.spare.iter().map(|b| b.capacity()).sum::<usize>()
    }
}

/// Line-based fused forward 5/3 transform: push rows in with
/// [`LineDwt53::push_row`], receive subband coefficient rows through a
/// callback, and call [`LineDwt53::finish`] after the last row.
///
/// The engine is bit-identical to [`crate::Lifting53::forward`] on every
/// image geometry (any dimensions, any depth) while holding only
/// `O(width x levels)` samples — see the module documentation for the
/// scheduling and the ring-buffer sizing.
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
    levels: Vec<Level>,
    rows_in: usize,
    finished: bool,
    /// Recycled LL row buffers passed between cascade levels.
    pool: Vec<Vec<i32>>,
    /// The LL rows one level hands the next during a sweep, kept between
    /// sweeps so a pushed row allocates nothing once the rings are warm.
    inputs: Vec<Vec<i32>>,
    outputs: Vec<Vec<i32>>,
}

impl LineDwt53 {
    /// Creates a streaming transform for a `width x height` image.
    ///
    /// # Errors
    ///
    /// Returns [`LiftingError::NoScales`] for zero scales and
    /// [`LiftingError::ConfigurationMismatch`] for zero dimensions.
    pub fn new(width: usize, height: usize, scales: u32) -> Result<Self, LiftingError> {
        if scales == 0 {
            return Err(LiftingError::NoScales);
        }
        if width == 0 || height == 0 {
            return Err(LiftingError::ConfigurationMismatch(format!(
                "line transform needs nonzero dimensions, got {width}x{height}"
            )));
        }
        let levels = (0..scales)
            .map(|l| Level::new(l + 1, scaled_dim(width, l), scaled_dim(height, l)))
            .collect();
        Ok(Self {
            width,
            height,
            scales,
            levels,
            rows_in: 0,
            finished: false,
            pool: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        })
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

    /// Samples currently buffered across every level's ring (including
    /// recycled spares) — the engine's coefficient working set. Bounded by
    /// the filter support times the level widths, independent of the image
    /// height; the streaming smoke test asserts the bound on a 4096² frame.
    #[must_use]
    pub fn working_set_samples(&self) -> usize {
        self.levels.iter().map(Level::buffered_samples).sum::<usize>()
            + self.pool.iter().map(|b| b.capacity()).sum::<usize>()
    }

    /// Pushes the next image row (top to bottom), emitting every coefficient
    /// row that becomes computable anywhere in the cascade.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the image width, if more than
    /// `height` rows are pushed, or after [`LineDwt53::finish`].
    pub fn push_row(&mut self, row: &[i32], emit: &mut dyn FnMut(CoeffRow<'_>)) {
        assert!(!self.finished, "push_row called after finish");
        assert_eq!(row.len(), self.width, "row length must equal the image width");
        assert!(self.rows_in < self.height, "more rows pushed than the image height");
        self.rows_in += 1;
        self.levels[0].receive(row);
        self.run_levels(false, emit);
    }

    /// Flushes the cascade after the last row, emitting every remaining
    /// boundary output level by level.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `height` rows were pushed or on a second call.
    pub fn finish(&mut self, emit: &mut dyn FnMut(CoeffRow<'_>)) {
        assert!(!self.finished, "finish called twice");
        assert_eq!(self.rows_in, self.height, "finish called before every row was pushed");
        self.finished = true;
        self.run_levels(true, emit);
        debug_assert!(
            self.levels.iter().all(|l| l.next_approx == l.a_h && l.next_detail == l.d_h),
            "flush must drain every level"
        );
    }

    /// One cascade sweep: feed each level the LL rows the level below
    /// released, then pump it. With `flush` set, levels are flushed bottom-up
    /// so boundary tails propagate in one sweep.
    fn run_levels(&mut self, flush: bool, emit: &mut dyn FnMut(CoeffRow<'_>)) {
        let (inputs, outputs) = (&mut self.inputs, &mut self.outputs);
        let level_count = self.levels.len();
        for li in 0..level_count {
            let is_top = li + 1 == level_count;
            let level = &mut self.levels[li];
            for buf in inputs.drain(..) {
                level.receive(&buf);
                self.pool.push(buf);
            }
            if flush {
                level.flushed = true;
            }
            level.pump(is_top, outputs, &mut self.pool, emit);
            std::mem::swap(inputs, outputs);
        }
        // The top level emits band 0 instead of cascading.
        debug_assert!(inputs.is_empty() && outputs.is_empty());
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
        engine.finish(&mut sink);
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
/// `[approx | detail]` split at `a_w`, like the forward ring's rows; the
/// rings are indexed by row parity, since synthesis only ever reads the two
/// most recent even rows and the two most recent detail rows.
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
        let row = || vec![0i32; w];
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
        if scales == 0 {
            return Err(LiftingError::NoScales);
        }
        if width == 0 || height == 0 {
            return Err(LiftingError::ConfigurationMismatch(format!(
                "line transform needs nonzero dimensions, got {width}x{height}"
            )));
        }
        let levels = (0..scales)
            .map(|l| SynthesisLevel::new(l + 1, scaled_dim(width, l), scaled_dim(height, l)))
            .collect();
        Ok(Self { levels })
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
            for scales in [1u32, 2, 3, 5] {
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
        engine.finish(&mut sink);
        assert_eq!(emitted, 45 * 29, "every pixel position maps to one coefficient");
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
        let mut peak = 0usize;
        let mut sink = |_c: CoeffRow<'_>| {};
        for y in 0..h {
            engine.push_row(image.view().row(y), &mut sink);
            peak = peak.max(engine.working_set_samples());
        }
        engine.finish(&mut sink);
        peak = peak.max(engine.working_set_samples());
        // Sum of level widths is < 2w; each level holds a constant number of
        // rows (ring + details + spares), far below the pixel count.
        assert!(peak <= 64 * w * scales as usize, "peak {peak}");
        assert!(peak < w * h / 4, "peak {peak} not far below the {} pixels", w * h);
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = |_c: CoeffRow<'_>| {};
            engine.finish(&mut sink);
        }));
        assert!(result.is_err(), "finish before the last row must panic");
    }
}
