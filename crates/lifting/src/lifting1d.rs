//! One-dimensional reversible 5/3 lifting steps.
//!
//! The reversible LeGall 5/3 transform (JPEG 2000 Part 1, Annex F):
//!
//! ```text
//! predict: d[k] = x[2k+1] - floor((x[2k] + x[2k+2]) / 2)
//! update:  a[k] = x[2k]   + floor((d[k-1] + d[k] + 2) / 4)
//! ```
//!
//! with symmetric (mirror) extension at the borders. Every step adds an
//! integer to an integer, so the inverse recovers the input exactly at any
//! word length — the property the paper instead buys with a wide datapath.
//!
//! Signals of **any** length `n >= 1` are supported (the tile-sharded codec
//! feeds ragged edge tiles with odd and even dimensions alike): the
//! approximation keeps the `ceil(n / 2)` even-indexed samples and the detail
//! the `floor(n / 2)` odd-indexed ones. For even `n` the output is
//! bit-identical to the original even-only implementation (the test module
//! keeps that implementation as a reference and diffs against it).
//!
//! Both directions are split into an **interior fast path** — every filter
//! tap in range, plain shifts, no index mirroring — and explicit boundary
//! taps at the first/last positions, mirroring PR 2's interior/boundary
//! split of the fixed-point DWT loops. Only the two edge samples of each
//! half ever pay for the mirror arithmetic.
//!
//! The same two steps over whole rows of samples (`predict_rows`,
//! `update_rows` and their inverses) are the vertical steps of
//! [`crate::LineDwt53`] and the z-axis steps of [`crate::zaxis`]. They
//! compute the rounding terms exactly in `i32`, so they match the widened
//! 1-D arithmetic bit for bit while staying vectorizable.

/// Number of approximation (even-indexed) samples of an `n`-sample signal.
#[must_use]
pub fn approx_len(n: usize) -> usize {
    n.div_ceil(2)
}

/// Number of detail (odd-indexed) samples of an `n`-sample signal.
#[must_use]
pub fn detail_len(n: usize) -> usize {
    n / 2
}

/// Forward reversible 5/3 lifting, returning `(approximation, detail)` of
/// lengths `ceil(n / 2)` and `floor(n / 2)`.
///
/// # Panics
///
/// Panics if `x` is empty.
#[must_use]
pub fn forward_53(x: &[i32]) -> (Vec<i32>, Vec<i32>) {
    let mut approx = vec![0i32; approx_len(x.len())];
    let mut detail = vec![0i32; detail_len(x.len())];
    forward_53_into(x, &mut approx, &mut detail);
    (approx, detail)
}

/// Allocation-free form of [`forward_53`]: writes the approximation and
/// detail halves into caller-provided slices. This is the horizontal kernel
/// of the line-based fused transform ([`crate::LineDwt53`]), which writes
/// each row into a fixed slot instead of allocating two vectors per row.
///
/// # Panics
///
/// Panics if `x` is empty or the output slices do not have lengths
/// [`approx_len`] and [`detail_len`] of `x.len()`.
pub fn forward_53_into(x: &[i32], approx: &mut [i32], detail: &mut [i32]) {
    let n = x.len();
    assert!(n >= 1, "signal must not be empty");
    let half_a = approx_len(n);
    let half_d = detail_len(n);
    assert_eq!(approx.len(), half_a, "approximation slice length must be ceil(n / 2)");
    assert_eq!(detail.len(), half_d, "detail slice length must be floor(n / 2)");
    if half_d == 0 {
        approx[0] = x[0];
        return;
    }

    // Predict. Interior: every window [x[2k], x[2k+1], x[2k+2]] is in range.
    for (slot, w) in detail.iter_mut().zip(x.windows(3).step_by(2)) {
        let predicted = (w[0] as i64 + w[2] as i64) >> 1;
        *slot = (w[1] as i64 - predicted) as i32;
    }
    if n % 2 == 0 {
        // Boundary: the last odd sample's right even neighbour is mirrored in
        // even-subsequence index space.
        let k = half_d - 1;
        let m = mirror(k as i64 + 1, half_a as i64) as usize;
        let predicted = (x[2 * k] as i64 + x[2 * m] as i64) >> 1;
        detail[k] = (x[2 * k + 1] as i64 - predicted) as i32;
    }

    // Update. Boundary at k = 0 (left detail neighbour mirrored), interior
    // for 1..half_d, and for odd `n` a mirrored tail at the last even sample.
    let d = |k: i64| -> i64 { detail[mirror(k, half_d as i64) as usize] as i64 };
    approx[0] = (x[0] as i64 + ((d(-1) + d(0) + 2) >> 2)) as i32;
    for k in 1..half_d {
        let update = (detail[k - 1] as i64 + detail[k] as i64 + 2) >> 2;
        approx[k] = (x[2 * k] as i64 + update) as i32;
    }
    if half_a > half_d {
        let k = half_a as i64 - 1;
        let update = (d(k - 1) + d(k) + 2) >> 2;
        approx[half_a - 1] = (x[2 * (half_a - 1)] as i64 + update) as i32;
    }
}

/// Inverse reversible 5/3 lifting, reconstructing the interleaved signal of
/// length `approx.len() + detail.len()`.
///
/// # Panics
///
/// Panics if `approx` is empty or the halves are not a valid split (the
/// approximation must hold the detail's length or one more).
#[must_use]
pub fn inverse_53(approx: &[i32], detail: &[i32]) -> Vec<i32> {
    let mut out = vec![0i32; approx.len() + detail.len()];
    inverse_53_into(approx, detail, &mut out);
    out
}

/// Allocation-free form of [`inverse_53`]: writes the interleaved signal
/// into a caller-provided slice. This is the horizontal kernel of the
/// inverse line cascade ([`crate::LineIdwt53`]).
///
/// The even samples are held in `i64` between the two steps, exactly as
/// [`inverse_53`] always has, so the output is the same on every input,
/// including coefficients whose intermediates leave `i32`.
///
/// # Panics
///
/// Panics if `approx` is empty, the halves are not a valid split, or `out`
/// does not hold `approx.len() + detail.len()` samples.
pub(crate) fn inverse_53_into(approx: &[i32], detail: &[i32], out: &mut [i32]) {
    let half_a = approx.len();
    let half_d = detail.len();
    assert!(half_a >= 1, "subbands must not be empty");
    assert!(
        half_a == half_d || half_a == half_d + 1,
        "subband lengths must match: {half_a} approximation vs {half_d} detail samples"
    );
    let n = half_a + half_d;
    assert_eq!(out.len(), n, "output slice length must equal the two halves combined");
    if half_d == 0 {
        out[0] = approx[0];
        return;
    }

    // Undo the update one even sample ahead of the predict that reads it,
    // keeping the current and previous even sample. Same split as the
    // forward update: one mirrored tap at each end, plain shifts between.
    let d = |k: i64| -> i64 { detail[mirror(k, half_d as i64) as usize] as i64 };
    let mut even = approx[0] as i64 - ((d(-1) + d(0) + 2) >> 2);
    let mut previous = even;
    for ((pair, &a), w) in out.chunks_exact_mut(2).zip(&approx[1..]).zip(detail.windows(2)) {
        let next = a as i64 - ((w[0] as i64 + w[1] as i64 + 2) >> 2);
        pair[0] = even as i32;
        pair[1] = (w[0] as i64 + ((even + next) >> 1)) as i32;
        previous = even;
        even = next;
    }

    // The last detail sample: an odd-length signal has one more even sample
    // (its update mirrors the right detail tap); an even-length signal
    // mirrors the right even neighbour back to `k - 1` (or `k` itself when
    // there is only one).
    let k = half_d - 1;
    out[2 * k] = even as i32;
    let right = if half_a > half_d {
        let last = approx[half_a - 1] as i64 - ((d(k as i64) + d(k as i64 + 1) + 2) >> 2);
        out[n - 1] = last as i32;
        last
    } else if mirror(k as i64 + 1, half_a as i64) as usize == k {
        even
    } else {
        previous
    };
    out[2 * k + 1] = (detail[k] as i64 + ((even + right) >> 1)) as i32;
}

/// `floor((a + b) / 2)` for any pair of `i32`s, without widening.
#[inline]
fn half_sum(a: i32, b: i32) -> i32 {
    (a >> 1) + (b >> 1) + (a & b & 1)
}

/// `floor((a + b + 2) / 4)` for any pair of `i32`s, without widening.
#[inline]
fn quarter_sum(a: i32, b: i32) -> i32 {
    (a >> 2) + (b >> 2) + (((a & 3) + (b & 3) + 2) >> 2)
}

/// One lifting step over whole rows: `out[i] = step(x[i], a[i], b[i])`.
#[inline]
fn lift_rows(
    x: &[i32],
    a: &[i32],
    b: &[i32],
    out: &mut [i32],
    step: impl Fn(i32, i32, i32) -> i32,
) {
    assert!(x.len() == out.len() && a.len() == out.len() && b.len() == out.len());
    for (((o, &x), &a), &b) in out.iter_mut().zip(x).zip(a).zip(b) {
        *o = step(x, a, b);
    }
}

/// Predict step over whole rows (the vertical and z-axis form of the 1-D
/// predict): `out[i] = odd[i] - floor((left[i] + right[i]) / 2)`.
///
/// The rounding terms are exact in `i32` and the final subtraction wraps,
/// so every output equals the 1-D kernel's widened `as i32` result while
/// the loop stays at `i32` width and autovectorizes. The same holds for the
/// three steps below.
pub(crate) fn predict_rows(odd: &[i32], left: &[i32], right: &[i32], out: &mut [i32]) {
    lift_rows(odd, left, right, out, |x, l, r| x.wrapping_sub(half_sum(l, r)));
}

/// Inverse of [`predict_rows`]: `out[i] = detail[i] + floor((left[i] + right[i]) / 2)`.
pub(crate) fn unpredict_rows(detail: &[i32], left: &[i32], right: &[i32], out: &mut [i32]) {
    lift_rows(detail, left, right, out, |d, l, r| d.wrapping_add(half_sum(l, r)));
}

/// Update step over whole rows: `out[i] = even[i] + floor((prev[i] + next[i] + 2) / 4)`,
/// where `prev` and `next` are the detail rows on either side.
pub(crate) fn update_rows(even: &[i32], prev: &[i32], next: &[i32], out: &mut [i32]) {
    lift_rows(even, prev, next, out, |x, p, n| x.wrapping_add(quarter_sum(p, n)));
}

/// Inverse of [`update_rows`]: `out[i] = approx[i] - floor((prev[i] + next[i] + 2) / 4)`.
pub(crate) fn unupdate_rows(approx: &[i32], prev: &[i32], next: &[i32], out: &mut [i32]) {
    lift_rows(approx, prev, next, out, |a, p, n| a.wrapping_sub(quarter_sum(p, n)));
}

/// Symmetric (whole-sample mirror) index extension into `0..n`.
pub(crate) fn mirror(k: i64, n: i64) -> i64 {
    if n == 1 {
        return 0;
    }
    let period = 2 * (n - 1);
    let mut k = k.rem_euclid(period);
    if k >= n {
        k = period - k;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original even-only implementation, kept verbatim as the
    /// byte-compatibility reference for even-length signals.
    fn reference_forward_even(x: &[i32]) -> (Vec<i32>, Vec<i32>) {
        let n = x.len();
        assert!(n >= 2 && n % 2 == 0);
        let half = n / 2;
        let even = |k: i64| -> i64 {
            let k = mirror(k, half as i64);
            x[2 * k as usize] as i64
        };
        let odd = |k: i64| -> i64 {
            let k = mirror(k, half as i64);
            x[2 * k as usize + 1] as i64
        };
        let mut detail = Vec::with_capacity(half);
        for k in 0..half as i64 {
            let predicted = (even(k) + even(k + 1)).div_euclid(2);
            detail.push((odd(k) - predicted) as i32);
        }
        let d = |k: i64| -> i64 {
            let k = mirror(k, half as i64);
            detail[k as usize] as i64
        };
        let mut approx = Vec::with_capacity(half);
        for k in 0..half as i64 {
            let update = (d(k - 1) + d(k) + 2).div_euclid(4);
            approx.push((even(k) + update) as i32);
        }
        (approx, detail)
    }

    /// The original even-only inverse, kept verbatim as the reference.
    fn reference_inverse_even(approx: &[i32], detail: &[i32]) -> Vec<i32> {
        assert_eq!(approx.len(), detail.len());
        assert!(!approx.is_empty());
        let half = approx.len();
        let d = |k: i64| -> i64 {
            let k = mirror(k, half as i64);
            detail[k as usize] as i64
        };
        let mut even = Vec::with_capacity(half);
        for k in 0..half as i64 {
            let update = (d(k - 1) + d(k) + 2).div_euclid(4);
            even.push(approx[k as usize] as i64 - update);
        }
        let e = |k: i64| -> i64 {
            let k = mirror(k, half as i64);
            even[k as usize]
        };
        let mut out = Vec::with_capacity(half * 2);
        for k in 0..half as i64 {
            let predicted = (e(k) + e(k + 1)).div_euclid(2);
            out.push(even[k as usize] as i32);
            out.push((d(k) + predicted) as i32);
        }
        out
    }

    /// The widened inverse as it stood before the allocation-free form, kept
    /// verbatim as the reference for every length and every `i32` input.
    fn reference_inverse_any(approx: &[i32], detail: &[i32]) -> Vec<i32> {
        let half_a = approx.len();
        let half_d = detail.len();
        if half_d == 0 {
            return vec![approx[0]];
        }
        let n = half_a + half_d;
        let d = |k: i64| -> i64 { detail[mirror(k, half_d as i64) as usize] as i64 };
        let mut even = Vec::with_capacity(half_a);
        even.push(approx[0] as i64 - ((d(-1) + d(0) + 2) >> 2));
        for (k, w) in detail.windows(2).enumerate() {
            let update = (w[0] as i64 + w[1] as i64 + 2) >> 2;
            even.push(approx[k + 1] as i64 - update);
        }
        if half_a > half_d {
            let k = half_a as i64 - 1;
            even.push(approx[half_a - 1] as i64 - ((d(k - 1) + d(k) + 2) >> 2));
        }
        let mut out = Vec::with_capacity(n);
        for (w, &dk) in even.windows(2).zip(detail) {
            out.push(w[0] as i32);
            out.push((dk as i64 + ((w[0] + w[1]) >> 1)) as i32);
        }
        if n % 2 == 0 {
            let k = half_d - 1;
            let m = mirror(k as i64 + 1, half_a as i64) as usize;
            out.push(even[k] as i32);
            out.push((detail[k] as i64 + ((even[k] + even[m]) >> 1)) as i32);
        } else {
            out.push(even[half_a - 1] as i32);
        }
        out
    }

    #[test]
    fn allocation_free_inverse_matches_the_widened_reference_on_any_input() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1usize, 2, 3, 4, 5, 6, 7, 16, 17, 64, 65] {
            for full_range in [false, true] {
                for _ in 0..40 {
                    let sample = |rng: &mut StdRng| -> i32 {
                        if full_range {
                            rng.gen_range(i32::MIN..=i32::MAX)
                        } else {
                            rng.gen_range(-70_000..70_000)
                        }
                    };
                    let approx: Vec<i32> = (0..approx_len(n)).map(|_| sample(&mut rng)).collect();
                    let detail: Vec<i32> = (0..detail_len(n)).map(|_| sample(&mut rng)).collect();
                    let mut out = vec![0i32; n];
                    inverse_53_into(&approx, &detail, &mut out);
                    assert_eq!(out, reference_inverse_any(&approx, &detail), "n={n}");
                }
            }
        }
    }

    #[test]
    fn mirror_extension_reflects_indices() {
        assert_eq!(mirror(0, 4), 0);
        assert_eq!(mirror(-1, 4), 1);
        assert_eq!(mirror(-2, 4), 2);
        assert_eq!(mirror(4, 4), 2);
        assert_eq!(mirror(5, 4), 1);
        assert_eq!(mirror(3, 1), 0);
    }

    #[test]
    fn even_lengths_match_the_original_implementation_exactly() {
        // The fast-path rewrite and the odd-length generalization must not
        // move a single bit on the inputs the original code accepted — the
        // compressed-stream format depends on it.
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..500 {
            let n = 2 * rng.gen_range(1usize..130);
            let x: Vec<i32> = (0..n).map(|_| rng.gen_range(-40960..40960)).collect();
            let (a, d) = forward_53(&x);
            let (ra, rd) = reference_forward_even(&x);
            assert_eq!(a, ra, "case {case}: approximation diverged for n={n}");
            assert_eq!(d, rd, "case {case}: detail diverged for n={n}");
            assert_eq!(inverse_53(&a, &d), reference_inverse_even(&ra, &rd), "case {case}");
        }
    }

    #[test]
    fn roundtrip_is_exact_for_random_signals_of_any_length() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 250, 251] {
            for _ in 0..20 {
                let x: Vec<i32> = (0..n).map(|_| rng.gen_range(-4096..4096)).collect();
                let (a, d) = forward_53(&x);
                assert_eq!(a.len(), approx_len(n));
                assert_eq!(d.len(), detail_len(n));
                let y = inverse_53(&a, &d);
                assert_eq!(x, y, "n={n}");
            }
        }
    }

    #[test]
    fn single_sample_signals_pass_through() {
        let (a, d) = forward_53(&[42]);
        assert_eq!(a, vec![42]);
        assert!(d.is_empty());
        assert_eq!(inverse_53(&a, &d), vec![42]);
    }

    #[test]
    fn constant_signal_has_zero_detail() {
        for n in [3usize, 16, 17] {
            let x = vec![77; n];
            let (a, d) = forward_53(&x);
            assert!(d.iter().all(|&v| v == 0));
            assert!(a.iter().all(|&v| v == 77), "5/3 approximation preserves DC level");
        }
    }

    #[test]
    fn ramp_has_small_detail() {
        for n in [31usize, 32] {
            let x: Vec<i32> = (0..n as i32).collect();
            let (_a, d) = forward_53(&x);
            assert!(
                d.iter().all(|&v| v.abs() <= 2),
                "a ramp is predicted almost exactly (mirror boundary allows a residual of 2): {d:?}"
            );
        }
    }

    #[test]
    fn detail_captures_high_frequency() {
        let x: Vec<i32> = (0..32).map(|i| if i % 2 == 0 { 0 } else { 100 }).collect();
        let (_a, d) = forward_53(&x);
        assert!(d.iter().all(|&v| v == 100));
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        for x in [
            vec![i32::MAX / 4, i32::MIN / 4, i32::MAX / 4, i32::MIN / 4],
            vec![i32::MAX / 4, i32::MIN / 4, i32::MAX / 4],
        ] {
            let (a, d) = forward_53(&x);
            let y = inverse_53(&a, &d);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn row_kernels_match_widened_arithmetic_on_every_sign_and_extreme() {
        let mut rng = StdRng::seed_from_u64(9);
        let edges = [i32::MIN, i32::MIN + 1, -3, -2, -1, 0, 1, 2, 3, i32::MAX - 1, i32::MAX];
        let pick = |rng: &mut StdRng| -> i32 {
            if rng.gen_range(0..3) == 0 {
                edges[rng.gen_range(0..edges.len())]
            } else {
                rng.gen_range(i32::MIN..=i32::MAX)
            }
        };
        let n = 4096;
        let x: Vec<i32> = (0..n).map(|_| pick(&mut rng)).collect();
        let a: Vec<i32> = (0..n).map(|_| pick(&mut rng)).collect();
        let b: Vec<i32> = (0..n).map(|_| pick(&mut rng)).collect();
        let mut out = vec![0i32; n];
        let half = |i: usize| (a[i] as i64 + b[i] as i64) >> 1;
        let quarter = |i: usize| (a[i] as i64 + b[i] as i64 + 2) >> 2;
        predict_rows(&x, &a, &b, &mut out);
        assert!((0..n).all(|i| out[i] == (x[i] as i64 - half(i)) as i32));
        unpredict_rows(&x, &a, &b, &mut out);
        assert!((0..n).all(|i| out[i] == (x[i] as i64 + half(i)) as i32));
        update_rows(&x, &a, &b, &mut out);
        assert!((0..n).all(|i| out[i] == (x[i] as i64 + quarter(i)) as i32));
        unupdate_rows(&x, &a, &b, &mut out);
        assert!((0..n).all(|i| out[i] == (x[i] as i64 - quarter(i)) as i32));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_signal_rejected() {
        let _ = forward_53(&[]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_halves_rejected() {
        let _ = inverse_53(&[1], &[3, 4]);
    }
}
