//! Near-lossless detail-coefficient quantization with a guaranteed L∞
//! reconstruction bound.
//!
//! The lossless codec becomes *near-lossless* by uniformly quantizing the
//! detail subbands before Rice coding: each coefficient `c` of a band with
//! per-coefficient allowance `e` is mapped to the index
//! `q = sign(c) * ((|c| + e) / (2e + 1))` and reconstructed as
//! `ĉ = q * (2e + 1)`, so `|c - ĉ| <= e` exactly. The question the user
//! actually asks, though, is about **pixels**: given a per-pixel error bound
//! `δ`, which bands may be quantized by how much so that
//! `max |orig - recon| <= δ` after the inverse 5/3 synthesis?
//!
//! # The synthesis gain of the reversible 5/3 kernel
//!
//! One 1-D inverse lifting stage reconstructs
//!
//! ```text
//! x[2i]     = s[i] - floor((d[i-1] + d[i] + 2) / 4)
//! x[2i + 1] = d[i] + floor((x[2i] + x[2i + 2]) / 2)
//! ```
//!
//! Perturbing the approximation samples by at most `ea` and the detail
//! samples by at most `ed` moves the even outputs by at most
//! `ea + ceil(ed / 2)` (two detail terms over the divisor 4, plus the
//! rounding of the floor) and the odd outputs by at most
//! `ed + ea + ceil(ed / 2)` — so one stage amplifies the input errors to
//!
//! ```text
//! E(ea, ed) = ea + ed + ceil(ed / 2)
//! ```
//!
//! The 2-D inverse of one scale runs the column stage and then the row
//! stage: the column pass merges `LL` with the vertical band (2) and the
//! horizontal band (1) with the diagonal band (3), the row pass merges the
//! two halves, so with per-band allowances `e1..e3` and the accumulated
//! approximation error `eLL` the level's output error is
//!
//! ```text
//! e_level = E(E(eLL, e2), E(e1, e3))
//! ```
//!
//! iterated from the deepest scale (`eLL = 0`: the approximation band is
//! never quantized) to the finest. [`QuantSchedule::bound`] evaluates this
//! recurrence exactly, and the proptests in `tests/near_lossless.rs` verify
//! the end-to-end inequality on real images.
//!
//! # From `δ` to a schedule
//!
//! [`QuantSchedule::for_delta`] allocates allowances greedily: starting from
//! the all-zero (lossless) schedule it repeatedly tries to increment the
//! allowance of one band — finest scale first, horizontal before vertical
//! before diagonal, the order in which bands buy the most rate for the least
//! pixel error — keeping an increment only if the synthesis bound stays
//! within `δ`, until no increment fits. The procedure is deterministic, so
//! the decoder reconstructs the identical schedule from the `(δ, scales)`
//! pair carried in the stream header — no per-band side information is
//! coded. Note the gain floor: the cheapest possible schedule (allowance 1
//! on the finest horizontal band) already costs 2 pixel levels, so `δ = 1`
//! degenerates to the lossless schedule — an honest consequence of the 5/3
//! synthesis gain, not a parser restriction.

/// Per-coefficient allowances of the detail bands, derived from a per-pixel
/// bound; see the module docs for the construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantSchedule {
    delta: u8,
    scales: u32,
    /// `allowances[scale - 1][band - 1]` for detail bands 1..=3.
    allowances: Vec<[u64; 3]>,
}

/// Worst-case output error of one 1-D 5/3 synthesis stage whose
/// approximation inputs are off by at most `ea` and whose detail inputs are
/// off by at most `ed`.
#[must_use]
pub fn stage_bound(ea: u64, ed: u64) -> u64 {
    ea + ed + ed.div_ceil(2)
}

impl QuantSchedule {
    /// The deterministic greedy schedule for a per-pixel bound `delta` at
    /// decomposition depth `scales`. `delta = 0` (and, by the synthesis gain
    /// floor, `delta = 1`) yields the all-zero lossless schedule.
    #[must_use]
    pub fn for_delta(delta: u8, scales: u32) -> Self {
        let mut schedule = Self { delta, scales, allowances: vec![[0u64; 3]; scales as usize] };
        if delta == 0 {
            return schedule;
        }
        loop {
            let mut grew = false;
            for scale in 1..=scales {
                for band in 1..=3usize {
                    schedule.allowances[scale as usize - 1][band - 1] += 1;
                    if schedule.bound() <= u64::from(delta) {
                        grew = true;
                    } else {
                        schedule.allowances[scale as usize - 1][band - 1] -= 1;
                    }
                }
            }
            if !grew {
                return schedule;
            }
        }
    }

    /// The per-pixel bound the schedule was built for.
    #[must_use]
    pub fn delta(&self) -> u8 {
        self.delta
    }

    /// Per-coefficient allowance of subband `(scale, band)`; band 0 (the
    /// approximation) is never quantized and always answers 0.
    #[must_use]
    pub fn allowance(&self, scale: u32, band: usize) -> u64 {
        if band == 0 || scale == 0 || scale > self.scales {
            return 0;
        }
        self.allowances[scale as usize - 1][band - 1]
    }

    /// Quantizer step of subband `(scale, band)`: `2 * allowance + 1`
    /// (1 for unquantized bands, making dequantization the identity).
    #[must_use]
    pub fn step(&self, scale: u32, band: usize) -> i64 {
        2 * self.allowance(scale, band) as i64 + 1
    }

    /// `true` if no band is quantized (every stream bit is bit-exact).
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.allowances.iter().all(|bands| bands.iter().all(|&e| e == 0))
    }

    /// Exact worst-case L∞ pixel error of the inverse transform under this
    /// schedule, via the per-stage recurrence in the module docs.
    #[must_use]
    pub fn bound(&self) -> u64 {
        let mut approx = 0u64; // deepest approximation: never quantized
        for scale in (1..=self.scales).rev() {
            let [e1, e2, e3] = self.allowances[scale as usize - 1];
            approx = stage_bound(stage_bound(approx, e2), stage_bound(e1, e3));
        }
        approx
    }
}

/// Quantizes a subband in place with per-coefficient allowance `e`,
/// replacing each coefficient with its index in the uniform grid of step
/// `2e + 1` (round half away from zero). A zero allowance is the identity.
pub fn quantize(samples: &mut [i32], e: u64) {
    if e == 0 {
        return;
    }
    let step = 2 * e as i64 + 1;
    for value in samples {
        let c = i64::from(*value);
        let q = if c >= 0 { (c + e as i64) / step } else { -((-c + e as i64) / step) };
        *value = q as i32;
    }
}

/// Reverses [`quantize`]: maps indices back to grid centers
/// (`ĉ = q * (2e + 1)`), guaranteeing `|c - ĉ| <= e` for every coefficient
/// the encoder quantized. A zero allowance is the identity.
pub fn dequantize(samples: &mut [i32], e: u64) {
    if e == 0 {
        return;
    }
    let step = 2 * e as i64 + 1;
    for value in samples {
        *value = (i64::from(*value) * step) as i32;
    }
}

/// Clamps a near-lossless reconstruction (`delta > 0`) to the
/// `[0, 2^bit_depth)` sample range. Reconstructions may stray up to the
/// bound outside the range at the extremes; clamping only ever moves a
/// sample *toward* its original, preserving the L∞ bound. Lossless samples
/// are left as they are, for the range validation to judge.
pub fn clamp_reconstruction(samples: &mut [i32], bit_depth: u32, delta: u8) {
    if delta == 0 {
        return;
    }
    // 64-bit so a forged 5-bit depth of 31 cannot overflow the shift before
    // the range validation downstream rejects it.
    let max = ((1i64 << bit_depth) - 1).min(i64::from(i32::MAX)) as i32;
    for sample in samples {
        *sample = (*sample).clamp(0, max);
    }
}

/// Largest per-plane 2-D bound `b` a volumetric stream may use so that the
/// voxel error after the inverse z transform stays within `delta`.
///
/// Each z synthesis stage consumes detail *planes* decoded by the 2-D codec
/// (error at most `b`) and the accumulated approximation chain, so the voxel
/// error after `z_scales` stages is `b + z_scales * (b + ceil(b / 2))`
/// (the stage recurrence of [`stage_bound`] seeded with `e0 = b`). With
/// `z_scales = 0` the z transform is the identity and `b = delta`.
#[must_use]
pub fn plane_delta_for_volume(delta: u8, z_scales: u32) -> u8 {
    (0..=delta).rev().find(|&b| volume_bound(b, z_scales) <= u64::from(delta)).unwrap_or(0)
}

/// Worst-case voxel error of a volume whose decoded coefficient planes are
/// each within `plane_delta` of the true z-transform planes.
#[must_use]
pub fn volume_bound(plane_delta: u8, z_scales: u32) -> u64 {
    let mut error = u64::from(plane_delta);
    for _ in 0..z_scales {
        error = stage_bound(error, u64::from(plane_delta));
    }
    error
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_bound_matches_hand_calculation() {
        assert_eq!(stage_bound(0, 0), 0);
        assert_eq!(stage_bound(0, 1), 2);
        assert_eq!(stage_bound(2, 1), 4);
        assert_eq!(stage_bound(2, 3), 7);
    }

    #[test]
    fn small_deltas_produce_the_worked_schedules() {
        // δ = 0 and δ = 1: lossless (the cheapest quantization already costs
        // 2 pixel levels through the synthesis gain).
        for delta in [0u8, 1] {
            let s = QuantSchedule::for_delta(delta, 4);
            assert!(s.is_lossless(), "delta {delta}");
            assert_eq!(s.bound(), 0);
        }
        // δ = 2: only the finest horizontal band, allowance 1.
        let s = QuantSchedule::for_delta(2, 4);
        assert_eq!(s.allowance(1, 1), 1);
        assert_eq!(s.allowance(1, 2), 0);
        assert_eq!(s.allowance(1, 3), 0);
        assert_eq!(s.allowance(2, 1), 0);
        assert_eq!(s.bound(), 2);
        // δ = 4: finest horizontal + vertical at allowance 1.
        let s = QuantSchedule::for_delta(4, 4);
        assert_eq!([s.allowance(1, 1), s.allowance(1, 2), s.allowance(1, 3)], [1, 1, 0]);
        assert_eq!(s.bound(), 4);
        // δ = 7: all three finest bands at allowance 1 (bound exactly 7).
        let s = QuantSchedule::for_delta(7, 4);
        assert_eq!([s.allowance(1, 1), s.allowance(1, 2), s.allowance(1, 3)], [1, 1, 1]);
        assert_eq!(s.bound(), 7);
        // δ = 8: the second pass buys one more level on the horizontal band.
        let s = QuantSchedule::for_delta(8, 4);
        assert_eq!([s.allowance(1, 1), s.allowance(1, 2), s.allowance(1, 3)], [2, 1, 1]);
        assert_eq!(s.bound(), 8);
    }

    #[test]
    fn bounds_never_exceed_delta_and_grow_monotonically() {
        for scales in 1..=6u32 {
            let mut last_bound = 0;
            for delta in 0..=64u8 {
                let s = QuantSchedule::for_delta(delta, scales);
                assert!(
                    s.bound() <= u64::from(delta),
                    "scales {scales} delta {delta}: bound {}",
                    s.bound()
                );
                assert!(s.bound() >= last_bound, "bound regressed at delta {delta}");
                last_bound = s.bound();
            }
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        for delta in [0u8, 2, 4, 8, 32, 255] {
            assert_eq!(QuantSchedule::for_delta(delta, 5), QuantSchedule::for_delta(delta, 5));
        }
    }

    #[test]
    fn quantize_dequantize_stays_within_the_allowance() {
        for e in [1u64, 2, 3, 7, 100] {
            let original: Vec<i32> =
                (-1000..1000).chain([i32::MAX / 2, i32::MIN / 2, 0, 1, -1]).collect();
            let mut samples = original.clone();
            quantize(&mut samples, e);
            dequantize(&mut samples, e);
            for (&o, &r) in original.iter().zip(&samples) {
                assert!((i64::from(o) - i64::from(r)).unsigned_abs() <= e, "e {e}: {o} -> {r}");
            }
        }
        // Allowance 0 is the identity without touching a sample.
        let mut samples = vec![5, -7, 0];
        quantize(&mut samples, 0);
        dequantize(&mut samples, 0);
        assert_eq!(samples, [5, -7, 0]);
    }

    #[test]
    fn quantized_indices_shrink_magnitudes() {
        let mut samples = vec![100, -100, 3, -3];
        quantize(&mut samples, 1);
        assert_eq!(samples, [33, -33, 1, -1]);
        dequantize(&mut samples, 1);
        assert_eq!(samples, [99, -99, 3, -3]);
    }

    #[test]
    fn volume_plane_delta_honors_the_z_gain() {
        // z_scales = 0: the z transform is the identity, b = δ.
        assert_eq!(plane_delta_for_volume(4, 0), 4);
        // One z stage triples-ish the error: b + b + ceil(b/2).
        assert_eq!(volume_bound(2, 1), 5);
        assert_eq!(plane_delta_for_volume(5, 1), 2);
        assert_eq!(plane_delta_for_volume(4, 1), 1);
        assert_eq!(plane_delta_for_volume(2, 1), 0);
        for delta in 0..=32u8 {
            for z in 0..=4u32 {
                let b = plane_delta_for_volume(delta, z);
                assert!(volume_bound(b, z) <= u64::from(delta), "delta {delta} z {z}");
            }
        }
    }
}
