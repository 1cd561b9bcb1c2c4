//! Order statistics and interval arithmetic the benchmark reports with.

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    sorted(values)[rank(values.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The fewest samples for which at least `beyond` of them lie past the `p`th
/// percentile — how long a run must be before that percentile may be
/// reported as a tail.
pub fn min_samples_for(p: f64, beyond: usize) -> usize {
    (1..).find(|&n| samples_beyond(n, p) >= beyond).expect("a large enough sample exists")
}

/// A span's self time: its length minus the part of `[start, end)` covered
/// by the union of its children's intervals (children may overlap each other
/// when they ran on parallel threads, and are clipped to the parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

fn rank(n: usize, p: f64) -> usize {
    // p * n first: both are exact in f64 for the sizes used, so the division
    // is correctly rounded and an exact rank never ceils up by one.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn samples_beyond_counts_strictly_greater_ranks() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(39, 75.0), 9);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn min_samples_is_the_first_count_meeting_the_rule() {
        for p in [75.0, 90.0, 95.0, 99.0] {
            let n = min_samples_for(p, 10);
            assert!(samples_beyond(n, p) >= 10);
            assert!(samples_beyond(n - 1, p) < 10, "p{p}: {n} is not minimal");
        }
        assert_eq!(min_samples_for(99.0, 10), 1000);
        assert_eq!(min_samples_for(95.0, 10), 200);
        assert_eq!(min_samples_for(75.0, 10), 40);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time(0, 100, &[]), 100);
        // Sequential children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
        // Overlapping (parallel) children count once.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 70), (65, 80)]), 30);
        // Nested-equal and touching intervals.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30), (10, 20)]), 80);
        // Children spilling past the parent are clipped.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
        // Disjoint child outside the parent contributes nothing.
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
    }
}
