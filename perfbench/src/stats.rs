//! Order statistics used by every workload: interpolated percentiles,
//! the tail rule and quartile spread.

/// The percentile ladder the tail rule chooses from.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `sorted`, linearly interpolated
/// between closest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    // The small slack keeps 1000 * (1 - 0.99) from rounding to 9.
    (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() as usize
}

/// The tail rule: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. `None` when even the median
/// lacks them (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sort a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A latency summary: median plus the tail-rule percentile.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`].
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Latency {
    /// Summarise `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Latency> {
        if values.is_empty() {
            return None;
        }
        let s = sorted(values);
        // Too few samples for any tail: fall back to the maximum.
        let tail_p = tail_percentile(s.len()).unwrap_or(100.0);
        Some(Latency {
            n: s.len(),
            p50: percentile(&s, 50.0),
            tail_p,
            tail: percentile(&s, tail_p),
        })
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let q = |i: usize| {
        // Position (n + 1) * i / 4, one-based.
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert!((percentile(&s, 50.0) - 2.5).abs() < 1e-12);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn latency_summary_reports_its_percentile() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&values).expect("non-empty");
        assert_eq!(l.n, 200);
        assert_eq!(l.tail_p, 90.0);
        assert!((l.p50 - 100.5).abs() < 1e-9);
        assert!((l.tail - 180.1).abs() < 1e-9);
        let few = Latency::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((few.tail_p, few.tail), (100.0, 3.0));
        assert!(Latency::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
