//! Order statistics over host-time samples.
//!
//! Host figures are gated on their median and printed with the highest
//! percentile that has at least ten samples beyond it: with fewer, the
//! "tail" would be one or two outliers and would not repeat from run to
//! run.

/// Tail percentiles considered, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples. Integer
/// arithmetic in tenths of a percent: `99.9 / 100 * 10000` in floating
/// point rounds up past 9990.
fn rank(n: usize, pct: f64) -> usize {
    let tenths = (pct * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Whether percentile `pct` of `n` samples has [`BEYOND`] samples past it.
pub fn supported(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supported(n, p))
}

/// Nearest-rank percentile `pct` of `xs`, or `None` when the sample count
/// does not support it.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    if !supported(xs.len(), pct) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), pct) - 1])
}

/// `num / den`, or 0 when `den` is 0 — a layer a workload never enters
/// reports 0 rather than NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // p50 of 20 samples leaves exactly ten beyond it.
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..50], 90.0), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
