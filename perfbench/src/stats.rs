//! Order statistics the harness reports: medians, quartiles (the same
//! rule as Python's `statistics.quantiles(v, n=4)`, so `perf aa` and an
//! outside checker agree on a spread), and the highest-supported
//! percentile rule of the choosing-metrics guide. They are the
//! harness's own (not `mmjoin_serve::percentile` or
//! `mmjoin_calibrate::median`) so that a change to the program cannot
//! change how it is measured.

/// Sorted copy of `v` (NaNs sort last; the harness never produces one).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median of `v`; 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (`m = n + 1`),
/// matching `statistics.quantiles(v, n=4)`. A sample of fewer than two
/// values has no spread: both quartiles are its only value (or 0).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is
/// 0): the spread `perf aa` holds against a metric's bound.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The percentiles a tail metric may be reported at, ascending.
const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of [`TAIL_LADDER`], no higher than `wanted`,
/// that still has at least ten samples beyond it in a sample of `n`;
/// `None` when even the median has fewer than ten samples above it.
pub fn supported_percentile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| f64::from(p) <= wanted && n as u64 * u64::from(100 - p) >= 1000)
        .map(|&p| f64::from(p))
}

/// A tail value under the rule above: `(value, percentile used)`. With
/// too few samples for any supported percentile the maximum is reported
/// as percentile 100 so a short smoke run still prints a number.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    let s = sorted(samples);
    match supported_percentile(s.len(), wanted) {
        Some(p) => (percentile(&s, p), p),
        None => (s.last().copied().unwrap_or(0.0), 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[]), 0.0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19, 99.0), None);
        assert_eq!(supported_percentile(20, 99.0), Some(50.0));
        assert_eq!(supported_percentile(40, 99.0), Some(75.0));
        assert_eq!(supported_percentile(100, 99.0), Some(90.0));
        assert_eq!(supported_percentile(199, 99.0), Some(90.0));
        assert_eq!(supported_percentile(200, 99.0), Some(95.0));
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        // Never above what the metric is named after.
        assert_eq!(supported_percentile(100_000, 95.0), Some(95.0));
    }

    #[test]
    fn tail_falls_back_to_the_supported_percentile() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (380.0, 95.0));
        assert_eq!(tail(&v[..5], 99.0), (5.0, 100.0));
        assert_eq!(percentile(&sorted(&v), 50.0), 200.0);
    }
}
