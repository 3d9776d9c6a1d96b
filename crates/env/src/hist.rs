//! Fixed-bucket log-scale latency histograms.
//!
//! Keeping every latency in a sorted vector is fine for a batch and
//! wrong for a long-running service. This histogram is the standard
//! fixed-memory alternative: a constant array
//! of buckets whose bounds grow geometrically, so relative quantile
//! error is bounded by the bucket width ratio (one factor of
//! `10^(1/8) ≈ 1.33` here) regardless of how many samples are recorded.
//! No external dependencies; merging is element-wise addition, which
//! makes per-pass and per-job histograms fold into service totals the
//! same way `ProcStats` counters do.

use std::fmt::Write as _;

/// Buckets per decade. 8 gives a worst-case quantile ratio error of
/// `10^(1/8) ≈ 1.33×`, plenty for latency reporting.
const PER_DECADE: usize = 8;
/// Lowest finite bucket bound: 1 ns.
const LO: f64 = 1e-9;
/// Decades covered: 1 ns .. 1000 s.
const DECADES: usize = 12;
/// Inner (finite-bound) buckets.
const INNER: usize = PER_DECADE * DECADES;
/// Total buckets: underflow + inner + overflow.
pub const BUCKETS: usize = INNER + 2;

/// A fixed-size log-scale histogram of durations in seconds.
///
/// Recording is O(1); merging is element-wise and therefore commutative
/// and associative on the counts; quantiles are exact to within one
/// bucket's width (property-tested in `tests/` via the proptest shim).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Bucket index for a duration. Negative/NaN clamp to the underflow
    /// bucket; values ≥ 1000 s land in the overflow bucket.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v < LO {
            // NaN, negative, or sub-nanosecond.
            return 0;
        }
        let raw = ((v / LO).log10() * PER_DECADE as f64).floor() as isize + 1;
        let mut idx = raw.clamp(1, (BUCKETS - 1) as isize) as usize;
        // log10 can round either way at exact bucket boundaries; settle
        // against the same powf-derived bounds `bucket_bounds` reports,
        // so `lower ≤ v < upper` holds exactly.
        if idx < BUCKETS - 1 && v >= Self::bucket_bounds(idx).1 {
            idx += 1;
        } else if idx > 1 && v < Self::bucket_bounds(idx).0 {
            idx -= 1;
        }
        idx
    }

    /// `[lower, upper)` bounds of bucket `idx`. The underflow bucket is
    /// `[0, 1 ns)`; the overflow bucket's upper bound is `+∞`.
    pub fn bucket_bounds(idx: usize) -> (f64, f64) {
        if idx == 0 {
            return (0.0, LO);
        }
        if idx >= BUCKETS - 1 {
            return (
                LO * 10f64.powf(INNER as f64 / PER_DECADE as f64),
                f64::INFINITY,
            );
        }
        let lower = LO * 10f64.powf((idx - 1) as f64 / PER_DECADE as f64);
        let upper = LO * 10f64.powf(idx as f64 / PER_DECADE as f64);
        (lower, upper)
    }

    /// Record one duration in seconds.
    pub fn record(&mut self, seconds: f64) {
        let v = if seconds.is_nan() {
            0.0
        } else {
            seconds.max(0.0)
        };
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded durations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean recorded duration (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded duration (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded duration (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fold `other` into `self`: element-wise count addition, so the
    /// operation is commutative and associative on the bucket counts
    /// and preserves the total recorded count exactly.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`.
    ///
    /// Returns the upper bound of the bucket holding the rank-⌈q·n⌉
    /// sample, clamped to the recorded `[min, max]` — so the estimate
    /// never undershoots the true nearest-rank value and overshoots it
    /// by at most one bucket width. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = Self::bucket_bounds(idx);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// JSON object snapshot: count, mean, min/max, and the standard
    /// quantile ladder. Embeddable in larger hand-rolled JSON documents.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"count\":{},\"mean\":{:.9},\"min\":{:.9},\"p50\":{:.9},\"p90\":{:.9},\"p99\":{:.9},\"p999\":{:.9},\"max\":{:.9}}}",
            self.count,
            self.mean(),
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max()
        );
        s
    }

    /// The raw bucket counts (underflow, inner buckets, overflow).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for &v in &[1e-9, 3.7e-8, 1e-6, 0.004, 0.5, 1.0, 17.0, 999.0] {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v < hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-1.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e9), BUCKETS - 1);
    }

    #[test]
    fn quantiles_bracket_true_values() {
        let mut h = Histogram::new();
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &v in &vals {
            h.record(v);
        }
        // True nearest-rank p50 is 0.5 s; estimate within one bucket.
        let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(0.5));
        let est = h.p50();
        assert!(est >= 0.5 && est <= hi, "est={est} lo={lo} hi={hi}");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts_and_tracks_extrema() {
        let mut a = Histogram::new();
        a.record(0.001);
        a.record(0.010);
        let mut b = Histogram::new();
        b.record(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0.001);
        assert_eq!(a.max(), 1.0);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 0.001);
    }

    #[test]
    fn json_snapshot_shape() {
        let mut h = Histogram::new();
        h.record(0.25);
        let j = h.to_json();
        assert!(j.starts_with("{\"count\":1,"));
        for key in ["mean", "min", "p50", "p90", "p99", "p999", "max"] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), 1);
    }
}
