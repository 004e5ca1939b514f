//! Fixed-size log-linear latency histograms (HDR-style).
//!
//! Values are bucketed by a power-of-two exponent with [`SUB_BUCKETS`]
//! linear sub-buckets per octave, so relative quantile error is bounded by
//! `1/SUB_BUCKETS` (≈6.25%) at every magnitude, the memory footprint is a
//! fixed ~8 KiB regardless of the value range, and two histograms merge by
//! adding bucket counts — exactly the shape the paper's Figure 5 latency
//! distributions need. Recording is one bucket increment plus the exact
//! count, sum and maximum.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power of two (2^4): bounds the relative error of
/// any reported quantile at 1/16.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)
/// Total buckets: values below `SUB_BUCKETS` get exact unit buckets, every
/// octave above contributes `SUB_BUCKETS` more up to the full u64 range.
pub const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = ((v >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + (exp - SUB_BITS) as usize * SUB_BUCKETS + sub
}

/// The *inclusive upper bound* of a bucket — what quantiles report, so a
/// reported quantile never understates the true order statistic.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let oct = (i - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    let exp = oct as u32 + SUB_BITS;
    let base = 1u64 << exp;
    let width = 1u64 << (exp - SUB_BITS);
    // Last value that still lands in this bucket; the topmost bucket's bound
    // wraps past u64::MAX, and wrapping arithmetic turns that into exactly
    // u64::MAX.
    base.wrapping_add((sub + 1).wrapping_mul(width)).wrapping_sub(1)
}

/// A mergeable, fixed-size log-linear histogram.
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { buckets: Box::new([0; BUCKETS]), count: 0, sum: 0, max: 0 }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Records an `f64` sample (cycle accounting), saturating at zero.
    #[inline]
    pub fn record_f64(&mut self, v: f64) {
        self.record(if v <= 0.0 { 0 } else { v as u64 });
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact, not re-derived from buckets).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The maximum sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the upper bound of the bucket
    /// holding the ⌈q·n⌉-th smallest sample. Guarantees
    /// `true_quantile <= quantile(q) <= true_quantile * (1 + 1/SUB_BUCKETS)`
    /// for values ≥ `SUB_BUCKETS` (exact below). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The exact max never overstates the top bucket's bound.
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Adds every bucket of `other` into `self` (the merge used by
    /// per-worker histograms; `merge(a, b)` is bucket-exactly equal to
    /// recording the union of samples).
    pub fn merge_from(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// A serialisable point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// The raw bucket counts (for exact merge-equality tests).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.to_vec()
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs over the
    /// *occupied* buckets, ascending — the OpenMetrics `_bucket{le="…"}`
    /// series. Because the bucket boundaries are fixed by construction,
    /// expositions from different processes merge by adding counts at equal
    /// bounds, which is exactly what quantile summaries cannot do.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                cum += c;
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram(n={} p50={} p99={} max={})", s.count, s.p50, s.p99, s.max)
    }
}

/// The serialisable summary of a [`Histogram`] — the distribution columns
/// exported into `BENCH_*.json` artifacts and the Prometheus dump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 21);
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 1 << 40, u64::MAX / 2] {
            let b = bucket_of(v);
            assert!(bucket_upper(b) >= v, "upper({b}) = {} < {v}", bucket_upper(b));
            if b > 0 {
                assert!(bucket_upper(b - 1) < v, "value {v} should not fit bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..10_000).map(|i| (i * i) % 1_000_003 + 1).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let truth = vals[rank - 1];
            let got = h.quantile(q);
            assert!(got >= truth, "q{q}: {got} < {truth}");
            assert!(got <= truth + truth / SUB_BUCKETS as u64 + 1, "q{q}: {got} ≫ {truth}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut u = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 7 % 10_000);
            u.record(i * 7 % 10_000);
        }
        for i in 0..300u64 {
            b.record(i * 13 % 100_000);
            u.record(i * 13 % 100_000);
        }
        a.merge_from(&b);
        assert_eq!(a.bucket_counts(), u.bucket_counts());
        assert_eq!(a.count(), u.count());
        assert_eq!(a.sum(), u.sum());
        assert_eq!(a.max(), u.max());
        assert_eq!(a.snapshot(), u.snapshot());
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_complete() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 17, 900, 900, 900, 1 << 30] {
            h.record(v);
        }
        let cb = h.cumulative_buckets();
        assert_eq!(cb.last().unwrap().1, h.count(), "final cumulative count is the total");
        for w in cb.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds strictly ascend");
            assert!(w[0].1 <= w[1].1, "counts never decrease");
        }
        // Each recorded value is covered by the first bound at or above it.
        for v in [3u64, 17, 900, 1 << 30] {
            assert!(cb.iter().any(|&(ub, _)| ub >= v));
        }
        assert!(Histogram::new().cumulative_buckets().is_empty());
    }

    #[test]
    fn snapshot_serialises() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.p50 >= 100 && s.max == 200);
    }
}
