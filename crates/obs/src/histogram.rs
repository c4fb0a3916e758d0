//! First-class histogram metric: sparse log-bucket counts with an exact,
//! order-invariant merge and cumulative `le`-bucket export.
//!
//! A [`Histogram`] owns the log-bucket grid; a
//! [`Summary`](crate::summary::Summary) is a histogram plus Welford
//! moments. Where a `Summary`'s moments merge order-sensitively in the
//! last ulps, a histogram is pure bucket counts plus a running sum —
//! merging shards adds counts and sums, so *any* shard order yields
//! byte-identical buckets. That makes it the right kind for distributions
//! that must survive worker-invariant exports: residuals, latencies,
//! per-window conformance samples.
//!
//! Buckets are the shared quarter-power-of-two grid (`2^(k/4)` upper
//! bounds); non-positive observations pool in a single underflow bucket
//! surfaced as upper bound `0`. Quantile estimates are the bucket's
//! upper bound clamped to the observed range (see
//! [`Histogram::quantile`] for the pinned edge cases).

use std::fmt;

/// Bucket key for non-positive observations (kept out of the log grid).
const NONPOS_BUCKET: i32 = i32::MIN;

/// Grid bucket index for observation `x`: `k = ceil(4·log2(x))`, clamped
/// to `[-512, 512]`. Non-positive and non-finite observations map to
/// [`NONPOS_BUCKET`].
fn log_bucket_of(x: f64) -> i32 {
    if x <= 0.0 || !x.is_finite() {
        return NONPOS_BUCKET;
    }
    let k = (4.0 * x.log2()).ceil();
    k.clamp(-512.0, 512.0) as i32
}

/// Upper bound of grid bucket `k` (`2^(k/4)`); bucket `k` covers
/// `2^((k-1)/4) < x <= 2^(k/4)`.
fn log_bucket_hi(k: i32) -> f64 {
    (f64::from(k) / 4.0).exp2()
}

/// Sparse log-bucket histogram of a numeric observation stream.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `(bucket, count)` for every occupied bucket, in ascending bucket
    /// order: a sorted vector, because a stream touches few buckets and
    /// a binary search over them is cheaper than a tree.
    buckets: Vec<(i32, u64)>,
}

/// Renders the buckets as a map, `{bucket: count, …}`: reports that
/// embed a summary print it, and their `Debug` text is pinned.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Buckets<'a>(&'a [(i32, u64)]);
        impl fmt::Debug for Buckets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(k, c)| (k, c)))
                    .finish()
            }
        }
        f.debug_struct("Histogram")
            .field("n", &self.n)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("buckets", &Buckets(&self.buckets))
            .finish()
    }
}

/// The registry materializes histograms (and summaries) with
/// `or_default()`; a derived all-zeros default would corrupt `min`/`max`.
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    /// Build from an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Self {
        let mut h = Self::new();
        for x in it {
            h.observe(x);
        }
        h
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.add_to_bucket(log_bucket_of(x), 1);
    }

    /// Add `c` to bucket `k`'s count, inserting the bucket in order.
    fn add_to_bucket(&mut self, k: i32, c: u64) {
        match self.buckets.binary_search_by_key(&k, |&(b, _)| b) {
            Ok(at) => self.buckets[at].1 += c,
            Err(at) => self.buckets.insert(at, (k, c)),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of observations (0 if empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Estimated p-quantile (`0 <= p <= 1`) from the fixed bucket grid.
    ///
    /// **Convention**: the estimate is the *upper bound* `2^(k/4)` of the
    /// grid bucket holding the `ceil(p·n)`-th smallest observation,
    /// clamped into the observed `[min, max]`. Pinned consequences:
    ///
    /// * a single-observation histogram returns that observation for
    ///   every `p` — the clamp collapses the bucket bound onto
    ///   `min == max`;
    /// * observations sharing one bucket share one quantile estimate (the
    ///   grid cannot resolve within a bucket);
    /// * the non-positive bucket (which the log grid cannot resolve)
    ///   reports `min(min, 0)`;
    /// * the estimate never leaves `[min(min, 0), max]` (asserted below).
    ///
    /// `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range");
        if self.n == 0 {
            return None;
        }
        let target = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut cum = 0u64;
        let mut q = self.max;
        for &(k, c) in &self.buckets {
            cum += c;
            if cum >= target {
                q = if k == NONPOS_BUCKET {
                    self.min.min(0.0)
                } else {
                    log_bucket_hi(k).clamp(self.min, self.max)
                };
                break;
            }
        }
        debug_assert!(
            q >= self.min.min(0.0) && q <= self.max,
            "quantile estimate {q} escapes the observed range [{}, {}]",
            self.min.min(0.0),
            self.max
        );
        Some(q)
    }

    /// Merge another histogram into this one. Bucket counts and sums add
    /// exactly, so the result is independent of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.n == 0 {
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(k, c) in &other.buckets {
            self.add_to_bucket(k, c);
        }
    }

    /// Cumulative `(upper_bound, count)` pairs in ascending bound order,
    /// ready for the CSV and JSON exports.
    /// The pooled non-positive bucket surfaces as upper bound `0`; the
    /// implicit `+Inf` bucket (== [`count`](Self::count)) is *not*
    /// included — exporters append it themselves.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = 0u64;
        // buckets ascend and NONPOS_BUCKET is i32::MIN, so the underflow
        // bucket always leads and bounds stay sorted.
        for &(k, c) in &self.buckets {
            cum += c;
            let hi = if k == NONPOS_BUCKET {
                0.0
            } else {
                log_bucket_hi(k)
            };
            out.push((hi, cum));
        }
        out
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.n == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} sum={:.6} mean={:.6} min={:.6} p50={:.6} p99={:.6} max={:.6}",
            self.n,
            self.sum,
            self.mean(),
            self.min,
            self.quantile(0.5).unwrap(),
            self.quantile(0.99).unwrap(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sums_and_range_are_exact() {
        let h = Histogram::from_iter([2.0, 4.0, 8.0, -1.0]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 13.0);
        assert_eq!(h.mean(), 3.25);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 8.0);
    }

    #[test]
    fn merge_is_exact_and_order_invariant() {
        let xs: Vec<f64> = (1..=200).map(|i| f64::from(i) * 0.37).collect();
        let whole = Histogram::from_iter(xs.iter().copied());
        // shard three ways, merge in two different orders
        let shards: Vec<Histogram> = xs
            .chunks(67)
            .map(|c| Histogram::from_iter(c.iter().copied()))
            .collect();
        let mut fwd = Histogram::new();
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = Histogram::new();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd.buckets, whole.buckets);
        assert_eq!(fwd.buckets, rev.buckets);
        assert_eq!(fwd.count(), whole.count());
        assert_eq!(fwd.cumulative(), rev.cumulative());
        assert_eq!(fwd.quantile(0.5), whole.quantile(0.5));
    }

    #[test]
    fn quantiles_follow_the_summary_convention() {
        // single observation: clamp collapses to the value
        let h = Histogram::from_iter([42.5]);
        assert_eq!(h.quantile(0.5), Some(42.5));
        assert_eq!(h.quantile(0.99), Some(42.5));
        // non-positive pool reports min(min, 0)
        let h = Histogram::from_iter([-2.0, -1.0, 5.0]);
        assert_eq!(h.quantile(0.0), Some(-2.0));
        assert_eq!(h.quantile(1.0), Some(5.0));
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn cumulative_buckets_are_sorted_and_monotone() {
        let h = Histogram::from_iter([-1.0, 0.5, 1.0, 2.0, 2.1, 300.0]);
        let cum = h.cumulative();
        assert_eq!(cum.first().unwrap().0, 0.0, "underflow bucket leads");
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds ascend: {cum:?}");
            assert!(w[0].1 <= w[1].1, "counts accumulate: {cum:?}");
        }
        assert_eq!(cum.last().unwrap().1, h.count());
    }

    #[test]
    fn default_matches_new() {
        let mut h = Histogram::default();
        h.observe(7.0);
        assert_eq!(h.min(), 7.0);
        assert_eq!(h.max(), 7.0);
    }
}
