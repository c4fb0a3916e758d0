//! Streaming observation summaries: Welford mean/variance on top of a
//! log-bucket [`Histogram`].
//!
//! A [`Summary`] is the workhorse metric for numeric observations
//! (latencies, recovery times, per-trial measurements). It keeps
//!
//! * a [`Histogram`] for exact `count`, `min`, `max` and the fixed-grid
//!   quantile estimates (so the bucket grid, the quantile rule and the
//!   bucket merge exist once, shared with the histogram metric kind),
//! * Welford-accumulated mean and M2 (numerically stable for long
//!   campaigns, unlike a naive `(sum, count)` pair).
//!
//! Merging two summaries adds bucket counts exactly, so the merged
//! quantile estimates are identical regardless of how the observations
//! were sharded. Mean/variance merging uses Chan et al.'s pairwise
//! combination; merge order must be fixed by the caller for
//! bit-reproducibility (see `vds-fault`'s logical shards).

use crate::histogram::Histogram;

/// Streaming summary of a numeric observation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    hist: Histogram,
    mean: f64,
    m2: f64,
}

/// `Default` must agree with [`Summary::new`]: the registry materializes
/// summaries with `or_default()`, and a derived all-zeros default would
/// seed `min = max = 0.0`, silently folding `0.0` into the observed range
/// of every registry summary (wrong `min` for positive streams, wrong
/// `max` — and therefore a wrong quantile clamp — for negative ones).
impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            hist: Histogram::new(),
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// Build from an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Self {
        let mut s = Self::new();
        for x in it {
            s.observe(x);
        }
        s
    }

    /// Record one observation.
    pub fn observe(&mut self, x: f64) {
        self.hist.observe(x);
        let delta = x - self.mean;
        self.mean += delta / self.hist.count() as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sum of observations (mean × count; exactness not guaranteed).
    pub fn sum(&self) -> f64 {
        self.mean() * self.count() as f64
    }

    /// Unbiased sample variance (0 for n < 2).
    pub fn variance(&self) -> f64 {
        let n = self.count();
        if n < 2 {
            0.0
        } else {
            self.m2 / (n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.hist.min()
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.hist.max()
    }

    /// Estimated p-quantile (`0 <= p <= 1`) from the fixed bucket grid;
    /// see [`Histogram::quantile`] for the convention. `None` when empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.hist.quantile(p)
    }

    /// Merge another summary into this one. Bucket counts add exactly;
    /// mean/variance combine pairwise (order-sensitive in the last ulps —
    /// merge in a fixed order for bit-reproducibility).
    pub fn merge(&mut self, other: &Summary) {
        if other.count() == 0 {
            return;
        }
        if self.count() == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count() as f64;
        let n2 = other.count() as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.hist.merge(&other.hist);
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.count() == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.6} sd={:.6} min={:.6} p50={:.6} p99={:.6} max={:.6}",
            self.count(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.quantile(0.5).unwrap(),
            self.quantile(0.99).unwrap(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::from_iter(xs.iter().copied());
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn single_observation_percentiles_equal_the_value() {
        for v in [42.5, -3.0, 0.0, 1e-9, 7e12] {
            let s = Summary::from_iter([v]);
            assert_eq!(s.quantile(0.5), Some(v), "p50 of single obs {v}");
            assert_eq!(s.quantile(0.99), Some(v), "p99 of single obs {v}");
            assert_eq!(s.min(), v);
            assert_eq!(s.max(), v);
        }
    }

    #[test]
    fn single_observation_default_summary_reports_the_bucket_bound() {
        // The registry path materializes summaries with `or_default()`;
        // that must behave exactly like `Summary::new()` so one
        // observation pins min == p50 == p99 == max to the value itself
        // (the clamp collapses the bucket upper bound onto min == max).
        let mut s = Summary::default();
        s.observe(12.5);
        assert_eq!(s.min(), 12.5);
        assert_eq!(s.max(), 12.5);
        assert_eq!(s.quantile(0.5), Some(12.5));
        assert_eq!(s.quantile(0.99), Some(12.5));
        // and a lone negative observation must not pull max up to 0
        let mut s = Summary::default();
        s.observe(-3.25);
        assert_eq!(s.max(), -3.25);
        assert_eq!(s.quantile(0.99), Some(-3.25));
    }

    #[test]
    fn quantile_returns_the_bucket_upper_bound_clamped() {
        // 3.2 and 3.3 share grid bucket k = 7 (upper bound 2^(7/4)
        // ≈ 3.364): both quantiles report that bound clamped to max.
        let s = Summary::from_iter([3.2, 3.3]);
        assert_eq!(s.quantile(0.5), Some(3.3));
        assert_eq!(s.quantile(0.99), Some(3.3));
        // distinct buckets: 1.0 sits exactly on its bucket bound (k = 0),
        // 30.0 lands in k = 20 whose bound 32 clamps down to max.
        let s = Summary::from_iter([1.0, 30.0]);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(30.0));
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let s = Summary::from_iter((1..=1000).map(f64::from));
        let p50 = s.quantile(0.5).unwrap();
        // bucket grid is 2^(1/4)-spaced: ~19% relative resolution
        assert!((400.0..=650.0).contains(&p50), "p50 = {p50}");
        let p100 = s.quantile(1.0).unwrap();
        assert!(p100 >= 999.0);
        assert_eq!(s.quantile(0.0).unwrap(), 1.0);
    }

    #[test]
    fn merge_matches_sequential_counts_exactly() {
        let xs: Vec<f64> = (0..500)
            .map(|i| (f64::from(i) * 0.37).sin().abs() * 100.0)
            .collect();
        let whole = Summary::from_iter(xs.iter().copied());
        let mut a = Summary::from_iter(xs[..123].iter().copied());
        let b = Summary::from_iter(xs[123..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.hist.cumulative(), whole.hist.cumulative());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9 * (1.0 + whole.variance()));
        assert_eq!(a.quantile(0.9), whole.quantile(0.9));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_iter([1.0, 2.0, 3.0]);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn nonpositive_observations_survive() {
        let s = Summary::from_iter([-5.0, 0.0, 3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), -5.0);
        assert!(s.quantile(0.1).unwrap() <= 0.0);
    }
}
