//! Empirical cumulative distribution functions.
//!
//! FaaSMem's semi-warm policy is driven by the CDF of *container reused
//! intervals* (paper §6.1, Fig 11): the 99th percentile of that CDF sets
//! the semi-warm start timing. The evaluation also reports CDFs of
//! requests-per-container (Fig 5) and semi-warm share (Fig 14).

/// The nearest-rank rule shared by every percentile in the workspace:
/// the 1-based rank of the `q`-quantile among `n` sorted samples, the
/// smallest rank `r` with `r >= q * n` (at least 1).
///
/// Returns `None` when `n` is 0 or `q` is NaN or outside `[0, 1]`.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// An empirical CDF over `f64` samples.
///
/// # Examples
///
/// ```
/// use faasmem_metrics::Cdf;
///
/// let cdf = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// assert!((cdf.fraction_at_most(2.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples. Non-finite samples are discarded.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted }
    }

    /// Number of samples behind the CDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank quantile: the smallest sample `x` such that at least a
    /// `q` fraction of samples are `<= x`.
    ///
    /// Returns `None` when the CDF is empty or `q` is NaN or outside
    /// `[0, 1]` — never panics, so percentile queries are safe on any
    /// input. With a single sample, every valid `q` returns it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        nearest_rank(self.sorted.len(), q).map(|rank| self.sorted[rank - 1])
    }

    /// Adds one sample, keeping the samples sorted; a non-finite sample
    /// is discarded, as in [`Cdf::from_samples`]. Quantile queries
    /// between inserts read the samples in place.
    pub fn insert(&mut self, x: f64) {
        if x.is_finite() {
            let at = self.sorted.partition_point(|&v| v <= x);
            self.sorted.insert(at, x);
        }
    }

    /// The nearest-rank `q`-quantile of the union of `self` and `other`,
    /// found by binary search on each side without building the union.
    /// `None` under the same conditions as [`Cdf::quantile`].
    pub fn union_quantile(&self, other: &Cdf, q: f64) -> Option<f64> {
        if other.is_empty() {
            return self.quantile(q);
        }
        let rank = nearest_rank(self.len() + other.len(), q)?;
        let at_most = |x: f64| {
            self.sorted.partition_point(|&v| v <= x) + other.sorted.partition_point(|&v| v <= x)
        };
        // On each side, the first sample with at least `rank` samples of
        // the union at or below it; the smaller of the two is the answer.
        let first = |s: &[f64]| s.get(s.partition_point(|&v| at_most(v) < rank)).copied();
        [first(&self.sorted), first(&other.sorted)]
            .into_iter()
            .flatten()
            .reduce(f64::min)
    }

    /// Fraction of samples `<= x`; 0.0 when empty.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Population standard deviation; `None` when empty.
    ///
    /// Fig 16 correlates density improvement with the standard deviation of
    /// request intervals, which this computes.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var =
            self.sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / self.sorted.len() as f64;
        Some(var.sqrt())
    }

    /// Evenly spaced `(value, cumulative_fraction)` points suitable for
    /// plotting, at most `points` of them.
    pub fn plot_points(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n.max(points) / points).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = 0;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(v, _)| v) != self.sorted.last().copied() {
            out.push((self.sorted[n - 1], 1.0));
        }
        out
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaves() {
        let cdf = Cdf::from_samples(Vec::new());
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at_most(10.0), 0.0);
        assert_eq!(cdf.mean(), None);
        assert_eq!(cdf.std_dev(), None);
        assert!(cdf.plot_points(10).is_empty());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let cdf: Cdf = (1..=100).map(|v| v as f64).collect();
        assert_eq!(cdf.quantile(0.01), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.99), Some(99.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
    }

    #[test]
    fn single_sample_quantiles() {
        let cdf = Cdf::from_samples(vec![3.5]);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(cdf.quantile(q), Some(3.5), "q={q}");
        }
        assert_eq!(cdf.mean(), Some(3.5));
        assert_eq!(cdf.std_dev(), Some(0.0));
    }

    #[test]
    fn invalid_q_is_none_not_panic() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0]);
        assert_eq!(cdf.quantile(-0.5), None);
        assert_eq!(cdf.quantile(1.5), None);
        assert_eq!(cdf.quantile(f64::NAN), None);
        let empty = Cdf::default();
        assert_eq!(empty.quantile(f64::NAN), None);
    }

    #[test]
    fn fraction_at_most_boundaries() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(4.0), 1.0);
        assert_eq!(cdf.fraction_at_most(100.0), 1.0);
    }

    #[test]
    fn non_finite_samples_discarded() {
        let cdf = Cdf::from_samples(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.max(), Some(2.0));
    }

    #[test]
    fn stats_are_exact() {
        let cdf = Cdf::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(cdf.mean(), Some(5.0));
        assert_eq!(cdf.std_dev(), Some(2.0));
        assert_eq!(cdf.min(), Some(2.0));
        assert_eq!(cdf.max(), Some(9.0));
    }

    #[test]
    fn plot_points_cover_range() {
        let cdf: Cdf = (1..=1000).map(|v| v as f64).collect();
        let pts = cdf.plot_points(50);
        assert!(pts.len() <= 52);
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn insert_keeps_samples_sorted_and_drops_non_finite() {
        let mut cdf = Cdf::default();
        for x in [3.0, 1.0, f64::NAN, 2.0, f64::INFINITY, 2.0] {
            cdf.insert(x);
        }
        assert_eq!(cdf, Cdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]));
    }

    #[test]
    fn union_quantile_edges() {
        let empty = Cdf::default();
        let a = Cdf::from_samples(vec![5.0, 1.0]);
        assert_eq!(empty.union_quantile(&empty, 0.5), None);
        assert_eq!(a.union_quantile(&empty, 1.0), Some(5.0));
        assert_eq!(empty.union_quantile(&a, 0.0), Some(1.0));
        assert_eq!(a.union_quantile(&a, 0.75), Some(5.0));
        assert_eq!(a.union_quantile(&a, 0.5), Some(1.0));
        assert_eq!(a.union_quantile(&a, f64::NAN), None);
        assert_eq!(a.union_quantile(&a, 1.5), None);
    }

    /// The rank rule as each former copy wrote it inline: `Cdf` and
    /// `LatencyRecorder` clamped the ceiling into `1..=n`; the warm-P99
    /// table saturated the index at 0; the warm-P95 table subtracted 1
    /// unguarded (its only `q` was 0.95).
    fn old_inline_ranks(n: usize, q: f64) -> [Option<usize>; 3] {
        let ceil = (q * n as f64).ceil() as usize;
        let clamped = ceil.clamp(1, n);
        let saturating = ceil.saturating_sub(1).min(n - 1) + 1;
        let unguarded = (q > 0.0).then(|| (ceil - 1).min(n - 1) + 1);
        [Some(clamped), Some(saturating), unguarded]
    }

    #[test]
    fn nearest_rank_rejects_empty_and_invalid_q() {
        assert_eq!(nearest_rank(0, 0.5), None);
        assert_eq!(nearest_rank(5, f64::NAN), None);
        assert_eq!(nearest_rank(5, -0.01), None);
        assert_eq!(nearest_rank(5, 1.01), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn prop_nearest_rank_matches_old_inline_formulas(n in 1usize..10_001, q in 0.0f64..1.0) {
            for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
                let rank = nearest_rank(n, q);
                for old in old_inline_ranks(n, q).into_iter().flatten() {
                    proptest::prop_assert_eq!(rank, Some(old), "n={} q={}", n, q);
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_insert_matches_from_samples(ops in proptest::collection::vec((0u8..4, 0u32..40, 0.0f64..1.0), 1..300)) {
            // Small integer values force ties; kind 2 feeds non-finite
            // samples, kind 3 queries.
            let mut cdf = Cdf::default();
            let mut raw = Vec::new();
            for (kind, v, q) in ops {
                match kind {
                    0 | 1 => {
                        cdf.insert(f64::from(v) / 4.0);
                        raw.push(f64::from(v) / 4.0);
                    }
                    2 => {
                        let x = if v % 2 == 0 { f64::NAN } else { f64::NEG_INFINITY };
                        cdf.insert(x);
                        raw.push(x);
                    }
                    _ => {
                        let fresh = Cdf::from_samples(raw.iter().copied());
                        proptest::prop_assert_eq!(cdf.len(), fresh.len());
                        for q in [q, 0.0, 0.99, 1.0] {
                            proptest::prop_assert_eq!(cdf.quantile(q), fresh.quantile(q));
                        }
                    }
                }
            }
            proptest::prop_assert_eq!(cdf, Cdf::from_samples(raw));
        }

        #[test]
        fn prop_union_quantile_matches_merged(
            a in proptest::collection::vec(0u32..20, 0..40),
            b in proptest::collection::vec(0u32..20, 0..40),
            q in 0.0f64..1.0,
        ) {
            let a = Cdf::from_samples(a.into_iter().map(f64::from));
            let b = Cdf::from_samples(b.into_iter().map(f64::from));
            let merged = Cdf::from_samples(a.sorted.iter().chain(&b.sorted).copied());
            let n = merged.len().max(1) as f64;
            // A random q, both ends, and q exactly on a rank boundary.
            for q in [q, 0.0, 1.0, (q * n).floor() / n] {
                proptest::prop_assert_eq!(a.union_quantile(&b, q), merged.quantile(q), "q={}", q);
                proptest::prop_assert_eq!(b.union_quantile(&a, q), merged.quantile(q), "q={}", q);
            }
        }

        #[test]
        fn prop_quantile_and_fraction_inverse(vals in proptest::collection::vec(0.0f64..1e6, 1..200), q in 0.01f64..1.0) {
            let cdf = Cdf::from_samples(vals);
            let x = cdf.quantile(q).unwrap();
            // At least q of the mass lies at or below the q-quantile.
            proptest::prop_assert!(cdf.fraction_at_most(x) + 1e-12 >= q);
        }
    }
}
