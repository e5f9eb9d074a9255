//! Latency sample collection and percentile queries.

use faasmem_sim::SimDuration;

use crate::cdf::nearest_rank;

/// Collects latency samples and answers exact percentile queries.
///
/// Percentiles use the nearest-rank method on the sorted sample set, which
/// is what the paper's evaluation scripts compute. Sorting is deferred and
/// cached, so interleaved `record`/`percentile` calls stay cheap.
///
/// # Examples
///
/// ```
/// use faasmem_metrics::LatencyRecorder;
/// use faasmem_sim::SimDuration;
///
/// let mut rec = LatencyRecorder::new();
/// rec.record(SimDuration::from_millis(10));
/// rec.record(SimDuration::from_millis(30));
/// rec.record(SimDuration::from_millis(20));
/// assert_eq!(rec.percentile(0.50).unwrap(), SimDuration::from_millis(20));
/// assert_eq!(rec.max().unwrap(), SimDuration::from_millis(30));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

/// A digest of the percentiles the paper reports (Fig 13): average, P50,
/// P95 and P99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Arithmetic mean latency.
    pub avg: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 95th-percentile latency (the paper's headline QoS metric).
    pub p95: SimDuration,
    /// 99th-percentile latency.
    pub p99: SimDuration,
    /// Number of samples the summary is built from.
    pub count: usize,
}

impl LatencySummary {
    /// A summary of an empty recorder: all zeros.
    pub fn empty() -> Self {
        LatencySummary {
            avg: SimDuration::ZERO,
            p50: SimDuration::ZERO,
            p95: SimDuration::ZERO,
            p99: SimDuration::ZERO,
            count: 0,
        }
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder pre-sized for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples.push(latency.as_micros());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank.
    ///
    /// Returns `None` when empty or when `q` is NaN or outside
    /// `[0, 1]` — never panics, matching [`Cdf::quantile`](crate::Cdf::quantile).
    pub fn percentile(&mut self, q: f64) -> Option<SimDuration> {
        let rank = nearest_rank(self.samples.len(), q)?;
        self.ensure_sorted();
        Some(SimDuration::from_micros(self.samples[rank - 1]))
    }

    /// Arithmetic mean of the samples, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Some(SimDuration::from_micros(
            (sum / self.samples.len() as u128) as u64,
        ))
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&mut self) -> Option<SimDuration> {
        self.ensure_sorted();
        self.samples.last().map(|&s| SimDuration::from_micros(s))
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&mut self) -> Option<SimDuration> {
        self.ensure_sorted();
        self.samples.first().map(|&s| SimDuration::from_micros(s))
    }

    /// The AVG/P50/P95/P99 digest the paper's figures report.
    pub fn summary(&mut self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::empty();
        }
        LatencySummary {
            avg: self.mean().expect("non-empty"),
            p50: self.percentile(0.50).expect("non-empty"),
            p95: self.percentile(0.95).expect("non-empty"),
            p99: self.percentile(0.99).expect("non-empty"),
            count: self.samples.len(),
        }
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sorted = true;
    }

    /// Iterates over the raw samples. The order is unspecified: a
    /// previous percentile query may have sorted them.
    pub fn samples(&self) -> impl Iterator<Item = SimDuration> + '_ {
        self.samples.iter().map(|&s| SimDuration::from_micros(s))
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

impl Extend<SimDuration> for LatencyRecorder {
    fn extend<I: IntoIterator<Item = SimDuration>>(&mut self, iter: I) {
        for d in iter {
            self.record(d);
        }
    }
}

impl FromIterator<SimDuration> for LatencyRecorder {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        let mut rec = LatencyRecorder::new();
        rec.extend(iter);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_recorder_returns_none() {
        let mut rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.percentile(0.5), None);
        assert_eq!(rec.mean(), None);
        assert_eq!(rec.max(), None);
        assert_eq!(rec.min(), None);
        assert_eq!(rec.summary(), LatencySummary::empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut rec: LatencyRecorder = [ms(42)].into_iter().collect();
        assert_eq!(rec.percentile(0.0).unwrap(), ms(42));
        assert_eq!(rec.percentile(0.5).unwrap(), ms(42));
        assert_eq!(rec.percentile(1.0).unwrap(), ms(42));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut rec: LatencyRecorder = (1..=100).map(ms).collect();
        assert_eq!(rec.percentile(0.50).unwrap(), ms(50));
        assert_eq!(rec.percentile(0.95).unwrap(), ms(95));
        assert_eq!(rec.percentile(0.99).unwrap(), ms(99));
        assert_eq!(rec.percentile(1.0).unwrap(), ms(100));
    }

    #[test]
    fn mean_is_exact() {
        let rec: LatencyRecorder = [ms(10), ms(20), ms(60)].into_iter().collect();
        assert_eq!(rec.mean().unwrap(), ms(30));
    }

    #[test]
    fn summary_fields_consistent() {
        let mut rec: LatencyRecorder = (1..=1000).map(ms).collect();
        let s = rec.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, ms(500));
        assert_eq!(s.p95, ms(950));
        assert_eq!(s.p99, ms(990));
        assert!(s.avg >= ms(500) && s.avg <= ms(501));
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut rec = LatencyRecorder::new();
        rec.record(ms(5));
        assert_eq!(rec.percentile(1.0).unwrap(), ms(5));
        rec.record(ms(1));
        assert_eq!(rec.percentile(0.0).unwrap(), ms(1));
        rec.record(ms(9));
        assert_eq!(rec.max().unwrap(), ms(9));
        assert_eq!(rec.min().unwrap(), ms(1));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a: LatencyRecorder = [ms(1), ms(2)].into_iter().collect();
        let b: LatencyRecorder = [ms(3)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.max().unwrap(), ms(3));
    }

    #[test]
    fn clear_resets() {
        let mut rec: LatencyRecorder = [ms(1)].into_iter().collect();
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn out_of_range_quantile_is_none() {
        let mut rec: LatencyRecorder = [ms(1)].into_iter().collect();
        assert_eq!(rec.percentile(1.5), None);
        assert_eq!(rec.percentile(-0.1), None);
        assert_eq!(rec.percentile(f64::NAN), None);
    }

    #[test]
    fn single_sample_percentiles() {
        let mut rec: LatencyRecorder = [ms(7)].into_iter().collect();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(rec.percentile(q), Some(ms(7)), "q={q}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_percentile_monotone(mut vals in proptest::collection::vec(0u64..1_000_000, 1..300)) {
            let mut rec = LatencyRecorder::new();
            for v in vals.drain(..) {
                rec.record(SimDuration::from_micros(v));
            }
            let p50 = rec.percentile(0.5).unwrap();
            let p95 = rec.percentile(0.95).unwrap();
            let p99 = rec.percentile(0.99).unwrap();
            proptest::prop_assert!(p50 <= p95);
            proptest::prop_assert!(p95 <= p99);
            proptest::prop_assert!(p99 <= rec.max().unwrap());
            proptest::prop_assert!(rec.min().unwrap() <= p50);
        }

        #[test]
        fn prop_mean_between_min_max(vals in proptest::collection::vec(0u64..1_000_000, 1..300)) {
            let mut rec = LatencyRecorder::new();
            for &v in &vals {
                rec.record(SimDuration::from_micros(v));
            }
            let mean = rec.mean().unwrap();
            proptest::prop_assert!(rec.min().unwrap() <= mean);
            proptest::prop_assert!(mean <= rec.max().unwrap());
        }
    }
}
