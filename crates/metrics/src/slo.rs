//! Service-level-objective accounting.
//!
//! Fault-injection experiments ask a question the paper's healthy-pool
//! evaluation never had to: *how many requests blew their latency
//! objective while the pool misbehaved?* [`slo_counts`] answers it from
//! the finished requests' latencies; only a latency strictly above the
//! objective violates it.

use faasmem_sim::SimDuration;

/// `(total, violations)` of `latencies` against `objective`: every
/// latency counts towards the total, and those strictly above the
/// objective count as violations.
///
/// # Examples
///
/// ```
/// use faasmem_metrics::slo::{slo_counts, violation_ratio};
/// use faasmem_sim::SimDuration;
///
/// let latencies = [SimDuration::from_millis(250), SimDuration::from_secs(3)];
/// let (total, violations) = slo_counts(latencies, SimDuration::from_secs(1));
/// assert_eq!((total, violations), (2, 1));
/// assert_eq!(violation_ratio(violations, total), 0.5);
/// ```
pub fn slo_counts(
    latencies: impl IntoIterator<Item = SimDuration>,
    objective: SimDuration,
) -> (u64, u64) {
    latencies
        .into_iter()
        .fold((0, 0), |(total, violations), latency| {
            (total + 1, violations + u64::from(latency > objective))
        })
}

/// Fraction of `total` requests that violated the objective; zero when
/// nothing was measured.
pub fn violation_ratio(violations: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        violations as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_reports_zero() {
        let (total, violations) = slo_counts([], SimDuration::from_secs(1));
        assert_eq!((total, violations), (0, 0));
        assert_eq!(violation_ratio(violations, total), 0.0);
    }

    #[test]
    fn threshold_is_exclusive() {
        let latencies = [
            SimDuration::from_millis(100),     // exactly at: OK
            SimDuration::from_micros(100_001), // just over
        ];
        assert_eq!(slo_counts(latencies, SimDuration::from_millis(100)), (2, 1));
    }

    #[test]
    fn ratio_tracks_counts() {
        let latencies = [1u64, 5, 20, 30].map(SimDuration::from_millis);
        let (total, violations) = slo_counts(latencies, SimDuration::from_millis(10));
        assert_eq!(violation_ratio(violations, total), 0.5);
    }
}
