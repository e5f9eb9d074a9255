//! Global offload-bandwidth control (paper §6.2).
//!
//! When a burst makes many containers enter semi-warm simultaneously, their
//! combined gradual offloading can contend for the remote link. FaaSMem
//! "monitors the global remote bandwidth in real-time, and uniformly
//! reduces the offload speed of all containers when the bandwidth
//! approaches the limit". [`BandwidthGovernor`] implements that control
//! loop as a piecewise-linear throttle on a sliding usage estimate.

use faasmem_sim::{SimDuration, SimTime};

/// Fraction of capacity at which throttling begins.
const SOFT_FRACTION: f64 = 0.8;

/// Throttle factor at (and beyond) full capacity.
const MIN_FACTOR: f64 = 0.05;

/// Uniformly throttles per-container offload rates as aggregate remote
/// bandwidth approaches the link limit.
///
/// Usage is estimated over a sliding window; the throttle factor is 1.0
/// below 80% of capacity and decays linearly to 0.05 at full capacity.
///
/// # Examples
///
/// ```
/// use faasmem_pool::BandwidthGovernor;
/// use faasmem_sim::{SimDuration, SimTime};
///
/// let mut gov = BandwidthGovernor::new(1_000_000, SimDuration::from_secs(1));
/// gov.record(SimTime::ZERO, 100_000); // 10% of capacity: unthrottled
/// assert_eq!(gov.throttle_factor(SimTime::from_millis(500)), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthGovernor {
    capacity_bytes_per_sec: u64,
    window: SimDuration,
    /// (time, bytes) records inside the sliding window, oldest first.
    records: std::collections::VecDeque<(SimTime, u64)>,
    window_bytes: u64,
}

impl BandwidthGovernor {
    /// Creates a governor for a link of the given capacity with a sliding
    /// estimation `window`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes_per_sec` is zero or `window` is zero.
    pub fn new(capacity_bytes_per_sec: u64, window: SimDuration) -> Self {
        assert!(capacity_bytes_per_sec > 0, "capacity must be positive");
        assert!(!window.is_zero(), "window must be positive");
        BandwidthGovernor {
            capacity_bytes_per_sec,
            window,
            records: std::collections::VecDeque::new(),
            window_bytes: 0,
        }
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = SimTime::from_micros(now.as_micros().saturating_sub(self.window.as_micros()));
        while let Some(&(t, bytes)) = self.records.front() {
            if t < cutoff {
                self.records.pop_front();
                self.window_bytes -= bytes;
            } else {
                break;
            }
        }
    }

    /// Records `bytes` of remote traffic at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.evict(now);
        self.records.push_back((now, bytes));
        self.window_bytes += bytes;
    }

    /// Estimated aggregate bandwidth over the sliding window ending at
    /// `now`, in bytes/second.
    pub fn current_usage(&mut self, now: SimTime) -> f64 {
        self.evict(now);
        self.window_bytes as f64 / self.window.as_secs_f64()
    }

    /// The uniform rate multiplier containers should apply to their
    /// gradual-offload speed: 1.0 when comfortably below capacity,
    /// decaying linearly to the floor as usage reaches capacity.
    pub fn throttle_factor(&mut self, now: SimTime) -> f64 {
        let usage = self.current_usage(now);
        let capacity = self.capacity_bytes_per_sec as f64;
        let soft = SOFT_FRACTION * capacity;
        if usage <= soft {
            return 1.0;
        }
        if usage >= capacity {
            return MIN_FACTOR;
        }
        let frac = (usage - soft) / (capacity - soft);
        (1.0 - frac * (1.0 - MIN_FACTOR)).max(MIN_FACTOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> BandwidthGovernor {
        BandwidthGovernor::new(1_000_000, SimDuration::from_secs(1))
    }

    #[test]
    fn unused_link_is_unthrottled() {
        let mut g = gov();
        assert_eq!(g.throttle_factor(SimTime::from_secs(5)), 1.0);
        assert_eq!(g.current_usage(SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn below_soft_threshold_unthrottled() {
        let mut g = gov();
        g.record(SimTime::from_secs(1), 700_000); // 70% over 1s window
        assert_eq!(g.throttle_factor(SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn above_soft_threshold_throttles_linearly() {
        let mut g = gov();
        g.record(SimTime::from_secs(1), 900_000); // 90%: halfway soft→cap
        let f = g.throttle_factor(SimTime::from_secs(1));
        assert!(f < 1.0 && f > 0.05);
        assert!((f - 0.525).abs() < 1e-9, "expected midpoint, got {f}");
    }

    #[test]
    fn at_capacity_hits_floor() {
        let mut g = gov();
        g.record(SimTime::from_secs(1), 2_000_000);
        assert_eq!(g.throttle_factor(SimTime::from_secs(1)), 0.05);
    }

    #[test]
    fn old_records_slide_out() {
        let mut g = gov();
        g.record(SimTime::from_secs(1), 1_000_000);
        assert_eq!(g.throttle_factor(SimTime::from_secs(1)), 0.05);
        // Three seconds later the window is clean again.
        assert_eq!(g.throttle_factor(SimTime::from_secs(4)), 1.0);
    }

    #[test]
    fn usage_estimate_scales_with_window() {
        let mut g = BandwidthGovernor::new(1_000_000, SimDuration::from_secs(2));
        g.record(SimTime::from_secs(1), 1_000_000);
        // 1 MB over a 2 s window = 0.5 MB/s.
        assert!((g.current_usage(SimTime::from_secs(1)) - 500_000.0).abs() < 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = BandwidthGovernor::new(0, SimDuration::from_secs(1));
    }
}
