//! The semi-warm period (paper §6).
//!
//! Cold-page offloading alone leaves a large hot working set resident for
//! the whole keep-alive — memory that is very likely never used again
//! (Fig 1: 89.2% inactive at a 10-minute timeout). FaaSMem therefore adds
//! a *semi-warm* period: after a per-function, pessimistically chosen
//! idle threshold, even hot pages drain to the pool, gradually and under
//! global bandwidth control. 95% of requests still find a fully warm
//! container; the unlucky tail pays a bounded recall penalty.

use std::collections::HashMap;

use faasmem_faas::FunctionId;
use faasmem_metrics::Cdf;
use faasmem_sim::{SimDuration, SimTime};

use crate::config::SemiWarmConfig;

/// Reuse-interval samples (observed plus censored) a function needs
/// before its CDF sets the start timing.
const MIN_SAMPLES: usize = 5;

/// Semi-warm start timing while a function's history is too thin to
/// profile.
const DEFAULT_START: SimDuration = SimDuration::from_secs(240);

/// Per-function semi-warm timing, read in place from the platform's
/// [reuse intervals](faasmem_faas::PolicyCtx::reuse_intervals) and the
/// policy's own censored cold-start gaps, plus the gradual-offload rate
/// computation.
///
/// # Examples
///
/// ```
/// use faasmem_core::{SemiWarm, SemiWarmConfig};
/// use faasmem_metrics::Cdf;
/// use faasmem_sim::SimDuration;
/// use faasmem_workload::FunctionId;
///
/// let sw = SemiWarm::new(SemiWarmConfig::default());
/// let reuse = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0, 30.0]);
/// // The 99th percentile of the observed intervals: 30 s.
/// assert_eq!(sw.start_timing(Some(&reuse), FunctionId(0)), SimDuration::from_secs(30));
/// ```
#[derive(Debug, Clone)]
pub struct SemiWarm {
    config: SemiWarmConfig,
    /// Censored cold-start gaps per function, in seconds.
    censored: HashMap<FunctionId, Cdf>,
}

impl SemiWarm {
    /// Creates the tracker.
    pub fn new(config: SemiWarmConfig) -> Self {
        SemiWarm {
            config,
            censored: HashMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SemiWarmConfig {
        &self.config
    }

    /// Records the gap behind one cold start of `function` as a censored
    /// reuse sample (the cold-start-aware extension, §8.3.2).
    pub fn record_censored(&mut self, function: FunctionId, gap: SimDuration) {
        self.censored
            .entry(function)
            .or_default()
            .insert(gap.as_secs_f64());
    }

    /// The semi-warm start timing for `function`, given its observed
    /// reuse intervals `reuse` in seconds: the configured percentile of
    /// those intervals together with the censored gaps, once there are
    /// at least 5 samples (`MIN_SAMPLES`), else 240 s
    /// (`DEFAULT_START`).
    pub fn start_timing(&self, reuse: Option<&Cdf>, function: FunctionId) -> SimDuration {
        let empty = Cdf::default();
        let reuse = reuse.unwrap_or(&empty);
        let censored = self.censored.get(&function).unwrap_or(&empty);
        if reuse.len() + censored.len() < MIN_SAMPLES {
            return DEFAULT_START;
        }
        reuse
            .union_quantile(censored, self.config.start_percentile)
            .map_or(DEFAULT_START, SimDuration::from_secs_f64)
    }

    /// How many whole pages to offload in one maintenance tick for a
    /// container with `resident_bytes`, applying the governor's uniform
    /// `throttle` factor (§6.2). Fractional page budgets accumulate in
    /// `carry` across ticks so slow rates still make progress.
    pub fn pages_this_tick(
        &self,
        resident_bytes: u64,
        page_size: u64,
        tick: SimDuration,
        throttle: f64,
        carry: &mut f64,
    ) -> u64 {
        debug_assert!(page_size > 0);
        let rate = self.config.rate.bytes_per_sec(resident_bytes) * throttle.clamp(0.0, 1.0);
        let budget_bytes = rate * tick.as_secs_f64() + *carry;
        let pages = (budget_bytes / page_size as f64).floor();
        *carry = budget_bytes - pages * page_size as f64;
        pages as u64
    }
}

/// A per-container semi-warm activity record, aggregated for the Fig 14
/// applicability analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SemiWarmActivity {
    /// When the container most recently entered semi-warm, if it is in
    /// one now.
    pub entered_at: Option<SimTime>,
    /// Total time the container has spent semi-warm so far.
    pub total: SimDuration,
    /// Bytes offloaded by semi-warm drains.
    pub bytes_offloaded: u64,
    /// Fractional-page carry between ticks.
    pub carry: f64,
}

impl SemiWarmActivity {
    /// Marks entry into semi-warm (idempotent while already in one).
    pub fn enter(&mut self, now: SimTime) {
        if self.entered_at.is_none() {
            self.entered_at = Some(now);
        }
    }

    /// Marks exit (a request arrived or the container is recycled),
    /// folding the elapsed span into the total.
    pub fn exit(&mut self, now: SimTime) {
        if let Some(t0) = self.entered_at.take() {
            self.total += now.saturating_since(t0);
        }
        self.carry = 0.0;
    }

    /// `true` while the container is in a semi-warm period.
    pub fn is_active(&self) -> bool {
        self.entered_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OffloadRate;

    fn config() -> SemiWarmConfig {
        SemiWarmConfig::default()
    }

    /// `n` reuse intervals of `secs` seconds each.
    fn reuse(secs: f64, n: usize) -> Cdf {
        Cdf::from_samples(vec![secs; n])
    }

    #[test]
    fn default_timing_until_enough_samples() {
        let sw = SemiWarm::new(config());
        let f = FunctionId(1);
        assert_eq!(sw.start_timing(None, f), DEFAULT_START);
        assert_eq!(
            sw.start_timing(Some(&reuse(5.0, 4)), f),
            DEFAULT_START,
            "4 < MIN_SAMPLES"
        );
        assert_eq!(
            sw.start_timing(Some(&reuse(5.0, 5)), f),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn percentile_is_pessimistic() {
        let sw = SemiWarm::new(config());
        // 95 short intervals and five long ones: the 99th percentile
        // must pick up the tail, not the median.
        let mut intervals = reuse(2.0, 95);
        for _ in 0..5 {
            intervals.insert(120.0);
        }
        assert_eq!(
            sw.start_timing(Some(&intervals), FunctionId(0)),
            SimDuration::from_secs(120)
        );
    }

    #[test]
    fn per_function_isolation() {
        // Censored gaps recorded for one function never reach another's
        // timing.
        let mut sw = SemiWarm::new(config());
        for _ in 0..10 {
            sw.record_censored(FunctionId(1), SimDuration::from_secs(100));
        }
        let ones = reuse(1.0, 10);
        let f0 = sw.start_timing(Some(&ones), FunctionId(0));
        assert_eq!(f0, SimDuration::from_secs(1));
        assert!(f0 < sw.start_timing(Some(&ones), FunctionId(1)));
    }

    #[test]
    fn censored_gaps_join_the_reuse_intervals() {
        let mut sw = SemiWarm::new(config());
        let f = FunctionId(0);
        // Four reuses plus one censored gap reach MIN_SAMPLES together,
        // and the censored gap is the union's 99th percentile.
        sw.record_censored(f, SimDuration::from_secs(300));
        assert_eq!(sw.start_timing(None, f), DEFAULT_START);
        assert_eq!(
            sw.start_timing(Some(&reuse(3.0, 4)), f),
            SimDuration::from_secs(300)
        );
    }

    #[test]
    fn should_be_semi_warm_threshold() {
        // A container idle for at least the start timing is semi-warm.
        let sw = SemiWarm::new(config());
        let timing = sw.start_timing(Some(&reuse(10.0, 10)), FunctionId(0));
        assert!(SimDuration::from_secs(9) < timing);
        assert!(SimDuration::from_secs(10) >= timing);
    }

    #[test]
    fn page_budget_amount_based() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(1.0),
            ..config()
        });
        let mut carry = 0.0;
        // 1 MiB/s on 64 KiB pages over 1 s = 16 pages.
        let pages = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        assert_eq!(pages, 16);
        assert_eq!(carry, 0.0);
    }

    #[test]
    fn page_budget_respects_throttle() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(1.0),
            ..config()
        });
        let mut carry = 0.0;
        let pages = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            0.5,
            &mut carry,
        );
        assert_eq!(pages, 8);
    }

    #[test]
    fn fractional_budget_carries_over() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::MibPerSec(0.03), // ~0.5 page/s at 64 KiB
            ..config()
        });
        let mut carry = 0.0;
        let mut total = 0;
        for _ in 0..10 {
            total += sw.pages_this_tick(
                1 << 30,
                64 * 1024,
                SimDuration::from_secs(1),
                1.0,
                &mut carry,
            );
        }
        // 0.03 MiB/s × 10 s = 0.3 MiB = 4.8 pages → 4 whole pages.
        assert_eq!(total, 4);
        assert!(carry > 0.0);
    }

    #[test]
    fn percent_rate_scales_with_resident() {
        let sw = SemiWarm::new(SemiWarmConfig {
            rate: OffloadRate::PercentPerSec(0.01),
            ..config()
        });
        let mut carry = 0.0;
        let big = sw.pages_this_tick(
            1 << 30,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        carry = 0.0;
        let small = sw.pages_this_tick(
            1 << 24,
            64 * 1024,
            SimDuration::from_secs(1),
            1.0,
            &mut carry,
        );
        assert!(big > small);
    }

    #[test]
    fn activity_accumulates_across_periods() {
        let mut a = SemiWarmActivity::default();
        assert!(!a.is_active());
        a.enter(SimTime::from_secs(10));
        assert!(a.is_active());
        a.enter(SimTime::from_secs(11)); // idempotent
        a.exit(SimTime::from_secs(25));
        assert_eq!(a.total, SimDuration::from_secs(15));
        assert!(!a.is_active());
        a.enter(SimTime::from_secs(100));
        a.exit(SimTime::from_secs(110));
        assert_eq!(a.total, SimDuration::from_secs(25));
    }

    #[test]
    fn exit_without_enter_is_noop() {
        let mut a = SemiWarmActivity::default();
        a.exit(SimTime::from_secs(5));
        assert_eq!(a.total, SimDuration::ZERO);
    }
}
