//! FaaSMem configuration.

use faasmem_sim::SimDuration;

/// How a semi-warm container's memory drains to the pool (§6.2).
///
/// The paper offers two approaches — percentile-based (e.g. 1%/s, suited
/// to large functions) and amount-based (e.g. 1 MB/s, faster for small
/// functions) — and suggests providers pick per function. [`OffloadRate::Auto`]
/// applies that recommendation automatically by resident size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadRate {
    /// Offload this fraction of the container's resident memory per
    /// second (paper example: 1%/s → `0.01`).
    PercentPerSec(f64),
    /// Offload a fixed number of MiB per second (paper example: 1 MB/s).
    MibPerSec(f64),
    /// Percentile-based for containers whose resident footprint exceeds
    /// `large_threshold_mib`, amount-based otherwise.
    Auto {
        /// Size boundary between "large" and "small" functions.
        large_threshold_mib: u64,
        /// Rate for large functions, fraction per second.
        percent_per_sec: f64,
        /// Rate for small functions, MiB per second.
        mib_per_sec: f64,
    },
}

impl OffloadRate {
    /// Offload rate in bytes/second for a container with the given
    /// resident footprint.
    pub fn bytes_per_sec(&self, resident_bytes: u64) -> f64 {
        const MIB: f64 = 1024.0 * 1024.0;
        match *self {
            OffloadRate::PercentPerSec(frac) => resident_bytes as f64 * frac,
            OffloadRate::MibPerSec(mib) => mib * MIB,
            OffloadRate::Auto {
                large_threshold_mib,
                percent_per_sec,
                mib_per_sec,
            } => {
                if resident_bytes > large_threshold_mib * 1024 * 1024 {
                    resident_bytes as f64 * percent_per_sec
                } else {
                    mib_per_sec * MIB
                }
            }
        }
    }
}

/// Largest cold-start gap treated as a censored reuse sample (see
/// [`SemiWarmConfig::cold_start_aware`]).
pub(crate) const COLD_START_CENSOR_CAP: SimDuration = SimDuration::from_mins(10);

/// Descent-gradient threshold below which the Init-Pucket request
/// window closes: the window closes when fewer than this fraction of
/// init pages left the inactive list over the last request (§5.2).
pub(crate) const WINDOW_EPSILON: f64 = 0.005;

/// Semi-warm period configuration (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct SemiWarmConfig {
    /// Which percentile of the container-reused-interval CDF sets the
    /// semi-warm start timing. The paper pessimistically uses the
    /// 99th percentile to protect the 95th-percentile latency (§6.1,
    /// §8.3.2).
    pub start_percentile: f64,
    /// Minimum reuse-interval samples before the CDF is trusted; below
    /// this, `default_start` applies.
    pub min_samples: usize,
    /// Semi-warm start timing used while the function's history is too
    /// thin to profile.
    pub default_start: SimDuration,
    /// Gradual offload rate.
    pub rate: OffloadRate,
    /// §8.3.2 extension: under bursty load, cold-start congestion makes
    /// the observed reuse intervals *underestimate* the ideal semi-warm
    /// timing, hurting the 99th percentile. When enabled, the gap behind
    /// every cold start (up to `COLD_START_CENSOR_CAP`, 10 min) is also fed
    /// into the reuse CDF as a censored sample, pushing the start timing
    /// out pessimistically.
    pub cold_start_aware: bool,
    /// Leap-style recall prefetching (related work \[46\]): when a request
    /// lands on a semi-warm container, pull the whole drained hot set
    /// back in one batch instead of letting the request demand-fault it
    /// page by page. Trades bandwidth (unneeded pages come back too) for
    /// per-fault CPU time on the critical path.
    pub recall_prefetch: bool,
}

impl Default for SemiWarmConfig {
    fn default() -> Self {
        SemiWarmConfig {
            start_percentile: 0.99,
            min_samples: 5,
            default_start: SimDuration::from_secs(240),
            rate: OffloadRate::Auto {
                large_threshold_mib: 256,
                percent_per_sec: 0.01,
                mib_per_sec: 1.0,
            },
            cold_start_aware: false,
            recall_prefetch: false,
        }
    }
}

/// Full FaaSMem configuration, including the ablation switches used by
/// the Fig 13 experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct FaasMemConfig {
    /// Enables Pucket segregation and the segment-wise policies
    /// (reactive + window + rollback). Disabled in the "w/o Pucket"
    /// ablation.
    pub enable_pucket: bool,
    /// Enables the semi-warm period. Disabled in the "w/o Semi-warm"
    /// ablation.
    pub enable_semiwarm: bool,
    /// Maintenance tick period (drives semi-warm gradual offloading).
    pub tick: SimDuration,
    /// Consecutive below-`WINDOW_EPSILON` requests required to close the
    /// window.
    pub window_stable_rounds: u32,
    /// Hard cap on the request window (the paper's Web example uses ~20).
    pub window_cap: u32,
    /// Minimum time between hot-page-pool rollbacks — the paper's `t`
    /// parameter; ≥ 10 s keeps rollback overhead under 0.1% (§8.5).
    pub rollback_min_interval: SimDuration,
    /// Semi-warm settings.
    pub semiwarm: SemiWarmConfig,
}

impl FaasMemConfig {
    /// Checks the configuration without panicking, returning one
    /// human-readable message per problem (empty `Err` never occurs;
    /// `Ok(())` means valid). The builder's `build` enforces the same
    /// core invariants via assertions; drivers call this first so a bad
    /// grid fails at startup with messages instead of a backtrace
    /// mid-run.
    ///
    /// # Errors
    ///
    /// `Err` carries every problem found.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if !(self.semiwarm.start_percentile > 0.0 && self.semiwarm.start_percentile <= 1.0) {
            problems.push(format!(
                "faasmem config: start percentile {} out of (0, 1]",
                self.semiwarm.start_percentile
            ));
        }
        if self.tick.is_zero() {
            problems.push("faasmem config: tick must be positive".into());
        }
        if self.window_cap < 1 {
            problems.push("faasmem config: window cap must be at least 1".into());
        }
        if self.window_stable_rounds == 0 {
            problems.push("faasmem config: window stable rounds must be at least 1".into());
        }
        let rate_positive = |label: &str, v: f64, problems: &mut Vec<String>| {
            if !(v.is_finite() && v > 0.0) {
                problems.push(format!(
                    "faasmem config: semi-warm {label} rate {v} must be finite and positive"
                ));
            }
        };
        match self.semiwarm.rate {
            OffloadRate::PercentPerSec(frac) => rate_positive("percent", frac, &mut problems),
            OffloadRate::MibPerSec(mib) => rate_positive("amount", mib, &mut problems),
            OffloadRate::Auto {
                percent_per_sec,
                mib_per_sec,
                ..
            } => {
                rate_positive("percent", percent_per_sec, &mut problems);
                rate_positive("amount", mib_per_sec, &mut problems);
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

impl Default for FaasMemConfig {
    fn default() -> Self {
        FaasMemConfig {
            enable_pucket: true,
            enable_semiwarm: true,
            tick: SimDuration::from_secs(1),
            window_stable_rounds: 2,
            window_cap: 20,
            rollback_min_interval: SimDuration::from_secs(10),
            semiwarm: SemiWarmConfig::default(),
        }
    }
}

/// Builder for [`FaasMemConfig`].
#[derive(Debug, Clone, Default)]
pub struct FaasMemConfigBuilder {
    config: FaasMemConfig,
}

impl FaasMemConfigBuilder {
    /// Starts from the defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration, so further setters compose.
    pub fn from_config(config: FaasMemConfig) -> Self {
        FaasMemConfigBuilder { config }
    }

    /// Toggles Pucket segregation (ablation switch).
    pub fn enable_pucket(mut self, on: bool) -> Self {
        self.config.enable_pucket = on;
        self
    }

    /// Toggles the semi-warm period (ablation switch).
    pub fn enable_semiwarm(mut self, on: bool) -> Self {
        self.config.enable_semiwarm = on;
        self
    }

    /// Sets the maintenance tick period.
    pub fn tick(mut self, tick: SimDuration) -> Self {
        self.config.tick = tick;
        self
    }

    /// Sets the request-window hard cap.
    pub fn window_cap(mut self, cap: u32) -> Self {
        self.config.window_cap = cap;
        self
    }

    /// Sets the consecutive below-epsilon rounds needed to close the
    /// window. Combine a huge value with `window_cap(w)` to force a
    /// fixed window of exactly `w` (ablation experiments).
    pub fn window_stable_rounds(mut self, rounds: u32) -> Self {
        self.config.window_stable_rounds = rounds;
        self
    }

    /// Sets the minimum rollback interval `t`.
    pub fn rollback_min_interval(mut self, t: SimDuration) -> Self {
        self.config.rollback_min_interval = t;
        self
    }

    /// Sets the semi-warm configuration.
    pub fn semiwarm(mut self, semiwarm: SemiWarmConfig) -> Self {
        self.config.semiwarm = semiwarm;
        self
    }

    /// Enables the §8.3.2 cold-start-aware semi-warm timing extension.
    pub fn cold_start_aware(mut self, on: bool) -> Self {
        self.config.semiwarm.cold_start_aware = on;
        self
    }

    /// Enables Leap-style batch prefetching of the drained hot set when a
    /// request interrupts a semi-warm container.
    pub fn recall_prefetch(mut self, on: bool) -> Self {
        self.config.semiwarm.recall_prefetch = on;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values (percentile outside `(0, 1]`,
    /// non-positive tick, zero window cap).
    pub fn build(self) -> FaasMemConfig {
        let c = &self.config;
        assert!(
            c.semiwarm.start_percentile > 0.0 && c.semiwarm.start_percentile <= 1.0,
            "start percentile out of range"
        );
        assert!(!c.tick.is_zero(), "tick must be positive");
        assert!(c.window_cap >= 1, "window cap must be at least 1");
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = FaasMemConfig::default();
        assert!(c.enable_pucket && c.enable_semiwarm);
        assert_eq!(c.semiwarm.start_percentile, 0.99);
        assert_eq!(c.rollback_min_interval, SimDuration::from_secs(10));
        assert_eq!(c.window_cap, 20);
    }

    #[test]
    fn rate_percent_scales_with_size() {
        let r = OffloadRate::PercentPerSec(0.01);
        assert_eq!(r.bytes_per_sec(1_000_000), 10_000.0);
        assert_eq!(r.bytes_per_sec(0), 0.0);
    }

    #[test]
    fn rate_amount_is_constant() {
        let r = OffloadRate::MibPerSec(2.0);
        assert_eq!(r.bytes_per_sec(1), 2.0 * 1024.0 * 1024.0);
        assert_eq!(r.bytes_per_sec(1 << 40), 2.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn rate_auto_picks_by_threshold() {
        let r = OffloadRate::Auto {
            large_threshold_mib: 100,
            percent_per_sec: 0.01,
            mib_per_sec: 1.0,
        };
        let small = 50 * 1024 * 1024;
        let large = 200 * 1024 * 1024;
        assert_eq!(
            r.bytes_per_sec(small),
            1024.0 * 1024.0,
            "small → amount-based"
        );
        assert_eq!(
            r.bytes_per_sec(large),
            large as f64 * 0.01,
            "large → percentile-based"
        );
    }

    #[test]
    fn builder_roundtrip() {
        let c = FaasMemConfigBuilder::new()
            .enable_pucket(false)
            .enable_semiwarm(false)
            .tick(SimDuration::from_secs(2))
            .window_cap(5)
            .rollback_min_interval(SimDuration::from_secs(30))
            .semiwarm(SemiWarmConfig {
                start_percentile: 0.95,
                ..SemiWarmConfig::default()
            })
            .build();
        assert!(!c.enable_pucket && !c.enable_semiwarm);
        assert_eq!(c.tick, SimDuration::from_secs(2));
        assert_eq!(c.window_cap, 5);
        assert_eq!(c.semiwarm.start_percentile, 0.95);
    }

    #[test]
    fn validate_accepts_defaults_and_flags_nonsense() {
        assert!(FaasMemConfig::default().validate().is_ok());
        let bad = FaasMemConfig {
            tick: SimDuration::ZERO,
            window_cap: 0,
            window_stable_rounds: 0,
            semiwarm: SemiWarmConfig {
                start_percentile: 1.5,
                rate: OffloadRate::Auto {
                    large_threshold_mib: 256,
                    percent_per_sec: f64::NAN,
                    mib_per_sec: -1.0,
                },
                ..SemiWarmConfig::default()
            },
            ..FaasMemConfig::default()
        };
        let problems = bad.validate().unwrap_err();
        assert_eq!(problems.len(), 6, "{problems:?}");
        assert!(problems.iter().all(|p| p.starts_with("faasmem config:")));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        let _ = FaasMemConfigBuilder::new()
            .semiwarm(SemiWarmConfig {
                start_percentile: 1.5,
                ..SemiWarmConfig::default()
            })
            .build();
    }

    #[test]
    #[should_panic(expected = "window cap")]
    fn zero_window_cap_panics() {
        let _ = FaasMemConfigBuilder::new().window_cap(0).build();
    }
}
