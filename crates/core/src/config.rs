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
    /// `Ok(())` means valid).
    /// [`FaasMemPolicy::with_config`](crate::FaasMemPolicy::with_config)
    /// runs it and builds nothing from a configuration it rejects.
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
            window_stable_rounds: 2,
            window_cap: 20,
            rollback_min_interval: SimDuration::from_secs(10),
            semiwarm: SemiWarmConfig::default(),
        }
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
    fn validate_accepts_defaults_and_flags_nonsense() {
        assert!(FaasMemConfig::default().validate().is_ok());
        let bad = FaasMemConfig {
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
        assert_eq!(problems.len(), 5, "{problems:?}");
        assert!(problems.iter().all(|p| p.starts_with("faasmem config:")));
    }

    #[test]
    #[should_panic(expected = "start percentile 1.5 out of (0, 1]")]
    fn bad_percentile_panics() {
        let config = FaasMemConfig {
            semiwarm: SemiWarmConfig {
                start_percentile: 1.5,
                ..SemiWarmConfig::default()
            },
            ..FaasMemConfig::default()
        };
        let _ = crate::FaasMemPolicy::with_config(config).expect("invalid config");
    }

    #[test]
    #[should_panic(expected = "window cap must be at least 1")]
    fn zero_window_cap_panics() {
        let config = FaasMemConfig {
            window_cap: 0,
            ..FaasMemConfig::default()
        };
        let _ = crate::FaasMemPolicy::with_config(config).expect("invalid config");
    }
}
