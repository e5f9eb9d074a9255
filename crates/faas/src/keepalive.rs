//! Adaptive keep-alive (paper §10, "Keep-alive Strategy").
//!
//! The paper's platform uses a fixed 10-minute keep-alive; its related
//! work points at hybrid-histogram policies (Shahrad et al., ATC'20) that
//! set per-function timeouts from observed idle-time distributions, and
//! notes that "combining the above works can gain more benefits" with
//! FaaSMem. [`AdaptiveKeepAlive`] implements that combination: the
//! timeout for each function is a percentile of its observed
//! idle-before-reuse gaps, padded by a margin and clamped.

use faasmem_metrics::Cdf;
use faasmem_sim::SimDuration;

/// Configuration of the histogram-driven keep-alive.
///
/// # Examples
///
/// ```
/// use faasmem_faas::AdaptiveKeepAlive;
/// use faasmem_metrics::Cdf;
/// use faasmem_sim::SimDuration;
///
/// let ka = AdaptiveKeepAlive::default();
/// // No history yet: the conservative default applies.
/// assert_eq!(ka.timeout_from_samples(None), ka.default);
/// // A function always reused within ~30 s gets a tight timeout.
/// let gaps: Cdf = (0..50).map(|i| f64::from(20 + i % 10)).collect();
/// let t = ka.timeout_from_samples(Some(&gaps));
/// assert!(t < SimDuration::from_mins(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveKeepAlive {
    /// Percentile of the idle-gap distribution to cover.
    pub percentile: f64,
    /// Multiplicative safety margin on the percentile.
    pub margin: f64,
    /// Lower clamp (never recycle faster than this).
    pub min: SimDuration,
    /// Upper clamp (never keep longer than this).
    pub max: SimDuration,
    /// Samples required before trusting the histogram.
    pub min_samples: usize,
    /// Timeout applied while the history is too thin.
    pub default: SimDuration,
}

impl Default for AdaptiveKeepAlive {
    fn default() -> Self {
        AdaptiveKeepAlive {
            percentile: 0.99,
            margin: 1.25,
            min: SimDuration::from_secs(30),
            max: SimDuration::from_mins(10),
            min_samples: 8,
            default: SimDuration::from_mins(10),
        }
    }
}

impl AdaptiveKeepAlive {
    /// Computes the timeout from a function's observed idle-before-reuse
    /// gaps, in seconds (`None`: no warm start yet).
    pub fn timeout_from_samples(&self, gaps: Option<&Cdf>) -> SimDuration {
        let Some(gaps) = gaps.filter(|g| g.len() >= self.min_samples) else {
            return self.default;
        };
        let q = gaps
            .quantile(self.percentile)
            .unwrap_or(self.default.as_secs_f64());
        let padded = SimDuration::from_secs_f64(q * self.margin);
        padded.max(self.min).min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` gaps of `secs` seconds each.
    fn gaps(secs: f64, n: usize) -> Cdf {
        Cdf::from_samples(vec![secs; n])
    }

    #[test]
    fn thin_history_uses_default() {
        let ka = AdaptiveKeepAlive::default();
        assert_eq!(ka.timeout_from_samples(None), ka.default);
        assert_eq!(ka.timeout_from_samples(Some(&gaps(1.0, 7))), ka.default);
        assert_ne!(ka.timeout_from_samples(Some(&gaps(1.0, 8))), ka.default);
    }

    #[test]
    fn fast_reuse_shrinks_timeout() {
        let ka = AdaptiveKeepAlive::default();
        let t = ka.timeout_from_samples(Some(&gaps(5.0, 100)));
        // 5 s × 1.25 margin = 6.25 s, clamped up to the 30 s floor.
        assert_eq!(t, SimDuration::from_secs(30));
    }

    #[test]
    fn heavy_tail_respects_upper_clamp() {
        let ka = AdaptiveKeepAlive::default();
        assert_eq!(
            ka.timeout_from_samples(Some(&gaps(3_600.0, 100))),
            SimDuration::from_mins(10)
        );
    }

    #[test]
    fn percentile_and_margin_apply() {
        let ka = AdaptiveKeepAlive {
            percentile: 0.5,
            margin: 2.0,
            min: SimDuration::ZERO,
            max: SimDuration::from_mins(60),
            min_samples: 1,
            default: SimDuration::from_mins(10),
        };
        assert_eq!(
            ka.timeout_from_samples(Some(&gaps(100.0, 9))),
            SimDuration::from_secs(200)
        );
    }
}
