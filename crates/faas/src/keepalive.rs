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

/// Percentile of the idle-gap distribution to cover.
const PERCENTILE: f64 = 0.99;

/// Multiplicative safety margin on the percentile.
const MARGIN: f64 = 1.25;

/// Lower clamp: never recycle faster than this.
const MIN_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Upper clamp: never keep longer than this.
const MAX_TIMEOUT: SimDuration = SimDuration::from_mins(10);

/// Samples required before trusting the histogram.
const MIN_SAMPLES: usize = 8;

/// Timeout applied while the history is too thin.
const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_mins(10);

/// The histogram-driven keep-alive, switched on by
/// [`PlatformConfig::adaptive_keep_alive`](crate::PlatformConfig::adaptive_keep_alive):
/// the 99th percentile of a function's idle gaps, padded by 25% and
/// clamped to [30 s, 10 min]. Until 8 gaps are known it keeps 10 min.
///
/// # Examples
///
/// ```
/// use faasmem_faas::AdaptiveKeepAlive;
/// use faasmem_metrics::Cdf;
/// use faasmem_sim::SimDuration;
///
/// // No history yet: the conservative default applies.
/// assert_eq!(AdaptiveKeepAlive::timeout_from_samples(None), SimDuration::from_mins(10));
/// // A function always reused within ~30 s gets a tight timeout.
/// let gaps: Cdf = (0..50).map(|i| f64::from(20 + i % 10)).collect();
/// let t = AdaptiveKeepAlive::timeout_from_samples(Some(&gaps));
/// assert!(t < SimDuration::from_mins(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveKeepAlive;

impl AdaptiveKeepAlive {
    /// Computes the timeout from a function's observed idle-before-reuse
    /// gaps, in seconds (`None`: no warm start yet).
    pub fn timeout_from_samples(gaps: Option<&Cdf>) -> SimDuration {
        let Some(gaps) = gaps.filter(|g| g.len() >= MIN_SAMPLES) else {
            return DEFAULT_TIMEOUT;
        };
        let q = gaps
            .quantile(PERCENTILE)
            .unwrap_or(DEFAULT_TIMEOUT.as_secs_f64());
        let padded = SimDuration::from_secs_f64(q * MARGIN);
        padded.max(MIN_TIMEOUT).min(MAX_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` gaps of `secs` seconds each.
    fn gaps(secs: f64, n: usize) -> Cdf {
        Cdf::from_samples(vec![secs; n])
    }

    fn timeout(gaps: Option<&Cdf>) -> SimDuration {
        AdaptiveKeepAlive::timeout_from_samples(gaps)
    }

    #[test]
    fn thin_history_uses_default() {
        assert_eq!(timeout(None), DEFAULT_TIMEOUT);
        assert_eq!(timeout(Some(&gaps(1.0, 7))), DEFAULT_TIMEOUT);
        assert_ne!(timeout(Some(&gaps(1.0, 8))), DEFAULT_TIMEOUT);
    }

    #[test]
    fn fast_reuse_shrinks_timeout() {
        let t = timeout(Some(&gaps(5.0, 100)));
        // 5 s × 1.25 margin = 6.25 s, clamped up to the 30 s floor.
        assert_eq!(t, SimDuration::from_secs(30));
    }

    #[test]
    fn heavy_tail_respects_upper_clamp() {
        assert_eq!(
            timeout(Some(&gaps(3_600.0, 100))),
            SimDuration::from_mins(10)
        );
    }

    #[test]
    fn percentile_and_margin_apply() {
        // 99 gaps of 100 s and one of 200 s: the 99th percentile is
        // 100 s (the median would be too), padded by 1.25.
        let mut g = gaps(100.0, 99);
        g.insert(200.0);
        assert_eq!(timeout(Some(&g)), SimDuration::from_secs(125));
        // Two long gaps push the 99th percentile to 200 s: 250 s.
        g.insert(200.0);
        assert_eq!(timeout(Some(&g)), SimDuration::from_secs(250));
    }
}
