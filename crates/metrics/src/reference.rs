//! The retired `Vec<(SimTime, f64)>` time series, kept as a correctness
//! oracle.
//!
//! [`ReferenceTimeSeries`] is the layout [`TimeSeries`](crate::TimeSeries)
//! used before it moved to the delta-varint byte log (DESIGN § Data
//! layout: run-long logs): one 16-byte `(SimTime, f64)` pair per change
//! point, binary-searched by `value_at`. Its answers are easy to trust,
//! so the property tests in `timeseries.rs` race the compact series
//! against it, the way `ReferencePageTable` backs the bit-plane page
//! table. Test builds only.

use faasmem_sim::{SimDuration, SimTime};

/// The pre-codec [`TimeSeries`](crate::TimeSeries): same semantics, one
/// decoded pair per change point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReferenceTimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl ReferenceTimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&mut (last_t, ref mut last_v)) = self.points.last_mut() {
            assert!(at >= last_t, "time series must be recorded in order");
            if at == last_t {
                *last_v = value;
                return;
            }
            if *last_v == value {
                return; // coalesce
            }
        }
        self.points.push((at, value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|&(t, _)| t <= at);
        if idx == 0 {
            None
        } else {
            Some(self.points[idx - 1].1)
        }
    }

    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    pub fn integral(&self, until: SimTime) -> Option<f64> {
        let first = self.points.first()?.0;
        if until < first {
            return None;
        }
        let mut total = 0.0;
        for w in self.points.windows(2) {
            let (t0, v0) = w[0];
            let (t1, _) = w[1];
            if t0 >= until {
                break;
            }
            let end = t1.min(until);
            total += v0 * end.saturating_since(t0).as_secs_f64();
        }
        let (t_last, v_last) = *self.points.last().expect("non-empty");
        if until > t_last {
            total += v_last * until.saturating_since(t_last).as_secs_f64();
        }
        Some(total)
    }

    pub fn time_weighted_mean(&self, until: SimTime) -> Option<f64> {
        let first = self.points.first()?.0;
        let span = until.checked_since(first)?;
        if span.is_zero() {
            return None;
        }
        Some(self.integral(until)? / span.as_secs_f64())
    }

    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    pub fn sample(&self, interval: SimDuration, until: SimTime) -> Vec<(SimTime, f64)> {
        let Some(&(first, _)) = self.points.first() else {
            return Vec::new();
        };
        assert!(!interval.is_zero(), "sampling interval must be positive");
        let mut out = Vec::new();
        let mut t = first;
        while t <= until {
            if let Some(v) = self.value_at(t) {
                out.push((t, v));
            }
            t += interval;
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }
}
