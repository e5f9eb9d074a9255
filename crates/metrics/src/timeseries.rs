//! Step-function time series with time-weighted statistics.
//!
//! The paper's "average local memory usage" (Fig 12, Table 1) is a
//! *time-weighted* mean of the memory footprint: a container that holds
//! 1 GB for nine minutes and 100 MB for one minute averages 910 MB, not
//! 550 MB. [`TimeSeries`] records value changes as they happen and
//! integrates exactly over simulated time.

use std::fmt;

use faasmem_sim::{SimDuration, SimTime};

use crate::varint;

/// A right-continuous step function of a `f64` value over simulated time.
///
/// The series lives for the whole run and grows with the trace, so it is
/// stored compactly and losslessly (DESIGN § Data layout: run-long logs).
/// Every change point but the last is appended to a byte log as
/// `varint(dt_us << 1 | tag)` — `dt_us` counted from the previous encoded
/// point — followed by either a zigzag varint delta from the previous
/// integer value (`tag = 0`, for values that are exact integers, which
/// byte and page counts always are) or the value's raw eight bytes
/// (`tag = 1`: fractions, −0.0, NaN, ±inf). The last point stays
/// decoded, so same-instant overwrites and equal-value coalescing work in
/// place. Readers decode in one forward pass, except `integral` and
/// `time_weighted_mean` at or after the tail, which read a running
/// integral kept as points are encoded.
///
/// # Examples
///
/// ```
/// use faasmem_metrics::TimeSeries;
/// use faasmem_sim::SimTime;
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::ZERO, 100.0);
/// ts.record(SimTime::from_secs(9), 0.0);
/// // 100.0 for 9s then 0.0 for 1s = 90.0 time-weighted average.
/// assert_eq!(ts.time_weighted_mean(SimTime::from_secs(10)), Some(90.0));
/// ```
#[derive(Clone, Default)]
pub struct TimeSeries {
    /// Every change point but the last, encoded.
    bytes: Vec<u8>,
    /// The last change point, still open to overwrite and coalescing.
    tail: Option<(SimTime, f64)>,
    /// Change points recorded, the tail included.
    len: usize,
    /// Instant of the last encoded point: the base of the next time delta.
    encoded_at: u64,
    /// The last integer-encoded value: the base of the next value delta.
    encoded_int: i64,
    /// Integral up to the tail: each encoded point's value times the gap
    /// to the next point, added in point order as the point is encoded.
    closed_integral: f64,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the value became `value` at instant `at`.
    ///
    /// Repeated records at the same instant overwrite (the last write
    /// wins); consecutive identical values are coalesced.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last recorded instant.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some((last_t, last_v)) = &mut self.tail {
            assert!(at >= *last_t, "time series must be recorded in order");
            if at == *last_t {
                *last_v = value;
                return;
            }
            if *last_v == value {
                return; // coalesce
            }
            let (t, v) = (*last_t, *last_v);
            self.closed_integral += v * at.saturating_since(t).as_secs_f64();
            self.encode(t, v);
        }
        self.tail = Some((at, value));
        self.len += 1;
    }

    /// Appends a closed change point to the byte log.
    fn encode(&mut self, at: SimTime, value: f64) {
        let dt = u128::from(at.as_micros() - self.encoded_at);
        self.encoded_at = at.as_micros();
        let int = value as i64;
        if (int as f64).to_bits() == value.to_bits() {
            varint::put(&mut self.bytes, dt << 1);
            let delta = i128::from(int) - i128::from(self.encoded_int);
            varint::put(&mut self.bytes, varint::zigzag(delta));
            self.encoded_int = int;
        } else {
            varint::put(&mut self.bytes, dt << 1 | 1);
            self.bytes.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }

    /// Number of recorded change points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the series holds, growth slack included.
    pub fn allocated_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// The value at instant `at` (the most recent change at or before
    /// `at`), or `None` if `at` precedes the first record. O(1) at or
    /// after the last change, a forward decode before it.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.tail {
            Some((t, v)) if t <= at => Some(v),
            _ => self
                .iter()
                .take_while(|&(t, _)| t <= at)
                .last()
                .map(|(_, v)| v),
        }
    }

    /// The most recently recorded value.
    pub fn last_value(&self) -> Option<f64> {
        self.tail.map(|(_, v)| v)
    }

    /// Integral of the series from the first record to `until`
    /// (value × seconds). `None` if the series is empty or `until`
    /// precedes the first record. O(1) at or after the last change, a
    /// forward decode before it; both add the same products in the same
    /// order, so the sums agree bit for bit.
    pub fn integral(&self, until: SimTime) -> Option<f64> {
        let (last_t, last_v) = self.tail?;
        if until >= last_t {
            let mut total = self.closed_integral;
            if until > last_t {
                total += last_v * until.saturating_since(last_t).as_secs_f64();
            }
            return Some(total);
        }
        let mut points = self.iter();
        let (mut t0, mut v0) = points.next()?;
        if until < t0 {
            return None;
        }
        let mut total = 0.0;
        for (t1, v1) in points {
            if t0 >= until {
                break;
            }
            total += v0 * t1.min(until).saturating_since(t0).as_secs_f64();
            (t0, v0) = (t1, v1);
        }
        // After a full pass `(t0, v0)` is the last point; after an early
        // break `t0 >= until` and the tail segment is empty.
        if until > t0 {
            total += v0 * until.saturating_since(t0).as_secs_f64();
        }
        Some(total)
    }

    /// Time-weighted mean from the first record to `until`. `None` if the
    /// series is empty or the window has zero width. O(1) at or after the
    /// last change, like [`integral`](TimeSeries::integral).
    pub fn time_weighted_mean(&self, until: SimTime) -> Option<f64> {
        let (first, _) = self.iter().next()?;
        let span = until.checked_since(first)?;
        if span.is_zero() {
            return None;
        }
        Some(self.integral(until)? / span.as_secs_f64())
    }

    /// Maximum recorded value; `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.iter().map(|(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Samples the series at a fixed `interval` from the first record to
    /// `until`, producing `(time, value)` pairs for plotting.
    pub fn sample(&self, interval: SimDuration, until: SimTime) -> Vec<(SimTime, f64)> {
        let mut points = self.iter().peekable();
        let Some(&(first, _)) = points.peek() else {
            return Vec::new();
        };
        assert!(!interval.is_zero(), "sampling interval must be positive");
        let mut out = Vec::new();
        let mut current = None;
        let mut t = first;
        while t <= until {
            while let Some((_, v)) = points.next_if(|&(pt, _)| pt <= t) {
                current = Some(v);
            }
            if let Some(v) = current {
                out.push((t, v));
            }
            t += interval;
        }
        out
    }

    /// Iterates over the recorded change points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        Points {
            bytes: &self.bytes,
            pos: 0,
            at: 0,
            int: 0,
            tail: self.tail,
        }
    }
}

/// Forward decoder over a [`TimeSeries`]: the encoded points, then the
/// tail.
struct Points<'a> {
    bytes: &'a [u8],
    pos: usize,
    at: u64,
    int: i64,
    tail: Option<(SimTime, f64)>,
}

impl Iterator for Points<'_> {
    type Item = (SimTime, f64);

    fn next(&mut self) -> Option<(SimTime, f64)> {
        if self.pos == self.bytes.len() {
            return self.tail.take();
        }
        let head = varint::get(self.bytes, &mut self.pos);
        self.at += (head >> 1) as u64;
        let value = if head & 1 == 0 {
            let delta = varint::unzigzag(varint::get(self.bytes, &mut self.pos));
            self.int = (i128::from(self.int) + delta) as i64;
            self.int as f64
        } else {
            let raw = &self.bytes[self.pos..self.pos + 8];
            self.pos += 8;
            f64::from_bits(u64::from_le_bytes(raw.try_into().expect("eight bytes")))
        };
        Some((SimTime::from_micros(self.at), value))
    }
}

/// Compares the decoded points, with `f64` equality: `0.0 == -0.0`, and a
/// NaN point makes two series unequal.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// Prints the decoded points: `TimeSeries { points: [(t, v), ..] }`.
impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct DecodedPoints<'a>(&'a TimeSeries);
        impl fmt::Debug for DecodedPoints<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("TimeSeries")
            .field("points", &DecodedPoints(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceTimeSeries;

    fn s(v: u64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.value_at(s(5)), None);
        assert_eq!(ts.integral(s(5)), None);
        assert_eq!(ts.time_weighted_mean(s(5)), None);
        assert!(ts.sample(SimDuration::from_secs(1), s(3)).is_empty());
    }

    #[test]
    fn step_lookup() {
        let mut ts = TimeSeries::new();
        ts.record(s(1), 10.0);
        ts.record(s(3), 20.0);
        assert_eq!(ts.value_at(SimTime::ZERO), None);
        assert_eq!(ts.value_at(s(1)), Some(10.0));
        assert_eq!(ts.value_at(s(2)), Some(10.0));
        assert_eq!(ts.value_at(s(3)), Some(20.0));
        assert_eq!(ts.value_at(s(100)), Some(20.0));
    }

    #[test]
    fn weighted_mean_matches_hand_calc() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1000.0);
        ts.record(s(9), 100.0);
        let avg = ts.time_weighted_mean(s(10)).unwrap();
        assert!((avg - 910.0).abs() < 1e-9);
    }

    #[test]
    fn integral_cuts_at_until() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 5.0);
        ts.record(s(10), 0.0);
        assert_eq!(ts.integral(s(4)), Some(20.0));
        assert_eq!(ts.integral(s(10)), Some(50.0));
        assert_eq!(ts.integral(s(20)), Some(50.0));
    }

    #[test]
    fn running_integral_matches_the_forward_sum_bit_for_bit() {
        // A thousand fractional values at uneven gaps: any change to the
        // products or to the order they are added shows in the low bits.
        let mut ts = TimeSeries::new();
        let mut reference = ReferenceTimeSeries::new();
        for i in 0..1_000u64 {
            let at = SimTime::from_micros(i * 1_234_567 + i * i % 997);
            let value = (i * 7_919 % 1_000) as f64 / 7.0;
            ts.record(at, value);
            reference.record(at, value);
        }
        let tail = ts.iter().last().expect("recorded").0;
        for until in [tail, tail + SimDuration::from_micros(333), SimTime::MAX] {
            assert_eq!(
                ts.integral(until).map(f64::to_bits),
                reference.integral(until).map(f64::to_bits),
                "integral {until:?}"
            );
        }
    }

    #[test]
    fn same_instant_overwrites() {
        let mut ts = TimeSeries::new();
        ts.record(s(1), 1.0);
        ts.record(s(1), 2.0);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.value_at(s(1)), Some(2.0));
    }

    #[test]
    fn identical_values_coalesce() {
        let mut ts = TimeSeries::new();
        ts.record(s(1), 7.0);
        ts.record(s(2), 7.0);
        ts.record(s(3), 8.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn out_of_order_panics() {
        let mut ts = TimeSeries::new();
        ts.record(s(5), 1.0);
        ts.record(s(4), 2.0);
    }

    #[test]
    fn max_value_tracks_peak() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 3.0);
        ts.record(s(1), 9.0);
        ts.record(s(2), 4.0);
        assert_eq!(ts.max_value(), Some(9.0));
    }

    #[test]
    fn sampling_is_regular() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1.0);
        ts.record(s(5), 2.0);
        let samples = ts.sample(SimDuration::from_secs(2), s(8));
        assert_eq!(
            samples,
            vec![
                (s(0), 1.0),
                (s(2), 1.0),
                (s(4), 1.0),
                (s(6), 2.0),
                (s(8), 2.0)
            ]
        );
    }

    #[test]
    fn every_value_kind_round_trips() {
        let values = [
            0.0,
            4096.0,
            -0.0,
            -4096.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_993.0,
            -9_007_199_254_740_993.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e300,
        ];
        let mut ts = TimeSeries::new();
        for (i, &v) in values.iter().enumerate() {
            ts.record(s(i as u64), v);
        }
        // The last point sits at the largest instant, so the first time
        // delta spans the whole of `SimTime`.
        ts.record(SimTime::MAX, 1.0);
        let bits: Vec<(SimTime, u64)> = ts.iter().map(|(t, v)| (t, v.to_bits())).collect();
        let mut expected: Vec<(SimTime, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (s(i as u64), v.to_bits()))
            .collect();
        expected.push((SimTime::MAX, 1f64.to_bits()));
        assert_eq!(bits, expected);
    }

    #[test]
    fn equality_compares_values_not_encodings() {
        let series = |v: f64| {
            let mut ts = TimeSeries::new();
            ts.record(s(0), v);
            ts.record(s(1), 1.0);
            ts
        };
        // 0.0 is integer-encoded and −0.0 raw, yet the points compare
        // equal, as `f64` pairs did; a NaN point never equals itself.
        assert_eq!(series(0.0), series(-0.0));
        assert_ne!(series(f64::NAN), series(f64::NAN));
    }

    #[test]
    fn debug_prints_the_decoded_points() {
        let mut ts = TimeSeries::new();
        ts.record(s(0), 1.5);
        ts.record(s(2), 3.0);
        assert_eq!(
            format!("{ts:?}"),
            "TimeSeries { points: [(SimTime(0), 1.5), (SimTime(2000000), 3.0)] }"
        );
    }

    /// Builds one op's `(instant, value)` from raw draws. Times only move
    /// forward: a zero step overwrites the pending tail, and a rare step
    /// jumps to `SimTime::MAX`. Values cover page-multiple
    /// integers, runs of the previous value, fractions, negatives, −0.0,
    /// NaN, ±inf, ±(2^53+1), ±2^63 and arbitrary bit patterns.
    fn oracle_op(at: SimTime, prev: f64, (step, pick, raw): (u8, u8, u64)) -> (SimTime, f64) {
        let us = at.as_micros();
        let at = match step % 16 {
            0..=3 => at,
            4..=10 => SimTime::from_micros(us.saturating_add(1 + raw % 1_000)),
            11..=13 => SimTime::from_micros(us.saturating_add(raw % 1_000_000_000)),
            15 if raw % 16 == 0 => SimTime::MAX,
            // A step of any magnitude, 1 µs to most of `u64`.
            _ => SimTime::from_micros(us.saturating_add(raw >> (raw % 64))),
        };
        let value = match pick % 14 {
            0 | 1 => ((raw >> 20) % 250_000 * 4096) as f64,
            2 | 3 => prev,
            4 => (raw % 100_000) as f64 / 7.0,
            5 => -(((raw >> 8) % 1_000_000) as f64),
            6 => -0.0,
            7 => f64::NAN,
            8 => f64::INFINITY,
            9 => f64::NEG_INFINITY,
            10 => {
                let v = ((1u64 << 53) + 1) as f64;
                if raw % 2 == 0 {
                    v
                } else {
                    -v
                }
            }
            11 => {
                let v = 9_223_372_036_854_775_808.0;
                if raw % 2 == 0 {
                    v
                } else {
                    -v
                }
            }
            12 => f64::from_bits(raw),
            _ => 0.0,
        };
        (at, value)
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    /// Bits of a computed result. Rust leaves the sign and payload of a
    /// NaN produced by arithmetic unspecified (the optimiser may commute
    /// `NaN + NaN`), so every NaN result counts as one value here; stored
    /// points are still compared bit for bit.
    fn result_bits(v: Option<f64>) -> Option<u64> {
        v.map(|v| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
    }

    /// Drives the compact series and the retired `Vec` layout through the
    /// same records and compares every read, floats by bit pattern.
    fn run_oracle(ops: &[(u8, u8, u64)]) {
        let mut compact = TimeSeries::new();
        let mut reference = ReferenceTimeSeries::new();
        let (mut at, mut prev) = (SimTime::ZERO, 0.0);
        let mut prefix = None;
        for (i, &op) in ops.iter().enumerate() {
            (at, prev) = oracle_op(at, prev, op);
            compact.record(at, prev);
            reference.record(at, prev);
            if i == ops.len() / 2 {
                prefix = Some((compact.clone(), reference.clone()));
            }
        }
        assert_eq!(compact.len(), reference.len());
        assert_eq!(compact.is_empty(), reference.is_empty());
        let points: Vec<(SimTime, u64)> = compact.iter().map(|(t, v)| (t, v.to_bits())).collect();
        let expected: Vec<(SimTime, u64)> =
            reference.iter().map(|(t, v)| (t, v.to_bits())).collect();
        assert_eq!(points, expected);
        assert_eq!(
            format!("{compact:?}"),
            format!("{reference:?}").replacen("ReferenceTimeSeries", "TimeSeries", 1)
        );
        assert_eq!(bits(compact.last_value()), bits(reference.last_value()));
        assert_eq!(
            result_bits(compact.max_value()),
            result_bits(reference.max_value())
        );
        let mut probes = vec![SimTime::ZERO, SimTime::MAX];
        for &(t, _) in &points {
            let us = t.as_micros();
            probes
                .extend([us.saturating_sub(1), us, us.saturating_add(1)].map(SimTime::from_micros));
        }
        for &t in &probes {
            assert_eq!(
                bits(compact.value_at(t)),
                bits(reference.value_at(t)),
                "value_at {t:?}"
            );
            assert_eq!(
                result_bits(compact.integral(t)),
                result_bits(reference.integral(t)),
                "integral {t:?}"
            );
            assert_eq!(
                result_bits(compact.time_weighted_mean(t)),
                result_bits(reference.time_weighted_mean(t)),
                "time_weighted_mean {t:?}"
            );
        }
        if let (Some(&(first, _)), Some(&(last, _))) = (points.first(), points.last()) {
            let span = last.as_micros() - first.as_micros();
            let interval = SimDuration::from_micros((span / 16).max(1));
            // Stop one interval short of the end of time so the sampling
            // cursor cannot overflow in either implementation.
            let until = SimTime::from_micros(
                last.as_micros()
                    .saturating_add(interval.as_micros() / 2)
                    .min(u64::MAX - interval.as_micros()),
            );
            let sampled = |v: Vec<(SimTime, f64)>| -> Vec<(SimTime, u64)> {
                v.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
            };
            assert_eq!(
                sampled(compact.sample(interval, until)),
                sampled(reference.sample(interval, until))
            );
        }
        assert_eq!(compact == compact.clone(), reference == reference.clone());
        if let Some((half, reference_half)) = prefix {
            // The probes lie before, at and after the half series' tail:
            // the running integral and the forward decode must agree.
            for &t in &probes {
                assert_eq!(
                    result_bits(half.integral(t)),
                    result_bits(reference_half.integral(t)),
                    "half integral {t:?}"
                );
                assert_eq!(
                    result_bits(half.time_weighted_mean(t)),
                    result_bits(reference_half.time_weighted_mean(t)),
                    "half time_weighted_mean {t:?}"
                );
            }
            assert_eq!(compact == half, reference == reference_half);
            assert_eq!(
                half == half.clone(),
                reference_half == reference_half.clone()
            );
        }
    }

    fn oracle_ops(max_len: usize) -> impl proptest::strategy::Strategy<Value = Vec<(u8, u8, u64)>> {
        proptest::collection::vec((0u8..255, 0u8..255, 0u64..u64::MAX), 0..max_len)
    }

    proptest::proptest! {
        // The equivalence oracle: for arbitrary record scripts (same-instant
        // overwrites, equal-value runs, every value kind, times up to
        // `SimTime::MAX`), the delta-varint series answers every query
        // exactly as the retired `Vec<(SimTime, f64)>` layout did.
        #[test]
        fn prop_compact_series_matches_reference(ops in oracle_ops(120)) {
            run_oracle(&ops);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long run of the oracle above, run explicitly by CI
        /// (`cargo test -p faasmem-metrics --release --lib -- --ignored`).
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn run_log_oracle_extended_series(ops in oracle_ops(300)) {
            run_oracle(&ops);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_mean_bounded_by_extremes(
            vals in proptest::collection::vec(0.0f64..1e6, 1..50),
        ) {
            let mut ts = TimeSeries::new();
            for (i, &v) in vals.iter().enumerate() {
                ts.record(SimTime::from_secs(i as u64), v);
            }
            let until = SimTime::from_secs(vals.len() as u64);
            if let Some(mean) = ts.time_weighted_mean(until) {
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                proptest::prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
            }
        }
    }
}
