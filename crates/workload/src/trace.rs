//! Invocation traces: the "when" of the workload.

use std::fmt;

use faasmem_metrics::Cdf;
use faasmem_sim::SimTime;

/// Identifies a registered function within a platform run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(pub u32);

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// One invocation request: a firing timestamp and a target function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// When the request arrives at the gateway.
    pub at: SimTime,
    /// The function invoked.
    pub function: FunctionId,
}

/// A time-sorted sequence of invocations over a fixed horizon.
///
/// A trace is built once and read for a whole run, so every constructor
/// leaves exactly `len` invocations of capacity, with no growth slack
/// (DESIGN § Data layout: traces).
///
/// # Examples
///
/// ```
/// use faasmem_workload::{FunctionId, Invocation, InvocationTrace};
/// use faasmem_sim::SimTime;
///
/// let trace = InvocationTrace::from_invocations(
///     vec![
///         Invocation { at: SimTime::from_secs(3), function: FunctionId(0) },
///         Invocation { at: SimTime::from_secs(1), function: FunctionId(0) },
///     ],
///     SimTime::from_secs(10),
/// );
/// assert_eq!(trace.len(), 2);
/// assert!(trace.iter().next().unwrap().at == SimTime::from_secs(1)); // sorted
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationTrace {
    invocations: Vec<Invocation>,
    duration: SimTime,
}

impl InvocationTrace {
    /// Builds a trace, sorting invocations by time (stable, so same-time
    /// arrivals keep their relative order). Growth slack in
    /// `invocations` is released.
    ///
    /// # Panics
    ///
    /// Panics if any invocation fires after `duration`.
    pub fn from_invocations(mut invocations: Vec<Invocation>, duration: SimTime) -> Self {
        invocations.sort_by_key(|inv| inv.at);
        InvocationTrace::from_sorted(invocations, duration)
    }

    /// Builds a trace, sorting invocations by `(at, function)` in place:
    /// no scratch buffer, unlike [`from_invocations`]' stable sort. On
    /// per-function runs concatenated in function order the two orders
    /// agree, since two invocations equal in `(at, function)` are equal.
    ///
    /// [`from_invocations`]: InvocationTrace::from_invocations
    pub(crate) fn from_function_runs(mut invocations: Vec<Invocation>, duration: SimTime) -> Self {
        invocations.sort_unstable_by_key(|inv| (inv.at, inv.function));
        InvocationTrace::from_sorted(invocations, duration)
    }

    /// Wraps invocations already in firing order, releasing growth slack.
    ///
    /// # Panics
    ///
    /// Panics if any invocation fires after `duration`.
    pub(crate) fn from_sorted(mut invocations: Vec<Invocation>, duration: SimTime) -> Self {
        debug_assert!(
            invocations.is_sorted_by_key(|inv| inv.at),
            "invocations must be in firing order"
        );
        if let Some(last) = invocations.last() {
            assert!(
                last.at <= duration,
                "invocation at {} beyond horizon {duration}",
                last.at
            );
        }
        invocations.shrink_to_fit();
        InvocationTrace {
            invocations,
            duration,
        }
    }

    /// An empty trace with the given horizon.
    pub fn empty(duration: SimTime) -> Self {
        InvocationTrace {
            invocations: Vec::new(),
            duration,
        }
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// `true` when the trace has no invocations.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// The trace horizon (simulation end time).
    pub fn duration(&self) -> SimTime {
        self.duration
    }

    /// Iterates over invocations in firing order.
    pub fn iter(&self) -> impl Iterator<Item = &Invocation> + '_ {
        self.invocations.iter()
    }

    /// Invocations of one function, in firing order.
    pub fn for_function(&self, function: FunctionId) -> Vec<Invocation> {
        self.invocations
            .iter()
            .filter(|i| i.function == function)
            .copied()
            .collect()
    }

    /// The distinct functions appearing in the trace, ascending.
    pub fn functions(&self) -> Vec<FunctionId> {
        let mut ids: Vec<FunctionId> = self.invocations.iter().map(|i| i.function).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Heap bytes the trace holds: exactly `len` invocations, since
    /// every constructor releases growth slack.
    pub fn allocated_bytes(&self) -> usize {
        self.invocations.capacity() * std::mem::size_of::<Invocation>()
    }

    /// Merges two traces over the same horizon in one linear pass into an
    /// exactly sized buffer. The merge is stable: on equal `at`, `self`'s
    /// invocations come first, each side in its own order.
    ///
    /// # Panics
    ///
    /// Panics if the horizons differ.
    pub fn merge(&self, other: &InvocationTrace) -> InvocationTrace {
        assert_eq!(self.duration, other.duration, "traces must share a horizon");
        let (a, b) = (&self.invocations, &other.invocations);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if b[j].at < a[i].at {
                merged.push(b[j]);
                j += 1;
            } else {
                merged.push(a[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        InvocationTrace {
            invocations: merged,
            duration: self.duration,
        }
    }

    /// Statistics over the trace: request rate and inter-arrival spread.
    pub fn stats(&self) -> TraceStats {
        let intervals: Vec<f64> = self
            .invocations
            .windows(2)
            .map(|w| w[1].at.saturating_since(w[0].at).as_secs_f64())
            .collect();
        let interval_cdf = Cdf::from_samples(intervals);
        let minutes = self.duration.as_secs_f64() / 60.0;
        TraceStats {
            invocations: self.invocations.len(),
            req_per_min: if minutes > 0.0 {
                self.invocations.len() as f64 / minutes
            } else {
                0.0
            },
            mean_interval_secs: interval_cdf.mean().unwrap_or(0.0),
            interval_std_secs: interval_cdf.std_dev().unwrap_or(0.0),
        }
    }
}

/// Summary statistics of a trace (Fig 16's x-axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total invocations.
    pub invocations: usize,
    /// Mean request rate in requests per minute.
    pub req_per_min: f64,
    /// Mean inter-arrival gap in seconds.
    pub mean_interval_secs: f64,
    /// Standard deviation (σ) of inter-arrival gaps in seconds — the
    /// paper's burstiness proxy in Fig 16.
    pub interval_std_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn inv(secs: u64, f: u32) -> Invocation {
        Invocation {
            at: SimTime::from_secs(secs),
            function: FunctionId(f),
        }
    }

    #[test]
    fn construction_sorts() {
        let t = InvocationTrace::from_invocations(
            vec![inv(5, 0), inv(1, 1), inv(3, 0)],
            SimTime::from_secs(10),
        );
        let times: Vec<u64> = t.iter().map(|i| i.at.as_micros() / 1_000_000).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn invocation_past_horizon_panics() {
        let _ = InvocationTrace::from_invocations(vec![inv(11, 0)], SimTime::from_secs(10));
    }

    #[test]
    fn per_function_filtering() {
        let t = InvocationTrace::from_invocations(
            vec![inv(1, 0), inv(2, 1), inv(3, 0)],
            SimTime::from_secs(10),
        );
        assert_eq!(t.for_function(FunctionId(0)).len(), 2);
        assert_eq!(t.for_function(FunctionId(1)).len(), 1);
        assert_eq!(t.for_function(FunctionId(9)).len(), 0);
        assert_eq!(t.functions(), vec![FunctionId(0), FunctionId(1)]);
    }

    #[test]
    fn merge_interleaves() {
        let a = InvocationTrace::from_invocations(vec![inv(1, 0)], SimTime::from_secs(10));
        let b = InvocationTrace::from_invocations(vec![inv(2, 1)], SimTime::from_secs(10));
        let m = a.merge(&b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.functions().len(), 2);
    }

    /// The horizon of the scripted traces, in seconds: small, so arrivals
    /// collide often and some land exactly on it.
    const HORIZON_SECS: u64 = 6;

    /// A trace from a script of `(second, function)` draws, in script
    /// order before the stable sort.
    fn scripted(ops: &[(u64, u32)]) -> InvocationTrace {
        let invs = ops.iter().map(|&(at, f)| inv(at, f)).collect();
        InvocationTrace::from_invocations(invs, SimTime::from_secs(HORIZON_SECS))
    }

    fn script(max_len: usize) -> impl proptest::strategy::Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((0..HORIZON_SECS + 1, 0u32..3), 0..max_len)
    }

    #[test]
    fn merge_puts_self_first_on_ties() {
        let a = scripted(&[(1, 2), (3, 0), (6, 1)]);
        let b = scripted(&[(1, 0), (3, 1), (6, 0)]);
        let got: Vec<(u64, u32)> = a
            .merge(&b)
            .iter()
            .map(|i| (i.at.as_micros() / 1_000_000, i.function.0))
            .collect();
        assert_eq!(got, [(1, 2), (1, 0), (3, 0), (3, 1), (6, 1), (6, 0)]);
    }

    #[test]
    fn every_constructor_is_exactly_sized() {
        let mut invs = Vec::with_capacity(64);
        invs.extend([inv(5, 0), inv(1, 1)]);
        let built = InvocationTrace::from_invocations(invs, SimTime::from_secs(10));
        reference::assert_exact_size(&built);
        reference::assert_exact_size(&built.merge(&built));
        reference::assert_exact_size(&InvocationTrace::empty(SimTime::from_secs(10)));
    }

    proptest::proptest! {
        // The linear merge against the retired clone-append-stable-sort,
        // on traces with same-instant arrivals within and across
        // functions, empty traces and arrivals on the horizon.
        #[test]
        fn prop_merge_matches_reference(a in script(24), b in script(24)) {
            let (a, b) = (scripted(&a), scripted(&b));
            let merged = a.merge(&b);
            proptest::prop_assert_eq!(&merged, &reference::merge(&a, &b));
            reference::assert_exact_size(&merged);
            reference::assert_exact_size(&a);
        }

        // The in-place `(at, function)` sort against the retired
        // concatenate-and-stable-sort, on per-function runs in function
        // order with the same kinds of collisions.
        #[test]
        fn prop_function_runs_match_reference(ops in script(40)) {
            let mut runs = vec![Vec::new(); 3];
            for &(at, f) in &ops {
                runs[f as usize].push(inv(at, f));
            }
            for run in &mut runs {
                run.sort_by_key(|i| i.at);
            }
            let horizon = SimTime::from_secs(HORIZON_SECS);
            let built = InvocationTrace::from_function_runs(runs.concat(), horizon);
            proptest::prop_assert_eq!(&built, &reference::concatenate(&runs, horizon));
            reference::assert_exact_size(&built);
        }
    }

    #[test]
    #[should_panic(expected = "share a horizon")]
    fn merge_horizon_mismatch_panics() {
        let a = InvocationTrace::empty(SimTime::from_secs(10));
        let b = InvocationTrace::empty(SimTime::from_secs(20));
        let _ = a.merge(&b);
    }

    #[test]
    fn stats_on_regular_trace() {
        // One request every 30 s over an hour: 2 req/min, σ = 0.
        let invs: Vec<Invocation> = (0..120).map(|i| inv(i * 30, 0)).collect();
        let t = InvocationTrace::from_invocations(invs, SimTime::from_mins(60));
        let s = t.stats();
        assert_eq!(s.invocations, 120);
        assert!((s.req_per_min - 2.0).abs() < 1e-9);
        assert!((s.mean_interval_secs - 30.0).abs() < 1e-9);
        assert!(s.interval_std_secs.abs() < 1e-9);
    }

    #[test]
    fn stats_on_empty_trace() {
        let t = InvocationTrace::empty(SimTime::from_mins(1));
        let s = t.stats();
        assert_eq!(s.invocations, 0);
        assert_eq!(s.req_per_min, 0.0);
        assert!(t.is_empty());
    }
}
