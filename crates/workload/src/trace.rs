//! Invocation traces: the "when" of the workload.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;
use std::iter::FusedIterator;

use faasmem_metrics::Cdf;
use faasmem_sim::SimTime;

use crate::azure::{Arrivals, Generator};

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
/// A trace is a horizon plus an ordered list of sources, each yielding
/// its arrivals in firing order: either one function's arrival
/// generator, replayed on every pass, or a held `Vec` of invocations
/// (explicit traces, file imports). [`iter`] merges the sources on
/// `(at, source index)`, so a synthesized trace costs memory per
/// function, not per invocation, at any horizon. Every buffer a trace
/// holds is at exactly its length (DESIGN § Data layout: traces).
///
/// Equality and `Debug` read the content: a synthesized trace equals
/// the same invocations held explicitly.
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
///
/// [`iter`]: InvocationTrace::iter
#[derive(Clone)]
pub struct InvocationTrace {
    sources: Vec<Source>,
    duration: SimTime,
}

/// Where a run of a trace's arrivals comes from.
#[derive(Debug, Clone)]
enum Source {
    /// One function's arrival process, replayed up to the horizon.
    Generated(Generator),
    /// Invocations in firing order, at exactly their length.
    Held(Vec<Invocation>),
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
        let Some(last) = invocations.last() else {
            return InvocationTrace::empty(duration);
        };
        assert!(
            last.at <= duration,
            "invocation at {} beyond horizon {duration}",
            last.at
        );
        invocations.shrink_to_fit();
        InvocationTrace {
            sources: vec![Source::Held(invocations)],
            duration,
        }
    }

    /// A trace replaying `generators` up to `duration`. Same-instant
    /// arrivals of different generators come out in list order.
    pub(crate) fn generated(
        generators: impl ExactSizeIterator<Item = Generator>,
        duration: SimTime,
    ) -> Self {
        let mut sources = Vec::with_capacity(generators.len());
        sources.extend(generators.map(Source::Generated));
        InvocationTrace { sources, duration }
    }

    /// An empty trace with the given horizon.
    pub fn empty(duration: SimTime) -> Self {
        InvocationTrace {
            sources: Vec::new(),
            duration,
        }
    }

    /// Number of invocations. Generated sources are not held, so this
    /// is one pass over the trace's arrivals.
    pub fn len(&self) -> usize {
        self.sources
            .iter()
            .map(|source| match source {
                Source::Generated(g) => g.arrivals(self.duration).count(),
                Source::Held(run) => run.len(),
            })
            .sum()
    }

    /// `true` when the trace has no invocations.
    pub fn is_empty(&self) -> bool {
        self.sources.iter().all(|source| match source {
            Source::Generated(g) => g.arrivals(self.duration).next().is_none(),
            Source::Held(run) => run.is_empty(),
        })
    }

    /// The trace horizon (simulation end time).
    pub fn duration(&self) -> SimTime {
        self.duration
    }

    /// Iterates over invocations in firing order; on equal `at`, the
    /// earlier source's come first. Allocates here, once, for the
    /// merge's cursors, and never per arrival.
    pub fn iter(&self) -> Iter<'_> {
        let mut cursors = Vec::with_capacity(self.sources.len());
        let mut heads = BinaryHeap::with_capacity(self.sources.len());
        for (source, index) in self.sources.iter().zip(0u32..) {
            let mut cursor = match source {
                Source::Generated(g) => Cursor::Generated(g.arrivals(self.duration)),
                Source::Held(run) => Cursor::Held(run.iter()),
            };
            if let Some(inv) = cursor.next() {
                heads.push(Reverse(Head::new(inv, index)));
            }
            cursors.push(cursor);
        }
        Iter { cursors, heads }
    }

    /// Invocations of one function, in firing order.
    pub fn for_function(&self, function: FunctionId) -> Vec<Invocation> {
        self.iter().filter(|i| i.function == function).collect()
    }

    /// The distinct functions appearing in the trace, ascending.
    pub fn functions(&self) -> Vec<FunctionId> {
        let mut ids: Vec<FunctionId> = self.iter().map(|i| i.function).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Heap bytes the trace holds: its source list plus its held
    /// invocations. A generated source holds no invocations, so a
    /// synthesized trace's bytes do not grow with its horizon.
    pub fn allocated_bytes(&self) -> usize {
        self.bytes(Vec::capacity, self.sources.capacity())
    }

    /// What [`allocated_bytes`] reads when every buffer the trace holds
    /// is at exactly its length.
    ///
    /// [`allocated_bytes`]: InvocationTrace::allocated_bytes
    #[cfg(test)]
    pub(crate) fn exact_bytes(&self) -> usize {
        self.bytes(Vec::len, self.sources.len())
    }

    /// The source list's `slots` plus `held(run)` invocations per held
    /// run, in bytes.
    fn bytes(&self, held: fn(&Vec<Invocation>) -> usize, slots: usize) -> usize {
        let invocations: usize = self
            .sources
            .iter()
            .map(|source| match source {
                Source::Generated(_) => 0,
                Source::Held(run) => held(run),
            })
            .sum();
        slots * std::mem::size_of::<Source>() + invocations * std::mem::size_of::<Invocation>()
    }

    /// Merges two traces over the same horizon by appending `other`'s
    /// sources after `self`'s. The merge is stable: on equal `at`,
    /// `self`'s invocations come first, each side in its own order.
    /// Generators are copied and held runs cloned, so merging
    /// synthesized traces copies no arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the horizons differ.
    pub fn merge(&self, other: &InvocationTrace) -> InvocationTrace {
        assert_eq!(self.duration, other.duration, "traces must share a horizon");
        let mut sources = Vec::with_capacity(self.sources.len() + other.sources.len());
        sources.extend(self.sources.iter().cloned());
        sources.extend(other.sources.iter().cloned());
        InvocationTrace {
            sources,
            duration: self.duration,
        }
    }

    /// Statistics over the trace: request rate and inter-arrival spread.
    pub fn stats(&self) -> TraceStats {
        let mut invocations = 0;
        let mut previous = None;
        let mut intervals = Vec::new();
        for inv in self.iter() {
            invocations += 1;
            if let Some(previous) = previous.replace(inv.at) {
                intervals.push(inv.at.saturating_since(previous).as_secs_f64());
            }
        }
        let interval_cdf = Cdf::from_samples(intervals);
        let minutes = self.duration.as_secs_f64() / 60.0;
        TraceStats {
            invocations,
            req_per_min: if minutes > 0.0 {
                invocations as f64 / minutes
            } else {
                0.0
            },
            mean_interval_secs: interval_cdf.mean().unwrap_or(0.0),
            interval_std_secs: interval_cdf.std_dev().unwrap_or(0.0),
        }
    }
}

impl PartialEq for InvocationTrace {
    fn eq(&self, other: &Self) -> bool {
        self.duration == other.duration && self.iter().eq(other.iter())
    }
}

impl Eq for InvocationTrace {}

impl fmt::Debug for InvocationTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Content<'a>(&'a InvocationTrace);
        impl fmt::Debug for Content<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("InvocationTrace")
            .field("invocations", &Content(self))
            .field("duration", &self.duration)
            .finish()
    }
}

/// A source's next arrival, ordered by `(at, source index)`; the
/// function never decides, since source indices are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    at: SimTime,
    source: u32,
    function: FunctionId,
}

impl Head {
    fn new(inv: Invocation, source: u32) -> Self {
        Head {
            at: inv.at,
            source,
            function: inv.function,
        }
    }
}

/// One source's read position.
#[derive(Debug, Clone)]
enum Cursor<'a> {
    Generated(Arrivals),
    Held(std::slice::Iter<'a, Invocation>),
}

impl Iterator for Cursor<'_> {
    type Item = Invocation;

    fn next(&mut self) -> Option<Invocation> {
        match self {
            Cursor::Generated(arrivals) => arrivals.next(),
            Cursor::Held(run) => run.next().copied(),
        }
    }
}

/// The invocations of an [`InvocationTrace`] in firing order: a k-way
/// merge over a min-heap of each source's next arrival.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    cursors: Vec<Cursor<'a>>,
    heads: BinaryHeap<Reverse<Head>>,
}

impl Iterator for Iter<'_> {
    type Item = Invocation;

    fn next(&mut self) -> Option<Invocation> {
        let mut top = self.heads.peek_mut()?;
        let Reverse(head) = *top;
        match self.cursors[head.source as usize].next() {
            Some(inv) => *top = Reverse(Head::new(inv, head.source)),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(Invocation {
            at: head.at,
            function: head.function,
        })
    }
}

impl FusedIterator for Iter<'_> {}

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
    use faasmem_sim::SimDuration;

    use super::*;
    use crate::reference;
    use crate::{ArrivalModel, LoadClass, TraceSynthesizer};

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
        let synth = TraceSynthesizer::new(4).duration(SimTime::from_secs(10));
        let lazy = synth.synthesize_for(FunctionId(2));
        reference::assert_exact_size(&lazy);
        reference::assert_exact_size(&lazy.merge(&built));
        reference::assert_exact_size(&synth.synthesize_cluster(9).0);
    }

    #[test]
    fn held_invocations_cost_16_bytes_each() {
        let synth = TraceSynthesizer::new(6).duration(SimTime::from_mins(30));
        let held = reference::materialise(&synth.synthesize_cluster(12).0);
        assert!(held.len() > 100);
        assert_eq!(
            held.allocated_bytes(),
            std::mem::size_of::<Source>() + 16 * held.len()
        );
        reference::assert_exact_size(&held);
        assert_eq!(InvocationTrace::empty(SimTime::ZERO).allocated_bytes(), 0);
    }

    #[test]
    fn lazy_traces_equal_their_held_twins() {
        let synth = TraceSynthesizer::new(31).duration(SimTime::from_mins(20));
        let (lazy, _) = synth.synthesize_cluster(16);
        let held = reference::materialise(&lazy);
        assert_eq!(lazy, held);
        assert_eq!(held, lazy);
        assert_eq!(format!("{lazy:?}"), format!("{held:?}"));
        assert_eq!(lazy.len(), held.len());
        assert_eq!(lazy.stats(), held.stats());
        assert_eq!(lazy.functions(), held.functions());
        // Content, horizon included, decides equality.
        let longer = synth.clone().duration(SimTime::from_mins(21));
        assert_ne!(lazy, longer.synthesize_cluster(16).0);
        assert_ne!(lazy, lazy.merge(&lazy));
        assert_eq!(
            InvocationTrace::empty(SimTime::from_mins(20)),
            synth.synthesize_cluster(0).0
        );
    }

    /// Races `merge` against the retired clone-append-stable-sort.
    fn check_merge(a: &[(u64, u32)], b: &[(u64, u32)]) {
        let (a, b) = (scripted(a), scripted(b));
        let merged = a.merge(&b);
        assert_eq!(merged, reference::merge(&a, &b));
        reference::assert_exact_size(&merged);
        reference::assert_exact_size(&a);
    }

    /// Races a fold of merges over `runs`, which must be in function
    /// order, each in firing order, against the retired
    /// concatenate-and-stable-sort: the merge's `(at, source index)`
    /// order must be the old `(at, function)` order.
    fn check_function_runs(runs: &[Vec<Invocation>], horizon: SimTime) -> InvocationTrace {
        let built = runs
            .iter()
            .fold(InvocationTrace::empty(horizon), |trace, run| {
                trace.merge(&InvocationTrace::from_invocations(run.clone(), horizon))
            });
        assert_eq!(built, reference::concatenate(runs, horizon));
        reference::assert_exact_size(&built);
        built
    }

    /// `u64::MAX` cut to its low `bits` bits: the largest value `bits`
    /// bits write.
    fn all_ones(bits: u32) -> u64 {
        u64::MAX.checked_shr(u64::BITS - bits).unwrap_or(0)
    }

    /// One function-runs case: a horizon of exactly `horizon_bits` bits;
    /// four function ids of at most `id_bits` bits, the widest `id_bits`
    /// wide; and `(instant, function)` draws over eight instants (0, the
    /// horizon and six drawn ones), so arrivals collide within and
    /// across functions.
    type RunsCase = (u32, u32, Vec<u64>, Vec<(usize, usize)>);

    fn runs_case(max_len: usize) -> impl proptest::strategy::Strategy<Value = RunsCase> {
        (
            0u32..65,
            0u32..33,
            proptest::collection::vec(0u64..u64::MAX, 6..7),
            proptest::collection::vec((0usize..8, 0usize..4), 0..max_len),
        )
    }

    fn check_runs_case((horizon_bits, id_bits, drawn, ops): RunsCase) {
        let horizon = all_ones(horizon_bits);
        let top = all_ones(id_bits) as u32;
        let ids = [0, top / 3, top / 2, top];
        let mut instants = vec![0, horizon];
        instants.extend(drawn.iter().map(|&x| x % horizon.saturating_add(1)));
        let mut runs = vec![Vec::new(); ids.len()];
        for &(instant, f) in &ops {
            runs[f].push(Invocation {
                at: SimTime::from_micros(instants[instant]),
                function: FunctionId(ids[f]),
            });
        }
        for run in &mut runs {
            run.sort_by_key(|i| i.at);
        }
        check_function_runs(&runs, SimTime::from_micros(horizon));
    }

    /// One step of a mixed fold: `(2 × kind + side, seed, function,
    /// script)`; side 0 merges the new trace on the right, 1 on the left.
    type FoldStep = (u8, u64, u32, Vec<(u64, u32)>);

    fn fold_steps(
        steps: usize,
        script_len: usize,
    ) -> impl proptest::strategy::Strategy<Value = Vec<FoldStep>> {
        proptest::collection::vec(
            (0u8..10, 0u64..u64::MAX, 0u32..4, script(script_len)),
            0..steps,
        )
    }

    /// Folds `steps` into one trace with `merge`, on generated and held
    /// traces alike (the rack's fold of synthesized functions, and
    /// traces read from files), and races it against the same fold of
    /// held traces through the retired generation loop and merge. Kinds:
    /// 0, a Poisson function dense enough to fire several times a
    /// second; 1, a scripted held trace; 2, a small synthesized cluster;
    /// 3, a function drawn by load class; 4, a synthesized function
    /// beside its own held twin, so generated and held arrivals tie.
    /// The new trace goes on the left or the right; the fold is also
    /// merged with itself, so every arrival ties with its copy.
    fn check_mixed_fold(steps: &[FoldStep]) {
        let horizon = SimTime::from_secs(HORIZON_SECS);
        let mut lazy = InvocationTrace::empty(horizon);
        let mut held = InvocationTrace::empty(horizon);
        for (step, seed, function, ops) in steps {
            let synth = TraceSynthesizer::new(*seed).duration(horizon);
            let function = FunctionId(*function);
            let (new, twin) = match step / 2 {
                0 => {
                    let synth = synth.arrival_model(ArrivalModel::Poisson {
                        mean_gap: SimDuration::from_millis(400),
                    });
                    let twin = reference::synthesize_for(&synth, function);
                    (synth.synthesize_for(function), twin)
                }
                1 => (scripted(ops), scripted(ops)),
                2 => {
                    let twin = reference::synthesize_cluster(&synth, function.0 + 1).0;
                    (synth.synthesize_cluster(function.0 + 1).0, twin)
                }
                3 => {
                    let synth = synth.load_class(LoadClass::High).bursty(seed % 2 == 0);
                    let twin = reference::synthesize_for(&synth, function);
                    (synth.synthesize_for(function), twin)
                }
                _ => {
                    let synth = synth.arrival_model(ArrivalModel::Bursty {
                        idle_gap: SimDuration::from_secs(2),
                        burst_gap: SimDuration::from_millis(100),
                        idle_period: SimDuration::from_secs(3),
                        burst_period: SimDuration::from_secs(1),
                    });
                    let twin = reference::synthesize_for(&synth, function);
                    (
                        synth.synthesize_for(function).merge(&twin),
                        reference::merge(&twin, &twin),
                    )
                }
            };
            (lazy, held) = if step % 2 == 1 {
                (new.merge(&lazy), reference::merge(&twin, &held))
            } else {
                (lazy.merge(&new), reference::merge(&held, &twin))
            };
        }
        let doubled = lazy.merge(&lazy);
        assert_eq!(lazy, held);
        assert_eq!(doubled, reference::merge(&held, &held));
        assert_eq!(lazy.len(), held.len());
        reference::assert_exact_size(&lazy);
        reference::assert_exact_size(&doubled);
        reference::assert_exact_size(&reference::materialise(&doubled));
    }

    proptest::proptest! {
        // The merge against the retired clone-append-stable-sort, on
        // traces with same-instant arrivals within and across functions,
        // empty traces, arrivals on the horizon, and a long side whose
        // runs outlast the other side's.
        #[test]
        fn prop_merge_matches_reference(a in script(24), b in script(24), long in script(160)) {
            check_merge(&a, &b);
            check_merge(&long, &b);
            check_merge(&b, &long);
        }

        // Merged per-function runs against the retired
        // concatenate-and-stable-sort: horizons of 0 to 64 bits, function
        // ids of 0 to 32 bits, and crowded instants.
        #[test]
        fn prop_function_runs_match_reference(case in runs_case(200)) {
            check_runs_case(case);
        }

        // Mixed folds of generated and held traces against the same fold
        // of held traces through the retired generation loop and merge.
        #[test]
        fn prop_mixed_folds_match_reference(steps in fold_steps(8, 12)) {
            check_mixed_fold(&steps);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long runs of the oracles above, run explicitly by CI
        /// (`cargo test -p faasmem-workload --release --lib -- --ignored`).
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn trace_assembly_oracle_extended_merge(a in script(60), b in script(60), long in script(400)) {
            check_merge(&a, &b);
            check_merge(&long, &b);
            check_merge(&b, &long);
        }

        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn trace_assembly_oracle_extended_function_runs(case in runs_case(600)) {
            check_runs_case(case);
        }

        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn trace_assembly_oracle_extended_mixed_folds(steps in fold_steps(16, 40)) {
            check_mixed_fold(&steps);
        }
    }

    /// One function `f`'s run at the given microsecond instants.
    fn run_at(f: u32, micros: &[u64]) -> Vec<Invocation> {
        micros
            .iter()
            .map(|&at| Invocation {
                at: SimTime::from_micros(at),
                function: FunctionId(f),
            })
            .collect()
    }

    #[test]
    fn function_runs_of_zero_and_one_invocation() {
        check_function_runs(&[], SimTime::from_secs(1));
        check_function_runs(&[run_at(7, &[3])], SimTime::from_micros(3));
        check_function_runs(&[run_at(u32::MAX, &[0])], SimTime::ZERO);
        check_function_runs(&[vec![], run_at(1, &[2]), vec![]], SimTime::from_micros(2));
    }

    #[test]
    fn function_runs_crowding_one_instant_on_the_horizon() {
        // 64 functions firing together on the horizon, after one early
        // arrival each: the last 64 arrivals come out in function order.
        let horizon = SimTime::from_secs(60);
        let runs: Vec<_> = (0..64)
            .map(|f| run_at(f * 1000, &[u64::from(f), horizon.as_micros()]))
            .collect();
        let built = check_function_runs(&runs, horizon);
        let last: Vec<u32> = built.iter().skip(64).map(|i| i.function.0).collect();
        assert_eq!(last, (0..64).map(|f| f * 1000).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn function_runs_past_horizon_panic() {
        check_function_runs(&[run_at(0, &[11])], SimTime::from_micros(10));
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
