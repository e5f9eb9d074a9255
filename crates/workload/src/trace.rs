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

    /// Builds a trace ordered by `(at, function)`: same-instant arrivals
    /// come out in function order. Invocations equal in `(at, function)`
    /// are equal values, so the result does not depend on the input
    /// order. On per-function runs, each in firing order and concatenated
    /// in function order, it is exactly what [`from_invocations`]' stable
    /// sort gives, and what a fold of [`merge`]s in function order gives.
    ///
    /// The order is built in place, in linear time on trace-shaped input:
    /// a counting pass over time buckets of packed
    /// `at << function bits | function` keys, then a sort of each short
    /// bucket. It needs no buffer beyond one `u32` count per bucket: no
    /// key array and no second invocation buffer (DESIGN § Data layout:
    /// traces). Keys whose within-bucket residue is wider than 32 bits
    /// (a long horizon with wide function ids), or more than `u32::MAX`
    /// invocations, fall back to an in-place comparison sort.
    /// Growth slack in `invocations` is released.
    ///
    /// # Panics
    ///
    /// Panics if any invocation fires after `duration`.
    ///
    /// [`from_invocations`]: InvocationTrace::from_invocations
    /// [`merge`]: InvocationTrace::merge
    pub fn from_function_runs(mut invocations: Vec<Invocation>, duration: SimTime) -> Self {
        let (mut latest, mut top) = (SimTime::ZERO, 0);
        for inv in &invocations {
            latest = latest.max(inv.at);
            top = top.max(inv.function.0);
        }
        assert!(
            latest <= duration,
            "invocation at {latest} beyond horizon {duration}"
        );
        let function_bits = bit_width(u64::from(top));
        let key_bits = bit_width(duration.as_micros()) + function_bits;
        let buckets = (invocations.len().next_power_of_two() / 4).max(1);
        let residue_bits = key_bits.saturating_sub(buckets.trailing_zeros());
        if residue_bits <= u32::BITS && invocations.len() <= u32::MAX as usize {
            sort_in_buckets(&mut invocations, function_bits, residue_bits, buckets);
        } else {
            invocations.sort_unstable_by_key(|inv| (inv.at, inv.function));
        }
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

/// Bits needed to write `x`: 0 for 0.
fn bit_width(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Sorts `invocations` by `(at, function)` in place, through the packed
/// keys `at << function_bits | function`, which order exactly as the
/// pairs do. A key's top bits, `key >> residue_bits`, pick one of
/// `buckets` buckets (every key is below `buckets << residue_bits`); its
/// low `residue_bits` bits, at most 32, are its residue within the
/// bucket.
///
/// No buffer is needed beyond one `u32` count per bucket. Each
/// invocation's key is first packed into its own `at` field, which
/// frees every `function` field. The keys are counted into buckets, and
/// each key's residue is written into the `function` field of the next
/// free slot of its bucket, so the slots fill bucket by bucket. A bucket
/// holds only keys below the next bucket's, so ordering each bucket by
/// residue orders the whole; a bucket's index and a slot's residue then
/// decode back into the invocation. A bucket holds a few keys on
/// trace-shaped input, which `sort_unstable` orders by insertion; a
/// dense burst costs it `k log k`, not `k²`.
fn sort_in_buckets(
    invocations: &mut [Invocation],
    function_bits: u32,
    residue_bits: u32,
    buckets: usize,
) {
    for inv in invocations.iter_mut() {
        let key = (inv.at.as_micros() << function_bits) | u64::from(inv.function.0);
        inv.at = SimTime::from_micros(key);
    }
    let bucket = |key: u64| (key >> residue_bits) as usize;
    // Bucket counts, then each bucket's first slot, then (after the
    // scatter) one past its last.
    let mut ends = vec![0u32; buckets];
    for inv in invocations.iter() {
        ends[bucket(inv.at.as_micros())] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        (*end, start) = (start, start + *end);
    }
    let residue_mask = (1u64 << residue_bits) - 1;
    for i in 0..invocations.len() {
        let key = invocations[i].at.as_micros();
        let slot = &mut ends[bucket(key)];
        invocations[*slot as usize].function = FunctionId((key & residue_mask) as u32);
        *slot += 1;
    }
    let function_mask = (1u64 << function_bits) - 1;
    let mut start = 0;
    for (b, &end) in ends.iter().enumerate() {
        let run = &mut invocations[start..end as usize];
        run.sort_unstable_by_key(|inv| inv.function);
        for inv in run {
            let key = ((b as u64) << residue_bits) | u64::from(inv.function.0);
            *inv = Invocation {
                at: SimTime::from_micros(key >> function_bits),
                function: FunctionId((key & function_mask) as u32),
            };
        }
        start = end as usize;
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

    /// Races `merge` against the retired clone-append-stable-sort.
    fn check_merge(a: &[(u64, u32)], b: &[(u64, u32)]) {
        let (a, b) = (scripted(a), scripted(b));
        let merged = a.merge(&b);
        assert_eq!(merged, reference::merge(&a, &b));
        reference::assert_exact_size(&merged);
        reference::assert_exact_size(&a);
    }

    /// Races `from_function_runs` against the retired
    /// concatenate-and-stable-sort on `runs`, which must be in function
    /// order, each in firing order.
    fn check_function_runs(runs: &[Vec<Invocation>], horizon: SimTime) {
        let built = InvocationTrace::from_function_runs(runs.concat(), horizon);
        assert_eq!(built, reference::concatenate(runs, horizon));
        reference::assert_exact_size(&built);
    }

    /// `u64::MAX` cut to its low `bits` bits: the largest value `bits`
    /// bits write.
    fn all_ones(bits: u32) -> u64 {
        u64::MAX.checked_shr(u64::BITS - bits).unwrap_or(0)
    }

    /// One `from_function_runs` case: a horizon of exactly `horizon_bits`
    /// bits; four function ids of at most `id_bits` bits, the widest
    /// `id_bits` wide; and `(instant, function)` draws over eight
    /// instants (0, the horizon and six drawn ones), so arrivals collide
    /// within and across functions and crowd single buckets.
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

    proptest::proptest! {
        // The linear merge against the retired clone-append-stable-sort,
        // on traces with same-instant arrivals within and across
        // functions, empty traces, arrivals on the horizon, and a long
        // side whose runs outlast the other side's.
        #[test]
        fn prop_merge_matches_reference(a in script(24), b in script(24), long in script(160)) {
            check_merge(&a, &b);
            check_merge(&long, &b);
            check_merge(&b, &long);
        }

        // The in-place bucket pass against the retired
        // concatenate-and-stable-sort, on per-function runs in function
        // order: horizons of 0 to 64 bits and function ids of 0 to 32
        // bits (so the key is 0 to 96 bits wide, and its residue both
        // fits 32 bits and falls back), and crowded instants.
        #[test]
        fn prop_function_runs_match_reference(case in runs_case(200)) {
            check_runs_case(case);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long runs of the two oracles above, run explicitly by CI
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
    }

    #[test]
    fn function_runs_crowding_one_instant_on_the_horizon() {
        // 64 functions firing together on the horizon, after one early
        // arrival each: one bucket holds 64 keys in function order.
        let horizon = SimTime::from_secs(60);
        let runs: Vec<_> = (0..64)
            .map(|f| run_at(f * 1000, &[u64::from(f), horizon.as_micros()]))
            .collect();
        check_function_runs(&runs, horizon);
        let built = InvocationTrace::from_function_runs(runs.concat(), horizon);
        let last: Vec<u32> = built.iter().skip(64).map(|i| i.function.0).collect();
        assert_eq!(last, (0..64).map(|f| f * 1000).collect::<Vec<_>>());
    }

    /// Functions 0, 1, 2^31 and `u32::MAX`, each firing at `instants`.
    fn widest_ids_at(instants: &[u64]) -> Vec<Vec<Invocation>> {
        [0, 1, 1 << 31, u32::MAX]
            .iter()
            .map(|&f| run_at(f, instants))
            .collect()
    }

    #[test]
    fn function_runs_with_a_32_bit_residue_pack() {
        // 256 invocations make 64 buckets (6 bits); a 6-bit horizon and
        // 32-bit function ids make a 38-bit key, so the residue is
        // exactly 32 bits.
        let instants: Vec<u64> = (0..64).collect();
        check_function_runs(&widest_ids_at(&instants), SimTime::from_micros(63));
    }

    #[test]
    fn function_runs_with_a_33_bit_residue_fall_back_to_the_comparison_sort() {
        // The same 256 invocations over a 7-bit horizon: their 33-bit
        // residues would not fit a `function` field, and a packed pass
        // would drop the low bit of every odd instant.
        let instants: Vec<u64> = (0..64).map(|i| 2 * i + 1).collect();
        check_function_runs(&widest_ids_at(&instants), SimTime::from_micros(127));
    }

    #[test]
    fn function_runs_at_64_and_65_key_bits_fall_back_to_the_comparison_sort() {
        // A 32-bit horizon and 32-bit function ids fill a 64-bit key,
        // and a 33-bit horizon overflows it.
        for horizon_bits in [32, 33] {
            let horizon = all_ones(horizon_bits);
            let late = 1 << (horizon_bits - 1);
            let runs = [
                run_at(0, &[late, horizon]),
                run_at(5, &[1, late - 1, late]),
                run_at(u32::MAX, &[0, late, horizon]),
            ];
            check_function_runs(&runs, SimTime::from_micros(horizon));
        }
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn function_runs_past_horizon_panic() {
        let _ = InvocationTrace::from_function_runs(run_at(0, &[11]), SimTime::from_micros(10));
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
