//! The retired trace constructors, kept as correctness oracles.
//!
//! Before traces held generators (DESIGN § Data layout: traces),
//! synthesis ran each function's arrival process to the horizon into a
//! buffer, `InvocationTrace::merge` cloned the left trace, appended the
//! right one and stable-sorted the result, and
//! `TraceSynthesizer::synthesize_cluster` concatenated the per-function
//! runs in function order and stable-sorted the whole. All of it is easy
//! to trust and holds every invocation, so the property tests in
//! `trace.rs` and `azure.rs` race the lazy traces against it. Test
//! builds only.

use faasmem_sim::{SimRng, SimTime};

use crate::azure::{cluster_function, ArrivalModel, BurstState, LoadClass, TraceSynthesizer};
use crate::trace::{FunctionId, Invocation, InvocationTrace};

/// The retired `merge`: clone, append, stable sort.
pub fn merge(a: &InvocationTrace, b: &InvocationTrace) -> InvocationTrace {
    assert_eq!(a.duration(), b.duration(), "traces must share a horizon");
    let mut all: Vec<Invocation> = a.iter().collect();
    all.extend(b.iter());
    InvocationTrace::from_invocations(all, a.duration())
}

/// The retired cluster assembly: per-function runs concatenated in
/// function order, then stable-sorted by time.
pub fn concatenate(runs: &[Vec<Invocation>], duration: SimTime) -> InvocationTrace {
    InvocationTrace::from_invocations(runs.concat(), duration)
}

/// The retired materialising loop: appends one function's arrivals up
/// to `horizon` to `out`.
pub fn generate(
    horizon: SimTime,
    function: FunctionId,
    model: ArrivalModel,
    rng: &mut SimRng,
    out: &mut Vec<Invocation>,
) {
    let mut state = BurstState::new();
    // Random phase so clustered functions don't all fire at t=0.
    let mut t = SimTime::ZERO + model.next_gap(rng, &mut state);
    while t <= horizon {
        out.push(Invocation { at: t, function });
        t += model.next_gap(rng, &mut state);
    }
}

/// The retired `synthesize_for`: the function's arrivals, held.
pub fn synthesize_for(synth: &TraceSynthesizer, function: FunctionId) -> InvocationTrace {
    let mut generator = synth.generator(function);
    let mut run = Vec::new();
    let (model, rng) = (generator.model, &mut generator.rng);
    generate(synth.duration, function, model, rng, &mut run);
    InvocationTrace::from_invocations(run, synth.duration)
}

/// The retired `synthesize_cluster`: one run per function, then
/// [`concatenate`].
pub fn synthesize_cluster(
    synth: &TraceSynthesizer,
    functions: u32,
) -> (InvocationTrace, Vec<(FunctionId, LoadClass)>) {
    let mut seed_rng = SimRng::seed_from(synth.seed);
    let mut runs = Vec::new();
    let mut classes = Vec::new();
    for f in 0..functions {
        let function = FunctionId(f);
        let (class, model, mut rng) = cluster_function(&mut seed_rng, function);
        let mut run = Vec::new();
        generate(synth.duration, function, model, &mut rng, &mut run);
        runs.push(run);
        classes.push((function, class));
    }
    (concatenate(&runs, synth.duration), classes)
}

/// The trace with every invocation held: one sorted run.
pub fn materialise(trace: &InvocationTrace) -> InvocationTrace {
    InvocationTrace::from_invocations(trace.iter().collect(), trace.duration())
}

/// Asserts the exact-size contract: every buffer the trace holds, its
/// source list and each held run, has capacity equal to length. On a
/// trace with every invocation held, that is `len × 16` bytes of
/// invocations.
pub fn assert_exact_size(trace: &InvocationTrace) {
    assert_eq!(trace.allocated_bytes(), trace.exact_bytes());
}
