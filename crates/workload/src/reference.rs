//! The retired trace constructors, kept as correctness oracles.
//!
//! Before traces were built at exact size (DESIGN § Data layout:
//! traces), `InvocationTrace::merge` cloned the left trace, appended the
//! right one and stable-sorted the result, and
//! `TraceSynthesizer::synthesize_cluster` built one trace per function,
//! concatenated them in function order and stable-sorted the whole. Both
//! are easy to trust, so the property tests in `trace.rs` and `azure.rs`
//! race the new constructors against them. Test builds only.

use faasmem_sim::{SimRng, SimTime};

use crate::azure::{cluster_function, LoadClass, TraceSynthesizer};
use crate::trace::{FunctionId, Invocation, InvocationTrace};

/// The retired `merge`: clone, append, stable sort.
pub fn merge(a: &InvocationTrace, b: &InvocationTrace) -> InvocationTrace {
    assert_eq!(a.duration(), b.duration(), "traces must share a horizon");
    let mut all: Vec<Invocation> = a.iter().copied().collect();
    all.extend(b.iter().copied());
    InvocationTrace::from_invocations(all, a.duration())
}

/// The retired cluster assembly: per-function runs concatenated in
/// function order, then stable-sorted by time.
pub fn concatenate(runs: &[Vec<Invocation>], duration: SimTime) -> InvocationTrace {
    InvocationTrace::from_invocations(runs.concat(), duration)
}

/// The retired `synthesize_cluster`: one trace per function, then
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
        synth.generate(function, model, &mut rng, &mut run);
        runs.push(run);
        classes.push((function, class));
    }
    (concatenate(&runs, synth.duration), classes)
}

/// Asserts the exact-size contract: capacity equals length.
pub fn assert_exact_size(trace: &InvocationTrace) {
    assert_eq!(
        trace.allocated_bytes(),
        trace.len() * std::mem::size_of::<Invocation>()
    );
}
