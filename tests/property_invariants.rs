//! Property-based integration tests: platform invariants must hold for
//! arbitrary traces, benchmark choices and policies.

use faasmem::faas::{NullPolicy, PlatformBuilder, WasteComponent, WasteSide};
use faasmem::prelude::*;
use proptest::prelude::*;

fn arbitrary_trace() -> impl Strategy<Value = InvocationTrace> {
    (
        proptest::collection::vec(0u64..1_800, 1..40),
        Just(SimTime::from_mins(60)),
    )
        .prop_map(|(secs, horizon)| {
            let invs = secs
                .into_iter()
                .map(|s| faasmem::workload::Invocation {
                    at: SimTime::from_secs(s),
                    function: FunctionId(0),
                })
                .collect();
            InvocationTrace::from_invocations(invs, horizon)
        })
}

fn policy_for(idx: u8) -> Box<dyn MemoryPolicy> {
    match idx % 4 {
        0 => Box::new(NoOffloadPolicy),
        1 => Box::new(TmoPolicy::default()),
        2 => Box::new(DamonPolicy::default()),
        _ => Box::new(FaasMemPolicy::new()),
    }
}

fn run_boxed(
    spec: BenchmarkSpec,
    policy: Box<dyn MemoryPolicy>,
    trace: &InvocationTrace,
    seed: u64,
) -> RunReport {
    run_configured(&[spec], policy, trace, seed, |b| b)
}

/// Runs `trace` over `specs` (function ids in slice order) with the
/// builder further set up by `configure`.
fn run_configured(
    specs: &[BenchmarkSpec],
    policy: Box<dyn MemoryPolicy>,
    trace: &InvocationTrace,
    seed: u64,
    configure: impl FnOnce(PlatformBuilder) -> PlatformBuilder,
) -> RunReport {
    let builder = PlatformSim::builder()
        .register_functions(specs.iter().cloned())
        .policy(policy)
        .seed(seed);
    configure(builder).build().run(trace)
}

/// A two-function trace in which each function's invocations sit at
/// least a minute apart — longer than any cold start plus execution —
/// so every arrival finds its function's container idle (or recycled)
/// and no function ever has two live containers at once.
fn sparse_two_function_trace() -> impl Strategy<Value = InvocationTrace> {
    (
        proptest::collection::vec(60u64..900, 1..8),
        proptest::collection::vec(60u64..900, 1..8),
    )
        .prop_map(|(gaps0, gaps1)| {
            let mut invs = Vec::new();
            for (function, gaps) in [(0, gaps0), (1, gaps1)] {
                let mut at = 0;
                for gap in gaps {
                    at += gap;
                    invs.push(faasmem::workload::Invocation {
                        at: SimTime::from_secs(at),
                        function: FunctionId(function),
                    });
                }
            }
            invs.sort_by_key(|inv| inv.at);
            InvocationTrace::from_invocations(invs, SimTime::from_mins(120))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_all_requests_complete_and_memory_drains(
        trace in arbitrary_trace(),
        policy_idx in 0u8..4,
        spec_idx in 0usize..11,
        seed in 0u64..100,
    ) {
        let spec = BenchmarkSpec::catalog()[spec_idx].clone();
        let report = run_boxed(spec, policy_for(policy_idx), &trace, seed);
        prop_assert_eq!(report.requests_completed, trace.len());
        prop_assert_eq!(report.local_mem.last_value(), Some(0.0));
        prop_assert_eq!(report.remote_mem.last_value(), Some(0.0));
        prop_assert_eq!(report.live_containers.last_value(), Some(0.0));
        // Pool conservation: what went out either came back or was
        // discarded at recycle; never negative.
        prop_assert!(report.pool_stats.bytes_out >= report.pool_stats.bytes_in);
        // Container accounting.
        let served: u64 = report.containers.iter().map(|c| c.requests_served).sum();
        prop_assert_eq!(served as usize, report.requests_completed);
    }

    #[test]
    fn prop_latency_never_below_pure_exec(
        trace in arbitrary_trace(),
        policy_idx in 0u8..4,
        seed in 0u64..100,
    ) {
        let spec = BenchmarkSpec::by_name("json").unwrap();
        let exec = spec.exec_time;
        let report = run_boxed(spec, policy_for(policy_idx), &trace, seed);
        for r in report.requests.iter() {
            // Latency at least ~the jittered compute time (jitter sigma
            // 0.05 means > 0.7x is astronomically safe).
            prop_assert!(r.latency >= exec.mul_f64(0.7), "latency {} < exec", r.latency);
            if r.cold {
                prop_assert!(r.latency >= exec.mul_f64(0.7) + SimDuration::from_millis(400));
            }
        }
    }

    #[test]
    fn prop_cold_policies_never_evict_the_hot_set(
        gaps in proptest::collection::vec(5u64..400, 2..25),
        seed in 0u64..50,
    ) {
        // §5's guarantee: the Pucket policies (reactive + window +
        // rollback) only offload *inactive* pages. A fully-hot workload
        // (json touches its whole init segment and a fixed runtime set
        // every request) must therefore run essentially fault-free when
        // semi-warm is disabled — recalls can only come from the rare
        // cold-runtime touch (~0.4% per request).
        let spec = BenchmarkSpec::by_name("json").unwrap();
        let mut t = 10u64;
        let mut invs = Vec::new();
        for g in gaps {
            invs.push(faasmem::workload::Invocation {
                at: SimTime::from_secs(t),
                function: FunctionId(0),
            });
            t += g;
        }
        let trace = InvocationTrace::from_invocations(invs, SimTime::from_secs(t + 1_000));
        let policy = FaasMemPolicy::with_config(FaasMemConfig {
            enable_semiwarm: false,
            ..Default::default()
        })
        .unwrap();
        let report = run_boxed(spec, Box::new(policy), &trace, seed);
        for r in report.requests.iter().filter(|r| !r.cold) {
            prop_assert!(
                r.faults <= 3,
                "warm request took {} faults — hot set was evicted",
                r.faults
            );
        }
    }

    #[test]
    fn prop_offload_never_exceeds_allocated(
        trace in arbitrary_trace(),
        seed in 0u64..100,
    ) {
        let spec = BenchmarkSpec::by_name("web").unwrap();
        let report = run_boxed(spec.clone(), Box::new(FaasMemPolicy::new()), &trace, seed);
        // Remote footprint can never exceed what the containers hold:
        // base footprint per container times the container peak.
        let peak_remote = report.remote_mem.max_value().unwrap_or(0.0);
        let peak_containers = report.live_containers.max_value().unwrap_or(0.0);
        let bound =
            (spec.base_mib() + spec.exec_mib) as f64 * 1024.0 * 1024.0 * peak_containers.max(1.0);
        prop_assert!(peak_remote <= bound, "remote {peak_remote} > bound {bound}");
    }

    #[test]
    fn prop_null_policy_keeps_the_pool_side_empty(
        trace in arbitrary_trace(),
        spec_idx in 0usize..11,
        seed in 0u64..100,
    ) {
        let spec = BenchmarkSpec::catalog()[spec_idx].clone();
        let report =
            run_configured(&[spec], Box::new(NullPolicy), &trace, seed, |b| b.memory_anatomy(true));
        prop_assert!(report.remote_mem.iter().all(|(_, bytes)| bytes == 0.0));
        let waste = report.memory_anatomy.expect("anatomy was on").waste;
        prop_assert_eq!(waste.conservation_violations, 0);
        prop_assert_eq!(waste.pool_byte_us, 0);
        for component in WasteComponent::ALL {
            if component.side() == WasteSide::Pool {
                prop_assert_eq!(waste.component(component), 0, "{}", component.name());
                for f in &report.function_waste {
                    prop_assert_eq!(f.ledger.get(component), 0, "{}", component.name());
                }
            }
        }
    }

    #[test]
    fn prop_share_runtime_never_raises_local_mem(
        trace in arbitrary_trace(),
        policy_idx in 0u8..4,
        spec_idx in 0usize..11,
        seed in 0u64..100,
    ) {
        let specs = [BenchmarkSpec::catalog()[spec_idx].clone()];
        let run = |share: bool| {
            run_configured(&specs, policy_for(policy_idx), &trace, seed, |b| b.share_runtime(share))
        };
        let (private, shared) = (run(false), run(true));
        // Sharing changes accounting only: the runs are event-for-event
        // identical, so the series are comparable at every instant.
        prop_assert_eq!(&shared.requests, &private.requests);
        prop_assert_eq!(&shared.remote_mem, &private.remote_mem);
        for (at, _) in private.local_mem.iter().chain(shared.local_mem.iter()) {
            let (p, s) = (private.local_mem.value_at(at), shared.local_mem.value_at(at));
            prop_assert!(s <= p, "shared {s:?} > private {p:?} at {at}");
        }
    }

    #[test]
    fn prop_share_runtime_is_a_noop_without_concurrent_containers(
        trace in sparse_two_function_trace(),
        policy_idx in 0u8..4,
        specs in (0usize..11, 0usize..11),
        seed in 0u64..100,
    ) {
        let catalog = BenchmarkSpec::catalog();
        let specs = [catalog[specs.0].clone(), catalog[specs.1].clone()];
        let run = |share: bool| {
            run_configured(&specs, policy_for(policy_idx), &trace, seed, |b| b.share_runtime(share))
        };
        let (private, shared) = (run(false), run(true));
        // The precondition, checked on the run itself: no two
        // containers of one function were ever alive together.
        for (i, a) in private.containers.iter().enumerate() {
            for b in &private.containers[i + 1..] {
                let disjoint = a.retired_at <= b.created_at || b.retired_at <= a.created_at;
                prop_assert!(a.function != b.function || disjoint, "{a:?} overlaps {b:?}");
            }
        }
        prop_assert_eq!(shared.local_mem, private.local_mem);
        prop_assert_eq!(shared.remote_mem, private.remote_mem);
        prop_assert_eq!(shared.requests, private.requests);
    }
}
