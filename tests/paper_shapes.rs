//! The paper's headline claims, enforced as integration tests.
//!
//! These tests don't chase the paper's absolute numbers (our substrate is
//! a simulator, not a CloudLab testbed) — they enforce the *shape* of
//! every major result: who wins, in which direction, and the orderings
//! the paper's analysis rests on.

use faasmem::prelude::*;

fn run<P: MemoryPolicy + 'static>(
    spec: &BenchmarkSpec,
    trace: &InvocationTrace,
    policy: P,
) -> RunReport {
    let mut sim = PlatformSim::builder()
        .register_function(spec.clone())
        .policy(policy)
        .seed(23)
        .build();
    sim.run(trace)
}

fn high_load_trace(seed: u64) -> InvocationTrace {
    TraceSynthesizer::new(seed)
        .load_class(LoadClass::High)
        .duration(SimTime::from_mins(60))
        .synthesize_for(FunctionId(0))
}

/// Fig 12: FaaSMem saves far more memory than TMO at the same latency.
#[test]
fn faasmem_beats_tmo_on_memory_at_equal_latency() {
    let trace = high_load_trace(1);
    for name in ["json", "bert", "web"] {
        let spec = BenchmarkSpec::by_name(name).unwrap();
        let mut base = run(&spec, &trace, NoOffloadPolicy);
        let mut tmo = run(&spec, &trace, TmoPolicy::default());
        let mut fm = run(&spec, &trace, FaasMemPolicy::new());
        let base_mem = base.avg_local_mib();
        let tmo_saved = base_mem - tmo.avg_local_mib();
        let fm_saved = base_mem - fm.avg_local_mib();
        assert!(
            fm_saved > tmo_saved * 4.0,
            "{name}: FaaSMem saved {fm_saved:.1} MiB vs TMO {tmo_saved:.1} MiB"
        );
        let p95_base = base.p95_latency().as_secs_f64();
        let p95_fm = fm.p95_latency().as_secs_f64();
        assert!(
            p95_fm <= p95_base * 1.15,
            "{name}: FaaSMem P95 {p95_fm:.3} vs baseline {p95_base:.3}"
        );
        let p95_tmo = tmo.p95_latency().as_secs_f64();
        assert!(p95_tmo <= p95_base * 1.1, "{name}: TMO stays near baseline");
    }
}

/// §8.2.1: micro-benchmarks offload at least half their memory (the cold
/// runtime segment dominates their footprint).
#[test]
fn micro_benchmarks_save_at_least_half() {
    let trace = high_load_trace(2);
    for spec in BenchmarkSpec::micro_benchmarks() {
        let base = run(&spec, &trace, NoOffloadPolicy);
        let fm = run(&spec, &trace, FaasMemPolicy::new());
        let ratio = fm.avg_local_mib() / base.avg_local_mib();
        assert!(
            ratio < 0.5,
            "{}: kept {:.0}% of baseline memory",
            spec.name,
            ratio * 100.0
        );
    }
}

/// §8.2.1: among the applications, Web offloads the most (Pareto-cold
/// HTML cache) and Graph the least (full traversal each request).
#[test]
fn web_saves_most_graph_saves_least_among_apps() {
    let trace = high_load_trace(3);
    let mut savings = Vec::new();
    for spec in BenchmarkSpec::applications() {
        let base = run(&spec, &trace, NoOffloadPolicy);
        let fm = run(&spec, &trace, FaasMemPolicy::new());
        let saved_frac = 1.0 - fm.avg_local_mib() / base.avg_local_mib();
        savings.push((spec.name, saved_frac));
    }
    let get = |n: &str| savings.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(
        get("web") > get("bert"),
        "web {:?} > bert {:?}",
        get("web"),
        get("bert")
    );
    assert!(get("web") > get("graph"));
    assert!(get("graph") < get("bert"), "graph is the worst offloader");
}

/// Fig 13: both components matter — removing either costs memory.
#[test]
fn ablation_components_both_contribute() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    let trace = high_load_trace(4);
    let full = run(&spec, &trace, FaasMemPolicy::new());
    let variant = |enable_pucket, enable_semiwarm| {
        let config = FaasMemConfig {
            enable_pucket,
            enable_semiwarm,
            ..Default::default()
        };
        FaasMemPolicy::with_config(config).unwrap()
    };
    let no_pucket = run(&spec, &trace, variant(false, true));
    let no_semiwarm = run(&spec, &trace, variant(true, false));
    let base = run(&spec, &trace, NoOffloadPolicy);
    assert!(full.avg_local_mib() < no_pucket.avg_local_mib());
    assert!(full.avg_local_mib() < no_semiwarm.avg_local_mib());
    assert!(
        no_semiwarm.avg_local_mib() < base.avg_local_mib(),
        "pucket alone still helps"
    );
    assert!(
        no_pucket.avg_local_mib() < base.avg_local_mib(),
        "semi-warm alone still helps"
    );
}

/// Fig 2 + Fig 12: a stage-agnostic sampler (DAMON) pays a much larger
/// warm-latency tax than FaaSMem for comparable offloading.
#[test]
fn faasmem_warm_latency_tax_is_far_below_damons() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    // One-minute gaps: long enough for DAMON to evict the hot set, short
    // enough that the container survives keep-alive.
    let invs: Vec<faasmem::workload::Invocation> = (0..40)
        .map(|i| faasmem::workload::Invocation {
            at: SimTime::from_secs(10 + i * 60),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_mins(60));
    // Finer pages, as in the Fig 2 experiment: fault counts (and the
    // per-fault CPU cost) then track the kernel's 4 KiB granularity.
    let run_fine = |policy_is_damon: bool| {
        let builder = PlatformSim::builder()
            .register_function(spec.clone())
            .page_size(16 * 1024)
            .seed(23);
        let mut sim = if policy_is_damon {
            builder.policy(DamonPolicy::default()).build()
        } else {
            builder.policy(FaasMemPolicy::new()).build()
        };
        sim.run(&trace)
    };
    let mut damon = run_fine(true);
    let mut fm = run_fine(false);
    let p95_damon = damon.p95_latency().as_secs_f64();
    let p95_fm = fm.p95_latency().as_secs_f64();
    assert!(
        p95_damon > p95_fm * 2.0,
        "DAMON P95 {p95_damon:.3}s must far exceed FaaSMem {p95_fm:.3}s"
    );
}

/// §6.1: the semi-warm start timing honours the per-function reuse CDF —
/// a container idle less than the observed 99th-percentile reuse interval
/// keeps its hot pages local.
#[test]
fn semiwarm_respects_reuse_percentile() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    // Steady 100 s gaps: the p99 reuse interval is ~100 s, so semi-warm
    // waits at least that long; every warm request finds hot pages local.
    let invs: Vec<faasmem::workload::Invocation> = (0..20)
        .map(|i| faasmem::workload::Invocation {
            at: SimTime::from_secs(10 + i * 100),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_mins(60));
    let report = run(&spec, &trace, FaasMemPolicy::new());
    // After the reuse history builds up (first few use the 240 s default,
    // which is also > 100 s), warm requests should take almost no faults
    // from semi-warm evictions; allow the init-tail randomness.
    let late_warm_faults: Vec<u32> = report
        .requests
        .iter()
        .skip(8)
        .filter(|r| !r.cold)
        .map(|r| r.faults)
        .collect();
    let heavy = late_warm_faults.iter().filter(|&&f| f > 2_000).count();
    assert_eq!(
        heavy, 0,
        "no warm request recalls the whole hot set: {late_warm_faults:?}"
    );
}

/// Fig 16: deployment density improves, and Web improves most.
#[test]
fn density_improvement_ordering() {
    use faasmem::faas::estimate_density;
    let trace = high_load_trace(5);
    let mut density = Vec::new();
    for spec in BenchmarkSpec::applications() {
        let report = run(&spec, &trace, FaasMemPolicy::new());
        let d = estimate_density(&report, &spec);
        assert!(d.improvement > 1.05, "{}: density must improve", spec.name);
        density.push((spec.name, d.improvement));
    }
    let get = |n: &str| density.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(
        get("web") > get("graph"),
        "web {:.2} > graph {:.2}",
        get("web"),
        get("graph")
    );
}

/// Fig 1: longer keep-alive means fewer cold starts but more inactive
/// memory time.
#[test]
fn keepalive_tradeoff_is_monotone() {
    let spec = BenchmarkSpec::by_name("json").unwrap();
    let trace = TraceSynthesizer::new(6)
        .load_class(LoadClass::Middle)
        .duration(SimTime::from_mins(120))
        .synthesize_for(FunctionId(0));
    let mut cold_ratios = Vec::new();
    let mut inactive = Vec::new();
    for timeout in [30u64, 120, 600] {
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .policy(NoOffloadPolicy)
            .keep_alive(SimDuration::from_secs(timeout))
            .seed(23)
            .build();
        let report = sim.run(&trace);
        cold_ratios.push(report.cold_start_ratio());
        inactive.push(report.memory_inactive_fraction());
    }
    assert!(
        cold_ratios[0] > cold_ratios[1] && cold_ratios[1] > cold_ratios[2],
        "{cold_ratios:?}"
    );
    assert!(inactive[0] < inactive[2], "{inactive:?}");
}
