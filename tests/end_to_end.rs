//! End-to-end integration tests across the whole workspace: the platform,
//! the FaaSMem policy, the baselines and the workload models together.

use faasmem::prelude::*;
use std::collections::HashMap;

fn trace_for(seed: u64, class: LoadClass, mins: u64) -> InvocationTrace {
    TraceSynthesizer::new(seed)
        .load_class(class)
        .duration(SimTime::from_mins(mins))
        .synthesize_for(FunctionId(0))
}

fn run_policy_on(spec: &BenchmarkSpec, trace: &InvocationTrace, policy_name: &str) -> RunReport {
    let builder = PlatformSim::builder()
        .register_function(spec.clone())
        .seed(17);
    let mut sim = match policy_name {
        "Baseline" => builder.policy(NoOffloadPolicy).build(),
        "TMO" => builder.policy(TmoPolicy::default()).build(),
        "DAMON" => builder.policy(DamonPolicy::default()).build(),
        "FaaSMem" => builder.policy(FaasMemPolicy::builder().build()).build(),
        other => panic!("unknown policy {other}"),
    };
    sim.run(trace)
}

#[test]
fn every_benchmark_completes_under_faasmem() {
    let trace = trace_for(1, LoadClass::High, 10);
    for spec in BenchmarkSpec::catalog() {
        let report = run_policy_on(&spec, &trace, "FaaSMem");
        assert_eq!(
            report.requests_completed,
            trace.len(),
            "{}: all requests must complete",
            spec.name
        );
        assert!(
            report.cold_starts >= 1,
            "{}: first request cold-starts",
            spec.name
        );
        assert!(
            report.pool_stats.bytes_out > 0,
            "{}: FaaSMem must offload",
            spec.name
        );
    }
}

#[test]
fn memory_accounting_is_conserved() {
    // At every recorded instant, local + remote must never exceed what
    // the live containers could possibly hold, and the run must end with
    // everything released.
    let spec = BenchmarkSpec::by_name("web").unwrap();
    let trace = trace_for(2, LoadClass::High, 20);
    let report = run_policy_on(&spec, &trace, "FaaSMem");
    assert_eq!(
        report.local_mem.last_value(),
        Some(0.0),
        "all local memory released"
    );
    assert_eq!(
        report.remote_mem.last_value(),
        Some(0.0),
        "all remote memory released"
    );
    assert_eq!(report.live_containers.last_value(), Some(0.0));
    // The pool's lifetime traffic must cover what was ever held remotely.
    assert!(report.pool_stats.bytes_out >= report.pool_stats.bytes_in);
}

#[test]
fn deterministic_end_to_end() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    let trace = trace_for(3, LoadClass::High, 15);
    let a = run_policy_on(&spec, &trace, "FaaSMem");
    let b = run_policy_on(&spec, &trace, "FaaSMem");
    assert_eq!(a.requests_completed, b.requests_completed);
    assert_eq!(a.pool_stats, b.pool_stats);
    assert_eq!(a.cold_starts, b.cold_starts);
    let lat_a: Vec<_> = a.requests.iter().map(|r| r.latency).collect();
    let lat_b: Vec<_> = b.requests.iter().map(|r| r.latency).collect();
    assert_eq!(
        lat_a, lat_b,
        "identical seeds must give identical latencies"
    );
    // The harness path too: traced, sampled grids export byte-identical
    // results, series and trace whether run serially or on two workers.
    for grid in [main_eval_grid(), chaos_grid()] {
        assert_eq!(artifacts(&grid, 1), artifacts(&grid, 2));
    }
}

#[test]
fn reuse_intervals_feed_semiwarm() {
    let spec = BenchmarkSpec::by_name("json").unwrap();
    let trace = trace_for(4, LoadClass::High, 30);
    let report = run_policy_on(&spec, &trace, "FaaSMem");
    let gaps = report
        .reuse_intervals
        .get(&FunctionId(0))
        .expect("warm reuses happened");
    assert!(!gaps.is_empty());
    // Every recorded interval (in seconds) is below the keep-alive
    // timeout, otherwise the container would have been recycled instead
    // of reused.
    let longest = gaps.max().expect("non-empty");
    assert!(longest <= 600.0, "gap {longest}s exceeds keep-alive");
}

#[test]
fn per_request_records_are_complete_and_ordered() {
    let spec = BenchmarkSpec::by_name("graph").unwrap();
    let trace = trace_for(5, LoadClass::High, 10);
    let report = run_policy_on(&spec, &trace, "FaaSMem");
    assert_eq!(report.requests.len(), report.requests_completed);
    let arrivals: Vec<_> = trace.iter().map(|i| i.at).collect();
    let mut recorded: Vec<_> = report.requests.iter().map(|r| r.arrived).collect();
    recorded.sort();
    assert_eq!(
        arrivals, recorded,
        "every arrival accounted for exactly once"
    );
    // Cold-start count consistent with the flags.
    assert_eq!(
        report.requests.iter().filter(|r| r.cold).count(),
        report.cold_starts
    );
}

#[test]
fn container_records_cover_all_containers() {
    let spec = BenchmarkSpec::by_name("float").unwrap();
    let trace = trace_for(6, LoadClass::Middle, 60);
    let report = run_policy_on(&spec, &trace, "Baseline");
    let served: u64 = report.containers.iter().map(|c| c.requests_served).sum();
    assert_eq!(served as usize, report.requests_completed);
    for c in &report.containers {
        assert!(c.retired_at > c.created_at);
        assert!(c.busy_time <= c.lifetime());
        // With a 10-minute keep-alive every container lives at least
        // that long after its last request.
        assert!(c.lifetime() >= SimDuration::from_mins(10));
    }
}

#[test]
fn multi_function_node_isolates_state() {
    let specs: Vec<BenchmarkSpec> = BenchmarkSpec::catalog().into_iter().take(4).collect();
    let horizon = SimTime::from_mins(20);
    let mut merged = InvocationTrace::empty(horizon);
    for (i, _) in specs.iter().enumerate() {
        let t = TraceSynthesizer::new(40 + i as u64)
            .load_class(LoadClass::High)
            .duration(horizon)
            .synthesize_for(FunctionId(i as u32));
        merged = merged.merge(&t);
    }
    let mut sim = PlatformSim::builder()
        .register_functions(specs)
        .policy(FaasMemPolicy::builder().build())
        .seed(8)
        .build();
    let report = sim.run(&merged);
    assert_eq!(report.requests_completed, merged.len());
    // Each function's containers only ever served that function.
    let mut by_function: HashMap<FunctionId, u64> = HashMap::new();
    for c in &report.containers {
        *by_function.entry(c.function).or_default() += c.requests_served;
    }
    for f in merged.functions() {
        assert_eq!(
            by_function.get(&f).copied().unwrap_or(0) as usize,
            merged.for_function(f).len(),
            "{f}: requests served by its own containers"
        );
    }
}

#[test]
fn damon_offloads_but_hurts_warm_latency_on_sparse_traffic() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    // Sparse: requests a minute apart, well past DAMON's idle threshold.
    let invs: Vec<Invocation> = (0..30)
        .map(|i| Invocation {
            at: SimTime::from_secs(10 + i * 60),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_mins(60));
    let damon = run_policy_on(&spec, &trace, "DAMON");
    let base = run_policy_on(&spec, &trace, "Baseline");
    let damon_warm_faults: u32 = damon
        .requests
        .iter()
        .filter(|r| !r.cold)
        .map(|r| r.faults)
        .sum();
    assert!(damon_warm_faults > 100, "DAMON must thrash the hot set");
    let base_warm_faults: u32 = base
        .requests
        .iter()
        .filter(|r| !r.cold)
        .map(|r| r.faults)
        .sum();
    assert_eq!(base_warm_faults, 0);
}

use faasmem::workload::Invocation;

// ---------------------------------------------------------------------
// Harness-level determinism on traced, sampled grids
// ---------------------------------------------------------------------

use faasmem::faas::FaultConfig;
use faasmem::sim::FaultSpec;
use faasmem_bench::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::PolicyKind;

/// Every deterministic artifact a grid run exports, rendered to the
/// exact bytes the driver binaries would write to disk.
#[derive(Debug, PartialEq)]
struct GridArtifacts {
    main: String,
    series: String,
    trace: String,
}

/// Runs `grid` on `jobs` workers with quick traces, tracing and series
/// sampling switched on, so the result covers every exported artifact.
/// The paths are never written — `run_grid` only collects.
fn artifacts(grid: &ExperimentGrid, jobs: usize) -> GridArtifacts {
    let opts = HarnessOptions {
        jobs,
        quick: true,
        trace: Some(std::path::PathBuf::from("unused.jsonl")),
        series: Some(std::path::PathBuf::from("unused.json")),
        ..HarnessOptions::default()
    };
    let run = harness::run_grid(grid, &opts);
    assert_eq!(run.failures(), 0, "no cell may panic");
    let out = GridArtifacts {
        main: run.to_json().to_pretty(),
        series: run.series_json(opts.series_interval).to_compact(),
        trace: run.trace_jsonl(),
    };
    assert!(!out.trace.is_empty(), "trace events must be recorded");
    assert!(!out.series.is_empty(), "series must be sampled");
    out
}

/// fig12's shape, miniaturized: two load classes × two benchmarks ×
/// the Baseline/FaaSMem head-to-head, on quick traces.
fn main_eval_grid() -> ExperimentGrid {
    ExperimentGrid::new("oracle_fig12")
        .traces([
            TraceSpec::synth("high", 12_001, LoadClass::High).bursty(true),
            TraceSpec::synth("low", 12_002, LoadClass::Low),
        ])
        .benches([
            BenchCase::single(BenchmarkSpec::by_name("web").unwrap()),
            BenchCase::single(BenchmarkSpec::by_name("bert").unwrap()),
        ])
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem])
}

/// disc07's shape, miniaturized: the healthy control plus a seeded
/// outage schedule, Baseline vs FaaSMem on bert.
fn chaos_grid() -> ExperimentGrid {
    let chaos = PlatformConfig {
        faults: Some(FaultConfig {
            spec: FaultSpec::new(0xD15C07)
                .outages(SimDuration::from_mins(5), SimDuration::from_secs(30)),
            slo: Some(SimDuration::from_secs(2)),
            ..FaultConfig::default()
        }),
        ..PlatformConfig::default()
    };
    ExperimentGrid::new("oracle_disc07")
        .trace(TraceSpec::synth("high-bursty", 907, LoadClass::High).bursty(true))
        .bench(BenchCase::single(BenchmarkSpec::by_name("bert").unwrap()))
        .configs([ConfigCase::default_case(), ConfigCase::new("chaos", chaos)])
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem])
}

/// The run-long logs' byte budget on fig12's high-load shape: every
/// catalog benchmark alone under FaaSMem on the bursty hour. Growth
/// slack counts (`allocated_bytes` is capacity). The retired layouts
/// held at least 16 B per series point (`Vec<(SimTime, f64)>`) and 32 B
/// per request (`Vec<RequestRecord>`); the delta-varint logs must stay
/// well under both.
#[test]
fn run_logs_stay_within_their_byte_budget() {
    let (mut points, mut series_bytes, mut requests, mut request_bytes) = (0, 0, 0, 0);
    for spec in BenchmarkSpec::catalog() {
        let trace = TraceSynthesizer::new(12_001 ^ spec.name.len() as u64)
            .load_class(LoadClass::High)
            .bursty(true)
            .duration(SimTime::from_mins(60))
            .synthesize_for(FunctionId(0));
        let report = run_policy_on(&spec, &trace, "FaaSMem");
        for series in [
            &report.local_mem,
            &report.remote_mem,
            &report.live_containers,
        ] {
            points += series.len();
            series_bytes += series.allocated_bytes();
        }
        requests += report.requests.len();
        request_bytes += report.requests.allocated_bytes();
    }
    let per_point = series_bytes as f64 / points as f64;
    let per_request = request_bytes as f64 / requests as f64;
    assert!(
        per_point <= 12.0,
        "{per_point:.2} B per series point ({points} points)"
    );
    assert!(
        per_request <= 16.0,
        "{per_request:.2} B per request ({requests} requests)"
    );
}
