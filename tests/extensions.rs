//! Integration tests for the beyond-the-paper features: §9/§10 discussion
//! points and the §8.3.2 future-work extension.

use faasmem::baselines::{DamonMode, DamonPolicy};
use faasmem::faas::{NodeProfile, RackPlan, RackReport};
use faasmem::prelude::*;
use faasmem::workload::{trace_io, Invocation};

fn steady_trace(n: u64, gap_secs: u64) -> InvocationTrace {
    let invs: Vec<Invocation> = (0..n)
        .map(|i| Invocation {
            at: SimTime::from_secs(10 + i * gap_secs),
            function: FunctionId(0),
        })
        .collect();
    InvocationTrace::from_invocations(invs, SimTime::from_secs(10 + n * gap_secs + 1_000))
}

#[test]
fn adaptive_keepalive_recycles_fast_reuse_functions_early() {
    let spec = BenchmarkSpec::by_name("json").unwrap();
    // Requests 15 s apart: the histogram learns a tight reuse bound.
    let trace = steady_trace(60, 15);
    let run = |adaptive: bool| {
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .seed(9)
            .adaptive_keep_alive(adaptive)
            .policy(NoOffloadPolicy)
            .build();
        sim.run(&trace)
    };
    let fixed = run(false);
    let adaptive = run(true);
    // Same requests served; the adaptive variant drops the container much
    // sooner after the last request, shrinking total lifetime.
    assert_eq!(fixed.requests_completed, adaptive.requests_completed);
    let lifetime = |r: &RunReport| -> f64 {
        r.containers
            .iter()
            .map(|c| c.lifetime().as_secs_f64())
            .sum()
    };
    assert!(
        lifetime(&adaptive) < lifetime(&fixed) * 0.7,
        "adaptive {:.0}s vs fixed {:.0}s",
        lifetime(&adaptive),
        lifetime(&fixed)
    );
    // And no extra cold starts for this perfectly regular workload.
    assert_eq!(adaptive.cold_starts, fixed.cold_starts);
}

#[test]
fn runtime_sharing_composes_with_faasmem() {
    let spec = BenchmarkSpec::by_name("pyaes").unwrap();
    // Concurrent arrivals force multiple containers.
    let invs: Vec<Invocation> = (0..6)
        .map(|i| Invocation {
            at: SimTime::from_secs(10 + i / 3),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_mins(15));
    let run = |share: bool| {
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .share_runtime(share)
            .policy(FaasMemPolicy::new())
            .seed(3)
            .build();
        sim.run(&trace)
    };
    let unshared = run(false);
    let shared = run(true);
    assert!(shared.avg_local_mib() < unshared.avg_local_mib());
    assert_eq!(shared.requests_completed, unshared.requests_completed);
}

#[test]
fn ssd_pool_throttles_offloading_but_stays_correct() {
    let spec = BenchmarkSpec::by_name("bert").unwrap();
    let trace = steady_trace(10, 30);
    let run = |pool: PoolConfig| {
        let config = faasmem::faas::PlatformConfig {
            pool,
            ..Default::default()
        };
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .config(config)
            .policy(FaasMemPolicy::new())
            .seed(4)
            .build();
        sim.run(&trace)
    };
    let rdma = run(PoolConfig::infiniband_56g());
    let ssd = run(PoolConfig::ssd());
    assert_eq!(rdma.requests_completed, ssd.requests_completed);
    // The SSD's 1 MB/s write cap cannot absorb the same offload stream.
    assert!(
        ssd.pool_stats.bytes_out <= rdma.pool_stats.bytes_out,
        "ssd {} vs rdma {}",
        ssd.pool_stats.bytes_out,
        rdma.pool_stats.bytes_out
    );
    // Accounting stays conserved either way.
    assert_eq!(ssd.local_mem.last_value(), Some(0.0));
    assert_eq!(ssd.remote_mem.last_value(), Some(0.0));
}

#[test]
fn region_damon_runs_end_to_end() {
    let spec = BenchmarkSpec::by_name("web").unwrap();
    let trace = steady_trace(20, 45);
    let mut sim = PlatformSim::builder()
        .register_function(spec)
        .policy(DamonPolicy::new(DamonMode::RegionMonitor))
        .seed(5)
        .build();
    let report = sim.run(&trace);
    assert_eq!(report.requests_completed, 20);
    assert!(
        report.pool_stats.bytes_out > 0,
        "regions must offload cold tail"
    );
    assert_eq!(report.local_mem.last_value(), Some(0.0));
}

#[test]
fn cold_start_aware_semiwarm_reduces_drain_on_cluster_patterns() {
    let spec = BenchmarkSpec::by_name("json").unwrap();
    let mut invs = Vec::new();
    for cluster in 0..4u64 {
        for i in 0..6u64 {
            invs.push(Invocation {
                at: SimTime::from_secs(10 + cluster * 700 + i * 5),
                function: FunctionId(0),
            });
        }
    }
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_secs(4_000));
    let run = |aware: bool| {
        let mut config = FaasMemConfig::default();
        config.semiwarm.cold_start_aware = aware;
        let policy = FaasMemPolicy::with_config(config).unwrap();
        let stats = policy.stats();
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .policy(policy)
            .seed(6)
            .build();
        let _ = sim.run(&trace);
        let bytes = stats.borrow().semi_warm_bytes;
        bytes
    };
    assert!(run(true) < run(false));
}

#[test]
fn rack_analysis_from_a_real_report() {
    let spec = BenchmarkSpec::by_name("graph").unwrap();
    let trace = TraceSynthesizer::new(8)
        .load_class(LoadClass::High)
        .duration(SimTime::from_mins(30))
        .synthesize_for(FunctionId(0));
    let mut sim = PlatformSim::builder()
        .register_function(spec)
        .policy(FaasMemPolicy::new())
        .seed(7)
        .build();
    let report = sim.run(&trace);
    let node = NodeProfile::from_report(&report, 384.0, 2_500.0);
    assert!(node.bandwidth_per_container_mbps > 0.0);
    assert!(node.remote_to_local_ratio > 0.0);
    let rack = RackReport::analyze(node, RackPlan::default());
    assert!(rack.demand_gbps > 0.0);
    assert!(rack.pool_gib > 0.0);
    assert!(rack.relative_dram_cost < 1.0, "pooling must be cheaper");
}

#[test]
fn traces_roundtrip_through_files_and_replay_identically() {
    let trace = TraceSynthesizer::new(21)
        .load_class(LoadClass::High)
        .duration(SimTime::from_mins(10))
        .synthesize_for(FunctionId(0));
    let text = trace_io::to_string(&trace);
    let restored = trace_io::from_str(&text).expect("well-formed");
    assert_eq!(trace, restored);
    let run = |t: &InvocationTrace| {
        let mut sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("float").unwrap())
            .policy(FaasMemPolicy::new())
            .seed(11)
            .build();
        let mut report = sim.run(t);
        (
            report.requests_completed,
            report.p95_latency(),
            report.pool_stats,
        )
    };
    assert_eq!(run(&trace), run(&restored));
}
