//! Discussion: FaaSMem over different pool technologies (§9).
//!
//! The paper deploys over a 56 Gbps InfiniBand pool; the design only
//! assumes a paging backend, so this swaps in a CXL-class pool (lower
//! latency, similar bandwidth) and an NVMe SSD (much higher latency) to
//! see how far the mechanisms carry. Expected: memory savings are
//! backend-independent, while the recall tax — and hence tail latency —
//! scales with the backend's fault latency.
//!
//! Runs on the parallel harness (`--jobs`, `--quick`); the merged result
//! is exported to `results/disc01_pool_technologies.json`.

use faasmem_bench::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::{fmt_mib, fmt_secs, render_table, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_metrics::Cdf;
use faasmem_pool::PoolConfig;
use faasmem_workload::{BenchmarkSpec, LoadClass};

fn pools() -> Vec<(&'static str, PoolConfig)> {
    vec![
        ("RDMA 56G (paper)", PoolConfig::infiniband_56g()),
        ("CXL pool", PoolConfig::cxl()),
        ("NVMe SSD", PoolConfig::ssd()),
    ]
}

fn main() {
    let opts = HarnessOptions::from_env();
    let grid = ExperimentGrid::new("disc01_pool_technologies")
        .trace(TraceSpec::synth("high-bursty", 901, LoadClass::High).bursty(true))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("bert").expect("catalog"),
        ))
        .configs(pools().into_iter().map(|(name, pool)| {
            ConfigCase::new(
                name,
                PlatformConfig {
                    pool,
                    ..PlatformConfig::default()
                },
            )
        }))
        .policy_kinds([PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, &opts);

    let invocations = run
        .outcome(
            "high-bursty",
            "bert",
            "RDMA 56G (paper)",
            PolicyKind::FaasMem.name(),
        )
        .trace_len;
    println!("=== bert, bursty trace, {invocations} invocations ===");
    let mut rows = Vec::new();
    for (name, _) in pools() {
        let outcome = run.outcome("high-bursty", "bert", name, PolicyKind::FaasMem.name());
        let s = &outcome.summary;
        let offloaded = s.pool_stats.bytes_out as f64 / (1024.0 * 1024.0);
        // Tail of the warm requests only — cold starts dominate P99
        // otherwise and hide the backend's fault latency.
        let warm: Cdf = outcome
            .report
            .requests
            .iter()
            .filter(|r| !r.cold)
            .map(|r| r.latency.as_secs_f64())
            .collect();
        rows.push(vec![
            name.to_string(),
            fmt_mib(s.avg_local_mib),
            format!("{offloaded:.0} MiB"),
            fmt_secs(s.latency.p95.as_secs_f64()),
            fmt_secs(warm.quantile(0.99).unwrap_or(0.0)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["pool backend", "avg mem", "offloaded", "P95", "warm P99"],
            &rows
        )
    );
    println!("Shape: savings are backend-independent; warm tails track fault latency");
    println!("(CXL ≤ RDMA ≪ SSD), matching the paper's portability claim (§9).");
}
