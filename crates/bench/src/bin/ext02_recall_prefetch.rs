//! Extension: Leap-style batch prefetch on semi-warm recall.
//!
//! The paper's related work highlights remote-memory prefetchers (Leap,
//! ATC'20); Fastswap itself prefetches around faults. This extension
//! wires the idea into the semi-warm recall path: when a request lands on
//! a drained container, the whole drained hot set returns in one batched
//! page-in instead of thousands of serial demand faults. The per-fault
//! CPU cost (the dominant term for CPU-capped containers) disappears from
//! the critical path; the transfer itself still takes link time.
//!
//! Expected shape: identical memory savings, visibly lower semi-warm-hit
//! latency — strongest at small CPU shares and fine page sizes.
//!
//! Runs on the parallel harness (`--jobs`); the merged result is
//! exported to `results/ext02_recall_prefetch.json`.

use faasmem_bench::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use faasmem_bench::{fmt_mib, fmt_secs, render_table};
use faasmem_core::{FaasMemConfigBuilder, FaasMemPolicy};
use faasmem_faas::PlatformConfig;
use faasmem_metrics::Cdf;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, FunctionId, Invocation, InvocationTrace};

const VARIANTS: [(&str, bool); 2] = [
    ("demand faults (paper)", false),
    ("batch prefetch (ext)", true),
];

fn main() {
    let opts = HarnessOptions::from_env();
    // Requests every ~7 minutes: past the semi-warm start (240 s
    // default / learned p99), inside the 10-minute keep-alive — every
    // warm request is a semi-warm hit.
    let invs: Vec<Invocation> = (0..12)
        .map(|i| Invocation {
            at: SimTime::from_secs(10 + i * 420),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_secs(7_000));

    let grid = ExperimentGrid::new("ext02_recall_prefetch")
        .trace(TraceSpec::explicit("7-minute gaps", trace))
        .benches(
            ["bert", "web"]
                .map(|app| BenchCase::single(BenchmarkSpec::by_name(app).expect("catalog"))),
        )
        .config(ConfigCase::new(
            "16k-s8",
            PlatformConfig {
                page_size: 16 * 1024,
                seed: 8,
                ..PlatformConfig::default()
            },
        ))
        .policies(VARIANTS.map(|(label, prefetch)| {
            PolicySpec::faasmem(label, move || {
                FaasMemPolicy::builder()
                    .config(
                        FaasMemConfigBuilder::new()
                            .recall_prefetch(prefetch)
                            .build(),
                    )
                    .build()
            })
        }));
    let run = harness::run_and_export(&grid, &opts);

    for app in ["bert", "web"] {
        println!("=== {app}: 12 requests, 7-minute gaps (all semi-warm hits) ===");
        let mut rows = Vec::new();
        for (label, _) in VARIANTS {
            let outcome = run.outcome("7-minute gaps", app, "16k-s8", label);
            let warm: Vec<_> = outcome.report.requests.iter().filter(|r| !r.cold).collect();
            let warm_latency: Cdf = warm.iter().map(|r| r.latency.as_secs_f64()).collect();
            let faults: u32 = warm.iter().map(|r| r.faults).sum();
            rows.push(vec![
                label.to_string(),
                fmt_mib(outcome.summary.avg_local_mib),
                fmt_secs(warm_latency.quantile(0.95).expect("warm requests")),
                faults.to_string(),
                format!(
                    "{:.0} MiB",
                    outcome.summary.pool_stats.bytes_in as f64 / (1024.0 * 1024.0)
                ),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "recall path",
                    "avg mem",
                    "warm P95",
                    "demand faults",
                    "recalled"
                ],
                &rows
            )
        );
        println!();
    }
    println!("Shape: same memory savings; the prefetch variant removes the per-fault CPU");
    println!("term from the semi-warm-hit critical path (related work: Leap, Fastswap prefetch).");
}
