//! Ablation: offload page granularity (§7, simulator fidelity knob).
//!
//! The simulator tracks memory at a configurable page size. Small pages
//! model the kernel faithfully but multiply event counts; large pages
//! run faster and overstate savings slightly (partial pages round up).
//! This sweeps the granularity on Bert to show the accuracy/cost
//! trade-off behind the 64 KiB default.
//!
//! Runs on the parallel harness (`--jobs`, `--quick`); the merged result
//! is exported to `results/abl04_page_granularity.json`.

use faasmem_bench::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::{fmt_secs, render_table, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, LoadClass};

const PAGE_KIB: [u64; 4] = [4, 16, 64, 256];

fn label(kib: u64) -> String {
    format!("{kib} KiB")
}

fn main() {
    let opts = HarnessOptions::from_env();
    let grid = ExperimentGrid::new("abl04_page_granularity")
        .trace(
            TraceSpec::synth("high-30min", 908, LoadClass::High).duration(SimTime::from_mins(30)),
        )
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("bert").expect("catalog"),
        ))
        .configs(PAGE_KIB.map(|kib| {
            ConfigCase::new(
                &label(kib),
                PlatformConfig {
                    page_size: kib * 1024,
                    ..PlatformConfig::default()
                },
            )
        }))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, &opts);

    let invocations = run
        .outcome(
            "high-30min",
            "bert",
            &label(64),
            PolicyKind::Baseline.name(),
        )
        .trace_len;
    println!("=== bert, {invocations} invocations, 30 simulated minutes ===");
    let mut rows = Vec::new();
    for kib in PAGE_KIB {
        let base = run.outcome(
            "high-30min",
            "bert",
            &label(kib),
            PolicyKind::Baseline.name(),
        );
        let fm = run.outcome(
            "high-30min",
            "bert",
            &label(kib),
            PolicyKind::FaasMem.name(),
        );
        let saving = 1.0 - fm.summary.avg_local_mib / base.summary.avg_local_mib.max(1e-9);
        rows.push(vec![
            label(kib),
            format!("{:.1}%", saving * 100.0),
            fmt_secs(fm.summary.latency.p95.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        render_table(&["page size", "FaaSMem mem saving", "FaaSMem P95"], &rows)
    );
    println!("Shape: savings stay within a few points across granularities while");
    println!("simulation cost grows as pages shrink (per-cell wall-clock in");
    println!("abl04_page_granularity.timing.json); 64 KiB is the default compromise.");
}
