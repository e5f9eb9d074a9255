//! Figure 2: P95 response latency when offloading with DAMON.
//!
//! The paper's motivation experiment: running the 11 benchmarks under a
//! DAMON-style sampling offloader inflates P95 latency by up to 14×
//! versus no offloading, because keep-alive sampling misclassifies hot
//! pages as cold. Expected shape here: large multipliers for the
//! 0.1-core micro-benchmarks and visible (smaller) ones for the
//! applications.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, SeedMix, TraceSpec,
};
use crate::{fmt_secs, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_sim::SimDuration;
use faasmem_workload::{ArrivalModel, BenchmarkSpec, LoadClass};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Requests ~45 s apart: far enough that DAMON's idle threshold
    // (20 s) fires between them, and enough requests over two hours
    // that P95 reflects warm requests, not the one cold start.
    let trace = TraceSpec::synth("poisson-45s", 7, LoadClass::High)
        .arrival(ArrivalModel::Poisson {
            mean_gap: SimDuration::from_secs(45),
        })
        .duration(faasmem_sim::SimTime::from_mins(120))
        .seed_mix(SeedMix::AddNameLen);
    // Kernel-fidelity 4 KiB pages: demand-fault counts (and hence the
    // per-fault CPU penalty on 0.1-core containers) match the paper's
    // testbed.
    let config = ConfigCase::new(
        "4k-pages",
        PlatformConfig {
            page_size: 4096,
            ..PlatformConfig::default()
        },
    );
    let grid = ExperimentGrid::new("fig02_damon_p95")
        .trace(trace)
        .benches(BenchmarkSpec::catalog().into_iter().map(BenchCase::single))
        .config(config)
        .policy_kinds([PolicyKind::Baseline, PolicyKind::Damon]);
    let run = harness::run_and_export(&grid, opts)?;

    let mut rows = Vec::new();
    for spec in BenchmarkSpec::catalog() {
        let p95 = |kind: PolicyKind| {
            run.outcome("poisson-45s", spec.name, "4k-pages", kind.name())
                .summary
                .latency
                .p95
                .as_secs_f64()
        };
        let base = p95(PolicyKind::Baseline);
        let damon = p95(PolicyKind::Damon);
        rows.push(vec![
            spec.name.to_string(),
            fmt_secs(base),
            fmt_secs(damon),
            format!("{:.1}x", damon / base.max(1e-9)),
        ]);
    }
    write_table(
        out,
        &["benchmark", "no-offload P95", "DAMON P95", "blow-up"],
        &rows,
    )?;
    writeln!(out, "Paper reference (Fig 2): DAMON inflates P95 by up to 14x; worst on 0.1-core micro-benchmarks.")
}
