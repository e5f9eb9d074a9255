//! Figure 8: recalls from the Runtime Pucket after its reactive offload.
//!
//! The paper verifies §5.1's hypothesis — runtime pages unaccessed by the
//! first request are almost never needed again — by offloading the
//! Runtime Pucket after request #1 and counting how many pages later
//! requests recall. Expected: at most a handful of pages (≤ 3 in Fig 8)
//! per benchmark.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ExperimentGrid, HarnessOptions, SeedMix, TraceSpec, DEFAULT_CONFIG,
};
use crate::PolicyKind;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, FunctionId, LoadClass};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("fig08_runtime_recalls")
        .trace(
            TraceSpec::synth("high-30min", 8, LoadClass::High)
                .duration(SimTime::from_mins(30))
                .seed_mix(SeedMix::AddNameLen),
        )
        .benches(BenchmarkSpec::catalog().into_iter().map(BenchCase::single))
        // Semi-warm deliberately recalls hot pages (§6); Fig 8 measures
        // the §5 cold-page mechanisms alone, so it is disabled here.
        .policy_kinds([PolicyKind::FaasMemNoSemiWarm]);
    let run = harness::run_and_export(&grid, opts)?;

    let mut rows = Vec::new();
    for spec in BenchmarkSpec::catalog() {
        let outcome = run.outcome(
            "high-30min",
            spec.name,
            DEFAULT_CONFIG,
            PolicyKind::FaasMemNoSemiWarm.name(),
        );
        let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
        let mean = stats.mean_runtime_recalls(FunctionId(0)).unwrap_or(0.0);
        let containers = stats
            .runtime_offloads
            .get(&FunctionId(0))
            .copied()
            .unwrap_or(0);
        rows.push(vec![
            spec.name.to_string(),
            outcome.summary.requests_completed.to_string(),
            containers.to_string(),
            format!("{mean:.2}"),
        ]);
    }
    write_table(
        out,
        &[
            "benchmark",
            "requests",
            "containers offloaded",
            "mean recall pages / container",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "Paper reference (Fig 8): 0-3 recall pages per benchmark after the reactive offload."
    )
}
