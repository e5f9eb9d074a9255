//! Table 1: P95 latency and average memory of the three applications
//! (Bert, Graph, Web) under six diverse high-load traces, for Baseline,
//! TMO and FaaSMem.
//!
//! Expected shape (paper): FaaSMem offloads far more than TMO under every
//! trace (its cells are "darker"); Web shows the highest offload ratio;
//! one trace (ID-5, an extreme surge) inflates everyone's tail latency
//! through cold-start congestion, yet FaaSMem still saves 14.4%–68.0% of
//! memory at baseline-level latency.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::{fmt_mib, fmt_secs, PolicyKind};
use faasmem_workload::LoadClass;

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let apps = ["bert", "graph", "web"];
    let grid = ExperimentGrid::new("tab01_diverse_traces")
        .traces((1u64..=6).map(|trace_id| {
            // Trace ID-5 models the paper's anomaly: an extreme
            // short-term surge that congests cold starts.
            let bursty = trace_id == 5 || trace_id % 2 == 0;
            TraceSpec::synth(&trace_id.to_string(), 100 + trace_id, LoadClass::High).bursty(bursty)
        }))
        .benches(apps.map(BenchCase::named))
        .policy_kinds(PolicyKind::HEAD_TO_HEAD);
    let run = harness::run_and_export(&grid, opts)?;

    for app in apps {
        writeln!(out, "=== Table 1 ({app}) ===")?;
        let mut rows = Vec::new();
        for trace_id in 1u64..=6 {
            let mut cells = vec![format!("{trace_id}")];
            for kind in PolicyKind::HEAD_TO_HEAD {
                let outcome = run.outcome(&trace_id.to_string(), app, DEFAULT_CONFIG, kind.name());
                cells.push(fmt_secs(outcome.summary.latency.p95.as_secs_f64()));
                cells.push(fmt_mib(outcome.summary.avg_local_mib));
            }
            rows.push(cells);
        }
        write_table(
            out,
            &[
                "ID",
                "Base Lat",
                "Base Mem",
                "TMO Lat",
                "TMO Mem",
                "FaaSMem Lat",
                "FaaSMem Mem",
            ],
            &rows,
        )?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Paper reference (Tab 1): FaaSMem's memory column is far below TMO's under every trace;\n\
         Web gets the largest relative cut; latency stays at the baseline level."
    )
}
