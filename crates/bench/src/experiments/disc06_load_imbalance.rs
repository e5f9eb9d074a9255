//! §9 limitations: load imbalance across compute nodes.
//!
//! "Considering that different nodes may have different loads, memory
//! pooling could potentially yield further benefits for nodes that are
//! memory stranded." This experiment runs four differently loaded nodes
//! of the same web service and compares per-node peak memory against a
//! fixed DRAM budget, with and without FaaSMem.
//!
//! Expected shape: without offloading, the hot node blows its DRAM budget
//! while cold nodes strand capacity; with FaaSMem, every node fits and
//! the pool absorbs exactly the imbalance.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::PolicyKind;
use faasmem_workload::LoadClass;

const NODE_DRAM_MIB: f64 = 700.0;

const NODES: [(&str, LoadClass, bool); 4] = [
    ("node-0 (surge)", LoadClass::High, true),
    ("node-1 (busy)", LoadClass::High, false),
    ("node-2 (steady)", LoadClass::Middle, false),
    ("node-3 (quiet)", LoadClass::Low, false),
];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("disc06_load_imbalance")
        .traces(
            NODES
                .iter()
                .enumerate()
                .map(|(i, &(label, class, bursty))| {
                    TraceSpec::synth(label, 960 + i as u64, class).bursty(bursty)
                }),
        )
        .bench(BenchCase::named("web"))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    for kind in [PolicyKind::Baseline, PolicyKind::FaasMem] {
        writeln!(
            out,
            "=== {} (DRAM budget {NODE_DRAM_MIB:.0} MiB per node) ===",
            kind.name()
        )?;
        let mut rows = Vec::new();
        let mut over_budget = 0;
        let mut stranded_total = 0.0;
        let mut pool_total = 0.0;
        for &(label, _, _) in &NODES {
            let outcome = run.outcome(label, "web", DEFAULT_CONFIG, kind.name());
            let peak = outcome.report.local_mem.max_value().unwrap_or(0.0) / (1024.0 * 1024.0);
            let avg = outcome.summary.avg_local_mib;
            let remote = outcome.summary.avg_remote_mib;
            // Scheduling is quota-based (§8.6): a node is over-committed
            // when its steady-state (average) footprint exceeds the DRAM
            // budget. Cold-start allocation transients still peak above
            // it and are visible in the peak column.
            let fits = avg <= NODE_DRAM_MIB;
            if !fits {
                over_budget += 1;
            }
            // Stranded = budget the node holds but never uses.
            stranded_total += (NODE_DRAM_MIB - avg).max(0.0);
            pool_total += remote;
            rows.push(vec![
                label.to_string(),
                outcome.trace_len.to_string(),
                format!("{avg:.0} MiB"),
                format!("{peak:.0} MiB"),
                if fits {
                    "fits".to_string()
                } else {
                    "OVER BUDGET".to_string()
                },
                format!("{remote:.0} MiB"),
            ]);
        }
        write_table(
            out,
            &[
                "node",
                "reqs/h",
                "avg local",
                "peak local",
                "vs budget",
                "avg pooled",
            ],
            &rows,
        )?;
        writeln!(
            out,
            "nodes over budget: {over_budget}; stranded DRAM (unused headroom): \
             {stranded_total:.0} MiB; pool absorbs {pool_total:.0} MiB\n"
        )?;
    }
    writeln!(
        out,
        "Paper reference (§9): pooling harvests stranded memory from load-imbalanced\n\
         nodes; FaaSMem moves the surge node's keep-alive memory into the shared pool."
    )
}
