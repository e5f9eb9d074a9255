//! §9: rack-level bandwidth, pool-capacity and DRAM-cost analysis.
//!
//! Reproduces the paper's large-scale-deployment arithmetic with both
//! the paper's production constants and profiles measured from our own
//! simulation runs:
//!
//! * 5000 containers/node × ≤ 0.82 MB/s ≈ 32 Gbps/node, ~320 Gbps for a
//!   10-node rack — inside one 400 Gbps RDMA NIC.
//! * local:remote ≈ 1:0.8 → a ~3 TB pool for 10 × 384 GB nodes.
//! * pooling turns the remote share into reused (cheap) memory → ~44%
//!   DRAM cost reduction.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::PolicyKind;
use faasmem_faas::{NodeProfile, RackPlan, RackReport};
use faasmem_workload::LoadClass;

const APPS: [&str; 3] = ["bert", "graph", "web"];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Measured profiles: one per application, from a bursty hour.
    let grid = ExperimentGrid::new("disc04_rack_provisioning")
        .trace(TraceSpec::synth("bursty high", 940, LoadClass::High).bursty(true))
        .benches(APPS.map(BenchCase::named))
        .policy_kinds([PolicyKind::FaasMem]);
    let run = harness::run_grid(&grid, opts);

    let mut rows = Vec::new();

    let analyze = |label: &str, node: NodeProfile, rows: &mut Vec<Vec<String>>| {
        let plan = RackPlan::default();
        let r = RackReport::analyze(node, plan);
        let cost_plan = RackPlan {
            pool_memory_cost_factor: 0.0,
            ..plan
        };
        let best_cost = RackReport::analyze(node, cost_plan);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", node.containers),
            format!("{:.2} MB/s", node.bandwidth_per_container_mbps),
            format!("{:.0} Gbps", r.demand_gbps),
            format!("{:.0}%", r.fabric_utilization * 100.0),
            format!("{:.1} TB", r.pool_gib / 1024.0),
            format!("{:.0}%", (1.0 - best_cost.relative_dram_cost) * 100.0),
        ]);
    };

    analyze(
        "paper §9 constants",
        NodeProfile::paper_production(),
        &mut rows,
    );

    for app in APPS {
        let report = &run
            .outcome(
                "bursty high",
                app,
                DEFAULT_CONFIG,
                PolicyKind::FaasMem.name(),
            )
            .report;
        // Scale the measured per-container behaviour to a 5000-container
        // production node.
        let node = NodeProfile::from_report(report, 384.0, 5_000.0);
        let node = NodeProfile {
            containers: 5_000.0,
            local_dram_gib: 384.0,
            ..node
        };
        analyze(&format!("measured: {app}"), node, &mut rows);
    }

    write_table(
        out,
        &[
            "profile",
            "ctrs/node",
            "bw/ctr",
            "rack demand",
            "fabric util",
            "pool size",
            "max DRAM saving",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper reference (§9): ~32 Gbps/node, 320 Gbps/rack under a 400 Gbps NIC;\n\
         ~3 TB pool per 10-node rack; up to ~44% DRAM cost reduction from reused memory."
    )
}
