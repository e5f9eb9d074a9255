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

use faasmem_bench::render_table;
use faasmem_core::FaasMemPolicy;
use faasmem_faas::{NodeProfile, PlatformSim, RackPlan, RackReport};
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, FunctionId, LoadClass, TraceSynthesizer};

fn main() {
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

    // Measured profiles: one per application, from a bursty hour.
    for app in ["bert", "graph", "web"] {
        let spec = BenchmarkSpec::by_name(app).expect("catalog");
        let trace = TraceSynthesizer::new(940)
            .load_class(LoadClass::High)
            .bursty(true)
            .duration(SimTime::from_mins(60))
            .synthesize_for(FunctionId(0));
        let report = PlatformSim::builder()
            .register_function(spec)
            .policy(FaasMemPolicy::builder().build())
            .build()
            .run(&trace);
        // Scale the measured per-container behaviour to a 5000-container
        // production node.
        let node = NodeProfile::from_report(&report, 384.0, 5_000.0);
        let node = NodeProfile {
            containers: 5_000.0,
            local_dram_gib: 384.0,
            ..node
        };
        analyze(&format!("measured: {app}"), node, &mut rows);
    }

    println!(
        "{}",
        render_table(
            &[
                "profile",
                "ctrs/node",
                "bw/ctr",
                "rack demand",
                "fabric util",
                "pool size",
                "max DRAM saving",
            ],
            &rows
        )
    );
    println!();
    println!("Paper reference (§9): ~32 Gbps/node, 320 Gbps/rack under a 400 Gbps NIC;");
    println!("~3 TB pool per 10-node rack; up to ~44% DRAM cost reduction from reused memory.");
}
