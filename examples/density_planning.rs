//! Capacity planning with the memory-pool architecture (paper §8.6 + §9).
//!
//! A provider sizing a compute node asks: with FaaSMem offloading to a
//! rack-level memory pool, how many more containers fit per node, how
//! much pool memory should the rack provision, and does the interconnect
//! have the bandwidth? This example answers all three for the paper's
//! three applications on a 384 GB node.
//!
//! ```text
//! cargo run --release --example density_planning
//! ```

use faasmem::faas::estimate_density;
use faasmem::prelude::*;

const NODE_DRAM_GIB: f64 = 384.0;
const NODES_PER_RACK: f64 = 10.0;

fn main() {
    println!(
        "{:<8} {:>8} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "app", "quota", "offload/ctr", "density", "ctrs/node", "pool GiB/node", "bw/node"
    );
    let mut total_pool = 0.0;
    for app in ["bert", "graph", "web"] {
        let spec = BenchmarkSpec::by_name(app).expect("catalog");
        let trace = TraceSynthesizer::new(86)
            .load_class(LoadClass::High)
            .bursty(true)
            .duration(SimTime::from_mins(60))
            .synthesize_for(FunctionId(0));
        let policy = FaasMemPolicy::new();
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .policy(policy)
            .seed(3)
            .build();
        let report = sim.run(&trace);
        let density = estimate_density(&report, &spec);

        // Containers per node: DRAM divided by the *effective* quota.
        let baseline_ctrs = NODE_DRAM_GIB * 1024.0 / spec.quota_mib as f64;
        let ctrs = baseline_ctrs * density.improvement;
        // Pool provisioning: each container parks its reducible quota
        // remotely.
        let pool_gib = ctrs * density.offloaded_per_container_mib / 1024.0;
        total_pool += pool_gib;
        // Bandwidth: scale the measured per-run offload bandwidth to the
        // planned container count.
        let per_ctr_bw =
            report.mean_offload_bandwidth_mbps() / report.avg_live_containers().max(1e-9);
        let node_bw = per_ctr_bw * ctrs;
        println!(
            "{:<8} {:>6}Mi {:>10.0}Mi {:>9.2}x {:>12.0} {:>14.0} {:>9.0}MB/s",
            app,
            spec.quota_mib,
            density.offloaded_per_container_mib,
            density.improvement,
            ctrs,
            pool_gib,
            node_bw,
        );
    }
    println!();
    println!("rack-level view ({NODES_PER_RACK} nodes/rack, one pool per rack — paper §9):");
    println!(
        "  pool memory needed per rack (if nodes run a mix): ~{:.1} TiB",
        total_pool / 3.0 * NODES_PER_RACK / 1024.0
    );
    println!("  paper's guidance: local:remote ~ 1:0.8, i.e. ~3 TB pool per 10-node rack;");
    println!("  a 400 Gbps RDMA NIC comfortably covers the aggregate offload bandwidth.");
}
