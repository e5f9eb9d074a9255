//! A production-shaped day: a 424-function Azure-like cluster on one
//! compute node for four hours, with the full stack enabled — FaaSMem
//! offloading, adaptive keep-alive and runtime sharing — reported hour by
//! hour, plus the rack-provisioning summary a capacity planner would
//! derive from the run.
//!
//! ```text
//! cargo run --release --example azure_day
//! ```

use faasmem::core::FaasMemPolicy;
use faasmem::faas::{NodeProfile, RackPlan, RackReport};
use faasmem::prelude::*;

fn main() {
    const FUNCTIONS: u32 = 424;
    let horizon = SimTime::from_mins(240);
    let (trace, classes) = TraceSynthesizer::new(20_260_706)
        .duration(horizon)
        .synthesize_cluster(FUNCTIONS);
    let highs = classes
        .iter()
        .filter(|(_, c)| *c == LoadClass::High)
        .count();
    let lows = classes.iter().filter(|(_, c)| *c == LoadClass::Low).count();
    println!(
        "cluster: {FUNCTIONS} functions ({highs} high / {} middle / {lows} low), {} invocations over 4 h",
        FUNCTIONS as usize - highs - lows,
        trace.len()
    );

    // Map every function onto the micro-benchmark catalog round-robin,
    // with the three applications sprinkled in.
    let catalog = BenchmarkSpec::catalog();
    let policy = FaasMemPolicy::new();
    let stats = policy.stats();
    let mut builder = PlatformSim::builder()
        .share_runtime(true)
        .adaptive_keep_alive(true)
        .seed(1);
    for f in 0..FUNCTIONS {
        builder = builder.register_function(catalog[f as usize % catalog.len()].clone());
    }
    let mut sim = builder.policy(policy).build();
    let mut report = sim.run(&trace);

    println!("\nhour-by-hour node memory (local GiB, sampled every 15 min):");
    let samples = report
        .local_mem
        .sample(SimDuration::from_mins(15), report.finished_at);
    for hour in 0..4 {
        let window: Vec<String> = samples
            .iter()
            .filter(|(t, _)| {
                *t >= SimTime::from_mins(hour * 60) && *t < SimTime::from_mins((hour + 1) * 60)
            })
            .map(|(_, v)| format!("{:.2}", v / (1024.0 * 1024.0 * 1024.0)))
            .collect();
        println!("  hour {hour}: {}", window.join(" "));
    }

    let p95 = report.p95_latency();
    println!("\nday summary:");
    println!("  requests completed:  {}", report.requests_completed);
    println!(
        "  cold-start ratio:    {:.1}%",
        report.cold_start_ratio() * 100.0
    );
    println!(
        "  avg local memory:    {:.2} GiB",
        report.avg_local_mib() / 1024.0
    );
    println!(
        "  avg pooled memory:   {:.2} GiB",
        report.avg_remote_mib() / 1024.0
    );
    println!("  P95 latency:         {p95}");
    println!("  containers launched: {}", report.containers.len());
    let st = stats.borrow();
    println!(
        "  semi-warm drained:   {:.2} GiB over {} containers ({} rollbacks)",
        st.semi_warm_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
        st.semi_warm_records.len(),
        st.rollbacks
    );

    // What a capacity planner takes away from this run.
    let node = NodeProfile::from_report(&report, 384.0, 2_500.0);
    let rack = RackReport::analyze(node, RackPlan::default());
    println!("\nrack plan from this profile (10 nodes, 2500 containers each):");
    println!(
        "  remote bandwidth demand: {:.0} Gbps ({:.0}% of a 400 Gbps NIC)",
        rack.demand_gbps,
        rack.fabric_utilization * 100.0
    );
    println!(
        "  pool to provision:       {:.1} TB",
        rack.pool_gib / 1024.0
    );
    println!(
        "  DRAM cost vs all-local:  {:.0}%",
        rack.relative_dram_cost * 100.0
    );
}
