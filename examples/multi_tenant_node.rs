//! A multi-tenant compute node: all 11 paper benchmarks co-located on one
//! node, each with its own invocation pattern, all managed by one
//! FaaSMem policy instance sharing one remote pool and one bandwidth
//! governor — the deployment §6.2's bandwidth control exists for.
//!
//! ```text
//! cargo run --release --example multi_tenant_node
//! ```

use faasmem::core::FaasMemPolicy;
use faasmem::prelude::*;

fn main() {
    let specs = BenchmarkSpec::catalog();
    let horizon = SimTime::from_mins(60);

    // Per-function traces with diverse load classes, merged into one
    // node-level arrival stream.
    let mut merged = InvocationTrace::empty(horizon);
    for (i, spec) in specs.iter().enumerate() {
        let class = match i % 3 {
            0 => LoadClass::High,
            1 => LoadClass::Middle,
            _ => LoadClass::Low,
        };
        let t = TraceSynthesizer::new(500 + i as u64)
            .load_class(class)
            .bursty(i % 2 == 0)
            .duration(horizon)
            .synthesize_for(FunctionId(i as u32));
        println!(
            "  {:<10} {:<7} {:>5} invocations",
            spec.name,
            class.name(),
            t.len()
        );
        merged = merged.merge(&t);
    }
    println!("node total: {} invocations\n", merged.len());

    let policy = FaasMemPolicy::new();
    let mut sim = PlatformSim::builder()
        .register_functions(specs.iter().cloned())
        .policy(policy)
        .seed(4)
        .build();
    let mut report = sim.run(&merged);

    println!("node-level results under FaaSMem:");
    println!("  requests completed:   {}", report.requests_completed);
    println!(
        "  cold-start ratio:     {:.1}%",
        report.cold_start_ratio() * 100.0
    );
    println!(
        "  avg local memory:     {:.2} GiB",
        report.avg_local_mib() / 1024.0
    );
    println!(
        "  avg offloaded:        {:.2} GiB",
        report.avg_remote_mib() / 1024.0
    );
    println!("  P95 latency:          {}", report.p95_latency());
    println!(
        "  peak local memory:    {:.2} GiB",
        report.local_mem.max_value().unwrap_or(0.0) / (1024.0 * 1024.0 * 1024.0)
    );

    // Per-function view: which workloads offload best?
    println!("\nper-function P95 / fault load:");
    for summary in report.per_function_summaries() {
        let spec = &specs[summary.function.0 as usize];
        println!(
            "  {:<10} P95 {:>10}   requests {:>5}   cold {:>3}   faults {:>6}",
            spec.name,
            summary.latency.p95.to_string(),
            summary.requests,
            summary.cold_starts,
            summary.faults
        );
    }
}
