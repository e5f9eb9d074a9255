//! Quickstart: run one serverless function under FaaSMem and see the
//! memory it saves.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use faasmem::prelude::*;

fn main() {
    // 1. Pick a workload model: the `json` FunctionBench micro-benchmark
    //    (30 MiB Python runtime, tiny init segment, ~35 ms requests).
    let spec = BenchmarkSpec::by_name("json").expect("catalog benchmark");

    // 2. Synthesize an Azure-like invocation trace: one hour, high load.
    let trace = TraceSynthesizer::new(7)
        .load_class(LoadClass::High)
        .duration(SimTime::from_mins(60))
        .synthesize_for(FunctionId(0));
    println!("trace: {} invocations over one hour", trace.len());

    // 3. Run the platform twice: no offloading vs FaaSMem.
    let mut baseline = PlatformSim::builder()
        .register_function(spec.clone())
        .policy(NoOffloadPolicy)
        .seed(1)
        .build();
    let mut base_report = baseline.run(&trace);

    let mut faasmem = PlatformSim::builder()
        .register_function(spec)
        .policy(FaasMemPolicy::new())
        .seed(1)
        .build();
    let mut faasmem_report = faasmem.run(&trace);

    // 4. Compare: FaaSMem should cut average local memory by well over
    //    half (the cold Python runtime goes remote after request #1)
    //    while leaving P95 latency essentially untouched.
    let base_mem = base_report.avg_local_mib();
    let faasmem_mem = faasmem_report.avg_local_mib();
    let base_p95 = base_report.p95_latency();
    let faasmem_p95 = faasmem_report.p95_latency();
    println!(
        "avg local memory: baseline {base_mem:.1} MiB -> FaaSMem {faasmem_mem:.1} MiB ({:+.1}%)",
        (faasmem_mem - base_mem) / base_mem * 100.0
    );
    println!("P95 latency:      baseline {base_p95} -> FaaSMem {faasmem_p95}");
    println!(
        "remote traffic:   {:.1} MiB out, {:.1} MiB recalled",
        faasmem_report.pool_stats.bytes_out as f64 / (1024.0 * 1024.0),
        faasmem_report.pool_stats.bytes_in as f64 / (1024.0 * 1024.0),
    );
    assert!(
        faasmem_mem < base_mem * 0.6,
        "FaaSMem should save >40% here"
    );
}
