//! Trace interchange: synthesize a workload, save it to a file, reload
//! it, and replay it bit-identically — the workflow for sharing
//! regression workloads between machines (the paper's artifact ships its
//! traces as flat files the same way).
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use std::fs;

use faasmem::prelude::*;
use faasmem::workload::trace_io;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize and persist a trace.
    let trace = TraceSynthesizer::new(1234)
        .load_class(LoadClass::High)
        .bursty(true)
        .duration(SimTime::from_mins(20))
        .synthesize_for(FunctionId(0));
    let path = std::env::temp_dir().join("faasmem-example-trace.txt");
    fs::write(&path, trace_io::to_string(&trace))?;
    println!("saved {} invocations to {}", trace.len(), path.display());

    // 2. Reload and verify.
    let restored = trace_io::from_str(&fs::read_to_string(&path)?)?;
    assert_eq!(trace, restored);
    let stats = restored.stats();
    println!(
        "reloaded: {:.1} req/min, σ(intervals) {:.1}s",
        stats.req_per_min, stats.interval_std_secs
    );

    // 3. Replay under FaaSMem; the run is deterministic, so this output
    //    is reproducible on any machine holding the same trace file.
    let mut sim = PlatformSim::builder()
        .register_function(BenchmarkSpec::by_name("chameleon").unwrap())
        .policy(FaasMemPolicy::new())
        .seed(42)
        .build();
    let mut report = sim.run(&restored);
    let p95 = report.p95_latency();
    println!(
        "replay: {} requests, avg local {:.1} MiB, P95 {}",
        report.requests_completed,
        report.avg_local_mib(),
        p95
    );
    fs::remove_file(&path)?;
    Ok(())
}
