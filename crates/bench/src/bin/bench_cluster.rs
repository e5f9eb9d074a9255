//! Macro-benchmark of the node-parallel cluster engine.
//!
//! Simulates a rack of [`NODES`] independent platform nodes two ways —
//! the serial oracle and the parallel driver fanned out across
//! [`THREADS`] worker threads — and byte-compares the two
//! [`ClusterReport`] digests. The digests must match exactly (the
//! cluster engine's core guarantee); any divergence exits 1.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_cluster
//! ```
//!
//! On a machine with at least [`THREADS`] hardware threads the threaded
//! run must also beat the serial oracle by [`REQUIRED_SPEEDUP`]×, or the
//! binary exits 1; with fewer it prints that the check was skipped. Both
//! timings come from the same process, so the check needs no baseline.

use std::time::Instant;

use faasmem_bench::render_table;
use faasmem_core::FaasMemPolicy;
use faasmem_faas::{ClusterReport, ClusterSim, ClusterSpec};
use faasmem_sim::SimTime;
use faasmem_workload::LoadClass;

/// Nodes in the simulated rack.
const NODES: u32 = 8;

/// Worker threads of the parallel run.
const THREADS: usize = 4;

/// Minimum threaded-vs-serial wall-clock ratio. The nodes share
/// nothing, so a [`THREADS`]-thread run with as many hardware threads
/// clears 2× with headroom.
const REQUIRED_SPEEDUP: f64 = 2.0;

/// The fixed cluster workload: every run, serial or parallel, simulates
/// exactly this recipe under the FaaSMem policy.
fn cluster() -> ClusterSim {
    ClusterSim::new(
        ClusterSpec {
            nodes: NODES,
            functions_per_node: 3,
            seed: 0xC1A5,
            duration: SimTime::from_mins(8),
            load: LoadClass::High,
            bursty: true,
        },
        |_| Box::new(FaasMemPolicy::new()),
    )
}

fn summarize(report: &ClusterReport) -> String {
    format!(
        "{} req, {} cold starts over {} nodes",
        report.total_requests(),
        report.total_cold_starts(),
        report.nodes.len()
    )
}

/// Runs `f`, returning its result and the wall-clock seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn main() {
    let sim = cluster();
    let (serial, serial_secs) = timed(|| sim.run_serial());
    let (parallel, parallel_secs) = timed(|| sim.run_parallel(THREADS));

    let rows = vec![
        vec![
            "serial".to_string(),
            "1".to_string(),
            format!("{serial_secs:.3}"),
            summarize(&serial),
        ],
        vec![
            "parallel".to_string(),
            THREADS.to_string(),
            format!("{parallel_secs:.3}"),
            summarize(&parallel),
        ],
    ];
    print!(
        "{}",
        render_table(&["driver", "threads", "wall s", "outcome"], &rows)
    );

    if parallel.digest() != serial.digest() {
        eprintln!("bench_cluster: threads={THREADS} digest diverged from the serial oracle");
        std::process::exit(1);
    }

    let speedup = serial_secs / parallel_secs.max(f64::EPSILON);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\nthreaded speedup over serial at {THREADS} threads on {cores} hardware threads: {speedup:.2}x"
    );
    if cores < THREADS {
        println!("speed-up check skipped: it needs {THREADS} hardware threads");
    } else if speedup < REQUIRED_SPEEDUP {
        eprintln!("bench_cluster: speedup {speedup:.2}x below the required {REQUIRED_SPEEDUP}x");
        std::process::exit(1);
    }
}
