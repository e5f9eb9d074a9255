//! Macro-benchmark of the node-parallel cluster engine.
//!
//! Simulates a rack of independent platform nodes two ways — the
//! serial oracle and the parallel driver fanned out across worker
//! threads — and byte-compares the two [`ClusterReport`] digests. The
//! digests must match exactly (the cluster engine's core guarantee);
//! any divergence exits non-zero regardless of flags.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_cluster -- \
//!     --threads 4 --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_cluster.json perf/BENCH_cluster.json --tolerance 0.25
//! ```
//!
//! The workload is fixed (same seed, same node/function mix) so the
//! per-phase totals in `BENCH_cluster.json` (written when `--out DIR` is
//! given) are comparable across runs and CI can diff them with
//! `bench_compare`. `--check-speedup` exits non-zero unless the threaded
//! run beats the serial oracle by at least [`REQUIRED_SPEEDUP`]× —
//! meaningful only on a multi-core runner, so it is an opt-in flag
//! rather than the default.

use std::path::PathBuf;

use faasmem_bench::perf::BenchRecorder;
use faasmem_bench::render_table;
use faasmem_core::FaasMemPolicy;
use faasmem_faas::{ClusterReport, ClusterSim, ClusterSpec};
use faasmem_sim::SimTime;
use faasmem_workload::LoadClass;

/// Minimum threaded-vs-serial wall-clock ratio `--check-speedup`
/// enforces. The nodes share nothing, so a 4-thread run on a 4+ core
/// runner clears 2× with headroom.
const REQUIRED_SPEEDUP: f64 = 2.0;

struct Options {
    nodes: u32,
    threads: usize,
    out_dir: Option<PathBuf>,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_cluster [--nodes N] [--threads T] \
         [--check-speedup] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let default_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut opts = Options {
        nodes: 8,
        threads: default_threads,
        out_dir: None,
        check_speedup: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-speedup" => opts.check_speedup = true,
            "--nodes" => opts.nodes = parse_count(args.next()),
            "--threads" => opts.threads = parse_count(args.next()) as usize,
            "--out" => {
                let Some(dir) = args.next() else { usage() };
                opts.out_dir = Some(PathBuf::from(dir));
            }
            _ => usage(),
        }
    }
    opts
}

fn parse_count(arg: Option<String>) -> u32 {
    let Some(raw) = arg else { usage() };
    match raw.parse::<u32>() {
        Ok(n) if n >= 1 => n,
        _ => usage(),
    }
}

/// The fixed cluster workload: every run, serial or parallel, simulates
/// exactly this recipe under the FaaSMem policy.
fn cluster(nodes: u32) -> ClusterSim {
    ClusterSim::new(
        ClusterSpec {
            nodes,
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

fn main() {
    let opts = parse_args();
    let mut bench = BenchRecorder::new("cluster");

    let sim = cluster(opts.nodes);
    let (serial, serial_secs) = bench.time("cluster_serial", || sim.run_serial());
    let (parallel, parallel_secs) =
        bench.time("cluster_parallel", || sim.run_parallel(opts.threads));

    let rows = vec![
        vec![
            "serial".to_string(),
            "1".to_string(),
            format!("{serial_secs:.3}"),
            summarize(&serial),
        ],
        vec![
            "parallel".to_string(),
            opts.threads.to_string(),
            format!("{parallel_secs:.3}"),
            summarize(&parallel),
        ],
    ];
    print!(
        "{}",
        render_table(&["driver", "threads", "wall s", "outcome"], &rows)
    );

    // Byte-identity is the engine's contract: enforce it on every run,
    // not only under --check-speedup.
    if parallel.digest() != serial.digest() {
        eprintln!(
            "bench_cluster: threads={} digest diverged from the serial oracle",
            opts.threads
        );
        std::process::exit(1);
    }

    let speedup = serial_secs / parallel_secs.max(f64::EPSILON);
    println!(
        "\nthreaded speedup over serial at {} threads: {speedup:.2}x",
        opts.threads
    );

    if let Some(dir) = &opts.out_dir {
        match bench.write_bench(dir) {
            Ok(path) => eprintln!("[bench_cluster] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_cluster] could not write BENCH file under {}: {e}",
                    dir.display()
                );
                std::process::exit(2);
            }
        }
    }

    if opts.check_speedup && speedup < REQUIRED_SPEEDUP {
        eprintln!("bench_cluster: speedup {speedup:.2}x below the required {REQUIRED_SPEEDUP}x");
        std::process::exit(1);
    }
}
