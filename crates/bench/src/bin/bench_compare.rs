//! Diffs two `BENCH_*.json` perf baselines and fails on regression.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_mem -- --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_mem_micro.json perf/BENCH_mem_micro.json --tolerance 0.25
//! ```
//!
//! `--json` swaps the fixed-width report for a machine-readable JSON
//! document (same exit codes), so the CI perf job can log structured
//! regressions.
//!
//! Exit codes: 0 no regression, 1 at least one metric regressed,
//! 2 usage / IO / parse error.

use faasmem_bench::json;
use faasmem_bench::perf::{self, BenchDoc, DEFAULT_TOLERANCE};

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare <old BENCH.json> <new BENCH.json> [--tolerance FRACTION] [--json]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> BenchDoc {
    let input = match std::fs::read_to_string(path) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("bench_compare: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match json::parse(&input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_compare: {path}: {e}");
            std::process::exit(2);
        }
    };
    match perf::parse_bench(&doc) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("bench_compare: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut positional = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut as_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--tolerance=") {
            tolerance = parse_tolerance(value);
        } else if arg == "--tolerance" {
            let Some(value) = args.next() else { usage() };
            tolerance = parse_tolerance(&value);
        } else if arg == "--json" {
            as_json = true;
        } else if arg.starts_with("--") {
            eprintln!("bench_compare: unknown option {arg}");
            usage();
        } else {
            positional.push(arg);
        }
    }
    let [old_path, new_path] = positional.as_slice() else {
        usage()
    };
    let old = load(old_path);
    let new = load(new_path);
    if old.bench != new.bench {
        eprintln!(
            "bench_compare: comparing different benches ({} vs {})",
            old.bench, new.bench
        );
        std::process::exit(2);
    }
    let cmp = perf::compare(&old, &new, tolerance);
    if as_json {
        println!(
            "{}",
            perf::comparison_json(&old, &new, &cmp, tolerance).to_pretty()
        );
    } else {
        print!("{}", perf::render_report(&old, &new, &cmp, tolerance));
    }
    if cmp.regressions() > 0 {
        std::process::exit(1);
    }
}

fn parse_tolerance(value: &str) -> f64 {
    match value.parse::<f64>() {
        Ok(t) if t >= 0.0 && t.is_finite() => t,
        _ => {
            eprintln!("bench_compare: bad tolerance {value:?} (want a non-negative fraction)");
            std::process::exit(2);
        }
    }
}
