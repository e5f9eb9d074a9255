//! Runs the evaluation's experiments — the equivalent of the paper
//! artifact's `test.py` workflow.
//!
//! ```text
//! experiments NAME [harness flags]   # one experiment, its table on stdout
//! experiments all [harness flags]    # every experiment into --out DIR
//! experiments list                   # the registry, in evaluation order
//! ```
//!
//! `all` writes each experiment's table to `<out>/<name>.txt` (or
//! `<name>.timing.txt` for wall-clock output) beside the grid JSON, so
//! `diff -r -x '*.timing.*' OUT results` checks a full run against the
//! tracked tree. A bad flag, an unknown name, or a `--quick` run into
//! `results/` (which it would overwrite) exits 2 before anything runs.

use std::fs;
use std::io::{self, ErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use faasmem_bench::experiments::EXPERIMENTS;
use faasmem_bench::harness::{quick_out_problem, HarnessOptions};

const USAGE: &str = "usage: experiments <NAME|all|list> [--jobs N] [--quick] [--out DIR] \
                     [--trace PATH] [--trace-filter LAYERS] [--series PATH] \
                     [--series-interval SECS] [--series-select GROUPS]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return usage_error("missing NAME, `all` or `list`");
    };
    let opts = match HarnessOptions::parse(args) {
        Ok(opts) => opts,
        Err(e) => return usage_error(&e),
    };
    if command == "list" {
        EXPERIMENTS.iter().for_each(|(name, ..)| println!("{name}"));
        return ExitCode::SUCCESS;
    }
    if let Some(problem) = quick_out_problem(opts.quick, &opts.out_dir) {
        return usage_error(&problem);
    }
    if command == "all" {
        return run_all(&opts);
    }
    let Some((name, _, run)) = EXPERIMENTS.iter().find(|(name, ..)| *name == command) else {
        return usage_error(&format!("unknown experiment `{command}`"));
    };
    let Err(e) = run(&opts, &mut io::stdout().lock()) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("experiments: {name}: {e}");
    // A misconfigured grid is a usage error, like a bad flag.
    let usage = e.kind() == ErrorKind::InvalidInput;
    ExitCode::from(if usage { 2 } else { 1 })
}

fn usage_error(problem: &str) -> ExitCode {
    eprintln!("experiments: {problem}\n{USAGE}\n`experiments list` names the experiments");
    ExitCode::from(2)
}

/// Runs every experiment in order, each into its file under
/// `opts.out_dir`. A failing or panicking experiment is reported and the
/// rest still run; any failure makes the exit code 1.
fn run_all(opts: &HarnessOptions) -> ExitCode {
    if opts.trace.is_some() || opts.series.is_some() {
        // Every grid would overwrite the one path, leaving only the last.
        return usage_error("`all` takes no --trace or --series; trace one experiment by name");
    }
    let mut failures = 0;
    for &(name, stdout, run) in EXPERIMENTS {
        let start = Instant::now();
        let path = opts.out_dir.join(stdout.file_name(name));
        let mut table = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| run(opts, &mut table)))
            .unwrap_or_else(|_| Err(io::Error::other("panicked")))
            .and_then(|()| {
                let written =
                    fs::create_dir_all(&opts.out_dir).and_then(|()| fs::write(&path, &table));
                written
                    .map_err(|e| io::Error::new(e.kind(), format!("write {}: {e}", path.display())))
            });
        match outcome {
            Ok(()) => println!(
                "{name:<32} ok  ({:>5} ms)  -> {}",
                start.elapsed().as_millis(),
                path.display()
            ),
            Err(e) => {
                failures += 1;
                eprintln!("{name:<32} FAILED ({e})");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        return ExitCode::FAILURE;
    }
    let (count, dir) = (EXPERIMENTS.len(), opts.out_dir.display());
    println!("\nall {count} experiments written to {dir}");
    ExitCode::SUCCESS
}
