//! Artifact driver: runs every experiment binary in sequence and writes
//! each one's output under `results/` — the equivalent of the paper
//! artifact's `test.py` workflow.
//!
//! Flag arguments (anything starting with `-`) are forwarded verbatim to
//! every experiment, so `--quick` and `--jobs N` propagate to the
//! harness-based binaries:
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin runall [output-dir] [--quick] [--jobs N]
//! ```
//!
//! The tracked `results/` is exactly the output of a full run (no
//! `--quick`) minus the wall-clock files (`*.timing.*`), and it is the
//! same for every `--jobs`, so `diff -r -x '*.timing.*' OUT results`
//! checks a fresh run against it.

use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// What an experiment's stdout holds, which decides the file runall
/// captures it in.
#[derive(Clone, Copy)]
enum Stdout {
    /// A deterministic table: `<name>.txt`, tracked in `results/`.
    Table,
    /// Wall-clock measurements no run reproduces: `<name>.timing.txt`,
    /// ignored like the harness's `<grid>.timing.json`.
    WallClock,
}
use Stdout::{Table, WallClock};

/// Every experiment in evaluation order.
const EXPERIMENTS: &[(&str, Stdout)] = &[
    ("fig01_keepalive_sweep", Table),
    ("fig02_damon_p95", Table),
    ("fig03_memory_layout", Table),
    ("fig04_runtime_inactive", Table),
    ("fig05_requests_per_container", Table),
    ("fig06_bert_scan", Table),
    ("fig08_runtime_recalls", Table),
    ("fig09_web_scan", Table),
    ("fig10_rollback_demo", Table),
    ("fig11_reuse_cdf", Table),
    ("fig12_main_eval", Table),
    ("tab01_diverse_traces", Table),
    ("fig13_ablation", Table),
    ("fig14_semiwarm_applicability", Table),
    ("fig15_overhead", WallClock),
    ("fig16_density", Table),
    ("disc01_pool_technologies", Table),
    ("disc02_hardware_sampling", Table),
    ("disc03_memory_sharing", Table),
    ("disc04_rack_provisioning", Table),
    ("disc05_keepalive_policies", Table),
    ("disc06_load_imbalance", Table),
    ("disc07_fault_tolerance", Table),
    ("disc08_durability", Table),
    ("disc09_tail_blame", Table),
    ("disc10_memory_anatomy", Table),
    ("ext01_coldstart_aware", Table),
    ("ext02_recall_prefetch", Table),
    ("abl01_window_policy", Table),
    ("abl02_semiwarm_percentile", Table),
    ("abl03_rollback_interval", Table),
    ("abl04_page_granularity", Table),
    ("abl05_offload_rate", Table),
];

fn main() {
    let mut out_dir = PathBuf::from("results");
    let mut forwarded: Vec<String> = Vec::new();
    // A bare value after `--jobs`/`-j`/`--out` belongs to that flag, not
    // to the positional output-dir slot.
    let mut flag_value_pending = false;
    for arg in std::env::args().skip(1) {
        if flag_value_pending {
            flag_value_pending = false;
            forwarded.push(arg);
        } else if arg.starts_with('-') {
            flag_value_pending = matches!(arg.as_str(), "--jobs" | "-j" | "--out");
            forwarded.push(arg);
        } else {
            out_dir = PathBuf::from(arg);
        }
    }
    fs::create_dir_all(&out_dir).expect("create output dir");
    // Point the harness binaries' JSON exports at the same directory as
    // the captured stdout, unless the caller overrode it explicitly.
    if !forwarded
        .iter()
        .any(|a| a == "--out" || a.starts_with("--out="))
    {
        forwarded.push(format!("--out={}", out_dir.display()));
    }

    let self_exe = std::env::current_exe().expect("current exe path");
    let bin_dir = self_exe.parent().expect("bin dir");

    let mut failures = 0;
    for &(name, stdout) in EXPERIMENTS {
        let start = Instant::now();
        let output = Command::new(bin_dir.join(name)).args(&forwarded).output();
        match output {
            Ok(out) if out.status.success() => {
                let path = match stdout {
                    Table => out_dir.join(format!("{name}.txt")),
                    WallClock => out_dir.join(format!("{name}.timing.txt")),
                };
                fs::write(&path, &out.stdout).expect("write result");
                println!(
                    "{name:<32} ok  ({:>5} ms)  -> {}",
                    start.elapsed().as_millis(),
                    path.display()
                );
            }
            Ok(out) => {
                failures += 1;
                eprintln!("{name:<32} FAILED (status {:?})", out.status.code());
                eprintln!("{}", String::from_utf8_lossy(&out.stderr));
            }
            Err(e) => {
                failures += 1;
                eprintln!(
                    "{name:<32} NOT FOUND ({e}); build first: cargo build --release -p faasmem-bench"
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!(
        "\nall {} experiments written to {}",
        EXPERIMENTS.len(),
        out_dir.display()
    );
}
