//! End-to-end checks of the `experiments` binary on its cheap paths:
//! `list` prints the registry, and every usage error exits 2 before any
//! experiment runs or any file is written.

use std::path::PathBuf;
use std::process::{Command, Output};

use faasmem_bench::experiments::EXPERIMENTS;

/// Runs `experiments args` in a fresh empty directory and returns its
/// output with whatever the run left in that directory.
fn experiments(args: &[&str]) -> (Output, Vec<PathBuf>) {
    let cwd = std::env::temp_dir().join(format!(
        "faasmem-experiments-cli-{}-{}",
        std::process::id(),
        args.join("_").replace(['/', '-'], "")
    ));
    std::fs::create_dir_all(&cwd).expect("create scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("experiments runs");
    let left = std::fs::read_dir(&cwd)
        .expect("list scratch directory")
        .map(|entry| entry.expect("entry").path())
        .collect();
    std::fs::remove_dir_all(&cwd).expect("remove scratch directory");
    (out, left)
}

#[test]
fn list_prints_the_registry_in_order() {
    let (out, left) = experiments(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, ..)| *name).collect();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), names);
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let cases: [&[&str]; 9] = [
        &[],
        &["fig99_no_such_figure"],
        &["fig05_requests_per_container", "--job", "4"],
        &["all", "--jobs", "abc"],
        // A quick run would overwrite the tracked full-mode files in
        // results/, whether it is the default or named --out.
        &["disc07_fault_tolerance", "--quick"],
        &["all", "--quick"],
        &["all", "--jobs", "1", "--out", "results", "--quick"],
        // Every grid of `all` would overwrite the one trace or series.
        &["all", "--out", "out", "--trace", "x"],
        &["all", "--out", "out", "--series=x"],
    ];
    for args in cases {
        let (out, left) = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?} explained nothing");
    }
}
