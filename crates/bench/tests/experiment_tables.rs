//! Experiments run in-process through the registry reproduce their
//! tracked `results/` files byte for byte: the table each writes, and
//! the grid JSON of those that export one. CI's `results` job checks
//! every experiment this way from the release binary; these cover the
//! ones that take under 3 s in a debug build. `fig05` and `fig14`
//! (424-function, 4-hour cluster traces, over 30 s each unoptimized)
//! are left to CI.

use faasmem_bench::experiments::EXPERIMENTS;
use faasmem_bench::harness::HarnessOptions;

/// The tracked `results/<file>`.
fn tracked(file: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs experiment `name` into a fresh directory and checks its table,
/// and its grid JSON when `exports` is set, against `results/`.
fn reproduces(name: &str, exports: bool) {
    let (_, _, run) = EXPERIMENTS
        .iter()
        .find(|(entry, ..)| *entry == name)
        .unwrap_or_else(|| panic!("no experiment {name}"));
    let out_dir = std::env::temp_dir().join(format!(
        "faasmem-experiment-tables-{}-{name}",
        std::process::id()
    ));
    let opts = HarnessOptions {
        jobs: 2,
        out_dir: out_dir.clone(),
        ..HarnessOptions::default()
    };
    let mut table = Vec::new();
    run(&opts, &mut table).unwrap_or_else(|e| panic!("{name}: {e}"));
    let table = String::from_utf8(table).expect("utf-8 table");
    assert!(
        table == tracked(&format!("{name}.txt")),
        "{name}'s table differs from results/{name}.txt:\n{table}"
    );
    let json = out_dir.join(format!("{name}.json"));
    if exports {
        let fresh = std::fs::read_to_string(&json).expect("grid JSON written");
        assert!(
            fresh == tracked(&format!("{name}.json")),
            "{name}'s JSON differs from results/{name}.json"
        );
    } else {
        assert!(!json.exists(), "{name} exported a grid JSON");
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn fig03_memory_layout_matches_results() {
    reproduces("fig03_memory_layout", false);
}

#[test]
fn fig11_reuse_cdf_matches_results() {
    reproduces("fig11_reuse_cdf", false);
}

#[test]
fn disc02_hardware_sampling_matches_results() {
    reproduces("disc02_hardware_sampling", false);
}

#[test]
fn disc03_memory_sharing_matches_results() {
    reproduces("disc03_memory_sharing", false);
}

#[test]
fn disc04_rack_provisioning_matches_results() {
    reproduces("disc04_rack_provisioning", false);
}

#[test]
fn ext01_coldstart_aware_matches_results() {
    reproduces("ext01_coldstart_aware", true);
}

#[test]
fn ext02_recall_prefetch_matches_results() {
    reproduces("ext02_recall_prefetch", true);
}
