//! Schema and invariant checks on the tracked result grids in
//! `results/`.
//!
//! `results/` is exactly the output of one full `experiments all` (wall-clock
//! `*.timing.*` files aside, which are untracked), and CI re-runs it
//! from scratch and `diff -r`s the fresh tree against the tracked one,
//! so every assertion here holds for every fresh run too: the export
//! schema, the blocks a grid must (or must not) carry, the conservation
//! invariants, and the attribution shifts the discussion experiments
//! exist to show.

use std::collections::HashMap;

use faasmem_bench::experiments::{Stdout, EXPERIMENTS};
use faasmem_bench::json::{self, JsonValue};

/// The raw text of `results/<file>`.
fn read(file: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Parses `results/<grid>.json` and checks the header every harness
/// document shares: schema version 1, the grid's name, and a non-empty
/// cell list.
fn load(grid: &str) -> JsonValue {
    let doc = json::parse(&read(&format!("{grid}.json"))).expect("valid JSON");
    assert_eq!(num(&doc, "schema_version"), 1.0, "{grid}");
    assert_eq!(text(&doc, "grid"), grid, "{grid}");
    assert!(!cells(&doc).is_empty(), "{grid}: no cells");
    doc
}

fn cells(doc: &JsonValue) -> &[JsonValue] {
    doc.get("cells").and_then(JsonValue::as_arr).expect("cells")
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", v.to_compact()))
}

fn num(v: &JsonValue, key: &str) -> f64 {
    field(v, key)
        .as_num()
        .unwrap_or_else(|| panic!("{key:?} is not a number"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
}

/// A cell's `(trace, config, policy)` label, after checking that every
/// label is a string and that the cell ran ok.
fn ok_cell(cell: &JsonValue) -> (&str, &str, &str) {
    let label = (
        text(cell, "trace"),
        text(cell, "config"),
        text(cell, "policy"),
    );
    text(cell, "bench");
    assert_eq!(text(cell, "status"), "ok", "{label:?}");
    label
}

/// The sorted member names of a JSON object.
fn keys(v: &JsonValue) -> Vec<&str> {
    let JsonValue::Obj(members) = v else {
        panic!("not an object: {}", v.to_compact());
    };
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

fn sorted<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut names: Vec<&str> = names.into_iter().collect();
    names.sort_unstable();
    names
}

#[test]
fn tracked_fig12_export_and_timing_share_the_schema() {
    // The timing document is untracked wall-clock; its schema is checked
    // on a fresh run by `harness.rs::exported_files_roundtrip_through_the_parser`.
    let doc = load("fig12_main_eval");
    assert_eq!(doc.get("quick"), Some(&JsonValue::Bool(false)));
    for cell in cells(&doc) {
        ok_cell(cell);
        num(field(cell, "metrics"), "requests_completed");
    }
}

#[test]
fn tracked_fig12_export_carries_no_optional_blocks() {
    // Faults, the pool fabric, blame and anatomy are all off in fig12:
    // each layer must be invisible, down to its export block.
    let input = read("fig12_main_eval.json");
    for block in [
        "faults",
        "durability",
        "blame",
        "memory_anatomy",
        "function_waste",
    ] {
        assert!(
            !input.contains(&format!("\"{block}\"")),
            "fig12 export carries a {block:?} block"
        );
    }
}

#[test]
fn tracked_fault_export_mixes_chaos_and_clean_cells() {
    let doc = load("disc07_fault_tolerance");
    let (mut faulted, mut clean) = (0, 0);
    for cell in cells(&doc) {
        let label = ok_cell(cell);
        match field(cell, "metrics").get("faults") {
            Some(f) => {
                faulted += 1;
                let availability = num(f, "link_availability");
                assert!((0.0..=1.0).contains(&availability), "{label:?}");
                assert!(num(f, "slo_total") >= num(f, "slo_violations"), "{label:?}");
            }
            None => clean += 1,
        }
    }
    // The grid carries both the healthy control and chaos cells.
    assert!(faulted > 0 && clean > 0, "{faulted} chaos, {clean} clean");
}

#[test]
fn tracked_durability_export_shows_the_redundancy_dividend() {
    let doc = load("disc08_durability");
    let mut forced: HashMap<&str, f64> = HashMap::new();
    let (mut fabric, mut clean) = (0, 0);
    for cell in cells(&doc) {
        let (_, config, policy) = ok_cell(cell);
        let metrics = field(cell, "metrics");
        let Some(d) = metrics.get("durability") else {
            // The degenerate control carries no durability block.
            clean += 1;
            continue;
        };
        fabric += 1;
        assert!(num(d, "nodes_up") <= num(d, "pool_nodes"), "{config}");
        assert!(num(d, "repairs_completed") >= 0.0, "{config}");
        if policy == "FaaSMem" {
            let restarts = num(field(metrics, "faults"), "forced_cold_restarts");
            assert!(
                forced.insert(config, restarts).is_none(),
                "duplicate FaaSMem cell {config:?}"
            );
        }
    }
    assert!(fabric > 0 && clean > 0, "{fabric} fabric, {clean} clean");
    // The acceptance bar: under the identical chaos schedule, Mirror{2}
    // strictly reduces forced cold rebuilds vs None across the grid.
    let total = |suffix: &str| -> f64 {
        forced
            .iter()
            .filter(|(config, _)| config.ends_with(suffix))
            .map(|(_, restarts)| restarts)
            .sum()
    };
    let (none, mirror) = (total(" none"), total(" mirror2"));
    assert!(
        mirror < none,
        "forced rebuilds {none} (none) -> {mirror} (mirror2)"
    );
}

const BLAME: [&str; 8] = [
    "queue",
    "cold_start",
    "exec",
    "fault_cpu",
    "recall_stall",
    "failover_detour",
    "abandoned_wait",
    "forced_rebuild",
];

#[test]
fn tracked_blame_export_conserves_and_shows_the_tail_shift() {
    let doc = load("disc09_tail_blame");
    let mut tail: HashMap<&str, HashMap<&str, f64>> = HashMap::new();
    for cell in cells(&doc) {
        let label = ok_cell(cell);
        let b = field(field(cell, "metrics"), "blame");
        // The conservation invariant: per invocation, components sum
        // exactly to the measured latency (integer microseconds).
        assert_eq!(num(b, "conservation_violations"), 0.0, "{label:?}");
        let components = field(b, "components");
        assert_eq!(keys(components), sorted(BLAME), "{label:?}");
        let mut shares = HashMap::new();
        for name in BLAME {
            let c = field(components, name);
            let share = num(c, "tail_share");
            assert!((0.0..=1.0).contains(&share), "{label:?} {name}");
            assert!(
                num(c, "p50_us") <= num(c, "p95_us") && num(c, "p95_us") <= num(c, "p99_us"),
                "{label:?} {name}"
            );
            shares.insert(name, share);
        }
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-6, "{label:?}: tail shares sum {sum}");
        let (trace, config, policy) = label;
        if trace == "high-bursty" && policy == "FaaSMem" {
            assert!(tail.insert(config, shares).is_none(), "{label:?}");
        }
    }
    // The attribution shift across the redundancy axis, under the
    // identical chaos schedule: without redundancy the tail belongs to
    // forced cold rebuilds; mirroring converts those into the
    // recall-stall family. The fault-free control stays cold-start
    // dominated.
    let share = |config: &str, name: &str| tail[config][name];
    let none = "4 nodes, losses~8min, none";
    let mirror = "4 nodes, losses~8min, mirror2";
    assert!(share(none, "forced_rebuild") > share(mirror, "forced_rebuild"));
    assert!(share(mirror, "recall_stall") > share(none, "recall_stall"));
    assert!(share("no faults", "cold_start") > share(none, "cold_start"));
}

const COMPUTE: [&str; 4] = [
    "active_exec",
    "keepalive_idle",
    "init_overhead",
    "local_hot_pool",
];
const POOL: [&str; 4] = [
    "offload_inflight",
    "pool_primary",
    "redundancy_amplification",
    "repair_backlog",
];

#[test]
fn tracked_anatomy_export_conserves_and_shows_the_attribution_shift() {
    let doc = load("disc10_memory_anatomy");
    let mut waste: HashMap<(&str, &str), &JsonValue> = HashMap::new();
    for cell in cells(&doc) {
        let (_, config, policy) = ok_cell(cell);
        let label = (config, policy);
        let a = field(field(cell, "metrics"), "memory_anatomy");
        // The conservation invariants: per interval, the compute
        // partition sums to the measured local footprint and the pool
        // partition to the pool's ledger (exact integers).
        assert_eq!(num(a, "conservation_violations"), 0.0, "{label:?}");
        assert_eq!(num(field(a, "flow"), "row_violations"), 0.0, "{label:?}");
        // Exactly the eight components, each once.
        let components = field(a, "components");
        assert_eq!(
            keys(components),
            sorted(COMPUTE.into_iter().chain(POOL)),
            "{label:?}"
        );
        // Each side's components tile its measured total.
        let side = |names: [&str; 4]| names.iter().map(|c| num(components, c)).sum::<f64>();
        let compute = side(COMPUTE);
        let pool = side(POOL);
        assert!(
            (compute - num(a, "compute_byte_secs")).abs() < 1e-3,
            "{label:?}: compute components {compute} vs measured"
        );
        assert!(
            (pool - num(a, "pool_byte_secs")).abs() < 1e-3,
            "{label:?}: pool components {pool} vs measured"
        );
        // Per-function ledgers are present on every anatomy cell.
        let per_function = cell.get("function_waste").and_then(JsonValue::as_arr);
        assert!(
            per_function.is_some_and(|f| !f.is_empty()),
            "{label:?}: no function_waste"
        );
        assert!(
            waste.insert(label, components).is_none(),
            "duplicate cell {label:?}"
        );
    }

    let component = |config: &str, policy: &str, name: &str| {
        let cell = waste
            .get(&(config, policy))
            .unwrap_or_else(|| panic!("no cell ({config}, {policy})"));
        num(cell, name)
    };
    // The attribution shift: FaaSMem strictly shrinks keep-alive idle
    // waste and the byte-seconds reappear as pool-primary occupancy.
    for config in [
        "ka=10min, no redundancy",
        "ka=10min, mirror2",
        "ka=2min, no redundancy",
        "ka=2min, mirror2",
    ] {
        assert!(
            component(config, "FaaSMem", "keepalive_idle")
                < component(config, "Baseline", "keepalive_idle"),
            "{config}"
        );
        assert!(
            component(config, "FaaSMem", "pool_primary") > 0.0,
            "{config}"
        );
        assert_eq!(
            component(config, "Baseline", "pool_primary"),
            0.0,
            "{config}"
        );
    }
    // Mirroring prices the premium explicitly.
    let redundancy = |config| component(config, "FaaSMem", "redundancy_amplification");
    assert!(redundancy("ka=10min, mirror2") > 0.0);
    assert_eq!(redundancy("ka=10min, no redundancy"), 0.0);
}

#[test]
fn tracked_files_match_the_experiment_registry() {
    // Every tracked table is a `Table` entry's and every `Table` entry
    // has one; every grid export is named after an entry. The
    // wall-clock files are untracked, so a local run may leave them.
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut txt = Vec::new();
    let mut json = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let name = entry
            .expect("entry")
            .file_name()
            .into_string()
            .expect("utf-8");
        if name.contains(".timing.") {
            continue;
        }
        if let Some(stem) = name.strip_suffix(".txt") {
            txt.push(stem.to_string());
        } else if let Some(stem) = name.strip_suffix(".json") {
            json.push(stem.to_string());
        }
    }
    let tables = EXPERIMENTS
        .iter()
        .filter(|(_, stdout, _)| *stdout == Stdout::Table)
        .map(|(name, ..)| *name);
    assert_eq!(sorted(txt.iter().map(String::as_str)), sorted(tables));
    for stem in &json {
        assert!(
            EXPERIMENTS.iter().any(|(name, ..)| name == stem),
            "results/{stem}.json names no experiment"
        );
    }
}
