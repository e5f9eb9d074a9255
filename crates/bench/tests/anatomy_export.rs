//! Schema and invariant checks on the tracked memory-anatomy export,
//! `results/disc10_memory_anatomy.json`.
//!
//! CI regenerates the grid and byte-compares it with the tracked file,
//! so these assertions hold for every fresh run too: per-cell
//! conservation on both sides, the flow matrix balancing, per-function
//! ledgers on every cell, and the attribution shift the experiment
//! exists to show — FaaSMem moves keep-alive idle byte-seconds into
//! pool-primary occupancy, and mirroring prices its premium as
//! redundancy amplification.

use std::collections::HashMap;

use faasmem_bench::json::{self, JsonValue};

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

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key)
        .and_then(JsonValue::as_num)
        .unwrap_or_else(|| panic!("missing number {key:?}"))
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
}

#[test]
fn tracked_anatomy_export_conserves_and_shows_the_attribution_shift() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/disc10_memory_anatomy.json"
    );
    let input = std::fs::read_to_string(path).expect("tracked anatomy export");
    let doc = json::parse(&input).expect("valid JSON");
    assert_eq!(num(&doc, "schema_version"), 1.0);
    assert_eq!(text(&doc, "grid"), "disc10_memory_anatomy");

    let cells = doc.get("cells").and_then(JsonValue::as_arr).expect("cells");
    let mut waste: HashMap<(&str, &str), &JsonValue> = HashMap::new();
    for cell in cells {
        let label = (text(cell, "config"), text(cell, "policy"));
        assert_eq!(text(cell, "status"), "ok", "{label:?}");
        let a = cell
            .get("metrics")
            .and_then(|m| m.get("memory_anatomy"))
            .expect("anatomy block");
        // The conservation invariants: per interval, the compute
        // partition sums to the measured local footprint and the pool
        // partition to the pool's ledger (exact integers).
        assert_eq!(num(a, "conservation_violations"), 0.0, "{label:?}");
        let flow = a.get("flow").expect("flow block");
        assert_eq!(num(flow, "row_violations"), 0.0, "{label:?}");
        // Exactly the eight components, each once.
        let components = a.get("components").expect("components");
        let JsonValue::Obj(members) = components else {
            panic!("{label:?}: components is not an object");
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        let mut expected: Vec<&str> = COMPUTE.iter().chain(&POOL).copied().collect();
        expected.sort_unstable();
        assert_eq!(keys, expected, "{label:?}");
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
