//! The memory-anatomy queries behind `query mem`: which functions
//! waste the most byte-seconds, on which component, and how pages
//! flowed through their lifecycle — read back from a grid result
//! document's `function_waste` and `metrics.memory_anatomy` blocks.
//!
//! Each render is a pure function of the document, which is itself
//! byte-identical across `--jobs`, so serial and parallel harness runs
//! query identically.

use crate::json::JsonValue;
use crate::render_table;
use faasmem_faas::WasteComponent;

/// Where `experiments all` leaves the anatomy grid's result document.
pub const DEFAULT_RESULTS: &str = "results/disc10_memory_anatomy.json";

/// The names a ranking can key on: every waste component, then `total`.
pub fn known_components() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = WasteComponent::ALL.iter().map(|c| c.name()).collect();
    names.push("total");
    names
}

fn cell_label(cell: &JsonValue) -> String {
    let txt = |key: &str| cell.get(key).and_then(JsonValue::as_str).unwrap_or("?");
    format!(
        "{}/{}/{}/{}",
        txt("trace"),
        txt("bench"),
        txt("config"),
        txt("policy")
    )
}

fn fmt_gib_s(byte_secs: f64) -> String {
    format!("{:.2}", byte_secs / (1024.0 * 1024.0 * 1024.0))
}

/// Ranks every cell's functions by `component`'s byte-seconds (or the
/// ledger `total`) and renders the `top` of them, with a heading.
/// `None` when the document carries no `function_waste` entries.
pub fn ranking(cells: &[JsonValue], component: &str, top: usize) -> Option<String> {
    // (cell, function, ranked value, ledger total), one per entry.
    let mut rows: Vec<(String, String, f64, f64)> = Vec::new();
    for cell in cells {
        let Some(waste) = cell.get("function_waste").and_then(JsonValue::as_arr) else {
            continue;
        };
        for entry in waste {
            let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_num).unwrap_or(0.0);
            let total = num(entry.get("total_byte_secs"));
            let value = if component == "total" {
                total
            } else {
                num(entry.get("components").and_then(|c| c.get(component)))
            };
            let function = entry.get("name").and_then(JsonValue::as_str).unwrap_or("?");
            rows.push((cell_label(cell), function.to_string(), value, total));
        }
    }
    if rows.is_empty() {
        return None;
    }
    // Stable sort: ties keep document (cell, function) order.
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let table: Vec<Vec<String>> = rows
        .into_iter()
        .take(top)
        .enumerate()
        .map(|(rank, (cell, function, value, total))| {
            vec![
                format!("#{}", rank + 1),
                cell,
                function,
                fmt_gib_s(value),
                fmt_gib_s(total),
            ]
        })
        .collect();
    let headers = [
        "rank",
        "cell",
        "function",
        &format!("{component} GiB*s"),
        "total GiB*s",
    ];
    Some(format!(
        "top functions by {component} byte-seconds:\n{}",
        render_table(&headers, &table)
    ))
}

/// Renders each cell's page-lifecycle flow counts, with a heading.
/// `None` when no cell carries a `memory_anatomy` block.
pub fn flows(cells: &[JsonValue]) -> Option<String> {
    let mut table = Vec::new();
    for cell in cells {
        let Some(flow) = cell
            .get("metrics")
            .and_then(|m| m.get("memory_anatomy"))
            .and_then(|a| a.get("flow"))
        else {
            continue;
        };
        let count = |key: &str| flow.get(key).and_then(JsonValue::as_num).unwrap_or(0.0);
        table.push(vec![
            cell_label(cell),
            format!("{}", count("allocated")),
            format!("{}", count("reused")),
            format!("{}", count("offloaded")),
            format!(
                "{}+{}",
                count("recalled_demand"),
                count("recalled_prefetch")
            ),
            format!("{}+{}", count("freed_local"), count("freed_remote")),
            format!("{}", count("row_violations")),
        ]);
    }
    if table.is_empty() {
        return None;
    }
    let headers = [
        "cell",
        "allocated",
        "reused",
        "offloaded",
        "recalled d+p",
        "freed l+r",
        "row violations",
    ];
    Some(format!(
        "page-lifecycle flow per cell:\n{}",
        render_table(&headers, &table)
    ))
}
