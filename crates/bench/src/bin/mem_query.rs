//! Queries a grid result document for the memory-anatomy story: which
//! functions waste the most byte-seconds, on which component, and how
//! pages flowed through their lifecycle.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin disc10_memory_anatomy
//! cargo run --release -p faasmem-bench --bin mem_query
//! cargo run --release -p faasmem-bench --bin mem_query -- \
//!     results/disc10_memory_anatomy.json --component pool_primary --top 5
//! cargo run --release -p faasmem-bench --bin mem_query -- --flow
//! ```
//!
//! The output is a pure function of the result document, which is
//! itself byte-identical across `--jobs`, so serial and parallel
//! harness runs query identically.
//!
//! Exit codes: 0 success, 1 malformed document / unknown component /
//! nothing matched, 2 usage / IO errors.

use faasmem_bench::json::{self, JsonValue};
use faasmem_bench::render_table;
use faasmem_faas::WasteComponent;

/// Where `runall` leaves the anatomy grid's result document.
const DEFAULT_RESULTS: &str = "results/disc10_memory_anatomy.json";

fn usage() -> ! {
    eprintln!(
        "usage: mem_query [<results.json>] [--component NAME] [--top N] [--flow]\n\
         default results file: {DEFAULT_RESULTS}"
    );
    std::process::exit(2);
}

fn known_components() -> Vec<&'static str> {
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

/// One function's ledger in one cell, pulled from its `function_waste`
/// entry: the ranked component's value plus the ledger total.
struct Row {
    cell: String,
    function: String,
    value: f64,
    total: f64,
}

fn rank_rows(cells: &[JsonValue], component: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    for cell in cells {
        let Some(waste) = cell.get("function_waste").and_then(JsonValue::as_arr) else {
            continue;
        };
        for entry in waste {
            let function = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string();
            let total = entry
                .get("total_byte_secs")
                .and_then(JsonValue::as_num)
                .unwrap_or(0.0);
            let value = if component == "total" {
                total
            } else {
                entry
                    .get("components")
                    .and_then(|c| c.get(component))
                    .and_then(JsonValue::as_num)
                    .unwrap_or(0.0)
            };
            rows.push(Row {
                cell: cell_label(cell),
                function,
                value,
                total,
            });
        }
    }
    // Stable sort: ties keep document (cell, function) order.
    rows.sort_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn render_ranking(rows: &[Row], component: &str, top: usize) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .take(top)
        .enumerate()
        .map(|(rank, row)| {
            vec![
                format!("#{}", rank + 1),
                row.cell.clone(),
                row.function.clone(),
                fmt_gib_s(row.value),
                fmt_gib_s(row.total),
            ]
        })
        .collect();
    render_table(
        &[
            "rank",
            "cell",
            "function",
            &format!("{component} GiB*s"),
            "total GiB*s",
        ],
        &table,
    )
}

fn render_flows(cells: &[JsonValue]) -> Option<String> {
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
    Some(render_table(
        &[
            "cell",
            "allocated",
            "reused",
            "offloaded",
            "recalled d+p",
            "freed l+r",
            "row violations",
        ],
        &table,
    ))
}

fn main() {
    let mut path: Option<String> = None;
    let mut component = "keepalive_idle".to_string();
    let mut top = 10usize;
    let mut flow = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag = |name: &'static str| -> Option<String> {
            if let Some(value) = arg.strip_prefix(&format!("{name}=")) {
                Some(value.to_string())
            } else if arg == name {
                match args.next() {
                    Some(value) => Some(value),
                    None => usage(),
                }
            } else {
                None
            }
        };
        if let Some(value) = flag("--component") {
            component = value;
        } else if let Some(value) = flag("--top") {
            match value.parse::<usize>() {
                Ok(n) if n > 0 => top = n,
                _ => {
                    eprintln!("mem_query: bad --top value {value:?}");
                    std::process::exit(2);
                }
            }
        } else if arg == "--flow" {
            flow = true;
        } else if arg.starts_with("--") {
            eprintln!("mem_query: unknown option {arg}");
            usage();
        } else if path.is_none() {
            path = Some(arg);
        } else {
            usage();
        }
    }
    if !known_components().contains(&component.as_str()) {
        eprintln!(
            "mem_query: unknown component {component:?} (expected one of: {})",
            known_components().join(", ")
        );
        std::process::exit(1);
    }
    let path = path.unwrap_or_else(|| DEFAULT_RESULTS.to_string());
    let input = match std::fs::read_to_string(&path) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("mem_query: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match json::parse(&input) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("mem_query: {path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(cells) = doc.get("cells").and_then(JsonValue::as_arr) else {
        eprintln!("mem_query: {path}: missing \"cells\" (is this a grid result document?)");
        std::process::exit(1);
    };
    if flow {
        match render_flows(cells) {
            Some(table) => {
                println!("page-lifecycle flow per cell:");
                print!("{table}");
            }
            None => {
                eprintln!(
                    "mem_query: no memory_anatomy blocks in {path} \
                     (was the grid run with PlatformConfig::memory_anatomy?)"
                );
                std::process::exit(1);
            }
        }
        return;
    }
    let rows = rank_rows(cells, &component);
    if rows.is_empty() {
        eprintln!(
            "mem_query: no function_waste entries in {path} \
             (was the grid run with PlatformConfig::memory_anatomy?)"
        );
        std::process::exit(1);
    }
    println!("top functions by {component} byte-seconds:");
    print!("{}", render_ranking(&rows, &component, top));
}
