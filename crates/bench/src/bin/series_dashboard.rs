//! Renders a `*.series.json` telemetry document as a stacked SVG
//! dashboard: one timeline panel per series-name prefix group
//! (`faas.*`, `mem.*`, `pool.*`, `registry.*`), plus a "blame
//! breakdown" panel when the cell carries latency-blame gauges such as
//! `faas.invocations_stalled_remote`.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin experiments -- \
//!     fig12_main_eval --quick --out out --series out/fig12.series.json
//! cargo run --release -p faasmem-bench --bin series_dashboard -- \
//!     out/fig12.series.json --cell 0 --out out/fig12.dashboard.svg
//! ```
//!
//! `--cell` defaults to 0; `--out` defaults to the input path with its
//! extension replaced by `.svg`. Exit code 2 on usage / IO / parse /
//! render errors.

use std::path::PathBuf;

use faasmem_bench::dashboard;

fn usage() -> ! {
    eprintln!("usage: series_dashboard <series.json> [--cell N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut input: Option<String> = None;
    let mut cell: usize = 0;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(value) = arg.strip_prefix("--cell=") {
            cell = parse_cell(value);
        } else if arg == "--cell" {
            let Some(value) = args.next() else { usage() };
            cell = parse_cell(&value);
        } else if let Some(value) = arg.strip_prefix("--out=") {
            out = Some(PathBuf::from(value));
        } else if arg == "--out" {
            let Some(value) = args.next() else { usage() };
            out = Some(PathBuf::from(value));
        } else if arg.starts_with("--") {
            eprintln!("series_dashboard: unknown option {arg}");
            usage();
        } else if input.is_none() {
            input = Some(arg);
        } else {
            usage();
        }
    }
    let Some(input) = input else { usage() };
    let out = out.unwrap_or_else(|| PathBuf::from(&input).with_extension("svg"));

    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("series_dashboard: cannot read {input}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match dashboard::parse_series(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("series_dashboard: {input}: {e}");
            std::process::exit(2);
        }
    };
    let svg = match dashboard::render_dashboard(&doc, cell) {
        Ok(svg) => svg,
        Err(e) => {
            eprintln!("series_dashboard: {input}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::write(&out, svg) {
        eprintln!("series_dashboard: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    println!("(dashboard written to {})", out.display());
}

fn parse_cell(value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(cell) => cell,
        Err(_) => {
            eprintln!("series_dashboard: bad cell index {value:?}");
            std::process::exit(2);
        }
    }
}
