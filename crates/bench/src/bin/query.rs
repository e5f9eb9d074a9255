//! Queries the artifacts that explain a run: per-container timelines
//! and per-invocation span trees from a `--trace` JSONL file, and the
//! memory-anatomy ledgers of a grid result document.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin experiments -- \
//!     fig12_main_eval --quick --out out --trace out/fig12.trace.jsonl
//! cargo run --release -p faasmem-bench --bin query -- \
//!     containers out/fig12.trace.jsonl --container 3
//! cargo run --release -p faasmem-bench --bin query -- \
//!     spans out/fig12.trace.jsonl --slowest 5 --critical-path
//! cargo run --release -p faasmem-bench --bin query -- \
//!     mem results/disc10_memory_anatomy.json --component pool_primary --top 5
//! ```
//!
//! - `containers` prints one block per grid cell: its coordinates and
//!   headline counters, then one row per container with its lifecycle
//!   milestones and memory traffic. `--container ID` keeps one
//!   container's timeline across all cells; `--invocation ID` keeps
//!   the containers that executed one request id.
//! - `spans` ranks invocations by end-to-end latency, or by one blame
//!   component's contribution (`--component`), optionally with each
//!   one's critical path.
//! - `mem` ranks functions by one waste component's byte-seconds, or
//!   with `--flow` tabulates each cell's page-lifecycle flow. Its file
//!   defaults to where `experiments all` leaves the anatomy grid.
//!
//! Every output is a pure function of the input file, so serial and
//! parallel harness runs query identically.
//!
//! Exit codes: 0 success, 1 malformed input / unknown component or
//! function / nothing matched, 2 usage / IO errors.

use faasmem_bench::anatomy;
use faasmem_bench::json::{self, JsonValue};
use faasmem_trace::query::{render, select};
use faasmem_trace::summary::render_text;
use faasmem_trace::{read_jsonl, QueryOptions, SpanForest, TraceEvent, TraceSummary};
use std::collections::BTreeMap;

const USAGE: &str = "usage: query containers <trace.jsonl> [--container ID] [--invocation ID]
       query spans <trace.jsonl> [--slowest N] [--component NAME] [--cell N] \
[--function ID] [--critical-path]
       query mem [<results.json>] [--component NAME] [--top N] [--flow]";

/// Why a query failed: the exit code and the message for stderr.
struct Failure(i32, String);

fn usage() -> Failure {
    let default = anatomy::DEFAULT_RESULTS;
    Failure(
        2,
        format!("{USAGE}\ndefault results file for mem: {default}"),
    )
}

/// One subcommand's command line: at most one positional path, then
/// `--name VALUE` / `--name=VALUE` options and bare switches.
#[derive(Default)]
struct Args {
    path: Option<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    fn parse(
        mut args: impl Iterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Args, Failure> {
        let mut parsed = Args::default();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if parsed.path.replace(arg).is_some() {
                    return Err(usage());
                }
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if valued.contains(&name) {
                let value = match inline {
                    Some(value) => value,
                    None => args.next().ok_or_else(usage)?,
                };
                parsed.values.push((name.to_string(), value));
            } else if switches.contains(&name) && inline.is_none() {
                parsed.switches.push(arg);
            } else {
                return Err(Failure(2, format!("unknown option {arg}\n{}", usage().1)));
            }
        }
        Ok(parsed)
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        let mut given = self.values.iter().rev();
        given
            .find(|(name, _)| name == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, flag: &str) -> Result<Option<u64>, Failure> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| Failure(2, format!("bad {flag} value {v:?}")))
        };
        self.value(flag).map(parse).transpose()
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    fn path(&self) -> Result<&str, Failure> {
        self.path.as_deref().ok_or_else(usage)
    }
}

fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure(2, format!("cannot read {path}: {e}")))
}

fn read_trace(path: &str) -> Result<BTreeMap<u64, Vec<TraceEvent>>, Failure> {
    read_jsonl(&read(path)?).map_err(|e| Failure(1, format!("{path}: {e}")))
}

fn containers(args: Args) -> Result<String, Failure> {
    let path = args.path()?;
    let container = args.num("--container")?;
    let invocation = args.num("--invocation")?;
    let mut summary = TraceSummary::from_cells(&read_trace(path)?);
    if let Some(id) = container {
        summary.filter_container(id);
        if summary.cells.is_empty() {
            return Err(Failure(1, format!("container {id} not found in {path}")));
        }
    }
    if let Some(id) = invocation {
        summary.filter_invocation(id);
        if summary.cells.is_empty() {
            return Err(Failure(1, format!("invocation {id} not found in {path}")));
        }
    }
    Ok(render_text(&summary))
}

fn spans(args: Args) -> Result<String, Failure> {
    let path = args.path()?;
    let mut opts = QueryOptions {
        component: args.value("--component").map(String::from),
        cell: args.num("--cell")?,
        // Kept as a raw string: an unknown id must exit 1 with the
        // trace's function vocabulary, which `select` produces.
        function: args.value("--function").map(String::from),
        critical_path: args.switch("--critical-path"),
        ..QueryOptions::default()
    };
    if let Some(n) = args.num("--slowest")? {
        opts.slowest = n as usize;
    }
    let forest = SpanForest::from_cells(&read_trace(path)?);
    let hits = select(&forest, &opts).map_err(|e| Failure(1, e))?;
    if hits.is_empty() {
        return Err(Failure(1, format!("no invocations matched in {path}")));
    }
    Ok(render(&hits, &opts))
}

fn mem(args: Args) -> Result<String, Failure> {
    let component = args.value("--component").unwrap_or("keepalive_idle");
    let top = match args.num("--top")? {
        Some(0) => return Err(Failure(2, "bad --top value \"0\"".to_string())),
        top => top.map_or(10, |n| n as usize),
    };
    let known = anatomy::known_components();
    if !known.contains(&component) {
        return Err(Failure(
            1,
            format!(
                "unknown component {component:?} (expected one of: {})",
                known.join(", ")
            ),
        ));
    }
    let path = args.path.as_deref().unwrap_or(anatomy::DEFAULT_RESULTS);
    let doc = json::parse(&read(path)?).map_err(|e| Failure(1, format!("{path}: {e}")))?;
    let Some(cells) = doc.get("cells").and_then(JsonValue::as_arr) else {
        return Err(Failure(
            1,
            format!("{path}: missing \"cells\" (is this a grid result document?)"),
        ));
    };
    let (rendered, block) = if args.switch("--flow") {
        (anatomy::flows(cells), "memory_anatomy blocks")
    } else {
        (
            anatomy::ranking(cells, component, top),
            "function_waste entries",
        )
    };
    rendered.ok_or_else(|| {
        Failure(
            1,
            format!("no {block} in {path} (was the grid run with PlatformConfig::memory_anatomy?)"),
        )
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("containers") => {
            Args::parse(args, &["--container", "--invocation"], &[]).and_then(containers)
        }
        Some("spans") => Args::parse(
            args,
            &["--slowest", "--component", "--cell", "--function"],
            &["--critical-path"],
        )
        .and_then(spans),
        Some("mem") => Args::parse(args, &["--component", "--top"], &["--flow"]).and_then(mem),
        _ => Err(usage()),
    };
    match result {
        Ok(out) => print!("{out}"),
        Err(Failure(code, message)) => {
            eprintln!("query: {message}");
            std::process::exit(code);
        }
    }
}
