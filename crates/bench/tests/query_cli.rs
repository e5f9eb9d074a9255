//! End-to-end checks of the `query` binary: each subcommand prints
//! exactly what the library renders for the same input, and exits 1
//! for a query that cannot be answered (unknown component or function,
//! id not found, malformed input) and 2 for bad usage or an unreadable
//! file.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use faasmem_bench::harness::{
    run_grid, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec,
};
use faasmem_bench::json::{self, JsonValue};
use faasmem_bench::{anatomy, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_trace::query::{render, select};
use faasmem_trace::summary::render_text;
use faasmem_trace::{read_jsonl, QueryOptions, SpanForest, TraceSummary};
use faasmem_workload::{BenchmarkSpec, LoadClass};

/// The repository root, where `query mem` finds its default file.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `query` from the repository root: its exit code and stdout.
fn query(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_query"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("query runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (out.status.code().expect("query exits"), stdout)
}

/// A small traced, anatomy-enabled run written to disk once: the
/// trace's path and text, and the result document's path.
struct Run {
    trace: String,
    trace_text: String,
    results: String,
}

fn run() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| {
        let grid = ExperimentGrid::new("query_cli")
            .trace(TraceSpec::synth("high", 4242, LoadClass::High))
            .bench(BenchCase::single(
                BenchmarkSpec::by_name("json").expect("catalog"),
            ))
            .config(ConfigCase::new(
                "anatomy",
                PlatformConfig {
                    memory_anatomy: true,
                    ..PlatformConfig::default()
                },
            ))
            .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
        let opts = HarnessOptions {
            jobs: 2,
            quick: true,
            // Only switches recording on; nothing is written there.
            trace: Some(PathBuf::from("unused.jsonl")),
            ..HarnessOptions::default()
        };
        let grid_run = run_grid(&grid, &opts);
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("query_cli");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let trace = dir.join("run.trace.jsonl");
        let results = dir.join("run.json");
        let trace_text = grid_run.trace_jsonl();
        std::fs::write(&trace, &trace_text).expect("write trace");
        std::fs::write(&results, grid_run.to_json().to_pretty()).expect("write results");
        Run {
            trace: trace.display().to_string(),
            trace_text,
            results: results.display().to_string(),
        }
    })
}

fn summary() -> TraceSummary {
    TraceSummary::from_cells(&read_jsonl(&run().trace_text).expect("trace decodes"))
}

fn spans_render(opts: &QueryOptions) -> String {
    let forest = SpanForest::from_cells(&read_jsonl(&run().trace_text).expect("trace decodes"));
    render(&select(&forest, opts).expect("valid query"), opts)
}

/// The `cells` of a grid result document.
fn cells(path: &str) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(path).expect("read results");
    let doc = json::parse(&text).expect("results parse");
    doc.get("cells")
        .and_then(JsonValue::as_arr)
        .expect("cells")
        .to_vec()
}

#[test]
fn containers_prints_the_summary_render() {
    let trace = run().trace.as_str();
    let full = summary();
    assert_eq!(query(&["containers", trace]), (0, render_text(&full)));

    let tl = &full.cells[0].containers[0];
    let (ctr, req) = (tl.container, tl.requests[0]);
    let mut one = full.clone();
    one.filter_container(ctr);
    let ctr = ctr.to_string();
    assert_eq!(
        query(&["containers", trace, "--container", &ctr]),
        (0, render_text(&one))
    );
    let mut served = full.clone();
    served.filter_invocation(req);
    let req = format!("--invocation={req}");
    assert_eq!(
        query(&["containers", trace, &req]),
        (0, render_text(&served))
    );

    assert_eq!(
        query(&["containers", trace, "--container", "999999"]),
        (1, String::new())
    );
    assert_eq!(
        query(&["containers", trace, "--invocation", "999999"]),
        (1, String::new())
    );
}

#[test]
fn spans_prints_the_query_render() {
    let trace = run().trace.as_str();
    let default = QueryOptions::default();
    assert_eq!(query(&["spans", trace]), (0, spans_render(&default)));
    let narrowed = QueryOptions {
        slowest: 2,
        cell: Some(1),
        function: Some("0".into()),
        critical_path: true,
        ..QueryOptions::default()
    };
    assert_eq!(
        query(&[
            "spans",
            trace,
            "--slowest",
            "2",
            "--cell=1",
            "--function",
            "0",
            "--critical-path"
        ]),
        (0, spans_render(&narrowed))
    );

    assert_eq!(
        query(&["spans", trace, "--component", "gremlins"]),
        (1, String::new())
    );
    assert_eq!(
        query(&["spans", trace, "--function", "resnet"]),
        (1, String::new())
    );
    assert_eq!(query(&["spans", trace, "--cell", "99"]), (1, String::new()));
}

#[test]
fn mem_prints_the_anatomy_render() {
    let tracked = "results/disc10_memory_anatomy.json";
    let tracked_cells = cells(&root().join(tracked).display().to_string());
    let ranking = |cells: &[JsonValue], component, top| {
        anatomy::ranking(cells, component, top).expect("ledgers present")
    };

    // The tracked document is the default input.
    let by_idle = ranking(&tracked_cells, "keepalive_idle", 10);
    assert_eq!(query(&["mem"]), (0, by_idle.clone()));
    assert_eq!(query(&["mem", tracked]), (0, by_idle));
    assert_eq!(
        query(&["mem", tracked, "--component", "pool_primary", "--top", "5"]),
        (0, ranking(&tracked_cells, "pool_primary", 5))
    );
    let flows = anatomy::flows(&tracked_cells).expect("flow blocks present");
    assert_eq!(query(&["mem", tracked, "--flow"]), (0, flows));

    let fresh = run().results.as_str();
    let fresh_cells = cells(fresh);
    assert_eq!(
        query(&["mem", fresh, "--component=total"]),
        (0, ranking(&fresh_cells, "total", 10))
    );

    assert_eq!(
        query(&["mem", tracked, "--component", "gremlins"]),
        (1, String::new())
    );
    // A trace is not a grid result document.
    assert_eq!(query(&["mem", &run().trace]), (1, String::new()));
}

#[test]
fn malformed_input_exits_1_and_bad_usage_or_io_exits_2() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("query_cli");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let bad = dir.join("no_kind.trace.jsonl");
    std::fs::write(&bad, "{\"t\":0}\n").expect("write bad trace");
    let bad = bad.display().to_string();
    for sub in ["containers", "spans"] {
        assert_eq!(query(&[sub, &bad]), (1, String::new()), "{sub}");
    }

    let trace = run().trace.as_str();
    let missing = "no/such/file.json";
    for args in [
        &[][..],
        &["bogus"],
        &["containers"],
        &["containers", trace, "--container"],
        &["containers", trace, "--container", "x"],
        &["containers", trace, trace],
        &["containers", missing],
        &["spans", trace, "--bogus"],
        &["spans", trace, "--slowest", "-1"],
        &["spans", trace, "--critical-path=yes"],
        &["spans", missing],
        &["mem", "--top", "0"],
        &["mem", missing],
    ] {
        assert_eq!(query(args), (2, String::new()), "{args:?}");
    }
}
