//! Integration tests for the parallel experiment harness: deterministic
//! fan-out (the merged document is a pure function of the grid, for any
//! `--jobs`), grid edge cases, panic isolation, and option parsing.

use std::path::Path;

use faasmem_bench::harness::{
    quick_out_problem, run_grid, validate_grid, BenchCase, ConfigCase, ExperimentGrid,
    HarnessOptions, PolicySpec, SeedMix, TraceKind, TraceSpec, DEFAULT_CONFIG,
};
use faasmem_bench::{json, PolicyKind};
use faasmem_core::FaasMemConfig;
use faasmem_faas::{FaultConfig, PlatformConfig};
use faasmem_sim::{FaultSpec, SimDuration, SimTime};
use faasmem_workload::{BenchmarkSpec, LoadClass};

fn quick_opts(jobs: usize) -> HarnessOptions {
    HarnessOptions {
        jobs,
        quick: true,
        ..HarnessOptions::default()
    }
}

/// A small but non-trivial grid: 2 traces × 2 benches × 3 policies.
fn sample_grid() -> ExperimentGrid {
    ExperimentGrid::new("harness_test_grid")
        .traces([
            TraceSpec::synth("high", 4242, LoadClass::High).seed_mix(SeedMix::XorNameLen),
            TraceSpec::synth("low", 4243, LoadClass::Low).bursty(true),
        ])
        .benches(
            ["json", "web"]
                .map(|app| BenchCase::single(BenchmarkSpec::by_name(app).expect("catalog"))),
        )
        .policy_kinds(PolicyKind::HEAD_TO_HEAD)
}

#[test]
fn merged_json_is_byte_identical_across_thread_counts() {
    let grid = sample_grid();
    let serial = run_grid(&grid, &quick_opts(1));
    let expected = serial.to_json().to_pretty();
    for jobs in [2, 4, 7] {
        let parallel = run_grid(&grid, &quick_opts(jobs));
        assert_eq!(
            parallel.to_json().to_pretty(),
            expected,
            "merged document diverged at jobs={jobs}"
        );
    }
}

#[test]
fn cells_are_enumerated_in_grid_order() {
    let run = run_grid(&sample_grid(), &quick_opts(3));
    assert_eq!(run.cells.len(), 12);
    let labels: Vec<String> = run
        .cells
        .iter()
        .map(|c| {
            format!(
                "{}/{}/{}/{}",
                c.labels.trace, c.labels.bench, c.labels.config, c.labels.policy
            )
        })
        .collect();
    // Nesting order: traces → benches → configs → policies.
    assert_eq!(labels[0], "high/json/default/Baseline");
    assert_eq!(labels[1], "high/json/default/TMO");
    assert_eq!(labels[2], "high/json/default/FaaSMem");
    assert_eq!(labels[3], "high/web/default/Baseline");
    assert_eq!(labels[6], "low/json/default/Baseline");
    assert_eq!(labels[11], "low/web/default/FaaSMem");
}

#[test]
fn empty_grid_runs_and_exports() {
    let grid = ExperimentGrid::new("empty");
    assert!(grid.is_empty());
    let run = run_grid(&grid, &quick_opts(4));
    assert_eq!(run.cells.len(), 0);
    assert_eq!(run.failures(), 0);
    let doc = run.to_json().to_pretty();
    let parsed = json::parse(&doc).expect("empty-grid document parses");
    assert_eq!(parsed.get("grid").and_then(|v| v.as_str()), Some("empty"));
    assert_eq!(
        parsed
            .get("cells")
            .and_then(|v| v.as_arr())
            .map(|a| a.len()),
        Some(0)
    );
}

#[test]
fn single_cell_grid() {
    let one_shot = TraceKind::Periodic {
        start: SimTime::from_secs(5),
        bursts: 1,
        per_burst: 1,
        spacing: SimDuration::ZERO,
        period: SimDuration::ZERO,
    };
    let grid = ExperimentGrid::new("single")
        .trace(TraceSpec::new("one-shot", one_shot).duration(SimTime::from_secs(60)))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("json").expect("catalog"),
        ))
        .policy_kinds([PolicyKind::Baseline]);
    assert_eq!(grid.len(), 1);
    // More workers than cells: jobs is clamped to the cell count.
    let run = run_grid(&grid, &quick_opts(8));
    assert_eq!(run.jobs, 1);
    let outcome = run.outcome(
        "one-shot",
        "json",
        DEFAULT_CONFIG,
        PolicyKind::Baseline.name(),
    );
    assert_eq!(outcome.trace_len, 1);
    assert_eq!(outcome.summary.requests_completed, 1);
    assert_eq!(outcome.summary.cold_starts, 1);
    assert!(
        outcome.faasmem.is_none(),
        "baseline publishes no FaaSMem stats"
    );
}

/// Bench cases for a 2-function cluster trace: `pair` registers both
/// functions, `json` only the first, so every cell on `json` panics when
/// function 1 first arrives.
fn pair_and_single() -> [BenchCase; 2] {
    let json = BenchmarkSpec::by_name("json").expect("catalog");
    let web = BenchmarkSpec::by_name("web").expect("catalog");
    [
        BenchCase::cluster("pair", vec![json.clone(), web]),
        BenchCase::single(json),
    ]
}

#[test]
fn panicking_cell_is_captured_while_others_complete() {
    let grid = ExperimentGrid::new("panics")
        .trace(TraceSpec::cluster("two-fn", 78, 2))
        .benches(pair_and_single())
        .policies([
            PolicySpec::Kind(PolicyKind::Baseline),
            PolicySpec::faasmem("faasmem-ok", FaasMemConfig::default()),
        ]);
    let run = run_grid(&grid, &quick_opts(2));
    assert_eq!(run.cells.len(), 4);
    assert_eq!(run.failures(), 2);

    let failed = run.cell("two-fn", "json", DEFAULT_CONFIG, "faasmem-ok");
    let msg = failed
        .outcome
        .as_ref()
        .expect_err("cell must have panicked");
    assert!(
        msg.contains("trace invokes unregistered"),
        "panic message lost: {msg}"
    );
    // The report carries enough context to replay the cell stand-alone.
    assert!(
        msg.contains("cell[trace=two-fn, bench=json, config=default, policy=faasmem-ok]"),
        "panic message lacks cell coordinates: {msg}"
    );
    assert!(
        msg.contains("seed=78") && msg.contains("fault_seed=none"),
        "panic message lacks seeds: {msg}"
    );

    // Neighbours on the same workers still ran to completion.
    assert!(
        run.outcome(
            "two-fn",
            "pair",
            DEFAULT_CONFIG,
            PolicyKind::Baseline.name()
        )
        .summary
        .requests_completed
            > 0
    );
    assert!(run
        .outcome("two-fn", "pair", DEFAULT_CONFIG, "faasmem-ok")
        .faasmem
        .is_some());

    // The failure is visible in the exported document.
    let doc = run.to_json();
    let cells = doc
        .get("cells")
        .and_then(|v| v.as_arr())
        .expect("cells array");
    let statuses: Vec<&str> = cells
        .iter()
        .filter_map(|c| c.get("status").and_then(|s| s.as_str()))
        .collect();
    assert_eq!(statuses, ["ok", "ok", "panicked", "panicked"]);
}

#[test]
fn quick_runs_refuse_the_tracked_results_directory() {
    for dir in ["results", "./results", "results/"] {
        assert!(quick_out_problem(true, Path::new(dir)).is_some(), "{dir}");
        assert_eq!(quick_out_problem(false, Path::new(dir)), None, "{dir}");
    }
    for dir in ["out", "out/results", "results-quick"] {
        assert_eq!(quick_out_problem(true, Path::new(dir)), None, "{dir}");
    }
}

#[test]
fn exported_files_roundtrip_through_the_parser() {
    let run = run_grid(&sample_grid(), &quick_opts(4));
    let dir = std::env::temp_dir().join(format!("faasmem-harness-test-{}", std::process::id()));
    let main = run.write_results(&dir).expect("write results");
    let text = std::fs::read_to_string(&main).expect("read main document");
    let parsed = json::parse(&text).expect("main document parses");
    assert_eq!(
        parsed.get("grid").and_then(|v| v.as_str()),
        Some("harness_test_grid")
    );
    assert_eq!(parsed.get("quick"), Some(&json::JsonValue::Bool(true)));

    let timing = std::fs::read_to_string(dir.join("harness_test_grid.timing.json"))
        .expect("read timing document");
    let timing = json::parse(&timing).expect("timing document parses");
    assert_eq!(
        timing.get("schema_version").and_then(|v| v.as_num()),
        Some(1.0)
    );
    assert_eq!(
        timing.get("grid").and_then(|v| v.as_str()),
        Some("harness_test_grid")
    );
    assert!(timing
        .get("cells")
        .and_then(|v| v.as_arr())
        .is_some_and(|c| !c.is_empty()));
    assert_eq!(timing.get("jobs").and_then(|v| v.as_num()), Some(4.0));
    // Wall-clock lives only in the timing file, never in the main one.
    assert!(
        text.find("wall").is_none(),
        "main document must not contain wall-clock data"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quick_mode_truncates_synthesized_traces() {
    let grid = ExperimentGrid::new("quick_check")
        .trace(TraceSpec::synth("high", 4242, LoadClass::High))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("json").expect("catalog"),
        ))
        .policy_kinds([PolicyKind::Baseline]);
    let quick = run_grid(&grid, &quick_opts(1));
    let full = run_grid(
        &grid,
        &HarnessOptions {
            jobs: 1,
            quick: false,
            ..HarnessOptions::default()
        },
    );
    let quick_len = quick
        .outcome("high", "json", DEFAULT_CONFIG, PolicyKind::Baseline.name())
        .trace_len;
    let full_len = full
        .outcome("high", "json", DEFAULT_CONFIG, PolicyKind::Baseline.name())
        .trace_len;
    assert!(quick.quick && !full.quick);
    assert!(
        quick_len < full_len,
        "quick trace ({quick_len}) must be shorter than the full one ({full_len})"
    );
}

#[test]
fn panicking_chaos_cell_records_its_fault_seed() {
    let chaos = PlatformConfig {
        faults: Some(FaultConfig {
            spec: FaultSpec::new(0xBAD5EED)
                .outages(SimDuration::from_mins(5), SimDuration::from_secs(30)),
            ..FaultConfig::default()
        }),
        ..PlatformConfig::default()
    };
    let [pair, json] = pair_and_single();
    let grid = ExperimentGrid::new("chaos_panics")
        .trace(TraceSpec::cluster("two-fn", 78, 2))
        .benches([json, pair])
        .config(ConfigCase::new("chaos", chaos))
        .policy_kinds([PolicyKind::Baseline]);
    let run = run_grid(&grid, &quick_opts(1));
    let failed = run.cell("two-fn", "json", "chaos", "Baseline");
    let msg = failed
        .outcome
        .as_ref()
        .expect_err("cell must have panicked");
    assert!(
        msg.contains(&format!("fault_seed={}", 0xBAD5EEDu64)),
        "fault seed missing: {msg}"
    );

    // Both seeds land in the exported document for the failed cell.
    let doc = run.to_json();
    let cells = doc.get("cells").and_then(|v| v.as_arr()).expect("cells");
    assert_eq!(
        cells[0].get("status").and_then(|v| v.as_str()),
        Some("panicked")
    );
    assert_eq!(cells[0].get("seed").and_then(|v| v.as_num()), Some(78.0));
    assert_eq!(
        cells[0].get("fault_seed").and_then(|v| v.as_num()),
        Some(0xBAD5EEDu64 as f64)
    );
    // The chaos cell beside it, whose bench registers both functions,
    // still ran to completion.
    assert_eq!(cells[1].get("status").and_then(|v| v.as_str()), Some("ok"));
}

#[test]
fn clean_cells_export_no_skip_or_fault_fields() {
    let run = run_grid(&sample_grid(), &quick_opts(1));
    let text = run.to_json().to_pretty();
    // Additive fields must stay invisible for fault-free, clean-trace
    // grids so documents written before they existed stay byte-identical.
    assert!(!text.contains("trace_skipped_rows"));
    assert!(!text.contains("fault_seed"));
    assert!(!text.contains("\"faults\""));
    // Same contract for the anatomy layer: off by default, so
    // pre-anatomy documents never change shape.
    assert!(!text.contains("memory_anatomy"));
    assert!(!text.contains("function_waste"));
}

#[test]
fn anatomy_grid_is_deterministic_across_thread_counts() {
    let grid = ExperimentGrid::new("anatomy_grid")
        .traces([
            TraceSpec::synth("high", 4242, LoadClass::High),
            TraceSpec::synth("low", 4243, LoadClass::Low).bursty(true),
        ])
        .benches(
            ["json", "web"]
                .map(|app| BenchCase::single(BenchmarkSpec::by_name(app).expect("catalog"))),
        )
        .config(ConfigCase::new(
            "anatomy",
            PlatformConfig {
                memory_anatomy: true,
                ..PlatformConfig::default()
            },
        ))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let serial = run_grid(&grid, &quick_opts(1)).to_json().to_pretty();
    assert!(
        serial.contains("\"memory_anatomy\""),
        "anatomy runs must export the block"
    );
    assert!(
        serial.contains("\"function_waste\""),
        "anatomy runs must export per-function ledgers"
    );
    assert!(serial.contains("\"conservation_violations\": 0"));
    for jobs in [2, 5] {
        let parallel = run_grid(&grid, &quick_opts(jobs)).to_json().to_pretty();
        assert_eq!(parallel, serial, "anatomy document diverged at jobs={jobs}");
    }
}

#[test]
fn chaos_grid_is_deterministic_across_thread_counts() {
    let chaos = PlatformConfig {
        faults: Some(FaultConfig {
            spec: FaultSpec::new(0xFA17)
                .outages(SimDuration::from_mins(2), SimDuration::from_secs(20))
                .crashes(SimDuration::from_mins(3)),
            slo: Some(SimDuration::from_secs(2)),
            ..FaultConfig::default()
        }),
        ..PlatformConfig::default()
    };
    let grid = ExperimentGrid::new("chaos_grid")
        .traces([
            TraceSpec::synth("high", 4242, LoadClass::High),
            TraceSpec::synth("low", 4243, LoadClass::Low).bursty(true),
        ])
        .benches(
            ["json", "web"]
                .map(|app| BenchCase::single(BenchmarkSpec::by_name(app).expect("catalog"))),
        )
        .config(ConfigCase::new("chaos", chaos))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let serial = run_grid(&grid, &quick_opts(1)).to_json().to_pretty();
    assert!(
        serial.contains("\"faults\""),
        "chaos runs must export the block"
    );
    for jobs in [2, 5] {
        let parallel = run_grid(&grid, &quick_opts(jobs)).to_json().to_pretty();
        assert_eq!(parallel, serial, "chaos document diverged at jobs={jobs}");
    }
}

/// Quick options with tracing enabled. `run_grid` only records events
/// when `trace` is set; the path itself is used by `run_and_export`,
/// which these tests never call, so nothing is written.
fn traced_opts(jobs: usize) -> HarnessOptions {
    HarnessOptions {
        trace: Some(std::path::PathBuf::from("unused.jsonl")),
        ..quick_opts(jobs)
    }
}

#[test]
fn trace_jsonl_is_byte_identical_across_thread_counts() {
    let grid = sample_grid();
    let serial = run_grid(&grid, &traced_opts(1)).trace_jsonl();
    assert!(
        serial.starts_with(
            "{\"cell\":0,\"t\":0,\"seq\":0,\"layer\":\"harness\",\"kind\":\"cell_start\""
        ),
        "first line must be cell 0's start event: {}",
        serial.lines().next().unwrap_or("")
    );
    assert!(
        serial.contains("\"kind\":\"cell_end\""),
        "every cell is bracketed"
    );
    for jobs in [4, 7] {
        let parallel = run_grid(&grid, &traced_opts(jobs)).trace_jsonl();
        assert_eq!(parallel, serial, "trace diverged at jobs={jobs}");
    }
    // The strict reader decodes the merged stream whole.
    let cells = faasmem_trace::read_jsonl(&serial).expect("trace decodes");
    let summary = faasmem_trace::TraceSummary::from_cells(&cells);
    assert_eq!(summary.cells.len(), sample_grid().len());
}

#[test]
fn chrome_export_is_well_formed() {
    let grid = ExperimentGrid::new("chrome_check")
        .trace(TraceSpec::synth("high", 4242, LoadClass::High))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("json").expect("catalog"),
        ))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = run_grid(&grid, &traced_opts(2));
    let doc = json::parse(&run.chrome_json()).expect("chrome document parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let int = |e: &json::JsonValue, key: &str| {
        e.get(key)
            .and_then(|v| v.as_num())
            .is_some_and(|n| n.fract() == 0.0)
    };
    let mut phases = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(
            ["B", "E", "i", "M"].contains(&ph),
            "unexpected phase {ph:?}: {e:?}"
        );
        if !phases.contains(&ph) {
            phases.push(ph);
        }
        assert!(int(e, "pid"), "{e:?}");
        assert!(e.get("name").and_then(|v| v.as_str()).is_some(), "{e:?}");
        if ph != "M" {
            // Real events carry a thread and a timestamp; metadata rows
            // (process_name has no tid) only name things.
            assert!(int(e, "tid"), "{e:?}");
            let ts = e.get("ts").and_then(|v| v.as_num());
            assert!(ts.is_some_and(|ts| ts >= 0.0), "{e:?}");
        }
    }
    // Spans open and close, and metadata names the rows.
    for ph in ["B", "E", "M"] {
        assert!(phases.contains(&ph), "no {ph:?} events: {phases:?}");
    }
}

#[test]
fn trace_filter_restricts_layers() {
    let grid = ExperimentGrid::new("filter_check")
        .trace(TraceSpec::synth("high", 4242, LoadClass::High))
        .bench(BenchCase::single(
            BenchmarkSpec::by_name("json").expect("catalog"),
        ))
        .policy_kinds([PolicyKind::FaasMem]);
    let opts = HarnessOptions {
        trace_filter: faasmem_trace::LayerMask::only(faasmem_trace::TraceLayer::Container),
        ..traced_opts(1)
    };
    let jsonl = run_grid(&grid, &opts).trace_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(
            line.contains("\"layer\":\"container\""),
            "foreign layer leaked through the filter: {line}"
        );
    }
}

#[test]
fn validate_grid_flags_broken_configs() {
    let sound = ExperimentGrid::new("sound").config(ConfigCase::new(
        "chaos-ok",
        PlatformConfig {
            faults: Some(FaultConfig::default()),
            ..PlatformConfig::default()
        },
    ));
    assert!(validate_grid(&sound).is_empty());

    let bad_config = PlatformConfig {
        page_size: 0,
        ..PlatformConfig::default()
    };
    let broken = ExperimentGrid::new("broken").config(ConfigCase::new("nonsense", bad_config));
    let problems = validate_grid(&broken);
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("config `nonsense`"), "{problems:?}");
    assert!(problems[0].contains("page size"), "{problems:?}");

    // A FaaSMem variant is data too: a bad one is named before any cell
    // runs, and one built anyway panics with the same problem.
    let bad_variant = PolicySpec::faasmem(
        "no-window",
        FaasMemConfig {
            window_stable_rounds: 0,
            ..FaasMemConfig::default()
        },
    );
    let problems = validate_grid(&ExperimentGrid::new("broken").policy(bad_variant.clone()));
    assert_eq!(problems.len(), 1, "{problems:?}");
    assert!(problems[0].contains("policy `no-window`"), "{problems:?}");
    assert!(problems[0].contains("stable rounds"), "{problems:?}");
    let built = std::panic::catch_unwind(|| bad_variant.build());
    let payload = built.err().expect("a bad variant does not build");
    let msg = payload.downcast_ref::<String>().expect("formatted message");
    assert!(msg.contains("FaaSMem variant `no-window`"), "{msg}");
    assert!(msg.contains("stable rounds"), "{msg}");
}

#[test]
fn series_json_is_byte_identical_across_thread_counts() {
    let grid = sample_grid();
    let interval = SimDuration::from_secs(30);
    let opts = |jobs| HarnessOptions {
        series: Some(std::path::PathBuf::from("unused.series.json")),
        series_interval: interval,
        ..quick_opts(jobs)
    };
    let serial = run_grid(&grid, &opts(1)).series_json(interval).to_compact();
    for jobs in [2, 8] {
        let parallel = run_grid(&grid, &opts(jobs))
            .series_json(interval)
            .to_compact();
        assert_eq!(parallel, serial, "series document diverged at jobs={jobs}");
    }
    // Sanity: rows exist, ticks are boundary-aligned, all four groups
    // surfaced.
    let doc = json::parse(&serial).expect("series document parses");
    assert_eq!(
        doc.get("interval_us").and_then(|v| v.as_num()),
        Some(30_000_000.0)
    );
    let cells = doc.get("cells").and_then(|v| v.as_arr()).expect("cells");
    assert_eq!(cells.len(), sample_grid().len());
    let ticks = cells[0].get("t_us").and_then(|v| v.as_arr()).expect("t_us");
    assert!(ticks.len() > 1, "quick run must cross several boundaries");
    for t in ticks {
        let t = t.as_num().expect("tick") as u64;
        assert_eq!(t % 30_000_000, 0, "off-boundary tick {t}");
    }
    for prefix in ["faas.", "mem.", "pool.", "registry."] {
        assert!(
            serial.contains(&format!("\"{prefix}")),
            "missing series group {prefix}*"
        );
    }
}

#[test]
fn enabling_series_or_tracing_does_not_change_the_main_document() {
    let grid = sample_grid();
    let plain = run_grid(&grid, &quick_opts(2)).to_json().to_pretty();
    let sampled_opts = HarnessOptions {
        series: Some(std::path::PathBuf::from("unused.series.json")),
        series_interval: SimDuration::from_secs(15),
        ..quick_opts(2)
    };
    let sampled = run_grid(&grid, &sampled_opts).to_json().to_pretty();
    assert_eq!(
        sampled, plain,
        "sampling must never perturb the deterministic results"
    );
    let traced = run_grid(&grid, &traced_opts(2));
    assert!(!traced.trace_jsonl().is_empty(), "the traced run recorded");
    assert_eq!(
        traced.to_json().to_pretty(),
        plain,
        "tracing must never perturb the deterministic results"
    );
}

#[test]
fn options_parser() {
    let opts = HarnessOptions::parse(["--jobs", "3", "--quick", "--out", "exports"]).unwrap();
    assert_eq!(opts.jobs, 3);
    assert!(opts.quick);
    assert_eq!(opts.out_dir, std::path::PathBuf::from("exports"));
    assert!(opts.trace.is_none());
    assert_eq!(opts.trace_filter, faasmem_trace::LayerMask::ALL);

    let opts =
        HarnessOptions::parse(["--trace", "t.jsonl", "--trace-filter", "pool,memory"]).unwrap();
    assert_eq!(opts.trace, Some(std::path::PathBuf::from("t.jsonl")));
    assert!(opts.trace_filter.contains(faasmem_trace::TraceLayer::Pool));
    assert!(opts
        .trace_filter
        .contains(faasmem_trace::TraceLayer::Memory));
    assert!(!opts
        .trace_filter
        .contains(faasmem_trace::TraceLayer::Container));

    let opts = HarnessOptions::parse(["--trace=a/b.jsonl", "--jobs=5", "--out=x"]).unwrap();
    assert_eq!(opts.trace, Some(std::path::PathBuf::from("a/b.jsonl")));
    assert_eq!(opts.jobs, 5);
    assert_eq!(opts.out_dir, std::path::PathBuf::from("x"));
    assert!(!opts.quick);

    // jobs is clamped to at least one worker.
    let opts = HarnessOptions::parse(["--jobs", "0"]).unwrap();
    assert_eq!(opts.jobs, 1);

    // Telemetry flags: disabled by default...
    let opts = HarnessOptions::parse(["--quick"]).unwrap();
    assert!(opts.series.is_none());
    assert!(opts.sample_spec().is_none());

    // ...and parsed in both --flag VALUE and --flag=VALUE forms.
    let opts = HarnessOptions::parse([
        "--series",
        "out.series.json",
        "--series-interval",
        "2.5",
        "--series-select",
        "faas,pool",
    ])
    .unwrap();
    assert_eq!(
        opts.series,
        Some(std::path::PathBuf::from("out.series.json"))
    );
    assert_eq!(opts.series_interval, SimDuration::from_secs_f64(2.5));
    let spec = opts.sample_spec().expect("series path set");
    use faasmem_telemetry::SeriesGroup;
    assert!(spec.select.contains(SeriesGroup::Faas));
    assert!(spec.select.contains(SeriesGroup::Pool));
    assert!(!spec.select.contains(SeriesGroup::Mem));

    let opts = HarnessOptions::parse(["--series=s.json"]).unwrap();
    assert_eq!(opts.series, Some(std::path::PathBuf::from("s.json")));
    assert_eq!(
        opts.sample_spec().expect("enabled").select,
        faasmem_telemetry::SeriesMask::ALL
    );
}

#[test]
fn options_parser_rejects_what_it_cannot_use() {
    for args in [
        &["--trace-filter=bogus"][..],
        &["--series-select=bogus"],
        &["--series-select", ""],
        &["--series-interval", "0"],
        &["--series-interval=-1"],
        &["--jobs", "abc"],
        &["--jobs=4x"],
        &["-j"],
        &["--out"],
        &["--job", "4"],
        &["--unknown-flag"],
        &["ignored"],
        &["--quick=yes"],
    ] {
        let err = HarnessOptions::parse(args).expect_err("rejected");
        assert!(!err.is_empty(), "{args:?}");
    }
}
