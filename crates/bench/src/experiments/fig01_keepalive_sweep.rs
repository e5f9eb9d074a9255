//! Figure 1: memory inactive time and cold-start ratio vs keep-alive
//! timeout.
//!
//! The paper simulates the Azure 2021 trace (424 functions) under varying
//! keep-alive timeouts and reports, per timeout: the fraction of container
//! lifetime during which memory sits inactive, and the fraction of
//! requests that cold-start. Expected shape: at a 10-minute timeout
//! memory is ~89% inactive with few cold starts; at 1 minute still ~70%
//! inactive; shrinking the timeout trades inactive time against a rising
//! cold-start ratio.

use std::io::{self, Write};

use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use crate::{render_table, svg, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_sim::{SimDuration, SimRng, SimTime};
use faasmem_workload::{BenchmarkSpec, RuntimeSpec};

const FUNCTIONS: u32 = 424;
const TIMEOUTS: [u64; 7] = [10, 30, 60, 120, 300, 600, 1000];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // The Azure trace mixes sub-second and tens-of-seconds executions;
    // draw each function's execution time log-uniformly in [0.1 s, 30 s].
    let base = BenchmarkSpec::hello_world(&RuntimeSpec::openwhisk_python());
    let mut exec_rng = SimRng::seed_from(2022);
    let specs: Vec<BenchmarkSpec> = (0..FUNCTIONS)
        .map(|_| {
            let log = exec_rng.next_f64() * (30.0f64 / 0.1).ln() + 0.1f64.ln();
            BenchmarkSpec {
                exec_time: SimDuration::from_secs_f64(log.exp()),
                ..base.clone()
            }
        })
        .collect();

    let grid = ExperimentGrid::new("fig01_keepalive_sweep")
        .trace(TraceSpec::cluster("azure-2021", 2021, FUNCTIONS).duration(SimTime::from_mins(240)))
        .bench(BenchCase::cluster("hello-424", specs))
        .configs(TIMEOUTS.map(|timeout_secs| {
            ConfigCase::new(
                &format!("{timeout_secs}s"),
                PlatformConfig {
                    keep_alive: SimDuration::from_secs(timeout_secs),
                    ..PlatformConfig::default()
                },
            )
        }))
        .policy(PolicySpec::Kind(PolicyKind::Baseline));
    let run = harness::run_and_export(&grid, opts)?;

    let trace_len = run
        .outcome(
            "azure-2021",
            "hello-424",
            "10s",
            PolicyKind::Baseline.name(),
        )
        .trace_len;
    writeln!(
        out,
        "Fig 1 input: {} functions, {} invocations over {}",
        FUNCTIONS,
        trace_len,
        SimTime::from_mins(240)
    )?;

    let mut rows = Vec::new();
    let mut inactive_pts = Vec::new();
    let mut cold_pts = Vec::new();
    for timeout_secs in TIMEOUTS {
        let outcome = run.outcome(
            "azure-2021",
            "hello-424",
            &format!("{timeout_secs}s"),
            PolicyKind::Baseline.name(),
        );
        let s = &outcome.summary;
        inactive_pts.push((timeout_secs as f64, s.memory_inactive_fraction * 100.0));
        cold_pts.push((timeout_secs as f64, s.cold_start_ratio * 100.0));
        rows.push(vec![
            format!("{timeout_secs}s"),
            format!("{:.1}%", s.memory_inactive_fraction * 100.0),
            format!("{:.1}%", s.cold_start_ratio * 100.0),
            s.containers.to_string(),
            s.requests_completed.to_string(),
        ]);
    }
    let chart = svg::lines(
        "Fig 1: keep-alive timeout vs inactive memory time and cold starts",
        "keep-alive timeout (s)",
        "percent",
        &[
            ("memory inactive time", inactive_pts),
            ("cold-start ratio", cold_pts),
        ],
    );
    svg::write_chart(&opts.out_dir, "fig01_keepalive.svg", &chart)?;
    writeln!(
        out,
        "\n{}",
        render_table(
            &[
                "keep-alive",
                "mem-inactive",
                "cold-start",
                "containers",
                "requests"
            ],
            &rows
        )
    )?;
    writeln!(out, "Paper reference: 89.2% inactive @10min, 70.1% @1min; cold-start ratio falls as keep-alive grows.")
}
