//! Figure 3: the memory layout of a serverless container across its
//! lifecycle — launch, init, request executions, keep-alive.
//!
//! The paper's Fig 3 is the schematic that motivates the whole design:
//! memory rises as the runtime loads (Segment-1), rises again through
//! init (Segment-2), spikes with each request's temporaries (Segment-3,
//! freed at completion) and then sits flat through keep-alive. This
//! experiment measures that curve from a real simulated container and
//! renders it, segment by segment.

use std::io::{self, Write};

use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceKind, TraceSpec,
};
use crate::{render_table, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::BenchmarkSpec;

const TRACE: &str = "two requests";

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let spec = BenchmarkSpec::by_name("graph").expect("catalog");
    // Two requests with a keep-alive stretch between them (Fig 3's
    // Launch | Init | Req1 | Keep-alive | Req2 | Keep-alive shape).
    let two_requests = TraceKind::Periodic {
        start: SimTime::from_secs(1),
        bursts: 2,
        per_burst: 1,
        spacing: SimDuration::ZERO,
        period: SimDuration::from_secs(119),
    };
    let grid = ExperimentGrid::new("fig03_memory_layout")
        .trace(TraceSpec::new(TRACE, two_requests).duration(SimTime::from_mins(15)))
        .bench(BenchCase::single(spec.clone()))
        .config(ConfigCase::new(
            "s3",
            PlatformConfig {
                seed: 3,
                ..PlatformConfig::default()
            },
        ))
        .policy_kinds([PolicyKind::Baseline]);
    let run = harness::run_grid(&grid, opts);
    let report = &run
        .outcome(TRACE, spec.name, "s3", PolicyKind::Baseline.name())
        .report;

    // Dense sampling around the interesting moments.
    writeln!(out, "container memory over the lifecycle (MiB):\n")?;
    let peak = report.local_mem.max_value().unwrap_or(1.0);
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(130) {
        if let Some(v) = report.local_mem.value_at(t) {
            samples.push((t.as_secs_f64(), v / (1024.0 * 1024.0)));
        } else {
            samples.push((t.as_secs_f64(), 0.0));
        }
        t += SimDuration::from_millis(250);
    }
    // Down-sample for the plot: one bar per ~2.5 s.
    for chunk in samples.chunks(10) {
        let (t0, _) = chunk[0];
        let max = chunk.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        let width = (max / (peak / (1024.0 * 1024.0)) * 56.0).round() as usize;
        let stage = match t0 as u64 {
            0 => "launch + init + req 1",
            1..=4 => "req 1 tail",
            5..=118 => "keep-alive",
            119..=121 => "req 2",
            _ => "keep-alive",
        };
        writeln!(
            out,
            "  {t0:>6.1}s |{:<56}| {max:>6.0} MiB  {stage}",
            "#".repeat(width.min(56))
        )?;
    }

    // Segment accounting at the quiet points.
    let at = |secs: f64| {
        report
            .local_mem
            .value_at(SimTime::from_secs_f64(secs))
            .unwrap_or(0.0)
            / (1024.0 * 1024.0)
    };
    // Peak during the request window: base + execution segment.
    let req_peak = (0..40)
        .map(|i| at(2.0 + 0.05 * f64::from(i)))
        .fold(0.0f64, f64::max);
    let rows = vec![
        vec![
            "runtime loaded (Segment-1 only)".into(),
            format!("{:.0} MiB", at(1.9)),
            format!("{} MiB", spec.runtime_mib),
        ],
        vec![
            "request running (base + Segment-3)".into(),
            format!("{req_peak:.0} MiB"),
            format!("{} MiB", spec.base_mib() + spec.exec_mib),
        ],
        vec![
            "keep-alive (exec freed, base persists)".into(),
            format!("{:.0} MiB", at(60.0)),
            format!("{} MiB", spec.base_mib()),
        ],
    ];
    writeln!(
        out,
        "\n{}",
        render_table(&["lifecycle point", "measured", "model"], &rows)
    )?;
    writeln!(
        out,
        "Paper reference (Fig 3): execution-segment memory exists only while a request\n\
         runs; the runtime + init base footprint persists through keep-alive."
    )
}
