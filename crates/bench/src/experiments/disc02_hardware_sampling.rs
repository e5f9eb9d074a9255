//! §9 discussion: hardware (PEBS-style) page sampling.
//!
//! Sampling reduces cold-page identification overhead but observes only a
//! fraction of accesses, so hot pages can be misclassified cold. This
//! experiment sweeps the sampling probability on the DAMON-style policy
//! and reports the accuracy cost (warm-request faults, P95) against the
//! full Access-bit scan.
//!
//! FaaSMem itself needs no such sampler — the window-based rollback and
//! offloading already make its page-table tracing negligible (§9) — so
//! the sweep doubles as a justification of that design choice.

use std::io::{self, Write};

use super::write_table;
use crate::fmt_secs;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceKind, TraceSpec,
};
use faasmem_baselines::DamonMode;
use faasmem_faas::PlatformConfig;
use faasmem_sim::{SimDuration, SimTime};

const TRACE: &str = "every 10 s";
const MODES: [(&str, DamonMode); 5] = [
    ("exact access-bit scan", DamonMode::ExactScan),
    ("region monitor (real DAMON)", DamonMode::RegionMonitor),
    ("PEBS p=0.50", DamonMode::PebsSampling(0.5)),
    ("PEBS p=0.10", DamonMode::PebsSampling(0.1)),
    ("PEBS p=0.02", DamonMode::PebsSampling(0.02)),
];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Requests every 10 s: frequent enough that an exact scanner keeps
    // the hot set resident.
    let every_10s = TraceKind::Periodic {
        start: SimTime::from_secs(10),
        bursts: 120,
        per_burst: 1,
        spacing: SimDuration::ZERO,
        period: SimDuration::from_secs(10),
    };
    let grid = ExperimentGrid::new("disc02_hardware_sampling")
        .trace(TraceSpec::new(TRACE, every_10s).duration(SimTime::from_mins(40)))
        .bench(BenchCase::named("bert"))
        .config(ConfigCase::new(
            "s77",
            PlatformConfig {
                seed: 77,
                ..PlatformConfig::default()
            },
        ))
        .policies(MODES.map(|(label, mode)| PolicySpec::Damon {
            label: label.to_string(),
            mode,
        }));
    let run = harness::run_grid(&grid, opts);

    let mut rows = Vec::new();
    for (label, _) in MODES {
        let outcome = run.outcome(TRACE, "bert", "s77", label);
        let warm: Vec<_> = outcome.report.requests.iter().filter(|r| !r.cold).collect();
        let faults_per_req = warm.iter().map(|r| r.faults as f64).sum::<f64>() / warm.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{faults_per_req:.0}"),
            fmt_secs(outcome.summary.latency.p95.as_secs_f64()),
            format!("{:.0} MiB", outcome.summary.avg_local_mib),
        ]);
    }
    write_table(
        out,
        &[
            "identification method",
            "faults / warm request",
            "P95",
            "avg local mem",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "\nShape: lower sampling probability ⇒ more hot pages misclassified ⇒ more\n\
         warm-request recalls. The overhead saved is proportional to 1/p (fewer samples)."
    )
}
