//! Ablation: adaptive request-window detection vs fixed windows.
//!
//! DESIGN.md decision 4: FaaSMem detects the Init-Pucket offload window
//! from the descent gradient of the inactive list (§5.2). This ablation
//! compares it against fixed windows of 1, 5 and 20 requests on the two
//! workloads the paper uses to motivate adaptivity: Bert (stable hot set
//! — a small window suffices) and Web (scattered Pareto objects — an
//! eager window causes recalls).

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use crate::{fmt_mib, fmt_secs};
use faasmem_core::FaasMemConfig;
use faasmem_faas::PlatformConfig;
use faasmem_workload::LoadClass;

fn window_policies() -> Vec<(&'static str, Option<u32>)> {
    vec![
        ("adaptive (gradient)", None),
        ("fixed w=1", Some(1)),
        ("fixed w=5", Some(5)),
        ("fixed w=20", Some(20)),
    ]
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("abl01_window_policy")
        .trace(TraceSpec::synth("high-60min", 905, LoadClass::High))
        .benches(["bert", "web"].map(BenchCase::named))
        .config(ConfigCase::new(
            "s41",
            PlatformConfig {
                seed: 41,
                ..PlatformConfig::default()
            },
        ))
        .policies(window_policies().into_iter().map(|(label, fixed)| {
            let config = match fixed {
                // A huge stability requirement disables the gradient;
                // only the cap closes the window, i.e. fixed size w.
                Some(w) => FaasMemConfig {
                    window_stable_rounds: u32::MAX,
                    window_cap: w,
                    ..Default::default()
                },
                None => FaasMemConfig::default(),
            };
            PolicySpec::faasmem(label, config)
        }));
    let run = harness::run_and_export(&grid, opts)?;

    for app in ["bert", "web"] {
        let invocations = run
            .outcome("high-60min", app, "s41", "adaptive (gradient)")
            .trace_len;
        writeln!(out, "=== {app}: {invocations} invocations ===")?;
        let mut rows = Vec::new();
        for (label, _) in window_policies() {
            let outcome = run.outcome("high-60min", app, "s41", label);
            let recalled = outcome.summary.pool_stats.bytes_in as f64 / (1024.0 * 1024.0);
            let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
            let windows: Vec<u32> = stats.windows_chosen.iter().map(|&(_, w)| w).collect();
            rows.push(vec![
                label.to_string(),
                fmt_mib(outcome.summary.avg_local_mib),
                fmt_secs(outcome.summary.latency.p95.as_secs_f64()),
                format!("{recalled:.0} MiB"),
                format!("{windows:?}"),
            ]);
        }
        write_table(
            out,
            &[
                "window policy",
                "avg mem",
                "P95",
                "recalled",
                "windows chosen",
            ],
            &rows,
        )?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape: w=1 offloads eagerly (lowest memory, most recalls for web);\n\
         w=20 is prudent but slow for bert; the gradient adapts per workload (§5.2)."
    )
}
