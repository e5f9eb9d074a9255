//! Ablation: rollback minimum interval (§5.3).
//!
//! When a request recalls pages out of the Init Pucket, FaaSMem rolls the
//! window decision back — but no more often than `rollback_min_interval`,
//! to keep a noisy function from thrashing between offload and recall.
//! This sweeps that interval on Web, whose Pareto object accesses trigger
//! rollbacks regularly.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use crate::{fmt_mib, fmt_secs};
use faasmem_core::FaasMemConfig;
use faasmem_faas::PlatformConfig;
use faasmem_sim::SimDuration;
use faasmem_workload::LoadClass;

const INTERVALS_SECS: [u64; 4] = [1, 10, 60, 300];

fn label(t: u64) -> String {
    format!("t = {t}s")
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("abl03_rollback_interval")
        .trace(TraceSpec::synth("high-60min", 907, LoadClass::High))
        .bench(BenchCase::named("web"))
        .config(ConfigCase::new(
            "s61",
            PlatformConfig {
                seed: 61,
                ..PlatformConfig::default()
            },
        ))
        .policies(INTERVALS_SECS.map(|t| {
            PolicySpec::faasmem(
                &label(t),
                FaasMemConfig {
                    rollback_min_interval: SimDuration::from_secs(t),
                    ..Default::default()
                },
            )
        }));
    let run = harness::run_and_export(&grid, opts)?;

    let invocations = run.outcome("high-60min", "web", "s61", &label(1)).trace_len;
    writeln!(out, "=== web, {invocations} invocations ===")?;
    let mut rows = Vec::new();
    for t in INTERVALS_SECS {
        let outcome = run.outcome("high-60min", "web", "s61", &label(t));
        let s = &outcome.summary;
        let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
        let recalled = s.pool_stats.bytes_in as f64 / (1024.0 * 1024.0);
        rows.push(vec![
            label(t),
            stats.rollbacks.to_string(),
            fmt_mib(s.avg_local_mib),
            fmt_secs(s.latency.p95.as_secs_f64()),
            format!("{recalled:.0} MiB"),
        ]);
    }
    write_table(
        out,
        &["min interval", "rollbacks", "avg mem", "P95", "recalled"],
        &rows,
    )?;
    writeln!(
        out,
        "Shape: a tiny interval rolls back often (higher memory, fewer recalls);\n\
         a long one sticks with eager windows and pays recalls instead."
    )
}
