//! Ablation: semi-warm start percentile (§6.2).
//!
//! Semi-warm offload begins once a container has idled past the
//! `start_percentile` of its observed reuse-interval distribution. An
//! eager percentile (p50) drains memory sooner but recalls hot pages for
//! requests that do arrive; a late one (p99) is safe but saves little.
//! The paper picks p95.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use crate::{fmt_mib, fmt_secs};
use faasmem_core::{FaasMemConfig, SemiWarmConfig};
use faasmem_faas::PlatformConfig;
use faasmem_workload::LoadClass;

const PERCENTILES: [f64; 4] = [0.50, 0.90, 0.95, 0.99];

fn label(p: f64) -> String {
    format!("p{:.0}", p * 100.0)
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("abl02_semiwarm_percentile")
        .trace(TraceSpec::synth("high-bursty", 906, LoadClass::High).bursty(true))
        .bench(BenchCase::named("bert"))
        .config(ConfigCase::new(
            "s51",
            PlatformConfig {
                seed: 51,
                ..PlatformConfig::default()
            },
        ))
        .policies(PERCENTILES.map(|p| {
            PolicySpec::faasmem(
                &label(p),
                FaasMemConfig {
                    semiwarm: SemiWarmConfig {
                        start_percentile: p,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        }));
    let run = harness::run_and_export(&grid, opts)?;

    let invocations = run.outcome("high-bursty", "bert", "s51", "p50").trace_len;
    writeln!(out, "=== bert, bursty trace, {invocations} invocations ===")?;
    let mut rows = Vec::new();
    for p in PERCENTILES {
        let outcome = run.outcome("high-bursty", "bert", "s51", &label(p));
        let s = &outcome.summary;
        // A warm request that still demand-faults heavily hit a
        // container mid-drain: the semi-warm timer fired too early.
        let warm_recalls = outcome
            .report
            .requests
            .iter()
            .filter(|r| !r.cold && r.faults > 500)
            .count();
        rows.push(vec![
            label(p),
            fmt_mib(s.avg_local_mib),
            fmt_secs(s.latency.p95.as_secs_f64()),
            fmt_secs(s.latency.p99.as_secs_f64()),
            warm_recalls.to_string(),
        ]);
    }
    write_table(
        out,
        &[
            "start percentile",
            "avg mem",
            "P95",
            "P99",
            "warm requests mid-drain",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "Shape: p50 drains hardest but punishes warm tails; p95 (paper) balances both."
    )
}
