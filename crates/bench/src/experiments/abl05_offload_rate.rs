//! Ablation: semi-warm offload rate limit (§6.3).
//!
//! Semi-warm drains a container's memory gradually so the RDMA link is
//! not monopolized. The paper's auto policy drains small containers by
//! percentage and large ones by absolute bandwidth; this compares both
//! fixed variants against it on a small (json) and a large (bert)
//! footprint.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceSpec,
};
use crate::{fmt_mib, fmt_secs};
use faasmem_core::{FaasMemConfig, OffloadRate, SemiWarmConfig};
use faasmem_faas::PlatformConfig;
use faasmem_workload::{BenchmarkSpec, LoadClass};

fn rates() -> Vec<(&'static str, OffloadRate)> {
    vec![
        ("percentile 1%/s", OffloadRate::PercentPerSec(0.01)),
        ("amount 1 MiB/s", OffloadRate::MibPerSec(1.0)),
        (
            "auto (paper)",
            OffloadRate::Auto {
                large_threshold_mib: 256,
                percent_per_sec: 0.01,
                mib_per_sec: 1.0,
            },
        ),
    ]
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("abl05_offload_rate")
        .trace(TraceSpec::synth("middle-60min", 909, LoadClass::Middle))
        .benches(["bert", "json"].map(BenchCase::named))
        .config(ConfigCase::new(
            "s71",
            PlatformConfig {
                seed: 71,
                ..PlatformConfig::default()
            },
        ))
        .policies(rates().into_iter().map(|(name, rate)| {
            PolicySpec::faasmem(
                name,
                FaasMemConfig {
                    semiwarm: SemiWarmConfig {
                        rate,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        }));
    let run = harness::run_and_export(&grid, opts)?;

    for app in ["bert", "json"] {
        let spec = BenchmarkSpec::by_name(app).expect("catalog");
        let invocations = run
            .outcome("middle-60min", app, "s71", "percentile 1%/s")
            .trace_len;
        writeln!(
            out,
            "=== {app} ({} MiB footprint), {invocations} invocations ===",
            spec.quota_mib
        )?;
        let mut rows = Vec::new();
        for (name, _) in rates() {
            let outcome = run.outcome("middle-60min", app, "s71", name);
            let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
            let drained = stats.semi_warm_bytes as f64 / (1024.0 * 1024.0);
            rows.push(vec![
                name.to_string(),
                fmt_mib(outcome.summary.avg_local_mib),
                format!("{drained:.0} MiB"),
                fmt_secs(outcome.summary.latency.p95.as_secs_f64()),
            ]);
        }
        write_table(
            out,
            &["rate policy", "avg mem", "semi-warm drained", "P95"],
            &rows,
        )?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Shape: %-based drains large containers too slowly, MiB-based drains small\n\
         ones too eagerly; auto matches each to its footprint (§6.3)."
    )
}
