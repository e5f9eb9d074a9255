//! §8.3.2 extension: cold-start-aware semi-warm timing.
//!
//! Under bursty load the observed container-reused intervals
//! underestimate the ideal semi-warm start timing (cold-start congestion
//! hides the long would-be reuses), so FaaSMem's 99th-percentile timing
//! fires too early and the P99 latency suffers. The paper leaves the fix
//! as future work; this build implements it: the gap behind every cold
//! start is fed into the reuse CDF as a censored sample.
//!
//! Expected shape: on steady traffic the two variants are identical; on
//! the clustered pattern the aware variant's censored samples push the
//! start timing to the cap, so it stops paying offload bandwidth for
//! containers whose demand provably returns late — the trade is explicit:
//! less drain traffic and more resident memory. (The paper's P99-latency
//! side of this story needs cold-start *congestion*, which shows up in
//! the Fig 13 bursty case.)

use std::io::{self, Write};

use super::write_table;
use crate::harness::{
    self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, PolicySpec, TraceKind, TraceSpec,
};
use crate::{fmt_mib, fmt_secs};
use faasmem_core::{FaasMemConfig, SemiWarmConfig};
use faasmem_faas::PlatformConfig;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::LoadClass;

/// Clustered arrivals: 6 bursts of 8 requests 5 s apart, one burst every
/// 11 minutes. The silence exceeds the keep-alive, so every burst begins
/// with cold starts — the §8.3.2 hazard.
const CLUSTERED: TraceKind = TraceKind::Periodic {
    start: SimTime::from_secs(10),
    bursts: 6,
    per_burst: 8,
    spacing: SimDuration::from_secs(5),
    period: SimDuration::from_secs(660),
};

const CASES: [&str; 2] = ["steady (common)", "clustered bursts, 11-minute silences"];
const VARIANTS: [(&str, bool); 2] = [
    ("FaaSMem (paper)", false),
    ("FaaSMem + cold-start-aware", true),
];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("ext01_coldstart_aware")
        .traces([
            TraceSpec::synth(CASES[0], 904, LoadClass::High),
            TraceSpec::new(CASES[1], CLUSTERED).duration(SimTime::from_secs(4_970)),
        ])
        .bench(BenchCase::named("bert"))
        .config(ConfigCase::new(
            "s31",
            PlatformConfig {
                seed: 31,
                ..PlatformConfig::default()
            },
        ))
        .policies(VARIANTS.map(|(label, aware)| {
            PolicySpec::faasmem(
                label,
                FaasMemConfig {
                    semiwarm: SemiWarmConfig {
                        cold_start_aware: aware,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
        }));
    let run = harness::run_and_export(&grid, opts)?;

    for case in CASES {
        let invocations = run.outcome(case, "bert", "s31", VARIANTS[0].0).trace_len;
        writeln!(out, "=== {case}: {invocations} invocations ===")?;
        let mut rows = Vec::new();
        for (label, _) in VARIANTS {
            let outcome = run.outcome(case, "bert", "s31", label);
            let s = &outcome.summary;
            let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
            rows.push(vec![
                label.to_string(),
                fmt_mib(s.avg_local_mib),
                fmt_secs(s.latency.p95.as_secs_f64()),
                fmt_secs(s.latency.p99.as_secs_f64()),
                format!(
                    "{:.0} MiB",
                    stats.semi_warm_bytes as f64 / (1024.0 * 1024.0)
                ),
            ]);
        }
        write_table(
            out,
            &["variant", "avg mem", "P95", "P99", "semi-warm drained"],
            &rows,
        )?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "Paper reference (§8.3.2): under burst, FaaSMem's P99 rose 25% because the\n\
         collected reuse intervals underestimated the ideal timing; accounting for\n\
         cold-start incidents was named as the path to a more precise timing."
    )
}
