//! Figure 13: ablation study — disabling Pucket and semi-warm on Bert,
//! under a common (steady high-load) and a bursty trace.
//!
//! Expected shape (paper §8.3):
//! * w/o Pucket: higher memory (cold pages wait for semi-warm), slightly
//!   *lower* latency — Pucket's small recall tax buys the early savings.
//! * w/o Semi-warm: memory curve parallels Baseline but lower, dropping
//!   only at keep-alive expiry; the semi-warm drain is worth ~28.6%.
//! * Bursty case: semi-warm partly overtakes Pucket (stranded burst
//!   containers drain anyway), and tail latency grows because observed
//!   reuse intervals underestimate the ideal semi-warm timing.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::{fmt_mib, fmt_secs, PolicyKind};
use faasmem_sim::SimDuration;
use faasmem_workload::LoadClass;

const VARIANTS: [PolicyKind; 4] = [
    PolicyKind::Baseline,
    PolicyKind::FaasMem,
    PolicyKind::FaasMemNoPucket,
    PolicyKind::FaasMemNoSemiWarm,
];

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("fig13_ablation")
        .traces([
            TraceSpec::synth("common case", 131, LoadClass::High),
            TraceSpec::synth("bursty case", 132, LoadClass::High).bursty(true),
        ])
        .bench(BenchCase::named("bert"))
        .policy_kinds(VARIANTS);
    let run = harness::run_and_export(&grid, opts)?;

    for trace_label in ["common case", "bursty case"] {
        let reqs = run
            .outcome(
                trace_label,
                "bert",
                DEFAULT_CONFIG,
                PolicyKind::Baseline.name(),
            )
            .trace_len;
        writeln!(out, "=== Fig 13 ({trace_label}): bert, {reqs} requests ===")?;
        let mut rows = Vec::new();
        let mut timelines = Vec::new();
        for kind in VARIANTS {
            let outcome = run.outcome(trace_label, "bert", DEFAULT_CONFIG, kind.name());
            let s = &outcome.summary;
            rows.push(vec![
                kind.name().to_string(),
                fmt_mib(s.avg_local_mib),
                fmt_secs(s.latency.avg.as_secs_f64()),
                fmt_secs(s.latency.p50.as_secs_f64()),
                fmt_secs(s.latency.p95.as_secs_f64()),
                fmt_secs(s.latency.p99.as_secs_f64()),
            ]);
            timelines.push((
                kind.name(),
                outcome.report.local_mem.clone(),
                outcome.report.finished_at,
            ));
        }
        write_table(
            out,
            &["variant", "avg mem", "AVG", "P50", "P95", "P99"],
            &rows,
        )?;
        writeln!(out, "\nlocal-memory timeline (GiB at 5-minute samples):")?;
        for (name, series, finished) in timelines {
            let samples = series.sample(SimDuration::from_mins(5), finished);
            let line: Vec<String> = samples
                .iter()
                .map(|(_, v)| format!("{:.2}", v / (1024.0 * 1024.0 * 1024.0)))
                .collect();
            writeln!(out, "  {name:<24} {}", line.join(" "))?;
        }
        writeln!(out)?;
    }

    writeln!(
        out,
        "Paper reference (Fig 13): Pucket -19.3% mem (its absence also -9.2% P95);\n\
         semi-warm -28.6% mem; under burst, semi-warm partly overtakes Pucket and P99 rises ~25%."
    )
}
