//! Figure 11: the semi-warm design — from a function's container-reused-
//! interval CDF to its semi-warm start timing.
//!
//! The paper's Fig 11 shows, for one anonymous Azure function, the CDF of
//! how long containers idle before being reused, and picks the 99th
//! percentile as the semi-warm start timing. This experiment extracts the
//! same CDF from a platform run, plots it as ASCII, and marks the chosen
//! timing.

use std::io::{self, Write};

use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::PolicyKind;
use faasmem_core::{SemiWarm, SemiWarmConfig};
use faasmem_sim::SimTime;
use faasmem_workload::{FunctionId, LoadClass};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("fig11_reuse_cdf")
        .trace(
            TraceSpec::synth("bursty high", 911, LoadClass::High)
                .bursty(true)
                .duration(SimTime::from_mins(120)),
        )
        .bench(BenchCase::named("web"))
        .policy_kinds([PolicyKind::FaasMem]);
    let run = harness::run_grid(&grid, opts);
    let report = &run
        .outcome(
            "bursty high",
            "web",
            DEFAULT_CONFIG,
            PolicyKind::FaasMem.name(),
        )
        .report;
    let cdf = report
        .reuse_intervals
        .get(&FunctionId(0))
        .expect("warm reuses observed");
    writeln!(
        out,
        "container reused intervals: {} samples, median {:.1}s, p99 {:.1}s\n",
        cdf.len(),
        cdf.quantile(0.5).unwrap_or(0.0),
        cdf.quantile(0.99).unwrap_or(0.0)
    )?;

    // ASCII CDF on a log-ish time axis (as in the paper's 10ms/1s/1min).
    writeln!(out, "CDF of container reused intervals:")?;
    let marks = [0.5f64, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0, 120.0, 300.0, 600.0];
    for &t in &marks {
        let frac = cdf.fraction_at_most(t);
        let bar = "#".repeat((frac * 50.0).round() as usize);
        writeln!(out, "  {:>6.1}s |{bar:<50}| {:.0}%", t, frac * 100.0)?;
    }

    // The semi-warm machinery makes the same choice from the same data.
    let timing = SemiWarm::new(SemiWarmConfig::default()).start_timing(Some(cdf), FunctionId(0));
    writeln!(
        out,
        "\nsemi-warm start timing (p99, pessimistic): {timing}\n\
         => containers keep all hot pages for 99% of observed reuses; only the"
    )?;
    writeln!(
        out,
        "   tail beyond {timing} pays a semi-warm recall (paper Fig 11 / §6.1)."
    )
}
