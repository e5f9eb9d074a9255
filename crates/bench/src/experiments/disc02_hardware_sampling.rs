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
use crate::harness::HarnessOptions;
use faasmem_baselines::{DamonMode, DamonPolicy};
use faasmem_faas::PlatformSim;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, FunctionId, Invocation, InvocationTrace};

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let spec = BenchmarkSpec::by_name("bert").expect("catalog");
    // Requests every 10 s: frequent enough that an exact scanner keeps
    // the hot set resident.
    let invs: Vec<Invocation> = (0..120)
        .map(|i| Invocation {
            at: SimTime::from_secs(10 + i * 10),
            function: FunctionId(0),
        })
        .collect();
    let trace = InvocationTrace::from_invocations(invs, SimTime::from_mins(40));

    let mut rows = Vec::new();
    for (label, mode) in [
        ("exact access-bit scan", DamonMode::ExactScan),
        ("region monitor (real DAMON)", DamonMode::RegionMonitor),
        ("PEBS p=0.50", DamonMode::PebsSampling(0.5)),
        ("PEBS p=0.10", DamonMode::PebsSampling(0.1)),
        ("PEBS p=0.02", DamonMode::PebsSampling(0.02)),
    ] {
        let policy = DamonPolicy::new(mode);
        let mut sim = PlatformSim::builder()
            .register_function(spec.clone())
            .policy(policy)
            .seed(77)
            .build();
        let mut report = sim.run(&trace);
        let warm: Vec<_> = report.requests.iter().filter(|r| !r.cold).collect();
        let faults_per_req = warm.iter().map(|r| r.faults as f64).sum::<f64>() / warm.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("{faults_per_req:.0}"),
            fmt_secs(report.p95_latency().as_secs_f64()),
            format!("{:.0} MiB", report.avg_local_mib()),
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
