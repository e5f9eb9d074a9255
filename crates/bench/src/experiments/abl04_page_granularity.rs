//! Ablation: offload page granularity (§7, simulator fidelity knob).
//!
//! The simulator tracks memory at a configurable page size. Small pages
//! model the kernel faithfully but multiply event counts; large pages
//! run faster and overstate savings slightly (partial pages round up).
//! This sweeps the granularity on Bert to show the accuracy/cost
//! trade-off behind the 64 KiB default.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::{fmt_secs, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_sim::SimTime;
use faasmem_workload::LoadClass;

const PAGE_KIB: [u64; 4] = [4, 16, 64, 256];

fn label(kib: u64) -> String {
    format!("{kib} KiB")
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("abl04_page_granularity")
        .trace(
            TraceSpec::synth("high-30min", 908, LoadClass::High).duration(SimTime::from_mins(30)),
        )
        .bench(BenchCase::named("bert"))
        .configs(PAGE_KIB.map(|kib| {
            ConfigCase::new(
                &label(kib),
                PlatformConfig {
                    page_size: kib * 1024,
                    ..PlatformConfig::default()
                },
            )
        }))
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    let invocations = run
        .outcome(
            "high-30min",
            "bert",
            &label(64),
            PolicyKind::Baseline.name(),
        )
        .trace_len;
    writeln!(
        out,
        "=== bert, {invocations} invocations, 30 simulated minutes ==="
    )?;
    let mut rows = Vec::new();
    for kib in PAGE_KIB {
        let base = run.outcome(
            "high-30min",
            "bert",
            &label(kib),
            PolicyKind::Baseline.name(),
        );
        let fm = run.outcome(
            "high-30min",
            "bert",
            &label(kib),
            PolicyKind::FaasMem.name(),
        );
        let saving = 1.0 - fm.summary.avg_local_mib / base.summary.avg_local_mib.max(1e-9);
        rows.push(vec![
            label(kib),
            format!("{:.1}%", saving * 100.0),
            fmt_secs(fm.summary.latency.p95.as_secs_f64()),
        ]);
    }
    write_table(
        out,
        &["page size", "FaaSMem mem saving", "FaaSMem P95"],
        &rows,
    )?;
    writeln!(
        out,
        "Shape: savings stay within a few points across granularities while\n\
         simulation cost grows as pages shrink (per-cell wall-clock in\n\
         abl04_page_granularity.timing.json); 64 KiB is the default compromise."
    )
}
