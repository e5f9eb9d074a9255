//! Discussion: FaaSMem vs (and with) adaptive keep-alive (§9).
//!
//! Adaptive keep-alive policies shrink memory by killing containers
//! sooner — trading cold starts for savings. FaaSMem is orthogonal: it
//! shrinks the memory of the containers keep-alive chooses to keep. This
//! runs the 2×2 to show the two compose.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::{fmt_mib, fmt_secs, PolicyKind};
use faasmem_faas::PlatformConfig;
use faasmem_workload::LoadClass;

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let base = PlatformConfig {
        seed: 13,
        ..PlatformConfig::default()
    };
    let grid = ExperimentGrid::new("disc05_keepalive_policies")
        .trace(TraceSpec::synth("high-bursty", 950, LoadClass::High).bursty(true))
        .bench(BenchCase::named("bert"))
        .configs([
            ConfigCase::new("fixed", base.clone()),
            ConfigCase::new(
                "adaptive",
                PlatformConfig {
                    adaptive_keep_alive: true,
                    ..base
                },
            ),
        ])
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    let combos = [
        (
            "fixed keep-alive, no offload",
            "fixed",
            PolicyKind::Baseline,
        ),
        ("adaptive keep-alive only", "adaptive", PolicyKind::Baseline),
        ("FaaSMem only", "fixed", PolicyKind::FaasMem),
        (
            "FaaSMem + adaptive keep-alive",
            "adaptive",
            PolicyKind::FaasMem,
        ),
    ];
    let invocations = run
        .outcome("high-bursty", "bert", "fixed", PolicyKind::Baseline.name())
        .trace_len;
    writeln!(out, "=== bert, bursty trace, {invocations} invocations ===")?;
    let mut rows = Vec::new();
    for (label, config, kind) in combos {
        let s = &run
            .outcome("high-bursty", "bert", config, kind.name())
            .summary;
        rows.push(vec![
            label.to_string(),
            fmt_mib(s.avg_local_mib),
            format!("{:.1}%", s.cold_start_ratio * 100.0),
            fmt_secs(s.latency.p95.as_secs_f64()),
            s.containers.to_string(),
        ]);
    }
    write_table(
        out,
        &["system", "avg mem", "cold starts", "P95", "containers"],
        &rows,
    )?;
    writeln!(
        out,
        "Shape: adaptive keep-alive buys memory with cold starts; FaaSMem buys more\n\
         without them; together they compound — the paper's orthogonality claim (§9)."
    )
}
