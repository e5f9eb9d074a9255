//! §9 discussion: combining FaaSMem with FAASM-style runtime sharing.
//!
//! Sharing the runtime image across containers of one function removes
//! duplicate runtime pages; FaaSMem removes cold and keep-alive pages.
//! The paper notes the two are complementary ("By combining these
//! techniques, FaaSMem can further reduce memory footprint") — this
//! experiment quantifies each and their combination on a bursty trace
//! that spawns many concurrent containers.

use std::io::{self, Write};

use super::write_table;
use crate::fmt_mib;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::PolicyKind;
use faasmem_faas::PlatformConfig;
use faasmem_workload::LoadClass;

const TRACE: &str = "bursty high";
const PRIVATE: &str = "private runtimes";
const SHARED: &str = "shared runtime";

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Micro-benchmarks profit most from sharing: their runtime dominates.
    let grid = ExperimentGrid::new("disc03_memory_sharing")
        .trace(TraceSpec::synth(TRACE, 903, LoadClass::High).bursty(true))
        .bench(BenchCase::named("pyaes"))
        .configs(
            [(PRIVATE, false), (SHARED, true)].map(|(label, share_runtime)| {
                ConfigCase::new(
                    label,
                    PlatformConfig {
                        share_runtime,
                        seed: 12,
                        ..PlatformConfig::default()
                    },
                )
            }),
        )
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_grid(&grid, opts);
    let outcome =
        |policy: PolicyKind, config: &str| run.outcome(TRACE, "pyaes", config, policy.name());
    let base = outcome(PolicyKind::Baseline, PRIVATE);
    writeln!(
        out,
        "pyaes, bursty high-load, {} invocations\n",
        base.trace_len
    )?;

    let base_mem = base.summary.avg_local_mib;
    let mut rows = Vec::new();
    for (label, policy, config) in [
        ("Baseline", PolicyKind::Baseline, PRIVATE),
        ("Runtime sharing only", PolicyKind::Baseline, SHARED),
        ("FaaSMem only", PolicyKind::FaasMem, PRIVATE),
        ("FaaSMem + sharing", PolicyKind::FaasMem, SHARED),
    ] {
        let s = &outcome(policy, config).summary;
        let mem = s.avg_local_mib;
        rows.push(vec![
            label.to_string(),
            fmt_mib(mem),
            format!("{:+.1}%", (mem - base_mem) / base_mem * 100.0),
            format!("{:.0}ms", s.latency.p95.as_millis_f64()),
        ]);
    }
    write_table(
        out,
        &["configuration", "avg local mem", "vs baseline", "P95"],
        &rows,
    )?;
    writeln!(
        out,
        "\nShape: sharing removes duplicate runtimes, FaaSMem removes cold + keep-alive\n\
         memory; the combination saves the most (§9, Memory sharing in serverless)."
    )
}
