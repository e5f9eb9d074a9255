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
use crate::harness::HarnessOptions;
use faasmem_baselines::NoOffloadPolicy;
use faasmem_core::FaasMemPolicy;
use faasmem_faas::PlatformSim;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, FunctionId, LoadClass, TraceSynthesizer};

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Micro-benchmarks profit most from sharing: their runtime dominates.
    let spec = BenchmarkSpec::by_name("pyaes").expect("catalog");
    let trace = TraceSynthesizer::new(903)
        .load_class(LoadClass::High)
        .bursty(true)
        .duration(SimTime::from_mins(60))
        .synthesize_for(FunctionId(0));
    writeln!(
        out,
        "pyaes, bursty high-load, {} invocations\n",
        trace.len()
    )?;

    let run = |faasmem: bool, share: bool| {
        let builder = PlatformSim::builder()
            .register_function(spec.clone())
            .share_runtime(share)
            .seed(12);
        let mut sim = if faasmem {
            builder.policy(FaasMemPolicy::new()).build()
        } else {
            builder.policy(NoOffloadPolicy).build()
        };
        sim.run(&trace)
    };

    let mut base = run(false, false);
    let base_mem = base.avg_local_mib();
    let mut rows = Vec::new();
    for (label, faasmem, share) in [
        ("Baseline", false, false),
        ("Runtime sharing only", false, true),
        ("FaaSMem only", true, false),
        ("FaaSMem + sharing", true, true),
    ] {
        // The baseline row reads the run above rather than a second
        // simulation.
        let mut fresh;
        let report = if (faasmem, share) == (false, false) {
            &mut base
        } else {
            fresh = run(faasmem, share);
            &mut fresh
        };
        let mem = report.avg_local_mib();
        rows.push(vec![
            label.to_string(),
            fmt_mib(mem),
            format!("{:+.1}%", (mem - base_mem) / base_mem * 100.0),
            format!("{:.0}ms", report.p95_latency().as_millis_f64()),
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
