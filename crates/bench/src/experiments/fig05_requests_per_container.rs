//! Figure 5: CDF of the number of requests each container handles.
//!
//! The paper's Azure-trace simulation finds that nearly 60% of containers
//! serve at most two requests in their whole lifetime — which is why
//! Init-Pucket cold-page identification cannot rely on long access
//! histories.

use std::io::{self, Write};

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_baselines::NoOffloadPolicy;
use faasmem_faas::PlatformSim;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, RuntimeSpec, TraceSynthesizer};

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    const FUNCTIONS: u32 = 424;
    let horizon = SimTime::from_mins(240);
    let (trace, _) = TraceSynthesizer::new(5)
        .duration(horizon)
        .synthesize_cluster(FUNCTIONS);

    let spec = BenchmarkSpec::hello_world(&RuntimeSpec::openwhisk_python());
    let mut builder = PlatformSim::builder();
    for _ in 0..FUNCTIONS {
        builder = builder.register_function(spec.clone());
    }
    let mut sim = builder.policy(NoOffloadPolicy).build();
    let report = sim.run(&trace);
    let cdf = report.requests_per_container_cdf();

    let mut rows = Vec::new();
    for k in [1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0] {
        rows.push(vec![
            format!("<= {k:.0}"),
            format!("{:.1}%", cdf.fraction_at_most(k) * 100.0),
        ]);
    }
    writeln!(out, "containers observed: {}", cdf.len())?;
    write_table(
        out,
        &["requests per container", "fraction of containers"],
        &rows,
    )?;
    writeln!(
        out,
        "Paper reference (Fig 5): ~60% of containers handle at most two requests."
    )
}
