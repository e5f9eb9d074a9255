//! Figure 5: CDF of the number of requests each container handles.
//!
//! The paper's Azure-trace simulation finds that nearly 60% of containers
//! serve at most two requests in their whole lifetime — which is why
//! Init-Pucket cold-page identification cannot rely on long access
//! histories.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::PolicyKind;
use faasmem_sim::SimTime;
use faasmem_workload::{BenchmarkSpec, RuntimeSpec};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    const FUNCTIONS: u32 = 424;
    let spec = BenchmarkSpec::hello_world(&RuntimeSpec::openwhisk_python());
    let grid = ExperimentGrid::new("fig05_requests_per_container")
        .trace(TraceSpec::cluster("azure", 5, FUNCTIONS).duration(SimTime::from_mins(240)))
        .bench(BenchCase::cluster("hello", vec![spec; FUNCTIONS as usize]))
        .policy_kinds([PolicyKind::Baseline]);
    let run = harness::run_grid(&grid, opts);
    let cdf = run
        .outcome(
            "azure",
            "hello",
            DEFAULT_CONFIG,
            PolicyKind::Baseline.name(),
        )
        .report
        .requests_per_container_cdf();

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
