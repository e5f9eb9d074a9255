//! Figure 16: remote bandwidth consumption and deployment-density
//! improvement of the three applications under 20 random traces.
//!
//! Expected shape (paper §8.6): bandwidth grows roughly linearly with
//! request load (with an uptick at very low loads, where semi-warm starts
//! earlier); density improvement is positively correlated with request
//! load and negatively with the standard deviation of request intervals;
//! maxima ≈ 1.4× (Bert), 1.4× (Graph), 2.2× (Web).

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::PolicyKind;
use faasmem_faas::estimate_density;
use faasmem_workload::{BenchmarkSpec, LoadClass};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let apps = ["bert", "graph", "web"];
    let grid = ExperimentGrid::new("fig16_density")
        .traces((0u64..20).map(|trace_id| {
            let class = match trace_id % 3 {
                0 => LoadClass::High,
                1 => LoadClass::Middle,
                _ => LoadClass::Low,
            };
            TraceSpec::synth(&trace_id.to_string(), 1600 + trace_id, class)
                .bursty(trace_id % 2 == 0)
        }))
        .benches(apps.map(BenchCase::named))
        .policy_kinds([PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    for app in apps {
        let spec = BenchmarkSpec::by_name(app).expect("catalog");
        writeln!(out, "=== Fig 16 ({app}, quota {} MiB) ===", spec.quota_mib)?;
        let mut rows = Vec::new();
        let mut max_density: f64 = 1.0;
        for trace_id in 0u64..20 {
            let outcome = run.outcome(
                &trace_id.to_string(),
                app,
                DEFAULT_CONFIG,
                PolicyKind::FaasMem.name(),
            );
            if outcome.trace_len == 0 {
                continue;
            }
            let stats = outcome.trace_stats;
            let density = estimate_density(&outcome.report, &spec);
            max_density = max_density.max(density.improvement);
            rows.push(vec![
                format!("{trace_id}"),
                format!("{:.1}", stats.req_per_min),
                format!("{:.0}s", stats.interval_std_secs),
                format!("{:.2} MB/s", outcome.summary.mean_offload_bandwidth_mbps),
                format!("{:.0} MiB", density.offloaded_per_container_mib),
                format!("{:.2}x", density.improvement),
            ]);
        }
        write_table(
            out,
            &[
                "trace",
                "req/min",
                "σ(intervals)",
                "offload bw",
                "offload/ctr",
                "density",
            ],
            &rows,
        )?;
        writeln!(out, "max density improvement: {max_density:.2}x\n")?;
    }
    writeln!(
        out,
        "Paper reference (Fig 16): density up to 1.4x/1.4x/2.2x (Bert/Graph/Web);\n\
         positively correlated with req/min, negatively with σ of request intervals."
    )
}
