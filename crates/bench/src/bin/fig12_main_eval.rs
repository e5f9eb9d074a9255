//! Figure 12: the main evaluation — normalized memory usage and P95
//! latency of all 11 benchmarks under a high-load and a low-load trace,
//! comparing Baseline, TMO and FaaSMem.
//!
//! Expected shape (paper): FaaSMem cuts local memory by 27.1%–71.0%
//! (high load) and 9.9%–72.0% (low load); TMO saves single-digit
//! percents; P95 latency stays within ~10% of Baseline for both; the
//! micro-benchmarks all save ≥ 50% (runtime segment dominates); among
//! the applications Web saves the most and Graph the least.
//!
//! Runs on the parallel harness: `--jobs N` fans the 66 cells out,
//! `--quick` truncates the traces for a smoke run; the merged result is
//! exported to `results/fig12_main_eval.json`.

use faasmem_bench::harness::{
    self, BenchCase, ExperimentGrid, HarnessOptions, SeedMix, TraceSpec, DEFAULT_CONFIG,
};
use faasmem_bench::{fmt_mib, fmt_secs, pct_change, render_table, svg, PolicyKind};
use faasmem_workload::{BenchmarkSpec, LoadClass};

/// Per-request (offload, recall) MB volumes of one system.
type ReqVolumes = (f64, f64);

fn main() {
    let opts = HarnessOptions::from_env();
    let grid = ExperimentGrid::new("fig12_main_eval")
        .traces([
            TraceSpec::synth("high", 12_001, LoadClass::High)
                .bursty(true)
                .seed_mix(SeedMix::XorNameLen),
            TraceSpec::synth("low", 12_002, LoadClass::Low).seed_mix(SeedMix::XorNameLen),
        ])
        .benches(BenchmarkSpec::catalog().into_iter().map(BenchCase::single))
        .policy_kinds(PolicyKind::HEAD_TO_HEAD);
    let run = harness::run_and_export(&grid, &opts);

    for (trace_label, heading) in [("high", "HIGH LOAD"), ("low", "LOW LOAD")] {
        println!("=== Fig 12 ({heading}) ===");
        let mut rows = Vec::new();
        let mut per_request_volumes: Vec<(&str, ReqVolumes, ReqVolumes)> = Vec::new();
        let mut chart_categories: Vec<String> = Vec::new();
        let mut chart_mem: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for spec in BenchmarkSpec::catalog() {
            let mut mem = Vec::new();
            let mut p95 = Vec::new();
            let mut volumes = Vec::new();
            let mut trace_len = 0;
            for kind in PolicyKind::HEAD_TO_HEAD {
                let cell = run.outcome(trace_label, spec.name, DEFAULT_CONFIG, kind.name());
                trace_len = cell.trace_len;
                let s = &cell.summary;
                mem.push(s.avg_local_mib);
                p95.push(s.latency.p95.as_secs_f64());
                let reqs = s.requests_completed.max(1) as f64;
                volumes.push((
                    s.pool_stats.bytes_out as f64 / reqs / 1e6,
                    s.pool_stats.bytes_in as f64 / reqs / 1e6,
                ));
            }
            if trace_len == 0 {
                continue;
            }
            per_request_volumes.push((spec.name, volumes[1], volumes[2]));
            chart_categories.push(spec.name.to_string());
            for (i, &m) in mem.iter().enumerate() {
                chart_mem[i].push(m);
            }
            rows.push(vec![
                spec.name.to_string(),
                trace_len.to_string(),
                fmt_mib(mem[0]),
                pct_change(mem[1], mem[0]),
                pct_change(mem[2], mem[0]),
                fmt_secs(p95[0]),
                pct_change(p95[1], p95[0]),
                pct_change(p95[2], p95[0]),
            ]);
        }
        println!(
            "{}",
            render_table(
                &[
                    "benchmark",
                    "reqs",
                    "base mem",
                    "TMO mem",
                    "FaaSMem mem",
                    "base P95",
                    "TMO P95",
                    "FaaSMem P95",
                ],
                &rows
            )
        );
        println!();
        // §8.2.1's per-request data volumes: the paper quotes Bert at
        // 1.08 MB offloaded / 0.65 MB recalled per request under
        // FaaSMem vs 0.05 / 0.0004 MB under TMO (a ~45x gap).
        let vol_rows: Vec<Vec<String>> = per_request_volumes
            .iter()
            .map(|&(name, tmo, fm)| {
                vec![
                    name.to_string(),
                    format!("{:.2}", fm.0),
                    format!("{:.2}", fm.1),
                    format!("{:.3}", tmo.0),
                    format!("{:.4}", tmo.1),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "benchmark",
                    "FaaSMem out MB/req",
                    "FaaSMem in MB/req",
                    "TMO out MB/req",
                    "TMO in MB/req",
                ],
                &vol_rows
            )
        );
        let cats: Vec<&str> = chart_categories.iter().map(String::as_str).collect();
        let chart = svg::grouped_bars(
            &format!("Fig 12 ({heading}): average local memory"),
            "MiB",
            &cats,
            &[
                ("Baseline", chart_mem[0].clone()),
                ("TMO", chart_mem[1].clone()),
                ("FaaSMem", chart_mem[2].clone()),
            ],
        );
        svg::write_chart(
            &opts.out_dir,
            &format!("fig12_{}.svg", heading.to_lowercase().replace(' ', "_")),
            &chart,
        );
        println!();
    }
    println!(
        "Paper reference (Fig 12): FaaSMem -27.1%..-71.0% memory (high), -9.9%..-72.0% (low);"
    );
    println!("micro-benchmarks >= -50%; Web best / Graph worst among apps; P95 within ~+10%.");
}
