//! Figure 14: applicability of semi-warm across the function population.
//!
//! The paper categorises the 424 trace functions by daily invocations
//! (high > 512, low < 64) and reports (a) the CDF of semi-warm time as a
//! share of container lifetime, (b) the container-lifetime CDF, per
//! class. Expected shape: ≥ 50% of functions spend more than half their
//! container lifetime semi-warm; the effect is strongest for high- and
//! low-load functions (both breed short-lived containers) and weakest
//! for steady middle-load functions.

use std::collections::HashMap;
use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ExperimentGrid, HarnessOptions, TraceSpec, DEFAULT_CONFIG};
use crate::{svg, PolicyKind};
use faasmem_faas::FunctionId;
use faasmem_metrics::Cdf;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::{BenchmarkSpec, LoadClass, TraceSynthesizer};

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    const FUNCTIONS: u32 = 424;
    const SEED: u64 = 14;
    let horizon = SimTime::from_mins(240);
    // The cell's trace draws its arrivals during the run; the same seed
    // re-derives each function's load class without drawing any.
    let (_, classes) = TraceSynthesizer::new(SEED)
        .duration(horizon)
        .synthesize_cluster(FUNCTIONS);
    let class_of: HashMap<FunctionId, LoadClass> = classes.into_iter().collect();

    // The metric concerns invocation patterns, not footprint size; a
    // small benchmark keeps the 424-function run cheap. Execution time
    // is set to the Azure average (~1 s) so that bursts actually overlap
    // and strand scale-out containers, as in the real trace.
    let spec = BenchmarkSpec {
        exec_time: SimDuration::from_secs(1),
        ..BenchmarkSpec::by_name("json").expect("catalog")
    };
    let grid = ExperimentGrid::new("fig14_semiwarm_applicability")
        .trace(TraceSpec::cluster("azure", SEED, FUNCTIONS).duration(horizon))
        .bench(BenchCase::cluster(
            "json-1s",
            vec![spec; FUNCTIONS as usize],
        ))
        .policy_kinds([PolicyKind::FaasMem]);
    let run = harness::run_grid(&grid, opts);
    let outcome = run.outcome(
        "azure",
        "json-1s",
        DEFAULT_CONFIG,
        PolicyKind::FaasMem.name(),
    );
    let stats = outcome.faasmem.as_ref().expect("FaaSMem exposes stats");
    writeln!(
        out,
        "run: {} invocations, {} containers, {} semi-warm records\n",
        outcome.report.requests_completed,
        outcome.report.containers.len(),
        stats.semi_warm_records.len()
    )?;

    let all_classes: [(&str, Option<LoadClass>); 4] = [
        ("all", None),
        ("high", Some(LoadClass::High)),
        ("middle", Some(LoadClass::Middle)),
        ("low", Some(LoadClass::Low)),
    ];
    let mut share_rows = Vec::new();
    let mut life_rows = Vec::new();
    for (label, class) in all_classes {
        let records: Vec<_> = stats
            .semi_warm_records
            .iter()
            .filter(|r| class.is_none_or(|c| class_of.get(&r.function) == Some(&c)))
            .collect();
        if records.is_empty() {
            continue;
        }
        let share_cdf = Cdf::from_samples(records.iter().map(|r| r.semi_warm_fraction()));
        share_rows.push(vec![
            label.to_string(),
            records.len().to_string(),
            format!("{:.0}%", share_cdf.quantile(0.5).unwrap_or(0.0) * 100.0),
            format!("{:.0}%", (1.0 - share_cdf.fraction_at_most(0.5)) * 100.0),
        ]);
        let life_cdf = Cdf::from_samples(records.iter().map(|r| r.lifetime.as_secs_f64() / 60.0));
        life_rows.push(vec![
            label.to_string(),
            format!("{:.0} min", life_cdf.quantile(0.5).unwrap_or(0.0)),
            format!("{:.0} min", life_cdf.quantile(0.9).unwrap_or(0.0)),
        ]);
    }
    writeln!(out, "semi-warm share of container lifetime:")?;
    write_table(
        out,
        &[
            "load class",
            "containers",
            "median share",
            "containers with share > 50%",
        ],
        &share_rows,
    )?;
    writeln!(out, "container lifetime:")?;
    write_table(out, &["load class", "median", "P90"], &life_rows)?;
    // SVG: semi-warm-share CDFs per load class (the paper's left panel).
    let mut chart_series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    for (label, class) in [
        ("high", Some(LoadClass::High)),
        ("middle", Some(LoadClass::Middle)),
        ("low", Some(LoadClass::Low)),
    ] {
        let samples: Vec<f64> = stats
            .semi_warm_records
            .iter()
            .filter(|r| class.is_none_or(|c| class_of.get(&r.function) == Some(&c)))
            .map(|r| r.semi_warm_fraction() * 100.0)
            .collect();
        let cdf = Cdf::from_samples(samples);
        let pts = cdf.plot_points(60);
        if pts.len() >= 2 {
            chart_series.push((label, pts));
        }
    }
    if !chart_series.is_empty() {
        let chart = svg::lines(
            "Fig 14: CDF of semi-warm share of container lifetime",
            "semi-warm share (%)",
            "fraction of containers",
            &chart_series,
        );
        svg::write_chart(&opts.out_dir, "fig14_semiwarm_cdf.svg", &chart)?;
    }
    writeln!(
        out,
        "Paper reference (Fig 14): semi-warm > 1/2 of lifetime for ~50% of functions;\n\
         high- and low-load functions benefit most, middle-load least."
    )
}
