//! Metric definitions, aggregation of repetitions into metrics, and the
//! correctness gate.
//!
//! End-to-end metrics come from the untraced repetitions only. Per-layer
//! metrics come from the one traced repetition, except the few defined
//! against untraced wall time (`faas.sim_s_per_wall_s`,
//! `faas.ns_per_event`, `trace.overhead_pct`, `rack.*`).

use crate::probe::COUNTERS;
use crate::run::Rep;

/// An end-to-end metric and its regression bound: the share of the
/// baseline's value by which it may grow. Every end-to-end metric is
/// better lower.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics, with the bounds `BENCHMARK.json` declares.
/// Each bound other than `setup_s`'s is at least three times the largest
/// spread (interquartile range over median) measured in two sets of ten
/// seeds on a 2-core machine.
///
/// Simulator throughput is a per-layer metric (`faas.sim_s_per_wall_s`),
/// not an end-to-end one: on a shared machine, cache contention from
/// other tenants changes it by up to 3x for tens of seconds at a time,
/// so no bound would separate a regression from the neighbours. Compare
/// it between commits with alternating paired runs instead.
pub const END_TO_END: [Def; 6] = [
    Def {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    Def {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.10,
    },
    Def {
        name: "p50_latency_ms",
        unit: "sim_ms",
        bound: 0.05,
    },
    Def {
        name: "p95_latency_ms",
        unit: "sim_ms",
        bound: 0.10,
    },
    Def {
        name: "p99_latency_ms",
        unit: "sim_ms",
        bound: 0.15,
    },
    Def {
        name: "local_mem_mib",
        unit: "MiB",
        bound: 0.10,
    },
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// The end-to-end metrics over the untraced repetitions.
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    // Simulated quantities are identical across repetitions (the gate
    // checks the digests), so any repetition's value is the value.
    let first = &reps[0];
    END_TO_END
        .iter()
        .map(|def| {
            let value = match def.name {
                "setup_s" | "peak_rss_mib" => median_of(reps, |r| r.value(def.name)),
                name => first.value(name),
            };
            metric(def.name, def.unit, value)
        })
        .collect()
}

/// The per-layer metrics: from `traced`, plus those defined against the
/// untraced repetitions' wall time. `threads` is the workload's worker
/// count.
pub fn per_layer(reps: &[Rep], traced: &Rep, threads: usize) -> Vec<Metric> {
    let t = |name: &str| traced.value(name);
    let mut out = vec![
        metric("workload.synth_s", "s", t("workload.synth_s")),
        metric("workload.invocations", "count", traced.invocations as f64),
        metric("faas.build_s", "s", t("faas.build_s")),
        metric("faas.events", "count", t("faas.events")),
        metric(
            "faas.sim_s_per_wall_s",
            "sim_s/s",
            median_of(reps, |r| r.value("sim_s") / r.value("wall_s")),
        ),
        metric(
            "faas.ns_per_event",
            "ns",
            median_of(reps, |r| r.value("run_s") / r.value("faas.events") * 1e9),
        ),
        metric(
            "faas.self_s",
            "s",
            t("run_s") - t("policy.self_s") - t("trace.sink_s"),
        ),
        metric("faas.containers", "count", t("faas.containers")),
        metric("faas.cold_starts", "count", t("faas.cold_starts")),
        metric(
            "faas.avg_live_containers",
            "count",
            t("faas.avg_live_containers"),
        ),
        metric(
            "faas.forced_cold_restarts",
            "count",
            t("faas.forced_cold_restarts"),
        ),
    ];
    for hook in crate::probe::Hook::ALL {
        let calls = format!("policy.{}.calls", hook.name());
        let self_s = format!("policy.{}.self_s", hook.name());
        out.push(metric(&calls, "count", t(&calls)));
        out.push(metric(&self_s, "s", t(&self_s)));
    }
    out.push(metric("policy.self_s", "s", t("policy.self_s")));
    for (name, unit, _) in COUNTERS {
        out.push(metric(name, unit, t(name)));
    }
    // Share of offloaded pages that came back: offloads that bought no
    // lasting saving.
    let offloaded = t("mem.pages_offloaded");
    let recalled = t("mem.pages_in_demand") + t("mem.pages_in_prefetch");
    out.push(metric(
        "mem.recall_per_offload",
        "ratio",
        if offloaded > 0.0 {
            recalled / offloaded
        } else {
            0.0
        },
    ));
    out.push(metric(
        "pool.recalls_abandoned",
        "count",
        t("pool.recalls_abandoned"),
    ));
    out.push(metric("metrics.summarize_s", "s", t("metrics.summarize_s")));
    out.push(metric(
        "metrics.series_points",
        "count",
        t("metrics.series_points"),
    ));
    out.push(metric("trace.events", "count", t("trace.events")));
    out.push(metric("trace.sink_s", "s", t("trace.sink_s")));
    let untraced_wall = median_of(reps, |r| r.value("wall_s"));
    out.push(metric(
        "trace.overhead_pct",
        "%",
        (t("wall_s") / untraced_wall - 1.0) * 100.0,
    ));
    out.push(metric(
        "rack.node_wall_max_s",
        "s",
        median_of(reps, |r| r.value("node_wall_max_s")),
    ));
    out.push(metric(
        "rack.parallel_efficiency",
        "ratio",
        median_of(reps, |r| {
            r.value("node_wall_sum_s") / (threads as f64 * r.value("wall_s"))
        }),
    ));
    out
}

/// The outcome of the correctness gate over one workload's repetitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Invocations simulated, over every repetition.
    pub attempted: u64,
    /// Invocations not completed plus repetitions whose digest differs
    /// from the first untraced one.
    pub failed: u64,
    /// One line per violation.
    pub problems: Vec<String>,
}

/// Checks that every repetition completed its whole trace and that all
/// of them, traced or not, produced the same digest.
pub fn check(reps: &[Rep], traced: Option<&Rep>) -> Verdict {
    let mut verdict = Verdict::default();
    let expected = &reps[0].digest;
    for (i, rep) in reps.iter().chain(traced).enumerate() {
        let label = if i < reps.len() {
            format!("repetition {}", i + 1)
        } else {
            "traced repetition".to_string()
        };
        verdict.attempted += rep.invocations;
        if rep.completed != rep.invocations {
            verdict.failed += rep.invocations.abs_diff(rep.completed);
            verdict.problems.push(format!(
                "{label}: completed {} of {} invocations",
                rep.completed, rep.invocations
            ));
        }
        if &rep.digest != expected {
            verdict.failed += 1;
            verdict.problems.push(format!(
                "{label}: digest {} differs from {expected}",
                rep.digest
            ));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use faasmem_trace::json::{self, JsonValue};

    use super::*;
    use crate::report::WorkloadResult;
    use crate::run::run_rep;
    use crate::workloads::{Setup, Workload};

    /// The benchmark's declaration, at the root of the repository.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(list: &str) -> Vec<JsonValue> {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(JsonValue::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{list}'"))
            .to_vec()
    }

    fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a JsonValue {
        entry
            .get(key)
            .unwrap_or_else(|| panic!("metric entry lacks '{key}'"))
    }

    /// Name to unit, for one list of `BENCHMARK.json`.
    fn units(list: &str) -> BTreeMap<String, String> {
        declared(list)
            .iter()
            .map(|m| {
                let text = |key| field(m, key).as_str().unwrap().to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn end_to_end_definitions_match_benchmark_json() {
        let declared = declared("end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (entry, def) in declared.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_str(), Some(def.name));
            assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
            assert_eq!(
                field(entry, "better").as_str(),
                Some("lower"),
                "{}",
                def.name
            );
            assert_eq!(
                field(entry, "bound").as_num(),
                Some(def.bound),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for workload in Workload::ALL {
            let setup = Setup::tiny(workload, 7);
            // The names do not depend on which repetition is which, so
            // one traced repetition stands in for both kinds.
            let rep = run_rep(&setup, workload.threads(), true).unwrap();
            let result = WorkloadResult::new(workload, std::slice::from_ref(&rep), Some(&rep));
            assert_eq!(result.verdict.problems, Vec::<String>::new());
            for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let line = json::parse(&result.result_line(traced)).unwrap();
                let Some(JsonValue::Obj(metrics)) = line.get("metrics") else {
                    panic!("result line lacks 'metrics'");
                };
                let emitted: BTreeMap<String, String> = metrics
                    .iter()
                    .map(|(name, m)| {
                        let value = field(m, "value").as_num();
                        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
                        (name.clone(), field(m, "unit").as_str().unwrap().to_string())
                    })
                    .collect();
                assert_eq!(emitted.len(), metrics.len(), "{list}: a name repeats");
                assert_eq!(emitted, units(list), "{} {list}", workload.name());
            }
        }
    }
}
