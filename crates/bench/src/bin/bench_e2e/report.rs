//! One workload's result, and the JSON and text forms results and
//! repetitions travel in.

use std::collections::BTreeMap;

use faasmem_trace::json::{self, JsonValue};

use crate::metrics::{self, Metric, Verdict};
use crate::run::Rep;
use crate::workloads::Workload;

/// Everything reported for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub verdict: Verdict,
    /// Invocations in the workload's traces.
    pub ops: u64,
    /// Digest of the first untraced repetition.
    pub digest: String,
    pub end_to_end: Vec<Metric>,
    /// Empty when no traced repetition ran.
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    /// Aggregates `reps` (untraced, at least one) and the optional
    /// traced repetition.
    pub fn new(workload: Workload, reps: &[Rep], traced: Option<&Rep>) -> WorkloadResult {
        WorkloadResult {
            workload,
            verdict: metrics::check(reps, traced),
            ops: reps[0].invocations,
            digest: reps[0].digest.clone(),
            end_to_end: metrics::end_to_end(reps),
            per_layer: traced
                .map(|t| metrics::per_layer(reps, t, workload.threads()))
                .unwrap_or_default(),
        }
    }

    /// The full report's entry for this workload.
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.push("name", JsonValue::Str(self.workload.name().to_string()));
        doc.push("ops", num(self.ops));
        doc.push("failed_ops", num(self.verdict.failed));
        doc.push("digest", JsonValue::Str(self.digest.clone()));
        doc.push("end_to_end", metrics_json(&self.end_to_end));
        doc.push("per_layer", metrics_json(&self.per_layer));
        doc
    }

    /// The one-line result of a timed run: the end-to-end metrics, or
    /// the per-layer ones for a traced run.
    pub fn result_line(&self, traced: bool) -> String {
        let mut doc = JsonValue::obj();
        doc.push("correct", JsonValue::Bool(self.verdict.problems.is_empty()));
        doc.push("attempted", num(self.verdict.attempted));
        doc.push("failed", num(self.verdict.failed));
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        doc.push("metrics", metrics_json(metrics));
        doc.to_compact()
    }

    /// A human-readable table of every metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {}: ops {}, failed_ops {}, digest {}\n",
            self.workload.name(),
            self.ops,
            self.verdict.failed,
            self.digest
        );
        for problem in &self.verdict.problems {
            out.push_str(&format!("   FAILED: {problem}\n"));
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            out.push_str(&format!("   {:<32} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        out
    }
}

fn num(n: u64) -> JsonValue {
    JsonValue::Num(n as f64)
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    let mut doc = JsonValue::obj();
    for m in metrics {
        let mut entry = JsonValue::obj();
        entry.push("value", JsonValue::Num(m.value));
        entry.push("unit", JsonValue::Str(m.unit.to_string()));
        doc.push(&m.name, entry);
    }
    doc
}

/// A repetition as the one line a child process prints.
pub fn rep_to_line(rep: &Rep) -> String {
    let mut values = JsonValue::obj();
    for (name, value) in &rep.values {
        values.push(name, JsonValue::Num(*value));
    }
    let mut doc = JsonValue::obj();
    doc.push("digest", JsonValue::Str(rep.digest.clone()));
    doc.push("invocations", num(rep.invocations));
    doc.push("completed", num(rep.completed));
    doc.push("values", values);
    doc.to_compact()
}

/// Parses a child's repetition line.
pub fn rep_from_line(line: &str) -> Result<Rep, String> {
    let doc = json::parse(line)?;
    let count = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(JsonValue::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("repetition line lacks '{key}'"))
    };
    let Some(JsonValue::Obj(members)) = doc.get("values") else {
        return Err("repetition line lacks 'values'".to_string());
    };
    let values = members
        .iter()
        .map(|(name, value)| {
            value
                .as_num()
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("value '{name}' is not a number"))
        })
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    Ok(Rep {
        digest: doc
            .get("digest")
            .and_then(JsonValue::as_str)
            .ok_or("repetition line lacks 'digest'")?
            .to_string(),
        invocations: count("invocations")?,
        completed: count("completed")?,
        values,
    })
}
