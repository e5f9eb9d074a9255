//! `bench_e2e compare BASE.json NEW.json`: applies each end-to-end
//! metric's bound to two full reports.

use faasmem_trace::json::JsonValue;

use crate::metrics::END_TO_END;

fn workloads(doc: &JsonValue) -> Result<&[JsonValue], String> {
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "report lacks a 'workloads' array".to_string())
}

fn name_of(entry: &JsonValue) -> Result<&str, String> {
    entry
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "workload entry lacks 'name'".to_string())
}

fn value_of(entry: &JsonValue, metric: &str) -> Result<f64, String> {
    entry
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("workload entry lacks end_to_end metric '{metric}'"))
}

/// Compares every workload of `base` against `new`. Returns one table
/// row per workload and whether every metric stayed within its bound.
pub fn compare(base: &JsonValue, new: &JsonValue) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<26} {:<18} {:>9} {:>7} {:<8} verdict\n",
        "workload", "worst metric", "change", "bound", "digest"
    );
    let mut all_ok = true;
    for base_entry in workloads(base)? {
        let name = name_of(base_entry)?;
        let new_entry = workloads(new)?
            .iter()
            .find(|e| name_of(e) == Ok(name))
            .ok_or_else(|| format!("workload '{name}' is missing from the new report"))?;
        // The metric closest to (or furthest past) its bound.
        let mut worst: Option<(&str, f64, f64)> = None;
        let mut regressed = Vec::new();
        for def in END_TO_END {
            let (a, b) = (
                value_of(base_entry, def.name)?,
                value_of(new_entry, def.name)?,
            );
            if a <= 0.0 {
                return Err(format!(
                    "{name}: baseline {} is {a}, not positive",
                    def.name
                ));
            }
            // Every end-to-end metric is better lower.
            let change = (b - a) / a;
            if change > def.bound {
                regressed.push(def.name);
            }
            if worst.is_none_or(|(_, c, bound)| change / def.bound > c / bound) {
                worst = Some((def.name, change, def.bound));
            }
        }
        let (metric, change, bound) = worst.expect("END_TO_END is not empty");
        let same_digest = base_entry.get("digest") == new_entry.get("digest");
        let verdict = if regressed.is_empty() {
            "ok".to_string()
        } else {
            all_ok = false;
            format!("REGRESSED: {}", regressed.join(", "))
        };
        table.push_str(&format!(
            "{:<26} {:<18} {:>+8.2}% {:>6.0}% {:<8} {verdict}\n",
            name,
            metric,
            change * 100.0,
            bound * 100.0,
            if same_digest { "same" } else { "changed" },
        ));
    }
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_trace::json::parse;

    fn report(p95: f64, local_mem: f64, digest: &str) -> JsonValue {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|def| {
                let value = match def.name {
                    "p95_latency_ms" => p95,
                    "local_mem_mib" => local_mem,
                    _ => 1.0,
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        parse(&format!(
            "{{\"workloads\": [{{\"name\": \"w\", \"digest\": \"{digest}\", \"end_to_end\": {{{}}}}}]}}",
            metrics.join(", ")
        ))
        .expect("test report parses")
    }

    #[test]
    fn bounds_decide_the_verdict() {
        let base = report(100.0, 1000.0, "a");
        let (_, ok) = compare(&base, &report(102.0, 800.0, "a")).unwrap();
        assert!(ok, "2% slower p95 and less memory stay within bounds");
        let (table, ok) = compare(&base, &report(100.0, 1500.0, "b")).unwrap();
        assert!(!ok, "50% more memory exceeds its bound");
        assert!(table.contains("REGRESSED: local_mem_mib"), "{table}");
        assert!(table.contains("changed"), "{table}");
        let (_, ok) = compare(&base, &report(50.0, 1000.0, "a")).unwrap();
        assert!(ok, "a lower latency is an improvement");
    }

    #[test]
    fn missing_workloads_are_errors() {
        let base = report(100.0, 1000.0, "a");
        let empty = parse("{\"workloads\": []}").unwrap();
        assert!(compare(&base, &empty).is_err());
    }
}
