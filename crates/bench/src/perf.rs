//! `BENCH_*.json` perf baselines: the one writer the micro-benchmark
//! bins (`bench_mem`, `bench_cluster`) record their
//! phases into, and the comparison behind the `bench_compare` bin.
//!
//! A BENCH document ([`BenchRecorder::bench_json`]) records a run's
//! total wall time and its per-phase breakdown. This module flattens
//! two such documents into named scalar metrics and flags every metric
//! whose new value exceeds the old by more than a tolerance — the CI
//! perf job fails when any metric regresses.
//!
//! Wall-clock is noisy, so the comparison is deliberately coarse:
//! metrics whose baseline sits below [`MIN_COMPARABLE_SECS`] are
//! skipped outright (at micro scale the scheduler noise floor dwarfs
//! any real regression), and the default tolerance is a generous
//! [`DEFAULT_TOLERANCE`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::JsonValue;

/// Default allowed slow-down before a metric counts as regressed
/// (`new > old * (1 + tolerance)`).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Baseline metrics below this many seconds are never compared: the
/// wall-clock noise floor makes ratios at that scale meaningless.
pub const MIN_COMPARABLE_SECS: f64 = 0.005;

/// The BENCH document schema version [`BenchRecorder`] writes.
const BENCH_SCHEMA_VERSION: f64 = 1.0;

/// One micro-benchmark run's per-phase wall time, and the writer of its
/// `BENCH_<bench>.json` document.
///
/// A bin times each phase with [`BenchRecorder::time`], which hands it
/// the same seconds it divides into the rate it prints. A repeated phase
/// name adds to that phase's calls and seconds. Phases are flat, so a
/// phase's self time is its total time.
#[derive(Debug)]
pub struct BenchRecorder {
    bench: &'static str,
    started: Instant,
    phases: BTreeMap<&'static str, (u64, f64)>,
}

impl BenchRecorder {
    /// Starts the run's wall clock for the BENCH id `bench` (the
    /// document is `BENCH_<bench>.json`).
    pub fn new(bench: &'static str) -> Self {
        BenchRecorder {
            bench,
            started: Instant::now(),
            phases: BTreeMap::new(),
        }
    }

    /// Charges one call of `secs` wall seconds to `phase`.
    fn record(&mut self, phase: &'static str, secs: f64) {
        let entry = self.phases.entry(phase).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += secs;
    }

    /// Runs `f`, charges its wall time to `phase`, and returns its
    /// output with the seconds it took.
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.record(phase, secs);
        (out, secs)
    }

    /// The BENCH document `bench_compare` diffs: schema version, bench
    /// id, git revision, wall time since [`BenchRecorder::new`], and the
    /// phases sorted by name.
    pub fn bench_json(&self) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(BENCH_SCHEMA_VERSION));
        doc.push("bench", JsonValue::Str(self.bench.to_string()));
        doc.push("git_rev", JsonValue::Str(git_rev()));
        doc.push(
            "total_wall_secs",
            JsonValue::Num(self.started.elapsed().as_secs_f64()),
        );
        let phases: Vec<JsonValue> = self
            .phases
            .iter()
            .map(|(name, &(calls, secs))| {
                let mut p = JsonValue::obj();
                p.push("name", JsonValue::Str((*name).to_string()));
                p.push("calls", JsonValue::Num(calls as f64));
                p.push("total_secs", JsonValue::Num(secs));
                p.push("self_secs", JsonValue::Num(secs));
                p
            })
            .collect();
        doc.push("phases", JsonValue::Arr(phases));
        doc
    }

    /// Writes `BENCH_<bench>.json` under `dir` and returns its path.
    pub fn write_bench(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.bench_json().to_pretty())?;
        Ok(path)
    }
}

/// The checked-out short revision, for provenance. Best-effort:
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A BENCH document flattened to named scalar metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The `bench` id (e.g. `mem_micro`); compared runs should agree.
    pub bench: String,
    /// The producing checkout's short git revision (`unknown` outside
    /// a checkout).
    pub git_rev: String,
    /// Named wall-time metrics in document order: `total_wall_secs`
    /// plus one `phase:<name>` entry per recorded phase.
    pub metrics: Vec<(String, f64)>,
}

impl BenchDoc {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Flattens a parsed BENCH document into a [`BenchDoc`].
pub fn parse_bench(doc: &JsonValue) -> Result<BenchDoc, String> {
    let bench = doc
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"bench\" id".to_string())?
        .to_string();
    let git_rev = doc
        .get("git_rev")
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown")
        .to_string();
    let total = doc
        .get("total_wall_secs")
        .and_then(JsonValue::as_num)
        .ok_or_else(|| "no wall-time metrics (is this a BENCH file?)".to_string())?;
    let mut metrics = vec![("total_wall_secs".to_string(), total)];
    if let Some(phases) = doc.get("phases").and_then(JsonValue::as_arr) {
        for phase in phases {
            let name = phase
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| "phase entry missing \"name\"".to_string())?;
            let total = phase
                .get("total_secs")
                .and_then(JsonValue::as_num)
                .ok_or_else(|| format!("phase {name:?} missing \"total_secs\""))?;
            metrics.push((format!("phase:{name}"), total));
        }
    }
    Ok(BenchDoc {
        bench,
        git_rev,
        metrics,
    })
}

/// One metric's old-vs-new verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (`total_wall_secs`, `phase:simulate`, ...).
    pub metric: String,
    /// Baseline value in seconds.
    pub old: f64,
    /// New value in seconds.
    pub new: f64,
    /// `true` when the baseline was too small to compare.
    pub skipped: bool,
    /// `true` when `new > old * (1 + tolerance)` (never for skipped
    /// metrics).
    pub regressed: bool,
}

/// The full comparison of two BENCH documents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One entry per baseline metric, in baseline order.
    pub deltas: Vec<Delta>,
    /// Baseline metrics absent from the new document (warned about,
    /// not failed: phase sets legitimately change between revisions).
    pub missing_in_new: Vec<String>,
}

impl Comparison {
    /// Number of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }
}

/// Compares every baseline metric against the new document.
pub fn compare(old: &BenchDoc, new: &BenchDoc, tolerance: f64) -> Comparison {
    let mut cmp = Comparison::default();
    for (name, old_v) in &old.metrics {
        let Some(new_v) = new.metric(name) else {
            cmp.missing_in_new.push(name.clone());
            continue;
        };
        let skipped = *old_v < MIN_COMPARABLE_SECS;
        cmp.deltas.push(Delta {
            metric: name.clone(),
            old: *old_v,
            new: new_v,
            skipped,
            regressed: !skipped && new_v > *old_v * (1.0 + tolerance),
        });
    }
    cmp
}

/// The comparison as a machine-readable JSON document (the
/// `bench_compare --json` output): bench id, both revisions, the
/// tolerance, per-metric deltas in baseline order, missing metrics,
/// and the regression verdict — everything the CI perf job needs to
/// log structured regressions.
pub fn comparison_json(
    old: &BenchDoc,
    new: &BenchDoc,
    cmp: &Comparison,
    tolerance: f64,
) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("bench", JsonValue::Str(old.bench.clone()));
    doc.push("old_git_rev", JsonValue::Str(old.git_rev.clone()));
    doc.push("new_git_rev", JsonValue::Str(new.git_rev.clone()));
    doc.push("tolerance", JsonValue::Num(tolerance));
    let deltas: Vec<JsonValue> = cmp
        .deltas
        .iter()
        .map(|d| {
            let mut entry = JsonValue::obj();
            entry.push("metric", JsonValue::Str(d.metric.clone()));
            entry.push("old_secs", JsonValue::Num(d.old));
            entry.push("new_secs", JsonValue::Num(d.new));
            if d.old > 0.0 {
                entry.push("change", JsonValue::Num((d.new - d.old) / d.old));
            } else {
                entry.push("change", JsonValue::Null);
            }
            entry.push("skipped", JsonValue::Bool(d.skipped));
            entry.push("regressed", JsonValue::Bool(d.regressed));
            entry
        })
        .collect();
    doc.push("deltas", JsonValue::Arr(deltas));
    doc.push(
        "missing_in_new",
        JsonValue::Arr(
            cmp.missing_in_new
                .iter()
                .map(|n| JsonValue::Str(n.clone()))
                .collect(),
        ),
    );
    doc.push("regressions", JsonValue::Num(cmp.regressions() as f64));
    doc.push("pass", JsonValue::Bool(cmp.regressions() == 0));
    doc
}

/// Renders the comparison as the fixed-width report `bench_compare`
/// prints.
pub fn render_report(old: &BenchDoc, new: &BenchDoc, cmp: &Comparison, tolerance: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench {}: {} (old) vs {} (new), tolerance {:.0}%",
        old.bench,
        old.git_rev,
        new.git_rev,
        tolerance * 100.0
    );
    let width = cmp
        .deltas
        .iter()
        .map(|d| d.metric.len())
        .max()
        .unwrap_or(6)
        .max("metric".len());
    let _ = writeln!(
        out,
        "  {:<width$}  {:>10}  {:>10}  {:>8}  verdict",
        "metric", "old (s)", "new (s)", "change"
    );
    for d in &cmp.deltas {
        let change = if d.old > 0.0 {
            format!("{:+.1}%", (d.new - d.old) / d.old * 100.0)
        } else {
            "n/a".to_string()
        };
        let verdict = if d.skipped {
            "skipped (below noise floor)"
        } else if d.regressed {
            "REGRESSED"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "  {:<width$}  {:>10.4}  {:>10.4}  {:>8}  {}",
            d.metric, d.old, d.new, change, verdict
        );
    }
    for name in &cmp.missing_in_new {
        let _ = writeln!(out, "  {name}: missing from new document (warning)");
    }
    let regressions = cmp.regressions();
    if regressions > 0 {
        let _ = writeln!(out, "FAIL: {regressions} metric(s) regressed");
    } else {
        let _ = writeln!(out, "PASS: no regression");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(total: f64, simulate: f64) -> BenchDoc {
        let text = format!(
            r#"{{"bench":"mem_micro","git_rev":"abc1234",
                "total_wall_secs":{total},
                "phases":[{{"name":"simulate","calls":4,"total_secs":{simulate},"self_secs":{simulate}}}]}}"#
        );
        parse_bench(&json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn parse_flattens_headline_and_phase_metrics() {
        let d = doc(2.0, 1.5);
        assert_eq!(d.bench, "mem_micro");
        assert_eq!(d.git_rev, "abc1234");
        assert_eq!(d.metric("total_wall_secs"), Some(2.0));
        assert_eq!(d.metric("phase:simulate"), Some(1.5));
        assert_eq!(d.metric("phase:nope"), None);
    }

    #[test]
    fn recorder_sums_repeated_phases_and_round_trips() {
        let mut rec = BenchRecorder::new("unit");
        rec.record("zeta", 0.25);
        rec.record("alpha", 0.5);
        rec.record("zeta", 0.125);
        let (answer, secs) = rec.time("mid", || 42);
        assert_eq!(answer, 42);
        assert!(secs >= 0.0);

        let doc = rec.bench_json();
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_num),
            Some(1.0)
        );
        let phases = doc.get("phases").and_then(JsonValue::as_arr).unwrap();
        let names: Vec<&str> = phases
            .iter()
            .map(|p| p.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        let zeta = &phases[2];
        assert_eq!(zeta.get("calls").and_then(JsonValue::as_num), Some(2.0));
        assert_eq!(
            zeta.get("total_secs").and_then(JsonValue::as_num),
            Some(0.375)
        );
        assert_eq!(
            zeta.get("self_secs").and_then(JsonValue::as_num),
            Some(0.375)
        );

        // The written file parses back into the comparator's view.
        let dir = std::env::temp_dir().join(format!("faasmem-perf-{}", std::process::id()));
        let path = rec.write_bench(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_unit.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let parsed = parse_bench(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.bench, "unit");
        assert_eq!(parsed.metric("phase:zeta"), Some(0.375));
        assert_eq!(parsed.metric("phase:alpha"), Some(0.5));
        assert!(parsed.metric("total_wall_secs").unwrap() >= secs);
    }

    #[test]
    fn parse_rejects_non_bench_documents() {
        let err = parse_bench(&json::parse(r#"{"grid":"x"}"#).unwrap()).unwrap_err();
        assert!(err.contains("bench"), "{err}");
        let err = parse_bench(&json::parse(r#"{"bench":"x","jobs":2}"#).unwrap()).unwrap_err();
        assert!(err.contains("wall-time"), "{err}");
    }

    #[test]
    fn within_tolerance_passes() {
        let cmp = compare(&doc(2.0, 1.5), &doc(2.4, 1.8), 0.25);
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp.missing_in_new.is_empty());
        assert!(render_report(&doc(2.0, 1.5), &doc(2.4, 1.8), &cmp, 0.25).contains("PASS"));
    }

    #[test]
    fn slowdown_past_tolerance_regresses() {
        let old = doc(2.0, 1.5);
        let new = doc(2.0, 2.1); // simulate phase +40%
        let cmp = compare(&old, &new, 0.25);
        assert_eq!(cmp.regressions(), 1);
        let bad = cmp.deltas.iter().find(|d| d.regressed).unwrap();
        assert_eq!(bad.metric, "phase:simulate");
        let report = render_report(&old, &new, &cmp, 0.25);
        assert!(report.contains("REGRESSED"), "{report}");
        assert!(report.contains("FAIL"), "{report}");
    }

    #[test]
    fn tiny_baselines_are_skipped_not_failed() {
        // 1 ms baseline ballooning 100x is still noise, not signal.
        let cmp = compare(&doc(0.001, 0.0005), &doc(0.1, 0.05), 0.25);
        assert_eq!(cmp.regressions(), 0);
        assert!(cmp.deltas.iter().all(|d| d.skipped));
    }

    #[test]
    fn comparison_json_carries_the_verdict() {
        let old = doc(2.0, 1.5);
        let new = doc(2.0, 2.1);
        let cmp = compare(&old, &new, 0.25);
        let out = comparison_json(&old, &new, &cmp, 0.25);
        assert_eq!(
            out.get("bench").and_then(JsonValue::as_str),
            Some("mem_micro")
        );
        assert_eq!(
            out.get("regressions").and_then(JsonValue::as_num),
            Some(1.0)
        );
        assert_eq!(out.get("pass"), Some(&JsonValue::Bool(false)));
        let deltas = out.get("deltas").and_then(JsonValue::as_arr).unwrap();
        let bad = deltas
            .iter()
            .find(|d| d.get("regressed") == Some(&JsonValue::Bool(true)))
            .unwrap();
        assert_eq!(
            bad.get("metric").and_then(JsonValue::as_str),
            Some("phase:simulate")
        );
        let change = bad.get("change").and_then(JsonValue::as_num).unwrap();
        assert!((change - 0.4).abs() < 1e-9, "{change}");
        // The document round-trips through the workspace parser.
        let reparsed = crate::json::parse(&out.to_pretty()).unwrap();
        assert_eq!(reparsed.get("pass"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn baseline_metrics_missing_from_new_warn_only() {
        let old = doc(2.0, 1.5);
        let mut new = doc(2.0, 1.5);
        new.metrics.retain(|(n, _)| !n.starts_with("phase:"));
        let cmp = compare(&old, &new, 0.25);
        assert_eq!(cmp.regressions(), 0);
        assert_eq!(cmp.missing_in_new, vec!["phase:simulate".to_string()]);
        assert!(render_report(&old, &new, &cmp, 0.25).contains("missing from new"));
    }
}
