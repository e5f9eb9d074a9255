#![warn(missing_docs)]

//! Experiment harness for the FaaSMem reproduction.
//!
//! One runnable binary per table/figure of the paper's evaluation (see
//! `src/bin/`), plus this small shared library: policy construction by
//! name, standard experiment configurations, and plain-text table
//! rendering so every binary prints rows directly comparable to the
//! paper's figures.
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin fig12_main_eval
//! ```

pub mod anatomy;
pub mod dashboard;
pub mod harness;
pub mod json;
pub mod svg;

use faasmem_baselines::{DamonPolicy, NoOffloadPolicy, TmoPolicy};
use faasmem_core::{FaasMemPolicy, StatsHandle};
use faasmem_faas::MemoryPolicy;

/// The systems compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No memory offloading (the paper's "Baseline").
    Baseline,
    /// TMO-like feedback offloading.
    Tmo,
    /// DAMON-like sampling offloading.
    Damon,
    /// Full FaaSMem.
    FaasMem,
    /// FaaSMem with Pucket disabled (ablation).
    FaasMemNoPucket,
    /// FaaSMem with semi-warm disabled (ablation).
    FaasMemNoSemiWarm,
}

impl PolicyKind {
    /// The three systems of the head-to-head comparison (Fig 12, Tab 1).
    pub const HEAD_TO_HEAD: [PolicyKind; 3] =
        [PolicyKind::Baseline, PolicyKind::Tmo, PolicyKind::FaasMem];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "Baseline",
            PolicyKind::Tmo => "TMO",
            PolicyKind::Damon => "DAMON",
            PolicyKind::FaasMem => "FaaSMem",
            PolicyKind::FaasMemNoPucket => "FaaSMem w/o Pucket",
            PolicyKind::FaasMemNoSemiWarm => "FaaSMem w/o Semi-warm",
        }
    }

    /// A fresh policy of this kind, with FaaSMem's mechanism stats
    /// handle for the FaaSMem variants (`None` for the baselines).
    pub fn build(self) -> (Box<dyn MemoryPolicy>, Option<StatsHandle>) {
        let faasmem = match self {
            PolicyKind::Baseline => return (Box::new(NoOffloadPolicy), None),
            PolicyKind::Tmo => return (Box::new(TmoPolicy::default()), None),
            PolicyKind::Damon => return (Box::new(DamonPolicy::default()), None),
            PolicyKind::FaasMem => FaasMemPolicy::builder(),
            PolicyKind::FaasMemNoPucket => FaasMemPolicy::builder().without_pucket(),
            PolicyKind::FaasMemNoSemiWarm => FaasMemPolicy::builder().without_semiwarm(),
        }
        .build();
        let stats = faasmem.stats();
        (Box::new(faasmem), Some(stats))
    }
}

/// Renders a plain-text table with aligned columns.
///
/// # Examples
///
/// ```
/// use faasmem_bench::render_table;
///
/// let out = render_table(
///     &["bench", "p95"],
///     &[vec!["json".into(), "0.04s".into()]],
/// );
/// assert!(out.contains("bench"));
/// assert!(out.contains("json"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a signed percentage change, e.g. `-27.1%`.
pub fn pct_change(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (new - old) / old * 100.0)
}

/// Formats seconds compactly.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// Formats MiB compactly.
pub fn fmt_mib(mib: f64) -> String {
    if mib >= 1024.0 {
        format!("{:.2}G", mib / 1024.0)
    } else {
        format!("{mib:.0}M")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_faas::PlatformSim;
    use faasmem_sim::SimTime;
    use faasmem_workload::{BenchmarkSpec, FunctionId, Invocation, InvocationTrace};

    fn tiny_trace() -> InvocationTrace {
        InvocationTrace::from_invocations(
            vec![
                Invocation {
                    at: SimTime::from_secs(1),
                    function: FunctionId(0),
                },
                Invocation {
                    at: SimTime::from_secs(30),
                    function: FunctionId(0),
                },
            ],
            SimTime::from_mins(2),
        )
    }

    #[test]
    fn every_policy_kind_runs() {
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::Tmo,
            PolicyKind::Damon,
            PolicyKind::FaasMem,
            PolicyKind::FaasMemNoPucket,
            PolicyKind::FaasMemNoSemiWarm,
        ] {
            let (policy, stats) = kind.build();
            let mut sim = PlatformSim::builder()
                .register_function(BenchmarkSpec::by_name("json").unwrap())
                .policy(policy)
                .build();
            let report = sim.run(&tiny_trace());
            assert_eq!(report.requests_completed, 2, "{}", kind.name());
            assert_eq!(report.policy, kind.name());
            match kind {
                PolicyKind::FaasMem
                | PolicyKind::FaasMemNoPucket
                | PolicyKind::FaasMemNoSemiWarm => assert!(stats.is_some()),
                _ => assert!(stats.is_none()),
            }
        }
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct_change(73.0, 100.0), "-27.0%");
        assert_eq!(pct_change(1.0, 0.0), "n/a");
        assert_eq!(fmt_secs(0.14), "140ms");
        assert_eq!(fmt_secs(9.24), "9.24s");
        assert_eq!(fmt_mib(830.0), "830M");
        assert_eq!(fmt_mib(2703.0), "2.64G");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_panic() {
        let _ = render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
