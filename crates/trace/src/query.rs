//! Queries over reconstructed span forests: slowest-N, per-component
//! ranking, and critical-path rendering.
//!
//! This is the library behind `query spans`. Everything is a
//! pure function of the parsed [`SpanForest`], so queries over the same
//! trace file render identically no matter which harness run (serial
//! or `--jobs N`) produced it.

use crate::event::StallCause;
use crate::spans::{InvocationSpans, SpanForest};
use std::fmt::Write as _;

/// What `query spans` should select and how to render it.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// How many invocations to keep, slowest first.
    pub slowest: usize,
    /// Rank by this blame component's contribution instead of
    /// end-to-end latency; invocations where it is zero are dropped.
    pub component: Option<String>,
    /// Restrict the query to one harness cell.
    pub cell: Option<u64>,
    /// Restrict the query to one function id. Unlike `cell`, the raw
    /// string is kept so an unknown (or unparsable) value can error
    /// with the trace's actual function vocabulary.
    pub function: Option<String>,
    /// Also render each invocation's critical path (spans by
    /// descending contribution).
    pub critical_path: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            slowest: 10,
            component: None,
            cell: None,
            function: None,
            critical_path: false,
        }
    }
}

/// The distinct function ids present in `forest`, ascending.
pub fn known_functions(forest: &SpanForest) -> Vec<u64> {
    let mut ids: Vec<u64> = forest
        .cells
        .iter()
        .flat_map(|cell| cell.invocations.iter().filter_map(|inv| inv.function))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Every blame-component name a span can be charged to, in canonical
/// reporting order: the pre-exec segments, execution, then the stall
/// families in [`StallCause::ALL`] order.
pub fn known_components() -> Vec<&'static str> {
    let mut names = vec!["queue", "cold_start", "exec"];
    names.extend(StallCause::ALL.iter().map(|c| c.name()));
    names
}

/// One selected invocation plus the key it was ranked by.
#[derive(Debug, Clone)]
pub struct QueryHit<'a> {
    /// The harness cell the invocation ran in.
    pub cell: u64,
    /// The cell's `trace/bench/config/policy` label (may be empty).
    pub label: &'a str,
    /// The invocation's span tree.
    pub invocation: &'a InvocationSpans,
    /// Ranking key in microseconds: end-to-end latency, or the chosen
    /// component's contribution under `--component`.
    pub key_us: u64,
}

/// Selects the slowest invocations of `forest` under `opts`.
///
/// Returns an error for an unknown component name (listing the valid
/// ones). Ties rank in `(cell, completion)` order, so the selection is
/// deterministic.
pub fn select<'a>(
    forest: &'a SpanForest,
    opts: &QueryOptions,
) -> Result<Vec<QueryHit<'a>>, String> {
    if let Some(name) = &opts.component {
        if !known_components().contains(&name.as_str()) {
            return Err(format!(
                "unknown component {name:?} (expected one of: {})",
                known_components().join(", ")
            ));
        }
    }
    let function = match &opts.function {
        None => None,
        Some(raw) => {
            let known = known_functions(forest);
            match raw.parse::<u64>().ok().filter(|f| known.contains(f)) {
                Some(f) => Some(f),
                None => {
                    let vocab: Vec<String> = known.iter().map(|f| f.to_string()).collect();
                    return Err(format!(
                        "unknown function {raw:?} (trace contains functions: {})",
                        vocab.join(", ")
                    ));
                }
            }
        }
    };
    let mut hits: Vec<QueryHit<'a>> = Vec::new();
    for cell in &forest.cells {
        if opts.cell.is_some_and(|want| want != cell.cell) {
            continue;
        }
        for invocation in &cell.invocations {
            if function.is_some() && invocation.function != function {
                continue;
            }
            let key_us = match &opts.component {
                None => invocation.latency_us,
                Some(name) => invocation
                    .blame()
                    .into_iter()
                    .find(|(component, _)| component == name)
                    .map_or(0, |(_, us)| us),
            };
            if opts.component.is_some() && key_us == 0 {
                continue;
            }
            hits.push(QueryHit {
                cell: cell.cell,
                label: &cell.label,
                invocation,
                key_us,
            });
        }
    }
    // Stable sort: ties keep (cell, completion) order.
    hits.sort_by_key(|h| std::cmp::Reverse(h.key_us));
    hits.truncate(opts.slowest);
    Ok(hits)
}

fn fmt_ms(us: u64) -> String {
    format!("{:.1}ms", us as f64 / 1000.0)
}

/// Renders a query result as the text the bin prints.
pub fn render(hits: &[QueryHit<'_>], opts: &QueryOptions) -> String {
    let mut out = String::new();
    let metric = opts.component.as_deref().unwrap_or("latency");
    let _ = writeln!(out, "slowest {} invocations by {metric}:", hits.len());
    for (rank, hit) in hits.iter().enumerate() {
        let inv = hit.invocation;
        let blame: Vec<String> = inv
            .blame()
            .iter()
            .map(|(component, us)| format!("{component}={}", fmt_ms(*us)))
            .collect();
        let _ = writeln!(
            out,
            "#{:<3} cell {} req {} [{}] {} arrived {} latency {} ({metric} {}) {}",
            rank + 1,
            hit.cell,
            inv.request,
            if hit.label.is_empty() { "-" } else { hit.label },
            if inv.cold { "cold" } else { "warm" },
            fmt_ms(inv.arrived_us),
            fmt_ms(inv.latency_us),
            fmt_ms(hit.key_us),
            blame.join(" "),
        );
        if opts.critical_path {
            for span in inv.critical_path() {
                let _ = writeln!(
                    out,
                    "      {:<16} {:>10} [{}..{})us",
                    span.kind.name(),
                    fmt_ms(span.duration_us()),
                    span.start_us,
                    span.end_us,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{CellSpans, Span, SpanKind};

    fn inv(request: u64, latency: u64, stall: u64) -> InvocationSpans {
        let exec_end = latency;
        InvocationSpans {
            request,
            container: Some(request),
            function: Some(0),
            cold: false,
            arrived_us: 0,
            end_us: exec_end,
            latency_us: latency,
            faults: 0,
            children: vec![
                Span {
                    kind: SpanKind::Stall(StallCause::RecallStall),
                    start_us: 0,
                    end_us: stall,
                },
                Span {
                    kind: SpanKind::Exec,
                    start_us: stall,
                    end_us: exec_end,
                },
            ],
        }
    }

    fn forest() -> SpanForest {
        SpanForest {
            cells: vec![
                CellSpans {
                    cell: 0,
                    label: "t/b/c/p".into(),
                    invocations: vec![inv(0, 500, 0), inv(1, 2_000, 900)],
                },
                CellSpans {
                    cell: 1,
                    label: String::new(),
                    invocations: vec![inv(0, 1_000, 100)],
                },
            ],
        }
    }

    #[test]
    fn ranks_by_latency_by_default() {
        let forest = forest();
        let hits = select(&forest, &QueryOptions::default()).unwrap();
        let keys: Vec<(u64, u64, u64)> = hits
            .iter()
            .map(|h| (h.cell, h.invocation.request, h.key_us))
            .collect();
        assert_eq!(keys, vec![(0, 1, 2_000), (1, 0, 1_000), (0, 0, 500)]);
    }

    #[test]
    fn slowest_truncates_and_cell_filters() {
        let forest = forest();
        let opts = QueryOptions {
            slowest: 1,
            ..QueryOptions::default()
        };
        let hits = select(&forest, &opts).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].invocation.latency_us, 2_000);

        let opts = QueryOptions {
            cell: Some(1),
            ..QueryOptions::default()
        };
        let hits = select(&forest, &opts).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].cell, 1);
    }

    #[test]
    fn component_ranking_drops_zero_contributors() {
        let forest = forest();
        let opts = QueryOptions {
            component: Some("recall_stall".into()),
            ..QueryOptions::default()
        };
        let hits = select(&forest, &opts).unwrap();
        let keys: Vec<u64> = hits.iter().map(|h| h.key_us).collect();
        assert_eq!(keys, vec![900, 100]);
    }

    #[test]
    fn unknown_component_is_an_error() {
        let forest = forest();
        let opts = QueryOptions {
            component: Some("gremlins".into()),
            ..QueryOptions::default()
        };
        let err = select(&forest, &opts).unwrap_err();
        assert!(err.contains("gremlins"), "{err}");
        assert!(err.contains("recall_stall"), "{err}");
    }

    #[test]
    fn render_includes_blame_and_critical_path() {
        let forest = forest();
        let opts = QueryOptions {
            critical_path: true,
            ..QueryOptions::default()
        };
        let hits = select(&forest, &opts).unwrap();
        let text = render(&hits, &opts);
        assert!(text.contains("slowest 3 invocations by latency:"));
        assert!(text.contains("recall_stall=0.9ms"));
        assert!(text.contains("exec"));
        // Critical path lists the larger span first.
        let exec_at = text.find("      exec").unwrap();
        let stall_at = text.find("      recall_stall").unwrap();
        assert!(exec_at < stall_at);
    }

    #[test]
    fn function_filter_keeps_only_that_function() {
        let mut forest = forest();
        forest.cells[0].invocations[1].function = Some(7);
        let opts = QueryOptions {
            function: Some("7".into()),
            ..QueryOptions::default()
        };
        let hits = select(&forest, &opts).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].invocation.function, Some(7));
        assert_eq!(known_functions(&forest), vec![0, 7]);
    }

    #[test]
    fn unknown_function_errors_with_vocabulary() {
        let mut forest = forest();
        forest.cells[0].invocations[1].function = Some(7);
        for raw in ["9", "resnet"] {
            let opts = QueryOptions {
                function: Some(raw.into()),
                ..QueryOptions::default()
            };
            let err = select(&forest, &opts).unwrap_err();
            assert!(err.contains(raw), "{err}");
            assert!(err.contains("0, 7"), "{err}");
        }
    }

    #[test]
    fn known_components_match_span_vocabulary() {
        let names = known_components();
        assert!(names.contains(&"queue"));
        assert!(names.contains(&"cold_start"));
        assert!(names.contains(&"forced_rebuild"));
        assert_eq!(names.len(), 3 + StallCause::ALL.len());
    }
}
