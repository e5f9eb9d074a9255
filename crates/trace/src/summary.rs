//! Per-container timeline reconstruction from a JSONL trace.
//!
//! This is the analysis half of `query containers`: it folds the
//! events [`read_jsonl`](crate::read_jsonl) decoded, grouped by
//! `(cell, container)`, into [`ContainerTimeline`]s — when the
//! container launched, how long init took, how many executions and
//! faults it served, what it offloaded and recalled — plus per-cell
//! pool totals.

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One container's reconstructed lifecycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContainerTimeline {
    /// Container id.
    pub container: u64,
    /// Function index served, when a launch event was seen.
    pub function: Option<u64>,
    /// Launch timestamp (simulated microseconds).
    pub launched_us: Option<u64>,
    /// Runtime-loaded timestamp.
    pub runtime_loaded_us: Option<u64>,
    /// Init-done timestamp.
    pub init_done_us: Option<u64>,
    /// Retire timestamp.
    pub retired_us: Option<u64>,
    /// Executions observed.
    pub execs: u64,
    /// Executions that were cold starts.
    pub cold_execs: u64,
    /// Demand faults summed over executions.
    pub faults: u64,
    /// Pages offloaded from this container.
    pub offload_pages: u64,
    /// Pages demand-paged back in.
    pub demand_pages: u64,
    /// Pages prefetched back in.
    pub prefetch_pages: u64,
    /// Whether an injected crash killed it.
    pub crashed: bool,
    /// Request ids served, in execution order (feeds the
    /// `--invocation` filter).
    pub requests: Vec<u64>,
}

/// Totals for one grid cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellSummary {
    /// Cell index.
    pub cell: u64,
    /// `trace/bench/config/policy` label from the cell-start event.
    pub label: String,
    /// Events observed for this cell.
    pub events: u64,
    /// Requests completed (from the cell-end event).
    pub requests: u64,
    /// Simulated seconds covered (from the cell-end event).
    pub sim_secs: f64,
    /// Bytes paged out to the pool.
    pub pool_bytes_out: u64,
    /// Bytes paged in from the pool.
    pub pool_bytes_in: u64,
    /// Recall retries observed.
    pub recall_retries: u64,
    /// Recalls that exhausted their budget.
    pub recalls_gave_up: u64,
    /// Breaker open transitions.
    pub breaker_opens: u64,
    /// Container timelines, ordered by container id.
    pub containers: Vec<ContainerTimeline>,
}

/// A parsed trace: one summary per cell, in cell order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-cell summaries.
    pub cells: Vec<CellSummary>,
}

impl TraceSummary {
    /// Folds a decoded trace, as [`read_jsonl`](crate::read_jsonl)
    /// groups it, into per-cell, per-container summaries.
    pub fn from_cells(cells: &BTreeMap<u64, Vec<TraceEvent>>) -> TraceSummary {
        TraceSummary {
            cells: cells
                .iter()
                .map(|(&cell, events)| summarize_cell(cell, events))
                .collect(),
        }
    }

    /// Narrows the summary to one container id: cells that never saw
    /// the container are dropped, and surviving cells keep only that
    /// container's timeline. Cell-level totals (events, pool bytes,
    /// retries...) are left untouched — they describe the whole cell
    /// and filtering them would misattribute shared traffic.
    pub fn filter_container(&mut self, container: u64) {
        self.cells.retain_mut(|cell| {
            cell.containers.retain(|tl| tl.container == container);
            !cell.containers.is_empty()
        });
    }

    /// Narrows the summary to the containers that served one request
    /// id (the request index within each cell). Mirrors
    /// [`TraceSummary::filter_container`]: cells that never executed
    /// the request are dropped, cell-level totals are untouched.
    pub fn filter_invocation(&mut self, request: u64) {
        self.cells.retain_mut(|cell| {
            cell.containers.retain(|tl| tl.requests.contains(&request));
            !cell.containers.is_empty()
        });
    }
}

/// Folds one cell's events, in stream order.
fn summarize_cell(cell: u64, events: &[TraceEvent]) -> CellSummary {
    let mut summary = CellSummary {
        cell,
        events: events.len() as u64,
        ..CellSummary::default()
    };
    let mut containers: BTreeMap<u64, ContainerTimeline> = BTreeMap::new();
    for event in events {
        let t = event.time.as_micros();
        let timeline = event.container.map(|c| {
            containers.entry(c).or_insert_with(|| ContainerTimeline {
                container: c,
                ..ContainerTimeline::default()
            })
        });
        match (&event.kind, timeline) {
            (
                EventKind::CellStart {
                    trace,
                    bench,
                    config,
                    policy,
                    ..
                },
                _,
            ) => summary.label = format!("{trace}/{bench}/{config}/{policy}"),
            (EventKind::CellEnd { requests, sim_secs }, _) => {
                summary.requests = *requests;
                summary.sim_secs = *sim_secs;
            }
            (EventKind::ContainerLaunch { function }, Some(tl)) => {
                tl.function = Some(u64::from(*function));
                tl.launched_us = Some(t);
            }
            (EventKind::RuntimeLoaded, Some(tl)) => tl.runtime_loaded_us = Some(t),
            (EventKind::InitDone, Some(tl)) => tl.init_done_us = Some(t),
            (EventKind::ExecStart { cold }, Some(tl)) => {
                tl.execs += 1;
                tl.cold_execs += u64::from(*cold);
                tl.requests.extend(event.request);
            }
            (EventKind::ExecEnd { faults, .. }, Some(tl)) => tl.faults += faults,
            (EventKind::ContainerRetire { .. }, Some(tl)) => tl.retired_us = Some(t),
            (EventKind::ContainerCrash, Some(tl)) => tl.crashed = true,
            (EventKind::MemOffload { pages }, Some(tl)) => tl.offload_pages += pages,
            (EventKind::MemPageIn { pages, demand }, Some(tl)) => {
                if *demand {
                    tl.demand_pages += pages;
                } else {
                    tl.prefetch_pages += pages;
                }
            }
            (EventKind::PoolPageOut { bytes, .. }, _) => summary.pool_bytes_out += bytes,
            (EventKind::PoolPageIn { bytes, .. }, _) => summary.pool_bytes_in += bytes,
            (EventKind::RecallRetry { .. }, _) => summary.recall_retries += 1,
            (EventKind::RecallGaveUp { .. }, _) => summary.recalls_gave_up += 1,
            (EventKind::BreakerOpen, _) => summary.breaker_opens += 1,
            _ => {}
        }
    }
    summary.containers = containers.into_values().collect();
    summary
}

fn fmt_opt_ms(us: Option<u64>) -> String {
    match us {
        Some(us) => format!("{:.1}", us as f64 / 1000.0),
        None => "-".to_string(),
    }
}

/// Renders the summary as the fixed-width text table
/// `query containers` prints.
pub fn render_text(summary: &TraceSummary) -> String {
    let mut out = String::new();
    for cell in &summary.cells {
        let _ = writeln!(
            out,
            "cell {} [{}]: {} events, {} requests, {:.1} sim-s",
            cell.cell, cell.label, cell.events, cell.requests, cell.sim_secs
        );
        let _ = writeln!(
            out,
            "  pool: {} B out, {} B in, {} retries, {} gave up, {} breaker opens",
            cell.pool_bytes_out,
            cell.pool_bytes_in,
            cell.recall_retries,
            cell.recalls_gave_up,
            cell.breaker_opens
        );
        if !cell.containers.is_empty() {
            let _ = writeln!(
                out,
                "  {:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8}",
                "ctr",
                "fn",
                "launch_ms",
                "loaded_ms",
                "init_ms",
                "retire_ms",
                "execs",
                "cold",
                "faults",
                "offload",
                "demand",
                "prefetch"
            );
        }
        for tl in &cell.containers {
            let _ = writeln!(
                out,
                "  {:>5} {:>4} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8}{}",
                tl.container,
                tl.function.map_or("-".to_string(), |f| f.to_string()),
                fmt_opt_ms(tl.launched_us),
                fmt_opt_ms(tl.runtime_loaded_us),
                fmt_opt_ms(tl.init_done_us),
                fmt_opt_ms(tl.retired_us),
                tl.execs,
                tl.cold_execs,
                tl.faults,
                tl.offload_pages,
                tl.demand_pages,
                tl.prefetch_pages,
                if tl.crashed { "  CRASHED" } else { "" }
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_jsonl;
    use faasmem_sim::SimTime;

    fn summarize_jsonl(input: &str) -> Result<TraceSummary, String> {
        read_jsonl(input).map(|cells| TraceSummary::from_cells(&cells))
    }

    fn line(us: u64, seq: u64, ctr: Option<u64>, req: Option<u64>, kind: EventKind) -> String {
        TraceEvent {
            time: SimTime::from_micros(us),
            seq,
            container: ctr,
            request: req,
            kind,
        }
        .jsonl_line(Some(0))
    }

    #[test]
    fn reconstructs_a_container_timeline() {
        let jsonl = [
            line(
                0,
                0,
                None,
                None,
                EventKind::CellStart {
                    trace: "azure".into(),
                    bench: "image".into(),
                    config: "default".into(),
                    policy: "faasmem".into(),
                    seed: 42,
                },
            ),
            line(
                0,
                1,
                Some(0),
                Some(0),
                EventKind::ContainerLaunch { function: 2 },
            ),
            line(1500, 2, Some(0), Some(0), EventKind::RuntimeLoaded),
            line(2500, 3, Some(0), Some(0), EventKind::InitDone),
            line(
                2500,
                4,
                Some(0),
                Some(0),
                EventKind::ExecStart { cold: true },
            ),
            line(2600, 5, Some(0), None, EventKind::MemOffload { pages: 8 }),
            line(
                2700,
                6,
                None,
                None,
                EventKind::PoolPageOut {
                    bytes: 32768,
                    stall_us: 12,
                    queued_us: 0,
                },
            ),
            line(
                3000,
                7,
                Some(0),
                Some(0),
                EventKind::ExecEnd {
                    latency_us: 3000,
                    faults: 2,
                },
            ),
            line(3000, 8, Some(0), None, EventKind::KeepAliveEnter),
            line(
                4000,
                9,
                Some(0),
                Some(1),
                EventKind::ExecStart { cold: false },
            ),
            line(
                4100,
                10,
                Some(0),
                None,
                EventKind::MemPageIn {
                    pages: 3,
                    demand: true,
                },
            ),
            line(
                4500,
                11,
                Some(0),
                Some(1),
                EventKind::ExecEnd {
                    latency_us: 500,
                    faults: 3,
                },
            ),
            line(
                9000,
                12,
                Some(0),
                None,
                EventKind::ContainerRetire { requests: 2 },
            ),
            line(
                9500,
                13,
                None,
                None,
                EventKind::CellEnd {
                    requests: 2,
                    sim_secs: 9.5,
                },
            ),
        ]
        .join("\n");

        let summary = summarize_jsonl(&jsonl).unwrap();
        assert_eq!(summary.cells.len(), 1);
        let cell = &summary.cells[0];
        assert_eq!(cell.label, "azure/image/default/faasmem");
        assert_eq!(cell.events, 14);
        assert_eq!(cell.requests, 2);
        assert_eq!(cell.pool_bytes_out, 32768);
        assert_eq!(cell.containers.len(), 1);
        let tl = &cell.containers[0];
        assert_eq!(tl.function, Some(2));
        assert_eq!(tl.launched_us, Some(0));
        assert_eq!(tl.runtime_loaded_us, Some(1500));
        assert_eq!(tl.init_done_us, Some(2500));
        assert_eq!(tl.retired_us, Some(9000));
        assert_eq!(tl.execs, 2);
        assert_eq!(tl.cold_execs, 1);
        assert_eq!(tl.faults, 5);
        assert_eq!(tl.offload_pages, 8);
        assert_eq!(tl.demand_pages, 3);
        assert_eq!(tl.prefetch_pages, 0);
        assert!(!tl.crashed);

        let text = render_text(&summary);
        assert!(text.contains("cell 0 [azure/image/default/faasmem]"));
        assert!(text.contains("32768 B out"));
    }

    #[test]
    fn filter_container_keeps_only_matching_timelines() {
        let jsonl = [
            line(
                0,
                0,
                Some(0),
                None,
                EventKind::ContainerLaunch { function: 0 },
            ),
            line(
                10,
                1,
                Some(1),
                None,
                EventKind::ContainerLaunch { function: 1 },
            ),
        ]
        .join("\n");
        let mut summary = summarize_jsonl(&jsonl).unwrap();
        assert_eq!(summary.cells[0].containers.len(), 2);

        let mut only_one = summary.clone();
        only_one.filter_container(1);
        assert_eq!(only_one.cells.len(), 1);
        assert_eq!(only_one.cells[0].containers.len(), 1);
        assert_eq!(only_one.cells[0].containers[0].container, 1);
        // Cell totals describe the whole cell and survive the filter.
        assert_eq!(only_one.cells[0].events, 2);

        // A container that never appears empties the summary.
        summary.filter_container(99);
        assert!(summary.cells.is_empty());
    }

    #[test]
    fn filter_invocation_keeps_the_serving_container() {
        let jsonl = [
            line(0, 0, Some(0), Some(0), EventKind::ExecStart { cold: true }),
            line(
                10,
                1,
                Some(1),
                Some(7),
                EventKind::ExecStart { cold: false },
            ),
        ]
        .join("\n");
        let summary = summarize_jsonl(&jsonl).unwrap();
        assert_eq!(summary.cells[0].containers.len(), 2);

        let mut only_seven = summary.clone();
        only_seven.filter_invocation(7);
        assert_eq!(only_seven.cells.len(), 1);
        assert_eq!(only_seven.cells[0].containers.len(), 1);
        assert_eq!(only_seven.cells[0].containers[0].container, 1);
        assert_eq!(only_seven.cells[0].containers[0].requests, vec![7]);
        // Cell totals describe the whole cell and survive the filter.
        assert_eq!(only_seven.cells[0].events, 2);

        // A request id that never ran empties the summary.
        let mut none = summary;
        none.filter_invocation(99);
        assert!(none.cells.is_empty());
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let valid = line(0, 0, None, None, EventKind::BreakerOpen);
        let err = summarize_jsonl(&format!("{valid}\nnot json")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // A line without a kind is not an event of cell 0.
        let err = summarize_jsonl("{\"t\":0}").unwrap_err();
        assert!(err.starts_with("line 1: missing key \"kind\""), "{err}");
        // A missing payload field is not a zero.
        let no_latency = valid
            .replace("pool", "container")
            .replace("breaker_open", "exec_end")
            .replace('}', ",\"faults\":0}");
        let err = summarize_jsonl(&format!("{valid}\n{no_latency}")).unwrap_err();
        assert!(
            err.starts_with("line 2: missing key \"latency_us\""),
            "{err}"
        );
    }

    #[test]
    fn empty_input_yields_empty_summary() {
        assert_eq!(summarize_jsonl("").unwrap(), TraceSummary::default());
        assert_eq!(summarize_jsonl("\n\n").unwrap(), TraceSummary::default());
    }
}
