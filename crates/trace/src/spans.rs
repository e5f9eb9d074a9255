//! Per-invocation causal span trees reconstructed from the event
//! stream.
//!
//! The platform emits point markers (`request_arrive`,
//! `container_launch`, `runtime_loaded`, `init_done`, `exec_start`,
//! `exec_stall`, `exec_end`); this module folds them back into the
//! span tree of each invocation:
//!
//! ```text
//! invocation ──┬─ queue   [arrive,       launch)        (scheduler wait)
//!              ├─ launch  [launch,       runtime_loaded)  cold only
//!              ├─ init    [runtime_loaded, exec_start)    cold only
//!              ├─ stall*  [exec_start,   …)             one per cause
//!              └─ exec    [last stall end, exec_end)
//! ```
//!
//! Stalls serialize at the head of the execution window (that is how
//! the simulator charges them), so consecutive `exec_stall` events of
//! one request tile the window front-to-back and the pure-exec span is
//! the remainder. Child spans therefore tile `[arrive, exec_end)`
//! exactly, which is the span-level face of the blame conservation
//! invariant: child durations sum to the reported end-to-end latency.
//!
//! **Determinism.** Reconstruction is a pure function of the event
//! stream's `(sim_time, seq)` total order: the builder sorts events by
//! that key before folding, so any arrival permutation of the same
//! events yields the identical span forest (property-tested below).

use crate::event::{EventKind, StallCause, TraceEvent};
use std::collections::BTreeMap;

/// What a child span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Arrival → provisioning start (zero on the single-node platform).
    Queue,
    /// Container runtime launch (cold starts only).
    Launch,
    /// Runtime/language initialization (cold starts only).
    Init,
    /// One stall component at the head of the execution window.
    Stall(StallCause),
    /// Pure execution (service time minus stalls).
    Exec,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Launch => "launch",
            SpanKind::Init => "init",
            SpanKind::Stall(cause) => cause.name(),
            SpanKind::Exec => "exec",
        }
    }

    /// The blame component this span is charged to (`launch` and
    /// `init` both fold into `cold_start`).
    pub fn component(self) -> &'static str {
        match self {
            SpanKind::Queue => "queue",
            SpanKind::Launch | SpanKind::Init => "cold_start",
            SpanKind::Stall(cause) => cause.name(),
            SpanKind::Exec => "exec",
        }
    }
}

/// One child span of an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the time went to.
    pub kind: SpanKind,
    /// Start, simulated microseconds.
    pub start_us: u64,
    /// Exclusive end, simulated microseconds.
    pub end_us: u64,
}

impl Span {
    /// The span's length in simulated microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One invocation's reconstructed span tree (root + ordered children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationSpans {
    /// Request index within the cell.
    pub request: u64,
    /// Container that served the request, when known.
    pub container: Option<u64>,
    /// Function index, when a `request_arrive` event was seen.
    pub function: Option<u64>,
    /// Whether the execution was the container's cold start.
    pub cold: bool,
    /// Arrival timestamp (root span start).
    pub arrived_us: u64,
    /// Completion timestamp (root span end).
    pub end_us: u64,
    /// End-to-end latency reported by `exec_end`.
    pub latency_us: u64,
    /// Demand faults reported by `exec_end`.
    pub faults: u64,
    /// Child spans in timeline order, tiling `[arrived_us, end_us)`.
    pub children: Vec<Span>,
}

impl InvocationSpans {
    /// Per-blame-component microsecond totals over the children, in
    /// first-appearance order.
    pub fn blame(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for span in &self.children {
            let component = span.kind.component();
            match totals.iter_mut().find(|(name, _)| *name == component) {
                Some((_, total)) => *total += span.duration_us(),
                None => totals.push((component, span.duration_us())),
            }
        }
        totals
    }

    /// The critical path: children ordered by descending contribution
    /// (the chain is fully serial, so "critical" means "largest").
    /// Ties keep timeline order.
    pub fn critical_path(&self) -> Vec<Span> {
        let mut path = self.children.clone();
        path.sort_by_key(|s| std::cmp::Reverse(s.duration_us()));
        path
    }

    /// Whether the children exactly tile the invocation: contiguous,
    /// starting at arrival, ending at completion, durations summing to
    /// the reported latency. The platform guarantees this; streams
    /// from other writers might not.
    pub fn conserves(&self) -> bool {
        let mut cursor = self.arrived_us;
        for span in &self.children {
            if span.start_us != cursor || span.end_us < span.start_us {
                return false;
            }
            cursor = span.end_us;
        }
        cursor == self.end_us && self.end_us.saturating_sub(self.arrived_us) == self.latency_us
    }
}

/// The span forest of one grid cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellSpans {
    /// Cell index.
    pub cell: u64,
    /// `trace/bench/config/policy` label from the cell-start event
    /// (empty for single-cell streams without one).
    pub label: String,
    /// Completed invocations in completion (`exec_end`) order.
    pub invocations: Vec<InvocationSpans>,
}

/// A parsed trace: one span forest per cell, in cell order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanForest {
    /// Per-cell span forests.
    pub cells: Vec<CellSpans>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CtrState {
    launched_us: Option<u64>,
    runtime_loaded_us: Option<u64>,
}

#[derive(Debug, Clone)]
struct Pending {
    arrived_us: u64,
    function: Option<u64>,
    exec_start: Option<(u64, Option<u64>, bool)>,
    stalls: Vec<(StallCause, u64)>,
}

/// Folds one cell's events (any order) into its label and span
/// forest. Sorting by `(t, seq)` first is what makes the result a pure
/// function of the stream's total order rather than arrival order.
fn fold(events: &[TraceEvent]) -> (String, Vec<InvocationSpans>) {
    let mut events: Vec<&TraceEvent> = events.iter().collect();
    events.sort_by_key(|e| e.key());
    let mut label = String::new();
    let mut containers: BTreeMap<u64, CtrState> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Pending> = BTreeMap::new();
    let mut done: Vec<InvocationSpans> = Vec::new();

    for event in events {
        let t = event.time.as_micros();
        match &event.kind {
            EventKind::CellStart {
                trace,
                bench,
                config,
                policy,
                ..
            } => label = format!("{trace}/{bench}/{config}/{policy}"),
            EventKind::RequestArrive { function } => {
                if let Some(req) = event.request {
                    pending.insert(
                        req,
                        Pending {
                            arrived_us: t,
                            function: Some(u64::from(*function)),
                            exec_start: None,
                            stalls: Vec::new(),
                        },
                    );
                }
            }
            EventKind::ContainerLaunch { .. } => {
                if let Some(ctr) = event.container {
                    // A fresh launch resets the container's cold-start
                    // markers (ids are not recycled today, but the
                    // builder must not rely on that).
                    containers.insert(
                        ctr,
                        CtrState {
                            launched_us: Some(t),
                            runtime_loaded_us: None,
                        },
                    );
                }
            }
            EventKind::RuntimeLoaded => {
                if let Some(ctr) = event.container {
                    containers.entry(ctr).or_default().runtime_loaded_us = Some(t);
                }
            }
            EventKind::ExecStart { cold } => {
                if let Some(req) = event.request {
                    let entry = pending.entry(req).or_insert_with(|| Pending {
                        arrived_us: t,
                        function: None,
                        exec_start: None,
                        stalls: Vec::new(),
                    });
                    entry.exec_start = Some((t, event.container, *cold));
                }
            }
            EventKind::ExecStall { cause, us } => {
                if let Some(req) = event.request {
                    if let Some(entry) = pending.get_mut(&req) {
                        entry.stalls.push((*cause, *us));
                    }
                }
            }
            EventKind::ExecEnd { latency_us, faults } => {
                let Some(req) = event.request else { continue };
                let Some(entry) = pending.remove(&req) else {
                    continue;
                };
                let (exec_start_us, ctr, cold) =
                    entry
                        .exec_start
                        .unwrap_or((entry.arrived_us, event.container, false));
                let mut children = Vec::new();
                let mut cursor = entry.arrived_us;
                let mut push = |kind: SpanKind, cursor: &mut u64, end: u64| {
                    // Zero-length spans are elided; `exec` always
                    // appears so every invocation has a service span.
                    if end > *cursor || matches!(kind, SpanKind::Exec) {
                        children.push(Span {
                            kind,
                            start_us: *cursor,
                            end_us: end.max(*cursor),
                        });
                        *cursor = end.max(*cursor);
                    }
                };
                if cold {
                    let state = ctr
                        .and_then(|c| containers.get(&c).copied())
                        .unwrap_or_default();
                    let launch_begin = state.launched_us.unwrap_or(entry.arrived_us);
                    let loaded = state.runtime_loaded_us.unwrap_or(exec_start_us);
                    push(SpanKind::Queue, &mut cursor, launch_begin);
                    push(SpanKind::Launch, &mut cursor, loaded.min(exec_start_us));
                    push(SpanKind::Init, &mut cursor, exec_start_us);
                } else {
                    push(SpanKind::Queue, &mut cursor, exec_start_us);
                }
                for (cause, us) in &entry.stalls {
                    let end = cursor + us;
                    push(SpanKind::Stall(*cause), &mut cursor, end);
                }
                push(SpanKind::Exec, &mut cursor, t);
                done.push(InvocationSpans {
                    request: req,
                    container: ctr,
                    function: entry.function,
                    cold,
                    arrived_us: entry.arrived_us,
                    end_us: t,
                    latency_us: *latency_us,
                    faults: *faults,
                    children,
                });
            }
            _ => {}
        }
    }
    (label, done)
}

/// Reconstructs the span forest of one cell from its typed events,
/// in any order.
pub fn build_spans(events: &[TraceEvent]) -> Vec<InvocationSpans> {
    fold(events).1
}

impl SpanForest {
    /// Reconstructs every cell's span forest from a decoded trace, as
    /// [`read_jsonl`](crate::read_jsonl) groups it.
    pub fn from_cells(cells: &BTreeMap<u64, Vec<TraceEvent>>) -> SpanForest {
        let cells = cells.iter().map(|(&cell, events)| {
            let (label, invocations) = fold(events);
            CellSpans {
                cell,
                label,
                invocations,
            }
        });
        SpanForest {
            cells: cells.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_jsonl;
    use faasmem_sim::SimTime;

    fn spans_from_jsonl(input: &str) -> Result<SpanForest, String> {
        read_jsonl(input).map(|cells| SpanForest::from_cells(&cells))
    }

    fn ev(us: u64, seq: u64, ctr: Option<u64>, req: Option<u64>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_micros(us),
            seq,
            container: ctr,
            request: req,
            kind,
        }
    }

    /// A cold invocation with a recall stall: arrive 0, launch 0→700,
    /// init 700→1000, stall 1000→1250, exec 1250→2000.
    fn cold_stream() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                0,
                None,
                Some(4),
                EventKind::RequestArrive { function: 2 },
            ),
            ev(
                0,
                1,
                Some(9),
                Some(4),
                EventKind::ContainerLaunch { function: 2 },
            ),
            ev(700, 2, Some(9), None, EventKind::RuntimeLoaded),
            ev(1000, 3, Some(9), None, EventKind::InitDone),
            ev(
                1000,
                4,
                Some(9),
                Some(4),
                EventKind::ExecStart { cold: true },
            ),
            ev(
                1000,
                5,
                Some(9),
                Some(4),
                EventKind::ExecStall {
                    cause: StallCause::RecallStall,
                    us: 250,
                },
            ),
            ev(
                2000,
                6,
                Some(9),
                Some(4),
                EventKind::ExecEnd {
                    latency_us: 2000,
                    faults: 3,
                },
            ),
        ]
    }

    #[test]
    fn reconstructs_a_cold_invocation_tree() {
        let spans = build_spans(&cold_stream());
        assert_eq!(spans.len(), 1);
        let inv = &spans[0];
        assert_eq!(inv.request, 4);
        assert_eq!(inv.container, Some(9));
        assert_eq!(inv.function, Some(2));
        assert!(inv.cold);
        assert_eq!(inv.latency_us, 2000);
        assert!(inv.conserves(), "{inv:?}");
        let kinds: Vec<(&str, u64)> = inv
            .children
            .iter()
            .map(|s| (s.kind.name(), s.duration_us()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("launch", 700),
                ("init", 300),
                ("recall_stall", 250),
                ("exec", 750),
            ]
        );
        assert_eq!(
            inv.blame(),
            vec![("cold_start", 1000), ("recall_stall", 250), ("exec", 750)]
        );
        assert_eq!(inv.critical_path()[0].kind, SpanKind::Exec);
    }

    #[test]
    fn warm_invocation_is_exec_only() {
        let events = vec![
            ev(
                500,
                0,
                None,
                Some(1),
                EventKind::RequestArrive { function: 0 },
            ),
            ev(
                500,
                1,
                Some(3),
                Some(1),
                EventKind::ExecStart { cold: false },
            ),
            ev(
                900,
                2,
                Some(3),
                Some(1),
                EventKind::ExecEnd {
                    latency_us: 400,
                    faults: 0,
                },
            ),
        ];
        let spans = build_spans(&events);
        assert_eq!(spans.len(), 1);
        let inv = &spans[0];
        assert!(!inv.cold);
        assert!(inv.conserves());
        assert_eq!(inv.children.len(), 1);
        assert_eq!(inv.children[0].kind, SpanKind::Exec);
        assert_eq!(inv.children[0].duration_us(), 400);
    }

    #[test]
    fn incomplete_invocations_are_dropped() {
        let mut events = cold_stream();
        events.pop(); // drop the ExecEnd
        assert!(build_spans(&events).is_empty());
    }

    #[test]
    fn jsonl_roundtrip_matches_typed_path() {
        let events = cold_stream();
        let jsonl: String = events
            .iter()
            .map(|e| e.jsonl_line(Some(7)))
            .collect::<Vec<_>>()
            .join("\n");
        let forest = spans_from_jsonl(&jsonl).unwrap();
        assert_eq!(forest.cells.len(), 1);
        assert_eq!(forest.cells[0].cell, 7);
        assert_eq!(forest.cells[0].invocations, build_spans(&events));
    }

    #[test]
    fn malformed_jsonl_is_an_error() {
        assert!(spans_from_jsonl("not json").is_err());
        let bad_cause = "{\"t\":0,\"seq\":0,\"kind\":\"exec_stall\",\"req\":1,\
                         \"cause\":\"gremlins\",\"us\":5}";
        assert!(spans_from_jsonl(bad_cause)
            .unwrap_err()
            .contains("gremlins"));
    }

    proptest::proptest! {
        // Span reconstruction is a function of the `(sim_time, seq)`
        // total order: shuffling the arrival order of the same events
        // yields the identical span forest.
        #[test]
        fn prop_permutation_of_arrival_is_invariant(
            swaps in proptest::collection::vec((0usize..64, 0usize..64), 0..48),
            lens in proptest::collection::vec((1u64..2_000, 0u64..1_500, 0u64..800), 1..8)
        ) {
            // Build a few invocations back to back, one per container.
            let mut events = Vec::new();
            let mut seq = 0u64;
            let mut t = 0u64;
            for (i, &(exec, cold_us, stall)) in lens.iter().enumerate() {
                let req = Some(i as u64);
                let ctr = Some(i as u64);
                let mut push = |t: u64, ctr, req, kind| {
                    events.push(ev(t, seq, ctr, req, kind));
                    seq += 1;
                };
                push(t, None, req, EventKind::RequestArrive { function: 0 });
                let cold = cold_us > 0;
                if cold {
                    push(t, ctr, req, EventKind::ContainerLaunch { function: 0 });
                    push(t + cold_us / 2, ctr, None, EventKind::RuntimeLoaded);
                    push(t + cold_us, ctr, None, EventKind::InitDone);
                }
                let exec_start = t + cold_us;
                push(exec_start, ctr, req, EventKind::ExecStart { cold });
                if stall > 0 {
                    push(
                        exec_start,
                        ctr,
                        req,
                        EventKind::ExecStall { cause: StallCause::RecallStall, us: stall },
                    );
                }
                let end = exec_start + stall + exec;
                push(
                    end,
                    ctr,
                    req,
                    EventKind::ExecEnd { latency_us: end - t, faults: 0 },
                );
                t = end + 10;
            }

            let reference = build_spans(&events);
            proptest::prop_assert_eq!(reference.len(), lens.len());
            for inv in &reference {
                proptest::prop_assert!(inv.conserves(), "{:?}", inv);
            }

            let mut shuffled = events.clone();
            for &(a, b) in &swaps {
                let n = shuffled.len();
                shuffled.swap(a % n, b % n);
            }
            proptest::prop_assert_eq!(build_spans(&shuffled), reference);
        }
    }
}
