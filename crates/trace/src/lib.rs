#![warn(missing_docs)]

//! Deterministic event tracing for the FaaSMem reproduction.
//!
//! The simulator's end-of-run aggregates say *what* happened; this
//! crate records *why* and *when*: a typed, sim-time-stamped event
//! stream covering container lifecycle, page-table activity, memory-
//! pool transfers and harness cell boundaries. The design constraints,
//! in order:
//!
//! 1. **Determinism.** Events are stamped `(sim_time, seq)` by a
//!    single per-cell [`Tracer`]; `seq` is strictly monotone, so the
//!    pair is a total order no matter how many subsystems interleave.
//!    Wall-clock never enters an event, and cells are traced
//!    independently, so a merged trace is byte-identical for any
//!    `--jobs` value.
//! 2. **Zero cost when off.** The default [`Tracer::disabled`] handle
//!    is a `None`; every emission site is one well-predicted branch
//!    and no allocation.
//! 3. **One sink trait.** The harness records into a [`BufferSink`];
//!    any other destination implements [`TraceSink`] and plugs in
//!    through [`Tracer::with_sink`].
//!
//! Export paths: compact JSONL via [`TraceEvent::jsonl_line`] and
//! Chrome trace-event / Perfetto via [`chrome::chrome_trace`]. The
//! JSONL schema has one reader, [`read_jsonl`], which decodes every
//! line with [`TraceEvent::from_json`] (the exact inverse of the
//! writer) and groups the typed events by cell. Writer and decoder
//! are generated from one `event_kinds!` table in the [`event`]
//! module, so a new kind is one table entry plus its value in the
//! tests' `every_kind` and its pinned JSONL line. Two folds consume
//! them: [`TraceSummary::from_cells`] rebuilds per-container
//! timelines, [`SpanForest::from_cells`] per-invocation span trees.
//! The [`json`] module is the workspace's one JSON writer/parser
//! (re-exported by `bench::json`), so result files, timing files and
//! traces share a single formatting rule.

pub mod chrome;
pub mod event;
pub mod json;
pub mod query;
pub mod spans;
pub mod summary;
pub mod tracer;

pub use chrome::{chrome_trace, ChromeGroup};
pub use event::{read_jsonl, EventKind, LayerMask, StallCause, TraceEvent, TraceLayer};
pub use json::JsonValue;
pub use query::{known_functions, QueryHit, QueryOptions};
pub use spans::{build_spans, CellSpans, InvocationSpans, Span, SpanForest};
pub use summary::{CellSummary, ContainerTimeline, TraceSummary};
pub use tracer::{BufferSink, TraceSink, Tracer};
