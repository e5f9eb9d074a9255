#![warn(missing_docs)]

//! Measurement utilities shared by the FaaSMem experiments.
//!
//! The paper reports three families of numbers: latency percentiles
//! (P50/P95/P99 end-to-end latency), distribution shapes (CDFs of reuse
//! intervals, requests per container, semi-warm share) and time-weighted
//! memory footprints ("average local memory usage"). This crate provides
//! exact, allocation-friendly implementations of all three:
//!
//! * [`LatencyRecorder`] — collects samples and answers percentile queries.
//! * [`Cdf`] — an empirical CDF with quantile and fraction-below queries.
//! * [`TimeSeries`] — a step function of a value over simulated time with
//!   time-weighted averaging, used for memory-usage timelines and stored
//!   as a delta-varint byte log ([`varint`]).
//!
//! # Examples
//!
//! ```
//! use faasmem_metrics::LatencyRecorder;
//! use faasmem_sim::SimDuration;
//!
//! let mut rec = LatencyRecorder::new();
//! for ms in 1..=100 {
//!     rec.record(SimDuration::from_millis(ms));
//! }
//! assert_eq!(rec.percentile(0.95).unwrap(), SimDuration::from_millis(95));
//! ```

pub mod agg;
pub mod blame;
pub mod cdf;
pub mod durability;
pub mod latency;
#[cfg(test)]
mod reference;
pub mod registry;
pub mod slo;
pub mod timeseries;
pub mod varint;
pub mod waste;

pub use blame::{
    BlameAccumulator, BlameBreakdown, BlameComponent, BlameReport, ComponentBlame, BLAME_COMPONENTS,
};
pub use cdf::{nearest_rank, Cdf};
pub use durability::DurabilityTracker;
pub use latency::{LatencyRecorder, LatencySummary};
pub use registry::MetricsRegistry;
pub use slo::SloTracker;
pub use timeseries::TimeSeries;
pub use waste::{
    byte_us_to_byte_secs, WasteAccumulator, WasteComponent, WasteLedger, WasteReport, WasteSide,
    WASTE_COMPONENTS,
};
