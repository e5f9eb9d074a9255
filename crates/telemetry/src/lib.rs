//! Sim-time telemetry for the FaaSMem reproduction.
//!
//! The end-of-run aggregates and the discrete event trace
//! (`faasmem-trace`) bracket a run but do not show how resident pages,
//! pool occupancy, or breaker state evolve over simulated time. The
//! [`Sampler`] fixes that: a [`SampleSpec`] (interval in sim-time plus a
//! [`SeriesMask`] of selected series groups) is registered with the
//! platform, which snapshots named gauges from every layer at each
//! interval boundary into a columnar [`TimeSeries`]. Sampling is *lazy*
//! — rows are materialised when the event loop crosses a boundary,
//! never via injected queue events — so enabling telemetry cannot
//! perturb the simulation, and the output is a pure function of the
//! cell (byte-identical for any `--jobs` value).

pub mod sampler;
pub mod series;

pub use sampler::{SampleSpec, Sampler, SeriesGroup, SeriesMask};
pub use series::TimeSeries;
