//! Sim-time telemetry for the FaaSMem reproduction.
//!
//! Two pieces, for what the end-of-run aggregates cannot show:
//!
//! 1. **What happens *inside* a run.** The end-of-run aggregates and
//!    the discrete event trace (`faasmem-trace`) bracket a run but do
//!    not show how resident pages, pool occupancy, or breaker state
//!    evolve over simulated time. The [`Sampler`] fixes that: a
//!    [`SampleSpec`] (interval in sim-time plus a [`SeriesMask`] of
//!    selected series groups) is registered with the platform, which
//!    snapshots named gauges from every layer at each interval
//!    boundary into a columnar [`TimeSeries`]. Sampling is *lazy* —
//!    rows are materialised when the event loop crosses a boundary,
//!    never via injected queue events — so enabling telemetry cannot
//!    perturb the simulation, and the output is a pure function of
//!    the cell (byte-identical for any `--jobs` value).
//!
//! 2. **What the process itself costs.** [`rss::peak_rss_kb`] reads the
//!    process high-water resident set from `/proc/self/status` on
//!    Linux; the harness records it per cell.

pub mod rss;
pub mod sampler;
pub mod series;

pub use sampler::{SampleSpec, Sampler, SeriesGroup, SeriesMask};
pub use series::TimeSeries;
