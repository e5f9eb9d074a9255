#![warn(missing_docs)]

//! The FaaSMem mechanism — the paper's primary contribution.
//!
//! FaaSMem observes that a serverless container's memory splits into three
//! segments with distinct access patterns (runtime / init / execution) and
//! offloads each with a tailored policy:
//!
//! * **Pucket** ([`Puckets`]) — page buckets delimited by MGLRU *time
//!   barriers* inserted when the runtime finishes loading and when
//!   initialization completes (§4). Pages revisited after segregation move
//!   to a shared **hot page pool**.
//! * **Reactive offload** (§5.1) — once the first request completes, every
//!   Runtime-Pucket page still inactive is offloaded: runtime memory not
//!   touched by init or the first request is almost never touched again.
//! * **Window-based offload** (§5.2, [`WindowTracker`]) — the Init Pucket
//!   is lazily offloaded after an adaptive *request window*, detected when
//!   the descent gradient of remaining inactive init pages approaches
//!   zero.
//! * **Periodic rollback** (§5.3, [`RollbackCycle`]) — the hot page pool
//!   is periodically rolled back into the Puckets and re-observed for one
//!   request window; pages that stay untouched are offloaded. A minimum
//!   interval `t` bounds the overhead.
//! * **Semi-warm period** (§6, [`SemiWarm`]) — after a per-function
//!   pessimistic 99th-percentile of the container-reuse-interval CDF, even
//!   hot pages are *gradually* offloaded (percentile- or amount-based
//!   rate) under global bandwidth control, trading a bounded tail-latency
//!   hit for large keep-alive memory savings.
//!
//! [`FaasMemPolicy`] composes all of the above into a
//! [`MemoryPolicy`](faasmem_faas::MemoryPolicy) for the platform in
//! `faasmem-faas`. [`FaasMemConfig`] holds what the evaluation varies:
//! the ablation switches (Fig 13), the request window, the rollback
//! interval `t`, and the semi-warm percentile, rate and extensions.
//! [`FaasMemPolicy::with_config`] validates it.
//!
//! # Examples
//!
//! ```
//! use faasmem_core::{FaasMemConfig, FaasMemPolicy};
//! use faasmem_faas::PlatformSim;
//! use faasmem_workload::{BenchmarkSpec, FunctionId, LoadClass, TraceSynthesizer};
//! use faasmem_sim::SimTime;
//!
//! let trace = TraceSynthesizer::new(7)
//!     .load_class(LoadClass::High)
//!     .duration(SimTime::from_mins(10))
//!     .synthesize_for(FunctionId(0));
//! let mut sim = PlatformSim::builder()
//!     .register_function(BenchmarkSpec::by_name("json").unwrap())
//!     .policy(FaasMemPolicy::new())
//!     .build();
//! let report = sim.run(&trace);
//! assert!(report.pool_stats.bytes_out > 0); // cold pages were offloaded
//!
//! // An ablation variant: the paper's parameters, Pucket disabled.
//! let no_pucket = FaasMemPolicy::with_config(FaasMemConfig {
//!     enable_pucket: false,
//!     ..Default::default()
//! })
//! .expect("a valid config");
//! assert_eq!(no_pucket.config().window_cap, 20);
//! ```

pub mod config;
pub mod policy;
pub mod pucket;
pub mod rollback;
pub mod semiwarm;
pub mod stats;
pub mod window;

pub use config::{FaasMemConfig, OffloadRate, SemiWarmConfig};
pub use policy::FaasMemPolicy;
pub use pucket::{PromoteSummary, PucketKind, Puckets};
pub use rollback::{RollbackCycle, RollbackPhase};
pub use semiwarm::SemiWarm;
pub use stats::{FaasMemStats, SemiWarmRecord, StatsHandle};
pub use window::WindowTracker;
