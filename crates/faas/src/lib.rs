#![warn(missing_docs)]

//! A discrete-event serverless platform for the FaaSMem reproduction.
//!
//! This crate plays the role OpenWhisk plays in the paper's testbed
//! (§8.1): it registers functions, routes invocations to warm containers
//! or cold-starts new ones, runs the keep-alive policy (10-minute timeout
//! by default), and charges every request its end-to-end latency —
//! including the remote-memory fault penalties that the offloading policy
//! under test causes.
//!
//! The memory-management side is fully pluggable through the
//! [`MemoryPolicy`] trait: FaaSMem (in `faasmem-core`) and the TMO /
//! DAMON / no-offload baselines (in `faasmem-baselines`) all implement it,
//! so every comparison in the evaluation runs on an identical platform.
//!
//! # Architecture
//!
//! ```text
//!   InvocationTrace ──▶ PlatformSim (event loop)
//!                           │  route: warm container? else cold start
//!                           ▼
//!                      Container (PageTable per container)
//!                           │  lifecycle hooks
//!                           ▼
//!                    dyn MemoryPolicy  ──offload/fetch──▶  RemotePool
//! ```
//!
//! # Examples
//!
//! ```
//! use faasmem_faas::{PlatformSim, NullPolicy};
//! use faasmem_workload::{BenchmarkSpec, FunctionId, TraceSynthesizer, LoadClass};
//! use faasmem_sim::SimTime;
//!
//! let spec = BenchmarkSpec::by_name("json").unwrap();
//! let trace = TraceSynthesizer::new(1)
//!     .load_class(LoadClass::High)
//!     .duration(SimTime::from_mins(5))
//!     .synthesize_for(FunctionId(0));
//! let mut sim = PlatformSim::builder()
//!     .register_function(spec)
//!     .policy(NullPolicy::default())
//!     .build();
//! let report = sim.run(&trace);
//! assert!(report.requests_completed > 0);
//! assert_eq!(report.pool_stats.bytes_out, 0); // NullPolicy never offloads
//! ```

pub mod cluster;
pub mod container;
pub mod density;
pub mod keepalive;
pub mod platform;
pub mod policy;
pub mod rack;
pub mod report;
mod residency;

pub use cluster::{ClusterReport, ClusterSim, ClusterSpec, NodeReport};
pub use container::{touch_request, Container, ContainerId, ContainerStage};
pub use density::{estimate_density, DensityEstimate};
pub use keepalive::AdaptiveKeepAlive;
pub use platform::{FaultConfig, PlatformBuilder, PlatformConfig, PlatformSim};
pub use policy::{MemoryPolicy, NullPolicy, PolicyCtx};
pub use rack::{NodeProfile, RackPlan, RackReport};
pub use report::{
    ContainerRecord, DurabilityReport, FaultReport, FunctionSummary, FunctionWaste,
    MemoryAnatomyReport, RequestLog, RequestRecord, RunReport, RunSummary,
};

// Re-export so downstream crates can name functions without depending on
// the workload crate directly.
pub use faasmem_workload::FunctionId;

// Re-export the blame vocabulary alongside the report types that carry
// it, so harness code can consume `RunReport::blame` without a direct
// metrics dependency.
pub use faasmem_metrics::{BlameComponent, BlameReport, ComponentBlame, BLAME_COMPONENTS};

// Same for the waste vocabulary carried by `RunReport::memory_anatomy`.
pub use faasmem_mem::{FlowMatrix, FlowRow, PageFlows, FLOW_STATES};
pub use faasmem_metrics::{
    byte_us_to_byte_secs, WasteComponent, WasteLedger, WasteReport, WasteSide, WASTE_COMPONENTS,
};
