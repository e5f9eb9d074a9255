#![warn(missing_docs)]

//! # FaaSMem — memory-pool offloading for serverless computing
//!
//! A comprehensive Rust reproduction of *"FaaSMem: Improving Memory
//! Efficiency of Serverless Computing with Memory Pool Architecture"*
//! (Xu et al., ASPLOS 2024) as a deterministic, page-level discrete-event
//! simulator.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event engine (time, events, RNG).
//! * [`mem`] — page tables, MGLRU-style generations, cgroup accounting.
//! * [`pool`] — the remote memory pool: RDMA link model, bandwidth governor.
//! * [`metrics`] — latency percentiles, CDFs, time-weighted memory series.
//! * [`workload`] — the 11 paper benchmarks and Azure-like trace synthesis.
//! * [`faas`] — the serverless platform: containers, keep-alive, routing.
//! * [`core`] — the FaaSMem mechanism itself: Puckets, segment-wise
//!   offloading policies, the hot page pool and the semi-warm period.
//! * [`baselines`] — NoOffload, TMO-like and DAMON-like baseline policies.
//! * [`trace`] — deterministic event tracing: typed sim-time events,
//!   pluggable sinks, JSONL and Chrome/Perfetto export.
//!
//! # Quickstart
//!
//! ```
//! use faasmem::prelude::*;
//!
//! // A one-minute run of the `json` micro-benchmark under FaaSMem.
//! let spec = BenchmarkSpec::catalog()
//!     .iter()
//!     .find(|s| s.name == "json")
//!     .cloned()
//!     .unwrap();
//! let trace = TraceSynthesizer::new(7)
//!     .load_class(LoadClass::High)
//!     .duration(SimTime::from_mins(1))
//!     .synthesize_for(FunctionId(0));
//! let mut sim = PlatformSim::builder()
//!     .register_function(spec)
//!     .policy(FaasMemPolicy::new())
//!     .build();
//! let report = sim.run(&trace);
//! assert!(report.requests_completed > 0);
//! ```

pub use faasmem_baselines as baselines;
pub use faasmem_core as core;
pub use faasmem_faas as faas;
pub use faasmem_mem as mem;
pub use faasmem_metrics as metrics;
pub use faasmem_pool as pool;
pub use faasmem_sim as sim;
pub use faasmem_trace as trace;
pub use faasmem_workload as workload;

/// One-stop imports for examples and downstream experiments.
pub mod prelude {
    pub use faasmem_baselines::{DamonPolicy, NoOffloadPolicy, TmoPolicy};
    pub use faasmem_core::{FaasMemConfig, FaasMemPolicy, SemiWarmConfig};
    pub use faasmem_faas::{
        AdaptiveKeepAlive, FunctionId, FunctionSummary, MemoryPolicy, PlatformConfig, PlatformSim,
        RunReport,
    };
    pub use faasmem_mem::{MemStats, PageTable, Segment, PAGE_SIZE_4K};
    pub use faasmem_metrics::{Cdf, LatencyRecorder, LatencySummary, TimeSeries};
    pub use faasmem_pool::{PoolConfig, RemotePool};
    pub use faasmem_sim::{SimDuration, SimRng, SimTime};
    pub use faasmem_trace::{EventKind, LayerMask, TraceEvent, TraceLayer, Tracer};
    pub use faasmem_workload::{BenchmarkSpec, InvocationTrace, LoadClass, TraceSynthesizer};
}
