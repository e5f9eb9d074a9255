#![warn(missing_docs)]

//! Workload models for the FaaSMem reproduction.
//!
//! Two ingredients drive every experiment in the paper:
//!
//! 1. **What a function does to memory when it runs.** The paper uses
//!    eight FunctionBench micro-benchmarks plus three applications
//!    (BERT inference, graph BFS, an HTML web service). Each is modelled
//!    here as a [`BenchmarkSpec`]: segment footprints, per-request access
//!    patterns and timing constants calibrated to the paper's Figures 4,
//!    6, 8 and 9 and Table 1.
//! 2. **When functions are invoked.** The paper replays the Azure
//!    Functions 2021 trace (424 functions, ~2M invocations). The trace is
//!    not redistributable here, so [`TraceSynthesizer`] regenerates its
//!    statistical shape: per-function load classes (high/middle/low),
//!    Poisson and bursty (Markov-modulated) arrival processes and
//!    heavy-tailed idle gaps.
//!
//! # Examples
//!
//! ```
//! use faasmem_workload::{BenchmarkSpec, FunctionId, LoadClass, TraceSynthesizer};
//! use faasmem_sim::SimTime;
//!
//! let bert = BenchmarkSpec::by_name("bert").unwrap();
//! assert!(bert.init_mib > bert.runtime_mib); // apps are init-heavy
//!
//! let trace = TraceSynthesizer::new(42)
//!     .load_class(LoadClass::High)
//!     .duration(SimTime::from_mins(60))
//!     .synthesize_for(FunctionId(0));
//! assert!(trace.len() > 100); // a high-load hour has many invocations
//! ```

pub mod access;
pub mod azure;
pub mod azure_csv;
pub mod benchmark;
pub mod error;
#[cfg(test)]
mod reference;
pub mod trace;
pub mod trace_io;

pub use access::{AccessPlanner, AccessSet, InitAccess, RequestAccess};
pub use azure::{ArrivalModel, LoadClass, TraceSynthesizer};
pub use azure_csv::{AzureImport, LossyAzureImport, ParseAzureError};
pub use benchmark::{BenchmarkSpec, RuntimeKind, RuntimeSpec, ServerlessPlatform};
pub use error::TraceError;
pub use trace::{FunctionId, Invocation, InvocationTrace, TraceStats};
pub use trace_io::{LossyTrace, ParseTraceError};
