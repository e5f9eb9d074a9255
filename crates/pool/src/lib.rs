#![warn(missing_docs)]

//! Remote memory pool model for the FaaSMem reproduction.
//!
//! The paper's testbed offloads pages over Fastswap: a modified Linux swap
//! path that pages out to a remote memory node across 56 Gbps InfiniBand
//! (§7, §8.1). FaaSMem's policies interact with that substrate through
//! exactly three observable behaviours, all reproduced here:
//!
//! 1. **Page-out cost** — writing a page to the pool occupies link
//!    bandwidth ([`RdmaLink`]) and completes after a small base latency.
//! 2. **Page-in (fault) penalty** — touching a remote page stalls the
//!    request for a round-trip plus transfer plus any queueing when the
//!    link is busy.
//! 3. **Bandwidth saturation** — when aggregate traffic approaches link
//!    capacity, FaaSMem uniformly slows every container's semi-warm
//!    offload rate (§6.2); [`BandwidthGovernor`] implements that control.
//!
//! [`RemotePool`] composes a capacity-limited remote node with one
//! bidirectional link and cumulative traffic accounting.
//!
//! # Examples
//!
//! ```
//! use faasmem_pool::{PoolConfig, RemotePool};
//! use faasmem_sim::SimTime;
//!
//! let mut pool = RemotePool::new(PoolConfig::infiniband_56g());
//! let cost = pool.page_out(SimTime::ZERO, 256, 4096).unwrap(); // 1 MiB out
//! assert!(cost.as_micros() > 0);
//! assert_eq!(pool.used_bytes(), 256 * 4096);
//! ```

pub mod degraded;
pub mod fabric;
pub mod governor;
pub mod link;
pub mod pool;
pub mod retry;

pub use degraded::DegradedLink;
pub use fabric::{FabricConfig, FabricOccupancy, NodeDownOutcome, PoolFabric, RedundancyPolicy};
pub use governor::BandwidthGovernor;
pub use link::RdmaLink;
pub use pool::{PoolConfig, PoolError, PoolStats, RemotePool};
pub use retry::{CircuitBreaker, RecallOutcome, RemoteFaultPolicy};
