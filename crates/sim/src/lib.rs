#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for the FaaSMem reproduction.
//!
//! The FaaSMem paper evaluates a kernel mechanism on a two-node InfiniBand
//! cluster. This crate provides the substrate for reproducing those
//! experiments in software: a microsecond-resolution simulated clock
//! ([`SimTime`]), a deterministic binary-heap event queue ([`EventQueue`])
//! with stable FIFO tie-breaking, and a seedable random-number layer
//! ([`SimRng`]) so every experiment regenerates byte-identically.
//!
//! # Examples
//!
//! ```
//! use faasmem_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(2), "second");
//! queue.push(SimTime::from_secs(1), "first");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1));
//! assert_eq!(ev, "first");
//! ```

pub mod clock;
pub mod faults;
pub mod queue;
pub mod rng;
pub mod time;

pub use clock::Clock;
pub use faults::{
    CrashEvent, FaultPlan, FaultSpec, LinkSchedule, LinkWindow, NodeLossEvent, PoolNodeLossEvent,
};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
