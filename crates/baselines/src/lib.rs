#![warn(missing_docs)]

//! Baseline memory-offloading policies the paper compares against.
//!
//! * [`NoOffloadPolicy`] — the paper's "Baseline": FaaSMem's platform
//!   without any memory offloading (§8.1).
//! * [`TmoPolicy`] — a TMO-like feedback policy (Weiner et al., ASPLOS'22):
//!   offloads a tiny fixed fraction of memory on a slow period (0.05%
//!   every 6 s, §2.2) and backs off when the observed request slowdown
//!   crosses a pressure threshold. Safe, but far too slow for short-lived
//!   serverless containers — which is exactly what Fig 12 shows.
//! * [`DamonPolicy`] — a DAMON-like sampling policy: ages Access bits on a
//!   fixed period, declares pages cold after an idle threshold, and
//!   offloads them immediately — *stage-agnostically*. During keep-alive
//!   every hot page eventually looks cold, gets offloaded, and the next
//!   request pays a massive recall penalty (the up-to-14× P95 blow-up of
//!   Fig 2).
//!
//! All three run on the identical platform and
//! [`MemoryPolicy`](faasmem_faas::MemoryPolicy) interface as FaaSMem
//! itself.

pub mod damon;
pub mod tmo;

pub use damon::{DamonMode, DamonPolicy};
pub use faasmem_faas::NullPolicy as NoOffloadPolicy;
pub use tmo::{TmoConfig, TmoPolicy};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        use faasmem_faas::MemoryPolicy;
        let policies: [Box<dyn MemoryPolicy>; 3] = [
            Box::new(NoOffloadPolicy),
            Box::new(TmoPolicy::default()),
            Box::new(DamonPolicy::default()),
        ];
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["Baseline", "TMO", "DAMON"]);
    }
}
