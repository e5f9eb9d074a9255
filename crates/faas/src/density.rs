//! Deployment-density estimation (paper §8.6).
//!
//! In production each container is scheduled against a fixed memory
//! quota. The paper treats the amount a policy offloads as a *reducible
//! amount of the quota*: a 128 MB-quota container that keeps 28 MB remote
//! effectively needs a 100 MB quota, so a node of fixed DRAM can pack
//! `128/100 = 1.28×` more containers.

use crate::report::RunReport;
use faasmem_workload::BenchmarkSpec;

/// The density estimate for one function under one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityEstimate {
    /// The function's scheduling quota in MiB.
    pub quota_mib: f64,
    /// Time-weighted mean offloaded MiB per live container.
    pub offloaded_per_container_mib: f64,
    /// Effective quota after subtracting the offloaded amount.
    pub effective_quota_mib: f64,
    /// Deployment-density multiplier (`quota / effective_quota`), ≥ 1.
    pub improvement: f64,
}

/// Estimates the density improvement of a run, following §8.6: the
/// time-weighted mean remote memory divided by the mean number of live
/// containers gives the average reducible quota per container.
///
/// Returns an improvement of exactly 1.0 when nothing was offloaded or no
/// container ever ran.
pub fn estimate_density(report: &RunReport, spec: &BenchmarkSpec) -> DensityEstimate {
    let quota_mib = spec.quota_mib as f64;
    let avg_containers = report.avg_live_containers();
    let offloaded_per_container_mib = if avg_containers > 0.0 {
        report.avg_remote_mib() / avg_containers
    } else {
        0.0
    };
    // The reducible amount can never exceed the quota itself; keep a
    // floor so pathological inputs don't divide by zero.
    let reducible = offloaded_per_container_mib.clamp(0.0, quota_mib * 0.9);
    let effective_quota_mib = quota_mib - reducible;
    DensityEstimate {
        quota_mib,
        offloaded_per_container_mib,
        effective_quota_mib,
        improvement: quota_mib / effective_quota_mib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_metrics::{LatencyRecorder, TimeSeries};
    use faasmem_sim::SimTime;
    use std::collections::HashMap;

    fn report_with(remote_mib: f64, containers: f64) -> RunReport {
        let finished = SimTime::from_secs(100);
        let mut remote_mem = TimeSeries::new();
        remote_mem.record(SimTime::ZERO, remote_mib * 1024.0 * 1024.0);
        let mut live = TimeSeries::new();
        live.record(SimTime::ZERO, containers);
        let mut local_mem = TimeSeries::new();
        local_mem.record(SimTime::ZERO, 0.0);
        RunReport {
            policy: "test",
            requests_completed: 0,
            cold_starts: 0,
            latency: LatencyRecorder::new(),
            requests: Default::default(),
            local_mem,
            remote_mem,
            live_containers: live,
            pool_stats: Default::default(),
            containers: Vec::new(),
            reuse_intervals: HashMap::new(),
            finished_at: finished,
            faults: None,
            durability: None,
            blame: None,
            memory_anatomy: None,
            function_waste: Vec::new(),
            registry: faasmem_metrics::MetricsRegistry::new(),
            events_processed: 0,
        }
    }

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec::by_name("json").unwrap() // quota 128 MiB
    }

    #[test]
    fn paper_example_28_of_128() {
        // One container holding 28 MiB remote on a 128 MiB quota → 1.28×.
        let report = report_with(28.0, 1.0);
        let d = estimate_density(&report, &spec());
        assert!((d.offloaded_per_container_mib - 28.0).abs() < 1e-6);
        assert!((d.effective_quota_mib - 100.0).abs() < 1e-6);
        assert!((d.improvement - 1.28).abs() < 1e-6);
    }

    #[test]
    fn no_offload_means_unity() {
        let d = estimate_density(&report_with(0.0, 3.0), &spec());
        assert_eq!(d.improvement, 1.0);
        assert_eq!(d.effective_quota_mib, 128.0);
    }

    #[test]
    fn no_containers_means_unity() {
        let d = estimate_density(&report_with(0.0, 0.0), &spec());
        assert_eq!(d.improvement, 1.0);
    }

    #[test]
    fn offload_split_across_containers() {
        // 56 MiB remote over 2 containers → 28 each → 1.28×.
        let d = estimate_density(&report_with(56.0, 2.0), &spec());
        assert!((d.improvement - 1.28).abs() < 1e-6);
    }

    #[test]
    fn improvement_is_capped() {
        // Even absurd offload cannot exceed the 10× cap implied by the
        // 90% reducible floor.
        let d = estimate_density(&report_with(10_000.0, 1.0), &spec());
        assert!(d.improvement <= 10.0 + 1e-9);
        assert!(d.improvement > 1.0);
    }
}
