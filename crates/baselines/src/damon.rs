//! A DAMON-like sampling offloading policy.
//!
//! DAMON monitors page-access frequency by periodic sampling and reclaims
//! regions that look cold. The paper's motivation experiment (Fig 2)
//! shows why this fails for serverless: sampling runs *constantly through
//! the keep-alive stage*, during which even the hottest pages are simply
//! not being accessed — so they are classified cold, offloaded, and the
//! next request faults its entire working set back from the pool,
//! inflating P95 latency by up to 14×.

use std::collections::HashMap;

use faasmem_faas::{ContainerId, MemoryPolicy, PolicyCtx};
use faasmem_mem::{PageId, RegionConfig, RegionMonitor};
use faasmem_sim::{SimDuration, SimRng};

/// How the policy estimates page hotness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DamonMode {
    /// Exact Access-bit walks (cheap in the simulator, an upper bound on
    /// DAMON's accuracy).
    ExactScan,
    /// PEBS-style per-access sampling (paper §9): each access is observed
    /// only with the given probability.
    PebsSampling(f64),
    /// DAMON's real design: adaptive regions, one sampled page standing
    /// in for each region, random split + similarity merge.
    RegionMonitor(RegionConfig),
}

/// Configuration of the DAMON-like policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamonConfig {
    /// Aging-scan / aggregation period.
    pub sample_period: SimDuration,
    /// Windows a page (or region) must stay untouched before it is
    /// declared cold.
    pub idle_threshold: u8,
    /// Hotness-estimation mode.
    pub mode: DamonMode,
}

impl Default for DamonConfig {
    fn default() -> Self {
        DamonConfig {
            sample_period: SimDuration::from_secs(5),
            // 4 scans × 5 s = 20 s of idleness ⇒ cold. Aggressive, like
            // DAMON_RECLAIM's defaults relative to serverless idle gaps.
            idle_threshold: 4,
            mode: DamonMode::ExactScan,
        }
    }
}

impl DamonConfig {
    /// Convenience: PEBS-sampling mode with the given probability.
    pub fn with_pebs(sample_prob: f64) -> Self {
        DamonConfig {
            mode: DamonMode::PebsSampling(sample_prob),
            ..Self::default()
        }
    }

    /// Convenience: full region-monitoring mode with default regions.
    pub fn with_regions() -> Self {
        DamonConfig {
            mode: DamonMode::RegionMonitor(RegionConfig::default()),
            ..Self::default()
        }
    }
}

/// The DAMON-like policy: stage-agnostic sampling + immediate cold-page
/// offload. See the [module docs](self).
#[derive(Debug)]
pub struct DamonPolicy {
    config: DamonConfig,
    rng: SimRng,
    monitors: HashMap<ContainerId, RegionMonitor>,
    /// Reused cold-page buffer; keeps the per-tick scan allocation-free.
    scratch: Vec<PageId>,
}

impl Default for DamonPolicy {
    fn default() -> Self {
        Self::new(DamonConfig::default())
    }
}

impl DamonPolicy {
    /// Creates the policy.
    pub fn new(config: DamonConfig) -> Self {
        DamonPolicy {
            config,
            rng: SimRng::seed_from(0xDA30),
            monitors: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DamonConfig {
        &self.config
    }
}

impl MemoryPolicy for DamonPolicy {
    fn name(&self) -> &'static str {
        "DAMON"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.config.sample_period)
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Sampling is container-stage agnostic: it runs during execution
        // and keep-alive alike — the design flaw the paper calls out.
        match self.config.mode {
            DamonMode::ExactScan => {
                // A refused offload moves nothing, so collect one id:
                // aging still runs, and the one id still reaches
                // `offload_pages`, which counts the refusal.
                let limit = if ctx.offloads_blocked() {
                    1
                } else {
                    usize::MAX
                };
                ctx.container.table_mut().age_and_collect_idle_into(
                    self.config.idle_threshold,
                    limit,
                    &mut self.scratch,
                )
            }
            DamonMode::PebsSampling(p) => {
                let rng = &mut self.rng;
                ctx.container.table_mut().age_and_collect_idle_sampled_into(
                    self.config.idle_threshold,
                    p,
                    || rng.next_f64(),
                    &mut self.scratch,
                )
            }
            DamonMode::RegionMonitor(region_config) => {
                let monitor = self
                    .monitors
                    .entry(ctx.container.id())
                    .or_insert_with(|| RegionMonitor::new(region_config));
                let rng = &mut self.rng;
                monitor.aggregate(ctx.container.table_mut(), || rng.next_f64());
                monitor.cold_pages_into(
                    ctx.container.table(),
                    u32::from(self.config.idle_threshold),
                    &mut self.scratch,
                )
            }
        };
        if !self.scratch.is_empty() {
            ctx.offload_pages(&self.scratch);
        }
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.monitors.remove(&ctx.container.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_faas::{Container, ContainerId, FunctionId, PlatformSim, RunReport};
    use faasmem_mem::PAGE_SIZE_4K;
    use faasmem_pool::{BandwidthGovernor, PoolConfig, RemotePool};
    use faasmem_sim::SimTime;
    use faasmem_workload::{BenchmarkSpec, Invocation, InvocationTrace};

    fn trace(times_secs: &[u64]) -> InvocationTrace {
        let invs = times_secs
            .iter()
            .map(|&s| Invocation {
                at: SimTime::from_secs(s),
                function: FunctionId(0),
            })
            .collect();
        InvocationTrace::from_invocations(invs, SimTime::from_secs(3_000))
    }

    fn run_policy<P: MemoryPolicy + 'static>(policy: P, times: &[u64]) -> RunReport {
        let mut sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("bert").unwrap())
            .policy(policy)
            .seed(5)
            .build();
        sim.run(&trace(times))
    }

    #[test]
    fn offloads_idle_memory_aggressively() {
        let report = run_policy(DamonPolicy::default(), &[10]);
        // Within the 10-minute keep-alive, nearly the whole container
        // goes remote.
        let offloaded_mib = report.pool_stats.bytes_out as f64 / (1024.0 * 1024.0);
        assert!(
            offloaded_mib > 500.0,
            "DAMON offloaded only {offloaded_mib} MiB"
        );
    }

    #[test]
    fn keepalive_sampling_destroys_warm_latency() {
        // Requests 60 s apart: far beyond the 20 s cold threshold, so
        // every warm request finds its hot set offloaded. Enough
        // requests that the single cold start drops out of the P95.
        let times: Vec<u64> = (0..40).map(|i| 10 + i * 60).collect();
        let mut damon = run_policy(DamonPolicy::default(), &times);
        let mut base = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("bert").unwrap())
            .seed(5)
            .build();
        let mut base_report = base.run(&trace(&times));
        let p95_d = damon.p95_latency().as_secs_f64();
        let p95_b = base_report.p95_latency().as_secs_f64();
        assert!(
            p95_d > p95_b * 1.5,
            "DAMON P95 {p95_d} should blow up vs baseline {p95_b} (Fig 2)"
        );
        // Warm requests carry heavy fault counts.
        let warm_faults: u32 = damon
            .requests
            .iter()
            .filter(|r| !r.cold)
            .map(|r| r.faults)
            .sum();
        assert!(warm_faults > 1_000, "warm faults {warm_faults}");
    }

    #[test]
    fn rapid_requests_protect_the_hot_set() {
        // Requests every 5 s: the hot set never reaches the idle
        // threshold, so DAMON behaves tolerably.
        let times: Vec<u64> = (0..20).map(|i| 10 + i * 5).collect();
        let report = run_policy(DamonPolicy::default(), &times);
        let warm: Vec<_> = report.requests.iter().filter(|r| !r.cold).collect();
        let per_request = warm.iter().map(|r| r.faults as f64).sum::<f64>() / warm.len() as f64;
        // Bert's random slice still faults cold init pages occasionally,
        // but the ~6000-page fixed hot core must stay local.
        assert!(
            per_request < 1_500.0,
            "avg faults per warm request {per_request}"
        );
    }

    #[test]
    fn refused_offloads_age_every_page_and_collect_one_id() {
        let spec = BenchmarkSpec::by_name("json").unwrap();
        let mut c = Container::new(
            ContainerId(0),
            FunctionId(0),
            spec,
            PAGE_SIZE_4K,
            SimTime::ZERO,
        );
        c.finish_launch();
        c.finish_init();
        let mut pool = RemotePool::new(PoolConfig::default());
        pool.set_offloads_suspended(true);
        let mut governor = BandwidthGovernor::new(1 << 40, SimDuration::from_secs(1));
        let mut damon = DamonPolicy::default();
        let threshold = damon.config().idle_threshold;
        let mut refusals = 0;
        for tick in 1..=u64::from(threshold) + 1 {
            // What an unbounded scan would age and collect.
            let mut aged = c.table().clone();
            let cold = aged.age_and_collect_idle(threshold);
            damon.on_tick(&mut PolicyCtx {
                now: SimTime::from_secs(tick * 5),
                container: &mut c,
                pool: &mut pool,
                governor: &mut governor,
                reuse_intervals: &HashMap::new(),
            });
            for id in 0..c.table().len() as u32 {
                assert_eq!(c.table().meta(PageId(id)), aged.meta(PageId(id)));
            }
            assert!(
                damon.scratch.len() <= 1,
                "tick {tick}: {} ids",
                damon.scratch.len()
            );
            assert_eq!(damon.scratch, cold[..cold.len().min(1)], "tick {tick}");
            refusals += u64::from(!cold.is_empty());
            assert_eq!(pool.offloads_refused(), refusals, "tick {tick}");
        }
        assert!(refusals > 0, "no tick found a cold page");
        assert_eq!(c.table().remote_pages(), 0);
    }

    #[test]
    fn default_config_sane() {
        let c = DamonConfig::default();
        assert_eq!(c.sample_period, SimDuration::from_secs(5));
        assert_eq!(c.idle_threshold, 4);
        assert_eq!(c.mode, DamonMode::ExactScan);
    }

    #[test]
    fn region_monitor_mode_offloads_and_recalls() {
        // The faithful DAMON: regions + sampling. It must still offload
        // substantially and still hurt warm latency on sparse traffic.
        let times: Vec<u64> = (0..20).map(|i| 10 + i * 60).collect();
        let report = run_policy(DamonPolicy::new(DamonConfig::with_regions()), &times);
        let offloaded_mib = report.pool_stats.bytes_out as f64 / (1024.0 * 1024.0);
        assert!(
            offloaded_mib > 200.0,
            "regions offloaded only {offloaded_mib} MiB"
        );
        let warm_faults: u32 = report
            .requests
            .iter()
            .filter(|r| !r.cold)
            .map(|r| r.faults)
            .sum();
        assert!(warm_faults > 500, "warm faults {warm_faults}");
    }

    #[test]
    fn pebs_sampling_is_more_aggressive_than_exact() {
        // With rapid requests the exact scanner protects the hot set,
        // but a low-rate sampler misses accesses and evicts it anyway.
        let times: Vec<u64> = (0..20).map(|i| 10 + i * 5).collect();
        let exact = run_policy(DamonPolicy::default(), &times);
        let sampled = run_policy(DamonPolicy::new(DamonConfig::with_pebs(0.02)), &times);
        let faults = |r: &RunReport| -> u64 {
            r.requests
                .iter()
                .filter(|q| !q.cold)
                .map(|q| u64::from(q.faults))
                .sum()
        };
        assert!(
            faults(&sampled) > faults(&exact) * 2,
            "sampled {} vs exact {}",
            faults(&sampled),
            faults(&exact)
        );
    }
}
