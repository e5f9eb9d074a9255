//! The memory-policy plug-in interface.
//!
//! All offloading mechanisms — FaaSMem and every baseline — implement
//! [`MemoryPolicy`] and observe the same container lifecycle hooks the
//! paper's kernel mechanism hooks:
//!
//! * runtime loaded → FaaSMem inserts the Runtime-Init time barrier;
//! * init done → the Init-Execution barrier;
//! * request start/end → Pucket maintenance, reactive/window offloading,
//!   semi-warm cancellation;
//! * periodic ticks → semi-warm gradual offloading, TMO's step-by-step
//!   offload, DAMON's sampling.

use std::collections::HashMap;

use faasmem_mem::PageId;
use faasmem_metrics::Cdf;
use faasmem_pool::{BandwidthGovernor, RemotePool};
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::FunctionId;

use crate::container::Container;

/// Everything a policy may touch when a hook fires: the affected
/// container, the remote pool, the shared bandwidth governor, and the
/// platform's observed reuse intervals.
#[derive(Debug)]
pub struct PolicyCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The container the hook concerns.
    pub container: &'a mut Container,
    /// The node's remote memory pool.
    pub pool: &'a mut RemotePool,
    /// The node-wide offload-bandwidth governor.
    pub governor: &'a mut BandwidthGovernor,
    /// Each function's container reused intervals so far, in seconds
    /// (see [`RunReport::reuse_intervals`](crate::RunReport::reuse_intervals)).
    /// A warm start's gap is in it before `on_request_start` fires.
    pub reuse_intervals: &'a HashMap<FunctionId, Cdf>,
}

impl<'a> PolicyCtx<'a> {
    /// `true` while the pool refuses offloads: the circuit breaker holds
    /// it unhealthy, or the fabric itself is mid-outage, where an RDMA
    /// write would fail immediately. [`PolicyCtx::offload_pages`]
    /// refuses every batch then, so a policy need not collect more
    /// candidates than it takes to have the refusal counted.
    pub fn offloads_blocked(&self) -> bool {
        self.pool.offloads_suspended() || !self.pool.out_link_up(self.now)
    }

    /// Offloads the given pages of this container to the remote pool,
    /// updating the page table, pool occupancy and bandwidth accounting.
    /// Returns the number of pages actually moved (pages already remote
    /// or freed are skipped; on pool exhaustion the batch is truncated to
    /// what fits).
    pub fn offload_pages(&mut self, ids: &[PageId]) -> u32 {
        let page_size = self.container.table().page_size();
        if self.offloads_blocked() {
            // Graceful degradation: keep pages in local DRAM.
            self.pool.note_refused_offload();
            return 0;
        }
        // One scan: count the local candidates, stopping at pool
        // capacity. The batch is the prefix of `ids` holding the first
        // `fit` of them; the table skips the non-local ids inside it.
        let capacity = self.pool.available_bytes() / page_size;
        let table = self.container.table();
        let mut fit = 0u64;
        let mut end = 0;
        while end < ids.len() && fit < capacity {
            fit += u64::from(table.meta(ids[end]).state() == faasmem_mem::PageState::Local);
            end += 1;
        }
        if fit == 0 {
            return 0;
        }
        let moved = self
            .container
            .table_mut()
            .offload_pages(ids[..end].iter().copied());
        debug_assert_eq!(u64::from(moved), fit);
        let bytes = u64::from(moved) * page_size;
        self.pool
            .page_out(self.now, u64::from(moved), page_size)
            .expect("batch pre-sized to fit the pool");
        self.governor.record(self.now, bytes);
        moved
    }

    /// Prefetches the given remote pages of this container back to local
    /// DRAM in one batch, charging the pool's page-in path. Returns the
    /// number of pages moved. Unlike demand faults, prefetched pages are
    /// not marked accessed and do not count as faults; the batch occupies
    /// the link, so any demand faults issued right after queue behind it.
    pub fn prefetch_pages(&mut self, ids: &[PageId]) -> u32 {
        let page_size = self.container.table().page_size();
        if !self.pool.in_link_up(self.now) {
            // Prefetch is an optimization: mid-outage it is skipped
            // rather than queued behind the window. Demand faults still
            // recall the pages through the resilient path.
            return 0;
        }
        let moved = self
            .container
            .table_mut()
            .prefetch_pages(ids.iter().copied());
        if moved > 0 {
            self.pool
                .page_in(self.now, u64::from(moved), page_size)
                .expect("prefetched pages are held by the pool");
        }
        moved
    }

    /// Convenience: offload every live page matching `pred`.
    pub fn offload_where<F>(&mut self, pred: F) -> u32
    where
        F: Fn(PageId, faasmem_mem::PageMeta) -> bool,
    {
        let ids = self.container.table().collect_ids(pred);
        self.offload_pages(&ids)
    }
}

/// Lifecycle hooks a memory-management policy implements.
///
/// All hooks default to no-ops, so a policy only implements the events it
/// cares about. One policy instance manages *all* containers on the node;
/// per-container state should be keyed by [`Container::id`].
///
/// The end-to-end benchmark wraps the policy under test in a timing
/// wrapper (`TimedPolicy` in `crates/bench/src/bin/bench_e2e/probe.rs`)
/// that forwards exactly the eight methods below, and only a change to
/// the benchmark itself may edit it. A new method with a default body
/// would therefore run its default, not the wrapped policy's override,
/// in every traced benchmark repetition; a new method (such as a
/// per-container tick-interest query) must account for that.
pub trait MemoryPolicy {
    /// Short name used in experiment output ("Baseline", "TMO", ...).
    fn name(&self) -> &'static str;

    /// If `Some`, the platform invokes [`MemoryPolicy::on_tick`] for every
    /// live container at this period.
    fn tick_interval(&self) -> Option<SimDuration> {
        None
    }

    /// The container runtime finished loading (cold start, phase 1 done).
    fn on_runtime_loaded(&mut self, _ctx: &mut PolicyCtx<'_>) {}

    /// Function initialization finished (cold start, phase 2 done).
    fn on_init_done(&mut self, _ctx: &mut PolicyCtx<'_>) {}

    /// A request is about to execute on this container. For warm starts,
    /// `idle` is how long the container sat in keep-alive — the paper's
    /// "container reused interval" that drives semi-warm timing.
    fn on_request_start(&mut self, _ctx: &mut PolicyCtx<'_>, _idle: Option<SimDuration>) {}

    /// A request just completed (execution segment already freed).
    fn on_request_end(&mut self, _ctx: &mut PolicyCtx<'_>) {}

    /// Periodic maintenance, fired per live container every
    /// [`MemoryPolicy::tick_interval`].
    fn on_tick(&mut self, _ctx: &mut PolicyCtx<'_>) {}

    /// The container hit its keep-alive timeout and is being recycled;
    /// fired before its memory is released.
    fn on_container_recycled(&mut self, _ctx: &mut PolicyCtx<'_>) {}
}

/// Boxed policies forward every hook, so policies chosen at run time
/// (e.g. by an experiment grid's policy axis) plug into
/// [`PlatformBuilder::policy`](crate::PlatformBuilder::policy) directly.
impl MemoryPolicy for Box<dyn MemoryPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        (**self).tick_interval()
    }

    fn on_runtime_loaded(&mut self, ctx: &mut PolicyCtx<'_>) {
        (**self).on_runtime_loaded(ctx);
    }

    fn on_init_done(&mut self, ctx: &mut PolicyCtx<'_>) {
        (**self).on_init_done(ctx);
    }

    fn on_request_start(&mut self, ctx: &mut PolicyCtx<'_>, idle: Option<SimDuration>) {
        (**self).on_request_start(ctx, idle);
    }

    fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
        (**self).on_request_end(ctx);
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        (**self).on_tick(ctx);
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        (**self).on_container_recycled(ctx);
    }
}

/// A policy that never offloads anything: the paper's "Baseline"
/// (a FaaSMem variant without memory offloading, §8.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPolicy;

impl MemoryPolicy for NullPolicy {
    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Container, ContainerId};
    use faasmem_mem::{PageState, Segment, PAGE_SIZE_4K};
    use faasmem_pool::PoolConfig;
    use faasmem_workload::{BenchmarkSpec, FunctionId};

    fn harness() -> (Container, RemotePool, BandwidthGovernor) {
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
        let pool = RemotePool::new(PoolConfig::slow_test_pool());
        let gov = BandwidthGovernor::new(100 * 1024 * 1024, SimDuration::from_secs(1));
        (c, pool, gov)
    }

    #[test]
    fn offload_pages_moves_and_accounts() {
        let (mut c, mut pool, mut gov) = harness();
        let ids: Vec<_> = c.runtime_range().take(10).iter().collect();
        let mut ctx = PolicyCtx {
            now: SimTime::from_secs(1),
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        let moved = ctx.offload_pages(&ids);
        assert_eq!(moved, 10);
        assert_eq!(pool.used_bytes(), 10 * PAGE_SIZE_4K);
        assert_eq!(c.table().remote_pages(), 10);
        // Offloading the same pages again is a no-op.
        let mut ctx = PolicyCtx {
            now: SimTime::from_secs(2),
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&ids), 0);
    }

    #[test]
    fn offload_truncates_at_pool_capacity() {
        let spec = BenchmarkSpec::by_name("json").unwrap();
        let mut c = Container::new(
            ContainerId(0),
            FunctionId(0),
            spec,
            PAGE_SIZE_4K,
            SimTime::ZERO,
        );
        c.finish_launch();
        let mut pool = RemotePool::new(PoolConfig {
            capacity_bytes: 3 * PAGE_SIZE_4K,
            ..PoolConfig::slow_test_pool()
        });
        let mut gov = BandwidthGovernor::new(1_000_000, SimDuration::from_secs(1));
        let ids: Vec<_> = c.runtime_range().take(10).iter().collect();
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&ids), 3, "only what fits moves");
        assert_eq!(c.table().remote_pages(), 3);
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&ids), 0, "pool now full");
    }

    #[test]
    fn offload_at_capacity_moves_the_first_local_candidates() {
        let (mut c, _, mut gov) = harness();
        let mut pool = RemotePool::new(PoolConfig {
            capacity_bytes: 5 * PAGE_SIZE_4K,
            ..PoolConfig::slow_test_pool()
        });
        let ids: Vec<_> = c.runtime_range().take(10).iter().collect();
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&[ids[1], ids[3]]), 2);
        // Three pages of room left: the already-remote ids are skipped
        // and the first three local candidates move.
        assert_eq!(ctx.offload_pages(&ids), 3);
        let remote: Vec<bool> = ids
            .iter()
            .map(|&id| c.table().meta(id).state() == PageState::Remote)
            .collect();
        assert_eq!(
            remote,
            [true, true, true, true, true, false, false, false, false, false]
        );
    }

    #[test]
    fn prefetch_pages_returns_batch_and_accounts_pool() {
        let (mut c, mut pool, mut gov) = harness();
        let ids: Vec<_> = c.init_range().take(8).iter().collect();
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        ctx.offload_pages(&ids);
        let mut ctx = PolicyCtx {
            now: SimTime::from_secs(1),
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.prefetch_pages(&ids), 8);
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(c.table().remote_pages(), 0);
        assert_eq!(c.table().total_faulted(), 0);
    }

    #[test]
    fn offload_where_uses_metadata() {
        let (mut c, mut pool, mut gov) = harness();
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        let moved = ctx.offload_where(|_, m| m.segment() == Segment::Init);
        assert!(moved > 0);
        for id in c.init_range().iter() {
            assert_eq!(c.table().meta(id).state(), PageState::Remote);
        }
        for id in c.runtime_range().iter() {
            assert_eq!(c.table().meta(id).state(), PageState::Local);
        }
    }

    #[test]
    fn suspended_pool_refuses_offloads() {
        let (mut c, mut pool, mut gov) = harness();
        pool.set_offloads_suspended(true);
        let ids: Vec<_> = c.runtime_range().take(10).iter().collect();
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&ids), 0);
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(pool.offloads_refused(), 1);
        // Resuming lets the same batch through.
        pool.set_offloads_suspended(false);
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        assert_eq!(ctx.offload_pages(&ids), 10);
    }

    #[test]
    fn null_policy_is_inert() {
        let (mut c, mut pool, mut gov) = harness();
        let mut policy = NullPolicy;
        let mut ctx = PolicyCtx {
            now: SimTime::ZERO,
            container: &mut c,
            pool: &mut pool,
            governor: &mut gov,
            reuse_intervals: &HashMap::new(),
        };
        policy.on_runtime_loaded(&mut ctx);
        policy.on_init_done(&mut ctx);
        policy.on_request_start(&mut ctx, None);
        policy.on_request_end(&mut ctx);
        policy.on_tick(&mut ctx);
        policy.on_container_recycled(&mut ctx);
        assert_eq!(policy.name(), "Baseline");
        assert_eq!(policy.tick_interval(), None);
        assert_eq!(pool.used_bytes(), 0);
        assert_eq!(c.table().remote_pages(), 0);
    }
}
