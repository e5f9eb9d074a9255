//! [`FaasMemPolicy`]: the full mechanism wired into the platform.

use std::collections::HashMap;
use std::rc::Rc;

use faasmem_faas::{ContainerId, ContainerStage, MemoryPolicy, PolicyCtx};
use faasmem_mem::PageId;
use faasmem_sim::SimDuration;

use crate::config::{FaasMemConfig, COLD_START_CENSOR_CAP, WINDOW_EPSILON};
use crate::pucket::{PucketKind, Puckets};
use crate::rollback::{RollbackAction, RollbackCycle};
use crate::semiwarm::{SemiWarm, SemiWarmActivity};
use crate::stats::{new_stats_handle, SemiWarmRecord, StatsHandle};
use crate::window::WindowTracker;

/// Maintenance tick period: the semi-warm drain's pacing step.
const TICK: SimDuration = SimDuration::from_secs(1);

/// Per-container policy state.
#[derive(Debug)]
struct CState {
    puckets: Puckets,
    window: Option<WindowTracker>,
    runtime_offloaded: bool,
    rollback: RollbackCycle,
    activity: SemiWarmActivity,
    runtime_recalls: u64,
}

impl CState {
    fn new(rollback_min_interval: SimDuration) -> Self {
        CState {
            puckets: Puckets::new(),
            window: None,
            runtime_offloaded: false,
            rollback: RollbackCycle::new(rollback_min_interval),
            activity: SemiWarmActivity::default(),
            runtime_recalls: 0,
        }
    }
}

/// The FaaSMem memory policy: Pucket segregation, reactive + window-based
/// cold-page offloading, periodic rollback, and the semi-warm period.
///
/// Build with [`FaasMemPolicy::new`] or [`FaasMemPolicy::with_config`];
/// pass the result to
/// [`PlatformSim::builder().policy(...)`](faasmem_faas::PlatformBuilder::policy).
/// Keep a clone of [`FaasMemPolicy::stats`] to read mechanism-level
/// measurements after the run.
#[derive(Debug)]
pub struct FaasMemPolicy {
    config: FaasMemConfig,
    semiwarm: SemiWarm,
    containers: HashMap<ContainerId, CState>,
    /// Per-function time of the most recent request start, for the
    /// cold-start-aware timing extension.
    last_seen: HashMap<faasmem_faas::FunctionId, faasmem_sim::SimTime>,
    stats: StatsHandle,
    /// Reusable id buffer for offload and prefetch candidate collection
    /// — keeps the per-request and per-tick hot paths allocation-free.
    scratch_ids: Vec<PageId>,
}

impl FaasMemPolicy {
    /// A policy running `config`.
    ///
    /// # Errors
    ///
    /// `Err` carries every problem [`FaasMemConfig::validate`] finds.
    pub fn with_config(config: FaasMemConfig) -> Result<Self, Vec<String>> {
        config.validate()?;
        Ok(Self::from_valid(config))
    }

    /// A policy with all defaults (the paper's parameters). They pass
    /// [`FaasMemConfig::validate`] (a unit test holds that), so `new`
    /// skips the check and its `Result`.
    pub fn new() -> Self {
        Self::from_valid(FaasMemConfig::default())
    }

    fn from_valid(config: FaasMemConfig) -> Self {
        FaasMemPolicy {
            semiwarm: SemiWarm::new(config.semiwarm.clone()),
            config,
            containers: HashMap::new(),
            last_seen: HashMap::new(),
            stats: new_stats_handle(),
            scratch_ids: Vec::new(),
        }
    }

    /// A clone of the shared stats handle; read it after the run.
    pub fn stats(&self) -> StatsHandle {
        Rc::clone(&self.stats)
    }

    /// The active configuration.
    pub fn config(&self) -> &FaasMemConfig {
        &self.config
    }

    fn state_mut(&mut self, id: ContainerId) -> &mut CState {
        let t = self.config.rollback_min_interval;
        self.containers.entry(id).or_insert_with(|| CState::new(t))
    }

    /// Offloads the inactive lists of the Runtime and Init Puckets.
    /// `ids` is a reusable scratch buffer (clobbered).
    fn offload_inactive(
        state: &CState,
        ctx: &mut PolicyCtx<'_>,
        kinds: &[PucketKind],
        ids: &mut Vec<PageId>,
    ) -> u32 {
        ids.clear();
        for &kind in kinds {
            state
                .puckets
                .append_inactive_pages(ctx.container.table(), kind, usize::MAX, ids);
        }
        ctx.offload_pages(ids)
    }
}

impl Default for FaasMemPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryPolicy for FaasMemPolicy {
    fn name(&self) -> &'static str {
        match (self.config.enable_pucket, self.config.enable_semiwarm) {
            (true, true) => "FaaSMem",
            (false, true) => "FaaSMem w/o Pucket",
            (true, false) => "FaaSMem w/o Semi-warm",
            (false, false) => "FaaSMem w/o Pucket+Semi-warm",
        }
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.config.enable_semiwarm.then_some(TICK)
    }

    fn on_runtime_loaded(&mut self, ctx: &mut PolicyCtx<'_>) {
        let enable_pucket = self.config.enable_pucket;
        let state = self.state_mut(ctx.container.id());
        if enable_pucket {
            state
                .puckets
                .insert_runtime_init_barrier(ctx.container.table_mut());
        }
    }

    fn on_init_done(&mut self, ctx: &mut PolicyCtx<'_>) {
        let enable_pucket = self.config.enable_pucket;
        let rounds = self.config.window_stable_rounds;
        let cap = self.config.window_cap;
        let state = self.state_mut(ctx.container.id());
        if !enable_pucket {
            return;
        }
        state
            .puckets
            .insert_init_exec_barrier(ctx.container.table_mut());
        // Allocation-time Access bits are not request accesses: clear
        // them so every Pucket starts with a full inactive list (§4).
        ctx.container.table_mut().clear_accessed();
        let init_total = u64::from(ctx.container.init_range().len());
        state.window = Some(WindowTracker::new(init_total, WINDOW_EPSILON, rounds, cap));
    }

    fn on_request_start(&mut self, ctx: &mut PolicyCtx<'_>, idle: Option<SimDuration>) {
        let function = ctx.container.function();
        let now = ctx.now;
        // A warm start's gap is already in the platform's reuse store.
        if idle.is_none() && self.config.semiwarm.cold_start_aware {
            // §8.3.2 extension: a cold start hides a would-be reuse.
            // Feed its gap into the CDF as a censored sample (long gaps
            // saturate at the cap) so the semi-warm timing stays
            // pessimistic under bursts.
            if let Some(&prev) = self.last_seen.get(&function) {
                let gap = now.saturating_since(prev);
                if !gap.is_zero() {
                    let censored = gap.min(COLD_START_CENSOR_CAP);
                    self.semiwarm.record_censored(function, censored);
                }
            }
        }
        self.last_seen.insert(function, now);
        let recall_prefetch = self.config.semiwarm.recall_prefetch;
        let state = self.state_mut(ctx.container.id());
        if state.activity.is_active() {
            state.activity.exit(now);
            if recall_prefetch {
                // Leap-style recall: restore the entire semi-warm-drained
                // set in one batched page-in before execution touches it
                // page by page. Remote pages that were offloaded as cold
                // (Pucket inactive lists) stay remote — only the hot set
                // the drain took is pulled back.
                self.scratch_ids.clear();
                ctx.container
                    .table()
                    .append_hot_pool_remote(&mut self.scratch_ids);
                ctx.prefetch_pages(&self.scratch_ids);
            }
        }
    }

    fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
        if !self.config.enable_pucket {
            return;
        }
        let function = ctx.container.function();
        let now = ctx.now;
        let requests = ctx.container.requests_served();
        let state = self
            .containers
            .get_mut(&ctx.container.id())
            .expect("state exists after cold start");

        // 1. Promote revisited pages to the hot page pool. Promotions
        //    that faulted the page back from the pool are recalls (Fig 8).
        let promote = state.puckets.promote_accessed(ctx.container.table_mut());
        state.runtime_recalls += u64::from(promote.runtime_recalled);

        // 2. Reactive offload of the Runtime Pucket after request #1
        //    (§5.1: "once the first request of a launching container is
        //    completed ... offload all inactive pages of the Runtime
        //    Pucket").
        if requests == 1 && !state.runtime_offloaded {
            state.runtime_offloaded = true;
            Self::offload_inactive(state, ctx, &[PucketKind::Runtime], &mut self.scratch_ids);
            self.stats
                .borrow_mut()
                .runtime_offloads
                .entry(function)
                .and_modify(|c| *c += 1)
                .or_insert(1);
        }

        // 3. Window-based offload of the Init Pucket (§5.2).
        let remaining = state
            .puckets
            .inactive_count(ctx.container.table(), PucketKind::Init);
        if let Some(window) = state.window.as_mut().and_then(|w| w.observe(remaining)) {
            state.rollback.arm(window, now);
            Self::offload_inactive(state, ctx, &[PucketKind::Init], &mut self.scratch_ids);
            self.stats
                .borrow_mut()
                .windows_chosen
                .push((function, window));
            return; // the closing request does not also drive a rollback
        }

        // 4. Periodic rollback of the hot page pool (§5.3).
        match state.rollback.on_request_end(now) {
            RollbackAction::None => {}
            RollbackAction::RollBack => {
                state.puckets.rollback_hot_pool(ctx.container.table_mut());
                self.stats.borrow_mut().rollbacks += 1;
            }
            RollbackAction::OffloadLeftovers => {
                Self::offload_inactive(
                    state,
                    ctx,
                    &[PucketKind::Runtime, PucketKind::Init],
                    &mut self.scratch_ids,
                );
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        if !self.config.enable_semiwarm {
            return;
        }
        if ctx.container.stage() != ContainerStage::KeepAlive {
            return;
        }
        let now = ctx.now;
        let function = ctx.container.function();
        let idle = ctx.container.idle_since(now);
        let reuse = ctx.reuse_intervals.get(&function);
        if idle < self.semiwarm.start_timing(reuse, function) {
            return;
        }
        let page_size = ctx.container.table().page_size();
        let resident = ctx.container.table().local_bytes() + ctx.container.table().remote_bytes();
        let throttle = ctx.governor.throttle_factor(now);
        let rollback_min_interval = self.config.rollback_min_interval;
        let state = self
            .containers
            .entry(ctx.container.id())
            .or_insert_with(|| CState::new(rollback_min_interval));
        state.activity.enter(now);
        let budget = self.semiwarm.pages_this_tick(
            resident,
            page_size,
            TICK,
            throttle,
            &mut state.activity.carry,
        );
        if budget == 0 {
            return;
        }
        // Drain coldest-first: Pucket inactive lists, then the hot pool,
        // then (when Puckets are disabled) any remaining local page. Each
        // collector stops at the budget still left, so the batch is the
        // ascending prefix of the full drain order.
        let table = ctx.container.table();
        let budget = budget as usize;
        let ids = &mut self.scratch_ids;
        ids.clear();
        if self.config.enable_pucket {
            for kind in [PucketKind::Runtime, PucketKind::Init] {
                state
                    .puckets
                    .append_inactive_pages(table, kind, budget - ids.len(), ids);
            }
            table.append_hot_pool_local(budget - ids.len(), ids);
        } else {
            table.append_local(budget, ids);
        }
        let moved = ctx.offload_pages(&self.scratch_ids);
        if moved > 0 {
            let bytes = u64::from(moved) * page_size;
            state.activity.bytes_offloaded += bytes;
            self.stats.borrow_mut().semi_warm_bytes += bytes;
        }
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        let id = ctx.container.id();
        let now = ctx.now;
        let Some(mut state) = self.containers.remove(&id) else {
            return; // recycled before the runtime even loaded
        };
        state.activity.exit(now);
        let mut stats = self.stats.borrow_mut();
        stats.semi_warm_records.push(SemiWarmRecord {
            function: ctx.container.function(),
            lifetime: now.saturating_since(ctx.container.created_at()),
            semi_warm_time: state.activity.total,
        });
        if state.runtime_recalls > 0 {
            *stats
                .runtime_recalls
                .entry(ctx.container.function())
                .or_default() += state.runtime_recalls;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OffloadRate, SemiWarmConfig};
    use faasmem_faas::{FunctionId, PlatformSim};
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

    fn run(spec_name: &str, times: &[u64]) -> (faasmem_faas::RunReport, StatsHandle) {
        let policy = FaasMemPolicy::new();
        let stats = policy.stats();
        let mut sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name(spec_name).unwrap())
            .policy(policy)
            .seed(5)
            .build();
        (sim.run(&trace(times)), stats)
    }

    #[test]
    fn with_config_reports_every_validate_problem() {
        let default = FaasMemPolicy::with_config(FaasMemConfig::default()).unwrap();
        assert_eq!(default.config(), FaasMemPolicy::new().config());
        // One problem each. The last two passed the deleted builder's
        // asserts: zero stable rounds, and a NaN drain rate.
        let one_each = [
            FaasMemConfig {
                window_cap: 0,
                ..Default::default()
            },
            FaasMemConfig {
                semiwarm: SemiWarmConfig {
                    start_percentile: 1.5,
                    ..Default::default()
                },
                ..Default::default()
            },
            FaasMemConfig {
                window_stable_rounds: 0,
                ..Default::default()
            },
            FaasMemConfig {
                semiwarm: SemiWarmConfig {
                    rate: OffloadRate::PercentPerSec(f64::NAN),
                    ..Default::default()
                },
                ..Default::default()
            },
        ];
        for config in one_each {
            let problems = config.validate().unwrap_err();
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert_eq!(FaasMemPolicy::with_config(config).unwrap_err(), problems);
        }
        let all = FaasMemConfig {
            window_cap: 0,
            window_stable_rounds: 0,
            semiwarm: SemiWarmConfig {
                start_percentile: 1.5,
                rate: OffloadRate::Auto {
                    large_threshold_mib: 256,
                    percent_per_sec: f64::NAN,
                    mib_per_sec: -1.0,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let problems = all.validate().unwrap_err();
        assert_eq!(problems.len(), 5, "{problems:?}");
        assert_eq!(FaasMemPolicy::with_config(all).unwrap_err(), problems);
    }

    #[test]
    fn reactive_offload_fires_after_first_request() {
        let (report, stats) = run("json", &[10]);
        // The json runtime is mostly cold: a big chunk must be remote
        // right after request #1.
        assert!(report.pool_stats.bytes_out > 0);
        assert_eq!(
            stats.borrow().runtime_offloads.get(&FunctionId(0)),
            Some(&1)
        );
        // Local memory after the first request must be well below the
        // base footprint (30 MiB runtime of which 24 MiB cold).
        let local_after = report
            .local_mem
            .value_at(SimTime::from_secs(20))
            .expect("recorded");
        let base = (BenchmarkSpec::by_name("json").unwrap().base_mib() * 1024 * 1024) as f64;
        assert!(
            local_after < base * 0.5,
            "local {local_after} vs base {base}"
        );
    }

    #[test]
    fn subsequent_requests_avoid_mass_recalls() {
        let (report, stats) = run("json", &[10, 40, 70, 100, 130]);
        assert_eq!(report.requests_completed, 5);
        // Fig 8: after the reactive offload, requests should hardly ever
        // fault runtime pages back.
        let recalls = stats
            .borrow()
            .runtime_recalls
            .get(&FunctionId(0))
            .copied()
            .unwrap_or(0);
        assert!(recalls <= 3, "recalls {recalls}");
        // And the warm requests keep baseline-level latency.
        let warm_faults: u32 = report
            .requests
            .iter()
            .filter(|r| !r.cold)
            .map(|r| r.faults)
            .sum();
        assert!(warm_faults <= 4, "warm faults {warm_faults}");
    }

    #[test]
    fn window_closes_and_offloads_init() {
        // 20 warm requests: enough to hit the 20-request window cap even
        // if Web's Pareto accesses keep surfacing fresh objects, so the
        // window is guaranteed to close for any RNG stream.
        let times: Vec<u64> = (0..20).map(|i| 10 + 20 * i).collect();
        let (_, stats) = run("web", &times);
        let windows = stats.borrow().windows_chosen.clone();
        assert!(
            !windows.is_empty(),
            "window must close within the 20-request cap"
        );
        let (_, w) = windows[0];
        assert!((1..=20).contains(&w));
    }

    #[test]
    fn semiwarm_drains_idle_container() {
        // One request, then a long idle: the default semi-warm start is
        // 240 s (`DEFAULT_START`), so by 500 s the container should be
        // substantially drained.
        let (report, stats) = run("bert", &[10]);
        assert!(stats.borrow().semi_warm_bytes > 0, "semi-warm must offload");
        let late_local = report.local_mem.value_at(SimTime::from_secs(500)).unwrap();
        let early_local = report.local_mem.value_at(SimTime::from_secs(30)).unwrap();
        assert!(
            late_local < early_local * 0.8,
            "late {late_local} vs early {early_local}"
        );
        // Semi-warm time is recorded at recycle.
        let recs = stats.borrow().semi_warm_records.clone();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].semi_warm_time > SimDuration::from_secs(100));
    }

    #[test]
    fn request_cancels_semiwarm_and_recalls_pages() {
        // Idle long enough to drain, then a second request.
        let (report, _) = run("bert", &[10, 400]);
        let second = report.requests.iter().nth(1).expect("two requests");
        assert!(!second.cold);
        assert!(second.faults > 0, "semi-warm start must recall hot pages");
        // The recall makes it slower than a pure warm hit but far
        // cheaper than a cold start (which costs ~6 s for bert).
        assert!(second.latency < SimDuration::from_secs(3));
    }

    #[test]
    fn ablation_without_pucket_keeps_memory_until_semiwarm() {
        let run_with = |config: FaasMemConfig| {
            let policy = FaasMemPolicy::with_config(config).unwrap();
            let mut sim = PlatformSim::builder()
                .register_function(BenchmarkSpec::by_name("json").unwrap())
                .policy(policy)
                .seed(5)
                .build();
            let t = trace(&[10, 30]);
            sim.run(&t)
        };
        let with_pucket = run_with(FaasMemConfig::default());
        let without = run_with(FaasMemConfig {
            enable_pucket: false,
            ..Default::default()
        });
        // Early local memory (before semi-warm kicks in at 240 s idle):
        // pucket variant must already be lower.
        let at = SimTime::from_secs(45);
        let a = with_pucket.local_mem.value_at(at).unwrap();
        let b = without.local_mem.value_at(at).unwrap();
        assert!(a < b, "pucket {a} vs no-pucket {b}");
    }

    #[test]
    fn ablation_without_semiwarm_never_drains_idle() {
        let policy = FaasMemPolicy::with_config(FaasMemConfig {
            enable_semiwarm: false,
            ..Default::default()
        })
        .unwrap();
        let stats = policy.stats();
        let mut sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("bert").unwrap())
            .policy(policy)
            .seed(5)
            .build();
        let report = sim.run(&trace(&[10]));
        assert_eq!(stats.borrow().semi_warm_bytes, 0);
        // Hot init pages stay resident until recycle.
        let late = report.local_mem.value_at(SimTime::from_secs(500)).unwrap();
        assert!(
            late > 300.0 * 1024.0 * 1024.0,
            "hot set resident, got {late}"
        );
    }

    #[test]
    fn names_reflect_ablation() {
        assert_eq!(FaasMemPolicy::new().name(), "FaaSMem");
        let name = |enable_pucket, enable_semiwarm| {
            FaasMemPolicy::with_config(FaasMemConfig {
                enable_pucket,
                enable_semiwarm,
                ..Default::default()
            })
            .unwrap()
            .name()
        };
        assert_eq!(name(false, true), "FaaSMem w/o Pucket");
        assert_eq!(name(true, false), "FaaSMem w/o Semi-warm");
        assert_eq!(name(false, false), "FaaSMem w/o Pucket+Semi-warm");
    }

    #[test]
    fn rollback_happens_under_sustained_load() {
        let times: Vec<u64> = (0..40).map(|i| 10 + i * 15).collect();
        let (_, stats) = run("web", &times);
        assert!(
            stats.borrow().rollbacks >= 1,
            "sustained load must roll back"
        );
    }

    #[test]
    fn cold_start_aware_timing_is_more_pessimistic() {
        // A bursty pattern: tight clusters of requests with cold starts
        // in between (cluster gaps beyond keep-alive but below the
        // censor cap).
        let build = |aware: bool| {
            let mut config = FaasMemConfig::default();
            config.semiwarm.cold_start_aware = aware;
            let policy = FaasMemPolicy::with_config(config).unwrap();
            let stats = policy.stats();
            let mut sim = PlatformSim::builder()
                .register_function(BenchmarkSpec::by_name("json").unwrap())
                .policy(policy)
                .seed(5)
                .build();
            let mut times = Vec::new();
            for cluster in 0..4u64 {
                for i in 0..8u64 {
                    times.push(10 + cluster * 650 + i * 5);
                }
            }
            let report = sim.run(&trace(&times));
            (report, stats)
        };
        let (_r_base, s_base) = build(false);
        let (_r_aware, s_aware) = build(true);
        // The aware variant pushes the semi-warm start out (its reuse CDF
        // now contains the ~650 s censored cold-start gaps), so it drains
        // strictly less during the keep-alive windows.
        let base_bytes = s_base.borrow().semi_warm_bytes;
        let aware_bytes = s_aware.borrow().semi_warm_bytes;
        assert!(
            aware_bytes < base_bytes,
            "aware {aware_bytes} should drain less than base {base_bytes}"
        );
    }

    #[test]
    fn recall_prefetch_eliminates_demand_faults_on_semiwarm_hit() {
        // One request, a long idle that drains the container, then a
        // second request: without prefetch it demand-faults the hot set;
        // with prefetch the batch restores it first.
        let run_with = |prefetch: bool| {
            let mut config = FaasMemConfig::default();
            config.semiwarm.recall_prefetch = prefetch;
            let policy = FaasMemPolicy::with_config(config).unwrap();
            let mut sim = PlatformSim::builder()
                .register_function(BenchmarkSpec::by_name("bert").unwrap())
                .policy(policy)
                .seed(5)
                .build();
            sim.run(&trace(&[10, 500]))
        };
        let plain = run_with(false);
        let prefetched = run_with(true);
        let second_faults =
            |r: &faasmem_faas::RunReport| r.requests.iter().nth(1).expect("two requests").faults;
        assert!(
            second_faults(&plain) > 500,
            "plain faults {}",
            second_faults(&plain)
        );
        assert!(
            second_faults(&prefetched) < second_faults(&plain) / 5,
            "prefetched faults {} vs plain {}",
            second_faults(&prefetched),
            second_faults(&plain)
        );
        // Both recall the data (bytes_in comparable).
        assert!(prefetched.pool_stats.bytes_in >= plain.pool_stats.bytes_in / 2);
    }

    #[test]
    fn bandwidth_governor_throttles_simultaneous_drains() {
        // §6.2: when a burst makes many containers semi-warm at once, the
        // governor uniformly slows their gradual offload near link
        // saturation. Compare total drain progress over a fixed window on
        // a fast vs a nearly saturated link.
        use faasmem_pool::PoolConfig;
        let run_with_pool = |pool: PoolConfig| {
            let policy = FaasMemPolicy::new();
            let stats = policy.stats();
            let config = faasmem_faas::PlatformConfig {
                pool,
                ..Default::default()
            };
            let mut sim = PlatformSim::builder()
                .register_function(BenchmarkSpec::by_name("bert").unwrap())
                .config(config)
                .policy(policy)
                .seed(5)
                .build();
            // Eight concurrent requests spawn eight containers, which all
            // go semi-warm together after the default 240 s.
            let times: Vec<u64> = vec![10; 8];
            let _ = sim.run(&trace(&times));
            let bytes = stats.borrow().semi_warm_bytes;
            bytes
        };
        let fast = run_with_pool(PoolConfig::infiniband_56g());
        // A link whose capacity is close to the aggregate drain rate:
        // the governor's throttle must visibly reduce progress.
        let slow = run_with_pool(PoolConfig {
            link_bytes_per_sec: 10 * 1024 * 1024, // 10 MiB/s
            ..PoolConfig::infiniband_56g()
        });
        assert!(
            slow < fast,
            "throttled drain {slow} must trail unthrottled {fast}"
        );
    }

    #[test]
    fn p95_latency_stays_near_baseline() {
        let times: Vec<u64> = (0..50).map(|i| 10 + i * 20).collect();
        let (mut faasmem_report, _) = run("json", &times);
        let mut base_sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("json").unwrap())
            .seed(5)
            .build();
        let mut base_report = base_sim.run(&trace(&times));
        let p95_f = faasmem_report.p95_latency().as_secs_f64();
        let p95_b = base_report.p95_latency().as_secs_f64();
        assert!(
            p95_f <= p95_b * 1.15,
            "FaaSMem P95 {p95_f} vs baseline {p95_b} (paper: ≤ ~10% increase)"
        );
        // And it must save real memory.
        assert!(faasmem_report.avg_local_mib() < base_report.avg_local_mib() * 0.8);
    }
}
