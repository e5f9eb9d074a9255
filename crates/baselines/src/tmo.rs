//! A TMO-like feedback-based offloading policy.
//!
//! TMO ("Transparent Memory Offloading", Weiner et al., ASPLOS'22)
//! offloads memory *step by step* and uses Pressure Stall Information to
//! stop when applications slow down. The paper characterises it as
//! offloading "only 0.05% of the total memory every 6 seconds", capping a
//! 10-minute period at ~3% (§2.2) — safe for long-running services, far
//! too timid for serverless containers that live tens of minutes.

use std::collections::HashMap;

use faasmem_faas::{ContainerId, MemoryPolicy, PolicyCtx};
use faasmem_mem::PageId;
use faasmem_sim::{SimDuration, SimTime};

/// Configuration of the TMO-like policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TmoConfig {
    /// Offload period (paper: 6 s).
    pub period: SimDuration,
    /// Fraction of resident memory offloaded per period (paper: 0.05%).
    pub step_fraction: f64,
    /// Pages must have been idle for this many aging scans before TMO
    /// considers them reclaimable.
    pub idle_threshold: u8,
    /// Pressure threshold: if the last request spent more than this
    /// fraction of its service time stalled on remote faults, offloading
    /// pauses.
    pub pressure_threshold: f64,
    /// How long offloading stays paused after a pressure event.
    pub backoff: SimDuration,
}

impl Default for TmoConfig {
    fn default() -> Self {
        TmoConfig {
            period: SimDuration::from_secs(6),
            step_fraction: 0.0005,
            idle_threshold: 2,
            pressure_threshold: 0.05,
            backoff: SimDuration::from_secs(60),
        }
    }
}

/// The TMO-like policy. See the [module docs](self) for behaviour.
#[derive(Debug, Default)]
pub struct TmoPolicy {
    config: TmoConfig,
    /// Per-container: paused-until timestamp and fractional-page carry.
    state: HashMap<ContainerId, TmoState>,
    /// Reused cold-page buffer; keeps the per-tick scan allocation-free.
    scratch: Vec<PageId>,
}

#[derive(Debug, Default, Clone, Copy)]
struct TmoState {
    paused_until: Option<SimTime>,
    carry: f64,
}

impl TmoPolicy {
    /// Creates the policy with the paper's constants.
    pub fn new(config: TmoConfig) -> Self {
        TmoPolicy {
            config,
            state: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TmoConfig {
        &self.config
    }
}

impl MemoryPolicy for TmoPolicy {
    fn name(&self) -> &'static str {
        "TMO"
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        Some(self.config.period)
    }

    fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
        // Pressure feedback: a request that stalled too long on faults
        // pauses reclaim for this container.
        let spec_time = ctx.container.spec().exec_time.as_secs_f64();
        let stall = ctx.container.last_request_stall().as_secs_f64();
        if spec_time > 0.0 && stall / spec_time > self.config.pressure_threshold {
            let until = ctx.now + self.config.backoff;
            self.state
                .entry(ctx.container.id())
                .or_default()
                .paused_until = Some(until);
        }
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        let id = ctx.container.id();
        let entry = self.state.entry(id).or_default();
        if let Some(until) = entry.paused_until {
            if ctx.now < until {
                return;
            }
            entry.paused_until = None;
        }
        let resident = ctx.container.table().local_bytes() + ctx.container.table().remote_bytes();
        let page_size = ctx.container.table().page_size();
        let budget_bytes = resident as f64 * self.config.step_fraction + entry.carry;
        let budget_pages = (budget_bytes / page_size as f64).floor();
        entry.carry = budget_bytes - budget_pages * page_size as f64;
        // Age every page, so idleness accumulates even when the budget
        // is zero, but collect only the budget's coldest-first prefix.
        ctx.container.table_mut().age_and_collect_idle_into(
            self.config.idle_threshold,
            budget_pages as usize,
            &mut self.scratch,
        );
        if self.scratch.is_empty() {
            return;
        }
        ctx.offload_pages(&self.scratch);
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.state.remove(&ctx.container.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_faas::{FunctionId, PlatformSim};
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

    fn run(policy: TmoPolicy, times: &[u64]) -> faasmem_faas::RunReport {
        let mut sim = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("bert").unwrap())
            .policy(policy)
            .seed(5)
            .build();
        sim.run(&trace(times))
    }

    #[test]
    fn offloads_slowly() {
        let report = run(TmoPolicy::default(), &[10]);
        assert!(
            report.pool_stats.bytes_out > 0,
            "TMO must offload something"
        );
        // 0.05%/6s over ~10 min keep-alive caps around 5% of resident.
        let resident = 1_200.0; // bert ≈ 1.1 GiB resident in MiB
        let offloaded_mib = report.pool_stats.bytes_out as f64 / (1024.0 * 1024.0);
        assert!(
            offloaded_mib < resident * 0.08,
            "TMO offloaded {offloaded_mib} MiB — too aggressive"
        );
    }

    #[test]
    fn latency_stays_at_baseline_level() {
        let times: Vec<u64> = (0..30).map(|i| 10 + i * 20).collect();
        let mut tmo_report = run(TmoPolicy::default(), &times);
        let mut base = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("bert").unwrap())
            .seed(5)
            .build();
        let mut base_report = base.run(&trace(&times));
        let p95_t = tmo_report.p95_latency().as_secs_f64();
        let p95_b = base_report.p95_latency().as_secs_f64();
        assert!(p95_t <= p95_b * 1.1, "TMO P95 {p95_t} vs baseline {p95_b}");
    }

    #[test]
    fn pressure_pauses_reclaim() {
        // Any stall triggers a (practically permanent) pause, with
        // aggressive stepping so a stall actually occurs.
        let config = TmoConfig {
            pressure_threshold: 0.0,
            backoff: SimDuration::from_secs(10_000),
            step_fraction: 0.05,
            idle_threshold: 1,
            ..TmoConfig::default()
        };
        let report = run(TmoPolicy::new(config.clone()), &[10, 300, 600]);
        // After the first stalled request, reclaim pauses; compare with
        // the never-paused variant.
        let free_running = TmoConfig {
            pressure_threshold: 1.0,
            step_fraction: 0.05,
            idle_threshold: 1,
            ..TmoConfig::default()
        };
        let report_free = run(TmoPolicy::new(free_running), &[10, 300, 600]);
        assert!(
            report.pool_stats.bytes_out < report_free.pool_stats.bytes_out,
            "paused {} vs free {}",
            report.pool_stats.bytes_out,
            report_free.pool_stats.bytes_out
        );
    }

    #[test]
    fn default_config_matches_paper() {
        let c = TmoConfig::default();
        assert_eq!(c.period, SimDuration::from_secs(6));
        assert!((c.step_fraction - 0.0005).abs() < 1e-12);
    }
}
