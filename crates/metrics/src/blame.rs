//! Per-invocation latency blame: exact decomposition of end-to-end
//! latency into named causal components.
//!
//! The platform charges every invocation a measured end-to-end latency;
//! this module splits that latency into *components* — queueing,
//! cold-start, pure execution, and the stall families the memory-pool
//! architecture introduces (page-fault CPU, remote recall stalls,
//! failover detours, abandoned waits, forced rebuilds). The split obeys
//! an **exact conservation invariant**: for every invocation the
//! components, in integer microseconds, sum to the measured latency —
//! not approximately, exactly. The platform records each component as
//! the very [`SimDuration`] addend the simulator folds into the
//! invocation's timeline, so conservation is structural, and a property
//! test pins it.
//!
//! Aggregation answers two questions per run:
//!
//! * *distribution*: per-component AVG/P50/P95/P99 over all invocations
//!   (zeros included, so a rare-but-huge component shows a zero median
//!   and a violent P99 — exactly the shape that matters);
//! * *tail attribution*: the mean of every component over the slowest
//!   1% of invocations, i.e. "where does P99 come from?".
//!
//! Everything here is integer arithmetic over samples recorded in the
//! simulator's deterministic `(sim_time, seq)` event order, so reports
//! are byte-identical across `--jobs` like every other subsystem.

use crate::latency::{LatencyRecorder, LatencySummary};
use faasmem_sim::SimDuration;

/// The named causes an invocation's latency is charged to.
///
/// `Queue` and `ColdStart` cover the pre-execution segment, `Exec` the
/// jitter-scaled service time, and the remaining five are the stall
/// families the remote memory pool can inject at execution start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlameComponent {
    /// Time between arrival and the start of container provisioning
    /// (zero on today's single-node platform; the seam the cluster
    /// scheduler will fill).
    Queue,
    /// Cold-start provisioning: runtime launch plus initialization.
    ColdStart,
    /// Pure execution time (jittered service time, stalls excluded).
    Exec,
    /// CPU cost of servicing page faults (local and remote).
    FaultCpu,
    /// Wall time stalled waiting on remote page transfers, including
    /// retry backoff of the resilient page-in path.
    RecallStall,
    /// Extra penalty of recalling from a redundancy replica after the
    /// primary pool node died or the breaker forced a detour.
    FailoverDetour,
    /// Time wasted on a recall attempt that ultimately gave up.
    AbandonedWait,
    /// Slow-path cold rebuild after remote state was lost beyond
    /// recovery.
    ForcedRebuild,
}

/// Number of blame components; the length of every per-component array.
pub const BLAME_COMPONENTS: usize = 8;

impl BlameComponent {
    /// Every component, in canonical (reporting) order.
    pub const ALL: [BlameComponent; BLAME_COMPONENTS] = [
        BlameComponent::Queue,
        BlameComponent::ColdStart,
        BlameComponent::Exec,
        BlameComponent::FaultCpu,
        BlameComponent::RecallStall,
        BlameComponent::FailoverDetour,
        BlameComponent::AbandonedWait,
        BlameComponent::ForcedRebuild,
    ];

    /// Stable snake_case name used in JSON exports and query filters.
    pub fn name(self) -> &'static str {
        match self {
            BlameComponent::Queue => "queue",
            BlameComponent::ColdStart => "cold_start",
            BlameComponent::Exec => "exec",
            BlameComponent::FaultCpu => "fault_cpu",
            BlameComponent::RecallStall => "recall_stall",
            BlameComponent::FailoverDetour => "failover_detour",
            BlameComponent::AbandonedWait => "abandoned_wait",
            BlameComponent::ForcedRebuild => "forced_rebuild",
        }
    }

    /// Parses a component from its canonical name.
    pub fn from_name(name: &str) -> Option<BlameComponent> {
        BlameComponent::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Position in [`BlameComponent::ALL`] (and every component array).
    pub fn index(self) -> usize {
        BlameComponent::ALL
            .iter()
            .position(|&c| c == self)
            .expect("component in ALL")
    }
}

/// One invocation's latency split into components (integer micros).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlameBreakdown {
    parts: [u64; BLAME_COMPONENTS],
}

impl BlameBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a duration to one component.
    pub fn charge(&mut self, component: BlameComponent, amount: SimDuration) {
        self.parts[component.index()] += amount.as_micros();
    }

    /// The amount charged to one component.
    pub fn get(&self, component: BlameComponent) -> SimDuration {
        SimDuration::from_micros(self.parts[component.index()])
    }

    /// Sum of all components — by the conservation invariant, the
    /// invocation's measured end-to-end latency.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.parts.iter().sum())
    }

    /// Raw per-component microsecond values in [`BlameComponent::ALL`]
    /// order.
    pub fn parts(&self) -> &[u64; BLAME_COMPONENTS] {
        &self.parts
    }
}

/// Collects per-invocation breakdowns during a run and folds them into
/// a [`BlameReport`] at the end.
///
/// Breakdowns must be recorded in the deterministic event order the
/// simulator completes invocations in; the accumulator adds no ordering
/// of its own, so the resulting report is a pure function of the run.
#[derive(Debug, Clone, Default)]
pub struct BlameAccumulator {
    /// `(end-to-end latency in micros, breakdown)` per invocation, in
    /// completion order.
    samples: Vec<(u64, BlameBreakdown)>,
    /// Invocations whose components failed to sum to the measured
    /// latency. Always zero when the platform keeps its conservation
    /// contract; surfaced in the report so a violation cannot hide.
    conservation_violations: u64,
}

impl BlameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed invocation.
    ///
    /// Checks conservation (`breakdown.total() == latency`) and counts —
    /// never drops — violating samples, so the invariant is observable
    /// in the report and enforceable in tests.
    pub fn record(&mut self, latency: SimDuration, breakdown: BlameBreakdown) {
        if breakdown.total() != latency {
            self.conservation_violations += 1;
        }
        debug_assert_eq!(
            breakdown.total(),
            latency,
            "blame components must sum exactly to the measured latency"
        );
        self.samples.push((latency.as_micros(), breakdown));
    }

    /// Number of invocations recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Folds all recorded invocations into a report.
    ///
    /// The tail set is the slowest `ceil(1%)` of invocations (at least
    /// one when any exist); ties at the cutoff break by completion
    /// order, which is itself deterministic.
    pub fn report(&self) -> BlameReport {
        let mut report = BlameReport::empty();
        report.invocations = self.samples.len() as u64;
        report.conservation_violations = self.conservation_violations;
        if self.samples.is_empty() {
            return report;
        }

        let mut recorders: [LatencyRecorder; BLAME_COMPONENTS] = Default::default();
        for (_, breakdown) in &self.samples {
            for (i, &part) in breakdown.parts().iter().enumerate() {
                recorders[i].record(SimDuration::from_micros(part));
            }
        }

        // Slowest 1%: stable sort on latency keeps completion order
        // among ties, so the selected set is deterministic.
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        order.sort_by_key(|&i| self.samples[i].0);
        let tail_n = self.samples.len().div_ceil(100).max(1);
        let tail = &order[self.samples.len() - tail_n..];

        let mut tail_latency_sum: u128 = 0;
        let mut tail_part_sums = [0u128; BLAME_COMPONENTS];
        for &i in tail {
            let (latency, breakdown) = &self.samples[i];
            tail_latency_sum += u128::from(*latency);
            for (acc, &part) in tail_part_sums.iter_mut().zip(breakdown.parts()) {
                *acc += u128::from(part);
            }
        }

        report.tail_invocations = tail_n as u64;
        report.tail_cutoff = SimDuration::from_micros(self.samples[tail[0]].0);
        report.tail_mean_latency =
            SimDuration::from_micros((tail_latency_sum / tail_n as u128) as u64);
        for (i, component) in report.components.iter_mut().enumerate() {
            component.dist = recorders[i].summary();
            component.total = SimDuration::from_micros(
                self.samples.iter().map(|(_, b)| b.parts()[i]).sum::<u64>(),
            );
            component.tail_mean =
                SimDuration::from_micros((tail_part_sums[i] / tail_n as u128) as u64);
        }
        report
    }
}

/// One component's aggregate view in a [`BlameReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBlame {
    /// Sum of this component over every invocation.
    pub total: SimDuration,
    /// Distribution over all invocations (zeros included).
    pub dist: LatencySummary,
    /// Mean of this component over the slowest-1% tail set.
    pub tail_mean: SimDuration,
}

impl ComponentBlame {
    fn empty() -> Self {
        ComponentBlame {
            total: SimDuration::ZERO,
            dist: LatencySummary::empty(),
            tail_mean: SimDuration::ZERO,
        }
    }
}

/// The run-level blame digest: per-component distributions plus tail
/// attribution. `Copy` so it rides along in `RunSummary` like the fault
/// and durability blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlameReport {
    /// Invocations the report covers.
    pub invocations: u64,
    /// Size of the slowest-1% tail set.
    pub tail_invocations: u64,
    /// End-to-end latency of the fastest tail member (the P99-ish
    /// cutoff the tail attribution is conditioned on).
    pub tail_cutoff: SimDuration,
    /// Mean end-to-end latency over the tail set.
    pub tail_mean_latency: SimDuration,
    /// Invocations that violated conservation (zero by contract).
    pub conservation_violations: u64,
    /// Per-component aggregates in [`BlameComponent::ALL`] order.
    pub components: [ComponentBlame; BLAME_COMPONENTS],
}

impl BlameReport {
    /// A report over zero invocations.
    pub fn empty() -> Self {
        BlameReport {
            invocations: 0,
            tail_invocations: 0,
            tail_cutoff: SimDuration::ZERO,
            tail_mean_latency: SimDuration::ZERO,
            conservation_violations: 0,
            components: [ComponentBlame::empty(); BLAME_COMPONENTS],
        }
    }

    /// One component's aggregate.
    pub fn component(&self, component: BlameComponent) -> &ComponentBlame {
        &self.components[component.index()]
    }

    /// This component's share of the tail set's mean latency, in
    /// `[0, 1]` (0 when the tail is empty).
    pub fn tail_share(&self, component: BlameComponent) -> f64 {
        let mean = self.tail_mean_latency.as_micros();
        if mean == 0 {
            return 0.0;
        }
        self.component(component).tail_mean.as_micros() as f64 / mean as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn breakdown(parts: &[(BlameComponent, u64)]) -> BlameBreakdown {
        let mut b = BlameBreakdown::new();
        for &(c, v) in parts {
            b.charge(c, us(v));
        }
        b
    }

    #[test]
    fn component_names_roundtrip() {
        for c in BlameComponent::ALL {
            assert_eq!(BlameComponent::from_name(c.name()), Some(c));
            assert_eq!(BlameComponent::ALL[c.index()], c);
        }
        assert_eq!(BlameComponent::from_name("nope"), None);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = breakdown(&[
            (BlameComponent::ColdStart, 700),
            (BlameComponent::Exec, 250),
            (BlameComponent::RecallStall, 50),
        ]);
        assert_eq!(b.total(), us(1000));
        assert_eq!(b.get(BlameComponent::ColdStart), us(700));
        assert_eq!(b.get(BlameComponent::Queue), us(0));
    }

    #[test]
    fn empty_accumulator_reports_zeros() {
        let report = BlameAccumulator::new().report();
        assert_eq!(report.invocations, 0);
        assert_eq!(report.tail_invocations, 0);
        assert_eq!(report.conservation_violations, 0);
        assert_eq!(report.tail_share(BlameComponent::Exec), 0.0);
    }

    #[test]
    fn tail_attribution_isolates_the_slow_one_percent() {
        let mut acc = BlameAccumulator::new();
        // 99 fast invocations: pure exec.
        for _ in 0..99 {
            acc.record(us(100), breakdown(&[(BlameComponent::Exec, 100)]));
        }
        // One slow invocation dominated by a forced rebuild.
        acc.record(
            us(10_000),
            breakdown(&[
                (BlameComponent::Exec, 100),
                (BlameComponent::ForcedRebuild, 9_900),
            ]),
        );
        let report = acc.report();
        assert_eq!(report.invocations, 100);
        assert_eq!(report.tail_invocations, 1);
        assert_eq!(report.tail_cutoff, us(10_000));
        assert_eq!(report.tail_mean_latency, us(10_000));
        assert_eq!(
            report.component(BlameComponent::ForcedRebuild).tail_mean,
            us(9_900)
        );
        assert_eq!(report.component(BlameComponent::Exec).tail_mean, us(100));
        assert!(report.tail_share(BlameComponent::ForcedRebuild) > 0.98);
        // Distribution over all invocations still sees the rebuild only
        // at the extreme quantile.
        let rebuild = report.component(BlameComponent::ForcedRebuild).dist;
        assert_eq!(rebuild.p50, us(0));
        assert_eq!(rebuild.p99, us(0));
        assert_eq!(
            report.component(BlameComponent::ForcedRebuild).total,
            us(9_900)
        );
    }

    #[test]
    fn tail_is_ceil_of_one_percent_and_at_least_one() {
        let mut acc = BlameAccumulator::new();
        for i in 0..250u64 {
            acc.record(us(i + 1), breakdown(&[(BlameComponent::Exec, i + 1)]));
        }
        let report = acc.report();
        // ceil(250 / 100) = 3 slowest: 248, 249, 250.
        assert_eq!(report.tail_invocations, 3);
        assert_eq!(report.tail_cutoff, us(248));
        assert_eq!(report.tail_mean_latency, us(249));

        let mut tiny = BlameAccumulator::new();
        tiny.record(us(5), breakdown(&[(BlameComponent::Exec, 5)]));
        assert_eq!(tiny.report().tail_invocations, 1);
    }

    #[test]
    fn conservation_violations_are_counted() {
        let mut acc = BlameAccumulator::new();
        let b = breakdown(&[(BlameComponent::Exec, 90)]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            acc.record(us(100), b);
        }));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug build must assert on violation");
        } else {
            assert!(result.is_ok());
            assert_eq!(acc.report().conservation_violations, 1);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_report_tail_means_sum_to_tail_latency(
            samples in proptest::collection::vec(
                (0u64..2_000, 0u64..500, 0u64..300), 1..200)
        ) {
            // Conservation in, conservation out: when every recorded
            // breakdown sums to its latency, the tail attribution's
            // component means sum back to the tail's mean latency
            // (up to the integer floor of each mean).
            let mut acc = BlameAccumulator::new();
            for &(exec, cold, stall) in &samples {
                let b = breakdown(&[
                    (BlameComponent::Exec, exec),
                    (BlameComponent::ColdStart, cold),
                    (BlameComponent::RecallStall, stall),
                ]);
                acc.record(b.total(), b);
            }
            let report = acc.report();
            proptest::prop_assert_eq!(report.conservation_violations, 0);
            let sum: u64 = BlameComponent::ALL
                .iter()
                .map(|&c| report.component(c).tail_mean.as_micros())
                .sum();
            let mean = report.tail_mean_latency.as_micros();
            // Each of the 8 means floors independently.
            proptest::prop_assert!(sum <= mean && mean - sum < BLAME_COMPONENTS as u64);
        }
    }
}
