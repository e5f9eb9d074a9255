//! The platform simulator: event loop, routing, keep-alive.

use std::collections::HashMap;

use faasmem_mem::{mib_to_pages, FlowMatrix};
use faasmem_metrics::{
    slo, BlameAccumulator, BlameBreakdown, BlameComponent, Cdf, WasteAccumulator, WasteComponent,
    WasteLedger,
};
use faasmem_pool::{
    BandwidthGovernor, CircuitBreaker, FabricConfig, PoolConfig, PoolFabric, RecallOutcome,
    RemoteFaultPolicy, RemotePool,
};
use faasmem_sim::faults::{FaultPlan, FaultSpec};
use faasmem_sim::{Clock, EventQueue, SimDuration, SimRng, SimTime};
use faasmem_telemetry::{Sampler, SeriesGroup};
use faasmem_trace::{EventKind, StallCause, Tracer};
use faasmem_workload::{AccessPlanner, BenchmarkSpec, FunctionId, InvocationTrace};

use crate::container::{touch_request, Container, ContainerId, ContainerStage};
use crate::keepalive::AdaptiveKeepAlive;
use crate::policy::{MemoryPolicy, NullPolicy, PolicyCtx};
use crate::report::{
    ContainerRecord, DurabilityReport, FaultReport, FunctionWaste, MemoryAnatomyReport,
    RequestRecord, RunReport,
};
use crate::residency::{Residency, ResidencyLedger, Tally};

/// Platform-wide configuration.
///
/// The default page size is 64 KiB rather than the kernel's 4 KiB: the
/// policies operate on page *sets*, so a 16× coarser granularity preserves
/// every decision boundary while keeping multi-gigabyte, hour-long traces
/// fast to simulate. Experiments that measure per-page costs (the Fig 15
/// overhead benches) use 4 KiB explicitly.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Bytes per simulated page.
    pub page_size: u64,
    /// Keep-alive timeout before an idle container is recycled
    /// (the paper's platform uses 10 minutes, §8.1).
    pub keep_alive: SimDuration,
    /// Remote pool and interconnect model.
    pub pool: PoolConfig,
    /// Multi-node pool fabric: placement, redundancy and repair. The
    /// default (one node, no redundancy) builds no fabric at all, so
    /// pre-fabric configurations stay byte-identical.
    pub fabric: FabricConfig,
    /// FAASM-style runtime sharing (paper §9, "Memory sharing in
    /// serverless"): containers of the same function map one shared copy
    /// of the runtime segment, so node-local accounting counts each
    /// function's runtime once instead of per container. Orthogonal to —
    /// and combinable with — FaaSMem's offloading.
    pub share_runtime: bool,
    /// Hybrid-histogram keep-alive (paper §10's related work): when on,
    /// each function's timeout adapts to its observed idle-before-reuse
    /// distribution ([`AdaptiveKeepAlive`]) instead of the fixed
    /// `keep_alive`.
    pub adaptive_keep_alive: bool,
    /// RNG seed for all platform randomness.
    pub seed: u64,
    /// Seeded fault injection and the degradation policy reacting to it.
    /// `None` (the default) runs the healthy platform with zero fault
    /// machinery on any hot path.
    pub faults: Option<FaultConfig>,
    /// Per-invocation latency blame: decompose every request's
    /// end-to-end latency into named causal components (queue,
    /// cold-start, exec, and the stall families) and aggregate them
    /// into the report's blame block. Pure observation — no RNG draws,
    /// no extra events — so enabling it cannot perturb the run; off by
    /// default so pre-blame artifacts stay byte-identical by omission.
    pub blame: bool,
    /// Byte-second memory anatomy: integrate resident memory over sim
    /// time and decompose it into named occupancy components (active
    /// exec, keep-alive idle, init overhead, hot pool, pool primary,
    /// redundancy, repair backlog, in-flight), with the page-lifecycle
    /// flow matrix alongside. Pure observation like `blame` — no RNG
    /// draws, no extra events — and off by default so pre-anatomy
    /// artifacts stay byte-identical by omission.
    pub memory_anatomy: bool,
}

/// Sliding window of the offload-bandwidth governor.
const GOVERNOR_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Log-normal sigma of execution-time jitter.
const EXEC_JITTER_SIGMA: f64 = 0.05;

/// CPU cost of handling one demand fault (trap + mapping), in
/// microseconds. Charged per faulted page and divided by the
/// container's CPU share: fault handling is kernel work accounted to
/// the (CPU-capped) container cgroup, which is why 0.1-core
/// micro-benchmarks suffer the worst blow-ups in the paper's Fig 2.
const FAULT_CPU_MICROS: u64 = 8;

/// Fault injection plus the platform's reaction policy.
///
/// The fault timeline derives from [`FaultConfig::spec`]'s own seed, not
/// the platform seed, so enabling faults never perturbs the platform's
/// jitter stream and healthy runs stay byte-identical.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Hazard rates; expanded to a timeline at run start.
    pub spec: FaultSpec,
    /// Timeout/backoff/circuit-breaker policy for remote page-ins.
    pub policy: RemoteFaultPolicy,
    /// Latency objective to measure violations against, if any.
    pub slo: Option<SimDuration>,
    /// Exact timeline to use instead of expanding `spec` — for tests
    /// that need a hand-built schedule (e.g. the empty plan).
    pub plan_override: Option<FaultPlan>,
}

impl PlatformConfig {
    /// Checks the configuration, returning every problem found so a bad
    /// grid fails at startup with messages instead of a backtrace
    /// mid-run.
    ///
    /// # Errors
    ///
    /// `Err` carries one human-readable message per problem.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if self.page_size == 0 {
            problems.push("platform config: page size must be positive".into());
        }
        problems.extend(self.pool.validate());
        problems.extend(self.fabric.validate());
        if let Some(fc) = &self.faults {
            problems.extend(fc.spec.validate());
            problems.extend(fc.policy.validate());
            if fc.slo == Some(SimDuration::ZERO) {
                problems.push("platform config: SLO threshold must be positive".into());
            }
            if fc.spec.pool_node_loss_mtbf.is_some() && fc.spec.pool_node_count != self.fabric.nodes
            {
                problems.push(format!(
                    "platform config: fault spec draws pool-node losses over {} nodes but the fabric has {}",
                    fc.spec.pool_node_count, self.fabric.nodes
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            page_size: 64 * 1024,
            keep_alive: SimDuration::from_mins(10),
            pool: PoolConfig::default(),
            fabric: FabricConfig::default(),
            share_runtime: false,
            adaptive_keep_alive: false,
            seed: 0xFAA5,
            faults: None,
            blame: false,
            memory_anatomy: false,
        }
    }
}

/// Builder for [`PlatformSim`].
pub struct PlatformBuilder {
    config: PlatformConfig,
    specs: Vec<BenchmarkSpec>,
    policy: Box<dyn MemoryPolicy>,
    tracer: Tracer,
    sampler: Sampler,
}

impl PlatformBuilder {
    fn new() -> Self {
        PlatformBuilder {
            config: PlatformConfig::default(),
            specs: Vec::new(),
            policy: Box::new(NullPolicy),
            tracer: Tracer::disabled(),
            sampler: Sampler::disabled(),
        }
    }

    /// Registers a function; functions get sequential [`FunctionId`]s in
    /// registration order (matching trace synthesis).
    pub fn register_function(mut self, spec: BenchmarkSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Registers many functions at once.
    pub fn register_functions<I: IntoIterator<Item = BenchmarkSpec>>(mut self, specs: I) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Installs the memory policy under test.
    pub fn policy<P: MemoryPolicy + 'static>(mut self, policy: P) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: PlatformConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the keep-alive timeout.
    pub fn keep_alive(mut self, keep_alive: SimDuration) -> Self {
        self.config.keep_alive = keep_alive;
        self
    }

    /// Overrides the page size.
    pub fn page_size(mut self, page_size: u64) -> Self {
        self.config.page_size = page_size;
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables FAASM-style runtime sharing (see
    /// [`PlatformConfig::share_runtime`]).
    pub fn share_runtime(mut self, on: bool) -> Self {
        self.config.share_runtime = on;
        self
    }

    /// Enables the hybrid-histogram keep-alive (see
    /// [`PlatformConfig::adaptive_keep_alive`]).
    pub fn adaptive_keep_alive(mut self, on: bool) -> Self {
        self.config.adaptive_keep_alive = on;
        self
    }

    /// Enables seeded fault injection (see [`FaultConfig`]).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = Some(faults);
        self
    }

    /// Enables per-invocation latency blame (see
    /// [`PlatformConfig::blame`]).
    pub fn blame(mut self, on: bool) -> Self {
        self.config.blame = on;
        self
    }

    /// Enables byte-second memory anatomy (see
    /// [`PlatformConfig::memory_anatomy`]).
    pub fn memory_anatomy(mut self, on: bool) -> Self {
        self.config.memory_anatomy = on;
        self
    }

    /// Configures the multi-node pool fabric (see [`FabricConfig`]).
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.config.fabric = fabric;
        self
    }

    /// Installs an event tracer. The platform shares it with the pool
    /// and every container page table, so one sink observes all layers
    /// in `(sim_time, seq)` order. The default disabled tracer keeps
    /// every emission site a single branch.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Installs a telemetry sampler. The platform snapshots gauges
    /// from every layer at each interval boundary the event loop
    /// crosses — no queue events are injected, so an enabled sampler
    /// cannot perturb the simulation. The default disabled sampler
    /// costs one branch per event.
    pub fn sampler(mut self, sampler: Sampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    ///
    /// Panics if no functions were registered.
    pub fn build(self) -> PlatformSim {
        assert!(!self.specs.is_empty(), "register at least one function");
        let governor = BandwidthGovernor::new(
            self.config.pool.effective_out_bytes_per_sec(),
            GOVERNOR_WINDOW,
        );
        let mut pool = RemotePool::new(self.config.pool.clone());
        pool.attach_tracer(self.tracer.clone());
        let fabric = if self.config.fabric.is_degenerate() {
            None
        } else {
            let mut fabric = PoolFabric::new(self.config.fabric.clone());
            fabric.attach_tracer(self.tracer.clone());
            Some(fabric)
        };
        let blame = self.config.blame.then(BlameAccumulator::new);
        let anatomy = self
            .config
            .memory_anatomy
            .then(|| AnatomyRuntime::new(self.specs.len()));
        PlatformSim {
            ledger: ResidencyLedger::new(self.specs.len()),
            rng: SimRng::seed_from(self.config.seed),
            pool,
            fabric,
            governor,
            specs: self.specs,
            policy: self.policy,
            config: self.config,
            containers: Vec::new(),
            next_container: 0,
            faults: None,
            blame,
            anatomy,
            tracer: self.tracer,
            sampler: self.sampler,
            reuse_intervals: HashMap::new(),
            planner: AccessPlanner::default(),
            peak_local_bytes: 0,
            peak_live: 0,
            ran: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A trace arrival: its index in the trace (the request id) and the
    /// function it invokes. Never queued — [`PlatformSim::run`] merges
    /// arrivals in straight from the sorted trace.
    Invoke(u32, FunctionId),
    RuntimeLoaded(ContainerId),
    InitDone(ContainerId),
    FinishExec(ContainerId),
    RecycleCheck(ContainerId),
    Tick,
    /// Index into the fault plan's node-loss list.
    NodeLoss(u32),
    /// Index into the fault plan's crash list.
    ContainerCrash(u32),
    /// Index into the fault plan's pool-node-loss list.
    PoolNodeLoss(u32),
}

/// Everything [`PlatformSim::prepare`] derives from the trace before
/// seeding: [`PlatformSim::run`] threads it through
/// [`PlatformSim::seed`] and [`PlatformSim::process_event`].
struct RunSetup<'a> {
    /// The borrowed trace; arrivals stream from it, never copied.
    trace: &'a InvocationTrace,
    tick: Option<SimDuration>,
}

/// Live fault-injection state: the expanded timeline plus the reaction
/// machinery and its counters. Exists only while `config.faults` is set.
struct FaultRuntime {
    plan: FaultPlan,
    policy: RemoteFaultPolicy,
    breaker: CircuitBreaker,
    /// The fault accounting under construction: handlers bump its counters,
    /// `finish` fills in the fields derived at run end.
    report: FaultReport,
    /// Breaker state observed on the previous event, so the run loop can
    /// trace the open→closed transition (the pool traces open).
    breaker_open_prev: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Invocation index within the trace — the trace subsystem's
    /// request id.
    req: u32,
    arrived: SimTime,
    exec_started: SimTime,
    cold: bool,
    faults: u32,
    /// Latency components charged so far. Execution start charges
    /// cold-start, pure exec and every stall addend — the exact
    /// [`SimDuration`]s the simulator folds into the timeline — so at
    /// finish the breakdown already sums to the measured latency.
    breakdown: BlameBreakdown,
    /// Instant until which this invocation sits blocked on remote
    /// recall work (stalls serialize at the head of the exec window);
    /// drives the `faas.invocations_stalled_remote` gauge.
    remote_stall_until: SimTime,
}

/// One live container and the request it is serving.
#[derive(Debug)]
struct Slot {
    container: Container,
    /// Set at cold start (the request waits out launch and init) and at
    /// execution start; taken when the request finishes.
    flight: Option<InFlight>,
}

/// How one request's remote faults are served (see
/// `PlatformSim::route_recall`).
#[derive(Debug, Clone, Copy)]
enum Recall {
    /// The primary path served the pages after this link stall.
    Primary(SimDuration),
    /// Surviving replicas serve the pages (failover detour).
    Replica,
    /// The pages are abandoned and the container rebuilt locally.
    /// `counted` when a pool-node loss already counted the bytes lost.
    Rebuild { counted: bool },
}

/// The blame component a traced stall cause charges. The trace and
/// metrics crates are deliberately decoupled (they agree on component
/// *names*, not types), so the platform — which depends on both — owns
/// the mapping.
fn stall_component(cause: StallCause) -> BlameComponent {
    match cause {
        StallCause::FaultCpu => BlameComponent::FaultCpu,
        StallCause::RecallStall => BlameComponent::RecallStall,
        StallCause::FailoverDetour => BlameComponent::FailoverDetour,
        StallCause::AbandonedWait => BlameComponent::AbandonedWait,
        StallCause::ForcedRebuild => BlameComponent::ForcedRebuild,
    }
}

/// Runtime state of byte-second memory anatomy (see
/// [`PlatformConfig::memory_anatomy`]): the interval integrator, the
/// per-function ledgers, and the lifecycle flow matrix.
#[derive(Debug)]
struct AnatomyRuntime {
    /// Run-wide integrator with the per-side conservation checks.
    acc: WasteAccumulator,
    /// Per-function ledgers indexed by function id: each function's
    /// compute-side charges plus the primary pool occupancy of its own
    /// offloaded pages.
    per_function: Vec<WasteLedger>,
    /// Lifecycle edges folded in once per container, at recycle time.
    flow: FlowMatrix,
    /// End of the last integrated interval.
    last: SimTime,
    /// Pool transfer byte-µs already charged to `offload_inflight`.
    last_transfer_byte_us: u128,
}

impl AnatomyRuntime {
    fn new(functions: usize) -> Self {
        AnatomyRuntime {
            acc: WasteAccumulator::new(),
            per_function: vec![WasteLedger::new(); functions],
            flow: FlowMatrix::new(),
            last: SimTime::ZERO,
            last_transfer_byte_us: 0,
        }
    }
}

/// Charges a stage-indexed row of residency cells for `page_us` (page
/// size × interval µs): each stage's plain local pages to the compute
/// component that stage occupies, hot-pool pages to `LocalHotPool`.
fn charge_stages(ledger: &mut WasteLedger, cells: &[Tally; 4], page_us: u128) {
    use WasteComponent::{ActiveExec, InitOverhead, KeepaliveIdle, LocalHotPool};
    // Launching, Initializing, Executing, KeepAlive.
    let plain = [InitOverhead, InitOverhead, ActiveExec, KeepaliveIdle];
    for (component, cell) in plain.into_iter().zip(cells) {
        ledger.charge(component, u128::from(cell.local - cell.hot_local) * page_us);
        ledger.charge(LocalHotPool, u128::from(cell.hot_local) * page_us);
    }
}

/// The serverless-platform simulator.
///
/// Construct with [`PlatformSim::builder`], then call [`PlatformSim::run`]
/// with an invocation trace. A simulator instance runs one trace; build a
/// fresh one per experiment to keep runs independent and deterministic.
pub struct PlatformSim {
    config: PlatformConfig,
    specs: Vec<BenchmarkSpec>,
    policy: Box<dyn MemoryPolicy>,
    /// The live containers with their in-flight requests, in ascending id
    /// order: ids only grow, so a cold start appends. Every walk is in id
    /// order by construction, so tick-time offloads queue on the shared
    /// link in a reproducible order.
    containers: Vec<Slot>,
    /// Residency of `containers`: folded in by `with_container`, and on
    /// insert and remove.
    ledger: ResidencyLedger,
    pool: RemotePool,
    governor: BandwidthGovernor,
    rng: SimRng,
    next_container: u64,
    faults: Option<FaultRuntime>,
    /// Per-invocation blame accumulator; `Some` only when
    /// [`PlatformConfig::blame`] is set. Records in `handle_finish`
    /// order, so the resulting report is as deterministic as every
    /// other aggregate.
    blame: Option<BlameAccumulator>,
    /// Byte-second occupancy integrator; `Some` only when
    /// [`PlatformConfig::memory_anatomy`] is set. Charges at the top of
    /// `process_event` — before any state mutates — so each interval is
    /// integrated against the frozen pre-event state, in the global
    /// `(time, seq)` event order.
    anatomy: Option<AnatomyRuntime>,
    /// Placement/durability ledger over the pool nodes; `None` for the
    /// degenerate single-node, no-redundancy configuration (the entire
    /// pre-fabric fast path).
    fabric: Option<PoolFabric>,
    tracer: Tracer,
    sampler: Sampler,
    /// Each function's container reused intervals in seconds, read by
    /// policies through [`PolicyCtx`] and by adaptive keep-alive.
    reuse_intervals: HashMap<FunctionId, Cdf>,
    /// Run-long scratch every request plans its page accesses into, so
    /// a warm request allocates nothing.
    planner: AccessPlanner,
    /// Highest node-local footprint observed at any event (bytes).
    peak_local_bytes: u64,
    /// Highest live-container count observed at any event.
    peak_live: u64,
    ran: bool,
}

impl PlatformSim {
    /// Starts building a platform.
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::new()
    }

    /// The active configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Runs the trace to completion (all containers recycled) and returns
    /// the measurements.
    ///
    /// Arrivals are not queued: the loop merges the already-sorted trace
    /// with the event queue, which holds only the live frontier
    /// (lifecycle timers, the policy tick, the fault plan). An arrival
    /// wins every tie with a queued event at the same instant, so the
    /// global order is exactly `(time, seq)` with arrivals stamped ahead
    /// of every other event.
    ///
    /// # Panics
    ///
    /// Panics if called twice on the same simulator, or if the trace
    /// invokes an unregistered function.
    pub fn run(&mut self, trace: &InvocationTrace) -> RunReport {
        let setup = self.prepare(trace);
        let mut queue: EventQueue<Event> = EventQueue::new();
        self.seed(&setup, &mut queue);
        let mut arrivals = trace.iter().zip(0u32..).peekable();
        let mut clock = Clock::new();
        let mut report = self.new_report();
        loop {
            let (at, event) = match arrivals.peek() {
                Some(&(inv, req)) if queue.peek_time().is_none_or(|t| inv.at <= t) => {
                    arrivals.next();
                    (inv.at, Event::Invoke(req, inv.function))
                }
                _ => match queue.pop() {
                    Some(next) => next,
                    None => break,
                },
            };
            clock.advance_to(at);
            let arrivals_pending = arrivals.peek().is_some();
            self.process_event(
                clock.now(),
                event,
                &setup,
                arrivals_pending,
                &mut queue,
                &mut report,
            );
        }
        self.finish(clock.now(), &mut report);
        report
    }

    /// Captures what seeding and the event loop need. The trace's
    /// function ids are checked as each first cold-starts, so a lazy
    /// trace is never drawn an extra time.
    ///
    /// # Panics
    ///
    /// Panics if the simulator already ran.
    fn prepare<'a>(&mut self, trace: &'a InvocationTrace) -> RunSetup<'a> {
        assert!(
            !self.ran,
            "PlatformSim::run consumes the simulator; build a fresh one"
        );
        self.ran = true;
        RunSetup {
            trace,
            tick: self.policy.tick_interval(),
        }
    }

    /// Seeds the queue's initial population — the first policy tick,
    /// then the fault timeline. Same-instant events fire in push order,
    /// so this order is part of the output contract. Arrivals are not
    /// seeded: [`PlatformSim::run`] streams them from the trace.
    fn seed(&mut self, setup: &RunSetup, queue: &mut EventQueue<Event>) {
        if let Some(dt) = setup.tick {
            queue.push(SimTime::ZERO + dt, Event::Tick);
        }

        if let Some(fc) = self.config.faults.clone() {
            // Cover the trace plus the keep-alive drain so faults can
            // still hit idle containers after the last invocation.
            let horizon = setup
                .trace
                .duration()
                .saturating_add(self.config.keep_alive * 2)
                .max(SimTime::from_micros(1));
            let plan = fc
                .plan_override
                .clone()
                .unwrap_or_else(|| fc.spec.plan(horizon));
            // The pool is untouched at this point; rebuild it around the
            // planned link schedule.
            self.pool = RemotePool::with_link_schedule(self.config.pool.clone(), plan.link.clone());
            self.pool.attach_tracer(self.tracer.clone());
            // The pool layer can't see the plan (it only observes the
            // degraded links), so the platform announces the windows.
            if self.tracer.wants(faasmem_trace::TraceLayer::Pool) {
                for w in plan.link.windows() {
                    self.tracer.emit(
                        None,
                        None,
                        EventKind::FaultWindow {
                            start_us: w.start.as_micros(),
                            end_us: w.end.as_micros(),
                            factor: w.factor,
                        },
                    );
                }
            }
            for (i, loss) in plan.node_losses.iter().enumerate() {
                queue.push(loss.at, Event::NodeLoss(i as u32));
            }
            for (i, crash) in plan.crashes.iter().enumerate() {
                queue.push(crash.at, Event::ContainerCrash(i as u32));
            }
            for (i, loss) in plan.pool_node_losses.iter().enumerate() {
                queue.push(loss.at, Event::PoolNodeLoss(i as u32));
            }
            // A plan that kills pool nodes needs the placement ledger
            // even when the configured fabric is degenerate: materialize
            // a single-node fabric so the losses have a ledger to hit.
            if !plan.pool_node_losses.is_empty() && self.fabric.is_none() {
                let mut fabric = PoolFabric::new(self.config.fabric.clone());
                fabric.attach_tracer(self.tracer.clone());
                self.fabric = Some(fabric);
            }
            self.faults = Some(FaultRuntime {
                plan,
                policy: fc.policy,
                breaker: CircuitBreaker::from_policy(&fc.policy),
                report: FaultReport::default(),
                breaker_open_prev: false,
            });
        }
    }

    /// A fresh, empty [`RunReport`] with the time-series zero anchors.
    fn new_report(&self) -> RunReport {
        let mut report = RunReport {
            policy: self.policy.name(),
            ..RunReport::default()
        };
        report.local_mem.record(SimTime::ZERO, 0.0);
        report.remote_mem.record(SimTime::ZERO, 0.0);
        report.live_containers.record(SimTime::ZERO, 0.0);
        report
    }

    /// Handles one event — a popped one or a merged-in arrival: breaker
    /// bookkeeping, dispatch, and the post-event memory/telemetry
    /// sampling. `arrivals_pending` says whether trace arrivals remain
    /// past this event (they live outside the queue).
    fn process_event(
        &mut self,
        now: SimTime,
        event: Event,
        setup: &RunSetup,
        arrivals_pending: bool,
        queue: &mut EventQueue<Event>,
        report: &mut RunReport,
    ) {
        report.events_processed += 1;
        self.tracer.set_now(now);
        // Integrate occupancy over the interval ending now, against
        // the state frozen since the previous event — before the
        // breaker, fabric repairs or the event mutate anything.
        self.anatomy_advance(now);
        if let Some(fr) = &mut self.faults {
            // Graceful degradation: while the breaker holds the pool
            // unhealthy, or once every pool node is dead (nowhere left
            // to place anything, for the rest of the run), policies
            // refuse new offloads and the platform leans on
            // local-memory keep-alive. This is the one writer of the
            // suspension.
            let open = fr.breaker.is_open(now);
            let fabric_dead = self.fabric.as_ref().is_some_and(PoolFabric::all_nodes_down);
            self.pool.set_offloads_suspended(open || fabric_dead);
            // The pool traces the open transition at trip time; the
            // close is only observable here, when the cooldown lapses.
            if fr.breaker_open_prev && !open {
                self.tracer.emit(None, None, EventKind::BreakerClose);
            }
            fr.breaker_open_prev = open;
        }
        if let Some(fabric) = &mut self.fabric {
            // Apply background repairs that completed before this
            // instant, so recall decisions see the repaired state.
            fabric.advance(now);
        }
        match event {
            Event::Invoke(req, function) => {
                self.handle_invoke(now, req, function, queue);
            }
            Event::RuntimeLoaded(id) => self.handle_runtime_loaded(now, id, queue),
            Event::InitDone(id) => self.handle_init_done(now, id, queue),
            Event::FinishExec(id) => self.handle_finish(now, id, queue, report),
            Event::RecycleCheck(id) => self.handle_recycle(now, id, queue, report),
            Event::Tick => {
                // `on_tick` neither launches nor recycles a container,
                // so a walk by position visits each once, in id order.
                for at in 0..self.containers.len() {
                    self.policy_hook(now, at, |p, ctx| p.on_tick(ctx));
                }
                if let Some(dt) = setup.tick {
                    if !self.containers.is_empty() || arrivals_pending || !queue.is_empty() {
                        queue.push(now + dt, Event::Tick);
                    }
                }
            }
            Event::NodeLoss(i) => self.handle_node_loss(now, i as usize, report),
            Event::ContainerCrash(i) => self.handle_crash(now, i as usize, report),
            Event::PoolNodeLoss(i) => self.handle_pool_node_loss(now, i as usize, report),
        }
        self.record_memory(now, report);
        self.sample_due(now, report);
    }

    /// Drains leftover containers and fills the report's run-end fields.
    /// `now` is the final clock time after the event loop emptied.
    fn finish(&mut self, now: SimTime, report: &mut RunReport) {
        // Close the final occupancy interval before draining state.
        self.anatomy_advance(now);
        // Retire any containers still alive, in id order (should not
        // happen after the keep-alive drain, but be robust).
        while !self.containers.is_empty() {
            self.recycle_container(now, 0, report);
        }
        self.record_memory(now, report);
        self.sample_due(now, report);

        // The latency samples, in completion order, at exact capacity:
        // the request log is the one per-request store during the run.
        report.latency = faasmem_metrics::LatencyRecorder::with_capacity(report.requests.len());
        for r in report.requests.iter() {
            report.latency.record(r.latency);
        }
        report.pool_stats = self.pool.stats();
        report.reuse_intervals = std::mem::take(&mut self.reuse_intervals);
        report.finished_at = now;
        report.requests_completed = report.requests.len();
        report.cold_starts = report.requests.cold_starts();
        if let Some(fr) = &self.faults {
            let finished = report.finished_at;
            let downtime = fr.plan.link.downtime_before(finished);
            let availability = if finished == SimTime::ZERO {
                1.0
            } else {
                1.0 - downtime.as_secs_f64() / finished.as_secs_f64()
            };
            // The SLO counts come from the request log; only a latency
            // strictly above the objective violates it.
            let objective = self.config.faults.as_ref().and_then(|fc| fc.slo);
            let (slo_total, slo_violations) = objective.map_or((0, 0), |objective| {
                slo::slo_counts(report.requests.iter().map(|r| r.latency), objective)
            });
            report.faults = Some(FaultReport {
                link_availability: availability,
                link_downtime: downtime,
                offloads_refused: self.pool.offloads_refused(),
                breaker_opens: fr.breaker.opens(),
                slo_total,
                slo_violations,
                ..fr.report
            });
        }
        report.durability = self.fabric.as_ref().map(|fabric| DurabilityReport {
            pool_nodes: fabric.nodes(),
            nodes_up: fabric.nodes_up(),
            under_replicated_final: fabric.under_replicated() as u64,
            repair_backlog_bytes: fabric.repair_backlog_bytes(),
            tracker: *fabric.tracker(),
        });
        report.blame = self.blame.as_ref().map(|acc| acc.report());
        if let Some(an) = &self.anatomy {
            report.memory_anatomy = Some(MemoryAnatomyReport {
                waste: an.acc.report(),
                flow: an.flow,
            });
            report.function_waste = an
                .per_function
                .iter()
                .enumerate()
                .filter(|(_, ledger)| ledger.total() > 0)
                .map(|(i, ledger)| FunctionWaste {
                    function: FunctionId(i as u32),
                    name: self.specs[i].name,
                    ledger: *ledger,
                })
                .collect();
        }
        self.fill_registry(report);
    }

    /// Integrates resident memory over the interval since the last event
    /// into the anatomy ledgers. Called at the top of
    /// [`PlatformSim::process_event`] — before any state mutates — so each
    /// interval is charged against the exact state that held throughout
    /// it (state is frozen between events, so piecewise-constant
    /// integration is exact). No-op when anatomy is off.
    fn anatomy_advance(&mut self, now: SimTime) {
        let Some(an) = self.anatomy.as_mut() else {
            return;
        };
        let elapsed = u128::from(now.saturating_since(an.last).as_micros());
        let transfer_now = self.pool.transfer_byte_micros();
        let inflight_delta = transfer_now - an.last_transfer_byte_us;
        if elapsed == 0 && inflight_delta == 0 {
            return;
        }
        an.last = now;
        an.last_transfer_byte_us = transfer_now;

        // Compute side: the residency ledger's stage cells, hot-pool pages
        // carved out; measured against the ledger's separately folded
        // local total.
        let page_us = u128::from(self.config.page_size) * elapsed;
        let mut delta = WasteLedger::new();
        charge_stages(&mut delta, self.ledger.by_stage(), page_us);
        let measured_compute = u128::from(self.ledger.total().local) * page_us;
        for (cells, ledger) in self.ledger.cells().iter().zip(&mut an.per_function) {
            charge_stages(ledger, cells, page_us);
            let remote: u64 = cells.iter().map(|c| c.remote).sum();
            ledger.charge(WasteComponent::PoolPrimary, u128::from(remote) * page_us);
        }

        // Pool side. Primary occupancy comes from the pool's own ledger,
        // while the measured total is the residency ledger's remote pages
        // plus fabric overheads — the conservation check is exactly the
        // cross-ledger reconciliation of those two views.
        let remote_byte_us = u128::from(self.ledger.total().remote) * page_us;
        delta.charge(
            WasteComponent::PoolPrimary,
            u128::from(self.pool.used_bytes()) * elapsed,
        );
        let occupancy = self
            .fabric
            .as_ref()
            .map(|f| f.occupancy())
            .unwrap_or_default();
        let overhead_byte_us =
            u128::from(occupancy.redundant_bytes + occupancy.repair_backlog_bytes) * elapsed;
        delta.charge(
            WasteComponent::RedundancyAmplification,
            u128::from(occupancy.redundant_bytes) * elapsed,
        );
        delta.charge(
            WasteComponent::RepairBacklog,
            u128::from(occupancy.repair_backlog_bytes) * elapsed,
        );
        delta.charge(WasteComponent::OffloadInflight, inflight_delta);
        let measured_pool = remote_byte_us + overhead_byte_us + inflight_delta;

        an.acc.record_step(&delta, measured_compute, measured_pool);
    }

    /// Snapshots the run's counters and gauges into the report registry.
    /// Runs once at run end so the hot path never touches the maps.
    fn fill_registry(&self, report: &mut RunReport) {
        let reg = &mut report.registry;
        reg.add("containers.created", self.next_container);
        reg.add("containers.recycled", report.containers.len() as u64);
        reg.add("requests.completed", report.requests_completed as u64);
        reg.add("requests.cold_starts", report.cold_starts as u64);
        reg.add(
            "mem.demand_faults",
            report.requests.iter().map(|r| u64::from(r.faults)).sum(),
        );
        reg.add("pool.bytes_out", report.pool_stats.bytes_out);
        reg.add("pool.bytes_in", report.pool_stats.bytes_in);
        reg.add("pool.out_ops", report.pool_stats.out_ops);
        reg.add("pool.in_ops", report.pool_stats.in_ops);
        reg.add("pool.offloads_refused", self.pool.offloads_refused());
        if let Some(f) = &report.faults {
            reg.add("faults.page_in_retries", f.page_in_retries);
            reg.add("faults.page_ins_gave_up", f.page_ins_gave_up);
            reg.add("faults.forced_cold_restarts", f.forced_cold_restarts);
            reg.add("faults.node_loss_events", f.node_loss_events);
            reg.add("faults.container_crashes", f.container_crashes);
            reg.add("faults.breaker_opens", f.breaker_opens);
        }
        if let Some(fabric) = &self.fabric {
            let t = fabric.tracker();
            reg.add("durability.nodes_lost", t.nodes_lost);
            reg.add("durability.segments_lost", t.segments_lost);
            reg.add("durability.bytes_lost", t.bytes_lost);
            reg.add("durability.failover_recalls", t.failover_recalls);
            reg.add("durability.bytes_recovered", t.bytes_recovered);
            reg.add("durability.avoided_cold_rebuilds", t.avoided_cold_rebuilds);
            reg.add("durability.replica_bytes_out", t.replica_bytes_out);
            reg.add("durability.repair_bytes", t.repair_bytes);
            reg.add("durability.repairs_completed", t.repairs_completed);
            reg.add("durability.repairs_abandoned", t.repairs_abandoned);
        }
        reg.set_gauge("mem.peak_local_bytes", self.peak_local_bytes as f64);
        reg.set_gauge("containers.peak_live", self.peak_live as f64);
    }

    /// A pool node died: the affected fraction of idle containers lose
    /// their remote pages and are recycled — their next invocation pays
    /// a full cold start.
    fn handle_node_loss(&mut self, now: SimTime, index: usize, report: &mut RunReport) {
        let Some(fr) = &self.faults else { return };
        let fraction = fr.plan.node_losses[index].fraction;
        let holds_remote =
            |c: &Container| c.stage() == ContainerStage::KeepAlive && c.table().remote_pages() > 0;
        let holders = self.live().filter(|c| holds_remote(c)).count();
        let hit = ((holders as f64 * fraction).ceil() as usize).min(holders);
        // The first `hit` holders in id order die; a recycle moves the
        // next container down to `at`.
        let (mut at, mut victims, mut lost_bytes) = (0, 0u64, 0u64);
        while victims < hit as u64 {
            let c = &self.containers[at].container;
            if holds_remote(c) {
                lost_bytes += c.table().remote_pages() * self.config.page_size;
                victims += 1;
                self.recycle_container(now, at, report);
            } else {
                at += 1;
            }
        }
        let f = &mut self.faults.as_mut().expect("fault runtime").report;
        f.node_loss_events += 1;
        f.forced_cold_restarts += victims;
        f.lost_remote_bytes += lost_bytes;
        self.tracer.emit(
            None,
            None,
            EventKind::NodeLoss {
                victims,
                lost_bytes,
            },
        );
    }

    /// One idle container crashes; the planned `pick` selects the victim
    /// deterministically among the id-sorted idle set.
    fn handle_crash(&mut self, now: SimTime, index: usize, report: &mut RunReport) {
        let Some(fr) = &self.faults else { return };
        let pick = fr.plan.crashes[index].pick;
        let idle = || {
            self.live()
                .enumerate()
                .filter(|(_, c)| c.stage() == ContainerStage::KeepAlive)
        };
        let count = idle().count() as u64;
        let Some((at, victim)) = idle().nth((pick % count.max(1)) as usize) else {
            return; // nothing to crash at this instant
        };
        self.tracer
            .emit(Some(victim.id().0), None, EventKind::ContainerCrash);
        self.recycle_container(now, at, report);
        self.faults
            .as_mut()
            .expect("fault runtime")
            .report
            .container_crashes += 1;
    }

    /// A whole pool node died. The fabric marks every fragment it
    /// hosted dead: segments that survive (enough replicas/fragments
    /// elsewhere) re-home and queue repairs; segments below the recovery
    /// threshold are gone — their idle owners are recycled here (a
    /// forced cold rebuild on next use), and owners caught mid-request
    /// hit the abandoned-recall path on their next demand fault.
    fn handle_pool_node_loss(&mut self, now: SimTime, index: usize, report: &mut RunReport) {
        let Some(fr) = &self.faults else { return };
        let node = fr.plan.pool_node_losses[index].node;
        let Some(fabric) = &mut self.fabric else {
            return;
        };
        let outcome = fabric.node_down(now, node);
        let mut lost_bytes = 0u64;
        let mut victims = 0u64;
        for &(owner, bytes) in &outcome.lost {
            lost_bytes += bytes;
            let idle = self
                .position(ContainerId(owner))
                .filter(|&at| self.containers[at].container.stage() == ContainerStage::KeepAlive);
            if let Some(at) = idle {
                victims += 1;
                self.recycle_container(now, at, report);
            }
        }
        let f = &mut self.faults.as_mut().expect("fault runtime").report;
        f.node_loss_events += 1;
        f.forced_cold_restarts += victims;
        f.lost_remote_bytes += lost_bytes;
    }

    /// The keep-alive timeout currently applicable to `function`; the
    /// adaptive policy learns from the run's observed reuse intervals.
    fn timeout_for(&self, function: FunctionId) -> SimDuration {
        if self.config.adaptive_keep_alive {
            AdaptiveKeepAlive::timeout_from_samples(self.reuse_intervals.get(&function))
        } else {
            self.config.keep_alive
        }
    }

    /// Materialises telemetry rows for every sample-interval boundary
    /// crossed since the previous event. Called after each event is
    /// processed; between events the discrete-event state is frozen,
    /// so values observed here equal the values at the boundary.
    /// Gauges that decay continuously with wall-of-sim time (link
    /// utilisation, backlogs, the governor window) are evaluated at
    /// the exact boundary timestamp instead.
    fn sample_due(&mut self, now: SimTime, report: &RunReport) {
        if !self.sampler.is_enabled() {
            return;
        }
        let sampler = self.sampler.clone();
        sampler.record_due_rows(now, |at| self.telemetry_row(at, report, &sampler));
    }

    /// One row of the telemetry series catalog (see DESIGN.md
    /// §telemetry), restricted to the sampler's selected groups. The
    /// per-container aggregates are sums over `containers` in id order.
    fn telemetry_row(
        &mut self,
        at: SimTime,
        report: &RunReport,
        sampler: &Sampler,
    ) -> Vec<(&'static str, f64)> {
        let mut row: Vec<(&'static str, f64)> = Vec::with_capacity(32);
        if sampler.wants(SeriesGroup::Faas) {
            let [launching, initializing, executing, keepalive] =
                self.ledger.by_stage().map(|cell| cell.containers);
            let semi_warm =
                self.ledger.by_stage()[ContainerStage::KeepAlive as usize].holding_remote;
            // Invocations currently blocked on a remote recall: the
            // stall window sits at the head of the exec window, so an
            // in-flight request counts while the sample boundary falls
            // inside it.
            let stalled_remote = self
                .containers
                .iter()
                .filter_map(|s| s.flight.as_ref())
                .filter(|f| at < f.remote_stall_until)
                .count();
            row.extend([
                ("faas.launching", launching as f64),
                ("faas.initializing", initializing as f64),
                ("faas.executing", executing as f64),
                ("faas.keepalive", keepalive as f64),
                ("faas.warm", (keepalive - semi_warm) as f64),
                ("faas.semi_warm", semi_warm as f64),
                // The keep-alive queue holds every idle container, warm
                // and semi-warm alike.
                ("faas.keepalive_queue_depth", keepalive as f64),
                ("faas.invocations_stalled_remote", stalled_remote as f64),
            ]);
        }
        if sampler.wants(SeriesGroup::Mem) {
            let page = self.config.page_size;
            let Tally { local, remote, .. } = self.ledger.total();
            let mut ages = [0u64; 4];
            for c in self.live() {
                let table_ages = c.table().generation_age_histogram::<4>();
                for (sum, count) in ages.iter_mut().zip(table_ages) {
                    *sum += count;
                }
            }
            // Stage-split resident bytes feed the dashboard's memory
            // anatomy panel. Gated on the anatomy flag so pre-anatomy
            // series artefacts stay byte-identical by omission.
            if self.anatomy.is_some() {
                let bytes = |stage: ContainerStage| {
                    (self.ledger.by_stage()[stage as usize].local * page) as f64
                };
                row.extend([
                    ("mem.keepalive_idle_bytes", bytes(ContainerStage::KeepAlive)),
                    ("mem.active_bytes", bytes(ContainerStage::Executing)),
                ]);
            }
            row.extend([
                ("mem.local_pages", local as f64),
                ("mem.remote_pages", remote as f64),
                ("mem.local_bytes", (local * page) as f64),
                ("mem.remote_bytes", (remote * page) as f64),
                ("mem.gen_age_0", ages[0] as f64),
                ("mem.gen_age_1", ages[1] as f64),
                ("mem.gen_age_2", ages[2] as f64),
                ("mem.gen_age_3p", ages[3] as f64),
            ]);
        }
        if sampler.wants(SeriesGroup::Pool) {
            row.push(("pool.out_busy_frac", self.pool.out_utilization(at)));
            row.push(("pool.in_busy_frac", self.pool.in_utilization(at)));
            row.push((
                "pool.out_backlog_secs",
                self.pool.out_backlog(at).as_secs_f64(),
            ));
            row.push((
                "pool.in_backlog_secs",
                self.pool.in_backlog(at).as_secs_f64(),
            ));
            row.push(("pool.in_flight", self.pool.in_flight_transfers(at) as f64));
            row.push(("pool.used_bytes", self.pool.used_bytes() as f64));
            row.push((
                "pool.governor_usage_bytes_per_sec",
                self.governor.current_usage(at),
            ));
            row.push(("pool.governor_throttle", self.governor.throttle_factor(at)));
            row.push((
                "pool.offloads_suspended",
                f64::from(u8::from(self.pool.offloads_suspended())),
            ));
            let breaker_open = self
                .faults
                .as_ref()
                .is_some_and(|fr| fr.breaker.is_open(at));
            row.push(("pool.breaker_open", f64::from(u8::from(breaker_open))));
            if let Some(fabric) = &self.fabric {
                row.push(("pool.nodes_up", f64::from(fabric.nodes_up())));
                row.push(("pool.under_replicated", fabric.under_replicated() as f64));
                row.push((
                    "pool.repair_backlog_bytes",
                    fabric.repair_backlog_bytes() as f64,
                ));
                row.push(("pool.redundant_bytes", fabric.redundant_bytes() as f64));
                // Per-node stored bytes need 'static names; eight covers
                // every fabric the experiments sweep.
                const NODE_BYTES: [&str; 8] = [
                    "pool.node0_bytes",
                    "pool.node1_bytes",
                    "pool.node2_bytes",
                    "pool.node3_bytes",
                    "pool.node4_bytes",
                    "pool.node5_bytes",
                    "pool.node6_bytes",
                    "pool.node7_bytes",
                ];
                for (i, name) in NODE_BYTES.iter().enumerate().take(fabric.nodes() as usize) {
                    row.push((name, fabric.node_stored_bytes(i as u32) as f64));
                }
            }
        }
        if sampler.wants(SeriesGroup::Registry) {
            // Registry-style counters are monotone totals; export the
            // per-interval delta so the series reads as a rate.
            let stats = self.pool.stats();
            for (name, cumulative) in [
                ("registry.requests_completed", report.requests.len() as f64),
                ("registry.cold_starts", report.requests.cold_starts() as f64),
                ("registry.containers_created", self.next_container as f64),
                ("registry.pool_bytes_out", stats.bytes_out as f64),
                ("registry.pool_bytes_in", stats.bytes_in as f64),
            ] {
                row.push((name, sampler.counter_delta(name, cumulative)));
            }
        }
        row
    }

    /// The live containers in id order.
    fn live(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter().map(|s| &s.container)
    }

    /// Where live container `id` sits in `containers`, if it is live.
    fn position(&self, id: ContainerId) -> Option<usize> {
        self.containers
            .binary_search_by_key(&id, |s| s.container.id())
            .ok()
    }

    /// Appends the node footprint to the memory timelines — O(1), read
    /// off the residency ledger. Runs after every event, so debug builds
    /// first race the ledger against the reference rescan here, and
    /// check that `containers` is still in strict id order.
    fn record_memory(&mut self, now: SimTime, report: &mut RunReport) {
        debug_assert_eq!(
            self.ledger,
            ResidencyLedger::rescan(self.specs.len(), self.live()),
            "residency ledger diverged from the container rescan"
        );
        debug_assert!(
            self.live().is_sorted_by(|a, b| a.id() < b.id()),
            "containers out of id order"
        );
        let mut local_pages = self.ledger.total().local;
        if self.config.share_runtime {
            // Runtime sharing: per function, all containers but one map
            // the same physical runtime pages — deduct the duplicates.
            local_pages -= self.ledger.runtime_duplicates();
        }
        let local = local_pages * self.config.page_size;
        let remote = self.ledger.total().remote * self.config.page_size;
        report.local_mem.record(now, local as f64);
        report.remote_mem.record(now, remote as f64);
        report
            .live_containers
            .record(now, self.containers.len() as f64);
        self.peak_local_bytes = self.peak_local_bytes.max(local);
        self.peak_live = self.peak_live.max(self.containers.len() as u64);
    }

    /// The residency choke point: every mutation of the live container at
    /// position `at` — policy hooks, lifecycle transitions, a request's
    /// touches — runs as `f` here, on a [`PolicyCtx`] with the policy
    /// alongside. The container's [`Residency`] is snapshot before and
    /// after `f` and the difference folds into the node ledger.
    fn with_container<R>(
        &mut self,
        now: SimTime,
        at: usize,
        f: impl FnOnce(&mut dyn MemoryPolicy, &mut PolicyCtx<'_>) -> R,
    ) -> R {
        let container = &mut self.containers[at].container;
        let before = Residency::of(container);
        let mut ctx = PolicyCtx {
            now,
            container,
            pool: &mut self.pool,
            governor: &mut self.governor,
            reuse_intervals: &self.reuse_intervals,
        };
        let out = f(self.policy.as_mut(), &mut ctx);
        self.ledger
            .fold(Some(before), Some(Residency::of(ctx.container)));
        out
    }

    /// Fires a policy hook through [`PlatformSim::with_container`] and
    /// hands its remote delta, read off the ledger, to the fabric: growth
    /// is an offload (place the segment, charge replica writes on the
    /// link), shrink is pages coming home. Policies stay fabric-oblivious
    /// and the no-fabric path is byte-identical by construction.
    fn policy_hook(
        &mut self,
        now: SimTime,
        at: usize,
        hook: impl FnOnce(&mut dyn MemoryPolicy, &mut PolicyCtx<'_>),
    ) {
        let before = self.ledger.total().remote * self.config.page_size;
        self.with_container(now, at, hook);
        let after = self.ledger.total().remote * self.config.page_size;
        if let Some(fabric) = &mut self.fabric {
            let id = self.containers[at].container.id();
            if after > before {
                fabric.on_offload(now, id.0, after - before, &mut self.pool);
            } else if before > after {
                fabric.on_page_in(id.0, before - after);
            }
        }
    }

    fn handle_invoke(
        &mut self,
        now: SimTime,
        req: u32,
        function: FunctionId,
        queue: &mut EventQueue<Event>,
    ) {
        self.tracer.emit(
            None,
            Some(u64::from(req)),
            EventKind::RequestArrive {
                function: function.0,
            },
        );
        // Route to the most-recently-used idle warm container, if any;
        // `max_by_key` keeps the last maximum, so a tie goes to the
        // highest id.
        let warm = self
            .live()
            .enumerate()
            .filter(|(_, c)| c.function() == function && c.stage() == ContainerStage::KeepAlive)
            .max_by_key(|(_, c)| c.last_used())
            .map(|(at, _)| at);

        if let Some(at) = warm {
            let idle = self.containers[at].container.idle_since(now);
            self.reuse_intervals
                .entry(function)
                .or_default()
                .insert(idle.as_secs_f64());
            self.policy_hook(now, at, |p, ctx| p.on_request_start(ctx, Some(idle)));
            self.with_container(now, at, |_, ctx| ctx.container.begin_execution(now));
            self.start_execution(now, at, req, now, false, queue);
        } else {
            // Cold start.
            let id = ContainerId(self.next_container);
            self.next_container += 1;
            let spec = match self.specs.get(function.0 as usize) {
                Some(spec) => spec.clone(),
                None => panic!("trace invokes unregistered {function}"),
            };
            let launch = spec.launch_time;
            let mut container = Container::new(id, function, spec, self.config.page_size, now);
            container
                .table_mut()
                .attach_tracer(self.tracer.clone(), id.0);
            self.tracer.emit(
                Some(id.0),
                Some(u64::from(req)),
                EventKind::ContainerLaunch {
                    function: function.0,
                },
            );
            self.ledger.fold(None, Some(Residency::of(&container)));
            let flight = Some(InFlight {
                req,
                arrived: now,
                exec_started: now,
                cold: true,
                faults: 0,
                breakdown: BlameBreakdown::new(),
                remote_stall_until: SimTime::ZERO,
            });
            self.containers.push(Slot { container, flight });
            let jitter = self.rng.lognormal_jitter(0.03);
            queue.push(now + launch.mul_f64(jitter), Event::RuntimeLoaded(id));
        }
    }

    fn handle_runtime_loaded(
        &mut self,
        now: SimTime,
        id: ContainerId,
        queue: &mut EventQueue<Event>,
    ) {
        self.tracer.emit(Some(id.0), None, EventKind::RuntimeLoaded);
        let at = self.position(id).expect("launching container");
        let init_time = self.with_container(now, at, |_, ctx| {
            ctx.container.finish_launch();
            ctx.container.spec().init_time
        });
        self.policy_hook(now, at, |p, ctx| p.on_runtime_loaded(ctx));
        let jitter = self.rng.lognormal_jitter(0.03);
        queue.push(now + init_time.mul_f64(jitter), Event::InitDone(id));
    }

    fn handle_init_done(&mut self, now: SimTime, id: ContainerId, queue: &mut EventQueue<Event>) {
        self.tracer.emit(Some(id.0), None, EventKind::InitDone);
        let at = self.position(id).expect("initializing container");
        self.with_container(now, at, |_, ctx| ctx.container.finish_init());
        self.policy_hook(now, at, |p, ctx| {
            p.on_init_done(ctx);
            p.on_request_start(ctx, None);
        });
        let flight = self.containers[at].flight.expect("pending request");
        self.start_execution(now, at, flight.req, flight.arrived, true, queue);
    }

    /// Decides how a recall of `faulted` pages is served. The primary
    /// path's page-in (plain, or retried under the fault policy) runs
    /// here; the replica and rebuild routes are settled by the caller.
    /// Also returns the wall time wasted on primary retries that gave up.
    fn route_recall(
        &mut self,
        now: SimTime,
        id: ContainerId,
        faulted: u64,
    ) -> (Recall, SimDuration) {
        let page_size = self.config.page_size;
        let Some(fr) = &mut self.faults else {
            let link = self
                .pool
                .page_in(now, faulted, page_size)
                .expect("faulted pages are held by the pool");
            return (Recall::Primary(link), SimDuration::ZERO);
        };
        // How the fabric sees this recall: `lost` means the segment was
        // destroyed by a pool-node loss (no retry can help), `detour`
        // means the primary path is dead or breaker-open but surviving
        // replicas can serve it.
        let (lost, detour) = match &self.fabric {
            Some(f) if f.has_segment(id.0) => {
                let can = f.can_failover(id.0);
                let sick = f.primary_down(id.0) || fr.breaker.is_open(now);
                (f.primary_down(id.0) && !can, sick && can)
            }
            Some(_) => (true, false),
            None => (false, false),
        };
        if lost {
            // The node loss already counted these bytes as lost.
            return (Recall::Rebuild { counted: true }, SimDuration::ZERO);
        }
        if detour {
            return (Recall::Replica, SimDuration::ZERO);
        }
        let recall = self
            .pool
            .page_in_resilient(now, faulted, page_size, &fr.policy, &mut fr.breaker)
            .expect("faulted pages are held by the pool");
        match recall {
            RecallOutcome::Recovered { stall, retries } => {
                fr.report.page_in_retries += u64::from(retries);
                (Recall::Primary(stall), SimDuration::ZERO)
            }
            RecallOutcome::GaveUp { wasted, retries } => {
                fr.report.page_in_retries += u64::from(retries);
                // The primary path timed out: detour to a surviving
                // replica, or give the unreachable pages up.
                let route = if self.fabric.as_ref().is_some_and(|f| f.can_failover(id.0)) {
                    Recall::Replica
                } else {
                    Recall::Rebuild { counted: false }
                };
                (route, wasted)
            }
        }
    }

    /// Plans the request's page accesses on the container at `at`,
    /// charges remote faults, and schedules its completion.
    fn start_execution(
        &mut self,
        now: SimTime,
        at: usize,
        req: u32,
        arrived: SimTime,
        cold: bool,
        queue: &mut EventQueue<Event>,
    ) {
        let id = self.containers[at].container.id();
        self.tracer.emit(
            Some(id.0),
            Some(u64::from(req)),
            EventKind::ExecStart { cold },
        );
        // Everything between arrival and this instant is cold-start
        // provisioning (launch + init, jitter included); requests never
        // queue for admission on this single-node platform, so `queue`
        // stays zero and warm starts (arrived == now) charge nothing.
        let mut breakdown = BlameBreakdown::new();
        breakdown.charge(BlameComponent::ColdStart, now.saturating_since(arrived));
        let page_size = self.config.page_size;
        let container = &self.containers[at].container;
        let spec = container.spec().clone();
        let exec_pages = mib_to_pages(spec.exec_mib, page_size) as u32;
        self.planner.plan_with_rare_runtime(
            spec.init_access,
            container.runtime_hot_pages(),
            container.runtime_range().len(),
            spec.runtime_rare_touch_prob,
            container.init_range().len(),
            &mut self.rng,
        );

        // `with_container` borrows the whole platform; lend it the plan.
        let planner = std::mem::take(&mut self.planner);
        let outcome = self.with_container(now, at, |_, ctx| {
            let c = &mut *ctx.container;
            let (runtime, init) = (c.runtime_range(), c.init_range());
            let outcome = touch_request(c.table_mut(), runtime, init, planner.plan());
            let exec_range = c
                .table_mut()
                .alloc(faasmem_mem::Segment::Execution, exec_pages);
            c.table_mut().touch_range(exec_range);
            c.set_exec_range(exec_range);
            outcome
        });
        self.planner = planner;

        let stall = if outcome.faulted > 0 {
            // Per-fault CPU handling, throttled by the container's CPU
            // share (cgroup-accounted kernel time).
            let cpu_micros =
                (u64::from(outcome.faulted) * FAULT_CPU_MICROS) as f64 / spec.cpu_share.max(0.01);
            let cpu = SimDuration::from_micros(cpu_micros as u64);
            let faulted = u64::from(outcome.faulted);
            let bytes = faulted * page_size;
            let (route, wasted) = self.route_recall(now, id, faulted);
            // Primary retries abandoned before the route was settled.
            breakdown.charge(BlameComponent::AbandonedWait, wasted);
            let settled = match route {
                Recall::Primary(link) => {
                    if let Some(fabric) = &mut self.fabric {
                        fabric.on_page_in(id.0, bytes);
                    }
                    breakdown.charge(BlameComponent::RecallStall, link);
                    breakdown.charge(BlameComponent::FaultCpu, cpu);
                    link + cpu
                }
                Recall::Replica => {
                    // Failover recall: read from surviving replicas,
                    // skipping the sick primary path entirely.
                    let link = self
                        .pool
                        .page_in(now + wasted, faulted, page_size)
                        .expect("faulted pages are held by the pool");
                    let fabric = self.fabric.as_mut().expect("replica implies fabric");
                    let penalty = fabric.on_failover_recall(id.0, bytes);
                    breakdown.charge(BlameComponent::RecallStall, link);
                    breakdown.charge(BlameComponent::FailoverDetour, penalty);
                    breakdown.charge(BlameComponent::FaultCpu, cpu);
                    link + penalty + cpu
                }
                Recall::Rebuild { counted } => {
                    // Abandon the remote pages and rebuild the
                    // container's state via the slow path (relaunch +
                    // reinit) locally.
                    let f = &mut self.faults.as_mut().expect("rebuilds need faults").report;
                    f.page_ins_gave_up += 1;
                    f.forced_cold_restarts += 1;
                    if !counted {
                        f.lost_remote_bytes += bytes;
                    }
                    self.pool
                        .discard(faulted, page_size)
                        .expect("faulted pages are held by the pool");
                    if let Some(fabric) = &mut self.fabric {
                        fabric.on_recall_lost(id.0);
                    }
                    let rebuild = spec.launch_time + spec.init_time;
                    self.tracer.emit(
                        Some(id.0),
                        Some(u64::from(req)),
                        EventKind::RecallAbandoned {
                            pages: faulted,
                            wasted_us: wasted.as_micros(),
                            rebuild_us: rebuild.as_micros(),
                        },
                    );
                    breakdown.charge(BlameComponent::ForcedRebuild, rebuild);
                    rebuild
                }
            };
            wasted + settled
        } else {
            SimDuration::ZERO
        };
        self.with_container(now, at, |_, ctx| {
            ctx.container.record_request_stall(stall);
        });

        // Begin-markers for the stall children of the exec span: one
        // synthetic `exec_stall` per nonzero component, in canonical
        // cause order (the span model serializes stalls at the head of
        // the exec window).
        if self.tracer.wants(faasmem_trace::TraceLayer::Container) {
            for cause in StallCause::ALL {
                let us = breakdown.get(stall_component(cause)).as_micros();
                if us > 0 {
                    self.tracer.emit(
                        Some(id.0),
                        Some(u64::from(req)),
                        EventKind::ExecStall { cause, us },
                    );
                }
            }
        }

        let jitter = self.rng.lognormal_jitter(EXEC_JITTER_SIGMA);
        let service = spec.exec_time.mul_f64(jitter);
        breakdown.charge(BlameComponent::Exec, service);
        let exec_time = service + stall;
        // Wall time this request spends blocked on the remote pool:
        // the recall families, not fault CPU or the local rebuild.
        let remote_wait = breakdown.get(BlameComponent::RecallStall)
            + breakdown.get(BlameComponent::FailoverDetour)
            + breakdown.get(BlameComponent::AbandonedWait);
        self.containers[at].flight = Some(InFlight {
            req,
            arrived,
            exec_started: now,
            cold,
            faults: outcome.faulted,
            breakdown,
            remote_stall_until: now + remote_wait,
        });
        queue.push(now + exec_time, Event::FinishExec(id));
    }

    fn handle_finish(
        &mut self,
        now: SimTime,
        id: ContainerId,
        queue: &mut EventQueue<Event>,
        report: &mut RunReport,
    ) {
        let at = self.position(id).expect("executing container");
        let flight = self.containers[at]
            .flight
            .take()
            .expect("in-flight request");
        let busy = now.saturating_since(flight.exec_started);
        self.with_container(now, at, |_, ctx| ctx.container.finish_execution(now, busy));
        self.policy_hook(now, at, |p, ctx| p.on_request_end(ctx));
        let function = self.containers[at].container.function();
        let latency = now.saturating_since(flight.arrived);
        if self.tracer.is_enabled() {
            self.tracer.emit(
                Some(id.0),
                Some(u64::from(flight.req)),
                EventKind::ExecEnd {
                    latency_us: latency.as_micros(),
                    faults: u64::from(flight.faults),
                },
            );
            self.tracer
                .emit(Some(id.0), None, EventKind::KeepAliveEnter);
        }
        if let Some(acc) = &mut self.blame {
            // Conservation is structural: the breakdown holds the exact
            // addends (cold-start, pure exec, stalls) this latency is
            // the sum of. `record` still checks and counts violations.
            acc.record(latency, flight.breakdown);
        }
        report.requests.push(RequestRecord {
            function,
            arrived: flight.arrived,
            latency,
            cold: flight.cold,
            faults: flight.faults,
        });
        queue.push(now + self.timeout_for(function), Event::RecycleCheck(id));
    }

    fn handle_recycle(
        &mut self,
        now: SimTime,
        id: ContainerId,
        queue: &mut EventQueue<Event>,
        report: &mut RunReport,
    ) {
        let Some(at) = self.position(id) else {
            return; // already recycled
        };
        let container = &self.containers[at].container;
        if container.stage() != ContainerStage::KeepAlive {
            return; // busy again; a newer check is scheduled
        }
        let timeout = self.timeout_for(container.function());
        if container.idle_since(now) < timeout {
            // Reused since this check was scheduled, or the adaptive
            // timeout grew in the meantime: re-arm at the new deadline.
            let deadline = container.last_used() + timeout;
            if deadline > now {
                queue.push(deadline, Event::RecycleCheck(id));
            }
            return;
        }
        self.recycle_container(now, at, report);
    }

    /// Retires the container at position `at`, with any request it still
    /// holds; the slots behind it move down by one.
    fn recycle_container(&mut self, now: SimTime, at: usize, report: &mut RunReport) {
        self.policy_hook(now, at, |p, ctx| p.on_container_recycled(ctx));
        let container = self.containers.remove(at).container;
        let id = container.id();
        self.ledger.fold(Some(Residency::of(&container)), None);
        if let Some(an) = &mut self.anatomy {
            // Fold the table's lifecycle edges and still-resident pages
            // into the run-wide flow matrix at end of container life.
            an.flow.absorb(container.table());
        }
        let remote_pages = container.table().remote_pages();
        if remote_pages > 0 {
            self.pool
                .discard(remote_pages, self.config.page_size)
                .expect("pool holds this container's remote pages");
        }
        if let Some(fabric) = &mut self.fabric {
            fabric.on_discard(id.0);
        }
        self.tracer.emit(
            Some(id.0),
            None,
            EventKind::ContainerRetire {
                requests: container.requests_served(),
            },
        );
        report.containers.push(ContainerRecord {
            function: container.function(),
            created_at: container.created_at(),
            retired_at: now,
            requests_served: container.requests_served(),
            busy_time: container.busy_time(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_workload::{Invocation, LoadClass, TraceSynthesizer};

    fn spec() -> BenchmarkSpec {
        BenchmarkSpec::by_name("json").unwrap()
    }

    fn one_function_trace(times_secs: &[u64]) -> InvocationTrace {
        let invs = times_secs
            .iter()
            .map(|&s| Invocation {
                at: SimTime::from_secs(s),
                function: FunctionId(0),
            })
            .collect();
        InvocationTrace::from_invocations(invs, SimTime::from_secs(2_000))
    }

    fn sim() -> PlatformSim {
        PlatformSim::builder()
            .register_function(spec())
            .seed(1)
            .build()
    }

    #[test]
    fn every_stall_cause_charges_the_blame_component_of_its_name() {
        for cause in StallCause::ALL {
            assert_eq!(stall_component(cause).name(), cause.name());
        }
    }

    #[test]
    fn single_request_cold_starts_and_recycles() {
        let mut s = sim();
        let report = s.run(&one_function_trace(&[10]));
        assert_eq!(report.requests_completed, 1);
        assert_eq!(report.cold_starts, 1);
        assert_eq!(report.containers.len(), 1);
        let c = &report.containers[0];
        assert_eq!(c.requests_served, 1);
        // Latency includes launch + init + exec.
        let lat = report.requests.iter().next().expect("one request").latency;
        assert!(lat >= spec().launch_time + spec().init_time);
        // Lifetime ≈ cold start + exec + keep-alive.
        assert!(c.lifetime() >= SimDuration::from_mins(10));
    }

    #[test]
    fn warm_request_avoids_cold_start() {
        let mut s = sim();
        let report = s.run(&one_function_trace(&[10, 30]));
        assert_eq!(report.requests_completed, 2);
        assert_eq!(report.cold_starts, 1);
        assert_eq!(report.containers.len(), 1, "same container reused");
        let warm = report.requests.iter().nth(1).expect("two requests");
        assert!(!warm.cold);
        assert!(
            warm.latency < spec().launch_time,
            "warm latency is just exec"
        );
        // Reuse interval was observed.
        let gaps = &report.reuse_intervals[&FunctionId(0)];
        assert_eq!(gaps.len(), 1);
        let gap = gaps.min().expect("one gap");
        assert!(gap > 15.0 && gap < 25.0);
    }

    #[test]
    fn keep_alive_expiry_forces_new_cold_start() {
        let mut s = sim();
        // Second request 700 s later: beyond the 600 s keep-alive.
        let report = s.run(&one_function_trace(&[10, 710]));
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.containers.len(), 2);
    }

    #[test]
    fn concurrent_requests_scale_out() {
        let mut s = sim();
        // Two arrivals in the same second: the first container is still
        // cold-starting, so the second must scale out.
        let report = s.run(&one_function_trace(&[10, 10]));
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.containers.len(), 2);
    }

    #[test]
    fn memory_timeline_rises_and_falls() {
        let mut s = sim();
        let report = s.run(&one_function_trace(&[10]));
        let peak = report.local_mem.max_value().unwrap();
        let base_bytes = (spec().base_mib() * 1024 * 1024) as f64;
        assert!(peak >= base_bytes, "peak {peak} >= base {base_bytes}");
        // After recycle everything is released.
        assert_eq!(report.local_mem.last_value(), Some(0.0));
        assert_eq!(report.live_containers.last_value(), Some(0.0));
    }

    #[test]
    fn null_policy_never_touches_pool() {
        let mut s = sim();
        let report = s.run(&one_function_trace(&[10, 20, 30, 40]));
        assert_eq!(report.pool_stats.bytes_out, 0);
        assert_eq!(report.pool_stats.bytes_in, 0);
        assert!(report.requests.iter().all(|r| r.faults == 0));
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = TraceSynthesizer::new(3)
            .load_class(LoadClass::High)
            .duration(SimTime::from_mins(10))
            .synthesize_for(FunctionId(0));
        let run = |seed| {
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .seed(seed)
                .build();
            let mut r = s.run(&trace);
            (
                r.requests_completed,
                r.cold_starts,
                r.p95_latency(),
                r.avg_local_mib(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2, "different seeds should jitter latency");
    }

    #[test]
    #[should_panic(expected = "fresh one")]
    fn double_run_panics() {
        let mut s = sim();
        let t = one_function_trace(&[1]);
        let _ = s.run(&t);
        let _ = s.run(&t);
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn unknown_function_panics() {
        let mut s = sim();
        let t = InvocationTrace::from_invocations(
            vec![Invocation {
                at: SimTime::ZERO,
                function: FunctionId(5),
            }],
            SimTime::from_secs(1),
        );
        let _ = s.run(&t);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn empty_builder_panics() {
        let _ = PlatformSim::builder().build();
    }

    #[test]
    fn multi_function_routing_is_isolated() {
        let mut s = PlatformSim::builder()
            .register_function(BenchmarkSpec::by_name("json").unwrap())
            .register_function(BenchmarkSpec::by_name("float").unwrap())
            .seed(2)
            .build();
        let invs = vec![
            Invocation {
                at: SimTime::from_secs(1),
                function: FunctionId(0),
            },
            Invocation {
                at: SimTime::from_secs(30),
                function: FunctionId(1),
            },
            Invocation {
                at: SimTime::from_secs(60),
                function: FunctionId(0),
            },
        ];
        let trace = InvocationTrace::from_invocations(invs, SimTime::from_secs(100));
        let report = s.run(&trace);
        assert_eq!(report.requests_completed, 3);
        // fn#1's container cannot serve fn#0: exactly 2 cold starts.
        assert_eq!(report.cold_starts, 2);
        assert_eq!(report.containers.len(), 2);
    }

    #[test]
    fn runtime_sharing_deducts_duplicates() {
        // Two concurrent containers of the same function: with sharing
        // on, the node counts one runtime copy instead of two.
        let run_with = |share: bool| {
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .share_runtime(share)
                .seed(1)
                .build();
            let report = s.run(&one_function_trace(&[10, 10]));
            report.local_mem.max_value().unwrap()
        };
        let unshared = run_with(false);
        let shared = run_with(true);
        let runtime_bytes = (spec().runtime_mib * 1024 * 1024) as f64;
        let saved = unshared - shared;
        assert!(
            (saved - runtime_bytes).abs() < runtime_bytes * 0.2,
            "expected ~one runtime copy saved ({runtime_bytes}), got {saved}"
        );
    }

    #[test]
    fn busy_fraction_reflected_in_records() {
        let mut s = sim();
        let report = s.run(&one_function_trace(&[10, 20, 30]));
        let c = &report.containers[0];
        assert!(c.busy_time > SimDuration::ZERO);
        assert!(c.inactive_fraction() > 0.9, "mostly idle during keep-alive");
    }

    /// A minimal offloading policy so fault tests have remote pages to
    /// lose: pushes the init segment to the pool after every request.
    #[derive(Debug)]
    struct OffloadInitPolicy;

    impl MemoryPolicy for OffloadInitPolicy {
        fn name(&self) -> &'static str {
            "OffloadInit"
        }
        fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
            ctx.offload_where(|_, m| m.segment() == faasmem_mem::Segment::Init);
        }
    }

    /// Records every tick visit and every recycle, with the instant and
    /// the container's id.
    #[derive(Debug, Default)]
    struct RecordingPolicy {
        ticks: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, ContainerId)>>>,
        recycles: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, ContainerId)>>>,
    }

    impl MemoryPolicy for RecordingPolicy {
        fn name(&self) -> &'static str {
            "Recording"
        }
        fn tick_interval(&self) -> Option<SimDuration> {
            Some(SimDuration::from_secs(1))
        }
        fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
            self.ticks.borrow_mut().push((ctx.now, ctx.container.id()));
        }
        fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
            self.recycles
                .borrow_mut()
                .push((ctx.now, ctx.container.id()));
        }
    }

    #[test]
    fn table_walks_in_id_order_and_requests_finish_on_their_containers() {
        use faasmem_trace::{LayerMask, TraceLayer, Tracer};
        // Three functions, a 20 s keep-alive. fn#1 goes idle after one
        // request, so its container (id 1) is recycled while higher ids
        // live on; fn#0's burst at t=1 scales out while its first
        // container is still cold; fn#1's late request cold-starts a
        // container appended behind the survivors.
        let mut invs = vec![(1, 0), (1, 0), (2, 1), (3, 2), (70, 1)];
        invs.extend((10..=90).step_by(5).flat_map(|t| [(t, 0), (t, 2)]));
        invs.sort_unstable();
        let invs = invs
            .into_iter()
            .map(|(s, f)| Invocation {
                at: SimTime::from_secs(s),
                function: FunctionId(f),
            })
            .collect();
        let trace = InvocationTrace::from_invocations(invs, SimTime::from_secs(100));
        let policy = RecordingPolicy::default();
        let (ticks, recycles) = (policy.ticks.clone(), policy.recycles.clone());
        let tracer = Tracer::recording(LayerMask::only(TraceLayer::Container));
        let mut s = PlatformSim::builder()
            .register_functions(
                ["json", "float", "image"].map(|n| BenchmarkSpec::by_name(n).unwrap()),
            )
            .keep_alive(SimDuration::from_secs(20))
            .policy(policy)
            .tracer(tracer.clone())
            .seed(3)
            .build();
        let report = s.run(&trace);
        assert_eq!(report.requests_completed, trace.len());

        let ticks = ticks.borrow();
        let recycles = recycles.borrow();
        for pair in ticks.windows(2) {
            let ((t0, a), (t1, b)) = (pair[0], pair[1]);
            assert!(t0 < t1 || a < b, "tick at {t1:?} visited {b} after {a}");
        }
        // Some container was recycled while one with a higher id was
        // ticked both before and after it: a recycle mid-table.
        let live_across = |t: SimTime, id: ContainerId| {
            ticks
                .iter()
                .any(|&(u, x)| u < t && x > id && ticks.iter().any(|&(v, y)| v > t && y == x))
        };
        assert!(
            recycles.iter().any(|&(t, id)| live_across(t, id)),
            "{recycles:?}"
        );
        assert!(report.cold_starts >= 4, "a cold start followed a recycle");

        // Every request ends on the container it started on.
        let mut started: HashMap<u64, u64> = HashMap::new();
        let mut ended = 0;
        for e in tracer.take_events() {
            match e.kind {
                EventKind::ExecStart { .. } => {
                    started.insert(e.request.unwrap(), e.container.unwrap());
                }
                EventKind::ExecEnd { .. } => {
                    assert_eq!(started.get(&e.request.unwrap()), e.container.as_ref());
                    ended += 1;
                }
                _ => {}
            }
        }
        assert_eq!(ended, trace.len());
    }

    #[test]
    fn empty_fault_plan_is_behavioral_noop() {
        let run = |faults: Option<FaultConfig>| {
            let mut b = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .seed(5);
            if let Some(fc) = faults {
                b = b.faults(fc);
            }
            let mut s = b.build();
            let mut r = s.run(&one_function_trace(&[10, 30, 700]));
            (
                r.requests_completed,
                r.cold_starts,
                r.p95_latency(),
                r.avg_local_mib(),
                r.pool_stats,
            )
        };
        let healthy = run(None);
        let empty = run(Some(FaultConfig {
            plan_override: Some(FaultPlan::empty()),
            ..FaultConfig::default()
        }));
        assert_eq!(healthy, empty, "empty plan must not perturb the run");
    }

    #[test]
    fn empty_plan_reports_full_availability() {
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(5)
            .faults(FaultConfig {
                slo: Some(SimDuration::from_secs(30)),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10]));
        let f = r.faults.expect("fault accounting present");
        assert_eq!(f.link_availability, 1.0);
        assert_eq!(f.link_downtime, SimDuration::ZERO);
        assert_eq!(f.forced_cold_restarts, 0);
        assert_eq!(f.page_ins_gave_up, 0);
        assert!(f.slo_total >= 1, "SLO counts observed the request");
    }

    #[test]
    fn slo_counts_only_latencies_strictly_above_the_objective() {
        let trace = one_function_trace(&[10, 20, 700]);
        let run = |slo| {
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .seed(5)
                .faults(FaultConfig {
                    slo,
                    ..FaultConfig::default()
                })
                .build();
            let r = s.run(&trace);
            let latencies: Vec<SimDuration> = r.requests.iter().map(|q| q.latency).collect();
            (r.faults.expect("fault accounting present"), latencies)
        };
        let (f, latencies) = run(None);
        assert_eq!((f.slo_total, f.slo_violations), (0, 0), "no objective");
        assert_eq!(f.slo_violation_ratio(), 0.0);
        assert_eq!(latencies.len(), 3);
        for &threshold in &latencies {
            let above = latencies.iter().filter(|&&l| l > threshold).count() as u64;
            let (f, _) = run(Some(threshold));
            assert_eq!((f.slo_total, f.slo_violations), (3, above), "{threshold}");
            assert_eq!(f.slo_violation_ratio(), above as f64 / 3.0);
        }
        // A latency equal to the objective meets it; 1 µs less misses.
        let max = *latencies.iter().max().unwrap();
        assert_eq!(run(Some(max)).0.slo_violations, 0);
        let below = SimDuration::from_micros(max.as_micros() - 1);
        assert!(run(Some(below)).0.slo_violations >= 1);
    }

    #[test]
    fn planned_crash_kills_idle_container() {
        let plan = FaultPlan {
            crashes: vec![faasmem_sim::faults::CrashEvent {
                at: SimTime::from_secs(60),
                pick: 0,
            }],
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 120]));
        assert_eq!(r.faults.unwrap().container_crashes, 1);
        assert_eq!(
            r.cold_starts, 2,
            "second request cold-starts after the crash"
        );
        assert_eq!(r.containers.len(), 2);
    }

    #[test]
    fn node_loss_forces_cold_restarts_for_remote_holders() {
        let plan = FaultPlan {
            node_losses: vec![faasmem_sim::faults::NodeLossEvent {
                at: SimTime::from_secs(60),
                fraction: 1.0,
            }],
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 120]));
        let f = r.faults.unwrap();
        assert_eq!(f.node_loss_events, 1);
        assert_eq!(f.forced_cold_restarts, 1, "the idle remote-holder dies");
        assert!(f.lost_remote_bytes > 0);
        assert_eq!(r.cold_starts, 2);
    }

    #[test]
    fn pool_node_loss_without_redundancy_forces_cold_rebuild() {
        let plan = FaultPlan {
            pool_node_losses: vec![faasmem_sim::faults::PoolNodeLossEvent {
                at: SimTime::from_secs(60),
                node: 0,
            }],
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 120]));
        let f = r.faults.unwrap();
        assert_eq!(f.node_loss_events, 1);
        assert_eq!(
            f.forced_cold_restarts, 1,
            "the idle remote-holder's pages died with the only node"
        );
        assert!(f.lost_remote_bytes > 0);
        // Even a degenerate config materializes a single-node fabric
        // once the plan kills pool nodes, so the loss has a ledger.
        let d = r.durability.expect("pool-node losses imply a fabric");
        assert_eq!(d.pool_nodes, 1);
        assert_eq!(d.nodes_up, 0);
        assert_eq!(d.tracker.nodes_lost, 1);
        assert!(d.tracker.bytes_lost > 0);
        assert_eq!(d.tracker.avoided_cold_rebuilds, 0);
        assert_eq!(r.cold_starts, 2);
    }

    #[test]
    fn offloads_stay_suspended_after_the_last_pool_node_dies() {
        use faasmem_telemetry::{SampleSpec, SeriesMask};
        // The only pool node dies at t=60: nowhere is left to place a
        // page, so offloading must stay suspended to the end of the run,
        // however many events pass while the breaker stays closed.
        let loss = SimTime::from_secs(60);
        let plan = FaultPlan {
            pool_node_losses: vec![faasmem_sim::faults::PoolNodeLossEvent { at: loss, node: 0 }],
            ..FaultPlan::empty()
        };
        let sampler = Sampler::recording(SampleSpec {
            interval: SimDuration::from_secs(30),
            select: SeriesMask::only(SeriesGroup::Pool),
        });
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .sampler(sampler.clone())
            .faults(FaultConfig {
                plan_override: Some(plan),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 120, 300]));
        let ts = sampler.take_series();
        let suspended = ts.column("pool.offloads_suspended").expect("pool gauge");
        let after: Vec<f64> = ts
            .ticks()
            .iter()
            .zip(suspended)
            .filter(|&(&t, _)| t > loss.as_micros())
            .map(|(_, &v)| v)
            .collect();
        assert!(after.len() > 10, "the run outlives the loss by minutes");
        assert!(after.iter().all(|&v| v == 1.0), "{after:?}");
        let f = r.faults.unwrap();
        // Both later requests' init offloads are refused, so only the
        // idle holder caught by the loss is rebuilt cold.
        assert_eq!(f.offloads_refused, 2);
        assert_eq!(f.forced_cold_restarts, 1);
        assert_eq!(r.requests_completed, 3);
    }

    #[test]
    fn mirrored_fabric_survives_a_pool_node_loss() {
        use faasmem_pool::RedundancyPolicy;
        // Same loss event as the no-redundancy test above, but the
        // fabric mirrors every segment across two nodes: the replica
        // carries the recall and the container is never recycled.
        let plan = FaultPlan {
            pool_node_losses: vec![faasmem_sim::faults::PoolNodeLossEvent {
                at: SimTime::from_secs(60),
                node: 0,
            }],
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .fabric(FabricConfig {
                nodes: 2,
                redundancy: RedundancyPolicy::Mirror { k: 2 },
                ..FabricConfig::default()
            })
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 120]));
        let f = r.faults.unwrap();
        assert_eq!(f.node_loss_events, 1);
        assert_eq!(f.forced_cold_restarts, 0, "the mirror absorbed the loss");
        assert_eq!(f.lost_remote_bytes, 0);
        let d = r.durability.expect("fabric run reports durability");
        assert_eq!(d.pool_nodes, 2);
        assert_eq!(d.nodes_up, 1);
        assert_eq!(d.tracker.nodes_lost, 1);
        assert_eq!(d.tracker.bytes_lost, 0);
        assert!(d.tracker.avoided_cold_rebuilds >= 1);
        assert!(
            d.tracker.replica_bytes_out > 0,
            "mirroring writes replica traffic"
        );
        assert_eq!(r.cold_starts, 1, "the second request stays warm");
        assert_eq!(r.requests_completed, 2);
    }

    #[test]
    fn degenerate_fabric_reports_no_durability() {
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .build();
        let r = s.run(&one_function_trace(&[10, 30]));
        assert!(
            r.durability.is_none(),
            "one node + no redundancy must not grow a durability block"
        );
    }

    #[test]
    fn validate_rejects_fault_spec_fabric_mismatch() {
        use faasmem_pool::RedundancyPolicy;
        let config = PlatformConfig {
            fabric: FabricConfig {
                nodes: 4,
                redundancy: RedundancyPolicy::Mirror { k: 2 },
                ..FabricConfig::default()
            },
            faults: Some(FaultConfig {
                spec: FaultSpec::new(1).pool_node_losses(SimDuration::from_mins(5), 2),
                ..FaultConfig::default()
            }),
            ..PlatformConfig::default()
        };
        let problems = config.validate().expect_err("mismatch must be rejected");
        assert!(
            problems.iter().any(|p| p.contains("pool-node losses")),
            "{problems:?}"
        );
    }

    #[test]
    fn long_outage_abandons_recall_and_rebuilds_locally() {
        use faasmem_sim::faults::{LinkSchedule, LinkWindow};
        let plan = FaultPlan {
            link: LinkSchedule::from_windows(vec![LinkWindow {
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(3_600),
                factor: 0.0,
            }]),
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                policy: RemoteFaultPolicy::hasty(),
                ..FaultConfig::default()
            })
            .build();
        // Request 2 warm-starts at t=60 and must recall the init pages
        // offloaded after request 1 — straight into the outage.
        let r = s.run(&one_function_trace(&[10, 60]));
        let f = r.faults.unwrap();
        assert!(f.page_ins_gave_up >= 1, "hasty policy gives up mid-outage");
        assert!(f.forced_cold_restarts >= 1);
        assert!(f.page_in_retries >= 1);
        assert!(f.lost_remote_bytes > 0);
        assert!(f.link_availability < 1.0);
        assert_eq!(r.requests_completed, 2, "the request still completes");
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let chaos = || {
            FaultSpec::new(99)
                .outages(SimDuration::from_mins(2), SimDuration::from_secs(20))
                .crashes(SimDuration::from_mins(3))
        };
        let run = || {
            let trace = TraceSynthesizer::new(3)
                .load_class(LoadClass::High)
                .duration(SimTime::from_mins(10))
                .synthesize_for(FunctionId(0));
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .seed(7)
                .faults(FaultConfig {
                    spec: chaos(),
                    slo: Some(SimDuration::from_secs(2)),
                    ..FaultConfig::default()
                })
                .build();
            let mut r = s.run(&trace);
            (r.summarize(), r.faults)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_observes_full_lifecycle_in_order() {
        use faasmem_trace::{LayerMask, TraceLayer, Tracer};
        let tracer = Tracer::recording(LayerMask::only(TraceLayer::Container));
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(1)
            .tracer(tracer.clone())
            .build();
        let report = s.run(&one_function_trace(&[10, 30]));
        let events = tracer.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            [
                "request_arrive",
                "container_launch",
                "runtime_loaded",
                "init_done",
                "exec_start",
                "exec_end",
                "keep_alive_enter",
                "request_arrive",
                "exec_start",
                "exec_end",
                "keep_alive_enter",
                "container_retire",
            ],
            "cold start, warm reuse, then keep-alive expiry"
        );
        assert!(
            events.windows(2).all(|w| w[0].key() < w[1].key()),
            "(time, seq) stamps are a strict total order"
        );
        // The registry snapshot agrees with the report.
        assert_eq!(report.registry.counter("containers.created"), 1);
        assert_eq!(report.registry.counter("requests.completed"), 2);
        assert_eq!(report.registry.counter("requests.cold_starts"), 1);
        assert_eq!(report.registry.gauge("containers.peak_live"), Some(1.0));
    }

    #[test]
    fn tracer_reports_fault_windows_and_recall_path() {
        use faasmem_sim::faults::{LinkSchedule, LinkWindow};
        use faasmem_trace::{LayerMask, Tracer};
        let plan = FaultPlan {
            link: LinkSchedule::from_windows(vec![LinkWindow {
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(3_600),
                factor: 0.0,
            }]),
            ..FaultPlan::empty()
        };
        let tracer = Tracer::recording(LayerMask::ALL);
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                policy: RemoteFaultPolicy::hasty(),
                ..FaultConfig::default()
            })
            .tracer(tracer.clone())
            .build();
        let _ = s.run(&one_function_trace(&[10, 60]));
        let events = tracer.take_events();
        let windows: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultWindow { factor, .. } => Some(factor),
                _ => None,
            })
            .collect();
        assert_eq!(windows, [0.0], "the planned outage is announced");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::RecallGaveUp { .. })),
            "the abandoned recall shows up in the pool layer"
        );
    }

    #[test]
    fn sampler_records_boundary_aligned_rows() {
        use faasmem_telemetry::SampleSpec;
        let sampler = Sampler::recording(SampleSpec::every(SimDuration::from_secs(60)));
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(1)
            .sampler(sampler.clone())
            .build();
        let report = s.run(&one_function_trace(&[10, 30]));
        let ts = sampler.take_series();
        assert!(ts.is_rectangular());
        assert!(ts.len() > 2, "a 10-minute keep-alive spans many minutes");
        // Rows land exactly on interval boundaries, starting with the
        // t=0 baseline.
        assert_eq!(ts.ticks()[0], 0);
        assert!(ts.ticks().iter().all(|t| t % 60_000_000 == 0));
        assert!(ts.ticks().windows(2).all(|w| w[0] < w[1]));
        // The idle container is visible in the keep-alive series.
        let keepalive = ts.column("faas.keepalive").unwrap();
        assert_eq!(keepalive[0], 0.0);
        assert!(keepalive.contains(&1.0));
        assert!(ts
            .column("mem.local_pages")
            .unwrap()
            .iter()
            .any(|&v| v > 0.0));
        // Registry series are per-interval deltas: they sum back to
        // the cumulative total.
        let req: f64 = ts
            .column("registry.requests_completed")
            .unwrap()
            .iter()
            .sum();
        assert_eq!(req, report.requests_completed as f64);
        // Every catalog group contributed columns.
        for prefix in ["faas.", "mem.", "pool.", "registry."] {
            assert!(
                ts.column_names().any(|n| n.starts_with(prefix)),
                "missing {prefix}* series"
            );
        }
    }

    #[test]
    fn sampler_selects_only_requested_groups() {
        use faasmem_telemetry::{SampleSpec, SeriesMask};
        let sampler = Sampler::recording(SampleSpec {
            interval: SimDuration::from_secs(60),
            select: SeriesMask::only(SeriesGroup::Pool),
        });
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(1)
            .sampler(sampler.clone())
            .build();
        s.run(&one_function_trace(&[10]));
        let ts = sampler.take_series();
        assert!(
            ts.column_names().all(|n| n.starts_with("pool.")),
            "only pool series"
        );
        assert!(ts.column("pool.used_bytes").is_some());
    }

    #[test]
    fn sampler_does_not_perturb_the_run() {
        use faasmem_telemetry::SampleSpec;
        let baseline = sim().run(&one_function_trace(&[10, 30, 710]));
        let sampler = Sampler::recording(SampleSpec::every(SimDuration::from_secs(30)));
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .seed(1)
            .sampler(sampler.clone())
            .build();
        let sampled = s.run(&one_function_trace(&[10, 30, 710]));
        assert!(!sampler.take_series().is_empty());
        // Sampling is lazy (no injected events), so the simulation is
        // bit-for-bit unaffected: same finish time, same counters.
        assert_eq!(sampled.finished_at, baseline.finished_at);
        assert_eq!(sampled.registry, baseline.registry);
        assert_eq!(sampled.requests_completed, baseline.requests_completed);
        assert_eq!(sampled.cold_starts, baseline.cold_starts);
        assert_eq!(sampled.pool_stats, baseline.pool_stats);
    }

    #[test]
    fn validate_reports_every_problem() {
        let mut config = PlatformConfig::default();
        assert!(config.validate().is_ok());
        config.page_size = 0;
        config.fabric.nodes = 0;
        config.pool.link_bytes_per_sec = 0;
        config.faults = Some(FaultConfig {
            slo: Some(SimDuration::ZERO),
            ..FaultConfig::default()
        });
        let problems = config.validate().unwrap_err();
        assert!(problems.len() >= 4, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("page size")));
        assert!(problems.iter().any(|p| p.contains("SLO")));
    }

    #[test]
    fn blame_is_off_by_default() {
        let mut s = sim();
        let r = s.run(&one_function_trace(&[10]));
        assert!(r.blame.is_none());
    }

    #[test]
    fn blame_conserves_and_matches_latencies() {
        use faasmem_metrics::BlameComponent;
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .blame(true)
            .seed(5)
            .build();
        let r = s.run(&one_function_trace(&[10, 30, 700]));
        let blame = r.blame.expect("blame enabled");
        assert_eq!(blame.invocations, r.requests_completed as u64);
        assert_eq!(blame.conservation_violations, 0);
        // Component totals sum to the sum of all end-to-end latencies:
        // per-invocation conservation, aggregated.
        let latency_sum: u64 = r.requests.iter().map(|q| q.latency.as_micros()).sum();
        let component_sum: u64 = BlameComponent::ALL
            .iter()
            .map(|&c| blame.component(c).total.as_micros())
            .sum();
        assert_eq!(component_sum, latency_sum);
        // The warm request at t=30 recalls the init pages offloaded
        // after the first request, so a recall stall is attributed.
        assert!(blame.component(BlameComponent::RecallStall).total > SimDuration::ZERO);
        assert!(blame.component(BlameComponent::FaultCpu).total > SimDuration::ZERO);
        assert!(blame.component(BlameComponent::ColdStart).total > SimDuration::ZERO);
        assert_eq!(
            blame.component(BlameComponent::Queue).total,
            SimDuration::ZERO
        );
    }

    #[test]
    fn blame_does_not_perturb_the_run() {
        let run = |on: bool| {
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .blame(on)
                .seed(5)
                .build();
            let mut r = s.run(&one_function_trace(&[10, 30, 700]));
            (
                r.requests_completed,
                r.cold_starts,
                r.p95_latency(),
                r.finished_at,
                r.pool_stats,
                r.registry.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn blame_attributes_forced_rebuild_under_outage() {
        use faasmem_metrics::BlameComponent;
        use faasmem_sim::faults::{LinkSchedule, LinkWindow};
        let plan = FaultPlan {
            link: LinkSchedule::from_windows(vec![LinkWindow {
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(3_600),
                factor: 0.0,
            }]),
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .blame(true)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                policy: RemoteFaultPolicy::hasty(),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 60]));
        let blame = r.blame.expect("blame enabled");
        assert_eq!(blame.conservation_violations, 0);
        // The mid-outage recall wastes its retries, then rebuilds
        // locally: both phases show up as named components.
        assert!(blame.component(BlameComponent::AbandonedWait).total > SimDuration::ZERO);
        assert!(blame.component(BlameComponent::ForcedRebuild).total > SimDuration::ZERO);
    }

    #[test]
    fn recall_that_gives_up_detours_to_a_surviving_replica() {
        use faasmem_metrics::BlameComponent;
        use faasmem_pool::RedundancyPolicy;
        use faasmem_sim::faults::{LinkSchedule, LinkWindow};
        // The outage of the test above, but the segment is erasure-coded
        // and a parity node has died (primary intact, so no up-front
        // detour): once the primary retries give up, the surviving
        // fragments serve the recall — paying the degraded-read
        // reconstruction — instead of a local rebuild.
        let plan = FaultPlan {
            link: LinkSchedule::from_windows(vec![LinkWindow {
                start: SimTime::from_secs(40),
                end: SimTime::from_secs(3_600),
                factor: 0.0,
            }]),
            pool_node_losses: vec![faasmem_sim::faults::PoolNodeLossEvent {
                at: SimTime::from_secs(50),
                node: 2,
            }],
            ..FaultPlan::empty()
        };
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .fabric(FabricConfig {
                nodes: 3,
                redundancy: RedundancyPolicy::ErasureCoded { data: 2, parity: 1 },
                ..FabricConfig::default()
            })
            .blame(true)
            .seed(5)
            .faults(FaultConfig {
                plan_override: Some(plan),
                policy: RemoteFaultPolicy::hasty(),
                ..FaultConfig::default()
            })
            .build();
        let r = s.run(&one_function_trace(&[10, 60]));
        let f = r.faults.unwrap();
        assert!(f.page_in_retries >= 1, "the primary path was retried");
        assert_eq!(f.page_ins_gave_up, 0, "the replica carried the recall");
        assert_eq!(f.forced_cold_restarts, 0);
        assert_eq!(f.lost_remote_bytes, 0);
        assert_eq!(r.cold_starts, 1, "the second request stays warm");
        let blame = r.blame.expect("blame enabled");
        assert_eq!(blame.conservation_violations, 0);
        for component in [
            BlameComponent::AbandonedWait,
            BlameComponent::RecallStall,
            BlameComponent::FailoverDetour,
        ] {
            assert!(
                blame.component(component).total > SimDuration::ZERO,
                "{component:?}"
            );
        }
        assert_eq!(
            blame.component(BlameComponent::ForcedRebuild).total,
            SimDuration::ZERO
        );
    }

    #[test]
    fn traced_run_yields_conserving_spans_matching_blame() {
        use faasmem_metrics::BlameComponent;
        use faasmem_trace::{build_spans, LayerMask, Tracer};
        let tracer = Tracer::recording(LayerMask::ALL);
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .blame(true)
            .seed(5)
            .tracer(tracer.clone())
            .build();
        let r = s.run(&one_function_trace(&[10, 30, 700]));
        let blame = r.blame.expect("blame enabled");
        let spans = build_spans(&tracer.take_events());
        assert_eq!(spans.len(), r.requests_completed);
        // Every reconstructed tree tiles its invocation exactly, and
        // summing span blame across invocations reproduces the
        // accumulator's per-component totals — the event stream and
        // the in-simulator accounting agree to the microsecond.
        let mut by_component: HashMap<&str, u64> = HashMap::new();
        for inv in &spans {
            assert!(inv.conserves(), "request {} spans must tile", inv.request);
            for (name, us) in inv.blame() {
                *by_component.entry(name).or_default() += us;
            }
        }
        for c in BlameComponent::ALL {
            assert_eq!(
                by_component.get(c.name()).copied().unwrap_or(0),
                blame.component(c).total.as_micros(),
                "component {} diverges between spans and blame",
                c.name()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]
        // Conservation on real runs: random seeds, load and fault
        // injection; every completed invocation's components must sum
        // exactly to its measured latency (the accumulator counts — and
        // in debug builds asserts on — any violation).
        #[test]
        fn prop_blame_conserves_on_real_runs(
            seed in 0u64..1_000,
            fault_seed in 0u64..4,
            mins in 2u64..5,
        ) {
            let trace = TraceSynthesizer::new(seed ^ 0x5EED)
                .load_class(LoadClass::High)
                .duration(SimTime::from_mins(mins))
                .synthesize_for(FunctionId(0));
            let mut b = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .blame(true)
                .seed(seed);
            if fault_seed > 0 {
                b = b.faults(FaultConfig {
                    spec: FaultSpec::new(fault_seed)
                        .outages(SimDuration::from_mins(2), SimDuration::from_secs(20)),
                    ..FaultConfig::default()
                });
            }
            let mut s = b.build();
            let r = s.run(&trace);
            let blame = r.blame.expect("blame enabled");
            proptest::prop_assert_eq!(blame.conservation_violations, 0);
            proptest::prop_assert_eq!(blame.invocations, r.requests_completed as u64);
            let latency_sum: u64 = r.requests.iter().map(|q| q.latency.as_micros()).sum();
            let component_sum: u64 = faasmem_metrics::BlameComponent::ALL
                .iter()
                .map(|&c| blame.component(c).total.as_micros())
                .sum();
            proptest::prop_assert_eq!(component_sum, latency_sum);
        }
    }

    #[test]
    fn anatomy_is_off_by_default() {
        let mut s = sim();
        let r = s.run(&one_function_trace(&[10]));
        assert!(r.memory_anatomy.is_none());
        assert!(r.function_waste.is_empty());
    }

    #[test]
    fn anatomy_conserves_and_attributes_residency() {
        use faasmem_metrics::WasteComponent;
        let mut s = PlatformSim::builder()
            .register_function(spec())
            .policy(OffloadInitPolicy)
            .memory_anatomy(true)
            .seed(5)
            .build();
        let r = s.run(&one_function_trace(&[10, 30, 700]));
        let an = r.memory_anatomy.expect("anatomy enabled");
        assert_eq!(an.conservation_violations(), 0);
        let w = an.waste;
        assert!(w.steps > 0);
        assert!(w.component(WasteComponent::ActiveExec) > 0);
        // The container dwells in keep-alive between the bursts.
        assert!(w.component(WasteComponent::KeepaliveIdle) > 0);
        // Init pages offloaded by the policy occupy the pool and paid
        // link time on the way out.
        assert!(w.component(WasteComponent::PoolPrimary) > 0);
        assert!(w.component(WasteComponent::OffloadInflight) > 0);
        // Every table was folded into the flow ledger and its rows tile.
        assert_eq!(an.flow.row_violations(), 0);
        assert!(an.flow.tables >= 1);
        assert!(an.flow.flows.offloaded > 0);
        // Per-function ledgers tile the run-wide compute side exactly.
        assert!(!r.function_waste.is_empty());
        for c in [
            WasteComponent::ActiveExec,
            WasteComponent::KeepaliveIdle,
            WasteComponent::InitOverhead,
            WasteComponent::LocalHotPool,
        ] {
            let from_functions: u128 = r.function_waste.iter().map(|f| f.ledger.get(c)).sum();
            assert_eq!(from_functions, w.component(c), "component {}", c.name());
        }
    }

    #[test]
    fn anatomy_does_not_perturb_the_run() {
        let run = |on: bool| {
            let mut s = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .memory_anatomy(on)
                .seed(5)
                .build();
            let mut r = s.run(&one_function_trace(&[10, 30, 700]));
            (
                r.requests_completed,
                r.cold_starts,
                r.p95_latency(),
                r.finished_at,
                r.pool_stats,
                r.registry.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]
        // Anatomy conservation on real runs: both reconciliations — the
        // stage partition against local bytes and the pool's ledger
        // against the tables' remote bytes — must close on every
        // interval, with and without a redundant fabric under fault
        // injection.
        #[test]
        fn prop_anatomy_conserves_on_real_runs(
            seed in 0u64..1_000,
            fault_seed in 0u64..4,
            mins in 2u64..5,
        ) {
            let trace = TraceSynthesizer::new(seed ^ 0x0A7A)
                .load_class(LoadClass::High)
                .duration(SimTime::from_mins(mins))
                .synthesize_for(FunctionId(0));
            let mut b = PlatformSim::builder()
                .register_function(spec())
                .policy(OffloadInitPolicy)
                .memory_anatomy(true)
                .seed(seed);
            if fault_seed > 0 {
                b = b
                    .fabric(FabricConfig {
                        nodes: 2,
                        redundancy: faasmem_pool::RedundancyPolicy::Mirror { k: 2 },
                        ..FabricConfig::default()
                    })
                    .faults(FaultConfig {
                        spec: FaultSpec::new(fault_seed)
                            .outages(SimDuration::from_mins(2), SimDuration::from_secs(20)),
                        ..FaultConfig::default()
                    });
            }
            let mut s = b.build();
            let r = s.run(&trace);
            let an = r.memory_anatomy.expect("anatomy enabled");
            proptest::prop_assert_eq!(an.waste.conservation_violations, 0);
            proptest::prop_assert_eq!(an.flow.row_violations(), 0);
            proptest::prop_assert!(an.waste.steps > 0);
        }
    }
}
