//! Zero steady-state allocation on the event and page-table hot paths.
//!
//! The event queue's binary heap keeps its capacity, so once a workload
//! has reached its high-water of pending events, a pop-one/push-one
//! churn must perform **zero** heap allocations. A counting global
//! allocator measures exactly that: warm the structure through several
//! full cycles at the identical operation mix, switch the counter on,
//! run the same mix again, and assert the count stayed at zero.
//!
//! A container's page table needs no warmup at all: it is reserved for
//! the spec's runtime + init + execution pages when the container is
//! created, so the whole page-table lifecycle — segment allocation,
//! barriers, touches, the fused promotion scan, freeing and recycling
//! the execution range, the budget-bounded semi-warm drain into a
//! reserved buffer, offload and page-in — allocates nothing. That also
//! proves the spec-derived reservation is large enough. Hundreds of
//! further requests, each recycling the last one's execution range,
//! allocate nothing and leave the table's run list as it was. A
//! DAMON-style policy's first aging scan allocates the table's idle
//! counters once; after it, aging rounds and execution free/recycle
//! allocate nothing.
//!
//! Planning a request into a run-long [`AccessPlanner`] and touching
//! its pages through [`touch_request`] allocates nothing either once the
//! planner has seen the workload's largest request — the warm-request
//! path of a 4 KiB BERT container, with its ~100k-page hot core.
//!
//! A policy's offload → page-in round trip through [`PolicyCtx`] — the
//! semi-warm drain and recall shape — allocates nothing either once the
//! pool's link and the bandwidth governor's sliding window have settled.
//!
//! A FaaSMem maintenance tick on a keep-alive container reads the
//! semi-warm start timing in place from the platform's sorted
//! reuse-interval store, so it allocates nothing — neither while the
//! container is still warm nor, once the drain buffer has grown to the
//! per-tick budget, while the semi-warm drain runs.
//!
//! TMO and DAMON (exact scan) ticks, each re-offloading pages a
//! prefetch brought back, allocate nothing either once their scratch
//! buffers and per-container state have grown on the first ticks.
//!
//! Streaming a synthesized cluster trace allocates only when its
//! iterator is made (the merge's cursors and heap): each arrival the
//! generators draw after that allocates nothing.
//!
//! One `#[test]` drives every scenario — the counter is process-global,
//! so concurrent test threads would attribute each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use faasmem_baselines::{DamonPolicy, TmoConfig, TmoPolicy};
use faasmem_core::{FaasMemPolicy, PucketKind, Puckets, SemiWarm};
use faasmem_faas::{touch_request, Container, ContainerId, FunctionId, MemoryPolicy, PolicyCtx};
use faasmem_mem::{mib_to_pages, PageId, Segment, PAGE_SIZE_4K};
use faasmem_metrics::Cdf;
use faasmem_pool::{BandwidthGovernor, PoolConfig, RemotePool};
use faasmem_sim::{EventQueue, SimDuration, SimRng, SimTime};
use faasmem_workload::{AccessPlanner, BenchmarkSpec, TraceSynthesizer};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many
/// allocations (malloc/calloc/realloc) it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), r)
}

/// Pop-one/push-one hold churn: the event-loop shape. Deterministic
/// deltas, so warmup and measurement run the identical mix.
fn queue_churn(q: &mut EventQueue<u64>, ops: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..ops {
        let (at, ev) = q.pop().expect("hold population never drains");
        acc = acc.wrapping_add(ev);
        let delta = 500 + (i as u64 % 97) * 31;
        q.push(at + SimDuration::from_micros(delta), ev);
    }
    acc
}

/// Pages one semi-warm tick drains in the lifecycle below.
const DRAIN_BUDGET: usize = 512;

/// One container's page-table lifecycle in platform order: launch,
/// Runtime-Init barrier, init, Init-Execution barrier, two requests
/// (the second recycles the first's execution range), each followed
/// by the fused promotion scan, then one semi-warm drain of
/// [`DRAIN_BUDGET`] pages collected coldest-first into `drain` (whose
/// capacity the caller reserved) and offloaded, and an offload/page-in
/// round trip of the runtime segment. Returns the table length at the
/// end.
fn page_table_lifecycle(c: &mut Container, drain: &mut Vec<PageId>) -> usize {
    let mut puckets = Puckets::new();
    c.finish_launch();
    puckets.insert_runtime_init_barrier(c.table_mut());
    c.finish_init();
    puckets.insert_init_exec_barrier(c.table_mut());
    let exec_pages = mib_to_pages(c.spec().exec_mib, c.table().page_size()) as u32;
    for request in 0..2u64 {
        if request > 0 {
            c.begin_execution(SimTime::from_secs(request));
        }
        let hot = c.runtime_range().take(c.runtime_hot_pages());
        let init = c.init_range();
        c.table_mut().touch_range(hot);
        c.table_mut().touch_range(init);
        let exec = c.table_mut().alloc(Segment::Execution, exec_pages);
        c.table_mut().touch_range(exec);
        c.set_exec_range(exec);
        puckets.promote_accessed(c.table_mut());
        c.finish_execution(SimTime::from_secs(request), SimDuration::ZERO);
    }
    drain.clear();
    for kind in [PucketKind::Runtime, PucketKind::Init] {
        puckets.append_inactive_pages(c.table(), kind, DRAIN_BUDGET - drain.len(), drain);
    }
    c.table()
        .append_hot_pool_local(DRAIN_BUDGET - drain.len(), drain);
    c.table_mut().offload_pages(drain.iter().copied());
    let runtime = c.runtime_range();
    c.table_mut().offload_range(runtime);
    c.table_mut().page_in_range(runtime);
    c.table().len()
}

/// `requests` requests on a keep-alive container, starting at second
/// `from`: each allocates the execution segment (recycling the previous
/// request's range), touches it and frees it on completion.
fn request_cycles(c: &mut Container, from: u64, requests: u64) {
    let exec_pages = mib_to_pages(c.spec().exec_mib, c.table().page_size()) as u32;
    for s in from..from + requests {
        c.begin_execution(SimTime::from_secs(s));
        let exec = c.table_mut().alloc(Segment::Execution, exec_pages);
        c.table_mut().touch_range(exec);
        c.set_exec_range(exec);
        c.finish_execution(SimTime::from_secs(s), SimDuration::ZERO);
    }
}

/// `requests` warm requests in platform order: plan into `planner`,
/// offload the init segment so the touches fault, then touch the plan's
/// runtime and init pages. Returns the pages faulted back in.
fn warm_requests(
    c: &mut Container,
    planner: &mut AccessPlanner,
    rng: &mut SimRng,
    requests: u32,
) -> u64 {
    let spec = c.spec().clone();
    let (runtime, init) = (c.runtime_range(), c.init_range());
    let mut faulted = 0u64;
    for _ in 0..requests {
        let plan = planner.plan_with_rare_runtime(
            spec.init_access,
            c.runtime_hot_pages(),
            runtime.len(),
            spec.runtime_rare_touch_prob,
            init.len(),
            rng,
        );
        c.table_mut().offload_range(init);
        faulted += u64::from(touch_request(c.table_mut(), runtime, init, plan).faulted);
    }
    faulted
}

/// `rounds` policy round trips, one per simulated millisecond starting
/// at `from_ms`: offload `ids` through [`PolicyCtx::offload_pages`] (the
/// non-local ids in the batch are skipped), then page them back in
/// through [`PolicyCtx::prefetch_pages`]. Returns the pages moved.
fn policy_round_trips(
    c: &mut Container,
    pool: &mut RemotePool,
    governor: &mut BandwidthGovernor,
    ids: &[PageId],
    from_ms: u64,
    rounds: u64,
) -> u64 {
    let mut moved = 0u64;
    for ms in from_ms..from_ms + rounds {
        let mut ctx = PolicyCtx {
            now: SimTime::from_millis(ms),
            container: &mut *c,
            pool: &mut *pool,
            governor: &mut *governor,
            reuse_intervals: &HashMap::new(),
        };
        moved += u64::from(ctx.offload_pages(ids));
        moved += u64::from(ctx.prefetch_pages(ids));
    }
    moved
}

/// Everything a hand-driven policy hook needs besides the policy.
struct Node {
    container: Container,
    pool: RemotePool,
    governor: BandwidthGovernor,
    reuse: HashMap<FunctionId, Cdf>,
}

impl Node {
    /// Fires `hook` on a [`PolicyCtx`] at `now`.
    fn hook(&mut self, now: SimTime, hook: impl FnOnce(&mut PolicyCtx<'_>)) {
        hook(&mut PolicyCtx {
            now,
            container: &mut self.container,
            pool: &mut self.pool,
            governor: &mut self.governor,
            reuse_intervals: &self.reuse,
        });
    }

    /// One policy tick per simulated second over `secs`. Returns the
    /// container's remote pages afterwards.
    fn ticks(&mut self, policy: &mut impl MemoryPolicy, secs: std::ops::Range<u64>) -> u64 {
        for s in secs {
            self.hook(SimTime::from_secs(s), |ctx| policy.on_tick(ctx));
        }
        self.container.table().remote_pages()
    }

    /// One round per simulated second over `secs`: prefetch `ids` back
    /// to local memory, then tick `policy`. Returns the pages the ticks
    /// offloaded.
    fn prefetch_and_tick(
        &mut self,
        policy: &mut impl MemoryPolicy,
        ids: &[PageId],
        secs: std::ops::Range<u64>,
    ) -> u64 {
        let before = self.container.table().total_offloaded();
        for s in secs {
            self.hook(SimTime::from_secs(s), |ctx| {
                ctx.prefetch_pages(ids);
                policy.on_tick(ctx);
            });
        }
        self.container.table().total_offloaded() - before
    }
}

/// Eight rounds of [`Node::prefetch_and_tick`] with `policy` on a
/// keep-alive JSON container, prefetching its first 64 runtime pages,
/// after eight warm rounds that grow the policy's scratch buffer and
/// per-container state. Returns the allocations and the pages offloaded
/// during the measured rounds. TMO's budget takes the coldest-first
/// prefix, which starts with the prefetched pages; DAMON's exact scan
/// takes every idle local page.
fn steady_baseline_ticks(policy: &mut impl MemoryPolicy) -> (u64, u64) {
    let mut node = keep_alive_node("json");
    node.container.finish_launch();
    node.container.finish_init();
    node.container
        .finish_execution(SimTime::ZERO, SimDuration::ZERO);
    let ids: Vec<PageId> = node.container.runtime_range().iter().take(64).collect();
    assert!(
        node.prefetch_and_tick(policy, &ids, 0..8) > 0,
        "warm ticks offload"
    );
    allocations_during(|| node.prefetch_and_tick(policy, &ids, 8..16))
}

/// A node holding one new (still launching) `spec` container, with
/// the platform having seen eight 30 s reuse gaps of its function.
fn keep_alive_node(spec: &str) -> Node {
    Node {
        container: Container::new(
            ContainerId(0),
            FunctionId(0),
            BenchmarkSpec::by_name(spec).expect("catalog"),
            PAGE_SIZE_4K,
            SimTime::ZERO,
        ),
        pool: RemotePool::new(PoolConfig::default()),
        governor: BandwidthGovernor::new(1 << 40, SimDuration::from_secs(1)),
        reuse: HashMap::from([(FunctionId(0), Cdf::from_samples(vec![30.0; 8]))]),
    }
}

#[test]
fn event_hot_path_allocates_nothing_at_steady_state() {
    // -- Event queue under hold churn ------------------------------
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1024);
    for i in 0..1024u64 {
        q.push(SimTime::from_micros(i * 50), i);
    }
    // Warm at the identical operation mix.
    queue_churn(&mut q, 50_000);
    let (allocs, _) = allocations_during(|| queue_churn(&mut q, 50_000));
    assert_eq!(
        allocs, 0,
        "steady-state EventQueue churn must not allocate (got {allocs} allocations over 50k ops)"
    );

    // -- Page-table lifecycle at spec-derived capacity --------------
    for spec in BenchmarkSpec::catalog() {
        let name = spec.name;
        let expected = [spec.runtime_mib, spec.init_mib, spec.exec_mib]
            .into_iter()
            .map(|mib| mib_to_pages(mib, PAGE_SIZE_4K))
            .sum::<u64>() as usize;
        let mut c = Container::new(
            ContainerId(0),
            FunctionId(0),
            spec,
            PAGE_SIZE_4K,
            SimTime::ZERO,
        );
        let mut drain = Vec::with_capacity(DRAIN_BUDGET);
        let (allocs, len) = allocations_during(|| page_table_lifecycle(&mut c, &mut drain));
        assert_eq!(len, expected, "{name}: final table length");
        assert_eq!(
            drain.len(),
            DRAIN_BUDGET,
            "{name}: the drain fills its budget"
        );
        assert_eq!(
            allocs, 0,
            "{name}: the page-table lifecycle must not allocate (got {allocs} allocations)"
        );

        // Hundreds more requests recycle the execution range in place:
        // the run list neither grows nor moves.
        let held = c.table().allocated_bytes();
        let (allocs, ()) = allocations_during(|| request_cycles(&mut c, 2, 300));
        assert_eq!(
            allocs, 0,
            "{name}: request cycles must not allocate (got {allocs} allocations)"
        );
        assert_eq!(c.table().allocated_bytes(), held, "{name}: table grew");
        assert_eq!(
            c.table().len(),
            expected,
            "{name}: execution pages recycled"
        );

        // DAMON-style aging: the first scan sizes the idle counters;
        // later rounds, with the execution range recycled in between,
        // reuse them.
        let exec_pages = mib_to_pages(c.spec().exec_mib, PAGE_SIZE_4K) as u32;
        let table = c.table_mut();
        let mut cold = Vec::with_capacity(table.len());
        table.age_and_collect_idle_into(2, usize::MAX, &mut cold);
        let (allocs, collected) = allocations_during(|| {
            let mut collected = 0;
            for _ in 0..4 {
                let exec = table.alloc(Segment::Execution, exec_pages);
                table.touch_range(exec);
                table.age_and_collect_idle_into(2, usize::MAX, &mut cold);
                collected += cold.len();
                table.free_range(exec);
            }
            collected
        });
        assert_eq!(table.len(), expected, "{name}: execution pages recycled");
        assert!(collected > 0, "{name}: idle pages reach the threshold");
        assert_eq!(
            allocs, 0,
            "{name}: aging rounds after the first must not allocate (got {allocs} allocations)"
        );
    }

    // -- Warm request: plan into scratch, touch through the kernel ---
    let mut bert = Container::new(
        ContainerId(0),
        FunctionId(0),
        BenchmarkSpec::by_name("bert").expect("catalog"),
        PAGE_SIZE_4K,
        SimTime::ZERO,
    );
    bert.finish_launch();
    bert.finish_init();
    let mut planner = AccessPlanner::default();
    let mut rng = SimRng::seed_from(21);
    assert!(warm_requests(&mut bert, &mut planner, &mut rng, 2) > 0);
    assert!(
        planner.plan().init.prefix() > 100_000,
        "a 4 KiB BERT request has a ~100k-page hot core"
    );
    let (allocs, faulted) =
        allocations_during(|| warm_requests(&mut bert, &mut planner, &mut rng, 8));
    assert!(faulted > 0, "the offloaded init pages fault back in");
    assert_eq!(
        allocs, 0,
        "a warm request's planning and touches must not allocate (got {allocs} allocations)"
    );

    // -- Policy offload → page-in round trips ------------------------
    let mut c = Container::new(
        ContainerId(0),
        FunctionId(0),
        BenchmarkSpec::by_name("json").expect("catalog"),
        PAGE_SIZE_4K,
        SimTime::ZERO,
    );
    c.finish_launch();
    c.finish_init();
    // Every other runtime page and the whole init segment, then a freed
    // execution range: offload must skip the ids that are not local.
    let freed = c.table_mut().alloc(Segment::Execution, 16);
    c.table_mut().free_range(freed);
    let local = c
        .runtime_range()
        .iter()
        .step_by(2)
        .chain(c.init_range().iter());
    let ids: Vec<PageId> = local.chain(freed.iter()).collect();
    let batch = 2 * (ids.len() - freed.len() as usize) as u64;
    let mut pool = RemotePool::new(PoolConfig::default());
    let mut governor = BandwidthGovernor::new(1 << 40, SimDuration::from_secs(1));
    // Warm past one full governor window so its ring stops growing.
    let warm = policy_round_trips(&mut c, &mut pool, &mut governor, &ids, 0, 3_000);
    assert_eq!(
        warm,
        3_000 * batch,
        "every round trip moves the local pages"
    );
    let (allocs, moved) = allocations_during(|| {
        policy_round_trips(&mut c, &mut pool, &mut governor, &ids, 3_000, 3_000)
    });
    assert_eq!(moved, 3_000 * batch);
    assert_eq!(
        allocs, 0,
        "steady-state PolicyCtx offload/page-in must not allocate (got {allocs} allocations)"
    );
    // -- FaaSMem keep-alive ticks, before and after semi-warm entry ----
    // One cold-started request ends at t = 0; the platform has seen
    // eight 30 s reuse gaps, so the semi-warm start timing is 30 s.
    let mut policy = FaasMemPolicy::new();
    let mut node = keep_alive_node("bert");
    let timing = SemiWarm::new(policy.config().semiwarm.clone())
        .start_timing(node.reuse.get(&FunctionId(0)), FunctionId(0));
    assert_eq!(timing, SimDuration::from_secs(30));
    node.container.finish_launch();
    node.hook(SimTime::ZERO, |ctx| policy.on_runtime_loaded(ctx));
    node.container.finish_init();
    node.hook(SimTime::ZERO, |ctx| {
        policy.on_init_done(ctx);
        policy.on_request_start(ctx, None);
    });
    node.container
        .finish_execution(SimTime::ZERO, SimDuration::ZERO);
    node.hook(SimTime::ZERO, |ctx| policy.on_request_end(ctx));
    let remote = node.container.table().remote_pages();
    let (allocs, warm_remote) = allocations_during(|| node.ticks(&mut policy, 1..30));
    assert_eq!(warm_remote, remote, "no drain before the 30 s start timing");
    assert_eq!(
        allocs, 0,
        "a FaaSMem tick before semi-warm entry must not allocate (got {allocs} allocations)"
    );
    // Entry at 30 s; the first drains grow the scratch buffer to the
    // per-tick page budget.
    let entered = node.ticks(&mut policy, 30..33);
    assert!(entered > remote, "the semi-warm drain starts at 30 s");
    let (allocs, drained) = allocations_during(|| node.ticks(&mut policy, 33..43));
    assert!(drained > entered, "the drain keeps moving pages");
    assert_eq!(
        allocs, 0,
        "a semi-warm FaaSMem tick must not allocate (got {allocs} allocations)"
    );
    // -- TMO and DAMON ticks re-offloading prefetched pages ----------
    // A 1% step budgets ~150 pages a tick, more than the 64 prefetched.
    let mut tmo = TmoPolicy::new(TmoConfig {
        step_fraction: 0.01,
        ..TmoConfig::default()
    });
    let (allocs, moved) = steady_baseline_ticks(&mut tmo);
    assert!(
        moved >= 8 * 64,
        "TMO re-offloads the prefetched pages every tick"
    );
    assert_eq!(
        allocs, 0,
        "a steady-state TMO tick must not allocate (got {allocs} allocations)"
    );
    let (allocs, moved) = steady_baseline_ticks(&mut DamonPolicy::default());
    assert!(
        moved >= 8 * 64,
        "DAMON re-offloads the prefetched pages every tick"
    );
    assert_eq!(
        allocs, 0,
        "a steady-state DAMON tick must not allocate (got {allocs} allocations)"
    );
    // -- Streaming a synthesized 424-function cluster trace ----------
    let (trace, _) = TraceSynthesizer::new(2021)
        .duration(SimTime::from_mins(60))
        .synthesize_cluster(424);
    let (allocs, mut arrivals) = allocations_during(|| trace.iter());
    assert_eq!(
        allocs, 2,
        "making the iterator allocates its cursors and heap"
    );
    let (allocs, streamed) = allocations_during(|| arrivals.by_ref().count());
    assert!(
        streamed > 10_000,
        "an Azure-shaped hour ({streamed} arrivals)"
    );
    assert_eq!(
        allocs, 0,
        "streaming a synthesized trace must not allocate per arrival (got {allocs} allocations)"
    );
}
