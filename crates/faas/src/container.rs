//! Serverless containers and their lifecycle.

use std::fmt;

use faasmem_mem::{mib_to_pages, PageRange, PageTable, Segment, TouchOutcome};
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::{AccessSet, BenchmarkSpec, FunctionId, RequestAccess};

/// Uniquely identifies a container within one platform run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctr#{}", self.0)
    }
}

/// Lifecycle stage of a container (paper Fig 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerStage {
    /// Runtime image loading (cold start, phase 1).
    Launching,
    /// User-code initialization (cold start, phase 2).
    Initializing,
    /// Processing a request.
    Executing,
    /// Warm and idle, waiting for the next request (keep-alive).
    KeepAlive,
}

/// One serverless container: its page table, segment layout and timing
/// state.
///
/// Created by the platform on cold start; policies reach it through
/// [`PolicyCtx`](crate::PolicyCtx).
#[derive(Debug)]
pub struct Container {
    id: ContainerId,
    function: FunctionId,
    spec: BenchmarkSpec,
    table: PageTable,
    stage: ContainerStage,
    created_at: SimTime,
    last_used: SimTime,
    requests_served: u64,
    busy_time: SimDuration,
    runtime_range: PageRange,
    runtime_hot_pages: u32,
    init_range: PageRange,
    exec_range: Option<PageRange>,
    /// Remote-fault stall suffered by the most recent request; feedback
    /// signal for TMO-style policies.
    last_request_stall: SimDuration,
}

impl Container {
    /// Creates a container in the [`ContainerStage::Launching`] stage.
    /// No pages are allocated yet; the platform allocates the runtime and
    /// init segments as the corresponding lifecycle phases complete. The
    /// page table is reserved for exactly the spec's runtime + init +
    /// execution pages — its final length, since every request recycles
    /// the previous request's freed execution range.
    pub fn new(
        id: ContainerId,
        function: FunctionId,
        spec: BenchmarkSpec,
        page_size: u64,
        now: SimTime,
    ) -> Self {
        let pages: u64 = [spec.runtime_mib, spec.init_mib, spec.exec_mib]
            .into_iter()
            .map(|mib| mib_to_pages(mib, page_size))
            .sum();
        Container {
            id,
            function,
            spec,
            table: PageTable::with_capacity(page_size, pages as usize),
            stage: ContainerStage::Launching,
            created_at: now,
            last_used: now,
            requests_served: 0,
            busy_time: SimDuration::ZERO,
            runtime_range: PageRange::EMPTY,
            runtime_hot_pages: 0,
            init_range: PageRange::EMPTY,
            exec_range: None,
            last_request_stall: SimDuration::ZERO,
        }
    }

    /// The container's id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The function this container serves.
    pub fn function(&self) -> FunctionId {
        self.function
    }

    /// The benchmark model backing the function.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Current lifecycle stage.
    pub fn stage(&self) -> ContainerStage {
        self.stage
    }

    /// When the container was created (cold-start begin).
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// When the container last started or finished serving a request.
    pub fn last_used(&self) -> SimTime {
        self.last_used
    }

    /// Requests completed so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Cumulative time spent executing requests (used by the Fig 1
    /// inactive-time analysis).
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// The container's page table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }

    /// Mutable access to the page table, for policies.
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// The runtime segment's page range (Segment-1).
    pub fn runtime_range(&self) -> PageRange {
        self.runtime_range
    }

    /// Number of leading runtime pages in the action proxy's working set.
    pub fn runtime_hot_pages(&self) -> u32 {
        self.runtime_hot_pages
    }

    /// The init segment's page range (Segment-2).
    pub fn init_range(&self) -> PageRange {
        self.init_range
    }

    /// The in-flight execution segment, if a request is running.
    pub fn exec_range(&self) -> Option<PageRange> {
        self.exec_range
    }

    /// Remote-fault stall of the most recent request (TMO's feedback
    /// signal).
    pub fn last_request_stall(&self) -> SimDuration {
        self.last_request_stall
    }

    /// Idle time since the last request activity, zero while executing.
    pub fn idle_since(&self, now: SimTime) -> SimDuration {
        match self.stage {
            ContainerStage::KeepAlive => now.saturating_since(self.last_used),
            _ => SimDuration::ZERO,
        }
    }

    // ---- platform-side lifecycle transitions -------------------------

    /// Allocates and touches the runtime segment; transitions to
    /// [`ContainerStage::Initializing`].
    ///
    /// # Panics
    ///
    /// Panics if the container is not in the launching stage.
    pub fn finish_launch(&mut self) {
        assert_eq!(self.stage, ContainerStage::Launching, "launch out of order");
        let pages = mib_to_pages(self.spec.runtime_mib, self.table.page_size()) as u32;
        self.runtime_range = self.table.alloc(Segment::Runtime, pages);
        self.runtime_hot_pages =
            mib_to_pages(self.spec.runtime_hot_mib, self.table.page_size()) as u32;
        self.table.touch_range(self.runtime_range);
        self.stage = ContainerStage::Initializing;
    }

    /// Allocates and touches the init segment; transitions to
    /// [`ContainerStage::Executing`] (a cold start always has a request
    /// waiting).
    ///
    /// # Panics
    ///
    /// Panics if the container is not in the initializing stage.
    pub fn finish_init(&mut self) {
        assert_eq!(
            self.stage,
            ContainerStage::Initializing,
            "init out of order"
        );
        let pages = mib_to_pages(self.spec.init_mib, self.table.page_size()) as u32;
        self.init_range = self.table.alloc(Segment::Init, pages);
        self.table.touch_range(self.init_range);
        self.stage = ContainerStage::Executing;
    }

    /// Marks the container as executing a request (warm start).
    ///
    /// # Panics
    ///
    /// Panics if the container is not idle in keep-alive.
    pub fn begin_execution(&mut self, now: SimTime) {
        assert_eq!(self.stage, ContainerStage::KeepAlive, "container busy");
        self.stage = ContainerStage::Executing;
        self.last_used = now;
    }

    /// Installs the execution segment of the running request.
    pub fn set_exec_range(&mut self, range: PageRange) {
        debug_assert!(self.exec_range.is_none(), "exec segment already present");
        self.exec_range = Some(range);
    }

    /// Records the remote-fault stall the running request suffered.
    pub fn record_request_stall(&mut self, stall: SimDuration) {
        self.last_request_stall = stall;
    }

    /// Completes the running request: frees the execution segment,
    /// transitions to keep-alive.
    ///
    /// # Panics
    ///
    /// Panics if the container is not executing.
    pub fn finish_execution(&mut self, now: SimTime, busy: SimDuration) {
        assert_eq!(self.stage, ContainerStage::Executing, "finish out of order");
        if let Some(range) = self.exec_range.take() {
            self.table.free_range(range);
        }
        self.requests_served += 1;
        self.busy_time += busy;
        self.last_used = now;
        self.stage = ContainerStage::KeepAlive;
    }
}

/// Touches one planned request's pages, runtime then init, through
/// [`PageTable::touch_prefix_runs`]: each segment that faulted emits one
/// demand page-in event. `runtime` and `init` are the segments the
/// plan's indexes are relative to. The execution segment is the
/// caller's, because only a running request allocates one.
pub fn touch_request(
    table: &mut PageTable,
    runtime: PageRange,
    init: PageRange,
    plan: &RequestAccess,
) -> TouchOutcome {
    let mut outcome = touch_segment(table, runtime, &plan.runtime);
    outcome.merge(touch_segment(table, init, &plan.init));
    outcome
}

fn touch_segment(table: &mut PageTable, segment: PageRange, set: &AccessSet) -> TouchOutcome {
    debug_assert!(set.end() <= segment.len(), "plan overruns its segment");
    table.touch_prefix_runs(segment.start(), set.prefix(), set.runs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_mem::PAGE_SIZE_4K;
    use faasmem_workload::BenchmarkSpec;

    fn container() -> Container {
        let spec = BenchmarkSpec::by_name("json").unwrap();
        Container::new(
            ContainerId(1),
            FunctionId(0),
            spec,
            PAGE_SIZE_4K,
            SimTime::from_secs(1),
        )
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut c = container();
        assert_eq!(c.stage(), ContainerStage::Launching);
        assert!(c.table().is_empty());

        c.finish_launch();
        assert_eq!(c.stage(), ContainerStage::Initializing);
        let runtime_pages = mib_to_pages(c.spec().runtime_mib, PAGE_SIZE_4K);
        assert_eq!(c.table().local_pages(), runtime_pages);
        assert_eq!(u64::from(c.runtime_range().len()), runtime_pages);

        c.finish_init();
        assert_eq!(c.stage(), ContainerStage::Executing);
        let init_pages = mib_to_pages(c.spec().init_mib, PAGE_SIZE_4K);
        assert_eq!(c.table().local_pages(), runtime_pages + init_pages);

        let exec = c.table_mut().alloc(Segment::Execution, 10);
        c.set_exec_range(exec);
        c.finish_execution(SimTime::from_secs(2), SimDuration::from_millis(35));
        assert_eq!(c.stage(), ContainerStage::KeepAlive);
        assert_eq!(c.requests_served(), 1);
        assert_eq!(c.busy_time(), SimDuration::from_millis(35));
        assert_eq!(
            c.table().local_pages(),
            runtime_pages + init_pages,
            "exec pages freed"
        );
        assert!(c.exec_range().is_none());
    }

    #[test]
    fn warm_execution_roundtrip() {
        let mut c = container();
        c.finish_launch();
        c.finish_init();
        c.finish_execution(SimTime::from_secs(2), SimDuration::ZERO);
        c.begin_execution(SimTime::from_secs(10));
        assert_eq!(c.stage(), ContainerStage::Executing);
        assert_eq!(c.last_used(), SimTime::from_secs(10));
        c.finish_execution(SimTime::from_secs(11), SimDuration::from_secs(1));
        assert_eq!(c.requests_served(), 2);
    }

    #[test]
    fn idle_since_only_in_keepalive() {
        let mut c = container();
        assert_eq!(c.idle_since(SimTime::from_secs(100)), SimDuration::ZERO);
        c.finish_launch();
        c.finish_init();
        c.finish_execution(SimTime::from_secs(5), SimDuration::ZERO);
        assert_eq!(
            c.idle_since(SimTime::from_secs(65)),
            SimDuration::from_secs(60)
        );
    }

    #[test]
    fn request_penalty_recorded() {
        let mut c = container();
        c.record_request_stall(SimDuration::from_millis(3));
        assert_eq!(c.last_request_stall(), SimDuration::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "launch out of order")]
    fn double_launch_panics() {
        let mut c = container();
        c.finish_launch();
        c.finish_launch();
    }

    #[test]
    #[should_panic(expected = "init out of order")]
    fn init_before_launch_panics() {
        let mut c = container();
        c.finish_init();
    }

    #[test]
    #[should_panic(expected = "container busy")]
    fn begin_execution_while_launching_panics() {
        let mut c = container();
        c.begin_execution(SimTime::ZERO);
    }

    #[test]
    fn runtime_hot_pages_fraction() {
        let mut c = container();
        c.finish_launch();
        assert!(c.runtime_hot_pages() > 0);
        assert!(u64::from(c.runtime_hot_pages()) < u64::from(c.runtime_range().len()));
    }
}
