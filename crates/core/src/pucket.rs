//! Page Buckets (Puckets): time-barrier page segregation (paper §4).
//!
//! The kernel cannot tell which lifecycle stage allocated a page — the
//! cgroup LRU mixes them. FaaSMem's insight is that MGLRU *generations*
//! give an ordering: by creating a new generation exactly when the runtime
//! finishes loading (the Runtime-Init barrier) and again when user init
//! completes (the Init-Execution barrier), every page's generation number
//! reveals its segment. [`Puckets`] performs that classification and
//! maintains each Pucket's inactive list plus the shared hot page pool.

use faasmem_mem::{Generation, PageId, PageMeta, PageTable};

pub use faasmem_mem::PromoteSummary;

/// Which Pucket a page belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PucketKind {
    /// Pages allocated before the Runtime-Init barrier.
    Runtime,
    /// Pages between the two barriers.
    Init,
    /// Pages allocated after the Init-Execution barrier.
    Execution,
}

/// The two time barriers of one container and the page classification /
/// maintenance operations built on them.
///
/// # Examples
///
/// ```
/// use faasmem_core::{PucketKind, Puckets};
/// use faasmem_mem::{PageTable, Segment, PAGE_SIZE_4K};
///
/// let mut table = PageTable::new(PAGE_SIZE_4K);
/// let runtime = table.alloc(Segment::Runtime, 8);
/// let mut puckets = Puckets::new();
/// puckets.insert_runtime_init_barrier(&mut table);
/// let init = table.alloc(Segment::Init, 4);
/// puckets.insert_init_exec_barrier(&mut table);
///
/// assert_eq!(puckets.classify(table.meta(runtime.start())), PucketKind::Runtime);
/// assert_eq!(puckets.classify(table.meta(init.start())), PucketKind::Init);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Puckets {
    runtime_init: Option<Generation>,
    init_exec: Option<Generation>,
}

impl Puckets {
    /// Creates the (not yet barriered) Pucket state for a new container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the Runtime-Init time barrier: called when the container
    /// runtime has finished loading.
    ///
    /// # Panics
    ///
    /// Panics if the barrier was already inserted.
    pub fn insert_runtime_init_barrier(&mut self, table: &mut PageTable) -> Generation {
        assert!(
            self.runtime_init.is_none(),
            "runtime-init barrier already inserted"
        );
        let gen = table.create_generation();
        self.runtime_init = Some(gen);
        gen
    }

    /// Inserts the Init-Execution time barrier: called when function
    /// initialization completes.
    ///
    /// # Panics
    ///
    /// Panics if called before the Runtime-Init barrier, or twice.
    pub fn insert_init_exec_barrier(&mut self, table: &mut PageTable) -> Generation {
        assert!(
            self.runtime_init.is_some(),
            "init-exec barrier before runtime-init"
        );
        assert!(
            self.init_exec.is_none(),
            "init-exec barrier already inserted"
        );
        let gen = table.create_generation();
        self.init_exec = Some(gen);
        gen
    }

    /// `true` once both barriers are in place.
    pub fn is_segregated(&self) -> bool {
        self.runtime_init.is_some() && self.init_exec.is_some()
    }

    /// Classifies a page by its generation relative to the barriers.
    /// Before any barrier exists every page is Runtime; between barrier
    /// insertions, pages after the first barrier are Init.
    pub fn classify(&self, meta: PageMeta) -> PucketKind {
        let gen = Generation(meta.generation());
        match (self.runtime_init, self.init_exec) {
            (None, _) => PucketKind::Runtime,
            (Some(ri), None) => {
                if gen < ri {
                    PucketKind::Runtime
                } else {
                    PucketKind::Init
                }
            }
            (Some(ri), Some(ie)) => {
                if gen < ri {
                    PucketKind::Runtime
                } else if gen < ie {
                    PucketKind::Init
                } else {
                    PucketKind::Execution
                }
            }
        }
    }

    /// The generation interval `[lo, hi)` a Pucket occupies given the
    /// current barriers, or `None` if the Pucket cannot hold pages yet.
    /// This is [`Puckets::classify`] inverted so page-table queries can
    /// run as a single interval test per page.
    fn gen_bounds(&self, kind: PucketKind) -> Option<(u32, u32)> {
        match (self.runtime_init, self.init_exec) {
            (None, _) => (kind == PucketKind::Runtime).then_some((0, u32::MAX)),
            (Some(ri), None) => match kind {
                PucketKind::Runtime => Some((0, ri.0)),
                PucketKind::Init => Some((ri.0, u32::MAX)),
                PucketKind::Execution => None,
            },
            (Some(ri), Some(ie)) => match kind {
                PucketKind::Runtime => Some((0, ri.0)),
                PucketKind::Init => Some((ri.0, ie.0)),
                PucketKind::Execution => Some((ie.0, u32::MAX)),
            },
        }
    }

    /// The inactive list of one Pucket: live local pages of that Pucket
    /// not currently in the hot page pool — the offloading candidates.
    pub fn inactive_pages(&self, table: &PageTable, kind: PucketKind) -> Vec<PageId> {
        let mut out = Vec::new();
        self.append_inactive_pages(table, kind, usize::MAX, &mut out);
        out
    }

    /// Appends one Pucket's inactive list to `out` (no clear), ascending,
    /// at most `limit` pages of it — the allocation-free path the
    /// semi-warm reclamation tick uses.
    pub fn append_inactive_pages(
        &self,
        table: &PageTable,
        kind: PucketKind,
        limit: usize,
        out: &mut Vec<PageId>,
    ) {
        if let Some((lo, hi)) = self.gen_bounds(kind) {
            table.append_inactive_in_gen_range(lo, hi, limit, out);
        }
    }

    /// Number of inactive pages in one Pucket (cheaper than collecting).
    pub fn inactive_count(&self, table: &PageTable, kind: PucketKind) -> u64 {
        self.gen_bounds(kind)
            .map_or(0, |(lo, hi)| table.count_inactive_in_gen_range(lo, hi))
    }

    /// Pages currently in the shared hot page pool (any Pucket), local
    /// only.
    pub fn hot_pool_pages(&self, table: &PageTable) -> Vec<PageId> {
        let mut out = Vec::new();
        table.append_hot_pool_local(usize::MAX, &mut out);
        out
    }

    /// Scans Access bits and promotes revisited Runtime/Init-Pucket pages
    /// into the hot page pool, in one allocation-free word-wise pass
    /// ([`PageTable::promote_accessed`]). Execution-Pucket accesses are
    /// ignored — the paper does not monitor that segment (§4).
    pub fn promote_accessed(&self, table: &mut PageTable) -> PromoteSummary {
        let (_, runtime_end) = self
            .gen_bounds(PucketKind::Runtime)
            .expect("the Runtime Pucket always has bounds");
        let init_end = self
            .gen_bounds(PucketKind::Init)
            .map_or(runtime_end, |(_, hi)| hi);
        table.promote_accessed(runtime_end, init_end)
    }

    /// Rolls every hot-pool page back to its original Pucket's inactive
    /// list (§5.3). Returns how many pages were rolled back.
    pub fn rollback_hot_pool(&self, table: &mut PageTable) -> u32 {
        table.clear_local_hot_pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_mem::{PageRange, Segment, PAGE_SIZE_4K};

    /// Builds a table with 10 runtime, 6 init and 4 exec pages, fully
    /// barriered.
    fn segregated() -> (PageTable, Puckets, PageRange, PageRange, PageRange) {
        let mut table = PageTable::new(PAGE_SIZE_4K);
        let runtime = table.alloc(Segment::Runtime, 10);
        let mut puckets = Puckets::new();
        puckets.insert_runtime_init_barrier(&mut table);
        let init = table.alloc(Segment::Init, 6);
        puckets.insert_init_exec_barrier(&mut table);
        let exec = table.alloc(Segment::Execution, 4);
        (table, puckets, runtime, init, exec)
    }

    #[test]
    fn generation_classification_matches_segments() {
        let (table, puckets, ..) = segregated();
        // The gen-based classification (what the kernel mechanism can
        // see) must agree with the segment tags (ground truth the
        // platform recorded at alloc time).
        for (_, m) in table.iter_live() {
            let expected = match m.segment() {
                Segment::Runtime => PucketKind::Runtime,
                Segment::Init => PucketKind::Init,
                Segment::Execution => PucketKind::Execution,
            };
            assert_eq!(puckets.classify(m), expected);
        }
    }

    #[test]
    fn before_barriers_everything_is_runtime() {
        let mut table = PageTable::new(PAGE_SIZE_4K);
        let r = table.alloc(Segment::Runtime, 2);
        let puckets = Puckets::new();
        assert!(!puckets.is_segregated());
        assert_eq!(puckets.classify(table.meta(r.start())), PucketKind::Runtime);
    }

    #[test]
    fn between_barriers_new_pages_are_init() {
        let mut table = PageTable::new(PAGE_SIZE_4K);
        table.alloc(Segment::Runtime, 2);
        let mut puckets = Puckets::new();
        puckets.insert_runtime_init_barrier(&mut table);
        let init = table.alloc(Segment::Init, 2);
        assert_eq!(puckets.classify(table.meta(init.start())), PucketKind::Init);
        assert!(!puckets.is_segregated());
    }

    #[test]
    fn inactive_lists_start_full() {
        let (table, puckets, runtime, init, _) = segregated();
        assert_eq!(
            puckets.inactive_count(&table, PucketKind::Runtime),
            u64::from(runtime.len())
        );
        assert_eq!(
            puckets.inactive_count(&table, PucketKind::Init),
            u64::from(init.len())
        );
        assert!(puckets.hot_pool_pages(&table).is_empty());
    }

    #[test]
    fn promotion_moves_accessed_pages_to_hot_pool() {
        let (mut table, puckets, runtime, init, exec) = segregated();
        // Clear allocation-time Access bits first.
        table.scan_accessed();
        table.touch_range(runtime.take(3));
        table.touch_range(init.take(2));
        table.touch_range(exec); // execution accesses are ignored
        let summary = puckets.promote_accessed(&mut table);
        assert_eq!(summary.runtime_promoted, 3);
        assert_eq!(summary.init_promoted, 2);
        assert_eq!(puckets.hot_pool_pages(&table).len(), 5);
        assert_eq!(puckets.inactive_count(&table, PucketKind::Runtime), 7);
        assert_eq!(puckets.inactive_count(&table, PucketKind::Init), 4);
    }

    #[test]
    fn promotion_is_idempotent_for_hot_pages() {
        let (mut table, puckets, runtime, ..) = segregated();
        table.scan_accessed();
        table.touch_range(runtime.take(2));
        puckets.promote_accessed(&mut table);
        table.touch_range(runtime.take(2));
        let second = puckets.promote_accessed(&mut table);
        assert_eq!(second.runtime_promoted, 0, "already in the hot pool");
    }

    #[test]
    fn rollback_returns_pages_to_inactive_lists() {
        let (mut table, puckets, runtime, init, _) = segregated();
        table.scan_accessed();
        table.touch_range(runtime.take(4));
        table.touch_range(init.take(1));
        puckets.promote_accessed(&mut table);
        let rolled = puckets.rollback_hot_pool(&mut table);
        assert_eq!(rolled, 5);
        assert!(puckets.hot_pool_pages(&table).is_empty());
        assert_eq!(puckets.inactive_count(&table, PucketKind::Runtime), 10);
        assert_eq!(puckets.inactive_count(&table, PucketKind::Init), 6);
    }

    #[test]
    fn inactive_excludes_remote_pages() {
        let (mut table, puckets, runtime, ..) = segregated();
        let inactive = puckets.inactive_pages(&table, PucketKind::Runtime);
        table.offload_pages(inactive.iter().copied());
        assert_eq!(puckets.inactive_count(&table, PucketKind::Runtime), 0);
        // Fault one back: it's local and not hot → inactive again.
        table.touch(runtime.start());
        assert_eq!(puckets.inactive_count(&table, PucketKind::Runtime), 1);
    }

    #[test]
    #[should_panic(expected = "already inserted")]
    fn double_runtime_barrier_panics() {
        let mut table = PageTable::new(PAGE_SIZE_4K);
        let mut p = Puckets::new();
        p.insert_runtime_init_barrier(&mut table);
        p.insert_runtime_init_barrier(&mut table);
    }

    #[test]
    #[should_panic(expected = "before runtime-init")]
    fn init_barrier_first_panics() {
        let mut table = PageTable::new(PAGE_SIZE_4K);
        let mut p = Puckets::new();
        p.insert_init_exec_barrier(&mut table);
    }

    proptest::proptest! {
        #[test]
        fn prop_every_live_page_has_exactly_one_pucket(
            runtime in 0u32..30, init in 0u32..30, exec in 0u32..30,
        ) {
            let mut table = PageTable::new(PAGE_SIZE_4K);
            table.alloc(Segment::Runtime, runtime);
            let mut puckets = Puckets::new();
            puckets.insert_runtime_init_barrier(&mut table);
            table.alloc(Segment::Init, init);
            puckets.insert_init_exec_barrier(&mut table);
            table.alloc(Segment::Execution, exec);
            let counts = [PucketKind::Runtime, PucketKind::Init, PucketKind::Execution]
                .map(|k| table.iter_live().filter(|&(_, m)| puckets.classify(m) == k).count() as u32);
            proptest::prop_assert_eq!(counts[0], runtime);
            proptest::prop_assert_eq!(counts[1], init);
            proptest::prop_assert_eq!(counts[2], exec);
        }
    }
}
