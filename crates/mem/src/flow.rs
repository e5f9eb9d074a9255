//! Page-lifecycle flow accounting.
//!
//! Every page in a container's [`PageTable`] moves
//! through a small residency state machine — local DRAM, the remote
//! pool, the freed list — and each transition is one of seven named
//! edges. The table counts every edge exactly once at the mutation
//! site, which gives each state a conservation law: pages that entered
//! a state either left it along a counted edge or are still resident
//! there. A [`FlowMatrix`] aggregates those edge counts across
//! containers (absorbing each table when its container is recycled)
//! and checks the three row-conservation identities, so a missed or
//! double-counted transition anywhere in the platform shows up as a
//! non-zero violation count instead of silently skewing the anatomy.
//!
//! ```text
//!            allocated           offloaded
//!   (fresh) ──────────▶ Local ─────────────▶ Remote
//!                        ▲  ▲                  │
//!                 reused │  └──────────────────┘
//!                        │   recalled_demand /
//!                        │   recalled_prefetch
//!            freed_local ▼                     │ freed_remote
//!                       Freed ◀────────────────┘
//! ```

use crate::table::PageTable;

/// Lifetime page-lifecycle edge counts of one page table.
///
/// Each field counts one edge of the residency state machine; see the
/// module docs for the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlows {
    /// Fresh local pages created (`alloc` without recycling).
    pub allocated: u64,
    /// Freed execution pages recycled back to local.
    pub reused: u64,
    /// Local pages moved out to the remote pool.
    pub offloaded: u64,
    /// Remote pages faulted back in on access (demand recall).
    pub recalled_demand: u64,
    /// Remote pages brought back ahead of demand (prefetch recall).
    pub recalled_prefetch: u64,
    /// Local pages freed.
    pub freed_local: u64,
    /// Remote pages freed (released in the pool without coming back).
    pub freed_remote: u64,
}

impl PageFlows {
    /// Adds every edge of `other` into this count.
    pub fn merge(&mut self, other: &PageFlows) {
        self.allocated += other.allocated;
        self.reused += other.reused;
        self.offloaded += other.offloaded;
        self.recalled_demand += other.recalled_demand;
        self.recalled_prefetch += other.recalled_prefetch;
        self.freed_local += other.freed_local;
        self.freed_remote += other.freed_remote;
    }

    /// Total remote→local recalls, demand plus prefetch.
    pub fn recalled(&self) -> u64 {
        self.recalled_demand + self.recalled_prefetch
    }
}

/// Residency states of the flow matrix, in row order.
pub const FLOW_STATES: [&str; 3] = ["local", "remote", "freed"];

/// One row of the conservation check: pages that entered a state must
/// have left it or still be resident there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRow {
    /// Residency state name (one of [`FLOW_STATES`]).
    pub state: &'static str,
    /// Pages that entered the state along counted edges.
    pub entered: u64,
    /// Pages that left the state along counted edges.
    pub left: u64,
    /// Pages still resident in the state when their table was absorbed
    /// (or snapshotted).
    pub resident: u64,
}

impl FlowRow {
    /// `true` when the row conserves: `entered == left + resident`.
    pub fn conserves(&self) -> bool {
        self.entered == self.left + self.resident
    }
}

/// Aggregated page-lifecycle flows across many page tables, with the
/// still-resident remainder of each state captured at absorb time.
///
/// `Copy` so it can ride along in a run summary like the waste report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowMatrix {
    /// Summed edge counts of every absorbed table.
    pub flows: PageFlows,
    /// Pages still local when their table was absorbed.
    pub resident_local: u64,
    /// Pages still remote when their table was absorbed.
    pub resident_remote: u64,
    /// Pages still on the freed list when their table was absorbed.
    pub resident_freed: u64,
    /// Tables absorbed.
    pub tables: u64,
}

impl FlowMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one table's flows and current residents into the matrix —
    /// call exactly once per table, at end of life (or at snapshot time
    /// for still-live tables).
    pub fn absorb(&mut self, table: &PageTable) {
        self.flows.merge(&table.flows());
        self.resident_local += table.local_pages();
        self.resident_remote += table.remote_pages();
        self.resident_freed += table.freed_pages();
        self.tables += 1;
    }

    /// The three conservation rows, in [`FLOW_STATES`] order.
    pub fn rows(&self) -> [FlowRow; 3] {
        let f = &self.flows;
        [
            FlowRow {
                state: FLOW_STATES[0],
                entered: f.allocated + f.reused + f.recalled(),
                left: f.offloaded + f.freed_local,
                resident: self.resident_local,
            },
            FlowRow {
                state: FLOW_STATES[1],
                entered: f.offloaded,
                left: f.recalled() + f.freed_remote,
                resident: self.resident_remote,
            },
            FlowRow {
                state: FLOW_STATES[2],
                entered: f.freed_local + f.freed_remote,
                left: f.reused,
                resident: self.resident_freed,
            },
        ]
    }

    /// How many rows fail conservation (zero by contract).
    pub fn row_violations(&self) -> u64 {
        self.rows().iter().filter(|r| !r.conserves()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageRange, PageTable, Segment, PAGE_SIZE_4K};

    #[test]
    fn empty_matrix_conserves_trivially() {
        let m = FlowMatrix::new();
        assert_eq!(m.row_violations(), 0);
        assert_eq!(m.tables, 0);
        for row in m.rows() {
            assert_eq!(row.entered, 0);
            assert!(row.conserves());
        }
    }

    #[test]
    fn absorbed_table_rows_conserve_through_a_lifecycle() {
        let mut t = PageTable::new(PAGE_SIZE_4K);
        let runtime = t.alloc(Segment::Runtime, 100);
        let exec = t.alloc(Segment::Execution, 40);
        t.offload_range(runtime); // 100 local -> remote
        t.touch_range(PageRange::new(runtime.start(), 10)); // 10 demand recalls
        t.page_in_range(PageRange::new(runtime.start(), 30)); // 20 prefetch recalls
        t.free_range(exec); // 40 local freed
        let exec2 = t.alloc(Segment::Execution, 15); // 15 reused
        t.offload_range(exec2);
        t.free_range(exec2); // 15 remote freed

        let f = t.flows();
        assert_eq!(f.allocated, 140);
        assert_eq!(f.reused, 15);
        assert_eq!(f.offloaded, 115);
        assert_eq!(f.recalled_demand, 10);
        assert_eq!(f.recalled_prefetch, 20);
        assert_eq!(f.freed_local, 40);
        assert_eq!(f.freed_remote, 15);

        let mut m = FlowMatrix::new();
        m.absorb(&t);
        assert_eq!(m.tables, 1);
        assert_eq!(m.row_violations(), 0);
        let [local, remote, freed] = m.rows();
        assert_eq!(local.entered, 140 + 15 + 30);
        assert_eq!(local.left, 115 + 40);
        assert_eq!(local.resident, t.local_pages());
        assert_eq!(remote.entered, 115);
        assert_eq!(remote.resident, t.remote_pages());
        assert_eq!(freed.entered, 55);
        assert_eq!(freed.left, 15);
        assert_eq!(freed.resident, t.freed_pages());
    }

    #[test]
    fn matrix_merges_across_tables() {
        let mut m = FlowMatrix::new();
        for pages in [10u32, 20, 30] {
            let mut t = PageTable::new(PAGE_SIZE_4K);
            let r = t.alloc(Segment::Init, pages);
            t.offload_range(r);
            m.absorb(&t);
        }
        assert_eq!(m.tables, 3);
        assert_eq!(m.flows.allocated, 60);
        assert_eq!(m.flows.offloaded, 60);
        assert_eq!(m.resident_remote, 60);
        assert_eq!(m.row_violations(), 0);
    }

    #[test]
    fn violation_detected_on_inconsistent_rows() {
        let mut m = FlowMatrix::new();
        m.flows.allocated = 10; // entered local, never left, no residents
        assert_eq!(m.row_violations(), 1);
        m.resident_local = 10;
        assert_eq!(m.row_violations(), 0);
    }

    proptest::proptest! {
        #[test]
        fn prop_flow_rows_conserve_under_random_ops(
            ops in proptest::collection::vec((0u8..6, 1u32..50), 1..150)
        ) {
            // Whatever interleaving of alloc/offload/touch/prefetch/free
            // the platform performs, pages entering each residency state
            // equal pages leaving plus pages still there — the table
            // counts every edge exactly once.
            let mut t = PageTable::new(PAGE_SIZE_4K);
            let mut ranges: Vec<PageRange> = Vec::new();
            for (i, &(op, n)) in ops.iter().enumerate() {
                match op {
                    0 => ranges.push(t.alloc(Segment::ALL[i % 3], n)),
                    1 => {
                        if let Some(&r) = ranges.get(i % ranges.len().max(1)) {
                            t.offload_range(r);
                        }
                    }
                    2 => {
                        if let Some(&r) = ranges.get(i % ranges.len().max(1)) {
                            t.touch_range(r);
                        }
                    }
                    3 => {
                        if let Some(&r) = ranges.get(i % ranges.len().max(1)) {
                            t.page_in_range(r);
                        }
                    }
                    4 => {
                        if let Some(&r) = ranges.get(i % ranges.len().max(1)) {
                            for id in r.iter().take(3) {
                                t.set_in_hot_pool(id, n % 2 == 0);
                            }
                        }
                    }
                    _ => {
                        if !ranges.is_empty() {
                            let r = ranges.swap_remove(i % ranges.len());
                            t.free_range(r);
                        }
                    }
                }
            }
            let mut m = FlowMatrix::new();
            m.absorb(&t);
            proptest::prop_assert_eq!(m.row_violations(), 0);
            let [local, remote, freed] = m.rows();
            proptest::prop_assert_eq!(local.resident, t.local_pages());
            proptest::prop_assert_eq!(remote.resident, t.remote_pages());
            proptest::prop_assert_eq!(freed.resident, t.freed_pages());
            // The incremental hot-local counter matches a metadata recount.
            let hot_recount = t
                .collect_ids(|_, meta| {
                    meta.in_hot_pool() && meta.state() == crate::PageState::Local
                })
                .len() as u64;
            proptest::prop_assert_eq!(t.hot_local_pages(), hot_recount);
        }
    }
}
