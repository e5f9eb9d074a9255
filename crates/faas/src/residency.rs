//! The node's residency ledger: where every live container's pages sit,
//! folded in incrementally by the platform's one container-mutation
//! choke point instead of re-derived from the containers on every event.

use faasmem_mem::Segment;

use crate::container::Container;

/// The tally of one residency cell: its containers, those holding remote
/// pages, and their local (hot-pool included), hot-pool-local and remote
/// pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    pub containers: u64,
    pub holding_remote: u64,
    pub local: u64,
    pub hot_local: u64,
    pub remote: u64,
}

impl Tally {
    /// Adds `by` field by field, or subtracts it when `!add`.
    fn shift(&mut self, by: Tally, add: bool) {
        let apply = |x: &mut u64, d: u64| if add { *x += d } else { *x -= d };
        apply(&mut self.containers, by.containers);
        apply(&mut self.holding_remote, by.holding_remote);
        apply(&mut self.local, by.local);
        apply(&mut self.hot_local, by.hot_local);
        apply(&mut self.remote, by.remote);
    }
}

/// One container's residency at an instant: the unit the ledger folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Residency {
    function: usize,
    stage: usize,
    tally: Tally,
    /// Local pages of the runtime segment, which runtime sharing dedups.
    runtime_local: u64,
}

impl Residency {
    /// Reads `c`'s residency off its page table's O(1) counters.
    pub fn of(c: &Container) -> Self {
        let table = c.table();
        Residency {
            function: c.function().0 as usize,
            stage: c.stage() as usize,
            tally: Tally {
                containers: 1,
                holding_remote: u64::from(table.remote_pages() > 0),
                local: table.local_pages(),
                hot_local: table.hot_local_pages(),
                remote: table.remote_pages(),
            },
            runtime_local: table.local_pages_in(Segment::Runtime),
        }
    }
}

/// Node-wide residency per function × lifecycle stage (stage arrays are
/// indexed by `ContainerStage as usize`), per stage and in total. The
/// total is folded apart from the stage cells, so checking one against
/// the other (the anatomy's compute side) is a real cross-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResidencyLedger {
    total: Tally,
    by_stage: [Tally; 4],
    /// Indexed by function id.
    cells: Vec<[Tally; 4]>,
    /// Per function, its containers' non-zero runtime-local pages, ascending.
    runtime_copies: Vec<Vec<u64>>,
    /// Runtime-local pages beyond each function's largest copy: what
    /// runtime sharing deducts from the node.
    runtime_duplicates: u64,
}

impl ResidencyLedger {
    /// An empty ledger for `functions` registered functions.
    pub fn new(functions: usize) -> Self {
        ResidencyLedger {
            total: Tally::default(),
            by_stage: [Tally::default(); 4],
            cells: vec![[Tally::default(); 4]; functions],
            runtime_copies: vec![Vec::new(); functions],
            runtime_duplicates: 0,
        }
    }

    /// The whole node: every live container.
    pub fn total(&self) -> Tally {
        self.total
    }

    /// Node totals per lifecycle stage.
    pub fn by_stage(&self) -> &[Tally; 4] {
        &self.by_stage
    }

    /// Per-function stage rows, indexed by function id.
    pub fn cells(&self) -> &[[Tally; 4]] {
        &self.cells
    }

    /// Runtime-local pages that runtime sharing deduplicates away.
    pub fn runtime_duplicates(&self) -> u64 {
        self.runtime_duplicates
    }

    /// Folds one container change into the ledger: `before` leaves and
    /// `after` arrives, where `None` is "not live" — an insert is
    /// `(None, Some(_))`, a removal `(Some(_), None)`.
    pub fn fold(&mut self, before: Option<Residency>, after: Option<Residency>) {
        if before == after {
            return;
        }
        for (r, add) in [(before, false), (after, true)] {
            let Some(r) = r else { continue };
            self.total.shift(r.tally, add);
            self.by_stage[r.stage].shift(r.tally, add);
            self.cells[r.function][r.stage].shift(r.tally, add);
            if r.runtime_local > 0 {
                let copies = &mut self.runtime_copies[r.function];
                self.runtime_duplicates -= duplicates(copies);
                let at = copies.partition_point(|&p| p < r.runtime_local);
                if add {
                    copies.insert(at, r.runtime_local);
                } else {
                    copies.remove(at);
                }
                self.runtime_duplicates += duplicates(copies);
            }
        }
    }

    /// The reference derivation: sums every live container's residency
    /// from scratch. Debug builds compare it with the folded ledger after
    /// every event, so a mutation that skips the choke point fails tests.
    pub fn rescan<'a>(functions: usize, containers: impl Iterator<Item = &'a Container>) -> Self {
        let mut ledger = ResidencyLedger::new(functions);
        for c in containers {
            ledger.fold(None, Some(Residency::of(c)));
        }
        ledger
    }
}

/// Every copy but the largest of an ascending list.
fn duplicates(copies: &[u64]) -> u64 {
    copies.split_last().map_or(0, |(_, rest)| rest.iter().sum())
}
