//! A naive per-page reference model of the page table.
//!
//! [`ReferencePageTable`] keeps one [`PageMeta`] per page in a plain
//! `Vec` and walks it a page at a time — exactly the layout the table
//! used before the bitmap/SoA rework (DESIGN § data layout). It exists
//! for two reasons:
//!
//! * **Equivalence testing.** The property test below drives a
//!   [`PageTable`](crate::PageTable) and a reference table through the
//!   same random alloc/free/touch/offload/scan/promote interleavings
//!   and asserts every observable output matches: returned ids (values
//!   *and* order), promotion counts, per-page metadata, counters,
//!   histograms, and — for sampled aging — the coin-draw sequence. This
//!   is what lets the word-wise bitmap path claim byte-identical
//!   simulation results.
//! * **Benchmarking.** `bench_mem` races every bitmap kernel against
//!   this model in one process and fails when the data-oriented
//!   layout's speed-up falls below a per-kernel floor.
//!
//! The reference deliberately emits no trace events and performs no
//! recycling of its scratch vectors; it is the simplest correct
//! implementation, not a fast one.

use crate::page::{PageId, PageMeta, PageRange, PageState, Segment};
use crate::table::{Generation, PromoteSummary, TouchOutcome};

/// Naive per-page implementation of the [`crate::PageTable`] semantics.
#[derive(Debug, Clone)]
pub struct ReferencePageTable {
    page_size: u64,
    pages: Vec<PageMeta>,
    current_gen: u32,
    free_exec: Vec<PageRange>,
    local_pages: u64,
    remote_pages: u64,
    freed_pages: u64,
    local_by_segment: [u64; 3],
    total_offloaded: u64,
    total_faulted: u64,
}

impl ReferencePageTable {
    /// Creates an empty table with the given page size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        ReferencePageTable {
            page_size,
            pages: Vec::new(),
            current_gen: 0,
            free_exec: Vec::new(),
            local_pages: 0,
            remote_pages: 0,
            freed_pages: 0,
            local_by_segment: [0; 3],
            total_offloaded: 0,
            total_faulted: 0,
        }
    }

    /// Bytes per page.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Total pages ever allocated (including freed slots awaiting reuse).
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` when no pages have been allocated.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The generation newly allocated pages are tagged with.
    pub fn current_generation(&self) -> Generation {
        Generation(self.current_gen)
    }

    /// Starts a new MGLRU generation and returns it.
    pub fn create_generation(&mut self) -> Generation {
        self.current_gen += 1;
        Generation(self.current_gen)
    }

    /// Allocates `count` local pages in `segment`, recycling freed
    /// execution ranges when possible.
    pub fn alloc(&mut self, segment: Segment, count: u32) -> PageRange {
        if count == 0 {
            return PageRange::EMPTY;
        }
        if segment == Segment::Execution {
            if let Some(range) = self.take_free_exec(count) {
                for id in range.iter() {
                    let gen = self.current_gen;
                    let meta = &mut self.pages[id.index()];
                    debug_assert_eq!(meta.state(), PageState::Freed);
                    *meta = PageMeta::new(Segment::Execution, gen);
                }
                self.freed_pages -= u64::from(range.len());
                self.local_pages += u64::from(range.len());
                self.local_by_segment[Segment::Execution.index()] += u64::from(range.len());
                return range;
            }
        }
        let start = PageId(self.pages.len() as u32);
        self.pages.extend(std::iter::repeat_n(
            PageMeta::new(segment, self.current_gen),
            count as usize,
        ));
        self.local_pages += u64::from(count);
        self.local_by_segment[segment.index()] += u64::from(count);
        PageRange::new(start, count)
    }

    fn take_free_exec(&mut self, count: u32) -> Option<PageRange> {
        let pos = self.free_exec.iter().rposition(|r| r.len() >= count)?;
        let range = self.free_exec[pos];
        let taken = range.take(count);
        let rest = range.skip(count);
        if rest.is_empty() {
            self.free_exec.swap_remove(pos);
        } else {
            self.free_exec[pos] = rest;
        }
        Some(taken)
    }

    /// Metadata for one page.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn meta(&self, id: PageId) -> PageMeta {
        self.pages[id.index()]
    }

    /// Touches one page; returns `true` if it faulted back from remote.
    pub fn touch(&mut self, id: PageId) -> bool {
        let meta = &mut self.pages[id.index()];
        match meta.state() {
            PageState::Freed => false,
            PageState::Local => {
                meta.set_accessed(true);
                false
            }
            PageState::Remote => {
                meta.set_accessed(true);
                meta.set_state(PageState::Local);
                meta.set_recently_faulted(true);
                let seg = meta.segment();
                self.remote_pages -= 1;
                self.local_pages += 1;
                self.local_by_segment[seg.index()] += 1;
                self.total_faulted += 1;
                true
            }
        }
    }

    /// Touches every page of a range.
    pub fn touch_range(&mut self, range: PageRange) -> TouchOutcome {
        let mut out = TouchOutcome::default();
        for id in range.iter() {
            if self.pages[id.index()].state() == PageState::Freed {
                continue;
            }
            out.touched += 1;
            if self.touch(id) {
                out.faulted += 1;
            }
        }
        out
    }

    /// Brings one remote page local without marking it accessed.
    pub fn prefetch(&mut self, id: PageId) -> bool {
        let meta = &mut self.pages[id.index()];
        if meta.state() != PageState::Remote {
            return false;
        }
        meta.set_state(PageState::Local);
        let seg = meta.segment();
        self.remote_pages -= 1;
        self.local_pages += 1;
        self.local_by_segment[seg.index()] += 1;
        true
    }

    /// Brings every remote page of `range` local; returns how many moved.
    pub fn page_in_range(&mut self, range: PageRange) -> u32 {
        range.iter().filter(|&id| self.prefetch(id)).count() as u32
    }

    /// Moves one local page to the remote pool.
    pub fn offload(&mut self, id: PageId) -> bool {
        let meta = &mut self.pages[id.index()];
        if meta.state() != PageState::Local {
            return false;
        }
        meta.set_state(PageState::Remote);
        let seg = meta.segment();
        self.local_pages -= 1;
        self.local_by_segment[seg.index()] -= 1;
        self.remote_pages += 1;
        self.total_offloaded += 1;
        true
    }

    /// Offloads every local page in `range`; returns how many moved.
    pub fn offload_range(&mut self, range: PageRange) -> u32 {
        range.iter().filter(|&id| self.offload(id)).count() as u32
    }

    /// Frees a range; the pages become available for execution reuse.
    pub fn free_range(&mut self, range: PageRange) {
        if range.is_empty() {
            return;
        }
        for id in range.iter() {
            let meta = &mut self.pages[id.index()];
            match meta.state() {
                PageState::Local => {
                    self.local_pages -= 1;
                    self.local_by_segment[meta.segment().index()] -= 1;
                }
                PageState::Remote => {
                    self.remote_pages -= 1;
                }
                PageState::Freed => continue,
            }
            meta.set_state(PageState::Freed);
            meta.set_accessed(false);
            meta.set_in_hot_pool(false);
            self.freed_pages += 1;
        }
        self.free_exec.push(range);
    }

    /// Scans and clears the Access bits; returns the accessed ids.
    pub fn scan_accessed(&mut self) -> Vec<PageId> {
        self.scan_accessed_with_faults()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// The naive promotion scan (see
    /// [`crate::PageTable::promote_accessed`]): scan the Access bits,
    /// then classify each hit by the generation bounds and flag it hot
    /// one page at a time.
    pub fn promote_accessed(&mut self, runtime_end: u32, init_end: u32) -> PromoteSummary {
        let mut summary = PromoteSummary::default();
        for (id, faulted) in self.scan_accessed_with_faults() {
            let meta = self.pages[id.index()];
            if meta.in_hot_pool() {
                continue;
            }
            let recalled = u32::from(faulted);
            if meta.generation() < runtime_end {
                summary.runtime_promoted += 1;
                summary.runtime_recalled += recalled;
            } else if meta.generation() < init_end {
                summary.init_promoted += 1;
                summary.init_recalled += recalled;
            } else {
                continue;
            }
            self.set_in_hot_pool(id, true);
        }
        summary
    }

    /// Scan variant also reporting the recently-faulted flag per hit.
    fn scan_accessed_with_faults(&mut self) -> Vec<(PageId, bool)> {
        let mut hits = Vec::new();
        for (i, meta) in self.pages.iter_mut().enumerate() {
            if meta.state() == PageState::Freed {
                continue;
            }
            if meta.accessed() {
                hits.push((PageId(i as u32), meta.recently_faulted()));
                meta.set_accessed(false);
            }
            meta.set_recently_faulted(false);
        }
        hits
    }

    /// One exact aging scan; returns local pages at the idle threshold.
    pub fn age_and_collect_idle(&mut self, idle_threshold: u8) -> Vec<PageId> {
        let mut cold = Vec::new();
        for (i, meta) in self.pages.iter_mut().enumerate() {
            if meta.state() == PageState::Freed {
                continue;
            }
            if meta.accessed() {
                meta.set_accessed(false);
                meta.reset_idle_scans();
            } else {
                meta.bump_idle_scans();
                if meta.idle_scans() >= idle_threshold && meta.state() == PageState::Local {
                    cold.push(PageId(i as u32));
                }
            }
        }
        cold
    }

    /// One sampled aging scan; `coin` is flipped once per accessed page
    /// in ascending page order.
    ///
    /// # Panics
    ///
    /// Panics if `sample_prob` is not in `(0, 1]`.
    pub fn age_and_collect_idle_sampled<F: FnMut() -> f64>(
        &mut self,
        idle_threshold: u8,
        sample_prob: f64,
        mut coin: F,
    ) -> Vec<PageId> {
        assert!(
            sample_prob > 0.0 && sample_prob <= 1.0,
            "sample probability {sample_prob} out of range"
        );
        let mut cold = Vec::new();
        for (i, meta) in self.pages.iter_mut().enumerate() {
            if meta.state() == PageState::Freed {
                continue;
            }
            let observed_access = meta.accessed() && coin() < sample_prob;
            if meta.accessed() {
                meta.set_accessed(false);
            }
            if observed_access {
                meta.reset_idle_scans();
            } else {
                meta.bump_idle_scans();
                if meta.idle_scans() >= idle_threshold && meta.state() == PageState::Local {
                    cold.push(PageId(i as u32));
                }
            }
        }
        cold
    }

    /// Collects ids of live pages matching a predicate.
    pub fn collect_ids<F: Fn(PageId, PageMeta) -> bool>(&self, pred: F) -> Vec<PageId> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| {
                let id = PageId(i as u32);
                (m.state() != PageState::Freed && pred(id, m)).then_some(id)
            })
            .collect()
    }

    /// Marks hot-page-pool membership for one page.
    pub fn set_in_hot_pool(&mut self, id: PageId, on: bool) {
        self.pages[id.index()].set_in_hot_pool(on);
    }

    /// Clears hot-pool membership on every live local page; returns how
    /// many were cleared.
    pub fn clear_local_hot_pool(&mut self) -> u32 {
        let mut cleared = 0u32;
        for meta in &mut self.pages {
            if meta.state() == PageState::Local && meta.in_hot_pool() {
                meta.set_in_hot_pool(false);
                cleared += 1;
            }
        }
        cleared
    }

    /// Reassigns a page's generation.
    pub fn set_generation(&mut self, id: PageId, generation: Generation) {
        self.pages[id.index()].set_generation(generation.0);
    }

    /// O(pages) live-page age histogram (see
    /// [`crate::PageTable::generation_age_histogram`]).
    pub fn generation_age_histogram<const N: usize>(&self) -> [u64; N] {
        assert!(N > 0, "histogram needs at least one bucket");
        let mut hist = [0u64; N];
        for meta in &self.pages {
            if meta.state() == PageState::Freed {
                continue;
            }
            let age = self.current_gen.saturating_sub(meta.generation()) as usize;
            hist[age.min(N - 1)] += 1;
        }
        hist
    }

    /// Pages currently resident in local DRAM.
    pub fn local_pages(&self) -> u64 {
        self.local_pages
    }

    /// Pages currently swapped out to the remote pool.
    pub fn remote_pages(&self) -> u64 {
        self.remote_pages
    }

    /// Pages in the freed state awaiting reuse.
    pub fn freed_pages(&self) -> u64 {
        self.freed_pages
    }

    /// Local pages belonging to `segment`.
    pub fn local_pages_in(&self, segment: Segment) -> u64 {
        self.local_by_segment[segment.index()]
    }

    /// O(pages) count of live local hot-pool pages (see
    /// [`crate::PageTable::hot_local_pages`]).
    pub fn hot_local_pages(&self) -> u64 {
        self.pages
            .iter()
            .filter(|m| m.state() == PageState::Local && m.in_hot_pool())
            .count() as u64
    }

    /// Lifetime count of pages offloaded to the pool.
    pub fn total_offloaded(&self) -> u64 {
        self.total_offloaded
    }

    /// Lifetime count of remote pages faulted back in.
    pub fn total_faulted(&self) -> u64 {
        self.total_faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageTable, PAGE_SIZE_4K};

    /// Deterministic coin stream for sampled-aging comparisons: both
    /// tables get an identical sequence, so any divergence in *when*
    /// coins are drawn shows up as diverging outputs.
    struct Coin(u64);

    impl Coin {
        fn next(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn assert_same_observables(new: &PageTable, reference: &ReferencePageTable) {
        assert_eq!(new.len(), reference.len());
        assert_eq!(new.local_pages(), reference.local_pages());
        assert_eq!(new.remote_pages(), reference.remote_pages());
        assert_eq!(new.freed_pages(), reference.freed_pages());
        assert_eq!(new.total_offloaded(), reference.total_offloaded());
        assert_eq!(new.total_faulted(), reference.total_faulted());
        assert_eq!(new.hot_local_pages(), reference.hot_local_pages());
        for seg in Segment::ALL {
            assert_eq!(new.local_pages_in(seg), reference.local_pages_in(seg));
        }
        for i in 0..reference.len() {
            let id = PageId(i as u32);
            assert_eq!(new.meta(id), reference.meta(id), "page {i} diverged");
        }
        same_histogram::<1>(new, reference);
        same_histogram::<3>(new, reference);
        same_histogram::<7>(new, reference);
    }

    fn same_histogram<const N: usize>(new: &PageTable, reference: &ReferencePageTable) {
        assert_eq!(
            new.generation_age_histogram::<N>(),
            reference.generation_age_histogram::<N>(),
            "histogram with {N} buckets diverged"
        );
    }

    /// Drives a [`PageTable`] and a reference table through one random
    /// op script and asserts every observable output matches, and that
    /// the table's run list stays canonical after every op.
    fn differential(ops: &[u32]) {
        let mut new = PageTable::new(PAGE_SIZE_4K);
        let mut reference = ReferencePageTable::new(PAGE_SIZE_4K);
        let mut ranges: Vec<PageRange> = Vec::new();
        let mut coin_seed = 0x5EED_0001u64;
        for (i, &v) in ops.iter().enumerate() {
            let arg = v / 11;
            match v % 11 {
                0 => {
                    // Allocations cross word boundaries on purpose:
                    // up to 80 pages lands mid-word more often than
                    // not.
                    let seg = Segment::ALL[arg as usize % 3];
                    let count = arg % 80 + 1;
                    let a = new.alloc(seg, count);
                    let b = reference.alloc(seg, count);
                    proptest::prop_assert_eq!(a, b);
                    ranges.push(a);
                }
                1 => {
                    if !ranges.is_empty() {
                        let r = ranges.swap_remove(arg as usize % ranges.len());
                        new.free_range(r);
                        reference.free_range(r);
                    }
                }
                2 => {
                    if let Some(&r) = ranges.get(arg as usize % ranges.len().max(1)) {
                        proptest::prop_assert_eq!(new.touch_range(r), reference.touch_range(r));
                    }
                }
                3 => {
                    if let Some(&r) = ranges.get(arg as usize % ranges.len().max(1)) {
                        proptest::prop_assert_eq!(new.offload_range(r), reference.offload_range(r));
                    }
                }
                4 => {
                    if let Some(&r) = ranges.get(arg as usize % ranges.len().max(1)) {
                        proptest::prop_assert_eq!(new.page_in_range(r), reference.page_in_range(r));
                    }
                }
                5 if arg % 2 == 0 => {
                    proptest::prop_assert_eq!(new.scan_accessed(), reference.scan_accessed());
                }
                5 => {
                    // Pucket bounds anywhere in (and one past) the
                    // generation space, including the unbarriered
                    // "everything is Runtime" case.
                    let span = new.current_generation().0 + 2;
                    let (a, b) = ((arg / 2) % span, (arg / 7) % span);
                    let (runtime_end, init_end) = if arg % 5 == 1 {
                        (u32::MAX, u32::MAX)
                    } else {
                        (a.min(b), a.max(b))
                    };
                    proptest::prop_assert_eq!(
                        new.promote_accessed(runtime_end, init_end),
                        reference.promote_accessed(runtime_end, init_end)
                    );
                    proptest::prop_assert_eq!(new.hot_local_pages(), reference.hot_local_pages());
                }
                6 => {
                    // A bounded collection is the ascending prefix of
                    // the reference's full list, and ages every page
                    // alike: limits 0, 1, small and unbounded.
                    let thr = (arg % 3 + 1) as u8;
                    let limit = match (arg / 3) % 4 {
                        0 => 0,
                        1 => 1,
                        2 => (arg / 12) as usize % 40 + 2,
                        _ => usize::MAX,
                    };
                    let mut got = vec![PageId(u32::MAX)];
                    new.age_and_collect_idle_into(thr, limit, &mut got);
                    let all = reference.age_and_collect_idle(thr);
                    proptest::prop_assert_eq!(&got[..], &all[..all.len().min(limit)]);
                }
                7 => {
                    // Twin coin streams: equality of the collected
                    // ids implies the draw sequences stayed aligned.
                    let thr = (arg % 3 + 1) as u8;
                    let prob = 0.35 + f64::from(arg % 50) / 100.0;
                    let mut c1 = Coin(coin_seed);
                    let mut c2 = Coin(coin_seed);
                    coin_seed = coin_seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(1);
                    let a = new.age_and_collect_idle_sampled(thr, prob, || c1.next());
                    let b = reference.age_and_collect_idle_sampled(thr, prob, || c2.next());
                    proptest::prop_assert_eq!(a, b);
                    proptest::prop_assert_eq!(c1.0, c2.0, "coin draw counts diverged");
                }
                8 => {
                    if !new.is_empty() {
                        let id = PageId(arg % new.len() as u32);
                        let on = i % 2 == 0;
                        new.set_in_hot_pool(id, on);
                        reference.set_in_hot_pool(id, on);
                    } else {
                        proptest::prop_assert_eq!(
                            new.clear_local_hot_pool(),
                            reference.clear_local_hot_pool()
                        );
                    }
                    if i % 5 == 0 {
                        proptest::prop_assert_eq!(
                            new.clear_local_hot_pool(),
                            reference.clear_local_hot_pool()
                        );
                    }
                }
                10 => {
                    // The Pucket drain kernels against the naive
                    // predicate: open, empty, reversed and
                    // past-the-current-generation intervals, each
                    // bounded by a limit that must keep the ascending
                    // prefix, appended after stale contents.
                    let span = new.current_generation().0 + 3;
                    let (a, b) = ((arg / 2) % span, (arg / 5) % span);
                    let (lo, hi) = match arg % 5 {
                        0 => (0, u32::MAX),
                        1 => (a.max(b), a.min(b)),
                        2 => (a, u32::MAX),
                        _ => (a.min(b), a.max(b)),
                    };
                    let limit = if arg % 3 == 0 {
                        usize::MAX
                    } else {
                        (arg / 3) as usize % 50
                    };
                    let local = |m: PageMeta| m.state() == PageState::Local;
                    let inactive = reference.collect_ids(|_, m| {
                        local(m) && !m.in_hot_pool() && (lo..hi).contains(&m.generation())
                    });
                    let hot = reference.collect_ids(|_, m| local(m) && m.in_hot_pool());
                    let all_local = reference.collect_ids(|_, m| local(m));
                    let stale = [PageId(u32::MAX)];
                    let prefix =
                        |ids: &[PageId]| [&stale[..], &ids[..ids.len().min(limit)]].concat();

                    let mut got = stale.to_vec();
                    new.append_inactive_in_gen_range(lo, hi, limit, &mut got);
                    proptest::prop_assert_eq!(&got, &prefix(&inactive));
                    got.truncate(1);
                    new.append_inactive_in_gen_range(lo, hi, usize::MAX, &mut got);
                    proptest::prop_assert_eq!(
                        new.count_inactive_in_gen_range(lo, hi),
                        got.len() as u64 - 1
                    );
                    proptest::prop_assert_eq!(&got[1..], &inactive[..]);

                    got.truncate(1);
                    new.append_hot_pool_local(limit, &mut got);
                    proptest::prop_assert_eq!(&got, &prefix(&hot));
                    got.truncate(1);
                    new.append_local(limit, &mut got);
                    proptest::prop_assert_eq!(&got, &prefix(&all_local));

                    if let Some(&r) = ranges.get(arg as usize % ranges.len().max(1)) {
                        let in_range = reference.collect_ids(|id, m| local(m) && r.contains(id));
                        got.truncate(1);
                        new.append_local_in_range(r, &mut got);
                        proptest::prop_assert_eq!(&got[1..], &in_range[..]);
                    }
                }
                9 => {
                    if i % 4 == 0 {
                        let g = new.create_generation();
                        proptest::prop_assert_eq!(g, reference.create_generation());
                    } else if !new.is_empty() {
                        let id = PageId(arg % new.len() as u32);
                        let g = Generation(arg % (new.current_generation().0 + 1));
                        new.set_generation(id, g);
                        reference.set_generation(id, g);
                    }
                }
                _ => unreachable!("op is v % 11"),
            }
            new.assert_runs_canonical();
        }
        assert_same_observables(&new, &reference);
    }

    proptest::proptest! {
        // The bitmap/SoA table is observably equivalent to the naive
        // per-page model: same returned ids in the same (ascending)
        // order, same idle counters and flags, same accounting — across
        // random alloc/free/touch/offload/scan/age/drain interleavings.
        #[test]
        fn prop_bitmap_path_matches_reference(
            ops in proptest::collection::vec(0u32..77_000, 1..90),
        ) {
            differential(&ops);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]
        // The long-run differential pass CI runs explicitly
        // (`cargo test -p faasmem-mem --release --lib -- --ignored`).
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn table_oracle_extended_equivalence(
            ops in proptest::collection::vec(0u32..77_000, 1..90),
        ) {
            differential(&ops);
        }
    }

    #[test]
    fn reference_and_table_agree_on_a_worked_example() {
        let mut n = PageTable::new(PAGE_SIZE_4K);
        let mut r = ReferencePageTable::new(PAGE_SIZE_4K);
        n.alloc(Segment::Runtime, 100);
        r.alloc(Segment::Runtime, 100);
        n.create_generation();
        r.create_generation();
        let e1 = n.alloc(Segment::Execution, 30);
        assert_eq!(e1, r.alloc(Segment::Execution, 30));
        assert_eq!(
            n.offload_range(PageRange::new(PageId(10), 50)),
            r.offload_range(PageRange::new(PageId(10), 50))
        );
        assert_eq!(
            n.touch_range(PageRange::new(PageId(0), 70)),
            r.touch_range(PageRange::new(PageId(0), 70))
        );
        n.free_range(e1);
        r.free_range(e1);
        assert_eq!(n.promote_accessed(1, 2), r.promote_accessed(1, 2));
        assert_eq!(n.age_and_collect_idle(1), r.age_and_collect_idle(1));
        assert_same_observables(&n, &r);
    }
}
