//! The per-container page table.
//!
//! A [`PageTable`] is the moral equivalent of a container cgroup's memory
//! state in the paper's modified kernel: every page the container has
//! allocated, its residency (local DRAM vs remote pool), its simulated
//! Access bit, its MGLRU generation, and which lifecycle segment it was
//! allocated in. All policy code — FaaSMem's Puckets as well as the TMO
//! and DAMON baselines — operates purely through this interface, which is
//! what keeps the head-to-head evaluation honest.
//!
//! # Data layout
//!
//! The table is column-oriented (see DESIGN § data layout). The five
//! per-page flags — the Access bit, the recently-faulted flag, freed
//! state, remote residency, hot-pool membership — are packed `u64`
//! bitmaps, one bit per page. A page's lifecycle segment and MGLRU
//! generation are not stored per page: they live in one sorted list of
//! *allocation runs*, each a start page with a segment and a generation
//! that hold up to the next run's start. The layout is exact because
//! both attributes are fixed when a page is allocated: a page takes the
//! generation current at allocation (a time barrier only changes what
//! *later* pages get) and keeps its allocation segment, and no policy
//! moves a page between generations. So every `alloc` appends one run
//! or extends the last, and only recycling a freed execution range (or
//! the test-only [`PageTable::set_generation`]) splits runs. A FaaSMem
//! container holds three runs — runtime, init, execution — and 5 bits
//! per page. The DAMON-style idle-scan counter is the only byte
//! column, and it is allocated on the first aging scan, so policies
//! that never age pages never pay for it.
//!
//! Batch operations iterate word-wise: an all-zero mask word skips 64
//! pages in one branch, and set bits are visited in ascending page-id
//! order via `trailing_zeros`. Kernels that need a word's segments or
//! generations take them from a run cursor that moves forward with the
//! word loop, so a word inside one run costs one comparison; the
//! generation-interval collectors visit only the words of runs in the
//! interval. Every scan-like operation either returns counts
//! ([`PageTable::promote_accessed`], [`PageTable::clear_accessed`]) or
//! has an `_into`/`append_*` variant writing into a caller-owned scratch
//! buffer, so steady-state simulation allocates nothing per scan.
//!
//! A table built with [`PageTable::with_capacity`] reserves every bitmap
//! for its final page count, and the run list and per-generation counts
//! for one container lifecycle, up front; allocation only grows them
//! (amortised) once a table outgrows that reservation.
//!
//! The `freed` bitmap carries a *tail guard*: bits at indices `>= len`
//! (the slack of the last partial word) are kept set, so the live-page
//! mask of any word is simply `!freed[w]` with no last-word special case.

use crate::flow::PageFlows;
use crate::page::{PageId, PageMeta, PageRange, PageState, Segment};
use crate::stats::MemStats;
use faasmem_trace::{EventKind, TraceLayer, Tracer};

/// An MGLRU generation number.
///
/// Creating a new generation is how FaaSMem inserts a *time barrier*
/// (paper §7): pages allocated afterwards carry the new generation, so the
/// barrier cleanly segregates runtime, init and execution pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Generation(pub u32);

/// Result of touching a set of pages during request execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// Pages whose Access bit was set (resident or faulted-in).
    pub touched: u32,
    /// Pages that were remote and had to be faulted back from the pool.
    pub faulted: u32,
}

impl TouchOutcome {
    /// Accumulates another outcome into this one.
    pub fn merge(&mut self, other: TouchOutcome) {
        self.touched += other.touched;
        self.faulted += other.faulted;
    }
}

/// What a hot-pool promotion scan ([`PageTable::promote_accessed`])
/// found, split by the Pucket the promoted pages belong to.
///
/// Once the Runtime Pucket has been reactively offloaded, further
/// `runtime_promoted` pages are *recalls* — the Fig 8 metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromoteSummary {
    /// Runtime-Pucket pages promoted to the hot pool by this scan.
    pub runtime_promoted: u32,
    /// Init-Pucket pages promoted.
    pub init_promoted: u32,
    /// Promoted Runtime-Pucket pages that were *recalled from remote
    /// memory* since the previous scan. Re-promotions of still-local
    /// pages after a rollback do not count.
    pub runtime_recalled: u32,
    /// Promoted Init-Pucket pages recalled from remote memory.
    pub init_recalled: u32,
}

/// Generations one container lifecycle creates: the runtime generation
/// plus one per time barrier (paper §4). It is also the number of
/// allocation runs a lifecycle leaves (runtime, init, execution), so
/// [`PageTable::with_capacity`] reserves that many runs and
/// per-generation live counts.
const LIFECYCLE_GENERATIONS: usize = 3;

/// `(word index, bit mask)` addressing one page in a bitmap.
#[inline]
fn word_bit(index: usize) -> (usize, u64) {
    (index >> 6, 1u64 << (index & 63))
}

/// Iterates the bitmap words overlapping `[start, end)`, yielding each
/// word index with the mask of span bits inside it. `start < end`.
#[inline]
fn span_words(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    debug_assert!(start < end);
    let first = start >> 6;
    let last = (end - 1) >> 6;
    (first..=last).map(move |w| {
        let mut mask = !0u64;
        if w == first {
            mask &= !0u64 << (start & 63);
        }
        if w == last && (end & 63) != 0 {
            mask &= (1u64 << (end & 63)) - 1;
        }
        (w, mask)
    })
}

/// Appends the pages of each `(word index, bits)` to `out` in ascending
/// order, stopping once `limit` have been appended.
#[inline]
fn append_bits(out: &mut Vec<PageId>, limit: usize, words: impl Iterator<Item = (usize, u64)>) {
    let mut left = limit;
    for (w, mut bits) in words {
        if left == 0 {
            return;
        }
        while bits != 0 && left > 0 {
            out.push(PageId(((w << 6) | bits.trailing_zeros() as usize) as u32));
            left -= 1;
            bits &= bits - 1;
        }
    }
}

/// One allocation run: the pages from `start` up to the next run's
/// start (or the table's length) share a segment and a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    generation: u32,
    segment: Segment,
}

impl Run {
    /// `true` when both runs tag their pages alike, so that adjacent
    /// they are one run.
    #[inline]
    fn same_tag(&self, other: &Run) -> bool {
        self.generation == other.generation && self.segment == other.segment
    }
}

/// A forward cursor over a run list, for loops that visit pages or
/// words in ascending order: each lookup resumes where the last one
/// stopped, so a whole-table pass walks the runs once.
#[derive(Debug, Clone, Copy, Default)]
struct RunCursor(usize);

impl RunCursor {
    /// A cursor at the run holding page `i`, for a pass starting there.
    /// In `i`'s word, the pages before `i` are reported in that run too,
    /// so a pass must hold no bits below `i`.
    #[inline]
    fn at(runs: &[Run], i: usize) -> Self {
        RunCursor(
            runs.partition_point(|r| r.start as usize <= i)
                .saturating_sub(1),
        )
    }

    /// The run holding page `i`. Pages must be asked for in ascending
    /// order, and `runs` must cover `i`.
    #[inline]
    fn run_of(&mut self, runs: &[Run], i: usize) -> Run {
        while runs.get(self.0 + 1).is_some_and(|r| r.start as usize <= i) {
            self.0 += 1;
        }
        runs[self.0]
    }

    /// Calls `f(run, mask)` for every run overlapping word `w`, `mask`
    /// selecting the word's pages in that run (bits past the table's
    /// length fall in the last run). Words must be visited in ascending
    /// order.
    #[inline]
    fn each_in_word(&mut self, runs: &[Run], w: usize, mut f: impl FnMut(Run, u64)) {
        let lo = w << 6;
        let mut run = self.run_of(runs, lo);
        let mut from = 0;
        let mut k = self.0;
        while let Some(next) = runs.get(k + 1).filter(|r| (r.start as usize) < lo + 64) {
            let to = next.start as usize - lo;
            f(run, (!0u64 << from) & ((1u64 << to) - 1));
            (run, from, k) = (*next, to, k + 1);
        }
        f(run, !0u64 << from);
    }
}

/// Per-container page table with MGLRU generations and residency tracking.
///
/// # Examples
///
/// ```
/// use faasmem_mem::{PageTable, Segment, PageState, PAGE_SIZE_4K};
///
/// let mut t = PageTable::new(PAGE_SIZE_4K);
/// let runtime = t.alloc(Segment::Runtime, 100);
/// let barrier = t.create_generation(); // Runtime-Init time barrier
/// let init = t.alloc(Segment::Init, 50);
/// assert!(t.meta(runtime.start()).generation() < barrier.0);
/// assert_eq!(t.meta(init.start()).generation(), barrier.0);
/// let n = t.offload_range(runtime);
/// assert_eq!(n, 100);
/// assert_eq!(t.meta(runtime.start()).state(), PageState::Remote);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: u64,
    /// Total pages ever allocated; bitmap bits `>= len` are dead slack
    /// (set in `freed`, clear everywhere else).
    len: usize,
    /// Simulated Access bits. Invariant: subset of live pages.
    accessed: Vec<u64>,
    /// "Faulted back since the last scan" flags. May linger on freed
    /// pages (frees do not consume the flag; scans clear live bits and
    /// recycling resets it).
    recently_faulted: Vec<u64>,
    /// Freed-state bits, tail-guarded: slack bits past `len` stay set so
    /// `!freed[w]` is the live mask of any word.
    freed: Vec<u64>,
    /// Remote-residency bits. Invariant: subset of live pages.
    remote: Vec<u64>,
    /// Hot-page-pool membership bits (policy-owned, see `set_in_hot_pool`).
    hot_pool: Vec<u64>,
    /// Allocation runs, sorted by start: every page `< len`, freed or
    /// not, takes the segment and generation of the run holding it.
    /// Empty exactly when `len` is 0; otherwise the first run starts at
    /// page 0, every run holds at least one page, and no two adjacent
    /// runs have the same tag.
    runs: Vec<Run>,
    /// DAMON-style idle-scan counter per page. Empty until the first
    /// aging scan sizes it to `len`; a page past its end has count 0.
    idle_scans: Vec<u8>,
    /// Live pages per generation, indexed by generation number — keeps
    /// `generation_age_histogram` O(generations) instead of O(pages).
    /// It has an entry for every generation created so far.
    gen_live: Vec<u64>,
    current_gen: u32,
    /// Freed execution ranges available for reuse, newest last.
    free_exec: Vec<PageRange>,
    local_pages: u64,
    remote_pages: u64,
    freed_pages: u64,
    local_by_segment: [u64; 3],
    /// Live local pages currently flagged hot-pool — the `hot_pool`
    /// bitmap restricted to local residency, maintained incrementally
    /// at every transition so occupancy accounting reads it in O(1).
    hot_local_pages: u64,
    /// Lifetime counters for bandwidth accounting.
    total_offloaded: u64,
    total_faulted: u64,
    /// Lifetime page-lifecycle edge counters beyond the two above:
    /// together with them they form the flow matrix (see
    /// [`crate::flow`]). Every residency transition increments exactly
    /// one edge, which is what makes the flow rows conserve.
    total_allocated: u64,
    total_reused: u64,
    total_prefetched: u64,
    total_freed_local: u64,
    total_freed_remote: u64,
    /// Trace emission handle (disabled by default) and the container id
    /// batch events are attributed to.
    tracer: Tracer,
    owner: Option<u64>,
}

impl PageTable {
    /// Creates an empty table with the given page size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn new(page_size: u64) -> Self {
        Self::with_capacity(page_size, 0)
    }

    /// Creates an empty table whose bitmaps are reserved for exactly
    /// `pages` pages, so allocating up to that many pages never
    /// reallocates and leaves no growth slack. A container passes its
    /// runtime + init + execution page count: execution ranges are
    /// recycled, so that sum is the table's final length. The run list
    /// and the live counts are reserved for one lifecycle's three runs
    /// and generations, and the free-range list for one freed execution
    /// range. The idle-scan counters are not reserved: only a policy
    /// that ages pages allocates them.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn with_capacity(page_size: u64, pages: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let words = pages.div_ceil(64);
        let mut gen_live = Vec::with_capacity(LIFECYCLE_GENERATIONS);
        gen_live.push(0);
        PageTable {
            page_size,
            len: 0,
            accessed: Vec::with_capacity(words),
            recently_faulted: Vec::with_capacity(words),
            freed: Vec::with_capacity(words),
            remote: Vec::with_capacity(words),
            hot_pool: Vec::with_capacity(words),
            runs: Vec::with_capacity(LIFECYCLE_GENERATIONS),
            idle_scans: Vec::new(),
            gen_live,
            current_gen: 0,
            free_exec: Vec::with_capacity(1),
            local_pages: 0,
            remote_pages: 0,
            freed_pages: 0,
            local_by_segment: [0; 3],
            hot_local_pages: 0,
            total_offloaded: 0,
            total_faulted: 0,
            total_allocated: 0,
            total_reused: 0,
            total_prefetched: 0,
            total_freed_local: 0,
            total_freed_remote: 0,
            tracer: Tracer::disabled(),
            owner: None,
        }
    }

    /// Attaches a trace emission handle. Batch operations (scans, aging
    /// walks, bulk offload/page-in) emit memory-layer events attributed
    /// to container `owner`; single-page primitives stay silent so a
    /// batch never double-reports.
    pub fn attach_tracer(&mut self, tracer: Tracer, owner: u64) {
        self.tracer = tracer;
        self.owner = Some(owner);
    }

    /// Bytes per page.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Total pages ever allocated (including freed slots awaiting reuse).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no pages have been allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the table holds, each buffer at its capacity: the five
    /// flag bitmaps, the idle-scan counters once a policy ages pages,
    /// the run list, the per-generation live counts and the free-range
    /// list.
    pub fn allocated_bytes(&self) -> usize {
        use std::mem::size_of;
        let bitmaps = [
            &self.accessed,
            &self.recently_faulted,
            &self.freed,
            &self.remote,
            &self.hot_pool,
        ];
        bitmaps.map(Vec::capacity).iter().sum::<usize>() * size_of::<u64>()
            + self.idle_scans.capacity()
            + self.runs.capacity() * size_of::<Run>()
            + self.gen_live.capacity() * size_of::<u64>()
            + self.free_exec.capacity() * size_of::<PageRange>()
    }

    /// Asserts the run list's invariants: it covers exactly `[0, len)`,
    /// every run holds a page, and adjacent runs differ in tag.
    #[cfg(test)]
    pub(crate) fn assert_runs_canonical(&self) {
        assert_eq!(self.runs.is_empty(), self.len == 0, "runs cover the table");
        if let Some(first) = self.runs.first() {
            assert_eq!(first.start, 0, "the first run starts at page 0");
        }
        for k in 0..self.runs.len() {
            assert!(
                (self.runs[k].start as usize) < self.run_end(k),
                "run {k} is empty: {:?}",
                self.runs
            );
            if k > 0 {
                assert!(
                    !self.runs[k - 1].same_tag(&self.runs[k]),
                    "runs {} and {k} are not merged: {:?}",
                    k - 1,
                    self.runs
                );
            }
        }
    }

    /// Number of bitmap words in play.
    #[inline]
    fn words(&self) -> usize {
        self.freed.len()
    }

    #[inline]
    fn assert_allocated(&self, id: PageId) {
        assert!(
            id.index() < self.len,
            "page {} was never allocated (table has {})",
            id.index(),
            self.len
        );
    }

    /// Asserts `range` lies within the allocated id space and returns its
    /// `(start, end)` indices; `None` for an empty range.
    #[inline]
    fn range_bounds(&self, range: PageRange) -> Option<(usize, usize)> {
        if range.is_empty() {
            return None;
        }
        let start = range.start().index();
        let end = start + range.len() as usize;
        assert!(
            end <= self.len,
            "range {}..{} exceeds allocated pages ({})",
            start,
            end,
            self.len
        );
        Some((start, end))
    }

    /// Makes sure generation `g` has a live count.
    fn ensure_generation(&mut self, g: usize) {
        if self.gen_live.len() <= g {
            self.gen_live.resize(g + 1, 0);
        }
    }

    /// Index of the run holding page `i < len`.
    #[inline]
    fn run_index(&self, i: usize) -> usize {
        self.runs.partition_point(|r| r.start as usize <= i) - 1
    }

    /// One past the last page of run `k`.
    #[inline]
    fn run_end(&self, k: usize) -> usize {
        self.runs.get(k + 1).map_or(self.len, |r| r.start as usize)
    }

    /// The run holding page `i < len`.
    #[inline]
    fn run_at(&self, i: usize) -> Run {
        self.runs[self.run_index(i)]
    }

    /// Tags the pages `[start, end)` with `segment` and `generation`:
    /// the runs the span cuts are split, and the painted run is merged
    /// with equal neighbours. `start < end <= len`.
    fn paint(&mut self, start: usize, end: usize, segment: Segment, generation: u32) {
        let painted = Run {
            start: start as u32,
            generation,
            segment,
        };
        let (i, j) = (self.run_index(start), self.run_index(end - 1));
        // The steady state — a request recycling the last one's range in
        // the same generation — repaints nothing and so never allocates.
        if i == j && self.runs[i].same_tag(&painted) {
            return;
        }
        let tail = (end < self.run_end(j)).then_some(Run {
            start: end as u32,
            ..self.runs[j]
        });
        // Run `i` keeps its pages before `start`; the runs the span
        // covers give way to the painted run and the cut-off tail.
        let at = if self.runs[i].start < painted.start {
            i + 1
        } else {
            i
        };
        self.runs
            .splice(at..=j, std::iter::once(painted).chain(tail));
        if self
            .runs
            .get(at + 1)
            .is_some_and(|next| next.same_tag(&painted))
        {
            self.runs.remove(at + 1);
        }
        if at > 0 && self.runs[at - 1].same_tag(&painted) {
            self.runs.remove(at);
        }
    }

    /// Adds the pages of `bits` (in word `w`) to their segments' local
    /// counts, taking each page's segment from `cursor`.
    #[inline]
    fn add_local_by_segment(&mut self, cursor: &mut RunCursor, w: usize, bits: u64) {
        let local = &mut self.local_by_segment;
        cursor.each_in_word(&self.runs, w, |run, mask| {
            local[run.segment.index()] += u64::from((bits & mask).count_ones());
        });
    }

    /// Removes the pages of `bits` (in word `w`) from their segments'
    /// local counts.
    #[inline]
    fn remove_local_by_segment(&mut self, cursor: &mut RunCursor, w: usize, bits: u64) {
        let local = &mut self.local_by_segment;
        cursor.each_in_word(&self.runs, w, |run, mask| {
            local[run.segment.index()] -= u64::from((bits & mask).count_ones());
        });
    }

    /// The generation newly allocated pages are tagged with.
    pub fn current_generation(&self) -> Generation {
        Generation(self.current_gen)
    }

    /// Starts a new MGLRU generation and returns it. This is the
    /// time-barrier insertion primitive: pages allocated from now on carry
    /// the returned generation.
    pub fn create_generation(&mut self) -> Generation {
        self.current_gen += 1;
        self.ensure_generation(self.current_gen as usize);
        if self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::GenerationCreate {
                    generation: u64::from(self.current_gen),
                },
            );
        }
        Generation(self.current_gen)
    }

    /// Allocates `count` local pages in `segment`, tagged with the current
    /// generation. Execution pages are recycled from previously freed
    /// ranges when an exact-fit or larger range is available.
    pub fn alloc(&mut self, segment: Segment, count: u32) -> PageRange {
        if count == 0 {
            return PageRange::EMPTY;
        }
        if segment == Segment::Execution {
            if let Some(range) = self.take_free_exec(count) {
                self.recycle(range);
                return range;
            }
        }
        let start = self.len;
        let new_len = start + count as usize;
        let words = new_len.div_ceil(64);
        self.accessed.resize(words, 0);
        self.recently_faulted.resize(words, 0);
        self.remote.resize(words, 0);
        self.hot_pool.resize(words, 0);
        // New freed words arrive all-ones (tail guard), then the newly
        // allocated span is carved out as live.
        self.freed.resize(words, !0u64);
        for (w, mask) in span_words(start, new_len) {
            self.freed[w] &= !mask;
        }
        let run = Run {
            start: start as u32,
            generation: self.current_gen,
            segment,
        };
        if self.runs.last().is_none_or(|last| !last.same_tag(&run)) {
            self.runs.push(run);
        }
        self.len = new_len;
        self.local_pages += u64::from(count);
        self.local_by_segment[segment.index()] += u64::from(count);
        self.total_allocated += u64::from(count);
        self.gen_live[self.current_gen as usize] += u64::from(count);
        PageRange::new(PageId(start as u32), count)
    }

    /// Resets a previously freed execution range to freshly allocated
    /// state, exactly as `PageMeta::new` would.
    fn recycle(&mut self, range: PageRange) {
        let (start, end) = self.range_bounds(range).expect("recycled range non-empty");
        let gen = self.current_gen as usize;
        for (w, mask) in span_words(start, end) {
            debug_assert_eq!(self.freed[w] & mask, mask, "recycled pages must be freed");
            self.freed[w] &= !mask;
            self.accessed[w] &= !mask;
            self.recently_faulted[w] &= !mask;
            self.remote[w] &= !mask;
            self.hot_pool[w] &= !mask;
        }
        self.paint(start, end, Segment::Execution, self.current_gen);
        // Counters past the column's end are already 0 (see `idle_scans`).
        let idle_end = end.min(self.idle_scans.len());
        if let Some(idle) = self.idle_scans.get_mut(start..idle_end) {
            idle.fill(0);
        }
        self.freed_pages -= u64::from(range.len());
        self.local_pages += u64::from(range.len());
        self.local_by_segment[Segment::Execution.index()] += u64::from(range.len());
        self.total_reused += u64::from(range.len());
        self.gen_live[gen] += u64::from(range.len());
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

    /// Metadata for one page, reassembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub fn meta(&self, id: PageId) -> PageMeta {
        self.assert_allocated(id);
        let i = id.index();
        self.meta_in(i, self.run_at(i))
    }

    /// The metadata of page `i`, whose run is `run`.
    fn meta_in(&self, i: usize, run: Run) -> PageMeta {
        let (w, b) = word_bit(i);
        let state = if self.freed[w] & b != 0 {
            PageState::Freed
        } else if self.remote[w] & b != 0 {
            PageState::Remote
        } else {
            PageState::Local
        };
        PageMeta::from_parts(
            state,
            run.segment,
            self.accessed[w] & b != 0,
            self.hot_pool[w] & b != 0,
            self.recently_faulted[w] & b != 0,
            self.idle_scans.get(i).copied().unwrap_or(0),
            run.generation,
        )
    }

    /// Touches one page: sets its Access bit. Returns `true` if the page
    /// was remote and got faulted back in.
    ///
    /// Freed pages are ignored (returns `false`).
    pub fn touch(&mut self, id: PageId) -> bool {
        self.assert_allocated(id);
        let i = id.index();
        let (w, b) = word_bit(i);
        if self.freed[w] & b != 0 {
            return false;
        }
        self.accessed[w] |= b;
        if self.remote[w] & b != 0 {
            self.remote[w] &= !b;
            self.recently_faulted[w] |= b;
            self.remote_pages -= 1;
            self.local_pages += 1;
            self.local_by_segment[self.run_at(i).segment.index()] += 1;
            self.hot_local_pages += u64::from(self.hot_pool[w] & b != 0);
            self.total_faulted += 1;
            true
        } else {
            false
        }
    }

    /// Touches every page of a range.
    pub fn touch_range(&mut self, range: PageRange) -> TouchOutcome {
        self.touch_prefix_runs(range.start(), range.len(), &[])
    }

    /// Touches the pages `base + i` for every `i` in the prefix
    /// `[0, prefix)` and in each `[start, end)` of `runs` — the shape of
    /// one segment of a planned request; `runs` ascend above the prefix.
    /// Sets the Access bit of every live page word by word, faults
    /// remote ones back in, and emits one demand page-in trace event for
    /// the whole call if anything faulted.
    ///
    /// # Panics
    ///
    /// Panics if a touched page was never allocated.
    pub fn touch_prefix_runs(
        &mut self,
        base: PageId,
        prefix: u32,
        runs: &[(u32, u32)],
    ) -> TouchOutcome {
        let mut out = TouchOutcome::default();
        let mut cursor = RunCursor::at(&self.runs, base.index());
        for (start, end) in std::iter::once((0, prefix)).chain(runs.iter().copied()) {
            let run = PageRange::new(PageId(base.0 + start), end - start);
            let Some((start, end)) = self.range_bounds(run) else {
                continue;
            };
            for (w, mask) in span_words(start, end) {
                let live = mask & !self.freed[w];
                if live == 0 {
                    continue;
                }
                out.touched += live.count_ones();
                self.accessed[w] |= live;
                let faulted = live & self.remote[w];
                if faulted != 0 {
                    out.faulted += faulted.count_ones();
                    self.remote[w] &= !faulted;
                    self.recently_faulted[w] |= faulted;
                    let n = u64::from(faulted.count_ones());
                    self.remote_pages -= n;
                    self.local_pages += n;
                    self.hot_local_pages += u64::from((faulted & self.hot_pool[w]).count_ones());
                    self.total_faulted += n;
                    self.add_local_by_segment(&mut cursor, w, faulted);
                }
            }
        }
        self.trace_demand_faults(out.faulted);
        out
    }

    fn trace_demand_faults(&self, faulted: u32) {
        if faulted > 0 && self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::MemPageIn {
                    pages: u64::from(faulted),
                    demand: true,
                },
            );
        }
    }

    /// Brings one remote page back to local DRAM *without* marking it
    /// accessed — the prefetch path (Leap-style prefetchers pull pages
    /// ahead of demand, so no Access bit flips and no fault is counted).
    /// Returns `true` if the page was remote.
    pub fn prefetch(&mut self, id: PageId) -> bool {
        self.assert_allocated(id);
        let i = id.index();
        let (w, b) = word_bit(i);
        if self.remote[w] & b == 0 {
            return false;
        }
        self.remote[w] &= !b;
        self.remote_pages -= 1;
        self.local_pages += 1;
        self.local_by_segment[self.run_at(i).segment.index()] += 1;
        self.hot_local_pages += u64::from(self.hot_pool[w] & b != 0);
        self.total_prefetched += 1;
        true
    }

    /// Prefetches the given pages; returns how many moved.
    pub fn prefetch_pages<I: IntoIterator<Item = PageId>>(&mut self, ids: I) -> u32 {
        let moved = ids.into_iter().filter(|&id| self.prefetch(id)).count() as u32;
        self.trace_page_in(moved);
        moved
    }

    /// Brings every remote page in `range` back to local DRAM without
    /// marking it accessed — the bulk prefetch path. Returns how many
    /// pages moved.
    pub fn page_in_range(&mut self, range: PageRange) -> u32 {
        let mut moved = 0u32;
        if let Some((start, end)) = self.range_bounds(range) {
            let mut cursor = RunCursor::at(&self.runs, start);
            for (w, mask) in span_words(start, end) {
                // Remote bits are a subset of live bits, so the mask
                // alone selects exactly the movable pages.
                let movable = mask & self.remote[w];
                if movable == 0 {
                    continue;
                }
                moved += movable.count_ones();
                self.remote[w] &= !movable;
                self.hot_local_pages += u64::from((movable & self.hot_pool[w]).count_ones());
                self.add_local_by_segment(&mut cursor, w, movable);
            }
        }
        self.remote_pages -= u64::from(moved);
        self.local_pages += u64::from(moved);
        self.total_prefetched += u64::from(moved);
        self.trace_page_in(moved);
        moved
    }

    fn trace_page_in(&self, moved: u32) {
        if moved > 0 && self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::MemPageIn {
                    pages: u64::from(moved),
                    demand: false,
                },
            );
        }
    }

    /// Moves one local page to the remote pool. Returns `true` if the page
    /// was local (and is now remote); remote and freed pages are no-ops.
    pub fn offload(&mut self, id: PageId) -> bool {
        self.assert_allocated(id);
        let i = id.index();
        let (w, b) = word_bit(i);
        if (self.freed[w] | self.remote[w]) & b != 0 {
            return false;
        }
        self.remote[w] |= b;
        self.local_pages -= 1;
        self.local_by_segment[self.run_at(i).segment.index()] -= 1;
        self.remote_pages += 1;
        self.hot_local_pages -= u64::from(self.hot_pool[w] & b != 0);
        self.total_offloaded += 1;
        true
    }

    /// Offloads every local page in `range`; returns how many moved.
    pub fn offload_range(&mut self, range: PageRange) -> u32 {
        let mut moved = 0u32;
        if let Some((start, end)) = self.range_bounds(range) {
            let mut cursor = RunCursor::at(&self.runs, start);
            for (w, mask) in span_words(start, end) {
                let movable = mask & !self.freed[w] & !self.remote[w];
                if movable == 0 {
                    continue;
                }
                moved += movable.count_ones();
                self.remote[w] |= movable;
                self.hot_local_pages -= u64::from((movable & self.hot_pool[w]).count_ones());
                self.remove_local_by_segment(&mut cursor, w, movable);
            }
        }
        self.local_pages -= u64::from(moved);
        self.remote_pages += u64::from(moved);
        self.total_offloaded += u64::from(moved);
        self.trace_offload(moved);
        moved
    }

    /// Offloads the given pages; returns how many moved.
    pub fn offload_pages<I: IntoIterator<Item = PageId>>(&mut self, ids: I) -> u32 {
        let moved = ids.into_iter().filter(|&id| self.offload(id)).count() as u32;
        self.trace_offload(moved);
        moved
    }

    fn trace_offload(&self, moved: u32) {
        if moved > 0 && self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::MemOffload {
                    pages: u64::from(moved),
                },
            );
        }
    }

    /// Frees a range (execution pages after a request). Local and remote
    /// pages both transition to [`PageState::Freed`]; the range becomes
    /// available for execution-segment reuse.
    pub fn free_range(&mut self, range: PageRange) {
        let Some((start, end)) = self.range_bounds(range) else {
            return;
        };
        let mut cursor = RunCursor::at(&self.runs, start);
        for (w, mask) in span_words(start, end) {
            let live = mask & !self.freed[w];
            if live != 0 {
                let remote = live & self.remote[w];
                let (gen_live, local) = (&mut self.gen_live, &mut self.local_by_segment);
                cursor.each_in_word(&self.runs, w, |run, mask| {
                    let freed = live & mask;
                    gen_live[run.generation as usize] -= u64::from(freed.count_ones());
                    local[run.segment.index()] -= u64::from((freed & !remote).count_ones());
                });
                let n = u64::from(live.count_ones());
                let nr = u64::from(remote.count_ones());
                self.freed_pages += n;
                self.remote_pages -= nr;
                self.local_pages -= n - nr;
                self.total_freed_local += n - nr;
                self.total_freed_remote += nr;
                self.hot_local_pages -= u64::from((live & self.hot_pool[w] & !remote).count_ones());
                self.freed[w] |= live;
                // The recently-faulted flag deliberately survives a free
                // (scans consume it; recycling resets it).
                self.remote[w] &= !live;
                self.accessed[w] &= !live;
                self.hot_pool[w] &= !live;
            }
        }
        self.free_exec.push(range);
    }

    /// Scans the Access bits over all live pages, clears them, and returns
    /// the ids of pages that were accessed since the previous scan.
    ///
    /// This is the MGLRU aging walk the paper's mechanisms (and the DAMON
    /// baseline) sample from. The per-page "recently faulted" flag is
    /// consumed (cleared) by the scan as well.
    pub fn scan_accessed(&mut self) -> Vec<PageId> {
        let mut out = Vec::new();
        self.scan_accessed_into(&mut out);
        out
    }

    /// Allocation-free variant of [`PageTable::scan_accessed`]: clears
    /// `out` and fills it with the accessed ids in ascending order.
    pub fn scan_accessed_into(&mut self, out: &mut Vec<PageId>) {
        out.clear();
        for w in 0..self.words() {
            let live = !self.freed[w];
            if live == 0 {
                continue;
            }
            let hits = self.accessed[w] & live;
            if hits != 0 {
                let mut bits = hits;
                while bits != 0 {
                    out.push(PageId(((w << 6) | bits.trailing_zeros() as usize) as u32));
                    bits &= bits - 1;
                }
                self.accessed[w] &= !hits;
            }
            self.recently_faulted[w] &= !live;
        }
        self.trace_scan(out.len() as u64);
    }

    /// The fused hot-pool promotion scan (paper §5): an Access-bit scan
    /// that promotes revisited Runtime- and Init-Pucket pages into the
    /// hot page pool in the same word-wise pass.
    ///
    /// Pucket membership is a generation interval: pages with generation
    /// `< runtime_end` are Runtime, `runtime_end..init_end` are Init, and
    /// the rest (Execution) are never promoted. For every live accessed
    /// page the Access bit is cleared; a page not yet in the hot pool and
    /// below `init_end` gets the hot-pool flag, and counts as *recalled*
    /// when it faulted back from remote memory since the previous scan.
    /// The recently-faulted flag of every live page is consumed, exactly
    /// as [`PageTable::scan_accessed`] does, and the emitted trace event
    /// carries the same hit count.
    pub fn promote_accessed(&mut self, runtime_end: u32, init_end: u32) -> PromoteSummary {
        debug_assert!(runtime_end <= init_end, "Pucket bounds out of order");
        let mut cursor = RunCursor::default();
        let mut summary = PromoteSummary::default();
        let mut hits_total = 0u64;
        for w in 0..self.words() {
            let live = !self.freed[w];
            if live == 0 {
                continue;
            }
            let hits = self.accessed[w] & live;
            if hits != 0 {
                hits_total += u64::from(hits.count_ones());
                self.accessed[w] &= !hits;
                let fresh = hits & !self.hot_pool[w];
                if fresh != 0 {
                    let faulted = self.recently_faulted[w];
                    let (mut runtime_hits, mut init_hits) = (0, 0);
                    cursor.each_in_word(&self.runs, w, |run, mask| {
                        if run.generation < runtime_end {
                            runtime_hits |= fresh & mask;
                        } else if run.generation < init_end {
                            init_hits |= fresh & mask;
                        }
                    });
                    summary.runtime_promoted += runtime_hits.count_ones();
                    summary.runtime_recalled += (runtime_hits & faulted).count_ones();
                    summary.init_promoted += init_hits.count_ones();
                    summary.init_recalled += (init_hits & faulted).count_ones();
                    let promoted = runtime_hits | init_hits;
                    self.hot_pool[w] |= promoted;
                    self.hot_local_pages += u64::from((promoted & !self.remote[w]).count_ones());
                }
            }
            self.recently_faulted[w] &= !live;
        }
        self.trace_scan(hits_total);
        summary
    }

    /// Clears all Access bits (and recently-faulted flags) without
    /// collecting the accessed ids — for callers that only want to reset
    /// scan state. Observably identical to [`PageTable::scan_accessed`]
    /// with the returned ids discarded (including the emitted trace
    /// event); returns how many live pages had their Access bit set.
    pub fn clear_accessed(&mut self) -> u64 {
        let mut hits = 0u64;
        for w in 0..self.words() {
            let live = !self.freed[w];
            if live == 0 {
                continue;
            }
            hits += u64::from((self.accessed[w] & live).count_ones());
            self.accessed[w] &= !live;
            self.recently_faulted[w] &= !live;
        }
        self.trace_scan(hits);
        hits
    }

    fn trace_scan(&self, accessed: u64) {
        if self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::AccessScan {
                    live: self.local_pages + self.remote_pages,
                    accessed,
                },
            );
        }
    }

    /// Performs one DAMON-style aging scan: pages accessed since the last
    /// scan get their idle counter reset (and Access bit cleared); pages
    /// untouched get it incremented. Returns the ids of *local* pages
    /// whose idle count has reached `idle_threshold` — the cold-region
    /// candidates a sampling policy would offload.
    pub fn age_and_collect_idle(&mut self, idle_threshold: u8) -> Vec<PageId> {
        let mut out = Vec::new();
        self.age_and_collect_idle_into(idle_threshold, usize::MAX, &mut out);
        out
    }

    /// Allocation-free, bounded variant of
    /// [`PageTable::age_and_collect_idle`]: ages every live page exactly
    /// as the unbounded scan does, but collects at most `limit` cold
    /// local ids — the ascending prefix of the unbounded list — after
    /// clearing `out`. A policy that offloads a budget of pages per
    /// tick passes that budget, so collection work scales with what it
    /// moves; the emitted trace event counts the ids collected.
    pub fn age_and_collect_idle_into(
        &mut self,
        idle_threshold: u8,
        limit: usize,
        out: &mut Vec<PageId>,
    ) {
        out.clear();
        self.size_idle_column();
        for w in 0..self.words() {
            let live = !self.freed[w];
            if live == 0 {
                continue;
            }
            let hot = self.accessed[w] & live;
            if hot != 0 {
                self.accessed[w] &= !hot;
                let mut bits = hot;
                while bits != 0 {
                    let i = (w << 6) | bits.trailing_zeros() as usize;
                    self.idle_scans[i] = 0;
                    bits &= bits - 1;
                }
            }
            // Cold candidates stay ascending: hot pages never collect, so
            // walking the idle subset in bit order preserves the global
            // per-page order of the naive walk.
            let mut idle = live & !hot;
            while idle != 0 {
                let t = idle.trailing_zeros() as usize;
                let i = (w << 6) | t;
                let scans = self.idle_scans[i].saturating_add(1);
                self.idle_scans[i] = scans;
                if scans >= idle_threshold && self.remote[w] & (1u64 << t) == 0 && out.len() < limit
                {
                    out.push(PageId(i as u32));
                }
                idle &= idle - 1;
            }
        }
        self.trace_aging(idle_threshold, out.len() as u64);
    }

    /// Sizes the idle-scan counters to `len`: allocated on the first
    /// aging scan, then extended with zeroed counters for the pages
    /// allocated since the previous one.
    fn size_idle_column(&mut self) {
        if self.idle_scans.len() < self.len {
            self.idle_scans.resize(self.len, 0);
        }
    }

    fn trace_aging(&self, threshold: u8, collected: u64) {
        if self.tracer.wants(TraceLayer::Memory) {
            self.tracer.emit(
                self.owner,
                None,
                EventKind::GenerationAge {
                    threshold: u64::from(threshold),
                    collected,
                },
            );
        }
    }

    /// A hardware-sampled variant of [`PageTable::age_and_collect_idle`]
    /// (paper §9: PEBS-style samplers reduce cold-page identification
    /// overhead). Instead of reading every Access bit, each accessed page
    /// is *observed* only with probability `sample_prob`; unobserved
    /// accesses are invisible, so hot pages can be misclassified as cold
    /// — the accuracy/overhead trade-off hardware sampling makes.
    ///
    /// `coin` supplies the per-page sampling randomness (a closure so the
    /// table stays RNG-agnostic).
    ///
    /// # Panics
    ///
    /// Panics if `sample_prob` is not in `(0, 1]`.
    pub fn age_and_collect_idle_sampled<F: FnMut() -> f64>(
        &mut self,
        idle_threshold: u8,
        sample_prob: f64,
        coin: F,
    ) -> Vec<PageId> {
        let mut out = Vec::new();
        self.age_and_collect_idle_sampled_into(idle_threshold, sample_prob, coin, &mut out);
        out
    }

    /// Allocation-free variant of
    /// [`PageTable::age_and_collect_idle_sampled`]. The coin is flipped
    /// once per *accessed* live page, in ascending page order — the same
    /// draw sequence as the naive per-page walk, so seeded runs are
    /// reproducible across layouts.
    ///
    /// # Panics
    ///
    /// Panics if `sample_prob` is not in `(0, 1]`.
    pub fn age_and_collect_idle_sampled_into<F: FnMut() -> f64>(
        &mut self,
        idle_threshold: u8,
        sample_prob: f64,
        mut coin: F,
        out: &mut Vec<PageId>,
    ) {
        assert!(
            sample_prob > 0.0 && sample_prob <= 1.0,
            "sample probability {sample_prob} out of range"
        );
        out.clear();
        self.size_idle_column();
        for w in 0..self.words() {
            let live = !self.freed[w];
            if live == 0 {
                continue;
            }
            let accessed = self.accessed[w] & live;
            let mut bits = live;
            while bits != 0 {
                let t = bits.trailing_zeros() as usize;
                let i = (w << 6) | t;
                let observed = accessed >> t & 1 != 0 && coin() < sample_prob;
                if observed {
                    self.idle_scans[i] = 0;
                } else {
                    let scans = self.idle_scans[i].saturating_add(1);
                    self.idle_scans[i] = scans;
                    if scans >= idle_threshold && self.remote[w] & (1u64 << t) == 0 {
                        out.push(PageId(i as u32));
                    }
                }
                bits &= bits - 1;
            }
            self.accessed[w] &= !accessed;
        }
        self.trace_aging(idle_threshold, out.len() as u64);
    }

    /// Collects ids of live pages matching a predicate over their metadata.
    pub fn collect_ids<F: Fn(PageId, PageMeta) -> bool>(&self, pred: F) -> Vec<PageId> {
        let mut out = Vec::new();
        self.collect_ids_into(pred, &mut out);
        out
    }

    /// Allocation-free variant of [`PageTable::collect_ids`]: clears
    /// `out` and fills it in ascending order.
    pub fn collect_ids_into<F: Fn(PageId, PageMeta) -> bool>(
        &self,
        pred: F,
        out: &mut Vec<PageId>,
    ) {
        out.clear();
        let mut cursor = RunCursor::default();
        for w in 0..self.words() {
            let mut bits = !self.freed[w];
            while bits != 0 {
                let i = (w << 6) | bits.trailing_zeros() as usize;
                let id = PageId(i as u32);
                if pred(id, self.meta_in(i, cursor.run_of(&self.runs, i))) {
                    out.push(id);
                }
                bits &= bits - 1;
            }
        }
    }

    /// Appends the ids of live *local* pages to `out` (no clear),
    /// ascending, at most `limit` of them — the residency sweep
    /// semi-warm reclamation uses when Puckets are off.
    pub fn append_local(&self, limit: usize, out: &mut Vec<PageId>) {
        append_bits(
            out,
            limit,
            (0..self.words()).map(|w| (w, !self.freed[w] & !self.remote[w])),
        );
    }

    /// Appends the ids of live local pages inside `range` to `out` (no
    /// clear) — the region-granular collection DAMON's region monitor
    /// performs.
    pub fn append_local_in_range(&self, range: PageRange, out: &mut Vec<PageId>) {
        let Some((start, end)) = self.range_bounds(range) else {
            return;
        };
        append_bits(
            out,
            usize::MAX,
            span_words(start, end).map(|(w, mask)| (w, mask & !self.freed[w] & !self.remote[w])),
        );
    }

    /// The words of every run whose generation lies in `[gen_lo,
    /// gen_hi)`, ascending, each with the mask of its inactive pages —
    /// live, local, outside the hot pool — in that run. A word two runs
    /// share comes once per run, with disjoint masks in page order.
    fn inactive_in_gen_range(
        &self,
        gen_lo: u32,
        gen_hi: u32,
    ) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.runs.len())
            .filter(move |&k| (gen_lo..gen_hi).contains(&self.runs[k].generation))
            .flat_map(move |k| span_words(self.runs[k].start as usize, self.run_end(k)))
            .map(|(w, mask)| {
                (
                    w,
                    mask & !self.freed[w] & !self.remote[w] & !self.hot_pool[w],
                )
            })
    }

    /// Appends the ids of *inactive* pages — live, local, outside the hot
    /// pool — whose generation lies in `[gen_lo, gen_hi)`, in ascending
    /// order (no clear), at most `limit` of them. This is a Pucket's
    /// inactive list expressed as a generation interval; `gen_hi ==
    /// u32::MAX` leaves it open above. Only the words of the interval's
    /// runs are read.
    pub fn append_inactive_in_gen_range(
        &self,
        gen_lo: u32,
        gen_hi: u32,
        limit: usize,
        out: &mut Vec<PageId>,
    ) {
        append_bits(out, limit, self.inactive_in_gen_range(gen_lo, gen_hi));
    }

    /// Counts what [`PageTable::append_inactive_in_gen_range`] would
    /// append without a limit, without materialising the ids.
    pub fn count_inactive_in_gen_range(&self, gen_lo: u32, gen_hi: u32) -> u64 {
        self.inactive_in_gen_range(gen_lo, gen_hi)
            .map(|(_, bits)| u64::from(bits.count_ones()))
            .sum()
    }

    /// Appends the ids of live *local* hot-pool pages to `out` (no
    /// clear), ascending, at most `limit` of them. Remote pages keep
    /// their hot-pool flag (it is what marks them for recall prefetch)
    /// but are not reported here.
    pub fn append_hot_pool_local(&self, limit: usize, out: &mut Vec<PageId>) {
        append_bits(
            out,
            limit,
            (0..self.words()).map(|w| (w, self.hot_pool[w] & !self.freed[w] & !self.remote[w])),
        );
    }

    /// Appends the ids of remote hot-pool pages to `out` (no clear),
    /// ascending — the set recall prefetch restores when a semi-warm
    /// container is hit.
    pub fn append_hot_pool_remote(&self, out: &mut Vec<PageId>) {
        append_bits(
            out,
            usize::MAX,
            (0..self.words()).map(|w| (w, self.hot_pool[w] & self.remote[w] & !self.freed[w])),
        );
    }

    /// Clears hot-pool membership on every live *local* page (the §5.3
    /// rollback). Remote pages keep the flag so recall prefetch can still
    /// find them. Returns how many pages were rolled back.
    pub fn clear_local_hot_pool(&mut self) -> u32 {
        let mut cleared = 0u32;
        for w in 0..self.words() {
            let local_hot = self.hot_pool[w] & !self.freed[w] & !self.remote[w];
            if local_hot != 0 {
                cleared += local_hot.count_ones();
                self.hot_pool[w] &= !local_hot;
            }
        }
        self.hot_local_pages -= u64::from(cleared);
        cleared
    }

    /// Iterates over `(id, meta)` for every live (non-freed) page.
    pub fn iter_live(&self) -> impl Iterator<Item = (PageId, PageMeta)> + '_ {
        let mut cursor = RunCursor::default();
        (0..self.len).filter_map(move |i| {
            let (w, b) = word_bit(i);
            let run = cursor.run_of(&self.runs, i);
            (self.freed[w] & b == 0).then(|| (PageId(i as u32), self.meta_in(i, run)))
        })
    }

    /// Histogram of live-page ages in generations over `N` buckets:
    /// bucket `i` counts pages whose generation lags the table's current
    /// generation by exactly `i`, with everything older collapsed into
    /// the last bucket. Feeds the `mem.gen_age_*` telemetry series; an
    /// empty table yields all-zero buckets. Served from incrementally
    /// maintained per-generation live counts, so the cost scales with
    /// the number of generations, not the number of pages, and the
    /// result is a stack array — sampling allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `N` is zero.
    pub fn generation_age_histogram<const N: usize>(&self) -> [u64; N] {
        assert!(N > 0, "histogram needs at least one bucket");
        let mut hist = [0u64; N];
        for (g, &n) in self.gen_live.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let age = self.current_gen.saturating_sub(g as u32) as usize;
            hist[age.min(N - 1)] += n;
        }
        hist
    }

    /// Marks hot-page-pool membership for one page.
    pub fn set_in_hot_pool(&mut self, id: PageId, on: bool) {
        self.assert_allocated(id);
        let (w, b) = word_bit(id.index());
        let was = self.hot_pool[w] & b != 0;
        if was == on {
            return;
        }
        if on {
            self.hot_pool[w] |= b;
        } else {
            self.hot_pool[w] &= !b;
        }
        if (self.freed[w] | self.remote[w]) & b == 0 {
            if on {
                self.hot_local_pages += 1;
            } else {
                self.hot_local_pages -= 1;
            }
        }
    }

    /// Moves a page to another generation, freed pages included (a
    /// freed page's generation is what [`PageTable::meta`] reports until
    /// it is recycled). No policy moves pages between generations — the
    /// §5.3 rollback clears hot-pool flags instead — so only tests call
    /// this, to put pages in arbitrary generations.
    pub fn set_generation(&mut self, id: PageId, generation: Generation) {
        self.assert_allocated(id);
        let i = id.index();
        let run = self.run_at(i);
        let (old, new) = (run.generation as usize, generation.0 as usize);
        if old != new {
            self.ensure_generation(new);
            self.paint(i, i + 1, run.segment, generation.0);
            let (w, b) = word_bit(i);
            if self.freed[w] & b == 0 {
                self.gen_live[old] -= 1;
                self.gen_live[new] += 1;
            }
        }
    }

    /// Pages currently resident in local DRAM.
    pub fn local_pages(&self) -> u64 {
        self.local_pages
    }

    /// Pages currently swapped out to the remote pool.
    pub fn remote_pages(&self) -> u64 {
        self.remote_pages
    }

    /// Pages in the freed state awaiting execution-segment reuse.
    pub fn freed_pages(&self) -> u64 {
        self.freed_pages
    }

    /// Local pages belonging to `segment`.
    pub fn local_pages_in(&self, segment: Segment) -> u64 {
        self.local_by_segment[segment.index()]
    }

    /// Local memory footprint in bytes.
    pub fn local_bytes(&self) -> u64 {
        self.local_pages * self.page_size
    }

    /// Remote memory footprint in bytes.
    pub fn remote_bytes(&self) -> u64 {
        self.remote_pages * self.page_size
    }

    /// Lifetime count of pages offloaded to the pool.
    pub fn total_offloaded(&self) -> u64 {
        self.total_offloaded
    }

    /// Lifetime count of remote pages faulted back in.
    pub fn total_faulted(&self) -> u64 {
        self.total_faulted
    }

    /// Live local pages currently flagged hot-pool, in O(1) — the
    /// occupancy-accounting view of the hot pool (the `LocalHotPool`
    /// waste component charges these bytes).
    pub fn hot_local_pages(&self) -> u64 {
        self.hot_local_pages
    }

    /// The table's lifetime page-lifecycle edge counts: one increment
    /// per residency transition, so each flow row conserves against
    /// the current resident counts (see [`crate::flow::FlowMatrix`]).
    pub fn flows(&self) -> PageFlows {
        PageFlows {
            allocated: self.total_allocated,
            reused: self.total_reused,
            offloaded: self.total_offloaded,
            recalled_demand: self.total_faulted,
            recalled_prefetch: self.total_prefetched,
            freed_local: self.total_freed_local,
            freed_remote: self.total_freed_remote,
        }
    }

    /// A cgroup-style accounting snapshot.
    pub fn stats(&self) -> MemStats {
        MemStats {
            local_bytes: self.local_bytes(),
            remote_bytes: self.remote_bytes(),
            local_pages: self.local_pages,
            remote_pages: self.remote_pages,
            total_offloaded: self.total_offloaded,
            total_faulted: self.total_faulted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE_4K;

    fn table() -> PageTable {
        PageTable::new(PAGE_SIZE_4K)
    }

    #[test]
    fn alloc_tags_segment_and_generation() {
        let mut t = table();
        let r = t.alloc(Segment::Runtime, 10);
        assert_eq!(r.len(), 10);
        for id in r.iter() {
            let m = t.meta(id);
            assert_eq!(m.segment(), Segment::Runtime);
            assert_eq!(m.generation(), 0);
            assert_eq!(m.state(), PageState::Local);
        }
        let g = t.create_generation();
        assert_eq!(g, Generation(1));
        let r2 = t.alloc(Segment::Init, 5);
        assert_eq!(t.meta(r2.start()).generation(), 1);
    }

    #[test]
    fn generation_age_histogram_buckets_by_lag_and_clamps_tail() {
        let mut t = table();
        assert_eq!(t.generation_age_histogram::<3>(), [0, 0, 0]);
        t.alloc(Segment::Runtime, 4); // gen 0
        t.create_generation();
        t.alloc(Segment::Init, 2); // gen 1
        t.create_generation();
        t.alloc(Segment::Execution, 1); // gen 2 == current
                                        // Ages: exec=0, init=1, runtime=2.
        assert_eq!(t.generation_age_histogram::<3>(), [1, 2, 4]);
        // With two buckets the runtime pages collapse into the tail.
        assert_eq!(t.generation_age_histogram::<2>(), [1, 6]);
        // Another barrier shifts everything one bucket older.
        t.create_generation();
        assert_eq!(t.generation_age_histogram::<4>(), [0, 1, 2, 4]);
    }

    #[test]
    fn histogram_tracks_frees_recycling_and_reassignment() {
        let mut t = table();
        t.alloc(Segment::Runtime, 4); // gen 0
        t.create_generation();
        let e = t.alloc(Segment::Execution, 3); // gen 1
        assert_eq!(t.generation_age_histogram::<2>(), [3, 4]);
        // Freed pages leave the histogram.
        t.free_range(e);
        assert_eq!(t.generation_age_histogram::<2>(), [0, 4]);
        // Recycled pages re-enter at the current generation.
        t.create_generation();
        let e2 = t.alloc(Segment::Execution, 3);
        assert_eq!(e, e2, "recycled in place");
        assert_eq!(t.generation_age_histogram::<3>(), [3, 0, 4]);
        // Reassignment moves a live page between buckets...
        t.set_generation(PageId(0), t.current_generation());
        assert_eq!(t.generation_age_histogram::<3>(), [4, 0, 3]);
        // ...but a freed page only moves its plane bit, not the counts.
        t.free_range(e2);
        t.set_generation(e2.start(), Generation(0));
        assert_eq!(t.generation_age_histogram::<3>(), [1, 0, 3]);
    }

    #[test]
    fn alloc_zero_is_empty() {
        let mut t = table();
        assert!(t.alloc(Segment::Init, 0).is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn touch_sets_access_bit_and_faults_remote() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 4);
        assert_eq!(t.offload_range(r), 4);
        assert_eq!(t.remote_pages(), 4);
        let out = t.touch_range(r);
        assert_eq!(
            out,
            TouchOutcome {
                touched: 4,
                faulted: 4
            }
        );
        assert_eq!(t.remote_pages(), 0);
        assert_eq!(t.local_pages(), 4);
        // Second touch: no faults.
        let out = t.touch_range(r);
        assert_eq!(
            out,
            TouchOutcome {
                touched: 4,
                faulted: 0
            }
        );
        assert_eq!(t.total_faulted(), 4);
    }

    #[test]
    fn scan_accessed_clears_bits() {
        let mut t = table();
        let r = t.alloc(Segment::Runtime, 8);
        t.touch_range(r.take(3));
        let hits = t.scan_accessed();
        assert_eq!(hits.len(), 3);
        assert!(t.scan_accessed().is_empty());
    }

    #[test]
    fn scan_into_reuses_buffer_and_orders_ascending() {
        let mut t = table();
        let r = t.alloc(Segment::Runtime, 200);
        for id in [190, 3, 64, 65] {
            t.touch(PageId(id));
        }
        let mut buf = vec![PageId(999)]; // stale contents must be cleared
        t.scan_accessed_into(&mut buf);
        assert_eq!(buf, vec![PageId(3), PageId(64), PageId(65), PageId(190)]);
        t.touch_range(r.take(1));
        t.scan_accessed_into(&mut buf);
        assert_eq!(buf, vec![PageId(0)]);
    }

    #[test]
    fn clear_accessed_matches_discarded_scan() {
        let mk = || {
            let mut t = table();
            let r = t.alloc(Segment::Init, 100);
            t.offload_range(r.take(10));
            t.touch_range(r.take(30)); // 10 fault back, setting rf
            t
        };
        let mut scanned = mk();
        let mut cleared = mk();
        let hits = scanned.scan_accessed().len() as u64;
        assert_eq!(cleared.clear_accessed(), hits);
        for i in 0..100 {
            assert_eq!(
                scanned.meta(PageId(i)),
                cleared.meta(PageId(i)),
                "page {i} diverged"
            );
        }
        assert_eq!(cleared.clear_accessed(), 0);
    }

    #[test]
    fn page_in_range_matches_prefetch_pages() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 130);
        t.offload_range(r.take(70));
        t.free_range(r.skip(100)); // freed tail stays put
        assert_eq!(t.page_in_range(r), 70);
        assert_eq!(t.remote_pages(), 0);
        assert_eq!(t.local_pages(), 100);
        assert_eq!(t.total_faulted(), 0, "bulk page-in is not a fault");
        for id in r.take(100).iter() {
            assert_eq!(t.meta(id).state(), PageState::Local);
            assert!(!t.meta(id).accessed());
        }
        assert_eq!(t.page_in_range(r), 0, "idempotent");
    }

    #[test]
    fn prefetch_restores_without_access_or_fault() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 4);
        t.offload_range(r);
        t.scan_accessed(); // clear allocation bits
        assert_eq!(t.prefetch_pages(r.iter()), 4);
        assert_eq!(t.remote_pages(), 0);
        assert_eq!(t.local_pages(), 4);
        assert_eq!(t.total_faulted(), 0, "prefetch is not a fault");
        for id in r.iter() {
            assert!(!t.meta(id).accessed(), "prefetch leaves Access bits clear");
            assert!(!t.meta(id).recently_faulted());
        }
        // Prefetching local pages is a no-op.
        assert_eq!(t.prefetch_pages(r.iter()), 0);
    }

    #[test]
    fn offload_is_idempotent() {
        let mut t = table();
        let r = t.alloc(Segment::Runtime, 2);
        assert!(t.offload(r.start()));
        assert!(!t.offload(r.start()));
        assert_eq!(t.total_offloaded(), 1);
        assert_eq!(t.local_pages(), 1);
        assert_eq!(t.remote_pages(), 1);
    }

    #[test]
    fn free_releases_local_and_remote() {
        let mut t = table();
        let r = t.alloc(Segment::Execution, 6);
        t.offload_range(r.take(2));
        t.free_range(r);
        assert_eq!(t.local_pages(), 0);
        assert_eq!(t.remote_pages(), 0);
        assert_eq!(t.freed_pages(), 6);
        assert_eq!(t.local_bytes(), 0);
    }

    #[test]
    fn freed_exec_pages_are_recycled() {
        let mut t = table();
        let r1 = t.alloc(Segment::Execution, 100);
        t.free_range(r1);
        let r2 = t.alloc(Segment::Execution, 100);
        assert_eq!(r1, r2, "exact-fit reuse");
        assert_eq!(t.len(), 100, "no new slots created");
        assert_eq!(t.freed_pages(), 0);
        assert_eq!(t.local_pages(), 100);
    }

    #[test]
    fn partial_reuse_splits_range() {
        let mut t = table();
        let r1 = t.alloc(Segment::Execution, 10);
        t.free_range(r1);
        let r2 = t.alloc(Segment::Execution, 4);
        assert_eq!(r2.len(), 4);
        let r3 = t.alloc(Segment::Execution, 6);
        assert_eq!(r3.len(), 6);
        assert_eq!(t.len(), 10);
        assert!(!r2.contains(r3.start()));
    }

    #[test]
    fn recycled_pages_get_fresh_metadata() {
        let mut t = table();
        let r1 = t.alloc(Segment::Execution, 3);
        t.touch_range(r1);
        t.free_range(r1);
        t.create_generation();
        let r2 = t.alloc(Segment::Execution, 3);
        for id in r2.iter() {
            let m = t.meta(id);
            assert!(!m.accessed());
            assert_eq!(m.generation(), 1);
            assert_eq!(m.state(), PageState::Local);
        }
    }

    #[test]
    fn touch_freed_page_is_ignored() {
        let mut t = table();
        let r = t.alloc(Segment::Execution, 2);
        t.free_range(r);
        assert!(!t.touch(r.start()));
        let out = t.touch_range(r);
        assert_eq!(out, TouchOutcome::default());
    }

    #[test]
    fn per_segment_accounting() {
        let mut t = table();
        t.alloc(Segment::Runtime, 10);
        t.alloc(Segment::Init, 20);
        let e = t.alloc(Segment::Execution, 5);
        assert_eq!(t.local_pages_in(Segment::Runtime), 10);
        assert_eq!(t.local_pages_in(Segment::Init), 20);
        assert_eq!(t.local_pages_in(Segment::Execution), 5);
        t.free_range(e);
        assert_eq!(t.local_pages_in(Segment::Execution), 0);
        t.offload_range(PageRange::new(PageId(0), 4));
        assert_eq!(t.local_pages_in(Segment::Runtime), 6);
    }

    #[test]
    fn collect_ids_filters_live_pages() {
        let mut t = table();
        let run = t.alloc(Segment::Runtime, 3);
        t.create_generation();
        let init = t.alloc(Segment::Init, 3);
        t.touch(init.start());
        let runtime_ids = t.collect_ids(|_, m| m.segment() == Segment::Runtime);
        assert_eq!(runtime_ids.len(), 3);
        let accessed = t.collect_ids(|_, m| m.accessed());
        assert_eq!(accessed, vec![init.start()]);
        t.free_range(run);
        assert!(t
            .collect_ids(|_, m| m.segment() == Segment::Runtime)
            .is_empty());
    }

    #[test]
    fn append_queries_respect_residency_and_hot_pool() {
        let mut t = table();
        t.alloc(Segment::Runtime, 70); // gen 0
        t.create_generation();
        let init = t.alloc(Segment::Init, 70); // gen 1
        t.offload_range(PageRange::new(PageId(0), 3));
        t.set_in_hot_pool(PageId(65), true);
        t.set_in_hot_pool(init.start(), true);

        let mut out = Vec::new();
        t.append_local(usize::MAX, &mut out);
        assert_eq!(out.len(), 140 - 3);
        assert_eq!(out[0], PageId(3));

        out.clear();
        t.append_local_in_range(PageRange::new(PageId(0), 70), &mut out);
        assert_eq!(out.len(), 67);

        // Runtime pucket = generations [0, 1): live local non-hot.
        out.clear();
        t.append_inactive_in_gen_range(0, 1, usize::MAX, &mut out);
        assert_eq!(out.len(), 70 - 3 - 1);
        assert!(!out.contains(&PageId(65)));
        assert_eq!(t.count_inactive_in_gen_range(0, 1), 66);
        assert_eq!(t.count_inactive_in_gen_range(1, u32::MAX), 69);

        out.clear();
        t.append_hot_pool_local(usize::MAX, &mut out);
        assert_eq!(out, vec![PageId(65), init.start()]);

        // An offloaded hot page keeps its flag but stops being reported
        // as local, and rollback leaves it flagged for recall.
        t.offload(PageId(65));
        out.clear();
        t.append_hot_pool_local(usize::MAX, &mut out);
        assert_eq!(out, vec![init.start()]);
        assert_eq!(t.clear_local_hot_pool(), 1);
        assert!(t.meta(PageId(65)).in_hot_pool());
        assert!(!t.meta(init.start()).in_hot_pool());
    }

    #[test]
    fn aging_scan_accumulates_idleness() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 4);
        t.touch_range(r.take(1)); // page 0 hot, pages 1-3 idle
        assert!(
            t.age_and_collect_idle(2).is_empty(),
            "first scan: idle=1 < 2"
        );
        let cold = t.age_and_collect_idle(2);
        assert_eq!(cold.len(), 3, "second scan: pages 1-3 reach idle=2");
        assert!(!cold.contains(&r.start()));
        // Touching a cold page resets its idle counter; page 0 (untouched
        // since the first scan) now crosses the threshold too.
        t.touch(PageId(1));
        let cold = t.age_and_collect_idle(2);
        assert_eq!(cold.len(), 3);
        assert!(!cold.contains(&PageId(1)));
    }

    #[test]
    fn aging_scan_skips_remote_and_freed() {
        let mut t = table();
        let r = t.alloc(Segment::Execution, 3);
        t.offload(r.start());
        let cold = t.age_and_collect_idle(1);
        assert_eq!(cold.len(), 2, "remote page excluded");
        t.free_range(r);
        assert!(t.age_and_collect_idle(1).is_empty());
    }

    #[test]
    fn sampled_aging_with_full_probability_matches_exact() {
        let mk = || {
            let mut t = table();
            let r = t.alloc(Segment::Init, 8);
            t.touch_range(r.take(3));
            t
        };
        let mut exact = mk();
        let mut sampled = mk();
        let a = exact.age_and_collect_idle(1);
        let b = sampled.age_and_collect_idle_sampled(1, 1.0, || 0.5);
        assert_eq!(a, b, "p=1.0 sampling is exact");
    }

    #[test]
    fn sampled_aging_misses_accesses_at_low_probability() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 100);
        t.touch_range(r); // everything hot
                          // Probability ~0: every access goes unobserved, so the whole hot
                          // set looks idle — the misclassification hazard of sampling.
        let cold = t.age_and_collect_idle_sampled(1, 1e-9, || 0.5);
        assert_eq!(cold.len(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sampled_aging_rejects_bad_probability() {
        let mut t = table();
        t.alloc(Segment::Init, 1);
        let _ = t.age_and_collect_idle_sampled(1, 0.0, || 0.5);
    }

    #[test]
    fn sampled_aging_draws_one_coin_per_accessed_page() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 100);
        t.free_range(PageRange::new(PageId(90), 10));
        t.touch_range(r.take(40));
        let mut draws = 0u32;
        t.age_and_collect_idle_sampled(1, 0.5, || {
            draws += 1;
            0.9
        });
        assert_eq!(draws, 40, "idle and freed pages flip no coin");
    }

    #[test]
    fn stats_snapshot_consistent() {
        let mut t = table();
        let r = t.alloc(Segment::Init, 8);
        t.offload_range(r.take(3));
        let s = t.stats();
        assert_eq!(s.local_pages, 5);
        assert_eq!(s.remote_pages, 3);
        assert_eq!(s.local_bytes, 5 * PAGE_SIZE_4K);
        assert_eq!(s.remote_bytes, 3 * PAGE_SIZE_4K);
        assert_eq!(s.total_offloaded, 3);
        assert_eq!(s.resident_bytes(), 8 * PAGE_SIZE_4K);
    }

    /// Heap bytes a table of `words` bitmap words holds once it has
    /// run a container lifecycle: five flag bitmaps, plus the run list,
    /// live counts and free-range list `with_capacity` reserves.
    fn lifecycle_bytes(words: usize) -> usize {
        use std::mem::size_of;
        5 * words * size_of::<u64>()
            + LIFECYCLE_GENERATIONS * (size_of::<Run>() + size_of::<u64>())
            + size_of::<PageRange>()
    }

    /// Runs a container lifecycle at 64 KiB pages — 100 MiB runtime,
    /// 32 MiB init and `requests` requests of 20 MiB execution, each
    /// recycling the last one's range — with a time barrier before the
    /// init and the execution pages when `barriers` is set. 2432 pages
    /// are whole bitmap words, so the size carries no rounding slack.
    fn lifecycle_table(barriers: bool, requests: u32) -> (PageTable, PageRange) {
        let (runtime, init, exec) = (1600u32, 512u32, 320u32);
        let pages = (runtime + init + exec) as usize;
        let mut t = PageTable::with_capacity(64 * 1024, pages);
        t.alloc(Segment::Runtime, runtime);
        if barriers {
            t.create_generation();
        }
        t.alloc(Segment::Init, init);
        if barriers {
            t.create_generation();
        }
        let e = t.alloc(Segment::Execution, exec);
        for _ in 1..requests {
            t.touch_range(e);
            t.free_range(e);
            assert_eq!(t.alloc(Segment::Execution, exec), e, "recycled in place");
        }
        assert_eq!(t.len(), pages);
        t.assert_runs_canonical();
        (t, e)
    }

    #[test]
    fn lifecycle_table_holds_five_bitmaps_and_three_runs() {
        let (mut t, e) = lifecycle_table(true, 50);
        let words = t.len() / 64;
        assert_eq!(t.runs.len(), 3, "runtime, init and execution runs");
        assert_eq!(t.allocated_bytes(), lifecycle_bytes(words));
        assert_eq!(t.idle_scans.capacity(), 0, "no idle counters before aging");

        t.age_and_collect_idle(1);
        assert_eq!(t.idle_scans.len(), t.len(), "one idle counter per page");
        assert_eq!(t.allocated_bytes(), lifecycle_bytes(words) + t.len());
        t.free_range(e);
        t.alloc(Segment::Execution, e.len());
        assert_eq!(t.idle_scans.len(), t.len());
        assert_eq!(t.meta(e.start()).idle_scans(), 0, "recycling resets it");
    }

    #[test]
    fn unbarriered_table_holds_the_same_five_bitmaps() {
        let (t, _) = lifecycle_table(false, 50);
        assert_eq!(t.runs.len(), 3, "one generation, three segments");
        assert_eq!(t.allocated_bytes(), lifecycle_bytes(t.len() / 64));
        assert_eq!(t.generation_age_histogram::<1>(), [t.len() as u64]);
    }

    #[test]
    fn recycled_init_pages_split_and_merge_runs() {
        let mut t = table();
        // Two allocations with one tag are one run: pages 0..100, gen 0.
        t.alloc(Segment::Runtime, 60);
        t.alloc(Segment::Runtime, 40);
        assert_eq!(t.runs.len(), 1);
        t.create_generation();
        let init = t.alloc(Segment::Init, 100); // gen 1, pages 100..200
        t.create_generation();
        t.alloc(Segment::Execution, 30); // gen 2, pages 200..230
        assert_eq!(t.runs.len(), 3);

        // A freed init span comes back as execution pages: the init run
        // is cut in three.
        let middle = init.skip(30).take(30); // pages 130..160
        t.free_range(middle);
        assert_eq!(t.alloc(Segment::Execution, 30), middle);
        t.assert_runs_canonical();
        assert_eq!(t.runs.len(), 5);
        for (page, segment, generation) in [
            (129, Segment::Init, 1),
            (130, Segment::Execution, 2),
            (159, Segment::Execution, 2),
            (160, Segment::Init, 1),
            (199, Segment::Init, 1),
            (200, Segment::Execution, 2),
        ] {
            let m = t.meta(PageId(page));
            assert_eq!(
                (m.segment(), m.generation()),
                (segment, generation),
                "page {page}"
            );
        }
        assert_eq!(t.local_pages_in(Segment::Init), 70);
        assert_eq!(t.local_pages_in(Segment::Execution), 60);

        // Recycling the init tail joins the two execution runs around it.
        let tail = init.skip(60); // pages 160..200
        t.free_range(tail);
        assert_eq!(t.alloc(Segment::Execution, 40), tail);
        t.assert_runs_canonical();
        assert_eq!(t.runs.len(), 3, "{:?}", t.runs);
        assert_eq!(t.local_pages_in(Segment::Execution), 100);

        // Moving a page out of its generation and back restores one run.
        t.set_generation(PageId(50), Generation(2));
        assert_eq!(t.runs.len(), 5);
        t.set_generation(PageId(50), Generation(0));
        t.assert_runs_canonical();
        assert_eq!(t.runs.len(), 3);
    }

    #[test]
    fn bounded_aging_collects_the_prefix_and_ages_everything() {
        let mk = || {
            let mut t = table();
            let r = t.alloc(Segment::Init, 200);
            t.touch_range(r.take(10));
            t
        };
        let (mut bounded, mut full) = (mk(), mk());
        let mut got = vec![PageId(999)];
        for limit in [0, 1, 17, usize::MAX] {
            let want = full.age_and_collect_idle(1);
            bounded.age_and_collect_idle_into(1, limit, &mut got);
            assert_eq!(got, want[..want.len().min(limit)], "limit {limit}");
        }
        for i in 0..200 {
            assert_eq!(bounded.meta(PageId(i)), full.meta(PageId(i)), "page {i}");
        }
    }

    #[test]
    fn hundreds_of_generations_match_the_reference() {
        use crate::ReferencePageTable;

        let mut t = table();
        let mut r = ReferencePageTable::new(PAGE_SIZE_4K);
        let mut exec = Vec::new();
        for i in 0..300u32 {
            assert_eq!(t.create_generation(), r.create_generation());
            let segment = Segment::ALL[i as usize % 3];
            let count = i % 70 + 1;
            let range = t.alloc(segment, count);
            assert_eq!(range, r.alloc(segment, count));
            if segment == Segment::Execution {
                exec.push(range);
            }
            if i % 7 == 3 {
                if let Some(e) = exec.pop() {
                    t.free_range(e);
                    r.free_range(e);
                }
            }
        }
        assert!(t.total_reused > 0, "some execution ranges were recycled");
        for i in 0..t.len() as u32 {
            assert_eq!(t.meta(PageId(i)), r.meta(PageId(i)), "page {i}");
        }
        assert_eq!(
            t.generation_age_histogram::<4>(),
            r.generation_age_histogram::<4>()
        );
        assert_eq!(
            t.generation_age_histogram::<512>(),
            r.generation_age_histogram::<512>()
        );
    }

    #[test]
    fn generation_rollback_reassignment() {
        let mut t = table();
        let r = t.alloc(Segment::Runtime, 1);
        let barrier = t.create_generation();
        t.set_generation(r.start(), barrier);
        assert_eq!(t.meta(r.start()).generation(), 1);
    }

    #[test]
    #[should_panic]
    fn meta_of_unallocated_page_panics() {
        let t = table();
        let _ = t.meta(PageId(0));
    }

    #[test]
    fn attached_tracer_reports_batch_memory_events() {
        use faasmem_trace::{LayerMask, Tracer};

        let tracer = Tracer::recording(LayerMask::ALL);
        let mut t = table();
        t.attach_tracer(tracer.clone(), 7);
        let r = t.alloc(Segment::Init, 8);
        t.create_generation();
        t.offload_range(r.take(4));
        t.touch_range(r.take(2)); // 2 remote pages fault back in
        t.prefetch_pages(r.skip(2).take(2).iter());
        t.scan_accessed();
        t.age_and_collect_idle(1);

        let events = tracer.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "generation_create",
                "mem_offload",
                "mem_page_in", // demand
                "mem_page_in", // prefetch
                "access_scan",
                "generation_age",
            ]
        );
        assert!(events.iter().all(|e| e.container == Some(7)));
        assert_eq!(
            events[2].kind,
            faasmem_trace::EventKind::MemPageIn {
                pages: 2,
                demand: true
            }
        );
        assert_eq!(
            events[3].kind,
            faasmem_trace::EventKind::MemPageIn {
                pages: 2,
                demand: false
            }
        );
    }

    #[test]
    fn silent_batches_emit_nothing() {
        use faasmem_trace::{LayerMask, Tracer};

        let tracer = Tracer::recording(LayerMask::ALL);
        let mut t = table();
        t.attach_tracer(tracer.clone(), 0);
        let r = t.alloc(Segment::Init, 4);
        // Nothing remote: touch faults none, offload of remote pages
        // moves none the second time, prefetch of local moves none.
        t.touch_range(r);
        t.offload_range(r);
        t.offload_range(r);
        t.prefetch_pages(std::iter::empty());
        let kinds: Vec<&str> = tracer.take_events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["mem_offload"]);
    }

    proptest::proptest! {
        // The prefix-plus-runs kernel is the per-page walk it replaced:
        // the same outcome, per-page metadata and counters, and one
        // demand page-in event for all the faults — over a segment with
        // remote and hot-pool pages in it.
        #[test]
        fn prop_touch_prefix_runs_matches_per_page_touches(
            (prefix, gaps) in (0u32..150, proptest::collection::vec((1u32..40, 1u32..90), 0..8)),
            offload in proptest::collection::vec((0u32..400, 1u32..70), 0..6),
            hot in 0u32..400,
        ) {
            use faasmem_trace::{EventKind, LayerMask, Tracer};

            let mut runs = Vec::new();
            let mut end = prefix;
            for (gap, len) in gaps {
                runs.push((end + gap, end + gap + len));
                end += gap + len;
            }
            let (mut fast, mut slow) = (table(), table());
            let pages = end.max(1);
            let mut segment = PageRange::EMPTY;
            for t in [&mut fast, &mut slow] {
                t.alloc(Segment::Runtime, 3);
                segment = t.alloc(Segment::Init, pages);
                for &(at, len) in &offload {
                    let at = at % pages;
                    t.offload_range(segment.skip(at).take(len.min(pages - at)));
                }
                t.set_in_hot_pool(segment.start(), true);
                t.set_in_hot_pool(PageId(segment.start().0 + hot % pages), true);
            }
            let tracer = Tracer::recording(LayerMask::ALL);
            fast.attach_tracer(tracer.clone(), 1);
            let base = segment.start();
            let mut want = TouchOutcome::default();
            for i in (0..prefix).chain(runs.iter().flat_map(|&(s, e)| s..e)) {
                want.touched += 1;
                want.faulted += u32::from(slow.touch(PageId(base.0 + i)));
            }
            let got = fast.touch_prefix_runs(base, prefix, &runs);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(fast.stats(), slow.stats());
            proptest::prop_assert_eq!(fast.hot_local_pages(), slow.hot_local_pages());
            for i in 0..fast.len() as u32 {
                proptest::prop_assert_eq!(fast.meta(PageId(i)), slow.meta(PageId(i)));
            }
            let events: Vec<EventKind> = tracer.take_events().into_iter().map(|e| e.kind).collect();
            let demand = EventKind::MemPageIn { pages: u64::from(want.faulted), demand: true };
            proptest::prop_assert_eq!(events, if want.faulted > 0 { vec![demand] } else { vec![] });
        }

        #[test]
        fn prop_counters_match_state(ops in proptest::collection::vec(0u8..4, 1..120)) {
            let mut t = table();
            let mut ranges: Vec<PageRange> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => ranges.push(t.alloc(Segment::ALL[i % 3], (i as u32 % 7) + 1)),
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
                    _ => {
                        if !ranges.is_empty() {
                            let r = ranges.swap_remove(i % ranges.len());
                            t.free_range(r);
                        }
                    }
                }
            }
            // Recount from raw metadata and compare with the counters.
            let mut local = 0u64;
            let mut remote = 0u64;
            let mut freed = 0u64;
            let mut by_seg = [0u64; 3];
            for i in 0..t.len() {
                let m = t.meta(PageId(i as u32));
                match m.state() {
                    PageState::Local => { local += 1; by_seg[m.segment().index()] += 1; }
                    PageState::Remote => remote += 1,
                    PageState::Freed => freed += 1,
                }
            }
            proptest::prop_assert_eq!(local, t.local_pages());
            proptest::prop_assert_eq!(remote, t.remote_pages());
            proptest::prop_assert_eq!(freed, t.freed_pages());
            for seg in Segment::ALL {
                proptest::prop_assert_eq!(by_seg[seg.index()], t.local_pages_in(seg));
            }
        }
    }
}
