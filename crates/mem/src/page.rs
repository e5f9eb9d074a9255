//! Per-page types: identifiers, ranges, segments and compact metadata.

use std::fmt;

/// Index of a page within a container's [`PageTable`](crate::PageTable).
///
/// Page ids are dense and allocation-ordered, which is exactly the
/// property FaaSMem's time barriers rely on: every page allocated before a
/// barrier has a smaller id than every page allocated after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// A contiguous, allocation-ordered run of pages `[start, start + len)`.
///
/// # Examples
///
/// ```
/// use faasmem_mem::{PageId, PageRange};
///
/// let r = PageRange::new(PageId(10), 4);
/// let ids: Vec<u32> = r.iter().map(|p| p.0).collect();
/// assert_eq!(ids, [10, 11, 12, 13]);
/// assert!(r.contains(PageId(12)));
/// assert!(!r.contains(PageId(14)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    start: u32,
    len: u32,
}

impl PageRange {
    /// An empty range at the origin.
    pub const EMPTY: PageRange = PageRange { start: 0, len: 0 };

    /// Creates a range of `len` pages starting at `start`.
    pub const fn new(start: PageId, len: u32) -> Self {
        PageRange {
            start: start.0,
            len,
        }
    }

    /// First page of the range.
    pub const fn start(self) -> PageId {
        PageId(self.start)
    }

    /// One past the last page of the range.
    pub const fn end(self) -> PageId {
        PageId(self.start + self.len)
    }

    /// Number of pages.
    pub const fn len(self) -> u32 {
        self.len
    }

    /// `true` when the range holds no pages.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// `true` when `page` falls inside the range.
    pub const fn contains(self, page: PageId) -> bool {
        page.0 >= self.start && page.0 < self.start + self.len
    }

    /// Iterates over the page ids in the range.
    pub fn iter(self) -> impl Iterator<Item = PageId> {
        (self.start..self.start + self.len).map(PageId)
    }

    /// The sub-range formed by the first `n` pages (clamped).
    pub fn take(self, n: u32) -> PageRange {
        PageRange {
            start: self.start,
            len: self.len.min(n),
        }
    }

    /// The sub-range formed by skipping the first `n` pages (clamped).
    pub fn skip(self, n: u32) -> PageRange {
        let n = n.min(self.len);
        PageRange {
            start: self.start + n,
            len: self.len - n,
        }
    }
}

/// The container-lifecycle segment a page was allocated in (paper §3).
///
/// * [`Segment::Runtime`] — pages allocated while the language runtime
///   loads, before user code runs (Segment-1).
/// * [`Segment::Init`] — pages allocated during function initialization:
///   imports, models, caches (Segment-2).
/// * [`Segment::Execution`] — per-request temporaries, freed when the
///   request completes (Segment-3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Container-runtime pages (Segment-1).
    Runtime,
    /// Function-initialization pages (Segment-2).
    Init,
    /// Per-request execution pages (Segment-3).
    Execution,
}

impl Segment {
    /// All segments in lifecycle order.
    pub const ALL: [Segment; 3] = [Segment::Runtime, Segment::Init, Segment::Execution];

    /// Stable small index for array-backed per-segment state.
    pub const fn index(self) -> usize {
        match self {
            Segment::Runtime => 0,
            Segment::Init => 1,
            Segment::Execution => 2,
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Segment::Runtime => "runtime",
            Segment::Init => "init",
            Segment::Execution => "execution",
        };
        f.write_str(name)
    }
}

/// Residency of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Backed by local DRAM on the compute node.
    Local,
    /// Swapped out to the remote memory pool; access triggers a fault.
    Remote,
    /// Returned to the allocator (execution-segment pages after a request).
    Freed,
}

const STATE_LOCAL: u8 = 0;
const STATE_REMOTE: u8 = 1;
const STATE_FREED: u8 = 2;
const STATE_MASK: u8 = 0b0000_0011;
const FLAG_ACCESSED: u8 = 0b0000_0100;
const FLAG_HOT_POOL: u8 = 0b0000_1000;
const FLAG_FAULTED: u8 = 0b0100_0000;
const SEG_SHIFT: u8 = 4;
const SEG_MASK: u8 = 0b0011_0000;

/// Compact per-page metadata: the value-type view of one page.
///
/// Packs residency state, the simulated Access bit, hot-page-pool
/// membership and the segment into one byte, plus the MGLRU generation
/// number and an idle-scan counter (how many consecutive aging scans
/// found the page untouched) used by the DAMON-style baseline. The
/// table itself stores the flags as bitmaps and the segment and
/// generation as allocation runs (DESIGN § data layout); this struct
/// is what [`PageTable::meta`](crate::PageTable::meta) returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    flags: u8,
    idle_scans: u8,
    generation: u32,
}

impl PageMeta {
    /// A freshly allocated local page in `segment` and `generation`.
    pub fn new(segment: Segment, generation: u32) -> Self {
        PageMeta {
            flags: STATE_LOCAL | ((segment.index() as u8) << SEG_SHIFT),
            idle_scans: 0,
            generation,
        }
    }

    /// Assembles a snapshot from the table's column-oriented storage.
    /// The table keeps flags, segments and generations in bitmaps and
    /// the idle counter in a byte column; this reconstitutes the
    /// value-type view callers see via
    /// [`PageTable::meta`](crate::PageTable::meta).
    pub(crate) fn from_parts(
        state: PageState,
        segment: Segment,
        accessed: bool,
        in_hot_pool: bool,
        recently_faulted: bool,
        idle_scans: u8,
        generation: u32,
    ) -> Self {
        let state_bits = match state {
            PageState::Local => STATE_LOCAL,
            PageState::Remote => STATE_REMOTE,
            PageState::Freed => STATE_FREED,
        };
        let mut flags = state_bits | ((segment.index() as u8) << SEG_SHIFT);
        if accessed {
            flags |= FLAG_ACCESSED;
        }
        if in_hot_pool {
            flags |= FLAG_HOT_POOL;
        }
        if recently_faulted {
            flags |= FLAG_FAULTED;
        }
        PageMeta {
            flags,
            idle_scans,
            generation,
        }
    }

    /// Residency state.
    pub fn state(self) -> PageState {
        match self.flags & STATE_MASK {
            STATE_LOCAL => PageState::Local,
            STATE_REMOTE => PageState::Remote,
            _ => PageState::Freed,
        }
    }

    pub(crate) fn set_state(&mut self, state: PageState) {
        let bits = match state {
            PageState::Local => STATE_LOCAL,
            PageState::Remote => STATE_REMOTE,
            PageState::Freed => STATE_FREED,
        };
        self.flags = (self.flags & !STATE_MASK) | bits;
    }

    /// Which lifecycle segment the page was allocated in.
    pub fn segment(self) -> Segment {
        match (self.flags & SEG_MASK) >> SEG_SHIFT {
            0 => Segment::Runtime,
            1 => Segment::Init,
            _ => Segment::Execution,
        }
    }

    /// The simulated hardware Access bit.
    pub fn accessed(self) -> bool {
        self.flags & FLAG_ACCESSED != 0
    }

    pub(crate) fn set_accessed(&mut self, on: bool) {
        if on {
            self.flags |= FLAG_ACCESSED;
        } else {
            self.flags &= !FLAG_ACCESSED;
        }
    }

    /// Whether the page currently sits in FaaSMem's shared hot page pool.
    pub fn in_hot_pool(self) -> bool {
        self.flags & FLAG_HOT_POOL != 0
    }

    pub(crate) fn set_in_hot_pool(&mut self, on: bool) {
        if on {
            self.flags |= FLAG_HOT_POOL;
        } else {
            self.flags &= !FLAG_HOT_POOL;
        }
    }

    /// MGLRU generation the page belongs to.
    pub fn generation(self) -> u32 {
        self.generation
    }

    pub(crate) fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }

    /// `true` if the page was faulted back from remote memory since the
    /// last Access-bit scan — the "recall" signal Fig 8 counts.
    pub fn recently_faulted(self) -> bool {
        self.flags & FLAG_FAULTED != 0
    }

    pub(crate) fn set_recently_faulted(&mut self, on: bool) {
        if on {
            self.flags |= FLAG_FAULTED;
        } else {
            self.flags &= !FLAG_FAULTED;
        }
    }

    /// Consecutive aging scans that found this page untouched.
    pub fn idle_scans(self) -> u8 {
        self.idle_scans
    }

    pub(crate) fn bump_idle_scans(&mut self) {
        self.idle_scans = self.idle_scans.saturating_add(1);
    }

    pub(crate) fn reset_idle_scans(&mut self) {
        self.idle_scans = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_iteration_and_bounds() {
        let r = PageRange::new(PageId(5), 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.start(), PageId(5));
        assert_eq!(r.end(), PageId(8));
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 3);
        assert!(r.contains(PageId(5)));
        assert!(r.contains(PageId(7)));
        assert!(!r.contains(PageId(8)));
        assert!(!r.contains(PageId(4)));
    }

    #[test]
    fn empty_range() {
        assert!(PageRange::EMPTY.is_empty());
        assert_eq!(PageRange::EMPTY.iter().count(), 0);
        assert!(!PageRange::EMPTY.contains(PageId(0)));
    }

    #[test]
    fn take_and_skip_partition() {
        let r = PageRange::new(PageId(0), 10);
        let head = r.take(4);
        let tail = r.skip(4);
        assert_eq!(head.len(), 4);
        assert_eq!(tail.len(), 6);
        assert_eq!(head.end(), tail.start());
        assert_eq!(r.take(100).len(), 10);
        assert!(r.skip(100).is_empty());
    }

    #[test]
    fn meta_roundtrips_every_field() {
        for seg in Segment::ALL {
            let mut m = PageMeta::new(seg, 7);
            assert_eq!(m.segment(), seg);
            assert_eq!(m.state(), PageState::Local);
            assert_eq!(m.generation(), 7);
            assert!(!m.accessed());
            assert!(!m.in_hot_pool());

            m.set_state(PageState::Remote);
            m.set_accessed(true);
            m.set_in_hot_pool(true);
            m.set_generation(9);
            assert_eq!(m.state(), PageState::Remote);
            assert_eq!(m.segment(), seg); // untouched by other setters
            assert!(m.accessed());
            assert!(m.in_hot_pool());
            assert_eq!(m.generation(), 9);

            m.set_state(PageState::Freed);
            m.set_accessed(false);
            m.set_in_hot_pool(false);
            assert_eq!(m.state(), PageState::Freed);
            assert!(!m.accessed());
            assert!(!m.in_hot_pool());
        }
    }

    #[test]
    fn meta_is_compact() {
        assert!(std::mem::size_of::<PageMeta>() <= 8);
    }

    #[test]
    fn segment_indices_are_stable() {
        assert_eq!(Segment::Runtime.index(), 0);
        assert_eq!(Segment::Init.index(), 1);
        assert_eq!(Segment::Execution.index(), 2);
        assert_eq!(Segment::ALL.len(), 3);
    }
}
