//! A DAMON-style region monitor.
//!
//! The real DAMON does not track every page: it partitions an address
//! space into *regions*, samples one random page per region per sampling
//! interval to estimate the whole region's hotness, and adaptively
//! *splits* regions whose halves behave differently while *merging*
//! adjacent regions with similar access counts. That design caps the
//! monitoring overhead regardless of memory size — and is also why DAMON
//! misclassifies: a region's estimate comes from sampling, not ground
//! truth.
//!
//! [`RegionMonitor`] reproduces that machinery over a [`PageTable`]. The
//! DAMON baseline policy can run either on exact Access-bit scans (the
//! `age_and_collect_idle` fast path) or on this region monitor for full
//! fidelity to DAMON's accuracy characteristics.

use crate::page::{PageId, PageState};
use crate::table::PageTable;

/// One monitored region: a contiguous page range with an access estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First page of the region.
    pub start: u32,
    /// Pages in the region.
    pub len: u32,
    /// Sampling hits in the current aggregation window.
    pub nr_accesses: u32,
    /// Consecutive aggregation windows with zero estimated accesses.
    pub age_idle: u32,
}

impl Region {
    /// The page id one past the region's end.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// Minimum number of regions to maintain.
const MIN_REGIONS: u32 = 10;

/// Maximum number of regions (caps monitoring overhead).
const MAX_REGIONS: u32 = 100;

/// Samples taken per region per aggregation window.
const SAMPLES_PER_REGION: u32 = 3;

/// Merge adjacent regions whose access counts differ by at most this.
const MERGE_THRESHOLD: u32 = 1;

/// DAMON-style adaptive region monitoring over one page table.
///
/// # Examples
///
/// ```
/// use faasmem_mem::{PageTable, RegionMonitor, Segment, PAGE_SIZE_4K};
///
/// let mut table = PageTable::new(PAGE_SIZE_4K);
/// let range = table.alloc(Segment::Init, 1000);
/// let mut monitor = RegionMonitor::new();
/// table.touch_range(range.take(100)); // hot head
/// let mut draw = 0u64;
/// monitor.aggregate(&mut table, || { draw += 7; (draw % 97) as f64 / 97.0 });
/// assert!(monitor.regions().len() >= 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionMonitor {
    regions: Vec<Region>,
    monitored_pages: u32,
}

impl RegionMonitor {
    /// Creates a monitor; regions are initialised lazily from the table
    /// on the first aggregation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    fn init_regions(&mut self, total_pages: u32) {
        self.monitored_pages = total_pages;
        self.regions.clear();
        let n = MIN_REGIONS.min(total_pages.max(1));
        let base = total_pages / n;
        let mut start = 0;
        for i in 0..n {
            let len = if i == n - 1 {
                total_pages - start
            } else {
                base
            };
            if len > 0 {
                self.regions.push(Region {
                    start,
                    len,
                    nr_accesses: 0,
                    age_idle: 0,
                });
            }
            start += len;
        }
    }

    /// One aggregation window: samples each region's Access bits (via the
    /// supplied uniform `coin` in `[0,1)`), updates estimates, then
    /// splits/merges. Consumes the table's Access bits.
    pub fn aggregate<F: FnMut() -> f64>(&mut self, table: &mut PageTable, mut coin: F) {
        let total_pages = table.len() as u32;
        if total_pages == 0 {
            return;
        }
        if self.regions.is_empty() || self.monitored_pages != total_pages {
            self.init_regions(total_pages);
        }
        // Sample: for each region, probe `SAMPLES_PER_REGION` pages.
        for region in &mut self.regions {
            let mut hits = 0;
            for _ in 0..SAMPLES_PER_REGION {
                let offset = (coin() * f64::from(region.len)) as u32;
                let id = PageId(region.start + offset.min(region.len - 1));
                let meta = table.meta(id);
                if meta.state() != PageState::Freed && meta.accessed() {
                    hits += 1;
                }
            }
            region.nr_accesses = hits;
            if hits == 0 {
                region.age_idle += 1;
            } else {
                region.age_idle = 0;
            }
        }
        // The window is over: clear all Access bits (DAMON's PTE reset).
        table.clear_accessed();
        self.split(&mut coin);
        self.merge();
    }

    /// Splits each region in two at a random point, while under the
    /// region budget — DAMON's mechanism for discovering sub-region
    /// behaviour differences in the next window.
    fn split<F: FnMut() -> f64>(&mut self, coin: &mut F) {
        if self.regions.len() * 2 > MAX_REGIONS as usize {
            return;
        }
        let mut out = Vec::with_capacity(self.regions.len() * 2);
        for r in &self.regions {
            if r.len < 2 {
                out.push(*r);
                continue;
            }
            let cut = 1 + (coin() * f64::from(r.len - 1)) as u32;
            let cut = cut.min(r.len - 1);
            out.push(Region {
                start: r.start,
                len: cut,
                ..*r
            });
            out.push(Region {
                start: r.start + cut,
                len: r.len - cut,
                ..*r
            });
        }
        self.regions = out;
    }

    /// Merges adjacent regions with similar access estimates, keeping at
    /// least `MIN_REGIONS`.
    fn merge(&mut self) {
        let mut budget = self.regions.len().saturating_sub(MIN_REGIONS as usize);
        let mut merged: Vec<Region> = Vec::with_capacity(self.regions.len());
        for r in self.regions.iter().copied() {
            let mergeable = budget > 0
                && merged.last().is_some_and(|prev| {
                    prev.end() == r.start
                        && prev.nr_accesses.abs_diff(r.nr_accesses) <= MERGE_THRESHOLD
                });
            if mergeable {
                let prev = merged.last_mut().expect("checked non-empty");
                prev.len += r.len;
                prev.nr_accesses = prev.nr_accesses.max(r.nr_accesses);
                prev.age_idle = prev.age_idle.min(r.age_idle);
                budget -= 1;
            } else {
                merged.push(r);
            }
        }
        self.regions = merged;
    }

    /// Pages of regions whose idle age reached `idle_threshold` — the
    /// cold candidates a DAMON_RECLAIM-style policy offloads. Only local
    /// pages are returned.
    pub fn cold_pages(&self, table: &PageTable, idle_threshold: u32) -> Vec<PageId> {
        let mut out = Vec::new();
        self.cold_pages_into(table, idle_threshold, &mut out);
        out
    }

    /// Allocation-free variant of [`RegionMonitor::cold_pages`]: clears
    /// `out` and fills it in ascending page order.
    pub fn cold_pages_into(&self, table: &PageTable, idle_threshold: u32, out: &mut Vec<PageId>) {
        out.clear();
        for region in &self.regions {
            if region.age_idle < idle_threshold {
                continue;
            }
            let range = crate::PageRange::new(PageId(region.start), region.len);
            table.append_local_in_range(range, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Segment, PAGE_SIZE_4K};

    /// A deterministic coin for tests.
    fn coin_stream() -> impl FnMut() -> f64 {
        let mut x = 0x2545F491u64;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 10_000) as f64 / 10_000.0
        }
    }

    fn table_with(pages: u32) -> PageTable {
        let mut t = PageTable::new(PAGE_SIZE_4K);
        t.alloc(Segment::Init, pages);
        t
    }

    #[test]
    fn regions_cover_table_exactly() {
        let mut t = table_with(1000);
        let mut m = RegionMonitor::new();
        let mut coin = coin_stream();
        m.aggregate(&mut t, &mut coin);
        for _ in 0..10 {
            m.aggregate(&mut t, &mut coin);
            // Invariant: regions tile [0, pages) without gaps/overlaps.
            let mut expected = 0;
            for r in m.regions() {
                assert_eq!(r.start, expected, "gap/overlap at {expected}");
                expected = r.end();
            }
            assert_eq!(expected, 1000);
            assert!(m.regions().len() <= 100);
        }
    }

    #[test]
    fn hot_head_is_distinguished_from_cold_tail() {
        let mut t = table_with(1000);
        let mut m = RegionMonitor::new();
        let mut coin = coin_stream();
        let hot = crate::PageRange::new(PageId(0), 200);
        for _ in 0..8 {
            t.touch_range(hot);
            m.aggregate(&mut t, &mut coin);
        }
        // Regions wholly in the hot head should carry accesses; regions
        // deep in the tail should be idle-aged.
        let head_access: u32 = m
            .regions()
            .iter()
            .filter(|r| r.end() <= 200)
            .map(|r| r.nr_accesses)
            .sum();
        let tail_idle = m
            .regions()
            .iter()
            .filter(|r| r.start >= 500)
            .all(|r| r.age_idle >= 1);
        assert!(head_access > 0, "hot head sampled");
        assert!(tail_idle, "cold tail aged");
    }

    #[test]
    fn cold_pages_come_from_aged_regions_only() {
        let mut t = table_with(400);
        let mut m = RegionMonitor::new();
        let mut coin = coin_stream();
        let hot = crate::PageRange::new(PageId(0), 100);
        for _ in 0..6 {
            t.touch_range(hot);
            m.aggregate(&mut t, &mut coin);
        }
        let cold = m.cold_pages(&t, 3);
        assert!(!cold.is_empty(), "tail must age out");
        // Sampling noise may cool a head region occasionally, but the
        // bulk of the cold set must be tail pages.
        let tail_share = cold.iter().filter(|id| id.0 >= 100).count() as f64 / cold.len() as f64;
        assert!(tail_share > 0.8, "tail share {tail_share}");
    }

    #[test]
    fn empty_table_is_a_noop() {
        let mut t = PageTable::new(PAGE_SIZE_4K);
        let mut m = RegionMonitor::new();
        m.aggregate(&mut t, coin_stream());
        assert!(m.regions().is_empty());
        assert!(m.cold_pages(&t, 0).is_empty());
    }

    #[test]
    fn growing_table_reinitialises() {
        let mut t = table_with(100);
        let mut m = RegionMonitor::new();
        let mut coin = coin_stream();
        m.aggregate(&mut t, &mut coin);
        t.alloc(Segment::Execution, 100);
        m.aggregate(&mut t, &mut coin);
        let covered: u32 = m.regions().iter().map(|r| r.len).sum();
        assert_eq!(covered, 200);
    }

    proptest::proptest! {
        #[test]
        fn prop_regions_always_tile(pages in 1u32..5000, rounds in 1usize..8, seed in 0u64..500) {
            let mut t = table_with(pages);
            let mut m = RegionMonitor::new();
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut coin = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 10_000) as f64 / 10_000.0
            };
            for _ in 0..rounds {
                m.aggregate(&mut t, &mut coin);
                let mut expected = 0;
                for r in m.regions() {
                    proptest::prop_assert_eq!(r.start, expected);
                    proptest::prop_assert!(r.len > 0);
                    expected = r.end();
                }
                proptest::prop_assert_eq!(expected, pages);
            }
        }
    }
}
