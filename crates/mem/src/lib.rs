#![warn(missing_docs)]

//! Page-level memory model for the FaaSMem reproduction.
//!
//! The paper implements FaaSMem inside the Linux kernel by layering Puckets
//! on the Multi-gen LRU (MGLRU) and porting Fastswap for the remote swap
//! path (§7). This crate reproduces the *kernel-visible state* those
//! mechanisms manipulate, in userspace:
//!
//! * [`PageTable`] — one per container, holding compact per-page metadata:
//!   residency ([`PageState`]), the segment the page was allocated in
//!   ([`Segment`]), the hardware Access bit, and the MGLRU generation.
//! * Generation operations ([`PageTable::create_generation`]) — the MGLRU
//!   interface FaaSMem uses to insert *time barriers*: creating a new
//!   generation means every page allocated afterwards is distinguishable
//!   from every page allocated before.
//! * Access-bit scans ([`PageTable::scan_accessed`]) — the sampling
//!   primitive both FaaSMem's Pucket maintenance and the DAMON baseline
//!   build on; [`PageTable::promote_accessed`] fuses the scan with
//!   hot-pool promotion.
//! * [`MemStats`] — cgroup-style local/remote byte accounting.
//!
//! Page size is configurable per table (default 4 KiB, like the paper's
//! x86 target); experiments that model multi-gigabyte containers may
//! coarsen it to trade fidelity for speed.
//!
//! # Examples
//!
//! ```
//! use faasmem_mem::{PageTable, Segment, PAGE_SIZE_4K};
//!
//! let mut table = PageTable::new(PAGE_SIZE_4K);
//! let runtime = table.alloc(Segment::Runtime, 1024); // 4 MiB of runtime pages
//! let outcome = table.touch_range(runtime);
//! assert_eq!(outcome.touched, 1024);
//! assert_eq!(outcome.faulted, 0); // all local, no remote faults
//! ```

pub mod flow;
pub mod page;
pub mod reference;
pub mod regions;
pub mod stats;
pub mod table;

pub use flow::{FlowMatrix, FlowRow, PageFlows, FLOW_STATES};
pub use page::{PageId, PageMeta, PageRange, PageState, Segment};
pub use reference::ReferencePageTable;
pub use regions::{Region, RegionConfig, RegionMonitor};
pub use stats::MemStats;
pub use table::{Generation, PageTable, PromoteSummary, TouchOutcome};

/// The x86 page size the paper's kernel implementation manages.
pub const PAGE_SIZE_4K: u64 = 4096;

/// Bytes in one mebibyte; footprints in the paper are quoted in MB.
pub const MIB: u64 = 1024 * 1024;

/// Converts a number of pages of the given size to mebibytes.
pub fn pages_to_mib(pages: u64, page_size: u64) -> f64 {
    (pages * page_size) as f64 / MIB as f64
}

/// Converts mebibytes to a page count of the given size (rounding up).
pub fn mib_to_pages(mib: u64, page_size: u64) -> u64 {
    (mib * MIB).div_ceil(page_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert_eq!(mib_to_pages(1, PAGE_SIZE_4K), 256);
        assert_eq!(pages_to_mib(256, PAGE_SIZE_4K), 1.0);
        assert_eq!(mib_to_pages(100, PAGE_SIZE_4K), 25_600);
    }

    #[test]
    fn mib_to_pages_rounds_up() {
        assert_eq!(mib_to_pages(1, 3 * MIB), 1);
        assert_eq!(mib_to_pages(4, 3 * MIB), 2);
    }
}
