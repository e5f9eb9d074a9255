//! Figure 4: inactive memory of the runtime segment, per platform image
//! and language runtime.
//!
//! The paper measures hello-world containers built from official
//! OpenWhisk and Azure Functions images, identifies pages whose Access
//! bit never flips after one request, and reports that inactive memory:
//! OpenWhisk Python ≈ 24 MB and Java ≈ 57 MB; every Azure runtime exceeds
//! 100 MB; Java is always the largest (JVM).

use std::io::{self, Write};

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_mem::{mib_to_pages, pages_to_mib, PageTable, Segment, PAGE_SIZE_4K};
use faasmem_workload::RuntimeSpec;

/// Simulates the paper's measurement: load a hello-world container of the
/// given runtime, execute one request (touching only the proxy working
/// set), then count runtime pages whose Access bit stayed clear.
fn measure_inactive_mib(runtime: &RuntimeSpec) -> f64 {
    let mut table = PageTable::new(PAGE_SIZE_4K);
    let total_pages = mib_to_pages(runtime.total_mib, PAGE_SIZE_4K) as u32;
    let hot_pages = mib_to_pages(runtime.hot_mib(), PAGE_SIZE_4K) as u32;
    let range = table.alloc(Segment::Runtime, total_pages);
    // Runtime load touches everything once...
    table.touch_range(range);
    table.scan_accessed(); // ...but load-time accesses are not requests.
                           // One hello-world request: only the action proxy's working set.
    table.touch_range(range.take(hot_pages));
    let accessed = table.scan_accessed().len() as u64;
    pages_to_mib(u64::from(total_pages) - accessed, PAGE_SIZE_4K)
}

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for runtime in RuntimeSpec::catalog() {
        let measured = measure_inactive_mib(&runtime);
        rows.push(vec![
            runtime.platform.name().to_string(),
            runtime.kind.name().to_string(),
            format!("{} MiB", runtime.total_mib),
            format!("{measured:.0} MiB"),
            format!("{:.0}%", measured / runtime.total_mib as f64 * 100.0),
        ]);
    }
    write_table(
        out,
        &[
            "platform",
            "runtime",
            "total",
            "inactive (measured)",
            "inactive share",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "Paper reference (Fig 4): OpenWhisk py=24MB java=57MB; Azure all >100MB; Java largest."
    )
}
