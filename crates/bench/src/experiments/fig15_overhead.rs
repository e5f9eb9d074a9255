//! Figure 15: overhead of the Pucket mechanisms — time-barrier insertion
//! and periodic rollback.
//!
//! The paper measures, per benchmark, the wall-clock cost of inserting
//! the Runtime-Init and Init-Execution barriers (≤ 2.5 ms for the micro-
//! benchmarks; 10/5/5 ms for Bert/Graph/Web whose init segments are
//! large) and of one rollback (≤ 7.5 ms). This experiment measures the same
//! operations on 4 KiB-page tables sized per benchmark. Each cell is the
//! minimum and mean over [`ITERS`] timed runs after one warm-up; the
//! table each run works on is built outside the timed window.

use std::io::{self, Write};
use std::time::Instant;

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_core::Puckets;
use faasmem_mem::{mib_to_pages, PageTable, Segment, PAGE_SIZE_4K};
use faasmem_workload::BenchmarkSpec;

/// Timed runs per cell.
const ITERS: u32 = 20;

/// Runs `f` [`ITERS`] times after one warm-up, rebuilding its input
/// with `setup` outside the timed window, and formats the minimum and
/// mean in microseconds.
fn measure<S>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> String {
    f(setup());
    let mut min = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..ITERS {
        let input = setup();
        let start = Instant::now();
        f(input);
        let us = start.elapsed().as_secs_f64() * 1e6;
        min = min.min(us);
        total += us;
    }
    format!("{min:.1} / {:.1} us", total / f64::from(ITERS))
}

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for spec in BenchmarkSpec::catalog() {
        let runtime_pages = mib_to_pages(spec.runtime_mib, PAGE_SIZE_4K) as u32;
        let init_pages = mib_to_pages(spec.init_mib, PAGE_SIZE_4K) as u32;
        let hot_pages = mib_to_pages(spec.runtime_hot_mib, PAGE_SIZE_4K) as u32
            + mib_to_pages(spec.init_mib / 2, PAGE_SIZE_4K) as u32;
        let runtime_loaded = || {
            let mut table = PageTable::new(PAGE_SIZE_4K);
            let runtime = table.alloc(Segment::Runtime, runtime_pages);
            (table, Puckets::new(), runtime)
        };
        let init_done = || {
            let (mut table, mut puckets, runtime) = runtime_loaded();
            puckets.insert_runtime_init_barrier(&mut table);
            let init = table.alloc(Segment::Init, init_pages);
            (table, puckets, runtime, init)
        };

        // Barrier insertion is O(1) on the generation counter but the
        // paper's number includes the blocking LRU walk; emulate the walk
        // with a full metadata pass, which is the worst case.
        let ri_barrier = measure(runtime_loaded, |(mut table, mut puckets, _)| {
            puckets.insert_runtime_init_barrier(&mut table);
            std::hint::black_box(table.scan_accessed());
        });
        let ie_barrier = measure(init_done, |(mut table, mut puckets, ..)| {
            puckets.insert_init_exec_barrier(&mut table);
            std::hint::black_box(table.scan_accessed());
        });

        // Rollback: clear the hot-pool flag of every hot page, each run
        // on a fresh copy of one promoted table.
        let (mut table, mut puckets, runtime, init) = init_done();
        puckets.insert_init_exec_barrier(&mut table);
        table.scan_accessed();
        table.touch_range(runtime.take(hot_pages.min(runtime.len())));
        table.touch_range(init.take(hot_pages.min(init.len())));
        puckets.promote_accessed(&mut table);
        let rollback = measure(
            || table.clone(),
            |mut t| {
                std::hint::black_box(puckets.rollback_hot_pool(&mut t));
            },
        );

        rows.push(vec![
            spec.name.to_string(),
            ri_barrier,
            ie_barrier,
            rollback,
        ]);
    }
    write_table(
        out,
        &[
            "benchmark",
            "runtime-init barrier",
            "init-exec barrier",
            "rollback",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "Each cell: min / mean over {ITERS} runs.\n\
         Paper reference (Fig 15): barriers < 2.5 ms (micro) / <= 10 ms (apps); rollback < 7.5 ms;\n\
         with rollback rounds >= 10 s apart the total overhead stays < 0.1%."
    )
}
