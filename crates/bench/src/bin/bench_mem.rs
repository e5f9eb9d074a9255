//! Micro-benchmark of the data-oriented `PageTable` hot loops.
//!
//! Times the bitmap/SoA page-table primitives the policies lean on —
//! access-bit scans, aging walks, offload/page-in sweeps — at several
//! table sizes, plus the request-path range touch and the fused
//! hot-pool promotion scan at 256k pages, and races the 256k-page scan
//! against the naive per-page [`ReferencePageTable`] walk the bitmap
//! layout replaced.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_mem -- \
//!     --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_mem_micro.json perf/BENCH_mem_micro.json --tolerance 0.25
//! ```
//!
//! Every phase runs a *fixed* number of repetitions so the per-phase
//! totals in `BENCH_mem_micro.json` (written when `--out DIR` is given)
//! are comparable across runs — the CI perf job diffs them with
//! `bench_compare`. `--check-speedup` exits non-zero unless the bitmap
//! scan beats the reference walk by at least [`REQUIRED_SPEEDUP`]×.

use std::hint::black_box;
use std::path::PathBuf;

use faasmem_bench::perf::BenchRecorder;
use faasmem_bench::render_table;
use faasmem_core::Puckets;
use faasmem_mem::{PageId, PageRange, PageTable, ReferencePageTable, Segment, PAGE_SIZE_4K};

/// Minimum bitmap-vs-reference scan-throughput ratio `--check-speedup`
/// enforces (measured at 256k pages).
const REQUIRED_SPEEDUP: f64 = 3.0;

/// Every Nth page is hot: sparse enough that the word-wise scan must
/// visit most words (no all-zero skipping windfall), dense enough to
/// model a realistic resident working set.
const HOT_STRIDE: usize = 32;

/// The table sizes exercised, with fixed per-phase repetition counts
/// `(pages, scan_reps, age_reps, offload_reps)`. Constants, never
/// scaled by wall time: `bench_compare` needs cross-run totals.
const SIZES: [(u32, u32, u32, u32); 3] = [
    (64 * 1024, 8000, 1600, 1200),
    (256 * 1024, 3200, 400, 320),
    (1024 * 1024, 800, 100, 80),
];

/// Fixed repetitions of the naive reference scan at 256k pages.
const NAIVE_REPS: u32 = 160;

/// Fixed repetitions of the whole-table range touch at 256k pages.
const TOUCH_REPS: u32 = 3200;

/// Fixed repetitions of the touch + promote + rollback cycle at 256k
/// pages.
const PROMOTE_REPS: u32 = 800;

struct Options {
    out_dir: Option<PathBuf>,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_mem [--check-speedup] [--out DIR]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        out_dir: None,
        check_speedup: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-speedup" => opts.check_speedup = true,
            "--out" => {
                let Some(dir) = args.next() else { usage() };
                opts.out_dir = Some(PathBuf::from(dir));
            }
            _ => usage(),
        }
    }
    opts
}

/// A freshly allocated table with every `HOT_STRIDE`th page hot.
fn build_table(pages: u32) -> (PageTable, PageRange) {
    let mut table = PageTable::new(PAGE_SIZE_4K);
    let range = table.alloc(Segment::Runtime, pages);
    touch_hot_set(&mut table, range);
    (table, range)
}

fn touch_hot_set(table: &mut PageTable, range: PageRange) {
    let mut id = range.start().0;
    while id < range.end().0 {
        table.touch(PageId(id));
        id += HOT_STRIDE as u32;
    }
}

fn touch_hot_set_ref(table: &mut ReferencePageTable, range: PageRange) {
    let mut id = range.start().0;
    while id < range.end().0 {
        table.touch(PageId(id));
        id += HOT_STRIDE as u32;
    }
}

/// Pages scanned per second by the bitmap path at the given size:
/// each rep re-touches the hot set, then drains it with a word-wise
/// scan into a reused buffer.
fn bitmap_scan(pages: u32, reps: u32, phase: &'static str, bench: &mut BenchRecorder) -> f64 {
    let (mut table, range) = build_table(pages);
    let mut out: Vec<PageId> = Vec::new();
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            table.scan_accessed_into(&mut out);
            black_box(out.len());
        }
    });
    pages as f64 * reps as f64 / secs
}

/// Pages scanned per second by the naive per-page reference walk.
fn reference_scan(pages: u32, reps: u32, phase: &'static str, bench: &mut BenchRecorder) -> f64 {
    let mut table = ReferencePageTable::new(PAGE_SIZE_4K);
    let range = table.alloc(Segment::Runtime, pages);
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            touch_hot_set_ref(&mut table, range);
            let hits = table.scan_accessed();
            black_box(hits.len());
        }
    });
    pages as f64 * reps as f64 / secs
}

/// Aging walk throughput: touch the hot set, then age the whole table.
fn bitmap_age(pages: u32, reps: u32, phase: &'static str, bench: &mut BenchRecorder) -> f64 {
    let (mut table, range) = build_table(pages);
    let mut out: Vec<PageId> = Vec::new();
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            table.age_and_collect_idle_into(u8::MAX, usize::MAX, &mut out);
            black_box(out.len());
        }
    });
    pages as f64 * reps as f64 / secs
}

/// Offload + page-in sweep throughput over a quarter of the table.
fn bitmap_offload_page_in(
    pages: u32,
    reps: u32,
    phase: &'static str,
    bench: &mut BenchRecorder,
) -> f64 {
    let (mut table, range) = build_table(pages);
    let window = range.take(range.len() / 4);
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            let out = table.offload_range(window);
            let back = table.page_in_range(window);
            black_box((out, back));
        }
    });
    window.len() as f64 * 2.0 * reps as f64 / secs
}

/// Range-touch throughput: every rep touches the whole table, the
/// per-request access path of the runtime and init segments.
fn bitmap_touch(pages: u32, reps: u32, phase: &'static str, bench: &mut BenchRecorder) -> f64 {
    let (mut table, range) = build_table(pages);
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            black_box(table.touch_range(range));
        }
    });
    pages as f64 * reps as f64 / secs
}

/// Fused promotion throughput over a fully barriered table (half
/// Runtime, half Init Pucket): each rep re-touches the hot set,
/// promotes it into the hot pool in one scan, then rolls the pool back
/// so the next rep promotes the same pages again.
fn bitmap_promote(pages: u32, reps: u32, phase: &'static str, bench: &mut BenchRecorder) -> f64 {
    let mut table = PageTable::new(PAGE_SIZE_4K);
    let mut puckets = Puckets::new();
    let runtime = table.alloc(Segment::Runtime, pages / 2);
    puckets.insert_runtime_init_barrier(&mut table);
    let init = table.alloc(Segment::Init, pages - pages / 2);
    puckets.insert_init_exec_barrier(&mut table);
    let range = PageRange::new(runtime.start(), runtime.len() + init.len());
    let ((), secs) = bench.time(phase, || {
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            black_box(puckets.promote_accessed(&mut table));
            black_box(puckets.rollback_hot_pool(&mut table));
        }
    });
    pages as f64 * reps as f64 / secs
}

fn fmt_throughput(pages_per_sec: f64) -> String {
    format!("{:.0} Mpages/s", pages_per_sec / 1e6)
}

fn main() {
    let opts = parse_args();
    let mut bench = BenchRecorder::new("mem_micro");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut scan_256k = 0.0;
    for &(pages, scan_reps, age_reps, offload_reps) in &SIZES {
        let label = if pages >= 1024 * 1024 {
            format!("{}M", pages / (1024 * 1024))
        } else {
            format!("{}k", pages / 1024)
        };
        // Phase names are static so the BENCH diff can match them
        // across runs.
        let (scan_phase, age_phase, offload_phase) = match pages {
            65_536 => ("scan_64k", "age_64k", "offload_page_in_64k"),
            262_144 => ("scan_256k", "age_256k", "offload_page_in_256k"),
            _ => ("scan_1m", "age_1m", "offload_page_in_1m"),
        };
        let scan = bitmap_scan(pages, scan_reps, scan_phase, &mut bench);
        let age = bitmap_age(pages, age_reps, age_phase, &mut bench);
        let sweep = bitmap_offload_page_in(pages, offload_reps, offload_phase, &mut bench);
        if pages == 262_144 {
            scan_256k = scan;
        }
        rows.push(vec![
            label,
            fmt_throughput(scan),
            fmt_throughput(age),
            fmt_throughput(sweep),
        ]);
    }

    let touch = bitmap_touch(262_144, TOUCH_REPS, "touch_256k", &mut bench);
    let promote = bitmap_promote(262_144, PROMOTE_REPS, "promote_256k", &mut bench);
    let naive = reference_scan(262_144, NAIVE_REPS, "naive_scan_256k", &mut bench);
    let speedup = scan_256k / naive;
    rows.push(vec![
        "256k (naive ref)".to_string(),
        fmt_throughput(naive),
        "-".to_string(),
        "-".to_string(),
    ]);

    print!(
        "{}",
        render_table(
            &["pages", "touch+scan", "touch+age", "offload+page_in"],
            &rows
        )
    );
    println!(
        "\n256k pages: touch_range {}, touch+promote+rollback {}",
        fmt_throughput(touch),
        fmt_throughput(promote)
    );
    println!("bitmap scan speedup over naive reference at 256k pages: {speedup:.1}x");

    if let Some(dir) = &opts.out_dir {
        match bench.write_bench(dir) {
            Ok(path) => eprintln!("[bench_mem] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_mem] could not write BENCH file under {}: {e}",
                    dir.display()
                );
                std::process::exit(2);
            }
        }
    }

    if opts.check_speedup && speedup < REQUIRED_SPEEDUP {
        eprintln!("bench_mem: scan speedup {speedup:.2}x below the required {REQUIRED_SPEEDUP}x");
        std::process::exit(1);
    }
}
