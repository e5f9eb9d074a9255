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
//!     --profile --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_mem_micro.json perf/BENCH_mem_micro.json --tolerance 0.25
//! ```
//!
//! Every phase runs a *fixed* number of repetitions so the per-phase
//! totals in `BENCH_mem_micro.json` are comparable across runs — the
//! CI perf job diffs them with `bench_compare` exactly like the grid
//! baselines. `--check-speedup` exits non-zero unless the bitmap scan
//! beats the reference walk by at least [`REQUIRED_SPEEDUP`]×.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use faasmem_bench::json::JsonValue;
use faasmem_bench::render_table;
use faasmem_core::Puckets;
use faasmem_mem::{PageId, PageRange, PageTable, ReferencePageTable, Segment, PAGE_SIZE_4K};
use faasmem_telemetry::profiler;

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
    out_dir: PathBuf,
    profile: bool,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_mem [--profile] [--check-speedup] [--out DIR]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        out_dir: PathBuf::from("."),
        profile: false,
        check_speedup: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => opts.profile = true,
            "--check-speedup" => opts.check_speedup = true,
            "--out" => {
                let Some(dir) = args.next() else { usage() };
                opts.out_dir = PathBuf::from(dir);
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
fn bitmap_scan(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let (mut table, range) = build_table(pages);
    let mut out: Vec<PageId> = Vec::new();
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            table.scan_accessed_into(&mut out);
            black_box(out.len());
        }
    }
    pages as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Pages scanned per second by the naive per-page reference walk.
fn reference_scan(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let mut table = ReferencePageTable::new(PAGE_SIZE_4K);
    let range = table.alloc(Segment::Runtime, pages);
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            touch_hot_set_ref(&mut table, range);
            let hits = table.scan_accessed();
            black_box(hits.len());
        }
    }
    pages as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Aging walk throughput: touch the hot set, then age the whole table.
fn bitmap_age(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let (mut table, range) = build_table(pages);
    let mut out: Vec<PageId> = Vec::new();
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            table.age_and_collect_idle_into(u8::MAX, &mut out);
            black_box(out.len());
        }
    }
    pages as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Offload + page-in sweep throughput over a quarter of the table.
fn bitmap_offload_page_in(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let (mut table, range) = build_table(pages);
    let window = range.take(range.len() / 4);
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            let out = table.offload_range(window);
            let back = table.page_in_range(window);
            black_box((out, back));
        }
    }
    window.len() as f64 * 2.0 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Range-touch throughput: every rep touches the whole table, the
/// per-request access path of the runtime and init segments.
fn bitmap_touch(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let (mut table, range) = build_table(pages);
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            black_box(table.touch_range(range));
        }
    }
    pages as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Fused promotion throughput over a fully barriered table (half
/// Runtime, half Init Pucket): each rep re-touches the hot set,
/// promotes it into the hot pool in one scan, then rolls the pool back
/// so the next rep promotes the same pages again.
fn bitmap_promote(pages: u32, reps: u32, phase: &'static str) -> f64 {
    let mut table = PageTable::new(PAGE_SIZE_4K);
    let mut puckets = Puckets::new();
    let runtime = table.alloc(Segment::Runtime, pages / 2);
    puckets.insert_runtime_init_barrier(&mut table);
    let init = table.alloc(Segment::Init, pages - pages / 2);
    puckets.insert_init_exec_barrier(&mut table);
    let range = PageRange::new(runtime.start(), runtime.len() + init.len());
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            touch_hot_set(&mut table, range);
            black_box(puckets.promote_accessed(&mut table));
            black_box(puckets.rollback_hot_pool(&mut table));
        }
    }
    pages as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

fn fmt_throughput(pages_per_sec: f64) -> String {
    format!("{:.0} Mpages/s", pages_per_sec / 1e6)
}

/// The `BENCH_mem_micro.json` document `bench_compare` diffs in CI.
fn bench_json(total_wall_secs: f64, phases: &[(&'static str, profiler::PhaseStat)]) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema_version", JsonValue::Num(1.0));
    doc.push("bench", JsonValue::Str("mem_micro".to_string()));
    doc.push("git_rev", JsonValue::Str(git_rev()));
    doc.push("total_wall_secs", JsonValue::Num(total_wall_secs));
    let phase_docs: Vec<JsonValue> = phases
        .iter()
        .map(|(name, stat)| {
            let mut p = JsonValue::obj();
            p.push("name", JsonValue::Str((*name).to_string()));
            p.push("calls", JsonValue::Num(stat.calls as f64));
            p.push("total_secs", JsonValue::Num(stat.total_secs));
            p.push("self_secs", JsonValue::Num(stat.self_secs));
            p
        })
        .collect();
    doc.push("phases", JsonValue::Arr(phase_docs));
    doc
}

/// The checked-out short revision, for provenance. Best-effort:
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_bench(dir: &Path, doc: &JsonValue) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_mem_micro.json");
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

fn main() {
    let opts = parse_args();
    profiler::set_enabled(true);
    let started = Instant::now();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut scan_256k = 0.0;
    for &(pages, scan_reps, age_reps, offload_reps) in &SIZES {
        let label = if pages >= 1024 * 1024 {
            format!("{}M", pages / (1024 * 1024))
        } else {
            format!("{}k", pages / 1024)
        };
        // Phase names are static so the profiler (and the BENCH diff)
        // can aggregate across runs.
        let (scan_phase, age_phase, offload_phase) = match pages {
            65_536 => ("scan_64k", "age_64k", "offload_page_in_64k"),
            262_144 => ("scan_256k", "age_256k", "offload_page_in_256k"),
            _ => ("scan_1m", "age_1m", "offload_page_in_1m"),
        };
        let scan = bitmap_scan(pages, scan_reps, scan_phase);
        let age = bitmap_age(pages, age_reps, age_phase);
        let sweep = bitmap_offload_page_in(pages, offload_reps, offload_phase);
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

    let touch = bitmap_touch(262_144, TOUCH_REPS, "touch_256k");
    let promote = bitmap_promote(262_144, PROMOTE_REPS, "promote_256k");
    let naive = reference_scan(262_144, NAIVE_REPS, "naive_scan_256k");
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

    profiler::set_enabled(false);
    let phases = profiler::take_report();
    let total_wall_secs = started.elapsed().as_secs_f64();
    if opts.profile {
        let doc = bench_json(total_wall_secs, &phases);
        match write_bench(&opts.out_dir, &doc) {
            Ok(path) => eprintln!("[bench_mem] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_mem] could not write BENCH file under {}: {e}",
                    opts.out_dir.display()
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
