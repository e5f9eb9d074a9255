//! Micro-benchmark of the data-oriented `PageTable` kernels, each raced
//! against the naive per-page [`ReferencePageTable`] in the same process.
//!
//! Every kernel the policies lean on runs on both tables at
//! [`PAGES`] pages: the access-bit scan, the request-path range touch,
//! the offload + page-in sweep, the aging walk, and the fused hot-pool
//! promotion with its rollback. After each race the two tables must
//! agree on what the kernel returned and on their local, remote and
//! hot-pool page counts, so each ratio compares equal work.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_mem
//! ```
//!
//! Both sides of a race run back to back in one process, so their
//! throughput ratio cancels the speed of the machine, which a wall-clock
//! baseline from another run cannot. The binary exits 1 when any ratio
//! falls below its kernel's floor in [`RACES`], and panics when the
//! tables disagree.

use std::hint::black_box;
use std::time::Instant;

use faasmem_bench::render_table;
use faasmem_mem::{
    PageId, PageRange, PageTable, PromoteSummary, ReferencePageTable, Segment, TouchOutcome,
    PAGE_SIZE_4K,
};

/// Pages in each raced table.
const PAGES: u32 = 256 * 1024;

/// Every Nth page is hot: sparse enough that the word-wise kernels must
/// visit most words (no all-zero skipping windfall), dense enough to
/// model a realistic resident working set.
const HOT_STRIDE: u32 = 32;

/// Timed batches per side. A side's time is its fastest batch, and the
/// two sides alternate, so a burst of load from a neighbour slows one
/// batch rather than the ratio.
const BATCHES: u32 = 5;

/// The races, each with its repetitions per batch on the bitmap table
/// and on the reference, and the floor its throughput ratio must clear.
/// Each floor is at most two thirds of the lowest ratio seen over 65
/// runs on a shared 2-core x86-64 box (CHANGES.md lists them). Aging
/// gains little from the bitmaps, since nearly every page is idle and
/// visited one by one, so its floor is below 1.
const RACES: [Race; 5] = [
    Race {
        kernel: Kernel::Scan,
        reps: 200,
        reference_reps: 40,
        floor: 3.0,
    },
    Race {
        kernel: Kernel::Touch,
        reps: 800,
        reference_reps: 40,
        floor: 12.0,
    },
    Race {
        kernel: Kernel::OffloadPageIn,
        reps: 600,
        reference_reps: 40,
        floor: 9.0,
    },
    Race {
        kernel: Kernel::Age,
        reps: 40,
        reference_reps: 30,
        floor: 0.45,
    },
    Race {
        kernel: Kernel::Promote,
        reps: 160,
        reference_reps: 30,
        floor: 2.3,
    },
];

/// One raced kernel.
struct Race {
    kernel: Kernel,
    reps: u32,
    reference_reps: u32,
    floor: f64,
}

/// The page-table kernels the races time.
#[derive(Debug, Clone, Copy)]
enum Kernel {
    /// Touch the hot set, then drain the Access bits.
    Scan,
    /// Touch every page of the table.
    Touch,
    /// Offload the first quarter of the table, then page it back in.
    OffloadPageIn,
    /// Touch the hot set, then age every page and collect the idle ones.
    Age,
    /// Touch the hot set, promote it into the hot pool, then roll the
    /// pool back so the next repetition promotes the same pages again.
    Promote,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Scan => "touch+scan",
            Kernel::Touch => "touch_range",
            Kernel::OffloadPageIn => "offload+page_in",
            Kernel::Age => "touch+age",
            Kernel::Promote => "touch+promote+rollback",
        }
    }

    /// Pages one repetition processes, for the throughput column.
    fn pages(self) -> u32 {
        match self {
            Kernel::OffloadPageIn => PAGES / 4 * 2,
            _ => PAGES,
        }
    }

    /// Runs one repetition on `table`, whose pages are `range`. The
    /// id-collecting kernels leave their ids in `ids`.
    fn run<T: Table>(self, table: &mut T, range: PageRange, ids: &mut Vec<PageId>) -> Returned {
        match self {
            Kernel::Scan => {
                touch_hot_set(table, range);
                table.scan_accessed_into(ids);
                Returned::Ids
            }
            Kernel::Touch => Returned::Touched(table.touch_range(range)),
            Kernel::OffloadPageIn => {
                let window = range.take(range.len() / 4);
                Returned::Moved {
                    offloaded: table.offload_range(window),
                    paged_in: table.page_in_range(window),
                }
            }
            Kernel::Age => {
                touch_hot_set(table, range);
                // Threshold 1 collects every page the repetition left
                // idle, so each repetition after the first does the same
                // work.
                table.age_and_collect_idle_into(1, ids);
                Returned::Ids
            }
            Kernel::Promote => {
                touch_hot_set(table, range);
                // The Runtime half holds generation 0 and the Init half
                // generation 1 (see `Side::new`).
                let promoted = table.promote_accessed(1, 2);
                Returned::Promoted(promoted, table.clear_local_hot_pool())
            }
        }
    }
}

/// What one repetition of a kernel returned; the id-collecting kernels
/// also leave their ids in their side's buffer.
#[derive(Debug, PartialEq)]
enum Returned {
    Ids,
    Touched(TouchOutcome),
    Moved { offloaded: u32, paged_in: u32 },
    Promoted(PromoteSummary, u32),
}

/// The page-table API the races drive. [`PageTable`] and
/// [`ReferencePageTable`] share it method for method; the id-collecting
/// kernels fill a caller-owned buffer, in place on the bitmap table.
trait Table {
    fn new() -> Self;
    fn alloc(&mut self, segment: Segment, count: u32) -> PageRange;
    fn create_generation(&mut self);
    fn touch(&mut self, id: PageId) -> bool;
    fn touch_range(&mut self, range: PageRange) -> TouchOutcome;
    fn offload_range(&mut self, range: PageRange) -> u32;
    fn page_in_range(&mut self, range: PageRange) -> u32;
    fn scan_accessed_into(&mut self, out: &mut Vec<PageId>);
    fn age_and_collect_idle_into(&mut self, idle_threshold: u8, out: &mut Vec<PageId>);
    fn promote_accessed(&mut self, runtime_end: u32, init_end: u32) -> PromoteSummary;
    fn clear_local_hot_pool(&mut self) -> u32;
    /// Local, remote and local hot-pool pages.
    fn counts(&self) -> [u64; 3];
}

/// The [`Table`] methods both tables implement by the same name.
macro_rules! shared_table_api {
    ($table:ty) => {
        fn new() -> Self {
            <$table>::new(PAGE_SIZE_4K)
        }
        fn alloc(&mut self, segment: Segment, count: u32) -> PageRange {
            <$table>::alloc(self, segment, count)
        }
        fn create_generation(&mut self) {
            <$table>::create_generation(self);
        }
        fn touch(&mut self, id: PageId) -> bool {
            <$table>::touch(self, id)
        }
        fn touch_range(&mut self, range: PageRange) -> TouchOutcome {
            <$table>::touch_range(self, range)
        }
        fn offload_range(&mut self, range: PageRange) -> u32 {
            <$table>::offload_range(self, range)
        }
        fn page_in_range(&mut self, range: PageRange) -> u32 {
            <$table>::page_in_range(self, range)
        }
        fn promote_accessed(&mut self, runtime_end: u32, init_end: u32) -> PromoteSummary {
            <$table>::promote_accessed(self, runtime_end, init_end)
        }
        fn clear_local_hot_pool(&mut self) -> u32 {
            <$table>::clear_local_hot_pool(self)
        }
        fn counts(&self) -> [u64; 3] {
            [
                self.local_pages(),
                self.remote_pages(),
                self.hot_local_pages(),
            ]
        }
    };
}

impl Table for PageTable {
    shared_table_api!(PageTable);

    fn scan_accessed_into(&mut self, out: &mut Vec<PageId>) {
        PageTable::scan_accessed_into(self, out);
    }

    fn age_and_collect_idle_into(&mut self, idle_threshold: u8, out: &mut Vec<PageId>) {
        PageTable::age_and_collect_idle_into(self, idle_threshold, usize::MAX, out);
    }
}

impl Table for ReferencePageTable {
    shared_table_api!(ReferencePageTable);

    fn scan_accessed_into(&mut self, out: &mut Vec<PageId>) {
        *out = self.scan_accessed();
    }

    fn age_and_collect_idle_into(&mut self, idle_threshold: u8, out: &mut Vec<PageId>) {
        *out = self.age_and_collect_idle(idle_threshold);
    }
}

fn touch_hot_set<T: Table>(table: &mut T, range: PageRange) {
    for id in (range.start().0..range.end().0).step_by(HOT_STRIDE as usize) {
        table.touch(PageId(id));
    }
}

/// One side of a race: a table laid out like one container (a Runtime
/// half, the Runtime-Init barrier, an Init half, the Init-Exec barrier),
/// its id buffer, and what its latest repetition returned.
struct Side<T> {
    table: T,
    range: PageRange,
    ids: Vec<PageId>,
    last: Returned,
}

impl<T: Table> Side<T> {
    /// Builds the table and runs one untimed repetition, which brings it
    /// to the state every timed repetition starts from.
    fn new(kernel: Kernel) -> Self {
        let mut table = T::new();
        let runtime = table.alloc(Segment::Runtime, PAGES / 2);
        table.create_generation();
        table.alloc(Segment::Init, PAGES - PAGES / 2);
        table.create_generation();
        let range = PageRange::new(runtime.start(), PAGES);
        touch_hot_set(&mut table, range);
        let mut ids = Vec::new();
        let last = kernel.run(&mut table, range, &mut ids);
        Side {
            table,
            range,
            ids,
            last,
        }
    }

    /// Seconds `reps` repetitions of `kernel` take.
    fn time(&mut self, kernel: Kernel, reps: u32) -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            self.last = black_box(kernel.run(&mut self.table, self.range, &mut self.ids));
        }
        start.elapsed().as_secs_f64()
    }
}

/// Repetitions per second of each side, after checking both sides did
/// the same work.
fn race(r: &Race) -> (f64, f64) {
    let mut bitmap = Side::<PageTable>::new(r.kernel);
    let mut reference = Side::<ReferencePageTable>::new(r.kernel);
    let (mut bitmap_secs, mut reference_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        bitmap_secs = bitmap_secs.min(bitmap.time(r.kernel, r.reps));
        reference_secs = reference_secs.min(reference.time(r.kernel, r.reference_reps));
    }
    let name = r.kernel.name();
    assert_eq!(
        bitmap.last, reference.last,
        "{name}: returned values differ"
    );
    assert!(bitmap.ids == reference.ids, "{name}: collected ids differ");
    assert_eq!(
        bitmap.table.counts(),
        reference.table.counts(),
        "{name}: local/remote/hot page counts differ"
    );
    (
        f64::from(r.reps) / bitmap_secs,
        f64::from(r.reference_reps) / reference_secs,
    )
}

fn fmt_throughput(pages_per_sec: f64) -> String {
    format!("{:.0} Mpages/s", pages_per_sec / 1e6)
}

fn main() {
    let mut rows = Vec::new();
    let mut slow = Vec::new();
    for r in &RACES {
        let (bitmap, reference) = race(r);
        let ratio = bitmap / reference;
        let pages = f64::from(r.kernel.pages());
        rows.push(vec![
            r.kernel.name().to_string(),
            fmt_throughput(bitmap * pages),
            fmt_throughput(reference * pages),
            format!("{ratio:.1}x"),
            format!("{}x", r.floor),
        ]);
        if ratio < r.floor {
            slow.push(format!(
                "{} {ratio:.2}x below its {}x floor",
                r.kernel.name(),
                r.floor
            ));
        }
    }
    println!("{PAGES} pages per table");
    print!(
        "{}",
        render_table(&["kernel", "bitmap", "reference", "ratio", "floor"], &rows)
    );
    if !slow.is_empty() {
        eprintln!("bench_mem: {}", slow.join("; "));
        std::process::exit(1);
    }
}
