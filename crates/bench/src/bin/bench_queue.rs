//! Micro-benchmark of the calendar-bucket event queue.
//!
//! Races [`EventQueue`] (the calendar queue every simulation drains)
//! against [`ReferenceEventQueue`] (the retired binary heap it
//! replaced) at 64k, 1M and 10M events across three timestamp mixes:
//!
//! - **clustered** — bursts of same-instant events on a fixed cadence,
//!   pushed as groups through `push_at_many`: the Tick-cadence,
//!   same-instant-burst shape of a FaaSMem run.
//! - **uniform** — independent uniform timestamps, the classic
//!   calendar-queue sort benchmark.
//! - **bimodal** — half near-term, half far-future, stressing the
//!   overflow tier and the self-tuning re-layout.
//!
//! Each run pushes the prepared population and drains it dry ("sort"
//! mode), plus a steady-state hold/churn phase (pop one, push one at a
//! later time) at the 1M size, and a seeded-hour phase: a queue
//! pre-sized before it saw any event is seeded with an hour of sorted
//! arrivals and drained while every arrival schedules follow-ups 200 ms
//! and 10 min ahead. That is the event-loop shape of a whole trace
//! seeded up front, which the span-less layout turns quadratic unless
//! the queue re-lays out. Every phase runs a *fixed* number of
//! repetitions so the per-phase totals in `BENCH_queue.json` (written
//! when `--out DIR` is given) are comparable across runs — the CI perf
//! job diffs them with `bench_compare`.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_queue -- \
//!     --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_queue.json perf/BENCH_queue.json --tolerance 0.25
//! ```
//!
//! Every phase also reports each queue's high-water
//! `allocated_bytes()`; only the timings go into `BENCH_queue.json`.
//!
//! `--check-speedup` exits non-zero unless the calendar queue beats the
//! heap by at least [`REQUIRED_SPEEDUP`]× on the clustered mix at 1M
//! events and by [`REQUIRED_SEEDED_SPEEDUP`]× on the seeded hour, and
//! retains at most [`MAX_MEMORY_RATIO`]× the heap's bytes on the churn
//! and seeded-hour phases.

use std::hint::black_box;
use std::path::PathBuf;

use faasmem_bench::perf::BenchRecorder;
use faasmem_bench::render_table;
use faasmem_sim::{EventQueue, ReferenceEventQueue, SimDuration, SimRng, SimTime};

/// Minimum calendar-vs-heap throughput ratio `--check-speedup` enforces
/// (clustered mix, 1M events).
const REQUIRED_SPEEDUP: f64 = 2.0;

/// Minimum calendar-vs-heap throughput ratio `--check-speedup` enforces
/// on the seeded hour: never slower than the heap.
const REQUIRED_SEEDED_SPEEDUP: f64 = 1.0;

/// Most bytes the calendar queue may retain per byte the heap retains,
/// which `--check-speedup` enforces on the churn and seeded-hour phases.
const MAX_MEMORY_RATIO: usize = 2;

/// Same-instant burst width of the clustered mix.
const BURST: usize = 64;

/// Microseconds between clustered bursts (the Tick-like cadence).
const BURST_STEP_US: u64 = 1_000;

/// The population sizes exercised, with fixed sort-mode repetition
/// counts `(events, reps)`. Constants, never scaled by wall time:
/// `bench_compare` needs cross-run totals.
const SIZES: [(usize, u32); 3] = [(64 * 1024, 8), (1 << 20, 2), (10 << 20, 1)];

/// Pop-one/push-one operations per churn repetition (hold model).
const CHURN_OPS: usize = 1 << 20;

/// Events resident during the churn phase.
const CHURN_HOLD: usize = 64 * 1024;

/// Arrivals seeded into the pre-sized queue of the seeded-hour phase.
const SEEDED_ARRIVALS: u32 = 64 * 1024;

/// Fixed repetitions of the seeded-hour phase.
const SEEDED_REPS: u32 = 16;

/// Span of the seeded arrivals, in milliseconds.
const HOUR_MS: u64 = 3_600_000;

struct Options {
    out_dir: Option<PathBuf>,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_queue [--check-speedup] [--out DIR]");
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

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Clustered,
    Uniform,
    Bimodal,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Clustered => "clustered",
            Mix::Uniform => "uniform",
            Mix::Bimodal => "bimodal",
        }
    }
}

/// The prepared timestamp population for one (mix, size) cell, in push
/// order. Clustered times come as ascending same-instant runs (pushed
/// as groups); the other mixes are fully shuffled single pushes.
fn make_times(mix: Mix, n: usize) -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xFAA5_0000 + n as u64);
    match mix {
        Mix::Clustered => (0..n).map(|i| (i / BURST) as u64 * BURST_STEP_US).collect(),
        Mix::Uniform => {
            let span = n as u64 * 100;
            (0..n).map(|_| rng.below(span)).collect()
        }
        Mix::Bimodal => {
            let span = n as u64 * 100;
            (0..n)
                .map(|_| {
                    if rng.chance(0.5) {
                        rng.below(span / 100)
                    } else {
                        span - span / 100 + rng.below(span / 100)
                    }
                })
                .collect()
        }
    }
}

/// The two queues under test, driven through the same scripts.
trait BenchQueue {
    fn with_capacity(capacity: usize) -> Self;
    fn push(&mut self, at: SimTime, event: u32);
    fn push_at_many(&mut self, at: SimTime, events: impl IntoIterator<Item = u32>);
    fn pop(&mut self) -> Option<(SimTime, u32)>;
    fn len(&self) -> usize;
    fn allocated_bytes(&self) -> usize;
}

impl BenchQueue for EventQueue<u32> {
    fn with_capacity(capacity: usize) -> Self {
        EventQueue::with_capacity(capacity)
    }
    fn push(&mut self, at: SimTime, event: u32) {
        EventQueue::push(self, at, event);
    }
    fn push_at_many(&mut self, at: SimTime, events: impl IntoIterator<Item = u32>) {
        EventQueue::push_at_many(self, at, events);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        EventQueue::pop(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn allocated_bytes(&self) -> usize {
        EventQueue::allocated_bytes(self)
    }
}

impl BenchQueue for ReferenceEventQueue<u32> {
    fn with_capacity(capacity: usize) -> Self {
        ReferenceEventQueue::with_capacity(capacity)
    }
    fn push(&mut self, at: SimTime, event: u32) {
        ReferenceEventQueue::push(self, at, event);
    }
    fn push_at_many(&mut self, at: SimTime, events: impl IntoIterator<Item = u32>) {
        ReferenceEventQueue::push_at_many(self, at, events);
    }
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        ReferenceEventQueue::pop(self)
    }
    fn len(&self) -> usize {
        ReferenceEventQueue::len(self)
    }
    fn allocated_bytes(&self) -> usize {
        ReferenceEventQueue::allocated_bytes(self)
    }
}

/// One phase's result: events per second, and the queue's high-water
/// [`BenchQueue::allocated_bytes`] (neither queue ever gives capacity
/// back, so the value after the phase is its high-water mark).
struct Run {
    rate: f64,
    bytes: usize,
}

/// Pushes the whole population and drains it dry. Clustered runs use
/// the grouped path.
fn sort<Q: BenchQueue>(
    times: &[u64],
    reps: u32,
    grouped: bool,
    phase: &'static str,
    bench: &mut BenchRecorder,
) -> Run {
    let (bytes, secs) = bench.time(phase, || {
        let mut bytes = 0;
        for _ in 0..reps {
            let mut q = Q::with_capacity(times.len());
            push_all(&mut q, times, grouped);
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n);
            bytes = bytes.max(q.allocated_bytes());
        }
        bytes
    });
    Run {
        rate: times.len() as f64 * reps as f64 / secs,
        bytes,
    }
}

fn push_all<Q: BenchQueue>(q: &mut Q, times: &[u64], grouped: bool) {
    if grouped {
        // Same-instant runs land as one group each.
        let mut i = 0;
        while i < times.len() {
            let t = times[i];
            let run = times[i..].iter().take_while(|&&x| x == t).count();
            q.push_at_many(SimTime::from_micros(t), (i..i + run).map(|j| j as u32));
            i += run;
        }
    } else {
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i as u32);
        }
    }
}

/// Steady-state hold model: the queue holds [`CHURN_HOLD`] events while
/// [`CHURN_OPS`] pop-one/push-one operations stream through, each
/// reinsertion a bounded step past the popped time (the event-loop
/// shape: a handler schedules its follow-up). Deltas are precomputed so
/// both queues replay the identical script.
fn churn_deltas() -> Vec<u64> {
    let mut rng = SimRng::seed_from(0xC0DE_CAFE);
    (0..CHURN_OPS)
        .map(|_| rng.below(BURST_STEP_US * 64) + 1)
        .collect()
}

fn churn<Q: BenchQueue>(deltas: &[u64], phase: &'static str, bench: &mut BenchRecorder) -> Run {
    let mut q = Q::with_capacity(CHURN_HOLD);
    for i in 0..CHURN_HOLD {
        q.push(
            SimTime::from_micros((i / BURST) as u64 * BURST_STEP_US),
            i as u32,
        );
    }
    let ((), secs) = bench.time(phase, || {
        for &d in deltas {
            let (at, ev) = q.pop().expect("hold population never drains");
            q.push(at + SimDuration::from_micros(d), ev);
        }
    });
    black_box(q.len());
    Run {
        rate: deltas.len() as f64 / secs,
        bytes: q.allocated_bytes(),
    }
}

/// The seeded-hour arrival times, sorted, at millisecond granularity so
/// same-instant bursts occur and seed as groups.
fn seeded_hour_times() -> Vec<u64> {
    let mut rng = SimRng::seed_from(0x5EED_0001);
    let mut times: Vec<u64> = (0..SEEDED_ARRIVALS)
        .map(|_| rng.below(HOUR_MS) * 1_000)
        .collect();
    times.sort_unstable();
    times
}

/// The follow-ups an arrival schedules: one 200 ms ahead, and every
/// eighth arrival one more 10 min ahead. Follow-ups schedule nothing,
/// so the drain terminates.
fn follow_ups(at: SimTime, payload: u32) -> impl Iterator<Item = (SimTime, u32)> {
    let arrival = payload < SEEDED_ARRIVALS;
    let near = arrival.then_some((
        at + SimDuration::from_millis(200),
        SEEDED_ARRIVALS + payload,
    ));
    let far = (arrival && payload.is_multiple_of(8)).then_some((
        at + SimDuration::from_mins(10),
        2 * SEEDED_ARRIVALS + payload,
    ));
    near.into_iter().chain(far)
}

/// Pops from a queue pre-sized for four events per arrival
/// (`with_capacity` on an empty queue: no span to tune from), seeded
/// with the hour and drained with follow-ups.
fn seeded_hour<Q: BenchQueue>(
    times: &[u64],
    phase: &'static str,
    bench: &mut BenchRecorder,
) -> Run {
    let ((popped, bytes), secs) = bench.time(phase, || {
        let (mut popped, mut bytes) = (0u64, 0);
        for _ in 0..SEEDED_REPS {
            let mut q = Q::with_capacity(times.len() * 4);
            push_all(&mut q, times, true);
            while let Some((at, payload)) = q.pop() {
                popped += 1;
                for (t, e) in follow_ups(at, payload) {
                    q.push(t, e);
                }
            }
            bytes = bytes.max(q.allocated_bytes());
        }
        (popped, bytes)
    });
    Run {
        rate: popped as f64 / secs,
        bytes,
    }
}

fn fmt_rate(events_per_sec: f64) -> String {
    format!("{:.1} Mev/s", events_per_sec / 1e6)
}

fn size_label(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{}M", n >> 20)
    } else {
        format!("{}k", n >> 10)
    }
}

/// Static phase names per (impl, mix, size), so the BENCH diff matches
/// them across runs.
fn phase_names(mix: Mix, n: usize) -> (&'static str, &'static str) {
    match (mix, n) {
        (Mix::Clustered, 65_536) => ("cal_clustered_64k", "heap_clustered_64k"),
        (Mix::Clustered, 1_048_576) => ("cal_clustered_1m", "heap_clustered_1m"),
        (Mix::Clustered, _) => ("cal_clustered_10m", "heap_clustered_10m"),
        (Mix::Uniform, 65_536) => ("cal_uniform_64k", "heap_uniform_64k"),
        (Mix::Uniform, 1_048_576) => ("cal_uniform_1m", "heap_uniform_1m"),
        (Mix::Uniform, _) => ("cal_uniform_10m", "heap_uniform_10m"),
        (Mix::Bimodal, 65_536) => ("cal_bimodal_64k", "heap_bimodal_64k"),
        (Mix::Bimodal, 1_048_576) => ("cal_bimodal_1m", "heap_bimodal_1m"),
        (Mix::Bimodal, _) => ("cal_bimodal_10m", "heap_bimodal_10m"),
    }
}

/// One table row: the mix, its size, and both queues' rates and
/// retained bytes.
fn row(label: &str, events: usize, cal: &Run, heap: &Run) -> Vec<String> {
    vec![
        label.to_string(),
        size_label(events),
        fmt_rate(cal.rate),
        fmt_rate(heap.rate),
        format!("{:.1}x", cal.rate / heap.rate),
        fmt_bytes(cal.bytes),
        fmt_bytes(heap.bytes),
    ]
}

fn fmt_bytes(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
}

fn main() {
    let opts = parse_args();
    let mut bench = BenchRecorder::new("queue");

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_speedup = 0.0;
    for mix in [Mix::Clustered, Mix::Uniform, Mix::Bimodal] {
        for &(n, reps) in &SIZES {
            let times = make_times(mix, n);
            let grouped = mix == Mix::Clustered;
            let (cal_phase, heap_phase) = phase_names(mix, n);
            let cal = sort::<EventQueue<u32>>(&times, reps, grouped, cal_phase, &mut bench);
            let heap =
                sort::<ReferenceEventQueue<u32>>(&times, reps, grouped, heap_phase, &mut bench);
            if mix == Mix::Clustered && n == 1 << 20 {
                gate_speedup = cal.rate / heap.rate;
            }
            rows.push(row(mix.name(), n, &cal, &heap));
        }
    }

    let deltas = churn_deltas();
    let churn_cal = churn::<EventQueue<u32>>(&deltas, "cal_churn_1m", &mut bench);
    let churn_heap = churn::<ReferenceEventQueue<u32>>(&deltas, "heap_churn_1m", &mut bench);
    rows.push(row("churn (hold 64k)", CHURN_OPS, &churn_cal, &churn_heap));

    let times = seeded_hour_times();
    let seeded_cal = seeded_hour::<EventQueue<u32>>(&times, "cal_seeded_hour", &mut bench);
    let seeded_heap =
        seeded_hour::<ReferenceEventQueue<u32>>(&times, "heap_seeded_hour", &mut bench);
    let seeded_speedup = seeded_cal.rate / seeded_heap.rate;
    rows.push(row(
        "seeded hour (pre-sized)",
        SEEDED_ARRIVALS as usize,
        &seeded_cal,
        &seeded_heap,
    ));

    print!(
        "{}",
        render_table(
            &[
                "mix",
                "events",
                "calendar",
                "heap",
                "speedup",
                "calendar mem",
                "heap mem"
            ],
            &rows
        )
    );
    println!("\ncalendar speedup over heap on the clustered 1M mix: {gate_speedup:.1}x");
    println!("calendar speedup over heap on the seeded hour: {seeded_speedup:.1}x");

    if let Some(dir) = &opts.out_dir {
        match bench.write_bench(dir) {
            Ok(path) => eprintln!("[bench_queue] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_queue] could not write BENCH file under {}: {e}",
                    dir.display()
                );
                std::process::exit(2);
            }
        }
    }

    if opts.check_speedup {
        let mut failed = false;
        if gate_speedup < REQUIRED_SPEEDUP {
            eprintln!(
                "bench_queue: clustered-1M speedup {gate_speedup:.2}x below the required {REQUIRED_SPEEDUP}x"
            );
            failed = true;
        }
        if seeded_speedup < REQUIRED_SEEDED_SPEEDUP {
            eprintln!(
                "bench_queue: seeded-hour speedup {seeded_speedup:.2}x below the required {REQUIRED_SEEDED_SPEEDUP}x"
            );
            failed = true;
        }
        for (phase, cal, heap) in [
            ("churn", &churn_cal, &churn_heap),
            ("seeded-hour", &seeded_cal, &seeded_heap),
        ] {
            if cal.bytes > MAX_MEMORY_RATIO * heap.bytes {
                eprintln!(
                    "bench_queue: {phase} calendar retains {} against the heap's {}, over {MAX_MEMORY_RATIO}x",
                    fmt_bytes(cal.bytes),
                    fmt_bytes(heap.bytes)
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
