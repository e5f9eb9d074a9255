//! Micro-benchmark of the calendar-bucket event queue.
//!
//! Races [`EventQueue`] (the calendar queue every simulation drains)
//! against [`ReferenceEventQueue`] (the retired binary heap it
//! replaced) at 64k, 1M and 10M events across three timestamp mixes:
//!
//! - **clustered** — bursts of same-instant events on a fixed cadence,
//!   pushed as groups: the FaaSMem shape (Tick cadence, bursty traces
//!   seeded via `push_at_many`).
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
//! repetitions so the per-phase totals in `BENCH_queue.json` are
//! comparable across runs — the CI perf job diffs them with
//! `bench_compare` like the grid baselines.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin bench_queue -- \
//!     --profile --check-speedup --out perf
//! cargo run --release -p faasmem-bench --bin bench_compare -- \
//!     BENCH_queue.json perf/BENCH_queue.json --tolerance 0.25
//! ```
//!
//! `--check-speedup` exits non-zero unless the calendar queue beats the
//! heap by at least [`REQUIRED_SPEEDUP`]× on the clustered mix at 1M
//! events and by [`REQUIRED_SEEDED_SPEEDUP`]× on the seeded hour.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use faasmem_bench::json::JsonValue;
use faasmem_bench::render_table;
use faasmem_sim::{EventQueue, ReferenceEventQueue, SimDuration, SimRng, SimTime};
use faasmem_telemetry::profiler;

/// Minimum calendar-vs-heap throughput ratio `--check-speedup` enforces
/// (clustered mix, 1M events).
const REQUIRED_SPEEDUP: f64 = 2.0;

/// Minimum calendar-vs-heap throughput ratio `--check-speedup` enforces
/// on the seeded hour: never slower than the heap.
const REQUIRED_SEEDED_SPEEDUP: f64 = 1.0;

/// Same-instant burst width of the clustered mix.
const BURST: usize = 64;

/// Microseconds between clustered bursts (the Tick-like cadence).
const BURST_STEP_US: u64 = 1_000;

/// The population sizes exercised, with fixed sort-mode repetition
/// counts `(events, reps)`. Constants, never scaled by wall time:
/// `bench_compare` needs cross-run totals.
const SIZES: [(usize, u32); 3] = [(64 * 1024, 8), (1 << 20, 2), (10 << 20, 1)];

/// Pop-one/push-one operations per churn reptition (hold model).
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
    out_dir: PathBuf,
    profile: bool,
    check_speedup: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_queue [--profile] [--check-speedup] [--out DIR]");
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

/// Events per second pushing the whole population and draining it dry
/// through the calendar queue. Clustered runs use the grouped path.
fn calendar_sort(times: &[u64], reps: u32, grouped: bool, phase: &'static str) -> f64 {
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(times.len());
            push_all_calendar(&mut q, times, grouped);
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n);
        }
    }
    times.len() as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

/// Events per second for the same script through the heap reference.
fn heap_sort(times: &[u64], reps: u32, grouped: bool, phase: &'static str) -> f64 {
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for _ in 0..reps {
            let mut q: ReferenceEventQueue<u32> = ReferenceEventQueue::with_capacity(times.len());
            push_all_heap(&mut q, times, grouped);
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n);
        }
    }
    times.len() as f64 * reps as f64 / start.elapsed().as_secs_f64()
}

fn push_all_calendar(q: &mut EventQueue<u32>, times: &[u64], grouped: bool) {
    if grouped {
        // Same-instant runs land as one group each, like trace seeding.
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

fn push_all_heap(q: &mut ReferenceEventQueue<u32>, times: &[u64], grouped: bool) {
    if grouped {
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

fn calendar_churn(deltas: &[u64], phase: &'static str) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(CHURN_HOLD);
    for i in 0..CHURN_HOLD {
        q.push(
            SimTime::from_micros((i / BURST) as u64 * BURST_STEP_US),
            i as u32,
        );
    }
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for &d in deltas {
            let (at, ev) = q.pop().expect("hold population never drains");
            q.push(at + SimDuration::from_micros(d), ev);
        }
    }
    let rate = deltas.len() as f64 / start.elapsed().as_secs_f64();
    black_box(q.len());
    rate
}

fn heap_churn(deltas: &[u64], phase: &'static str) -> f64 {
    let mut q: ReferenceEventQueue<u32> = ReferenceEventQueue::with_capacity(CHURN_HOLD);
    for i in 0..CHURN_HOLD {
        q.push(
            SimTime::from_micros((i / BURST) as u64 * BURST_STEP_US),
            i as u32,
        );
    }
    let start = Instant::now();
    {
        let _guard = profiler::enter(phase);
        for &d in deltas {
            let (at, ev) = q.pop().expect("hold population never drains");
            q.push(at + SimDuration::from_micros(d), ev);
        }
    }
    let rate = deltas.len() as f64 / start.elapsed().as_secs_f64();
    black_box(q.len());
    rate
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

/// Events per second popped from a queue pre-sized for four events per
/// arrival (`with_capacity` on an empty queue: no span to tune from),
/// seeded with the hour and drained with follow-ups.
fn calendar_seeded_hour(times: &[u64], phase: &'static str) -> f64 {
    let start = Instant::now();
    let mut popped = 0u64;
    {
        let _guard = profiler::enter(phase);
        for _ in 0..SEEDED_REPS {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(times.len() * 4);
            push_all_calendar(&mut q, times, true);
            while let Some((at, payload)) = q.pop() {
                popped += 1;
                for (t, e) in follow_ups(at, payload) {
                    q.push(t, e);
                }
            }
        }
    }
    popped as f64 / start.elapsed().as_secs_f64()
}

/// The seeded-hour script through the heap reference.
fn heap_seeded_hour(times: &[u64], phase: &'static str) -> f64 {
    let start = Instant::now();
    let mut popped = 0u64;
    {
        let _guard = profiler::enter(phase);
        for _ in 0..SEEDED_REPS {
            let mut q: ReferenceEventQueue<u32> =
                ReferenceEventQueue::with_capacity(times.len() * 4);
            push_all_heap(&mut q, times, true);
            while let Some((at, payload)) = q.pop() {
                popped += 1;
                for (t, e) in follow_ups(at, payload) {
                    q.push(t, e);
                }
            }
        }
    }
    popped as f64 / start.elapsed().as_secs_f64()
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

/// Static phase names per (impl, mix, size), so the profiler and the
/// BENCH diff aggregate identically across runs.
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

/// The `BENCH_queue.json` document `bench_compare` diffs in CI.
fn bench_json(total_wall_secs: f64, phases: &[(&'static str, profiler::PhaseStat)]) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema_version", JsonValue::Num(1.0));
    doc.push("bench", JsonValue::Str("queue".to_string()));
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
    let path = dir.join("BENCH_queue.json");
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

fn main() {
    let opts = parse_args();
    profiler::set_enabled(true);
    let started = Instant::now();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut gate_speedup = 0.0;
    for mix in [Mix::Clustered, Mix::Uniform, Mix::Bimodal] {
        for &(n, reps) in &SIZES {
            let times = make_times(mix, n);
            let grouped = mix == Mix::Clustered;
            let (cal_phase, heap_phase) = phase_names(mix, n);
            let cal = calendar_sort(&times, reps, grouped, cal_phase);
            let heap = heap_sort(&times, reps, grouped, heap_phase);
            let speedup = cal / heap;
            if mix == Mix::Clustered && n == 1 << 20 {
                gate_speedup = speedup;
            }
            rows.push(vec![
                mix.name().to_string(),
                size_label(n),
                fmt_rate(cal),
                fmt_rate(heap),
                format!("{speedup:.1}x"),
            ]);
        }
    }

    let deltas = churn_deltas();
    let cal = calendar_churn(&deltas, "cal_churn_1m");
    let heap = heap_churn(&deltas, "heap_churn_1m");
    rows.push(vec![
        "churn (hold 64k)".to_string(),
        size_label(CHURN_OPS),
        fmt_rate(cal),
        fmt_rate(heap),
        format!("{:.1}x", cal / heap),
    ]);

    let times = seeded_hour_times();
    let cal = calendar_seeded_hour(&times, "cal_seeded_hour");
    let heap = heap_seeded_hour(&times, "heap_seeded_hour");
    let seeded_speedup = cal / heap;
    rows.push(vec![
        "seeded hour (pre-sized)".to_string(),
        size_label(SEEDED_ARRIVALS as usize),
        fmt_rate(cal),
        fmt_rate(heap),
        format!("{seeded_speedup:.1}x"),
    ]);

    print!(
        "{}",
        render_table(&["mix", "events", "calendar", "heap", "speedup"], &rows)
    );
    println!("\ncalendar speedup over heap on the clustered 1M mix: {gate_speedup:.1}x");
    println!("calendar speedup over heap on the seeded hour: {seeded_speedup:.1}x");

    profiler::set_enabled(false);
    let phases = profiler::take_report();
    let total_wall_secs = started.elapsed().as_secs_f64();
    if opts.profile {
        let doc = bench_json(total_wall_secs, &phases);
        match write_bench(&opts.out_dir, &doc) {
            Ok(path) => eprintln!("[bench_queue] wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "[bench_queue] could not write BENCH file under {}: {e}",
                    opts.out_dir.display()
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
        if failed {
            std::process::exit(1);
        }
    }
}
