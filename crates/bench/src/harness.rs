//! The parallel experiment harness.
//!
//! Every figure/table of the evaluation is a grid: benchmarks × traces ×
//! platform configurations × policies. [`ExperimentGrid`] expresses that
//! grid declaratively; [`run_grid`] fans its cells across worker threads
//! (each cell owns a private [`PlatformSim`], so cells never share
//! state), and merges the results in grid order — the merged output is a
//! pure function of the grid, byte-identical for any `--jobs` value.
//!
//! [`GridRun::write_results`] exports a versioned JSON summary plus a
//! separate wall-clock timing file under `results/`; wall-clock never
//! enters the main JSON so it stays reproducible.
//!
//! ```text
//! cargo run --release -p faasmem-bench --bin fig12_main_eval -- --jobs 8
//! cargo run --release -p faasmem-bench --bin fig12_main_eval -- --quick
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use faasmem_core::{FaasMemPolicy, FaasMemStats, StatsHandle};
use faasmem_faas::{MemoryPolicy, PlatformConfig, PlatformSim, RunReport, RunSummary};
use faasmem_metrics::agg;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_telemetry::{
    profile_scope, profiler, rss, SampleSpec, Sampler, SeriesMask, TimeSeries,
};
use faasmem_trace::{chrome_trace, ChromeGroup, EventKind, LayerMask, TraceEvent, Tracer};
use faasmem_workload::{
    ArrivalModel, BenchmarkSpec, FunctionId, InvocationTrace, LoadClass, TraceStats,
    TraceSynthesizer,
};

use crate::json::JsonValue;
use crate::PolicyKind;

/// Schema version stamped into every exported JSON document.
pub const SCHEMA_VERSION: u64 = 1;

/// Label of the implicit configuration when a grid declares none.
pub const DEFAULT_CONFIG: &str = "default";

/// Trace horizon used by `--quick` smoke runs in place of the grid's
/// synthesized-trace durations.
pub const QUICK_DURATION: SimTime = SimTime::from_mins(5);

// ---------------------------------------------------------------------
// Grid axes
// ---------------------------------------------------------------------

/// The benchmark axis: one label plus the functions registered on the
/// simulated node (one spec for the single-function experiments, many
/// for cluster workloads like Fig 1).
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Row label, unique within the grid.
    pub label: String,
    /// Functions registered on the node, in [`FunctionId`] order.
    pub specs: Vec<BenchmarkSpec>,
}

impl BenchCase {
    /// A single-function case labeled with the benchmark's name.
    pub fn single(spec: BenchmarkSpec) -> Self {
        BenchCase {
            label: spec.name.to_string(),
            specs: vec![spec],
        }
    }

    /// A multi-function case.
    pub fn cluster(label: &str, specs: Vec<BenchmarkSpec>) -> Self {
        BenchCase {
            label: label.to_string(),
            specs,
        }
    }
}

/// The configuration axis: a labeled [`PlatformConfig`] override.
#[derive(Debug, Clone)]
pub struct ConfigCase {
    /// Column label, unique within the grid.
    pub label: String,
    /// The platform configuration (page size, keep-alive, pool, seed...).
    pub config: PlatformConfig,
}

impl ConfigCase {
    /// A labeled configuration.
    pub fn new(label: &str, config: PlatformConfig) -> Self {
        ConfigCase {
            label: label.to_string(),
            config,
        }
    }

    /// The implicit default configuration.
    pub fn default_case() -> Self {
        ConfigCase::new(DEFAULT_CONFIG, PlatformConfig::default())
    }
}

/// Builds a fresh policy instance for one cell. Returns the boxed policy
/// plus FaaSMem's mechanism-stats handle when the policy publishes one.
/// Runs on a worker thread, so the factory must be `Send + Sync`; the
/// policy it builds stays on that thread.
pub type PolicyFactory =
    Arc<dyn Fn() -> (Box<dyn MemoryPolicy>, Option<StatsHandle>) + Send + Sync>;

/// The policy axis.
#[derive(Clone)]
pub enum PolicySpec {
    /// One of the standard systems.
    Kind(PolicyKind),
    /// A custom-built policy (ablation configs, extensions).
    Custom {
        /// Column label, unique within the grid.
        label: String,
        /// Per-cell policy constructor.
        make: PolicyFactory,
    },
}

impl PolicySpec {
    /// A custom policy from a constructor closure.
    pub fn custom<F>(label: &str, make: F) -> Self
    where
        F: Fn() -> (Box<dyn MemoryPolicy>, Option<StatsHandle>) + Send + Sync + 'static,
    {
        PolicySpec::Custom {
            label: label.to_string(),
            make: Arc::new(make),
        }
    }

    /// A custom FaaSMem variant; the stats handle is wired automatically.
    pub fn faasmem<F>(label: &str, build: F) -> Self
    where
        F: Fn() -> FaasMemPolicy + Send + Sync + 'static,
    {
        Self::custom(label, move || {
            let policy = build();
            let stats = policy.stats();
            (Box::new(policy), Some(stats))
        })
    }

    /// The column label.
    pub fn label(&self) -> &str {
        match self {
            PolicySpec::Kind(kind) => kind.name(),
            PolicySpec::Custom { label, .. } => label,
        }
    }
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySpec")
            .field("label", &self.label())
            .finish()
    }
}

/// How a [`TraceSpec`] seed combines with the benchmark under test.
/// The seed-per-benchmark conventions of the original drivers are kept
/// so the ported binaries reproduce the same traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMix {
    /// Same seed for every benchmark.
    Fixed,
    /// `seed ^ first_spec_name.len()` (Fig 12's convention).
    XorNameLen,
    /// `seed + first_spec_name.len()` (Fig 2 / Fig 8's convention).
    AddNameLen,
}

/// How the trace is produced.
#[derive(Debug, Clone)]
pub enum TraceKind {
    /// Synthesized single-function trace for [`FunctionId`]`(0)`.
    Synth {
        /// Azure load class.
        load: LoadClass,
        /// Markov-modulated bursts.
        bursty: bool,
        /// Explicit arrival model overriding the load class's default.
        arrival: Option<ArrivalModel>,
    },
    /// Synthesized multi-function cluster trace (Fig 1).
    Cluster {
        /// Number of functions; must match the bench case's spec count.
        functions: u32,
    },
    /// A pre-built trace used verbatim (hand-crafted arrival patterns).
    Explicit(InvocationTrace),
}

/// The trace axis: a labeled, seeded trace recipe.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Row label, unique within the grid.
    pub label: String,
    /// Synthesizer seed (ignored for explicit traces).
    pub seed: u64,
    /// Per-benchmark seed derivation.
    pub seed_mix: SeedMix,
    /// Trace horizon (ignored for explicit traces).
    pub duration: SimTime,
    /// The recipe.
    pub kind: TraceKind,
    /// Rows a lenient importer skipped while producing this trace
    /// (non-zero only for [`TraceSpec::explicit_lossy`] traces).
    pub skipped_rows: u64,
}

impl TraceSpec {
    /// A synthesized single-function trace; one hour, steady, not bursty.
    pub fn synth(label: &str, seed: u64, load: LoadClass) -> Self {
        TraceSpec {
            label: label.to_string(),
            seed,
            seed_mix: SeedMix::Fixed,
            duration: SimTime::from_mins(60),
            kind: TraceKind::Synth {
                load,
                bursty: false,
                arrival: None,
            },
            skipped_rows: 0,
        }
    }

    /// A synthesized cluster trace over `functions` functions.
    pub fn cluster(label: &str, seed: u64, functions: u32) -> Self {
        TraceSpec {
            label: label.to_string(),
            seed,
            seed_mix: SeedMix::Fixed,
            duration: SimTime::from_mins(60),
            kind: TraceKind::Cluster { functions },
            skipped_rows: 0,
        }
    }

    /// A pre-built trace used verbatim.
    pub fn explicit(label: &str, trace: InvocationTrace) -> Self {
        TraceSpec {
            label: label.to_string(),
            seed: 0,
            seed_mix: SeedMix::Fixed,
            duration: SimTime::ZERO,
            kind: TraceKind::Explicit(trace),
            skipped_rows: 0,
        }
    }

    /// A leniently-imported trace (see [`faasmem_workload::trace_io::from_str_lossy`]):
    /// used verbatim, with the importer's skip count carried into the
    /// run summary and the exported JSON.
    pub fn explicit_lossy(label: &str, lossy: faasmem_workload::LossyTrace) -> Self {
        TraceSpec {
            skipped_rows: lossy.skipped_lines,
            ..TraceSpec::explicit(label, lossy.trace)
        }
    }

    /// The synthesizer seed this spec uses for one bench case, after the
    /// per-benchmark mixing. Panic reports reference it so a failing cell
    /// can be reproduced stand-alone.
    pub fn seed_for(&self, bench: &BenchCase) -> u64 {
        let name_len = bench.specs.first().map_or(0, |s| s.name.len() as u64);
        match self.seed_mix {
            SeedMix::Fixed => self.seed,
            SeedMix::XorNameLen => self.seed ^ name_len,
            SeedMix::AddNameLen => self.seed + name_len,
        }
    }

    /// Enables bursty arrivals (synthesized traces only).
    pub fn bursty(mut self, bursty: bool) -> Self {
        if let TraceKind::Synth { bursty: b, .. } = &mut self.kind {
            *b = bursty;
        }
        self
    }

    /// Overrides the arrival model (synthesized traces only).
    pub fn arrival(mut self, model: ArrivalModel) -> Self {
        if let TraceKind::Synth { arrival, .. } = &mut self.kind {
            *arrival = Some(model);
        }
        self
    }

    /// Overrides the trace horizon.
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the per-benchmark seed derivation.
    pub fn seed_mix(mut self, mix: SeedMix) -> Self {
        self.seed_mix = mix;
        self
    }

    /// Materializes the trace for one bench case.
    fn build(&self, bench: &BenchCase, quick: bool) -> InvocationTrace {
        let seed = self.seed_for(bench);
        let duration = if quick {
            self.duration.min(QUICK_DURATION)
        } else {
            self.duration
        };
        match &self.kind {
            TraceKind::Synth {
                load,
                bursty,
                arrival,
            } => {
                let mut synth = TraceSynthesizer::new(seed)
                    .load_class(*load)
                    .bursty(*bursty)
                    .duration(duration);
                if let Some(model) = arrival {
                    synth = synth.arrival_model(*model);
                }
                synth.synthesize_for(FunctionId(0))
            }
            TraceKind::Cluster { functions } => {
                let (trace, _classes) = TraceSynthesizer::new(seed)
                    .duration(duration)
                    .synthesize_cluster(*functions);
                trace
            }
            TraceKind::Explicit(trace) => trace.clone(),
        }
    }
}

/// A declarative experiment grid. Cells are the cartesian product
/// traces × benches × configs × policies, enumerated in that nesting
/// order; an empty `configs` axis means "the default configuration".
#[derive(Debug, Default)]
pub struct ExperimentGrid {
    /// Grid name; also the stem of the exported JSON files.
    pub name: String,
    /// The benchmark axis.
    pub benches: Vec<BenchCase>,
    /// The trace axis.
    pub traces: Vec<TraceSpec>,
    /// The configuration axis (empty ⇒ one default configuration).
    pub configs: Vec<ConfigCase>,
    /// The policy axis.
    pub policies: Vec<PolicySpec>,
}

impl ExperimentGrid {
    /// An empty grid.
    pub fn new(name: &str) -> Self {
        ExperimentGrid {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds one bench case.
    pub fn bench(mut self, case: BenchCase) -> Self {
        self.benches.push(case);
        self
    }

    /// Adds bench cases.
    pub fn benches<I: IntoIterator<Item = BenchCase>>(mut self, cases: I) -> Self {
        self.benches.extend(cases);
        self
    }

    /// Adds one trace.
    pub fn trace(mut self, spec: TraceSpec) -> Self {
        self.traces.push(spec);
        self
    }

    /// Adds traces.
    pub fn traces<I: IntoIterator<Item = TraceSpec>>(mut self, specs: I) -> Self {
        self.traces.extend(specs);
        self
    }

    /// Adds one configuration.
    pub fn config(mut self, case: ConfigCase) -> Self {
        self.configs.push(case);
        self
    }

    /// Adds configurations.
    pub fn configs<I: IntoIterator<Item = ConfigCase>>(mut self, cases: I) -> Self {
        self.configs.extend(cases);
        self
    }

    /// Adds one policy.
    pub fn policy(mut self, spec: PolicySpec) -> Self {
        self.policies.push(spec);
        self
    }

    /// Adds policies.
    pub fn policies<I: IntoIterator<Item = PolicySpec>>(mut self, specs: I) -> Self {
        self.policies.extend(specs);
        self
    }

    /// Adds standard policies by kind.
    pub fn policy_kinds<I: IntoIterator<Item = PolicyKind>>(self, kinds: I) -> Self {
        self.policies(kinds.into_iter().map(PolicySpec::Kind))
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.traces.len() * self.benches.len() * self.configs.len().max(1) * self.policies.len()
    }

    /// `true` when the grid expands to no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

/// Runtime options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Worker threads fanning out grid cells.
    pub jobs: usize,
    /// Smoke mode: truncate synthesized traces to [`QUICK_DURATION`].
    pub quick: bool,
    /// Directory for the exported JSON files.
    pub out_dir: PathBuf,
    /// When set, record per-cell event traces and write them as JSONL to
    /// this path (plus a Chrome/Perfetto view next to it). `None` keeps
    /// the zero-cost disabled tracer on every hot path.
    pub trace: Option<PathBuf>,
    /// Layers recorded when tracing is on (default: all).
    pub trace_filter: LayerMask,
    /// When set, sample per-cell telemetry series and write the merged
    /// document to this path. `None` keeps the zero-cost disabled
    /// sampler on every hot path.
    pub series: Option<PathBuf>,
    /// Sim-time sampling period when `--series` is on (default: 1 s).
    pub series_interval: SimDuration,
    /// Series groups recorded when sampling is on (default: all).
    pub series_select: SeriesMask,
    /// Profile the harness itself and export a `BENCH_*.json` perf
    /// baseline next to the results.
    pub profile: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        HarnessOptions {
            jobs,
            quick: false,
            out_dir: PathBuf::from("results"),
            trace: None,
            trace_filter: LayerMask::ALL,
            series: None,
            series_interval: SimDuration::from_secs(1),
            series_select: SeriesMask::ALL,
            profile: false,
        }
    }
}

impl HarnessOptions {
    /// Parses `--jobs N` / `-j N` / `--jobs=N`, `--quick`,
    /// `--out DIR` / `--out=DIR`, `--trace PATH` / `--trace=PATH`,
    /// `--trace-filter LAYERS` / `--trace-filter=LAYERS` (comma list of
    /// `harness,container,memory,pool`), `--series PATH` /
    /// `--series=PATH`, `--series-interval SECS`, `--series-select
    /// GROUPS` (comma list of `faas,mem,pool,registry`) and `--profile`
    /// from the process arguments. Unknown arguments are ignored so
    /// binaries can add their own flags.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Testable argument parser behind [`HarnessOptions::from_env`].
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = HarnessOptions::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if arg == "--quick" {
                opts.quick = true;
            } else if arg == "--jobs" || arg == "-j" {
                if let Some(n) = args.next().and_then(|v| v.as_ref().parse().ok()) {
                    opts.jobs = n;
                }
            } else if let Some(n) = arg.strip_prefix("--jobs=") {
                if let Ok(n) = n.parse() {
                    opts.jobs = n;
                }
            } else if arg == "--out" {
                if let Some(dir) = args.next() {
                    opts.out_dir = PathBuf::from(dir.as_ref());
                }
            } else if let Some(dir) = arg.strip_prefix("--out=") {
                opts.out_dir = PathBuf::from(dir);
            } else if arg == "--trace" {
                if let Some(path) = args.next() {
                    opts.trace = Some(PathBuf::from(path.as_ref()));
                }
            } else if let Some(path) = arg.strip_prefix("--trace=") {
                opts.trace = Some(PathBuf::from(path));
            } else if arg == "--trace-filter" {
                if let Some(list) = args.next() {
                    Self::apply_trace_filter(&mut opts, list.as_ref());
                }
            } else if let Some(list) = arg.strip_prefix("--trace-filter=") {
                Self::apply_trace_filter(&mut opts, list);
            } else if arg == "--series" {
                if let Some(path) = args.next() {
                    opts.series = Some(PathBuf::from(path.as_ref()));
                }
            } else if let Some(path) = arg.strip_prefix("--series=") {
                opts.series = Some(PathBuf::from(path));
            } else if arg == "--series-interval" {
                if let Some(secs) = args.next() {
                    Self::apply_series_interval(&mut opts, secs.as_ref());
                }
            } else if let Some(secs) = arg.strip_prefix("--series-interval=") {
                Self::apply_series_interval(&mut opts, secs);
            } else if arg == "--series-select" {
                if let Some(list) = args.next() {
                    Self::apply_series_select(&mut opts, list.as_ref());
                }
            } else if let Some(list) = arg.strip_prefix("--series-select=") {
                Self::apply_series_select(&mut opts, list);
            } else if arg == "--profile" {
                opts.profile = true;
            }
        }
        opts.jobs = opts.jobs.max(1);
        opts
    }

    /// The per-cell sampling spec, when `--series` asked for one.
    pub fn sample_spec(&self) -> Option<SampleSpec> {
        self.series.as_ref().map(|_| SampleSpec {
            interval: self.series_interval,
            select: self.series_select,
        })
    }

    fn apply_trace_filter(opts: &mut HarnessOptions, list: &str) {
        match LayerMask::parse_list(list) {
            Ok(mask) => opts.trace_filter = mask,
            Err(e) => {
                eprintln!("[harness] ignoring --trace-filter: {e}");
            }
        }
    }

    fn apply_series_interval(opts: &mut HarnessOptions, secs: &str) {
        match secs.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => {
                opts.series_interval = SimDuration::from_secs_f64(s);
            }
            _ => eprintln!("[harness] ignoring --series-interval: not a positive number: {secs}"),
        }
    }

    fn apply_series_select(opts: &mut HarnessOptions, list: &str) {
        match SeriesMask::parse_list(list) {
            Ok(mask) if mask != SeriesMask::NONE => opts.series_select = mask,
            Ok(_) => eprintln!("[harness] ignoring --series-select: empty group list"),
            Err(e) => eprintln!("[harness] ignoring --series-select: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// Coordinates of one cell within its grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellLabels {
    /// Trace-axis label.
    pub trace: String,
    /// Bench-axis label.
    pub bench: String,
    /// Config-axis label.
    pub config: String,
    /// Policy-axis label.
    pub policy: String,
}

/// Everything one successful cell produced.
#[derive(Debug)]
pub struct CellOutcome {
    /// Invocations in the cell's trace.
    pub trace_len: usize,
    /// Rows a lenient importer skipped while producing the cell's trace.
    pub trace_skipped_rows: u64,
    /// Arrival statistics of the cell's trace.
    pub trace_stats: TraceStats,
    /// The flat metric digest (serialized to JSON).
    pub summary: RunSummary,
    /// FaaSMem mechanism stats, for FaaSMem-family policies.
    pub faasmem: Option<FaasMemStats>,
    /// The full platform report, for detailed per-binary rendering.
    pub report: RunReport,
    /// The cell's drained event trace, in `(sim_time, seq)` order.
    /// Empty unless the harness ran with `--trace`.
    pub trace_events: Vec<TraceEvent>,
    /// The cell's sampled telemetry series, rows on sim-time interval
    /// boundaries. Empty unless the harness ran with `--series`.
    pub series: TimeSeries,
}

/// One cell's result: its coordinates, outcome (or captured panic) and
/// wall-clock cost.
#[derive(Debug)]
pub struct CellResult {
    /// Coordinates within the grid.
    pub labels: CellLabels,
    /// The mixed trace seed the cell ran with (see [`TraceSpec::seed_for`]).
    pub seed: u64,
    /// The fault-injection seed, when the cell's configuration enables
    /// faults.
    pub fault_seed: Option<u64>,
    /// The outcome, or the panic message if the cell died.
    pub outcome: Result<CellOutcome, String>,
    /// Wall-clock seconds this cell took on its worker.
    pub wall_secs: f64,
    /// Process peak RSS in KiB observed right after the cell finished
    /// (`None` off Linux). The kernel value is a process-wide
    /// high-water mark, so this reads as "peak so far", not a
    /// per-cell footprint.
    pub peak_rss_kb: Option<u64>,
}

/// A completed grid run: all cells in deterministic grid order.
#[derive(Debug)]
pub struct GridRun {
    /// Grid name.
    pub name: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Whether `--quick` truncated the traces.
    pub quick: bool,
    /// Cell results in grid order (traces → benches → configs → policies).
    pub cells: Vec<CellResult>,
    /// Wall-clock seconds for the whole fan-out.
    pub wall_total_secs: f64,
}

impl GridRun {
    /// Looks up a cell by its four labels; panics on a label typo.
    pub fn cell(&self, trace: &str, bench: &str, config: &str, policy: &str) -> &CellResult {
        self.cells
            .iter()
            .find(|c| {
                c.labels.trace == trace
                    && c.labels.bench == bench
                    && c.labels.config == config
                    && c.labels.policy == policy
            })
            .unwrap_or_else(|| {
                panic!("no cell [trace={trace}, bench={bench}, config={config}, policy={policy}] in grid {}", self.name)
            })
    }

    /// Looks up a successful cell's outcome; panics if the cell is
    /// missing or panicked.
    pub fn outcome(&self, trace: &str, bench: &str, config: &str, policy: &str) -> &CellOutcome {
        let cell = self.cell(trace, bench, config, policy);
        match &cell.outcome {
            Ok(outcome) => outcome,
            Err(msg) => panic!(
                "cell [trace={trace}, bench={bench}, config={config}, policy={policy}] panicked: {msg}"
            ),
        }
    }

    /// Number of cells that panicked.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_err()).count()
    }

    /// Total simulated seconds across successful cells.
    pub fn sim_secs_total(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .map(|o| o.summary.sim_secs)
            .sum()
    }

    /// The deterministic result document: a pure function of the grid
    /// definition, byte-identical for any thread count. Wall-clock data
    /// deliberately lives in [`GridRun::timing_json`] instead.
    pub fn to_json(&self) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(SCHEMA_VERSION as f64));
        doc.push("grid", JsonValue::Str(self.name.clone()));
        doc.push("quick", JsonValue::Bool(self.quick));
        let cells: Vec<JsonValue> = self.cells.iter().map(cell_json).collect();
        doc.push("cells", JsonValue::Arr(cells));
        doc
    }

    /// The wall-clock side channel: jobs, per-cell and aggregate timing.
    pub fn timing_json(&self) -> JsonValue {
        let walls: Vec<f64> = self.cells.iter().map(|c| c.wall_secs).collect();
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(SCHEMA_VERSION as f64));
        doc.push("grid", JsonValue::Str(self.name.clone()));
        doc.push("jobs", JsonValue::Num(self.jobs as f64));
        doc.push("wall_total_secs", JsonValue::Num(self.wall_total_secs));
        doc.push("cell_wall_sum_secs", JsonValue::Num(agg::total(&walls)));
        if let Some((min, max)) = agg::min_max(&walls) {
            doc.push("cell_wall_min_secs", JsonValue::Num(min));
            doc.push("cell_wall_max_secs", JsonValue::Num(max));
        }
        if let Some(mean) = agg::mean(&walls) {
            doc.push("cell_wall_mean_secs", JsonValue::Num(mean));
        }
        doc.push("sim_secs_total", JsonValue::Num(self.sim_secs_total()));
        if self.wall_total_secs > 0.0 {
            doc.push(
                "sim_secs_per_wall_sec",
                JsonValue::Num(self.sim_secs_total() / self.wall_total_secs),
            );
        }
        // Event throughput: normalizes wall-clock trajectories by how
        // much event work each cell actually did, so BENCH comparisons
        // survive grid reshapes.
        let events_total: u64 = self
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .map(|o| o.report.events_processed)
            .sum();
        doc.push("events_processed", JsonValue::Num(events_total as f64));
        if self.wall_total_secs > 0.0 {
            doc.push(
                "events_per_sec",
                JsonValue::Num(events_total as f64 / self.wall_total_secs),
            );
        }
        match self.cells.iter().filter_map(|c| c.peak_rss_kb).max() {
            Some(peak) => doc.push("peak_rss_kb", JsonValue::Num(peak as f64)),
            None => doc.push("peak_rss_kb", JsonValue::Null),
        };
        let cells: Vec<JsonValue> = self
            .cells
            .iter()
            .map(|c| {
                let mut cell = JsonValue::obj();
                push_labels(&mut cell, &c.labels);
                cell.push("wall_secs", JsonValue::Num(c.wall_secs));
                // Process-wide high-water mark at cell completion;
                // explicit null where the platform can't report it.
                match c.peak_rss_kb {
                    Some(kb) => cell.push("peak_rss_kb", JsonValue::Num(kb as f64)),
                    None => cell.push("peak_rss_kb", JsonValue::Null),
                };
                // Per-cell event throughput (null for panicked cells:
                // their counts died with the worker).
                match c.outcome.as_ref().ok() {
                    Some(o) => {
                        let events = o.report.events_processed;
                        cell.push("events_processed", JsonValue::Num(events as f64));
                        if c.wall_secs > 0.0 {
                            cell.push(
                                "events_per_sec",
                                JsonValue::Num(events as f64 / c.wall_secs),
                            );
                        } else {
                            cell.push("events_per_sec", JsonValue::Null);
                        }
                    }
                    None => {
                        cell.push("events_processed", JsonValue::Null);
                        cell.push("events_per_sec", JsonValue::Null);
                    }
                }
                cell
            })
            .collect();
        doc.push("cells", JsonValue::Arr(cells));
        doc
    }

    /// The merged telemetry series document: cells in grid order, each
    /// carrying its columnar `TimeSeries`. Sim-time rows only — no
    /// wall-clock — so like the result JSON it is a pure function of
    /// the grid, byte-identical for any `--jobs` value. Panicked cells
    /// contribute an empty series.
    pub fn series_json(&self, interval: SimDuration) -> JsonValue {
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(SCHEMA_VERSION as f64));
        doc.push("grid", JsonValue::Str(self.name.clone()));
        doc.push("quick", JsonValue::Bool(self.quick));
        doc.push("interval_us", JsonValue::Num(interval.as_micros() as f64));
        let cells: Vec<JsonValue> = self
            .cells
            .iter()
            .map(|c| {
                let mut cell = JsonValue::obj();
                push_labels(&mut cell, &c.labels);
                match &c.outcome {
                    Ok(o) => {
                        let ts = o.series.to_json();
                        cell.push("t_us", ts.get("t_us").cloned().unwrap_or(JsonValue::Null));
                        cell.push(
                            "series",
                            ts.get("series").cloned().unwrap_or(JsonValue::Null),
                        );
                    }
                    Err(_) => {
                        cell.push("t_us", JsonValue::Arr(Vec::new()));
                        cell.push("series", JsonValue::obj());
                    }
                }
                cell
            })
            .collect();
        doc.push("cells", JsonValue::Arr(cells));
        doc
    }

    /// Writes the merged series document (compact JSON) to `path`.
    pub fn write_series(&self, path: &Path, interval: SimDuration) -> std::io::Result<()> {
        profile_scope!("series_export");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut out = self.series_json(interval).to_compact();
        out.push('\n');
        std::fs::write(path, out)
    }

    /// The merged event trace as JSONL: cells in grid order, each line
    /// stamped with its cell index. A pure function of the grid — byte
    /// identical for any `--jobs` value. Panicked cells contribute
    /// nothing (their events died with the worker's unwound stack).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if let Ok(o) = &cell.outcome {
                for event in &o.trace_events {
                    out.push_str(&event.jsonl_line(Some(i as u64)));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The merged trace as a Chrome trace-event document (load in
    /// `chrome://tracing` or <https://ui.perfetto.dev>): one process per
    /// cell, one thread per container.
    pub fn chrome_json(&self) -> String {
        let groups: Vec<ChromeGroup> = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| {
                cell.outcome.as_ref().ok().map(|o| ChromeGroup {
                    pid: i as u64,
                    name: format!(
                        "{}/{}/{}/{}",
                        cell.labels.trace,
                        cell.labels.bench,
                        cell.labels.config,
                        cell.labels.policy
                    ),
                    events: o.trace_events.clone(),
                })
            })
            .collect();
        chrome_trace(&groups).to_pretty()
    }

    /// Writes the JSONL trace to `path` and the Chrome view next to it
    /// (`path` with its extension replaced by `chrome.json`).
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        profile_scope!("trace_flush");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.trace_jsonl())?;
        std::fs::write(path.with_extension("chrome.json"), self.chrome_json())?;
        Ok(())
    }

    /// Writes `<name>.json` (deterministic) and `<name>.timing.json`
    /// (wall-clock) under `dir`, returning the main file's path.
    pub fn write_results(&self, dir: &Path) -> std::io::Result<PathBuf> {
        profile_scope!("json_export");
        std::fs::create_dir_all(dir)?;
        let main = dir.join(format!("{}.json", self.name));
        std::fs::write(&main, self.to_json().to_pretty())?;
        let timing = dir.join(format!("{}.timing.json", self.name));
        std::fs::write(&timing, self.timing_json().to_pretty())?;
        Ok(main)
    }

    /// Prints the fan-out's throughput to stderr (stderr so the tables on
    /// stdout stay byte-comparable across runs).
    pub fn print_timing(&self) {
        let sum: f64 = self.cells.iter().map(|c| c.wall_secs).sum();
        let speedup = if self.wall_total_secs > 0.0 {
            sum / self.wall_total_secs
        } else {
            1.0
        };
        eprintln!(
            "[harness] grid {}: {} cells, jobs={}, wall {:.2}s, cell-wall sum {:.2}s ({speedup:.2}x), {:.0} sim-secs ({:.0}x real time)",
            self.name,
            self.cells.len(),
            self.jobs,
            self.wall_total_secs,
            sum,
            self.sim_secs_total(),
            if self.wall_total_secs > 0.0 {
                self.sim_secs_total() / self.wall_total_secs
            } else {
                0.0
            },
        );
        if self.failures() > 0 {
            eprintln!(
                "[harness] grid {}: {} cell(s) PANICKED",
                self.name,
                self.failures()
            );
        }
        let skipped: u64 = self
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().ok())
            .map(|o| o.trace_skipped_rows)
            .sum();
        if skipped > 0 {
            eprintln!(
                "[harness] grid {}: {skipped} malformed trace row(s) were skipped during import",
                self.name
            );
        }
    }

    /// The perf-baseline document diffed by `bench_compare`: grid id,
    /// git revision, total/per-cell wall time, peak RSS and the
    /// profiler's per-phase breakdown. Wall-clock data throughout —
    /// this is a timing side channel like `timing_json`, never part of
    /// the deterministic results.
    pub fn bench_json(&self, phases: &[(&'static str, profiler::PhaseStat)]) -> JsonValue {
        let mut walls: Vec<f64> = self.cells.iter().map(|c| c.wall_secs).collect();
        walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
        let mut doc = JsonValue::obj();
        doc.push("schema_version", JsonValue::Num(SCHEMA_VERSION as f64));
        doc.push("bench", JsonValue::Str(bench_id(&self.name, self.quick)));
        doc.push("grid", JsonValue::Str(self.name.clone()));
        doc.push("git_rev", JsonValue::Str(git_rev()));
        doc.push("quick", JsonValue::Bool(self.quick));
        doc.push("jobs", JsonValue::Num(self.jobs as f64));
        doc.push("cells", JsonValue::Num(self.cells.len() as f64));
        doc.push("total_wall_secs", JsonValue::Num(self.wall_total_secs));
        if let Some(p50) = percentile(&walls, 0.50) {
            doc.push("cell_wall_p50_secs", JsonValue::Num(p50));
        }
        if let Some(p95) = percentile(&walls, 0.95) {
            doc.push("cell_wall_p95_secs", JsonValue::Num(p95));
        }
        if let Some(&max) = walls.last() {
            doc.push("cell_wall_max_secs", JsonValue::Num(max));
        }
        match rss::peak_rss_kb() {
            Some(kb) => doc.push("peak_rss_kb", JsonValue::Num(kb as f64)),
            None => doc.push("peak_rss_kb", JsonValue::Null),
        };
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

    /// Writes `BENCH_<id>.json` under `dir` and returns its path.
    pub fn write_bench(
        &self,
        dir: &Path,
        phases: &[(&'static str, profiler::PhaseStat)],
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", bench_id(&self.name, self.quick)));
        std::fs::write(&path, self.bench_json(phases).to_pretty())?;
        Ok(path)
    }
}

/// The BENCH file id for a grid: the figure prefix of the grid name
/// (`fig12_main_eval` → `fig12`), suffixed `_quick` for smoke runs so
/// quick and full baselines never collide.
fn bench_id(grid_name: &str, quick: bool) -> String {
    let stem = grid_name.split('_').next().unwrap_or(grid_name);
    let stem = if stem.is_empty() { grid_name } else { stem };
    if quick {
        format!("{stem}_quick")
    } else {
        stem.to_string()
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The checked-out short revision, for provenance in BENCH files.
/// Best-effort: "unknown" outside a git checkout.
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

fn push_labels(cell: &mut JsonValue, labels: &CellLabels) {
    cell.push("trace", JsonValue::Str(labels.trace.clone()));
    cell.push("bench", JsonValue::Str(labels.bench.clone()));
    cell.push("config", JsonValue::Str(labels.config.clone()));
    cell.push("policy", JsonValue::Str(labels.policy.clone()));
}

fn cell_json(cell: &CellResult) -> JsonValue {
    let mut doc = JsonValue::obj();
    push_labels(&mut doc, &cell.labels);
    match &cell.outcome {
        Err(msg) => {
            doc.push("status", JsonValue::Str("panicked".into()));
            doc.push("error", JsonValue::Str(msg.clone()));
            doc.push("seed", JsonValue::Num(cell.seed as f64));
            if let Some(fault_seed) = cell.fault_seed {
                doc.push("fault_seed", JsonValue::Num(fault_seed as f64));
            }
        }
        Ok(outcome) => {
            doc.push("status", JsonValue::Str("ok".into()));
            doc.push(
                "trace_invocations",
                JsonValue::Num(outcome.trace_len as f64),
            );
            if outcome.trace_skipped_rows > 0 {
                doc.push(
                    "trace_skipped_rows",
                    JsonValue::Num(outcome.trace_skipped_rows as f64),
                );
            }
            doc.push("metrics", summary_json(&outcome.summary));
            // Per-function waste ledgers ride next to the metrics block;
            // absent unless the anatomy layer ran and charged something,
            // so pre-anatomy documents keep their exact shape.
            if !outcome.report.function_waste.is_empty() {
                use faasmem_faas::{byte_us_to_byte_secs, WasteComponent};
                let rows: Vec<JsonValue> = outcome
                    .report
                    .function_waste
                    .iter()
                    .map(|fw| {
                        let mut entry = JsonValue::obj();
                        entry.push("function", JsonValue::Num(f64::from(fw.function.0)));
                        entry.push("name", JsonValue::Str(fw.name.into()));
                        let mut comps = JsonValue::obj();
                        for c in WasteComponent::ALL {
                            comps.push(
                                c.name(),
                                JsonValue::Num(byte_us_to_byte_secs(fw.ledger.get(c))),
                            );
                        }
                        entry.push("components", comps);
                        entry.push(
                            "total_byte_secs",
                            JsonValue::Num(byte_us_to_byte_secs(fw.ledger.total())),
                        );
                        entry
                    })
                    .collect();
                doc.push("function_waste", JsonValue::Arr(rows));
            }
            doc.push("registry", registry_json(&outcome.report.registry));
            match &outcome.faasmem {
                Some(stats) => doc.push("faasmem", faasmem_json(stats)),
                None => doc.push("faasmem", JsonValue::Null),
            };
        }
    }
    doc
}

/// The cell's counter/gauge snapshot. Registry maps iterate in key
/// order, so the document is deterministic.
fn registry_json(reg: &faasmem_metrics::MetricsRegistry) -> JsonValue {
    let mut counters = JsonValue::obj();
    for (name, v) in reg.counters() {
        counters.push(name, JsonValue::Num(v as f64));
    }
    let mut gauges = JsonValue::obj();
    for (name, v) in reg.gauges() {
        gauges.push(name, JsonValue::Num(v));
    }
    let mut doc = JsonValue::obj();
    doc.push("counters", counters);
    doc.push("gauges", gauges);
    doc
}

fn summary_json(s: &RunSummary) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push(
        "requests_completed",
        JsonValue::Num(s.requests_completed as f64),
    );
    doc.push("cold_starts", JsonValue::Num(s.cold_starts as f64));
    doc.push("cold_start_ratio", JsonValue::Num(s.cold_start_ratio));
    doc.push(
        "avg_latency_secs",
        JsonValue::Num(s.latency.avg.as_secs_f64()),
    );
    doc.push(
        "p50_latency_secs",
        JsonValue::Num(s.latency.p50.as_secs_f64()),
    );
    doc.push(
        "p95_latency_secs",
        JsonValue::Num(s.latency.p95.as_secs_f64()),
    );
    doc.push(
        "p99_latency_secs",
        JsonValue::Num(s.latency.p99.as_secs_f64()),
    );
    doc.push(
        "max_latency_secs",
        JsonValue::Num(s.max_latency.as_secs_f64()),
    );
    doc.push("avg_local_mib", JsonValue::Num(s.avg_local_mib));
    doc.push("avg_remote_mib", JsonValue::Num(s.avg_remote_mib));
    doc.push("avg_live_containers", JsonValue::Num(s.avg_live_containers));
    doc.push(
        "memory_inactive_fraction",
        JsonValue::Num(s.memory_inactive_fraction),
    );
    doc.push(
        "pool_bytes_out",
        JsonValue::Num(s.pool_stats.bytes_out as f64),
    );
    doc.push(
        "pool_bytes_in",
        JsonValue::Num(s.pool_stats.bytes_in as f64),
    );
    doc.push("pool_out_ops", JsonValue::Num(s.pool_stats.out_ops as f64));
    doc.push("pool_in_ops", JsonValue::Num(s.pool_stats.in_ops as f64));
    doc.push(
        "mean_offload_bandwidth_mbps",
        JsonValue::Num(s.mean_offload_bandwidth_mbps),
    );
    doc.push("containers", JsonValue::Num(s.containers as f64));
    doc.push("sim_secs", JsonValue::Num(s.sim_secs));
    // Only fault-injected runs carry the block, so fault-free documents
    // stay byte-identical to those written before faults existed.
    if let Some(f) = &s.faults {
        doc.push("faults", faults_json(f));
    }
    // Same contract for the fabric: degenerate (single-node,
    // no-redundancy) runs carry no block and stay byte-identical to
    // documents written before the fabric existed.
    if let Some(d) = &s.durability {
        doc.push("durability", durability_json(d));
    }
    // And for the blame layer: only runs with `PlatformConfig::blame`
    // carry the block, so existing artifacts never change shape.
    if let Some(b) = &s.blame {
        doc.push("blame", blame_json(b));
    }
    // And for the memory anatomy: only runs with
    // `PlatformConfig::memory_anatomy` carry the block.
    if let Some(a) = &s.memory_anatomy {
        doc.push("memory_anatomy", anatomy_json(a));
    }
    doc
}

/// The latency-anatomy block: per-component distributions plus tail
/// attribution. All durations are integer microseconds straight from the
/// simulator, so the block is exact and byte-stable across `--jobs`.
fn blame_json(b: &faasmem_faas::BlameReport) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("invocations", JsonValue::Num(b.invocations as f64));
    doc.push(
        "tail_invocations",
        JsonValue::Num(b.tail_invocations as f64),
    );
    doc.push(
        "tail_cutoff_us",
        JsonValue::Num(b.tail_cutoff.as_micros() as f64),
    );
    doc.push(
        "tail_mean_latency_us",
        JsonValue::Num(b.tail_mean_latency.as_micros() as f64),
    );
    doc.push(
        "conservation_violations",
        JsonValue::Num(b.conservation_violations as f64),
    );
    let mut components = JsonValue::obj();
    for component in faasmem_faas::BlameComponent::ALL {
        let c = b.component(component);
        let mut entry = JsonValue::obj();
        entry.push("total_us", JsonValue::Num(c.total.as_micros() as f64));
        entry.push("avg_us", JsonValue::Num(c.dist.avg.as_micros() as f64));
        entry.push("p50_us", JsonValue::Num(c.dist.p50.as_micros() as f64));
        entry.push("p95_us", JsonValue::Num(c.dist.p95.as_micros() as f64));
        entry.push("p99_us", JsonValue::Num(c.dist.p99.as_micros() as f64));
        entry.push(
            "tail_mean_us",
            JsonValue::Num(c.tail_mean.as_micros() as f64),
        );
        entry.push("tail_share", JsonValue::Num(b.tail_share(component)));
        components.push(component.name(), entry);
    }
    doc.push("components", components);
    doc
}

/// The memory-anatomy block: byte-second occupancy per component plus
/// the page-lifecycle flow ledger. Internals are exact u128 byte-µs;
/// the one f64 division at this boundary is a pure function of the
/// integers, so the block stays byte-stable across `--jobs`.
fn anatomy_json(a: &faasmem_faas::MemoryAnatomyReport) -> JsonValue {
    use faasmem_faas::{byte_us_to_byte_secs, WasteComponent};
    let w = &a.waste;
    let mut doc = JsonValue::obj();
    doc.push("steps", JsonValue::Num(w.steps as f64));
    doc.push(
        "conservation_violations",
        JsonValue::Num(w.conservation_violations as f64),
    );
    doc.push(
        "compute_byte_secs",
        JsonValue::Num(byte_us_to_byte_secs(w.compute_byte_us)),
    );
    doc.push(
        "pool_byte_secs",
        JsonValue::Num(byte_us_to_byte_secs(w.pool_byte_us)),
    );
    let mut components = JsonValue::obj();
    for component in WasteComponent::ALL {
        components.push(
            component.name(),
            JsonValue::Num(byte_us_to_byte_secs(w.component(component))),
        );
    }
    doc.push("components", components);
    doc.push("flow", flow_json(&a.flow));
    doc
}

/// The lifecycle flow ledger: integer page counts per transition edge
/// and the per-state conservation rows.
fn flow_json(m: &faasmem_faas::FlowMatrix) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("tables", JsonValue::Num(m.tables as f64));
    let f = &m.flows;
    for (name, v) in [
        ("allocated", f.allocated),
        ("reused", f.reused),
        ("offloaded", f.offloaded),
        ("recalled_demand", f.recalled_demand),
        ("recalled_prefetch", f.recalled_prefetch),
        ("freed_local", f.freed_local),
        ("freed_remote", f.freed_remote),
    ] {
        doc.push(name, JsonValue::Num(v as f64));
    }
    let mut rows = JsonValue::obj();
    for row in m.rows() {
        let mut entry = JsonValue::obj();
        entry.push("entered", JsonValue::Num(row.entered as f64));
        entry.push("left", JsonValue::Num(row.left as f64));
        entry.push("resident", JsonValue::Num(row.resident as f64));
        rows.push(row.state, entry);
    }
    doc.push("rows", rows);
    doc.push("row_violations", JsonValue::Num(m.row_violations() as f64));
    doc
}

fn durability_json(d: &faasmem_faas::DurabilityReport) -> JsonValue {
    let t = &d.tracker;
    let mut doc = JsonValue::obj();
    doc.push("pool_nodes", JsonValue::Num(f64::from(d.pool_nodes)));
    doc.push("nodes_up", JsonValue::Num(f64::from(d.nodes_up)));
    doc.push("nodes_lost", JsonValue::Num(t.nodes_lost as f64));
    doc.push("segments_lost", JsonValue::Num(t.segments_lost as f64));
    doc.push("bytes_lost", JsonValue::Num(t.bytes_lost as f64));
    doc.push(
        "failover_recalls",
        JsonValue::Num(t.failover_recalls as f64),
    );
    doc.push("bytes_recovered", JsonValue::Num(t.bytes_recovered as f64));
    doc.push(
        "avoided_cold_rebuilds",
        JsonValue::Num(t.avoided_cold_rebuilds as f64),
    );
    doc.push(
        "replica_bytes_out",
        JsonValue::Num(t.replica_bytes_out as f64),
    );
    doc.push("repair_bytes", JsonValue::Num(t.repair_bytes as f64));
    doc.push(
        "repairs_completed",
        JsonValue::Num(t.repairs_completed as f64),
    );
    doc.push(
        "repairs_abandoned",
        JsonValue::Num(t.repairs_abandoned as f64),
    );
    doc.push(
        "mean_mttr_secs",
        JsonValue::Num(t.mean_mttr().map_or(0.0, |d| d.as_secs_f64())),
    );
    doc.push(
        "max_mttr_secs",
        JsonValue::Num(t.max_mttr().map_or(0.0, |d| d.as_secs_f64())),
    );
    doc.push(
        "peak_redundant_bytes",
        JsonValue::Num(t.peak_redundant_bytes as f64),
    );
    doc.push(
        "peak_under_replicated",
        JsonValue::Num(t.peak_under_replicated as f64),
    );
    doc.push(
        "under_replicated_final",
        JsonValue::Num(d.under_replicated_final as f64),
    );
    doc.push(
        "repair_backlog_bytes",
        JsonValue::Num(d.repair_backlog_bytes as f64),
    );
    doc
}

fn faults_json(f: &faasmem_faas::FaultReport) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("link_availability", JsonValue::Num(f.link_availability));
    doc.push(
        "link_downtime_secs",
        JsonValue::Num(f.link_downtime.as_secs_f64()),
    );
    doc.push("page_in_retries", JsonValue::Num(f.page_in_retries as f64));
    doc.push(
        "page_ins_gave_up",
        JsonValue::Num(f.page_ins_gave_up as f64),
    );
    doc.push(
        "forced_cold_restarts",
        JsonValue::Num(f.forced_cold_restarts as f64),
    );
    doc.push(
        "node_loss_events",
        JsonValue::Num(f.node_loss_events as f64),
    );
    doc.push(
        "container_crashes",
        JsonValue::Num(f.container_crashes as f64),
    );
    doc.push(
        "lost_remote_bytes",
        JsonValue::Num(f.lost_remote_bytes as f64),
    );
    doc.push(
        "offloads_refused",
        JsonValue::Num(f.offloads_refused as f64),
    );
    doc.push("breaker_opens", JsonValue::Num(f.breaker_opens as f64));
    doc.push("slo_total", JsonValue::Num(f.slo_total as f64));
    doc.push("slo_violations", JsonValue::Num(f.slo_violations as f64));
    doc
}

fn faasmem_json(stats: &FaasMemStats) -> JsonValue {
    let mut doc = JsonValue::obj();
    let recalls: u64 = stats.runtime_recalls.values().sum();
    let offloads: u64 = stats.runtime_offloads.values().sum();
    doc.push("runtime_recalls_total", JsonValue::Num(recalls as f64));
    doc.push("runtime_offloads_total", JsonValue::Num(offloads as f64));
    let windows: Vec<JsonValue> = stats
        .windows_chosen
        .iter()
        .map(|&(_, w)| JsonValue::Num(f64::from(w)))
        .collect();
    doc.push("windows_chosen", JsonValue::Arr(windows));
    doc.push("rollbacks", JsonValue::Num(stats.rollbacks as f64));
    doc.push(
        "semi_warm_bytes",
        JsonValue::Num(stats.semi_warm_bytes as f64),
    );
    doc.push(
        "semi_warm_records",
        JsonValue::Num(stats.semi_warm_records.len() as f64),
    );
    doc
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

struct Cell<'a> {
    labels: CellLabels,
    bench: &'a BenchCase,
    trace: &'a TraceSpec,
    config: &'a ConfigCase,
    policy: &'a PolicySpec,
}

/// Runs every cell of `grid`, fanning across `opts.jobs` worker threads,
/// and merges the results in grid order. A panicking cell is captured as
/// that cell's error; the remaining cells still complete.
pub fn run_grid(grid: &ExperimentGrid, opts: &HarnessOptions) -> GridRun {
    let default_config = [ConfigCase::default_case()];
    let configs: &[ConfigCase] = if grid.configs.is_empty() {
        &default_config
    } else {
        &grid.configs
    };

    let mut cells: Vec<Cell<'_>> = Vec::with_capacity(grid.len());
    {
        profile_scope!("expand_grid");
        for trace in &grid.traces {
            for bench in &grid.benches {
                for config in configs {
                    for policy in &grid.policies {
                        cells.push(Cell {
                            labels: CellLabels {
                                trace: trace.label.clone(),
                                bench: bench.label.clone(),
                                config: config.label.clone(),
                                policy: policy.label().to_string(),
                            },
                            bench,
                            trace,
                            config,
                            policy,
                        });
                    }
                }
            }
        }
    }

    let started = Instant::now();
    let n = cells.len();
    let jobs = opts.jobs.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let quick = opts.quick;
    let trace_mask = opts.trace.as_ref().map(|_| opts.trace_filter);
    let sample_spec = opts.sample_spec();

    let mut results: Vec<Option<CellResult>> = Vec::with_capacity(n);
    results.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let cells = &cells;
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let cell = &cells[i];
                    let cell_started = Instant::now();
                    let outcome = {
                        profile_scope!("cell");
                        run_cell(cell, quick, trace_mask, sample_spec)
                    };
                    mine.push((
                        i,
                        CellResult {
                            labels: cell.labels.clone(),
                            seed: cell.trace.seed_for(cell.bench),
                            fault_seed: cell.config.config.faults.as_ref().map(|f| f.spec.seed),
                            outcome,
                            wall_secs: cell_started.elapsed().as_secs_f64(),
                            peak_rss_kb: rss::peak_rss_kb(),
                        },
                    ));
                }
                // Hand this worker's span aggregates to the global
                // profiler table before the thread dies.
                profiler::flush_thread();
                mine
            }));
        }
        for handle in handles {
            for (i, result) in handle.join().expect("worker thread") {
                results[i] = Some(result);
            }
        }
    });

    GridRun {
        name: grid.name.clone(),
        jobs,
        quick: opts.quick,
        cells: results
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect(),
        wall_total_secs: started.elapsed().as_secs_f64(),
    }
}

/// Validates every platform configuration the grid declares, returning
/// one descriptive message per problem (empty when the grid is sound).
/// An empty `configs` axis means the default configuration, which is
/// always valid.
pub fn validate_grid(grid: &ExperimentGrid) -> Vec<String> {
    let mut problems = Vec::new();
    for case in &grid.configs {
        if let Err(errors) = case.config.validate() {
            for e in errors {
                problems.push(format!("config `{}`: {e}", case.label));
            }
        }
    }
    problems
}

/// Convenience wrapper: validate the grid's configurations, run, export
/// JSON under `opts.out_dir`, print the timing line. A misconfigured
/// grid exits with status 2 before any cell runs — a driver with a
/// nonsensical config should fail loudly, not simulate garbage. IO
/// errors only warn — experiment output on stdout is more important
/// than the export.
pub fn run_and_export(grid: &ExperimentGrid, opts: &HarnessOptions) -> GridRun {
    let mut problems = validate_grid(grid);
    if let Some(spec) = opts.sample_spec() {
        problems.extend(spec.validate());
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("[harness] grid {}: {p}", grid.name);
        }
        std::process::exit(2);
    }
    if opts.profile {
        profiler::set_enabled(true);
    }
    let run = run_grid(grid, opts);
    match run.write_results(&opts.out_dir) {
        Ok(path) => eprintln!("[harness] wrote {}", path.display()),
        Err(e) => eprintln!(
            "[harness] could not write results under {}: {e}",
            opts.out_dir.display()
        ),
    }
    if let Some(path) = &opts.trace {
        match run.write_trace(path) {
            Ok(()) => eprintln!(
                "[harness] wrote {} and {}",
                path.display(),
                path.with_extension("chrome.json").display()
            ),
            Err(e) => eprintln!("[harness] could not write trace {}: {e}", path.display()),
        }
    }
    if let Some(path) = &opts.series {
        match run.write_series(path, opts.series_interval) {
            Ok(()) => eprintln!("[harness] wrote {}", path.display()),
            Err(e) => eprintln!("[harness] could not write series {}: {e}", path.display()),
        }
    }
    if opts.profile {
        profiler::set_enabled(false);
        let phases = profiler::take_report();
        print_phase_table(&phases);
        match run.write_bench(&opts.out_dir, &phases) {
            Ok(path) => eprintln!("[harness] wrote {}", path.display()),
            Err(e) => eprintln!(
                "[harness] could not write BENCH file under {}: {e}",
                opts.out_dir.display()
            ),
        }
    }
    run.print_timing();
    run
}

/// Renders the profiler's per-phase table to stderr (stderr so stdout
/// stays byte-comparable across runs).
fn print_phase_table(phases: &[(&'static str, profiler::PhaseStat)]) {
    if phases.is_empty() {
        eprintln!("[profile] no spans recorded");
        return;
    }
    eprintln!(
        "[profile] {:<14} {:>8} {:>12} {:>12}",
        "phase", "calls", "total_s", "self_s"
    );
    for (name, stat) in phases {
        eprintln!(
            "[profile] {:<14} {:>8} {:>12.4} {:>12.4}",
            name, stat.calls, stat.total_secs, stat.self_secs
        );
    }
}

fn run_cell(
    cell: &Cell<'_>,
    quick: bool,
    trace_mask: Option<LayerMask>,
    sample_spec: Option<SampleSpec>,
) -> Result<CellOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let trace = cell.trace.build(cell.bench, quick);
        // The tracer lives and dies on this worker thread; only the
        // drained (Send) event vector crosses back to the merger, so
        // tracing cannot perturb cell scheduling or output order.
        let tracer = match trace_mask {
            Some(mask) => Tracer::recording(mask),
            None => Tracer::disabled(),
        };
        // Same lifecycle for the sampler: per-cell, thread-confined,
        // only the drained columnar series crosses back.
        let sampler = match sample_spec {
            Some(spec) => Sampler::recording(spec),
            None => Sampler::disabled(),
        };
        tracer.emit(
            None,
            None,
            EventKind::CellStart {
                trace: cell.labels.trace.clone(),
                bench: cell.labels.bench.clone(),
                config: cell.labels.config.clone(),
                policy: cell.labels.policy.clone(),
                seed: cell.trace.seed_for(cell.bench),
            },
        );
        let builder = PlatformSim::builder()
            .register_functions(cell.bench.specs.iter().cloned())
            .config(cell.config.config.clone())
            .tracer(tracer.clone())
            .sampler(sampler.clone());
        let (policy, stats) = match cell.policy {
            PolicySpec::Kind(kind) => kind.build(),
            PolicySpec::Custom { make, .. } => make(),
        };
        let mut sim = builder.policy(policy).build();
        let mut report = {
            profile_scope!("simulate");
            sim.run(&trace)
        };
        tracer.set_now(report.finished_at);
        tracer.emit(
            None,
            None,
            EventKind::CellEnd {
                requests: report.requests_completed as u64,
                sim_secs: report.finished_at.as_secs_f64(),
            },
        );
        let summary = {
            profile_scope!("summarize");
            report.summarize()
        };
        CellOutcome {
            trace_len: trace.len(),
            trace_skipped_rows: cell.trace.skipped_rows,
            trace_stats: trace.stats(),
            summary,
            // Snapshot: the Rc-based handle must not cross threads, the
            // cloned stats may.
            faasmem: stats.map(|s| s.borrow().clone()),
            report,
            trace_events: tracer.take_events(),
            series: sampler.take_series(),
        }
    }))
    .map_err(|payload| {
        let msg = if let Some(msg) = payload.downcast_ref::<&'static str>() {
            (*msg).to_string()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else {
            "cell panicked with a non-string payload".to_string()
        };
        // Carry everything needed to replay the cell stand-alone: its
        // coordinates, the mixed trace seed, and the fault seed when
        // chaos was enabled.
        let fault_seed = cell
            .config
            .config
            .faults
            .as_ref()
            .map_or("none".to_string(), |f| f.spec.seed.to_string());
        format!(
            "cell[trace={}, bench={}, config={}, policy={}] seed={} fault_seed={}: {msg}",
            cell.labels.trace,
            cell.labels.bench,
            cell.labels.config,
            cell.labels.policy,
            cell.trace.seed_for(cell.bench),
            fault_seed,
        )
    })
}
