//! Instruments the traced pass attaches from outside the simulator: a
//! policy wrapper that times every hook, a trace sink that counts the
//! Memory and Pool layers' events, and the process RSS reader.
//!
//! The wrapper and the sink share one [`Probe`]. A hook's self time is
//! its wall time minus the sink time spent inside it (hooks that offload
//! emit Memory and Pool events), so hook and sink times never overlap
//! and can both be subtracted from the run's wall time.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use faasmem_faas::{MemoryPolicy, PolicyCtx};
use faasmem_sim::SimDuration;
use faasmem_trace::{EventKind, LayerMask, TraceEvent, TraceLayer, TraceSink};

/// The layers the counting sink subscribes to. Container-layer events
/// would only add tracing cost: the platform's own counts come from the
/// run report.
pub fn traced_layers() -> LayerMask {
    LayerMask::only(TraceLayer::Memory).with(TraceLayer::Pool)
}

/// One [`MemoryPolicy`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    RuntimeLoaded,
    InitDone,
    RequestStart,
    RequestEnd,
    Tick,
    Recycled,
}

impl Hook {
    /// Every hook, in lifecycle order.
    pub const ALL: [Hook; 6] = [
        Hook::RuntimeLoaded,
        Hook::InitDone,
        Hook::RequestStart,
        Hook::RequestEnd,
        Hook::Tick,
        Hook::Recycled,
    ];

    /// The name used in metric names (`policy.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Hook::RuntimeLoaded => "runtime_loaded",
            Hook::InitDone => "init_done",
            Hook::RequestStart => "request_start",
            Hook::RequestEnd => "request_end",
            Hook::Tick => "tick",
            Hook::Recycled => "recycled",
        }
    }
}

/// Calls and self time of one hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookStat {
    pub calls: u64,
    pub self_ns: u64,
}

/// An event-derived counter.
#[derive(Debug, Clone, Copy)]
pub enum Counter {
    AccessScans,
    ScannedPages,
    GenerationAges,
    PagesCollected,
    PagesOffloaded,
    PagesInDemand,
    PagesInPrefetch,
    OutOps,
    InOps,
    BytesOut,
    BytesIn,
    InStallUs,
    InQueuedUs,
    OutQueuedUs,
    OffloadsRefused,
    RecallRetries,
    ReplicaRecalls,
    RepairBytes,
}

/// Per [`Counter`], in declaration order: the metric it is reported as,
/// the metric's unit, and the factor from the counted integer to it.
pub const COUNTERS: [(&str, &str, f64); 18] = [
    ("mem.access_scans", "count", 1.0),
    ("mem.scanned_pages", "pages", 1.0),
    ("mem.generation_ages", "count", 1.0),
    ("mem.pages_collected", "pages", 1.0),
    ("mem.pages_offloaded", "pages", 1.0),
    ("mem.pages_in_demand", "pages", 1.0),
    ("mem.pages_in_prefetch", "pages", 1.0),
    ("pool.out_ops", "count", 1.0),
    ("pool.in_ops", "count", 1.0),
    ("pool.bytes_out", "bytes", 1.0),
    ("pool.bytes_in", "bytes", 1.0),
    ("pool.in_stall_ms", "sim_ms", 1e-3),
    ("pool.in_queued_ms", "sim_ms", 1e-3),
    ("pool.out_queued_ms", "sim_ms", 1e-3),
    ("pool.offloads_refused", "count", 1.0),
    ("pool.recall_retries", "count", 1.0),
    ("pool.replica_recalls", "count", 1.0),
    ("pool.repair_bytes", "bytes", 1.0),
];

/// Everything the traced pass measures inside one node's run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    /// Per hook, indexed by `Hook as usize`.
    pub hooks: [HookStat; Hook::ALL.len()],
    /// Wall time spent inside the counting sink.
    pub sink_ns: u64,
    /// Events the sink received.
    pub events: u64,
    /// Indexed by `Counter as usize`.
    pub counts: [u64; COUNTERS.len()],
}

impl Probe {
    fn count(&mut self, kind: &EventKind) {
        self.events += 1;
        let mut add = |counter: Counter, n: u64| self.counts[counter as usize] += n;
        match *kind {
            EventKind::AccessScan { live, .. } => {
                add(Counter::AccessScans, 1);
                add(Counter::ScannedPages, live);
            }
            EventKind::GenerationAge { collected, .. } => {
                add(Counter::GenerationAges, 1);
                add(Counter::PagesCollected, collected);
            }
            EventKind::MemOffload { pages } => add(Counter::PagesOffloaded, pages),
            EventKind::MemPageIn { pages, demand } => {
                let counter = if demand {
                    Counter::PagesInDemand
                } else {
                    Counter::PagesInPrefetch
                };
                add(counter, pages);
            }
            EventKind::PoolPageOut {
                bytes, queued_us, ..
            } => {
                add(Counter::OutOps, 1);
                add(Counter::BytesOut, bytes);
                add(Counter::OutQueuedUs, queued_us);
            }
            EventKind::PoolPageIn {
                bytes,
                stall_us,
                queued_us,
            } => {
                add(Counter::InOps, 1);
                add(Counter::BytesIn, bytes);
                add(Counter::InStallUs, stall_us);
                add(Counter::InQueuedUs, queued_us);
            }
            EventKind::OffloadRefused => add(Counter::OffloadsRefused, 1),
            EventKind::RecallRetry { .. } => add(Counter::RecallRetries, 1),
            EventKind::ReplicaRecall { .. } => add(Counter::ReplicaRecalls, 1),
            EventKind::RepairDone { bytes, .. } => add(Counter::RepairBytes, bytes),
            _ => {}
        }
    }

    /// Adds another node's measurements to this one.
    pub fn absorb(&mut self, other: &Probe) {
        for (mine, theirs) in self.hooks.iter_mut().zip(&other.hooks) {
            mine.calls += theirs.calls;
            mine.self_ns += theirs.self_ns;
        }
        self.sink_ns += other.sink_ns;
        self.events += other.events;
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

/// The probe shared by one node's wrapper and sink.
pub type SharedProbe = Rc<RefCell<Probe>>;

/// Wraps a policy and times each hook call into the shared probe.
/// Every hook is forwarded unchanged, so the run's outputs are those of
/// the wrapped policy.
pub struct TimedPolicy<P> {
    inner: P,
    probe: SharedProbe,
}

impl<P: MemoryPolicy> TimedPolicy<P> {
    pub fn new(inner: P, probe: SharedProbe) -> TimedPolicy<P> {
        TimedPolicy { inner, probe }
    }

    fn time(&mut self, hook: Hook, call: impl FnOnce(&mut P)) {
        // The probe must not stay borrowed during the call: the sink
        // borrows it for every event the hook emits.
        let sink_before = self.probe.borrow().sink_ns;
        let start = Instant::now();
        call(&mut self.inner);
        let elapsed = duration_ns(start);
        let mut probe = self.probe.borrow_mut();
        let nested = probe.sink_ns - sink_before;
        let stat = &mut probe.hooks[hook as usize];
        stat.calls += 1;
        stat.self_ns += elapsed.saturating_sub(nested);
    }
}

impl<P: MemoryPolicy> MemoryPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick_interval(&self) -> Option<SimDuration> {
        self.inner.tick_interval()
    }

    fn on_runtime_loaded(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.time(Hook::RuntimeLoaded, |p| p.on_runtime_loaded(ctx));
    }

    fn on_init_done(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.time(Hook::InitDone, |p| p.on_init_done(ctx));
    }

    fn on_request_start(&mut self, ctx: &mut PolicyCtx<'_>, idle: Option<SimDuration>) {
        self.time(Hook::RequestStart, |p| p.on_request_start(ctx, idle));
    }

    fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.time(Hook::RequestEnd, |p| p.on_request_end(ctx));
    }

    fn on_tick(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.time(Hook::Tick, |p| p.on_tick(ctx));
    }

    fn on_container_recycled(&mut self, ctx: &mut PolicyCtx<'_>) {
        self.time(Hook::Recycled, |p| p.on_container_recycled(ctx));
    }
}

/// Counts events into the shared probe and times itself.
pub struct CountingSink {
    probe: SharedProbe,
}

impl CountingSink {
    pub fn new(probe: SharedProbe) -> CountingSink {
        CountingSink { probe }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        let start = Instant::now();
        let mut probe = self.probe.borrow_mut();
        probe.count(&event.kind);
        probe.sink_ns += duration_ns(start);
    }
}

fn duration_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set of this process in MiB: the larger of `VmHWM` and
/// `VmRSS` from `/proc/self/status`. Some kernels report a `VmHWM`
/// below the current `VmRSS`, so neither field alone is the peak.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    peak_rss_mib_from(&status).ok_or_else(|| "no VmHWM or VmRSS in /proc/self/status".to_string())
}

fn peak_rss_mib_from(status: &str) -> Option<f64> {
    let field_kib = |field: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    let kib = match (field_kib("VmHWM:"), field_kib("VmRSS:")) {
        (None, None) => return None,
        (hwm, rss) => hwm.unwrap_or(0).max(rss.unwrap_or(0)),
    };
    Some(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_takes_the_larger_field() {
        let hwm_below_rss = "VmHWM:\t  1024 kB\nVmRSS:\t  2048 kB\n";
        assert_eq!(peak_rss_mib_from(hwm_below_rss), Some(2.0));
        let usual = "VmRSS:\t  1024 kB\nVmHWM:\t  3072 kB\n";
        assert_eq!(peak_rss_mib_from(usual), Some(3.0));
        assert_eq!(peak_rss_mib_from("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mib().expect("Linux exposes /proc/self/status") > 0.0);
    }
}
