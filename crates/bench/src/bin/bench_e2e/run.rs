//! One repetition of a workload, in process: set-up, the run phase on
//! the workload's worker threads, and every quantity the metrics are
//! derived from.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use faasmem_faas::{RunReport, RunSummary};
use faasmem_metrics::LatencyRecorder;
use faasmem_trace::Tracer;
use faasmem_workload::InvocationTrace;

use crate::probe::{self, CountingSink, Hook, Probe, SharedProbe, TimedPolicy, COUNTERS};
use crate::workloads::Setup;

/// Set-ups per repetition; the median one is reported. Set-up takes
/// milliseconds, so one sample would be mostly scheduler noise.
const SETUP_TRIALS: usize = 15;

/// What one repetition measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Hash of every node's [`RunSummary`], in node order.
    pub digest: String,
    /// Invocations in the workload's traces.
    pub invocations: u64,
    /// Requests the platform completed.
    pub completed: u64,
    /// Measured quantities by name: the per-layer metrics one repetition
    /// yields directly, plus raw inputs of the derived metrics.
    pub values: BTreeMap<String, f64>,
}

impl Rep {
    /// A named quantity; `0.0` when the repetition did not measure it.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Set-up time of one trial, summed over nodes.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    synth_s: f64,
    build_s: f64,
}

/// One node's run.
pub struct NodeRun {
    pub report: RunReport,
    pub probe: Option<Probe>,
    build_s: f64,
    run_s: f64,
}

/// Synthesizes every node's trace and builds (then drops) every node's
/// platform, [`SETUP_TRIALS`] times; returns the traces of the last
/// trial and the median trial's times.
fn set_up(setup: &Setup) -> (Vec<InvocationTrace>, SetupTimes) {
    let mut trials = Vec::with_capacity(SETUP_TRIALS);
    let mut traces = Vec::new();
    for _ in 0..SETUP_TRIALS {
        let mut times = SetupTimes {
            synth_s: 0.0,
            build_s: 0.0,
        };
        traces = (0..setup.workload.nodes())
            .map(|node| {
                let start = Instant::now();
                let trace = setup.trace(node);
                times.synth_s += start.elapsed().as_secs_f64();
                let start = Instant::now();
                let sim = setup.builder(node).policy(setup.policy(node)).build();
                times.build_s += start.elapsed().as_secs_f64();
                drop(sim);
                trace
            })
            .collect();
        trials.push(times);
    }
    trials.sort_by(|a, b| (a.synth_s + a.build_s).total_cmp(&(b.synth_s + b.build_s)));
    (traces, trials[trials.len() / 2])
}

/// Builds and runs one node. Traced runs wrap the policy in a
/// [`TimedPolicy`] and attach a [`CountingSink`]; untraced runs attach
/// nothing.
pub fn run_node(setup: &Setup, node: u32, trace: &InvocationTrace, traced: bool) -> NodeRun {
    let start = Instant::now();
    let builder = setup.builder(node);
    let policy = setup.policy(node);
    let (mut sim, shared) = if traced {
        let shared = SharedProbe::default();
        let sink = CountingSink::new(shared.clone());
        let sim = builder
            .policy(TimedPolicy::new(policy, shared.clone()))
            .tracer(Tracer::with_sink(probe::traced_layers(), Box::new(sink)))
            .build();
        (sim, Some(shared))
    } else {
        (builder.policy(policy).build(), None)
    };
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = sim.run(trace);
    let run_s = start.elapsed().as_secs_f64();
    NodeRun {
        report,
        probe: shared.map(|p| *p.borrow()),
        build_s,
        run_s,
    }
}

/// Runs every node on `threads` workers that claim nodes from an atomic
/// counter. Returns the wall time of the whole phase and the runs in
/// node order.
fn run_nodes(
    setup: &Setup,
    traces: &[InvocationTrace],
    threads: usize,
    traced: bool,
) -> (f64, Vec<NodeRun>) {
    let next = AtomicU32::new(0);
    let slots: Mutex<Vec<Option<NodeRun>>> = Mutex::new((0..traces.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out node ids; the
                // results are published through the mutex.
                let node = next.fetch_add(1, Ordering::Relaxed);
                let Some(trace) = traces.get(node as usize) else {
                    break;
                };
                let run = run_node(setup, node, trace, traced);
                slots
                    .lock()
                    .expect("no worker panics while holding the lock")[node as usize] = Some(run);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let runs = slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|run| run.expect("every node ran exactly once"))
        .collect();
    (wall_s, runs)
}

/// FNV-1a, 64 bit: a digest that is the same in every process and
/// toolchain.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a run's summaries. `RunSummary` leaves out
/// `events_processed`, the one report field allowed to differ between
/// equivalent runs.
pub fn digest(summaries: &[RunSummary]) -> String {
    let hash = summaries.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        fnv1a(h, format!("{s:?}").as_bytes())
    });
    format!("{hash:016x}")
}

/// Runs one repetition of `setup` on `threads` workers.
pub fn run_rep(setup: &Setup, threads: usize, traced: bool) -> Result<Rep, String> {
    let (traces, setup_times) = set_up(setup);
    let (wall_s, mut runs) = run_nodes(setup, &traces, threads, traced);
    // Read while every report is still alive.
    let peak_rss_mib = probe::peak_rss_mib()?;

    let mut v = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put("wall_s", wall_s);
    put("peak_rss_mib", peak_rss_mib);
    put("setup_s", setup_times.synth_s + setup_times.build_s);
    put("workload.synth_s", setup_times.synth_s);
    put("faas.build_s", setup_times.build_s);

    let node_walls: Vec<f64> = runs.iter().map(|r| r.build_s + r.run_s).collect();
    put("node_wall_sum_s", node_walls.iter().sum());
    put(
        "node_wall_max_s",
        node_walls.iter().copied().fold(0.0, f64::max),
    );
    put("run_s", runs.iter().map(|r| r.run_s).sum());

    let start = Instant::now();
    let summaries: Vec<RunSummary> = runs.iter_mut().map(|r| r.report.summarize()).collect();
    put("metrics.summarize_s", start.elapsed().as_secs_f64());

    let reports = || runs.iter().map(|r| &r.report);
    let sum = |f: &dyn Fn(&RunReport) -> f64| reports().map(f).sum::<f64>();
    put("sim_s", sum(&|r| r.finished_at.as_secs_f64()));
    put("local_mem_mib", sum(&|r| r.avg_local_mib()));
    put("faas.events", sum(&|r| r.events_processed as f64));
    put("faas.containers", sum(&|r| r.containers.len() as f64));
    put("faas.cold_starts", sum(&|r| r.cold_starts as f64));
    put(
        "faas.avg_live_containers",
        sum(&|r| r.avg_live_containers()),
    );
    let fault =
        |f: fn(&faasmem_faas::FaultReport) -> u64| sum(&|r| r.faults.as_ref().map_or(0, f) as f64);
    put(
        "faas.forced_cold_restarts",
        fault(|f| f.forced_cold_restarts),
    );
    put("pool.recalls_abandoned", fault(|f| f.page_ins_gave_up));
    put(
        "metrics.series_points",
        sum(&|r| (r.local_mem.len() + r.remote_mem.len() + r.live_containers.len()) as f64),
    );

    let mut latency = LatencyRecorder::new();
    for report in reports() {
        latency.merge(&report.latency);
    }
    for (name, q) in [
        ("p50_latency_ms", 0.50),
        ("p95_latency_ms", 0.95),
        ("p99_latency_ms", 0.99),
    ] {
        let at = latency.percentile(q).map_or(0.0, |d| d.as_micros() as f64);
        put(name, at / 1e3);
    }

    if traced {
        let mut total = Probe::default();
        for run in &runs {
            total.absorb(run.probe.as_ref().expect("traced runs carry a probe"));
        }
        for hook in Hook::ALL {
            let stat = total.hooks[hook as usize];
            put(&format!("policy.{}.calls", hook.name()), stat.calls as f64);
            put(
                &format!("policy.{}.self_s", hook.name()),
                stat.self_ns as f64 / 1e9,
            );
        }
        let hooks_ns: u64 = total.hooks.iter().map(|s| s.self_ns).sum();
        put("policy.self_s", hooks_ns as f64 / 1e9);
        put("trace.sink_s", total.sink_ns as f64 / 1e9);
        put("trace.events", total.events as f64);
        for (i, (name, _, scale)) in COUNTERS.iter().enumerate() {
            put(name, total.counts[i] as f64 * scale);
        }
    }

    Ok(Rep {
        digest: digest(&summaries),
        invocations: traces.iter().map(|t| t.len() as u64).sum(),
        completed: summaries.iter().map(|s| s.requests_completed as u64).sum(),
        values: v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Counter;
    use crate::workloads::Workload;

    #[test]
    fn timing_the_policy_leaves_every_output_unchanged() {
        for workload in Workload::ALL {
            let setup = Setup::tiny(workload, 7);
            let plain = run_rep(&setup, workload.threads(), false).unwrap();
            let timed = run_rep(&setup, workload.threads(), true).unwrap();
            assert_eq!(plain.digest, timed.digest, "{}", workload.name());
            assert_eq!(plain.completed, plain.invocations, "{}", workload.name());
        }
    }

    #[test]
    fn trace_derived_pool_ops_equal_pool_stats() {
        for workload in Workload::ALL {
            let setup = Setup::tiny(workload, 7);
            for node in 0..workload.nodes() {
                let run = run_node(&setup, node, &setup.trace(node), true);
                let probe = run.probe.expect("traced runs carry a probe");
                let stats = run.report.pool_stats;
                let label = format!("{} node {node}", workload.name());
                assert_eq!(
                    probe.counts[Counter::OutOps as usize],
                    stats.out_ops,
                    "{label}"
                );
                assert_eq!(
                    probe.counts[Counter::InOps as usize],
                    stats.in_ops,
                    "{label}"
                );
                if workload != Workload::AzureClusterNoOffload {
                    assert!(stats.out_ops > 0, "{label} offloads nothing");
                }
            }
        }
    }

    #[test]
    fn rack_outcomes_do_not_depend_on_the_thread_count() {
        let setup = Setup::tiny(Workload::RackChaos, 7);
        let one = run_rep(&setup, 1, false).unwrap();
        let two = run_rep(&setup, 2, false).unwrap();
        assert_eq!(one.digest, two.digest);
        for name in [
            "sim_s",
            "local_mem_mib",
            "p50_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "faas.events",
            "faas.forced_cold_restarts",
            "pool.recalls_abandoned",
        ] {
            assert_eq!(one.value(name), two.value(name), "{name}");
        }
    }
}
