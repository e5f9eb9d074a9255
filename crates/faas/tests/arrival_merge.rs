//! Edge cases of the event loop's arrival merge: trace arrivals stream
//! from the sorted [`InvocationTrace`] and are merged with the event
//! queue, an arrival winning every tie with a queued event at the same
//! instant. Each case pins exact outputs: the merge must reproduce the
//! `(time, seq)` order of queuing every arrival ahead of all other
//! events, so any drift in its tie rule or in the tick's reschedule
//! condition changes a field.

use faasmem_core::FaasMemPolicy;
use faasmem_faas::{FaultConfig, FunctionId, NullPolicy, PlatformSim, RunReport};
use faasmem_sim::faults::{CrashEvent, FaultPlan, NodeLossEvent, PoolNodeLossEvent};
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::{BenchmarkSpec, Invocation, InvocationTrace};

/// The observable outcome of one run, reduced to exact values.
#[derive(Debug, PartialEq)]
struct Pinned {
    requests: usize,
    cold_starts: usize,
    containers: usize,
    events: u64,
    finished_us: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    avg_local_mib: f64,
    avg_remote_mib: f64,
    bytes_out: u64,
    bytes_in: u64,
}

fn pin(mut report: RunReport) -> Pinned {
    let events = report.events_processed;
    let s = report.summarize();
    Pinned {
        requests: s.requests_completed,
        cold_starts: s.cold_starts,
        containers: s.containers,
        events,
        finished_us: report.finished_at.as_micros(),
        p50_us: s.latency.p50.as_micros(),
        p99_us: s.latency.p99.as_micros(),
        max_us: s.max_latency.as_micros(),
        avg_local_mib: s.avg_local_mib,
        avg_remote_mib: s.avg_remote_mib,
        bytes_out: s.pool_stats.bytes_out,
        bytes_in: s.pool_stats.bytes_in,
    }
}

/// A trace over `json` (function 0) and `web` (function 1) from
/// `(millis, function)` pairs.
fn trace(arrivals: &[(u64, u32)], duration_secs: u64) -> InvocationTrace {
    let invs = arrivals
        .iter()
        .map(|&(ms, f)| Invocation {
            at: SimTime::from_millis(ms),
            function: FunctionId(f),
        })
        .collect();
    InvocationTrace::from_invocations(invs, SimTime::from_secs(duration_secs))
}

fn faasmem_sim() -> faasmem_faas::PlatformBuilder {
    PlatformSim::builder()
        .register_function(BenchmarkSpec::by_name("json").unwrap())
        .register_function(BenchmarkSpec::by_name("web").unwrap())
        .policy(FaasMemPolicy::new())
        .seed(7)
}

#[test]
fn arrivals_on_tick_instants() {
    // FaaSMem ticks every whole second; every arrival below lands on a
    // tick instant, several of them as same-instant bursts.
    let arrivals = [
        (1_000, 0),
        (1_000, 1),
        (2_000, 0),
        (5_000, 0),
        (5_000, 0),
        (5_000, 1),
        (30_000, 1),
        (31_000, 0),
        (90_000, 0),
        (90_000, 0),
    ];
    let mut sim = faasmem_sim().build();
    let got = pin(sim.run(&trace(&arrivals, 100)));
    assert_eq!(
        got,
        Pinned {
            requests: 10,
            cold_starts: 3,
            containers: 3,
            events: 734,
            finished_us: 691_000_000,
            p50_us: 38348,
            p99_us: 1419313,
            max_us: 1419313,
            avg_local_mib: 143.43110541244573,
            avg_remote_mib: 220.00918712879883,
            bytes_out: 413138944,
            bytes_in: 0,
        }
    );
}

#[test]
fn arrivals_on_fault_plan_instants() {
    // Each fault fires at the same instant as an arrival (and a tick),
    // so the arrival must run first, then the tick and the fault in
    // their scheduling order. The pool-node loss at 180 s kills the
    // only pool node, so offloading stays suspended from then on: the
    // pages after it stay local and are never written out.
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            at: SimTime::from_secs(60),
            pick: 0,
        }],
        node_losses: vec![NodeLossEvent {
            at: SimTime::from_secs(120),
            fraction: 1.0,
        }],
        pool_node_losses: vec![PoolNodeLossEvent {
            at: SimTime::from_secs(180),
            node: 0,
        }],
        ..FaultPlan::empty()
    };
    let arrivals = [
        (10_000, 0),
        (10_000, 1),
        (60_000, 0),
        (60_000, 1),
        (120_000, 0),
        (180_000, 1),
        (180_000, 0),
    ];
    let mut sim = faasmem_sim()
        .faults(FaultConfig {
            plan_override: Some(plan),
            ..FaultConfig::default()
        })
        .build();
    let got = pin(sim.run(&trace(&arrivals, 200)));
    assert_eq!(
        got,
        Pinned {
            requests: 7,
            cold_starts: 3,
            containers: 3,
            events: 815,
            finished_us: 782_000_000,
            p50_us: 121100,
            p99_us: 1437943,
            max_us: 1437943,
            avg_local_mib: 303.71597000767264,
            avg_remote_mib: 26.94503914066496,
            bytes_out: 50331648,
            bytes_in: 0,
        }
    );
}

#[test]
fn ticks_keep_firing_across_an_idle_gap_longer_than_keep_alive() {
    // Every container recycles during the 10-minute gap and the queue
    // holds nothing but the tick, yet arrivals are still pending, so
    // the tick must keep rescheduling and tick the late containers.
    let arrivals = [(5_000, 0), (6_000, 1), (605_000, 0), (606_000, 1)];
    let mut sim = faasmem_sim().keep_alive(SimDuration::from_secs(60)).build();
    let got = pin(sim.run(&trace(&arrivals, 700)));
    assert_eq!(
        got,
        Pinned {
            requests: 4,
            cold_starts: 4,
            containers: 4,
            events: 688,
            finished_us: 668_000_000,
            p50_us: 665684,
            p99_us: 1497789,
            max_us: 1497789,
            avg_local_mib: 56.60992466766466,
            avg_remote_mib: 8.622754491017965,
            bytes_out: 100663296,
            bytes_in: 0,
        }
    );
}

#[test]
fn empty_trace_runs_only_the_frontier() {
    let empty = InvocationTrace::empty(SimTime::from_secs(100));
    // No policy tick and no faults: nothing happens at all.
    let mut plain = PlatformSim::builder()
        .register_function(BenchmarkSpec::by_name("json").unwrap())
        .policy(NullPolicy)
        .build();
    let got = pin(plain.run(&empty));
    assert_eq!(
        got,
        Pinned {
            requests: 0,
            cold_starts: 0,
            containers: 0,
            events: 0,
            finished_us: 0,
            p50_us: 0,
            p99_us: 0,
            max_us: 0,
            avg_local_mib: 0.0,
            avg_remote_mib: 0.0,
            bytes_out: 0,
            bytes_in: 0,
        }
    );
    // FaaSMem's first tick fires once, then stops: no containers, no
    // arrivals and nothing else queued.
    let mut ticking = faasmem_sim().build();
    let got = pin(ticking.run(&empty));
    assert_eq!(
        got,
        Pinned {
            requests: 0,
            cold_starts: 0,
            containers: 0,
            events: 1,
            finished_us: 1_000_000,
            p50_us: 0,
            p99_us: 0,
            max_us: 0,
            avg_local_mib: 0.0,
            avg_remote_mib: 0.0,
            bytes_out: 0,
            bytes_in: 0,
        }
    );
    // A queued fault keeps the tick alive until the fault has fired.
    let plan = FaultPlan {
        crashes: vec![CrashEvent {
            at: SimTime::from_millis(4_500),
            pick: 0,
        }],
        ..FaultPlan::empty()
    };
    let mut faulted = faasmem_sim()
        .faults(FaultConfig {
            plan_override: Some(plan),
            ..FaultConfig::default()
        })
        .build();
    let got = pin(faulted.run(&empty));
    assert_eq!(
        got,
        Pinned {
            requests: 0,
            cold_starts: 0,
            containers: 0,
            events: 6,
            finished_us: 5_000_000,
            p50_us: 0,
            p99_us: 0,
            max_us: 0,
            avg_local_mib: 0.0,
            avg_remote_mib: 0.0,
            bytes_out: 0,
            bytes_in: 0,
        }
    );
}
