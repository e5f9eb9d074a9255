//! Discussion: fault tolerance of the memory-pool architecture (§9).
//!
//! The paper's design note — far memory must degrade, not fail — is
//! exercised here with seeded chaos: RDMA link outages of varying length
//! are injected while FaaSMem offloads, under two recall policies
//! (patient: long timeouts, many retries; hasty: short timeouts, early
//! give-up and local rebuild) and two pool sizes. The output is the
//! memory-savings vs. availability trade-off: how much of the paper's
//! headline savings survives an unreliable fabric, and at what tail cost.
//!
//! The fault plan is a pure function of its seed, so the whole grid is
//! byte-identical across `--jobs` values.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::{fmt_mib, fmt_secs, PolicyKind};
use faasmem_faas::{FaultConfig, PlatformConfig};
use faasmem_pool::{PoolConfig, RemoteFaultPolicy};
use faasmem_sim::{FaultSpec, SimDuration};
use faasmem_workload::LoadClass;

/// Root seed of every injected fault plan; recorded in panic reports.
const FAULT_SEED: u64 = 0xD15C07;

/// Mean time between outages: roughly one per five simulated minutes.
const OUTAGE_MTBF: SimDuration = SimDuration::from_mins(5);

/// Warm requests on bert finish well under this; crossing it means the
/// request visibly stalled on the degraded pool.
const SLO: SimDuration = SimDuration::from_secs(2);

fn pools() -> Vec<(&'static str, PoolConfig)> {
    vec![
        ("56G pool", PoolConfig::infiniband_56g()),
        (
            "4G pool",
            PoolConfig {
                capacity_bytes: 4 << 30,
                ..PoolConfig::infiniband_56g()
            },
        ),
    ]
}

fn outages() -> Vec<(&'static str, SimDuration)> {
    vec![
        ("30s outages", SimDuration::from_secs(30)),
        ("120s outages", SimDuration::from_secs(120)),
    ]
}

fn recall_policies() -> Vec<(&'static str, RemoteFaultPolicy)> {
    vec![
        ("patient", RemoteFaultPolicy::default()),
        ("hasty", RemoteFaultPolicy::hasty()),
    ]
}

/// Every configuration of the grid: the healthy control first, then the
/// full outage-length × recall-policy × pool-size cross.
fn configs() -> Vec<ConfigCase> {
    let mut cases = vec![ConfigCase::new("no faults", PlatformConfig::default())];
    for (pool_name, pool) in pools() {
        for (outage_name, outage_mean) in outages() {
            for (policy_name, policy) in recall_policies() {
                let label = format!("{pool_name}, {outage_name}, {policy_name}");
                let config = PlatformConfig {
                    pool: pool.clone(),
                    faults: Some(FaultConfig {
                        spec: FaultSpec::new(FAULT_SEED).outages(OUTAGE_MTBF, outage_mean),
                        policy,
                        slo: Some(SLO),
                        plan_override: None,
                    }),
                    ..PlatformConfig::default()
                };
                cases.push(ConfigCase::new(&label, config));
            }
        }
    }
    cases
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let grid = ExperimentGrid::new("disc07_fault_tolerance")
        .trace(TraceSpec::synth("high-bursty", 907, LoadClass::High).bursty(true))
        .bench(BenchCase::named("bert"))
        .configs(configs())
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    let invocations = run
        .outcome(
            "high-bursty",
            "bert",
            "no faults",
            PolicyKind::FaasMem.name(),
        )
        .trace_len;
    writeln!(
        out,
        "=== bert, bursty trace, {invocations} invocations, chaos seed {FAULT_SEED:#x} ==="
    )?;
    let mut rows = Vec::new();
    for ConfigCase { label, .. } in configs() {
        let faasmem = run.outcome("high-bursty", "bert", &label, PolicyKind::FaasMem.name());
        let baseline = run.outcome("high-bursty", "bert", &label, PolicyKind::Baseline.name());
        let s = &faasmem.summary;
        // Savings relative to the no-offload baseline under the *same*
        // fault schedule: suspension and local rebuilds eat into them.
        let savings = if baseline.summary.avg_local_mib > 0.0 {
            100.0 * (1.0 - s.avg_local_mib / baseline.summary.avg_local_mib)
        } else {
            0.0
        };
        let [availability, slo_viol, gave_up, forced] = match &s.faults {
            Some(f) => [
                format!("{:.4}", f.link_availability),
                format!("{:.2}%", 100.0 * f.slo_violation_ratio()),
                f.page_ins_gave_up.to_string(),
                f.forced_cold_restarts.to_string(),
            ],
            None => ["1.0000", "—", "—", "—"].map(String::from),
        };
        rows.push(vec![
            label,
            fmt_mib(s.avg_local_mib),
            format!("{savings:.1}%"),
            fmt_secs(s.latency.p95.as_secs_f64()),
            availability,
            slo_viol,
            gave_up,
            forced,
        ]);
    }
    write_table(
        out,
        &[
            "configuration",
            "avg mem",
            "savings",
            "P95",
            "availability",
            "SLO viol",
            "gave up",
            "forced cold",
        ],
        &rows,
    )?;
    writeln!(
        out,
        "\nShape: short outages cost tail latency but keep most of the savings. Long\n\
         outages punish the patient policy — stalled recalls keep containers resident\n\
         and resident memory balloons past the no-offload baseline — while the hasty\n\
         policy gives up fast, rebuilds locally (forced cold restarts) and keeps both\n\
         tails and memory bounded: the degrade-don't-fail case for §9's architecture."
    )
}
