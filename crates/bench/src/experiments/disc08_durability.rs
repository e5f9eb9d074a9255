//! Discussion: durability of the memory-pool architecture (§9).
//!
//! `disc07` asks what happens when the pool *link* degrades; this
//! experiment asks what happens when whole pool *nodes* die. Seeded
//! chaos kills nodes of an M-node fabric while FaaSMem offloads, under
//! three redundancy schemes (none, 2-way mirroring, and a modeled 2+1
//! erasure code) and two node-loss rates. Mild link outages run
//! concurrently so the breaker-driven failover path is exercised too.
//! The output is the durability trade-off: what the redundancy costs
//! (replica write traffic, repair bandwidth, capacity overhead) against
//! what it buys (failover recalls and cold rebuilds avoided).
//!
//! The fault plan is a pure function of its seed, so the whole grid is
//! byte-identical across `--jobs` values.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::{fmt_mib, fmt_secs, PolicyKind};
use faasmem_faas::{FaultConfig, PlatformConfig};
use faasmem_pool::{FabricConfig, RedundancyPolicy};
use faasmem_sim::{FaultSpec, SimDuration};
use faasmem_workload::LoadClass;

/// Root seed of every injected fault plan; recorded in panic reports.
const FAULT_SEED: u64 = 0xD15C08;

/// Mean time between mild link outages (kept rarer and shorter than
/// disc07's so node deaths, not the link, dominate the availability
/// story).
const OUTAGE_MTBF: SimDuration = SimDuration::from_mins(10);

/// Mean link-outage length.
const OUTAGE_MEAN: SimDuration = SimDuration::from_secs(20);

/// Warm requests on bert finish well under this; crossing it means the
/// request visibly stalled on the degraded pool.
const SLO: SimDuration = SimDuration::from_secs(2);

/// Background repair bandwidth budget — deliberately modest so repair
/// backlogs and MTTR are visible at simulation scale.
const REPAIR_BYTES_PER_SEC: u64 = 32 << 20;

fn node_counts() -> Vec<u32> {
    vec![2, 4]
}

fn loss_rates() -> Vec<(&'static str, SimDuration)> {
    vec![
        ("losses~5min", SimDuration::from_mins(5)),
        ("losses~20min", SimDuration::from_mins(20)),
    ]
}

/// The redundancy schemes that fit an M-node fabric.
fn schemes(nodes: u32) -> Vec<RedundancyPolicy> {
    let mut schemes = vec![RedundancyPolicy::None, RedundancyPolicy::Mirror { k: 2 }];
    if nodes >= 4 {
        // data+parity = 3 < nodes leaves a spare node, so repair can
        // actually re-replicate after a loss.
        schemes.push(RedundancyPolicy::ErasureCoded { data: 2, parity: 1 });
    }
    schemes
}

/// Every configuration of the grid: the healthy single-node control
/// first (no fabric, no faults — its summary must stay byte-identical
/// to pre-fabric documents), then the node-count × loss-rate ×
/// redundancy cross.
fn configs() -> Vec<ConfigCase> {
    let mut cases = vec![ConfigCase::new("no faults", PlatformConfig::default())];
    for nodes in node_counts() {
        for (rate_name, mtbf) in loss_rates() {
            for scheme in schemes(nodes) {
                let label = format!("{nodes} nodes, {rate_name}, {}", scheme.label());
                let config = PlatformConfig {
                    fabric: FabricConfig {
                        nodes,
                        redundancy: scheme,
                        repair_bytes_per_sec: REPAIR_BYTES_PER_SEC,
                        ..FabricConfig::default()
                    },
                    faults: Some(FaultConfig {
                        spec: FaultSpec::new(FAULT_SEED)
                            .outages(OUTAGE_MTBF, OUTAGE_MEAN)
                            .pool_node_losses(mtbf, nodes),
                        slo: Some(SLO),
                        ..FaultConfig::default()
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
    let grid = ExperimentGrid::new("disc08_durability")
        .trace(TraceSpec::synth("high-bursty", 908, LoadClass::High).bursty(true))
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
        // fault schedule: rebuilds and replica overheads eat into them.
        let savings = if baseline.summary.avg_local_mib > 0.0 {
            100.0 * (1.0 - s.avg_local_mib / baseline.summary.avg_local_mib)
        } else {
            0.0
        };
        let forced = match &s.faults {
            Some(f) => f.forced_cold_restarts.to_string(),
            None => "—".to_string(),
        };
        let [failovers, avoided, repairs, mttr, lost_mib] = match &s.durability {
            Some(d) => [
                d.tracker.failover_recalls.to_string(),
                d.tracker.avoided_cold_rebuilds.to_string(),
                d.tracker.repairs_completed.to_string(),
                d.tracker
                    .mean_mttr()
                    .map_or("—".to_string(), |m| fmt_secs(m.as_secs_f64())),
                format!("{:.1}", d.tracker.bytes_lost as f64 / (1024.0 * 1024.0)),
            ],
            None => std::array::from_fn(|_| "—".to_string()),
        };
        rows.push(vec![
            label,
            fmt_mib(s.avg_local_mib),
            format!("{savings:.1}%"),
            fmt_secs(s.latency.p95.as_secs_f64()),
            forced,
            failovers,
            avoided,
            repairs,
            mttr,
            lost_mib,
        ]);
    }
    write_table(
        out,
        &[
            "configuration",
            "avg mem",
            "savings",
            "P95",
            "forced cold",
            "failovers",
            "avoided",
            "repairs",
            "MTTR",
            "lost MiB",
        ],
        &rows,
    )?;

    writeln!(out)?;

    // The redundancy dividend, stated explicitly: under the identical
    // chaos schedule, mirroring must strictly reduce forced rebuilds.
    let mut total_none = 0u64;
    let mut total_mirror = 0u64;
    for nodes in node_counts() {
        for (rate_name, _) in loss_rates() {
            let forced = |scheme: &RedundancyPolicy| {
                let label = format!("{nodes} nodes, {rate_name}, {}", scheme.label());
                run.outcome("high-bursty", "bert", &label, PolicyKind::FaasMem.name())
                    .summary
                    .faults
                    .map_or(0, |f| f.forced_cold_restarts)
            };
            let none = forced(&RedundancyPolicy::None);
            let mirror = forced(&RedundancyPolicy::Mirror { k: 2 });
            total_none += none;
            total_mirror += mirror;
            writeln!(
                out,
                "{nodes} nodes, {rate_name}: forced cold rebuilds {none} (none) -> {mirror} \
                 (mirror2){}",
                if mirror >= none && none > 0 {
                    " [no dividend: every node died before repair could matter]"
                } else {
                    ""
                }
            )?;
        }
    }
    writeln!(
        out,
        "grid total: forced cold rebuilds {total_none} (none) -> {total_mirror} (mirror2), {}",
        if total_mirror < total_none {
            "mirroring pays for itself"
        } else {
            "NO REDUNDANCY DIVIDEND"
        }
    )?;
    writeln!(
        out,
        "\nShape: without redundancy every pool-node death cold-rebuilds its tenants'\n\
         state; 2-way mirroring converts most of those into failover recalls at 2x\n\
         write traffic and capacity, while the modeled 2+1 erasure code pays 1.5x for\n\
         the same single-loss tolerance plus a reconstruction penalty on degraded\n\
         reads - but spreads each segment over more nodes, so double losses hurt it\n\
         more. Background repair re-replicates within its bandwidth budget, so MTTR -\n\
         not loss rate alone - decides how much redundancy a fabric retains. The only\n\
         cell without a dividend is the 2-node fabric losing nodes faster than repair\n\
         could ever help: once every node is dead, no scheme saves you."
    )
}
