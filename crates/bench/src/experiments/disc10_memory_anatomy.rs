//! Memory anatomy: where the byte-seconds go (observability study).
//!
//! Every earlier experiment reports *how much* memory a policy saves;
//! this one reports *where each byte-second sits* while it is being
//! paid for. With `PlatformConfig::memory_anatomy` on, the platform
//! integrates resident memory over simulated time into named
//! components — active execution, keep-alive idle (the paper's cold
//! waste), init overhead, the pinned hot pool, and on the pool side
//! primary occupancy, redundancy amplification, repair backlog and
//! in-flight transfer — under two exact conservation invariants: the
//! compute-side stage partition must sum to the measured local
//! footprint and the pool-side partition to the pool's own ledger, in
//! integer byte-microseconds, on every inter-event interval.
//!
//! The grid sweeps keep-alive dwell (10 min vs 2 min) against pool
//! redundancy (none vs 2-way mirroring) and prints the waste matrix.
//! The headline, asserted by CI's schema check: FaaSMem converts
//! keep-alive idle byte-seconds into (cheaper) pool-primary
//! byte-seconds, and mirroring prices that conversion with an explicit
//! redundancy-amplification premium.
//!
//! Anatomy is pure observation — enabling it changes no event, no RNG
//! draw, no latency — so the grid is byte-identical across `--jobs`
//! like every other experiment (CI compares serial against parallel).
//!
//! `--quick` is deliberately ignored: the full grid takes about a
//! second, and a truncated run never reaches keep-alive expiry, which
//! is the regime the study is about.

use std::io::{self, Write};

use super::write_table;
use crate::harness::{self, BenchCase, ConfigCase, ExperimentGrid, HarnessOptions, TraceSpec};
use crate::PolicyKind;
use faasmem_faas::{byte_us_to_byte_secs, PlatformConfig, WasteComponent};
use faasmem_pool::{FabricConfig, RedundancyPolicy};
use faasmem_sim::SimDuration;
use faasmem_workload::LoadClass;

/// Pool fabric size under mirroring; two nodes is the smallest fabric
/// that can hold a 2-way mirror.
const NODES: u32 = 2;

fn keep_alive_axis() -> [(u64, &'static str); 2] {
    [(10, "ka=10min"), (2, "ka=2min")]
}

fn redundancy_axis() -> [(RedundancyPolicy, &'static str); 2] {
    [
        (RedundancyPolicy::None, "no redundancy"),
        (RedundancyPolicy::Mirror { k: 2 }, "mirror2"),
    ]
}

/// Grid configurations: keep-alive dwell crossed with pool redundancy.
/// Every case sets `memory_anatomy: true` — the whole point of the
/// experiment — which adds the `"memory_anatomy"` block to each cell
/// without perturbing the run.
fn configs() -> Vec<ConfigCase> {
    let mut cases = Vec::new();
    for (mins, ka_label) in keep_alive_axis() {
        for (scheme, r_label) in redundancy_axis() {
            let label = format!("{ka_label}, {r_label}");
            let mut config = PlatformConfig {
                memory_anatomy: true,
                keep_alive: SimDuration::from_mins(mins),
                ..PlatformConfig::default()
            };
            if !matches!(scheme, RedundancyPolicy::None) {
                config.fabric = FabricConfig {
                    nodes: NODES,
                    redundancy: scheme,
                    ..FabricConfig::default()
                };
            }
            cases.push(ConfigCase::new(&label, config));
        }
    }
    cases
}

fn gib_s(byte_secs: f64) -> String {
    format!("{:.2}", byte_secs / (1024.0 * 1024.0 * 1024.0))
}

pub(super) fn run(opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    // Always run the full grid (about a second of wall time): the quick
    // window ends before any keep-alive expiry, leaving nothing to
    // attribute, and a fixed mode keeps the tracked artifacts
    // reproducible from `experiments all` with or without `--quick`.
    let opts = &HarnessOptions {
        quick: false,
        ..opts.clone()
    };
    let grid = ExperimentGrid::new("disc10_memory_anatomy")
        .traces(vec![TraceSpec::synth("middle", 1010, LoadClass::Middle)])
        .bench(BenchCase::named("bert"))
        .configs(configs())
        .policy_kinds([PolicyKind::Baseline, PolicyKind::FaasMem]);
    let run = harness::run_and_export(&grid, opts)?;

    writeln!(out, "=== bert, memory anatomy (GiB*s per component) ===\n")?;

    let columns = [
        WasteComponent::ActiveExec,
        WasteComponent::KeepaliveIdle,
        WasteComponent::InitOverhead,
        WasteComponent::LocalHotPool,
        WasteComponent::PoolPrimary,
        WasteComponent::RedundancyAmplification,
        WasteComponent::OffloadInflight,
    ];
    let mut rows = Vec::new();
    let mut cells = 0u64;
    let mut violations = 0u64;
    for ConfigCase { label, .. } in configs() {
        for kind in [PolicyKind::Baseline, PolicyKind::FaasMem] {
            let outcome = run.outcome("middle", "bert", &label, kind.name());
            let anatomy = outcome
                .summary
                .memory_anatomy
                .expect("anatomy enabled in every config");
            cells += 1;
            violations += anatomy.conservation_violations();
            let mut row = vec![format!("{label}, {}", kind.name())];
            row.extend(
                columns
                    .iter()
                    .map(|&c| gib_s(byte_us_to_byte_secs(anatomy.waste.component(c)))),
            );
            rows.push(row);
        }
    }
    let mut headers = vec!["cell"];
    headers.extend(columns.iter().map(|c| c.name()));
    write_table(out, &headers, &rows)?;

    writeln!(out)?;

    // The conservation invariants, stated on the output so a regression
    // is visible in the diff, not just in the JSON: the stage partition
    // tiles the measured local footprint, the pool partition tiles the
    // pool's ledger, and the lifecycle flow rows balance.
    writeln!(
        out,
        "conservation: compute and pool partitions tile their measured totals in all \
         {cells} cells ({violations} violations)\n"
    )?;

    // The page-lifecycle flow ledger for the busiest cell: every page
    // transition counted exactly once at its mutation site.
    let flow = run
        .outcome(
            "middle",
            "bert",
            "ka=10min, no redundancy",
            PolicyKind::FaasMem.name(),
        )
        .summary
        .memory_anatomy
        .expect("anatomy enabled")
        .flow;
    let f = flow.flows;
    writeln!(
        out,
        "page flow (ka=10min, no redundancy, faasmem): allocated {} reused {} offloaded {} \
         recalled {}+{} freed {}+{} across {} tables, {} row violations\n",
        f.allocated,
        f.reused,
        f.offloaded,
        f.recalled_demand,
        f.recalled_prefetch,
        f.freed_local,
        f.freed_remote,
        flow.tables,
        flow.row_violations(),
    )?;

    // The attribution shift, quantified: under the identical trace,
    // FaaSMem moves keep-alive idle byte-seconds into pool-primary
    // occupancy, and mirroring states the premium for doing so durably.
    let comp = |config: &str, kind: PolicyKind, c: WasteComponent| {
        byte_us_to_byte_secs(
            run.outcome("middle", "bert", config, kind.name())
                .summary
                .memory_anatomy
                .expect("anatomy enabled")
                .waste
                .component(c),
        )
    };
    let idle_base = comp(
        "ka=10min, no redundancy",
        PolicyKind::Baseline,
        WasteComponent::KeepaliveIdle,
    );
    let idle_faas = comp(
        "ka=10min, no redundancy",
        PolicyKind::FaasMem,
        WasteComponent::KeepaliveIdle,
    );
    let pool_faas = comp(
        "ka=10min, no redundancy",
        PolicyKind::FaasMem,
        WasteComponent::PoolPrimary,
    );
    let mirror_primary = comp(
        "ka=10min, mirror2",
        PolicyKind::FaasMem,
        WasteComponent::PoolPrimary,
    );
    let mirror_premium = comp(
        "ka=10min, mirror2",
        PolicyKind::FaasMem,
        WasteComponent::RedundancyAmplification,
    );
    writeln!(
        out,
        "attribution shift (ka=10min): keepalive_idle {} (baseline) -> {} (faasmem) GiB*s, \
         pool_primary 0.00 -> {} GiB*s",
        gib_s(idle_base),
        gib_s(idle_faas),
        gib_s(pool_faas),
    )?;
    writeln!(
        out,
        "redundancy premium (ka=10min, faasmem): mirror2 adds {} GiB*s of replica \
         occupancy on {} GiB*s primary ({:.0}% amplification)",
        gib_s(mirror_premium),
        gib_s(mirror_primary),
        if mirror_primary > 0.0 {
            100.0 * mirror_premium / mirror_primary
        } else {
            0.0
        },
    )?;
    writeln!(
        out,
        "\nShape: the baseline pays for idle keep-alive memory in full; FaaSMem\n\
         offloads those pages, so the same byte-seconds reappear as pool-primary\n\
         occupancy (plus a small in-flight transfer term), shrinking keepalive_idle\n\
         strictly. Mirroring doubles the pool-side bytes and the anatomy prices\n\
         that premium as redundancy_amplification - the cost of durable offload\n\
         is a named component, not a hidden multiplier. The decomposition is\n\
         exact: per interval the components sum to the measured footprints, so\n\
         every saved or spent byte-second has a stated cause - nothing is left over."
    )
}
