//! Figure 10: the periodic page-rollback procedure, step by step.
//!
//! The paper's Fig 10 schematic shows pages cycling between the Puckets'
//! inactive lists, the hot page pool and remote memory as rollback rounds
//! run. This demo drives one web container through the cycle and prints
//! the three populations after every step, making the §5.3 state machine
//! visible: roll back → observe one request window → offload leftovers.

use std::io::{self, Write};

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_core::{PucketKind, Puckets};
use faasmem_faas::touch_request;
use faasmem_mem::{mib_to_pages, PageTable, Segment};
use faasmem_sim::SimRng;
use faasmem_workload::{BenchmarkSpec, RequestAccess};

const PAGE_SIZE: u64 = 64 * 1024;

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let spec = BenchmarkSpec::by_name("web").expect("catalog");
    let mut table = PageTable::new(PAGE_SIZE);
    let runtime_pages = mib_to_pages(spec.runtime_mib, PAGE_SIZE) as u32;
    let init_pages = mib_to_pages(spec.init_mib, PAGE_SIZE) as u32;
    let runtime = table.alloc(Segment::Runtime, runtime_pages);
    let mut puckets = Puckets::new();
    puckets.insert_runtime_init_barrier(&mut table);
    let init = table.alloc(Segment::Init, init_pages);
    puckets.insert_init_exec_barrier(&mut table);
    table.scan_accessed(); // allocation accesses are not requests
    let mut rng = SimRng::seed_from(10);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut snapshot = |step: &str, table: &PageTable, puckets: &Puckets| {
        let inactive = puckets.inactive_count(table, PucketKind::Runtime)
            + puckets.inactive_count(table, PucketKind::Init);
        let hot = puckets.hot_pool_pages(table).len() as u64;
        let remote = table.remote_pages();
        rows.push(vec![
            step.to_string(),
            inactive.to_string(),
            hot.to_string(),
            remote.to_string(),
        ]);
    };

    let run_request = |table: &mut PageTable, puckets: &Puckets, rng: &mut SimRng| {
        let plan = RequestAccess::plan(
            spec.init_access,
            mib_to_pages(spec.runtime_hot_mib, PAGE_SIZE) as u32,
            init_pages,
            0,
            rng,
        );
        touch_request(table, runtime, init, &plan);
        puckets.promote_accessed(table);
    };

    snapshot("segregated (barriers inserted)", &table, &puckets);
    // A few requests populate the hot pool; then the §5 policies offload
    // the inactive leftovers.
    for i in 1..=3 {
        run_request(&mut table, &puckets, &mut rng);
        snapshot(&format!("after request {i} (promote)"), &table, &puckets);
    }
    let inactive: Vec<_> = puckets
        .inactive_pages(&table, PucketKind::Runtime)
        .into_iter()
        .chain(puckets.inactive_pages(&table, PucketKind::Init))
        .collect();
    table.offload_pages(inactive);
    snapshot("offload inactive lists", &table, &puckets);

    // The rollback cycle of Fig 10.
    puckets.rollback_hot_pool(&mut table);
    snapshot("ROLLBACK: hot pool -> puckets", &table, &puckets);
    for i in 1..=2 {
        run_request(&mut table, &puckets, &mut rng);
        snapshot(
            &format!("observe request {i} (re-promote)"),
            &table,
            &puckets,
        );
    }
    let leftovers: Vec<_> = puckets
        .inactive_pages(&table, PucketKind::Runtime)
        .into_iter()
        .chain(puckets.inactive_pages(&table, PucketKind::Init))
        .collect();
    let offloaded = table.offload_pages(leftovers);
    snapshot("offload un-retouched leftovers", &table, &puckets);

    write_table(
        out,
        &["step", "inactive pages", "hot pool", "remote"],
        &rows,
    )?;
    writeln!(
        out,
        "pages offloaded by this rollback round: {offloaded}\n\n\
         Paper reference (Fig 10 / §5.3): rollback returns hot-pool pages to their\n\
         Puckets; a request window re-promotes the truly hot ones; the stale remainder\n\
         is offloaded. A minimum interval t >= 10 s bounds the overhead (§8.5)."
    )
}
