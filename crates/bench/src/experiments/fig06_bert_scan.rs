//! Figure 6: Access-bit scans of the BERT benchmark's memory over time.
//!
//! The paper's scan shows ~1000 MB allocated and accessed during the
//! first ~5 s (initialization), some released afterwards, ~610 MB
//! accessed per request during execution, of which ~400 MB are hot init
//! pages touched by *every* request. This experiment reproduces the scan
//! as an ASCII heat map (page region × time) plus the headline numbers.

use std::collections::HashMap;
use std::io::{self, Write};

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_faas::{touch_request, Container, ContainerId, FunctionId};
use faasmem_mem::{mib_to_pages, pages_to_mib};
use faasmem_sim::{SimRng, SimTime};
use faasmem_workload::{BenchmarkSpec, RequestAccess};

const PAGE_SIZE: u64 = 64 * 1024;
const REGIONS: usize = 24;
const SECONDS: usize = 18;

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let spec = BenchmarkSpec::by_name("bert").expect("catalog");
    let mut container = Container::new(
        ContainerId(0),
        FunctionId(0),
        spec.clone(),
        PAGE_SIZE,
        SimTime::ZERO,
    );
    let mut rng = SimRng::seed_from(6);

    // heat[region][second] = pages touched.
    let mut heat = vec![[0u64; SECONDS]; REGIONS];
    let record_scan = |container: &mut Container, second: usize, heat: &mut Vec<[u64; SECONDS]>| {
        let total = container.table().len().max(1);
        for id in container.table_mut().scan_accessed() {
            let region = (id.index() * REGIONS / total).min(REGIONS - 1);
            heat[region][second.min(SECONDS - 1)] += 1;
        }
    };

    // t≈1s: runtime loaded; t≈1..5s: initialization allocates ~1 GB.
    container.finish_launch();
    record_scan(&mut container, 1, &mut heat);
    container.finish_init();
    record_scan(&mut container, 5, &mut heat);

    // Requests at t = 8, 10, 12, 14, 16 s.
    let exec_pages = mib_to_pages(spec.exec_mib, PAGE_SIZE) as u32;
    let mut per_request_touched = Vec::new();
    let mut init_hits: HashMap<u32, u32> = HashMap::new();
    let request_times = [8usize, 10, 12, 14, 16];
    for (i, &sec) in request_times.iter().enumerate() {
        if i > 0 {
            container.begin_execution(SimTime::from_secs(sec as u64));
        }
        let plan = RequestAccess::plan_with_rare_runtime(
            spec.init_access,
            container.runtime_hot_pages(),
            container.runtime_range().len(),
            spec.runtime_rare_touch_prob,
            container.init_range().len(),
            exec_pages,
            &mut rng,
        );
        for idx in plan.init.iter() {
            *init_hits.entry(idx).or_default() += 1;
        }
        let (runtime, init) = (container.runtime_range(), container.init_range());
        let table = container.table_mut();
        let mut touched = touch_request(table, runtime, init, &plan).touched;
        let exec = table.alloc(faasmem_mem::Segment::Execution, plan.exec_pages);
        touched += table.touch_range(exec).touched;
        container.set_exec_range(exec);
        record_scan(&mut container, sec, &mut heat);
        container.finish_execution(
            SimTime::from_secs(sec as u64) + spec.exec_time,
            spec.exec_time,
        );
        per_request_touched.push(u64::from(touched));
    }

    // ASCII heat map: rows = page regions (low addresses at the bottom).
    writeln!(
        out,
        "Access-bit scan heat map (page region x seconds; '#' dense, '.' sparse):\n"
    )?;
    for region in (0..REGIONS).rev() {
        let line: String = heat[region]
            .iter()
            .map(|&hits| match hits {
                0 => ' ',
                1..=31 => '.',
                32..=255 => ':',
                _ => '#',
            })
            .collect();
        writeln!(out, "  {line}|")?;
    }
    writeln!(out, "  {}+", "-".repeat(SECONDS))?;
    writeln!(out, "  0s{}17s\n", " ".repeat(SECONDS - 5))?;

    let every_request_hot = init_hits
        .values()
        .filter(|&&c| c == request_times.len() as u32)
        .count();
    let mean_touched =
        per_request_touched.iter().sum::<u64>() as f64 / per_request_touched.len() as f64;
    let rows = vec![
        vec![
            "init segment allocated".to_string(),
            format!(
                "{:.0} MiB",
                pages_to_mib(u64::from(container.init_range().len()), PAGE_SIZE)
            ),
            "~900-1000 MB".to_string(),
        ],
        vec![
            "accessed per request (mean)".to_string(),
            format!("{:.0} MiB", pages_to_mib(mean_touched as u64, PAGE_SIZE)),
            "~610 MB".to_string(),
        ],
        vec![
            "init pages hot in EVERY request".to_string(),
            format!(
                "{:.0} MiB",
                pages_to_mib(every_request_hot as u64, PAGE_SIZE)
            ),
            "~400 MB".to_string(),
        ],
    ];
    write_table(out, &["metric", "measured", "paper (Fig 6)"], &rows)
}
