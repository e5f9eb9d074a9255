//! Figure 9: Access-bit scans of the web benchmark.
//!
//! Each request serves a Pareto-selected cached HTML page, so each
//! vertical scan column contains multiple bars at different init-segment
//! offsets, and the set of touched pages keeps growing for many requests
//! — the reason web needs a *large* request window (~20) rather than the
//! single-request window ML inference gets (§5.2).

use std::collections::HashSet;
use std::io::{self, Write};

use super::write_table;
use crate::harness::HarnessOptions;
use faasmem_mem::{mib_to_pages, pages_to_mib};
use faasmem_sim::SimRng;
use faasmem_workload::{BenchmarkSpec, RequestAccess};

const PAGE_SIZE: u64 = 64 * 1024;
const REQUESTS: usize = 25;
const REGIONS: usize = 20;

pub(super) fn run(_opts: &HarnessOptions, out: &mut dyn Write) -> io::Result<()> {
    let spec = BenchmarkSpec::by_name("web").expect("catalog");
    let init_pages = mib_to_pages(spec.init_mib, PAGE_SIZE) as u32;
    let mut rng = SimRng::seed_from(9);

    let mut heat = vec![[false; REQUESTS]; REGIONS];
    let mut cumulative: HashSet<u32> = HashSet::new();
    let mut cumulative_curve = Vec::new();
    let mut bars_per_request = Vec::new();
    #[allow(clippy::needless_range_loop)] // `req` indexes a 2-D column
    for req in 0..REQUESTS {
        let plan = RequestAccess::plan(spec.init_access, 0, init_pages, 0, &mut rng);
        let mut regions_this_request = HashSet::new();
        for idx in plan.init.iter() {
            let region = (idx as usize * REGIONS / init_pages as usize).min(REGIONS - 1);
            heat[region][req] = true;
            regions_this_request.insert(region);
            cumulative.insert(idx);
        }
        bars_per_request.push(regions_this_request.len());
        cumulative_curve.push(cumulative.len());
    }

    writeln!(
        out,
        "Access scan (init-segment region x request; '|' = touched):\n"
    )?;
    for region in (0..REGIONS).rev() {
        let line: String = (0..REQUESTS)
            .map(|r| if heat[region][r] { '|' } else { ' ' })
            .collect();
        writeln!(out, "  {line}")?;
    }
    writeln!(out, "  {}", "-".repeat(REQUESTS))?;
    writeln!(out, "  req 1 .. {REQUESTS}\n")?;

    let mean_bars = bars_per_request.iter().sum::<usize>() as f64 / bars_per_request.len() as f64;
    let rows = vec![
        vec![
            "mean regions (bars) per request".to_string(),
            format!("{mean_bars:.1}"),
            "multiple bars per column".to_string(),
        ],
        vec![
            "unique pages after 1 request".to_string(),
            format!(
                "{:.0} MiB",
                pages_to_mib(cumulative_curve[0] as u64, PAGE_SIZE)
            ),
            "small".to_string(),
        ],
        vec![
            "unique pages after 20 requests".to_string(),
            format!(
                "{:.0} MiB",
                pages_to_mib(cumulative_curve[19] as u64, PAGE_SIZE)
            ),
            "keeps growing => window ~ 20".to_string(),
        ],
    ];
    write_table(out, &["metric", "measured", "paper (Fig 9)"], &rows)?;
    writeln!(out, "\ncumulative unique init pages touched, per request:")?;
    let curve: Vec<String> = cumulative_curve.iter().map(|c| c.to_string()).collect();
    writeln!(out, "  {}", curve.join(" "))
}
