//! Every table and figure of the evaluation, as one registry.
//!
//! Each experiment is a function that writes its table to the writer it
//! is given and exports its grid JSON (when it runs one) under
//! `opts.out_dir`. [`EXPERIMENTS`] lists them all in evaluation order;
//! the `experiments` binary runs one by name, or all of them into one
//! directory, which is how `results/` is regenerated.

use std::io::{self, Write};

use crate::harness::HarnessOptions;
use crate::render_table;

mod abl01_window_policy;
mod abl02_semiwarm_percentile;
mod abl03_rollback_interval;
mod abl04_page_granularity;
mod abl05_offload_rate;
mod disc01_pool_technologies;
mod disc02_hardware_sampling;
mod disc03_memory_sharing;
mod disc04_rack_provisioning;
mod disc05_keepalive_policies;
mod disc06_load_imbalance;
mod disc07_fault_tolerance;
mod disc08_durability;
mod disc09_tail_blame;
mod disc10_memory_anatomy;
mod ext01_coldstart_aware;
mod ext02_recall_prefetch;
mod fig01_keepalive_sweep;
mod fig02_damon_p95;
mod fig03_memory_layout;
mod fig04_runtime_inactive;
mod fig05_requests_per_container;
mod fig06_bert_scan;
mod fig08_runtime_recalls;
mod fig09_web_scan;
mod fig10_rollback_demo;
mod fig11_reuse_cdf;
mod fig12_main_eval;
mod fig13_ablation;
mod fig14_semiwarm_applicability;
mod fig15_overhead;
mod fig16_density;
mod tab01_diverse_traces;

/// What an experiment writes, which decides the file `experiments all`
/// keeps it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stdout {
    /// A deterministic table: `<name>.txt`, tracked in `results/`.
    Table,
    /// Wall-clock measurements no run reproduces: `<name>.timing.txt`,
    /// ignored like the harness's `<grid>.timing.json`.
    WallClock,
}
use Stdout::{Table, WallClock};

impl Stdout {
    /// The file name `experiments all` writes experiment `name`'s
    /// output to.
    pub fn file_name(self, name: &str) -> String {
        match self {
            Table => format!("{name}.txt"),
            WallClock => format!("{name}.timing.txt"),
        }
    }
}

/// One experiment: runs under `opts` and writes its table to the writer.
pub type Run = fn(&HarnessOptions, &mut dyn Write) -> io::Result<()>;

/// Writes [`render_table`]'s rendering of a table, then a newline.
fn write_table(out: &mut dyn Write, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    writeln!(out, "{}", render_table(headers, rows))
}

/// `(name, stdout, run)` for each listed experiment module, named after
/// the module.
macro_rules! registry {
    ($($stdout:ident $module:ident,)*) => {
        [$((stringify!($module), $stdout, $module::run as Run)),*]
    };
}

/// Every experiment, in evaluation order: the only list of them.
pub const EXPERIMENTS: &[(&str, Stdout, Run)] = &registry![
    Table fig01_keepalive_sweep,
    Table fig02_damon_p95,
    Table fig03_memory_layout,
    Table fig04_runtime_inactive,
    Table fig05_requests_per_container,
    Table fig06_bert_scan,
    Table fig08_runtime_recalls,
    Table fig09_web_scan,
    Table fig10_rollback_demo,
    Table fig11_reuse_cdf,
    Table fig12_main_eval,
    Table tab01_diverse_traces,
    Table fig13_ablation,
    Table fig14_semiwarm_applicability,
    WallClock fig15_overhead,
    Table fig16_density,
    Table disc01_pool_technologies,
    Table disc02_hardware_sampling,
    Table disc03_memory_sharing,
    Table disc04_rack_provisioning,
    Table disc05_keepalive_policies,
    Table disc06_load_imbalance,
    Table disc07_fault_tolerance,
    Table disc08_durability,
    Table disc09_tail_blame,
    Table disc10_memory_anatomy,
    Table ext01_coldstart_aware,
    Table ext02_recall_prefetch,
    Table abl01_window_policy,
    Table abl02_semiwarm_percentile,
    Table abl03_rollback_interval,
    Table abl04_page_granularity,
    Table abl05_offload_rate,
];
