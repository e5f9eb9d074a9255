//! The four fixed workloads, and how each node of one is set up.
//!
//! Every workload is a batch run: the whole synthesized trace is the
//! input. A workload is a "rack" of `nodes` independent platform nodes
//! run by `threads` worker threads; the single-node workloads are racks
//! of one node on one thread, so every workload goes through one code
//! path.
//!
//! The seed is XORed into every node's platform seed, which draws each
//! request's execution-time jitter. It does not redraw the traces or the
//! fault plan: redrawing the traces moves the tail percentiles by up to
//! 180% between seeds, which would hide any regression, while a new
//! jitter stream gives every seed a different input with the same
//! statistics. Seed 0 leaves the default platform seeds in place.

use faasmem_baselines::{DamonPolicy, TmoConfig, TmoPolicy};
use faasmem_core::FaasMemPolicy;
use faasmem_faas::{
    FaultConfig, MemoryPolicy, NullPolicy, PlatformBuilder, PlatformConfig, PlatformSim,
};
use faasmem_pool::{FabricConfig, RedundancyPolicy};
use faasmem_sim::{FaultSpec, SimDuration, SimTime};
use faasmem_workload::{BenchmarkSpec, FunctionId, InvocationTrace, LoadClass, TraceSynthesizer};

/// Functions in the Azure-2021-shaped cluster trace (the paper's 424).
const AZURE_FUNCTIONS: u32 = 424;
/// Functions registered per rack node.
const RACK_FUNCTIONS: u32 = 6;
/// Nodes in the rack.
const RACK_NODES: u32 = 8;
/// Worker threads running the rack: fixed, not `nproc`, so the
/// workload is the same on every machine.
const RACK_THREADS: usize = 2;
/// Base seed of the rack, as `ClusterSpec::default()` derives node and
/// function streams from it.
const RACK_SEED: u64 = 0xC1A5;

/// One of the benchmark's fixed workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Azure-shaped cluster trace under FaaSMem.
    AzureCluster,
    /// The same trace and functions under the no-offload Baseline.
    AzureClusterNoOffload,
    /// Bert alone at 4 KiB pages under FaaSMem.
    Bert4k,
    /// Eight chaos-injected nodes with mirrored pool fabrics.
    RackChaos,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::AzureCluster,
        Workload::AzureClusterNoOffload,
        Workload::Bert4k,
        Workload::RackChaos,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AzureCluster => "azure_cluster",
            Workload::AzureClusterNoOffload => "azure_cluster_nooffload",
            Workload::Bert4k => "bert_4k",
            Workload::RackChaos => "rack_chaos",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace horizon at full size. Chosen so one untraced repetition
    /// takes a few seconds on a 2-core machine: long enough that
    /// wall-time noise stays small, short enough that a timed run holds
    /// several repetitions to take the median of.
    fn horizon(self) -> SimTime {
        match self {
            Workload::AzureCluster | Workload::AzureClusterNoOffload => SimTime::from_mins(60),
            // Long enough that more than ten requests lie beyond P99.
            Workload::Bert4k => SimTime::from_mins(360),
            Workload::RackChaos => SimTime::from_mins(60),
        }
    }

    /// Independent platform nodes.
    pub fn nodes(self) -> u32 {
        match self {
            Workload::RackChaos => RACK_NODES,
            _ => 1,
        }
    }

    /// Worker threads running the nodes.
    pub fn threads(self) -> usize {
        match self {
            Workload::RackChaos => RACK_THREADS,
            _ => 1,
        }
    }
}

/// A workload at a seed and horizon: everything needed to set up any of
/// its nodes.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    seed: u64,
    horizon: SimTime,
}

impl Setup {
    /// The workload at full size.
    pub fn new(workload: Workload, seed: u64) -> Setup {
        Setup {
            workload,
            seed,
            horizon: workload.horizon(),
        }
    }

    /// The workload over a few simulated minutes, so unit tests stay fast.
    #[cfg(test)]
    pub fn tiny(workload: Workload, seed: u64) -> Setup {
        Setup {
            workload,
            seed,
            horizon: SimTime::from_mins(2),
        }
    }

    /// Synthesizes node `node`'s invocation trace.
    pub fn trace(&self, node: u32) -> InvocationTrace {
        match self.workload {
            Workload::AzureCluster | Workload::AzureClusterNoOffload => {
                TraceSynthesizer::new(2021)
                    .duration(self.horizon)
                    .synthesize_cluster(AZURE_FUNCTIONS)
                    .0
            }
            // Not bursty: bursts cold-start about 1% of Bert's requests,
            // so P99 would flip between a warm and a cold latency from
            // one seed to the next.
            Workload::Bert4k => TraceSynthesizer::new(12_001)
                .load_class(LoadClass::High)
                .duration(self.horizon)
                .synthesize_for(FunctionId(0)),
            Workload::RackChaos => {
                (0..RACK_FUNCTIONS).fold(InvocationTrace::empty(self.horizon), |trace, f| {
                    // ClusterSim's per-function stream derivation.
                    let stream = RACK_SEED
                        ^ (u64::from(node) << 32)
                        ^ u64::from(f).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let t = TraceSynthesizer::new(stream)
                        .load_class(LoadClass::High)
                        .bursty(true)
                        .duration(self.horizon)
                        .synthesize_for(FunctionId(f));
                    trace.merge(&t)
                })
            }
        }
    }

    /// Node `node`'s platform: registered functions and configuration,
    /// without policy or tracer.
    pub fn builder(&self, node: u32) -> PlatformBuilder {
        let platform_seed = match self.workload {
            // ClusterSim's per-node platform seed derivation.
            Workload::RackChaos => {
                RACK_SEED.wrapping_add(u64::from(node).wrapping_mul(0xA5A5_A5A5))
            }
            _ => PlatformConfig::default().seed,
        };
        self.functions(node).seed(platform_seed ^ self.seed)
    }

    fn functions(&self, node: u32) -> PlatformBuilder {
        let catalog = BenchmarkSpec::catalog();
        match self.workload {
            Workload::AzureCluster | Workload::AzureClusterNoOffload => PlatformSim::builder()
                .register_functions(
                    (0..AZURE_FUNCTIONS as usize).map(|i| catalog[i % catalog.len()].clone()),
                ),
            Workload::Bert4k => PlatformSim::builder()
                .register_function(
                    BenchmarkSpec::by_name("bert").expect("bert is in the benchmark catalog"),
                )
                .page_size(4096),
            Workload::RackChaos => {
                let config = PlatformConfig {
                    fabric: FabricConfig {
                        nodes: 4,
                        redundancy: RedundancyPolicy::Mirror { k: 2 },
                        repair_bytes_per_sec: 32 << 20,
                        ..FabricConfig::default()
                    },
                    faults: Some(FaultConfig {
                        spec: FaultSpec::new(0xD15C08 + u64::from(node))
                            .outages(SimDuration::from_mins(10), SimDuration::from_secs(20))
                            .pool_node_losses(SimDuration::from_mins(5), 4),
                        ..FaultConfig::default()
                    }),
                    ..PlatformConfig::default()
                };
                PlatformSim::builder()
                    .config(config)
                    .register_functions((0..RACK_FUNCTIONS).map(|f| {
                        catalog[((RACK_FUNCTIONS * node + f) as usize) % catalog.len()].clone()
                    }))
            }
        }
    }

    /// Node `node`'s memory policy. Rack nodes cycle FaaSMem, TMO and
    /// DAMON, so the baselines crate runs too.
    pub fn policy(&self, node: u32) -> Box<dyn MemoryPolicy> {
        match (self.workload, node % 3) {
            (Workload::AzureClusterNoOffload, _) => Box::new(NullPolicy),
            (Workload::RackChaos, 1) => Box::new(TmoPolicy::new(TmoConfig::default())),
            (Workload::RackChaos, 2) => Box::new(DamonPolicy::default()),
            _ => Box::new(FaasMemPolicy::new()),
        }
    }
}
