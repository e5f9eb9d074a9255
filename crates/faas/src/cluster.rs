//! Cluster-scale simulation: many independent platform nodes, executed
//! in parallel on worker threads.
//!
//! A single node's simulation is serial: its handlers share one RNG
//! stream, one link pair and one tracer sequence, so they must run in
//! `(time, seq)` order. Wall-clock speedup comes from this tier: a rack
//! runs `N` nodes whose simulations share nothing, so whole nodes
//! advance on OS threads with no synchronisation beyond work claiming.
//! Every node's outcome is a pure function of its node id and the
//! cluster seed, which makes the result **byte-identical for any thread
//! count** — the property `bench_cluster` and the differential tests
//! enforce.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use faasmem_pool::PoolStats;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::{BenchmarkSpec, FunctionId, InvocationTrace, LoadClass, TraceSynthesizer};

use crate::platform::PlatformSim;
use crate::policy::MemoryPolicy;

/// The workload a cluster run simulates: `nodes` platform nodes, each
/// serving `functions_per_node` functions drawn round-robin from the
/// benchmark catalog under synthesized traces.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of independent platform nodes.
    pub nodes: u32,
    /// Functions registered (and traced) per node.
    pub functions_per_node: u32,
    /// Base seed; each node and function derives its own stream from it.
    pub seed: u64,
    /// Trace duration per function.
    pub duration: SimTime,
    /// Arrival intensity class for every synthesized trace.
    pub load: LoadClass,
    /// Whether arrivals cluster into bursts.
    pub bursty: bool,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 8,
            functions_per_node: 3,
            seed: 0xC1A5,
            duration: SimTime::from_mins(8),
            load: LoadClass::High,
            bursty: true,
        }
    }
}

/// The `Send`able outcome of one node's simulation — everything the
/// cluster report aggregates, flattened out of the node's `RunReport`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeReport {
    /// The node's index within the cluster.
    pub node: u32,
    /// Requests the node completed.
    pub requests_completed: usize,
    /// Cold starts the node paid.
    pub cold_starts: usize,
    /// 95th-percentile end-to-end latency.
    pub p95_latency: SimDuration,
    /// Worst end-to-end latency.
    pub max_latency: SimDuration,
    /// Time-averaged node-local footprint in MiB.
    pub avg_local_mib: f64,
    /// Time-averaged remote (pooled) footprint in MiB.
    pub avg_remote_mib: f64,
    /// The node's pool traffic totals.
    pub pool_stats: PoolStats,
    /// Containers the node created and retired.
    pub containers: usize,
    /// When the node's drain completed.
    pub finished_at: SimTime,
}

/// Per-node outcomes in node order, plus cluster-wide aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// One entry per node, ordered by node id regardless of which
    /// thread simulated it.
    pub nodes: Vec<NodeReport>,
}

impl ClusterReport {
    /// Requests completed across the cluster.
    pub fn total_requests(&self) -> usize {
        self.nodes.iter().map(|n| n.requests_completed).sum()
    }

    /// Cold starts across the cluster.
    pub fn total_cold_starts(&self) -> usize {
        self.nodes.iter().map(|n| n.cold_starts).sum()
    }

    /// A canonical textual rendering of every per-node outcome, with
    /// floats fixed to six decimals. Two runs are considered identical
    /// exactly when their digests are byte-equal — this is the string
    /// `bench_cluster` compares across thread counts.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.nodes.len() * 160);
        for n in &self.nodes {
            writeln!(
                out,
                "node={} req={} cold={} p95_us={} max_us={} local_mib={:.6} \
                 remote_mib={:.6} out={} in={} out_ops={} in_ops={} \
                 containers={} finished_us={}",
                n.node,
                n.requests_completed,
                n.cold_starts,
                n.p95_latency.as_micros(),
                n.max_latency.as_micros(),
                n.avg_local_mib,
                n.avg_remote_mib,
                n.pool_stats.bytes_out,
                n.pool_stats.bytes_in,
                n.pool_stats.out_ops,
                n.pool_stats.in_ops,
                n.containers,
                n.finished_at.as_micros(),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// A cluster of independent [`PlatformSim`] nodes sharing a workload
/// recipe and a per-node policy factory.
///
/// The factory runs on worker threads, so it must be `Send + Sync`; it
/// receives the node id and returns that node's policy instance.
pub struct ClusterSim {
    spec: ClusterSpec,
    policy_factory: Box<dyn Fn(u32) -> Box<dyn MemoryPolicy> + Send + Sync>,
}

impl ClusterSim {
    /// A cluster that instantiates each node's policy via `factory`.
    pub fn new<F>(spec: ClusterSpec, factory: F) -> Self
    where
        F: Fn(u32) -> Box<dyn MemoryPolicy> + Send + Sync + 'static,
    {
        assert!(spec.nodes >= 1, "need at least one node");
        assert!(spec.functions_per_node >= 1, "need at least one function");
        ClusterSim {
            spec,
            policy_factory: Box::new(factory),
        }
    }

    /// The workload recipe.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Builds and runs node `node` from scratch. Deterministic in
    /// `(cluster seed, node)` alone, which is what makes the parallel
    /// schedule irrelevant to the output.
    fn run_node(&self, node: u32) -> NodeReport {
        let spec = &self.spec;
        let catalog = BenchmarkSpec::catalog();
        let mut builder = PlatformSim::builder();
        let mut trace = InvocationTrace::empty(spec.duration);
        for f in 0..spec.functions_per_node {
            let bench = catalog[((u64::from(node) * u64::from(spec.functions_per_node)
                + u64::from(f))
                % catalog.len() as u64) as usize]
                .clone();
            builder = builder.register_function(bench);
            let stream = spec.seed
                ^ (u64::from(node) << 32)
                ^ u64::from(f).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let t = TraceSynthesizer::new(stream)
                .load_class(spec.load)
                .bursty(spec.bursty)
                .duration(spec.duration)
                .synthesize_for(FunctionId(f));
            trace = trace.merge(&t);
        }
        let mut sim = builder
            .policy((self.policy_factory)(node))
            .seed(
                spec.seed
                    .wrapping_add(u64::from(node).wrapping_mul(0xA5A5_A5A5)),
            )
            .build();
        let mut report = sim.run(&trace);
        NodeReport {
            node,
            requests_completed: report.requests_completed,
            cold_starts: report.cold_starts,
            p95_latency: report.p95_latency(),
            max_latency: report.latency.max().unwrap_or(SimDuration::ZERO),
            avg_local_mib: report.avg_local_mib(),
            avg_remote_mib: report.avg_remote_mib(),
            pool_stats: report.pool_stats,
            containers: report.containers.len(),
            finished_at: report.finished_at,
        }
    }

    /// The serial oracle: every node simulated on the calling thread.
    pub fn run_serial(&self) -> ClusterReport {
        let nodes = (0..self.spec.nodes).map(|n| self.run_node(n)).collect();
        ClusterReport { nodes }
    }

    /// The parallel driver: `threads` workers claim node ids from an
    /// atomic counter and simulate each node whole. Results are merged
    /// in node order, so the report is byte-identical to
    /// [`ClusterSim::run_serial`] for any thread count.
    ///
    /// `threads` is clamped to `[1, nodes]`.
    pub fn run_parallel(&self, threads: usize) -> ClusterReport {
        let nodes = self.spec.nodes;
        let workers = threads.clamp(1, nodes as usize);
        let next_node = AtomicU32::new(0);
        let slots: Mutex<Vec<Option<NodeReport>>> = Mutex::new(vec![None; nodes as usize]);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let node = next_node.fetch_add(1, Ordering::Relaxed);
                    if node >= nodes {
                        break;
                    }
                    let report = self.run_node(node);
                    slots.lock().expect("no panics hold this lock")[node as usize] = Some(report);
                });
            }
        });

        let nodes = slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|r| r.expect("every node simulated exactly once"))
            .collect();
        ClusterReport { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NullPolicy, PolicyCtx};

    struct OffloadInitPolicy;

    impl MemoryPolicy for OffloadInitPolicy {
        fn name(&self) -> &'static str {
            "OffloadInit"
        }
        fn on_request_end(&mut self, ctx: &mut PolicyCtx<'_>) {
            ctx.offload_where(|_, m| m.segment() == faasmem_mem::Segment::Init);
        }
    }

    fn small_cluster() -> ClusterSim {
        ClusterSim::new(
            ClusterSpec {
                nodes: 5,
                functions_per_node: 2,
                seed: 0xBEEF,
                duration: SimTime::from_mins(3),
                load: LoadClass::High,
                bursty: true,
            },
            |_| Box::new(OffloadInitPolicy),
        )
    }

    #[test]
    fn parallel_cluster_is_byte_identical_for_any_schedule() {
        let cluster = small_cluster();
        let oracle = cluster.run_serial();
        assert!(oracle.total_requests() > 0, "workload must be non-trivial");
        let oracle_digest = oracle.digest();
        for threads in [1usize, 2, 3, 7] {
            let run = cluster.run_parallel(threads);
            assert_eq!(run.digest(), oracle_digest, "threads={threads} diverged");
            assert_eq!(run, oracle);
        }
    }

    #[test]
    fn digest_is_sensitive_to_the_seed() {
        let a = small_cluster().run_serial();
        let b = ClusterSim::new(
            ClusterSpec {
                seed: 0xDEAD,
                ..*small_cluster().spec()
            },
            |_| Box::new(OffloadInitPolicy),
        )
        .run_serial();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn policy_factory_receives_node_ids() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let cluster = ClusterSim::new(
            ClusterSpec {
                nodes: 3,
                functions_per_node: 1,
                duration: SimTime::from_mins(1),
                ..ClusterSpec::default()
            },
            move |node| {
                seen2.lock().unwrap().push(node);
                Box::new(NullPolicy)
            },
        );
        let report = cluster.run_parallel(2);
        assert_eq!(report.nodes.len(), 3);
        let mut ids = seen.lock().unwrap().clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
