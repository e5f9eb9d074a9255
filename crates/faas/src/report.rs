//! Run reports: everything the experiments measure.

use std::collections::HashMap;
use std::fmt;

use faasmem_mem::FlowMatrix;
use faasmem_metrics::{
    varint, BlameReport, Cdf, DurabilityTracker, LatencyRecorder, LatencySummary, MetricsRegistry,
    TimeSeries, WasteLedger, WasteReport,
};
use faasmem_pool::PoolStats;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_workload::FunctionId;

/// Per-request measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The invoked function.
    pub function: FunctionId,
    /// Arrival time at the gateway.
    pub arrived: SimTime,
    /// End-to-end latency (cold start + execution + fault stalls).
    pub latency: SimDuration,
    /// Whether the request triggered a cold start.
    pub cold: bool,
    /// Remote faults taken during execution.
    pub faults: u32,
}

/// The per-request records of a run, in completion order, stored as a
/// compact, lossless byte log (DESIGN § Data layout: run-long logs).
///
/// Each record is four LEB128 varints: the function id, the zigzag
/// difference of its arrival from the previous record's (completion
/// order is not arrival order, so the difference may be negative), the
/// latency in µs, and `faults << 1 | cold`. A typical record takes about
/// nine bytes instead of the 32 of a [`RequestRecord`].
///
/// # Examples
///
/// ```
/// use faasmem_faas::{FunctionId, RequestLog, RequestRecord};
/// use faasmem_sim::{SimDuration, SimTime};
///
/// let record = RequestRecord {
///     function: FunctionId(3),
///     arrived: SimTime::from_secs(5),
///     latency: SimDuration::from_millis(12),
///     cold: true,
///     faults: 2,
/// };
/// let mut log = RequestLog::new();
/// log.push(record);
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.iter().next(), Some(record));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RequestLog {
    bytes: Vec<u8>,
    len: usize,
    /// Arrival of the last pushed record: the base of the next delta.
    last_arrived: u64,
}

impl RequestLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: RequestRecord) {
        let arrived = record.arrived.as_micros();
        let delta = i128::from(arrived) - i128::from(self.last_arrived);
        self.last_arrived = arrived;
        varint::put(&mut self.bytes, u128::from(record.function.0));
        varint::put(&mut self.bytes, varint::zigzag(delta));
        varint::put(&mut self.bytes, u128::from(record.latency.as_micros()));
        varint::put(
            &mut self.bytes,
            u128::from(record.faults) << 1 | u128::from(record.cold),
        );
        self.len += 1;
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no request has completed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes the log holds, growth slack included.
    pub fn allocated_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// The records in completion order, decoded in one forward pass.
    pub fn iter(&self) -> impl Iterator<Item = RequestRecord> + '_ {
        let (mut pos, mut arrived) = (0, 0i128);
        std::iter::from_fn(move || {
            if pos == self.bytes.len() {
                return None;
            }
            let mut next = || varint::get(&self.bytes, &mut pos);
            let function = FunctionId(next() as u32);
            arrived += varint::unzigzag(next());
            let latency = SimDuration::from_micros(next() as u64);
            let flags = next();
            Some(RequestRecord {
                function,
                arrived: SimTime::from_micros(arrived as u64),
                latency,
                cold: flags & 1 == 1,
                faults: (flags >> 1) as u32,
            })
        })
    }
}

/// Prints the decoded records, as a `Vec<RequestRecord>` would.
impl fmt::Debug for RequestLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Per-container lifetime measurement, recorded at recycle time (or at
/// the end of the run for containers still alive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerRecord {
    /// The function the container served.
    pub function: FunctionId,
    /// Cold-start begin.
    pub created_at: SimTime,
    /// Recycle time (or run end).
    pub retired_at: SimTime,
    /// Requests completed over the lifetime.
    pub requests_served: u64,
    /// Total time spent executing requests.
    pub busy_time: SimDuration,
}

impl ContainerRecord {
    /// Container lifetime.
    pub fn lifetime(&self) -> SimDuration {
        self.retired_at.saturating_since(self.created_at)
    }

    /// Fraction of the lifetime the container's memory sat inactive —
    /// the Fig 1 metric.
    pub fn inactive_fraction(&self) -> f64 {
        let life = self.lifetime().as_secs_f64();
        if life <= 0.0 {
            return 0.0;
        }
        (1.0 - self.busy_time.as_secs_f64() / life).max(0.0)
    }
}

/// The full output of one platform run.
#[derive(Debug)]
pub struct RunReport {
    /// Policy under test, as reported by [`MemoryPolicy::name`](crate::MemoryPolicy::name).
    pub policy: &'static str,
    /// Requests completed.
    pub requests_completed: usize,
    /// Requests that triggered a cold start.
    pub cold_starts: usize,
    /// End-to-end latency samples over all requests, in completion order
    /// (filled from [`RunReport::requests`] when the run finishes).
    pub latency: LatencyRecorder,
    /// Per-request records in completion order.
    pub requests: RequestLog,
    /// Node-wide local memory footprint over time (bytes).
    pub local_mem: TimeSeries,
    /// Node-wide remote (offloaded) memory over time (bytes).
    pub remote_mem: TimeSeries,
    /// Live containers over time.
    pub live_containers: TimeSeries,
    /// Remote pool traffic counters at run end.
    pub pool_stats: PoolStats,
    /// Lifetime records of all containers (recycled or alive at end).
    pub containers: Vec<ContainerRecord>,
    /// Observed container reused intervals per function (the keep-alive
    /// gap before each warm start), in seconds and sorted — the platform's
    /// one reuse-interval store, which drove semi-warm timing and adaptive
    /// keep-alive during the run.
    pub reuse_intervals: HashMap<FunctionId, Cdf>,
    /// When the run ended (trace horizon + drain).
    pub finished_at: SimTime,
    /// Fault-injection accounting; `None` when the run had no fault
    /// configuration (every metric below would be trivially zero).
    pub faults: Option<FaultReport>,
    /// Durability accounting; `None` when the pool fabric is degenerate
    /// (one node, no redundancy) — i.e., on every pre-fabric config.
    pub durability: Option<DurabilityReport>,
    /// Per-invocation latency blame (component distributions and tail
    /// attribution); `None` unless the platform ran with blame enabled.
    pub blame: Option<BlameReport>,
    /// Byte-second memory anatomy (waste decomposition plus the page
    /// lifecycle flow matrix); `None` unless the platform ran with
    /// memory anatomy enabled.
    pub memory_anatomy: Option<MemoryAnatomyReport>,
    /// Per-function waste ledgers, sorted by function id; empty unless
    /// memory anatomy was enabled.
    pub function_waste: Vec<FunctionWaste>,
    /// Named counters and gauges snapshotted at run end — the
    /// introspection surface the harness serializes per cell.
    pub registry: MetricsRegistry,
    /// Events popped and processed by the drive loop; a pure function
    /// of the inputs, so it doubles as a cheap drive-equivalence check.
    /// Surfaced through the wall-clock `.timing.json` side channel —
    /// never serialized into the deterministic result JSON.
    pub events_processed: u64,
}

impl RunReport {
    /// Time-weighted mean of node-local memory in MiB — the paper's
    /// "average local memory usage".
    pub fn avg_local_mib(&self) -> f64 {
        self.local_mem
            .time_weighted_mean(self.finished_at)
            .unwrap_or(0.0)
            / (1024.0 * 1024.0)
    }

    /// Time-weighted mean of offloaded memory in MiB.
    pub fn avg_remote_mib(&self) -> f64 {
        self.remote_mem
            .time_weighted_mean(self.finished_at)
            .unwrap_or(0.0)
            / (1024.0 * 1024.0)
    }

    /// Time-weighted mean number of live containers.
    pub fn avg_live_containers(&self) -> f64 {
        self.live_containers
            .time_weighted_mean(self.finished_at)
            .unwrap_or(0.0)
    }

    /// P95 end-to-end latency, the paper's headline QoS metric.
    pub fn p95_latency(&mut self) -> SimDuration {
        self.latency.percentile(0.95).unwrap_or(SimDuration::ZERO)
    }

    /// Fraction of requests that cold-started.
    pub fn cold_start_ratio(&self) -> f64 {
        if self.requests_completed == 0 {
            0.0
        } else {
            self.cold_starts as f64 / self.requests_completed as f64
        }
    }

    /// Aggregate inactive-time fraction over all containers, weighted by
    /// lifetime (Fig 1's "memory inactive time").
    pub fn memory_inactive_fraction(&self) -> f64 {
        let total_life: f64 = self
            .containers
            .iter()
            .map(|c| c.lifetime().as_secs_f64())
            .sum();
        if total_life <= 0.0 {
            return 0.0;
        }
        let total_busy: f64 = self
            .containers
            .iter()
            .map(|c| c.busy_time.as_secs_f64())
            .sum();
        (1.0 - total_busy / total_life).max(0.0)
    }

    /// CDF of requests handled per container (Fig 5).
    pub fn requests_per_container_cdf(&self) -> Cdf {
        Cdf::from_samples(self.containers.iter().map(|c| c.requests_served as f64))
    }

    /// Per-function request summaries: latency digest, request count,
    /// cold starts and total faults, sorted by function id. The per-app
    /// rows of Table 1 and the multi-tenant examples build on this.
    pub fn per_function_summaries(&self) -> Vec<FunctionSummary> {
        let mut by_function: HashMap<FunctionId, (LatencyRecorder, usize, usize, u64)> =
            HashMap::new();
        for r in self.requests.iter() {
            let entry = by_function.entry(r.function).or_default();
            entry.0.record(r.latency);
            entry.1 += 1;
            if r.cold {
                entry.2 += 1;
            }
            entry.3 += u64::from(r.faults);
        }
        let mut out: Vec<FunctionSummary> = by_function
            .into_iter()
            .map(
                |(function, (mut lat, requests, cold_starts, faults))| FunctionSummary {
                    function,
                    latency: lat.summary(),
                    requests,
                    cold_starts,
                    faults,
                },
            )
            .collect();
        out.sort_by_key(|s| s.function);
        out
    }

    /// Mean offload bandwidth per second of run, MB/s (Fig 16 y-axis).
    pub fn mean_offload_bandwidth_mbps(&self) -> f64 {
        let secs = self.finished_at.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.pool_stats.bytes_out as f64 / secs / 1e6
        }
    }

    /// Digests the report into the flat, plain-data [`RunSummary`] the
    /// experiment harness serializes. Needs `&mut self` because the
    /// latency percentiles sort the recorder in place.
    pub fn summarize(&mut self) -> RunSummary {
        let latency = self.latency.summary();
        let max_latency = self.latency.max().unwrap_or(SimDuration::ZERO);
        RunSummary {
            policy: self.policy,
            requests_completed: self.requests_completed,
            cold_starts: self.cold_starts,
            cold_start_ratio: self.cold_start_ratio(),
            latency,
            max_latency,
            avg_local_mib: self.avg_local_mib(),
            avg_remote_mib: self.avg_remote_mib(),
            avg_live_containers: self.avg_live_containers(),
            memory_inactive_fraction: self.memory_inactive_fraction(),
            pool_stats: self.pool_stats,
            mean_offload_bandwidth_mbps: self.mean_offload_bandwidth_mbps(),
            containers: self.containers.len(),
            sim_secs: self.finished_at.as_secs_f64(),
            faults: self.faults,
            durability: self.durability,
            blame: self.blame,
            memory_anatomy: self.memory_anatomy,
        }
    }
}

/// Byte-second memory anatomy of one run: the integrated-occupancy
/// waste decomposition and the page-lifecycle flow matrix, both with
/// their conservation checks folded in. `None`-gated on [`RunReport`]
/// exactly like [`FaultReport`] and [`BlameReport`], so runs without
/// anatomy keep byte-identical artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAnatomyReport {
    /// The integrated byte-second waste decomposition.
    pub waste: WasteReport,
    /// Page-lifecycle flows aggregated over every container's table.
    pub flow: FlowMatrix,
}

impl MemoryAnatomyReport {
    /// Total conservation violations across both the waste side checks
    /// and the flow rows (zero by contract).
    pub fn conservation_violations(&self) -> u64 {
        self.waste.conservation_violations + self.flow.row_violations()
    }
}

/// One function's accumulated waste ledger (see
/// [`RunReport::function_waste`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionWaste {
    /// The function.
    pub function: FunctionId,
    /// The function's name from the workload spec.
    pub name: &'static str,
    /// Byte-µs charged to this function's containers (compute side) and
    /// its offloaded pages' primary pool occupancy.
    pub ledger: WasteLedger,
}

/// Durability outcomes of a run against a multi-node pool fabric: what
/// the redundancy scheme cost (capacity and bandwidth overhead) and what
/// it bought (failover recalls and avoided cold rebuilds) — the
/// `disc08` trade-off surface.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DurabilityReport {
    /// Pool nodes the fabric started with.
    pub pool_nodes: u32,
    /// Pool nodes still alive at run end.
    pub nodes_up: u32,
    /// Segments below full replication at run end (repairs outstanding
    /// or impossible).
    pub under_replicated_final: u64,
    /// Repair traffic still queued at run end, bytes.
    pub repair_backlog_bytes: u64,
    /// Counter snapshot from the fabric's [`DurabilityTracker`].
    pub tracker: DurabilityTracker,
}

/// Accounting of one run's injected faults and the platform's reaction —
/// the availability side of the "memory savings vs. availability"
/// trade-off the `disc07` experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultReport {
    /// Fraction of the run during which the pool link carried traffic
    /// (1.0 = no full outage overlapped the run).
    pub link_availability: f64,
    /// Total full-outage time overlapping the run.
    pub link_downtime: SimDuration,
    /// Timed-out page-in attempts that were retried.
    pub page_in_retries: u64,
    /// Page-ins abandoned after exhausting every retry.
    pub page_ins_gave_up: u64,
    /// Warm containers cold-restarted because their remote pages were
    /// unreachable or lost.
    pub forced_cold_restarts: u64,
    /// Pool-node loss events injected.
    pub node_loss_events: u64,
    /// Idle-container crash events injected.
    pub container_crashes: u64,
    /// Remote bytes discarded to node loss or abandoned recalls.
    pub lost_remote_bytes: u64,
    /// Offload batches refused while the circuit breaker held offloading
    /// suspended.
    pub offloads_refused: u64,
    /// Times the circuit breaker declared the pool unhealthy.
    pub breaker_opens: u64,
    /// Requests measured against the latency SLO (0 when no SLO set).
    pub slo_total: u64,
    /// Requests that violated the latency SLO.
    pub slo_violations: u64,
}

impl FaultReport {
    /// Fraction of SLO-measured requests that violated the objective.
    pub fn slo_violation_ratio(&self) -> f64 {
        if self.slo_total == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.slo_total as f64
        }
    }
}

/// The flat digest of a [`RunReport`]: every headline metric of the
/// paper's evaluation as plain data, cheap to clone and to move across
/// threads — the unit the experiment harness aggregates and serializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Policy under test.
    pub policy: &'static str,
    /// Requests completed.
    pub requests_completed: usize,
    /// Requests that triggered a cold start.
    pub cold_starts: usize,
    /// Fraction of requests that cold-started.
    pub cold_start_ratio: f64,
    /// Latency digest (avg, P50, P95, P99) over all requests.
    pub latency: LatencySummary,
    /// Worst-case end-to-end latency.
    pub max_latency: SimDuration,
    /// Time-weighted mean local memory, MiB.
    pub avg_local_mib: f64,
    /// Time-weighted mean offloaded memory, MiB.
    pub avg_remote_mib: f64,
    /// Time-weighted mean live containers.
    pub avg_live_containers: f64,
    /// Lifetime-weighted inactive-memory fraction (Fig 1).
    pub memory_inactive_fraction: f64,
    /// Remote-pool traffic counters at run end.
    pub pool_stats: PoolStats,
    /// Mean offload bandwidth, MB/s (Fig 16).
    pub mean_offload_bandwidth_mbps: f64,
    /// Containers created over the run.
    pub containers: usize,
    /// Simulated seconds covered by the run.
    pub sim_secs: f64,
    /// Fault-injection accounting; `None` when faults were not
    /// configured.
    pub faults: Option<FaultReport>,
    /// Durability accounting; `None` when the pool fabric is degenerate.
    pub durability: Option<DurabilityReport>,
    /// Latency-blame digest; `None` unless blame was enabled.
    pub blame: Option<BlameReport>,
    /// Byte-second memory anatomy; `None` unless anatomy was enabled.
    pub memory_anatomy: Option<MemoryAnatomyReport>,
}

/// One function's view of a run (see
/// [`RunReport::per_function_summaries`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionSummary {
    /// The function.
    pub function: FunctionId,
    /// Latency digest over its requests.
    pub latency: LatencySummary,
    /// Requests completed.
    pub requests: usize,
    /// Requests that cold-started.
    pub cold_starts: usize,
    /// Total remote faults across its requests.
    pub faults: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_record_inactive_fraction() {
        let rec = ContainerRecord {
            function: FunctionId(0),
            created_at: SimTime::from_secs(0),
            retired_at: SimTime::from_secs(100),
            requests_served: 5,
            busy_time: SimDuration::from_secs(10),
        };
        assert_eq!(rec.lifetime(), SimDuration::from_secs(100));
        assert!((rec.inactive_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_lifetime_is_not_nan() {
        let rec = ContainerRecord {
            function: FunctionId(0),
            created_at: SimTime::from_secs(5),
            retired_at: SimTime::from_secs(5),
            requests_served: 0,
            busy_time: SimDuration::ZERO,
        };
        assert_eq!(rec.inactive_fraction(), 0.0);
    }

    fn empty_report() -> RunReport {
        RunReport {
            policy: "test",
            requests_completed: 0,
            cold_starts: 0,
            latency: LatencyRecorder::new(),
            requests: RequestLog::new(),
            local_mem: TimeSeries::new(),
            remote_mem: TimeSeries::new(),
            live_containers: TimeSeries::new(),
            pool_stats: PoolStats::default(),
            containers: Vec::new(),
            reuse_intervals: HashMap::new(),
            finished_at: SimTime::from_secs(10),
            faults: None,
            durability: None,
            blame: None,
            memory_anatomy: None,
            function_waste: Vec::new(),
            registry: MetricsRegistry::new(),
            events_processed: 0,
        }
    }

    #[test]
    fn empty_report_metrics_are_zero() {
        let mut r = empty_report();
        assert_eq!(r.avg_local_mib(), 0.0);
        assert_eq!(r.avg_remote_mib(), 0.0);
        assert_eq!(r.cold_start_ratio(), 0.0);
        assert_eq!(r.memory_inactive_fraction(), 0.0);
        assert_eq!(r.p95_latency(), SimDuration::ZERO);
        assert_eq!(r.mean_offload_bandwidth_mbps(), 0.0);
        assert!(r.requests_per_container_cdf().is_empty());
    }

    #[test]
    fn aggregate_inactive_fraction_weighted_by_lifetime() {
        let mut r = empty_report();
        r.containers.push(ContainerRecord {
            function: FunctionId(0),
            created_at: SimTime::ZERO,
            retired_at: SimTime::from_secs(100),
            requests_served: 1,
            busy_time: SimDuration::from_secs(50),
        });
        r.containers.push(ContainerRecord {
            function: FunctionId(0),
            created_at: SimTime::ZERO,
            retired_at: SimTime::from_secs(300),
            requests_served: 1,
            busy_time: SimDuration::ZERO,
        });
        // busy 50 over total 400 → 87.5% inactive.
        assert!((r.memory_inactive_fraction() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn per_function_summaries_split_and_sort() {
        let mut r = empty_report();
        for (f, ms, cold, faults) in [
            (1u32, 10u64, true, 5u32),
            (0, 20, false, 0),
            (1, 30, false, 2),
        ] {
            r.requests.push(RequestRecord {
                function: FunctionId(f),
                arrived: SimTime::ZERO,
                latency: SimDuration::from_millis(ms),
                cold,
                faults,
            });
        }
        let summaries = r.per_function_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].function, FunctionId(0));
        assert_eq!(summaries[0].requests, 1);
        assert_eq!(summaries[1].function, FunctionId(1));
        assert_eq!(summaries[1].requests, 2);
        assert_eq!(summaries[1].cold_starts, 1);
        assert_eq!(summaries[1].faults, 7);
        assert_eq!(summaries[1].latency.p50, SimDuration::from_millis(10));
    }

    /// A `u64` draw that hits both ends of the range often (truncated to
    /// `u32`, the ends stay 0 and `u32::MAX`).
    fn extreme(pick: u8, raw: u64) -> u64 {
        match pick % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => raw % 1_000,
            _ => raw,
        }
    }

    /// One record's draws: a picks word (two bits per field choosing
    /// zero, the maximum, a small or an arbitrary value, and one bit for
    /// `cold`) and a raw value per field.
    type RawRecord = (u32, (u64, u64, u64, u64));

    /// Pushes records with arbitrary (non-monotone) arrivals, function ids
    /// and fault counts up to `u32::MAX` and latencies up to `u64::MAX`
    /// µs, and checks that the log hands every one back unchanged.
    fn round_trip(raw: &[RawRecord]) {
        let records: Vec<RequestRecord> = raw
            .iter()
            .map(|&(picks, (f, a, l, q))| {
                let pick = |i: u32| (picks >> (2 * i)) as u8;
                RequestRecord {
                    function: FunctionId(extreme(pick(0), f) as u32),
                    arrived: SimTime::from_micros(extreme(pick(1), a)),
                    latency: SimDuration::from_micros(extreme(pick(2), l)),
                    cold: picks >> 8 & 1 == 1,
                    faults: extreme(pick(3), q) as u32,
                }
            })
            .collect();
        let mut log = RequestLog::new();
        let mut half = None;
        for (i, &r) in records.iter().enumerate() {
            log.push(r);
            if i == records.len() / 2 {
                half = Some(log.clone());
            }
        }
        assert_eq!(log.len(), records.len());
        assert_eq!(log.is_empty(), records.is_empty());
        assert_eq!(log.iter().collect::<Vec<_>>(), records);
        assert_eq!(format!("{log:?}"), format!("{records:?}"));
        assert_eq!(log, log.clone());
        if let Some(half) = half {
            assert_eq!(log == half, records.len() == half.len());
        }
    }

    fn raw_records(max_len: usize) -> impl proptest::strategy::Strategy<Value = Vec<RawRecord>> {
        let raw = || 0u64..u64::MAX;
        proptest::collection::vec((0u32..1 << 9, (raw(), raw(), raw(), raw())), 0..max_len)
    }

    proptest::proptest! {
        #[test]
        fn prop_request_log_round_trips(raw in raw_records(80)) {
            round_trip(&raw);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The long run of the round trip above, run explicitly by CI
        /// (`cargo test -p faasmem-faas --release --lib -- --ignored`).
        #[test]
        #[ignore = "long oracle run; exercised explicitly by the CI test job"]
        fn run_log_oracle_extended_requests(raw in raw_records(300)) {
            round_trip(&raw);
        }
    }

    #[test]
    fn cold_start_ratio_counts() {
        let mut r = empty_report();
        r.requests_completed = 4;
        r.cold_starts = 1;
        assert_eq!(r.cold_start_ratio(), 0.25);
    }
}
