//! The typed event model: layers, filter masks, event kinds and the
//! stamped [`TraceEvent`] record.
//!
//! Every event carries a `(sim_time, seq)` pair assigned by the
//! [`Tracer`](crate::Tracer) at emission. `seq` is strictly monotone
//! within one tracer, so the pair is a total order over the events of a
//! cell regardless of how many emitters interleave. Events never carry
//! wall-clock time — that is the core determinism rule (wall-clock
//! lives only in `.timing.json` files, which are never byte-compared).

use crate::json::{self, JsonValue};
use faasmem_sim::SimTime;
use std::collections::BTreeMap;

/// The subsystem an event originates from. Used for `--trace-filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// Harness cell boundaries (grid cell start/end).
    Harness,
    /// Container lifecycle and request execution (`faas::platform`).
    Container,
    /// Page-table events: scans, generations, offload, page-in (`mem`).
    Memory,
    /// Remote-pool transfers, faults, breaker transitions (`pool`).
    Pool,
}

impl TraceLayer {
    /// All layers, in a fixed order.
    pub const ALL: [TraceLayer; 4] = [
        TraceLayer::Harness,
        TraceLayer::Container,
        TraceLayer::Memory,
        TraceLayer::Pool,
    ];

    /// The stable lowercase name used in JSONL output and CLI filters.
    pub fn name(self) -> &'static str {
        match self {
            TraceLayer::Harness => "harness",
            TraceLayer::Container => "container",
            TraceLayer::Memory => "memory",
            TraceLayer::Pool => "pool",
        }
    }

    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

impl std::str::FromStr for TraceLayer {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceLayer, String> {
        match s {
            "harness" => Ok(TraceLayer::Harness),
            "container" => Ok(TraceLayer::Container),
            "memory" => Ok(TraceLayer::Memory),
            "pool" => Ok(TraceLayer::Pool),
            other => Err(format!(
                "unknown trace layer '{other}' (expected harness, container, memory or pool)"
            )),
        }
    }
}

/// A set of [`TraceLayer`]s, used to filter emission at the source so
/// disabled layers cost one branch per event site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMask(u8);

impl LayerMask {
    /// Every layer enabled (the default for `--trace`).
    pub const ALL: LayerMask = LayerMask(0b1111);
    /// No layer enabled.
    pub const NONE: LayerMask = LayerMask(0);

    /// A mask with exactly one layer enabled.
    pub fn only(layer: TraceLayer) -> LayerMask {
        LayerMask(layer.bit())
    }

    /// This mask with `layer` also enabled.
    pub fn with(self, layer: TraceLayer) -> LayerMask {
        LayerMask(self.0 | layer.bit())
    }

    /// Whether `layer` is enabled.
    pub fn contains(self, layer: TraceLayer) -> bool {
        self.0 & layer.bit() != 0
    }

    /// Parses a comma-separated layer list (`"container,pool"`).
    /// Empty segments are ignored; an unknown name is an error.
    pub fn parse_list(list: &str) -> Result<LayerMask, String> {
        let mut mask = LayerMask::NONE;
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            mask = mask.with(part.parse::<TraceLayer>()?);
        }
        Ok(mask)
    }
}

impl Default for LayerMask {
    fn default() -> LayerMask {
        LayerMask::ALL
    }
}

/// The stall family an [`EventKind::ExecStall`] span belongs to.
///
/// Mirrors the non-trivial blame components of
/// `faasmem-metrics::blame` (the trace crate stays dependency-free of
/// the metrics crate, so the names — not the types — are the contract:
/// each `name()` equals the matching `BlameComponent::name()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// CPU cost of servicing page faults.
    FaultCpu,
    /// Wall time stalled on remote page transfers (incl. retry
    /// backoff).
    RecallStall,
    /// Extra penalty of a replica detour after primary loss or an open
    /// breaker.
    FailoverDetour,
    /// Time wasted on a recall attempt that ultimately gave up.
    AbandonedWait,
    /// Slow-path cold rebuild of remote state lost beyond recovery.
    ForcedRebuild,
}

impl StallCause {
    /// Every cause, in a fixed order.
    pub const ALL: [StallCause; 5] = [
        StallCause::FaultCpu,
        StallCause::RecallStall,
        StallCause::FailoverDetour,
        StallCause::AbandonedWait,
        StallCause::ForcedRebuild,
    ];

    /// Stable snake_case name used in JSONL payloads; equals the
    /// matching blame-component name.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::FaultCpu => "fault_cpu",
            StallCause::RecallStall => "recall_stall",
            StallCause::FailoverDetour => "failover_detour",
            StallCause::AbandonedWait => "abandoned_wait",
            StallCause::ForcedRebuild => "forced_rebuild",
        }
    }

    /// Parses a cause from its canonical name.
    pub fn from_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// What happened. Each variant belongs to one [`TraceLayer`] and
/// carries a small, fully deterministic payload (counts, byte totals,
/// simulated durations in microseconds — never wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // -- harness ------------------------------------------------------
    /// A grid cell began: the experiment labels and seeds for the run.
    CellStart {
        /// Trace label (workload trace name).
        trace: String,
        /// Benchmark label.
        bench: String,
        /// Config label.
        config: String,
        /// Policy label.
        policy: String,
        /// Deterministic cell seed.
        seed: u64,
    },
    /// A grid cell finished cleanly.
    CellEnd {
        /// Requests completed over the cell.
        requests: u64,
        /// Simulated duration of the run in seconds.
        sim_secs: f64,
    },

    // -- container lifecycle ------------------------------------------
    /// A request arrived for a function.
    RequestArrive {
        /// Function index within the registered spec set.
        function: u32,
    },
    /// A cold start began: a new container was created.
    ContainerLaunch {
        /// Function index the container serves.
        function: u32,
    },
    /// The container runtime finished loading.
    RuntimeLoaded,
    /// Language/runtime initialization completed.
    InitDone,
    /// Request execution began on a container.
    ExecStart {
        /// Whether this execution is the container's cold start.
        cold: bool,
    },
    /// Request execution finished.
    ExecEnd {
        /// End-to-end request latency in simulated microseconds.
        latency_us: u64,
        /// Demand page faults taken during this execution.
        faults: u64,
    },
    /// One named stall component charged to the executing request.
    ///
    /// The platform previously folded all stalls invisibly into the
    /// execution window; this is the begin marker of a synthetic child
    /// span. Stalls serialize at the head of the execution window, so
    /// the span covers `[t, t + us)` with consecutive `ExecStall`
    /// events of one request laid end to end — the matching
    /// [`EventKind::ExecEnd`] closes the chain.
    ExecStall {
        /// Which blame family the stall belongs to.
        cause: StallCause,
        /// Stalled simulated microseconds.
        us: u64,
    },
    /// The container went idle into the keep-alive pool.
    KeepAliveEnter,
    /// The container was recycled (keep-alive expiry or fault policy).
    ContainerRetire {
        /// Requests the container served over its lifetime.
        requests: u64,
    },
    /// The container was killed by an injected crash event.
    ContainerCrash,
    /// A memory-node loss event hit the pool.
    NodeLoss {
        /// Containers forcibly recycled by the loss.
        victims: u64,
        /// Remote bytes lost with the node.
        lost_bytes: u64,
    },

    // -- memory -------------------------------------------------------
    /// An access-bit scan over a container's pages.
    AccessScan {
        /// Pages resident (local + remote) at scan time.
        live: u64,
        /// Pages observed accessed since the previous scan.
        accessed: u64,
    },
    /// A new MGLRU generation was created (promote tip).
    GenerationCreate {
        /// The new generation number.
        generation: u64,
    },
    /// Generations were aged and idle pages collected (demote).
    GenerationAge {
        /// Generation threshold used for collection.
        threshold: u64,
        /// Page ids the scan collected as offload candidates: at most
        /// the caller's collect limit (TMO passes its per-tick budget;
        /// DAMON no limit, or one id while the pool refuses offloads),
        /// not every page past the threshold.
        collected: u64,
    },
    /// Pages moved local → remote in the page table.
    MemOffload {
        /// Pages offloaded.
        pages: u64,
    },
    /// Pages moved remote → local in the page table.
    MemPageIn {
        /// Pages brought back.
        pages: u64,
        /// `true` for demand faults, `false` for prefetch.
        demand: bool,
    },

    // -- pool ---------------------------------------------------------
    /// A transfer to the memory pool completed.
    PoolPageOut {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    },
    /// A transfer back from the memory pool completed.
    PoolPageIn {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    },
    /// Remote bytes were discarded without transfer (container retire).
    PoolDiscard {
        /// Bytes released.
        bytes: u64,
    },
    /// A recall transfer was issued to the pool — the begin marker
    /// paired with the completing [`EventKind::PoolPageIn`] (which was
    /// previously the only, point, event of a recall).
    RecallBegin {
        /// Bytes requested back.
        bytes: u64,
    },
    /// An offload attempt was refused (suspension or link down).
    OffloadRefused,
    /// A resilient recall attempt timed out and scheduled a retry.
    RecallRetry {
        /// 1-based attempt number that failed.
        attempt: u64,
        /// Total simulated microseconds wasted so far in this recall.
        waited_us: u64,
    },
    /// A resilient recall exhausted its retry budget.
    RecallGaveUp {
        /// Attempts made.
        retries: u64,
        /// Total simulated microseconds wasted before giving up.
        wasted_us: u64,
    },
    /// The recall circuit breaker tripped open.
    BreakerOpen,
    /// The recall circuit breaker cooled down and closed.
    BreakerClose,
    /// A degraded-bandwidth window from the fault plan.
    FaultWindow {
        /// Window start, simulated microseconds.
        start_us: u64,
        /// Window end, simulated microseconds (`u64::MAX` = permanent).
        end_us: u64,
        /// Bandwidth multiplier in effect (0 = outage).
        factor: f64,
    },
    /// A resilient recall was abandoned and the container's lost pages
    /// are being rebuilt locally from a cold start (the previously
    /// silent give-up path after [`EventKind::RecallGaveUp`]).
    RecallAbandoned {
        /// Remote pages written off.
        pages: u64,
        /// Simulated microseconds wasted on the failed recall.
        wasted_us: u64,
        /// Simulated microseconds the local cold rebuild costs.
        rebuild_us: u64,
    },
    /// A recall was served from a surviving replica / fragment set after
    /// the primary pool node failed or the breaker forced a detour.
    ReplicaRecall {
        /// Pool node the recall was served from.
        node: u64,
        /// Bytes brought home.
        bytes: u64,
        /// Extra reconstruction latency charged (erasure-coded reads).
        reconstruct_us: u64,
    },
    /// The repair queue scheduled re-replication of one lost fragment.
    RepairStart {
        /// Target pool node receiving the new copy.
        node: u64,
        /// Bytes to re-replicate.
        bytes: u64,
        /// Repair-queue backlog (bytes) including this item.
        backlog_bytes: u64,
    },
    /// A repair item completed and the segment regained a fragment.
    RepairDone {
        /// Pool node that received the new copy.
        node: u64,
        /// Bytes re-replicated.
        bytes: u64,
        /// Time from the node loss to this repair, simulated µs.
        mttr_us: u64,
    },
    /// A whole pool node died; its replicas/fragments are gone.
    PoolNodeDown {
        /// Id of the dead pool node.
        node: u64,
        /// Segments that dropped below the recovery threshold (lost).
        lost_segments: u64,
        /// Segments that survived above threshold (degraded).
        degraded_segments: u64,
    },
}

impl EventKind {
    /// The layer this kind belongs to.
    pub fn layer(&self) -> TraceLayer {
        use EventKind::*;
        match self {
            CellStart { .. } | CellEnd { .. } => TraceLayer::Harness,
            RequestArrive { .. }
            | ContainerLaunch { .. }
            | RuntimeLoaded
            | InitDone
            | ExecStart { .. }
            | ExecStall { .. }
            | ExecEnd { .. }
            | KeepAliveEnter
            | ContainerRetire { .. }
            | ContainerCrash
            | NodeLoss { .. }
            | RecallAbandoned { .. } => TraceLayer::Container,
            AccessScan { .. }
            | GenerationCreate { .. }
            | GenerationAge { .. }
            | MemOffload { .. }
            | MemPageIn { .. } => TraceLayer::Memory,
            PoolPageOut { .. }
            | PoolPageIn { .. }
            | PoolDiscard { .. }
            | RecallBegin { .. }
            | OffloadRefused
            | RecallRetry { .. }
            | RecallGaveUp { .. }
            | BreakerOpen
            | BreakerClose
            | FaultWindow { .. }
            | ReplicaRecall { .. }
            | RepairStart { .. }
            | RepairDone { .. }
            | PoolNodeDown { .. } => TraceLayer::Pool,
        }
    }

    /// The stable snake_case kind name used in JSONL and Chrome output.
    pub fn name(&self) -> &'static str {
        use EventKind::*;
        match self {
            CellStart { .. } => "cell_start",
            CellEnd { .. } => "cell_end",
            RequestArrive { .. } => "request_arrive",
            ContainerLaunch { .. } => "container_launch",
            RuntimeLoaded => "runtime_loaded",
            InitDone => "init_done",
            ExecStart { .. } => "exec_start",
            ExecStall { .. } => "exec_stall",
            ExecEnd { .. } => "exec_end",
            KeepAliveEnter => "keep_alive_enter",
            ContainerRetire { .. } => "container_retire",
            ContainerCrash => "container_crash",
            NodeLoss { .. } => "node_loss",
            AccessScan { .. } => "access_scan",
            GenerationCreate { .. } => "generation_create",
            GenerationAge { .. } => "generation_age",
            MemOffload { .. } => "mem_offload",
            MemPageIn { .. } => "mem_page_in",
            PoolPageOut { .. } => "pool_page_out",
            PoolPageIn { .. } => "pool_page_in",
            PoolDiscard { .. } => "pool_discard",
            RecallBegin { .. } => "recall_begin",
            OffloadRefused => "offload_refused",
            RecallRetry { .. } => "recall_retry",
            RecallGaveUp { .. } => "recall_gave_up",
            BreakerOpen => "breaker_open",
            BreakerClose => "breaker_close",
            FaultWindow { .. } => "fault_window",
            RecallAbandoned { .. } => "recall_abandoned",
            ReplicaRecall { .. } => "replica_recall",
            RepairStart { .. } => "repair_start",
            RepairDone { .. } => "repair_done",
            PoolNodeDown { .. } => "pool_node_down",
        }
    }

    /// Appends the payload fields, in declaration order, to a JSON
    /// object. Payload keys come after the envelope keys so every line
    /// shares a stable prefix.
    pub fn push_payload(&self, doc: &mut JsonValue) {
        use EventKind::*;
        let num = |v: u64| JsonValue::Num(v as f64);
        match self {
            CellStart {
                trace,
                bench,
                config,
                policy,
                seed,
            } => {
                doc.push("trace", JsonValue::Str(trace.clone()));
                doc.push("bench", JsonValue::Str(bench.clone()));
                doc.push("config", JsonValue::Str(config.clone()));
                doc.push("policy", JsonValue::Str(policy.clone()));
                doc.push("seed", num(*seed));
            }
            CellEnd { requests, sim_secs } => {
                doc.push("requests", num(*requests));
                doc.push("sim_secs", JsonValue::Num(*sim_secs));
            }
            RequestArrive { function } | ContainerLaunch { function } => {
                doc.push("function", num(u64::from(*function)));
            }
            RuntimeLoaded | InitDone | KeepAliveEnter | ContainerCrash | OffloadRefused
            | BreakerOpen | BreakerClose => {}
            ExecStart { cold } => {
                doc.push("cold", JsonValue::Bool(*cold));
            }
            ExecStall { cause, us } => {
                doc.push("cause", JsonValue::Str(cause.name().into()));
                doc.push("us", num(*us));
            }
            ExecEnd { latency_us, faults } => {
                doc.push("latency_us", num(*latency_us));
                doc.push("faults", num(*faults));
            }
            ContainerRetire { requests } => {
                doc.push("requests", num(*requests));
            }
            NodeLoss {
                victims,
                lost_bytes,
            } => {
                doc.push("victims", num(*victims));
                doc.push("lost_bytes", num(*lost_bytes));
            }
            AccessScan { live, accessed } => {
                doc.push("live", num(*live));
                doc.push("accessed", num(*accessed));
            }
            GenerationCreate { generation } => {
                doc.push("generation", num(*generation));
            }
            GenerationAge {
                threshold,
                collected,
            } => {
                doc.push("threshold", num(*threshold));
                doc.push("collected", num(*collected));
            }
            MemOffload { pages } => {
                doc.push("pages", num(*pages));
            }
            MemPageIn { pages, demand } => {
                doc.push("pages", num(*pages));
                doc.push("demand", JsonValue::Bool(*demand));
            }
            PoolPageOut {
                bytes,
                stall_us,
                queued_us,
            }
            | PoolPageIn {
                bytes,
                stall_us,
                queued_us,
            } => {
                doc.push("bytes", num(*bytes));
                doc.push("stall_us", num(*stall_us));
                doc.push("queued_us", num(*queued_us));
            }
            PoolDiscard { bytes } | RecallBegin { bytes } => {
                doc.push("bytes", num(*bytes));
            }
            RecallRetry { attempt, waited_us } => {
                doc.push("attempt", num(*attempt));
                doc.push("waited_us", num(*waited_us));
            }
            RecallGaveUp { retries, wasted_us } => {
                doc.push("retries", num(*retries));
                doc.push("wasted_us", num(*wasted_us));
            }
            FaultWindow {
                start_us,
                end_us,
                factor,
            } => {
                doc.push("start_us", num(*start_us));
                doc.push("end_us", num(*end_us));
                doc.push("factor", JsonValue::Num(*factor));
            }
            RecallAbandoned {
                pages,
                wasted_us,
                rebuild_us,
            } => {
                doc.push("pages", num(*pages));
                doc.push("wasted_us", num(*wasted_us));
                doc.push("rebuild_us", num(*rebuild_us));
            }
            ReplicaRecall {
                node,
                bytes,
                reconstruct_us,
            } => {
                doc.push("node", num(*node));
                doc.push("bytes", num(*bytes));
                doc.push("reconstruct_us", num(*reconstruct_us));
            }
            RepairStart {
                node,
                bytes,
                backlog_bytes,
            } => {
                doc.push("node", num(*node));
                doc.push("bytes", num(*bytes));
                doc.push("backlog_bytes", num(*backlog_bytes));
            }
            RepairDone {
                node,
                bytes,
                mttr_us,
            } => {
                doc.push("node", num(*node));
                doc.push("bytes", num(*bytes));
                doc.push("mttr_us", num(*mttr_us));
            }
            PoolNodeDown {
                node,
                lost_segments,
                degraded_segments,
            } => {
                doc.push("node", num(*node));
                doc.push("lost_segments", num(*lost_segments));
                doc.push("degraded_segments", num(*degraded_segments));
            }
        }
    }
}

/// One stamped trace record. `(time, seq)` is a total order within a
/// cell; `container`/`request` are parent span ids linking a page or
/// pool operation back to the container and request that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated timestamp at emission.
    pub time: SimTime,
    /// Strictly monotone per-tracer sequence number (tie-break).
    pub seq: u64,
    /// Owning container id, when the event is container-scoped.
    pub container: Option<u64>,
    /// Owning request index, when the event is request-scoped.
    pub request: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The `(sim_time_us, seq)` sort key.
    pub fn key(&self) -> (u64, u64) {
        (self.time.as_micros(), self.seq)
    }

    /// Renders the event as one JSONL object. Envelope keys come first
    /// in fixed order (`cell`, `t`, `seq`, `layer`, `kind`, then `ctr`
    /// and `req` when present), followed by the payload.
    pub fn to_json(&self, cell: Option<u64>) -> JsonValue {
        let mut doc = JsonValue::obj();
        if let Some(cell) = cell {
            doc.push("cell", JsonValue::Num(cell as f64));
        }
        doc.push("t", JsonValue::Num(self.time.as_micros() as f64));
        doc.push("seq", JsonValue::Num(self.seq as f64));
        doc.push("layer", JsonValue::Str(self.kind.layer().name().into()));
        doc.push("kind", JsonValue::Str(self.kind.name().into()));
        if let Some(ctr) = self.container {
            doc.push("ctr", JsonValue::Num(ctr as f64));
        }
        if let Some(req) = self.request {
            doc.push("req", JsonValue::Num(req as f64));
        }
        self.kind.push_payload(&mut doc);
        doc
    }

    /// The event as one compact JSONL line (no trailing newline).
    pub fn jsonl_line(&self, cell: Option<u64>) -> String {
        self.to_json(cell).to_compact()
    }

    /// Decodes one JSONL object into its `cell` and event: the exact
    /// inverse of [`TraceEvent::to_json`]. It is strict, since the
    /// writer never emits what it rejects: an unknown kind, a missing
    /// or mistyped key, or a `layer` that disagrees with the kind is an
    /// error naming the key.
    pub fn from_json(doc: &JsonValue) -> Result<(Option<u64>, TraceEvent), String> {
        use EventKind::*;
        let k = Keys(doc);
        let kind = match k.str("kind")? {
            "cell_start" => CellStart {
                trace: k.str("trace")?.into(),
                bench: k.str("bench")?.into(),
                config: k.str("config")?.into(),
                policy: k.str("policy")?.into(),
                seed: k.u64("seed")?,
            },
            "cell_end" => CellEnd {
                requests: k.u64("requests")?,
                sim_secs: k.f64("sim_secs")?,
            },
            "request_arrive" => RequestArrive {
                function: k.u32("function")?,
            },
            "container_launch" => ContainerLaunch {
                function: k.u32("function")?,
            },
            "runtime_loaded" => RuntimeLoaded,
            "init_done" => InitDone,
            "exec_start" => ExecStart {
                cold: k.bool("cold")?,
            },
            "exec_stall" => {
                let cause = k.str("cause")?;
                ExecStall {
                    cause: StallCause::from_name(cause)
                        .ok_or_else(|| format!("key \"cause\": unknown stall cause {cause:?}"))?,
                    us: k.u64("us")?,
                }
            }
            "exec_end" => ExecEnd {
                latency_us: k.u64("latency_us")?,
                faults: k.u64("faults")?,
            },
            "keep_alive_enter" => KeepAliveEnter,
            "container_retire" => ContainerRetire {
                requests: k.u64("requests")?,
            },
            "container_crash" => ContainerCrash,
            "node_loss" => NodeLoss {
                victims: k.u64("victims")?,
                lost_bytes: k.u64("lost_bytes")?,
            },
            "access_scan" => AccessScan {
                live: k.u64("live")?,
                accessed: k.u64("accessed")?,
            },
            "generation_create" => GenerationCreate {
                generation: k.u64("generation")?,
            },
            "generation_age" => GenerationAge {
                threshold: k.u64("threshold")?,
                collected: k.u64("collected")?,
            },
            "mem_offload" => MemOffload {
                pages: k.u64("pages")?,
            },
            "mem_page_in" => MemPageIn {
                pages: k.u64("pages")?,
                demand: k.bool("demand")?,
            },
            "pool_page_out" => PoolPageOut {
                bytes: k.u64("bytes")?,
                stall_us: k.u64("stall_us")?,
                queued_us: k.u64("queued_us")?,
            },
            "pool_page_in" => PoolPageIn {
                bytes: k.u64("bytes")?,
                stall_us: k.u64("stall_us")?,
                queued_us: k.u64("queued_us")?,
            },
            "pool_discard" => PoolDiscard {
                bytes: k.u64("bytes")?,
            },
            "recall_begin" => RecallBegin {
                bytes: k.u64("bytes")?,
            },
            "offload_refused" => OffloadRefused,
            "recall_retry" => RecallRetry {
                attempt: k.u64("attempt")?,
                waited_us: k.u64("waited_us")?,
            },
            "recall_gave_up" => RecallGaveUp {
                retries: k.u64("retries")?,
                wasted_us: k.u64("wasted_us")?,
            },
            "breaker_open" => BreakerOpen,
            "breaker_close" => BreakerClose,
            "fault_window" => FaultWindow {
                start_us: k.u64("start_us")?,
                end_us: k.u64("end_us")?,
                factor: k.f64("factor")?,
            },
            "recall_abandoned" => RecallAbandoned {
                pages: k.u64("pages")?,
                wasted_us: k.u64("wasted_us")?,
                rebuild_us: k.u64("rebuild_us")?,
            },
            "replica_recall" => ReplicaRecall {
                node: k.u64("node")?,
                bytes: k.u64("bytes")?,
                reconstruct_us: k.u64("reconstruct_us")?,
            },
            "repair_start" => RepairStart {
                node: k.u64("node")?,
                bytes: k.u64("bytes")?,
                backlog_bytes: k.u64("backlog_bytes")?,
            },
            "repair_done" => RepairDone {
                node: k.u64("node")?,
                bytes: k.u64("bytes")?,
                mttr_us: k.u64("mttr_us")?,
            },
            "pool_node_down" => PoolNodeDown {
                node: k.u64("node")?,
                lost_segments: k.u64("lost_segments")?,
                degraded_segments: k.u64("degraded_segments")?,
            },
            other => return Err(format!("key \"kind\": unknown kind {other:?}")),
        };
        let layer = k.str("layer")?;
        if layer != kind.layer().name() {
            return Err(format!(
                "key \"layer\": {layer:?} does not match kind {:?}",
                kind.name()
            ));
        }
        let event = TraceEvent {
            time: SimTime::from_micros(k.u64("t")?),
            seq: k.u64("seq")?,
            container: k.opt_u64("ctr")?,
            request: k.opt_u64("req")?,
            kind,
        };
        Ok((k.opt_u64("cell")?, event))
    }
}

/// Typed lookups into one JSONL object for [`TraceEvent::from_json`];
/// each error names the key at fault.
struct Keys<'a>(&'a JsonValue);

impl Keys<'_> {
    fn get(&self, key: &str) -> Result<&JsonValue, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)?
            .as_str()
            .ok_or_else(|| format!("key {key:?} is not a string"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(format!("key {key:?} is not a boolean")),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)?
            .as_num()
            .ok_or_else(|| format!("key {key:?} is not a number"))
    }

    /// A whole number in `[0, 2^64]`. The writer prints `u64::MAX` as
    /// `2^64` (the nearest `f64`), which converts back to `u64::MAX`.
    fn u64(&self, key: &str) -> Result<u64, String> {
        let n = self.f64(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
            Ok(n as u64)
        } else {
            Err(format!("key {key:?} is not an unsigned integer: {n}"))
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("key {key:?} does not fit in 32 bits"))
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.0.get(key) {
            None => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }
}

/// Decodes a JSONL trace (as the harness `--trace` path writes it) and
/// groups its events by cell, keeping each cell's events in file
/// order. A line without a `cell` key belongs to cell 0. Blank lines
/// are skipped; any other line that does not decode is an error
/// carrying its 1-based line number.
pub fn read_jsonl(input: &str) -> Result<BTreeMap<u64, Vec<TraceEvent>>, String> {
    let mut cells: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (cell, event) = json::parse(line)
            .and_then(|doc| TraceEvent::from_json(&doc))
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        cells.entry(cell.unwrap_or(0)).or_default().push(event);
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_roundtrip_through_fromstr() {
        for layer in TraceLayer::ALL {
            assert_eq!(layer.name().parse::<TraceLayer>().unwrap(), layer);
        }
        assert!("disk".parse::<TraceLayer>().is_err());
    }

    #[test]
    fn mask_parsing_and_membership() {
        let mask = LayerMask::parse_list("container, pool,").unwrap();
        assert!(mask.contains(TraceLayer::Container));
        assert!(mask.contains(TraceLayer::Pool));
        assert!(!mask.contains(TraceLayer::Memory));
        assert!(!mask.contains(TraceLayer::Harness));
        assert_eq!(LayerMask::parse_list("").unwrap(), LayerMask::NONE);
        assert!(LayerMask::parse_list("container,bogus").is_err());
        assert_eq!(LayerMask::default(), LayerMask::ALL);
        for layer in TraceLayer::ALL {
            assert!(LayerMask::ALL.contains(layer));
            assert!(!LayerMask::NONE.contains(layer));
            assert!(LayerMask::only(layer).contains(layer));
        }
    }

    #[test]
    fn stall_cause_names_roundtrip() {
        for cause in StallCause::ALL {
            assert_eq!(StallCause::from_name(cause.name()), Some(cause));
        }
        assert_eq!(StallCause::from_name("coffee_break"), None);
    }

    #[test]
    fn jsonl_envelope_key_order_is_fixed() {
        let event = TraceEvent {
            time: SimTime::from_secs(1),
            seq: 7,
            container: Some(3),
            request: Some(12),
            kind: EventKind::ExecEnd {
                latency_us: 4500,
                faults: 2,
            },
        };
        assert_eq!(
            event.jsonl_line(Some(0)),
            "{\"cell\":0,\"t\":1000000,\"seq\":7,\"layer\":\"container\",\
             \"kind\":\"exec_end\",\"ctr\":3,\"req\":12,\"latency_us\":4500,\"faults\":2}"
        );
    }

    #[test]
    fn optional_span_ids_are_omitted() {
        let event = TraceEvent {
            time: SimTime::ZERO,
            seq: 0,
            container: None,
            request: None,
            kind: EventKind::BreakerOpen,
        };
        assert_eq!(
            event.jsonl_line(None),
            "{\"t\":0,\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\"}"
        );
    }

    /// One event of every kind: the k-th integer field of a payload is
    /// `n / k`, so swapped fields show (functions take the low 32 bits
    /// of `n`); floats are `x`, flags `b`, labels `s`.
    fn every_kind(n: u64, x: f64, b: bool, s: &str) -> Vec<EventKind> {
        use EventKind::*;
        vec![
            CellStart {
                trace: s.into(),
                bench: format!("{s}/b"),
                config: String::new(),
                policy: "p".into(),
                seed: n,
            },
            CellEnd {
                requests: n,
                sim_secs: x,
            },
            RequestArrive { function: n as u32 },
            ContainerLaunch { function: n as u32 },
            RuntimeLoaded,
            InitDone,
            ExecStart { cold: b },
            ExecStall {
                cause: StallCause::ALL[n as usize % StallCause::ALL.len()],
                us: n,
            },
            ExecEnd {
                latency_us: n,
                faults: n / 2,
            },
            KeepAliveEnter,
            ContainerRetire { requests: n },
            ContainerCrash,
            NodeLoss {
                victims: n,
                lost_bytes: n / 2,
            },
            AccessScan {
                live: n,
                accessed: n / 2,
            },
            GenerationCreate { generation: n },
            GenerationAge {
                threshold: n,
                collected: n / 2,
            },
            MemOffload { pages: n },
            MemPageIn {
                pages: n,
                demand: b,
            },
            PoolPageOut {
                bytes: n,
                stall_us: n / 2,
                queued_us: n / 3,
            },
            PoolPageIn {
                bytes: n,
                stall_us: n / 2,
                queued_us: n / 3,
            },
            PoolDiscard { bytes: n },
            RecallBegin { bytes: n },
            OffloadRefused,
            RecallRetry {
                attempt: n,
                waited_us: n / 2,
            },
            RecallGaveUp {
                retries: n,
                wasted_us: n / 2,
            },
            BreakerOpen,
            BreakerClose,
            FaultWindow {
                start_us: n,
                end_us: n / 2,
                factor: x,
            },
            RecallAbandoned {
                pages: n,
                wasted_us: n / 2,
                rebuild_us: n / 3,
            },
            ReplicaRecall {
                node: n,
                bytes: n / 2,
                reconstruct_us: n / 3,
            },
            RepairStart {
                node: n,
                bytes: n / 2,
                backlog_bytes: n / 3,
            },
            RepairDone {
                node: n,
                bytes: n / 2,
                mttr_us: n / 3,
            },
            PoolNodeDown {
                node: n,
                lost_segments: n / 2,
                degraded_segments: n / 3,
            },
        ]
    }

    /// How many variants `EventKind` has.
    const VARIANTS: usize = 33;

    /// Exhaustive on purpose: a new variant fails to compile here until
    /// it takes the next ordinal (and `VARIANTS` grows), and then fails
    /// `every_kind_is_built_once` until [`every_kind`] builds it.
    fn ordinal(kind: &EventKind) -> usize {
        use EventKind::*;
        match kind {
            CellStart { .. } => 0,
            CellEnd { .. } => 1,
            RequestArrive { .. } => 2,
            ContainerLaunch { .. } => 3,
            RuntimeLoaded => 4,
            InitDone => 5,
            ExecStart { .. } => 6,
            ExecStall { .. } => 7,
            ExecEnd { .. } => 8,
            KeepAliveEnter => 9,
            ContainerRetire { .. } => 10,
            ContainerCrash => 11,
            NodeLoss { .. } => 12,
            AccessScan { .. } => 13,
            GenerationCreate { .. } => 14,
            GenerationAge { .. } => 15,
            MemOffload { .. } => 16,
            MemPageIn { .. } => 17,
            PoolPageOut { .. } => 18,
            PoolPageIn { .. } => 19,
            PoolDiscard { .. } => 20,
            RecallBegin { .. } => 21,
            OffloadRefused => 22,
            RecallRetry { .. } => 23,
            RecallGaveUp { .. } => 24,
            BreakerOpen => 25,
            BreakerClose => 26,
            FaultWindow { .. } => 27,
            RecallAbandoned { .. } => 28,
            ReplicaRecall { .. } => 29,
            RepairStart { .. } => 30,
            RepairDone { .. } => 31,
            PoolNodeDown { .. } => 32,
        }
    }

    #[test]
    fn every_kind_is_built_once() {
        let ordinals: Vec<usize> = every_kind(1, 1.0, true, "s").iter().map(ordinal).collect();
        assert_eq!(ordinals, (0..VARIANTS).collect::<Vec<_>>());
    }

    #[test]
    fn every_kind_reports_a_consistent_layer() {
        for kind in every_kind(1, 1.0, true, "t") {
            // Every kind serializes without panicking and its name is
            // non-empty; layer() must be stable with the JSONL field.
            let event = TraceEvent {
                time: SimTime::ZERO,
                seq: 0,
                container: None,
                request: None,
                kind: kind.clone(),
            };
            let line = event.jsonl_line(Some(1));
            assert!(line.contains(&format!("\"kind\":\"{}\"", kind.name())));
            assert!(line.contains(&format!("\"layer\":\"{}\"", kind.layer().name())));
        }
    }

    /// Writes `event` as a JSONL line, parses it and decodes it back.
    fn roundtrip(event: &TraceEvent, cell: Option<u64>) -> (Option<u64>, TraceEvent) {
        let doc = json::parse(&event.jsonl_line(cell)).expect("the writer emits valid JSON");
        TraceEvent::from_json(&doc).expect("the decoder accepts what the writer emits")
    }

    /// 2^53: a JSON number (an `f64`) holds every integer up to it
    /// exactly.
    const EXACT: u64 = 1 << 53;

    #[test]
    fn decoding_inverts_the_writer_at_the_range_ends() {
        for n in [0, 1, u64::from(u32::MAX), EXACT] {
            for kind in every_kind(n, 0.0, false, "") {
                let event = TraceEvent {
                    time: SimTime::from_micros(n),
                    seq: n,
                    container: Some(n),
                    request: Some(n),
                    kind,
                };
                assert_eq!(roundtrip(&event, Some(n)), (Some(n), event));
            }
        }
        // A permanent fault window ends at u64::MAX, which the writer
        // prints as 2^64.
        let permanent = TraceEvent {
            time: SimTime::ZERO,
            seq: 0,
            container: None,
            request: None,
            kind: EventKind::FaultWindow {
                start_us: 5,
                end_us: u64::MAX,
                factor: 0.0,
            },
        };
        assert_eq!(roundtrip(&permanent, None), (None, permanent));
    }

    #[test]
    fn decoding_rejects_what_the_writer_never_emits() {
        let decode = |line: &str| TraceEvent::from_json(&json::parse(line).unwrap()).unwrap_err();
        let cases = [
            ("{\"t\":0,\"seq\":0,\"layer\":\"pool\"}", "\"kind\""),
            ("{\"t\":0,\"seq\":0,\"layer\":\"pool\",\"kind\":\"teleport\"}", "teleport"),
            ("{\"t\":0,\"seq\":0,\"layer\":\"memory\",\"kind\":\"breaker_open\"}", "\"layer\""),
            ("{\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\"}", "\"t\""),
            ("{\"t\":-1,\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\"}", "\"t\""),
            ("{\"t\":0.5,\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\"}", "\"t\""),
            ("{\"t\":0,\"seq\":0,\"layer\":\"pool\",\"kind\":\"breaker_open\",\"ctr\":\"3\"}", "\"ctr\""),
            ("{\"t\":0,\"seq\":0,\"layer\":\"container\",\"kind\":\"exec_end\",\"faults\":0}", "\"latency_us\""),
            ("{\"t\":0,\"seq\":0,\"layer\":\"container\",\"kind\":\"exec_start\",\"cold\":1}", "\"cold\""),
            ("{\"t\":0,\"seq\":0,\"layer\":\"container\",\"kind\":\"request_arrive\",\"function\":4294967296}", "\"function\""),
        ];
        for (line, key) in cases {
            let err = decode(line);
            assert!(err.contains(key), "{line}: {err}");
        }
    }

    #[test]
    fn read_jsonl_groups_by_cell_and_numbers_its_errors() {
        let event = |seq| TraceEvent {
            time: SimTime::ZERO,
            seq,
            container: None,
            request: None,
            kind: EventKind::BreakerOpen,
        };
        let input = [
            event(0).jsonl_line(Some(2)),
            String::new(),
            event(1).jsonl_line(None),
            event(2).jsonl_line(Some(2)),
        ]
        .join("\n");
        let cells = read_jsonl(&input).unwrap();
        assert_eq!(cells.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(cells[&0], vec![event(1)]);
        assert_eq!(cells[&2], vec![event(0), event(2)]);
        let err = read_jsonl(&format!("{input}\n{{\"t\":0}}")).unwrap_err();
        assert!(err.starts_with("line 5: missing key \"kind\""), "{err}");
    }

    proptest::proptest! {
        // `from_json(parse(jsonl_line(e)))` gives back `e` for every
        // kind, with and without a cell, container and request, over
        // the whole range a JSON number holds exactly.
        #[test]
        fn prop_decoding_inverts_the_writer(
            n in 0u64..EXACT + 1,
            x in -1e9f64..1e9,
            flags in 0u8..16,
        ) {
            let has = |bit: u8| flags & (1 << bit) != 0;
            for kind in every_kind(n, x, has(0), "a\"b\\c\n\u{1}é") {
                let event = TraceEvent {
                    time: SimTime::from_micros(n),
                    seq: n / 3,
                    container: has(1).then_some(n / 5),
                    request: has(2).then_some(n / 7),
                    kind,
                };
                let cell = has(3).then_some(n % 64);
                proptest::prop_assert_eq!(roundtrip(&event, cell), (cell, event));
            }
        }
    }
}
