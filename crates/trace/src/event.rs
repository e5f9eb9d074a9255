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
        TraceLayer::ALL
            .into_iter()
            .find(|layer| layer.name() == s)
            .ok_or_else(|| {
                format!("unknown trace layer '{s}' (expected harness, container, memory or pool)")
            })
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

/// Declares every event kind once: its doc comment, variant, wire name,
/// layer and payload fields, each field with its doc comment. From the
/// one table it generates [`EventKind`], [`EventKind::layer`],
/// [`EventKind::name`], [`EventKind::push_payload`] (keys are the field
/// names, in declaration order) and the decoder behind
/// [`TraceEvent::from_json`], so the writer and the reader cannot
/// disagree on a name, a layer or a key.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $name:literal in $layer:ident $({
            $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
        })?
    )*) => {
        /// What happened. Each variant belongs to one [`TraceLayer`] and
        /// carries a small, fully deterministic payload (counts, byte
        /// totals, simulated durations in microseconds — never
        /// wall-clock).
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $(
                $(#[$doc])*
                $variant $({ $( $(#[$field_doc])* $field: $ty, )* })?,
            )*
        }

        impl EventKind {
            /// The layer this kind belongs to.
            pub fn layer(&self) -> TraceLayer {
                match self {
                    $( EventKind::$variant { .. } => TraceLayer::$layer, )*
                }
            }

            /// The stable snake_case kind name used in JSONL and Chrome
            /// output.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $name, )*
                }
            }

            /// Appends the payload fields, in declaration order, to a
            /// JSON object. Payload keys come after the envelope keys so
            /// every line shares a stable prefix.
            pub fn push_payload(&self, doc: &mut JsonValue) {
                match self {
                    $( EventKind::$variant $({ $($field),* })? => {
                        $($( doc.push(stringify!($field), Field::json($field)); )*)?
                    } )*
                }
            }

            /// Builds the kind named `name` from its payload keys.
            fn decode(name: &str, k: &Keys) -> Result<EventKind, String> {
                Ok(match name {
                    $( $name => EventKind::$variant $({
                        $( $field: Field::decode(k, stringify!($field))?, )*
                    })?, )*
                    other => return Err(format!("key \"kind\": unknown kind {other:?}")),
                })
            }
        }

        /// Every kind's wire name, in table order.
        #[cfg(test)]
        const KIND_NAMES: &[&str] = &[$($name),*];
    };
}

event_kinds! {
    // -- harness ------------------------------------------------------
    /// A grid cell began: the experiment labels and seeds for the run.
    CellStart = "cell_start" in Harness {
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
    }
    /// A grid cell finished cleanly.
    CellEnd = "cell_end" in Harness {
        /// Requests completed over the cell.
        requests: u64,
        /// Simulated duration of the run in seconds.
        sim_secs: f64,
    }

    // -- container lifecycle ------------------------------------------
    /// A request arrived for a function.
    RequestArrive = "request_arrive" in Container {
        /// Function index within the registered spec set.
        function: u32,
    }
    /// A cold start began: a new container was created.
    ContainerLaunch = "container_launch" in Container {
        /// Function index the container serves.
        function: u32,
    }
    /// The container runtime finished loading.
    RuntimeLoaded = "runtime_loaded" in Container
    /// Language/runtime initialization completed.
    InitDone = "init_done" in Container
    /// Request execution began on a container.
    ExecStart = "exec_start" in Container {
        /// Whether this execution is the container's cold start.
        cold: bool,
    }
    /// One named stall component charged to the executing request.
    ///
    /// The platform previously folded all stalls invisibly into the
    /// execution window; this is the begin marker of a synthetic child
    /// span. Stalls serialize at the head of the execution window, so
    /// the span covers `[t, t + us)` with consecutive `ExecStall`
    /// events of one request laid end to end — the matching
    /// [`EventKind::ExecEnd`] closes the chain.
    ExecStall = "exec_stall" in Container {
        /// Which blame family the stall belongs to.
        cause: StallCause,
        /// Stalled simulated microseconds.
        us: u64,
    }
    /// Request execution finished.
    ExecEnd = "exec_end" in Container {
        /// End-to-end request latency in simulated microseconds.
        latency_us: u64,
        /// Demand page faults taken during this execution.
        faults: u64,
    }
    /// The container went idle into the keep-alive pool.
    KeepAliveEnter = "keep_alive_enter" in Container
    /// The container was recycled (keep-alive expiry or fault policy).
    ContainerRetire = "container_retire" in Container {
        /// Requests the container served over its lifetime.
        requests: u64,
    }
    /// The container was killed by an injected crash event.
    ContainerCrash = "container_crash" in Container
    /// A memory-node loss event hit the pool.
    NodeLoss = "node_loss" in Container {
        /// Containers forcibly recycled by the loss.
        victims: u64,
        /// Remote bytes lost with the node.
        lost_bytes: u64,
    }

    // -- memory -------------------------------------------------------
    /// An access-bit scan over a container's pages.
    AccessScan = "access_scan" in Memory {
        /// Pages resident (local + remote) at scan time.
        live: u64,
        /// Pages observed accessed since the previous scan.
        accessed: u64,
    }
    /// A new MGLRU generation was created (promote tip).
    GenerationCreate = "generation_create" in Memory {
        /// The new generation number.
        generation: u64,
    }
    /// Generations were aged and idle pages collected (demote).
    GenerationAge = "generation_age" in Memory {
        /// Generation threshold used for collection.
        threshold: u64,
        /// Page ids the scan collected as offload candidates: at most
        /// the caller's collect limit (TMO passes its per-tick budget;
        /// DAMON no limit, or one id while the pool refuses offloads),
        /// not every page past the threshold.
        collected: u64,
    }
    /// Pages moved local → remote in the page table.
    MemOffload = "mem_offload" in Memory {
        /// Pages offloaded.
        pages: u64,
    }
    /// Pages moved remote → local in the page table.
    MemPageIn = "mem_page_in" in Memory {
        /// Pages brought back.
        pages: u64,
        /// `true` for demand faults, `false` for prefetch.
        demand: bool,
    }

    // -- pool ---------------------------------------------------------
    /// A transfer to the memory pool completed.
    PoolPageOut = "pool_page_out" in Pool {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    }
    /// A transfer back from the memory pool completed.
    PoolPageIn = "pool_page_in" in Pool {
        /// Bytes moved.
        bytes: u64,
        /// Transfer duration in simulated microseconds.
        stall_us: u64,
        /// Time spent queued behind earlier transfers (saturation).
        queued_us: u64,
    }
    /// Remote bytes were discarded without transfer (container retire).
    PoolDiscard = "pool_discard" in Pool {
        /// Bytes released.
        bytes: u64,
    }
    /// A recall transfer was issued to the pool — the begin marker
    /// paired with the completing [`EventKind::PoolPageIn`] (which was
    /// previously the only, point, event of a recall).
    RecallBegin = "recall_begin" in Pool {
        /// Bytes requested back.
        bytes: u64,
    }
    /// An offload attempt was refused (suspension or link down).
    OffloadRefused = "offload_refused" in Pool
    /// A resilient recall attempt timed out and scheduled a retry.
    RecallRetry = "recall_retry" in Pool {
        /// 1-based attempt number that failed.
        attempt: u64,
        /// Total simulated microseconds wasted so far in this recall.
        waited_us: u64,
    }
    /// A resilient recall exhausted its retry budget.
    RecallGaveUp = "recall_gave_up" in Pool {
        /// Attempts made.
        retries: u64,
        /// Total simulated microseconds wasted before giving up.
        wasted_us: u64,
    }
    /// The recall circuit breaker tripped open.
    BreakerOpen = "breaker_open" in Pool
    /// The recall circuit breaker cooled down and closed.
    BreakerClose = "breaker_close" in Pool
    /// A degraded-bandwidth window from the fault plan.
    FaultWindow = "fault_window" in Pool {
        /// Window start, simulated microseconds.
        start_us: u64,
        /// Window end, simulated microseconds (`u64::MAX` = permanent).
        end_us: u64,
        /// Bandwidth multiplier in effect (0 = outage).
        factor: f64,
    }
    /// A resilient recall was abandoned and the container's lost pages
    /// are being rebuilt locally from a cold start (the previously
    /// silent give-up path after [`EventKind::RecallGaveUp`]).
    RecallAbandoned = "recall_abandoned" in Container {
        /// Remote pages written off.
        pages: u64,
        /// Simulated microseconds wasted on the failed recall.
        wasted_us: u64,
        /// Simulated microseconds the local cold rebuild costs.
        rebuild_us: u64,
    }
    /// A recall was served from a surviving replica / fragment set after
    /// the primary pool node failed or the breaker forced a detour.
    ReplicaRecall = "replica_recall" in Pool {
        /// Pool node the recall was served from.
        node: u64,
        /// Bytes brought home.
        bytes: u64,
        /// Extra reconstruction latency charged (erasure-coded reads).
        reconstruct_us: u64,
    }
    /// The repair queue scheduled re-replication of one lost fragment.
    RepairStart = "repair_start" in Pool {
        /// Target pool node receiving the new copy.
        node: u64,
        /// Bytes to re-replicate.
        bytes: u64,
        /// Repair-queue backlog (bytes) including this item.
        backlog_bytes: u64,
    }
    /// A repair item completed and the segment regained a fragment.
    RepairDone = "repair_done" in Pool {
        /// Pool node that received the new copy.
        node: u64,
        /// Bytes re-replicated.
        bytes: u64,
        /// Time from the node loss to this repair, simulated µs.
        mttr_us: u64,
    }
    /// A whole pool node died; its replicas/fragments are gone.
    PoolNodeDown = "pool_node_down" in Pool {
        /// Id of the dead pool node.
        node: u64,
        /// Segments that dropped below the recovery threshold (lost).
        lost_segments: u64,
        /// Segments that survived above threshold (degraded).
        degraded_segments: u64,
    }
}

/// How one payload field type is written to and read from JSON.
trait Field: Sized {
    /// The field as a JSON value.
    fn json(&self) -> JsonValue;
    /// Reads the field at `key`; an error names the key.
    fn decode(k: &Keys, key: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn json(&self) -> JsonValue {
        JsonValue::Num(*self as f64)
    }
    fn decode(k: &Keys, key: &str) -> Result<u64, String> {
        k.u64(key)
    }
}

impl Field for u32 {
    fn json(&self) -> JsonValue {
        JsonValue::Num(f64::from(*self))
    }
    fn decode(k: &Keys, key: &str) -> Result<u32, String> {
        k.u32(key)
    }
}

impl Field for f64 {
    fn json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
    fn decode(k: &Keys, key: &str) -> Result<f64, String> {
        k.f64(key)
    }
}

impl Field for bool {
    fn json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
    fn decode(k: &Keys, key: &str) -> Result<bool, String> {
        k.bool(key)
    }
}

impl Field for String {
    fn json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
    fn decode(k: &Keys, key: &str) -> Result<String, String> {
        k.str(key).map(str::to_owned)
    }
}

impl Field for StallCause {
    fn json(&self) -> JsonValue {
        JsonValue::Str(self.name().into())
    }
    fn decode(k: &Keys, key: &str) -> Result<StallCause, String> {
        let name = k.str(key)?;
        StallCause::from_name(name)
            .ok_or_else(|| format!("key {key:?}: unknown stall cause {name:?}"))
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
        let k = Keys(doc);
        let kind = EventKind::decode(k.str("kind")?, &k)?;
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
        assert_eq!(
            "disk".parse::<TraceLayer>().unwrap_err(),
            "unknown trace layer 'disk' (expected harness, container, memory or pool)"
        );
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

    /// A new table entry fails here until [`every_kind`] builds it, in
    /// table order.
    #[test]
    fn every_kind_is_built_once() {
        let names: Vec<&str> = every_kind(1, 1.0, true, "s")
            .iter()
            .map(EventKind::name)
            .collect();
        assert_eq!(names, KIND_NAMES);
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

    /// One exact JSONL line per kind, in [`every_kind`] order, for
    /// `every_kind(12, 2.5, true, "s")` stamped at `t = 1000012`,
    /// `seq = 3` in cell 1 of container 4, request 5. The round trip
    /// cannot see a key or kind renamed on both sides at once; these
    /// bytes can.
    const PINNED: &[&str] = &[
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"harness","kind":"cell_start","ctr":4,"req":5,"trace":"s","bench":"s/b","config":"","policy":"p","seed":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"harness","kind":"cell_end","ctr":4,"req":5,"requests":12,"sim_secs":2.5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"request_arrive","ctr":4,"req":5,"function":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"container_launch","ctr":4,"req":5,"function":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"runtime_loaded","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"init_done","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"exec_start","ctr":4,"req":5,"cold":true}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"exec_stall","ctr":4,"req":5,"cause":"failover_detour","us":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"exec_end","ctr":4,"req":5,"latency_us":12,"faults":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"keep_alive_enter","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"container_retire","ctr":4,"req":5,"requests":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"container_crash","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"node_loss","ctr":4,"req":5,"victims":12,"lost_bytes":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"memory","kind":"access_scan","ctr":4,"req":5,"live":12,"accessed":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"memory","kind":"generation_create","ctr":4,"req":5,"generation":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"memory","kind":"generation_age","ctr":4,"req":5,"threshold":12,"collected":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"memory","kind":"mem_offload","ctr":4,"req":5,"pages":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"memory","kind":"mem_page_in","ctr":4,"req":5,"pages":12,"demand":true}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"pool_page_out","ctr":4,"req":5,"bytes":12,"stall_us":6,"queued_us":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"pool_page_in","ctr":4,"req":5,"bytes":12,"stall_us":6,"queued_us":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"pool_discard","ctr":4,"req":5,"bytes":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"recall_begin","ctr":4,"req":5,"bytes":12}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"offload_refused","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"recall_retry","ctr":4,"req":5,"attempt":12,"waited_us":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"recall_gave_up","ctr":4,"req":5,"retries":12,"wasted_us":6}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"breaker_open","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"breaker_close","ctr":4,"req":5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"fault_window","ctr":4,"req":5,"start_us":12,"end_us":6,"factor":2.5}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"container","kind":"recall_abandoned","ctr":4,"req":5,"pages":12,"wasted_us":6,"rebuild_us":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"replica_recall","ctr":4,"req":5,"node":12,"bytes":6,"reconstruct_us":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"repair_start","ctr":4,"req":5,"node":12,"bytes":6,"backlog_bytes":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"repair_done","ctr":4,"req":5,"node":12,"bytes":6,"mttr_us":4}"#,
        r#"{"cell":1,"t":1000012,"seq":3,"layer":"pool","kind":"pool_node_down","ctr":4,"req":5,"node":12,"lost_segments":6,"degraded_segments":4}"#,
    ];

    #[test]
    fn every_kind_writes_its_pinned_line_and_decodes_it_back() {
        let kinds = every_kind(12, 2.5, true, "s");
        assert_eq!(kinds.len(), PINNED.len());
        for (kind, &pinned) in kinds.into_iter().zip(PINNED) {
            let event = TraceEvent {
                time: SimTime::from_micros(1_000_012),
                seq: 3,
                container: Some(4),
                request: Some(5),
                kind,
            };
            assert_eq!(event.jsonl_line(Some(1)), pinned);
            let doc = json::parse(pinned).unwrap();
            assert_eq!(TraceEvent::from_json(&doc), Ok((Some(1), event)));
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
            ("{\"t\":0,\"seq\":0,\"layer\":\"container\",\"kind\":\"exec_stall\",\"cause\":\"nap\",\"us\":1}", "key \"cause\": unknown stall cause \"nap\""),
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
