//! Multi-node pool fabric: placement, redundancy, failover and repair.
//!
//! The single [`RemotePool`] models the paper's one
//! logical memory node. Real deployments spread the pool over M nodes,
//! any of which can die — so a durable pool must decide *where* each
//! offloaded segment's copies live and *how* recall survives a node
//! death. [`PoolFabric`] is that layer: a placement and durability
//! ledger that rides alongside the `RemotePool` (which keeps modelling
//! aggregate capacity and the host's link) and tracks, per owning
//! container, which pool nodes hold its replicas or fragments.
//!
//! * [`RedundancyPolicy`] picks the scheme: `None` (one copy),
//!   `Mirror{k}` (k full copies on k distinct nodes) or
//!   `ErasureCoded{data, parity}` (`data+parity` fragments on distinct
//!   nodes; any `data` of them reconstruct the segment). Erasure coding
//!   is **modeled, not real**: the fabric charges its capacity and
//!   bandwidth overheads and a reconstruction-latency term, it does not
//!   compute codewords.
//! * Placement is a pure function of `(owner id, node-alive set)`:
//!   fragments land on distinct alive nodes walked cyclically from
//!   `owner % nodes` (anti-affinity), so plans are seed-stable and
//!   byte-identical across `--jobs`.
//! * After a node death the background `RepairQueue` re-replicates
//!   each under-replicated segment at a configurable bandwidth budget
//!   (repair traffic flows between pool nodes, not over the host link),
//!   so redundancy recovers instead of decaying.
//!
//! A degenerate fabric (`nodes = 1`, `RedundancyPolicy::None`) is never
//! constructed by the platform — the `Option<PoolFabric>` stays `None`
//! and exactly the pre-fabric code paths run, which is what makes the
//! byte-identity guarantee provable rather than merely tested.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use faasmem_metrics::DurabilityTracker;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_trace::{EventKind, TraceLayer, Tracer};

use crate::pool::RemotePool;

/// How many copies of each offloaded segment the fabric keeps, and in
/// what form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyPolicy {
    /// One copy on one node — a node death loses the segment.
    None,
    /// `k` full copies on `k` distinct nodes; any one copy recovers.
    Mirror {
        /// Total copies, including the primary. `k = 1` behaves like
        /// [`RedundancyPolicy::None`].
        k: u32,
    },
    /// `data + parity` fragments on distinct nodes; any `data` of them
    /// reconstruct the segment. Overheads are modeled (capacity factor
    /// `(data+parity)/data`, same for write bandwidth, plus a
    /// reconstruction-latency term on degraded reads) — no real coding.
    ErasureCoded {
        /// Data fragments (the recovery threshold).
        data: u32,
        /// Parity fragments.
        parity: u32,
    },
}

impl RedundancyPolicy {
    /// `true` for the no-redundancy scheme.
    pub fn is_none(&self) -> bool {
        matches!(self, RedundancyPolicy::None)
    }

    /// Total fragments (full copies count as one fragment each).
    pub fn fragments(&self) -> u32 {
        match *self {
            RedundancyPolicy::None => 1,
            RedundancyPolicy::Mirror { k } => k.max(1),
            RedundancyPolicy::ErasureCoded { data, parity } => data + parity,
        }
    }

    /// Live fragments needed to recover a segment.
    pub fn threshold(&self) -> u32 {
        match *self {
            RedundancyPolicy::None | RedundancyPolicy::Mirror { .. } => 1,
            RedundancyPolicy::ErasureCoded { data, .. } => data.max(1),
        }
    }

    /// Bytes one fragment stores for a segment of `bytes` bytes.
    pub fn fragment_bytes(&self, bytes: u64) -> u64 {
        match *self {
            RedundancyPolicy::None | RedundancyPolicy::Mirror { .. } => bytes,
            RedundancyPolicy::ErasureCoded { data, .. } => bytes.div_ceil(u64::from(data.max(1))),
        }
    }

    /// Extra bytes stored/transferred beyond the primary copy for a
    /// segment of `bytes` bytes — the redundancy overhead.
    pub fn overhead_bytes(&self, bytes: u64) -> u64 {
        let total = self.fragment_bytes(bytes) * u64::from(self.fragments());
        total.saturating_sub(bytes)
    }

    /// A short stable label for tables and config names.
    pub fn label(&self) -> String {
        match *self {
            RedundancyPolicy::None => "none".into(),
            RedundancyPolicy::Mirror { k } => format!("mirror{k}"),
            RedundancyPolicy::ErasureCoded { data, parity } => format!("ec{data}+{parity}"),
        }
    }
}

/// Configuration of the pool fabric. The default — one node, no
/// redundancy — is the degenerate configuration the platform maps to
/// "no fabric at all".
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Pool nodes in the fabric.
    pub nodes: u32,
    /// Redundancy scheme for offloaded segments.
    pub redundancy: RedundancyPolicy,
    /// Bandwidth budget of the background repair queue (bytes/s of
    /// node-to-node traffic).
    pub repair_bytes_per_sec: u64,
    /// Latency charged on a degraded erasure-coded read (rebuilding the
    /// segment from fragments instead of reading one copy).
    pub reconstruct_micros: u64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes: 1,
            redundancy: RedundancyPolicy::None,
            // 64 MiB/s keeps repair slow enough that MTTR is visible at
            // simulation scale without decaying into "never repairs".
            repair_bytes_per_sec: 64 << 20,
            reconstruct_micros: 500,
        }
    }
}

impl FabricConfig {
    /// `true` for the single-node, no-redundancy configuration that must
    /// behave exactly like the pre-fabric pool (the platform then skips
    /// constructing a fabric entirely).
    pub fn is_degenerate(&self) -> bool {
        self.nodes <= 1 && self.redundancy.is_none()
    }

    /// Checks internal consistency, returning one message per problem
    /// (empty = valid). Wired into the drivers' exit-2 startup check.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.nodes == 0 {
            problems.push("fabric config: need at least one pool node".into());
        }
        match self.redundancy {
            RedundancyPolicy::None => {}
            RedundancyPolicy::Mirror { k } => {
                if k == 0 {
                    problems.push("fabric config: Mirror{k} needs k >= 1".into());
                }
                if k > self.nodes {
                    problems.push(format!(
                        "fabric config: Mirror{{k={k}}} needs k distinct nodes but the fabric has {}",
                        self.nodes
                    ));
                }
            }
            RedundancyPolicy::ErasureCoded { data, parity } => {
                if data == 0 {
                    problems.push("fabric config: ErasureCoded needs data >= 1".into());
                }
                if parity == 0 {
                    problems.push(
                        "fabric config: ErasureCoded with parity = 0 adds no redundancy; use None"
                            .into(),
                    );
                }
                if data + parity > self.nodes {
                    problems.push(format!(
                        "fabric config: ErasureCoded data+parity ({}) exceeds pool nodes ({})",
                        data + parity,
                        self.nodes
                    ));
                }
            }
        }
        if !self.redundancy.is_none() && self.repair_bytes_per_sec == 0 {
            problems.push(
                "fabric config: repair bandwidth must be positive when redundancy is enabled"
                    .into(),
            );
        }
        problems
    }
}

/// One owner's offloaded segment: how many bytes, and which pool node
/// holds each replica/fragment. Slot 0 is the primary read path.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    bytes: u64,
    /// Pool node hosting each fragment slot.
    nodes: Vec<u32>,
    /// Whether the fragment in each slot is intact.
    live: Vec<bool>,
    /// When the segment last lost a fragment (repair-latency anchor).
    degraded_at: SimTime,
}

impl Segment {
    fn live_count(&self) -> u32 {
        self.live.iter().filter(|&&l| l).count() as u32
    }
}

/// One pending re-replication: restore `bytes` into `slot` of `owner`'s
/// segment on node `target` once the repair queue reaches `done_at`.
#[derive(Debug, Clone, PartialEq)]
struct RepairItem {
    owner: u64,
    slot: usize,
    target: u32,
    bytes: u64,
    loss_at: SimTime,
    done_at: SimTime,
}

/// The background repair queue: a serial, bandwidth-budgeted pipe of
/// [`RepairItem`]s. Completion times are assigned at enqueue (the queue
/// drains strictly in order at `repair_bytes_per_sec`), so the timeline
/// is a pure function of the loss events — deterministic across
/// `--jobs`.
#[derive(Debug, Clone, Default)]
struct RepairQueue {
    items: VecDeque<RepairItem>,
    /// When the serial repair pipe frees up.
    tail: SimTime,
}

impl RepairQueue {
    fn enqueue(&mut self, now: SimTime, mut item: RepairItem, bytes_per_sec: u64) -> SimTime {
        let start = self.tail.max(now);
        let micros = (item.bytes as u128 * 1_000_000 / bytes_per_sec.max(1) as u128) as u64;
        self.tail = start.saturating_add(SimDuration::from_micros(micros.max(1)));
        item.done_at = self.tail;
        let done = item.done_at;
        self.items.push_back(item);
        done
    }

    fn backlog_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.bytes).sum()
    }
}

/// What one pool-node death did to the ledger: which owners' segments
/// became unrecoverable (the platform cold-rebuilds those) and how many
/// survived in degraded form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeDownOutcome {
    /// Owners whose segments dropped below the recovery threshold,
    /// id-sorted, with the remote bytes each held.
    pub lost: Vec<(u64, u64)>,
    /// Segments that lost a fragment but stayed recoverable.
    pub degraded: u64,
}

/// A placement/durability ledger over M pool nodes.
///
/// The fabric does not replace [`RemotePool`] — capacity and the host
/// link stay there — it records *where* each owner's segment lives,
/// charges redundancy overheads, decides failover recalls and drives
/// background repair. All iteration is over a `BTreeMap`, so every
/// outcome is deterministic in owner-id order.
#[derive(Debug, Clone)]
pub struct PoolFabric {
    config: FabricConfig,
    alive: Vec<bool>,
    segments: BTreeMap<u64, Segment>,
    repairs: RepairQueue,
    tracker: DurabilityTracker,
    tracer: Tracer,
}

impl PoolFabric {
    /// Creates a fabric with all nodes alive and an empty ledger.
    ///
    /// # Panics
    ///
    /// Panics when the config has zero nodes (validation rejects that
    /// before any run starts).
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.nodes >= 1, "fabric needs at least one pool node");
        let alive = vec![true; config.nodes as usize];
        PoolFabric {
            config,
            alive,
            segments: BTreeMap::new(),
            repairs: RepairQueue::default(),
            tracker: DurabilityTracker::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace emission handle for pool-layer durability events.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The fabric's configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Pool nodes configured.
    pub fn nodes(&self) -> u32 {
        self.config.nodes
    }

    /// Pool nodes currently alive.
    pub fn nodes_up(&self) -> u32 {
        self.alive.iter().filter(|&&a| a).count() as u32
    }

    /// `true` when every node has died — nothing can be placed.
    pub fn all_nodes_down(&self) -> bool {
        self.nodes_up() == 0
    }

    /// Picks placement nodes for a new segment of `owner`: up to
    /// `fragments` distinct *alive* nodes walked cyclically from
    /// `owner % nodes`. Pure in `(owner, alive set)` — the determinism
    /// anchor for the whole subsystem.
    fn place(&self, owner: u64) -> Vec<u32> {
        let n = self.config.nodes;
        let want = self.config.redundancy.fragments().min(self.nodes_up());
        let start = (owner % u64::from(n)) as u32;
        let mut nodes = Vec::with_capacity(want as usize);
        for step in 0..n {
            let node = (start + step) % n;
            if self.alive[node as usize] {
                nodes.push(node);
                if nodes.len() as u32 == want {
                    break;
                }
            }
        }
        nodes
    }

    /// Records an offload of `bytes` for `owner`, placing the segment on
    /// first contact and pushing the redundancy write-amplification
    /// through the pool's real out link. Returns the extra transfer time
    /// the replicas cost (already folded into link busy-time).
    pub fn on_offload(
        &mut self,
        now: SimTime,
        owner: u64,
        bytes: u64,
        pool: &mut RemotePool,
    ) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if !self.segments.contains_key(&owner) {
            let nodes = self.place(owner);
            let live = vec![true; nodes.len()];
            self.segments.insert(
                owner,
                Segment {
                    bytes: 0,
                    nodes,
                    live,
                    degraded_at: SimTime::ZERO,
                },
            );
        }
        let seg = self.segments.get_mut(&owner).expect("just inserted");
        seg.bytes += bytes;
        let extra = self.config.redundancy.overhead_bytes(bytes);
        let stall = pool.replicate_out(now, extra);
        if extra > 0 {
            self.tracker.record_replica_out(extra);
        }
        let redundant = self.redundant_bytes();
        self.tracker.note_redundant_bytes(redundant);
        stall
    }

    /// Records `bytes` of `owner`'s segment returning home (prefetch or
    /// demand recall). Fully drained segments leave the ledger.
    pub fn on_page_in(&mut self, owner: u64, bytes: u64) {
        let Some(seg) = self.segments.get_mut(&owner) else {
            return;
        };
        seg.bytes = seg.bytes.saturating_sub(bytes);
        if seg.bytes == 0 {
            self.segments.remove(&owner);
        }
    }

    /// Drops `owner`'s segment from the ledger (container recycled; the
    /// caller discards the pool bytes).
    pub fn on_discard(&mut self, owner: u64) {
        self.segments.remove(&owner);
    }

    /// `true` when the fabric still tracks a segment for `owner`.
    pub fn has_segment(&self, owner: u64) -> bool {
        self.segments.contains_key(&owner)
    }

    /// `true` when `owner`'s primary fragment (slot 0) is gone, so the
    /// plain recall path would read from a dead node.
    pub fn primary_down(&self, owner: u64) -> bool {
        self.segments
            .get(&owner)
            .is_some_and(|s| !s.live.first().copied().unwrap_or(false))
    }

    /// `true` when enough fragments survive to recover `owner`'s segment.
    pub fn recoverable(&self, owner: u64) -> bool {
        self.segments
            .get(&owner)
            .is_some_and(|s| s.live_count() >= self.config.redundancy.threshold())
    }

    /// `true` when a recall of `owner` can detour around the primary
    /// path: the scheme keeps more than one fragment and enough of them
    /// survive to serve the read. Single-copy schemes never detour.
    pub fn can_failover(&self, owner: u64) -> bool {
        self.config.redundancy.fragments() > 1 && self.recoverable(owner)
    }

    /// Extra latency a recall of `owner` pays right now: the modeled
    /// reconstruction term when an erasure-coded segment is read in
    /// degraded mode (any fragment missing). Mirrors read one surviving
    /// copy and pay nothing extra.
    pub fn reconstruct_penalty(&self, owner: u64) -> SimDuration {
        let Some(seg) = self.segments.get(&owner) else {
            return SimDuration::ZERO;
        };
        let degraded = seg.live_count() < seg.live.len() as u32;
        match self.config.redundancy {
            RedundancyPolicy::ErasureCoded { .. } if degraded => {
                SimDuration::from_micros(self.config.reconstruct_micros)
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Records a recall served from surviving replicas/fragments after
    /// the primary path failed. Returns the reconstruction penalty to
    /// add to the transfer stall (the caller already ran the transfer).
    pub fn on_failover_recall(&mut self, owner: u64, bytes: u64) -> SimDuration {
        let penalty = self.reconstruct_penalty(owner);
        let node = self
            .segments
            .get(&owner)
            .and_then(|s| {
                s.nodes
                    .iter()
                    .zip(&s.live)
                    .find(|&(_, &l)| l)
                    .map(|(&n, _)| u64::from(n))
            })
            .unwrap_or(0);
        self.tracker.record_failover(bytes);
        if self.tracer.wants(TraceLayer::Pool) {
            self.tracer.emit(
                Some(owner),
                None,
                EventKind::ReplicaRecall {
                    node,
                    bytes,
                    reconstruct_us: penalty.as_micros(),
                },
            );
        }
        self.on_page_in(owner, bytes);
        penalty
    }

    /// Records `owner`'s segment as unrecoverable at recall time (e.g. a
    /// give-up with no surviving replica); the caller discards the pool
    /// bytes and cold-rebuilds.
    pub fn on_recall_lost(&mut self, owner: u64) {
        if let Some(seg) = self.segments.remove(&owner) {
            self.tracker.record_loss(seg.bytes);
        }
    }

    /// Kills pool node `node`: every fragment it hosted dies. Segments
    /// below the recovery threshold are dropped from the ledger and
    /// returned as `lost` (the platform recycles their owners);
    /// surviving segments stay degraded — recalls fail over to the
    /// surviving fragments — and enter the repair queue, one item per
    /// dead slot.
    pub fn node_down(&mut self, now: SimTime, node: u32) -> NodeDownOutcome {
        let mut outcome = NodeDownOutcome::default();
        let idx = node as usize;
        if idx >= self.alive.len() || !self.alive[idx] {
            return outcome; // unknown or already-dead node: nothing to do
        }
        self.alive[idx] = false;
        self.tracker.record_node_loss();
        let threshold = self.config.redundancy.threshold();
        let mut repairs: Vec<(u64, usize, u64)> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        for (&owner, seg) in self.segments.iter_mut() {
            let mut hit = false;
            for (slot, host) in seg.nodes.iter().enumerate() {
                if *host == node && seg.live[slot] {
                    seg.live[slot] = false;
                    hit = true;
                }
            }
            if !hit {
                continue;
            }
            seg.degraded_at = now;
            if seg.live_count() < threshold {
                dead.push(owner);
            } else {
                outcome.degraded += 1;
                self.tracker.record_avoided_rebuild();
                // The primary slot stays dead until repair restores it:
                // recalls in the meantime take the failover path, which
                // is what makes the redundancy dividend observable.
                let frag = self.config.redundancy.fragment_bytes(seg.bytes);
                for (slot, &l) in seg.live.iter().enumerate() {
                    if !l {
                        repairs.push((owner, slot, frag));
                    }
                }
            }
        }
        for owner in dead {
            let seg = self.segments.remove(&owner).expect("collected above");
            self.tracker.record_loss(seg.bytes);
            outcome.lost.push((owner, seg.bytes));
        }
        if self.tracer.wants(TraceLayer::Pool) {
            self.tracer.emit(
                None,
                None,
                EventKind::PoolNodeDown {
                    node: u64::from(node),
                    lost_segments: outcome.lost.len() as u64,
                    degraded_segments: outcome.degraded,
                },
            );
        }
        for (owner, slot, bytes) in repairs {
            self.enqueue_repair(now, owner, slot, bytes);
        }
        self.tracker
            .note_under_replicated(self.under_replicated() as u64);
        outcome
    }

    /// Schedules re-replication of one dead slot onto the lowest-id
    /// alive node not already hosting a fragment of the segment. When no
    /// such node exists the slot stays dead (abandoned, counted).
    fn enqueue_repair(&mut self, now: SimTime, owner: u64, slot: usize, bytes: u64) {
        let Some(seg) = self.segments.get(&owner) else {
            return;
        };
        let hosting: Vec<u32> = seg
            .nodes
            .iter()
            .zip(&seg.live)
            .filter(|&(_, &l)| l)
            .map(|(&n, _)| n)
            .collect();
        let target =
            (0..self.config.nodes).find(|n| self.alive[*n as usize] && !hosting.contains(n));
        let Some(target) = target else {
            self.tracker.record_repair_abandoned();
            return;
        };
        let done = self.repairs.enqueue(
            now,
            RepairItem {
                owner,
                slot,
                target,
                bytes,
                loss_at: now,
                done_at: SimTime::ZERO, // assigned by enqueue
            },
            self.config.repair_bytes_per_sec,
        );
        debug_assert!(done >= now);
        if self.tracer.wants(TraceLayer::Pool) {
            self.tracer.emit(
                Some(owner),
                None,
                EventKind::RepairStart {
                    node: u64::from(target),
                    bytes,
                    backlog_bytes: self.repairs.backlog_bytes(),
                },
            );
        }
    }

    /// Completes every repair item due by `now`. A completed item only
    /// applies when the segment still exists, the slot is still dead,
    /// the target is still alive and the segment is still below full
    /// replication — repair never over-replicates.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(front) = self.repairs.items.front() {
            if front.done_at > now {
                break;
            }
            let item = self.repairs.items.pop_front().expect("peeked above");
            let applied = match self.segments.get_mut(&item.owner) {
                Some(seg)
                    if item.slot < seg.live.len()
                        && !seg.live[item.slot]
                        && self.alive[item.target as usize]
                        && seg.live_count() < seg.live.len() as u32 =>
                {
                    seg.nodes[item.slot] = item.target;
                    seg.live[item.slot] = true;
                    true
                }
                _ => false,
            };
            if applied {
                let mttr = item.done_at.saturating_since(item.loss_at);
                self.tracker.record_repair(item.bytes, mttr);
                if self.tracer.wants(TraceLayer::Pool) {
                    self.tracer.emit(
                        Some(item.owner),
                        None,
                        EventKind::RepairDone {
                            node: u64::from(item.target),
                            bytes: item.bytes,
                            mttr_us: mttr.as_micros(),
                        },
                    );
                }
            } else {
                self.tracker.record_repair_abandoned();
            }
        }
    }

    /// Segments currently holding fewer live fragments than configured.
    pub fn under_replicated(&self) -> usize {
        self.segments
            .values()
            .filter(|s| s.live_count() < self.config.redundancy.fragments().min(self.config.nodes))
            .count()
    }

    /// Bytes of pending repair traffic not yet applied.
    pub fn repair_backlog_bytes(&self) -> u64 {
        self.repairs.backlog_bytes()
    }

    /// Extra capacity currently held for redundancy across all segments.
    pub fn redundant_bytes(&self) -> u64 {
        self.segments
            .values()
            .map(|s| {
                let frag = self.config.redundancy.fragment_bytes(s.bytes);
                (frag * u64::from(s.live_count())).saturating_sub(s.bytes)
            })
            .sum()
    }

    /// Bytes stored on pool node `node` (live fragments only).
    pub fn node_stored_bytes(&self, node: u32) -> u64 {
        self.segments
            .values()
            .map(|s| {
                let frag = self.config.redundancy.fragment_bytes(s.bytes);
                s.nodes
                    .iter()
                    .zip(&s.live)
                    .filter(|&(&n, &l)| n == node && l)
                    .count() as u64
                    * frag
            })
            .sum()
    }

    /// A point-in-time attribution of the fabric's occupancy overhead:
    /// every byte the pool tier holds beyond the primary copies, split
    /// by cause. Primary bytes themselves are the pool's own ledger
    /// ([`crate::RemotePool::used_bytes`]); this snapshot covers only
    /// the premium a durable fabric adds on top.
    pub fn occupancy(&self) -> FabricOccupancy {
        FabricOccupancy {
            redundant_bytes: self.redundant_bytes(),
            repair_backlog_bytes: self.repair_backlog_bytes(),
            under_replicated_segments: self.under_replicated() as u64,
        }
    }

    /// The cumulative durability counters.
    pub fn tracker(&self) -> &DurabilityTracker {
        &self.tracker
    }
}

/// A point-in-time occupancy-overhead attribution of a pool fabric —
/// see [`PoolFabric::occupancy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricOccupancy {
    /// Replica/parity bytes held beyond each segment's primary copy.
    pub redundant_bytes: u64,
    /// Bytes of pending repair traffic not yet applied.
    pub repair_backlog_bytes: u64,
    /// Segments currently holding fewer live fragments than configured.
    pub under_replicated_segments: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;

    fn mirror2(nodes: u32) -> PoolFabric {
        PoolFabric::new(FabricConfig {
            nodes,
            redundancy: RedundancyPolicy::Mirror { k: 2 },
            ..FabricConfig::default()
        })
    }

    fn pool() -> RemotePool {
        RemotePool::new(PoolConfig::slow_test_pool())
    }

    #[test]
    fn redundancy_policy_arithmetic() {
        let none = RedundancyPolicy::None;
        assert_eq!(none.fragments(), 1);
        assert_eq!(none.threshold(), 1);
        assert_eq!(none.overhead_bytes(4096), 0);
        let m3 = RedundancyPolicy::Mirror { k: 3 };
        assert_eq!(m3.fragments(), 3);
        assert_eq!(m3.threshold(), 1);
        assert_eq!(m3.overhead_bytes(4096), 8192);
        let ec = RedundancyPolicy::ErasureCoded { data: 2, parity: 1 };
        assert_eq!(ec.fragments(), 3);
        assert_eq!(ec.threshold(), 2);
        assert_eq!(ec.fragment_bytes(4096), 2048);
        assert_eq!(ec.overhead_bytes(4096), 2048);
        assert_eq!(ec.label(), "ec2+1");
    }

    #[test]
    fn validate_flags_inconsistent_configs() {
        let ok = FabricConfig {
            nodes: 3,
            redundancy: RedundancyPolicy::ErasureCoded { data: 2, parity: 1 },
            ..FabricConfig::default()
        };
        assert!(ok.validate().is_empty());
        let mirror_too_wide = FabricConfig {
            nodes: 2,
            redundancy: RedundancyPolicy::Mirror { k: 3 },
            ..FabricConfig::default()
        };
        assert!(mirror_too_wide
            .validate()
            .iter()
            .any(|p| p.contains("Mirror")));
        let ec_too_wide = FabricConfig {
            nodes: 3,
            redundancy: RedundancyPolicy::ErasureCoded { data: 3, parity: 1 },
            ..FabricConfig::default()
        };
        assert!(ec_too_wide
            .validate()
            .iter()
            .any(|p| p.contains("exceeds pool nodes")));
        let no_repair = FabricConfig {
            nodes: 3,
            redundancy: RedundancyPolicy::Mirror { k: 2 },
            repair_bytes_per_sec: 0,
            ..FabricConfig::default()
        };
        assert!(no_repair
            .validate()
            .iter()
            .any(|p| p.contains("repair bandwidth")));
        assert!(FabricConfig::default().is_degenerate());
        assert!(FabricConfig::default().validate().is_empty());
    }

    #[test]
    fn occupancy_snapshot_matches_component_accessors() {
        let mut f = mirror2(3);
        let mut p = pool();
        assert_eq!(f.occupancy(), FabricOccupancy::default());
        f.on_offload(SimTime::ZERO, 1, 1 << 20, &mut p);
        let occ = f.occupancy();
        assert_eq!(
            occ.redundant_bytes,
            1 << 20,
            "mirror k=2 holds one extra copy"
        );
        assert_eq!(occ.repair_backlog_bytes, 0);
        assert_eq!(occ.under_replicated_segments, 0);
        // Losing a node queues repair traffic and degrades the segment.
        let node = f.segments.get(&1).unwrap().nodes[0];
        f.node_down(SimTime::ZERO, node);
        let occ = f.occupancy();
        assert_eq!(occ.redundant_bytes, f.redundant_bytes());
        assert_eq!(occ.repair_backlog_bytes, f.repair_backlog_bytes());
        assert_eq!(occ.under_replicated_segments, f.under_replicated() as u64);
        assert!(occ.repair_backlog_bytes > 0 || occ.under_replicated_segments > 0);
    }

    #[test]
    fn placement_is_deterministic_and_anti_affine() {
        let mut f = mirror2(4);
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 6, 4096, &mut p);
        let seg = f.segments.get(&6).unwrap();
        assert_eq!(seg.nodes, vec![2, 3], "cyclic from owner % nodes");
        assert_eq!(seg.nodes.len(), 2);
        let mut g = mirror2(4);
        let mut q = pool();
        g.on_offload(SimTime::ZERO, 6, 4096, &mut q);
        assert_eq!(f.segments, g.segments, "pure function of (owner, alive)");
        // Placement skips dead nodes.
        let mut h = mirror2(4);
        h.node_down(SimTime::ZERO, 2);
        let mut r = pool();
        h.on_offload(SimTime::from_secs(1), 6, 4096, &mut r);
        let seg = h.segments.get(&6).unwrap();
        assert_eq!(seg.nodes, vec![3, 0], "dead node 2 skipped");
    }

    #[test]
    fn offload_charges_replica_overhead_on_the_real_link() {
        let mut f = mirror2(2);
        let mut p = pool();
        let before = p.stats();
        let stall = f.on_offload(SimTime::ZERO, 0, 1 << 20, &mut p);
        assert!(stall > SimDuration::ZERO, "replica copy occupies the link");
        assert_eq!(f.tracker().replica_bytes_out, 1 << 20);
        assert_eq!(
            p.stats(),
            before,
            "redundancy traffic never leaks into PoolStats"
        );
    }

    #[test]
    fn mirror_survives_one_node_ec_needs_threshold() {
        let mut f = mirror2(3);
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 1, 8192, &mut p);
        let outcome = f.node_down(SimTime::from_secs(1), 1);
        assert!(outcome.lost.is_empty());
        assert_eq!(outcome.degraded, 1);
        assert!(f.recoverable(1));
        assert!(
            f.primary_down(1) && f.can_failover(1),
            "recalls detour to the survivor until repair restores slot 0"
        );

        let mut ec = PoolFabric::new(FabricConfig {
            nodes: 3,
            redundancy: RedundancyPolicy::ErasureCoded { data: 2, parity: 1 },
            ..FabricConfig::default()
        });
        let mut q = pool();
        ec.on_offload(SimTime::ZERO, 0, 8192, &mut q);
        assert!(ec.node_down(SimTime::from_secs(1), 0).lost.is_empty());
        assert!(ec.recoverable(0), "2 of 3 fragments survive");
        assert!(ec.reconstruct_penalty(0) > SimDuration::ZERO);
        let outcome = ec.node_down(SimTime::from_secs(2), 1);
        assert_eq!(outcome.lost, vec![(0, 8192)], "below data fragments");
        assert!(!ec.has_segment(0));
        assert_eq!(ec.tracker().segments_lost, 1);
    }

    #[test]
    fn none_policy_loses_segments_with_their_node() {
        let mut f = PoolFabric::new(FabricConfig {
            nodes: 2,
            redundancy: RedundancyPolicy::None,
            ..FabricConfig::default()
        });
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 0, 4096, &mut p); // node 0
        f.on_offload(SimTime::ZERO, 1, 4096, &mut p); // node 1
        let outcome = f.node_down(SimTime::from_secs(1), 0);
        assert_eq!(outcome.lost, vec![(0, 4096)]);
        assert_eq!(outcome.degraded, 0);
        assert!(f.has_segment(1), "other node's segment untouched");
    }

    #[test]
    fn repair_restores_redundancy_at_budgeted_pace() {
        let mut f = PoolFabric::new(FabricConfig {
            nodes: 3,
            redundancy: RedundancyPolicy::Mirror { k: 2 },
            repair_bytes_per_sec: 1 << 20, // 1 MiB/s
            ..FabricConfig::default()
        });
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 0, 1 << 20, &mut p); // nodes 0,1
        f.node_down(SimTime::from_secs(10), 0);
        assert_eq!(f.under_replicated(), 1);
        assert_eq!(f.repair_backlog_bytes(), 1 << 20);
        // 1 MiB at 1 MiB/s: not done a half-second in, done after 1 s.
        f.advance(SimTime::from_millis(10_500));
        assert_eq!(f.under_replicated(), 1);
        f.advance(SimTime::from_secs(12));
        assert_eq!(f.under_replicated(), 0);
        assert_eq!(f.repair_backlog_bytes(), 0);
        assert_eq!(f.tracker().repairs_completed, 1);
        assert_eq!(f.tracker().mean_mttr(), Some(SimDuration::from_secs(1)));
        let seg = f.segments.get(&0).unwrap();
        assert_eq!(seg.live_count(), 2, "never over-replicates");
        assert!(seg.nodes.contains(&2), "repaired onto the spare node");
    }

    #[test]
    fn repair_abandons_vanished_segments() {
        let mut f = mirror2(3);
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 0, 4096, &mut p);
        f.node_down(SimTime::from_secs(1), 0);
        f.on_page_in(0, 4096); // segment fully recalled before repair lands
        f.advance(SimTime::from_mins(10));
        assert_eq!(f.tracker().repairs_completed, 0);
        assert_eq!(f.tracker().repairs_abandoned, 1);
    }

    #[test]
    fn failover_recall_counts_and_drains() {
        let mut f = mirror2(2);
        let mut p = pool();
        f.on_offload(SimTime::ZERO, 0, 8192, &mut p);
        f.node_down(SimTime::from_secs(1), 0);
        assert!(f.recoverable(0));
        let penalty = f.on_failover_recall(0, 8192);
        assert_eq!(penalty, SimDuration::ZERO, "mirror reads pay no rebuild");
        assert_eq!(f.tracker().failover_recalls, 1);
        assert_eq!(f.tracker().bytes_recovered, 8192);
        assert!(!f.has_segment(0), "fully recalled");
    }

    #[test]
    fn dead_and_unknown_nodes_are_noops() {
        let mut f = mirror2(2);
        f.node_down(SimTime::ZERO, 1);
        let again = f.node_down(SimTime::from_secs(1), 1);
        assert_eq!(again, NodeDownOutcome::default());
        let unknown = f.node_down(SimTime::from_secs(1), 9);
        assert_eq!(unknown, NodeDownOutcome::default());
        assert_eq!(f.nodes_up(), 1);
        assert_eq!(f.tracker().nodes_lost, 1);
    }

    // -- conservation proptest (satellite) ----------------------------
    //
    // Drives the fabric through arbitrary interleavings of offloads,
    // node losses, recalls and repair advances while mirroring it with
    // a trivial oracle (owner -> set of nodes with live fragments).
    // Invariants: `recoverable` answers exactly "live fragments >=
    // threshold"; repair never over-replicates; per-node stored bytes
    // always reconcile with the ledger.
    proptest::proptest! {
        #[test]
        fn prop_fabric_conserves_fragments(seed in 0u64..500, steps in 1usize..60) {
            use faasmem_sim::SimRng;
            let mut rng = SimRng::seed_from(seed);
            let schemes = [
                RedundancyPolicy::None,
                RedundancyPolicy::Mirror { k: 2 },
                RedundancyPolicy::Mirror { k: 3 },
                RedundancyPolicy::ErasureCoded { data: 2, parity: 1 },
            ];
            let scheme = schemes[(rng.next_u64() % 4) as usize];
            let nodes = scheme.fragments().max(2) + (rng.next_u64() % 2) as u32;
            let config = FabricConfig {
                nodes,
                redundancy: scheme,
                repair_bytes_per_sec: 1 << 20,
                ..FabricConfig::default()
            };
            let mut fabric = PoolFabric::new(config.clone());
            let mut p = RemotePool::new(PoolConfig::slow_test_pool());
            // Oracle: owner -> live fragment hosts; plus the alive set.
            let mut oracle: std::collections::BTreeMap<u64, Vec<u32>> =
                std::collections::BTreeMap::new();
            let mut alive: Vec<bool> = vec![true; nodes as usize];
            let mut t = SimTime::ZERO;
            for _ in 0..steps {
                t = t.saturating_add(SimDuration::from_millis(100 + rng.next_u64() % 2_000));
                match rng.next_u64() % 5 {
                    0 | 1 => {
                        // Offload for a small owner population.
                        let owner = rng.next_u64() % 6;
                        if alive.iter().any(|&a| a) {
                            let fresh = !fabric.has_segment(owner);
                            fabric.on_offload(t, owner, 4096, &mut p);
                            if fresh {
                                let seg = fabric.segments.get(&owner).unwrap();
                                oracle.insert(owner, seg.nodes.clone());
                            }
                        }
                    }
                    2 => {
                        let node = (rng.next_u64() % u64::from(nodes)) as u32;
                        let outcome = fabric.node_down(t, node);
                        if alive[node as usize] {
                            alive[node as usize] = false;
                            for hosts in oracle.values_mut() {
                                hosts.retain(|&n| n != node);
                            }
                            for (owner, _) in &outcome.lost {
                                oracle.remove(owner);
                            }
                        }
                    }
                    3 => {
                        // Recall (failover when degraded, plain otherwise).
                        let owner = rng.next_u64() % 6;
                        if fabric.recoverable(owner) {
                            fabric.on_failover_recall(owner, 4096);
                            if !fabric.has_segment(owner) {
                                oracle.remove(&owner);
                            }
                        } else if fabric.has_segment(owner) {
                            fabric.on_recall_lost(owner);
                            oracle.remove(&owner);
                        }
                    }
                    _ => {
                        fabric.advance(t);
                        // Re-sync the oracle with applied repairs: hosts
                        // are exactly the live slots.
                        for (owner, seg) in &fabric.segments {
                            let hosts: Vec<u32> = seg
                                .nodes
                                .iter()
                                .zip(&seg.live)
                                .filter(|&(_, &l)| l)
                                .map(|(&n, _)| n)
                                .collect();
                            oracle.insert(*owner, hosts);
                        }
                    }
                }
                // -- invariants after every step ----------------------
                for (owner, seg) in &fabric.segments {
                    let live = seg.live_count();
                    proptest::prop_assert_eq!(
                        fabric.recoverable(*owner),
                        live >= config.redundancy.threshold(),
                        "recoverable iff surviving fragments >= threshold"
                    );
                    proptest::prop_assert!(
                        live <= config.redundancy.fragments(),
                        "repair must never over-replicate"
                    );
                    // Anti-affinity: live fragments on distinct nodes.
                    let mut hosts: Vec<u32> = seg
                        .nodes
                        .iter()
                        .zip(&seg.live)
                        .filter(|&(_, &l)| l)
                        .map(|(&n, _)| n)
                        .collect();
                    let total = hosts.len();
                    hosts.sort_unstable();
                    hosts.dedup();
                    proptest::prop_assert_eq!(hosts.len(), total, "distinct hosts");
                    // Live fragments only on alive nodes.
                    for n in &hosts {
                        proptest::prop_assert!(fabric.alive[*n as usize]);
                    }
                    // Oracle agreement on the host set (oracle lags
                    // repairs until the next advance step, so only
                    // check it is a subset relation in that window).
                    if let Some(oracle_hosts) = oracle.get(owner) {
                        let mut o = oracle_hosts.clone();
                        o.sort_unstable();
                        for n in &o {
                            proptest::prop_assert!(
                                hosts.contains(n),
                                "fabric dropped a fragment the oracle still has"
                            );
                        }
                    }
                }
                // Ledger-level reconciliation: per-node bytes sum to
                // fragment bytes of live slots.
                let by_node: u64 = (0..nodes).map(|n| fabric.node_stored_bytes(n)).sum();
                let by_segment: u64 = fabric
                    .segments
                    .values()
                    .map(|s| {
                        config.redundancy.fragment_bytes(s.bytes) * u64::from(s.live_count())
                    })
                    .sum();
                proptest::prop_assert_eq!(by_node, by_segment);
            }
        }
    }
}
