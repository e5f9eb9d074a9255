//! The remote memory pool: capacity, link, traffic accounting.

use std::error::Error;
use std::fmt;

use faasmem_sim::faults::LinkSchedule;
use faasmem_sim::{SimDuration, SimTime};
use faasmem_trace::{EventKind, TraceLayer, Tracer};

use crate::degraded::DegradedLink;
use crate::link::RdmaLink;
use crate::retry::{CircuitBreaker, RecallOutcome, RemoteFaultPolicy};

/// Configuration of the remote memory pool and its interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Remote node capacity in bytes.
    pub capacity_bytes: u64,
    /// Page-in (read) bandwidth in bytes/second.
    pub link_bytes_per_sec: u64,
    /// Page-out (write) bandwidth in bytes/second when it differs from
    /// the read direction — SSD backends are write-durability-limited
    /// (§9: Meta caps offload writes below 1 MB/s). `None` = symmetric.
    pub out_bytes_per_sec: Option<u64>,
    /// Base one-way latency added to every page-out batch, microseconds.
    pub page_out_base_micros: u64,
    /// Base round-trip latency of a demand page-in fault, microseconds.
    /// Fastswap reports single-digit-microsecond 4 KiB fetches over FDR
    /// InfiniBand; the fault path (trap + RDMA read + map) lands ~8 µs.
    pub page_in_base_micros: u64,
}

impl PoolConfig {
    /// The paper's testbed: 56 Gbps FDR InfiniBand (Mellanox CX3) and a
    /// 64 GB memory node (§8.1).
    pub fn infiniband_56g() -> Self {
        PoolConfig {
            capacity_bytes: 64 * 1024 * 1024 * 1024,
            // 56 Gbps signalling → ~6.8 GB/s effective payload.
            link_bytes_per_sec: 6_800_000_000,
            out_bytes_per_sec: None,
            page_out_base_micros: 3,
            page_in_base_micros: 8,
        }
    }

    /// A CXL-attached memory pool (§9): load/store latency in the
    /// hundreds of nanoseconds, tens of GB/s of bandwidth, no page-fault
    /// software path on reads worth speaking of. FaaSMem's mechanism is
    /// transport-agnostic; this preset lets experiments quantify how much
    /// of the recall penalty is interconnect-bound.
    pub fn cxl() -> Self {
        PoolConfig {
            capacity_bytes: 256 * 1024 * 1024 * 1024,
            link_bytes_per_sec: 30_000_000_000,
            out_bytes_per_sec: None,
            page_out_base_micros: 1,
            page_in_base_micros: 1,
        }
    }

    /// An NVMe-SSD backend (§9): fine read latency for cold data, but the
    /// paper rejects it because write durability caps sustained offload
    /// bandwidth near 1 MB/s — far below FaaSMem's offload demand.
    pub fn ssd() -> Self {
        PoolConfig {
            capacity_bytes: 1024 * 1024 * 1024 * 1024,
            link_bytes_per_sec: 2_000_000_000,
            out_bytes_per_sec: Some(1_000_000), // durability-limited writes
            page_out_base_micros: 20,
            page_in_base_micros: 80,
        }
    }

    /// A deliberately slow pool for tests that need visible penalties.
    pub fn slow_test_pool() -> Self {
        PoolConfig {
            capacity_bytes: 1024 * 1024 * 1024,
            link_bytes_per_sec: 100 * 1024 * 1024, // 100 MiB/s
            out_bytes_per_sec: None,
            page_out_base_micros: 10,
            page_in_base_micros: 50,
        }
    }

    /// Effective page-out bandwidth (bytes/second).
    pub fn effective_out_bytes_per_sec(&self) -> u64 {
        self.out_bytes_per_sec.unwrap_or(self.link_bytes_per_sec)
    }

    /// Checks the configuration, returning one message per problem
    /// (empty = valid). [`RemotePool::new`] panics on a zero link rate;
    /// drivers call this first so a bad config fails with a message
    /// instead of a backtrace mid-grid.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.capacity_bytes == 0 {
            problems.push("pool config: capacity must be positive".into());
        }
        if self.link_bytes_per_sec == 0 {
            problems.push("pool config: link bandwidth must be positive".into());
        }
        if self.out_bytes_per_sec == Some(0) {
            problems.push("pool config: page-out bandwidth override must be positive".into());
        }
        problems
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::infiniband_56g()
    }
}

/// Errors returned by pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The page-out would exceed the remote node's capacity.
    Exhausted {
        /// Bytes requested by the failed page-out.
        requested: u64,
        /// Bytes still available on the remote node.
        available: u64,
    },
    /// A page-in asked for more bytes than the pool currently holds;
    /// indicates an accounting bug in the caller.
    Underflow {
        /// Bytes requested by the failed page-in.
        requested: u64,
        /// Bytes actually held by the pool.
        held: u64,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "remote pool exhausted: requested {requested} bytes, {available} available"
            ),
            PoolError::Underflow { requested, held } => write!(
                f,
                "remote pool underflow: requested {requested} bytes back, only {held} held"
            ),
        }
    }
}

impl Error for PoolError {}

/// A point-in-time traffic summary of the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bytes currently held remotely.
    pub used_bytes: u64,
    /// Lifetime bytes paged out to the pool.
    pub bytes_out: u64,
    /// Lifetime bytes faulted back in.
    pub bytes_in: u64,
    /// Lifetime page-out operations (batches).
    pub out_ops: u64,
    /// Lifetime page-in operations (faults or prefetch batches).
    pub in_ops: u64,
}

/// The remote memory pool: a capacity-limited node behind an RDMA link.
///
/// # Examples
///
/// ```
/// use faasmem_pool::{PoolConfig, RemotePool};
/// use faasmem_sim::SimTime;
///
/// let mut pool = RemotePool::new(PoolConfig::slow_test_pool());
/// pool.page_out(SimTime::ZERO, 16, 4096).unwrap();
/// let fault = pool.page_in(SimTime::from_secs(1), 1, 4096).unwrap();
/// assert!(fault.as_micros() >= 50); // at least the base fault latency
/// ```
#[derive(Debug, Clone)]
pub struct RemotePool {
    config: PoolConfig,
    out_link: DegradedLink,
    in_link: DegradedLink,
    used_bytes: u64,
    bytes_out: u64,
    bytes_in: u64,
    out_ops: u64,
    in_ops: u64,
    /// Lifetime Σ(bytes × stall µs) over every transfer (page-outs,
    /// page-ins, redundancy copies) — the exact integral of in-flight
    /// interconnect bytes over time, read by occupancy accounting.
    transfer_byte_us: u128,
    offloads_suspended: bool,
    offloads_refused: u64,
    tracer: Tracer,
}

impl RemotePool {
    /// Creates a healthy pool from its configuration.
    pub fn new(config: PoolConfig) -> Self {
        RemotePool::with_link_schedule(config, LinkSchedule::empty())
    }

    /// Attaches a trace emission handle. Transfers, discards, refused
    /// offloads, recall retries and breaker-open transitions emit
    /// pool-layer events (attributed to the node, not a container).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Creates a pool whose link (both directions) is subject to the
    /// given fault schedule. An empty schedule is exactly [`RemotePool::new`].
    pub fn with_link_schedule(config: PoolConfig, schedule: LinkSchedule) -> Self {
        let out_link = RdmaLink::new(
            config.effective_out_bytes_per_sec(),
            config.page_out_base_micros,
        );
        let in_link = RdmaLink::new(config.link_bytes_per_sec, config.page_in_base_micros);
        RemotePool {
            config,
            out_link: DegradedLink::new(out_link, schedule.clone()),
            in_link: DegradedLink::new(in_link, schedule),
            used_bytes: 0,
            bytes_out: 0,
            bytes_in: 0,
            out_ops: 0,
            in_ops: 0,
            transfer_byte_us: 0,
            offloads_suspended: false,
            offloads_refused: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Bytes currently held remotely.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes of remote capacity still free.
    pub fn available_bytes(&self) -> u64 {
        self.config.capacity_bytes - self.used_bytes
    }

    /// Pages out a batch of `pages` pages of `page_size` bytes at `now`.
    /// Returns the time until the batch is durably remote.
    ///
    /// # Errors
    ///
    /// [`PoolError::Exhausted`] if the batch does not fit; no state
    /// changes in that case.
    pub fn page_out(
        &mut self,
        now: SimTime,
        pages: u64,
        page_size: u64,
    ) -> Result<SimDuration, PoolError> {
        let bytes = pages * page_size;
        if bytes > self.available_bytes() {
            return Err(PoolError::Exhausted {
                requested: bytes,
                available: self.available_bytes(),
            });
        }
        if bytes == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.used_bytes += bytes;
        self.bytes_out += bytes;
        self.out_ops += 1;
        // Queueing delay must be read before the transfer advances the
        // link; computed only when the pool layer is actually traced.
        let traced = self.tracer.wants(TraceLayer::Pool);
        let queued_us = if traced {
            self.out_link.busy_until().saturating_since(now).as_micros()
        } else {
            0
        };
        let stall = self.out_link.transfer(now, bytes);
        self.transfer_byte_us += u128::from(bytes) * u128::from(stall.as_micros());
        if traced {
            self.tracer.emit(
                None,
                None,
                EventKind::PoolPageOut {
                    bytes,
                    stall_us: stall.as_micros(),
                    queued_us,
                },
            );
        }
        Ok(stall)
    }

    /// Faults `pages` pages back in at `now`. Returns the stall the
    /// faulting request experiences.
    ///
    /// # Errors
    ///
    /// [`PoolError::Underflow`] if the pool holds fewer bytes than
    /// requested; no state changes in that case.
    pub fn page_in(
        &mut self,
        now: SimTime,
        pages: u64,
        page_size: u64,
    ) -> Result<SimDuration, PoolError> {
        let bytes = pages * page_size;
        if bytes > self.used_bytes {
            return Err(PoolError::Underflow {
                requested: bytes,
                held: self.used_bytes,
            });
        }
        if bytes == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.used_bytes -= bytes;
        self.bytes_in += bytes;
        self.in_ops += 1;
        let traced = self.tracer.wants(TraceLayer::Pool);
        let queued_us = if traced {
            self.in_link.busy_until().saturating_since(now).as_micros()
        } else {
            0
        };
        if traced {
            // Begin-marker of the recall: the completing `PoolPageIn`
            // below carries the measured stall, so span reconstruction
            // can pair the two into a page-in wait interval.
            self.tracer
                .emit(None, None, EventKind::RecallBegin { bytes });
        }
        // Demand faults are serial per page in the kernel's swap-in path,
        // but Fastswap batches reads; model the batch as one transfer plus
        // one base fault latency (already folded into the link).
        let stall = self.in_link.transfer(now, bytes);
        self.transfer_byte_us += u128::from(bytes) * u128::from(stall.as_micros());
        if traced {
            self.tracer.emit(
                None,
                None,
                EventKind::PoolPageIn {
                    bytes,
                    stall_us: stall.as_micros(),
                    queued_us,
                },
            );
        }
        Ok(stall)
    }

    /// Pushes `bytes` of redundancy traffic — replica or fragment copies
    /// created by a pool fabric at offload time — over the out link at
    /// `now`, returning the transfer duration. The traffic occupies real
    /// link bandwidth (so redundancy visibly contends with primary
    /// offloads) but deliberately bypasses the pool's capacity and
    /// [`PoolStats`] counters: redundancy overhead is accounted by the
    /// fabric's durability tracker, never in the primary traffic stats,
    /// which keeps single-pool runs byte-identical whether or not a
    /// degenerate fabric is attached.
    pub fn replicate_out(&mut self, now: SimTime, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let stall = self.out_link.transfer(now, bytes);
        self.transfer_byte_us += u128::from(bytes) * u128::from(stall.as_micros());
        stall
    }

    /// Faults `pages` pages back in under a fault policy: each attempt
    /// waits up to `policy.page_in_timeout` for the link to carry
    /// traffic, timed-out attempts back off exponentially, and after
    /// `policy.max_retries` retries the call gives up without touching
    /// pool state — the caller then discards the pages and cold-restarts
    /// locally. Successes and give-ups feed the circuit breaker.
    ///
    /// # Errors
    ///
    /// [`PoolError::Underflow`] if the pool holds fewer bytes than
    /// requested (a caller accounting bug, same as [`RemotePool::page_in`]).
    pub fn page_in_resilient(
        &mut self,
        now: SimTime,
        pages: u64,
        page_size: u64,
        policy: &RemoteFaultPolicy,
        breaker: &mut CircuitBreaker,
    ) -> Result<RecallOutcome, PoolError> {
        let mut waited = SimDuration::ZERO;
        for attempt in 0..=policy.max_retries {
            let t = now + waited;
            let ready = self.in_link.available_from(t);
            let defer = ready.saturating_since(t);
            if defer <= policy.page_in_timeout {
                let transfer = self.page_in(ready, pages, page_size)?;
                breaker.record_success();
                return Ok(RecallOutcome::Recovered {
                    stall: waited + defer + transfer,
                    retries: attempt,
                });
            }
            waited += policy.page_in_timeout + policy.backoff_delay(attempt);
            if self.tracer.wants(TraceLayer::Pool) {
                self.tracer.emit(
                    None,
                    None,
                    EventKind::RecallRetry {
                        attempt: u64::from(attempt) + 1,
                        waited_us: waited.as_micros(),
                    },
                );
            }
        }
        let newly_open = breaker.record_failure(now + waited);
        if self.tracer.wants(TraceLayer::Pool) {
            self.tracer.emit(
                None,
                None,
                EventKind::RecallGaveUp {
                    retries: u64::from(policy.max_retries) + 1,
                    wasted_us: waited.as_micros(),
                },
            );
            if newly_open {
                self.tracer.emit(None, None, EventKind::BreakerOpen);
            }
        }
        Ok(RecallOutcome::GaveUp {
            wasted: waited,
            retries: policy.max_retries + 1,
        })
    }

    /// Suspends or resumes offloading; set by the platform from the
    /// circuit breaker's state. While suspended, policies refuse new
    /// page-outs and count them via [`RemotePool::note_refused_offload`].
    pub fn set_offloads_suspended(&mut self, suspended: bool) {
        self.offloads_suspended = suspended;
    }

    /// `true` while the platform holds offloading suspended.
    pub fn offloads_suspended(&self) -> bool {
        self.offloads_suspended
    }

    /// Records one offload batch refused because offloading was
    /// suspended.
    pub fn note_refused_offload(&mut self) {
        self.offloads_refused += 1;
        if self.tracer.wants(TraceLayer::Pool) {
            self.tracer.emit(None, None, EventKind::OffloadRefused);
        }
    }

    /// Lifetime offload batches refused while suspended.
    pub fn offloads_refused(&self) -> u64 {
        self.offloads_refused
    }

    /// `true` when the node→pool direction would accept a submission at
    /// `now` (outside every scheduled outage window). An RDMA write into
    /// a downed fabric fails immediately, so policies check this before
    /// offloading rather than queueing behind the outage.
    pub fn out_link_up(&self, now: SimTime) -> bool {
        self.out_link.is_up(now)
    }

    /// `true` when the pool→node direction would accept a submission at
    /// `now`. Prefetchers check this before issuing optional page-ins;
    /// demand recalls go through [`RemotePool::page_in_resilient`]
    /// instead, which retries across the outage.
    pub fn in_link_up(&self, now: SimTime) -> bool {
        self.in_link.is_up(now)
    }

    /// Releases bytes held remotely without transferring them back
    /// (container recycled while pages were offloaded).
    ///
    /// # Errors
    ///
    /// [`PoolError::Underflow`] if the pool holds fewer bytes than
    /// requested.
    pub fn discard(&mut self, pages: u64, page_size: u64) -> Result<(), PoolError> {
        let bytes = pages * page_size;
        if bytes > self.used_bytes {
            return Err(PoolError::Underflow {
                requested: bytes,
                held: self.used_bytes,
            });
        }
        self.used_bytes -= bytes;
        if bytes > 0 && self.tracer.wants(TraceLayer::Pool) {
            self.tracer
                .emit(None, None, EventKind::PoolDiscard { bytes });
        }
        Ok(())
    }

    /// Aggregate link utilisation (both directions averaged) over
    /// `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        (self.out_link.utilization(now) + self.in_link.utilization(now)) / 2.0
    }

    /// Offload-direction link utilisation over `[0, now]`.
    pub fn out_utilization(&self, now: SimTime) -> f64 {
        self.out_link.utilization(now)
    }

    /// Recall-direction link utilisation over `[0, now]`.
    pub fn in_utilization(&self, now: SimTime) -> f64 {
        self.in_link.utilization(now)
    }

    /// Queueing delay an offload submitted at `now` would see.
    pub fn out_backlog(&self, now: SimTime) -> SimDuration {
        self.out_link.backlog_at(now)
    }

    /// Queueing delay a recall submitted at `now` would see.
    pub fn in_backlog(&self, now: SimTime) -> SimDuration {
        self.in_link.backlog_at(now)
    }

    /// How many of the two fabric directions are mid-transfer at
    /// `now` (0–2). Each link is a FIFO serving one queue, so this is
    /// the instantaneous in-flight transfer count.
    pub fn in_flight_transfers(&self, now: SimTime) -> u64 {
        u64::from(!self.out_link.is_idle_at(now)) + u64::from(!self.in_link.is_idle_at(now))
    }

    /// Average offload bandwidth in bytes/second over `[0, now]`.
    pub fn mean_out_bandwidth(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.bytes_out as f64 / now.as_secs_f64()
        }
    }

    /// Average page-in bandwidth in bytes/second over `[0, now]`.
    pub fn mean_in_bandwidth(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.bytes_in as f64 / now.as_secs_f64()
        }
    }

    /// Lifetime Σ(bytes × stall µs) over every transfer in either
    /// direction, redundancy copies included — the exact integer
    /// integral of in-flight interconnect bytes over time. Monotone;
    /// occupancy accounting differences it between events to charge the
    /// `offload_inflight` waste component.
    pub fn transfer_byte_micros(&self) -> u128 {
        self.transfer_byte_us
    }

    /// A traffic snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            used_bytes: self.used_bytes,
            bytes_out: self.bytes_out,
            bytes_in: self.bytes_in,
            out_ops: self.out_ops,
            in_ops: self.in_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> RemotePool {
        RemotePool::new(PoolConfig::slow_test_pool())
    }

    #[test]
    fn page_out_accounts_bytes() {
        let mut p = pool();
        p.page_out(SimTime::ZERO, 10, 4096).unwrap();
        assert_eq!(p.used_bytes(), 40_960);
        assert_eq!(p.stats().bytes_out, 40_960);
        assert_eq!(p.stats().out_ops, 1);
    }

    #[test]
    fn page_in_returns_bytes() {
        let mut p = pool();
        p.page_out(SimTime::ZERO, 10, 4096).unwrap();
        p.page_in(SimTime::from_secs(1), 4, 4096).unwrap();
        assert_eq!(p.used_bytes(), 6 * 4096);
        assert_eq!(p.stats().bytes_in, 4 * 4096);
    }

    #[test]
    fn telemetry_accessors_track_per_direction_link_state() {
        let mut p = pool();
        assert_eq!(p.in_flight_transfers(SimTime::ZERO), 0);
        assert_eq!(p.out_backlog(SimTime::ZERO), SimDuration::ZERO);

        p.page_out(SimTime::ZERO, 10, 4096).unwrap();
        // The slow test pool serves 40 KiB well after t=0: the out
        // direction is busy, the in direction idle.
        assert_eq!(p.in_flight_transfers(SimTime::ZERO), 1);
        assert!(p.out_backlog(SimTime::ZERO) > SimDuration::ZERO);
        assert_eq!(p.in_backlog(SimTime::ZERO), SimDuration::ZERO);
        assert!(p.out_utilization(SimTime::from_micros(1)) > 0.0);
        assert_eq!(p.in_utilization(SimTime::from_micros(1)), 0.0);

        // Long after the transfer drains, nothing is in flight and
        // utilisation decays toward zero.
        let later = SimTime::from_secs(3_600);
        assert_eq!(p.in_flight_transfers(later), 0);
        assert_eq!(p.out_backlog(later), SimDuration::ZERO);
        assert!(p.out_utilization(later) < 0.01);
    }

    #[test]
    fn transfer_byte_micros_integrates_bytes_over_stalls() {
        let mut p = pool();
        assert_eq!(p.transfer_byte_micros(), 0);
        let out = p.page_out(SimTime::ZERO, 10, 4096).unwrap();
        let mut expected = 40_960u128 * u128::from(out.as_micros());
        assert_eq!(p.transfer_byte_micros(), expected);
        let back = p.page_in(SimTime::from_secs(1), 4, 4096).unwrap();
        expected += 4 * 4096 * u128::from(back.as_micros());
        assert_eq!(p.transfer_byte_micros(), expected);
        let rep = p.replicate_out(SimTime::from_secs(2), 8192);
        expected += 8192 * u128::from(rep.as_micros());
        assert_eq!(p.transfer_byte_micros(), expected);
        // Discards move no bytes over the wire.
        p.discard(6, 4096).unwrap();
        assert_eq!(p.transfer_byte_micros(), expected);
    }

    #[test]
    fn zero_page_ops_are_free() {
        let mut p = pool();
        assert_eq!(
            p.page_out(SimTime::ZERO, 0, 4096).unwrap(),
            SimDuration::ZERO
        );
        assert_eq!(
            p.page_in(SimTime::ZERO, 0, 4096).unwrap(),
            SimDuration::ZERO
        );
        assert_eq!(p.stats(), PoolStats::default());
    }

    #[test]
    fn exhaustion_is_detected_and_harmless() {
        let mut p = RemotePool::new(PoolConfig {
            capacity_bytes: 8192,
            ..PoolConfig::slow_test_pool()
        });
        p.page_out(SimTime::ZERO, 1, 4096).unwrap();
        let err = p.page_out(SimTime::ZERO, 2, 4096).unwrap_err();
        assert_eq!(
            err,
            PoolError::Exhausted {
                requested: 8192,
                available: 4096
            }
        );
        assert_eq!(p.used_bytes(), 4096, "failed op must not change state");
    }

    #[test]
    fn underflow_is_detected() {
        let mut p = pool();
        let err = p.page_in(SimTime::ZERO, 1, 4096).unwrap_err();
        assert_eq!(
            err,
            PoolError::Underflow {
                requested: 4096,
                held: 0
            }
        );
    }

    #[test]
    fn discard_releases_without_traffic() {
        let mut p = pool();
        p.page_out(SimTime::ZERO, 10, 4096).unwrap();
        let in_before = p.stats().bytes_in;
        p.discard(10, 4096).unwrap();
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.stats().bytes_in, in_before);
        assert!(p.discard(1, 4096).is_err());
    }

    #[test]
    fn fault_latency_includes_base() {
        let mut p = pool();
        p.page_out(SimTime::ZERO, 1, 4096).unwrap();
        let d = p.page_in(SimTime::from_secs(10), 1, 4096).unwrap();
        assert!(d >= SimDuration::from_micros(50));
    }

    #[test]
    fn saturation_queues_transfers() {
        let mut p = pool();
        // 100 MiB/s link; 200 MiB out at the same instant: second batch
        // sees ~1s of queueing.
        let d1 = p.page_out(SimTime::ZERO, 25_600, 4096).unwrap();
        let d2 = p.page_out(SimTime::ZERO, 25_600, 4096).unwrap();
        assert!(d2 > d1);
        assert!(d2.as_secs_f64() > 1.5);
    }

    #[test]
    fn bandwidth_means() {
        let mut p = pool();
        p.page_out(SimTime::ZERO, 25_600, 4096).unwrap(); // 100 MiB
        let bw = p.mean_out_bandwidth(SimTime::from_secs(10));
        assert!((bw - 10.0 * 1024.0 * 1024.0).abs() < 1.0);
        assert_eq!(p.mean_out_bandwidth(SimTime::ZERO), 0.0);
        assert_eq!(p.mean_in_bandwidth(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn presets_match_section_9() {
        let cxl = PoolConfig::cxl();
        let ib = PoolConfig::infiniband_56g();
        let ssd = PoolConfig::ssd();
        assert!(cxl.page_in_base_micros < ib.page_in_base_micros);
        assert!(cxl.link_bytes_per_sec > ib.link_bytes_per_sec);
        assert_eq!(ssd.effective_out_bytes_per_sec(), 1_000_000);
        assert_eq!(ib.effective_out_bytes_per_sec(), ib.link_bytes_per_sec);
    }

    #[test]
    fn ssd_writes_are_durability_limited() {
        let mut p = RemotePool::new(PoolConfig::ssd());
        // 10 MiB out over a 1 MB/s write path: ~10 s.
        let d = p.page_out(SimTime::ZERO, 2_560, 4_096).unwrap();
        assert!(d.as_secs_f64() > 8.0, "got {d}");
        // Reads stay fast.
        let d = p.page_in(SimTime::from_secs(100), 1, 4_096).unwrap();
        assert!(d.as_secs_f64() < 0.001, "got {d}");
    }

    #[test]
    fn validate_flags_nonsense() {
        assert!(PoolConfig::infiniband_56g().validate().is_empty());
        let bad = PoolConfig {
            capacity_bytes: 0,
            link_bytes_per_sec: 0,
            out_bytes_per_sec: Some(0),
            ..PoolConfig::slow_test_pool()
        };
        assert_eq!(bad.validate().len(), 3);
    }

    fn outage_pool(outage_secs: u64) -> RemotePool {
        use faasmem_sim::faults::LinkWindow;
        let schedule = LinkSchedule::from_windows(vec![LinkWindow {
            start: SimTime::ZERO,
            end: SimTime::from_secs(outage_secs),
            factor: 0.0,
        }]);
        RemotePool::with_link_schedule(PoolConfig::slow_test_pool(), schedule)
    }

    #[test]
    fn resilient_page_in_rides_out_short_outage() {
        use crate::retry::{CircuitBreaker, RecallOutcome, RemoteFaultPolicy};
        let mut p = outage_pool(10);
        p.page_out(SimTime::ZERO, 4, 4096).unwrap();
        let policy = RemoteFaultPolicy::default();
        let mut breaker = CircuitBreaker::from_policy(&policy);
        let out = p
            .page_in_resilient(SimTime::ZERO, 4, 4096, &policy, &mut breaker)
            .unwrap();
        match out {
            RecallOutcome::Recovered { stall, retries } => {
                // Attempts at t=0/3/7 time out; t=13 is past the outage.
                assert_eq!(retries, 3);
                assert!(stall >= SimDuration::from_secs(13), "got {stall}");
            }
            RecallOutcome::GaveUp { .. } => panic!("should recover"),
        }
        assert_eq!(p.stats().bytes_in, 4 * 4096, "recovery transfers pages");
        assert!(!breaker.is_open(SimTime::from_secs(20)));
    }

    #[test]
    fn resilient_page_in_gives_up_on_long_outage() {
        use crate::retry::{CircuitBreaker, RecallOutcome, RemoteFaultPolicy};
        let mut p = outage_pool(3_600);
        p.page_out(SimTime::ZERO, 4, 4096).unwrap();
        let policy = RemoteFaultPolicy::hasty();
        let mut breaker = CircuitBreaker::from_policy(&policy);
        let held = p.used_bytes();
        for _ in 0..2 {
            let out = p
                .page_in_resilient(SimTime::ZERO, 4, 4096, &policy, &mut breaker)
                .unwrap();
            assert!(matches!(out, RecallOutcome::GaveUp { retries: 3, .. }));
        }
        assert_eq!(p.used_bytes(), held, "give-up leaves pool state alone");
        assert!(
            breaker.is_open(SimTime::from_secs(5)),
            "two give-ups trip the hasty breaker"
        );
        assert_eq!(breaker.opens(), 1);
    }

    #[test]
    fn offload_suspension_is_tracked() {
        let mut p = pool();
        assert!(!p.offloads_suspended());
        p.set_offloads_suspended(true);
        assert!(p.offloads_suspended());
        p.note_refused_offload();
        p.note_refused_offload();
        assert_eq!(p.offloads_refused(), 2);
        p.set_offloads_suspended(false);
        assert!(!p.offloads_suspended());
    }

    #[test]
    fn attached_tracer_reports_pool_events() {
        use faasmem_trace::{EventKind, LayerMask, Tracer};

        let tracer = Tracer::recording(LayerMask::ALL);
        let mut p = pool();
        p.attach_tracer(tracer.clone());
        p.page_out(SimTime::ZERO, 25_600, 4096).unwrap();
        p.page_out(SimTime::ZERO, 25_600, 4096).unwrap(); // queues behind the first
        p.page_in(SimTime::from_secs(10), 4, 4096).unwrap();
        p.discard(4, 4096).unwrap();
        p.note_refused_offload();

        let events = tracer.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "pool_page_out",
                "pool_page_out",
                "recall_begin",
                "pool_page_in",
                "pool_discard",
                "offload_refused",
            ]
        );
        // The begin-marker announces the same bytes the completing
        // page-in reports.
        match (&events[2].kind, &events[3].kind) {
            (EventKind::RecallBegin { bytes: b0 }, EventKind::PoolPageIn { bytes: b1, .. }) => {
                assert_eq!(b0, b1);
            }
            other => panic!("unexpected kinds {other:?}"),
        }
        // The second page-out saw the first still on the wire.
        match (&events[0].kind, &events[1].kind) {
            (
                EventKind::PoolPageOut { queued_us: q1, .. },
                EventKind::PoolPageOut { queued_us: q2, .. },
            ) => {
                assert_eq!(*q1, 0);
                assert!(*q2 >= 1_000_000, "second batch queued ~1s, got {q2}µs");
            }
            other => panic!("unexpected kinds {other:?}"),
        }
    }

    #[test]
    fn resilient_give_up_traces_retries_and_breaker() {
        use crate::retry::{CircuitBreaker, RemoteFaultPolicy};
        use faasmem_trace::{EventKind, LayerMask, Tracer};

        let tracer = Tracer::recording(LayerMask::ALL);
        let mut p = outage_pool(3_600);
        p.attach_tracer(tracer.clone());
        p.page_out(SimTime::ZERO, 4, 4096).unwrap();
        let policy = RemoteFaultPolicy::hasty();
        let mut breaker = CircuitBreaker::from_policy(&policy);
        for _ in 0..2 {
            p.page_in_resilient(SimTime::ZERO, 4, 4096, &policy, &mut breaker)
                .unwrap();
        }
        let events = tracer.take_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        // page_out, then per give-up: 3 retries + gave_up; the second
        // give-up trips the hasty breaker (threshold 2).
        assert_eq!(
            kinds,
            vec![
                "pool_page_out",
                "recall_retry",
                "recall_retry",
                "recall_retry",
                "recall_gave_up",
                "recall_retry",
                "recall_retry",
                "recall_retry",
                "recall_gave_up",
                "breaker_open",
            ]
        );
        assert!(matches!(
            events[4].kind,
            EventKind::RecallGaveUp { retries: 3, .. }
        ));
    }

    #[test]
    fn error_display_mentions_numbers() {
        let e = PoolError::Exhausted {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("10"));
        let e = PoolError::Underflow {
            requested: 3,
            held: 1,
        };
        assert!(e.to_string().contains("3"));
    }
}
