//! The deterministic event queue at the heart of the simulator.
//!
//! Events scheduled for the same instant are popped in the order they were
//! pushed (FIFO tie-breaking via a monotone sequence number), which is what
//! makes whole-system runs reproducible across platforms.
//!
//! # Calendar layout
//!
//! [`EventQueue`] is a *calendar queue* (Brown 1988), the structure
//! parallel discrete-event engines reach for once the classic binary
//! heap becomes the bottleneck: a ring of time buckets, each spanning a
//! fixed width of simulated time, plus a lazily sorted overflow tier
//! for events past the ring horizon (policy ticks, fault plans). A push is
//! an O(1) append onto its bucket; a pop drains the cursor bucket in
//! `(time, seq)` order, sorting each bucket lazily at drain time — and
//! skipping even that when events arrived already ordered, the common
//! case for time-ordered batches and same-instant groups. The bucket width
//! self-tunes from the observed event span, re-laid out exactly like a
//! hash-table rehash (geometric growth, amortized O(1) per event, or
//! O(log n) once the bucket cap packs buckets into multi-slot blocks).
//!
//! # Storage
//!
//! Every ring event outside the cursor bucket lives in one slot arena
//! shared by all buckets. The arena is cut into blocks (one slot each,
//! unless the bucket cap crowds many events into every bucket); a
//! bucket is just the `u32` slot of its last event, whose block heads a
//! circular chain of the bucket's blocks, and drained blocks are reused
//! through a free list. When the cursor reaches a bucket, its chain
//! moves into one run-long drain buffer, where the ordering above runs.
//! The queue's bytes therefore follow the high-water count of *pending*
//! events, not how many events a bucket ever held, and a settled
//! workload allocates nothing.
//!
//! None of the layout is observable: the pop order is the total
//! `(time, seq)` order regardless of width or bucket count, pinned
//! against the retired heap implementation (kept as
//! [`ReferenceEventQueue`](crate::reference::ReferenceEventQueue)) by
//! an op-interleaving property test.

use std::mem::size_of;

use crate::time::SimTime;

/// An event with its scheduled firing time and insertion sequence.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone insertion counter used for FIFO tie-breaking.
    pub seq: u64,
    /// The caller-defined payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The total-order key: earliest time first, then insertion order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

/// Fewest ring buckets; the geometry never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Most ring buckets; beyond this, buckets simply hold more events
/// (the in-bucket drain sort keeps them ordered).
const MAX_BUCKETS: usize = 64 * 1024;
/// Bucket width before the first self-tuning re-layout.
const INITIAL_WIDTH_US: u64 = 1_000;
/// Most slots per arena block (see [`EventQueue::block_bits`]).
const MAX_BLOCK: usize = 64;
/// The null index: an empty bucket, or the end of the free list.
const NIL: u32 = u32::MAX;

/// Sort state of the drain buffer (the cursor bucket's pending events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketOrder {
    /// Appends so far are ascending by `(at, seq)` — the common case:
    /// time-ordered batches and same-instant groups ascend by sequence.
    /// Draining only needs a reverse.
    Ascending,
    /// Appends arrived out of order; sort before draining.
    Unsorted,
    /// Sorted descending, so the minimum sits at the tail and a drain
    /// step is a plain O(1) `Vec::pop`.
    Descending,
}

/// One arena slot: a ring event, or `None` while the slot is free.
#[derive(Debug, Clone)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

impl<E> Slot<E> {
    fn new(ev: ScheduledEvent<E>) -> Self {
        Slot {
            at: ev.at,
            seq: ev.seq,
            event: Some(ev.event),
        }
    }

    fn vacant() -> Self {
        Slot {
            at: SimTime::ZERO,
            seq: 0,
            event: None,
        }
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use faasmem_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c'); // same instant: FIFO order
/// q.push(SimTime::ZERO, 'a');
/// let drained: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(drained, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The slot arena holding every ring event outside the cursor
    /// bucket, shared by all buckets. It is cut into blocks of
    /// `1 << block_bits` slots; a block belongs to one bucket, which
    /// fills it front to back, or to the free list.
    slots: Vec<Slot<E>>,
    /// One link per block: the next block of its bucket's chain, or of
    /// the free list. Kept apart from `slots` so a chain walk's
    /// dependent loads stay in a compact array.
    links: Vec<u32>,
    /// Log2 of the slots per block. Zero (one event per block) while
    /// buckets hold a few events each; when the capped ring crowds many
    /// events into each bucket, a re-layout widens blocks so a drain
    /// walks contiguous runs instead of chasing one link per event.
    block_bits: u32,
    /// Head of the free-block list.
    free: u32,
    /// The bucket ring: each bucket's last event slot, or [`NIL`] when
    /// empty. The block holding it is the tail of a circular chain whose
    /// link is the head block, so one index gives O(1) append and FIFO
    /// traversal; every block but the tail one is full.
    /// `tails[cursor]` covers `[ring_start, ring_start + width)`; each
    /// step ahead covers the next width. The cursor's own entry is always
    /// [`NIL`]: its events live in `drain`.
    tails: Vec<u32>,
    /// The cursor bucket's events, moved out of its chain when the
    /// cursor arrives. A run-long buffer: it keeps its capacity.
    drain: Vec<ScheduledEvent<E>>,
    /// Sort state of `drain`.
    drain_order: BucketOrder,
    /// Ring index of the current (earliest) bucket.
    cursor: usize,
    /// Inclusive lower bound of the cursor bucket, in microseconds.
    /// Events pushed before it (a "past push" after drains) clamp into
    /// the cursor bucket, where the drain sort delivers them first.
    ring_start: u64,
    /// Bucket width in microseconds (always at least 1).
    width: u64,
    /// Events currently held in ring buckets (chains plus `drain`).
    ring_len: usize,
    /// Far-future events at or past the ring horizon. Kept unsorted
    /// until a promotion needs order; every element's key is greater
    /// than every ring event's key (the promotion in
    /// [`EventQueue::advance_cursor`] maintains this as the horizon
    /// grows).
    overflow: Vec<ScheduledEvent<E>>,
    /// `true` while `overflow` is descending by `(at, seq)` — soonest
    /// events at the tail, so a promotion pops them off the end without
    /// ever shifting the buffer.
    overflow_sorted: bool,
    /// `true` once a promotion has sorted the tier since the last
    /// re-layout: sorting it again would be a re-sort (see
    /// [`EventQueue::advance_cursor`]).
    overflow_sorted_once: bool,
    /// Smallest `(at, seq)` in `overflow`, tracked incrementally so the
    /// per-pop promotion check is one compare.
    overflow_min: Option<(SimTime, u64)>,
    /// Pops since the last re-layout — the amortization meter for the
    /// occupancy-triggered re-tune in [`EventQueue::prepare_head`].
    pops_since_rebuild: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            links: Vec::new(),
            block_bits: 0,
            free: NIL,
            tails: vec![NIL; MIN_BUCKETS],
            drain: Vec::new(),
            drain_order: BucketOrder::Ascending,
            cursor: 0,
            ring_start: 0,
            width: INITIAL_WIDTH_US,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_sorted: true,
            overflow_sorted_once: false,
            overflow_min: None,
            pops_since_rebuild: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue with ring geometry and arena pre-sized for
    /// `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.reserve(capacity);
        q.slots.reserve(capacity);
        q.links.reserve(capacity >> q.block_bits);
        q
    }

    /// Exclusive upper bound of the ring, in microseconds (`u128` so
    /// the arithmetic never saturates near [`SimTime::MAX`]).
    #[inline]
    fn horizon(&self) -> u128 {
        u128::from(self.ring_start) + u128::from(self.width) * self.tails.len() as u128
    }

    /// Ring index for an event at `at_us`, which must be below the
    /// horizon. Past pushes clamp to the cursor bucket.
    #[inline]
    fn bucket_index(&self, at_us: u64) -> usize {
        if at_us < self.ring_start {
            return self.cursor;
        }
        let offset = ((at_us - self.ring_start) / self.width) as usize;
        debug_assert!(offset < self.tails.len(), "event past the ring horizon");
        (self.cursor + offset) % self.tails.len()
    }

    /// Routes one scheduled event to its bucket or the overflow tier.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let at_us = ev.at.as_micros();
        if u128::from(at_us) >= self.horizon() {
            self.park(ev);
        } else {
            self.place(self.bucket_index(at_us), ev);
        }
    }

    /// Appends one event to the overflow tier, keeping its tracked
    /// minimum and sort flag current.
    fn park(&mut self, ev: ScheduledEvent<E>) {
        let key = ev.key();
        if self.overflow_min.is_none_or(|m| key < m) {
            self.overflow_min = Some(key);
        }
        if self.overflow_sorted {
            if let Some(last) = self.overflow.last() {
                if last.key() < key {
                    self.overflow_sorted = false;
                }
            }
        }
        self.overflow.push(ev);
    }

    /// Files one ring event under bucket `idx`: the cursor bucket's go
    /// straight onto the drain buffer, every other bucket's into the
    /// next slot of its tail block, or of a block linked after it —
    /// a recycled one, or a fresh one appended to the arena.
    fn place(&mut self, idx: usize, ev: ScheduledEvent<E>) {
        self.ring_len += 1;
        if idx == self.cursor {
            self.push_drain(ev);
            return;
        }
        let tail = self.tails[idx];
        let i = if tail != NIL && (tail + 1) & self.block_mask() != 0 {
            tail + 1
        } else if self.free != NIL {
            let block = self.free;
            self.free = self.links[block as usize];
            self.append_block(tail, block);
            block << self.block_bits
        } else {
            let i = slot_index(self.slots.len());
            self.slots.push(Slot::new(ev));
            if self.block_bits > 0 {
                let end = slot_index(self.slots.len() + self.block_mask() as usize);
                self.slots.resize_with(end as usize, Slot::vacant);
            }
            self.links.push(NIL);
            self.append_block(tail, i >> self.block_bits);
            self.tails[idx] = i;
            return;
        };
        self.slots[i as usize] = Slot::new(ev);
        self.tails[idx] = i;
    }

    /// Slot-offset mask within a block.
    #[inline]
    fn block_mask(&self) -> u32 {
        (1 << self.block_bits) - 1
    }

    /// Links `block` into a chain after the block holding slot `tail`,
    /// or as a chain of its own when `tail` is [`NIL`].
    #[inline]
    fn append_block(&mut self, tail: u32, block: u32) {
        self.links[block as usize] = if tail == NIL {
            block
        } else {
            std::mem::replace(&mut self.links[(tail >> self.block_bits) as usize], block)
        };
    }

    /// Appends one event to the drain buffer, downgrading the order flag
    /// only when the new key actually breaks the maintained order.
    fn push_drain(&mut self, ev: ScheduledEvent<E>) {
        if let Some(last) = self.drain.last() {
            match self.drain_order {
                BucketOrder::Ascending if last.key() > ev.key() => {
                    self.drain_order = BucketOrder::Unsorted;
                }
                // The tail is the current minimum; a smaller key keeps
                // the descending run intact (keys are unique).
                BucketOrder::Descending if last.key() < ev.key() => {
                    self.drain_order = BucketOrder::Unsorted;
                }
                _ => {}
            }
        }
        self.drain.push(ev);
    }

    /// Moves the cursor bucket's chain, in push order, into the empty
    /// drain buffer and returns its blocks to the free list.
    fn load_cursor_bucket(&mut self) {
        debug_assert!(self.drain.is_empty() && self.drain_order == BucketOrder::Ascending);
        let tail = std::mem::replace(&mut self.tails[self.cursor], NIL);
        if tail == NIL {
            return;
        }
        let last = tail >> self.block_bits;
        let mut block = self.links[last as usize];
        let mut prev = None;
        let mut ascending = true;
        loop {
            let start = (block << self.block_bits) as usize;
            let end = if block == last {
                tail as usize + 1
            } else {
                start + (1 << self.block_bits)
            };
            for slot in &mut self.slots[start..end] {
                let ev = ScheduledEvent {
                    at: slot.at,
                    seq: slot.seq,
                    event: slot.event.take().expect("chained slots hold events"),
                };
                ascending &= prev < Some(ev.key());
                prev = Some(ev.key());
                self.drain.push(ev);
            }
            let next = std::mem::replace(&mut self.links[block as usize], self.free);
            self.free = block;
            if block == last {
                break;
            }
            block = next;
        }
        if !ascending {
            self.drain_order = BucketOrder::Unsorted;
        }
    }

    /// Brings the drain buffer's minimum to the tail so pops are O(1).
    /// Already-ordered appends (`Ascending`) only pay a reverse, never a
    /// sort.
    fn prepare_drain(&mut self) {
        match self.drain_order {
            BucketOrder::Ascending => self.drain.reverse(),
            BucketOrder::Unsorted => self
                .drain
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key())),
            BucketOrder::Descending => return,
        }
        self.drain_order = BucketOrder::Descending;
    }

    /// Grows the ring when occupancy outpaces it — the hash-table
    /// rehash analogue, amortized O(1) per push.
    #[inline]
    fn maybe_grow(&mut self) {
        if self.len() > self.tails.len() * 2 && self.tails.len() < MAX_BUCKETS {
            self.rebuild(self.len());
        }
    }

    /// Shrinks the ring when it has become mostly empty slots, so tail
    /// drains never scan a stale oversized geometry.
    #[inline]
    fn maybe_shrink(&mut self) {
        if self.tails.len() > MIN_BUCKETS && self.len() < self.tails.len() / 8 {
            self.rebuild(self.len());
        }
    }

    /// Re-lays the calendar out for about `hint` events: picks a bucket
    /// count, re-estimates the width from the observed event span (the
    /// self-tuning rule: width ≈ 2 × mean inter-event gap, so the ring
    /// spans the whole pending population), re-anchors the ring at the
    /// earliest pending event and re-links everything. O(n) with
    /// one-slot blocks, O(n log n) with wider ones, and invisible to the
    /// pop order.
    fn rebuild(&mut self, hint: usize) {
        // Gather every pending event into the arena: compact the live
        // slots in place, then append the drain buffer and the overflow
        // tier. Every buffer keeps its capacity, so a re-layout at a
        // settled geometry touches the allocator not at all, and the
        // arena never outgrows the pending population by more than the
        // block padding below.
        self.slots.retain(|s| s.event.is_some());
        self.slots.extend(
            self.drain
                .drain(..)
                .chain(self.overflow.drain(..))
                .map(Slot::new),
        );
        self.drain_order = BucketOrder::Ascending;
        self.overflow_sorted = true;
        self.overflow_sorted_once = false;
        self.overflow_min = None;
        self.pops_since_rebuild = 0;

        let buckets = hint.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.tails.clear();
        self.tails.resize(buckets, NIL);
        self.cursor = 0;
        // One slot per block until the bucket cap crowds eight or more
        // events into a bucket; then blocks hold up to a quarter of a
        // bucket's share, so padding wastes at most a quarter of the
        // arena.
        self.block_bits = (hint / (4 * buckets)).clamp(1, MAX_BLOCK).ilog2();
        self.links.clear();
        self.free = NIL;
        self.ring_len = self.slots.len();

        let min = self.slots.iter().map(|s| s.at.as_micros()).min();
        let max = self.slots.iter().map(|s| s.at.as_micros()).max();
        let (Some(min), Some(max)) = (min, max) else {
            self.width = INITIAL_WIDTH_US;
            // Keep the anchor: a later past-push must still clamp.
            return;
        };
        let span = u128::from(max - min);
        // Self-tuning rule: width ≈ 2 × mean inter-event gap — but never
        // so narrow that the capped ring fails to cover the whole pending
        // span. Without the floor, a wide-span population would park
        // mostly in overflow and every ring drain would re-sort it: the
        // classic capped-calendar pathology. With it, every event re-links
        // into the ring and the tier stays empty.
        let mean_gap = span * 2 / self.slots.len() as u128;
        let cover = span / buckets as u128 + 1;
        self.width = u64::try_from(mean_gap.max(cover).max(1)).unwrap_or(u64::MAX);
        self.ring_start = min;
        self.lay_out();
        self.load_cursor_bucket();
    }

    /// Links the gathered arena into bucket chains. One-slot blocks link
    /// where they lie. Wider blocks need each bucket's events contiguous,
    /// so the arena is sorted first — which also hands every bucket over
    /// ascending, for a drain that only reverses — and each bucket's run
    /// is padded out to whole blocks.
    fn lay_out(&mut self) {
        let (ring_start, width) = (self.ring_start, self.width);
        // The ring is anchored at the earliest event with the cursor at
        // zero, so bucket indexes need neither clamping nor wrapping.
        let bucket = |s: &Slot<E>| ((s.at.as_micros() - ring_start) / width) as usize;
        let events = self.slots.len();
        if self.block_bits > 0 {
            self.slots.sort_unstable_by_key(|s| (s.at, s.seq));
            // Count each bucket's events, then point its entry just past
            // where its events end once runs start on block boundaries.
            self.tails.fill(0);
            for s in &self.slots {
                self.tails[bucket(s)] += 1;
            }
            let mut start = 0usize;
            for t in &mut self.tails {
                let count = *t as usize;
                *t = slot_index(start + count);
                start += count.next_multiple_of(1 << self.block_bits);
            }
            // Exact, so the padding never doubles a large arena.
            self.slots.reserve_exact(start - events);
            self.slots
                .resize_with(slot_index(start) as usize, Slot::vacant);
            // Move events to their runs, last first: no run starts before
            // its events' sorted positions, so each target lies at or past
            // its source, and every position left behind holds a free slot.
            for i in (0..events).rev() {
                let t = &mut self.tails[bucket(&self.slots[i])];
                *t -= 1;
                self.slots.swap(i, *t as usize);
            }
            self.tails.fill(NIL);
        }
        self.links.resize(self.slots.len() >> self.block_bits, NIL);
        for i in 0..slot_index(self.slots.len()) {
            let slot = &self.slots[i as usize];
            if slot.event.is_none() {
                continue;
            }
            let idx = bucket(slot);
            if i & self.block_mask() == 0 {
                self.append_block(self.tails[idx], i >> self.block_bits);
            }
            self.tails[idx] = i;
        }
    }

    /// Steps the cursor one bucket forward (the current one is empty),
    /// loads the new cursor bucket into the drain buffer, and promotes
    /// any overflow events the grown horizon caught up to, preserving
    /// the "overflow is entirely past the ring" invariant that makes the
    /// cursor bucket's minimum global.
    ///
    /// An unsorted overflow tier that outnumbers the ring means the
    /// geometry no longer spans the population (a span-less
    /// [`EventQueue::with_capacity`] laid it out, or far pushes piled up
    /// since). The first sort of such a tier is cheap when it was
    /// filled in time order (a reverse) and is never repeated if
    /// nothing lands past the horizon afterwards, so it stays. But once
    /// far pushes keep breaking the order, every promotion would
    /// re-sort the whole tier for a sliver of due events; a re-layout
    /// instead covers the whole span and empties the tier, amortized
    /// O(n log n) over the far pushes that refilled it.
    fn advance_cursor(&mut self) {
        debug_assert!(self.drain.is_empty());
        self.cursor = (self.cursor + 1) % self.tails.len();
        self.ring_start = self.ring_start.saturating_add(self.width);
        self.load_cursor_bucket();
        if self
            .overflow_min
            .is_some_and(|(at, _)| u128::from(at.as_micros()) < self.horizon())
        {
            if !self.overflow_sorted
                && self.overflow_sorted_once
                && self.overflow.len() > self.ring_len.max(MIN_BUCKETS)
            {
                self.rebuild(self.len());
            } else {
                self.promote_due_overflow();
            }
        }
    }

    /// Moves every overflow event below the horizon into its ring
    /// bucket. The tier is sorted descending, so the due events form
    /// the tail and promotion pops them off the end, soonest first —
    /// repeated promotions as the cursor walks never memmove the buffer.
    fn promote_due_overflow(&mut self) {
        if !self.overflow_sorted {
            self.overflow
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.overflow_sorted = true;
            self.overflow_sorted_once = true;
        }
        let horizon = self.horizon();
        while let Some(ev) = self
            .overflow
            .pop_if(|ev| u128::from(ev.at.as_micros()) < horizon)
        {
            self.place(self.bucket_index(ev.at.as_micros()), ev);
        }
        self.overflow_min = self.overflow.last().map(ScheduledEvent::key);
    }

    /// Positions the cursor on the earliest nonempty bucket and sorts
    /// its drain buffer. Returns `false` when nothing is pending. All
    /// the queue's laziness resolves here; afterwards the drain
    /// buffer's tail is the global `(at, seq)` minimum.
    fn prepare_head(&mut self) -> bool {
        if self.ring_len == 0 && self.overflow.is_empty() {
            return false;
        }
        loop {
            if self.ring_len == 0 {
                // Ring drained dry: jump straight to the overflow tier,
                // re-tuning the geometry to the remaining population
                // (its span may be nothing like the drained one's).
                self.rebuild(self.len());
                debug_assert!(self.ring_len > 0, "rebuild anchors at the earliest event");
                continue;
            }
            let head_len = self.drain.len();
            if head_len > 0 {
                // Re-tune when the head bucket has collected a wildly
                // disproportionate share of the population — a steady
                // churn of pop-one/push-one drifts the live window away
                // from the geometry the last layout was tuned for.
                // Checked only when the bucket needs sorting anyway
                // (order not yet Descending), so the multi-instant scan
                // amortizes against the sort it replaces; the pop meter
                // amortizes the O(n) re-layout to O(1) per pop. Buckets
                // holding one instant are skipped — no geometry splits
                // a same-instant burst, only the drain sort orders it.
                if self.drain_order != BucketOrder::Descending
                    && head_len >= 64
                    && head_len > 8 * (self.len() / self.tails.len() + 1)
                    && self.pops_since_rebuild >= self.len()
                    && self.drain.iter().any(|e| e.at != self.drain[0].at)
                {
                    self.rebuild(self.len());
                    continue;
                }
                self.prepare_drain();
                return true;
            }
            self.advance_cursor();
        }
    }

    /// Schedules `event` to fire at `at`. Events at the same instant fire
    /// in insertion order.
    pub fn push(&mut self, at: SimTime, event: E) {
        let ev = self.stamp(at, event);
        self.insert(ev);
        self.maybe_grow();
    }

    /// Pre-sizes the ring geometry for `additional` more events, so a
    /// known batch of pushes triggers at most this one re-layout
    /// instead of a cascade of incremental doublings mid-batch.
    fn reserve(&mut self, additional: usize) {
        let target = self.len() + additional;
        if target > self.tails.len() * 2 && self.tails.len() < MAX_BUCKETS {
            self.rebuild(target);
        }
    }

    /// Schedules a batch of events all firing at `at`, in iteration order
    /// (equivalent to pushing each in turn). The whole group resolves
    /// its destination once and lands as a single ascending append run
    /// on one bucket (or the overflow tier) — a group move, not a
    /// per-event search.
    pub fn push_at_many<I: IntoIterator<Item = E>>(&mut self, at: SimTime, events: I) {
        let mut iter = events.into_iter();
        self.reserve(iter.size_hint().0);
        let at_us = at.as_micros();
        if u128::from(at_us) >= self.horizon() {
            // Sequence stamps ascend within the group, so only its first
            // event can lower the tracked minimum — and a group of two or
            // more is itself an ascending run, which always breaks the
            // tier's descending order.
            if let Some(event) = iter.next() {
                let ev = self.stamp(at, event);
                self.park(ev);
            }
            let parked = self.overflow.len();
            for event in iter {
                let ev = self.stamp(at, event);
                self.overflow.push(ev);
            }
            if self.overflow.len() > parked {
                self.overflow_sorted = false;
            }
        } else {
            let idx = self.bucket_index(at_us);
            for event in iter {
                let ev = self.stamp(at, event);
                self.place(idx, ev);
            }
        }
        self.maybe_grow();
    }

    /// Wraps `event` with the next sequence stamp.
    #[inline]
    fn stamp(&mut self, at: SimTime, event: E) -> ScheduledEvent<E> {
        let seq = self.next_seq;
        self.next_seq += 1;
        ScheduledEvent { at, seq, event }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.prepare_head() {
            return None;
        }
        let ev = self.drain.pop().expect("prepared bucket is nonempty");
        if self.drain.is_empty() {
            self.drain_order = BucketOrder::Ascending;
        }
        self.ring_len -= 1;
        self.pops_since_rebuild += 1;
        self.maybe_shrink();
        Some((ev.at, ev.event))
    }

    /// The firing time of the earliest pending event.
    ///
    /// Takes `&mut self`: locating the head may advance the cursor and
    /// sort the head bucket (none of which changes the pop order).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.prepare_head() {
            return None;
        }
        self.drain.last().map(|s| s.at)
    }

    /// A reference to the earliest pending event (see
    /// [`EventQueue::peek_time`] for why this takes `&mut self`).
    pub fn peek(&mut self) -> Option<&ScheduledEvent<E>> {
        if !self.prepare_head() {
            return None;
        }
        self.drain.last()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the queue holds: the slot arena, the bucket ring, the
    /// drain buffer and the overflow tier, each at its capacity. None of
    /// them shrinks, so this is also the run's high-water mark.
    pub fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot<E>>()
            + (self.links.capacity() + self.tails.capacity()) * size_of::<u32>()
            + (self.drain.capacity() + self.overflow.capacity()) * size_of::<ScheduledEvent<E>>()
    }

    /// Number of ring buckets.
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.tails.len()
    }

    /// Current bucket width in microseconds.
    #[cfg(test)]
    fn bucket_width_micros(&self) -> u64 {
        self.width
    }

    /// Events currently parked in the far-future overflow tier.
    #[cfg(test)]
    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

/// The arena index of slot number `n`.
///
/// # Panics
///
/// Panics past `u32::MAX - 1` slots, far more events than fit in memory.
#[inline]
fn slot_index(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&i| i != NIL)
        .expect("event arena exceeds u32 slot indices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceEventQueue;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), "x");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn push_at_many_matches_individual_pushes() {
        let mut batched = EventQueue::new();
        batched.push(SimTime::from_secs(2), 'x');
        batched.reserve(3);
        batched.push_at_many(SimTime::from_secs(1), ['a', 'b', 'c']);
        batched.push(SimTime::from_secs(1), 'd');

        let mut plain = EventQueue::new();
        plain.push(SimTime::from_secs(2), 'x');
        for e in ['a', 'b', 'c', 'd'] {
            plain.push(SimTime::from_secs(1), e);
        }

        let drain = |q: &mut EventQueue<char>| -> Vec<(SimTime, char)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        assert_eq!(drain(&mut batched), drain(&mut plain));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 'z');
        q.push(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_secs(5), 'm');
        assert_eq!(q.pop().unwrap().1, 'm');
        assert_eq!(q.pop().unwrap().1, 'z');
    }

    #[test]
    fn far_past_push_after_drains_pops_next() {
        // Drain far enough that the ring cursor has advanced well past
        // the origin, then push at the origin: the "past" event clamps
        // into the cursor bucket and pops before everything pending —
        // the queue is a priority queue, never a conveyor belt.
        let mut q = EventQueue::new();
        for s in 0..50u64 {
            q.push(SimTime::from_secs(s), s);
        }
        for s in 0..40u64 {
            assert_eq!(q.pop(), Some((SimTime::from_secs(s), s)));
        }
        q.push(SimTime::ZERO, 999);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 999)));
        for s in 40..50u64 {
            assert_eq!(q.pop(), Some((SimTime::from_secs(s), s)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_park_in_overflow_and_promote() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 'a');
        // Way past the fresh ring's horizon (16 buckets × 1ms).
        let far = SimTime::from_secs(3600);
        q.push(far, 'z');
        assert_eq!(q.overflow_len(), 1, "far-future event parks in overflow");
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 'a')));
        // The ring is now empty; the next pop re-anchors the ring at
        // the overflow tier and promotes the event out of it.
        assert_eq!(q.pop(), Some((far, 'z')));
        assert_eq!(q.overflow_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_promotes_as_the_ring_advances() {
        // A mid-future event beyond the initial horizon must surface in
        // order between near events that keep the ring nonempty, i.e.
        // the cursor-advance promotion path (not the empty-ring jump).
        let mut q = EventQueue::new();
        let (w, n) = (q.bucket_width_micros(), q.bucket_count() as u64);
        // Fill every bucket so the cursor walks the whole ring.
        for b in 0..n {
            q.push(SimTime::from_micros(b * w), b);
        }
        // One event just past the horizon: overflow tier.
        q.push(SimTime::from_micros(n * w), n);
        assert_eq!(q.overflow_len(), 1);
        for b in 0..=n {
            assert_eq!(q.pop(), Some((SimTime::from_micros(b * w), b)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn reserve_pre_grows_the_ring_once() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let before = q.bucket_count();
        q.reserve(10_000);
        let reserved = q.bucket_count();
        assert!(reserved > before, "reserve should pre-grow the ring");
        // A batch reservation sizes the ring only: event storage still
        // follows the events actually pushed.
        assert_eq!(q.slots.capacity(), 0);
        assert_layout(&q);
        // The announced batch then fits without another re-layout, and
        // the arena holds at most one slot per pending event.
        for i in 0..10_000u32 {
            q.push(SimTime::from_micros(u64::from(i)), i);
        }
        assert_eq!(q.bucket_count(), reserved);
        assert!(q.slots.len() <= 10_000);
        assert_layout(&q);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_layout(&q);
    }

    #[test]
    fn geometry_self_tunes_at_rebuild() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // 1000 events spread over 100 seconds: after growth the width
        // must stretch toward the mean gap (0.1s), not stay at 1ms.
        for i in 0..1000u64 {
            q.push(SimTime::from_millis(i * 100), i);
        }
        assert!(q.bucket_count() >= 512);
        assert!(q.bucket_width_micros() > INITIAL_WIDTH_US);
        // Each re-layout compacted the arena: no more slots than events,
        // and every one either chained or on the free list.
        assert!(q.slots.len() <= 1000);
        assert_layout(&q);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
        assert_layout(&q);
    }

    #[test]
    fn crowded_buckets_chain_whole_blocks() {
        // Past the bucket cap, a layout for eight or more events a
        // bucket packs each bucket into multi-slot blocks. Re-laying a
        // small population out for such a hint exercises the padded run
        // placement, multi-block chains and partial tail blocks at a
        // testable size.
        let mut state = 0xB10C_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
        for i in 0..20_000u32 {
            // A third of the events crowd ten instants; the rest spread
            // over a second.
            let x = next();
            let at = SimTime::from_micros(if x % 3 == 0 {
                x % 10 * 100_000
            } else {
                x % 1_000_000
            });
            q.push(at, i);
            r.push(at, i);
        }
        q.rebuild(MAX_BUCKETS * 4 * 4);
        assert_eq!(q.block_bits, 2);
        assert!(q.slots.len() > q.len(), "runs are padded to whole blocks");
        assert_layout(&q);
        // Pop-one/push-one: pushes fill partial tail blocks and chain
        // recycled ones.
        for i in 0..30_000u32 {
            let (at, _, _) = q
                .peek()
                .map(|e| (e.at, e.seq, e.event))
                .expect("the hold never drains");
            assert!(pop_both(&mut q, &mut r));
            let later = at + SimDuration::from_micros(next() % 50_000);
            q.push(later, i);
            r.push(later, i);
            if i % 5_000 == 0 {
                assert_layout(&q);
            }
        }
        while pop_both(&mut q, &mut r) {}
        assert_layout(&q);
    }

    #[test]
    fn churn_reuses_freed_slots() {
        // A pop-one/push-one hold walks the cursor around the ring many
        // times over; the arena must recycle the slots each drained
        // bucket frees instead of growing with the events streamed.
        const HOLD: u64 = 1_000;
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..HOLD {
            q.push(SimTime::from_micros(i * 997 % 50_000), i);
        }
        for i in 0..100_000u64 {
            let (at, ev) = q.pop().expect("the hold never drains");
            q.push(at + SimDuration::from_micros(1 + i * 7_919 % 50_000), ev);
        }
        assert!(q.slots.len() <= HOLD as usize, "{} slots", q.slots.len());
        assert_layout(&q);
    }

    /// Checks every structural invariant of the layout: each bucket
    /// chain holds full blocks of live slots inside its bucket's time
    /// range, then a tail block filled up to the bucket's last slot; the
    /// free list holds every other block; the drain buffer holds the
    /// cursor bucket in its recorded order; `ring_len` counts chains plus
    /// drain; and the overflow tier lies past the horizon with its
    /// tracked minimum and sort flag.
    fn assert_layout<E>(q: &EventQueue<E>) {
        let n = q.tails.len();
        assert!(n.is_power_of_two() && (MIN_BUCKETS..=MAX_BUCKETS).contains(&n));
        assert_eq!(
            q.tails[q.cursor], NIL,
            "the cursor bucket lives in the drain buffer"
        );
        assert_eq!(q.slots.len(), q.links.len() << q.block_bits);
        let mut seen = vec![false; q.links.len()];
        let mut chained = 0;
        for (b, &tail) in q.tails.iter().enumerate().filter(|&(_, &t)| t != NIL) {
            let k = (b + n - q.cursor) % n;
            let lo = u128::from(q.ring_start) + u128::from(q.width) * k as u128;
            let last = tail >> q.block_bits;
            let mut block = q.links[last as usize];
            loop {
                assert!(
                    !std::mem::replace(&mut seen[block as usize], true),
                    "block {block} linked twice"
                );
                let start = block << q.block_bits;
                let end = if block == last {
                    tail
                } else {
                    start | q.block_mask()
                };
                for i in start..start + (1 << q.block_bits) {
                    let slot = &q.slots[i as usize];
                    assert_eq!(slot.event.is_some(), i <= end, "slot {i} of bucket {b}");
                    if i <= end {
                        let at = u128::from(slot.at.as_micros());
                        assert!(
                            (lo..lo + u128::from(q.width)).contains(&at),
                            "slot {i} outside bucket {b}"
                        );
                        chained += 1;
                    }
                }
                if block == last {
                    break;
                }
                block = q.links[block as usize];
            }
        }
        let mut block = q.free;
        while block != NIL {
            assert!(
                !std::mem::replace(&mut seen[block as usize], true),
                "free block {block} also reached"
            );
            let start = (block << q.block_bits) as usize;
            assert!(q.slots[start..start + (1 << q.block_bits)]
                .iter()
                .all(|s| s.event.is_none()));
            block = q.links[block as usize];
        }
        assert!(
            seen.iter().all(|&s| s),
            "an arena block is neither chained nor free"
        );
        assert_eq!(q.ring_len, chained + q.drain.len());

        let cursor_end = u128::from(q.ring_start) + u128::from(q.width);
        assert!(q
            .drain
            .iter()
            .all(|e| u128::from(e.at.as_micros()) < cursor_end));
        let keys: Vec<_> = q.drain.iter().map(ScheduledEvent::key).collect();
        match q.drain_order {
            BucketOrder::Ascending => assert!(keys.windows(2).all(|w| w[0] < w[1])),
            BucketOrder::Descending => assert!(keys.windows(2).all(|w| w[0] > w[1])),
            BucketOrder::Unsorted => assert!(!keys.is_empty()),
        }

        let horizon = q.horizon();
        assert!(q
            .overflow
            .iter()
            .all(|e| u128::from(e.at.as_micros()) >= horizon));
        assert_eq!(
            q.overflow_min,
            q.overflow.iter().map(ScheduledEvent::key).min()
        );
        if q.overflow_sorted {
            assert!(q.overflow.windows(2).all(|w| w[0].key() > w[1].key()));
        }
    }

    /// Pops one event from each queue and asserts both heads agree on
    /// time, sequence stamp and payload (the stamp is read through
    /// `peek`, so FIFO tie-breaks are checked, not just payloads).
    fn pop_both(q: &mut EventQueue<u32>, r: &mut ReferenceEventQueue<u32>) -> bool {
        let a = q.peek().map(|e| (e.at, e.seq, e.event));
        let b = r.peek().map(|e| (e.at, e.seq, e.event));
        assert_eq!(a, b);
        assert_eq!(q.pop(), r.pop());
        a.is_some()
    }

    /// One scripted op against both the calendar queue and the retired
    /// heap, asserting identical observable behavior.
    fn apply_op(q: &mut EventQueue<u32>, r: &mut ReferenceEventQueue<u32>, op: &(u8, u64, u32)) {
        let &(kind, t, payload) = op;
        let at = SimTime::from_micros(t);
        match kind % 7 {
            0 | 1 => {
                q.push(at, payload);
                r.push(at, payload);
            }
            2 => {
                let group = [payload, payload + 1, payload + 2];
                q.push_at_many(at, group);
                r.push_at_many(at, group);
            }
            3 => {
                pop_both(q, r);
            }
            4 => {
                assert_eq!(q.peek_time(), r.peek_time());
                assert_eq!(q.len(), r.len());
            }
            5 => {
                // A wave: drain both queues dry, which shrinks the ring
                // to its floor and returns every block to the free list,
                // then refill out of order past the growth threshold so
                // the regrown ring chains through recycled blocks.
                while pop_both(q, r) {}
                for j in 0..33 + payload % 200 {
                    let at = SimTime::from_micros(t + u64::from(j) * 7_919 % 50_000);
                    q.push(at, payload + j);
                    r.push(at, payload + j);
                }
            }
            _ if payload % 8 == 0 => {
                // Re-lay out as for a population crowding the capped
                // ring, which packs buckets into 2-, 4- or 8-slot blocks
                // (invisible to the pop order, like every re-layout).
                // Rare, since every op after it checks a full-size ring.
                q.rebuild((MAX_BUCKETS * 8) << (payload / 8 % 3));
                assert!(q.block_bits > 0);
            }
            _ => {
                q.push(at, payload);
                r.push(at, payload);
            }
        }
    }

    /// Drives one op script through both queues and drains them dry.
    fn run_oracle_script(ops: &[(u8, u64, u32)]) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r: ReferenceEventQueue<u32> = ReferenceEventQueue::new();
        for op in ops {
            apply_op(&mut q, &mut r, op);
            assert_eq!(q.len(), r.len());
            assert_layout(&q);
        }
        while pop_both(&mut q, &mut r) {}
        assert_layout(&q);
    }

    /// A queue pre-sized before it saw any event has no span to tune
    /// its width from, so an hour of seeded arrivals lands mostly past
    /// its ring. Interleaving pops with near (200 ms) and far (10 min)
    /// follow-up pushes — the event-loop shape — must still pop exactly
    /// the heap's order, the queue must re-lay out instead of keeping
    /// the trace parked in its overflow tier, and the arena must never
    /// hold more slots than the queue ever held pending events.
    #[test]
    fn presized_seeded_hour_matches_reference() {
        const ARRIVALS: u32 = 20_000;
        const HOUR_MS: u64 = 3_600_000;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut times: Vec<u64> = (0..ARRIVALS).map(|_| next() % HOUR_MS * 1_000).collect();
        times.sort_unstable();

        let mut q: EventQueue<u32> = EventQueue::with_capacity(ARRIVALS as usize * 4);
        let mut r: ReferenceEventQueue<u32> =
            ReferenceEventQueue::with_capacity(ARRIVALS as usize * 4);
        // Seed as the trace did: each same-instant run as one group.
        let mut i = 0;
        while i < times.len() {
            let at = SimTime::from_micros(times[i]);
            let run = times[i..].iter().take_while(|&&t| t == times[i]).count();
            let group = (i..i + run).map(|j| j as u32);
            q.push_at_many(at, group.clone());
            r.push_at_many(at, group);
            i += run;
        }
        assert!(
            q.overflow_len() > q.len() / 2,
            "the span-less layout parks most of the hour in overflow"
        );

        let mut popped = 0u32;
        let mut high_water = q.len();
        while let Some(head) = q.peek().map(|e| (e.at, e.seq, e.event)) {
            let reference = r.peek().map(|e| (e.at, e.seq, e.event));
            assert_eq!(Some(head), reference);
            assert_eq!(q.pop(), r.pop());
            popped += 1;
            let (at, _, payload) = head;
            // Only arrivals schedule follow-ups, so the run drains.
            if payload < ARRIVALS {
                let near = at + SimDuration::from_millis(200);
                q.push(near, ARRIVALS + payload);
                r.push(near, ARRIVALS + payload);
                if payload.is_multiple_of(8) {
                    let far = at + SimDuration::from_mins(10);
                    q.push(far, 2 * ARRIVALS + payload);
                    r.push(far, 2 * ARRIVALS + payload);
                }
            }
            high_water = high_water.max(q.len());
            assert!(q.slots.len() <= high_water);
            if popped == ARRIVALS / 2 {
                assert_layout(&q);
                assert!(
                    q.overflow_len() < q.len() / 4,
                    "overflow {} of {} pending: the queue never re-laid out",
                    q.overflow_len(),
                    q.len()
                );
            }
        }
        assert!(r.is_empty());
        assert_eq!(popped, 2 * ARRIVALS + ARRIVALS / 8);
    }

    /// The high-case-count oracle run the CI test job executes
    /// explicitly (`cargo test -p faasmem-sim --release -- --ignored`).
    /// Deterministic: the op scripts are derived from a fixed-seed
    /// xorshift walk, heavily mixing near/far/past times so every
    /// calendar path (clamp, wraparound, overflow, rebuild, and slot
    /// reuse across a drained ring's shrink and regrowth) is crossed
    /// thousands of times.
    #[test]
    #[ignore = "long oracle run; exercised explicitly by the CI test job"]
    fn queue_oracle_extended_equivalence() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..1500 {
            let len = 40 + (case % 160) as usize;
            let ops: Vec<(u8, u64, u32)> = (0..len)
                .map(|_| {
                    let r = next();
                    // Time scale cycles µs → ms → s so scripts cross
                    // bucket widths, the overflow horizon and rebuilds.
                    let t = match r % 3 {
                        0 => r % 1_000,
                        1 => (r % 1_000) * 1_000,
                        _ => (r % 100) * 1_000_000,
                    };
                    ((r >> 8) as u8, t, (r >> 16) as u32 % 1_000)
                })
                .collect();
            run_oracle_script(&ops);
        }
    }

    proptest::proptest! {
        // The tentpole equivalence oracle: for arbitrary interleavings
        // of pushes (single and grouped), pops, peeks and drain/refill
        // waves over wildly mixed time scales, the calendar queue's
        // observable behavior is exactly the retired heap's.
        #[test]
        fn prop_calendar_matches_heap_reference(
            ops in proptest::collection::vec(
                (0u8..255, 0u64..200_000_000, 0u32..1_000),
                0..250,
            )
        ) {
            run_oracle_script(&ops);
        }

        #[test]
        fn prop_pop_order_is_sorted(times in proptest::collection::vec(0u64..1_000_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                proptest::prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            proptest::prop_assert_eq!(count, times.len());
        }

        // Draining the queue is a stable sort by time: events pushed at
        // the same instant keep their relative insertion order even when
        // interleaved with events at other instants.
        #[test]
        fn prop_drain_is_stable_sort(times in proptest::collection::vec(0u64..16, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let drained: Vec<(SimTime, usize)> = std::iter::from_fn(|| q.pop()).collect();
            let mut expected: Vec<(SimTime, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (SimTime::from_millis(t), i))
                .collect();
            // A stable sort by time alone keeps insertion order within ties.
            expected.sort_by_key(|&(t, _)| t);
            proptest::prop_assert_eq!(drained, expected);
        }

        #[test]
        fn prop_equal_times_fifo(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            for i in 0..n {
                q.push(t, i);
            }
            for i in 0..n {
                proptest::prop_assert_eq!(q.pop().unwrap().1, i);
            }
        }

        #[test]
        fn prop_groups_wrapping_the_bucket_ring_stay_fifo(
            first in proptest::collection::vec(0u32..100, 1..12),
            second in proptest::collection::vec(100u32..200, 1..12),
            drained in 0usize..12,
            advance in 2u64..16,
            wrap_extra in 0u64..16,
            delta in 0u64..1_000,
        ) {
            // Regression: same-instant groups whose bucket lands *below*
            // the ring cursor (the index computation wraps modulo the
            // bucket count) must still interleave across a partial drain
            // exactly like individual pushes.
            let mut batched: EventQueue<u32> = EventQueue::new();
            let mut individual: EventQueue<u32> = EventQueue::new();
            let n = batched.bucket_count() as u64;
            let w = batched.bucket_width_micros();
            // March the cursor `c` buckets into the ring with pacer events
            // so later indexes have somewhere to wrap to.
            let c = (advance - 1).min(n - 2).max(1);
            for i in 0..=c {
                let at = SimTime::from_micros(i * w + w / 2);
                batched.push(at, u32::MAX);
                individual.push(at, u32::MAX);
            }
            for _ in 0..=c {
                proptest::prop_assert_eq!(batched.pop(), individual.pop());
            }
            // The cursor now sits on bucket `c` with ring_start = c·w. An
            // offset in [n - c, n) stays inside the horizon but maps to a
            // physical bucket below the cursor — the wraparound.
            let offset = n - c + (wrap_extra % c);
            let at = SimTime::from_micros(c * w + offset * w + delta % w.max(1));
            batched.push_at_many(at, first.iter().copied());
            for &e in &first {
                individual.push(at, e);
            }
            // Wrapped, not parked: the instant is below the horizon.
            proptest::prop_assert_eq!(batched.overflow_len(), 0);
            let drained = drained.min(first.len());
            for _ in 0..drained {
                proptest::prop_assert_eq!(batched.pop(), individual.pop());
            }
            // The second same-instant group straddles that partial drain
            // and lands on the same wrapped bucket.
            batched.push_at_many(at, second.iter().copied());
            for &e in &second {
                individual.push(at, e);
            }
            let mut batched_order = Vec::new();
            while let Some(popped) = batched.pop() {
                proptest::prop_assert_eq!(Some(popped), individual.pop());
                batched_order.push(popped.1);
            }
            proptest::prop_assert!(individual.is_empty());
            let expected: Vec<u32> = first[drained..]
                .iter()
                .chain(second.iter())
                .copied()
                .collect();
            proptest::prop_assert_eq!(batched_order, expected);
        }
    }
}
