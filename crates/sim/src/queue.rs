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
//! hash-table rehash (geometric growth, amortized O(1) per event).
//!
//! None of the geometry is observable: the pop order is the total
//! `(time, seq)` order regardless of width or bucket count, pinned
//! against the retired heap implementation (kept as
//! [`ReferenceEventQueue`](crate::reference::ReferenceEventQueue)) by
//! an op-interleaving property test.

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

/// Sort state of one bucket's pending events.
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

#[derive(Debug, Clone)]
struct Bucket<E> {
    events: Vec<ScheduledEvent<E>>,
    order: BucketOrder,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            events: Vec::new(),
            order: BucketOrder::Ascending,
        }
    }

    /// Appends one event, downgrading the order flag only when the new
    /// key actually breaks the maintained order.
    fn push(&mut self, ev: ScheduledEvent<E>) {
        match self.order {
            BucketOrder::Ascending => {
                if let Some(last) = self.events.last() {
                    if last.key() > ev.key() {
                        self.order = BucketOrder::Unsorted;
                    }
                }
            }
            BucketOrder::Descending => {
                // The tail is the current minimum; a smaller key keeps
                // the descending run intact (keys are unique).
                if let Some(last) = self.events.last() {
                    if last.key() < ev.key() {
                        self.order = BucketOrder::Unsorted;
                    }
                }
            }
            BucketOrder::Unsorted => {}
        }
        self.events.push(ev);
    }

    /// Brings the minimum to the tail so pops are O(1). Already-ordered
    /// appends (`Ascending`) only pay a reverse, never a sort.
    fn prepare(&mut self) {
        match self.order {
            BucketOrder::Ascending => self.events.reverse(),
            BucketOrder::Unsorted => self
                .events
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key())),
            BucketOrder::Descending => return,
        }
        self.order = BucketOrder::Descending;
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
    /// The bucket ring. `buckets[cursor]` covers `[ring_start,
    /// ring_start + width)`; each step ahead covers the next width.
    buckets: Vec<Bucket<E>>,
    /// Ring index of the current (earliest) bucket.
    cursor: usize,
    /// Inclusive lower bound of the cursor bucket, in microseconds.
    /// Events pushed before it (a "past push" after drains) clamp into
    /// the cursor bucket, where the drain sort delivers them first.
    ring_start: u64,
    /// Bucket width in microseconds (always at least 1).
    width: u64,
    /// Events currently held in ring buckets.
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
    /// Run-long staging buffer for [`EventQueue::rebuild`], kept so
    /// re-layouts at a settled geometry allocate nothing.
    scratch: Vec<ScheduledEvent<E>>,
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
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::new()).collect(),
            cursor: 0,
            ring_start: 0,
            width: INITIAL_WIDTH_US,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_sorted: true,
            overflow_sorted_once: false,
            overflow_min: None,
            pops_since_rebuild: 0,
            scratch: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with ring geometry pre-sized for
    /// `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = EventQueue::new();
        q.reserve(capacity);
        q
    }

    /// Exclusive upper bound of the ring, in microseconds (`u128` so
    /// the arithmetic never saturates near [`SimTime::MAX`]).
    #[inline]
    fn horizon(&self) -> u128 {
        u128::from(self.ring_start) + u128::from(self.width) * self.buckets.len() as u128
    }

    /// Ring index for an event at `at_us`, which must be below the
    /// horizon. Past pushes clamp to the cursor bucket.
    #[inline]
    fn bucket_index(&self, at_us: u64) -> usize {
        if at_us < self.ring_start {
            return self.cursor;
        }
        let offset = ((at_us - self.ring_start) / self.width) as usize;
        debug_assert!(offset < self.buckets.len(), "event past the ring horizon");
        (self.cursor + offset) % self.buckets.len()
    }

    /// Routes one scheduled event to its bucket or the overflow tier.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let at_us = ev.at.as_micros();
        if u128::from(at_us) >= self.horizon() {
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
        } else {
            let idx = self.bucket_index(at_us);
            self.buckets[idx].push(ev);
            self.ring_len += 1;
        }
    }

    /// Grows the ring when occupancy outpaces it — the hash-table
    /// rehash analogue, amortized O(1) per push.
    #[inline]
    fn maybe_grow(&mut self) {
        if self.len() > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.len());
        }
    }

    /// Shrinks the ring when it has become mostly empty slots, so tail
    /// drains never scan a stale oversized geometry.
    #[inline]
    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.len() < self.buckets.len() / 8 {
            self.rebuild(self.len());
        }
    }

    /// Re-lays the calendar out for about `hint` events: picks a bucket
    /// count, re-estimates the width from the observed event span (the
    /// self-tuning rule: width ≈ 2 × mean inter-event gap, so the ring
    /// spans the whole pending population), re-anchors the ring at the
    /// earliest pending event and redistributes everything. O(n), and
    /// invisible to the pop order.
    fn rebuild(&mut self, hint: usize) {
        // Stage through the run-long scratch buffer; `append` moves the
        // events out while every source keeps its capacity, so a
        // re-layout at a settled geometry touches the allocator not at
        // all.
        let mut pending = std::mem::take(&mut self.scratch);
        debug_assert!(pending.is_empty());
        pending.reserve(self.ring_len + self.overflow.len());
        for bucket in &mut self.buckets {
            pending.append(&mut bucket.events);
            bucket.order = BucketOrder::Ascending;
        }
        pending.append(&mut self.overflow);
        self.ring_len = 0;
        self.overflow_sorted = true;
        self.overflow_sorted_once = false;
        self.overflow_min = None;
        self.pops_since_rebuild = 0;

        let buckets = hint.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Resize in place: surviving buckets keep their capacity.
        self.buckets.resize_with(buckets, Bucket::new);
        self.cursor = 0;

        let min = pending.iter().map(|e| e.at.as_micros()).min();
        let max = pending.iter().map(|e| e.at.as_micros()).max();
        if let (Some(min), Some(max)) = (min, max) {
            let span = u128::from(max - min);
            // Self-tuning rule: width ≈ 2 × mean inter-event gap — but
            // never so narrow that the capped ring fails to cover the
            // whole pending span. Without the floor, a wide-span
            // population would park mostly in overflow and every ring
            // drain would re-sort it: the classic capped-calendar
            // pathology.
            let mean_gap = span * 2 / pending.len() as u128;
            let cover = span / buckets as u128 + 1;
            self.width = u64::try_from(mean_gap.max(cover).max(1)).unwrap_or(u64::MAX);
            self.ring_start = min;
        } else {
            self.width = INITIAL_WIDTH_US;
            // Keep the anchor: a later past-push must still clamp.
        }
        for ev in pending.drain(..) {
            self.insert(ev);
        }
        self.scratch = pending;
    }

    /// Steps the cursor one bucket forward (the current one is empty)
    /// and promotes any overflow events the grown horizon caught up
    /// to, preserving the "overflow is entirely past the ring"
    /// invariant that makes the cursor bucket's minimum global.
    ///
    /// An unsorted overflow tier that outnumbers the ring means the
    /// geometry no longer spans the population (a span-less
    /// [`EventQueue::reserve`] laid it out, or far pushes piled up
    /// since). The first sort of such a tier is cheap when it was
    /// filled in time order (a reverse) and is never repeated if
    /// nothing lands past the horizon afterwards, so it stays. But once
    /// far pushes keep breaking the order, every promotion would
    /// re-sort the whole tier for a sliver of due events; a re-layout
    /// instead covers the whole span and empties the tier, amortized
    /// O(1) per event.
    fn advance_cursor(&mut self) {
        debug_assert!(self.buckets[self.cursor].events.is_empty());
        self.cursor = (self.cursor + 1) % self.buckets.len();
        self.ring_start = self.ring_start.saturating_add(self.width);
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
    /// the tail and promotion is a shift-free tail drain — repeated
    /// promotions as the cursor walks never memmove the buffer.
    fn promote_due_overflow(&mut self) {
        if !self.overflow_sorted {
            self.overflow
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.overflow_sorted = true;
            self.overflow_sorted_once = true;
        }
        let horizon = self.horizon();
        let split = self
            .overflow
            .partition_point(|ev| u128::from(ev.at.as_micros()) >= horizon);
        // Inline the bucket mapping so the drain's borrow of `overflow`
        // stays disjoint from `buckets`.
        let (cursor, ring_start, width, n) =
            (self.cursor, self.ring_start, self.width, self.buckets.len());
        for ev in self.overflow.drain(split..) {
            let at_us = ev.at.as_micros();
            let idx = if at_us < ring_start {
                cursor
            } else {
                (cursor + ((at_us - ring_start) / width) as usize) % n
            };
            self.buckets[idx].push(ev);
            self.ring_len += 1;
        }
        self.overflow_min = self.overflow.last().map(ScheduledEvent::key);
    }

    /// Positions the cursor on the earliest nonempty bucket and sorts
    /// it for draining. Returns `false` when nothing is pending. All
    /// the queue's laziness resolves here; afterwards the cursor
    /// bucket's tail is the global `(at, seq)` minimum.
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
            let head = &self.buckets[self.cursor];
            let head_len = head.events.len();
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
                if head.order != BucketOrder::Descending
                    && head_len >= 64
                    && head_len > 8 * (self.len() / self.buckets.len() + 1)
                    && self.pops_since_rebuild >= self.len()
                    && head.events.iter().any(|e| e.at != head.events[0].at)
                {
                    self.rebuild(self.len());
                    continue;
                }
                self.buckets[self.cursor].prepare();
                return true;
            }
            self.advance_cursor();
        }
    }

    /// Schedules `event` to fire at `at`. Events at the same instant fire
    /// in insertion order.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent { at, seq, event });
        self.maybe_grow();
    }

    /// Pre-sizes the ring geometry for `additional` more events, so a
    /// known batch of pushes triggers at most this one re-layout
    /// instead of a cascade of incremental doublings mid-batch.
    pub fn reserve(&mut self, additional: usize) {
        let target = self.len() + additional;
        if target > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(target);
        }
    }

    /// Schedules a batch of events all firing at `at`, in iteration order
    /// (equivalent to pushing each in turn). The whole group resolves
    /// its destination once and lands as a single ascending append run
    /// on one bucket (or the overflow tier) — a group move, not a
    /// per-event search.
    pub fn push_at_many<I: IntoIterator<Item = E>>(&mut self, at: SimTime, events: I) {
        let iter = events.into_iter();
        self.reserve(iter.size_hint().0);
        let at_us = at.as_micros();
        if u128::from(at_us) >= self.horizon() {
            // Sequence stamps ascend within the group, so the tracked
            // minimum needs checking against the first element only —
            // and a group of two or more is itself an ascending run,
            // which always breaks the tier's descending order.
            let mut count = 0usize;
            for event in iter {
                let seq = self.next_seq;
                self.next_seq += 1;
                let ev = ScheduledEvent { at, seq, event };
                if count == 0 {
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
                }
                count += 1;
                self.overflow.push(ev);
            }
            if count > 1 {
                self.overflow_sorted = false;
            }
        } else {
            let idx = self.bucket_index(at_us);
            let mut count = 0usize;
            {
                let next_seq = &mut self.next_seq;
                let bucket = &mut self.buckets[idx];
                for event in iter {
                    let seq = *next_seq;
                    *next_seq += 1;
                    bucket.push(ScheduledEvent { at, seq, event });
                    count += 1;
                }
            }
            self.ring_len += count;
        }
        self.maybe_grow();
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.prepare_head() {
            return None;
        }
        let bucket = &mut self.buckets[self.cursor];
        let ev = bucket.events.pop().expect("prepared bucket is nonempty");
        if bucket.events.is_empty() {
            bucket.order = BucketOrder::Ascending;
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
        self.buckets[self.cursor].events.last().map(|s| s.at)
    }

    /// A reference to the earliest pending event (see
    /// [`EventQueue::peek_time`] for why this takes `&mut self`).
    pub fn peek(&mut self) -> Option<&ScheduledEvent<E>> {
        if !self.prepare_head() {
            return None;
        }
        self.buckets[self.cursor].events.last()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events. Geometry and bucket capacity are
    /// retained for reuse; the sequence counter keeps counting.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.events.clear();
            bucket.order = BucketOrder::Ascending;
        }
        self.overflow.clear();
        self.overflow_sorted = true;
        self.overflow_sorted_once = false;
        self.overflow_min = None;
        self.ring_len = 0;
    }

    /// Number of ring buckets — introspection for tests and benches
    /// (the geometry is an implementation detail with no effect on pop
    /// order).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Current bucket width in microseconds (introspection, like
    /// [`EventQueue::bucket_count`]).
    pub fn bucket_width_micros(&self) -> u64 {
        self.width
    }

    /// Events currently parked in the far-future overflow tier
    /// (introspection, like [`EventQueue::bucket_count`]).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for (at, event) in iter {
            self.push(at, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceEventQueue;

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
    fn collect_and_clear() {
        let mut q: EventQueue<u32> = vec![(SimTime::from_secs(1), 10), (SimTime::ZERO, 20)]
            .into_iter()
            .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 20)));
        q.clear();
        assert!(q.is_empty());
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
        // The announced batch then fits without another re-layout.
        for i in 0..10_000u32 {
            q.push(SimTime::from_micros(u64::from(i)), i);
        }
        assert_eq!(q.bucket_count(), reserved);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
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
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
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
        match kind % 5 {
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
            _ => {
                assert_eq!(q.peek_time(), r.peek_time());
                assert_eq!(q.len(), r.len());
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
        }
        while pop_both(&mut q, &mut r) {}
    }

    /// A queue pre-sized before it saw any event has no span to tune
    /// its width from, so an hour of seeded arrivals lands mostly past
    /// its ring. Interleaving pops with near (200 ms) and far (10 min)
    /// follow-up pushes — the event-loop shape — must still pop exactly
    /// the heap's order, and the queue must re-lay out instead of
    /// keeping the trace parked in its overflow tier.
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
        while let Some(head) = q.peek().map(|e| (e.at, e.seq, e.event)) {
            let reference = r.peek().map(|e| (e.at, e.seq, e.event));
            assert_eq!(Some(head), reference);
            assert_eq!(q.pop(), r.pop());
            popped += 1;
            let (at, _, payload) = head;
            // Only arrivals schedule follow-ups, so the run drains.
            if payload < ARRIVALS {
                let near = at + crate::time::SimDuration::from_millis(200);
                q.push(near, ARRIVALS + payload);
                r.push(near, ARRIVALS + payload);
                if payload.is_multiple_of(8) {
                    let far = at + crate::time::SimDuration::from_mins(10);
                    q.push(far, 2 * ARRIVALS + payload);
                    r.push(far, 2 * ARRIVALS + payload);
                }
            }
            if popped == ARRIVALS / 2 {
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
    /// calendar path (clamp, wraparound, overflow, rebuild) is crossed
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
        // of pushes (single and grouped), pops and peeks over
        // wildly mixed time scales, the calendar queue's observable
        // behavior is exactly the retired heap's.
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
    }
}
