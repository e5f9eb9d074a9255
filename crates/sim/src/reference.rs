//! The retired binary-heap event queue, kept as a correctness oracle.
//!
//! [`ReferenceEventQueue`] is the original `BinaryHeap`-backed
//! implementation that [`EventQueue`](crate::EventQueue) replaced with
//! a calendar-bucket layout. It is deliberately boring: every operation
//! leans on the standard library's heap, so its pop order is easy to
//! trust. Property tests interleave arbitrary operation scripts against
//! both queues and assert identical observable behavior (the same
//! pattern PR 5 used with `ReferencePageTable`), and `bench_queue`
//! races the two to quantify the calendar queue's speedup.
//!
//! Not used on any simulation path — oracle and benchmark baseline only.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::queue::ScheduledEvent;
use crate::time::SimTime;

/// A heap entry ordered so the earliest `(at, seq)` surfaces first from
/// the standard library's max-heap.
#[derive(Debug, Clone)]
struct HeapEntry<E>(ScheduledEvent<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) event surfaces first.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// The original heap-backed time-ordered event queue.
///
/// API-compatible with [`EventQueue`](crate::EventQueue) so oracle
/// tests and `bench_queue` can drive both through the same script.
#[derive(Debug, Clone)]
pub struct ReferenceEventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> Default for ReferenceEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`; same-instant events fire in
    /// insertion order.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(ScheduledEvent { at, seq, event }));
    }

    /// Reserves room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules a batch of events all firing at `at`, in iteration
    /// order.
    pub fn push_at_many<I: IntoIterator<Item = E>>(&mut self, at: SimTime, events: I) {
        let iter = events.into_iter();
        self.heap.reserve(iter.size_hint().0);
        for event in iter {
            self.push(at, event);
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|HeapEntry(s)| (s.at, s.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|HeapEntry(s)| s.at)
    }

    /// A reference to the earliest pending event.
    pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek().map(|HeapEntry(s)| s)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_pops_in_time_then_fifo_order() {
        let mut q = ReferenceEventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(SimTime::from_secs(2), 'z');
        q.push(t, 'a');
        q.push(t, 'b');
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, 'a')));
        assert_eq!(q.pop(), Some((t, 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 'z')));
        assert_eq!(q.pop(), None);
    }
}
