//! The deterministic event queue at the heart of the simulator.
//!
//! Events scheduled for the same instant are popped in the order they were
//! pushed (FIFO tie-breaking via a monotone sequence number), which is what
//! makes whole-system runs reproducible across platforms.
//!
//! [`EventQueue`] is the standard library's binary heap over the total
//! order `(time, seq)`. A platform run streams its arrivals from the
//! trace instead of seeding them, so the queue holds only the live
//! frontier: execution timers, keep-alive checks, the policy tick and
//! fault-plan instants. That frontier peaks at a few thousand events
//! (DESIGN §10 lists it per workload), where an O(log n) heap is all the
//! structure the event loop needs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event with its firing time and insertion sequence.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) event surfaces first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
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
    heap: BinaryHeap<Entry<E>>,
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
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`. Events at the same instant fire
    /// in insertion order.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Drain well past the origin, then push at the origin: the
        // "past" event pops before everything pending — the queue is a
        // priority queue, never a conveyor belt.
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
    fn churn_reuses_freed_slots() {
        // A pop-one/push-one hold streams 100k events through a
        // 1k-event frontier; the queue's storage must follow the
        // pending population, not the events streamed.
        const HOLD: u64 = 1_000;
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..HOLD {
            q.push(SimTime::from_micros(i * 997 % 50_000), i);
        }
        let capacity = q.heap.capacity();
        for i in 0..100_000u64 {
            let (at, ev) = q.pop().expect("the hold never drains");
            q.push(at + SimDuration::from_micros(1 + i * 7_919 % 50_000), ev);
        }
        assert_eq!(q.heap.capacity(), capacity);
    }

    /// The naive model the queue is raced against: a `Vec` of
    /// `(time, payload)` in push order, popped by a linear scan for the
    /// first minimum time. A strict `<` keeps the earliest-pushed event
    /// among equal times, so the scan encodes FIFO tie-breaking without
    /// any sequence number.
    #[derive(Default)]
    struct Model(Vec<(SimTime, u32)>);

    impl Model {
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let mut best = 0;
            for (i, &(at, _)) in self.0.iter().enumerate() {
                if at < self.0[best].0 {
                    best = i;
                }
            }
            (best < self.0.len()).then(|| self.0.remove(best))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.0.iter().map(|&(at, _)| at).min()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        // For arbitrary interleavings of pushes, pops, peeks and
        // drain/refill waves, at times that collide often (so FIFO
        // tie-breaks are exercised) and span µs to 100 s, the queue
        // behaves exactly like the naive model.
        #[test]
        fn prop_matches_vec_model(
            ops in proptest::collection::vec(
                (0u8..6, 0u64..1_000, 0u8..3, 0u32..1_000),
                0..250,
            )
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut m = Model::default();
            for &(kind, t, scale, payload) in &ops {
                let at = SimTime::from_micros(t * [1, 1_000, 100_000][usize::from(scale)]);
                match kind {
                    0 | 1 => {
                        q.push(at, payload);
                        m.0.push((at, payload));
                    }
                    2 | 3 => proptest::prop_assert_eq!(q.pop(), m.pop()),
                    4 => proptest::prop_assert_eq!(q.peek_time(), m.peek_time()),
                    _ => {
                        // A wave: drain dry, then refill out of time
                        // order, up to eight events to an instant.
                        while let Some(popped) = m.pop() {
                            proptest::prop_assert_eq!(q.pop(), Some(popped));
                        }
                        for j in 0..payload % 64 {
                            let at = at + SimDuration::from_micros(u64::from(j % 8) * 500);
                            q.push(at, j);
                            m.0.push((at, j));
                        }
                    }
                }
                proptest::prop_assert_eq!(q.len(), m.0.len());
                proptest::prop_assert_eq!(q.is_empty(), m.0.is_empty());
            }
            while let Some(popped) = m.pop() {
                proptest::prop_assert_eq!(q.pop(), Some(popped));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }

    proptest::proptest! {
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
