//! Retained memory of the event queue on a cluster-shaped frontier.
//!
//! A platform run queues only its live frontier: execution timers a few
//! seconds out, a keep-alive check ten minutes out per finished request,
//! and same-instant bursts. Over an hour that frontier settles near 6.5k
//! pending events while hundreds of thousands stream through. The
//! calendar queue's bytes must follow the pending population the way the
//! binary heap's do, not the number of events its buckets ever held.

use faasmem_sim::{EventQueue, ReferenceEventQueue, SimDuration, SimTime};

/// A payload shaped like the platform's events: container-indexed
/// timers plus a periodic tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Exec(u64),
    KeepAlive(u64),
    Tick,
    Burst(u64),
}

/// Containers cycling through execution timers.
const CONTAINERS: u64 = 64;
/// Events of each same-instant burst.
const BURST: u64 = 64;

#[test]
fn calendar_retains_at_most_twice_the_heap_bytes() {
    let mut state = 0x5EED_F00D_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut r: ReferenceEventQueue<Ev> = ReferenceEventQueue::new();
    let push = |q: &mut EventQueue<Ev>, r: &mut ReferenceEventQueue<Ev>, at, ev| {
        q.push(at, ev);
        r.push(at, ev);
    };
    for c in 0..CONTAINERS {
        push(&mut q, &mut r, SimTime::from_millis(c * 97), Ev::Exec(c));
    }
    push(&mut q, &mut r, SimTime::from_secs(1), Ev::Tick);

    let end = SimTime::from_secs(3_600);
    let (mut cal_bytes, mut heap_bytes, mut pending) = (0, 0, 0);
    while let Some((now, ev)) = q.pop() {
        assert_eq!(
            r.pop(),
            Some((now, ev)),
            "the calendar left the heap's order"
        );
        match ev {
            // A finished request re-arms its container's execution
            // timer and schedules the keep-alive check.
            Ev::Exec(c) if now < end => {
                let exec = SimDuration::from_millis(3_000 + next() % 6_000);
                push(&mut q, &mut r, now + exec, Ev::Exec(c));
                push(
                    &mut q,
                    &mut r,
                    now + SimDuration::from_mins(10),
                    Ev::KeepAlive(c),
                );
            }
            Ev::Tick if now < end => {
                for b in 0..BURST {
                    push(
                        &mut q,
                        &mut r,
                        now + SimDuration::from_millis(1),
                        Ev::Burst(b),
                    );
                }
                push(&mut q, &mut r, now + SimDuration::from_secs(1), Ev::Tick);
            }
            _ => {}
        }
        pending = pending.max(q.len());
        cal_bytes = cal_bytes.max(q.allocated_bytes());
        heap_bytes = heap_bytes.max(r.allocated_bytes());
    }
    assert!(r.is_empty());
    assert!(
        (6_000..7_000).contains(&pending),
        "frontier peaked at {pending} pending events"
    );
    assert!(
        cal_bytes <= 2 * heap_bytes,
        "calendar retained {cal_bytes} B against the heap's {heap_bytes} B"
    );
}
