//! Zero steady-state allocation on the event hot path (ISSUE 10).
//!
//! The calendar queue reuses run-long buffers, so once a workload's
//! geometry has settled, a pop-one/push-one churn and a grouped
//! push/drain cycle must perform **zero** heap allocations. A
//! counting global allocator measures exactly that: warm the structure
//! through several full cycles at the identical operation mix, switch
//! the counter on, run the same mix again, and assert the count stayed
//! at zero.
//!
//! One `#[test]` drives every scenario — the counter is process-global,
//! so concurrent test threads would attribute each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use faasmem_sim::{EventQueue, SimDuration, SimTime};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many
/// allocations (malloc/calloc/realloc) it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::SeqCst), r)
}

/// Pop-one/push-one hold churn: the event-loop shape. Deterministic
/// deltas, so warmup and measurement run the identical mix.
fn queue_churn(q: &mut EventQueue<u64>, ops: usize) -> u64 {
    let mut acc = 0u64;
    for i in 0..ops {
        let (at, ev) = q.pop().expect("hold population never drains");
        acc = acc.wrapping_add(ev);
        let delta = 500 + (i as u64 % 97) * 31;
        q.push(at + SimDuration::from_micros(delta), ev);
    }
    acc
}

#[test]
fn event_hot_path_allocates_nothing_at_steady_state() {
    // -- Serial calendar queue under hold churn --------------------
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1024);
    for i in 0..1024u64 {
        q.push(SimTime::from_micros(i * 50), i);
    }
    // Warm through several ring laps and any self-tuning re-layouts.
    queue_churn(&mut q, 50_000);
    let (allocs, _) = allocations_during(|| queue_churn(&mut q, 50_000));
    assert_eq!(
        allocs, 0,
        "steady-state EventQueue churn must not allocate (got {allocs} allocations over 50k ops)"
    );

    // -- Grouped same-instant delivery ------------------------------
    // Group moves land on buckets whose capacity the warmup set; the
    // steady loop reuses it.
    fn group_churn(gq: &mut EventQueue<u64>, rounds: usize) {
        for r in 0..rounds {
            let at = SimTime::from_micros(r as u64 * 300);
            gq.push_at_many(at, 0u64..64);
            for _ in 0..64 {
                gq.pop().expect("just pushed");
            }
        }
    }
    let mut gq: EventQueue<u64> = EventQueue::with_capacity(1024);
    group_churn(&mut gq, 2_000);
    let (allocs, _) = allocations_during(|| group_churn(&mut gq, 2_000));
    assert_eq!(
        allocs, 0,
        "steady-state grouped push/drain must not allocate (got {allocs} allocations)"
    );
}
