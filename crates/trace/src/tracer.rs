//! The [`Tracer`] handle and the pluggable [`TraceSink`] trait.
//!
//! A `Tracer` is a cheap clonable handle shared by every emitter in a
//! cell (platform, page tables, remote pool). The disabled tracer is a
//! `None` — cloning it is a register copy, [`Tracer::wants`] is one
//! branch, and no allocation ever happens — so simulation code can
//! call into it unconditionally. An enabled tracer stamps each event
//! with the current simulated time and a strictly monotone sequence
//! number, then hands it to the configured sink.
//!
//! Determinism rules:
//! - the stamp is `(sim_time, seq)`; wall-clock never enters an event;
//! - `seq` increments per accepted event, so the pair is a total order
//!   over a cell's events no matter how many emitters interleave;
//! - a tracer is confined to the thread running its cell (`Rc`), and
//!   only drained `Vec<TraceEvent>`s cross thread boundaries, so the
//!   event stream for a cell is independent of `--jobs`.

use crate::event::{EventKind, LayerMask, TraceEvent, TraceLayer};
use faasmem_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Destination for stamped events.
pub trait TraceSink {
    /// Accepts one stamped event.
    fn record(&mut self, event: TraceEvent);

    /// Hands back buffered events, if this sink buffers any. Streaming
    /// sinks return an empty vec.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// Buffers every event in memory, unbounded. The harness uses one per
/// cell and drains it into the cell outcome.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Vec<TraceEvent>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

struct TracerInner {
    now: SimTime,
    seq: u64,
    mask: LayerMask,
    sink: Box<dyn TraceSink>,
}

/// Shared emission handle. Clones share one clock, one sequence
/// counter and one sink, which is exactly what makes `(sim_time, seq)`
/// a total order across interleaved emitters.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TracerInner>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => {
                let inner = inner.borrow();
                f.debug_struct("Tracer")
                    .field("now", &inner.now)
                    .field("seq", &inner.seq)
                    .field("mask", &inner.mask)
                    .finish_non_exhaustive()
            }
        }
    }
}

impl Tracer {
    /// The zero-cost disabled tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer buffering events in memory ([`BufferSink`]).
    pub fn recording(mask: LayerMask) -> Tracer {
        Tracer::with_sink(mask, Box::new(BufferSink::new()))
    }

    /// An enabled tracer feeding `sink`, filtered to `mask`.
    pub fn with_sink(mask: LayerMask, sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TracerInner {
                now: SimTime::ZERO,
                seq: 0,
                mask,
                sink,
            }))),
        }
    }

    /// Whether any events can be emitted at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `layer` events would be accepted. Emitters use this to
    /// skip payload computation when tracing is off or filtered.
    pub fn wants(&self, layer: TraceLayer) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.borrow().mask.contains(layer),
        }
    }

    /// Advances the stamp clock. The platform calls this once per
    /// dispatched simulation event; emitters without clock access
    /// (page tables, the pool) inherit the stamp. No-op when disabled.
    pub fn set_now(&self, now: SimTime) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            debug_assert!(
                now >= inner.now,
                "trace clock moved backwards: {:?} -> {now:?}",
                inner.now
            );
            inner.now = now;
        }
    }

    /// The current stamp clock (ZERO when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            None => SimTime::ZERO,
            Some(inner) => inner.borrow().now,
        }
    }

    /// Stamps and records one event, if the tracer is enabled and the
    /// kind's layer passes the filter.
    pub fn emit(&self, container: Option<u64>, request: Option<u64>, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            if !inner.mask.contains(kind.layer()) {
                return;
            }
            let event = TraceEvent {
                time: inner.now,
                seq: inner.seq,
                container,
                request,
                kind,
            };
            inner.seq += 1;
            inner.sink.record(event);
        }
    }

    /// Drains buffered events from the sink (empty for streaming
    /// sinks or when disabled).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.borrow_mut().sink.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kinds_by_layer(layer: TraceLayer) -> EventKind {
        match layer {
            TraceLayer::Harness => EventKind::CellEnd {
                requests: 0,
                sim_secs: 0.0,
            },
            TraceLayer::Container => EventKind::RuntimeLoaded,
            TraceLayer::Memory => EventKind::MemOffload { pages: 1 },
            TraceLayer::Pool => EventKind::BreakerOpen,
        }
    }

    #[test]
    fn disabled_tracer_accepts_everything_silently() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        for layer in TraceLayer::ALL {
            assert!(!tracer.wants(layer));
            tracer.emit(None, None, kinds_by_layer(layer));
        }
        tracer.set_now(SimTime::from_secs(5));
        assert_eq!(tracer.now(), SimTime::ZERO);
        assert!(tracer.take_events().is_empty());
    }

    #[test]
    fn clones_share_clock_and_sequence() {
        let tracer = Tracer::recording(LayerMask::ALL);
        let table_view = tracer.clone();
        let pool_view = tracer.clone();
        tracer.set_now(SimTime::from_micros(10));
        table_view.emit(Some(1), None, EventKind::MemOffload { pages: 4 });
        pool_view.emit(
            Some(1),
            None,
            EventKind::PoolPageOut {
                bytes: 16384,
                stall_us: 3,
                queued_us: 0,
            },
        );
        tracer.set_now(SimTime::from_micros(20));
        tracer.emit(None, Some(7), EventKind::RuntimeLoaded);
        let events = tracer.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].time, SimTime::from_micros(10));
        assert_eq!(events[1].time, SimTime::from_micros(10));
        assert_eq!(events[2].time, SimTime::from_micros(20));
        // Drained once; the buffer is now empty.
        assert!(tracer.take_events().is_empty());
    }

    #[test]
    fn layer_filter_drops_without_consuming_sequence_numbers() {
        let tracer = Tracer::recording(LayerMask::only(TraceLayer::Pool));
        assert!(tracer.wants(TraceLayer::Pool));
        assert!(!tracer.wants(TraceLayer::Memory));
        tracer.emit(None, None, EventKind::MemOffload { pages: 9 });
        tracer.emit(None, None, EventKind::BreakerOpen);
        tracer.emit(
            None,
            None,
            EventKind::AccessScan {
                live: 1,
                accessed: 1,
            },
        );
        tracer.emit(None, None, EventKind::BreakerClose);
        let events = tracer.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::BreakerOpen);
        assert_eq!(events[1].kind, EventKind::BreakerClose);
        // Filtered events must not burn sequence numbers, or the
        // stream would betray the filter setting.
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
    }

    proptest! {
        // Under any interleaving of emitters (modelled as a sequence of
        // (emitter, clock-advance) choices), the stamped `(sim_time, seq)`
        // pairs form a strict total order: no duplicates, and sorting by
        // the pair reproduces emission order exactly.
        #[test]
        fn stamp_order_is_total_under_interleaving(
            steps in proptest::collection::vec((0u8..4, 0u64..3), 1..200)
        ) {
            let tracer = Tracer::recording(LayerMask::ALL);
            let emitters: Vec<Tracer> = (0..4).map(|_| tracer.clone()).collect();
            let mut now = 0u64;
            for &(who, advance) in &steps {
                now += advance; // clock is monotone but often stalls
                tracer.set_now(SimTime::from_micros(now));
                let kind = kinds_by_layer(TraceLayer::ALL[who as usize]);
                emitters[who as usize].emit(Some(u64::from(who)), None, kind);
            }
            let events = tracer.take_events();
            prop_assert_eq!(events.len(), steps.len());
            let keys: Vec<(u64, u64)> = events.iter().map(TraceEvent::key).collect();
            // Strictly increasing in emission order: total order with no ties.
            for pair in keys.windows(2) {
                prop_assert!(pair[0] < pair[1], "not strictly ordered: {:?}", pair);
            }
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted, keys);
        }
    }
}
