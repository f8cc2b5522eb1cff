//! RAII timing spans with a thread-local nesting stack.
//!
//! `Span::enter(kind)` starts a span; dropping the guard records it into
//! the global ring and the per-kind latency histogram. Nesting depth is
//! tracked per thread, so exporters can rebuild each thread's span tree
//! (Chrome's `trace_event` viewer does it by timestamp containment).
//!
//! The disabled path is the contract the whole stack relies on: when
//! recording is off, `enter` is one relaxed atomic load and the guard
//! drop is a `None` check — cheap enough to leave in every hot path
//! (10 ns per disabled span against 254 ns enabled, EXPERIMENTS.md
//! "Retired baselines").

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::Histogram;
use crate::ring::{Record, SpanRecord};

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Each span kind's histogram, resolved once per thread, so a span's
    /// drop takes no registry lock. Keyed by the kind's address and
    /// length: a kind met at two addresses resolves twice, to the same
    /// histogram. `reset` zeroes histograms in place, so held ones stay
    /// the registered ones.
    static HISTOGRAMS: RefCell<Vec<(*const u8, usize, Arc<Histogram>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Records `dur_ns` into `kind`'s histogram through this thread's handle.
fn record_duration(kind: &'static str, dur_ns: u64) {
    let key = (kind.as_ptr(), kind.len());
    let recorded = HISTOGRAMS.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache.iter().find(|(p, n, _)| (*p, *n) == key) {
            Some((.., h)) => h.record(dur_ns),
            None => {
                let h = crate::histogram(kind);
                h.record(dur_ns);
                cache.push((key.0, key.1, h));
            }
        }
    });
    if recorded.is_err() {
        // The thread is exiting and its cache is gone: ask the registry.
        crate::histogram(kind).record(dur_ns);
    }
}

/// The dense id assigned to the calling thread on first use.
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

struct ActiveSpan {
    kind: &'static str,
    start_ns: u64,
    depth: u32,
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
}

/// A live span; records itself when dropped.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Enters a span of `kind`. When recording is disabled this is a
    /// single relaxed atomic load and the returned guard is inert.
    #[inline]
    pub fn enter(kind: &'static str) -> Span {
        if !crate::is_enabled() {
            return Span { active: None };
        }
        Span::enter_cold(kind)
    }

    #[cold]
    fn enter_cold(kind: &'static str) -> Span {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let (trace_id, span_id, parent_span_id) = crate::trace::begin_span();
        Span {
            active: Some(ActiveSpan {
                kind,
                start_ns: crate::now_ns(),
                depth,
                trace_id,
                span_id,
                parent_span_id,
            }),
        }
    }

    /// True when this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        crate::trace::end_span(active.span_id);
        // Same clock as `start_ns`, so a parent's end can never precede
        // a nested child's end no matter how the threads are scheduled.
        let dur_ns = crate::now_ns().saturating_sub(active.start_ns);
        record_duration(active.kind, dur_ns);
        crate::recorder().push(Record::Span(SpanRecord {
            kind: active.kind,
            start_ns: active.start_ns,
            dur_ns,
            tid: thread_id(),
            depth: active.depth,
            trace_id: active.trace_id,
            span_id: active.span_id,
            parent_span_id: active.parent_span_id,
            node: crate::trace::current_node(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global recorder state is shared across the whole test binary; the
    // lib-level lock keeps these tests and the exporter tests apart.
    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        crate::reset();
        {
            let s = Span::enter("call");
            assert!(!s.is_recording());
        }
        assert_eq!(crate::recorder().pushed(), 0);
    }

    #[test]
    fn nested_spans_carry_depth_and_close_inner_first() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let _outer = Span::enter("call");
            let _inner = Span::enter("serialize");
        }
        crate::set_enabled(false);
        let records = crate::recorder().snapshot();
        let spans: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2);
        // Inner drops (and records) first.
        assert_eq!(spans[0].kind, "serialize");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].kind, "call");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[0].tid, spans[1].tid);
        assert!(spans[0].start_ns >= spans[1].start_ns);
        assert!(crate::histogram("call").count() >= 1);
        // The inner span is causally linked under the outer one.
        assert_ne!(spans[1].span_id, 0);
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        assert_eq!(spans[0].parent_span_id, spans[1].span_id);
        assert_eq!(spans[1].parent_span_id, 0);
    }

    #[test]
    fn depth_recovers_after_unbalanced_drop_order() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        let a = Span::enter("call");
        let b = Span::enter("serialize");
        drop(a); // wrong order on purpose
        drop(b);
        crate::set_enabled(false);
        // Depth underflow must not panic and the counter must be back at 0.
        let _fresh = {
            crate::set_enabled(true);
            let s = Span::enter("dispatch");
            crate::set_enabled(false);
            s
        };
        assert!(DEPTH.with(|d| d.get()) <= 1);
    }
}
