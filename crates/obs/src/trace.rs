//! Causal trace identity: trace/span ids, the per-thread context stack,
//! and node tagging for cross-node trace assembly.
//!
//! Every recorded span carries a `trace_id` (shared by every span of one
//! causal chain, however many nodes it crosses), its own `span_id`, and
//! its parent's `span_id`. Parents come from a thread-local context
//! stack: entering a span pushes a frame, dropping it pops that frame by
//! id (robust to unbalanced drop order). A transport that ships a call to
//! another thread or node captures [`current`] at send time and installs
//! it on the serving thread with [`with_remote_parent`], which is what
//! stitches the server's `dispatch` span under the client's send span.
//!
//! Node identity is a small interned id ([`node_id`]) with a process-wide
//! default ([`set_process_node`]) and a thread-scoped override
//! ([`enter_node_id`]) for in-process "clusters" where one OS process
//! hosts many logical nodes (the inproc transport's endpoints). Records
//! made outside any node scope carry [`NODE_UNSET`] and render as the
//! `client` process in merged traces.
//!
//! Cost contract: with recording disabled, [`current`] is exactly one
//! relaxed atomic load; the span path adds nothing beyond what
//! [`crate::Span::enter`] already paid.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Node tag of records made outside any node scope (rendered `client`).
pub const NODE_UNSET: u32 = u32::MAX;

/// The caller context a transport carries across the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Id shared by every span of one causal chain.
    pub trace_id: u64,
    /// The span the receiver's work is a child of.
    pub span_id: u64,
    /// Sampling word (bit 0: sampled). Reserved for future policies;
    /// senders currently always set 1.
    pub sampling: u64,
}

// ---- id generation -----------------------------------------------------

static SEED: OnceLock<u64> = OnceLock::new();
static COUNTER: AtomicU64 = AtomicU64::new(1);

/// SplitMix64 finalizer — enough mixing that ids from two processes
/// started in the same nanosecond still diverge after a few draws.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh process-unique, non-zero 64-bit id (0 means "no id" on the
/// wire and in records).
pub fn next_id() -> u64 {
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        mix(nanos ^ (u64::from(std::process::id()) << 32) ^ 0x9e37_79b9_7f4a_7c15)
    });
    let id = mix(seed.wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed)));
    if id == 0 {
        1
    } else {
        id
    }
}

// ---- the per-thread context stack --------------------------------------

#[derive(Clone, Copy)]
struct Frame {
    trace_id: u64,
    span_id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Thread-scoped node override; [`NODE_UNSET`] falls through to the
    /// process default.
    static NODE: Cell<u32> = const { Cell::new(NODE_UNSET) };
}

/// Begins a span: picks the parent from the stack top (or mints a fresh
/// trace at the root), pushes the new frame, and returns
/// `(trace_id, span_id, parent_span_id)`. Only called while recording.
pub(crate) fn begin_span() -> (u64, u64, u64) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (trace_id, parent) = match s.last() {
            Some(f) => (f.trace_id, f.span_id),
            None => (next_id(), 0),
        };
        let span_id = next_id();
        s.push(Frame { trace_id, span_id });
        (trace_id, span_id, parent)
    })
}

/// Ends a span by id — searched from the top so unbalanced drop order
/// (guards moved across scopes) cannot corrupt the stack.
pub(crate) fn end_span(span_id: u64) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|f| f.span_id == span_id) {
            s.remove(pos);
        }
    });
}

/// The calling thread's innermost live context, or `None` when recording
/// is disabled or no span is open. Disabled cost: one relaxed load.
#[inline]
pub fn current() -> Option<TraceContext> {
    if !crate::is_enabled() {
        return None;
    }
    current_cold()
}

#[cold]
fn current_cold() -> Option<TraceContext> {
    STACK.with(|s| {
        s.borrow().last().map(|f| TraceContext {
            trace_id: f.trace_id,
            span_id: f.span_id,
            sampling: 1,
        })
    })
}

/// Scope guard installing a remote caller's context as the parent of
/// every span the thread opens while it lives. See [`with_remote_parent`].
#[must_use = "the remote parent is only installed while the guard lives"]
pub struct RemoteParentGuard {
    span_id: Option<u64>,
}

/// Installs `ctx` (captured on the sending side with [`current`]) as the
/// thread's parent context for the duration of the returned guard. A
/// `None` context, or disabled recording, yields an inert guard — server
/// paths call this unconditionally.
pub fn with_remote_parent(ctx: Option<TraceContext>) -> RemoteParentGuard {
    let Some(ctx) = ctx else {
        return RemoteParentGuard { span_id: None };
    };
    if !crate::is_enabled() || ctx.span_id == 0 {
        return RemoteParentGuard { span_id: None };
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame { trace_id: ctx.trace_id, span_id: ctx.span_id });
    });
    RemoteParentGuard { span_id: Some(ctx.span_id) }
}

impl Drop for RemoteParentGuard {
    fn drop(&mut self) {
        if let Some(id) = self.span_id {
            end_span(id);
        }
    }
}

// ---- node identity -----------------------------------------------------

static PROCESS_NODE: AtomicU32 = AtomicU32::new(NODE_UNSET);
static NODE_NAMES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();

fn node_names_table() -> &'static Mutex<Vec<String>> {
    NODE_NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Interns `name` and returns its small stable id (first come, first
/// numbered). Takes a lock — intern once and keep the id on hot paths.
pub fn node_id(name: &str) -> u32 {
    let mut table = node_names_table().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(i) = table.iter().position(|n| n == name) {
        return i as u32;
    }
    table.push(name.to_string());
    (table.len() - 1) as u32
}

/// The interned name behind `id`, if any ([`NODE_UNSET`] has none).
pub fn node_name(id: u32) -> Option<String> {
    node_names_table()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(id as usize)
        .cloned()
}

/// Sets the process-wide default node identity (single-node-per-process
/// deployments; threads without an override record under it).
pub fn set_process_node(name: &str) {
    let id = node_id(name);
    PROCESS_NODE.store(id, Ordering::Relaxed);
}

/// The node id the calling thread records under right now.
#[inline]
pub fn current_node() -> u32 {
    let over = NODE.with(Cell::get);
    if over != NODE_UNSET {
        over
    } else {
        PROCESS_NODE.load(Ordering::Relaxed)
    }
}

/// Scope guard for a thread-level node override. See [`enter_node_id`].
#[must_use = "the node identity is only installed while the guard lives"]
pub struct NodeGuard {
    prev: u32,
}

/// Installs `id` (from [`node_id`]) as the calling thread's node identity
/// until the guard drops. Dispatch workers serving a logical node wrap
/// each invocation in one of these so the spans it records are stamped
/// with the serving node, not the worker's process default.
pub fn enter_node_id(id: u32) -> NodeGuard {
    NodeGuard { prev: NODE.with(|n| n.replace(id)) }
}

impl Drop for NodeGuard {
    fn drop(&mut self) {
        NODE.with(|n| n.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "id collision");
        }
    }

    #[test]
    fn current_is_none_when_disabled_or_idle() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        assert_eq!(current(), None);
        crate::set_enabled(true);
        assert_eq!(current(), None, "no open span, no context");
        crate::set_enabled(false);
    }

    #[test]
    fn nested_spans_share_a_trace_and_chain_parents() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let (t1, s1, p1) = begin_span();
        let (t2, s2, p2) = begin_span();
        assert_eq!(p1, 0, "root span has no parent");
        assert_eq!(t1, t2, "children inherit the trace id");
        assert_eq!(p2, s1, "parent is the enclosing span");
        let ctx = current().expect("open span yields a context");
        assert_eq!((ctx.trace_id, ctx.span_id), (t2, s2));
        end_span(s1); // out of order on purpose
        end_span(s2);
        assert_eq!(current(), None);
        crate::set_enabled(false);
    }

    #[test]
    fn remote_parent_guard_installs_and_removes_the_frame() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let ctx = TraceContext { trace_id: 77, span_id: 88, sampling: 1 };
        {
            let _g = with_remote_parent(Some(ctx));
            let (t, _s, p) = begin_span();
            assert_eq!(t, 77);
            assert_eq!(p, 88);
            end_span(_s);
        }
        assert_eq!(current(), None);
        let _inert = with_remote_parent(None);
        assert_eq!(current(), None);
        crate::set_enabled(false);
    }

    #[test]
    fn node_interning_is_stable_and_scoped() {
        let a = node_id("trace-test-node-a");
        let b = node_id("trace-test-node-b");
        assert_ne!(a, b);
        assert_eq!(node_id("trace-test-node-a"), a);
        assert_eq!(node_name(a).as_deref(), Some("trace-test-node-a"));
        let before = current_node();
        {
            let _g = enter_node_id(a);
            assert_eq!(current_node(), a);
            {
                let _h = enter_node_id(b);
                assert_eq!(current_node(), b);
            }
            assert_eq!(current_node(), a);
        }
        assert_eq!(current_node(), before);
    }
}
