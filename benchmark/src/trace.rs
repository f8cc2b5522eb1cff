//! The benchmark's own span recorder.
//!
//! Spans are recorded from the driver's side only, around the public
//! calls it makes into the program (value build → call/post/flush/feed/map
//! → verify). Each operation gets one root span whose id its children
//! carry as `op`; spans live in a pre-allocated vector and are written as
//! JSON lines when the run ends. A recorder that is off costs one branch
//! per call site, so the untraced run executes the same driver code.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans one run keeps, over all its caller threads; later spans are
/// counted in `dropped` instead of stored, so a post flood cannot turn
/// the trace into the workload.
pub const SPAN_CAP: usize = 100_000;

#[derive(Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    op: u64,
}

/// Handle of an operation in progress; inert when the recorder is off or
/// full.
pub struct Op {
    id: u64,
    start_ns: u64,
    name: &'static str,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Caller-thread number, kept in the top bits of every id so forked
    /// recorders never collide.
    thread: u64,
    next: u64,
    /// Most spans this recorder may hold.
    cap: usize,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Recorder {
    /// A recorder that records nothing (the untraced run).
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            thread: 0,
            next: 0,
            cap: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording recorder with its span storage allocated up front.
    pub fn on() -> Recorder {
        Recorder {
            on: true,
            epoch: Instant::now(),
            thread: 0,
            next: 0,
            cap: SPAN_CAP,
            spans: Vec::with_capacity(SPAN_CAP),
            dropped: 0,
        }
    }

    /// A recorder for caller thread `thread` (≥ 1) sharing this one's
    /// clock and taking a `1/shares` part of its remaining room; merge it
    /// back with [`Recorder::absorb`].
    pub fn fork(&self, thread: u64, shares: usize) -> Recorder {
        let cap = (self.cap - self.spans.len()) / shares;
        Recorder {
            on: self.on,
            epoch: self.epoch,
            thread,
            // Ids stay unique across the forks one thread makes over time.
            next: self.next,
            cap,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
        self.next = self.next.max(other.next);
    }

    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 48) | self.next
    }

    /// Opens the root span of one operation.
    pub fn op(&mut self, name: &'static str) -> Op {
        // Leave room for the operation's children and its own root.
        let full = self.spans.len() + 8 > self.cap;
        if !self.on || full {
            self.dropped += u64::from(self.on);
            return Op {
                id: 0,
                start_ns: 0,
                name,
            };
        }
        Op {
            id: self.fresh_id(),
            start_ns: self.now_ns(),
            name,
        }
    }

    /// Runs `f` as a child span of `op`.
    pub fn child<T>(&mut self, op: &Op, name: &'static str, f: impl FnOnce() -> T) -> T {
        if op.id == 0 || self.spans.len() + 1 >= self.cap {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.fresh_id();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            id,
            parent: op.id,
            op: op.id,
        });
        out
    }

    /// Closes the operation's root span.
    pub fn end(&mut self, op: Op) {
        if op.id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: op.name,
            start_ns: op.start_ns,
            end_ns,
            id: op.id,
            parent: 0,
            op: op.id,
        });
    }

    /// Writes one JSON object per span, ordered by start time.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{},\"thread\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                s.parent,
                s.op,
                s.id >> 48
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_stores_nothing() {
        let mut rec = Recorder::off();
        let op = rec.op("echo");
        assert_eq!(rec.child(&op, "call", || 7), 7);
        rec.end(op);
        assert_eq!(rec.spans(), 0);
    }

    #[test]
    fn children_point_at_their_operation() {
        let mut rec = Recorder::on();
        let op = rec.op("echo");
        rec.child(&op, "value_build", || ());
        rec.child(&op, "call", || ());
        rec.end(op);
        assert_eq!(rec.spans(), 3);
        let root = rec.spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root.name, "echo");
        assert!(rec.spans.iter().all(|s| s.op == root.id));
        assert!(rec.spans.iter().filter(|s| s.parent == root.id).count() == 2);
    }

    #[test]
    fn full_recorder_counts_drops() {
        let mut rec = Recorder::on();
        for _ in 0..SPAN_CAP {
            let op = rec.op("post");
            rec.child(&op, "po.post", || ());
            rec.end(op);
        }
        assert!(rec.spans() <= SPAN_CAP);
        assert!(rec.dropped() > 0);
    }

    #[test]
    fn forked_ids_do_not_collide() {
        let mut a = Recorder::on();
        let mut b = a.fork(1, 2);
        let oa = a.op("x");
        let ob = b.op("x");
        assert_ne!(oa.id, ob.id);
        a.end(oa);
        b.end(ob);
        a.absorb(b);
        assert_eq!(a.spans(), 2);
    }
}
