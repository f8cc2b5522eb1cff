//! Runtime counters — the observable effect of grain-size adaptation.
//!
//! The ablation benches (E6/E7 in `DESIGN.md`) read these to show how
//! aggregation divides message counts and agglomeration removes remote
//! creations entirely. The counters are [`parc_obs::Counter`]s held
//! per-runtime (each `ParcRuntime` keeps independent totals, which the
//! tests rely on), in contrast to the process-wide registry the obs
//! exporters render; [`RuntimeStats::snapshot`] is the supported way to
//! read them.

use std::sync::Arc;

use parc_obs::Counter;

/// Shared, thread-safe runtime counters. Cloning shares the counters.
#[derive(Clone, Default)]
pub struct RuntimeStats {
    inner: Arc<Counters>,
}

#[derive(Default)]
struct Counters {
    async_calls: Counter,
    sync_calls: Counter,
    messages_sent: Counter,
    batches_sent: Counter,
    calls_in_batches: Counter,
    local_creations: Counter,
    remote_creations: Counter,
    local_fast_path_calls: Counter,
}

/// A point-in-time copy of every runtime counter.
///
/// Plain data: cheap to take, comparable, and printable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Asynchronous (one-way) method calls issued by proxies.
    pub async_calls: u64,
    /// Synchronous (value-returning) method calls issued by proxies.
    pub sync_calls: u64,
    /// Wire messages actually sent (aggregation makes this smaller than
    /// `async_calls + sync_calls`).
    pub messages_sent: u64,
    /// Aggregate messages sent.
    pub batches_sent: u64,
    /// Calls delivered inside aggregate messages.
    pub calls_in_batches: u64,
    /// Parallel objects agglomerated (created locally).
    pub local_creations: u64,
    /// Parallel objects created on a remote node via a factory.
    pub remote_creations: u64,
    /// Calls served by the intra-grain fast path (PO → local IO, Fig. 3
    /// call *b*).
    pub local_fast_path_calls: u64,
}

impl StatsSnapshot {
    /// Mean calls per wire message — the aggregation payoff metric.
    pub fn calls_per_message(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            (self.async_calls + self.sync_calls) as f64 / self.messages_sent as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "async calls        {}", self.async_calls)?;
        writeln!(f, "sync calls         {}", self.sync_calls)?;
        writeln!(f, "messages sent      {}", self.messages_sent)?;
        writeln!(f, "batches sent       {}", self.batches_sent)?;
        writeln!(f, "calls in batches   {}", self.calls_in_batches)?;
        writeln!(f, "local creations    {}", self.local_creations)?;
        writeln!(f, "remote creations   {}", self.remote_creations)?;
        writeln!(f, "local fast-path    {}", self.local_fast_path_calls)?;
        write!(f, "calls/message      {:.2}", self.calls_per_message())
    }
}

impl RuntimeStats {
    /// Creates zeroed counters.
    pub fn new() -> RuntimeStats {
        RuntimeStats::default()
    }

    pub(crate) fn record_async_call(&self) {
        self.inner.async_calls.incr();
    }

    pub(crate) fn record_sync_call(&self) {
        self.inner.sync_calls.incr();
    }

    pub(crate) fn record_message(&self) {
        self.inner.messages_sent.incr();
    }

    pub(crate) fn record_batch(&self, calls: u64) {
        self.inner.batches_sent.incr();
        self.inner.calls_in_batches.add(calls);
        self.record_message();
    }

    pub(crate) fn record_local_creation(&self) {
        self.inner.local_creations.incr();
    }

    pub(crate) fn record_remote_creation(&self) {
        self.inner.remote_creations.incr();
    }

    pub(crate) fn record_local_fast_path(&self) {
        self.inner.local_fast_path_calls.incr();
    }

    /// Takes a consistent-enough copy of every counter (each field is an
    /// atomic read; there is no cross-field lock).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            async_calls: self.inner.async_calls.get(),
            sync_calls: self.inner.sync_calls.get(),
            messages_sent: self.inner.messages_sent.get(),
            batches_sent: self.inner.batches_sent.get(),
            calls_in_batches: self.inner.calls_in_batches.get(),
            local_creations: self.inner.local_creations.get(),
            remote_creations: self.inner.remote_creations.get(),
            local_fast_path_calls: self.inner.local_fast_path_calls.get(),
        }
    }
}

impl std::fmt::Debug for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("RuntimeStats")
            .field("async_calls", &s.async_calls)
            .field("sync_calls", &s.sync_calls)
            .field("messages_sent", &s.messages_sent)
            .field("batches_sent", &s.batches_sent)
            .field("local_creations", &s.local_creations)
            .field("remote_creations", &s.remote_creations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = RuntimeStats::new();
        s.record_async_call();
        s.record_async_call();
        s.record_sync_call();
        s.record_batch(2);
        s.record_message();
        let snap = s.snapshot();
        assert_eq!(snap.async_calls, 2);
        assert_eq!(snap.sync_calls, 1);
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.batches_sent, 1);
        assert_eq!(snap.calls_in_batches, 2);
        assert!((snap.calls_per_message() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let s = RuntimeStats::new();
        let t = s.clone();
        t.record_local_creation();
        t.record_remote_creation();
        t.record_local_fast_path();
        let snap = s.snapshot();
        assert_eq!(snap.local_creations, 1);
        assert_eq!(snap.remote_creations, 1);
        assert_eq!(snap.local_fast_path_calls, 1);
    }

    #[test]
    fn zero_messages_means_zero_ratio() {
        assert_eq!(RuntimeStats::new().snapshot().calls_per_message(), 0.0);
    }

    #[test]
    fn snapshot_displays_every_counter() {
        let s = RuntimeStats::new();
        s.record_async_call();
        s.record_batch(4);
        let text = s.snapshot().to_string();
        assert!(text.contains("async calls"));
        assert!(text.contains("batches sent"));
        assert!(text.contains("calls/message"));
    }
}
