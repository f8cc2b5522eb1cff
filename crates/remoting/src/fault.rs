//! Deterministic fault injection for the channel layer.
//!
//! A [`FaultPlan`] is a seeded schedule of channel-level faults: every
//! call or post that flows through a [`ChaosChannel`] consumes one slot
//! in the plan, and the plan's SplitMix64 stream decides whether that
//! slot drops, delays, duplicates, truncates or corrupts the frame — or
//! kills the connection outright at a chosen call index. Same seed, same
//! spec, same call sequence → byte-identical injection trace, which is
//! what makes chaos tests replayable and lets `scripts/verify.sh` assert
//! trace equality across runs.
//!
//! The plan is reusable from two places:
//!
//! * tests construct one directly ([`FaultPlan::new`]) and wrap any
//!   channel in a [`ChaosChannel`];
//! * `PARC_CHAOS=<seed>:<spec>` arms a process-global plan that the
//!   inproc and TCP channel providers consult when opening channels
//!   ([`FaultPlan::from_env`] / [`wrap_if_chaotic`]).
//!
//! The spec grammar is a comma-separated list of clauses:
//!
//! ```text
//! drop=0.1,delay=0.2:5,dup=0.05,truncate=0.01,corrupt=0.01,kill@25
//! ```
//!
//! where probabilities are per-message, `delay=<p>:<ms>` sleeps `ms`
//! milliseconds, and `kill@<n>` kills the connection at message index
//! `n` (0-based). Unknown clauses are ignored.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parc_sync::Mutex;

use crate::channel::ClientChannel;
use crate::error::RemotingError;
use crate::message::{CallMessage, ReturnMessage};
use crate::retry::SplitMix64;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is silently discarded (a call sees a transport error, a
    /// post is lost).
    Drop,
    /// The frame is delivered after the given delay in milliseconds.
    Delay(u64),
    /// The frame is delivered twice.
    Duplicate,
    /// The frame arrives cut short; it cannot decode.
    Truncate,
    /// The frame arrives with flipped bytes; it cannot decode.
    Corrupt,
    /// The connection dies; this and every later frame on it fails.
    Kill,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Delay(ms) => write!(f, "delay:{ms}"),
            FaultKind::Duplicate => write!(f, "dup"),
            FaultKind::Truncate => write!(f, "truncate"),
            FaultKind::Corrupt => write!(f, "corrupt"),
            FaultKind::Kill => write!(f, "kill"),
        }
    }
}

/// Per-message fault probabilities plus the optional kill index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is delayed.
    pub delay: f64,
    /// How long a delayed message sleeps, in milliseconds.
    pub delay_ms: u64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message is truncated.
    pub truncate: f64,
    /// Probability a message is corrupted.
    pub corrupt: f64,
    /// Message index (0-based) at which the connection is killed.
    pub kill_at: Option<u64>,
}

impl FaultSpec {
    /// Parses the spec grammar described in the module docs. Unknown
    /// clauses and malformed values are ignored rather than fatal, so a
    /// typo in `PARC_CHAOS` degrades to "fewer faults", never a panic.
    pub fn parse(spec: &str) -> FaultSpec {
        let mut out = FaultSpec::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if let Some(idx) = clause.strip_prefix("kill@") {
                if let Ok(n) = idx.parse::<u64>() {
                    out.kill_at = Some(n);
                }
                continue;
            }
            let Some((key, value)) = clause.split_once('=') else { continue };
            match key.trim() {
                "drop" => {
                    if let Ok(p) = value.parse::<f64>() {
                        out.drop = p.clamp(0.0, 1.0);
                    }
                }
                "delay" => {
                    let (p, ms) = match value.split_once(':') {
                        Some((p, ms)) => (p, ms.parse::<u64>().unwrap_or(1)),
                        None => (value, 1),
                    };
                    if let Ok(p) = p.parse::<f64>() {
                        out.delay = p.clamp(0.0, 1.0);
                        out.delay_ms = ms;
                    }
                }
                "dup" => {
                    if let Ok(p) = value.parse::<f64>() {
                        out.duplicate = p.clamp(0.0, 1.0);
                    }
                }
                "truncate" => {
                    if let Ok(p) = value.parse::<f64>() {
                        out.truncate = p.clamp(0.0, 1.0);
                    }
                }
                "corrupt" => {
                    if let Ok(p) = value.parse::<f64>() {
                        out.corrupt = p.clamp(0.0, 1.0);
                    }
                }
                _ => {}
            }
        }
        out
    }
}

struct PlanState {
    rng: SplitMix64,
    index: u64,
    trace: Vec<(u64, FaultKind)>,
}

/// A seeded, replayable schedule of faults. Thread-safe; every message
/// that consults the plan advances one global message index.
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    /// Builds a plan from a seed and spec.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            seed,
            spec,
            state: Mutex::new(PlanState {
                rng: SplitMix64::new(seed),
                index: 0,
                trace: Vec::new(),
            }),
        }
    }

    /// Parses a `PARC_CHAOS`-style `<seed>:<spec>` string; a bare number
    /// is a seed with no probabilistic faults (useful with `kill@`-only
    /// specs the other way round: `0:kill@10`).
    pub fn parse(text: &str) -> Option<FaultPlan> {
        let text = text.trim();
        if text.is_empty() {
            return None;
        }
        let (seed_text, spec_text) = match text.split_once(':') {
            Some((s, rest)) => (s, rest),
            None => (text, ""),
        };
        let seed = seed_text.trim().parse::<u64>().ok()?;
        Some(FaultPlan::new(seed, FaultSpec::parse(spec_text)))
    }

    /// The process-global plan armed by `PARC_CHAOS`, if any. Parsed
    /// once; every channel the providers open shares it (and therefore
    /// one global message index).
    pub fn from_env() -> Option<&'static Arc<FaultPlan>> {
        static PLAN: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
        PLAN.get_or_init(|| {
            std::env::var("PARC_CHAOS").ok().and_then(|v| FaultPlan::parse(&v)).map(Arc::new)
        })
        .as_ref()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws the fault (if any) for the next message. Advances the
    /// message index, records injections in the trace, and counts them
    /// in parc-obs.
    pub fn next_fault(&self) -> Option<FaultKind> {
        let mut state = self.state.lock();
        let index = state.index;
        state.index += 1;
        let fault = if self.spec.kill_at == Some(index) {
            Some(FaultKind::Kill)
        } else {
            let draw = state.rng.next_f64();
            let s = &self.spec;
            let mut floor = 0.0;
            let mut pick = None;
            for (p, kind) in [
                (s.drop, FaultKind::Drop),
                (s.delay, FaultKind::Delay(s.delay_ms)),
                (s.duplicate, FaultKind::Duplicate),
                (s.truncate, FaultKind::Truncate),
                (s.corrupt, FaultKind::Corrupt),
            ] {
                if draw < floor + p {
                    pick = Some(kind);
                    break;
                }
                floor += p;
            }
            pick
        };
        if let Some(kind) = fault {
            state.trace.push((index, kind));
            drop(state);
            parc_obs::counter(parc_obs::kinds::FAULT_INJECTED).incr();
            parc_obs::event(parc_obs::kinds::FAULT_INJECTED, || {
                format!("kind={kind} index={index}")
            });
        }
        fault
    }

    /// Messages the plan has seen so far.
    pub fn messages_seen(&self) -> u64 {
        self.state.lock().index
    }

    /// The injection trace so far: `(message index, fault)` pairs in
    /// injection order.
    pub fn trace(&self) -> Vec<(u64, FaultKind)> {
        self.state.lock().trace.clone()
    }

    /// The trace as a canonical string (`"3:drop 10:kill"`) — handy for
    /// same-seed equality assertions in tests and CI.
    pub fn trace_string(&self) -> String {
        let state = self.state.lock();
        let mut out = String::new();
        for (i, (index, kind)) in state.trace.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{index}:{kind}"));
        }
        out
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("spec", &self.spec)
            .field("messages_seen", &self.messages_seen())
            .finish()
    }
}

/// A [`ClientChannel`] decorator that injects the plan's faults into
/// every call and post.
///
/// Fault semantics mirror what a real lossy transport would produce:
/// a dropped or mangled *call* surfaces as a retryable
/// [`RemotingError::Transport`] (the reply never arrives; the mux would
/// fail the slot); a dropped or mangled *post* is silently lost (fire
/// and forget has no failure path); `Kill` poisons this channel wrapper
/// permanently, the way a dead TCP connection poisons its mux.
pub struct ChaosChannel {
    inner: Arc<dyn ClientChannel>,
    plan: Arc<FaultPlan>,
    killed: AtomicBool,
}

impl ChaosChannel {
    /// Wraps `inner` with faults drawn from `plan`.
    pub fn new(inner: Arc<dyn ClientChannel>, plan: Arc<FaultPlan>) -> ChaosChannel {
        ChaosChannel { inner, plan, killed: AtomicBool::new(false) }
    }

    /// The plan this channel draws from.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }

    fn check_killed(&self) -> Result<(), RemotingError> {
        if self.killed.load(Ordering::Acquire) {
            Err(RemotingError::Transport { detail: "chaos: connection killed".into() })
        } else {
            Ok(())
        }
    }

    fn kill(&self) -> RemotingError {
        self.killed.store(true, Ordering::Release);
        RemotingError::Transport { detail: "chaos: connection killed".into() }
    }
}

impl ClientChannel for ChaosChannel {
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        self.check_killed()?;
        match self.plan.next_fault() {
            None => self.inner.call(msg),
            Some(FaultKind::Drop) => {
                Err(RemotingError::Transport { detail: "chaos: dropped frame".into() })
            }
            Some(FaultKind::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.call(msg)
            }
            Some(FaultKind::Duplicate) => {
                // Deliver twice; the caller sees the first reply, the
                // duplicate's effects land server-side regardless.
                let first = self.inner.call(msg);
                let _ = self.inner.call(msg);
                first
            }
            Some(FaultKind::Truncate) => {
                Err(RemotingError::Transport { detail: "chaos: truncated frame".into() })
            }
            Some(FaultKind::Corrupt) => {
                Err(RemotingError::Transport { detail: "chaos: corrupted frame".into() })
            }
            Some(FaultKind::Kill) => Err(self.kill()),
        }
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        self.check_killed()?;
        match self.plan.next_fault() {
            None => self.inner.post(msg),
            // Lost or undecodable one-way frames vanish without a trace —
            // exactly the fire-and-forget contract.
            Some(FaultKind::Drop | FaultKind::Truncate | FaultKind::Corrupt) => Ok(0),
            Some(FaultKind::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.post(msg)
            }
            Some(FaultKind::Duplicate) => {
                let n = self.inner.post(msg)?;
                let _ = self.inner.post(msg);
                Ok(n)
            }
            Some(FaultKind::Kill) => Err(self.kill()),
        }
    }

    fn scheme(&self) -> &'static str {
        self.inner.scheme()
    }

    fn feedback(&self) -> Option<Arc<crate::channel::LinkFeedback>> {
        // Feedback is an observation plane, not a delivery path: chaos
        // perturbs calls, the inner channel still reports what it saw.
        self.inner.feedback()
    }
}

/// Wraps `channel` in a [`ChaosChannel`] when `PARC_CHAOS` armed a
/// process-global plan; otherwise returns it untouched. The channel
/// providers call this on every open.
pub fn wrap_if_chaotic(channel: Arc<dyn ClientChannel>) -> Arc<dyn ClientChannel> {
    match FaultPlan::from_env() {
        Some(plan) => Arc::new(ChaosChannel::new(channel, Arc::clone(plan))),
        None => channel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_serial::Value;

    struct CountingChannel {
        calls: std::sync::atomic::AtomicU64,
        posts: std::sync::atomic::AtomicU64,
    }

    impl CountingChannel {
        fn new() -> Arc<CountingChannel> {
            Arc::new(CountingChannel {
                calls: std::sync::atomic::AtomicU64::new(0),
                posts: std::sync::atomic::AtomicU64::new(0),
            })
        }
    }

    impl ClientChannel for CountingChannel {
        fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(ReturnMessage::ok(msg.call_id, Value::Null))
        }

        fn post(&self, _msg: &CallMessage) -> Result<usize, RemotingError> {
            self.posts.fetch_add(1, Ordering::Relaxed);
            Ok(1)
        }

        fn scheme(&self) -> &'static str {
            "fake"
        }
    }

    #[test]
    fn spec_parses_full_grammar() {
        let s = FaultSpec::parse("drop=0.1,delay=0.2:5,dup=0.05,truncate=0.01,corrupt=0.02,kill@25");
        assert_eq!(s.drop, 0.1);
        assert_eq!(s.delay, 0.2);
        assert_eq!(s.delay_ms, 5);
        assert_eq!(s.duplicate, 0.05);
        assert_eq!(s.truncate, 0.01);
        assert_eq!(s.corrupt, 0.02);
        assert_eq!(s.kill_at, Some(25));
    }

    #[test]
    fn spec_ignores_garbage() {
        let s = FaultSpec::parse("bogus,drop=no,=,kill@x,delay=0.5");
        assert_eq!(s.drop, 0.0);
        assert_eq!(s.delay, 0.5);
        assert_eq!(s.delay_ms, 1, "delay without :ms defaults to 1ms");
        assert_eq!(s.kill_at, None);
    }

    #[test]
    fn plan_parse_seed_and_spec() {
        let p = FaultPlan::parse("42:drop=1.0").unwrap();
        assert_eq!(p.seed(), 42);
        assert_eq!(p.next_fault(), Some(FaultKind::Drop));
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("notanumber:drop=1").is_none());
        assert_eq!(FaultPlan::parse("7").unwrap().next_fault(), None);
    }

    #[test]
    fn same_seed_same_trace() {
        let spec = "drop=0.2,dup=0.1,corrupt=0.1";
        let a = FaultPlan::new(99, FaultSpec::parse(spec));
        let b = FaultPlan::new(99, FaultSpec::parse(spec));
        for _ in 0..200 {
            a.next_fault();
            b.next_fault();
        }
        assert!(!a.trace().is_empty(), "20% drop over 200 draws must fire");
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace_string(), b.trace_string());
    }

    #[test]
    fn different_seed_different_trace() {
        let spec = FaultSpec::parse("drop=0.3");
        let a = FaultPlan::new(1, spec.clone());
        let b = FaultPlan::new(2, spec);
        for _ in 0..200 {
            a.next_fault();
            b.next_fault();
        }
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn kill_at_fires_exactly_once_at_index() {
        let plan = FaultPlan::new(0, FaultSpec::parse("kill@2"));
        assert_eq!(plan.next_fault(), None);
        assert_eq!(plan.next_fault(), None);
        assert_eq!(plan.next_fault(), Some(FaultKind::Kill));
        assert_eq!(plan.next_fault(), None, "kill is a point event in the plan");
        assert_eq!(plan.trace(), vec![(2, FaultKind::Kill)]);
    }

    #[test]
    fn chaos_channel_drops_calls_as_transport_errors() {
        let inner = CountingChannel::new();
        let chan = ChaosChannel::new(
            Arc::clone(&inner) as Arc<dyn ClientChannel>,
            Arc::new(FaultPlan::new(0, FaultSpec::parse("drop=1.0"))),
        );
        let err = chan.call(&CallMessage::new("O", "m", vec![])).unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert_eq!(inner.calls.load(Ordering::Relaxed), 0, "dropped call never reached inner");
    }

    #[test]
    fn chaos_channel_loses_posts_silently() {
        let inner = CountingChannel::new();
        let chan = ChaosChannel::new(
            Arc::clone(&inner) as Arc<dyn ClientChannel>,
            Arc::new(FaultPlan::new(0, FaultSpec::parse("drop=1.0"))),
        );
        assert_eq!(chan.post(&CallMessage::one_way("O", "m", vec![])).unwrap(), 0);
        assert_eq!(inner.posts.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn chaos_channel_duplicates_deliver_twice() {
        let inner = CountingChannel::new();
        let chan = ChaosChannel::new(
            Arc::clone(&inner) as Arc<dyn ClientChannel>,
            Arc::new(FaultPlan::new(0, FaultSpec::parse("dup=1.0"))),
        );
        chan.call(&CallMessage::new("O", "m", vec![])).unwrap();
        assert_eq!(inner.calls.load(Ordering::Relaxed), 2);
        chan.post(&CallMessage::one_way("O", "m", vec![])).unwrap();
        assert_eq!(inner.posts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn kill_poisons_the_wrapper_permanently() {
        let inner = CountingChannel::new();
        let chan = ChaosChannel::new(
            Arc::clone(&inner) as Arc<dyn ClientChannel>,
            Arc::new(FaultPlan::new(0, FaultSpec::parse("kill@0"))),
        );
        assert!(chan.call(&CallMessage::new("O", "m", vec![])).is_err());
        assert!(chan.post(&CallMessage::one_way("O", "m", vec![])).is_err());
        assert!(chan.call(&CallMessage::new("O", "m", vec![])).is_err());
        assert_eq!(inner.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let inner = CountingChannel::new();
        let chan = ChaosChannel::new(
            Arc::clone(&inner) as Arc<dyn ClientChannel>,
            Arc::new(FaultPlan::new(0, FaultSpec::default())),
        );
        for _ in 0..10 {
            chan.call(&CallMessage::new("O", "m", vec![])).unwrap();
        }
        assert_eq!(inner.calls.load(Ordering::Relaxed), 10);
        assert!(chan.plan().trace().is_empty());
        assert_eq!(chan.plan().messages_seen(), 10);
    }
}
