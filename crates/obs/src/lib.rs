//! # parc-obs — runtime tracing, metrics and adaptation telemetry
//!
//! The paper's contribution — grain-size adaptation by call aggregation
//! and object agglomeration — is a *runtime* behaviour; this crate makes
//! it observable. It is hermetic (std-only, like everything else in the
//! workspace) and provides:
//!
//! * **spans** — [`Span::enter`] RAII timers with a thread-local nesting
//!   stack, recorded into a bounded overwrite-oldest [`ring::Ring`];
//! * **metrics** — named [`Counter`]s, [`Gauge`]s and log-scale
//!   [`Histogram`]s (p50/p95/p99/max) in a process-wide registry;
//! * **events** — timestamped adaptation decisions
//!   (`agg_size_changed`, `agglomerate`, `batch_flushed`, …) with
//!   `key=value` detail;
//! * **exporters** — a human-readable [`text_summary`] and a
//!   Chrome-`trace_event` JSON writer ([`chrome_trace_json`]) that opens
//!   in `about:tracing`/Perfetto, plus a JSONL event dump;
//! * a shared [`kinds`] vocabulary that `parc-sim`'s deterministic traces
//!   reuse, so simulated and real traces are grep-compatible.
//!
//! Recording is **off by default**. The disabled fast path is one relaxed
//! atomic load per span/event/sample — cheap enough that every layer of
//! the stack (remoting channels, the SCOOPP runtime, the RMI and MPI
//! baselines) leaves its instrumentation in unconditionally.
//!
//! ```
//! use parc_obs as obs;
//!
//! obs::init(obs::ObsConfig { enabled: true, ring_capacity: 1024 });
//! {
//!     let _call = obs::Span::enter(obs::kinds::CALL);
//!     let _ser = obs::Span::enter(obs::kinds::SERIALIZE);
//! }
//! obs::counter("demo.calls").incr();
//! obs::event(obs::kinds::BATCH_FLUSHED, || "calls=8 bytes=411".into());
//! let summary = obs::text_summary();
//! assert!(summary.contains("demo.calls"));
//! obs::set_enabled(false);
//! ```

pub mod export;
pub mod json;
pub mod kinds;
pub mod metrics;
pub mod ring;
mod span;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use export::{
    chrome_trace_json, events_jsonl, text_summary, write_chrome_trace, write_events_jsonl,
    write_node_jsonl_files,
};
pub use metrics::{Counter, Gauge, Histogram};
pub use ring::{EventRecord, Record, Ring, SpanRecord};
pub use span::{thread_id, Span};
pub use trace::TraceContext;

/// Recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Whether spans/events/metrics record at all.
    pub enabled: bool,
    /// Ring capacity in records; fixed at the first initialisation.
    pub ring_capacity: usize,
}

/// Default ring capacity (records, not bytes).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { enabled: false, ring_capacity: DEFAULT_RING_CAPACITY }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RECORDER: OnceLock<Ring> = OnceLock::new();

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Initialises the recorder. The ring is created on first call (later
/// calls can still flip `enabled` but cannot resize the ring). Returns
/// the effective configuration.
pub fn init(config: ObsConfig) -> ObsConfig {
    let ring = RECORDER.get_or_init(|| Ring::new(config.ring_capacity));
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(config.enabled, Ordering::Relaxed);
    ObsConfig { enabled: config.enabled, ring_capacity: ring.capacity() }
}

/// Initialises from the environment: `PARC_OBS=1` (or `true`) enables
/// recording, with a [`DEFAULT_RING_CAPACITY`] ring. Setting
/// `PARC_OBS_DUMP_DIR` also enables recording so the flight recorder
/// (see [`flight_dump`]) has something to dump when a failure fires.
/// Returns the effective configuration.
pub fn init_from_env() -> ObsConfig {
    let enabled = std::env::var("PARC_OBS")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
        || dump_dir().is_some();
    init(ObsConfig { enabled, ..ObsConfig::default() })
}

/// Whether recording is on. This is the single relaxed load every
/// disabled-path check reduces to.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off at runtime.
pub fn set_enabled(enabled: bool) {
    if enabled {
        // Make sure the clock and ring exist before the first record.
        let _ = EPOCH.get_or_init(Instant::now);
        let _ = RECORDER.get_or_init(|| Ring::new(DEFAULT_RING_CAPACITY));
    }
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// The global record ring (created on demand with the default capacity).
pub fn recorder() -> &'static Ring {
    RECORDER.get_or_init(|| Ring::new(DEFAULT_RING_CAPACITY))
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// [`now_ns`] when recording is enabled, 0 otherwise — for call sites
/// that stash a timestamp in a message and measure queue wait later.
#[inline]
pub fn timestamp_if_enabled() -> u64 {
    if is_enabled() {
        now_ns().max(1)
    } else {
        0
    }
}

/// Records `now - start_ns` into the named histogram; no-op when
/// `start_ns` is 0 (i.e. it was taken while recording was disabled).
#[inline]
pub fn record_wait(name: &str, start_ns: u64) {
    if start_ns != 0 && is_enabled() {
        histogram(name).record(now_ns().saturating_sub(start_ns));
    }
}

/// A registry metric resolved on first use and held after, for paths
/// that record on every job: they skip the registry lock. [`reset`]
/// zeroes metrics in place, so a held handle stays the registered one.
///
/// ```
/// static WAIT: parc_obs::Held<parc_obs::Histogram> =
///     parc_obs::Held::new("doc.wait", parc_obs::histogram);
/// WAIT.record_wait(0); // a timestamp taken while disabled: no-op
/// ```
pub struct Held<T: 'static> {
    name: &'static str,
    resolve: fn(&str) -> Arc<T>,
    cell: OnceLock<Arc<T>>,
}

impl<T> Held<T> {
    /// A handle on `resolve(name)`: [`histogram`], [`gauge`] or [`counter`].
    pub const fn new(name: &'static str, resolve: fn(&str) -> Arc<T>) -> Held<T> {
        Held { name, resolve, cell: OnceLock::new() }
    }

    /// The metric, resolved through the registry on the first call only.
    #[inline]
    pub fn get(&self) -> &T {
        self.cell.get_or_init(|| (self.resolve)(self.name))
    }
}

impl Held<Histogram> {
    /// [`record_wait`] into the held histogram.
    #[inline]
    pub fn record_wait(&self, start_ns: u64) {
        if start_ns != 0 && is_enabled() {
            self.get().record(now_ns().saturating_sub(start_ns));
        }
    }
}

/// Looks up (or creates) the named counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry().counters.lock().expect("counter registry");
    if let Some(c) = map.get(name) {
        return Arc::clone(c);
    }
    let c = Arc::new(Counter::new());
    map.insert(name.to_string(), Arc::clone(&c));
    c
}

/// Looks up (or creates) the named gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().gauges.lock().expect("gauge registry");
    if let Some(g) = map.get(name) {
        return Arc::clone(g);
    }
    let g = Arc::new(Gauge::new());
    map.insert(name.to_string(), Arc::clone(&g));
    g
}

/// Looks up (or creates) the named histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry().histograms.lock().expect("histogram registry");
    if let Some(h) = map.get(name) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::new());
    map.insert(name.to_string(), Arc::clone(&h));
    h
}

/// Snapshot of the registered counters (name → value), sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    registry()
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect()
}

/// Snapshot of the registered gauges (name → value), sorted by name.
pub fn gauges_snapshot() -> Vec<(String, i64)> {
    registry()
        .gauges
        .lock()
        .expect("gauge registry")
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect()
}

/// Snapshot of the registered histograms, sorted by name.
pub fn histograms_snapshot() -> Vec<(String, Arc<Histogram>)> {
    registry()
        .histograms
        .lock()
        .expect("histogram registry")
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect()
}

/// Records a point event. The detail closure only runs when recording is
/// enabled, so building the `key=value` string costs nothing otherwise.
/// Every event also bumps the counter registered under its kind, which is
/// what the text summary (and the verify-script smoke gate) reads.
#[inline]
pub fn event(kind: &'static str, detail: impl FnOnce() -> String) {
    if !is_enabled() {
        return;
    }
    counter(kind).incr();
    recorder().push(Record::Event(EventRecord {
        kind,
        at_ns: now_ns(),
        tid: thread_id(),
        node: trace::current_node(),
        detail: detail(),
    }));
}

/// Flight recorder: where failure-triggered dumps land, read once from
/// `PARC_OBS_DUMP_DIR`. `None` disables the recorder entirely.
fn dump_dir() -> Option<&'static std::path::Path> {
    static DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| std::env::var_os("PARC_OBS_DUMP_DIR").map(std::path::PathBuf::from))
        .as_deref()
}

/// Dumps the span ring (Chrome trace) and the event log (JSONL) into
/// `PARC_OBS_DUMP_DIR`, for post-mortem analysis when a failure event
/// (`node.failed`, `object.failed_over`) fires. Returns the trace path
/// when a dump was written. No-op unless the env var is set; capped at a
/// handful of dumps per process so a flapping node cannot fill the disk.
pub fn flight_dump(reason: &str) -> Option<std::path::PathBuf> {
    const MAX_DUMPS: u32 = 8;
    static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let dir = dump_dir()?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_DUMPS {
        return None;
    }
    std::fs::create_dir_all(dir).ok()?;
    let slug: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let trace_path = dir.join(format!("flight-{seq:03}-{slug}.trace.json"));
    let events_path = dir.join(format!("flight-{seq:03}-{slug}.events.jsonl"));
    export::write_chrome_trace(&trace_path).ok()?;
    export::write_events_jsonl(&events_path).ok()?;
    event(kinds::FLIGHT_DUMP, || format!("reason={reason} seq={seq}"));
    Some(trace_path)
}

/// Clears the ring and zeroes every registered metric (tests and
/// between-phase measurement). Does not change the enabled flag.
pub fn reset() {
    recorder().clear();
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").values() {
        c.reset();
    }
    for g in reg.gauges.lock().expect("gauge registry").values() {
        g.reset();
    }
    for h in reg.histograms.lock().expect("histogram registry").values() {
        h.reset();
    }
}

/// Serialises tests that mutate the global recorder. Public so the
/// workspace's integration tests can share it with the unit tests here.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default_and_records_nothing() {
        let _guard = test_lock();
        set_enabled(false);
        reset();
        event(kinds::BATCH_FLUSHED, || unreachable!("detail must be lazy"));
        assert_eq!(recorder().pushed(), 0);
        assert_eq!(counter(kinds::BATCH_FLUSHED).get(), 0);
    }

    #[test]
    fn events_count_and_carry_detail() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        event(kinds::AGGLOMERATE, || "object=Counter reason=adaptive".into());
        set_enabled(false);
        assert_eq!(counter(kinds::AGGLOMERATE).get(), 1);
        let snap = recorder().snapshot();
        let Record::Event(e) = &snap[0] else { panic!("expected event") };
        assert_eq!(e.kind, kinds::AGGLOMERATE);
        assert!(e.detail.contains("reason=adaptive"));
    }

    #[test]
    fn registry_returns_the_same_instance() {
        let _guard = test_lock();
        let c1 = counter("x.same");
        let c2 = counter("x.same");
        c1.incr();
        assert_eq!(c2.get(), 1);
        assert!(Arc::ptr_eq(&c1, &c2));
        let h1 = histogram("x.hist");
        let h2 = histogram("x.hist");
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn timestamps_are_monotone_and_gated() {
        let _guard = test_lock();
        set_enabled(false);
        assert_eq!(timestamp_if_enabled(), 0);
        set_enabled(true);
        let a = timestamp_if_enabled();
        let b = now_ns();
        assert!(a > 0);
        assert!(b >= a.min(b));
        record_wait("x.wait", a);
        set_enabled(false);
        assert_eq!(histogram("x.wait").count(), 1);
    }

    #[test]
    fn init_reports_effective_ring_capacity() {
        let _guard = test_lock(); // `init` stores the enabled flag
        let cfg = init(ObsConfig { enabled: false, ring_capacity: 123 });
        // Whatever the first initialiser in this test binary chose wins;
        // the call still reports the real capacity.
        assert_eq!(cfg.ring_capacity, recorder().capacity());
        assert!(!is_enabled());
    }
}
