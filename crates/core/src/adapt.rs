//! Run-time grain-size adaptation.
//!
//! SCOOPP's run-time system (\[9\] in the paper) measures how expensive
//! method calls actually are and removes parallelism when grains are too
//! fine: short calls get *aggregated* into bigger messages, and when calls
//! are so short that even shipping them is a loss, new objects get
//! *agglomerated* locally. [`GrainAdapter`] is that controller: it tracks
//! an exponentially weighted moving average (EWMA) of per-call service
//! time, compares it with the per-message overhead of the transport, and
//! yields the two knobs of [`crate::GrainConfig`].
//!
//! Since the reply frames started carrying the server's dispatch depth
//! (the `FLAG_DEPTH` extension), adaptation is no longer open-loop:
//! [`BatchController`] closes the loop per proxy, combining the channel's
//! RTT EWMA, the piggybacked remote queue depth and the adapter's call-cost
//! estimate into one deterministic batch-size law (DESIGN.md §14).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Controller state for one runtime. Lock-free: every proxy call feeds
/// [`GrainAdapter::observe_call`], so the estimate is an atomic EWMA
/// rather than state behind a runtime-wide mutex.
#[derive(Debug)]
pub struct GrainAdapter {
    /// Per-call service-time EWMA in seconds, as `f64` bits;
    /// [`NO_ESTIMATE`] until the first sample.
    ewma_call_bits: AtomicU64,
    samples: AtomicU64,
    /// Last aggregation factor this adapter recommended; lets
    /// `recommended_aggregation` emit an `agg_size_changed` event exactly
    /// when the knob moves.
    last_agg: AtomicUsize,
    /// Estimated fixed cost of one remote message (the ~273 µs of the
    /// paper's Mono latency measurement, by default).
    message_overhead: Duration,
    /// Aggregation ceiling (Fig. 7's `maxCalls` upper bound).
    max_aggregation: usize,
}

/// `ewma_call_bits` before any sample: a NaN payload no arithmetic on the
/// finite samples produces.
const NO_ESTIMATE: u64 = u64::MAX;

/// EWMA smoothing factor: recent calls dominate after ~10 samples.
const ALPHA: f64 = 0.2;

impl GrainAdapter {
    /// Creates an adapter with the given per-message overhead estimate.
    pub fn new(message_overhead: Duration, max_aggregation: usize) -> GrainAdapter {
        GrainAdapter {
            ewma_call_bits: AtomicU64::new(NO_ESTIMATE),
            samples: AtomicU64::new(0),
            last_agg: AtomicUsize::new(1),
            message_overhead,
            max_aggregation: max_aggregation.max(1),
        }
    }

    /// An adapter tuned to the paper's measured Mono remoting overhead.
    pub fn mono_default() -> GrainAdapter {
        GrainAdapter::new(Duration::from_micros(273), 256)
    }

    /// Records one measured method-execution duration.
    pub fn observe_call(&self, duration: Duration) {
        if parc_obs::is_enabled() {
            parc_obs::histogram(parc_obs::kinds::ADAPT_SERVICE)
                .record(duration.as_nanos() as u64);
        }
        let secs = duration.as_secs_f64();
        // The closure always returns `Some`, so the update cannot fail.
        let _ = self.ewma_call_bits.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
            let next = match bits {
                NO_ESTIMATE => secs,
                prev => f64::from_bits(prev) + ALPHA * (secs - f64::from_bits(prev)),
            };
            Some(next.to_bits())
        });
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    fn ewma_call_secs(&self) -> Option<f64> {
        match self.ewma_call_bits.load(Ordering::Relaxed) {
            NO_ESTIMATE => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Number of samples observed.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Current per-call cost estimate, if any call was observed.
    pub fn estimated_call_cost(&self) -> Option<Duration> {
        self.ewma_call_secs().map(Duration::from_secs_f64)
    }

    /// Recommended aggregation factor: pack enough calls per message that
    /// the shipped work dominates the message overhead (target ≥ 4×), but
    /// never beyond the configured ceiling.
    ///
    /// With no samples yet, the recommendation is 1 (no aggregation) —
    /// adaptation only ever *removes* parallelism it has evidence against.
    pub fn recommended_aggregation(&self) -> usize {
        let Some(call) = self.ewma_call_secs() else {
            return 1;
        };
        let overhead = self.message_overhead.as_secs_f64();
        let agg = if call <= 0.0 {
            self.max_aggregation
        } else {
            let wanted = (4.0 * overhead / call).ceil();
            if wanted.is_finite() {
                (wanted as usize).clamp(1, self.max_aggregation)
            } else {
                self.max_aggregation
            }
        };
        let old = self.last_agg.swap(agg, Ordering::Relaxed);
        if agg != old {
            parc_obs::event(parc_obs::kinds::AGG_SIZE_CHANGED, || {
                format!(
                    "old={old} new={agg} ewma_us={:.2} overhead_us={:.2}",
                    call * 1e6,
                    overhead * 1e6
                )
            });
        }
        agg
    }

    /// Whether new objects should be agglomerated locally: true when a
    /// call's work is smaller than the overhead of shipping it at the
    /// maximum aggregation — i.e. parallelism cannot pay for itself.
    pub fn should_agglomerate(&self) -> bool {
        let Some(call) = self.ewma_call_secs() else {
            return false;
        };
        let per_call_overhead =
            self.message_overhead.as_secs_f64() / self.max_aggregation as f64;
        call < per_call_overhead
    }
}

/// Tuning knobs of the closed-loop batch controller. A runtime proxy uses
/// [`BatchConfig::from_env`]; [`BatchController::new`] takes any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Smallest batch the controller ever targets.
    pub min: usize,
    /// Largest batch the controller ever targets.
    pub max: usize,
    /// Oldest a buffered one-way call may get before the buffer ships
    /// regardless of fill.
    pub linger: Duration,
    /// Remote queue depth above which the controller halves the batch —
    /// the server is drowning (`PARC_BATCH_DEPTH_HIGH`).
    pub depth_high: usize,
    /// Remote queue depth at or below which the controller doubles the
    /// batch — the server is starved (`PARC_BATCH_DEPTH_LOW`).
    pub depth_low: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            min: 1,
            max: 256,
            linger: Duration::from_micros(2_000),
            depth_high: 256,
            depth_low: 32,
        }
    }
}

impl BatchConfig {
    /// The defaults, with the two depth bands overridden by
    /// `PARC_BATCH_DEPTH_HIGH` and `PARC_BATCH_DEPTH_LOW` when set and
    /// parseable. Read once per process.
    pub fn from_env() -> BatchConfig {
        static CONFIG: OnceLock<BatchConfig> = OnceLock::new();
        *CONFIG.get_or_init(|| {
            fn get(name: &str) -> Option<usize> {
                std::env::var(name).ok().and_then(|v| v.parse().ok())
            }
            let d = BatchConfig::default();
            BatchConfig {
                depth_high: get("PARC_BATCH_DEPTH_HIGH").unwrap_or(d.depth_high),
                depth_low: get("PARC_BATCH_DEPTH_LOW").unwrap_or(d.depth_low),
                ..d
            }
        })
    }
}

/// The deterministic closed-loop batch-size controller.
///
/// Inputs per decision round:
/// * `rtt` — the channel's round-trip EWMA ([`LinkFeedback`]'s view of how
///   much the wire costs),
/// * `call_cost` — the adapter's per-call service-time EWMA,
/// * `depth` — the server dispatch depth piggybacked on the last reply.
///
/// Law (§14): the wire-dominance *target* is `⌈4·rtt / call_cost⌉` — pack
/// enough work per message that the round trip stops dominating — and the
/// backpressure bands move the current size toward it: halve above
/// `depth_high`, double at or below `depth_low`, hold in between. The
/// target caps every band, so for a fixed `(rtt, call_cost, current)` the
/// decided size is monotone nonincreasing in the reported depth
/// (`min(2c, t) ≥ min(c, t) ≥ min(⌈c/2⌉, t)`), and the whole law is a pure
/// function of its inputs — replaying a tape of observations replays the
/// decisions.
///
/// [`LinkFeedback`]: parc_remoting::channel::LinkFeedback
#[derive(Debug)]
pub struct BatchController {
    cfg: BatchConfig,
    current: AtomicU64,
    shrinks: AtomicU64,
    grows: AtomicU64,
}

impl BatchController {
    /// Creates a controller starting from the smallest batch.
    pub fn new(cfg: BatchConfig) -> BatchController {
        BatchController {
            current: AtomicU64::new(cfg.min as u64),
            cfg,
            shrinks: AtomicU64::new(0),
            grows: AtomicU64::new(0),
        }
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// The batch size decided by the last [`BatchController::observe`].
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed) as usize
    }

    /// Times the controller halved its size under backpressure.
    pub fn shrinks(&self) -> u64 {
        self.shrinks.load(Ordering::Relaxed)
    }

    /// Times the controller doubled its size into drained queues.
    pub fn grows(&self) -> u64 {
        self.grows.load(Ordering::Relaxed)
    }

    /// The wire-dominance target: enough calls per message that their
    /// summed work is ≥ 4× the round trip, clamped to `[min, max]`.
    pub fn target(&self, rtt: Duration, call_cost: Duration) -> usize {
        let rtt_s = rtt.as_secs_f64();
        let cost_s = call_cost.as_secs_f64().max(1e-9);
        let wanted = (4.0 * rtt_s / cost_s).ceil();
        if wanted.is_finite() {
            (wanted as usize).clamp(self.cfg.min, self.cfg.max)
        } else {
            self.cfg.max
        }
    }

    /// The pure decision law: next batch size from `(current, target,
    /// depth)`. No state is read or written — property tests drive this
    /// directly.
    pub fn decide(&self, current: usize, target: usize, depth: usize) -> usize {
        let raw = if depth > self.cfg.depth_high {
            (current / 2).max(1)
        } else if depth <= self.cfg.depth_low {
            current.saturating_mul(2)
        } else {
            current
        };
        raw.min(target).clamp(self.cfg.min, self.cfg.max)
    }

    /// Folds one feedback observation into the controller: runs
    /// [`BatchController::decide`] over the live inputs, installs the
    /// result, counts and announces direction changes, and returns the new
    /// size.
    pub fn observe(&self, rtt: Duration, call_cost: Duration, depth: usize) -> usize {
        let target = self.target(rtt, call_cost);
        let old = self.current();
        let new = self.decide(old, target, depth);
        self.current.store(new as u64, Ordering::Relaxed);
        if new < old {
            self.shrinks.fetch_add(1, Ordering::Relaxed);
            parc_obs::counter(parc_obs::kinds::BATCH_SHRINK).incr();
            parc_obs::event(parc_obs::kinds::BATCH_SHRINK, || {
                format!("old={old} new={new} depth={depth} target={target}")
            });
        } else if new > old {
            self.grows.fetch_add(1, Ordering::Relaxed);
            parc_obs::counter(parc_obs::kinds::BATCH_GROW).incr();
            parc_obs::event(parc_obs::kinds::BATCH_GROW, || {
                format!("old={old} new={new} depth={depth} target={target}")
            });
        }
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> GrainAdapter {
        GrainAdapter::new(Duration::from_micros(273), 256)
    }

    #[test]
    fn no_samples_means_no_adaptation() {
        let a = adapter();
        assert_eq!(a.recommended_aggregation(), 1);
        assert!(!a.should_agglomerate());
        assert_eq!(a.estimated_call_cost(), None);
    }

    #[test]
    fn coarse_grains_need_no_aggregation() {
        let a = adapter();
        for _ in 0..10 {
            a.observe_call(Duration::from_millis(50));
        }
        assert_eq!(a.recommended_aggregation(), 1);
        assert!(!a.should_agglomerate());
    }

    #[test]
    fn fine_grains_get_aggregated() {
        let a = adapter();
        for _ in 0..10 {
            a.observe_call(Duration::from_micros(50));
        }
        let k = a.recommended_aggregation();
        assert!(k > 1, "50us calls against 273us overhead must aggregate, got {k}");
        assert!(k <= 256);
    }

    #[test]
    fn microscopic_grains_agglomerate() {
        let a = adapter();
        for _ in 0..10 {
            a.observe_call(Duration::from_nanos(100));
        }
        assert_eq!(a.recommended_aggregation(), 256, "hits the ceiling");
        assert!(a.should_agglomerate());
    }

    #[test]
    fn ewma_tracks_a_regime_change() {
        let a = adapter();
        for _ in 0..50 {
            a.observe_call(Duration::from_micros(1));
        }
        assert!(a.should_agglomerate());
        for _ in 0..50 {
            a.observe_call(Duration::from_millis(10));
        }
        assert!(!a.should_agglomerate(), "adapter must forget the old fine-grain regime");
        assert_eq!(a.samples(), 100);
    }

    #[test]
    fn zero_duration_calls_hit_the_ceiling() {
        let a = adapter();
        a.observe_call(Duration::ZERO);
        assert_eq!(a.recommended_aggregation(), 256);
        assert!(a.should_agglomerate());
    }

    #[test]
    fn ceiling_is_respected() {
        let a = GrainAdapter::new(Duration::from_millis(100), 8);
        a.observe_call(Duration::from_nanos(1));
        assert_eq!(a.recommended_aggregation(), 8);
    }

    #[test]
    fn ewma_converges_on_constant_service_times_within_ten_samples() {
        // A pure constant stream is fixed-point: the first sample seeds
        // the EWMA and later samples leave it unchanged.
        let a = adapter();
        for _ in 0..10 {
            a.observe_call(Duration::from_micros(500));
        }
        let est = a.estimated_call_cost().unwrap().as_secs_f64();
        assert!((est - 500e-6).abs() < 1e-12, "constant stream must be exact, got {est}");

        // After a regime change, the residual error decays as
        // (1 - ALPHA)^n: ten samples of the new constant leave at most
        // 0.8^10 ~= 10.7% of the initial gap.
        let a = adapter();
        a.observe_call(Duration::from_millis(1));
        for _ in 0..10 {
            a.observe_call(Duration::from_micros(100));
        }
        let est = a.estimated_call_cost().unwrap().as_secs_f64();
        let residual = (est - 100e-6) / (1e-3 - 100e-6);
        assert!(residual > 0.0, "estimate cannot undershoot the constant");
        assert!(residual < 0.11, "EWMA must converge within ~10 samples, residual {residual}");
    }

    #[test]
    fn aggregation_knob_crosses_273us_threshold_at_right_grain_size() {
        // With the paper's 273 us message overhead and the >= 4x work
        // target, aggregation becomes unnecessary exactly when one call
        // carries 4 * 273 us = 1092 us of work.
        let at_threshold = GrainAdapter::mono_default();
        at_threshold.observe_call(Duration::from_micros(1092));
        assert_eq!(at_threshold.recommended_aggregation(), 1);

        let just_below = GrainAdapter::mono_default();
        just_below.observe_call(Duration::from_micros(1000));
        assert_eq!(just_below.recommended_aggregation(), 2);

        // A call exactly as long as the overhead needs the 4x factor.
        let equal = GrainAdapter::mono_default();
        equal.observe_call(Duration::from_micros(273));
        assert_eq!(equal.recommended_aggregation(), 4);

        // Agglomeration flips where work drops under the *per-call* share
        // of a maximally aggregated message: 273 us / 256 ~= 1.07 us.
        let above = GrainAdapter::mono_default();
        above.observe_call(Duration::from_nanos(1_200));
        assert!(!above.should_agglomerate());
        let below = GrainAdapter::mono_default();
        below.observe_call(Duration::from_nanos(1_000));
        assert!(below.should_agglomerate());
    }

    // ---- closed-loop batch controller ---------------------------------

    fn controller() -> BatchController {
        BatchController::new(BatchConfig::default())
    }

    #[test]
    fn controller_starts_at_min() {
        let c = controller();
        assert_eq!(c.current(), 1);
        assert_eq!(c.shrinks(), 0);
        assert_eq!(c.grows(), 0);
    }

    #[test]
    fn drained_queues_grow_toward_the_wire_target() {
        let c = controller();
        // 400 µs round trips over 10 µs calls want 4·400/10 = 160 calls.
        let rtt = Duration::from_micros(400);
        let cost = Duration::from_micros(10);
        assert_eq!(c.target(rtt, cost), 160);
        let sizes: Vec<usize> = (0..9).map(|_| c.observe(rtt, cost, 0)).collect();
        assert_eq!(sizes, vec![2, 4, 8, 16, 32, 64, 128, 160, 160]);
        assert_eq!(c.grows(), 8, "the capped round is not a growth");
    }

    #[test]
    fn backpressure_halves_and_recovers() {
        let c = controller();
        let rtt = Duration::from_micros(400);
        let cost = Duration::from_micros(10);
        while c.observe(rtt, cost, 0) < 160 {}
        assert_eq!(c.observe(rtt, cost, 1000), 80);
        assert_eq!(c.observe(rtt, cost, 1000), 40);
        assert_eq!(c.shrinks(), 2);
        // Mid-band holds; drained queues climb back.
        assert_eq!(c.observe(rtt, cost, 100), 40);
        assert_eq!(c.observe(rtt, cost, 0), 80);
    }

    #[test]
    fn decide_is_monotone_nonincreasing_in_depth() {
        let c = controller();
        for current in [1usize, 3, 17, 64, 256] {
            for target in [1usize, 8, 100, 256] {
                let mut prev = usize::MAX;
                for depth in 0..600 {
                    let d = c.decide(current, target, depth);
                    assert!(
                        d <= prev,
                        "decide({current},{target},{depth})={d} > {prev} at depth-1"
                    );
                    prev = d;
                }
            }
        }
    }

    #[test]
    fn target_never_escapes_the_configured_bounds() {
        let c = BatchController::new(BatchConfig { min: 2, max: 16, ..BatchConfig::default() });
        assert_eq!(c.target(Duration::from_secs(10), Duration::from_nanos(1)), 16);
        assert_eq!(c.target(Duration::ZERO, Duration::from_secs(1)), 2);
        assert_eq!(c.target(Duration::from_secs(1), Duration::ZERO), 16, "zero cost is clamped");
    }

    fn arbitrary_cfg(src: &mut parc_testkit::Source) -> BatchConfig {
        let min = src.usize_in(1..8);
        let depth_low = src.usize_in(0..64);
        BatchConfig {
            min,
            max: min + src.usize_in(0..512),
            depth_low,
            depth_high: depth_low + src.usize_in(0..512),
            ..BatchConfig::default()
        }
    }

    /// Property: for any configuration and any `(current, target)`, the
    /// decided batch size never increases as the reported queue depth
    /// grows — deeper server backlog can only hold or shrink the batch.
    #[test]
    fn prop_decide_monotone_nonincreasing_in_depth() {
        parc_testkit::Config::cases(256).check(
            |src| {
                let cfg = arbitrary_cfg(src);
                let current = src.usize_in(1..1024);
                let target = src.usize_in(1..1024);
                let d1 = src.usize_in(0..2048);
                let d2 = d1 + src.usize_in(0..2048);
                (cfg, current, target, d1, d2)
            },
            |&(cfg, current, target, d1, d2)| {
                let c = BatchController::new(cfg);
                let shallow = c.decide(current, target, d1);
                let deep = c.decide(current, target, d2);
                assert!(
                    deep <= shallow,
                    "depth {d2} decided {deep} > depth {d1}'s {shallow}"
                );
            },
        );
    }

    /// Property: decisions never escape `[min, max]`, whatever the
    /// inputs — `max` is the `max_aggregation` bound of the open-loop
    /// adapter, and the closed loop must respect the same ceiling.
    #[test]
    fn prop_decide_bounded_by_configured_aggregation() {
        parc_testkit::Config::cases(256).check(
            |src| {
                let cfg = arbitrary_cfg(src);
                let current = src.usize_in(0..4096);
                let target = src.usize_in(0..4096);
                let depth = src.usize_in(0..4096);
                (cfg, current, target, depth)
            },
            |&(cfg, current, target, depth)| {
                let c = BatchController::new(cfg);
                let d = c.decide(current, target, depth);
                assert!(d >= cfg.min && d <= cfg.max, "decide()={d} outside [{}, {}]", cfg.min, cfg.max);
            },
        );
    }

    /// Property: the controller is deterministic — replaying a fixed tape
    /// of `(rtt, call_cost, depth)` observations through two fresh
    /// controllers yields identical decision sequences and counters.
    #[test]
    fn prop_controller_deterministic_for_a_fixed_tape() {
        parc_testkit::Config::cases(64).check(
            |src| {
                let cfg = arbitrary_cfg(src);
                let tape = src.vec_of(0..48, |s| {
                    (s.u64_in(1..5_000), s.u64_in(1..5_000), s.usize_in(0..1024))
                });
                (cfg, tape)
            },
            |(cfg, tape)| {
                let run = || {
                    let c = BatchController::new(*cfg);
                    let sizes: Vec<usize> = tape
                        .iter()
                        .map(|&(rtt_us, cost_us, depth)| {
                            c.observe(
                                Duration::from_micros(rtt_us),
                                Duration::from_micros(cost_us),
                                depth,
                            )
                        })
                        .collect();
                    (sizes, c.shrinks(), c.grows())
                };
                assert_eq!(run(), run(), "same tape, same decisions");
            },
        );
    }

    #[test]
    fn config_env_parsing_falls_back_to_defaults() {
        // No PARC_BATCH_DEPTH_* set in the test environment: defaults apply.
        let cfg = BatchConfig::from_env();
        assert_eq!(cfg, BatchConfig::default());
        assert_eq!(cfg.min, 1);
        assert_eq!(cfg.max, 256);
        assert_eq!(cfg.linger, Duration::from_micros(2_000));
    }
}
