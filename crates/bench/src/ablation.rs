//! E6/E7/E8 — ablations of the design choices, run on the **real**
//! runtime (no simulation): message counts come from `RuntimeStats`, wall
//! times from the clock.
//!
//! * E6 — method-call aggregation: sweep Fig. 7's `maxCalls` and watch the
//!   wire-message count collapse;
//! * E7 — object agglomeration: sweep the local-creation ratio on an
//!   object-creation storm;
//! * E8 — §4's claim that "the performance penalty introduced by the ParC#
//!   platform is not noticeable": compare a PO-mediated call with a raw
//!   remoting call.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_core::{GrainConfig, ParcRuntime};
use parc_remoting::dispatcher::FnInvokable;
use parc_remoting::{Activator, RemotingError};
use parc_serial::Value;

/// Registers the accumulator class used by every ablation.
fn register_counter(rt: &ParcRuntime) {
    rt.register_class("Acc", || {
        let sum = AtomicI64::new(0);
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "add" => {
                sum.fetch_add(
                    i64::from(args.first().and_then(Value::as_i32).unwrap_or(0)),
                    Ordering::Relaxed,
                );
                Ok(Value::Null)
            }
            "total" => Ok(Value::I64(sum.load(Ordering::Relaxed))),
            _ => Err(RemotingError::MethodNotFound {
                object: "Acc".into(),
                method: method.into(),
            }),
        }))
    });
}

/// One row of the E6 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationPoint {
    /// `maxCalls`.
    pub factor: usize,
    /// Asynchronous calls issued.
    pub calls: u64,
    /// Wire messages those calls became.
    pub messages: u64,
    /// Aggregate messages among them.
    pub batches: u64,
    /// Wall-clock time for issue + flush + verify.
    pub wall: Duration,
    /// The verified sum (correctness guard).
    pub total: i64,
}

/// Sweeps the aggregation factor for `calls` asynchronous calls.
///
/// # Panics
///
/// Panics if the runtime misbehaves (this is a harness).
pub fn aggregation_sweep(factors: &[usize], calls: usize) -> Vec<AggregationPoint> {
    factors
        .iter()
        .map(|&factor| {
            let mut b = ParcRuntime::builder();
            b.nodes(1).grain(GrainConfig { aggregation_factor: factor, ..GrainConfig::default() });
            let rt = b.build().expect("runtime boots");
            register_counter(&rt);
            let acc = rt.create("Acc").expect("class registered");
            let start = Instant::now();
            for _ in 0..calls {
                acc.post("add", vec![Value::I32(1)]).expect("post");
            }
            acc.flush().expect("flush");
            let total = acc
                .call("total", vec![])
                .expect("total")
                .as_i64()
                .expect("i64 total");
            let wall = start.elapsed();
            assert_eq!(total, calls as i64, "aggregation must not lose calls");
            let stats = rt.stats().snapshot();
            AggregationPoint {
                factor,
                calls: stats.async_calls,
                // The final sync "total" also costs one message; report
                // only the async traffic.
                messages: stats.messages_sent - 1,
                batches: stats.batches_sent,
                wall,
                total,
            }
        })
        .collect()
}

/// One row of the E7 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AgglomerationPoint {
    /// Local-creation ratio requested.
    pub ratio: f64,
    /// Objects created locally (agglomerated).
    pub local: u64,
    /// Objects created through remote factories.
    pub remote: u64,
    /// Wall-clock time for the creation storm plus one call per object.
    pub wall: Duration,
}

/// Creates `objects` parallel objects per ratio, calling each once.
///
/// # Panics
///
/// Panics if the runtime misbehaves.
pub fn agglomeration_sweep(ratios: &[f64], objects: usize) -> Vec<AgglomerationPoint> {
    ratios
        .iter()
        .map(|&ratio| {
            let mut b = ParcRuntime::builder();
            b.nodes(2).grain(GrainConfig {
                agglomeration_ratio: ratio,
                ..GrainConfig::default()
            });
            let rt = b.build().expect("runtime boots");
            register_counter(&rt);
            let start = Instant::now();
            for _ in 0..objects {
                let po = rt.create("Acc").expect("create");
                po.call("total", vec![]).expect("first call");
            }
            let stats = rt.stats().snapshot();
            AgglomerationPoint {
                ratio,
                local: stats.local_creations,
                remote: stats.remote_creations,
                wall: start.elapsed(),
            }
        })
        .collect()
}

/// E8: total sync-call time through a PO vs through a raw remoting proxy,
/// over `calls` calls each. Each call is timed on its own and the two
/// sides interleave, alternating which goes first, so a burst of noise
/// from the rest of the machine lands on both sides alike.
///
/// # Panics
///
/// Panics if the runtime misbehaves.
pub fn platform_overhead(calls: usize) -> (Duration, Duration) {
    let mut b = ParcRuntime::builder();
    b.nodes(1);
    let rt = b.build().expect("runtime boots");
    register_counter(&rt);
    let po = rt.create("Acc").expect("create");

    // Raw proxy to the very same IO, bypassing the PO layer.
    let uri = po.uri().expect("distributed object has a uri");
    let raw = Activator::get_object(rt.network(), &uri).expect("activator");

    // Warm both paths.
    for _ in 0..50 {
        po.call("total", vec![]).expect("warm po");
        raw.call("total", vec![]).expect("warm raw");
    }

    let time_po = || {
        let start = Instant::now();
        po.call("total", vec![]).expect("po call");
        start.elapsed()
    };
    let time_raw = || {
        let start = Instant::now();
        raw.call("total", vec![]).expect("raw call");
        start.elapsed()
    };
    let (mut po_time, mut raw_time) = (Duration::ZERO, Duration::ZERO);
    for i in 0..calls {
        if i % 2 == 0 {
            po_time += time_po();
            raw_time += time_raw();
        } else {
            raw_time += time_raw();
            po_time += time_po();
        }
    }
    (po_time, raw_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_divides_message_count() {
        let pts = aggregation_sweep(&[1, 8, 64], 256);
        assert_eq!(pts[0].messages, 256, "factor 1: one message per call");
        assert_eq!(pts[1].messages, 256 / 8, "factor 8 packs 8 calls per message");
        assert_eq!(pts[2].messages, 256 / 64);
        assert_eq!(pts[1].batches, 32);
        for p in &pts {
            assert_eq!(p.total, 256, "no calls lost at factor {}", p.factor);
        }
    }

    #[test]
    fn message_counts_are_monotone_in_factor() {
        let pts = aggregation_sweep(&[1, 2, 4, 8, 16, 32], 128);
        for w in pts.windows(2) {
            assert!(w[1].messages < w[0].messages);
        }
    }

    #[test]
    fn agglomeration_extremes_are_all_or_nothing() {
        let pts = agglomeration_sweep(&[0.0, 1.0], 20);
        assert_eq!(pts[0].local, 0);
        assert_eq!(pts[0].remote, 20);
        assert_eq!(pts[1].local, 20);
        assert_eq!(pts[1].remote, 0);
    }

    #[test]
    fn intermediate_ratio_mixes() {
        let pts = agglomeration_sweep(&[0.5], 60);
        assert_eq!(pts[0].local + pts[0].remote, 60);
        assert!(pts[0].local > 10, "seeded coin must land near half: {:?}", pts[0]);
        assert!(pts[0].remote > 10, "{:?}", pts[0]);
    }

    #[test]
    fn platform_overhead_is_modest() {
        // §4: "the performance penalty introduced by the ParC# platform is
        // not noticeable". Allow generous slack for CI noise: the PO path
        // must stay within 2x of the raw path.
        let (po, raw) = platform_overhead(300);
        let ratio = po.as_secs_f64() / raw.as_secs_f64();
        assert!(ratio < 2.0, "PO overhead ratio {ratio}");
    }
}
