//! Skeleton-level integration: farms and pipelines validated against
//! sequential oracles.

use std::sync::Arc;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::RemotingError;
use parc::scoopp::{Farm, ParcRuntime, Pipeline};
use parc::serial::Value;
use parc_apps::sieve::{reference_primes, register_prime_filter_class, PRIME_SERVER_CLASS};

#[test]
fn sieve_pipeline_scales_with_aggregation_factors() {
    let limit = 80u32;
    let expected = reference_primes(limit);
    for factor in [1usize, 4, 32] {
        let mut b = ParcRuntime::builder();
        b.nodes(2).aggregation(factor);
        let rt = b.build().unwrap();
        register_prime_filter_class(&rt);
        let p = Pipeline::new(&rt, PRIME_SERVER_CLASS, expected.len(), "connect").unwrap();
        for candidate in 2..=limit {
            p.feed("process", vec![Value::I32Array(vec![candidate as i32])]).unwrap();
        }
        p.flush().unwrap();
        for stage in p.stages() {
            stage.call("drain", vec![]).unwrap();
        }
        let primes: Vec<u32> = p
            .stages()
            .iter()
            .filter_map(|s| s.call("prime", vec![]).unwrap().as_i32())
            .map(|v| v as u32)
            .collect();
        assert_eq!(primes, expected, "factor {factor}");
    }
}

#[test]
fn farm_gather_after_scatter_is_a_barrier() {
    let mut b = ParcRuntime::builder();
    b.nodes(2).aggregation(8);
    let rt = b.build().unwrap();
    rt.register_class("Sum", || {
        let total = std::sync::atomic::AtomicI64::new(0);
        Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
            "add" => {
                total.fetch_add(
                    args[0].as_i64().unwrap_or(0),
                    std::sync::atomic::Ordering::Relaxed,
                );
                Ok(Value::Null)
            }
            "total" => Ok(Value::I64(total.load(std::sync::atomic::Ordering::Relaxed))),
            _ => Err(RemotingError::MethodNotFound {
                object: "Sum".into(),
                method: method.into(),
            }),
        }))
    });
    let farm = Farm::new(&rt, "Sum", 4).unwrap();
    let items: Vec<Vec<Value>> = (1..=100i64).map(|i| vec![Value::I64(i)]).collect();
    farm.scatter("add", items).unwrap();
    // gather() performs a sync call per worker, which flushes and orders
    // after all scattered posts on that worker.
    let totals = farm.gather("total", vec![]).unwrap();
    let grand: i64 = totals.iter().map(|v| v.as_i64().unwrap()).sum();
    assert_eq!(grand, 5050);
}
