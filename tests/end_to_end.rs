//! Cross-crate integration tests: the full ParC# story wired end to end.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::tcp::{TcpChannelProvider, TcpServerChannel};
use parc::remoting::wellknown::WellKnownObjectMode;
use parc::remoting::{remote_interface, Activator, Invokable, RemotingError};
use parc::scoopp::{Farm, GrainConfig, ParcRuntime, Placement};
use parc::serial::Value;
use parc_apps::raytracer::{render_image, render_line, Scene};

remote_interface! {
    /// Cross-crate test interface.
    pub trait Worker, proxy WorkerProxy, dispatcher WorkerDispatcher {
        fn square(x: i32) -> i32;
        fn concat(a: String, b: String) -> String;
    }
}

struct WorkerImpl;

impl Worker for WorkerImpl {
    fn square(&self, x: i32) -> Result<i32, RemotingError> {
        Ok(x * x)
    }

    fn concat(&self, a: String, b: String) -> Result<String, RemotingError> {
        Ok(format!("{a}{b}"))
    }
}

#[test]
fn macro_proxy_over_real_tcp_with_singlecall_mode() {
    let server = TcpServerChannel::bind("127.0.0.1:0").unwrap();
    server.objects().register_well_known(
        "Worker",
        WellKnownObjectMode::SingleCall,
        || Arc::new(WorkerDispatcher(WorkerImpl)) as Arc<dyn Invokable>,
    );
    let provider = TcpChannelProvider::new();
    let proxy =
        WorkerProxy::new(Activator::get_object(&provider, &server.uri_for("Worker")).unwrap());
    assert_eq!(proxy.square(12).unwrap(), 144);
    assert_eq!(proxy.concat("par".into(), "c#".into()).unwrap(), "parc#");
}

#[test]
fn scoopp_farm_renders_the_same_image_as_sequential() {
    let scene = Scene::jgf(16);
    let (w, h) = (48, 48);
    let reference = render_image(&scene, w, h);

    for placement in [Placement::RoundRobin, Placement::LeastLoaded] {
        let mut builder = ParcRuntime::builder();
        builder.nodes(3).placement(placement);
        let rt = builder.build().unwrap();
        let worker_scene = scene.clone();
        rt.register_class("Renderer", move || {
            let scene = worker_scene.clone();
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "line" => {
                    let y = args[0].as_i64().unwrap() as usize;
                    Ok(Value::F64Array(render_line(&scene, 48, 48, y).pixels))
                }
                _ => Err(RemotingError::MethodNotFound {
                    object: "Renderer".into(),
                    method: method.into(),
                }),
            }))
        });
        let farm = Farm::new(&rt, "Renderer", 3).unwrap();
        let items: Vec<Vec<Value>> = (0..h).map(|y| vec![Value::I64(y as i64)]).collect();
        let lines = farm.map("line", items).unwrap();
        let checksum: f64 =
            lines.iter().map(|l| l.as_f64_array().unwrap().iter().sum::<f64>()).sum();
        assert!((checksum - reference.checksum()).abs() < 1e-9, "placement {placement}");
    }
}

#[test]
fn aggregation_is_transparent_to_results() {
    // The same workload with and without aggregation must produce the same
    // state, differing only in message counts.
    let run = |factor: usize| {
        let mut builder = ParcRuntime::builder();
        builder
            .nodes(2)
            .grain(GrainConfig { aggregation_factor: factor, ..GrainConfig::default() });
        let rt = builder.build().unwrap();
        rt.register_class("Acc", || {
            let total = AtomicI64::new(0);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "add" => {
                    total.fetch_add(
                        args[0].as_i64().unwrap_or(0),
                        Ordering::Relaxed,
                    );
                    Ok(Value::Null)
                }
                "total" => Ok(Value::I64(total.load(Ordering::Relaxed))),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Acc".into(),
                    method: method.into(),
                }),
            }))
        });
        let po = rt.create("Acc").unwrap();
        for i in 0..500i64 {
            po.post("add", vec![Value::I64(i)]).unwrap();
        }
        po.flush().unwrap();
        let total = po.call("total", vec![]).unwrap();
        (total, rt.stats().snapshot().messages_sent)
    };
    let (plain_total, plain_msgs) = run(1);
    let (agg_total, agg_msgs) = run(50);
    assert_eq!(plain_total, agg_total);
    assert_eq!(plain_total, Value::I64((0..500).sum()));
    assert!(
        agg_msgs * 10 < plain_msgs,
        "aggregation x50 must slash messages: {agg_msgs} vs {plain_msgs}"
    );
}

#[test]
fn runtime_survives_a_worker_fault_midstream() {
    let mut builder = ParcRuntime::builder();
    builder.nodes(1);
    let rt = builder.build().unwrap();
    rt.register_class("Flaky", || {
        Arc::new(FnInvokable(|method: &str, _args: &[Value]| match method {
            "ok" => Ok(Value::I32(1)),
            "boom" => Err(RemotingError::ServerFault { detail: "injected".into() }),
            _ => Err(RemotingError::MethodNotFound {
                object: "Flaky".into(),
                method: method.into(),
            }),
        }))
    });
    let po = rt.create("Flaky").unwrap();
    assert_eq!(po.call("ok", vec![]).unwrap(), Value::I32(1));
    assert!(po.call("boom", vec![]).is_err());
    // The channel and object survive the fault.
    assert_eq!(po.call("ok", vec![]).unwrap(), Value::I32(1));
}
