//! Property tests spanning crates: arbitrary payloads must survive every
//! channel and every formatter unchanged, and the SCOOPP layer must be
//! observationally equivalent across placement/aggregation settings.

use std::sync::Arc;

use parc_sync::Mutex;
use parc_testkit::{Config, Source};

use parc::remoting::dispatcher::FnInvokable;
use parc::remoting::inproc::InprocNetwork;
use parc::remoting::{Activator, CallMessage, RemotingError, ReturnMessage};
use parc::scoopp::{GrainConfig, ParcRuntime};
use parc::serial::{BinaryFormatter, Formatter, JavaFormatter, SoapFormatter, StructValue, Value};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const TEXT: &str = "abcxyzABCXYZ019 <>&\"";

fn arb_payload(src: &mut Source) -> Value {
    arb_payload_at(src, 3)
}

fn arb_payload_at(src: &mut Source, depth: usize) -> Value {
    let arms = if depth == 0 { 8 } else { 10 };
    match src.choice(arms) {
        0 => Value::Null,
        1 => Value::Bool(src.bool_any()),
        2 => Value::I32(src.i32_any()),
        3 => Value::I64(src.i64_any()),
        4 => Value::F64(src.f64_non_nan()),
        5 => Value::Str(src.string_of(TEXT, 0..25)),
        6 => Value::Bytes(src.bytes(0..48)),
        7 => Value::I32Array(src.vec_of(0..48, |s| s.i32_any())),
        8 => Value::List(src.vec_of(0..5, |s| arb_payload_at(s, depth - 1))),
        _ => {
            let mut name = src.string_of(UPPER, 1..2);
            name.push_str(&src.string_of(LOWER, 0..7));
            let mut s = StructValue::new(name);
            for _ in 0..src.usize_in(0..4) {
                s.push_field(src.string_of(LOWER, 1..6), arb_payload_at(src, depth - 1));
            }
            Value::Struct(s)
        }
    }
}

/// A full call/return cycle through every formatter preserves payloads.
#[test]
fn call_frames_roundtrip_every_formatter() {
    Config::cases(64).check(
        |src| (arb_payload(src), src.u64_any()),
        |(payload, id)| {
            let formatters: [&dyn Formatter; 3] =
                [&BinaryFormatter::new(), &SoapFormatter::new(), &JavaFormatter::new()];
            let mut call = CallMessage::new("Obj", "method", vec![payload.clone()]);
            call.call_id = *id;
            let ret = ReturnMessage::ok(*id, payload.clone());
            for f in formatters {
                let c2 = CallMessage::decode(f, &call.encode(f).unwrap()).unwrap();
                assert_eq!(&c2, &call, "{}", f.name());
                let r2 = ReturnMessage::decode(f, &ret.encode(f).unwrap()).unwrap();
                assert_eq!(&r2, &ret, "{}", f.name());
            }
        },
    );
}

/// Echoing through a live inproc endpoint preserves arbitrary values.
#[test]
fn inproc_channel_echoes_arbitrary_values() {
    Config::cases(64).check(arb_payload, |payload| {
        let net = InprocNetwork::new();
        let ep = net.create_endpoint("prop").unwrap();
        ep.objects().register_singleton(
            "Echo",
            Arc::new(FnInvokable(|_: &str, args: &[Value]| {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            })),
        );
        let proxy = Activator::get_object(&net, "inproc://prop/Echo").unwrap();
        assert_eq!(&proxy.call("echo", vec![payload.clone()]).unwrap(), payload);
        drop(ep);
    });
}

/// The observable effect of a post sequence is invariant under
/// aggregation factor and local-vs-remote placement.
#[test]
fn scoopp_semantics_invariant_under_grain_settings() {
    Config::cases(16).check(
        |src| {
            (
                src.vec_of(1..40, |s| s.i32_in(-100..100)),
                src.usize_in(1..20),
                src.bool_any(),
            )
        },
        |(values, factor, local)| {
            let log = Arc::new(Mutex::new(Vec::<i32>::new()));
            let mut b = ParcRuntime::builder();
            b.nodes(2).grain(GrainConfig {
                aggregation_factor: *factor,
                agglomeration_ratio: if *local { 1.0 } else { 0.0 },
                ..GrainConfig::default()
            });
            let rt = b.build().unwrap();
            let log2 = Arc::clone(&log);
            rt.register_class("Rec", move || {
                let log = Arc::clone(&log2);
                Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                    "push" => {
                        log.lock().push(args[0].as_i32().unwrap_or(i32::MIN));
                        Ok(Value::Null)
                    }
                    "len" => Ok(Value::I64(log.lock().len() as i64)),
                    _ => Err(RemotingError::MethodNotFound {
                        object: "Rec".into(),
                        method: method.into(),
                    }),
                }))
            });
            let po = rt.create("Rec").unwrap();
            for &v in values {
                po.post("push", vec![Value::I32(v)]).unwrap();
            }
            po.flush().unwrap();
            // The sync call is the order barrier: after it, all posts landed.
            let len = po.call("len", vec![]).unwrap();
            assert_eq!(len, Value::I64(values.len() as i64));
            assert_eq!(&log.lock().clone(), values);
        },
    );
}
