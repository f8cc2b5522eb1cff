//! Wire-format pin. The message envelopes are encoded from borrowed
//! fields and primitive arrays as one bulk copy; none of that may move a
//! byte, because the Fig. 8a/8b byte counts are derived from these
//! encodings. Three independent checks:
//!
//! * the tree-free envelope encoding equals the formatter's encoding of
//!   the message's `Value` tree, for generated messages and all three
//!   formatters, and decoding gives the message back;
//! * two golden byte strings captured before the bulk/tree-free encoders
//!   existed (commit `3dd81d8`) still come out of `BinaryFormatter`;
//! * the bulk array codec equals an element-wise reference encoder
//!   written here, bit for bit, and every truncation of an encoded
//!   array or byte string is an error, never a panic.

use parc_testkit::{Config, Source};

use parc::remoting::{CallMessage, ReturnMessage};
use parc::serial::value::ValueKind;
use parc::serial::{
    varint, BinaryFormatter, Formatter, JavaFormatter, SerialError, SoapFormatter, StructValue,
    Value,
};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const TEXT: &str = "abcxyzABCXYZ019 <>&\"/:-";

fn formatters() -> [Box<dyn Formatter>; 3] {
    [
        Box::new(BinaryFormatter::new()),
        Box::new(SoapFormatter::new()),
        Box::new(JavaFormatter::new()),
    ]
}

/// NaN-free so `==` is the round-trip oracle.
fn arb_value(src: &mut Source, depth: usize) -> Value {
    match src.choice(if depth == 0 { 9 } else { 11 }) {
        0 => Value::Null,
        1 => Value::Bool(src.bool_any()),
        2 => Value::I32(src.i32_any()),
        3 => Value::I64(src.i64_any()),
        4 => Value::F64(src.f64_non_nan()),
        5 => Value::Str(src.string_of(TEXT, 0..20)),
        6 => Value::Bytes(src.bytes(0..40)),
        7 => Value::I32Array(src.vec_of(0..40, Source::i32_any)),
        8 => Value::F64Array(src.vec_of(0..20, Source::f64_non_nan)),
        9 => Value::List(src.vec_of(0..4, |s| arb_value(s, depth - 1))),
        _ => {
            let mut s = StructValue::new(format!("T{}", src.string_of(LOWER, 0..6)));
            for _ in 0..src.usize_in(0..4) {
                s.push_field(src.string_of(LOWER, 1..6), arb_value(src, depth - 1));
            }
            Value::Struct(s)
        }
    }
}

fn arb_call(src: &mut Source) -> CallMessage {
    let mut call = CallMessage::new(
        src.string_of(TEXT, 0..16),
        src.string_of(LOWER, 1..10),
        src.vec_of(0..4, |s| arb_value(s, 2)),
    );
    call.call_id = src.u64_any();
    call.oneway = src.bool_any();
    call
}

/// Ok, fault and `moved_to` replies.
fn arb_return(src: &mut Source) -> ReturnMessage {
    let id = src.u64_any();
    let ret = if src.bool_any() {
        ReturnMessage::ok(id, arb_value(src, 2))
    } else {
        ReturnMessage::fault(id, src.string_of(TEXT, 0..30))
    };
    if src.bool_any() {
        ret.with_moved_to(src.string_of(TEXT, 1..30))
    } else {
        ret
    }
}

#[test]
fn call_envelope_equals_its_value_tree_on_every_formatter() {
    Config::cases(96).check(arb_call, |call| {
        for f in formatters() {
            let bytes = call.encode(&*f).unwrap();
            assert_eq!(
                bytes,
                f.serialize(&call.to_value()).unwrap(),
                "format {}",
                f.name()
            );
            let mut appended = b"head".to_vec();
            call.encode_into(&*f, &mut appended).unwrap();
            assert_eq!(&appended[4..], &bytes[..], "format {}", f.name());
            assert_eq!(
                &CallMessage::decode(&*f, &bytes).unwrap(),
                call,
                "format {}",
                f.name()
            );
            assert_eq!(&CallMessage::from_value(&call.to_value()).unwrap(), call);
        }
    });
}

#[test]
fn return_envelope_equals_its_value_tree_on_every_formatter() {
    Config::cases(96).check(arb_return, |ret| {
        for f in formatters() {
            let bytes = ret.encode(&*f).unwrap();
            assert_eq!(
                bytes,
                f.serialize(&ret.to_value()).unwrap(),
                "format {}",
                f.name()
            );
            let mut appended = b"head".to_vec();
            ret.encode_into(&*f, &mut appended).unwrap();
            assert_eq!(&appended[4..], &bytes[..], "format {}", f.name());
            assert_eq!(
                &ReturnMessage::decode(&*f, &bytes).unwrap(),
                ret,
                "format {}",
                f.name()
            );
            assert_eq!(&ReturnMessage::from_value(&ret.to_value()).unwrap(), ret);
        }
    });
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const GOLDEN_CALL: &str = "b14f010a0443616c6c05036f626a050b5072696d65536572766572066d6574686f\
64050770726f636573730269640354066f6e65776179010004617267730901070402000000fdffffffffffff7f00000080";
const GOLDEN_RETURN: &str = "b14f010a0652657475726e04026964030e026f6b01010576616c75650802000000\
000000f83f0000000000000080056d6f766564051b7463703a2f2f3132372e302e302e313a393030302f696f2d322d35";

#[test]
fn binary_envelopes_match_the_golden_bytes() {
    let f = BinaryFormatter::new();
    let mut call = CallMessage::new(
        "PrimeServer",
        "process",
        vec![Value::I32Array(vec![2, -3, i32::MAX, i32::MIN])],
    );
    call.call_id = 42;
    assert_eq!(hex(&call.encode(&f).unwrap()), GOLDEN_CALL);
    assert_eq!(hex(&f.serialize(&call.to_value()).unwrap()), GOLDEN_CALL);

    let ret = ReturnMessage::ok(7, Value::F64Array(vec![1.5, -0.0]))
        .with_moved_to("tcp://127.0.0.1:9000/io-2-5");
    assert_eq!(hex(&ret.encode(&f).unwrap()), GOLDEN_RETURN);
    assert_eq!(hex(&f.serialize(&ret.to_value()).unwrap()), GOLDEN_RETURN);
}

/// The binary format's array layout, one element at a time: header, tag,
/// varint count, then each element little-endian.
fn reference_array(
    kind: ValueKind,
    count: usize,
    elements: impl Iterator<Item = Vec<u8>>,
) -> Vec<u8> {
    let mut out = vec![0xb1, 0x4f, 1, kind as u8];
    varint::write_u64(&mut out, count as u64);
    for element in elements {
        out.extend_from_slice(&element);
    }
    out
}

#[test]
fn bulk_array_codec_equals_the_elementwise_reference() {
    let f = BinaryFormatter::new();
    for len in [0usize, 1, 3, 65_536] {
        let ints: Vec<i32> = [i32::MIN, i32::MAX, -1, 0]
            .into_iter()
            .chain((0..).map(|i: i32| i.wrapping_mul(0x9e37_79b9_u32 as i32)))
            .take(len)
            .collect();
        let reference = reference_array(
            ValueKind::I32Array,
            len,
            ints.iter().map(|v| v.to_le_bytes().to_vec()),
        );
        assert_eq!(
            f.serialize(&Value::I32Array(ints.clone())).unwrap(),
            reference,
            "i32 x {len}"
        );
        assert_eq!(f.deserialize(&reference).unwrap(), Value::I32Array(ints));

        // Quiet and signalling NaNs with payload bits, both zeros, both
        // infinities: floats must survive as bit patterns, not as values.
        let patterns = [
            0x7ff8_0000_0000_0001_u64,
            0xfff4_dead_beef_0000,
            (-0.0f64).to_bits(),
            0,
            f64::INFINITY.to_bits(),
            f64::NEG_INFINITY.to_bits(),
        ];
        let bits: Vec<u64> = patterns
            .into_iter()
            .chain((1u64..).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .take(len)
            .collect();
        let floats: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let reference = reference_array(
            ValueKind::F64Array,
            len,
            bits.iter().map(|b| b.to_le_bytes().to_vec()),
        );
        assert_eq!(
            f.serialize(&Value::F64Array(floats)).unwrap(),
            reference,
            "f64 x {len}"
        );
        let Value::F64Array(back) = f.deserialize(&reference).unwrap() else {
            panic!("f64 array decoded as another kind");
        };
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bits,
            "f64 x {len}"
        );
    }
}

#[test]
fn every_truncation_of_an_array_or_byte_string_is_an_error() {
    let f = BinaryFormatter::new();
    let values = [
        Value::I32Array((0..67).collect()),
        Value::F64Array((0..33).map(f64::from).collect()),
        Value::Bytes((0..131).map(|b| b as u8).collect()),
        // Inside an envelope, so the cut also lands in later fields.
        ReturnMessage::ok(3, Value::I32Array(vec![5; 9]))
            .with_moved_to("uri")
            .to_value(),
    ];
    for value in values {
        let bytes = f.serialize(&value).unwrap();
        assert_eq!(f.deserialize(&bytes).unwrap(), value);
        for cut in 0..bytes.len() {
            assert!(
                f.deserialize(&bytes[..cut]).is_err(),
                "{:?} cut at {cut} of {} decoded",
                value.kind(),
                bytes.len()
            );
        }
    }
}

/// A wire varint beyond `i32` under the `I32` tag is corruption, not a
/// value to wrap into range.
#[test]
fn out_of_range_i32_scalars_are_rejected_not_truncated() {
    let f = BinaryFormatter::new();
    for hostile in [
        1i64 << 40,
        i64::from(i32::MAX) + 1,
        i64::from(i32::MIN) - 1,
        i64::MIN,
    ] {
        let mut bytes = vec![0xb1, 0x4f, 1, ValueKind::I32 as u8];
        varint::write_i64(&mut bytes, hostile);
        assert!(
            matches!(
                f.deserialize(&bytes),
                Err(SerialError::BadVarint { offset: 3 })
            ),
            "{hostile} decoded as {:?}",
            f.deserialize(&bytes)
        );
    }
    for fine in [i32::MIN, -1, 0, i32::MAX] {
        let bytes = f.serialize(&Value::I32(fine)).unwrap();
        assert_eq!(f.deserialize(&bytes).unwrap(), Value::I32(fine));
    }
}

/// `decode` through the tree: the formatter's `Value`, then `from_value`.
fn call_via_tree(f: &dyn Formatter, bytes: &[u8]) -> Result<CallMessage, SerialError> {
    CallMessage::from_value(&f.deserialize(bytes)?)
}

fn return_via_tree(f: &dyn Formatter, bytes: &[u8]) -> Result<ReturnMessage, SerialError> {
    ReturnMessage::from_value(&f.deserialize(bytes)?)
}

/// Both envelope decoders agree with the tree path on `bytes`, error for
/// error.
fn assert_decodes_alike(f: &dyn Formatter, bytes: &[u8], what: &str) {
    assert_eq!(
        CallMessage::decode(f, bytes),
        call_via_tree(f, bytes),
        "call, {what}, format {}",
        f.name()
    );
    assert_eq!(
        ReturnMessage::decode(f, bytes),
        return_via_tree(f, bytes),
        "return, {what}, format {}",
        f.name()
    );
}

#[test]
fn tree_free_decode_equals_from_value_on_every_formatter() {
    Config::cases(96).check(
        |src| (arb_call(src), arb_return(src), arb_value(src, 2)),
        |(call, ret, value)| {
            for f in formatters() {
                let call_bytes = call.encode(&*f).unwrap();
                assert_eq!(&CallMessage::decode(&*f, &call_bytes).unwrap(), call);
                assert_decodes_alike(&*f, &call_bytes, "call bytes");
                let ret_bytes = ret.encode(&*f).unwrap();
                assert_eq!(&ReturnMessage::decode(&*f, &ret_bytes).unwrap(), ret);
                assert_decodes_alike(&*f, &ret_bytes, "return bytes");
                // Any other value is refused alike.
                assert_decodes_alike(&*f, &f.serialize(value).unwrap(), "a non-envelope");
            }
        },
    );
}

#[test]
fn every_cut_and_byte_flip_of_a_binary_envelope_decodes_alike() {
    let f = BinaryFormatter::new();
    let mut call = CallMessage::one_way("Prime-7", "process", vec![Value::I32(97), Value::Null]);
    call.call_id = 300;
    let envelopes = [
        call.encode(&f).unwrap(),
        ReturnMessage::ok(9, Value::List(vec![Value::F64(0.5), Value::Str("é".into())]))
            .with_moved_to("inproc://node1/io-1-4")
            .encode(&f)
            .unwrap(),
        ReturnMessage::fault(2, "boom").encode(&f).unwrap(),
    ];
    for bytes in envelopes {
        for cut in 0..bytes.len() {
            assert_decodes_alike(&f, &bytes[..cut], &format!("cut at {cut}"));
            assert!(CallMessage::decode(&f, &bytes[..cut]).is_err(), "cut at {cut}");
            assert!(ReturnMessage::decode(&f, &bytes[..cut]).is_err(), "cut at {cut}");
        }
        for at in 0..bytes.len() {
            for mask in [0x01u8, 0x40, 0x80, 0xff] {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                assert_decodes_alike(&f, &flipped, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
    }
}

fn call_struct(name: &str, fields: &[(&str, Value)]) -> Value {
    let mut s = StructValue::new(name);
    for (field, value) in fields {
        s.push_field(*field, value.clone());
    }
    Value::Struct(s)
}

/// Hand-built envelopes at the edges of the field-matching rule: the
/// first field of a name wins even when a later one would fit, unknown
/// fields are skipped, and the struct name must match exactly.
#[test]
fn hand_built_envelopes_decode_alike_and_first_field_wins() {
    let obj = |s: &str| ("obj", Value::Str(s.into()));
    let rest = [
        ("method", Value::Str("m".into())),
        ("id", Value::I64(5)),
        ("oneway", Value::Bool(false)),
        ("args", Value::List(vec![Value::I32(1)])),
    ];
    let with = |head: &[(&'static str, Value)]| -> Vec<(&'static str, Value)> {
        let mut fields = head.to_vec();
        fields.extend(rest.iter().cloned());
        fields
    };
    let duplicated = call_struct("Call", &with(&[obj("first"), obj("second")]));
    let wrong_first = call_struct("Call", &with(&[("obj", Value::I64(1)), obj("later")]));
    let unknown = call_struct("Call", &with(&[("extra", Value::Null), obj("x")]));
    let bad_id = call_struct("Call", &with(&[obj("x"), ("id", Value::Str("5".into()))]));
    let wrong_name = call_struct("Cal", &with(&[obj("x")]));
    let reply_dup = call_struct(
        "Return",
        &[
            ("id", Value::I32(4)),
            ("ok", Value::Bool(true)),
            ("value", Value::I64(1)),
            ("value", Value::I64(2)),
            ("moved", Value::I64(3)),
            ("moved", Value::Str("ignored".into())),
        ],
    );
    for f in formatters() {
        let f = &*f;
        let enc = |v: &Value| f.serialize(v).unwrap();
        for value in [&duplicated, &wrong_first, &unknown, &bad_id, &wrong_name, &reply_dup] {
            assert_decodes_alike(f, &enc(value), &format!("{value:?}"));
        }
        assert_eq!(CallMessage::decode(f, &enc(&duplicated)).unwrap().object, "first");
        assert_eq!(CallMessage::decode(f, &enc(&unknown)).unwrap().object, "x");
        assert!(CallMessage::decode(f, &enc(&wrong_first)).is_err(), "format {}", f.name());
        assert!(CallMessage::decode(f, &enc(&bad_id)).is_err(), "format {}", f.name());
        assert!(CallMessage::decode(f, &enc(&wrong_name)).is_err(), "format {}", f.name());
        let reply = ReturnMessage::decode(f, &enc(&reply_dup)).unwrap();
        assert_eq!((reply.call_id, reply.result, reply.moved_to), (4, Ok(Value::I64(1)), None));
    }
    // A byte after a whole binary envelope is an error on both paths.
    let f = BinaryFormatter::new();
    let mut bytes = f.serialize(&duplicated).unwrap();
    bytes.push(0);
    assert_decodes_alike(&f, &bytes, "trailing byte");
    assert_eq!(
        CallMessage::decode(&f, &bytes),
        Err(SerialError::TrailingBytes { remaining: 1 })
    );
}
