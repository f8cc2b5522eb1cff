//! Compact binary format — the analogue of .NET remoting's
//! `BinaryFormatter` as used by Mono's `TcpChannel`.
//!
//! Layout: a 2-byte magic (`0xB1 0x4F`) and a version byte, followed by one
//! recursively encoded value. Each value is a tag byte
//! ([`crate::value::ValueKind`]) followed by its payload; lengths and
//! integers are varints, floats are 8-byte little-endian.

use crate::value::{StructValue, Value, ValueKind};
use crate::varint;
use crate::{not_struct, Field, FieldVisitor, Formatter, SerialError};

const MAGIC: [u8; 2] = [0xb1, 0x4f];
const VERSION: u8 = 1;

/// The compact binary wire format (Mono TCP channel analogue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryFormatter;

impl BinaryFormatter {
    /// Creates a binary formatter.
    pub fn new() -> Self {
        BinaryFormatter
    }

    fn write_value(out: &mut Vec<u8>, value: &Value) {
        out.push(value.kind() as u8);
        match value {
            Value::Null => {}
            Value::Bool(b) => out.push(u8::from(*b)),
            Value::I32(v) => varint::write_i64(out, i64::from(*v)),
            Value::I64(v) => varint::write_i64(out, *v),
            Value::F64(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            Value::Str(s) => write_len_prefixed(out, s.as_bytes()),
            Value::Bytes(b) => write_len_prefixed(out, b),
            // Primitive arrays are one bulk little-endian copy: after the
            // `reserve` the `extend` compiles to a straight vectorised fill.
            Value::I32Array(a) => {
                varint::write_u64(out, a.len() as u64);
                out.reserve(a.len() * 4);
                out.extend(a.iter().flat_map(|v| v.to_le_bytes()));
            }
            Value::F64Array(a) => {
                varint::write_u64(out, a.len() as u64);
                out.reserve(a.len() * 8);
                out.extend(a.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            }
            Value::List(items) => Self::write_items(out, items),
            Value::Struct(s) => {
                let fields = s.fields().iter().map(|(name, v)| (name.as_str(), Field::Value(v)));
                Self::write_fields(out, s.name(), fields);
            }
            Value::Ref(id) => varint::write_u64(out, u64::from(*id)),
        }
    }

    fn write_items(out: &mut Vec<u8>, items: &[Value]) {
        varint::write_u64(out, items.len() as u64);
        for item in items {
            Self::write_value(out, item);
        }
    }

    /// What follows a struct's tag, for `Value::Struct` and the tree-free
    /// [`Formatter::serialize_struct_into`] alike. A borrowed `Str` or `List`
    /// gets its tag here and its body from the writer `write_value` uses.
    fn write_fields<'a>(
        out: &mut Vec<u8>,
        name: &str,
        fields: impl ExactSizeIterator<Item = (&'a str, Field<'a>)>,
    ) {
        write_len_prefixed(out, name.as_bytes());
        varint::write_u64(out, fields.len() as u64);
        for (fname, field) in fields {
            write_len_prefixed(out, fname.as_bytes());
            match field {
                Field::Str(s) => {
                    out.push(ValueKind::Str as u8);
                    write_len_prefixed(out, s.as_bytes());
                }
                Field::List(items) => {
                    out.push(ValueKind::List as u8);
                    Self::write_items(out, items);
                }
                Field::I64(v) => Self::write_value(out, &Value::I64(v)),
                Field::Bool(b) => Self::write_value(out, &Value::Bool(b)),
                Field::Value(v) => Self::write_value(out, v),
            }
        }
    }

    fn read_value(input: &[u8], pos: &mut usize, depth: usize) -> Result<Value, SerialError> {
        if depth > MAX_DEPTH {
            return Err(SerialError::Parse { detail: "value nesting too deep".into() });
        }
        let tag_offset = *pos;
        let tag = *input.get(*pos).ok_or(SerialError::UnexpectedEof { offset: *pos })?;
        *pos += 1;
        let kind = ValueKind::from_tag(tag)
            .ok_or(SerialError::BadTag { tag, offset: tag_offset })?;
        Ok(match kind {
            ValueKind::Null => Value::Null,
            ValueKind::Bool => {
                let b = *input.get(*pos).ok_or(SerialError::UnexpectedEof { offset: *pos })?;
                *pos += 1;
                Value::Bool(b != 0)
            }
            ValueKind::I32 => Value::I32(
                i32::try_from(varint::read_i64(input, pos)?)
                    .map_err(|_| SerialError::BadVarint { offset: tag_offset })?,
            ),
            ValueKind::I64 => Value::I64(varint::read_i64(input, pos)?),
            ValueKind::F64 => Value::F64(f64_le(take(input, pos, 8)?)),
            ValueKind::Str => Value::Str(read_string(input, pos)?),
            ValueKind::Bytes => Value::Bytes(read_len_prefixed(input, pos)?.to_vec()),
            // Arrays: `read_len_elems` bounds `len * width` by the input
            // left, one `take` checks it, one vectorisable pass converts.
            ValueKind::I32Array => {
                let len = read_len_elems(input, pos, 4)?;
                let le = |c: &[u8]| i32::from_le_bytes(c.try_into().expect("4 bytes"));
                Value::I32Array(take(input, pos, len * 4)?.chunks_exact(4).map(le).collect())
            }
            ValueKind::F64Array => {
                let len = read_len_elems(input, pos, 8)?;
                Value::F64Array(take(input, pos, len * 8)?.chunks_exact(8).map(f64_le).collect())
            }
            ValueKind::List => {
                let len = read_len_elems(input, pos, 1)?;
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Self::read_value(input, pos, depth + 1)?);
                }
                Value::List(items)
            }
            ValueKind::Struct => {
                let mut s = StructValue::new(read_string(input, pos)?);
                Self::read_fields(input, pos, depth, |field, v| {
                    s.push_field(field, v);
                    Ok(())
                })?;
                Value::Struct(s)
            }
            ValueKind::Ref => {
                let id = varint::read_u64(input, pos)?;
                if id > u64::from(u32::MAX) {
                    return Err(SerialError::BadVarint { offset: tag_offset });
                }
                Value::Ref(id as u32)
            }
        })
    }

    /// What follows a struct's name, each field lent to `each`, for
    /// `Value::Struct` and the tree-free [`Formatter::deserialize_struct`]
    /// alike.
    fn read_fields<'a>(
        input: &'a [u8],
        pos: &mut usize,
        depth: usize,
        mut each: impl FnMut(&'a str, Value) -> Result<(), SerialError>,
    ) -> Result<(), SerialError> {
        let nfields = read_len_elems(input, pos, 2)?;
        for _ in 0..nfields {
            let field = read_str(input, pos)?;
            each(field, Self::read_value(input, pos, depth + 1)?)?;
        }
        Ok(())
    }
}

const MAX_DEPTH: usize = 512;

fn write_len_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    varint::write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn take<'a>(input: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], SerialError> {
    let end = pos.checked_add(len).ok_or(SerialError::BadLength {
        declared: len,
        available: input.len().saturating_sub(*pos),
    })?;
    if end > input.len() {
        return Err(SerialError::BadLength {
            declared: len,
            available: input.len() - *pos,
        });
    }
    let slice = &input[*pos..end];
    *pos = end;
    Ok(slice)
}

fn read_len_prefixed<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a [u8], SerialError> {
    let len = read_len_elems(input, pos, 1)?;
    take(input, pos, len)
}

/// Reads a length prefix and sanity-checks it against the remaining input,
/// assuming each element costs at least `min_elem_bytes` bytes. This bounds
/// attacker/corruption-driven preallocation.
fn read_len_elems(input: &[u8], pos: &mut usize, min_elem_bytes: usize) -> Result<usize, SerialError> {
    let len = varint::read_u64(input, pos)?;
    let available = input.len() - *pos;
    let len = usize::try_from(len).map_err(|_| SerialError::BadLength {
        declared: usize::MAX,
        available,
    })?;
    // A list of N elements needs at least N*min bytes of remaining input
    // (elements may be `Null` = 1 byte for lists, handled by min=1).
    if len.saturating_mul(min_elem_bytes.max(1)) > available {
        return Err(SerialError::BadLength { declared: len, available });
    }
    Ok(len)
}

fn f64_le(raw: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

fn read_str<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a str, SerialError> {
    let raw = read_len_prefixed(input, pos)?;
    std::str::from_utf8(raw).map_err(|_| SerialError::BadUtf8 { offset: *pos - raw.len() })
}

fn read_string(input: &[u8], pos: &mut usize) -> Result<String, SerialError> {
    read_str(input, pos).map(str::to_owned)
}

/// Checks the stream header, returning where the value starts.
fn read_header(bytes: &[u8]) -> Result<usize, SerialError> {
    if bytes.len() < 3 || bytes[0..2] != MAGIC || bytes[2] != VERSION {
        return Err(SerialError::BadMagic { expected: "binary" });
    }
    Ok(3)
}

fn expect_end(bytes: &[u8], pos: usize) -> Result<(), SerialError> {
    if pos != bytes.len() {
        return Err(SerialError::TrailingBytes { remaining: bytes.len() - pos });
    }
    Ok(())
}

impl Formatter for BinaryFormatter {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn serialize(&self, value: &Value) -> Result<Vec<u8>, SerialError> {
        let mut out = Vec::with_capacity(16 + value.payload_bytes());
        self.serialize_into(value, &mut out)?;
        Ok(out)
    }

    fn serialize_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<(), SerialError> {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        Self::write_value(out, value);
        Ok(())
    }

    fn serialize_struct_into(
        &self,
        name: &str,
        fields: &[(&str, Field<'_>)],
        out: &mut Vec<u8>,
    ) -> Result<(), SerialError> {
        out.extend_from_slice(&[MAGIC[0], MAGIC[1], VERSION, ValueKind::Struct as u8]);
        Self::write_fields(out, name, fields.iter().copied());
        Ok(())
    }

    fn deserialize(&self, bytes: &[u8]) -> Result<Value, SerialError> {
        let mut pos = read_header(bytes)?;
        let value = Self::read_value(bytes, &mut pos, 0)?;
        expect_end(bytes, pos)?;
        Ok(value)
    }

    /// `read_value`'s struct arm without the struct: the name is compared
    /// in place and each field name is lent to `visit`. The reads and
    /// checks come in `deserialize`'s order, so both fail alike; a name
    /// mismatch is reported once the bytes have parsed.
    fn deserialize_struct(
        &self,
        bytes: &[u8],
        name: &str,
        visit: &mut FieldVisitor<'_>,
    ) -> Result<(), SerialError> {
        let mut pos = read_header(bytes)?;
        if bytes.get(pos) != Some(&(ValueKind::Struct as u8)) {
            self.deserialize(bytes)?;
            return Err(not_struct(name));
        }
        pos += 1;
        let named = read_str(bytes, &mut pos)? == name;
        Self::read_fields(bytes, &mut pos, 0, |field, value| {
            if named {
                visit(field, value)
            } else {
                Ok(())
            }
        })?;
        expect_end(bytes, pos)?;
        if named {
            Ok(())
        } else {
            Err(not_struct(name))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_testkit::{Config, Source};

    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

    fn arb_value(src: &mut Source) -> Value {
        arb_value_at(src, 4)
    }

    fn arb_value_at(src: &mut Source, depth: usize) -> Value {
        // Leaves first so a zeroed tape yields Value::Null.
        let arms = if depth == 0 { 10 } else { 12 };
        match src.choice(arms) {
            0 => Value::Null,
            1 => Value::Bool(src.bool_any()),
            2 => Value::I32(src.i32_any()),
            3 => Value::I64(src.i64_any()),
            4 => Value::F64(src.f64_any()),
            5 => Value::Str(src.string_of(LOWER, 0..13)),
            6 => Value::Bytes(src.bytes(0..64)),
            7 => Value::I32Array(src.vec_of(0..64, |s| s.i32_any())),
            8 => Value::F64Array(src.vec_of(0..32, |s| s.f64_any())),
            9 => Value::Ref(src.u64_in(0..1000) as u32),
            10 => Value::List(src.vec_of(0..8, |s| arb_value_at(s, depth - 1))),
            _ => {
                let mut name = src.string_of(UPPER, 1..2);
                name.push_str(&src.string_of(LOWER, 0..7));
                let mut s = StructValue::new(name);
                for _ in 0..src.usize_in(0..6) {
                    s.push_field(src.string_of(LOWER, 1..7), arb_value_at(src, depth - 1));
                }
                Value::Struct(s)
            }
        }
    }

    /// Equality that treats NaN == NaN, for generated float payloads.
    fn eq_nan(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Value::F64Array(x), Value::F64Array(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|(p, q)| p == q || (p.is_nan() && q.is_nan()))
            }
            (Value::List(x), Value::List(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| eq_nan(p, q))
            }
            (Value::Struct(x), Value::Struct(y)) => {
                x.name() == y.name()
                    && x.fields().len() == y.fields().len()
                    && x.fields()
                        .iter()
                        .zip(y.fields())
                        .all(|((n1, v1), (n2, v2))| n1 == n2 && eq_nan(v1, v2))
            }
            _ => a == b,
        }
    }

    #[test]
    fn prop_roundtrip() {
        Config::new().check(arb_value, |v| {
            let f = BinaryFormatter::new();
            let bytes = f.serialize(v).unwrap();
            let back = f.deserialize(&bytes).unwrap();
            assert!(eq_nan(&back, v), "{back:?} != {v:?}");
        });
    }

    #[test]
    fn prop_truncation_never_panics() {
        Config::new().check(
            |src| (arb_value(src), src.usize_in(0..64)),
            |(v, cut)| {
                let f = BinaryFormatter::new();
                let mut bytes = f.serialize(v).unwrap();
                let keep = bytes.len().saturating_sub((*cut).min(bytes.len()));
                bytes.truncate(keep);
                let _ = f.deserialize(&bytes); // must not panic
            },
        );
    }

    #[test]
    fn prop_random_bytes_never_panic() {
        Config::new().check(
            |src| src.bytes(0..256),
            |bytes| {
                let _ = BinaryFormatter::new().deserialize(bytes);
            },
        );
    }

    #[test]
    fn header_is_three_bytes() {
        let bytes = BinaryFormatter::new().serialize(&Value::Null).unwrap();
        assert_eq!(bytes.len(), 4); // magic(2) + version + null tag
        assert_eq!(&bytes[..2], &MAGIC);
    }

    #[test]
    fn i32_array_is_four_bytes_per_element() {
        let f = BinaryFormatter::new();
        let small = f.serialize(&Value::I32Array(vec![7; 100])).unwrap().len();
        let big = f.serialize(&Value::I32Array(vec![7; 1100])).unwrap().len();
        assert_eq!(big - small, 4000 + 1 /* longer varint length */);
    }

    #[test]
    fn trailing_bytes_detected() {
        let f = BinaryFormatter::new();
        let mut bytes = f.serialize(&Value::I32(1)).unwrap();
        bytes.push(0);
        assert!(matches!(f.deserialize(&bytes), Err(SerialError::TrailingBytes { remaining: 1 })));
    }

    #[test]
    fn huge_declared_length_is_rejected_without_allocation() {
        let f = BinaryFormatter::new();
        // tag, varint length = u32::MAX, no payload
        for kind in [ValueKind::I32Array, ValueKind::F64Array, ValueKind::Bytes] {
            let mut bytes = vec![MAGIC[0], MAGIC[1], VERSION, kind as u8];
            crate::varint::write_u64(&mut bytes, u64::from(u32::MAX));
            assert!(matches!(f.deserialize(&bytes), Err(SerialError::BadLength { .. })), "{kind}");
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let f = BinaryFormatter::new();
        assert!(matches!(f.deserialize(b"xx"), Err(SerialError::BadMagic { .. })));
        assert!(matches!(f.deserialize(&[]), Err(SerialError::BadMagic { .. })));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut v = Value::Null;
        for _ in 0..(MAX_DEPTH + 4) {
            v = Value::List(vec![v]);
        }
        let f = BinaryFormatter::new();
        let bytes = f.serialize(&v).unwrap();
        assert!(f.deserialize(&bytes).is_err());
    }
}
