//! The dynamic value model carried by every remote call.
//!
//! .NET remoting and Java RMI both ship arbitrary object graphs; the ParC#
//! runtime only ever ships *copies* of passive objects plus primitive
//! arguments (parallel-object references travel as URIs, not object state).
//! [`Value`] is therefore a closed, self-describing model: primitives,
//! strings, byte/int/float arrays (the payloads the paper's ping-pong and
//! Ray Tracer exchange), heterogeneous lists, named structs, and
//! back-references (`Ref`), which every wire format encodes.

use std::fmt;

/// A named aggregate value — the wire image of a passive object.
///
/// Field order is significant and preserved; two struct values are equal only
/// if their names, field names, field order and field values all match,
/// mirroring how a binary serializer lays fields out positionally.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StructValue {
    name: String,
    fields: Vec<(String, Value)>,
}

impl StructValue {
    /// Creates an empty struct value with the given type name.
    pub fn new(name: impl Into<String>) -> Self {
        StructValue { name: name.into(), fields: Vec::new() }
    }

    /// Adds a field, builder style.
    #[must_use]
    pub fn with_field(mut self, name: impl Into<String>, value: Value) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Adds a field in place.
    pub fn push_field(&mut self, name: impl Into<String>, value: Value) {
        self.fields.push((name.into(), value));
    }

    /// The struct's type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[(String, Value)] {
        &self.fields
    }

    /// Looks a field up by name (linear scan; structs are small).
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the struct has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Consumes the struct, returning its fields.
    pub fn into_fields(self) -> Vec<(String, Value)> {
        self.fields
    }
}

/// A dynamically typed serializable value.
///
/// This is the closed payload model of the remoting substrate: everything a
/// remote method call carries — arguments, return values, aggregated call
/// batches — is a `Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The null reference.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 32-bit signed integer.
    I32(i32),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit IEEE float.
    F64(f64),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte array.
    Bytes(Vec<u8>),
    /// A packed `int[]` — the payload type of the paper's ping-pong test.
    I32Array(Vec<i32>),
    /// A packed `double[]` — Ray Tracer pixel rows travel as these.
    F64Array(Vec<f64>),
    /// A heterogeneous ordered list (the `ArrayList` of Fig. 7).
    List(Vec<Value>),
    /// A named aggregate (a serialized passive object).
    Struct(StructValue),
    /// A back-reference to a previously encoded graph node.
    Ref(u32),
}

impl Value {
    /// Type tag used on the wire and in diagnostics.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::I32(_) => ValueKind::I32,
            Value::I64(_) => ValueKind::I64,
            Value::F64(_) => ValueKind::F64,
            Value::Str(_) => ValueKind::Str,
            Value::Bytes(_) => ValueKind::Bytes,
            Value::I32Array(_) => ValueKind::I32Array,
            Value::F64Array(_) => ValueKind::F64Array,
            Value::List(_) => ValueKind::List,
            Value::Struct(_) => ValueKind::Struct,
            Value::Ref(_) => ValueKind::Ref,
        }
    }

    /// Approximate in-memory payload size in bytes, used by cost models to
    /// charge per-byte copying work without serializing.
    pub fn payload_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::I32(_) | Value::Ref(_) => 4,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::I32Array(a) => a.len() * 4,
            Value::F64Array(a) => a.len() * 8,
            Value::List(items) => items.iter().map(Value::payload_bytes).sum::<usize>() + 4,
            Value::Struct(s) => {
                s.fields().iter().map(|(n, v)| n.len() + v.payload_bytes()).sum::<usize>()
                    + s.name().len()
            }
        }
    }

    /// Total number of nodes in the value tree (used in tests and adaptive
    /// grain statistics).
    pub fn node_count(&self) -> usize {
        match self {
            Value::List(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Struct(s) => 1 + s.fields().iter().map(|(_, v)| v.node_count()).sum::<usize>(),
            _ => 1,
        }
    }

    /// Extracts an `i32`, if this value is one.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `i64`, widening `I32` as well.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::I32(v) => Some(i64::from(*v)),
            _ => None,
        }
    }

    /// Extracts an `f64`, if this value is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a bool, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts the list items, if this value is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Extracts the struct, if this value is one.
    pub fn as_struct(&self) -> Option<&StructValue> {
        match self {
            Value::Struct(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the `i32` array, if this value is one.
    pub fn as_i32_array(&self) -> Option<&[i32]> {
        match self {
            Value::I32Array(a) => Some(a),
            _ => None,
        }
    }

    /// Extracts the `f64` array, if this value is one.
    pub fn as_f64_array(&self) -> Option<&[f64]> {
        match self {
            Value::F64Array(a) => Some(a),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Discriminant of a [`Value`], stable across the crate's wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ValueKind {
    /// Null reference.
    Null = 0,
    /// Boolean.
    Bool = 1,
    /// 32-bit integer.
    I32 = 2,
    /// 64-bit integer.
    I64 = 3,
    /// 64-bit float.
    F64 = 4,
    /// UTF-8 string.
    Str = 5,
    /// Byte array.
    Bytes = 6,
    /// Packed i32 array.
    I32Array = 7,
    /// Packed f64 array.
    F64Array = 8,
    /// Heterogeneous list.
    List = 9,
    /// Named struct.
    Struct = 10,
    /// Graph back-reference.
    Ref = 11,
}

impl ValueKind {
    /// Parses a wire tag back into a kind.
    pub fn from_tag(tag: u8) -> Option<ValueKind> {
        Some(match tag {
            0 => ValueKind::Null,
            1 => ValueKind::Bool,
            2 => ValueKind::I32,
            3 => ValueKind::I64,
            4 => ValueKind::F64,
            5 => ValueKind::Str,
            6 => ValueKind::Bytes,
            7 => ValueKind::I32Array,
            8 => ValueKind::F64Array,
            9 => ValueKind::List,
            10 => ValueKind::Struct,
            11 => ValueKind::Ref,
            _ => return None,
        })
    }

    /// Short lowercase name used by the SOAP formatter and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::I32 => "i32",
            ValueKind::I64 => "i64",
            ValueKind::F64 => "f64",
            ValueKind::Str => "str",
            ValueKind::Bytes => "bytes",
            ValueKind::I32Array => "i32array",
            ValueKind::F64Array => "f64array",
            ValueKind::List => "list",
            ValueKind::Struct => "struct",
            ValueKind::Ref => "ref",
        }
    }

    /// Inverse of [`ValueKind::name`].
    pub fn from_name(name: &str) -> Option<ValueKind> {
        Some(match name {
            "null" => ValueKind::Null,
            "bool" => ValueKind::Bool,
            "i32" => ValueKind::I32,
            "i64" => ValueKind::I64,
            "f64" => ValueKind::F64,
            "str" => ValueKind::Str,
            "bytes" => ValueKind::Bytes,
            "i32array" => ValueKind::I32Array,
            "f64array" => ValueKind::F64Array,
            "list" => ValueKind::List,
            "struct" => ValueKind::Struct,
            "ref" => ValueKind::Ref,
            _ => return None,
        })
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}i64"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::I32Array(a) => write!(f, "i32[{}]", a.len()),
            Value::F64Array(a) => write!(f, "f64[{}]", a.len()),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Struct(s) => {
                write!(f, "{}{{", s.name())?;
                for (i, (n, v)) in s.fields().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                f.write_str("}")
            }
            Value::Ref(id) => write!(f, "&{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tag_roundtrip() {
        for tag in 0..=11u8 {
            let kind = ValueKind::from_tag(tag).unwrap();
            assert_eq!(kind as u8, tag);
            assert_eq!(ValueKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ValueKind::from_tag(12), None);
        assert_eq!(ValueKind::from_name("widget"), None);
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructValue::new("P")
            .with_field("a", Value::I32(1))
            .with_field("b", Value::Bool(false));
        assert_eq!(s.field("a"), Some(&Value::I32(1)));
        assert_eq!(s.field("b"), Some(&Value::Bool(false)));
        assert_eq!(s.field("c"), None);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn struct_equality_is_order_sensitive() {
        let a = StructValue::new("P")
            .with_field("x", Value::I32(1))
            .with_field("y", Value::I32(2));
        let b = StructValue::new("P")
            .with_field("y", Value::I32(2))
            .with_field("x", Value::I32(1));
        assert_ne!(a, b);
    }

    #[test]
    fn payload_bytes_counts_arrays() {
        assert_eq!(Value::I32Array(vec![0; 10]).payload_bytes(), 40);
        assert_eq!(Value::F64Array(vec![0.0; 10]).payload_bytes(), 80);
        assert_eq!(Value::Bytes(vec![0; 10]).payload_bytes(), 10);
    }

    #[test]
    fn node_count_recurses() {
        let v = Value::List(vec![
            Value::I32(1),
            Value::Struct(StructValue::new("S").with_field("f", Value::Null)),
        ]);
        assert_eq!(v.node_count(), 4);
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::I32(5).as_i32(), Some(5));
        assert_eq!(Value::I32(5).as_i64(), Some(5));
        assert_eq!(Value::I64(6).as_i64(), Some(6));
        assert_eq!(Value::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_i32(), None);
        assert_eq!(Value::Str("s".into()).as_f64(), None);
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::I32(0),
            Value::I64(0),
            Value::F64(0.0),
            Value::Str(String::new()),
            Value::Bytes(vec![]),
            Value::I32Array(vec![]),
            Value::F64Array(vec![]),
            Value::List(vec![Value::I32(1), Value::I32(2)]),
            Value::Struct(StructValue::new("S").with_field("a", Value::Null)),
            Value::Ref(9),
        ];
        for v in values {
            assert!(!format!("{v}").is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
    }
}
