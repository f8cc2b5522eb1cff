//! # parc-serial — object serialization substrate
//!
//! ParC# (PACT 2005) rides on the .NET remoting serialization stack: the
//! binary formatter used by the `TcpChannel`, the verbose SOAP formatter used
//! by the `HttpChannel`, and — for the paper's Java RMI baseline — the Java
//! object-serialization format with its per-class descriptors. None of those
//! exist in Rust, so this crate rebuilds the whole layer from scratch:
//!
//! * a dynamic [`Value`] model able to represent the argument/return payloads
//!   that flow between parallel objects (primitives, arrays, strings, lists,
//!   named structs, and `Ref` back-references, which every format encodes);
//! * [`ToValue`]/[`FromValue`] conversions so ordinary Rust types can cross
//!   the wire;
//! * three wire formats behind the common [`Formatter`] trait:
//!   [`BinaryFormatter`] (compact, models Mono's binary/TCP channel),
//!   [`SoapFormatter`] (text/XML-ish, models the HTTP channel and explains
//!   its poor bandwidth in Fig. 8b), and [`JavaFormatter`] (class
//!   descriptors and heavier framing, models Java serialization under RMI).
//!
//! Wire sizes produced here are *real*: the benchmark harness feeds actual
//! encoded byte counts into the network model, which is what makes the
//! bandwidth curves of Fig. 8 come out of mechanism rather than curve
//! fitting.
//!
//! ```
//! use parc_serial::{BinaryFormatter, Formatter, Value};
//!
//! # fn main() -> Result<(), parc_serial::SerialError> {
//! let v = Value::from(vec![1i32, 2, 3]);
//! let f = BinaryFormatter::new();
//! let bytes = f.serialize(&v)?;
//! assert_eq!(f.deserialize(&bytes)?, v);
//! # Ok(())
//! # }
//! ```

pub mod binary;
pub mod convert;
pub mod error;
pub mod javaser;
pub mod soap;
pub mod value;
pub mod varint;

pub use binary::BinaryFormatter;
pub use convert::{FromValue, ToValue};
pub use error::SerialError;
pub use javaser::JavaFormatter;
pub use soap::SoapFormatter;
pub use value::{StructValue, Value};

/// One field of a struct encoded straight from borrowed parts
/// ([`Formatter::serialize_struct_into`]): message envelopes are written
/// without first cloning their strings and arguments into a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field<'a> {
    /// Encodes as [`Value::Str`].
    Str(&'a str),
    /// Encodes as [`Value::I64`].
    I64(i64),
    /// Encodes as [`Value::Bool`].
    Bool(bool),
    /// Encodes as the value itself.
    Value(&'a Value),
    /// Encodes as [`Value::List`].
    List(&'a [Value]),
}

impl Field<'_> {
    /// The struct value `name { fields }` (clones what the fields borrow):
    /// the tree [`Formatter::serialize_struct_into`] encodes without building.
    pub fn struct_value(name: &str, fields: &[(&str, Field<'_>)]) -> Value {
        let mut s = StructValue::new(name);
        for (fname, field) in fields {
            let value = match *field {
                Field::Str(s) => Value::Str(s.to_string()),
                Field::I64(v) => Value::I64(v),
                Field::Bool(b) => Value::Bool(b),
                Field::Value(v) => v.clone(),
                Field::List(items) => Value::List(items.to_vec()),
            };
            s.push_field(*fname, value);
        }
        Value::Struct(s)
    }
}

/// Receives a decoded struct's fields one at a time, in wire order
/// ([`Formatter::deserialize_struct`]). The name is borrowed from the
/// decoder; an error ends the decode and is returned as is.
pub type FieldVisitor<'a> = dyn FnMut(&str, Value) -> Result<(), SerialError> + 'a;

/// Hands the fields of `value` to `visit` in order when it is a struct
/// named `name`, and fails with [`SerialError::Parse`] otherwise: what
/// [`Formatter::deserialize_struct`] does with a decoded tree.
///
/// # Errors
///
/// [`SerialError::Parse`] on a shape mismatch, or the first error `visit`
/// returns.
pub fn visit_struct(
    value: Value,
    name: &str,
    visit: &mut FieldVisitor<'_>,
) -> Result<(), SerialError> {
    match value {
        Value::Struct(s) if s.name() == name => {
            s.into_fields().into_iter().try_for_each(|(field, v)| visit(&field, v))
        }
        _ => Err(not_struct(name)),
    }
}

/// The error for a value that is not the struct `name`.
fn not_struct(name: &str) -> SerialError {
    SerialError::Parse { detail: format!("expected a {name} struct") }
}

/// A wire format able to turn a [`Value`] into bytes and back.
///
/// Implementations are stateless and cheap to construct; a formatter can be
/// shared freely across threads. The three implementations in this crate
/// model the three serialization stacks compared in the paper.
pub trait Formatter: Send + Sync {
    /// Human-readable name of the format (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Encode `value` into a fresh byte buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] if the value contains constructs the format
    /// cannot represent (none of the built-in formats reject any `Value`).
    fn serialize(&self, value: &Value) -> Result<Vec<u8>, SerialError>;

    /// Encode `value` by appending to `out`, reusing its capacity.
    ///
    /// This is the zero-allocation hot path: callers that recycle buffers
    /// (channel send paths, buffer pools) hand in a cleared buffer and get
    /// the same bytes [`Formatter::serialize`] would produce without a
    /// fresh allocation once the buffer has warmed up. Bytes already in
    /// `out` are left untouched, so framing headers can precede the
    /// payload.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Formatter::serialize`]. On error the
    /// contents of `out` beyond its original length are unspecified.
    fn serialize_into(&self, value: &Value, out: &mut Vec<u8>) -> Result<(), SerialError> {
        let bytes = self.serialize(value)?;
        out.extend_from_slice(&bytes);
        Ok(())
    }

    /// Appends the struct `name { fields }` to `out`, byte for byte what
    /// [`Formatter::serialize_into`] makes of [`Field::struct_value`] (the
    /// default body); a format overrides it to write the borrowed parts.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Formatter::serialize_into`].
    fn serialize_struct_into(
        &self,
        name: &str,
        fields: &[(&str, Field<'_>)],
        out: &mut Vec<u8>,
    ) -> Result<(), SerialError> {
        self.serialize_into(&Field::struct_value(name, fields), out)
    }

    /// Decode a value previously produced by [`Formatter::serialize`] on the
    /// same format.
    ///
    /// # Errors
    ///
    /// Returns [`SerialError`] on truncated, corrupt, or foreign input.
    fn deserialize(&self, bytes: &[u8]) -> Result<Value, SerialError>;

    /// Decodes the struct `name` and hands its fields to `visit` in wire
    /// order: the decode twin of [`Formatter::serialize_struct_into`].
    /// The default body is [`visit_struct`] on [`Formatter::deserialize`]'s
    /// tree; a format overrides it to skip the tree. Either way it accepts
    /// exactly the bytes that decode to such a struct, and a visitor that
    /// never fails sees the same error as the default body would give.
    /// Fields already visited when an error comes are to be discarded.
    ///
    /// # Errors
    ///
    /// [`Formatter::deserialize`]'s errors, then [`SerialError::Parse`]
    /// when the value is not a struct named `name`, or `visit`'s error.
    fn deserialize_struct(
        &self,
        bytes: &[u8],
        name: &str,
        visit: &mut FieldVisitor<'_>,
    ) -> Result<(), SerialError> {
        visit_struct(self.deserialize(bytes)?, name, visit)
    }

    /// Number of bytes `value` would occupy on the wire, without keeping the
    /// encoding. The default implementation serializes and measures; formats
    /// may override with a cheaper computation.
    fn encoded_len(&self, value: &Value) -> Result<usize, SerialError> {
        Ok(self.serialize(value)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formatters() -> Vec<Box<dyn Formatter>> {
        vec![
            Box::new(BinaryFormatter::new()),
            Box::new(SoapFormatter::new()),
            Box::new(JavaFormatter::new()),
        ]
    }

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::I32(-7),
            Value::I64(1 << 40),
            Value::F64(3.5),
            Value::Str("hello".into()),
            Value::Bytes(vec![0, 1, 255]),
            Value::I32Array((0..100).collect()),
            Value::F64Array(vec![0.0, -1.5, f64::MAX]),
            Value::List(vec![Value::I32(1), Value::Str("x".into())]),
            Value::Struct(
                StructValue::new("Point")
                    .with_field("x", Value::F64(1.0))
                    .with_field("y", Value::F64(2.0)),
            ),
            Value::Ref(3),
        ]
    }

    #[test]
    fn all_formats_roundtrip_all_samples() {
        for f in formatters() {
            for v in sample_values() {
                let bytes = f.serialize(&v).unwrap();
                let back = f.deserialize(&bytes).unwrap();
                assert_eq!(back, v, "format {}", f.name());
            }
        }
    }

    #[test]
    fn serialize_into_appends_the_same_bytes() {
        for f in formatters() {
            for v in sample_values() {
                let fresh = f.serialize(&v).unwrap();
                // Append after a pre-existing prefix: the prefix survives
                // and the suffix equals the fresh encoding.
                let mut buf = b"hdr!".to_vec();
                f.serialize_into(&v, &mut buf).unwrap();
                assert_eq!(&buf[..4], b"hdr!", "format {}", f.name());
                assert_eq!(&buf[4..], &fresh[..], "format {}", f.name());
                // A recycled (cleared) buffer roundtrips through deserialize.
                buf.clear();
                f.serialize_into(&v, &mut buf).unwrap();
                assert_eq!(f.deserialize(&buf).unwrap(), v, "format {}", f.name());
            }
        }
    }

    #[test]
    fn encoded_len_matches_serialize() {
        for f in formatters() {
            for v in sample_values() {
                assert_eq!(
                    f.encoded_len(&v).unwrap(),
                    f.serialize(&v).unwrap().len(),
                    "format {}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn soap_is_most_verbose_binary_most_compact_on_arrays() {
        let v = Value::I32Array((0..1024).collect());
        let b = BinaryFormatter::new().serialize(&v).unwrap().len();
        let j = JavaFormatter::new().serialize(&v).unwrap().len();
        let s = SoapFormatter::new().serialize(&v).unwrap().len();
        assert!(b < j, "binary {b} < java {j}");
        assert!(j < s, "java {j} < soap {s}");
    }

    #[test]
    fn formats_reject_each_others_output() {
        let v = Value::Str("cross".into());
        let bin = BinaryFormatter::new().serialize(&v).unwrap();
        assert!(JavaFormatter::new().deserialize(&bin).is_err());
        let jav = JavaFormatter::new().serialize(&v).unwrap();
        assert!(BinaryFormatter::new().deserialize(&jav).is_err());
    }
}
