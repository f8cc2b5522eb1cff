//! The remoting wire protocol: call and return messages.
//!
//! On the wire a message is a `Call` or `Return` struct in a
//! [`Formatter`]'s encoding, so the bytes each channel sends are real —
//! the benchmark harness measures them directly. Encoding writes that
//! struct from borrowed [`Field`]s, and decoding takes the fields it keeps
//! from the formatter's field visits: no envelope tree is built either way.

use parc_serial::{visit_struct, Field, FieldVisitor, Formatter, SerialError, Value};

use crate::error::RemotingError;

/// A fresh encode buffer starts here: small envelopes never regrow, and
/// bulk arguments reserve their own size.
const ENVELOPE_HINT: usize = 128;

/// A method invocation travelling to a server object.
#[derive(Debug, Clone, PartialEq)]
pub struct CallMessage {
    /// Published name of the target object.
    pub object: String,
    /// Method to invoke.
    pub method: String,
    /// Correlation id (echoed in the reply).
    pub call_id: u64,
    /// One-way flag: `true` means no reply is produced — the transport of
    /// the paper's asynchronous method invocations.
    pub oneway: bool,
    /// Marshalled arguments.
    pub args: Vec<Value>,
}

impl CallMessage {
    /// Creates a two-way (synchronous) call.
    pub fn new(object: impl Into<String>, method: impl Into<String>, args: Vec<Value>) -> Self {
        CallMessage {
            object: object.into(),
            method: method.into(),
            call_id: 0,
            oneway: false,
            args,
        }
    }

    /// Creates a one-way (asynchronous, no-reply) call.
    pub fn one_way(object: impl Into<String>, method: impl Into<String>, args: Vec<Value>) -> Self {
        CallMessage { oneway: true, ..CallMessage::new(object, method, args) }
    }

    fn fields(&self) -> [(&'static str, Field<'_>); 5] {
        [
            ("obj", Field::Str(&self.object)),
            ("method", Field::Str(&self.method)),
            ("id", Field::I64(self.call_id as i64)),
            ("oneway", Field::Bool(self.oneway)),
            ("args", Field::List(&self.args)),
        ]
    }

    /// Encodes into a wire [`Value`].
    pub fn to_value(&self) -> Value {
        Field::struct_value("Call", &self.fields())
    }

    /// Decodes from a wire [`Value`].
    ///
    /// # Errors
    ///
    /// [`SerialError::Parse`] when the value is not a well-formed call.
    pub fn from_value(value: &Value) -> Result<CallMessage, SerialError> {
        CallMessage::read(|visit| visit_struct(value.clone(), "Call", visit))
    }

    /// The one body behind [`CallMessage::from_value`] and
    /// [`CallMessage::decode`]: `feed` visits the fields.
    fn read(
        feed: impl FnOnce(&mut FieldVisitor<'_>) -> Result<(), SerialError>,
    ) -> Result<CallMessage, SerialError> {
        let [obj, method, id, oneway, args] =
            first_fields(["obj", "method", "id", "oneway", "args"], feed)?;
        Ok(CallMessage {
            object: into_str(obj).ok_or_else(|| shape_err("obj"))?,
            method: into_str(method).ok_or_else(|| shape_err("method"))?,
            call_id: expect(id, "id", Value::as_i64)? as u64,
            oneway: expect(oneway, "oneway", Value::as_bool)?,
            args: match args {
                Some(Value::List(items)) => items,
                _ => return Err(shape_err("args list")),
            },
        })
    }

    /// Serializes through a formatter.
    ///
    /// # Errors
    ///
    /// Propagates formatter failures.
    pub fn encode(&self, f: &dyn Formatter) -> Result<Vec<u8>, SerialError> {
        let mut out = Vec::with_capacity(ENVELOPE_HINT);
        self.encode_into(f, &mut out).map(|()| out)
    }

    /// Serializes through a formatter into a reused buffer (appends).
    ///
    /// # Errors
    ///
    /// Propagates formatter failures.
    pub fn encode_into(&self, f: &dyn Formatter, out: &mut Vec<u8>) -> Result<(), SerialError> {
        f.serialize_struct_into("Call", &self.fields(), out)
    }

    /// Deserializes through a formatter.
    ///
    /// # Errors
    ///
    /// Propagates formatter failures and shape errors.
    pub fn decode(f: &dyn Formatter, bytes: &[u8]) -> Result<CallMessage, SerialError> {
        CallMessage::read(|visit| f.deserialize_struct(bytes, "Call", visit))
    }
}

/// A reply travelling back to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ReturnMessage {
    /// Correlation id copied from the call.
    pub call_id: u64,
    /// The outcome: a marshalled return value, or a fault description.
    pub result: Result<Value, String>,
    /// `Moved` variant: when set, the object that served this call now
    /// lives at the given URI (it was migrated and the reply travelled
    /// through a forwarding entry). Clients repoint their channel at the
    /// new home; the value itself is still authoritative. Encoded as an
    /// optional wire field so every formatter stays backward compatible.
    pub moved_to: Option<String>,
}

impl ReturnMessage {
    /// Creates a success reply.
    pub fn ok(call_id: u64, value: Value) -> Self {
        ReturnMessage { call_id, result: Ok(value), moved_to: None }
    }

    /// Creates a fault reply.
    pub fn fault(call_id: u64, detail: impl Into<String>) -> Self {
        ReturnMessage { call_id, result: Err(detail.into()), moved_to: None }
    }

    /// Tags the reply with the object's new home (the `Moved` variant).
    pub fn with_moved_to(mut self, uri: impl Into<String>) -> Self {
        self.moved_to = Some(uri.into());
        self
    }

    /// The envelope's fields; `moved` is present only when set.
    fn with_fields<R>(&self, f: impl FnOnce(&[(&str, Field<'_>)]) -> R) -> R {
        let outcome = match &self.result {
            Ok(v) => ("value", Field::Value(v)),
            Err(e) => ("error", Field::Str(e)),
        };
        let id = ("id", Field::I64(self.call_id as i64));
        let ok = ("ok", Field::Bool(self.result.is_ok()));
        match &self.moved_to {
            Some(uri) => f(&[id, ok, outcome, ("moved", Field::Str(uri))]),
            None => f(&[id, ok, outcome]),
        }
    }

    /// Encodes into a wire [`Value`].
    pub fn to_value(&self) -> Value {
        self.with_fields(|fields| Field::struct_value("Return", fields))
    }

    /// Decodes from a wire [`Value`].
    ///
    /// # Errors
    ///
    /// [`SerialError::Parse`] when the value is not a well-formed reply.
    pub fn from_value(value: &Value) -> Result<ReturnMessage, SerialError> {
        ReturnMessage::read(|visit| visit_struct(value.clone(), "Return", visit))
    }

    /// The one body behind [`ReturnMessage::from_value`] and
    /// [`ReturnMessage::decode`]: `feed` visits the fields.
    fn read(
        feed: impl FnOnce(&mut FieldVisitor<'_>) -> Result<(), SerialError>,
    ) -> Result<ReturnMessage, SerialError> {
        let [id, ok, value, error, moved] =
            first_fields(["id", "ok", "value", "error", "moved"], feed)?;
        let call_id = expect(id, "id", Value::as_i64)? as u64;
        let result = if expect(ok, "ok", Value::as_bool)? {
            Ok(value.ok_or_else(|| shape_err("value field"))?)
        } else {
            Err(into_str(error).ok_or_else(|| shape_err("error"))?)
        };
        Ok(ReturnMessage { call_id, result, moved_to: into_str(moved) })
    }

    /// Serializes through a formatter.
    ///
    /// # Errors
    ///
    /// Propagates formatter failures.
    pub fn encode(&self, f: &dyn Formatter) -> Result<Vec<u8>, SerialError> {
        let mut out = Vec::with_capacity(ENVELOPE_HINT);
        self.encode_into(f, &mut out).map(|()| out)
    }

    /// Serializes through a formatter into a reused buffer (appends).
    ///
    /// # Errors
    ///
    /// Propagates formatter failures.
    pub fn encode_into(&self, f: &dyn Formatter, out: &mut Vec<u8>) -> Result<(), SerialError> {
        self.with_fields(|fields| f.serialize_struct_into("Return", fields, out))
    }

    /// Deserializes through a formatter.
    ///
    /// # Errors
    ///
    /// Propagates formatter failures and shape errors.
    pub fn decode(f: &dyn Formatter, bytes: &[u8]) -> Result<ReturnMessage, SerialError> {
        ReturnMessage::read(|visit| f.deserialize_struct(bytes, "Return", visit))
    }

    /// Converts the reply into the caller-facing result.
    ///
    /// # Errors
    ///
    /// [`RemotingError::ServerFault`] when the server reported a fault.
    pub fn into_result(self) -> Result<Value, RemotingError> {
        self.result.map_err(|detail| RemotingError::ServerFault { detail })
    }

    /// Converts the reply into the caller-facing result, preserving the
    /// `Moved` location when present.
    ///
    /// # Errors
    ///
    /// [`RemotingError::ServerFault`] when the server reported a fault.
    pub fn into_located(self) -> Result<(Value, Option<String>), RemotingError> {
        let moved_to = self.moved_to;
        self.result
            .map(|v| (v, moved_to))
            .map_err(|detail| RemotingError::ServerFault { detail })
    }
}

fn shape_err(what: &str) -> SerialError {
    SerialError::Parse { detail: format!("malformed message: missing {what}") }
}

/// Keeps the first field of each of `names` that `feed` visits, whatever
/// its type; later fields of the same name and unknown names are dropped.
fn first_fields<const N: usize>(
    names: [&str; N],
    feed: impl FnOnce(&mut FieldVisitor<'_>) -> Result<(), SerialError>,
) -> Result<[Option<Value>; N], SerialError> {
    let mut kept: [Option<Value>; N] = std::array::from_fn(|_| None);
    feed(&mut |name, value| {
        if let Some(i) = names.iter().position(|n| *n == name) {
            kept[i].get_or_insert(value);
        }
        Ok(())
    })?;
    Ok(kept)
}

fn into_str(field: Option<Value>) -> Option<String> {
    match field {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn expect<T>(
    field: Option<Value>,
    name: &str,
    get: impl FnOnce(&Value) -> Option<T>,
) -> Result<T, SerialError> {
    field.as_ref().and_then(get).ok_or_else(|| shape_err(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_serial::{BinaryFormatter, JavaFormatter, SoapFormatter, StructValue};

    fn sample_call() -> CallMessage {
        let mut c = CallMessage::new("PrimeServer", "process", vec![Value::I32Array(vec![1, 2, 3])]);
        c.call_id = 42;
        c
    }

    #[test]
    fn call_roundtrips_through_all_formats() {
        let call = sample_call();
        let formats: [&dyn Formatter; 3] =
            [&BinaryFormatter::new(), &SoapFormatter::new(), &JavaFormatter::new()];
        for f in formats {
            let bytes = call.encode(f).unwrap();
            assert_eq!(CallMessage::decode(f, &bytes).unwrap(), call, "format {}", f.name());
        }
    }

    #[test]
    fn oneway_flag_survives() {
        let call = CallMessage::one_way("O", "m", vec![]);
        assert!(call.oneway);
        let f = BinaryFormatter::new();
        assert!(CallMessage::decode(&f, &call.encode(&f).unwrap()).unwrap().oneway);
    }

    #[test]
    fn return_ok_roundtrips() {
        let ret = ReturnMessage::ok(7, Value::F64(2.5));
        let f = BinaryFormatter::new();
        let back = ReturnMessage::decode(&f, &ret.encode(&f).unwrap()).unwrap();
        assert_eq!(back, ret);
        assert_eq!(back.into_result().unwrap(), Value::F64(2.5));
    }

    #[test]
    fn return_fault_roundtrips_and_surfaces_as_server_fault() {
        let ret = ReturnMessage::fault(9, "divide by zero");
        let f = BinaryFormatter::new();
        let back = ReturnMessage::decode(&f, &ret.encode(&f).unwrap()).unwrap();
        assert_eq!(back.call_id, 9);
        match back.into_result() {
            Err(RemotingError::ServerFault { detail }) => assert_eq!(detail, "divide by zero"),
            other => panic!("expected server fault, got {other:?}"),
        }
    }

    #[test]
    fn moved_reply_roundtrips_through_all_formats() {
        let ret = ReturnMessage::ok(3, Value::I64(8)).with_moved_to("inproc://node2/io-2-5");
        let formats: [&dyn Formatter; 3] =
            [&BinaryFormatter::new(), &SoapFormatter::new(), &JavaFormatter::new()];
        for f in formats {
            let back = ReturnMessage::decode(f, &ret.encode(f).unwrap()).unwrap();
            assert_eq!(back, ret, "format {}", f.name());
            let (value, moved) = back.into_located().unwrap();
            assert_eq!(value, Value::I64(8));
            assert_eq!(moved.as_deref(), Some("inproc://node2/io-2-5"));
        }
    }

    #[test]
    fn reply_without_moved_field_decodes_as_not_moved() {
        // Wire compatibility: replies encoded before the Moved variant
        // existed carry no "moved" field and must decode to None.
        let v = Value::Struct(
            StructValue::new("Return")
                .with_field("id", Value::I64(1))
                .with_field("ok", Value::Bool(true))
                .with_field("value", Value::Null),
        );
        assert_eq!(ReturnMessage::from_value(&v).unwrap().moved_to, None);
    }

    #[test]
    fn call_rejects_return_shape_and_vice_versa() {
        let f = BinaryFormatter::new();
        let call_bytes = sample_call().encode(&f).unwrap();
        assert!(ReturnMessage::decode(&f, &call_bytes).is_err());
        let ret_bytes = ReturnMessage::ok(1, Value::Null).encode(&f).unwrap();
        assert!(CallMessage::decode(&f, &ret_bytes).is_err());
    }

    #[test]
    fn missing_fields_are_parse_errors() {
        let v = Value::Struct(StructValue::new("Call").with_field("obj", Value::Str("x".into())));
        assert!(CallMessage::from_value(&v).is_err());
    }

    #[test]
    fn soap_call_is_much_bigger_than_binary_call() {
        let call = sample_call();
        let b = call.encode(&BinaryFormatter::new()).unwrap().len();
        let s = call.encode(&SoapFormatter::new()).unwrap().len();
        assert!(s > 2 * b, "soap {s} vs binary {b}");
    }
}
