//! The HTTP channel: SOAP formatter over HTTP/1.1-style framing — Mono's
//! `HttpChannel`.
//!
//! Fig. 8b shows this channel an order of magnitude slower than the TCP
//! channel; the cost is honest here too: every call becomes a `POST` with
//! text headers and a SOAP (XML-ish) body, inflating both bytes and parse
//! work. Connections are persistent (keep-alive); one request/response at a
//! time per connection.
//!
//! The server is the TCP server's twin behind different framing: a
//! thread per connection parses requests and hands each call to the
//! `serve_call` every server shares, so dispatch runs on the server's
//! per-object mailbox workers with the same FIFO and one-in-flight
//! guarantees as TCP and inproc. The `SOAPAction` header says whether a
//! request is a call or a one-way post (as TCP's frame flag does): a
//! worker writes a call's response once the method returns, and a post
//! is acknowledged with `202 Accepted` as soon as it is enqueued.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};

use parc_serial::SoapFormatter;
use parc_sync::Mutex;

use crate::channel::{ChannelProvider, ClientChannel};
use crate::dispatcher::{serve_call, Origin, ServerState, SocketServer};
use crate::error::RemotingError;
use crate::message::{CallMessage, ReturnMessage};
use crate::uri::{ObjectUri, Scheme};
use crate::wellknown::ObjectTable;

/// Maximum accepted body size.
pub const MAX_BODY: usize = 64 << 20;

/// `SOAPAction` of a one-way post, acknowledged with `202 Accepted`.
const ACTION_POST: &str = "\"#post\"";

/// Writes one HTTP message: `head` (its first line and own headers),
/// then the headers every message carries and `body`.
fn write_message(stream: &mut impl Write, head: &str, body: &[u8]) -> io::Result<()> {
    write!(
        stream,
        "{head}\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a request to `object` carrying `body`; `oneway` marks a post.
fn write_request(w: &mut impl Write, object: &str, oneway: bool, body: &[u8]) -> io::Result<()> {
    let action = if oneway { ACTION_POST } else { "\"#invoke\"" };
    let head = format!("POST /{object} HTTP/1.1\r\nHost: remoting\r\nSOAPAction: {action}");
    write_message(w, &head, body)
}

/// One HTTP message (request or response) as this channel reads it.
struct Message {
    /// Request or status line, without its line break.
    first_line: String,
    /// Whether a `SOAPAction` header marked it a one-way post.
    post: bool,
    body: Vec<u8>,
}

/// Reads one HTTP message, or `None` on clean EOF before the first byte.
fn read_message(reader: &mut impl BufRead) -> io::Result<Option<Message>> {
    let mut first_line = String::new();
    if reader.read_line(&mut first_line)? == 0 {
        return Ok(None);
    }
    let mut content_length: Option<usize> = None;
    let mut post = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("soapaction") {
                post = value.trim() == ACTION_POST;
            }
        }
    }
    let len = content_length.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "missing content-length")
    })?;
    if len > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Message { first_line: first_line.trim_end().to_string(), post, body }))
}

/// Server half of the HTTP channel.
pub struct HttpServerChannel(SocketServer);

impl HttpServerChannel {
    /// Binds and starts accepting, with the configured mailbox worker
    /// count ([`crate::mailbox::workers_from_env`]).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str) -> Result<HttpServerChannel, RemotingError> {
        let workers = crate::mailbox::workers_from_env();
        SocketServer::bind(addr, workers, "http", serve_connection).map(HttpServerChannel)
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// The published-object table.
    pub fn objects(&self) -> &ObjectTable {
        &self.0.state.objects
    }

    /// An `http://` URI for an object on this server.
    pub fn uri_for(&self, object: &str) -> String {
        format!("http://{}/{}", self.local_addr(), object)
    }
}

impl std::fmt::Debug for HttpServerChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServerChannel").field("addr", &self.local_addr()).finish()
    }
}

/// Encodes `reply` and writes it as a response — `500` for a fault, as
/// SOAP has it — tearing the connection down if that fails (the client
/// must not wait for a response that will never come).
fn respond(mut writer: &TcpStream, reply: &ReturnMessage) {
    let status = match reply.result {
        Ok(_) => "HTTP/1.1 200 OK",
        Err(_) => "HTTP/1.1 500 Internal Server Error",
    };
    let written = match reply.encode(&SoapFormatter::new()) {
        Ok(bytes) => write_message(&mut writer, status, &bytes).is_ok(),
        Err(_) => false,
    };
    if !written {
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
}

/// One server connection. HTTP answers requests in order, so the next is
/// read only once the worker has written this call's response (or the
/// post is acknowledged); a call whose job was dropped closes the socket.
fn serve_connection(stream: TcpStream, state: ServerState) {
    let formatter = SoapFormatter::new();
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let writer = Arc::new(writer);
    let mut reader = BufReader::new(stream);
    while let Ok(Some(request)) = read_message(&mut reader) {
        // A stopped server closes instead of answering.
        if state.stopped() {
            return;
        }
        let decoded = CallMessage::decode(&formatter, &request.body).map_err(|e| e.to_string());
        let (done, answered) = mpsc::channel();
        let reply = (!request.post).then(|| {
            let writer = Arc::clone(&writer);
            move |reply: &ReturnMessage| {
                respond(&writer, reply);
                let _ = done.send(());
            }
        });
        serve_call(&state.scheduler, &state.objects, Origin::default(), decoded, reply);
        let answered = if request.post {
            write_message(&mut &*writer, "HTTP/1.1 202 Accepted", b"").is_ok()
        } else {
            answered.recv().is_ok()
        };
        if !answered {
            return;
        }
    }
}

/// Default number of keep-alive connections an [`HttpClientChannel`]
/// retains per authority.
pub const DEFAULT_HTTP_POOL: usize = 2;

/// One keep-alive connection: buffered read half plus raw write half.
struct HttpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpConn {
    fn dial(addr: &str) -> Result<HttpConn, RemotingError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(crate::retry::call_timeout()))?;
        let writer = stream.try_clone()?;
        Ok(HttpConn { reader: BufReader::new(stream), writer })
    }
}

/// Client half of the HTTP channel: a small pool of keep-alive
/// connections per authority, so concurrent callers no longer serialize
/// on one socket. Each request checks a connection out for its round
/// trip; healthy connections return to the pool (up to
/// [`DEFAULT_HTTP_POOL`]), failed ones are dropped and redialed lazily.
pub struct HttpClientChannel {
    addr: String,
    idle: Mutex<Vec<HttpConn>>,
    max_idle: usize,
    formatter: SoapFormatter,
}

impl HttpClientChannel {
    /// Connects (keep-alive) to a server with the default pool size.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<HttpClientChannel, RemotingError> {
        HttpClientChannel::connect_pooled(addr, DEFAULT_HTTP_POOL)
    }

    /// Connects with an explicit keep-alive pool cap (`>= 1`). One
    /// connection is dialed eagerly so bad addresses fail here, matching
    /// the previous single-connection behavior.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_pooled(addr: &str, max_idle: usize) -> Result<HttpClientChannel, RemotingError> {
        let first = HttpConn::dial(addr)?;
        Ok(HttpClientChannel {
            addr: addr.to_string(),
            idle: Mutex::new(vec![first]),
            max_idle: max_idle.max(1),
            formatter: SoapFormatter::new(),
        })
    }

    /// Keep-alive connections currently idle in the pool.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Pops an idle connection or dials a new one — callers beyond the
    /// pool's idle cap get their own socket for the duration of the call.
    fn checkout(&self) -> Result<HttpConn, RemotingError> {
        let recycled = self.idle.lock().pop();
        match recycled {
            Some(conn) => Ok(conn),
            None => HttpConn::dial(&self.addr),
        }
    }

    /// Returns a healthy connection to the pool, dropping it when the
    /// pool already holds `max_idle` connections.
    fn checkin(&self, conn: HttpConn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }

    /// One request/response round trip, as a post when `oneway`; returns
    /// the response and the size of the *request* body that was sent.
    fn exchange(&self, msg: &CallMessage, oneway: bool) -> Result<(Message, usize), RemotingError> {
        let body = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            msg.encode(&self.formatter)?
        };
        let sent = body.len();
        let mut conn = self.checkout()?;
        // Any error drops the connection (it may hold half a response);
        // only a clean round trip returns it to the pool.
        let outcome = (|| {
            {
                let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_SEND);
                write_request(&mut conn.writer, &msg.object, oneway, &body)?;
            }
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_RECV);
            read_message(&mut conn.reader)?
                .ok_or(RemotingError::Transport { detail: "server closed connection".into() })
        })();
        if outcome.is_ok() {
            self.checkin(conn);
        }
        outcome.map(|response| (response, sent))
    }
}

impl ClientChannel for HttpClientChannel {
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        let (response, _sent) = self.exchange(msg, false)?;
        let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
        Ok(ReturnMessage::decode(&self.formatter, &response.body)?)
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        // HTTP always answers; a post reads its 202 and discards it.
        let (response, sent) = self.exchange(msg, true)?;
        if response.first_line.contains("202") {
            Ok(sent)
        } else {
            let status = response.first_line;
            Err(RemotingError::Transport { detail: format!("unexpected status {status:?}") })
        }
    }

    fn scheme(&self) -> &'static str {
        "http"
    }
}

impl std::fmt::Debug for HttpClientChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClientChannel").finish_non_exhaustive()
    }
}

/// Channel provider resolving `http://host:port/Object` URIs.
#[derive(Default)]
pub struct HttpChannelProvider {
    cache: Mutex<std::collections::HashMap<String, Arc<HttpClientChannel>>>,
}

impl HttpChannelProvider {
    /// Creates a provider with an empty connection cache.
    pub fn new() -> HttpChannelProvider {
        HttpChannelProvider::default()
    }
}

impl ChannelProvider for HttpChannelProvider {
    fn open(&self, uri: &ObjectUri) -> Result<Arc<dyn ClientChannel>, RemotingError> {
        if uri.scheme() != Scheme::Http {
            return Err(RemotingError::BadUri {
                uri: uri.to_string(),
                detail: "http provider only serves http:// uris".into(),
            });
        }
        let mut cache = self.cache.lock();
        if let Some(chan) = cache.get(uri.authority()) {
            return Ok(Arc::clone(chan) as Arc<dyn ClientChannel>);
        }
        let chan = Arc::new(HttpClientChannel::connect(uri.authority())?);
        cache.insert(uri.authority().to_string(), Arc::clone(&chan));
        Ok(chan)
    }
}

impl std::fmt::Debug for HttpChannelProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpChannelProvider")
            .field("cached", &self.cache.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activator::Activator;
    use crate::dispatcher::FnInvokable;
    use parc_serial::Value;

    fn start_server() -> HttpServerChannel {
        let server = HttpServerChannel::bind("127.0.0.1:0").unwrap();
        server.objects().register_singleton(
            "Svc",
            Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
                "double" => Ok(Value::I32(args[0].as_i32().unwrap_or(0) * 2)),
                "text" => Ok(Value::Str("<xml> & such".into())),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Svc".into(),
                    method: method.into(),
                }),
            })),
        );
        server
    }

    #[test]
    fn soap_call_over_http_roundtrips() {
        let server = start_server();
        let provider = HttpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Svc")).unwrap();
        assert_eq!(proxy.call("double", vec![Value::I32(21)]).unwrap(), Value::I32(42));
    }

    #[test]
    fn markup_content_survives_soap_escaping() {
        let server = start_server();
        let provider = HttpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Svc")).unwrap();
        assert_eq!(
            proxy.call("text", vec![]).unwrap(),
            Value::Str("<xml> & such".into())
        );
    }

    #[test]
    fn keep_alive_serves_many_requests() {
        let server = start_server();
        let provider = HttpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Svc")).unwrap();
        for i in 0..50 {
            assert_eq!(proxy.call("double", vec![Value::I32(i)]).unwrap(), Value::I32(i * 2));
        }
    }

    #[test]
    fn oneway_post_gets_202_and_connection_survives() {
        let server = start_server();
        let provider = HttpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Svc")).unwrap();
        proxy.post("double", vec![Value::I32(1)]).unwrap();
        assert_eq!(proxy.call("double", vec![Value::I32(2)]).unwrap(), Value::I32(4));
    }

    #[test]
    fn fault_travels_back_as_server_fault() {
        let server = start_server();
        let provider = HttpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Svc")).unwrap();
        assert!(matches!(
            proxy.call("nope", vec![]),
            Err(RemotingError::ServerFault { .. })
        ));
    }

    #[test]
    fn undecodable_body_gets_a_fault_and_the_connection_keeps_serving() {
        let server = start_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let formatter = SoapFormatter::new();

        write_request(&mut writer, "Svc", false, b"<not a call").unwrap();
        let fault = read_message(&mut reader).unwrap().expect("a response");
        assert!(fault.first_line.contains("500"), "{}", fault.first_line);
        let fault = ReturnMessage::decode(&formatter, &fault.body).unwrap();
        assert_eq!(fault.call_id, 0);
        assert!(fault.result.is_err(), "{fault:?}");

        let call = CallMessage::new("Svc", "double", vec![Value::I32(8)]);
        write_request(&mut writer, "Svc", false, &call.encode(&formatter).unwrap()).unwrap();
        let ok = read_message(&mut reader).unwrap().expect("a response");
        assert!(ok.first_line.contains("200"), "{}", ok.first_line);
        let ok = ReturnMessage::decode(&formatter, &ok.body).unwrap();
        assert_eq!(ok.result, Ok(Value::I32(16)));
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = start_server();
        server.objects().register_singleton(
            "Slow",
            Arc::new(FnInvokable(|_: &str, _: &[Value]| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(Value::Null)
            })),
        );
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let body = CallMessage::new("Slow", "nap", vec![]).encode(&SoapFormatter::new()).unwrap();
        // A call, and a post sent before the call's response arrives.
        write_request(&mut writer, "Slow", false, &body).unwrap();
        write_request(&mut writer, "Slow", true, &body).unwrap();
        let first = read_message(&mut reader).unwrap().expect("a response");
        assert!(first.first_line.contains("200"), "{}", first.first_line);
        let second = read_message(&mut reader).unwrap().expect("a response");
        assert!(second.first_line.contains("202"), "{}", second.first_line);
    }

    #[test]
    fn http_message_codec_roundtrips() {
        let mut buf = Vec::new();
        write_request(&mut buf, "Obj", false, b"<body/>").unwrap();
        write_request(&mut buf, "Obj", true, b"<post/>").unwrap();
        let mut reader = BufReader::new(std::io::Cursor::new(buf));
        let call = read_message(&mut reader).unwrap().unwrap();
        assert!(call.first_line.starts_with("POST /Obj HTTP/1.1"));
        assert_eq!(call.body, b"<body/>");
        assert!(!call.post);
        let post = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(post.body, b"<post/>");
        assert!(post.post);
        assert!(read_message(&mut reader).unwrap().is_none());
    }

    #[test]
    fn missing_content_length_is_error() {
        let raw = b"POST / HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut reader = BufReader::new(std::io::Cursor::new(raw.to_vec()));
        assert!(read_message(&mut reader).is_err());
    }

    #[test]
    fn concurrent_callers_use_pooled_connections() {
        let server = start_server();
        let chan = Arc::new(
            HttpClientChannel::connect_pooled(&server.local_addr().to_string(), 2).unwrap(),
        );
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = crate::channel::RemoteObject::new(
                        Arc::clone(&chan) as Arc<dyn ClientChannel>,
                        "Svc",
                    );
                    for i in 0..10 {
                        let v = proxy.call("double", vec![Value::I32(t * 100 + i)]).unwrap();
                        assert_eq!(v, Value::I32((t * 100 + i) * 2));
                    }
                });
            }
        });
        // Overflow connections (beyond the idle cap) were dropped, not kept.
        assert!(chan.idle_connections() <= 2);
    }

    #[test]
    fn pool_keeps_at_most_the_configured_idle_connections() {
        let server = start_server();
        let chan =
            HttpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap();
        assert_eq!(chan.idle_connections(), 1);
        // Sequential calls reuse the single pooled connection.
        let proxy = crate::channel::RemoteObject::new(
            Arc::new(chan) as Arc<dyn ClientChannel>,
            "Svc",
        );
        for i in 0..5 {
            assert_eq!(proxy.call("double", vec![Value::I32(i)]).unwrap(), Value::I32(i * 2));
        }
    }

    #[test]
    fn wrong_scheme_rejected_by_provider() {
        let provider = HttpChannelProvider::new();
        let uri: ObjectUri = "tcp://h:1/x".parse().unwrap();
        assert!(matches!(provider.open(&uri), Err(RemotingError::BadUri { .. })));
    }
}
