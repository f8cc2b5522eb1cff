//! The TCP channel: binary formatter over framed sockets — Mono's
//! `TcpChannel`, built as a **multiplexed, pipelined connection**.
//!
//! Frames are the v2 format of [`crate::frame`]: a 13-byte header
//! (length, correlation ID, flags) followed by the formatter payload.
//! A client connection has no thread of its own: one waiting caller at a
//! time, the *leader*, reads reply frames and demuxes them by correlation
//! ID into per-call completion slots until its own arrives, then hands
//! the read half on. So N callers can have calls in flight on one socket
//! (the stream mutex covers only the `write`, never the round trip), and
//! a lone caller reads its own reply. A per-authority socket pool (default
//! [`DEFAULT_POOL_SIZE`], `PARC_TCP_POOL` overrides) adds bandwidth.
//!
//! The server accepts connections on a loopback-or-LAN socket and serves
//! each connection from its own reader thread. That thread only reads
//! and decodes frames and hands each call to the `serve_call` every
//! server shares, which enqueues it on the server's per-object
//! [`crate::mailbox`] scheduler, so the reader returns to the socket
//! immediately: calls to one object run serially in arrival order
//! (one-way posts, batches and two-way calls alike), distinct objects
//! run in parallel, and a slow method on one object cannot
//! head-of-line-block the objects behind the same socket. Replies are
//! written back in completion order; the correlation ID is what makes
//! out-of-order replies safe.
//!
//! This is the only TCP transport, like Mono's one `TcpChannel`: a
//! blocking reader per server connection serves 1 024 sockets at the
//! same call rate as one (DESIGN §11).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_serial::BinaryFormatter;
use parc_sync::Mutex;

use crate::bufpool;
use crate::channel::{ChannelProvider, ClientChannel, LinkFeedback};
use crate::dispatcher::{serve_call, Origin, ServerState, SocketServer};
use crate::error::RemotingError;
use crate::frame::{self, DepthExt, FrameRead, TraceExt, FLAG_ONEWAY};
use crate::mailbox::DispatchDepth;
use crate::message::{CallMessage, ReturnMessage};
use crate::retry::call_timeout;
use crate::slot::{self, Wake};
use crate::uri::{ObjectUri, Scheme};
use crate::wellknown::ObjectTable;

pub use crate::frame::MAX_FRAME;

/// Default per-call reply deadline when `PARC_CALL_TIMEOUT` is unset.
/// Kept as a named constant for the benches and docs; the live value
/// every connection actually uses is [`crate::retry::call_timeout`].
pub const DEFAULT_TIMEOUT: Duration = crate::retry::DEFAULT_CALL_TIMEOUT;

/// Default per-authority socket-pool size.
pub const DEFAULT_POOL_SIZE: usize = 2;

/// Environment variable overriding the per-authority socket-pool size.
pub const POOL_SIZE_ENV: &str = "PARC_TCP_POOL";

/// The client transport serving `tcp://` URIs. There is one; the type
/// is kept only because the `callpath` benchmark records
/// [`TcpChannelProvider::transport`] in its environment block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Multiplexed pipelined connections whose callers read their own
    /// replies.
    Mux,
}

/// The configured pool size: `PARC_TCP_POOL` when set and positive,
/// otherwise [`DEFAULT_POOL_SIZE`].
pub fn pool_size_from_env() -> usize {
    std::env::var(POOL_SIZE_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_POOL_SIZE)
}

/// Server half of the TCP channel.
pub struct TcpServerChannel(SocketServer);

impl TcpServerChannel {
    /// Binds and starts accepting, with the configured mailbox worker
    /// count ([`crate::mailbox::workers_from_env`]). Use `"127.0.0.1:0"`
    /// to let the OS pick a port, then read it back with
    /// [`TcpServerChannel::local_addr`].
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str) -> Result<TcpServerChannel, RemotingError> {
        TcpServerChannel::bind_with_workers(addr, crate::mailbox::workers_from_env())
    }

    /// Binds with an explicit mailbox worker count. Per-object FIFO order
    /// holds at any count; `workers` only bounds cross-object parallelism.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind_with_workers(
        addr: &str,
        workers: usize,
    ) -> Result<TcpServerChannel, RemotingError> {
        SocketServer::bind(addr, workers, "tcp", serve_connection).map(TcpServerChannel)
    }

    /// Live backlog view of the mailbox scheduler (always `Some`).
    pub fn dispatch_depth(&self) -> Option<DispatchDepth> {
        Some(self.0.state.scheduler.depth_handle())
    }

    /// Scheduler counter snapshot (always `Some`).
    pub fn dispatch_stats(&self) -> Option<crate::mailbox::DispatchStats> {
        Some(self.0.state.scheduler.stats())
    }

    /// The bound address (host:port).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// The published-object table served on this socket.
    pub fn objects(&self) -> &ObjectTable {
        &self.0.state.objects
    }

    /// A `tcp://` URI for an object on this server.
    pub fn uri_for(&self, object: &str) -> String {
        format!("tcp://{}/{}", self.local_addr(), object)
    }
}

impl std::fmt::Debug for TcpServerChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServerChannel").field("addr", &self.local_addr()).finish()
    }
}

/// The reply half of one server connection, shared with the mailbox
/// workers that answer its calls.
struct ReplyWriter {
    /// Write half of the socket; replies go out in completion order.
    /// Correlation IDs are what make that safe for the client.
    stream: Mutex<TcpStream>,
    /// Live backlog of the server's scheduler.
    depth: DispatchDepth,
}

impl ReplyWriter {
    /// Encodes `reply` and writes it as one frame under the write mutex,
    /// tearing the connection down on a failed write (a half-written
    /// reply stream cannot be resynced). The scheduler's queue depth is
    /// sampled *at reply-write time* and piggybacked as a [`DepthExt`] so
    /// the client's aggregation controller sees backpressure with zero
    /// extra round trips.
    fn write(&self, corr_id: u64, reply: &ReturnMessage) {
        let formatter = BinaryFormatter::new();
        let mut reply_buf = bufpool::global().checkout();
        if reply.encode_into(&formatter, &mut reply_buf).is_ok() {
            let ext = DepthExt::capture(&self.depth);
            let mut w = self.stream.lock();
            if frame::write_frame_depth(&mut *w, corr_id, 0, Some(ext), &reply_buf).is_err() {
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        }
        bufpool::global().checkin(reply_buf);
    }
}

/// One server connection: reads frames, peels each one's optional
/// trace-context extension, decodes its [`CallMessage`] and hands it to
/// [`serve_call`]. The frame flag decides whether the call is answered.
fn serve_connection(mut stream: TcpStream, state: ServerState) {
    let _ = stream.set_nodelay(true);
    // The read half stays on this thread; replies are written by mailbox
    // workers through the cloned write half.
    let Ok(w) = stream.try_clone() else { return };
    let depth = state.scheduler.depth_handle();
    let writer = Arc::new(ReplyWriter { stream: Mutex::new(w), depth });
    let formatter = BinaryFormatter::new();
    // Every frame is decoded before the next read (the decoded call is
    // what routes to a mailbox), so one pooled request buffer serves the
    // whole connection.
    let mut payload = bufpool::global().checkout();
    loop {
        let header = match frame::read_frame_into(&mut stream, &mut payload) {
            Ok(FrameRead::Frame(h)) => h,
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) | Err(_) => break,
        };
        if state.stopped() {
            break;
        }
        let (trace, decoded) = match frame::split_trace_ext(&header, &payload) {
            Ok((ext, body)) => (
                ext.map(TraceExt::to_context),
                CallMessage::decode(&formatter, body).map_err(|e| e.to_string()),
            ),
            Err(e) => (None, Err(e.to_string())),
        };
        let reply = (!header.oneway()).then(|| {
            let writer = Arc::clone(&writer);
            let corr_id = header.corr_id;
            move |reply: &ReturnMessage| writer.write(corr_id, reply)
        });
        let origin = Origin { trace, node: None };
        serve_call(&state.scheduler, &state.objects, origin, decoded, reply);
    }
    bufpool::global().checkin(payload);
}

/// The pooled reply payload and the offset its formatter bytes start at.
type SlotOutcome = Result<(Vec<u8>, usize), RemotingError>;

type Slot = crate::slot::Slot<SlotOutcome>;

/// State shared between a connection's callers and its leading caller,
/// which demuxes replies.
struct MuxShared {
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Set once the connection breaks; later calls fail fast with this detail.
    dead: Mutex<Option<String>>,
}

impl MuxShared {
    fn new() -> Arc<MuxShared> {
        Arc::new(MuxShared { pending: Mutex::new(HashMap::new()), dead: Mutex::new(None) })
    }

    /// Fails every parked caller and remembers why, so calls issued after
    /// the connection broke do not block until their timeout. The
    /// `channel.inflight` gauge is left to [`MuxConnection::call`], which
    /// still decrements once for each of these calls as it returns.
    fn poison(&self, detail: &str) {
        *self.dead.lock() = Some(detail.to_string());
        let drained: Vec<Arc<Slot>> = self.pending.lock().drain().map(|(_, s)| s).collect();
        for slot in drained {
            slot.complete(Err(RemotingError::Transport { detail: detail.to_string() }));
        }
    }
}

/// One multiplexed connection: writers interleave frames under a short
/// write lock; the leading caller routes replies to their slots.
struct MuxConnection {
    writer: Mutex<TcpStream>,
    /// Read half; only the leader reads it.
    reader: TcpStream,
    /// Whether a caller holds the read half; see [`MuxConnection::release`].
    leading: AtomicBool,
    shared: Arc<MuxShared>,
    next_corr: AtomicU64,
    formatter: BinaryFormatter,
    /// Per-call reply deadline for every call on this connection.
    timeout: Duration,
    /// Channel-level feedback sink (RTT + server depth reports). Shared
    /// by every pooled connection and surviving revives, so the
    /// aggregation controller's view is per-authority, not per-socket.
    feedback: Arc<LinkFeedback>,
}

impl MuxConnection {
    fn connect(
        addr: &str,
        timeout: Duration,
        feedback: Arc<LinkFeedback>,
    ) -> Result<MuxConnection, RemotingError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Bounds how long a frame the leader has begun may stall; waiting
        // *for* a frame is bounded by the leader's own deadline instead.
        stream.set_read_timeout(Some(timeout))?;
        Ok(MuxConnection {
            reader: stream.try_clone()?,
            writer: Mutex::new(stream),
            leading: AtomicBool::new(false),
            shared: MuxShared::new(),
            next_corr: AtomicU64::new(1),
            formatter: BinaryFormatter::new(),
            timeout,
            feedback,
        })
    }

    fn check_alive(&self) -> Result<(), RemotingError> {
        if let Some(detail) = self.shared.dead.lock().clone() {
            return Err(RemotingError::Transport { detail });
        }
        Ok(())
    }

    /// Whether this connection has been poisoned.
    fn is_dead(&self) -> bool {
        self.shared.dead.lock().is_some()
    }

    /// Forcibly breaks the socket (test hook): the next read or write
    /// observes the shutdown and poisons the connection exactly as a real
    /// network failure would.
    fn sever(&self) {
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }

    /// Serializes `msg` into a pooled buffer and writes one frame,
    /// returning the encoded payload size. The write lock covers only the
    /// socket write — never a round trip.
    fn send_frame(&self, msg: &CallMessage, corr_id: u64, flags: u8) -> Result<usize, RemotingError> {
        let pool = bufpool::global();
        let mut buf = pool.checkout();
        let encoded = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            msg.encode_into(&self.formatter, &mut buf)
        };
        if let Err(e) = encoded {
            pool.checkin(buf);
            return Err(e.into());
        }
        let sent = buf.len();
        let written = {
            // Capture the caller context inside the send span so the
            // server-side dispatch hangs directly under `channel.send`.
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_SEND);
            let trace = frame::TraceExt::capture();
            let mut writer = self.writer.lock();
            frame::write_frame_traced(&mut *writer, corr_id, flags, trace, &buf)
        };
        pool.checkin(buf);
        if let Err(e) = &written {
            // A failed write is definitive: the socket is broken. Poison
            // now, so an immediate (zero-backoff) retry already sees a
            // dead connection and revives the pool slot rather than
            // burning its attempts on the same corpse.
            self.shared.poison(&format!("send failed: {e}"));
        }
        written.map_err(RemotingError::from).map(|()| sent)
    }

    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_PIPELINE);
        self.check_alive()?;
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::new();
        self.shared.pending.lock().insert(corr_id, Arc::clone(&slot));
        // Decided once, so a call straddling an obs toggle leaves the
        // gauge balanced.
        let counted = parc_obs::is_enabled();
        if counted {
            parc_obs::gauge(parc_obs::kinds::INFLIGHT).adjust(1);
        }
        let outcome = self.call_inner(msg, corr_id, &slot);
        if counted {
            parc_obs::gauge(parc_obs::kinds::INFLIGHT).adjust(-1);
        }
        outcome
    }

    fn call_inner(
        &self,
        msg: &CallMessage,
        corr_id: u64,
        slot: &Slot,
    ) -> Result<ReturnMessage, RemotingError> {
        let started = Instant::now();
        self.send_frame(msg, corr_id, 0).inspect_err(|_| self.release(corr_id, slot, false))?;
        let (payload, body) = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_RECV);
            self.await_reply(corr_id, slot, started)?
        };
        self.feedback.record_rtt(started.elapsed());
        let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
        let reply = ReturnMessage::decode(&self.formatter, &payload[body..]);
        bufpool::global().checkin(payload);
        Ok(reply?)
    }

    /// Waits out `slot`'s reply until `started + timeout`: as the leader,
    /// reading and routing frames itself, whenever no other caller is;
    /// otherwise parked until a leader completes the slot or hands it the
    /// read half. A frame once begun is read to its end, deadline or not:
    /// the stream would otherwise lose its framing.
    fn await_reply(&self, corr_id: u64, slot: &Slot, started: Instant) -> SlotOutcome {
        let deadline = started + self.timeout;
        let timed_out = || Err(RemotingError::timed_out(started.elapsed(), self.timeout));
        let mut leading = !self.leading.swap(true, Ordering::Acquire);
        let outcome = loop {
            // Only the leader completes slots, so it merely polls its own.
            match slot.park(if leading { Instant::now() } else { deadline }) {
                Wake::Done(outcome) => break outcome,
                Wake::Lead => leading = true,
                Wake::Timeout if leading => match self.readable(deadline) {
                    Ok(true) => self.route_frame(),
                    Ok(false) => break timed_out(),
                    Err(e) => self.shared.poison(&format!("tcp read failed: {e}")),
                },
                Wake::Timeout => break timed_out(),
            }
        };
        self.release(corr_id, slot, leading);
        outcome
    }

    /// Unregisters `corr_id` and, when this caller holds the read half —
    /// it led, or was handed it while giving up — passes it to a waiting
    /// caller or frees it; under the `pending` lock, like every hand-off.
    fn release(&self, corr_id: u64, slot: &Slot, leading: bool) {
        let mut pending = self.shared.pending.lock();
        pending.remove(&corr_id);
        if leading || matches!(slot.park(Instant::now()), Wake::Lead) {
            if pending.values().any(|s| s.promote()) {
                parc_obs::event(parc_obs::kinds::LEADER_HANDOFF, String::new);
            } else {
                self.leading.store(false, Ordering::Release);
            }
        }
    }

    /// Waits at a frame boundary until the socket has a byte, EOF or an
    /// error to report (`Ok(true)`) or `deadline` passes (`Ok(false)`).
    /// On a fast link it first polls without blocking ([`slot::spin`]).
    fn readable(&self, deadline: Instant) -> std::io::Result<bool> {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let idle = |e: &std::io::Error| matches!(e.kind(), WouldBlock | TimedOut | Interrupted);
        let mut probe = [0u8; 1];
        if slot::fast_link(&self.feedback) {
            self.reader.set_nonblocking(true)?;
            let polled = slot::spin(deadline, || match self.reader.peek(&mut probe) {
                Err(e) if idle(&e) => None,
                ready => Some(ready),
            });
            self.reader.set_nonblocking(false)?;
            if let Some(ready) = polled {
                return ready.map(|_| true);
            }
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(false);
            }
            self.reader.set_read_timeout(Some(remaining))?;
            let ready = self.reader.peek(&mut probe);
            self.reader.set_read_timeout(Some(self.timeout))?;
            match ready {
                Err(e) if idle(&e) => {}
                ready => return ready.map(|_| true),
            }
        }
    }

    /// Reads one frame and completes the slot it answers; EOF, a read
    /// error or a malformed reply poisons the connection.
    fn route_frame(&self) {
        let pool = bufpool::global();
        let mut payload = pool.checkout();
        // The server's backlog report (if any) is peeled off by handing
        // the caller the offset its body starts at.
        let routed = match frame::read_frame_into(&mut &self.reader, &mut payload) {
            Ok(FrameRead::Frame(header)) => frame::split_depth_ext(&header, &payload)
                .map(|(ext, body)| (header.corr_id, ext, payload.len() - body.len()))
                .map_err(|e| format!("malformed depth extension: {e}")),
            Ok(FrameRead::Idle) => return pool.checkin(payload),
            Ok(FrameRead::Eof) => Err("server closed connection".to_string()),
            Err(e) => Err(format!("tcp read failed: {e}")),
        };
        let (corr_id, ext, body) = match routed {
            Ok(routed) => routed,
            Err(detail) => {
                pool.checkin(payload);
                return self.shared.poison(&detail);
            }
        };
        if let Some(ext) = ext {
            self.feedback.record_depth(ext.pending as usize, ext.busiest as usize);
        }
        match self.shared.pending.lock().remove(&corr_id) {
            Some(slot) => slot.complete(Ok((payload, body))),
            // Unknown id: a reply that raced a caller's timeout (its slot
            // is gone) — drop it and keep the stream healthy.
            None => pool.checkin(payload),
        }
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        self.check_alive()?;
        // One-way posts never register a slot: the server's reply stream
        // skips them entirely (FLAG_ONEWAY), so they cannot desynchronize
        // correlation even when the target method does not exist.
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        self.send_frame(msg, corr_id, FLAG_ONEWAY)
    }
}

/// Client half of the TCP channel: a small pool of multiplexed
/// connections; calls from any number of threads pipeline freely.
///
/// A connection that breaks (server restart, network blip) used to
/// poison its pool slot forever. Now each slot is swappable: the first
/// caller to hit the poisoned connection reconnects it, installing a
/// fresh socket with a fresh (empty) correlation slot table, and retries
/// its own operation once on the new connection. Pending calls on the
/// old connection were already failed by the poison — their owners see a
/// retryable transport error and re-register on the fresh table via the
/// proxy-level [`crate::retry::RetryPolicy`].
pub struct TcpClientChannel {
    addr: String,
    timeout: Duration,
    connections: Vec<Mutex<Arc<MuxConnection>>>,
    next: AtomicUsize,
    feedback: Arc<LinkFeedback>,
}

impl TcpClientChannel {
    /// Connects to a server with the configured pool size
    /// ([`pool_size_from_env`]) and per-call deadline
    /// ([`crate::retry::call_timeout`]).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<TcpClientChannel, RemotingError> {
        TcpClientChannel::connect_pooled(addr, pool_size_from_env())
    }

    /// Connects with an explicit socket-pool size (`>= 1`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_pooled(addr: &str, pool: usize) -> Result<TcpClientChannel, RemotingError> {
        TcpClientChannel::connect_pooled_with_timeout(addr, pool, call_timeout())
    }

    /// Connects with an explicit pool size and per-call deadline (tests
    /// pin short deadlines without touching the process environment).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_pooled_with_timeout(
        addr: &str,
        pool: usize,
        timeout: Duration,
    ) -> Result<TcpClientChannel, RemotingError> {
        let pool = pool.max(1);
        let feedback = Arc::new(LinkFeedback::new());
        let mut connections = Vec::with_capacity(pool);
        for _ in 0..pool {
            connections.push(Mutex::new(Arc::new(MuxConnection::connect(
                addr,
                timeout,
                Arc::clone(&feedback),
            )?)));
        }
        Ok(TcpClientChannel {
            addr: addr.to_string(),
            timeout,
            connections,
            next: AtomicUsize::new(0),
            feedback,
        })
    }

    /// Number of sockets in this channel's pool.
    pub fn pool_size(&self) -> usize {
        self.connections.len()
    }

    /// The per-call reply deadline this channel applies.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Severs every pooled socket (test hook): the next call on each
    /// observes the shutdown and poisons its connection exactly like a
    /// real network failure, so reconnect paths can be exercised deterministically
    /// against a still-live server.
    pub fn break_connections(&self) {
        for slot in &self.connections {
            slot.lock().sever();
        }
    }

    /// Picks the next pooled slot, reviving its connection first when a
    /// previous caller left it poisoned (nothing has been sent yet, so
    /// this retry is always safe).
    fn pick_live(
        &self,
    ) -> Result<(&Mutex<Arc<MuxConnection>>, Arc<MuxConnection>), RemotingError> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.connections[n % self.connections.len()];
        let conn = Arc::clone(&slot.lock());
        if conn.is_dead() {
            let fresh = self.revive(slot, &conn)?;
            return Ok((slot, fresh));
        }
        Ok((slot, conn))
    }

    /// Replaces a poisoned connection in `slot` (unless a racing caller
    /// already did), re-registering a fresh correlation slot table.
    fn revive(
        &self,
        slot: &Mutex<Arc<MuxConnection>>,
        stale: &Arc<MuxConnection>,
    ) -> Result<Arc<MuxConnection>, RemotingError> {
        let started = Instant::now();
        let mut guard = slot.lock();
        if !Arc::ptr_eq(&guard, stale) && !guard.is_dead() {
            return Ok(Arc::clone(&guard));
        }
        let fresh = Arc::new(MuxConnection::connect(
            &self.addr,
            self.timeout,
            Arc::clone(&self.feedback),
        )?);
        *guard = Arc::clone(&fresh);
        drop(guard);
        parc_obs::counter(parc_obs::kinds::CONN_RECONNECTED).incr();
        parc_obs::histogram(parc_obs::kinds::RECOVERY_LATENCY)
            .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        parc_obs::event(parc_obs::kinds::CONN_RECONNECTED, || {
            format!("addr={} elapsed_us={}", self.addr, started.elapsed().as_micros())
        });
        Ok(fresh)
    }
}

impl ClientChannel for TcpClientChannel {
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        let (slot, conn) = self.pick_live()?;
        let outcome = conn.call(msg);
        // A call that was in flight when the connection died may already
        // have executed server-side, so it is NOT resent here (that would
        // break at-most-once for non-idempotent methods) — but the slot
        // is revived so the channel recovers for every later caller, and
        // the surfaced error stays retryable for idempotent proxies.
        if outcome.is_err() && conn.is_dead() {
            let _ = self.revive(slot, &conn);
        }
        outcome
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        let (slot, conn) = self.pick_live()?;
        match conn.post(msg) {
            // Fire-and-forget: resending after a reconnect is safe (the
            // contract is at-most-once delivery with no failure report,
            // and a send error means delivery was unlikely anyway).
            Err(e) if conn.is_dead() => match self.revive(slot, &conn) {
                Ok(fresh) => fresh.post(msg),
                Err(_) => Err(e),
            },
            outcome => outcome,
        }
    }

    fn scheme(&self) -> &'static str {
        "tcp"
    }

    fn feedback(&self) -> Option<Arc<LinkFeedback>> {
        Some(Arc::clone(&self.feedback))
    }
}

impl std::fmt::Debug for TcpClientChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClientChannel")
            .field("pool", &self.connections.len())
            .finish_non_exhaustive()
    }
}

/// Channel provider resolving `tcp://host:port/Object` URIs, with one
/// cached [`TcpClientChannel`] per authority.
pub struct TcpChannelProvider {
    cache: Mutex<std::collections::HashMap<String, Arc<dyn ClientChannel>>>,
}

impl Default for TcpChannelProvider {
    fn default() -> TcpChannelProvider {
        TcpChannelProvider::new()
    }
}

impl TcpChannelProvider {
    /// Creates a provider with an empty connection cache.
    pub fn new() -> TcpChannelProvider {
        TcpChannelProvider { cache: Mutex::new(std::collections::HashMap::new()) }
    }

    /// The transport this provider opens: always [`Transport::Mux`].
    pub fn transport(&self) -> Transport {
        Transport::Mux
    }
}

impl ChannelProvider for TcpChannelProvider {
    fn open(&self, uri: &ObjectUri) -> Result<Arc<dyn ClientChannel>, RemotingError> {
        if uri.scheme() != Scheme::Tcp {
            return Err(RemotingError::BadUri {
                uri: uri.to_string(),
                detail: "tcp provider only serves tcp:// uris".into(),
            });
        }
        let mut cache = self.cache.lock();
        if let Some(chan) = cache.get(uri.authority()) {
            return Ok(crate::fault::wrap_if_chaotic(Arc::clone(chan)));
        }
        let chan: Arc<dyn ClientChannel> = Arc::new(TcpClientChannel::connect(uri.authority())?);
        cache.insert(uri.authority().to_string(), Arc::clone(&chan));
        Ok(crate::fault::wrap_if_chaotic(chan))
    }
}

impl std::fmt::Debug for TcpChannelProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpChannelProvider")
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
    use std::net::TcpListener;

    fn start_echo_server() -> TcpServerChannel {
        let server = TcpServerChannel::bind("127.0.0.1:0").unwrap();
        server.objects().register_singleton(
            "Echo",
            Arc::new(FnInvokable(|method: &str, args: &[Value]| match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "len" => Ok(Value::I32(
                    args.first().and_then(Value::as_i32_array).map_or(-1, |a| a.len() as i32),
                )),
                _ => Err(RemotingError::MethodNotFound {
                    object: "Echo".into(),
                    method: method.into(),
                }),
            })),
        );
        server
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let server = start_echo_server();
        let provider = TcpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Echo")).unwrap();
        assert_eq!(
            proxy.call("echo", vec![Value::Str("over tcp".into())]).unwrap(),
            Value::Str("over tcp".into())
        );
    }

    #[test]
    fn large_payload_roundtrips() {
        let server = start_echo_server();
        let provider = TcpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Echo")).unwrap();
        let big: Vec<i32> = (0..200_000).collect();
        assert_eq!(
            proxy.call("len", vec![Value::I32Array(big)]).unwrap(),
            Value::I32(200_000)
        );
    }

    #[test]
    fn concurrent_callers_share_one_multiplexed_channel() {
        let server = start_echo_server();
        let chan =
            Arc::new(TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap());
        assert_eq!(chan.pool_size(), 1);
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = crate::channel::RemoteObject::new(
                        chan as Arc<dyn ClientChannel>,
                        "Echo",
                    );
                    for i in 0..20 {
                        let v = proxy.call("echo", vec![Value::I32(t * 100 + i)]).unwrap();
                        assert_eq!(v, Value::I32(t * 100 + i));
                    }
                });
            }
        });
    }

    fn register_sleepy(server: &TcpServerChannel, name: &str) {
        server.objects().register_singleton(
            name,
            Arc::new(crate::dispatcher::FnInvokable(|method: &str, _args: &[Value]| {
                match method {
                    "nap" => {
                        std::thread::sleep(Duration::from_millis(100));
                        Ok(Value::Null)
                    }
                    _ => Err(RemotingError::MethodNotFound {
                        object: "Sleepy".into(),
                        method: method.into(),
                    }),
                }
            })),
        );
    }

    /// The server must run pipelined two-way calls to DISTINCT objects
    /// concurrently, not serially on the connection's reader thread: four
    /// calls that each sleep 100ms, issued over ONE connection, must
    /// finish in far less than the 400ms a serial server would need.
    /// (Calls to one object serialize by design — see the test below.)
    #[test]
    fn server_overlaps_pipelined_calls_from_one_connection() {
        let server =
            TcpServerChannel::bind_with_workers("127.0.0.1:0", 4).unwrap();
        for i in 0..4 {
            register_sleepy(&server, &format!("Sleepy{i}"));
        }
        let chan =
            Arc::new(TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap());
        let start = Instant::now();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = crate::channel::RemoteObject::new(
                        chan as Arc<dyn ClientChannel>,
                        format!("Sleepy{i}"),
                    );
                    proxy.call("nap", vec![]).unwrap();
                });
            }
        });
        let elapsed = start.elapsed();
        // 4 mailbox workers, 4 objects: all four naps overlap (~100ms plus
        // scheduling slack). A serial server would take >= 400ms.
        assert!(
            elapsed < Duration::from_millis(300),
            "4 overlapped 100ms calls took {elapsed:?} — server is dispatching serially"
        );
    }

    /// The flip side of the active-object discipline: concurrent calls to
    /// ONE object must never overlap, whatever the client concurrency.
    #[test]
    fn calls_to_one_object_never_overlap() {
        let server =
            TcpServerChannel::bind_with_workers("127.0.0.1:0", 4).unwrap();
        let in_flight = Arc::new(AtomicUsize::new(0));
        let overlapped = Arc::new(AtomicBool::new(false));
        let (flight, over) = (Arc::clone(&in_flight), Arc::clone(&overlapped));
        server.objects().register_singleton(
            "Guarded",
            Arc::new(crate::dispatcher::FnInvokable(move |_method: &str, _args: &[Value]| {
                if flight.fetch_add(1, Ordering::SeqCst) != 0 {
                    over.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(2));
                flight.fetch_sub(1, Ordering::SeqCst);
                Ok(Value::Null)
            })),
        );
        let chan =
            Arc::new(TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = crate::channel::RemoteObject::new(
                        chan as Arc<dyn ClientChannel>,
                        "Guarded",
                    );
                    for _ in 0..10 {
                        proxy.post("touch", vec![]).unwrap();
                        proxy.call("touch", vec![]).unwrap();
                    }
                });
            }
        });
        assert!(
            !overlapped.load(Ordering::SeqCst),
            "two invocations of one object ran concurrently"
        );
        // The worker bumps `executed` *after* the job (whose reply is what
        // unblocked the caller), so give the counter a bounded moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.dispatch_stats().unwrap().executed < 80
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(server.dispatch_stats().unwrap().executed >= 80);
    }

    #[test]
    fn provider_caches_connections_per_authority() {
        let server = start_echo_server();
        let provider = TcpChannelProvider::new();
        let uri_a: ObjectUri = server.uri_for("Echo").parse().unwrap();
        let a = provider.open(&uri_a).unwrap();
        let b = provider.open(&uri_a).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fault_propagates_over_tcp() {
        let server = start_echo_server();
        let provider = TcpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Echo")).unwrap();
        assert!(matches!(
            proxy.call("missing", vec![]),
            Err(RemotingError::ServerFault { .. })
        ));
    }

    #[test]
    fn connecting_to_dead_port_fails() {
        // Bind and immediately drop to obtain a (very likely) dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(TcpClientChannel::connect(&addr.to_string()).is_err());
    }

    #[test]
    fn posts_are_fire_and_forget() {
        let server = start_echo_server();
        let provider = TcpChannelProvider::new();
        let proxy = Activator::get_object(&provider, &server.uri_for("Echo")).unwrap();
        // Posting to a missing method must not error locally nor poison the
        // connection for the next call.
        proxy.post("missing", vec![]).unwrap();
        assert_eq!(proxy.call("echo", vec![Value::I32(1)]).unwrap(), Value::I32(1));
    }

    #[test]
    fn interleaved_posts_and_calls_from_many_threads_stay_correlated() {
        // The multiplexing regression this guards: a post must never
        // consume a reply slot, so posts to missing methods interleaved
        // with calls from other threads cannot desynchronize replies.
        let server = start_echo_server();
        let chan =
            Arc::new(TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap());
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy = crate::channel::RemoteObject::new(
                        chan as Arc<dyn ClientChannel>,
                        "Echo",
                    );
                    for i in 0..25 {
                        // Posts to both valid and missing methods...
                        proxy.post("echo", vec![Value::I32(i)]).unwrap();
                        proxy.post("missing", vec![]).unwrap();
                        // ...never corrupt the next synchronous reply.
                        let expect = t * 1000 + i;
                        let v = proxy.call("echo", vec![Value::I32(expect)]).unwrap();
                        assert_eq!(v, Value::I32(expect));
                    }
                });
            }
        });
    }

    #[test]
    fn pool_size_env_parsing() {
        // Don't mutate the process env (tests run threaded); exercise the
        // default path and the explicit constructor instead.
        assert!(pool_size_from_env() >= 1);
        let server = start_echo_server();
        let chan =
            TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 3).unwrap();
        assert_eq!(chan.pool_size(), 3);
        let chan = TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 0).unwrap();
        assert_eq!(chan.pool_size(), 1, "pool size is clamped to >= 1");
    }

    #[test]
    fn broken_connections_reconnect_against_live_server() {
        let server = start_echo_server();
        let chan = Arc::new(
            TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 2).unwrap(),
        );
        let proxy = crate::channel::RemoteObject::new(
            Arc::clone(&chan) as Arc<dyn ClientChannel>,
            "Echo",
        );
        assert!(proxy.call("echo", vec![Value::I32(1)]).is_ok());
        chan.break_connections();
        // The channel recovers in place: no rebuild, fresh sockets and
        // correlation tables installed by the first callers to notice.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match proxy.call("echo", vec![Value::I32(2)]) {
                Ok(v) => {
                    assert_eq!(v, Value::I32(2));
                    break;
                }
                Err(_) => {
                    assert!(Instant::now() < deadline, "channel never recovered");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // With a retrying proxy, recovery is invisible to the caller.
        chan.break_connections();
        let retrying = crate::channel::RemoteObject::new(
            Arc::clone(&chan) as Arc<dyn ClientChannel>,
            "Echo",
        )
        .with_retry(crate::retry::RetryPolicy::new(
            8,
            Duration::from_millis(2),
            Duration::from_millis(50),
        ));
        assert_eq!(
            retrying.call_idempotent("echo", vec![Value::I32(3)]).unwrap(),
            Value::I32(3)
        );
    }

    #[test]
    fn per_call_deadline_times_out_with_durations() {
        let server = TcpServerChannel::bind("127.0.0.1:0").unwrap();
        server.objects().register_singleton(
            "Slow",
            Arc::new(FnInvokable(|_m: &str, _a: &[Value]| {
                std::thread::sleep(Duration::from_millis(500));
                Ok(Value::Null)
            })),
        );
        let chan = TcpClientChannel::connect_pooled_with_timeout(
            &server.local_addr().to_string(),
            1,
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(chan.timeout(), Duration::from_millis(50));
        let proxy = crate::channel::RemoteObject::new(
            Arc::new(chan) as Arc<dyn ClientChannel>,
            "Slow",
        );
        let started = Instant::now();
        match proxy.call("nap", vec![]) {
            Err(RemotingError::Timeout { elapsed, deadline }) => {
                assert_eq!(deadline, Duration::from_millis(50));
                assert!(elapsed >= deadline, "elapsed {elapsed:?} under deadline");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "per-call deadline was ignored"
        );
    }

    /// Every reply reports the server's scheduler backlog; the mux channel surfaces it (plus RTT) through
    /// [`ClientChannel::feedback`] without disturbing the payload.
    #[test]
    fn mux_replies_carry_depth_feedback() {
        let server = start_echo_server();
        let chan = Arc::new(
            TcpClientChannel::connect_pooled(&server.local_addr().to_string(), 1).unwrap(),
        );
        let feedback = chan.feedback().expect("mux channel exposes feedback");
        let proxy = crate::channel::RemoteObject::new(
            Arc::clone(&chan) as Arc<dyn ClientChannel>,
            "Echo",
        );
        assert_eq!(proxy.call("echo", vec![Value::I32(9)]).unwrap(), Value::I32(9));
        assert!(feedback.rtt().is_some(), "call recorded no RTT sample");
        assert!(feedback.depth().is_some(), "mailbox reply carried no depth report");
    }

    #[test]
    fn dead_connection_fails_fast_after_poison() {
        let server = start_echo_server();
        let addr = server.local_addr().to_string();
        let chan = TcpClientChannel::connect_pooled(&addr, 1).unwrap();
        let proxy = crate::channel::RemoteObject::new(
            Arc::new(chan) as Arc<dyn ClientChannel>,
            "Echo",
        );
        assert!(proxy.call("echo", vec![Value::I32(1)]).is_ok());
        drop(server);
        // Once a read observes the close, calls must fail quickly with
        // a transport error rather than waiting out the 30 s timeout.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match proxy.call("echo", vec![Value::I32(2)]) {
                Err(RemotingError::Transport { .. }) | Err(RemotingError::Timeout { .. }) => break,
                Err(other) => panic!("unexpected error class: {other:?}"),
                Ok(_) => {
                    assert!(Instant::now() < deadline, "dead connection kept answering");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// A peer that dies with three calls parked must leave
    /// `channel.inflight` where it started: each failed call is counted
    /// out once, not once by the poison and again by the caller.
    #[test]
    fn poisoned_calls_leave_the_inflight_gauge_balanced() {
        let _guard = parc_obs::test_lock();
        parc_obs::set_enabled(true);
        let gauge = parc_obs::gauge(parc_obs::kinds::INFLIGHT);
        let start = gauge.get();
        // A bare socket that reads three calls and dies without replying.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut payload = Vec::new();
            for _ in 0..3 {
                let read = frame::read_frame_into(&mut stream, &mut payload).unwrap();
                assert!(matches!(read, FrameRead::Frame(_)));
            }
        });
        let chan = Arc::new(TcpClientChannel::connect_pooled(&addr, 1).unwrap());
        std::thread::scope(|scope| {
            for i in 0..3 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy =
                        crate::channel::RemoteObject::new(chan as Arc<dyn ClientChannel>, "Echo");
                    let outcome = proxy.call("echo", vec![Value::I32(i)]);
                    assert!(
                        matches!(outcome, Err(RemotingError::Transport { .. })),
                        "{outcome:?}"
                    );
                });
            }
        });
        server.join().unwrap();
        // Calls other tests have in flight while recording is on move the
        // gauge too, but only for as long as they are in flight.
        let deadline = Instant::now() + Duration::from_secs(2);
        while gauge.get() != start && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let settled = gauge.get();
        parc_obs::set_enabled(false);
        assert_eq!(settled, start, "channel.inflight drifted by {}", settled - start);
    }
}
