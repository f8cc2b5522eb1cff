//! The readiness-driven reactor transport: every TCP connection —
//! client or server side — multiplexed onto a small fixed pool of
//! reactor threads, with **zero per-connection threads**.
//!
//! The thread-per-connection transport ([`crate::tcp`]) spends one
//! blocking reader thread per client socket and one per accepted server
//! socket. That is fine for tens of peers and fatal for thousands: 10k
//! connections means 10k parked threads of stack and scheduler load
//! before a single byte moves. The reactor inverts the shape, the way
//! `java.nio` selectors do over `java.io` streams (the in-tree
//! `parc-rmi::nio` module is the buffer-discipline exemplar): sockets
//! are nonblocking, a reactor thread sweeps the connections it owns for
//! readable bytes and drainable write queues, and *completed frames* —
//! reassembled incrementally by [`crate::frame::FrameAssembler`] across
//! arbitrary partial-read boundaries — go through the same
//! [`crate::dispatcher::serve_frame`] onto the same per-object mailboxes
//! the blocking readers feed. Resident threads are O(reactor pool +
//! dispatch workers), never O(connections).
//!
//! **Readiness model.** Hermetic and std-only means no epoll/kqueue
//! crates; readiness is level-triggered by construction: a sweep simply
//! *tries* every connection (nonblocking read, nonblocking write of any
//! queued bytes) and treats `WouldBlock` as "not ready". A sweep that
//! makes progress anywhere immediately runs again; an idle reactor
//! spins briefly, then parks on a condvar with an adaptive backoff
//! (doubling from [`MIN_PARK`] to [`MAX_PARK`]) so a quiet process
//! costs ~a few wakeups per millisecond, not a busy core. Writers never
//! wait for the reactor: a worker with a reply (or a caller with a
//! request) attempts the socket write directly under the connection's
//! outbound lock and only queues the remainder — the reactor is woken
//! to drain leftovers, not to perform every write.
//!
//! **Backpressure.** A reactor that reads faster than the mailbox
//! workers drain would grow the dispatch backlog without bound. Each
//! server connection therefore consults its scheduler's
//! [`DispatchDepth`] before reading: past [`BACKPRESSURE_HIGH_WATER`]
//! pending jobs the sweep stops *reading* that server's connections
//! (TCP's own flow control then pushes back on clients) while still
//! draining writes, and resumes as the workers catch up.
//!
//! `PARC_TRANSPORT` chooses between this client and the
//! thread-per-connection mux client (see [`crate::tcp::Transport`]): an
//! idle sweep parks, so a lone caller pays the park in latency, while
//! the mux client pays a thread per socket. `PARC_REACTOR_THREADS`
//! overrides the pool size (default `min(cores, 4)`).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parc_serial::BinaryFormatter;
use parc_sync::{Condvar, Mutex};

use crate::bufpool;
use crate::channel::{ClientChannel, LinkFeedback};
use crate::dispatcher::serve_frame;
use crate::error::RemotingError;
use crate::frame::{self, FrameAssembler, FrameHeader, TraceExt, FLAG_DEPTH, FLAG_ONEWAY};
use crate::mailbox::{DispatchDepth, MailboxScheduler};
use crate::message::{CallMessage, ReturnMessage};
use crate::retry::call_timeout;
use crate::tcp::{MuxShared, Slot};
use crate::wellknown::ObjectTable;

/// Environment variable overriding the reactor pool size.
pub const REACTOR_THREADS_ENV: &str = "PARC_REACTOR_THREADS";

/// Ceiling on the default pool size: reactor threads multiplex waiting,
/// not CPU work, so a handful covers even wide machines.
pub const DEFAULT_MAX_THREADS: usize = 4;

/// Pending dispatch jobs above which a sweep stops reading server
/// connections (writes still drain); TCP flow control then backpressures
/// the clients until the mailbox workers catch up.
pub const BACKPRESSURE_HIGH_WATER: usize = 4096;

/// Sweeps an idle reactor runs with only a `yield_now` between them
/// before it starts parking.
const SPIN_PASSES: u32 = 3;

/// First (shortest) park duration of the adaptive backoff.
const MIN_PARK: Duration = Duration::from_micros(50);

/// Longest park duration: bounds worst-case latency for a frame that
/// arrives while every producer is silent.
const MAX_PARK: Duration = Duration::from_millis(2);

/// Per-connection scratch read size per `read` call.
const SCRATCH: usize = 64 * 1024;

/// Consecutive reads one connection gets per sweep before the reactor
/// moves on — a bulk sender cannot starve its siblings.
const READ_BUDGET: usize = 8;

/// The configured pool size: `PARC_REACTOR_THREADS` when set and
/// positive, otherwise `min(available_parallelism, 4)`.
pub fn reactor_threads_from_env() -> usize {
    std::env::var(REACTOR_THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .clamp(1, DEFAULT_MAX_THREADS)
        })
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// What a sweep learned from one connection.
enum Io {
    Progress,
    Idle,
    Closed(String),
}

/// Server-side frame handling state, shared by every connection of one
/// [`ReactorServerChannel`].
struct ServerHandler {
    objects: ObjectTable,
    scheduler: Arc<MailboxScheduler>,
    /// Live backlog of `scheduler`: read before every sweep
    /// (backpressure) and stamped onto every reply.
    depth: DispatchDepth,
    /// The owning server's stop flag; set on drop, closing every
    /// connection at the next sweep.
    stop: Arc<AtomicBool>,
}

/// Which protocol role a registered connection plays.
enum Handler {
    Server(Arc<ServerHandler>),
    /// Client side: completed frames are replies, routed to parked
    /// callers by correlation ID through the same [`MuxShared`] the
    /// thread-per-connection mux client uses. Depth reports piggybacked
    /// on replies land in the channel-level [`LinkFeedback`].
    Client {
        shared: Arc<MuxShared>,
        feedback: Arc<LinkFeedback>,
    },
}

/// Outbound bytes not yet accepted by the socket, in frame order.
struct OutBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written.
    head_off: usize,
}

/// One nonblocking connection registered with the reactor.
pub(crate) struct ReactorConn {
    stream: TcpStream,
    /// Index of the reactor thread that sweeps this connection.
    owner: usize,
    assembler: Mutex<FrameAssembler>,
    out: Mutex<OutBuf>,
    closed: AtomicBool,
    handler: Handler,
}

impl ReactorConn {
    fn new(stream: TcpStream, owner: usize, handler: Handler) -> Arc<ReactorConn> {
        Arc::new(ReactorConn {
            stream,
            owner,
            assembler: Mutex::new(FrameAssembler::new()),
            out: Mutex::new(OutBuf { queue: VecDeque::new(), head_off: 0 }),
            closed: AtomicBool::new(false),
            handler,
        })
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Marks the connection dead, failing client callers immediately;
    /// the owning sweep removes it (and closes the socket) next pass.
    fn fail(&self, detail: &str) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Handler::Client { shared, .. } = &self.handler {
            shared.poison(detail);
        }
    }

    /// Actively closes the socket as the sweep drops the connection, so
    /// the peer observes EOF now rather than at the last `Arc` drop.
    fn finalize(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// True when the dispatch backlog says "stop reading for now".
    fn saturated(&self) -> bool {
        match &self.handler {
            Handler::Server(h) => h.depth.saturated(BACKPRESSURE_HIGH_WATER),
            Handler::Client { .. } => false,
        }
    }

    /// Serializes one frame onto the wire, writing directly when the
    /// outbound queue is empty and queueing whatever the socket refused.
    /// Never blocks. Frame integrity and order are guaranteed by the
    /// outbound lock held across the attempt.
    pub(crate) fn send_frame(
        &self,
        corr_id: u64,
        flags: u8,
        trace: Option<TraceExt>,
        payload: &[u8],
    ) -> std::io::Result<()> {
        if self.is_closed() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "reactor connection is closed",
            ));
        }
        let (head, head_len) = frame::traced_head(corr_id, flags, trace, payload.len());
        let mut queued = false;
        {
            let mut out = self.out.lock();
            if out.queue.is_empty() {
                // Fast path: try the socket right now.
                let mut done = 0usize;
                let total = head_len + payload.len();
                loop {
                    let slices = [
                        std::io::IoSlice::new(&head[done.min(head_len)..head_len]),
                        std::io::IoSlice::new(&payload[done.saturating_sub(head_len)..]),
                    ];
                    match (&self.stream).write_vectored(&slices) {
                        Ok(0) => {
                            drop(out);
                            self.fail("socket refused all bytes");
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WriteZero,
                                "failed to write frame",
                            ));
                        }
                        Ok(n) => {
                            done += n;
                            if done == total {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // Queue the unwritten tail; the reactor
                            // finishes the job on writability.
                            let mut rest =
                                Vec::with_capacity(total - done);
                            if done < head_len {
                                rest.extend_from_slice(&head[done..head_len]);
                                rest.extend_from_slice(payload);
                            } else {
                                rest.extend_from_slice(&payload[done - head_len..]);
                            }
                            out.queue.push_back(rest);
                            queued = true;
                            break;
                        }
                        Err(e) => {
                            drop(out);
                            self.fail(&format!("tcp write failed: {e}"));
                            return Err(e);
                        }
                    }
                }
            } else {
                // Slow path: frames already queued ahead of us — append
                // in order and let the reactor drain.
                let mut whole = Vec::with_capacity(head_len + payload.len());
                whole.extend_from_slice(&head[..head_len]);
                whole.extend_from_slice(payload);
                out.queue.push_back(whole);
                queued = true;
            }
        }
        if queued {
            global().wake(self.owner);
        }
        Ok(())
    }

    /// Drains queued outbound bytes until the socket pushes back.
    fn flush_out(&self) -> Io {
        let mut out = self.out.lock();
        let mut progress = false;
        while let Some(front) = out.queue.front() {
            let front_len = front.len();
            match (&self.stream).write(&front[out.head_off..]) {
                Ok(0) => return Io::Closed("socket refused all bytes".into()),
                Ok(n) => {
                    progress = true;
                    out.head_off += n;
                    if out.head_off == front_len {
                        out.queue.pop_front();
                        out.head_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Io::Closed(format!("tcp write failed: {e}")),
            }
        }
        if progress {
            Io::Progress
        } else {
            Io::Idle
        }
    }

    /// Reads whatever the socket has ready (bounded by [`READ_BUDGET`])
    /// and dispatches every frame the bytes complete.
    fn read_cycle(self: &Arc<ReactorConn>, scratch: &mut [u8]) -> Io {
        let mut assembler = self.assembler.lock();
        let mut progress = false;
        for _ in 0..READ_BUDGET {
            match (&self.stream).read(scratch) {
                Ok(0) => {
                    let detail = if assembler.mid_frame() {
                        "connection closed mid-frame"
                    } else {
                        "peer closed connection"
                    };
                    return Io::Closed(detail.into());
                }
                Ok(n) => {
                    progress = true;
                    let fed = assembler
                        .feed(&scratch[..n], &mut |header, payload| {
                            self.on_frame(header, payload);
                        });
                    if let Err(e) = fed {
                        return Io::Closed(format!("bad frame: {e}"));
                    }
                    if n < scratch.len() {
                        break; // drained the socket's ready bytes
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Io::Closed(format!("tcp read failed: {e}")),
            }
        }
        if progress {
            Io::Progress
        } else {
            Io::Idle
        }
    }

    /// One complete frame arrived: route it per the connection's role.
    fn on_frame(self: &Arc<ReactorConn>, header: FrameHeader, payload: &[u8]) {
        if parc_obs::is_enabled() {
            parc_obs::counter(parc_obs::kinds::REACTOR_FRAMES).incr();
        }
        match &self.handler {
            Handler::Client { shared, feedback } => {
                // Peel the server's backlog report (if any) off the reply
                // before the caller sees the payload.
                let body = match frame::split_depth_ext(&header, payload) {
                    Ok((Some(ext), rest)) => {
                        feedback.record_depth(ext.pending as usize, ext.busiest as usize);
                        rest
                    }
                    Ok((None, rest)) => rest,
                    Err(_) => {
                        self.fail("malformed depth extension");
                        return;
                    }
                };
                // An id missing from the table is a reply that raced a
                // caller's timeout — dropped, and the stream stays healthy.
                if let Some(slot) = shared.pending.lock().remove(&header.corr_id) {
                    // Copy out of the assembler's buffer: the slot's
                    // owner outlives this sweep. Pool-recycled, and
                    // checked back in by the caller after decode.
                    let mut buf =
                        bufpool::global().checkout_with_capacity(body.len());
                    buf.extend_from_slice(body);
                    slot.complete(Ok((buf, 0)));
                }
            }
            Handler::Server(h) => {
                let conn = Arc::clone(self);
                let corr_id = header.corr_id;
                serve_frame(&h.scheduler, &h.objects, &header, payload, move |reply| {
                    send_reply(&conn, corr_id, reply);
                });
            }
        }
    }
}

/// Encodes `reply` and sends it as one frame on `conn` (nonblocking;
/// leftovers drain via the reactor). A failed send tears the connection
/// down — `send_frame` already poisons on error.
fn send_reply(conn: &Arc<ReactorConn>, corr_id: u64, reply: &ReturnMessage) {
    let formatter = BinaryFormatter::new();
    let _span = parc_obs::Span::enter(parc_obs::kinds::REPLY);
    let Handler::Server(h) = &conn.handler else {
        return; // only server connections ever reply
    };
    // The live backlog is stamped onto every reply (sampled at write
    // time, the freshest signal the client can get). The ext bytes ride
    // at the front of the frame body with FLAG_DEPTH set; `send_frame`
    // counts them in the length like any payload.
    let mut buf = bufpool::global().checkout();
    buf.extend_from_slice(&frame::DepthExt::capture(&h.depth).to_bytes());
    if reply.encode_into(&formatter, &mut buf).is_ok() {
        // Replies are never traced: the caller's own span covers the
        // round trip.
        let _ = conn.send_frame(corr_id, FLAG_DEPTH, None, &buf);
    }
    bufpool::global().checkin(buf);
}

// ---------------------------------------------------------------------------
// The reactor pool
// ---------------------------------------------------------------------------

/// A listening socket swept for acceptable connections; every accepted
/// connection shares the listener's [`ServerHandler`].
struct ListenerEntry {
    listener: TcpListener,
    handler: Arc<ServerHandler>,
}

enum Registered {
    Listener(ListenerEntry),
    Conn(Arc<ReactorConn>),
}

struct ThreadShared {
    inbox: Mutex<Vec<Registered>>,
    wake: Mutex<bool>,
    cv: Condvar,
}

struct ReactorShared {
    threads: Vec<ThreadShared>,
    next: AtomicUsize,
    conns: AtomicUsize,
}

/// The process-wide reactor pool. Threads are spawned once, on first
/// use, and live for the process — which is the point: the thread count
/// is a constant, not a function of connection count.
pub struct Reactor {
    shared: Arc<ReactorShared>,
}

static GLOBAL: OnceLock<Reactor> = OnceLock::new();

/// The process-global reactor ([`reactor_threads_from_env`] threads).
pub fn global() -> &'static Reactor {
    GLOBAL.get_or_init(|| Reactor::start(reactor_threads_from_env()))
}

impl Reactor {
    fn start(threads: usize) -> Reactor {
        let threads = threads.max(1);
        let shared = Arc::new(ReactorShared {
            threads: (0..threads)
                .map(|_| ThreadShared {
                    inbox: Mutex::new(Vec::new()),
                    wake: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            next: AtomicUsize::new(0),
            conns: AtomicUsize::new(0),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("parc-reactor-{i}"))
                .spawn(move || sweep_loop(&shared, i))
                .expect("spawning reactor thread");
        }
        Reactor { shared }
    }

    /// Number of reactor threads in the pool.
    pub fn threads(&self) -> usize {
        self.shared.threads.len()
    }

    /// Live registered connections (all threads).
    pub fn connections(&self) -> usize {
        self.shared.conns.load(Ordering::SeqCst)
    }

    /// Picks the owning thread for a new registration (round-robin).
    fn assign(&self) -> usize {
        self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.threads.len()
    }

    fn submit(&self, owner: usize, item: Registered) {
        if matches!(item, Registered::Conn(_)) {
            self.shared.conns.fetch_add(1, Ordering::SeqCst);
            if parc_obs::is_enabled() {
                parc_obs::gauge(parc_obs::kinds::REACTOR_CONNS).adjust(1);
            }
        }
        self.shared.threads[owner].inbox.lock().push(item);
        self.wake(owner);
    }

    fn wake(&self, owner: usize) {
        let t = &self.shared.threads[owner];
        let mut flag = t.wake.lock();
        *flag = true;
        t.cv.notify_one();
    }

    /// Wakes every thread (server teardown: stop flags must be observed).
    pub(crate) fn wake_all(&self) {
        for i in 0..self.shared.threads.len() {
            self.wake(i);
        }
    }

    /// Registers a connected, nonblocking stream and returns its handle.
    fn register_conn(&self, stream: TcpStream, handler: Handler) -> Arc<ReactorConn> {
        let owner = self.assign();
        let conn = ReactorConn::new(stream, owner, handler);
        self.submit(owner, Registered::Conn(Arc::clone(&conn)));
        conn
    }

    fn register_listener(&self, entry: ListenerEntry) {
        let owner = self.assign();
        self.submit(owner, Registered::Listener(entry));
    }

    fn drop_conn(&self, conn: &ReactorConn) {
        conn.finalize();
        self.shared.conns.fetch_sub(1, Ordering::SeqCst);
        if parc_obs::is_enabled() {
            parc_obs::gauge(parc_obs::kinds::REACTOR_CONNS).adjust(-1);
        }
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("threads", &self.threads())
            .field("connections", &self.connections())
            .finish()
    }
}

/// One reactor thread: absorb registrations, sweep, park when idle.
fn sweep_loop(shared: &Arc<ReactorShared>, me: usize) {
    let reactor = global();
    let mut items: Vec<Registered> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH];
    let mut idle_streak: u32 = 0;
    loop {
        {
            let mut inbox = shared.threads[me].inbox.lock();
            if !inbox.is_empty() {
                items.append(&mut inbox);
            }
        }
        let mut progress = false;
        items.retain(|item| match item {
            Registered::Listener(entry) => {
                if entry.handler.stop.load(Ordering::SeqCst) {
                    return false; // dropping the entry closes the listener
                }
                loop {
                    match entry.listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            global().register_conn(
                                stream,
                                Handler::Server(Arc::clone(&entry.handler)),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
                true
            }
            Registered::Conn(conn) => {
                if conn.is_closed() {
                    reactor.drop_conn(conn);
                    return false;
                }
                if let Handler::Server(h) = &conn.handler {
                    if h.stop.load(Ordering::SeqCst) {
                        conn.fail("server stopped");
                        reactor.drop_conn(conn);
                        return false;
                    }
                }
                match conn.flush_out() {
                    Io::Progress => progress = true,
                    Io::Idle => {}
                    Io::Closed(detail) => {
                        conn.fail(&detail);
                        reactor.drop_conn(conn);
                        return false;
                    }
                }
                if !conn.saturated() {
                    match conn.read_cycle(&mut scratch) {
                        Io::Progress => progress = true,
                        Io::Idle => {}
                        Io::Closed(detail) => {
                            conn.fail(&detail);
                            reactor.drop_conn(conn);
                            return false;
                        }
                    }
                }
                true
            }
        });
        if progress {
            idle_streak = 0;
            continue;
        }
        idle_streak = idle_streak.saturating_add(1);
        if idle_streak <= SPIN_PASSES {
            std::thread::yield_now();
            continue;
        }
        // Adaptive backoff: park longer the longer nothing happens,
        // capped so a frame arriving into total silence still waits at
        // most MAX_PARK.
        let shift = (idle_streak - SPIN_PASSES).min(16);
        let park = MIN_PARK
            .saturating_mul(1u32 << shift.min(6))
            .min(MAX_PARK);
        let t = &shared.threads[me];
        let mut flag = t.wake.lock();
        if *flag {
            *flag = false;
            idle_streak = 0;
            continue;
        }
        if parc_obs::is_enabled() {
            parc_obs::counter(parc_obs::kinds::REACTOR_PARKS).incr();
        }
        t.cv.wait_for(&mut flag, park);
        *flag = false;
    }
}

// ---------------------------------------------------------------------------
// Server channel
// ---------------------------------------------------------------------------

/// Server half of the reactor transport: accepts and serves any number
/// of connections with **no** per-connection (or even per-server)
/// threads — the listener itself is swept by the reactor pool.
///
/// Dispatch semantics are identical to [`crate::tcp::TcpServerChannel`]:
/// per-object FIFO mailboxes, through the same
/// [`crate::dispatcher::serve_frame`].
pub struct ReactorServerChannel {
    addr: SocketAddr,
    objects: ObjectTable,
    stop: Arc<AtomicBool>,
    scheduler: Arc<MailboxScheduler>,
}

impl ReactorServerChannel {
    /// Binds and registers the listener with the global reactor, with
    /// the configured mailbox worker count
    /// ([`crate::mailbox::workers_from_env`]).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str) -> Result<ReactorServerChannel, RemotingError> {
        ReactorServerChannel::bind_with_workers(addr, crate::mailbox::workers_from_env())
    }

    /// Binds with an explicit mailbox worker count.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind_with_workers(
        addr: &str,
        workers: usize,
    ) -> Result<ReactorServerChannel, RemotingError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let objects = ObjectTable::new();
        let stop = Arc::new(AtomicBool::new(false));
        let scheduler = Arc::new(MailboxScheduler::with_workers(workers));
        global().register_listener(ListenerEntry {
            listener,
            handler: Arc::new(ServerHandler {
                objects: objects.clone(),
                scheduler: Arc::clone(&scheduler),
                depth: scheduler.depth_handle(),
                stop: Arc::clone(&stop),
            }),
        });
        Ok(ReactorServerChannel { addr: local, objects, stop, scheduler })
    }

    /// The bound address (host:port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The published-object table served on this socket.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// A `tcp://` URI for an object on this server.
    pub fn uri_for(&self, object: &str) -> String {
        format!("tcp://{}/{}", self.addr, object)
    }

    /// Live backlog view of the mailbox scheduler (always `Some`).
    pub fn dispatch_depth(&self) -> Option<DispatchDepth> {
        Some(self.scheduler.depth_handle())
    }

    /// Scheduler counter snapshot (always `Some`).
    pub fn dispatch_stats(&self) -> Option<crate::mailbox::DispatchStats> {
        Some(self.scheduler.stats())
    }
}

impl Drop for ReactorServerChannel {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Every reactor thread must observe the flag: the listener and
        // the accepted connections may be owned by different sweeps.
        global().wake_all();
    }
}

impl std::fmt::Debug for ReactorServerChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorServerChannel").field("addr", &self.addr).finish()
    }
}

// ---------------------------------------------------------------------------
// Client channel
// ---------------------------------------------------------------------------

/// One live client connection: the socket handle plus the correlation
/// state callers park on.
struct ClientCore {
    conn: Arc<ReactorConn>,
    shared: Arc<MuxShared>,
    next_corr: AtomicU64,
    /// Channel-level feedback sink (survives revives): reply RTT plus
    /// the server's piggybacked backlog reports.
    feedback: Arc<LinkFeedback>,
}

impl ClientCore {
    fn connect(addr: &str, feedback: Arc<LinkFeedback>) -> Result<ClientCore, RemotingError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let shared = MuxShared::new();
        let conn = global().register_conn(
            stream,
            Handler::Client { shared: Arc::clone(&shared), feedback: Arc::clone(&feedback) },
        );
        Ok(ClientCore { conn, shared, next_corr: AtomicU64::new(1), feedback })
    }

    fn is_dead(&self) -> bool {
        self.shared.dead.lock().is_some()
    }

    fn check_alive(&self) -> Result<(), RemotingError> {
        if let Some(detail) = self.shared.dead.lock().clone() {
            return Err(RemotingError::Transport { detail });
        }
        Ok(())
    }

    /// Serializes and sends one frame (never blocking on the socket),
    /// returning the encoded payload size.
    fn send(
        &self,
        formatter: &BinaryFormatter,
        msg: &CallMessage,
        corr_id: u64,
        flags: u8,
    ) -> Result<usize, RemotingError> {
        let pool = bufpool::global();
        let mut buf = pool.checkout();
        let encoded = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::SERIALIZE);
            msg.encode_into(formatter, &mut buf)
        };
        if let Err(e) = encoded {
            pool.checkin(buf);
            return Err(e.into());
        }
        let sent = buf.len();
        let written = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_SEND);
            // Captured inside the send span so the remote dispatch hangs
            // off `channel.send` — the same shape the mux client emits.
            let trace = TraceExt::capture();
            self.conn.send_frame(corr_id, flags, trace, &buf)
        };
        pool.checkin(buf);
        written.map_err(RemotingError::from).map(|()| sent)
    }

    fn call(
        &self,
        formatter: &BinaryFormatter,
        msg: &CallMessage,
        timeout: Duration,
    ) -> Result<ReturnMessage, RemotingError> {
        let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_PIPELINE);
        self.check_alive()?;
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::new();
        self.shared.pending.lock().insert(corr_id, Arc::clone(&slot));
        if parc_obs::is_enabled() {
            parc_obs::gauge(parc_obs::kinds::INFLIGHT).adjust(1);
        }
        let outcome = self.call_inner(formatter, msg, corr_id, &slot, timeout);
        self.shared.pending.lock().remove(&corr_id);
        if parc_obs::is_enabled() {
            parc_obs::gauge(parc_obs::kinds::INFLIGHT).adjust(-1);
        }
        outcome
    }

    fn call_inner(
        &self,
        formatter: &BinaryFormatter,
        msg: &CallMessage,
        corr_id: u64,
        slot: &Arc<Slot>,
        timeout: Duration,
    ) -> Result<ReturnMessage, RemotingError> {
        let started = Instant::now();
        self.send(formatter, msg, corr_id, 0)?;
        let (payload, body) = {
            let _span = parc_obs::Span::enter(parc_obs::kinds::CHANNEL_RECV);
            slot.wait(timeout)?
        };
        self.feedback.record_rtt(started.elapsed());
        let _span = parc_obs::Span::enter(parc_obs::kinds::DESERIALIZE);
        let reply = ReturnMessage::decode(formatter, &payload[body..]);
        bufpool::global().checkin(payload);
        Ok(reply?)
    }

    fn post(&self, formatter: &BinaryFormatter, msg: &CallMessage) -> Result<usize, RemotingError> {
        self.check_alive()?;
        let corr_id = self.next_corr.fetch_add(1, Ordering::Relaxed);
        self.send(formatter, msg, corr_id, FLAG_ONEWAY)
    }
}

impl Drop for ClientCore {
    fn drop(&mut self) {
        self.conn.fail("channel dropped");
        global().wake(self.conn.owner);
    }
}

/// Client half of the reactor transport: one multiplexed nonblocking
/// connection, **zero** dedicated threads. Any number of caller threads
/// pipeline calls; replies are demuxed by correlation ID exactly like
/// the mux client's, but by a shared reactor thread instead of a
/// per-socket reader.
///
/// A connection whose socket dies is poisoned (pending and future calls
/// fail fast) and revived in place by the next caller, mirroring
/// [`crate::tcp::TcpClientChannel`]'s recovery contract.
pub struct ReactorClientChannel {
    addr: String,
    timeout: Duration,
    formatter: BinaryFormatter,
    core: Mutex<Arc<ClientCore>>,
    feedback: Arc<LinkFeedback>,
}

impl ReactorClientChannel {
    /// Connects with the per-call deadline from
    /// [`crate::retry::call_timeout`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<ReactorClientChannel, RemotingError> {
        ReactorClientChannel::connect_with_timeout(addr, call_timeout())
    }

    /// Connects with an explicit per-call deadline (tests pin short
    /// deadlines without touching the process environment).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_with_timeout(
        addr: &str,
        timeout: Duration,
    ) -> Result<ReactorClientChannel, RemotingError> {
        let feedback = Arc::new(LinkFeedback::new());
        let core = Arc::new(ClientCore::connect(addr, Arc::clone(&feedback))?);
        Ok(ReactorClientChannel {
            addr: addr.to_string(),
            timeout,
            formatter: BinaryFormatter::new(),
            core: Mutex::new(core),
            feedback,
        })
    }

    /// The per-call reply deadline this channel applies.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Severs the live socket (test hook): the reactor observes the
    /// shutdown and poisons the connection exactly like a real network
    /// failure, so reconnect paths are deterministically testable.
    pub fn break_connection(&self) {
        let core = self.core.lock();
        let _ = core.conn.stream.shutdown(std::net::Shutdown::Both);
        global().wake(core.conn.owner);
    }

    /// The current core, revived first when a previous caller left it
    /// poisoned (nothing has been sent yet, so the retry is safe).
    fn live_core(&self) -> Result<Arc<ClientCore>, RemotingError> {
        let core = Arc::clone(&*self.core.lock());
        if core.is_dead() {
            return self.revive(&core);
        }
        Ok(core)
    }

    /// Replaces a poisoned core (unless a racing caller already did).
    fn revive(&self, stale: &Arc<ClientCore>) -> Result<Arc<ClientCore>, RemotingError> {
        let started = Instant::now();
        let mut guard = self.core.lock();
        if !Arc::ptr_eq(&*guard, stale) && !guard.is_dead() {
            return Ok(Arc::clone(&*guard));
        }
        let fresh = Arc::new(ClientCore::connect(&self.addr, Arc::clone(&self.feedback))?);
        *guard = Arc::clone(&fresh);
        drop(guard);
        parc_obs::counter(parc_obs::kinds::CONN_RECONNECTED).incr();
        parc_obs::histogram(parc_obs::kinds::RECOVERY_LATENCY)
            .record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        parc_obs::event(parc_obs::kinds::CONN_RECONNECTED, || {
            format!("addr={} transport=reactor elapsed_us={}", self.addr, started.elapsed().as_micros())
        });
        Ok(fresh)
    }
}

impl ClientChannel for ReactorClientChannel {
    fn call(&self, msg: &CallMessage) -> Result<ReturnMessage, RemotingError> {
        let core = self.live_core()?;
        let outcome = core.call(&self.formatter, msg, self.timeout);
        // In-flight failures are NOT resent (at-most-once for plain
        // calls) but the channel recovers for every later caller.
        if outcome.is_err() && core.is_dead() {
            let _ = self.revive(&core);
        }
        outcome
    }

    fn post(&self, msg: &CallMessage) -> Result<usize, RemotingError> {
        let core = self.live_core()?;
        match core.post(&self.formatter, msg) {
            // Fire-and-forget: resending after a reconnect is safe.
            Err(e) if core.is_dead() => match self.revive(&core) {
                Ok(fresh) => fresh.post(&self.formatter, msg),
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

impl std::fmt::Debug for ReactorClientChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorClientChannel")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RemoteObject;
    use crate::dispatcher::FnInvokable;
    use parc_serial::Value;

    fn start_echo_server() -> ReactorServerChannel {
        let server = ReactorServerChannel::bind_with_workers("127.0.0.1:0", 4).unwrap();
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

    fn proxy_to(server: &ReactorServerChannel, object: &str) -> RemoteObject {
        let chan = ReactorClientChannel::connect(&server.local_addr().to_string()).unwrap();
        RemoteObject::new(Arc::new(chan) as Arc<dyn ClientChannel>, object)
    }

    #[test]
    fn roundtrip_over_reactor_sockets() {
        let server = start_echo_server();
        let proxy = proxy_to(&server, "Echo");
        for i in 0..20 {
            assert_eq!(proxy.call("echo", vec![Value::I32(i)]).unwrap(), Value::I32(i));
        }
    }

    #[test]
    fn large_payload_crosses_many_partial_reads() {
        // 800 KB payload: far beyond one scratch read AND beyond the
        // socket buffer, so both incremental reassembly and the
        // queued-write drain path are exercised.
        let server = start_echo_server();
        let proxy = proxy_to(&server, "Echo");
        let big: Vec<i32> = (0..200_000).collect();
        assert_eq!(
            proxy.call("len", vec![Value::I32Array(big)]).unwrap(),
            Value::I32(200_000)
        );
    }

    #[test]
    fn concurrent_callers_pipeline_one_reactor_connection() {
        let server = start_echo_server();
        let chan = Arc::new(
            ReactorClientChannel::connect(&server.local_addr().to_string()).unwrap(),
        );
        std::thread::scope(|scope| {
            for t in 0..4i32 {
                let chan = Arc::clone(&chan);
                scope.spawn(move || {
                    let proxy =
                        RemoteObject::new(chan as Arc<dyn ClientChannel>, "Echo");
                    for i in 0..25 {
                        let v = proxy.call("echo", vec![Value::I32(t * 100 + i)]).unwrap();
                        assert_eq!(v, Value::I32(t * 100 + i));
                    }
                });
            }
        });
    }

    #[test]
    fn posts_are_fire_and_forget_on_reactor() {
        let server = start_echo_server();
        let proxy = proxy_to(&server, "Echo");
        proxy.post("missing", vec![]).unwrap();
        assert_eq!(proxy.call("echo", vec![Value::I32(1)]).unwrap(), Value::I32(1));
    }

    #[test]
    fn dead_server_poisons_pending_and_future_calls() {
        let server = start_echo_server();
        let addr = server.local_addr().to_string();
        let chan =
            ReactorClientChannel::connect_with_timeout(&addr, Duration::from_secs(10)).unwrap();
        let proxy = RemoteObject::new(Arc::new(chan) as Arc<dyn ClientChannel>, "Echo");
        assert!(proxy.call("echo", vec![Value::I32(1)]).is_ok());
        drop(server);
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

    #[test]
    fn severed_connection_revives_against_live_server() {
        let server = start_echo_server();
        let chan = Arc::new(
            ReactorClientChannel::connect(&server.local_addr().to_string()).unwrap(),
        );
        let proxy = RemoteObject::new(
            Arc::clone(&chan) as Arc<dyn ClientChannel>,
            "Echo",
        );
        assert!(proxy.call("echo", vec![Value::I32(1)]).is_ok());
        chan.break_connection();
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
    }

    /// Reactor replies carry the server's depth report and
    /// the channel surfaces it (plus RTT) through `feedback()`.
    #[test]
    fn reactor_replies_carry_depth_feedback() {
        let server = start_echo_server();
        let chan = Arc::new(
            ReactorClientChannel::connect(&server.local_addr().to_string()).unwrap(),
        );
        let feedback = chan.feedback().expect("reactor channel exposes feedback");
        let proxy = RemoteObject::new(Arc::clone(&chan) as Arc<dyn ClientChannel>, "Echo");
        assert_eq!(proxy.call("echo", vec![Value::I32(5)]).unwrap(), Value::I32(5));
        assert!(feedback.rtt().is_some(), "call recorded no RTT sample");
        assert!(feedback.depth().is_some(), "reactor reply carried no depth report");
    }

    #[test]
    fn reactor_pool_is_fixed_size() {
        let r = global();
        assert!(r.threads() >= 1);
        assert_eq!(r.threads(), global().threads(), "global reactor is a singleton");
    }
}
