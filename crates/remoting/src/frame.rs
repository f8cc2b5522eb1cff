//! The v2 wire frame: length, correlation ID and flags ahead of the
//! formatter payload.
//!
//! The original frame was a bare 4-byte length, which forced the client
//! to hold its stream for the entire request/response round trip — replies
//! were correlated purely by arrival order. The v2 header carries a
//! transport-level correlation ID so whichever thread reads can demux
//! replies that arrive in any order, plus a flags byte whose
//! [`FLAG_ONEWAY`] bit tells the server (before deserializing anything)
//! that no reply must be produced for this frame.
//!
//! ```text
//! offset 0..4    payload length, u32 big-endian
//! offset 4..12   correlation id, u64 big-endian
//! offset 12      flags (bit 0: one-way, bit 1: trace context present)
//! offset 13..    payload (formatter bytes)
//! ```
//!
//! When [`FLAG_TRACE`] is set, the first [`TRACE_EXT_LEN`] payload bytes
//! are a trace-context extension (trace id, parent span id and a
//! sampling word, each u64 big-endian) and the formatter bytes start
//! after it. The extension is *counted inside the length field*, so
//! framing-level readers ([`read_frame_into`]) need no changes at all —
//! dispatchers peel it off with [`split_trace_ext`].
//! A receiver that ignores the flag still sees a well-formed frame; it
//! just fails to decode the payload, exactly as for any version skew.
//!
//! When [`FLAG_DEPTH`] is set, the first [`DEPTH_EXT_LEN`] payload bytes
//! are a dispatch-depth extension (scheduler-wide pending jobs and the
//! deepest single mailbox, each u32 big-endian): the server's live
//! backlog piggybacked on a **reply** so clients can drive batching
//! decisions off real backpressure instead of guessing. Same discipline
//! as the trace extension — counted inside the length, peeled with
//! [`split_depth_ext`]. Requests carry trace context, replies carry
//! depth; a frame never carries both in practice, but if it did the
//! canonical order is trace extension first, depth extension second.
//!
//! Writes are vectored: header and payload go to the socket in one
//! `write_all`-equivalent call with no intermediate concatenation. Reads
//! land in a caller-supplied buffer so one allocation serves a whole
//! connection's lifetime of frames.

use std::io::{IoSlice, Read, Write};

/// Size of the fixed v2 header.
pub const HEADER_LEN: usize = 13;

/// Flag bit: the sender expects no reply to this frame.
pub const FLAG_ONEWAY: u8 = 0b0000_0001;

/// Flag bit: the payload starts with a [`TRACE_EXT_LEN`]-byte
/// trace-context extension.
pub const FLAG_TRACE: u8 = 0b0000_0010;

/// Size of the trace-context extension (three u64 words).
pub const TRACE_EXT_LEN: usize = 24;

/// Flag bit: the payload starts with a [`DEPTH_EXT_LEN`]-byte
/// dispatch-depth extension (set on replies only).
pub const FLAG_DEPTH: u8 = 0b0000_0100;

/// Size of the dispatch-depth extension (two u32 words).
pub const DEPTH_EXT_LEN: usize = 8;

/// Upper bound on a single frame's payload; larger lengths indicate
/// corruption (or an unframed peer) and poison the connection.
pub const MAX_FRAME: usize = 64 << 20;

/// Decoded v2 frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Transport-level correlation id (echoed verbatim in the reply).
    pub corr_id: u64,
    /// Flag bits ([`FLAG_ONEWAY`]).
    pub flags: u8,
    /// Payload length in bytes.
    pub len: usize,
}

/// The trace-context extension a traced frame carries ahead of its
/// formatter bytes: which causal chain the enclosed call belongs to and
/// which caller-side span its server-side work is a child of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceExt {
    /// Causal chain id, shared across every hop.
    pub trace_id: u64,
    /// The sender's innermost span at frame-write time.
    pub parent_span_id: u64,
    /// Sampling word (bit 0: sampled).
    pub sampling: u64,
}

impl TraceExt {
    /// The sender's current trace context, if tracing is live and wire
    /// propagation is on — one relaxed atomic load when recording is
    /// disabled.
    #[inline]
    pub fn capture() -> Option<TraceExt> {
        parc_obs::trace::current_for_wire().map(TraceExt::from_context)
    }

    /// Converts an obs-layer context into its wire form.
    pub fn from_context(ctx: parc_obs::TraceContext) -> TraceExt {
        TraceExt {
            trace_id: ctx.trace_id,
            parent_span_id: ctx.span_id,
            sampling: ctx.sampling,
        }
    }

    /// The obs-layer context a *receiver* installs: the wire parent span
    /// becomes the context's span id (the thing new spans parent under).
    pub fn to_context(self) -> parc_obs::TraceContext {
        parc_obs::TraceContext {
            trace_id: self.trace_id,
            span_id: self.parent_span_id,
            sampling: self.sampling,
        }
    }

    /// Encodes the extension into its 24 wire bytes.
    pub fn to_bytes(&self) -> [u8; TRACE_EXT_LEN] {
        let mut out = [0u8; TRACE_EXT_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_be_bytes());
        out[8..16].copy_from_slice(&self.parent_span_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.sampling.to_be_bytes());
        out
    }

    /// Decodes an extension from its 24 wire bytes.
    pub fn from_bytes(raw: &[u8; TRACE_EXT_LEN]) -> TraceExt {
        let word = |i: usize| {
            u64::from_be_bytes(raw[i * 8..(i + 1) * 8].try_into().expect("8-byte word"))
        };
        TraceExt { trace_id: word(0), parent_span_id: word(1), sampling: word(2) }
    }
}

/// Peels a [`TraceExt`] off the front of a received payload when the
/// header's [`FLAG_TRACE`] bit is set, returning the extension (if any)
/// and the formatter bytes proper.
///
/// # Errors
///
/// `InvalidData` when the flag is set but the payload is shorter than
/// the extension — a corrupt or lying frame.
pub fn split_trace_ext<'a>(
    header: &FrameHeader,
    payload: &'a [u8],
) -> std::io::Result<(Option<TraceExt>, &'a [u8])> {
    if header.flags & FLAG_TRACE == 0 {
        return Ok((None, payload));
    }
    if payload.len() < TRACE_EXT_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "traced frame shorter than its trace extension",
        ));
    }
    let ext = TraceExt::from_bytes(
        payload[..TRACE_EXT_LEN].try_into().expect("checked length"),
    );
    Ok((Some(ext), &payload[TRACE_EXT_LEN..]))
}

/// The dispatch-depth extension a reply frame carries ahead of its
/// formatter bytes: the serving scheduler's backlog at reply-write time,
/// the feedback half of the closed-loop aggregation controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthExt {
    /// Jobs enqueued and not yet finished, scheduler-wide.
    pub pending: u32,
    /// Queued jobs in the deepest single mailbox (the hotspot).
    pub busiest: u32,
}

impl DepthExt {
    /// Captures the current backlog of a mailbox scheduler through its
    /// depth handle.
    pub fn capture(depth: &crate::mailbox::DispatchDepth) -> DepthExt {
        DepthExt {
            pending: depth.pending().min(u32::MAX as usize) as u32,
            busiest: depth.max_object_depth().min(u32::MAX as usize) as u32,
        }
    }

    /// Encodes the extension into its 8 wire bytes.
    pub fn to_bytes(&self) -> [u8; DEPTH_EXT_LEN] {
        let mut out = [0u8; DEPTH_EXT_LEN];
        out[0..4].copy_from_slice(&self.pending.to_be_bytes());
        out[4..8].copy_from_slice(&self.busiest.to_be_bytes());
        out
    }

    /// Decodes an extension from its 8 wire bytes.
    pub fn from_bytes(raw: &[u8; DEPTH_EXT_LEN]) -> DepthExt {
        DepthExt {
            pending: u32::from_be_bytes(raw[0..4].try_into().expect("4-byte word")),
            busiest: u32::from_be_bytes(raw[4..8].try_into().expect("4-byte word")),
        }
    }
}

/// Peels a [`DepthExt`] off the front of a received payload when the
/// header's [`FLAG_DEPTH`] bit is set, returning the extension (if any)
/// and the formatter bytes proper. When a frame also carries a trace
/// extension, peel that first ([`split_trace_ext`]) and hand the
/// remainder here.
///
/// # Errors
///
/// `InvalidData` when the flag is set but the payload is shorter than
/// the extension — a corrupt or lying frame.
pub fn split_depth_ext<'a>(
    header: &FrameHeader,
    payload: &'a [u8],
) -> std::io::Result<(Option<DepthExt>, &'a [u8])> {
    if header.flags & FLAG_DEPTH == 0 {
        return Ok((None, payload));
    }
    if payload.len() < DEPTH_EXT_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame shorter than its depth extension",
        ));
    }
    let ext = DepthExt::from_bytes(
        payload[..DEPTH_EXT_LEN].try_into().expect("checked length"),
    );
    Ok((Some(ext), &payload[DEPTH_EXT_LEN..]))
}

impl FrameHeader {
    /// True when the one-way bit is set.
    pub fn oneway(&self) -> bool {
        self.flags & FLAG_ONEWAY != 0
    }

    /// True when the trace-context bit is set.
    pub fn traced(&self) -> bool {
        self.flags & FLAG_TRACE != 0
    }

    /// True when the dispatch-depth bit is set.
    pub fn has_depth(&self) -> bool {
        self.flags & FLAG_DEPTH != 0
    }

    /// Encodes the header into its 13 wire bytes.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&(self.len as u32).to_be_bytes());
        out[4..12].copy_from_slice(&self.corr_id.to_be_bytes());
        out[12] = self.flags;
        out
    }

    /// Decodes a header from its 13 wire bytes.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the declared length exceeds [`MAX_FRAME`].
    pub fn from_bytes(raw: &[u8; HEADER_LEN]) -> std::io::Result<FrameHeader> {
        let len = u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit"),
            ));
        }
        let corr_id = u64::from_be_bytes([
            raw[4], raw[5], raw[6], raw[7], raw[8], raw[9], raw[10], raw[11],
        ]);
        Ok(FrameHeader { corr_id, flags: raw[12], len })
    }
}

/// Writes one v2 frame: header and payload in a single vectored
/// `write_all`-equivalent (no intermediate concatenation).
///
/// # Errors
///
/// `InvalidInput` for over-long payloads; socket errors otherwise.
pub fn write_frame(
    stream: &mut impl Write,
    corr_id: u64,
    flags: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
    }
    let header = FrameHeader { corr_id, flags, len: payload.len() }.to_bytes();
    write_all_vectored(stream, &header, payload)?;
    stream.flush()
}

/// Maximum head size: fixed header plus the trace extension.
const TRACED_HEAD_MAX: usize = HEADER_LEN + TRACE_EXT_LEN;

/// Builds the wire head (header, plus extension when `trace` is present)
/// for a frame with `payload_len` formatter bytes. Returns the buffer
/// and the number of valid bytes in it — [`HEADER_LEN`] untraced,
/// [`TRACED_HEAD_MAX`] traced.
fn traced_head(
    corr_id: u64,
    flags: u8,
    trace: Option<TraceExt>,
    payload_len: usize,
) -> ([u8; TRACED_HEAD_MAX], usize) {
    let mut out = [0u8; TRACED_HEAD_MAX];
    match trace {
        Some(ext) => {
            let header = FrameHeader {
                corr_id,
                flags: flags | FLAG_TRACE,
                len: TRACE_EXT_LEN + payload_len,
            };
            out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
            out[HEADER_LEN..].copy_from_slice(&ext.to_bytes());
            (out, TRACED_HEAD_MAX)
        }
        None => {
            let header = FrameHeader { corr_id, flags: flags & !FLAG_TRACE, len: payload_len };
            out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
            (out, HEADER_LEN)
        }
    }
}

/// [`write_frame`] with an optional trace-context extension: sets
/// [`FLAG_TRACE`] and prepends the 24 extension bytes (inside the
/// counted length) when `trace` is present. Still one vectored write.
///
/// # Errors
///
/// `InvalidInput` for over-long payloads; socket errors otherwise.
pub fn write_frame_traced(
    stream: &mut impl Write,
    corr_id: u64,
    flags: u8,
    trace: Option<TraceExt>,
    payload: &[u8],
) -> std::io::Result<()> {
    if payload.len().saturating_add(TRACE_EXT_LEN) > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
    }
    let (head, head_len) = traced_head(corr_id, flags, trace, payload.len());
    write_all_vectored(stream, &head[..head_len], payload)?;
    stream.flush()
}

/// Maximum reply-head size: fixed header plus the depth extension.
const DEPTH_HEAD_MAX: usize = HEADER_LEN + DEPTH_EXT_LEN;

/// Builds the wire head (header, plus extension when `depth` is present)
/// for a reply frame with `payload_len` formatter bytes. Returns the
/// buffer and the number of valid bytes in it — [`HEADER_LEN`] plain,
/// [`DEPTH_HEAD_MAX`] with backlog feedback. The reply analogue of
/// [`traced_head`].
fn depth_head(
    corr_id: u64,
    flags: u8,
    depth: Option<DepthExt>,
    payload_len: usize,
) -> ([u8; DEPTH_HEAD_MAX], usize) {
    let mut out = [0u8; DEPTH_HEAD_MAX];
    match depth {
        Some(ext) => {
            let header = FrameHeader {
                corr_id,
                flags: flags | FLAG_DEPTH,
                len: DEPTH_EXT_LEN + payload_len,
            };
            out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
            out[HEADER_LEN..].copy_from_slice(&ext.to_bytes());
            (out, DEPTH_HEAD_MAX)
        }
        None => {
            let header = FrameHeader { corr_id, flags: flags & !FLAG_DEPTH, len: payload_len };
            out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
            (out, HEADER_LEN)
        }
    }
}

/// [`write_frame`] with an optional dispatch-depth extension: sets
/// [`FLAG_DEPTH`] and prepends the 8 extension bytes (inside the counted
/// length) when `depth` is present. Still one vectored write.
///
/// # Errors
///
/// `InvalidInput` for over-long payloads; socket errors otherwise.
pub fn write_frame_depth(
    stream: &mut impl Write,
    corr_id: u64,
    flags: u8,
    depth: Option<DepthExt>,
    payload: &[u8],
) -> std::io::Result<()> {
    if payload.len().saturating_add(DEPTH_EXT_LEN) > MAX_FRAME {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"));
    }
    let (head, head_len) = depth_head(corr_id, flags, depth, payload.len());
    write_all_vectored(stream, &head[..head_len], payload)?;
    stream.flush()
}

/// Drives `write_vectored` to completion over `head` then `tail`,
/// falling back transparently when the writer consumes partial slices.
/// `WouldBlock` waits for room rather than abandon a half-written frame:
/// a mux client's leader polls for replies on a non-blocking socket.
fn write_all_vectored(
    stream: &mut impl Write,
    head: &[u8],
    tail: &[u8],
) -> std::io::Result<()> {
    let mut head_done = 0usize;
    let mut tail_done = 0usize;
    while head_done < head.len() || tail_done < tail.len() {
        let slices = [IoSlice::new(&head[head_done..]), IoSlice::new(&tail[tail_done..])];
        let n = match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::yield_now();
                continue;
            }
            Err(e) => return Err(e),
        };
        let from_head = n.min(head.len() - head_done);
        head_done += from_head;
        tail_done += n - from_head;
    }
    Ok(())
}

/// Outcome of one [`read_frame_into`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame arrived; the payload is in the caller's buffer.
    Frame(FrameHeader),
    /// Clean EOF at a frame boundary (peer closed between frames).
    Eof,
    /// The read timed out *before any header byte arrived* — the
    /// connection is idle, not broken. Timeouts mid-frame are errors.
    Idle,
}

/// Reads one v2 frame into `payload` (cleared and filled in place: the
/// allocation is reused across frames and never zero-filled first).
///
/// # Errors
///
/// Socket errors; `InvalidData` for oversized lengths; `UnexpectedEof` for
/// truncation mid-frame. A timeout with zero bytes consumed is reported as
/// [`FrameRead::Idle`] rather than an error so a server's connection
/// thread can keep a quiet connection open.
pub fn read_frame_into(
    stream: &mut impl Read,
    payload: &mut Vec<u8>,
) -> std::io::Result<FrameRead> {
    let mut header = [0u8; HEADER_LEN];
    let mut have = 0usize;
    while have < HEADER_LEN {
        match stream.read(&mut header[have..]) {
            Ok(0) if have == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(truncated("eof inside frame header")),
            Ok(n) => have += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if have == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(FrameRead::Idle)
            }
            Err(e) => return Err(e),
        }
    }
    let header = FrameHeader::from_bytes(&header)?;
    payload.clear();
    payload.reserve(header.len);
    if stream.take(header.len as u64).read_to_end(payload)? < header.len {
        return Err(truncated("eof inside frame payload"));
    }
    Ok(FrameRead::Frame(header))
}

fn truncated(what: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what)
}

/// Incremental v2 frame reassembly from chunks at arbitrary boundaries.
/// No transport uses it: every reader calls [`read_frame_into`]. It is
/// kept only for the `callpath` benchmark, whose `frame.reassemble_ns`
/// row times it.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    header: [u8; HEADER_LEN],
    have_header: usize,
    /// Parsed header whose payload is still being accumulated.
    pending: Option<FrameHeader>,
    payload: Vec<u8>,
}

impl FrameAssembler {
    /// A fresh assembler at a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Consumes one chunk, invoking `sink` once per frame completed by
    /// it (possibly zero, possibly several).
    ///
    /// # Errors
    ///
    /// `InvalidData` when a completed header declares more than
    /// [`MAX_FRAME`] payload bytes.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        sink: &mut dyn FnMut(FrameHeader, &[u8]),
    ) -> std::io::Result<()> {
        while !chunk.is_empty() {
            match self.pending {
                None => {
                    let want = HEADER_LEN - self.have_header;
                    let take = want.min(chunk.len());
                    self.header[self.have_header..self.have_header + take]
                        .copy_from_slice(&chunk[..take]);
                    self.have_header += take;
                    chunk = &chunk[take..];
                    if self.have_header == HEADER_LEN {
                        let header = FrameHeader::from_bytes(&self.header)?;
                        self.payload.clear();
                        if header.len == 0 {
                            // Zero-payload frames complete with the header.
                            sink(header, &[]);
                            self.have_header = 0;
                        } else {
                            self.payload.reserve(header.len);
                            self.pending = Some(header);
                        }
                    }
                }
                Some(header) => {
                    let want = header.len - self.payload.len();
                    let take = want.min(chunk.len());
                    self.payload.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.payload.len() == header.len {
                        sink(header, &self.payload);
                        self.pending = None;
                        self.have_header = 0;
                        self.payload.clear();
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let h = FrameHeader { corr_id: u64::MAX - 3, flags: FLAG_ONEWAY, len: 12345 };
        assert_eq!(FrameHeader::from_bytes(&h.to_bytes()).unwrap(), h);
        assert!(h.oneway());
    }

    #[test]
    fn frame_roundtrips_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 42, 0, b"hello").unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 5);
        let mut cursor = std::io::Cursor::new(wire);
        let mut payload = Vec::new();
        let FrameRead::Frame(h) = read_frame_into(&mut cursor, &mut payload).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!((h.corr_id, h.flags, payload.as_slice()), (42, 0, &b"hello"[..]));
        assert_eq!(read_frame_into(&mut cursor, &mut payload).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn payload_buffer_is_reused_across_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, 0, &[7u8; 64]).unwrap();
        write_frame(&mut wire, 2, 0, &[9u8; 8]).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut payload = Vec::new();
        let _ = read_frame_into(&mut cursor, &mut payload).unwrap();
        let cap = payload.capacity();
        let FrameRead::Frame(h) = read_frame_into(&mut cursor, &mut payload).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!((h.corr_id, payload.len()), (2, 8));
        assert_eq!(payload.capacity(), cap, "second read reuses the allocation");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut wire = FrameHeader { corr_id: 0, flags: 0, len: 0 }.to_bytes().to_vec();
        wire[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut payload = Vec::new();
        let err = read_frame_into(&mut std::io::Cursor::new(wire), &mut payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_mid_header_and_mid_payload_are_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 5, 0, b"abcdef").unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 2] {
            let mut payload = Vec::new();
            let err = read_frame_into(
                &mut std::io::Cursor::new(wire[..cut].to_vec()),
                &mut payload,
            )
            .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    /// A writer that forces one-byte progress to exercise the partial
    /// vectored-write resumption logic.
    struct OneByteWriter(Vec<u8>);

    impl Write for OneByteWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn assembler_handles_byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, FLAG_ONEWAY, b"ab").unwrap();
        write_frame(&mut wire, 4, 0, b"").unwrap();
        write_frame(&mut wire, 5, 0, b"xyz").unwrap();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &wire {
            asm.feed(std::slice::from_ref(b), &mut |h, p| got.push((h, p.to_vec()))).unwrap();
        }
        let want = [
            (3u64, true, b"ab".to_vec()),
            (4, false, Vec::new()),
            (5, false, b"xyz".to_vec()),
        ];
        assert_eq!(got.len(), want.len());
        for ((h, p), (corr, oneway, payload)) in got.iter().zip(&want) {
            assert_eq!((h.corr_id, h.oneway(), p), (*corr, *oneway, payload));
        }
    }

    #[test]
    fn traced_frame_roundtrips_and_strips_cleanly() {
        let ext = TraceExt { trace_id: 0xdead_beef_cafe_f00d, parent_span_id: 42, sampling: 1 };
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, 9, FLAG_ONEWAY, Some(ext), b"payload").unwrap();
        assert_eq!(wire.len(), HEADER_LEN + TRACE_EXT_LEN + 7);
        let mut payload = Vec::new();
        let FrameRead::Frame(h) =
            read_frame_into(&mut std::io::Cursor::new(wire), &mut payload).unwrap()
        else {
            panic!("expected frame");
        };
        assert!(h.traced());
        assert!(h.oneway());
        assert_eq!(h.len, TRACE_EXT_LEN + 7);
        let (got, rest) = split_trace_ext(&h, &payload).unwrap();
        assert_eq!(got, Some(ext));
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn untraced_frames_are_bit_identical_to_write_frame() {
        let mut plain = Vec::new();
        write_frame(&mut plain, 7, 0, b"abc").unwrap();
        let mut traced_none = Vec::new();
        write_frame_traced(&mut traced_none, 7, 0, None, b"abc").unwrap();
        assert_eq!(plain, traced_none);
        let h = FrameHeader { corr_id: 7, flags: 0, len: 3 };
        let (ext, rest) = split_trace_ext(&h, b"abc").unwrap();
        assert_eq!(ext, None);
        assert_eq!(rest, b"abc");
    }

    #[test]
    fn lying_trace_flag_is_invalid_data() {
        let h = FrameHeader { corr_id: 1, flags: FLAG_TRACE, len: 5 };
        let err = split_trace_ext(&h, &[0u8; 5]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn traced_head_matches_streamed_bytes() {
        let ext = TraceExt { trace_id: 10, parent_span_id: 20, sampling: 1 };
        let (head, head_len) = traced_head(5, 0, Some(ext), 3);
        let mut wire = Vec::new();
        write_frame_traced(&mut wire, 5, 0, Some(ext), b"abc").unwrap();
        assert_eq!(&wire[..head_len], &head[..head_len]);
        let (plain_head, plain_len) = traced_head(5, 0, None, 3);
        assert_eq!(plain_len, HEADER_LEN);
        let mut plain = Vec::new();
        write_frame(&mut plain, 5, 0, b"abc").unwrap();
        assert_eq!(&plain[..plain_len], &plain_head[..plain_len]);
    }

    #[test]
    fn depth_frame_roundtrips_and_strips_cleanly() {
        let ext = DepthExt { pending: 4096, busiest: 37 };
        let mut wire = Vec::new();
        write_frame_depth(&mut wire, 13, 0, Some(ext), b"reply").unwrap();
        assert_eq!(wire.len(), HEADER_LEN + DEPTH_EXT_LEN + 5);
        let mut payload = Vec::new();
        let FrameRead::Frame(h) =
            read_frame_into(&mut std::io::Cursor::new(wire), &mut payload).unwrap()
        else {
            panic!("expected frame");
        };
        assert!(h.has_depth());
        assert!(!h.traced());
        assert_eq!(h.len, DEPTH_EXT_LEN + 5);
        let (got, rest) = split_depth_ext(&h, &payload).unwrap();
        assert_eq!(got, Some(ext));
        assert_eq!(rest, b"reply");
    }

    #[test]
    fn depthless_frames_are_bit_identical_to_write_frame() {
        let mut plain = Vec::new();
        write_frame(&mut plain, 8, 0, b"abc").unwrap();
        let mut depth_none = Vec::new();
        write_frame_depth(&mut depth_none, 8, 0, None, b"abc").unwrap();
        assert_eq!(plain, depth_none);
        let h = FrameHeader { corr_id: 8, flags: 0, len: 3 };
        let (ext, rest) = split_depth_ext(&h, b"abc").unwrap();
        assert_eq!(ext, None);
        assert_eq!(rest, b"abc");
    }

    #[test]
    fn lying_depth_flag_is_invalid_data() {
        let h = FrameHeader { corr_id: 1, flags: FLAG_DEPTH, len: 4 };
        let err = split_depth_ext(&h, &[0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn depth_head_matches_streamed_bytes() {
        let ext = DepthExt { pending: 100, busiest: 7 };
        let (head, head_len) = depth_head(5, 0, Some(ext), 3);
        let mut wire = Vec::new();
        write_frame_depth(&mut wire, 5, 0, Some(ext), b"abc").unwrap();
        assert_eq!(&wire[..head_len], &head[..head_len]);
        let (plain_head, plain_len) = depth_head(5, 0, None, 3);
        assert_eq!(plain_len, HEADER_LEN);
        let mut plain = Vec::new();
        write_frame(&mut plain, 5, 0, b"abc").unwrap();
        assert_eq!(&plain[..plain_len], &plain_head[..plain_len]);
    }

    #[test]
    fn partial_vectored_writes_still_produce_a_whole_frame() {
        let mut w = OneByteWriter(Vec::new());
        write_frame(&mut w, 77, FLAG_ONEWAY, b"slow").unwrap();
        let mut payload = Vec::new();
        let FrameRead::Frame(h) =
            read_frame_into(&mut std::io::Cursor::new(w.0), &mut payload).unwrap()
        else {
            panic!("expected frame");
        };
        assert_eq!((h.corr_id, h.oneway(), payload.as_slice()), (77, true, &b"slow"[..]));
    }
}
