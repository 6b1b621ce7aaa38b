//! The wire frame grammar (DESIGN.md §12.1).
//!
//! Every frame is `len: u32 LE` followed by `len` payload bytes; the
//! payload is `opcode: u8` followed by the opcode's fixed-layout body.
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern (`f64::to_bits`), so served byte counts cross the wire
//! bit-exactly and the loopback transcript can be byte-identical to the
//! in-process harness.
//!
//! Decoding is total: any input — truncated, oversized, unknown opcode,
//! wrong body length — maps to a typed [`DecodeError`] / [`WireError`],
//! never a panic. Geometry is reconstructed by struct literal (the fields
//! are public), deliberately bypassing the validating constructors:
//! an adversarial NaN or inverted rectangle must travel as-is and fall
//! out of the index as an empty result, not trip a debug assertion in
//! the server.
//!
//! Framing does not allocate per frame: [`encode_into`] appends to a
//! caller-owned buffer whose size it knows from the opcode, and
//! [`FrameReader`] decodes whole frames in place out of one reusable
//! input buffer that grows only as bytes actually arrive. Both ends of a
//! connection run on that pair (DESIGN.md §12.2 "flush before you
//! block"); [`read_frame`] stays as the unbuffered one-frame helper.

use mar_core::QueryRegion;
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use std::fmt;
use std::io::Read;

/// Protocol version carried by `HELLO`. A daemon rejects other versions
/// with `ERROR(BadVersion)`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload (opcode + body). A length prefix above
/// this is rejected before any allocation — a 4-byte prefix must not let
/// a peer command a 4 GiB buffer.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Bytes of one encoded query region: 4 × `f64` rectangle corners plus
/// the 2 × `f64` resolution band.
const REGION_BYTES: usize = 6 * 8;

/// One protocol frame. The `→` direction is informative; the decoder
/// accepts any opcode anywhere and the endpoint rejects out-of-role
/// frames with a typed `ERROR`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// client → server: open a new session. Body: protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// server → client: session opened. Body: session id + resume token.
    Welcome {
        /// Sequential server-side session id (transcript ordinal).
        session: u64,
        /// The unguessable resume capability for this session.
        token: u64,
    },
    /// client → server: execute Algorithm 1's sub-queries for one frame.
    Query {
        /// The planned sub-queries (region + band each).
        regions: Vec<QueryRegion>,
    },
    /// server → client: the session-filtered outcome of a `QUERY`.
    Result {
        /// Coefficients served.
        coeffs: u64,
        /// Objects whose base mesh was served for the first time.
        new_objects: u64,
        /// Payload bytes served (exact `f64`, also the credit debit).
        bytes: f64,
        /// Index node accesses.
        io: u64,
    },
    /// client → server: re-attach to a live session after a transport
    /// drop. Body: the resume token from `WELCOME`.
    Resume {
        /// The resume capability.
        token: u64,
    },
    /// server → client: resumption accepted; the server-side filter was
    /// retained.
    Resumed {
        /// The re-attached session id.
        session: u64,
        /// Coefficients the filter already holds.
        retained_coeffs: u64,
        /// Objects whose base mesh was already sent.
        retained_objects: u64,
    },
    /// client → server: the client consumed `bytes` of served payload;
    /// return that much outbox credit.
    Ack {
        /// Payload bytes consumed (exact `f64` from `RESULT`).
        bytes: f64,
    },
    /// server → client: admission refused — the session's unacked payload
    /// reached the outbox cap. The query was **not** executed; the filter
    /// is untouched, so the same query can be retried after `ACK`.
    Overload {
        /// Unacked payload bytes outstanding.
        outstanding: f64,
        /// The configured outbox capacity.
        cap: f64,
    },
    /// server → client: a typed protocol error.
    Error {
        /// The [`ErrCode`].
        code: u8,
        /// Code-specific detail (offending token, version, opcode, …).
        detail: u64,
    },
    /// Session goodbye. client → server releases the session and its
    /// filter state; the server echoes `BYE` and closes.
    Bye,
}

impl Frame {
    /// The frame's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::Query { .. } => 3,
            // 4 was `BLOCK`, retired; the numbering is kept.
            Frame::Result { .. } => 5,
            Frame::Resume { .. } => 6,
            Frame::Resumed { .. } => 7,
            Frame::Ack { .. } => 8,
            Frame::Overload { .. } => 9,
            Frame::Error { .. } => 10,
            Frame::Bye => 11,
        }
    }

    /// The frame's name, for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "HELLO",
            Frame::Welcome { .. } => "WELCOME",
            Frame::Query { .. } => "QUERY",
            Frame::Result { .. } => "RESULT",
            Frame::Resume { .. } => "RESUME",
            Frame::Resumed { .. } => "RESUMED",
            Frame::Ack { .. } => "ACK",
            Frame::Overload { .. } => "OVERLOAD",
            Frame::Error { .. } => "ERROR",
            Frame::Bye => "BYE",
        }
    }
}

/// Typed protocol error codes carried by `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// A query referenced a session the server does not hold.
    UnknownSession = 1,
    /// `RESUME` carried a token no live session derives to.
    UnknownToken = 2,
    /// The peer sent a frame that is malformed or out of role here.
    Malformed = 3,
    /// `HELLO` carried an unsupported protocol version.
    BadVersion = 4,
    /// The opcode byte is not part of the grammar.
    UnknownOpcode = 5,
    /// `QUERY`/`ACK` before `HELLO`/`RESUME` bound a session.
    NotConnected = 6,
    /// `HELLO`/`RESUME` on a connection that already has a session.
    AlreadyConnected = 7,
    /// `RESUME` with a valid token for a session that is currently
    /// attached to another live connection: one connection per session.
    SessionBusy = 8,
}

impl ErrCode {
    /// Decodes an `ERROR` frame's code byte.
    pub fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(Self::UnknownSession),
            2 => Some(Self::UnknownToken),
            3 => Some(Self::Malformed),
            4 => Some(Self::BadVersion),
            5 => Some(Self::UnknownOpcode),
            6 => Some(Self::NotConnected),
            7 => Some(Self::AlreadyConnected),
            8 => Some(Self::SessionBusy),
            _ => None,
        }
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::UnknownSession => "unknown session",
            Self::UnknownToken => "unknown resume token",
            Self::Malformed => "malformed or out-of-role frame",
            Self::BadVersion => "unsupported protocol version",
            Self::UnknownOpcode => "unknown opcode",
            Self::NotConnected => "no session bound to this connection",
            Self::AlreadyConnected => "connection already has a session",
            Self::SessionBusy => "session already attached to a live connection",
        };
        f.write_str(s)
    }
}

/// Why a fully-read payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The length prefix was zero: a payload needs at least an opcode.
    EmptyPayload,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The opcode byte is not part of the grammar.
    UnknownOpcode(u8),
    /// The body is shorter or longer than the opcode's layout requires.
    BadLength {
        /// The frame's opcode.
        opcode: u8,
        /// Bytes the opcode's body layout requires.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPayload => write!(f, "zero-length frame payload"),
            Self::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds the {max}-byte cap")
            }
            Self::UnknownOpcode(op) => write!(f, "unknown opcode {op}"),
            Self::BadLength {
                opcode,
                expected,
                got,
            } => write!(
                f,
                "opcode {opcode}: body is {got} bytes, layout requires {expected}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A frame-layer transport or decode failure.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed the connection mid-frame (a clean close at a
    /// frame boundary is `Ok(None)` from [`read_frame`], not an error).
    Disconnected {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The frame arrived whole but does not parse.
    Decode(DecodeError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Disconnected { context } => {
                write!(f, "peer disconnected mid-frame (reading {context})")
            }
            Self::Decode(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        Self::Decode(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_region(buf: &mut Vec<u8>, region: &Rect2, band: &ResolutionBand) {
    put_f64(buf, region.lo[0]);
    put_f64(buf, region.lo[1]);
    put_f64(buf, region.hi[0]);
    put_f64(buf, region.hi[1]);
    put_f64(buf, band.w_min);
    put_f64(buf, band.w_max);
}

/// Bytes of `frame`'s payload (opcode + body) — known from the opcode
/// alone, so the encoder reserves once and checks the cap before writing.
fn payload_len(frame: &Frame) -> usize {
    1 + match frame {
        Frame::Hello { .. } => 4,
        Frame::Welcome { .. } | Frame::Overload { .. } => 16,
        Frame::Query { regions } => query_body_len(regions.len()),
        Frame::Result { .. } => 32,
        Frame::Resume { .. } | Frame::Ack { .. } => 8,
        Frame::Resumed { .. } => 24,
        Frame::Error { .. } => 9,
        Frame::Bye => 0,
    }
}

fn query_body_len(regions: usize) -> usize {
    4 + regions * REGION_BYTES
}

/// A `QUERY` body; the count fits `u32` because [`put_header`] has
/// already held the payload to [`MAX_PAYLOAD`].
fn put_query_body(out: &mut Vec<u8>, regions: &[QueryRegion]) {
    put_u32(out, regions.len() as u32);
    for q in regions {
        put_region(out, &q.region, &q.band);
    }
}

/// Appends the length prefix and opcode of a `payload`-byte frame after
/// one `reserve`; `out` is untouched when the payload exceeds the cap.
fn put_header(out: &mut Vec<u8>, payload: usize, opcode: u8) -> Result<usize, DecodeError> {
    if payload > MAX_PAYLOAD as usize {
        return Err(DecodeError::Oversized {
            len: u32::try_from(payload).unwrap_or(u32::MAX),
            max: MAX_PAYLOAD,
        });
    }
    out.reserve(4 + payload);
    put_u32(out, payload as u32);
    out.push(opcode);
    Ok(4 + payload)
}

/// Encodes a frame, length prefix included. Fails only when the payload
/// would exceed [`MAX_PAYLOAD`] (a `QUERY` with tens of thousands of
/// regions — Algorithm 1 plans at most a handful).
pub fn encode(frame: &Frame) -> Result<Vec<u8>, DecodeError> {
    let mut buf = Vec::with_capacity(4 + payload_len(frame).min(MAX_PAYLOAD as usize));
    encode_into(frame, &mut buf)?;
    Ok(buf)
}

/// Appends `frame`, length prefix included, to `out` and returns the bytes
/// appended — [`encode`] without the allocation, for a caller that queues
/// several frames into one socket write. On `Oversized`, `out` is
/// untouched.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) -> Result<usize, DecodeError> {
    let wire = put_header(out, payload_len(frame), frame.opcode())?;
    match frame {
        Frame::Hello { version } => put_u32(out, *version),
        Frame::Welcome { session, token } => {
            put_u64(out, *session);
            put_u64(out, *token);
        }
        Frame::Query { regions } => put_query_body(out, regions),
        Frame::Result {
            coeffs,
            new_objects,
            bytes,
            io,
        } => {
            put_u64(out, *coeffs);
            put_u64(out, *new_objects);
            put_f64(out, *bytes);
            put_u64(out, *io);
        }
        Frame::Resume { token } => put_u64(out, *token),
        Frame::Resumed {
            session,
            retained_coeffs,
            retained_objects,
        } => {
            put_u64(out, *session);
            put_u64(out, *retained_coeffs);
            put_u64(out, *retained_objects);
        }
        Frame::Ack { bytes } => put_f64(out, *bytes),
        Frame::Overload { outstanding, cap } => {
            put_f64(out, *outstanding);
            put_f64(out, *cap);
        }
        Frame::Error { code, detail } => {
            out.push(*code);
            put_u64(out, *detail);
        }
        Frame::Bye => {}
    }
    Ok(wire)
}

/// [`encode_into`] for `Frame::Query { regions }` straight from a slice,
/// so the sender need not clone its plan into a `Frame` to put it on the
/// wire.
pub fn encode_query_into(regions: &[QueryRegion], out: &mut Vec<u8>) -> Result<usize, DecodeError> {
    // 3 = `Frame::Query`'s opcode.
    let wire = put_header(out, 1 + query_body_len(regions.len()), 3)?;
    put_query_body(out, regions);
    Ok(wire)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a frame body. Every read
/// either succeeds or reports how many bytes the layout wanted — no
/// slice indexing that could panic on adversarial input.
struct Body<'a> {
    rest: &'a [u8],
    opcode: u8,
    len: usize,
}

impl<'a> Body<'a> {
    fn new(opcode: u8, rest: &'a [u8]) -> Self {
        Self {
            rest,
            opcode,
            len: rest.len(),
        }
    }

    fn short(&self, needed: usize) -> DecodeError {
        DecodeError::BadLength {
            opcode: self.opcode,
            expected: self.len - self.rest.len() + needed,
            got: self.len,
        }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        if self.rest.len() < N {
            return Err(self.short(N));
        }
        let (head, tail) = self.rest.split_at(N);
        self.rest = tail;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn region(&mut self) -> Result<(Rect2, ResolutionBand), DecodeError> {
        let (lx, ly) = (self.f64()?, self.f64()?);
        let (hx, hy) = (self.f64()?, self.f64()?);
        let (w_min, w_max) = (self.f64()?, self.f64()?);
        // Struct literals on purpose: `Rect2::from_corners` debug-asserts
        // ordering and `ResolutionBand::new` clamps/swaps — a hostile
        // frame must reach the index verbatim and fall out empty.
        let region = Rect2 {
            lo: Point2::new([lx, ly]),
            hi: Point2::new([hx, hy]),
        };
        Ok((region, ResolutionBand { w_min, w_max }))
    }

    /// The body must be fully consumed; trailing bytes are a layout
    /// mismatch (frames never carry padding).
    fn finish(self, frame: Frame) -> Result<Frame, DecodeError> {
        if self.rest.is_empty() {
            Ok(frame)
        } else {
            Err(DecodeError::BadLength {
                opcode: self.opcode,
                expected: self.len - self.rest.len(),
                got: self.len,
            })
        }
    }
}

/// Decodes one payload (opcode byte + body, the length prefix already
/// stripped and validated by [`read_frame`]).
pub fn decode(payload: &[u8]) -> Result<Frame, DecodeError> {
    let (&opcode, rest) = payload.split_first().ok_or(DecodeError::EmptyPayload)?;
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(DecodeError::Oversized {
            len: payload.len() as u32,
            max: MAX_PAYLOAD,
        });
    }
    let mut b = Body::new(opcode, rest);
    let frame = match opcode {
        1 => Frame::Hello { version: b.u32()? },
        2 => Frame::Welcome {
            session: b.u64()?,
            token: b.u64()?,
        },
        3 => {
            let count = b.u32()? as usize;
            // The remaining body length must match the count exactly, so
            // a hostile count cannot command a huge allocation: the
            // payload is already capped at MAX_PAYLOAD.
            if b.rest.len() != count * REGION_BYTES {
                return Err(DecodeError::BadLength {
                    opcode,
                    expected: 4 + count * REGION_BYTES,
                    got: rest.len(),
                });
            }
            let mut regions = Vec::with_capacity(count);
            for _ in 0..count {
                let (region, band) = b.region()?;
                regions.push(QueryRegion { region, band });
            }
            Frame::Query { regions }
        }
        5 => Frame::Result {
            coeffs: b.u64()?,
            new_objects: b.u64()?,
            bytes: b.f64()?,
            io: b.u64()?,
        },
        6 => Frame::Resume { token: b.u64()? },
        7 => Frame::Resumed {
            session: b.u64()?,
            retained_coeffs: b.u64()?,
            retained_objects: b.u64()?,
        },
        8 => Frame::Ack { bytes: b.f64()? },
        9 => Frame::Overload {
            outstanding: b.f64()?,
            cap: b.f64()?,
        },
        10 => Frame::Error {
            code: b.u8()?,
            detail: b.u64()?,
        },
        11 => Frame::Bye,
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    b.finish(frame)
}

// ---------------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------------

/// A [`FrameReader`]'s initial buffer, hence the most one
/// [`FrameReader::fill`] reads until a larger frame has grown it: a
/// pipelined burst of tour-sized frames fits many times over.
pub const READ_CHUNK: usize = 8 << 10;

/// The payload length a length prefix claims, or why no frame can follow
/// it: a payload needs at least an opcode and at most [`MAX_PAYLOAD`].
fn checked_len(prefix: [u8; 4]) -> Result<usize, DecodeError> {
    match u32::from_le_bytes(prefix) {
        0 => Err(DecodeError::EmptyPayload),
        len if len > MAX_PAYLOAD => Err(DecodeError::Oversized {
            len,
            max: MAX_PAYLOAD,
        }),
        len => Ok(len as usize),
    }
}

/// The buffered frame reader both ends of a connection run on: one
/// reusable input buffer, whole frames decoded in place.
///
/// [`FrameReader::next_frame`] never touches the socket, so a caller can
/// drain every frame a single `read` delivered — and knows, when it
/// returns `None`, that its next read may block (the moment to flush
/// queued output). The buffer grows only to hold bytes that have actually
/// arrived: a hostile length prefix costs its sender nothing but a typed
/// error.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Storage; `buf[head..tail]` holds the bytes not yet decoded.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameReader {
    /// An empty reader; the buffer is allocated by the first `fill`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of buffer currently held: [`READ_CHUNK`] until a partial
    /// frame outgrows it, never more than [`MAX_PAYLOAD`] + `READ_CHUNK`.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next *whole* buffered frame and the bytes it took off
    /// the wire; `Ok(None)` means more input is needed. A zero or
    /// oversized prefix is rejected as soon as its four bytes are in and
    /// leaves the stream unusable; any other decode error consumes the
    /// frame, so after `UnknownOpcode` the stream is still in sync.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, u64)>, DecodeError> {
        let Some(p) = self.buf[self.head..self.tail].get(..4) else {
            return Ok(None);
        };
        let len = checked_len([p[0], p[1], p[2], p[3]])?;
        let start = self.head + 4;
        if self.tail - start < len {
            return Ok(None);
        }
        self.head = start + len;
        let frame = decode(&self.buf[start..self.head])?;
        Ok(Some((frame, 4 + len as u64)))
    }

    /// One `read` from `r` into the buffer's spare room (compacting
    /// first); returns the bytes read, `0` at end of stream. Call it once
    /// [`FrameReader::next_frame`] has returned `None`. The buffer
    /// doubles only when a partial frame fills it — never past
    /// [`MAX_PAYLOAD`] plus one read chunk, which always holds a whole
    /// frame.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.tail == self.buf.len() {
            let grown = (2 * self.buf.len()).clamp(READ_CHUNK, MAX_PAYLOAD as usize + READ_CHUNK);
            self.buf.resize(grown, 0);
        }
        loop {
            match r.read(&mut self.buf[self.tail..]) {
                Ok(n) => {
                    self.tail += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// What the stream ending *now* means: `Ok` at a frame boundary (a
    /// clean close), `Disconnected` when part of a frame is buffered.
    pub fn end_of_stream(&self) -> Result<(), WireError> {
        match self.tail - self.head {
            0 => Ok(()),
            1..=3 => Err(WireError::Disconnected {
                context: "length prefix",
            }),
            _ => Err(WireError::Disconnected {
                context: "frame payload",
            }),
        }
    }
}

/// Reads into `buf` until it is full or the stream ends; returns the
/// bytes read, so the caller can tell "EOF before any byte" (a clean
/// close at a frame boundary) from "EOF mid-buffer".
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(got)
}

/// Reads one frame, unbuffered: exactly the frame's bytes are consumed
/// from `r`. `Ok(None)` is a clean close at a frame boundary; every
/// malformed or truncated input is a typed [`WireError`]. Connections run
/// on [`FrameReader`]; this is the one-frame helper for raw-socket tests.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    Ok(read_frame_len(r)?.map(|(frame, _)| frame))
}

/// [`read_frame`] plus the bytes the frame took off the wire (4-byte
/// length prefix + payload), read off the prefix instead of recovered by
/// re-encoding.
pub fn read_frame_len<R: Read>(r: &mut R) -> Result<Option<(Frame, u64)>, WireError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        _ => {
            return Err(WireError::Disconnected {
                context: "length prefix",
            })
        }
    }
    let mut payload = vec![0u8; checked_len(prefix)?];
    if read_full(r, &mut payload)? < payload.len() {
        return Err(WireError::Disconnected {
            context: "frame payload",
        });
    }
    Ok(Some((decode(&payload)?, 4 + payload.len() as u64)))
}
