//! `mar-load` — the wire client and workload replayer (DESIGN.md §12.3).
//!
//! [`WireClient`] is the protocol-level client: connect/resume handshake,
//! query with automatic credit `ACK`, and raw frame access for protocol
//! tests. It follows the daemon's I/O rule (DESIGN.md §12.3):
//! [`WireClient::send_query`] and the automatic `ACK` only *queue* bytes,
//! and the queue goes out in one `write` when [`WireClient::recv`] is
//! about to block (or on [`WireClient::flush`], `bye`, drop) — so a
//! pipelined client pays one write and one read per burst, in unchanged
//! stream order. [`run_wire_replay`] drives the exact `mar-bench serve` workload
//! (same scene, same tours, same Algorithm 1 planning) against a live
//! daemon and builds the same transcript, so wire-layer correctness is a
//! byte-for-byte fingerprint comparison against the in-process harness.

use crate::codec::{
    encode_into, encode_query_into, ErrCode, Frame, FrameReader, WireError, PROTOCOL_VERSION,
};
use mar_bench::report::Json;
use mar_bench::serve::{serve_scene, snapshot, ServeConfig, TourSession, Transcript, TOUR_SEED};
use mar_core::{QueryRegion, QueryResult};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// A client-side protocol failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket / frame-layer failure.
    Wire(WireError),
    /// The server answered with a typed `ERROR` frame.
    Server {
        /// The decoded error code (`None` if the byte is not a known code).
        code: Option<ErrCode>,
        /// The raw code byte.
        raw_code: u8,
        /// Code-specific detail word.
        detail: u64,
    },
    /// The server sent a frame the protocol does not allow here.
    Unexpected {
        /// What the client was waiting for.
        wanted: &'static str,
        /// The frame that arrived instead.
        got: &'static str,
    },
    /// The server closed the connection while a reply was expected.
    ServerClosed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Server {
                code,
                raw_code,
                detail,
            } => match code {
                Some(c) => write!(f, "server error: {c} (detail {detail:#x})"),
                None => write!(
                    f,
                    "server error: unknown code {raw_code} (detail {detail:#x})"
                ),
            },
            Self::Unexpected { wanted, got } => {
                write!(f, "protocol violation: wanted {wanted}, got {got}")
            }
            Self::ServerClosed => write!(f, "server closed the connection mid-exchange"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Wire(WireError::Io(e))
    }
}

/// The accounting fields of a `RESULT` frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireResult {
    /// Coefficients served.
    pub coeffs: u64,
    /// Objects whose base mesh was served for the first time.
    pub new_objects: u64,
    /// Payload bytes served (bit-exact `f64`).
    pub bytes: f64,
    /// Index node accesses.
    pub io: u64,
}

/// What a `QUERY` round-trip produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryReply {
    /// The query executed; the result was acked automatically.
    Served(WireResult),
    /// Admission refused: the outbox credit is exhausted. The query was
    /// not executed and can be retried after acking.
    Overloaded {
        /// Unacked payload bytes the server holds against this session.
        outstanding: f64,
        /// The server's outbox capacity.
        cap: f64,
    },
}

/// A protocol-level connection to a `mar-served` daemon.
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames queued for the next [`WireClient::flush`].
    out: Vec<u8>,
    session: u64,
    token: u64,
    wire_bytes: u64,
}

impl WireClient {
    fn open(addr: SocketAddr, token: u64) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            session: 0,
            token,
            wire_bytes: 0,
        })
    }

    /// Connects and runs the `HELLO`/`WELCOME` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let mut client = Self::open(addr, 0)?;
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.recv()? {
            Frame::Welcome { session, token } => {
                client.session = session;
                client.token = token;
                Ok(client)
            }
            other => Err(unexpected("WELCOME", &other)),
        }
    }

    /// Opens a fresh connection and re-attaches to a live session via
    /// `RESUME`. Returns the client plus the server's retained counts.
    pub fn resume(addr: SocketAddr, token: u64) -> Result<(Self, u64, u64), ClientError> {
        let mut client = Self::open(addr, token)?;
        client.send(&Frame::Resume { token })?;
        match client.recv()? {
            Frame::Resumed {
                session,
                retained_coeffs,
                retained_objects,
            } => {
                client.session = session;
                Ok((client, retained_coeffs, retained_objects))
            }
            other => Err(unexpected("RESUMED", &other)),
        }
    }

    /// The server-side session id (the transcript ordinal).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The resume capability for this session.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Total bytes this client has put on / taken off the wire
    /// (length prefixes included; queued frames count when queued).
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Queues one frame behind whatever is already queued.
    fn queue(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.wire_bytes += encode_into(frame, &mut self.out).map_err(WireError::from)? as u64;
        Ok(())
    }

    /// Writes everything queued to the socket in one `write`, in queue
    /// order. [`WireClient::recv`] does this by itself before it blocks;
    /// call it to put a `send_query` on the wire *now* — a caller keeping
    /// queries in flight on several connections must, or the others idle.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(written?)
    }

    /// Sends one raw frame at once, after anything queued (protocol tests
    /// drive refusal paths with this).
    pub fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.queue(frame)?;
        self.flush()
    }

    /// Receives one raw frame; a close here is [`ClientError::ServerClosed`]
    /// and a server `ERROR` frame surfaces as [`ClientError::Server`].
    /// Touches the socket only when no whole frame is buffered, and then
    /// flushes first: the reply may be to a frame still queued.
    pub fn recv(&mut self) -> Result<Frame, ClientError> {
        let (frame, len) = loop {
            if let Some(next) = self.reader.next_frame().map_err(WireError::from)? {
                break next;
            }
            self.flush()?;
            if self.reader.fill(&mut self.stream)? == 0 {
                self.reader.end_of_stream()?;
                return Err(ClientError::ServerClosed);
            }
        };
        self.wire_bytes += len;
        if let Frame::Error { code, detail } = frame {
            return Err(ClientError::Server {
                code: ErrCode::from_u8(code),
                raw_code: code,
                detail,
            });
        }
        Ok(frame)
    }

    /// One `QUERY` round-trip. A `RESULT` is acked immediately (full
    /// credit return), so a client using only this method is never
    /// refused; an `OVERLOAD` is surfaced as a typed reply, not an error.
    pub fn query(&mut self, regions: &[QueryRegion]) -> Result<QueryReply, ClientError> {
        self.send_query(regions)?;
        self.recv_result()
    }

    /// Queues a `QUERY` without waiting for the reply — the issue half of
    /// a pipelined exchange. Pair with [`WireClient::recv_result`], which
    /// flushes the queue when it has to wait.
    pub fn send_query(&mut self, regions: &[QueryRegion]) -> Result<(), ClientError> {
        let wire = encode_query_into(regions, &mut self.out).map_err(WireError::from)?;
        self.wire_bytes += wire as u64;
        Ok(())
    }

    /// Receives the reply to an in-flight `QUERY` issued with
    /// [`WireClient::send_query`]; the `ACK` of a `RESULT` (full credit
    /// return) is queued ahead of the session's next `QUERY`, exactly as
    /// [`WireClient::query`] does.
    pub fn recv_result(&mut self) -> Result<QueryReply, ClientError> {
        match self.recv()? {
            Frame::Result {
                coeffs,
                new_objects,
                bytes,
                io,
            } => {
                if bytes > 0.0 {
                    self.queue(&Frame::Ack { bytes })?;
                }
                Ok(QueryReply::Served(WireResult {
                    coeffs,
                    new_objects,
                    bytes,
                    io,
                }))
            }
            Frame::Overload { outstanding, cap } => Ok(QueryReply::Overloaded { outstanding, cap }),
            other => Err(unexpected("RESULT|OVERLOAD", &other)),
        }
    }

    /// Releases the session (`BYE`), waits for the server's echo, and
    /// returns the connection's lifetime wire-byte total.
    pub fn bye(mut self) -> Result<u64, ClientError> {
        self.send(&Frame::Bye)?;
        match self.recv()? {
            Frame::Bye => Ok(self.wire_bytes),
            other => Err(unexpected("BYE", &other)),
        }
    }
}

/// A dropped client still returns its credit: the last `ACK` may be
/// queued, and the session outlives the connection (`RESUME`).
impl Drop for WireClient {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn unexpected(wanted: &'static str, got: &Frame) -> ClientError {
    ClientError::Unexpected {
        wanted,
        got: got.name(),
    }
}

// ---------------------------------------------------------------------------
// Workload replay
// ---------------------------------------------------------------------------

/// What one wire replay produced — the wire-side mirror of
/// `mar_bench::serve::ServeReport`.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Sessions replayed.
    pub sessions: usize,
    /// Ticks per session.
    pub ticks: usize,
    /// The deterministic transcript and its totals — byte-identical to
    /// the in-process harness's for the same [`ServeConfig`].
    pub transcript: Transcript,
    /// Bytes on the wire, both directions, length prefixes included.
    pub wire_bytes: u64,
    /// Effective pipeline depth the replay ran with (1 = synchronous
    /// round-trips).
    pub pipeline: usize,
}

impl ReplayReport {
    /// `QUERY` round-trips executed: one per session per tick.
    pub fn queries(&self) -> u64 {
        (self.sessions * self.ticks) as u64
    }

    /// The `BENCH_wire.json` snapshot of this replay. `overload` is the
    /// `(outstanding, cap)` a saturation probe was refused at, `check`
    /// the outcome of the in-process comparison.
    pub fn snapshot(&self, mode: &str, overload: Option<(f64, f64)>, check: &str) -> Json {
        let mut probe = vec![("seen", Json::Bool(overload.is_some()))];
        if let Some((outstanding, cap)) = overload {
            probe.push(("outstanding", Json::Num(outstanding, 1)));
            probe.push(("cap", Json::Num(cap, 1)));
        }
        let t = &self.transcript;
        let fields = vec![
            ("queries", self.queries().into()),
            ("pipeline", self.pipeline.into()),
            ("bytes_served", Json::Num(t.bytes, 1)),
            ("coeffs_served", t.coeffs.into()),
            ("index_io", t.io.into()),
            ("wire_bytes", self.wire_bytes.into()),
            ("overload", Json::Obj(probe)),
            ("check", check.into()),
        ];
        let run = (self.sessions, self.ticks);
        snapshot("mar-load-wire/3", mode, run, fields, &t.text)
    }
}

/// Drains one in-flight `QUERY` — session `k`'s for `tick`: receive, ack
/// (inside `recv_result`), commit the session's view, append the
/// transcript row.
fn drain_one(
    sessions: &mut [(WireClient, TourSession)],
    (tick, k): (usize, usize),
    transcript: &mut Transcript,
) -> Result<(), ClientError> {
    let (client, tour) = &mut sessions[k];
    let r = match client.recv_result()? {
        QueryReply::Served(r) => r,
        // Every result is acked on drain and in-flight queries are on
        // distinct sessions, so admission can never refuse the replay
        // (the overshoot-by-one rule); an OVERLOAD here is a daemon bug.
        QueryReply::Overloaded { .. } => {
            return Err(ClientError::Unexpected {
                wanted: "RESULT",
                got: "OVERLOAD",
            })
        }
    };
    let view = tour.view(tick);
    tour.commit(&view);
    let served = QueryResult {
        coeffs: r.coeffs as usize,
        new_objects: r.new_objects as usize,
        bytes: r.bytes,
        io: r.io,
    };
    transcript.push(tick, k, &served, view.speed);
    Ok(())
}

/// Replays the `mar-bench serve` workload for `cfg` against the daemon at
/// `addr`, keeping up to `depth` `QUERY` frames in flight across the
/// session connections (`1` = synchronous round-trips).
///
/// Issue order is exactly the synchronous replay's: tick-major, sessions
/// in id order within a tick. Replies are drained in issue order (the
/// pipeline is a FIFO), each drain acking its payload and appending its
/// transcript row — so the transcript is byte-identical to the
/// synchronous replay's and to the in-process harness's, at every depth.
///
/// Two invariants make pipelining unobservable to the daemon's admission
/// control and to the workload semantics:
///
/// - In-flight queries always belong to *distinct sessions* (the FIFO is
///   drained before a session issues again), so each session still has
///   at most one unacked `RESULT` outstanding — admission can never
///   refuse the replay, same as the synchronous loop.
/// - A session's tick `t+1` plan depends on its tick `t` commit, so the
///   effective depth is capped at the session count; `depth` beyond that
///   would only cover deeper cross-session windows, which do not exist in
///   tick-major order.
pub fn run_wire_replay(
    addr: SocketAddr,
    cfg: &ServeConfig,
    depth: usize,
) -> Result<ReplayReport, ClientError> {
    let depth = depth.clamp(1, cfg.sessions.max(1));
    let space = serve_scene(cfg.objects, cfg.levels).config.space;

    let mut sessions = Vec::with_capacity(cfg.sessions);
    for k in 0..cfg.sessions {
        let tour = TourSession::new(space, cfg.ticks, TOUR_SEED, cfg.frame_frac, k);
        sessions.push((WireClient::connect(addr)?, tour));
    }

    let mut transcript = Transcript::default();
    // Issued-but-undrained queries, oldest first, as `(tick, session)`.
    let mut pending = VecDeque::with_capacity(depth);
    for tick in 0..cfg.ticks {
        for k in 0..sessions.len() {
            if pending.len() == depth {
                if let Some(oldest) = pending.pop_front() {
                    drain_one(&mut sessions, oldest, &mut transcript)?;
                }
            }
            let (client, tour) = &mut sessions[k];
            client.send_query(&tour.plan(&tour.view(tick)))?;
            // In-flight queries sit on distinct connections: each must be
            // on the wire before the next is planned, or nothing overlaps.
            client.flush()?;
            pending.push_back((tick, k));
        }
    }
    for oldest in pending {
        drain_one(&mut sessions, oldest, &mut transcript)?;
    }

    let mut wire_bytes = 0u64;
    for (client, _) in sessions {
        wire_bytes += client.bye()?;
    }

    Ok(ReplayReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        transcript,
        wire_bytes,
        pipeline: depth,
    })
}
