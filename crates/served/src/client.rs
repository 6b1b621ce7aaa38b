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
use mar_bench::serve::{
    per_sec, quantile_ns, serve_scene, session_tour, transcript_row, ServeConfig, TRANSCRIPT_HEADER,
};
use mar_core::{FramePlanner, LinearSpeedMap, QueryRegion, SmoothedSpeed, SpeedResolutionMap};
use mar_link::LinkConfig;
use mar_workload::{frame_at, Tour};
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
    /// `QUERY` round-trips executed.
    pub queries: u64,
    /// Payload bytes served across all sessions.
    pub bytes: f64,
    /// Coefficients served across all sessions.
    pub coeffs: u64,
    /// Index node accesses across all sessions.
    pub io: u64,
    /// The deterministic transcript — byte-identical to the in-process
    /// harness's for the same [`ServeConfig`].
    pub transcript: String,
    /// Wall-clock round-trip latency of each `QUERY`, in nanoseconds.
    /// Under pipelining this includes queue wait: the clock starts at
    /// issue and stops when the reply is drained.
    pub frame_ns: Vec<u64>,
    /// Total wall-clock time of the replay loop, in seconds.
    pub elapsed_s: f64,
    /// Bytes on the wire, both directions, length prefixes included.
    pub wire_bytes: u64,
    /// Effective pipeline depth the replay ran with (1 = synchronous
    /// round-trips).
    pub pipeline: usize,
}

impl ReplayReport {
    /// Queries per second of wall-clock replay time.
    pub fn queries_per_sec(&self) -> f64 {
        per_sec(self.queries, self.elapsed_s)
    }

    /// The `q`-quantile (0..=1) of per-query round-trip latency, in
    /// nanoseconds.
    pub fn frame_latency_ns(&self, q: f64) -> u64 {
        quantile_ns(&self.frame_ns, q)
    }
}

struct ReplaySession {
    client: WireClient,
    planner: FramePlanner,
    smooth: SmoothedSpeed,
    tour: Tour,
}

/// One issued-but-undrained `QUERY` in the pipelined replay.
struct InFlight {
    /// Session index (transcript column `session`).
    k: usize,
    /// Tick the query belongs to.
    tick: usize,
    /// The planned viewport frame, needed for `FramePlanner::commit`
    /// once the reply arrives.
    frame: mar_geom::Rect2,
    /// The band the frame was planned at.
    band: mar_mesh::ResolutionBand,
    /// Smoothed speed at issue time (drives the link-time column).
    speed: f64,
    /// Issue timestamp for the latency report.
    sent: std::time::Instant,
}

/// Replays the `mar-bench serve` workload for `cfg` against the daemon at
/// `addr` with synchronous round-trips. Equivalent to
/// [`run_wire_replay_pipelined`] at depth 1.
pub fn run_wire_replay(addr: SocketAddr, cfg: &ServeConfig) -> Result<ReplayReport, ClientError> {
    run_wire_replay_pipelined(addr, cfg, 1)
}

/// Replays the `mar-bench serve` workload keeping up to `depth` `QUERY`
/// frames in flight across the session connections.
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
///   only measures deeper cross-session windows, which do not exist in
///   tick-major order.
pub fn run_wire_replay_pipelined(
    addr: SocketAddr,
    cfg: &ServeConfig,
    depth: usize,
) -> Result<ReplayReport, ClientError> {
    let depth = depth.clamp(1, cfg.sessions.max(1));
    let scene = serve_scene(cfg.objects, cfg.levels);
    let space = scene.config.space;
    let link = LinkConfig::paper();
    let map = LinearSpeedMap;

    let mut sessions: Vec<ReplaySession> = Vec::with_capacity(cfg.sessions);
    for k in 0..cfg.sessions {
        sessions.push(ReplaySession {
            client: WireClient::connect(addr)?,
            planner: FramePlanner::new(),
            smooth: SmoothedSpeed::default(),
            tour: session_tour(space, cfg.ticks, cfg.tour_seed, k),
        });
    }

    let mut transcript = String::from(TRANSCRIPT_HEADER);
    let mut frame_ns = Vec::with_capacity(cfg.sessions * cfg.ticks);
    let mut bytes = 0.0;
    let mut coeffs = 0u64;
    let mut io = 0u64;
    let mut pending: std::collections::VecDeque<InFlight> =
        std::collections::VecDeque::with_capacity(depth);

    // Drains the oldest in-flight query: receive, ack (inside
    // `recv_result`), commit the session's planner, append the
    // transcript row.
    let drain_one = |sessions: &mut [ReplaySession],
                     pending: &mut std::collections::VecDeque<InFlight>,
                     transcript: &mut String,
                     frame_ns: &mut Vec<u64>,
                     bytes: &mut f64,
                     coeffs: &mut u64,
                     io: &mut u64|
     -> Result<(), ClientError> {
        let Some(q) = pending.pop_front() else {
            return Ok(());
        };
        let s = &mut sessions[q.k];
        let r = match s.client.recv_result()? {
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
        frame_ns.push(q.sent.elapsed().as_nanos() as u64);
        s.planner.commit(q.frame, q.band);
        let response_s = if r.bytes > 0.0 {
            link.request_time(r.bytes, q.speed)
        } else {
            0.0
        };
        transcript.push_str(&transcript_row(
            q.tick,
            q.k,
            r.coeffs,
            r.new_objects,
            r.bytes,
            r.io,
            response_s,
        ));
        *bytes += r.bytes;
        *coeffs += r.coeffs;
        *io += r.io;
        Ok(())
    };

    // mar-lint: allow(D003) — wall-clock throughput/latency measurement is the load generator's job; timings never enter the transcript
    let t0 = std::time::Instant::now();
    for tick in 0..cfg.ticks {
        for k in 0..sessions.len() {
            if pending.len() == depth {
                drain_one(
                    &mut sessions,
                    &mut pending,
                    &mut transcript,
                    &mut frame_ns,
                    &mut bytes,
                    &mut coeffs,
                    &mut io,
                )?;
            }
            let s = &mut sessions[k];
            let sample = s.tour.samples[tick];
            let frame = frame_at(&space, &sample.pos, cfg.frame_frac);
            let speed = s.smooth.update(sample.speed);
            let band = map.band_for(speed);
            let regions = s.planner.plan(&frame, band);
            // mar-lint: allow(D003) — per-query latency for the report only
            let sent = std::time::Instant::now();
            s.client.send_query(&regions)?;
            // In-flight queries sit on distinct connections: each must be
            // on the wire before the next is planned, or nothing overlaps.
            s.client.flush()?;
            pending.push_back(InFlight {
                k,
                tick,
                frame,
                band,
                speed,
                sent,
            });
        }
    }
    while !pending.is_empty() {
        drain_one(
            &mut sessions,
            &mut pending,
            &mut transcript,
            &mut frame_ns,
            &mut bytes,
            &mut coeffs,
            &mut io,
        )?;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut wire_bytes = 0u64;
    for s in sessions {
        wire_bytes += s.client.bye()?;
    }

    Ok(ReplayReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        queries: (cfg.sessions * cfg.ticks) as u64,
        bytes,
        coeffs,
        io,
        transcript,
        frame_ns,
        elapsed_s,
        wire_bytes,
        pipeline: depth,
    })
}
