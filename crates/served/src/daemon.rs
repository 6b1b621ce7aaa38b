//! `mar-served` — the thread-per-connection TCP daemon (DESIGN.md §12.2).
//!
//! Every accepted connection gets its own thread over one shared
//! [`Server`] — the core is lock-free for queries and every session's
//! state has a lock of its own, so connection threads never serialize on
//! each other. The daemon keeps no lock and no session table of its own:
//! what a connection needs to know about its session lives in that
//! session's [`mar_core::Sessions`] entry.
//!
//! **Backpressure is explicit and deterministic.** Each *session* (not
//! each connection) carries a ledger of payload bytes served but not yet
//! `ACK`ed (credit-based flow control, independent of OS socket
//! buffering). The ledger is the session entry's [`mar_core::Delivery`],
//! so it **survives transport drops**: a client cannot zero its debt by
//! dropping the socket and `RESUME`ing on a fresh connection, and `BYE`
//! releases it with the session. A `QUERY` that arrives while
//! `unacked >= cap` is refused with a typed `OVERLOAD` frame *before*
//! touching the session filter, so a refused query is exactly-once safe
//! to retry. Because admission is checked before execution, one query
//! may overshoot the cap — which also means a client that acks every
//! `RESULT` can never be refused.
//!
//! **Transport drops are not session drops.** A connection that
//! disappears without `BYE` leaves its session (and server-side filter)
//! live; the client re-attaches on a fresh connection with `RESUME` and
//! the unguessable token from `WELCOME`. Only `BYE` releases the session.
//! Attachment is exclusive: while one connection drives a session, a
//! `RESUME` for it — even with the valid token — is refused with
//! `ERROR(SessionBusy)`, so two connections can never interleave frames
//! against one filter/ledger. A connection detaches when it is dropped,
//! so even a connection thread that panics leaves its session resumable.
//!
//! **Flush before you block.** A connection thread handles every whole
//! frame its last `read` delivered, appending the replies to one output
//! buffer, and writes that buffer out in a single `write` immediately
//! before a `read` that can block — so a peer with *n* requests in
//! flight costs one read, one write and one wake-up per burst instead of
//! per frame, and an idle round trip (n = 1) is unchanged. The byte
//! stream is the same as one write per frame; only its segmentation
//! differs. A failed write ends the connection at once (DESIGN.md §12.2).

use crate::codec::{encode_into, DecodeError, ErrCode, Frame, FrameReader};
use mar_core::{QueryRegion, Server, SessionError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default per-session outbox capacity: unacked payload bytes a session
/// may have in flight before `QUERY` admission returns `OVERLOAD`.
pub const DEFAULT_OUTBOX_CAP: f64 = 64.0 * 1024.0;

/// Daemon tunables.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Per-session outbox capacity in payload bytes.
    pub outbox_cap: f64,
    /// Stop accepting after this many connections and drain; `None`
    /// serves forever (the CLI default).
    pub max_conns: Option<usize>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            outbox_cap: DEFAULT_OUTBOX_CAP,
            max_conns: None,
        }
    }
}

/// What the daemon did over its lifetime (returned by
/// [`DaemonHandle::join`] when `max_conns` bounds the run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames read from clients.
    pub frames_in: u64,
    /// Frames written to clients.
    pub frames_out: u64,
    /// `OVERLOAD` refusals issued.
    pub overloads: u64,
    /// `ERROR` frames issued.
    pub errors: u64,
    /// `read` calls made on client sockets.
    pub socket_reads: u64,
    /// `write` calls made on client sockets; `frames_out / socket_writes`
    /// is the reply batching pipelined clients got.
    pub socket_writes: u64,
}

impl DaemonStats {
    fn absorb(&mut self, conn: &DaemonStats) {
        self.frames_in += conn.frames_in;
        self.frames_out += conn.frames_out;
        self.overloads += conn.overloads;
        self.errors += conn.errors;
        self.socket_reads += conn.socket_reads;
        self.socket_writes += conn.socket_writes;
    }
}

/// A running daemon: the bound address plus the acceptor's join handle.
#[derive(Debug)]
pub struct DaemonHandle {
    /// The address the daemon is listening on (resolves `--port 0`).
    pub addr: SocketAddr,
    thread: JoinHandle<DaemonStats>,
}

impl DaemonHandle {
    /// Waits for the acceptor to finish (it only does when
    /// [`DaemonConfig::max_conns`] bounds the run) and returns its stats.
    pub fn join(self) -> DaemonStats {
        self.thread.join().unwrap_or_default()
    }
}

/// Spawns the accept loop on `listener`, serving `server`. Returns
/// immediately; the daemon runs until `max_conns` connections have been
/// served (or forever).
pub fn spawn_daemon(
    server: Arc<Server>,
    listener: TcpListener,
    cfg: DaemonConfig,
) -> std::io::Result<DaemonHandle> {
    let addr = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("mar-served-accept".to_string())
        .spawn(move || accept_loop(&server, &listener, cfg))?;
    Ok(DaemonHandle { addr, thread })
}

fn accept_loop(server: &Arc<Server>, listener: &TcpListener, cfg: DaemonConfig) -> DaemonStats {
    let mut stats = DaemonStats::default();
    let mut workers: Vec<JoinHandle<DaemonStats>> = Vec::new();
    // The bound is tested before blocking in `accept`, so `Some(0)`
    // serves nobody instead of waiting for one client too many.
    while cfg.max_conns.is_none_or(|m| stats.connections < m as u64) {
        let Ok((stream, _)) = listener.accept() else {
            // Transient accept failure (peer vanished between SYN and
            // accept); keep serving.
            continue;
        };
        // Reap finished connection threads as we go: in serve-forever
        // mode (`max_conns: None`) the accept loop never exits, so
        // deferring every join to the end would grow one dead JoinHandle
        // per connection ever served.
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                if let Ok(done) = workers.swap_remove(i).join() {
                    stats.absorb(&done);
                }
            } else {
                i += 1;
            }
        }
        stats.connections += 1;
        let server = Arc::clone(server);
        let cap = cfg.outbox_cap;
        let spawned = std::thread::Builder::new()
            .name(format!("mar-served-conn-{}", stats.connections))
            .spawn(move || {
                // Request/response protocol: without NODELAY every reply
                // would sit out a delayed-ack window.
                let _ = stream.set_nodelay(true);
                serve_conn(&server, &stream, &stream, cap)
            });
        if let Ok(h) = spawned {
            workers.push(h);
        }
    }
    for h in workers {
        if let Ok(conn) = h.join() {
            stats.absorb(&conn);
        }
    }
    stats
}

/// Per-connection protocol state machine over any byte transport (a
/// `TcpStream`'s two halves in the daemon, a scripted one in tests).
/// Returns this connection's share of the daemon stats; every exit path
/// leaves the shared server consistent (a dropped connection keeps its
/// session resumable, and detaches it so a later `RESUME` can bind).
fn serve_conn<R: Read, W: Write>(
    server: &Server,
    mut input: R,
    output: W,
    cap: f64,
) -> DaemonStats {
    let mut stats = DaemonStats::default();
    let mut reader = FrameReader::new();
    let mut conn = Conn {
        server,
        output,
        out: Vec::new(),
        queued: 0,
        session: None,
        cap,
        stats: &mut stats,
    };
    'conn: loop {
        // Everything the last read delivered, replies queued in `out`.
        loop {
            match reader.next_frame() {
                Ok(Some((frame, _))) => {
                    conn.stats.frames_in += 1;
                    if !conn.handle(frame) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                // The framing is still intact after an unknown opcode
                // (the length prefix was honoured), so report and keep
                // serving.
                Err(DecodeError::UnknownOpcode(op)) => {
                    conn.error(ErrCode::UnknownOpcode, u64::from(op));
                }
                // Any other decode failure means the stream can no longer
                // be re-synchronised: report best-effort and close.
                Err(e) => {
                    conn.error(ErrCode::Malformed, decode_detail(&e));
                    break 'conn;
                }
            }
        }
        // About to block: the peer must have every reply first. A peer
        // that can no longer hear them gets no further queries executed —
        // they would mark coefficients as sent to nobody.
        if conn.flush().is_err() {
            break;
        }
        conn.stats.socket_reads += 1;
        match reader.fill(&mut input) {
            // Close (clean or mid-frame) or transport failure: nothing to
            // send; the session (if any) stays live for RESUME.
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    // The BYE echo / best-effort ERROR(Malformed) of a closing connection.
    let _ = conn.flush();
    drop(conn);
    stats
}

/// Folds a decode error into the `ERROR` frame's `detail` word.
fn decode_detail(e: &DecodeError) -> u64 {
    match e {
        DecodeError::EmptyPayload => 0,
        DecodeError::Oversized { len, .. } => u64::from(*len),
        DecodeError::UnknownOpcode(op) => u64::from(*op),
        DecodeError::BadLength { opcode, .. } => u64::from(*opcode),
    }
}

struct Conn<'a, W> {
    server: &'a Server,
    output: W,
    /// Encoded replies not yet written, and how many frames they are.
    out: Vec<u8>,
    queued: u64,
    /// The session this connection is attached to.
    session: Option<u64>,
    cap: f64,
    stats: &'a mut DaemonStats,
}

/// A transport drop without `BYE` — or a connection thread that panics —
/// detaches the session so a later `RESUME` can bind, and keeps its
/// unacked credit: dropping the socket is not a way to zero one's debt.
impl<W> Drop for Conn<'_, W> {
    fn drop(&mut self) {
        if let Some(session) = self.session {
            let _ = self
                .server
                .sessions()
                .with_delivery(session, |d| d.attached = false);
        }
    }
}

impl<W: Write> Conn<'_, W> {
    /// Queues `frame` for the next [`Conn::flush`].
    fn send(&mut self, frame: &Frame) {
        if encode_into(frame, &mut self.out).is_ok() {
            self.queued += 1;
        }
    }

    /// Writes every queued reply in one `write`; frames count as sent
    /// only once the transport took them.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        self.stats.socket_writes += 1;
        let written = self.output.write_all(&self.out);
        self.out.clear();
        if written.is_ok() {
            self.stats.frames_out += self.queued;
        }
        self.queued = 0;
        written
    }

    fn error(&mut self, code: ErrCode, detail: u64) {
        self.stats.errors += 1;
        self.send(&Frame::Error {
            code: code as u8,
            detail,
        });
    }

    /// Attaches this connection to `session`; `Ok(false)` when another
    /// live connection holds it — attachment is exclusive.
    fn attach(&mut self, session: u64) -> Result<bool, SessionError> {
        let attached = self
            .server
            .sessions()
            .with_delivery(session, |d| !std::mem::replace(&mut d.attached, true))?;
        if attached {
            self.session = Some(session);
        }
        Ok(attached)
    }

    /// Handles one frame; `false` ends the connection.
    fn handle(&mut self, frame: Frame) -> bool {
        let server = self.server;
        match frame {
            Frame::Hello { version } => {
                if version != crate::codec::PROTOCOL_VERSION {
                    self.error(ErrCode::BadVersion, u64::from(version));
                    return false;
                }
                if self.session.is_some() {
                    self.error(ErrCode::AlreadyConnected, 0);
                    return true;
                }
                let (session, token) = server.connect_with_token();
                // Only a peer already holding the fresh token could have
                // attached first.
                if self.attach(session) == Ok(true) {
                    self.send(&Frame::Welcome { session, token });
                } else {
                    self.error(ErrCode::SessionBusy, session);
                }
                true
            }
            Frame::Resume { token } => {
                if self.session.is_some() {
                    self.error(ErrCode::AlreadyConnected, 0);
                    return true;
                }
                // RESUME binds this connection to the session's *existing*
                // delivery state, unacked credit intact.
                match server.sessions().resume(token) {
                    Ok(info) => match self.attach(info.session) {
                        Ok(true) => self.send(&Frame::Resumed {
                            session: info.session,
                            retained_coeffs: info.retained_coeffs as u64,
                            retained_objects: info.retained_objects as u64,
                        }),
                        Ok(false) => self.error(ErrCode::SessionBusy, info.session),
                        // Released since the token look-up: the
                        // capability no longer resumes.
                        Err(_) => self.error(ErrCode::UnknownToken, token),
                    },
                    Err(SessionError::UnknownToken(t)) => self.error(ErrCode::UnknownToken, t),
                    Err(SessionError::UnknownSession(s)) => self.error(ErrCode::UnknownSession, s),
                }
                true
            }
            Frame::Query { regions } => {
                self.query(&regions);
                true
            }
            Frame::Ack { bytes } => {
                let Some(session) = self.session else {
                    self.error(ErrCode::NotConnected, 0);
                    return true;
                };
                // Hostile acks (NaN, negative, over-credit) cannot drive
                // the ledger negative.
                if bytes.is_finite() && bytes > 0.0 {
                    let _ = server.sessions().with_delivery(session, |d| {
                        d.unacked = (d.unacked - bytes).max(0.0);
                    });
                }
                true
            }
            Frame::Bye => {
                if let Some(session) = self.session.take() {
                    // The session may already be gone if the peer BYEs
                    // twice in a pipelined burst; releasing is idempotent
                    // from the connection's point of view. Its filter,
                    // token and ledger go in one call.
                    let _ = server.disconnect(session);
                }
                self.send(&Frame::Bye);
                false
            }
            // Server-role frames arriving at the server are out of role.
            f @ (Frame::Welcome { .. }
            | Frame::Result { .. }
            | Frame::Resumed { .. }
            | Frame::Overload { .. }
            | Frame::Error { .. }) => {
                self.error(ErrCode::Malformed, u64::from(f.opcode()));
                true
            }
        }
    }

    /// Answers a `QUERY` for the attached session: admission, the query,
    /// the ledger charge and the `RESULT`.
    fn query(&mut self, regions: &[QueryRegion]) {
        let Some(session) = self.session else {
            self.error(ErrCode::NotConnected, 0);
            return;
        };
        if !self.admit(session) {
            return;
        }
        let sessions = self.server.sessions();
        match self.server.query(session, regions) {
            Ok(r) => {
                let _ = sessions.with_delivery(session, |d| d.unacked += r.bytes);
                self.send(&Frame::Result {
                    coeffs: r.coeffs as u64,
                    new_objects: r.new_objects as u64,
                    bytes: r.bytes,
                    io: r.io,
                });
            }
            Err(SessionError::UnknownSession(s)) => self.error(ErrCode::UnknownSession, s),
            Err(SessionError::UnknownToken(t)) => self.error(ErrCode::UnknownToken, t),
        }
    }

    /// Admission check: refuses with `OVERLOAD` when the session's
    /// unacked payload ledger has reached the cap. Checked *before*
    /// executing the query, so a refusal leaves the session filter
    /// untouched. The ledger lives with the session, not the connection:
    /// dropping the socket and resuming does not reset it.
    fn admit(&mut self, session: u64) -> bool {
        let outstanding = self
            .server
            .sessions()
            .with_delivery(session, |d| d.unacked)
            .unwrap_or(0.0);
        if outstanding >= self.cap {
            self.stats.overloads += 1;
            self.send(&Frame::Overload {
                outstanding,
                cap: self.cap,
            });
            return false;
        }
        true
    }
}

/// The connection loop on a scripted in-memory transport: no sockets, no
/// timing. Every run also checks the flush-before-block invariant — the
/// transport asserts, each time `read` is entered, that every whole
/// request delivered so far already has its reply written.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, PROTOCOL_VERSION};
    use mar_bench::serve::serve_scene;
    use mar_core::{Delivery, QueryRegion, SceneIndexData, ServerCore, WaveletIndex};
    use mar_geom::{Point2, Rect2};
    use mar_mesh::ResolutionBand;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::sync::OnceLock;

    const ACK: u8 = 8;

    /// A fresh server (session ids restart at 0, tokens are seeded) over
    /// one shared tiny scene, so two runs of a script answer byte-equal.
    fn fresh_server() -> (Server, Rect2) {
        static CORE: OnceLock<(ServerCore, Rect2)> = OnceLock::new();
        let (core, space) = CORE.get_or_init(|| {
            let scene = serve_scene(8, 2);
            let data = SceneIndexData::build(&scene);
            let index = WaveletIndex::build_jobs(&data, 1);
            let core = ServerCore::from_parts(Arc::new(data), Arc::new(index));
            (core, scene.config.space)
        });
        (Server::from_core_seeded(core.clone(), 7), *space)
    }

    /// The `i`-th of a row of overlapping windows sliding across `space`.
    fn window(space: &Rect2, i: usize) -> Rect2 {
        let w = (space.hi[0] - space.lo[0]) / 6.0;
        let x = space.lo[0] + w * 0.5 * (i % 10) as f64;
        Rect2 {
            lo: Point2::new([x, space.lo[1]]),
            hi: Point2::new([x + w, space.hi[1]]),
        }
    }

    fn query(space: &Rect2, i: usize) -> Frame {
        Frame::Query {
            regions: vec![QueryRegion {
                region: window(space, i),
                band: ResolutionBand::FULL,
            }],
        }
    }

    fn hello() -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION,
        }
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|f| encode(f).expect("test frames fit"))
            .collect()
    }

    /// The whole frames at the front of `bytes`.
    fn frames(bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while let Some(p) = rest.get(..4) {
            let len = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
            let Some(payload) = rest.get(4..4 + len) else {
                break;
            };
            out.push(crate::codec::decode(payload).expect("test frames decode"));
            rest = &rest[4 + len..];
        }
        out
    }

    fn opcodes(bytes: &[u8]) -> Vec<u8> {
        frames(bytes).iter().map(Frame::opcode).collect()
    }

    #[derive(Default)]
    struct Wire {
        /// What each successive `read` delivers (never empty chunks).
        chunks: VecDeque<Vec<u8>>,
        delivered: Vec<u8>,
        written: Vec<u8>,
        /// Size of each `write` the daemon made.
        writes: Vec<usize>,
        write_fails: bool,
        /// The `read` after the last chunk panics instead of reporting EOF.
        read_panics: bool,
    }

    #[derive(Clone, Default)]
    struct Transport(Rc<RefCell<Wire>>);

    impl Read for Transport {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut w = self.0.borrow_mut();
            // In these scripts every request but ACK draws exactly one reply.
            let owed = opcodes(&w.delivered)
                .iter()
                .filter(|&&op| op != ACK)
                .count();
            assert_eq!(
                opcodes(&w.written).len(),
                owed,
                "read entered with replies still queued (or sent early)"
            );
            let Some(mut chunk) = w.chunks.pop_front() else {
                assert!(!w.read_panics, "the transport's read panics");
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                w.chunks.push_front(chunk.split_off(n));
            }
            w.delivered.extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }

    impl Write for Transport {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut w = self.0.borrow_mut();
            if w.write_fails {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            w.written.extend_from_slice(buf);
            w.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `chunks` as one connection to `server`; returns what the
    /// daemon wrote.
    fn run_on(server: &Server, chunks: Vec<Vec<u8>>, cap: f64) -> (Wire, DaemonStats) {
        let transport = Transport::default();
        transport.0.borrow_mut().chunks = chunks.into();
        let stats = serve_conn(server, transport.clone(), transport.clone(), cap);
        (transport.0.take(), stats)
    }

    /// [`run_on`] a fresh server.
    fn run(chunks: Vec<Vec<u8>>, cap: f64) -> (Wire, DaemonStats) {
        run_on(&fresh_server().0, chunks, cap)
    }

    #[test]
    fn a_burst_delivered_in_one_read_is_answered_in_one_write() {
        let (reference, space) = fresh_server();
        let mut script = vec![hello()];
        script.extend((0..8).map(|i| query(&space, i)));

        // Today's wire: one `encode` per reply, in request order.
        let (session, token) = reference.connect_with_token();
        let mut expected = vec![Frame::Welcome { session, token }];
        for frame in &script[1..] {
            let Frame::Query { regions } = frame else {
                unreachable!()
            };
            let r = reference.query(session, regions).expect("live session");
            expected.push(Frame::Result {
                coeffs: r.coeffs as u64,
                new_objects: r.new_objects as u64,
                bytes: r.bytes,
                io: r.io,
            });
        }

        let (w, stats) = run(vec![wire(&script)], f64::INFINITY);
        assert_eq!(w.written, wire(&expected));
        assert_eq!(w.writes.len(), 1, "WELCOME + 8 RESULTs in one write");
        assert!(opcodes(&w.written).len() == 9 && stats.frames_out == 9);
        assert_eq!((stats.frames_in, stats.socket_writes), (9, 1));
        assert_eq!(stats.socket_reads, 2, "the burst, then EOF");
    }

    #[test]
    fn a_frame_split_at_any_offset_is_answered_once_it_completes() {
        let (_, space) = fresh_server();
        let q = wire(&[query(&space, 3)]);
        let (whole, _) = run(vec![wire(&[hello()]), q.clone()], f64::INFINITY);
        assert_eq!(opcodes(&whole.written), [2, 5]);
        for cut in 1..q.len() {
            // The transport's read-entry assertion is the "no reply before
            // the frame completes" half of this test.
            let chunks = vec![wire(&[hello()]), q[..cut].to_vec(), q[cut..].to_vec()];
            let (split, stats) = run(chunks, f64::INFINITY);
            assert_eq!(split.written, whole.written, "cut at {cut}");
            assert_eq!(split.writes.len(), 2, "cut at {cut}");
            assert_eq!(stats.socket_reads, 4, "cut at {cut}");
        }
    }

    #[test]
    fn a_failed_write_ends_the_connection_before_the_next_burst() {
        let (server, space) = fresh_server();
        let queries: Vec<Frame> = (0..8).map(|i| query(&space, i)).collect();
        let mut first = vec![hello()];
        first.extend_from_slice(&queries[..3]);

        let (reference, _) = fresh_server();
        let session = reference.connect();
        let mut unacked = 0.0;
        for frame in &queries[..3] {
            let Frame::Query { regions } = frame else {
                unreachable!()
            };
            unacked += reference.query(session, regions).expect("live").bytes;
        }

        let transport = Transport::default();
        {
            let mut w = transport.0.borrow_mut();
            w.chunks = vec![wire(&first), wire(&queries[3..])].into();
            w.write_fails = true;
        }
        let stats = serve_conn(&server, transport.clone(), transport.clone(), f64::INFINITY);

        let w = transport.0.take();
        assert_eq!(w.chunks.len(), 1, "the second burst was never read");
        assert_eq!((stats.frames_in, stats.frames_out), (4, 0));
        // Only the first burst reached the session filter …
        assert_eq!(
            server.sessions().session_sent(session),
            reference.sessions().session_sent(session)
        );
        // … and the session is as after any transport drop: live,
        // detached, its unacked credit still on the ledger.
        assert_eq!(server.sessions().session_count(), 1);
        assert_eq!(
            server.sessions().with_delivery(session, |d| *d),
            Ok(Delivery {
                unacked,
                attached: false
            })
        );
        assert!(unacked > 0.0, "the comparison is not vacuous");
    }

    #[test]
    fn a_connection_thread_that_panics_leaves_its_session_resumable() {
        let (server, _) = fresh_server();
        let transport = Transport::default();
        {
            let mut w = transport.0.borrow_mut();
            w.chunks = vec![wire(&[hello()])].into();
            w.read_panics = true;
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_conn(&server, transport.clone(), transport.clone(), f64::INFINITY)
        }));
        assert!(panicked.is_err(), "the read after HELLO panics");
        let [Frame::Welcome { session, token }] = frames(&transport.0.take().written)[..] else {
            panic!("HELLO was answered before the panic");
        };
        let (w, stats) = run_on(&server, vec![wire(&[Frame::Resume { token }])], 0.0);
        assert_eq!(
            frames(&w.written),
            [Frame::Resumed {
                session,
                retained_coeffs: 0,
                retained_objects: 0
            }]
        );
        assert_eq!(stats.errors, 0, "not SessionBusy");
    }

    #[test]
    fn a_zero_connection_bound_accepts_nobody() {
        // No client ever connects: a loop that tested the bound only
        // after an accept would block here forever.
        let (server, _) = fresh_server();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
        let cfg = DaemonConfig {
            max_conns: Some(0),
            ..Default::default()
        };
        let stats = spawn_daemon(Arc::new(server), listener, cfg)
            .expect("spawn daemon")
            .join();
        assert_eq!(stats.connections, 0);
    }

    /// One post-`HELLO` request of a generated script.
    fn request(space: Rect2) -> impl Strategy<Value = Frame> {
        prop_oneof![
            4 => (0usize..10).prop_map(move |i| query(&space, i)),
            2 => (0.0f64..4096.0).prop_map(|bytes| Frame::Ack { bytes }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the transport chunks a valid script, the reply stream
        /// is the unchunked one — OVERLOAD refusals (the cap is small
        /// enough to bite) included.
        #[test]
        fn replies_do_not_depend_on_how_the_script_is_chunked(
            requests in prop::collection::vec(request(fresh_server().1), 0..24),
            bye in 0u8..2,
            cuts in prop::collection::vec(1usize..160, 1..12),
        ) {
            let mut script = vec![hello()];
            script.extend(requests);
            if bye == 1 {
                script.push(Frame::Bye);
            }
            let bytes = wire(&script);
            let mut chunks = Vec::new();
            let mut rest = bytes.as_slice();
            for cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at((*cut).min(rest.len()));
                chunks.push(chunk.to_vec());
                rest = tail;
            }
            let cap = 2048.0;
            let (whole, whole_stats) = run(vec![bytes.clone()], cap);
            let (chunked, stats) = run(chunks, cap);
            prop_assert_eq!(&chunked.written, &whole.written);
            prop_assert_eq!(whole.writes.len(), 1);
            prop_assert_eq!(stats.frames_in, script.len() as u64);
            prop_assert_eq!(stats.frames_out, whole_stats.frames_out);
            prop_assert_eq!(stats.overloads, whole_stats.overloads);
        }
    }

    /// One step of a generated connection script.
    #[derive(Debug, Clone)]
    enum Step {
        Hello,
        /// `RESUME` with the `k`-th token minted so far (mod their count).
        Resume(usize),
        Query(usize),
        Ack(f64),
        Bye,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            2 => Just(Step::Hello),
            2 => (0usize..64).prop_map(Step::Resume),
            5 => (0usize..10).prop_map(Step::Query),
            3 => (0.0f64..4096.0).prop_map(Step::Ack),
            1 => Just(Step::Bye),
        ]
    }

    /// A live session of the [`Model`].
    struct Live {
        session: u64,
        token: u64,
        unacked: f64,
    }

    /// The reference model of the session table as the wire sees it:
    /// every token minted, and the live sessions in connect order.
    /// Between connections no session is attached.
    #[derive(Default)]
    struct Model {
        tokens: Vec<u64>,
        live: Vec<Live>,
    }

    impl Model {
        fn session_of(&self, token: u64) -> Option<u64> {
            self.live
                .iter()
                .find(|l| l.token == token)
                .map(|l| l.session)
        }

        fn unacked(&mut self, session: u64) -> &mut f64 {
            let live = self.live.iter_mut().find(|l| l.session == session);
            &mut live.expect("a bound session is live").unacked
        }

        /// The frames a script sends, up to and including its first
        /// `BYE`. An `ACK` while no session is bound is left out: it is
        /// the one request whose reply (none, or `ERROR`) depends on that.
        fn frames(&self, space: &Rect2, script: &[Step]) -> Vec<Frame> {
            let mut bound = false;
            let mut out = Vec::new();
            for step in script {
                out.push(match *step {
                    Step::Hello => {
                        bound = true;
                        hello()
                    }
                    Step::Resume(k) => {
                        let token = match self.tokens.len() {
                            0 => 0,
                            n => self.tokens[k % n],
                        };
                        bound |= self.session_of(token).is_some();
                        Frame::Resume { token }
                    }
                    Step::Query(i) => query(space, i),
                    Step::Ack(_) if !bound => continue,
                    Step::Ack(bytes) => Frame::Ack { bytes },
                    Step::Bye => {
                        out.push(Frame::Bye);
                        break;
                    }
                });
            }
            out
        }

        /// Walks one connection's requests against the daemon's replies,
        /// advancing the model.
        fn apply(
            &mut self,
            sent: &[Frame],
            replies: &[Frame],
            cap: f64,
        ) -> Result<(), TestCaseError> {
            let code = |c: ErrCode, detail: u64| Frame::Error {
                code: c as u8,
                detail,
            };
            let unexpected =
                |reply: &Option<Frame>| TestCaseError::Fail(format!("unexpected reply {reply:?}"));
            let mut replies = replies.iter();
            let mut bound: Option<u64> = None;
            for request in sent {
                if let Frame::Ack { bytes } = *request {
                    let session = bound.expect("ACKs are sent only while bound");
                    let unacked = self.unacked(session);
                    if bytes > 0.0 {
                        *unacked = (*unacked - bytes).max(0.0);
                    }
                    continue;
                }
                let reply = replies.next().cloned();
                match (request, bound) {
                    (Frame::Hello { .. }, Some(_)) | (Frame::Resume { .. }, Some(_)) => {
                        prop_assert_eq!(reply, Some(code(ErrCode::AlreadyConnected, 0)));
                    }
                    (Frame::Hello { .. }, None) => {
                        let Some(Frame::Welcome { session, token }) = reply else {
                            return Err(unexpected(&reply));
                        };
                        prop_assert!(self.live.iter().all(|l| l.session != session));
                        self.tokens.push(token);
                        self.live.push(Live {
                            session,
                            token,
                            unacked: 0.0,
                        });
                        bound = Some(session);
                    }
                    (&Frame::Resume { token }, None) => match self.session_of(token) {
                        Some(session) => {
                            let Some(Frame::Resumed { session: s, .. }) = reply else {
                                return Err(unexpected(&reply));
                            };
                            prop_assert_eq!(s, session);
                            bound = Some(session);
                        }
                        None => prop_assert_eq!(reply, Some(code(ErrCode::UnknownToken, token))),
                    },
                    (Frame::Query { .. }, None) => {
                        prop_assert_eq!(reply, Some(code(ErrCode::NotConnected, 0)));
                    }
                    (Frame::Query { .. }, Some(session)) => {
                        let unacked = self.unacked(session);
                        if *unacked >= cap {
                            let outstanding = *unacked;
                            prop_assert_eq!(reply, Some(Frame::Overload { outstanding, cap }));
                        } else {
                            let Some(Frame::Result { bytes, .. }) = reply else {
                                return Err(unexpected(&reply));
                            };
                            *unacked += bytes;
                        }
                    }
                    (Frame::Bye, _) => {
                        prop_assert_eq!(reply, Some(Frame::Bye));
                        if let Some(session) = bound {
                            self.live.retain(|l| l.session != session);
                        }
                    }
                    (other, _) => unreachable!("scripts never send {other:?}"),
                }
            }
            prop_assert_eq!(replies.next(), None);
            Ok(())
        }

        /// The invariants that hold after every connection.
        fn check(&self, server: &Server) -> Result<(), TestCaseError> {
            let sessions = server.sessions();
            prop_assert_eq!(sessions.session_count(), self.live.len());
            for l in &self.live {
                let (unacked, attached) = (l.unacked, false);
                prop_assert_eq!(
                    sessions.with_delivery(l.session, |d| *d),
                    Ok(Delivery { unacked, attached })
                );
            }
            if self.live.is_empty() {
                prop_assert_eq!(sessions.resident_filter_entries(), 0);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Connections one after another over one server, each a random
        /// mix of HELLO, RESUME of an earlier token, QUERY, ACK, BYE and
        /// drop, agree with the model after every connection: the live
        /// sessions are the model's, none is left attached, and each
        /// one's unacked credit is what its RESULTs and ACKs leave. Then
        /// every session says BYE, and no filter entry is left behind.
        #[test]
        fn the_session_table_follows_the_wire_model(
            scripts in prop::collection::vec(prop::collection::vec(step(), 1..12), 1..10),
        ) {
            let (server, space) = fresh_server();
            let cap = 2048.0;
            let mut model = Model::default();
            for script in &scripts {
                let sent = model.frames(&space, script);
                let (w, _) = run_on(&server, vec![wire(&sent)], cap);
                model.apply(&sent, &frames(&w.written), cap)?;
                model.check(&server)?;
            }
            let tokens: Vec<u64> = model.live.iter().map(|l| l.token).collect();
            for token in tokens {
                let sent = [Frame::Resume { token }, Frame::Bye];
                let (w, _) = run_on(&server, vec![wire(&sent)], cap);
                model.apply(&sent, &frames(&w.written), cap)?;
                model.check(&server)?;
            }
            prop_assert!(model.live.is_empty());
        }
    }
}
