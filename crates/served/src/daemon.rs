//! `mar-served` — the thread-per-connection TCP daemon (DESIGN.md §12.2).
//!
//! Every accepted connection gets its own thread over one shared
//! [`Server`] — the core is lock-free for queries and 16-way striped for
//! session state, so connection threads never serialize on each other.
//!
//! **Backpressure is explicit and deterministic.** Each *session* (not
//! each connection) carries a ledger of payload bytes served but not yet
//! `ACK`ed (credit-based flow control, independent of OS socket
//! buffering). The ledger lives in daemon-shared state keyed by session
//! id, so it **survives transport drops**: a client cannot zero its debt
//! by dropping the socket and `RESUME`ing on a fresh connection. A
//! `QUERY`/`BLOCK` that arrives while `outstanding >= cap` is refused
//! with a typed `OVERLOAD` frame *before* touching the session filter, so
//! a refused query is exactly-once safe to retry. Because admission is
//! checked before execution, one query may overshoot the cap — which
//! also means a client that acks every `RESULT` can never be refused.
//!
//! **Transport drops are not session drops.** A connection that
//! disappears without `BYE` leaves its session (and server-side filter)
//! live; the client re-attaches on a fresh connection with `RESUME` and
//! the unguessable token from `WELCOME`. Only `BYE` releases the session.
//! Attachment is exclusive: while one connection drives a session, a
//! `RESUME` for it — even with the valid token — is refused with
//! `ERROR(SessionBusy)`, so two connections can never interleave frames
//! against one filter/ledger.

use crate::codec::{read_frame, write_frame, DecodeError, ErrCode, Frame, WireError};
use mar_core::{Server, SessionError};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Default per-session outbox capacity: unacked payload bytes a session
/// may have in flight before `QUERY`/`BLOCK` admission returns `OVERLOAD`.
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
}

impl DaemonStats {
    fn absorb(&mut self, conn: &DaemonStats) {
        self.frames_in += conn.frames_in;
        self.frames_out += conn.frames_out;
        self.overloads += conn.overloads;
        self.errors += conn.errors;
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

/// Per-session wire state shared across connections. Unlike `Conn` it
/// survives a transport drop: the unacked-credit ledger follows the
/// *session*, and `attached` makes attachment exclusive. Created by
/// `HELLO`, released by `BYE`.
#[derive(Debug, Clone, Copy, Default)]
struct WireSession {
    /// Served-but-unacked payload bytes (the `OVERLOAD` credit ledger).
    outstanding: f64,
    /// Whether a live connection currently drives this session.
    attached: bool,
}

/// Session id → wire state. A `BTreeMap` for the workspace determinism
/// discipline (D001); it is keyed-access only, never iterated.
type Ledgers = Mutex<BTreeMap<u64, WireSession>>;

fn accept_loop(server: &Arc<Server>, listener: &TcpListener, cfg: DaemonConfig) -> DaemonStats {
    let mut stats = DaemonStats::default();
    let mut workers: Vec<JoinHandle<DaemonStats>> = Vec::new();
    let ledgers: Arc<Ledgers> = Arc::new(Mutex::new(BTreeMap::new()));
    for conn in listener.incoming() {
        let Ok(stream) = conn else {
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
        let ledgers_for_conn = Arc::clone(&ledgers);
        let cap = cfg.outbox_cap;
        let spawned = std::thread::Builder::new()
            .name(format!("mar-served-conn-{}", stats.connections))
            .spawn(move || serve_conn(&server, &ledgers_for_conn, stream, cap));
        if let Ok(h) = spawned {
            workers.push(h);
        }
        if cfg.max_conns.is_some_and(|m| stats.connections >= m as u64) {
            break;
        }
    }
    for h in workers {
        if let Ok(conn) = h.join() {
            stats.absorb(&conn);
        }
    }
    stats
}

/// Per-connection protocol state machine. Returns this connection's
/// share of the daemon stats; every exit path leaves the shared server
/// consistent (a dropped connection keeps its session resumable, and
/// detaches it so a later `RESUME` can bind).
fn serve_conn(server: &Server, ledgers: &Ledgers, stream: TcpStream, cap: f64) -> DaemonStats {
    let mut stats = DaemonStats::default();
    // Request/response protocol: without NODELAY every reply would sit
    // out a delayed-ack window.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return stats;
    };
    let mut reader = BufReader::new(stream);
    let mut conn = Conn {
        writer: write_half,
        session: None,
        ledgers,
        cap,
        stats: &mut stats,
    };
    loop {
        match read_frame(&mut reader) {
            // Clean close at a frame boundary: the session (if any)
            // stays live for RESUME on a later connection.
            Ok(None) => break,
            Ok(Some(frame)) => {
                conn.stats.frames_in += 1;
                if !conn.handle(server, frame) {
                    break;
                }
            }
            // The framing is still intact after an unknown opcode (the
            // length prefix was honoured), so report and keep serving.
            Err(WireError::Decode(DecodeError::UnknownOpcode(op))) => {
                conn.error(ErrCode::UnknownOpcode, u64::from(op));
            }
            // Any other decode failure means the stream can no longer be
            // re-synchronised: report best-effort and close.
            Err(WireError::Decode(e)) => {
                conn.error(ErrCode::Malformed, decode_detail(&e));
                break;
            }
            // Transport failure or mid-frame disconnect: nothing to send.
            Err(WireError::Io(_) | WireError::Disconnected { .. }) => break,
        }
    }
    // Transport drop without BYE: detach so a later RESUME can bind, but
    // keep the ledger entry — the unacked credit must survive the
    // reconnect (dropping the socket is not a way to zero one's debt).
    if let Some(session) = conn.session {
        // mar-lint: allow(D004) — poisoning implies another connection thread panicked; propagate
        let mut map = ledgers.lock().expect("wire-session ledger poisoned");
        if let Some(ws) = map.get_mut(&session) {
            ws.attached = false;
        }
    }
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

struct Conn<'a> {
    writer: TcpStream,
    session: Option<u64>,
    ledgers: &'a Ledgers,
    cap: f64,
    stats: &'a mut DaemonStats,
}

impl Conn<'_> {
    /// Sends `frame`; a send failure is treated like a disconnect (the
    /// read loop will observe it next iteration at the latest).
    fn send(&mut self, frame: &Frame) {
        if write_frame(&mut self.writer, frame).is_ok() {
            self.stats.frames_out += 1;
        }
    }

    fn error(&mut self, code: ErrCode, detail: u64) {
        self.stats.errors += 1;
        self.send(&Frame::Error {
            code: code as u8,
            detail,
        });
    }

    /// Runs `f` on the session's shared wire state (no-op when the
    /// session has no ledger entry, which only a daemon bug could cause).
    fn with_ledger<T>(&self, session: u64, f: impl FnOnce(&mut WireSession) -> T) -> Option<T> {
        // mar-lint: allow(D004) — poisoning implies another connection thread panicked; propagate
        let mut map = self.ledgers.lock().expect("wire-session ledger poisoned");
        map.get_mut(&session).map(f)
    }

    /// Handles one frame; `false` ends the connection.
    fn handle(&mut self, server: &Server, frame: Frame) -> bool {
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
                {
                    // mar-lint: allow(D004) — poisoning implies another connection thread panicked; propagate
                    let mut map = self.ledgers.lock().expect("wire-session ledger poisoned");
                    map.insert(
                        session,
                        WireSession {
                            outstanding: 0.0,
                            attached: true,
                        },
                    );
                }
                self.session = Some(session);
                self.send(&Frame::Welcome { session, token });
                true
            }
            Frame::Resume { token } => {
                if self.session.is_some() {
                    self.error(ErrCode::AlreadyConnected, 0);
                    return true;
                }
                match server.sessions().resume(token) {
                    Ok(info) => {
                        // Attachment is exclusive and the ledger survives
                        // the reconnect: RESUME binds this connection to
                        // the session's *existing* wire state (unacked
                        // credit intact), and is refused while another
                        // live connection holds it.
                        let attached = {
                            let mut map = self
                                .ledgers
                                .lock()
                                // mar-lint: allow(D004) — poisoning implies another connection thread panicked; propagate
                                .expect("wire-session ledger poisoned");
                            let ws = map.entry(info.session).or_default();
                            if ws.attached {
                                false
                            } else {
                                ws.attached = true;
                                true
                            }
                        };
                        if !attached {
                            self.error(ErrCode::SessionBusy, info.session);
                            return true;
                        }
                        self.session = Some(info.session);
                        self.send(&Frame::Resumed {
                            session: info.session,
                            retained_coeffs: info.retained_coeffs as u64,
                            retained_objects: info.retained_objects as u64,
                        });
                    }
                    Err(SessionError::UnknownToken(t)) => self.error(ErrCode::UnknownToken, t),
                    Err(SessionError::UnknownSession(s)) => self.error(ErrCode::UnknownSession, s),
                }
                true
            }
            Frame::Query { regions } => {
                let Some(session) = self.session else {
                    self.error(ErrCode::NotConnected, 0);
                    return true;
                };
                if !self.admit(session) {
                    return true;
                }
                match server.query(session, &regions) {
                    Ok(r) => {
                        self.with_ledger(session, |ws| ws.outstanding += r.bytes);
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
                true
            }
            Frame::Block { region, band } => {
                let Some(session) = self.session else {
                    self.error(ErrCode::NotConnected, 0);
                    return true;
                };
                if !self.admit(session) {
                    return true;
                }
                match server.fetch_block(session, &region, band) {
                    Ok(r) => {
                        self.with_ledger(session, |ws| ws.outstanding += r.bytes);
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
                    self.with_ledger(session, |ws| {
                        ws.outstanding = (ws.outstanding - bytes).max(0.0);
                    });
                }
                true
            }
            Frame::Bye => {
                if let Some(session) = self.session.take() {
                    // The session may already be gone if the peer BYEs
                    // twice in a pipelined burst; releasing is idempotent
                    // from the connection's point of view.
                    let _ = server.disconnect(session);
                    // BYE (unlike a transport drop) ends the session for
                    // good, so its wire state goes with it.
                    // mar-lint: allow(D004) — poisoning implies another connection thread panicked; propagate
                    let mut map = self.ledgers.lock().expect("wire-session ledger poisoned");
                    map.remove(&session);
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

    /// Admission check: refuses with `OVERLOAD` when the session's
    /// unacked payload ledger has reached the cap. Checked *before*
    /// executing the query, so a refusal leaves the session filter
    /// untouched. The ledger lives with the session, not the connection:
    /// dropping the socket and resuming does not reset it.
    fn admit(&mut self, session: u64) -> bool {
        let outstanding = self
            .with_ledger(session, |ws| ws.outstanding)
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
