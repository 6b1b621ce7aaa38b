//! End-to-end loopback contract (DESIGN.md §12.4): a real `mar-served`
//! daemon on 127.0.0.1 must be **unobservable** relative to the
//! in-process harness — same transcript bytes, same fingerprint — and
//! must enforce the protocol's security and backpressure semantics.

use mar_bench::report::render;
use mar_bench::serve::{fnv1a64, run_serve, serve_scene, ServeConfig};
use mar_core::{
    FleetConfig, FleetHealth, QueryRegion, Residence, SceneIndexData, Server, ServerCore,
    WaveletIndex,
};
use mar_mesh::ResolutionBand;
use mar_served::{
    run_wire_replay, spawn_daemon, ClientError, DaemonConfig, DaemonHandle, ErrCode, Frame,
    QueryReply, WireClient,
};
use std::net::TcpListener;
use std::sync::Arc;

fn tiny_cfg() -> ServeConfig {
    ServeConfig {
        sessions: 3,
        ticks: 12,
        objects: 8,
        levels: 2,
        frame_frac: 0.15,
        jobs: 1,
    }
}

/// Boots a daemon serving the scene for `cfg` on an ephemeral loopback
/// port; the daemon exits after `max_conns` connections.
fn boot(cfg: &ServeConfig, daemon_cfg: DaemonConfig) -> (DaemonHandle, Arc<Server>) {
    let scene = serve_scene(cfg.objects, cfg.levels);
    let data = SceneIndexData::build(&scene);
    let index = WaveletIndex::build_jobs(&data, 1);
    let server = Arc::new(Server::from_core(ServerCore::from_parts(
        Arc::new(data),
        Arc::new(index),
    )));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let handle = spawn_daemon(Arc::clone(&server), listener, daemon_cfg).expect("spawn daemon");
    (handle, server)
}

fn whole_space_full(cfg: &ServeConfig) -> Vec<QueryRegion> {
    vec![QueryRegion {
        region: serve_scene(cfg.objects, cfg.levels).config.space,
        band: ResolutionBand::FULL,
    }]
}

/// Resumes `token`, retrying briefly while the daemon still considers
/// the session attached: after a transport drop the connection thread
/// detaches only once it observes EOF, so an immediate RESUME can race
/// it and be refused with `SessionBusy`.
fn resume_when_free(
    addr: std::net::SocketAddr,
    token: u64,
) -> Result<(WireClient, u64, u64), ClientError> {
    for _ in 0..200 {
        match WireClient::resume(addr, token) {
            Err(ClientError::Server {
                code: Some(ErrCode::SessionBusy),
                ..
            }) => std::thread::sleep(std::time::Duration::from_millis(5)),
            other => return other,
        }
    }
    WireClient::resume(addr, token)
}

#[test]
fn wire_transcript_is_byte_identical_to_in_process() {
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: Some(cfg.sessions),
            ..DaemonConfig::default()
        },
    );
    let wire = run_wire_replay(handle.addr, &cfg, 1).expect("wire replay");
    let stats = handle.join();

    let reference = run_serve(&cfg, &Residence::Ram);
    let (w, r) = (&wire.transcript, &reference.transcript);
    assert_eq!(
        w.text, r.text,
        "the wire layer must be unobservable in the transcript"
    );
    assert_eq!(fnv1a64(&w.text), fnv1a64(&r.text));
    assert_eq!(w.bytes, r.bytes, "payload accounting bit-exact");
    assert_eq!(w.coeffs, r.coeffs);
    assert_eq!(w.io, r.io);
    assert!(w.bytes > 0.0, "the comparison is not vacuous");
    assert!(
        wire.wire_bytes > 0,
        "frames actually crossed the loopback socket"
    );
    assert_eq!(stats.connections as usize, cfg.sessions);
    assert_eq!(stats.overloads, 0, "an acking replay is never refused");
    assert_eq!(stats.errors, 0);
    // BYE released every session.
    assert_eq!(server.sessions().session_count(), 0);
    assert_eq!(server.sessions().resident_filter_entries(), 0);
}

#[test]
fn wire_bytes_counts_every_frame_in_both_directions() {
    // The received half comes off each frame's length prefix; it must be
    // what re-encoding the frame would have said (the codec is canonical).
    let cfg = tiny_cfg();
    let (handle, _server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: Some(1),
            ..DaemonConfig::default()
        },
    );
    let mut client = WireClient::connect(handle.addr).expect("handshake");
    let regions = whole_space_full(&cfg);
    let QueryReply::Served(r) = client.query(&regions).expect("query") else {
        panic!("an acking client is never refused");
    };
    assert!(r.bytes > 0.0, "the first frame sends data, so it is acked");
    let frames = [
        Frame::Hello {
            version: mar_served::PROTOCOL_VERSION,
        },
        Frame::Welcome {
            session: client.session(),
            token: client.token(),
        },
        Frame::Query { regions },
        Frame::Result {
            coeffs: r.coeffs,
            new_objects: r.new_objects,
            bytes: r.bytes,
            io: r.io,
        },
        Frame::Ack { bytes: r.bytes },
        Frame::Bye,
        Frame::Bye,
    ];
    let want: u64 = frames
        .iter()
        .map(|f| mar_served::encode(f).expect("small frame").len() as u64)
        .sum();
    assert_eq!(client.bye().expect("bye"), want);
    handle.join();
}

#[test]
fn pipelined_replay_transcript_is_depth_invariant() {
    // The FIFO pipeline drains replies in issue order, so every depth —
    // including depths beyond the session count, which clamp — must
    // produce the synchronous replay's exact transcript bytes, and the
    // daemon must never refuse admission (in-flight queries are always
    // on distinct sessions, each with at most one unacked RESULT).
    let cfg = tiny_cfg();
    let reference = run_serve(&cfg, &Residence::Ram);
    let mut snapshots = Vec::new();
    for depth in [1, 2, 64] {
        let (handle, server) = boot(
            &cfg,
            DaemonConfig {
                max_conns: Some(cfg.sessions),
                ..DaemonConfig::default()
            },
        );
        let wire = run_wire_replay(handle.addr, &cfg, depth).expect("pipelined replay");
        let stats = handle.join();
        assert_eq!(
            wire.transcript.text, reference.transcript.text,
            "pipeline depth {depth} must be unobservable in the transcript"
        );
        assert_eq!(wire.pipeline, depth.min(cfg.sessions));
        assert_eq!(stats.overloads, 0, "pipelined replay must never be refused");
        assert_eq!(stats.errors, 0);
        assert_eq!(server.sessions().session_count(), 0);
        // The snapshot is a value too: nothing in `BENCH_wire.json` but
        // the `pipeline` field itself may depend on the depth (or on the
        // port, or on a clock).
        let snapshot = render(&wire.snapshot("smoke", None, "skipped"));
        let depth_line = format!("\"pipeline\": {},", wire.pipeline);
        assert!(snapshot.contains(&depth_line), "{snapshot}");
        snapshots.push(snapshot.replace(&depth_line, "\"pipeline\": N,"));
    }
    assert_eq!(snapshots[0], snapshots[1], "depth 1 vs 2");
    assert_eq!(snapshots[0], snapshots[2], "depth 1 vs 3 (64, clamped)");
}

/// `n` overlapping full-resolution windows sliding across the scene.
fn sliding_windows(cfg: &ServeConfig, n: usize) -> Vec<Vec<QueryRegion>> {
    let space = serve_scene(cfg.objects, cfg.levels).config.space;
    let step = (space.hi[0] - space.lo[0]) / (n + 1) as f64;
    (0..n)
        .map(|i| {
            let mut region = space;
            region.lo[0] = space.lo[0] + step * i as f64;
            region.hi[0] = region.lo[0] + 2.0 * step;
            vec![QueryRegion {
                region,
                band: ResolutionBand::FULL,
            }]
        })
        .collect()
}

#[test]
fn a_pipelined_client_gets_the_synchronous_replies_in_fewer_socket_writes() {
    let cfg = tiny_cfg();
    let windows = sliding_windows(&cfg, 8);
    // Eight full-resolution payloads in flight on one session: lift the
    // cap, admission is not what this test is about.
    let one_conn = DaemonConfig {
        outbox_cap: f64::INFINITY,
        max_conns: Some(1),
    };

    // Depth 1: every reply is written by itself, before the daemon blocks.
    let (handle, _server) = boot(&cfg, one_conn);
    let mut client = WireClient::connect(handle.addr).expect("handshake");
    let synchronous: Vec<QueryReply> = windows
        .iter()
        .map(|w| client.query(w).expect("query"))
        .collect();
    client.bye().expect("bye");
    let stats = handle.join();
    assert_eq!(stats.frames_out, 10, "WELCOME + 8 RESULTs + BYE");
    assert_eq!(stats.socket_writes, stats.frames_out);
    assert!(synchronous
        .iter()
        .any(|r| matches!(r, QueryReply::Served(r) if r.bytes > 0.0)));

    // Depth 8: the queries only queue until `recv_result` has to wait, go
    // out in one write, and come back the same — in one write.
    let (handle, _server) = boot(&cfg, one_conn);
    let mut client = WireClient::connect(handle.addr).expect("handshake");
    for w in &windows {
        client.send_query(w).expect("queue");
    }
    let pipelined: Vec<QueryReply> = windows
        .iter()
        .map(|_| client.recv_result().expect("reply"))
        .collect();
    client.bye().expect("bye");
    let stats = handle.join();
    assert_eq!(pipelined, synchronous);
    assert_eq!(
        (stats.frames_out, stats.errors, stats.overloads),
        (10, 0, 0)
    );
    assert!(
        stats.socket_writes < stats.frames_out && stats.socket_reads < stats.frames_in,
        "a burst must share socket calls: {stats:?}"
    );
}

/// A `Server` over a 2×2 shard fleet with replicas, shard 1 down.
fn fleet_server(cfg: &ServeConfig) -> Server {
    let scene = serve_scene(cfg.objects, cfg.levels);
    let data = SceneIndexData::build(&scene);
    let fleet = FleetConfig::ram(2, 2, true);
    let index = WaveletIndex::build_fleet(&data, scene.config.space, &fleet).expect("2x2 fleet");
    let health = FleetHealth::all_up().with_down(1);
    index.fleet().expect("a fleet index").set_health(health);
    Server::from_core(ServerCore::from_parts(Arc::new(data), Arc::new(index)))
}

#[test]
fn a_fleet_behind_the_daemon_answers_like_the_in_process_fleet() {
    // The daemon serves whatever index its `Server` holds: a fleet needs
    // no code of its own, and its RESULTs are the in-process answers.
    let cfg = tiny_cfg();
    let server = Arc::new(fleet_server(&cfg));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
    let daemon_cfg = DaemonConfig {
        outbox_cap: f64::INFINITY,
        max_conns: Some(1),
    };
    let handle = spawn_daemon(Arc::clone(&server), listener, daemon_cfg).expect("spawn daemon");
    let local = fleet_server(&cfg);
    let session = local.connect();

    // Pairs of windows at a coarse band (the grouped query path), then
    // single windows at full band (the scalar path).
    let singles = sliding_windows(&cfg, 8);
    let coarse = |q: &QueryRegion| QueryRegion {
        band: ResolutionBand::new(0.3, 1.0),
        ..*q
    };
    let pairs = singles
        .windows(2)
        .map(|p| p.concat().iter().map(coarse).collect());
    let queries: Vec<Vec<QueryRegion>> = pairs.chain(singles.iter().cloned()).collect();

    let fleet = local.index().fleet().expect("a fleet index");
    let mut client = WireClient::connect(handle.addr).expect("handshake");
    let (mut promotions, mut sent) = (0, 0);
    for regions in &queries {
        for q in regions {
            promotions += fleet
                .router()
                .plan(fleet.health(), &q.region, q.band)
                .replica_promotions();
        }
        let QueryReply::Served(got) = client.query(regions).expect("query") else {
            panic!("an acking client with an unbounded outbox is never refused");
        };
        let want = local.query(session, regions).expect("live session");
        assert_eq!(
            (got.coeffs, got.new_objects, got.bytes.to_bits(), got.io),
            (
                want.coeffs as u64,
                want.new_objects as u64,
                want.bytes.to_bits(),
                want.io
            ),
            "{regions:?}"
        );
        sent += want.coeffs;
    }
    assert!(promotions > 0, "the down shard's replica must serve");
    assert!(sent > 0, "the comparison is not vacuous");
    client.bye().expect("bye");
    let stats = handle.join();
    assert_eq!((stats.errors, stats.overloads), (0, 0));
    assert_eq!(server.sessions().session_count(), 0);
}

#[test]
fn a_client_dropped_after_query_has_returned_its_credit() {
    // `query` leaves its ACK queued for the next QUERY to carry; a client
    // dropped before there is one must still flush it, or the session
    // would come back from RESUME in debt. A cap below one payload makes
    // the ledger observable: any unacked byte refuses the next query.
    let cfg = tiny_cfg();
    let (handle, _server) = boot(
        &cfg,
        DaemonConfig {
            outbox_cap: 1.0,
            max_conns: None,
        },
    );
    let whole = whole_space_full(&cfg);
    let mut client = WireClient::connect(handle.addr).expect("handshake");
    let token = client.token();
    match client.query(&whole).expect("query") {
        QueryReply::Served(r) => assert!(r.bytes > 1.0, "the payload exceeds the cap"),
        other => panic!("a fresh session is admitted: {other:?}"),
    }
    drop(client);

    let (mut client, _, _) = resume_when_free(handle.addr, token).expect("resume");
    match client.query(&whole).expect("query after resume") {
        QueryReply::Served(r) => assert_eq!(r.bytes, 0.0, "the filter was retained"),
        other => panic!("the dropped client's ACK never arrived: {other:?}"),
    }
    client.bye().expect("bye");
    // Serve-forever daemon (a RESUME retry costs a connection): drop the
    // handle instead of joining.
    drop(handle);
}

#[test]
fn resume_over_the_wire_requires_the_token_not_the_session_id() {
    let cfg = tiny_cfg();
    // Serve-forever: the SessionBusy retry below consumes a variable
    // number of connections, so no exact max_conns fits.
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: None,
            ..DaemonConfig::default()
        },
    );
    let addr = handle.addr;

    // Session 0 retrieves something, then its transport drops (no BYE).
    let mut client = WireClient::connect(addr).expect("connect");
    let session = client.session();
    let token = client.token();
    assert_ne!(token, session, "the token must not echo the session id");
    let reply = client.query(&whole_space_full(&cfg)).expect("query");
    let QueryReply::Served(first) = reply else {
        panic!("fresh session refused: {reply:?}");
    };
    assert!(first.bytes > 0.0);
    drop(client); // transport drop, not BYE: the session stays live
    assert_eq!(server.sessions().session_count(), 1);

    // ISSUE 6 regression: the raw sequential session id must NOT work as
    // a resume token on the wire.
    match WireClient::resume(addr, session) {
        Err(ClientError::Server {
            code: Some(ErrCode::UnknownToken),
            detail,
            ..
        }) => assert_eq!(detail, session, "the error echoes the bad token only"),
        other => panic!("session-id resume must be refused, got {other:?}"),
    }

    // The real token re-attaches to the *same* filter state: a repeat of
    // the identical query now transfers nothing.
    let (mut resumed, retained_coeffs, _) = resume_when_free(addr, token).expect("token resume");
    assert_eq!(resumed.session(), session);
    assert_eq!(retained_coeffs, first.coeffs, "filter state was retained");
    match resumed.query(&whole_space_full(&cfg)).expect("requery") {
        QueryReply::Served(again) => {
            assert_eq!(again.bytes, 0.0, "resume kept the dedup filter");
            assert_eq!(again.coeffs, 0);
        }
        other => panic!("requery refused: {other:?}"),
    }
    resumed.bye().expect("bye");
    assert_eq!(
        server.sessions().session_count(),
        0,
        "BYE released the session"
    );

    // A token for a never-minted session is refused too.
    match WireClient::resume(addr, 0x1234_5678_9abc_def0) {
        Err(ClientError::Server {
            code: Some(ErrCode::UnknownToken),
            ..
        }) => {}
        other => panic!("forged token must be refused, got {other:?}"),
    }
    // Serve-forever daemon: drop the handle instead of joining.
    drop(handle);
}

#[test]
fn overload_ledger_survives_transport_drop_and_resume() {
    // REVIEW regression: the OVERLOAD credit ledger follows the session,
    // not the connection. Dropping the socket and resuming must NOT zero
    // the unacked debt (that would let any client bypass backpressure by
    // reconnecting).
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            outbox_cap: 1024.0,
            max_conns: None,
        },
    );
    let addr = handle.addr;
    let whole = whole_space_full(&cfg);

    let mut client = WireClient::connect(addr).expect("connect");
    let token = client.token();
    // Raw send/recv (not `query`, which acks): the payload stays unacked.
    client
        .send(&Frame::Query {
            regions: whole.clone(),
        })
        .expect("send");
    let first = match client.recv().expect("recv") {
        Frame::Result { bytes, .. } => bytes,
        other => panic!("wanted RESULT, got {}", other.name()),
    };
    assert!(first > 1024.0, "scene payload must exceed the cap");

    // Drop the transport with the whole payload unacked, then resume.
    drop(client);
    let (mut resumed, _, _) = resume_when_free(addr, token).expect("token resume");

    // The debt survived the reconnect: still refused.
    match resumed.query(&whole).expect("post-resume query") {
        QueryReply::Overloaded { outstanding, cap } => {
            assert_eq!(
                outstanding, first,
                "the reconnect must not reset the ledger"
            );
            assert_eq!(cap, 1024.0);
        }
        QueryReply::Served(r) => panic!("reconnect zeroed the credit ledger: {r:?}"),
    }
    // Acking on the new connection clears the same ledger.
    resumed.send(&Frame::Ack { bytes: first }).expect("ack");
    match resumed.query(&whole).expect("recovered query") {
        QueryReply::Served(r) => assert_eq!(r.bytes, 0.0, "filter survived throughout"),
        other => panic!("still refused after full ack: {other:?}"),
    }
    resumed.bye().expect("bye");
    assert_eq!(server.sessions().session_count(), 0);
    drop(handle);
}

#[test]
fn resume_is_refused_while_the_session_is_attached() {
    // REVIEW regression: attachment is exclusive. A valid token must not
    // let a second connection drive a session that a live connection
    // already holds.
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: None,
            ..DaemonConfig::default()
        },
    );
    let addr = handle.addr;

    let mut client = WireClient::connect(addr).expect("connect");
    let session = client.session();
    let token = client.token();

    // The first connection is provably attached (WELCOME was received),
    // so this refusal is deterministic, not a race.
    match WireClient::resume(addr, token) {
        Err(ClientError::Server {
            code: Some(ErrCode::SessionBusy),
            detail,
            ..
        }) => assert_eq!(detail, session, "the error names the busy session"),
        other => panic!("attached resume must be refused, got {other:?}"),
    }

    // The refused hijack changed nothing for the holder.
    match client.query(&whole_space_full(&cfg)).expect("query") {
        QueryReply::Served(r) => assert!(r.bytes > 0.0),
        other => panic!("holder refused: {other:?}"),
    }
    client.bye().expect("bye");

    // After BYE the session is gone for good: the token is dead, not busy.
    match WireClient::resume(addr, token) {
        Err(ClientError::Server {
            code: Some(ErrCode::UnknownToken),
            ..
        }) => {}
        other => panic!("BYE must kill the token, got {other:?}"),
    }
    assert_eq!(server.sessions().session_count(), 0);
    drop(handle);
}

#[test]
fn saturated_outbox_returns_typed_overload_and_recovers_on_ack() {
    let cfg = tiny_cfg();
    // Cap far below one whole-space full-resolution payload.
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            outbox_cap: 1024.0,
            max_conns: Some(1),
        },
    );
    let mut client = WireClient::connect(handle.addr).expect("connect");
    let whole = whole_space_full(&cfg);

    // First query: ledger is 0 < cap, admitted (overshoot-by-one), but
    // we withhold the ACK.
    client
        .send(&Frame::Query {
            regions: whole.clone(),
        })
        .expect("send");
    let first = match client.recv().expect("recv") {
        Frame::Result { bytes, .. } => bytes,
        other => panic!("wanted RESULT, got {}", other.name()),
    };
    assert!(first > 1024.0, "scene payload must exceed the cap");

    // Second query: refused with a typed OVERLOAD, not queued, not
    // executed, not a disconnect.
    match client.query(&whole).expect("overloaded query") {
        QueryReply::Overloaded { outstanding, cap } => {
            assert_eq!(outstanding, first, "ledger holds the unacked payload");
            assert_eq!(cap, 1024.0);
        }
        QueryReply::Served(r) => panic!("daemon served past the cap: {r:?}"),
    }
    // Refusal did not touch the filter: after acking, the same query
    // executes and (because the filter already has everything from the
    // first transfer) returns zero new bytes.
    client.send(&Frame::Ack { bytes: first }).expect("ack");
    match client.query(&whole).expect("recovered query") {
        QueryReply::Served(r) => assert_eq!(r.bytes, 0.0, "filter survived the refusal"),
        other => panic!("still refused after full ack: {other:?}"),
    }
    client.bye().expect("bye");

    let stats = handle.join();
    assert_eq!(stats.overloads, 1);
    assert_eq!(server.sessions().session_count(), 0);
}

#[test]
fn malformed_frames_get_typed_errors_and_the_daemon_survives() {
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: Some(5),
            ..DaemonConfig::default()
        },
    );
    let addr = handle.addr;

    // 1. Unknown opcode: typed ERROR, connection stays usable.
    {
        let mut client = WireClient::connect(addr).expect("connect");
        use std::io::Write;
        let raw = std::net::TcpStream::connect(addr).expect("raw connect");
        let mut writer = raw.try_clone().expect("clone");
        let mut reader = std::io::BufReader::new(raw);
        writer
            .write_all(&[1u8, 0, 0, 0, 99])
            .expect("unknown opcode");
        match mar_served::read_frame(&mut reader).expect("ERROR frame back") {
            Some(Frame::Error { code, detail }) => {
                assert_eq!(code, ErrCode::UnknownOpcode as u8);
                assert_eq!(detail, 99);
            }
            other => panic!("wanted ERROR(UnknownOpcode), got {other:?}"),
        }
        // The first client's session is untouched by the raw prodding.
        match client.query(&whole_space_full(&cfg)).expect("query") {
            QueryReply::Served(r) => assert!(r.bytes > 0.0),
            other => panic!("refused: {other:?}"),
        }
        client.bye().expect("bye");
    }

    // 2. Oversized length prefix: typed ERROR (Malformed), then close.
    {
        use std::io::Write;
        let raw = std::net::TcpStream::connect(addr).expect("raw connect");
        let mut writer = raw.try_clone().expect("clone");
        let mut reader = std::io::BufReader::new(raw);
        writer
            .write_all(&u32::MAX.to_le_bytes())
            .expect("evil prefix");
        match mar_served::read_frame(&mut reader).expect("ERROR frame back") {
            Some(Frame::Error { code, detail }) => {
                assert_eq!(code, ErrCode::Malformed as u8);
                assert_eq!(detail, u64::from(u32::MAX), "detail carries the bad length");
            }
            other => panic!("wanted ERROR(Malformed), got {other:?}"),
        }
        assert!(
            mar_served::read_frame(&mut reader)
                .expect("clean close")
                .is_none(),
            "the daemon closes a desynchronised stream"
        );
    }

    // 3. Mid-frame disconnect: no reply owed; the daemon just moves on
    // and keeps serving new connections.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&[40, 0, 0]).expect("partial prefix");
        drop(raw);
    }
    let mut client = WireClient::connect(addr).expect("daemon still serving");
    match client.query(&whole_space_full(&cfg)).expect("query") {
        QueryReply::Served(r) => assert!(r.bytes > 0.0),
        other => panic!("refused: {other:?}"),
    }
    client.bye().expect("bye");

    handle.join();
    assert_eq!(server.sessions().session_count(), 0, "no session leaked");
}

#[test]
fn concurrent_connect_resume_bye_interleavings_do_not_wedge() {
    // PR 7 regression backstop for the lock-order hot path D006 guards:
    // two clients hammer connect → query → transport-drop → RESUME →
    // query → BYE concurrently. Each driver crosses every daemon lock
    // scope (token map, session stripes, wire-session ledger) in every
    // interleaving the scheduler cares to produce; a lock-order inversion
    // between those scopes wedges both threads and trips the watchdog.
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: None,
            ..DaemonConfig::default()
        },
    );
    let addr = handle.addr;
    let whole = whole_space_full(&cfg);

    const DRIVERS: usize = 2;
    const ROUNDS: usize = 12;
    let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
    let mut drivers = Vec::new();
    for d in 0..DRIVERS {
        let whole = whole.clone();
        let done = done_tx.clone();
        drivers.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let mut client = WireClient::connect(addr).expect("connect");
                let session = client.session();
                let token = client.token();
                match client.query(&whole).expect("fresh query") {
                    QueryReply::Served(r) => assert!(r.bytes > 0.0, "d{d} r{round}"),
                    other => panic!("d{d} r{round} refused: {other:?}"),
                }
                // Odd rounds drop the transport and RESUME; even rounds
                // just BYE. Both paths interleave against the other driver.
                if round % 2 == 1 {
                    drop(client);
                    let (mut resumed, _, _) = resume_when_free(addr, token).expect("token resume");
                    assert_eq!(resumed.session(), session, "d{d} r{round}");
                    match resumed.query(&whole).expect("post-resume query") {
                        QueryReply::Served(r) => {
                            assert_eq!(r.bytes, 0.0, "d{d} r{round}: filter retained")
                        }
                        other => panic!("d{d} r{round} resume refused: {other:?}"),
                    }
                    resumed.bye().expect("bye after resume");
                } else {
                    client.bye().expect("bye");
                }
            }
            done.send(d).expect("report completion");
        }));
    }
    drop(done_tx);

    // Watchdog: every driver must finish well inside the deadline; a
    // deadlock anywhere in the connect/RESUME/BYE path hangs the recv.
    let deadline = std::time::Duration::from_secs(60);
    for _ in 0..DRIVERS {
        done_rx
            .recv_timeout(deadline)
            .expect("a driver wedged: lock-order deadlock on the serving path");
    }
    for t in drivers {
        t.join().expect("driver panicked");
    }
    assert_eq!(
        server.sessions().session_count(),
        0,
        "every session was released"
    );
    assert_eq!(server.sessions().resident_filter_entries(), 0);
    drop(handle);
}

#[test]
fn query_before_hello_is_refused_not_minted() {
    let cfg = tiny_cfg();
    let (handle, server) = boot(
        &cfg,
        DaemonConfig {
            max_conns: Some(1),
            ..DaemonConfig::default()
        },
    );
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(handle.addr).expect("raw connect");
    // A QUERY with zero regions, sent before any HELLO/RESUME.
    raw.write_all(&[5u8, 0, 0, 0, 3, 0, 0, 0, 0]).expect("send");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    match mar_served::read_frame(&mut reader).expect("reply") {
        Some(Frame::Error { code, .. }) => {
            assert_eq!(code, ErrCode::NotConnected as u8);
        }
        other => panic!("wanted ERROR(NotConnected), got {other:?}"),
    }
    drop(raw);
    drop(reader);
    handle.join();
    assert_eq!(
        server.sessions().session_count(),
        0,
        "error paths must not mint sessions"
    );
}
