//! Daemon-restart contract (ISSUE 10 satellite): **transport death ≠
//! session death**, end to end. A `mar-served` daemon dies mid-tour; a
//! second daemon boots over the *same page-file store* with the *same
//! token seed* (the `--store` / `--token-seed` deployment of
//! `src/bin/served.rs`); the client proves that
//!
//! 1. the restarted daemon refuses the old token with `UNKNOWN_TOKEN`
//!    (session state died with the process — tokens are capabilities
//!    into a live session table, not persistent cookies),
//! 2. a fresh connect on the restarted daemon deterministically re-mints
//!    the *same* token (seeded SipHash key + same connect order), so a
//!    client config pinned to a token keeps working across restarts,
//! 3. after the client's refetch-from-scratch, its resident set is
//!    byte-identical to an uninterrupted session's, and
//! 4. on the restarted daemon a *transport* drop (socket death, no BYE)
//!    still resumes into the retained filter — the distinction the wire
//!    protocol exists to preserve.

use mar_bench::serve::{serve_scene, ServeConfig};
use mar_core::{
    CachePolicy, QueryRegion, SceneIndexData, ScratchPath, Server, ServerCore, WaveletIndex,
};
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_served::{
    spawn_daemon, ClientError, DaemonConfig, DaemonHandle, ErrCode, QueryReply, WireClient,
};
use std::net::TcpListener;
use std::sync::Arc;

const TOKEN_SEED: u64 = 0xfee1_dead_0000_0077;

fn tiny_cfg() -> ServeConfig {
    ServeConfig {
        sessions: 1,
        ticks: 12,
        objects: 8,
        levels: 2,
        frame_frac: 0.15,
        jobs: 1,
    }
}

/// A short deterministic "tour": sliding windows over the scene space.
fn tour_windows(space: &Rect2, n: usize) -> Vec<Vec<QueryRegion>> {
    let w = space.extent(0);
    let h = space.extent(1);
    (0..n)
        .map(|i| {
            let fx = 0.06 * i as f64;
            let fy = 0.05 * i as f64;
            vec![QueryRegion {
                region: Rect2::new(
                    Point2::new([space.lo[0] + fx * w, space.lo[1] + fy * h]),
                    Point2::new([space.lo[0] + (fx + 0.55) * w, space.lo[1] + (fy + 0.55) * h]),
                ),
                band: ResolutionBand::FULL,
            }]
        })
        .collect()
}

fn served_query(client: &mut WireClient, regions: &[QueryRegion]) -> mar_served::WireResult {
    match client.query(regions).expect("wire query") {
        QueryReply::Served(r) => r,
        other => panic!("query refused: {other:?}"),
    }
}

/// Resumes `token`, retrying briefly while the daemon still considers the
/// session attached (the connection thread detaches on observing EOF).
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
fn daemon_restart_over_the_same_store_and_token_seed() {
    let cfg = tiny_cfg();
    let scene = serve_scene(cfg.objects, cfg.levels);
    let space = scene.config.space;
    let data = Arc::new(SceneIndexData::build(&scene));

    // The persistent half of the deployment: one page-file store, written
    // once, served by every daemon incarnation (`mar-served --store`).
    let store = ScratchPath::new("served-restart", "restart.pages").expect("create tmp dir");
    mar_core::write_store(&store, &data).expect("write shared store");
    let open_core = || {
        let index = WaveletIndex::open_paged(&store, 256 * 1024, CachePolicy::MotionAware)
            .expect("open shared store");
        ServerCore::from_parts(Arc::clone(&data), Arc::new(index))
    };
    let boot = |max_conns: Option<usize>| -> (DaemonHandle, Arc<Server>) {
        let server = Arc::new(Server::from_core_seeded(open_core(), TOKEN_SEED));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral loopback port");
        let handle = spawn_daemon(
            Arc::clone(&server),
            listener,
            DaemonConfig {
                max_conns,
                ..DaemonConfig::default()
            },
        )
        .expect("spawn daemon");
        (handle, server)
    };
    let windows = tour_windows(&space, 8);

    // ---- Incarnation 1: dies mid-tour. ----
    // max_conns = 1: the daemon exits once its only connection ends, which
    // is exactly the "kill mar-served mid-tour" schedule.
    let (handle1, server1) = boot(Some(1));
    let mut client = WireClient::connect(handle1.addr).expect("connect to daemon 1");
    let session = client.session();
    let token = client.token();
    let mut first_run_bytes = 0.0;
    for regions in &windows[..4] {
        first_run_bytes += served_query(&mut client, regions).bytes;
    }
    assert!(first_run_bytes > 0.0, "the half-tour moved real data");
    drop(client); // transport death mid-tour — no BYE
    let stats1 = handle1.join(); // EOF observed → max_conns reached → daemon exits
    assert_eq!(stats1.connections, 1);
    assert_eq!(
        server1.sessions().session_count(),
        1,
        "transport death alone never kills the session"
    );
    drop(server1); // ...but the process dying does: all session state gone

    // ---- Incarnation 2: same store, same token seed, new port. ----
    let (handle2, server2) = boot(None);
    let addr2 = handle2.addr;

    // (1) The old token names a session of a dead process: refused, and
    // the refusal echoes only the token itself (no session-id oracle).
    match WireClient::resume(addr2, token) {
        Err(ClientError::Server {
            code: Some(ErrCode::UnknownToken),
            detail,
            ..
        }) => assert_eq!(detail, token, "the error echoes the dead token only"),
        other => panic!("restarted daemon must refuse the old token, got {other:?}"),
    }

    // (2) Reconnect: the seeded token PRF and the identical connect order
    // re-mint the same (session, token) pair across the restart.
    let mut client = WireClient::connect(addr2).expect("connect to daemon 2");
    assert_eq!(
        client.session(),
        session,
        "seeded connect order restarts at 0"
    );
    assert_eq!(
        client.token(),
        token,
        "same --token-seed must re-mint the same token across the restart"
    );

    // (3) The restarted filter is empty — the client refetches from
    // scratch (planner reset): the full tour this time.
    let mut refetch_bytes = 0.0;
    for regions in &windows {
        refetch_bytes += served_query(&mut client, regions).bytes;
    }
    assert!(
        refetch_bytes >= first_run_bytes,
        "a fresh session refetches at least everything the dead one held"
    );

    // (4) On the *running* daemon, transport death is still survivable:
    // drop the socket, resume by token, and the filter is retained.
    drop(client);
    let (mut resumed, retained_coeffs, _) =
        resume_when_free(addr2, token).expect("resume on the live daemon");
    assert_eq!(resumed.session(), session);
    assert!(
        retained_coeffs > 0,
        "the filter survived the transport drop"
    );
    for regions in &windows {
        let again = served_query(&mut resumed, regions);
        assert_eq!(again.bytes, 0.0, "everything already held: nothing re-sent");
    }

    // The surviving resident set equals an uninterrupted in-process
    // session's, byte for byte — the end of the end-to-end invariant.
    let reference = Server::from_core_seeded(open_core(), TOKEN_SEED);
    let ref_session = reference.connect();
    for regions in &windows {
        reference
            .query(ref_session, regions)
            .expect("reference query");
    }
    assert_eq!(
        server2
            .sessions()
            .session_sent_set(session)
            .expect("live session"),
        reference
            .sessions()
            .session_sent_set(ref_session)
            .expect("live reference"),
        "post-restart resident set must equal the uninterrupted run's"
    );

    resumed.bye().expect("bye");
    assert_eq!(
        server2.sessions().session_count(),
        0,
        "BYE released the session"
    );
    assert_eq!(server2.sessions().resident_filter_entries(), 0);
    drop(handle2);
}
