//! The serving layer's concurrency contract (DESIGN.md §10): K sessions
//! driven concurrently from K threads against one shared `Server` must
//! observe exactly what they observe when replayed one at a time against
//! a fresh server. Session filter state is keyed per session, the index
//! is immutable and shared, so interleaving must be unobservable.

use mar_core::{
    FleetConfig, FleetHealth, IncrementalClient, LinearSpeedMap, QueryRegion, QueryResult,
    SceneIndexData, Server, ServerCore, SessionError, SpeedResolutionMap, WaveletIndex,
};
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_workload::{Scene, SceneConfig};
use std::sync::Arc;

const SESSIONS: usize = 8;
const TICKS: usize = 25;

fn scene() -> Scene {
    let mut cfg = SceneConfig::paper(24, 33);
    cfg.levels = 3;
    cfg.target_bytes = 1_000_000.0;
    Scene::generate(cfg)
}

fn server() -> Server {
    Server::new(&scene())
}

/// Session `k`'s deterministic tour: a diagonal drift across the space,
/// phase-shifted per session so the sessions touch overlapping but
/// distinct regions, at a per-session speed.
fn frame(k: usize, tick: usize) -> Rect2 {
    // Wrap so every session stays inside the 1000×1000 space for the
    // whole replay.
    let x = (40.0 * k as f64 + 18.0 * tick as f64) % 600.0;
    let y = (25.0 * k as f64 + 12.0 * tick as f64) % 600.0;
    Rect2::new(Point2::new([x, y]), Point2::new([x + 400.0, y + 400.0]))
}

fn speed(k: usize, tick: usize) -> f64 {
    [0.1, 0.3, 0.5, 0.7, 0.9][(k + tick) % 5]
}

/// Drives one session for `TICKS` ticks and returns its per-tick results.
fn drive(server: &Server, k: usize) -> Vec<QueryResult> {
    let mut client = IncrementalClient::connect(server);
    (0..TICKS)
        .map(|t| client.tick(server, frame(k, t), speed(k, t)))
        .collect()
}

#[test]
fn concurrent_sessions_match_serial_replay() {
    // Reference: one session at a time, fresh server.
    let reference: Vec<Vec<QueryResult>> = {
        let srv = server();
        (0..SESSIONS).map(|k| drive(&srv, k)).collect()
    };

    // Concurrent: all sessions at once on one shared server, each from
    // its own thread.
    let srv = server();
    let concurrent: Vec<Vec<QueryResult>> = std::thread::scope(|scope| {
        let srv = &srv;
        let handles: Vec<_> = (0..SESSIONS)
            .map(|k| scope.spawn(move || drive(srv, k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });

    assert_eq!(reference.len(), concurrent.len());
    for (k, (want, got)) in reference.iter().zip(&concurrent).enumerate() {
        assert_eq!(
            want, got,
            "session {k}: concurrent results differ from serial replay"
        );
    }
    // Every session retrieved something, so the comparison is not vacuous.
    for (k, results) in concurrent.iter().enumerate() {
        let bytes: f64 = results.iter().map(|r| r.bytes).sum();
        assert!(bytes > 0.0, "session {k} retrieved nothing");
    }
}

#[test]
fn concurrent_churn_leaves_no_filter_state() {
    // Sessions connect, query, and disconnect concurrently; afterwards the
    // server must hold zero resident filter entries.
    let srv = server();
    std::thread::scope(|scope| {
        for k in 0..SESSIONS {
            let srv = &srv;
            scope.spawn(move || {
                for round in 0..3 {
                    let mut client = IncrementalClient::connect(srv);
                    for t in 0..5 {
                        client.tick(srv, frame(k, round * 5 + t), speed(k, t));
                    }
                    srv.disconnect(client.session())
                        .expect("session was connected above");
                }
            });
        }
    });
    assert_eq!(srv.sessions().session_count(), 0);
    assert_eq!(
        srv.sessions().resident_filter_entries(),
        0,
        "disconnect must release per-session filter state"
    );
}

#[test]
fn stale_session_ids_error_instead_of_panicking() {
    // A client that raced a disconnect (or resumed with a token the server
    // already evicted) must get a typed error back — never a panic, never
    // freshly minted state.
    let srv = server();
    let live = srv.connect();
    // The token must be fetched while the session is live; after the
    // disconnect both the session and its capability are gone.
    let stale_token = srv.sessions().session_token(live).expect("session is live");
    srv.disconnect(live).expect("just connected");
    let stale = live;
    let region = QueryRegion {
        region: frame(0, 0),
        band: ResolutionBand::FULL,
    };
    assert_eq!(
        srv.query(stale, &[region]),
        Err(SessionError::UnknownSession(stale))
    );
    assert_eq!(
        srv.disconnect(stale),
        Err(SessionError::UnknownSession(stale))
    );
    assert_eq!(
        srv.sessions().session_token(stale),
        Err(SessionError::UnknownSession(stale)),
        "a disconnected session has no token to look up"
    );
    assert_eq!(
        srv.sessions().resume(stale_token),
        Err(SessionError::UnknownToken(stale_token))
    );
    assert_eq!(
        srv.sessions().resume(stale),
        Err(SessionError::UnknownToken(stale)),
        "a raw session id is not a resume token"
    );
    assert_eq!(
        srv.sessions().session_count(),
        0,
        "error paths must not mint sessions"
    );
    assert_eq!(srv.sessions().resident_filter_entries(), 0);
    // The errors carry the offending id/token and render them.
    let msg = SessionError::UnknownSession(stale).to_string();
    assert!(msg.contains(&stale.to_string()));
    let msg = SessionError::UnknownToken(stale_token).to_string();
    assert!(msg.contains(&format!("{stale_token:#018x}")));
}

#[test]
fn concurrent_resume_and_query_agree_with_serial() {
    // Transport drops mid-tour are harmless to the server: resuming the
    // token from any thread reports the retained filter and repeat queries
    // send nothing, even while other sessions churn.
    let srv = server();
    let concurrent: Vec<Vec<QueryResult>> = std::thread::scope(|scope| {
        let srv = &srv;
        let handles: Vec<_> = (0..SESSIONS)
            .map(|k| {
                scope.spawn(move || {
                    let mut client = IncrementalClient::connect(srv);
                    (0..TICKS)
                        .map(|t| {
                            let r = client.tick(srv, frame(k, t), speed(k, t));
                            // Simulated drop + resume between every tick.
                            let token = srv
                                .sessions()
                                .session_token(client.session())
                                .expect("session is live");
                            let info = srv.sessions().resume(token).expect("session is live");
                            assert_eq!(info.session, client.session());
                            assert_eq!(
                                info.retained_coeffs,
                                srv.sessions().session_sent(client.session())
                            );
                            r
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    assert_eq!(
        srv.sessions().session_count(),
        SESSIONS,
        "resume must not mint sessions"
    );
    // Interleaved resumes are unobservable: results equal the serial replay.
    let fresh = server();
    for (k, got) in concurrent.iter().enumerate() {
        let want = drive(&fresh, k);
        assert_eq!(&want, got, "session {k}: resume changed what was sent");
        assert!(want.iter().map(|r| r.coeffs).sum::<usize>() > 0, "vacuous");
    }
}

/// Drives `SESSIONS` fleet sessions tick-major for `TICKS` ticks: a
/// rotating dead shard is set as fleet health for a tick, then every
/// session runs that tick — one after another, or each on a thread of its
/// own. Returns each session's per-tick results.
fn drive_fleet(server: &Server, parallel: bool) -> Vec<Vec<QueryResult>> {
    let fleet = server.index().fleet().expect("a fleet index");
    let sessions: Vec<u64> = (0..SESSIONS).map(|_| server.connect()).collect();
    let mut results = vec![Vec::new(); SESSIONS];
    for t in 0..TICKS {
        fleet.set_health(FleetHealth::all_up().with_down((t % 8) as u32));
        let tick = &|k: usize| {
            let band = LinearSpeedMap.band_for(speed(k, t));
            let region = QueryRegion {
                region: frame(k, t),
                band,
            };
            server
                .query(sessions[k], &[region])
                .expect("fleet session is live")
        };
        let row: Vec<QueryResult> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..SESSIONS)
                    .map(|k| scope.spawn(move || tick(k)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet session thread panicked"))
                    .collect()
            })
        } else {
            (0..SESSIONS).map(tick).collect()
        };
        for (k, r) in row.into_iter().enumerate() {
            results[k].push(r);
        }
    }
    results
}

#[test]
fn concurrent_fleet_sessions_match_serial_replay() {
    // The fleet variant of the contract above: the same `Server` over a
    // shard-fleet index, so 8 sessions driven from 8 threads per tick —
    // through replica promotions of the tick's dead shard — see what a
    // serial replay sees.
    let sc = scene();
    let data = Arc::new(SceneIndexData::build(&sc));
    let build = || {
        let index =
            WaveletIndex::build_fleet(&data, sc.config.space, &FleetConfig::ram(4, 2, true))
                .expect("fleet builds");
        Server::from_core(ServerCore::from_parts(Arc::clone(&data), Arc::new(index)))
    };
    let reference = drive_fleet(&build(), false);
    let server = build();
    let concurrent = drive_fleet(&server, true);
    for (k, (want, got)) in reference.iter().zip(&concurrent).enumerate() {
        assert_eq!(
            want, got,
            "fleet session {k}: concurrent results differ from serial replay"
        );
        assert!(got.iter().map(|r| r.coeffs).sum::<usize>() > 0, "vacuous");
    }
    assert_eq!(server.sessions().session_count(), SESSIONS);
}
