//! One session layer over every backend: the same lifecycle script —
//! connect, query, resume by token, reject bad capabilities, disconnect —
//! runs against a `Server` over the RAM index and a `Server` over a
//! shard fleet with a shard down, and must behave identically, because
//! the server and its `Sessions` are the same code over either.

use mar_core::{
    FleetConfig, FleetHealth, QueryRegion, QueryResult, SceneIndexData, Server, ServerCore,
    SessionError, Sessions, WaveletIndex,
};
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_workload::{Placement, Scene, SceneConfig};
use std::sync::Arc;

fn scene() -> Scene {
    let mut cfg = SceneConfig::paper(10, 55);
    cfg.levels = 3;
    cfg.placement = Placement::Uniform;
    cfg.target_bytes = 1_000_000.0;
    Scene::generate(cfg)
}

/// Two overlapping windows over fractions of `space`: the second re-covers
/// part of the first, so the filter has something to suppress.
fn windows(space: &Rect2) -> [Rect2; 2] {
    let at = |fx: f64, fy: f64| {
        Point2::new([
            space.lo[0] + fx * space.extent(0),
            space.lo[1] + fy * space.extent(1),
        ])
    };
    [
        Rect2::new(at(0.1, 0.1), at(0.6, 0.6)),
        Rect2::new(at(0.3, 0.3), at(0.9, 0.9)),
    ]
}

/// The script. `query` and `disconnect` are the server's own entry points
/// (they touch its index); everything else goes through `sessions`.
fn lifecycle(
    sessions: &Sessions,
    space: &Rect2,
    query: impl Fn(u64, &Rect2) -> Result<QueryResult, SessionError>,
    disconnect: impl Fn(u64) -> Result<(), SessionError>,
) {
    let (a, token_a) = sessions.connect_with_token();
    let (b, token_b) = sessions.connect_with_token();
    assert_ne!(token_a, token_b);
    assert_eq!(sessions.session_token(a), Ok(token_a));
    assert_eq!(sessions.session_count(), 2);

    let [w0, w1] = windows(space);
    let r0 = query(a, &w0).expect("live session");
    let r1 = query(a, &w1).expect("live session");
    assert!(r0.coeffs > 0 && r1.coeffs > 0, "both windows fetch data");
    query(b, &w0).expect("live session");

    // A transport drop leaves the table untouched: resuming by token
    // reports exactly what was sent, and a repeat query sends nothing.
    let info = sessions.resume(token_a).expect("token is live");
    assert_eq!(info.session, a);
    assert_eq!(info.retained_coeffs, r0.coeffs + r1.coeffs);
    assert_eq!(info.retained_objects, r0.new_objects + r1.new_objects);
    assert_eq!(sessions.session_sent(a), info.retained_coeffs);
    assert_eq!(
        sessions.session_sent_set(a).expect("live").len(),
        info.retained_coeffs
    );
    assert_eq!(query(a, &w1).expect("live session").coeffs, 0);

    // Forged tokens and raw session ids are not capabilities.
    for bad in [a, b, token_a.wrapping_add(1), !token_b] {
        assert_eq!(sessions.resume(bad), Err(SessionError::UnknownToken(bad)));
    }

    // Disconnect retires the token and releases the filter; the other
    // session is untouched.
    disconnect(a).expect("live session");
    assert_eq!(
        sessions.resume(token_a),
        Err(SessionError::UnknownToken(token_a)),
        "a stale token must not resume"
    );
    assert_eq!(
        sessions.session_token(a),
        Err(SessionError::UnknownSession(a))
    );
    assert_eq!(query(a, &w0), Err(SessionError::UnknownSession(a)));
    assert_eq!(disconnect(a), Err(SessionError::UnknownSession(a)));
    assert_eq!(sessions.resume(token_b).expect("b is live").session, b);
    disconnect(b).expect("live session");
    assert_eq!(sessions.session_count(), 0);
    assert_eq!(sessions.resident_filter_entries(), 0);
}

#[test]
fn server_and_fleet_sessions_share_one_lifecycle() {
    let scene = scene();
    let space = scene.config.space;
    let data = Arc::new(SceneIndexData::build(&scene));
    let band = ResolutionBand::new(0.2, 1.0);

    let fleet = WaveletIndex::build_fleet(&data, space, &FleetConfig::ram(3, 2, true));
    for index in [WaveletIndex::build(&data), fleet.expect("fleet")] {
        // A dead shard with a replica must not disturb the session layer.
        if let Some(fleet) = index.fleet() {
            fleet.set_health(FleetHealth::all_up().with_down(1));
        }
        let core = ServerCore::from_parts(Arc::clone(&data), Arc::new(index));
        let server = Server::from_core(core);
        lifecycle(
            server.sessions(),
            &space,
            |s, w| server.query(s, &[QueryRegion { region: *w, band }]),
            |s| server.disconnect(s),
        );
    }
}
