//! End-to-end integration: scene generation → server → moving client, with
//! full-pipeline determinism and conservation checks.

use mar_core::{IncrementalClient, Server};
use mar_workload::{frame_at, paper_space, tram_tour, Placement, Scene, SceneConfig, TourConfig};

fn scene(objects: usize, seed: u64) -> Scene {
    let mut cfg = SceneConfig::paper(objects, seed);
    cfg.levels = 3;
    cfg.target_bytes = objects as f64 * 100_000.0;
    Scene::generate(cfg)
}

/// Runs a tour and returns (total bytes, total coeffs, total io).
fn run_tour(scene: &Scene, speed: f64, tour_seed: u64) -> (f64, usize, u64) {
    let server = Server::new(scene);
    let mut client = IncrementalClient::connect(&server);
    let tour = tram_tour(&TourConfig::new(paper_space(), 250, tour_seed, speed));
    for s in &tour.samples {
        let frame = frame_at(&paper_space(), &s.pos, 0.1);
        client.tick(&server, frame, s.speed);
    }
    let m = client.metrics();
    (m.bytes, m.coeffs, m.io)
}

#[test]
fn pipeline_is_deterministic() {
    let sc = scene(15, 3);
    let a = run_tour(&sc, 0.5, 7);
    let b = run_tour(&sc, 0.5, 7);
    assert_eq!(
        a, b,
        "same scene, tour and speed must give identical results"
    );
}

#[test]
fn total_retrieval_never_exceeds_dataset() {
    let sc = scene(15, 3);
    let total = sc.total_bytes();
    for speed in [0.01, 0.5, 1.0] {
        let (bytes, coeffs, _) = run_tour(&sc, speed, 11);
        assert!(
            bytes <= total + 1.0,
            "retrieved {bytes} exceeds dataset {total}"
        );
        assert!(coeffs <= sc.total_coeffs());
    }
}

#[test]
fn slow_sweep_retrieves_more_per_distance() {
    // Identical path, two speeds: the slow client needs the fine bands, so
    // it pulls more data over the same ground.
    let sc = scene(20, 9);
    let sweep = |speed: f64| -> f64 {
        let server = Server::new(&sc);
        let mut client = IncrementalClient::connect(&server);
        for i in 0..25 {
            let pos = mar_geom::Point2::new([100.0 + 30.0 * i as f64, 500.0]);
            let frame = frame_at(&paper_space(), &pos, 0.1);
            client.tick(&server, frame, speed);
        }
        client.metrics().bytes
    };
    let slow = sweep(0.05);
    let fast = sweep(0.95);
    assert!(
        fast < slow,
        "fast sweep ({fast}) must retrieve less than slow ({slow}) on the same path"
    );
}

#[test]
fn full_space_query_retrieves_everything_once() {
    let sc = scene(10, 21);
    let server = Server::new(&sc);
    let mut client = IncrementalClient::connect(&server);
    let whole = paper_space();
    let r1 = client.tick(&server, whole, 0.0);
    assert_eq!(
        r1.coeffs,
        sc.total_coeffs(),
        "speed 0 over the whole space = all data"
    );
    assert_eq!(r1.new_objects, 10);
    let r2 = client.tick(&server, whole, 0.0);
    assert_eq!(r2.coeffs, 0);
    assert_eq!(r2.bytes, 0.0);
}

#[test]
fn two_clients_get_independent_sessions() {
    let sc = scene(10, 5);
    let server = Server::new(&sc);
    let mut a = IncrementalClient::connect(&server);
    let mut b = IncrementalClient::connect(&server);
    let frame = frame_at(&paper_space(), &mar_geom::Point2::new([500.0, 500.0]), 0.2);
    let ra = a.tick(&server, frame, 0.2);
    let rb = b.tick(&server, frame, 0.2);
    assert_eq!(ra.coeffs, rb.coeffs, "fresh sessions see identical data");
    assert_eq!(ra.bytes, rb.bytes);
}

#[test]
fn zipf_and_uniform_scenes_hold_same_total_bytes() {
    let mut cfg_u = SceneConfig::paper(20, 13);
    cfg_u.levels = 3;
    cfg_u.target_bytes = 2_000_000.0;
    let mut cfg_z = cfg_u;
    cfg_z.placement = Placement::Zipf { theta: 0.8 };
    let u = Scene::generate(cfg_u);
    let z = Scene::generate(cfg_z);
    assert!((u.total_bytes() - z.total_bytes()).abs() / u.total_bytes() < 0.02);
}

#[test]
fn many_concurrent_clients_round_robin() {
    // The paper's server faces "a large number of queries posed as clients
    // change their positions". Eight clients with distinct tours interleave
    // tick by tick on one server; each must see exactly the data of its own
    // path, independent of the interleaving.
    let sc = scene(20, 41);
    let server = Server::new(&sc);
    let n = 8;
    let tours: Vec<_> = (0..n)
        .map(|i| {
            tram_tour(&TourConfig::new(
                paper_space(),
                120,
                100 + i as u64,
                0.2 + 0.1 * i as f64 % 0.8,
            ))
        })
        .collect();
    let mut clients: Vec<_> = (0..n)
        .map(|_| IncrementalClient::connect(&server))
        .collect();
    for t in 0..120 {
        for (c, tour) in clients.iter_mut().zip(&tours) {
            let s = &tour.samples[t];
            let frame = frame_at(&paper_space(), &s.pos, 0.1);
            c.tick(&server, frame, s.speed);
        }
    }
    let interleaved: Vec<f64> = clients.iter().map(|c| c.metrics().bytes).collect();

    // Re-run each client alone on a fresh server: identical results.
    for (i, tour) in tours.iter().enumerate() {
        let solo_server = Server::new(&sc);
        let mut solo = IncrementalClient::connect(&solo_server);
        for s in &tour.samples {
            let frame = frame_at(&paper_space(), &s.pos, 0.1);
            solo.tick(&solo_server, frame, s.speed);
        }
        assert_eq!(
            solo.metrics().bytes,
            interleaved[i],
            "client {i} must be unaffected by the other {} clients",
            n - 1
        );
    }
}

#[test]
fn disconnect_frees_session_state_under_churn() {
    // Clients connecting, touring, and disconnecting must not leak into
    // each other's sessions.
    let sc = scene(10, 43);
    let server = Server::new(&sc);
    let frame = frame_at(&paper_space(), &mar_geom::Point2::new([500.0, 500.0]), 0.2);
    let mut first_bytes = None;
    for _round in 0..5 {
        let mut c = IncrementalClient::connect(&server);
        let r = c.tick(&server, frame, 0.3);
        match first_bytes {
            None => first_bytes = Some(r.bytes),
            Some(b) => assert_eq!(r.bytes, b, "fresh sessions must start cold"),
        }
        let session = c.session();
        server
            .disconnect(session)
            .expect("session was connected above");
        assert_eq!(server.sessions().session_sent(session), 0);
    }
}
