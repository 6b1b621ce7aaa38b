//! The disk-backed server answers byte-identically to the in-RAM one —
//! the tentpole guarantee of the out-of-core backend: same coefficients,
//! same `f64` byte totals, same logical I/O, under a buffer pool dozens
//! of times smaller than the store file.

use mar_core::server::{QueryRegion, Server, ServerCore};
use mar_core::{write_store, CachePolicy, Residence, SceneIndexData, ScratchPath, WaveletIndex};
use mar_geom::{Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_workload::{Scene, SceneConfig};
use std::path::Path;
use std::sync::Arc;

fn tmp(name: &str) -> ScratchPath {
    ScratchPath::new("core-paged-server-tests", name).expect("create tmp dir")
}

/// A core serving `sc` from a page file at `path` behind a pool of
/// `budget_bytes`.
fn paged_core(sc: &Scene, path: &Path, budget_bytes: usize) -> ServerCore {
    let path = path.to_path_buf();
    ServerCore::build(sc, &Residence::Paged { path, budget_bytes }, 1).expect("paged core")
}

fn scene() -> Scene {
    let mut cfg = SceneConfig::paper(8, 17);
    cfg.levels = 3;
    cfg.target_bytes = 2_000_000.0;
    Scene::generate(cfg)
}

/// A small touring workload: each session's window walks a diagonal.
fn tour(session: usize, tick: usize) -> Vec<QueryRegion> {
    let x = 40.0 * session as f64 + 12.0 * tick as f64;
    let y = 25.0 * session as f64 + 9.0 * tick as f64;
    vec![
        QueryRegion {
            region: Rect2::new(Point2::new([x, y]), Point2::new([x + 220.0, y + 180.0])),
            band: ResolutionBand::FULL,
        },
        QueryRegion {
            region: Rect2::new(Point2::new([x, y]), Point2::new([x + 420.0, y + 340.0])),
            band: ResolutionBand::new(0.4, 1.0),
        },
    ]
}

fn run_workload(server: &Server) -> Vec<(usize, usize, mar_core::server::QueryResult)> {
    let sessions: Vec<u64> = (0..4).map(|_| server.connect()).collect();
    let mut log = Vec::new();
    for tick in 0..12 {
        for (s, &c) in sessions.iter().enumerate() {
            let r = server.query(c, &tour(s, tick)).expect("query");
            log.push((s, tick, r));
        }
    }
    // And a few one-region block fetches (the buffered-client path).
    let block = QueryRegion {
        region: Rect2::new(Point2::new([300.0, 300.0]), Point2::new([520.0, 480.0])),
        band: ResolutionBand::new(0.2, 1.0),
    };
    for (s, &c) in sessions.iter().enumerate() {
        let r = server.query(c, &[block]).expect("fetch");
        log.push((s, 999, r));
    }
    for &c in &sessions {
        server.disconnect(c).expect("disconnect");
    }
    log
}

#[test]
fn paged_server_is_byte_identical_to_ram_server() {
    let sc = scene();
    let ram = Server::new(&sc);
    let data = Arc::new(SceneIndexData::build(&sc));
    for policy in [CachePolicy::Lru, CachePolicy::MotionAware] {
        let path = tmp(&format!("{}.pages", policy.name()));
        // A deliberately starved pool: 2 pages (8 KiB).
        let budget = 2 * 4096;
        // Built the way the benchmark builds its paged core: the policy is
        // an argument of `open_paged` alone.
        write_store(&path, &data).expect("write store");
        let index = WaveletIndex::open_paged(&path, budget, policy).expect("open");
        let core = ServerCore::from_parts(Arc::clone(&data), Arc::new(index));
        let file_bytes = core.index().paged().expect("paged").file_bytes();
        assert!(
            file_bytes >= 50 * budget as u64,
            "store must dwarf the pool: {file_bytes} vs budget {budget}"
        );
        let paged = Server::from_core(core);
        let want = run_workload(&ram);
        let got = run_workload(&paged);
        // QueryResult derives PartialEq over usize/f64/u64 — equality here
        // is bit-for-bit on the byte totals.
        assert_eq!(got, want, "policy {}", policy.name());
        let stats = paged.index().cache_stats().expect("paged index has a pool");
        assert!(stats.faults > 0, "a starved pool must fault");
        assert!(stats.evictions > 0 || stats.bypasses > 0);
        assert_eq!(
            paged.index().io_snapshot().physical,
            stats.faults,
            "every pool miss is a physical access"
        );
    }
}

#[test]
fn paged_batch_query_matches_scalar_across_backends() {
    let sc = scene();
    let path = tmp("batch.pages");
    let core = paged_core(&sc, &path, 16 * 4096);
    let batched = Server::from_core(core);
    let scalar = Server::new(&sc);
    let sa: Vec<u64> = (0..5).map(|_| scalar.connect()).collect();
    let sb: Vec<u64> = (0..5).map(|_| batched.connect()).collect();
    for tick in 0..6 {
        let regions: Vec<Vec<QueryRegion>> = (0..5).map(|s| tour(s, tick)).collect();
        let want: Vec<_> = sa
            .iter()
            .enumerate()
            .map(|(s, &c)| scalar.query(c, &regions[s]).expect("scalar"))
            .collect();
        let batch: Vec<(u64, &[QueryRegion])> = sb
            .iter()
            .enumerate()
            .map(|(s, &c)| (c, regions[s].as_slice()))
            .collect();
        let (got, unique) = batched.query_batch(&batch);
        assert!(unique > 0);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.as_ref().expect("ok"), w, "tick {tick} session {s}");
        }
    }
}

#[test]
fn single_region_query_matches_one_window_batch_on_both_backends() {
    // A one-region `query` takes the scalar descent (in RAM
    // streaming hits straight into the filter); `query_batch` of the same
    // region takes the grouped descent and the buffered replay. Every
    // result — `io` included — must agree, and the two backends with each
    // other.
    let sc = scene();
    let path = tmp("single.pages");
    let paged = paged_core(&sc, &path, 4 * 4096);
    let mut logs = Vec::new();
    for core in [ServerCore::new(&sc), paged] {
        let scalar = Server::from_core(core.clone());
        let batched = Server::from_core(core);
        let (a, b) = (scalar.connect(), batched.connect());
        let mut log = Vec::new();
        for tick in 0..10 {
            // Each tick: the wide band-limited window, then the narrow
            // full-band one inside it (partly already sent).
            for q in tour(1, tick).into_iter().rev() {
                let want = scalar.query(a, &[q]).expect("query");
                assert!(want.io > 0);
                let regions = [q];
                let (got, _) = batched.query_batch(&[(b, &regions)]);
                assert_eq!(got[0], Ok(want), "tick {tick}");
                log.push(want);
            }
        }
        assert!(log.iter().any(|r| r.coeffs > 0), "not vacuous");
        assert_eq!(
            scalar.sessions().session_sent_set(a),
            batched.sessions().session_sent_set(b)
        );
        logs.push(log);
    }
    assert_eq!(logs[0], logs[1], "RAM and paged agree");
}

/// A motion-aware pool keeps one heat row per live session and drops it
/// on disconnect; the LRU pool a `Residence::Paged` core serves through
/// keeps none at any point.
#[test]
fn disconnect_clears_motion_state() {
    let sc = scene();
    let path = tmp("motion.pages");
    let data = Arc::new(SceneIndexData::build(&sc));
    write_store(&path, &data).expect("write store");
    let index = WaveletIndex::open_paged(&path, 8 * 4096, CachePolicy::MotionAware).expect("open");
    let server = Server::from_core(ServerCore::from_parts(data, Arc::new(index)));
    let c = server.connect();
    server.query(c, &tour(0, 0)).expect("query");
    server.query(c, &tour(0, 1)).expect("query");
    let paged = server.index().paged().expect("paged");
    assert_eq!(paged.motion_sessions(), 1);
    server.disconnect(c).expect("disconnect");
    assert_eq!(paged.motion_sessions(), 0);

    let lru_path = tmp("motion-lru.pages");
    let lru = Server::from_core(paged_core(&sc, &lru_path, 8 * 4096));
    let paged = lru.index().paged().expect("paged");
    let c = lru.connect();
    for tick in 0..2 {
        lru.query(c, &tour(0, tick)).expect("query");
        assert_eq!(paged.motion_sessions(), 0, "an LRU pool keeps no motion");
    }
    lru.disconnect(c).expect("disconnect");
    assert_eq!(paged.motion_sessions(), 0);
}

#[test]
fn stale_store_round_trips_through_plain_open() {
    // `open_paged` consumes exactly what `write_store` produced — and the
    // WaveletIndex front door agrees with the raw index on everything.
    let sc = scene();
    let data = SceneIndexData::build(&sc);
    let ram = WaveletIndex::build(&data);
    let path = tmp("front.pages");
    mar_core::write_store_with(&path, &data, &ram).expect("write");
    let paged = WaveletIndex::open_paged(&path, 64 * 4096, CachePolicy::Lru).expect("open");
    assert!(paged.is_paged() && !ram.is_paged());
    assert_eq!(paged.len(), ram.len());
    assert_eq!(paged.node_count(), ram.node_count());
    assert!(paged.validate().is_ok());
    let region = Rect2::new(Point2::new([100.0, 100.0]), Point2::new([700.0, 650.0]));
    for band in [ResolutionBand::FULL, ResolutionBand::new(0.3, 0.8)] {
        let (hits_ram, io_ram) = ram.query(&region, band);
        let (hits_paged, io_paged) = paged.query(&region, band);
        assert_eq!(hits_paged, hits_ram);
        assert_eq!(io_paged, io_ram);
    }
}
