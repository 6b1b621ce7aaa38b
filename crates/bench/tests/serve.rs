//! The determinism contract of the serving harness, mirroring
//! `tests/parallel.rs`: `--jobs` never changes a single transcript byte
//! — and neither does moving the index out of
//! core: the page-file backend's transcript is pinned to the same
//! fingerprint as the in-RAM one.

use mar_bench::serve::{fnv1a64, run_serve, serve_scene, session_tour, ServeConfig, POOL_SESSIONS};
use mar_core::{
    CachePolicy, LinearSpeedMap, PageCacheStats, QueryRegion, Residence, ScratchPath, Server,
    ServerCore, SpeedResolutionMap, WaveletIndex,
};
use mar_geom::Rect2;
use mar_workload::frame_at;
use std::sync::Arc;

#[test]
fn serve_transcript_is_byte_identical_jobs_1_vs_4() {
    let serial = run_serve(&ServeConfig::smoke(1), &Residence::Ram);
    let parallel = run_serve(&ServeConfig::smoke(4), &Residence::Ram);
    let (s, p) = (&serial.transcript, &parallel.transcript);
    assert_eq!(
        s.text, p.text,
        "serve transcript differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(fnv1a64(&s.text), fnv1a64(&p.text));
    // Every aggregate derived from the transcript must agree too.
    assert_eq!(serial.queries(), parallel.queries());
    assert_eq!(s.bytes, p.bytes);
    assert_eq!(s.coeffs, p.coeffs);
    assert_eq!(s.io, p.io);
}

#[test]
fn serve_smoke_shape_matches_config() {
    let cfg = ServeConfig::smoke(2);
    let r = run_serve(&cfg, &Residence::Ram);
    assert_eq!(r.sessions, cfg.sessions);
    assert_eq!(r.ticks, cfg.ticks);
    assert_eq!(r.queries(), (cfg.sessions * cfg.ticks) as u64);
    assert_eq!(
        r.transcript.text.lines().count(),
        1 + cfg.sessions * cfg.ticks,
        "one transcript row per (tick, session) plus the header"
    );
    assert!(r.transcript.bytes > 0.0, "smoke workload must serve data");
}

/// The smoke transcript's FNV-1a fingerprint, pinned so that any byte of
/// drift — in the scene, the planner, the index, or the out-of-core read
/// path — fails loudly rather than silently shifting every benchmark.
const SMOKE_TRANSCRIPT_FNV64: u64 = 0x5053_d3c4_84e6_7f80;

#[test]
fn paged_serve_transcript_is_byte_identical_to_ram() {
    let cfg = ServeConfig::smoke(2);
    let ram = run_serve(&cfg, &Residence::Ram);
    assert_eq!(
        fnv1a64(&ram.transcript.text),
        SMOKE_TRANSCRIPT_FNV64,
        "the smoke transcript fingerprint moved — if intentional, repin"
    );
    assert!(ram.store_file_bytes.is_none() && ram.cache.is_none());
    // A deliberately starved single-page pool: the store must dwarf it so
    // the replay genuinely pages, yet the answers may not change by a
    // single byte. (LRU and motion-aware pools are held to the same
    // answers at the server level, in `crates/core/tests/paged_server.rs`.)
    let budget_bytes = 4096;
    let path = ScratchPath::new("bench-serve", "serve.pages").expect("create tmp dir");
    let paged = run_serve(
        &cfg,
        &Residence::Paged {
            path: path.to_path_buf(),
            budget_bytes,
        },
    );
    let (p, r) = (&paged.transcript, &ram.transcript);
    assert_eq!(p.text, r.text, "paged transcript differs from RAM");
    assert_eq!(fnv1a64(&p.text), SMOKE_TRANSCRIPT_FNV64);
    assert_eq!(p.bytes, r.bytes);
    assert_eq!(p.coeffs, r.coeffs);
    assert_eq!(p.io, r.io);
    assert_eq!(paged.unique_io, ram.unique_io);
    let file_bytes = paged
        .store_file_bytes
        .expect("paged run records its store size");
    assert!(
        file_bytes >= 50 * budget_bytes as u64,
        "store must dwarf the pool: {file_bytes} B vs budget {budget_bytes} B"
    );
    let stats = paged.cache.expect("paged run records pool stats");
    assert!(stats.faults > 0, "a starved pool must fault");
    assert!(stats.hits > 0, "even a starved pool re-hits the root");
}

/// The pool counters after `core` serves the tours `replay_pool_tours`
/// replays (the store ablation's workload): [`POOL_SESSIONS`] sessions,
/// one 10 % frame per session per tick.
fn replay_tours(core: ServerCore, space: Rect2, ticks: usize, tour_seed: u64) -> PageCacheStats {
    let server = Server::from_core(core);
    let tours: Vec<_> = (0..POOL_SESSIONS)
        .map(|k| session_tour(space, ticks, tour_seed, k))
        .collect();
    let sessions: Vec<u64> = tours.iter().map(|_| server.connect()).collect();
    for tick in 0..ticks {
        for (tour, &session) in tours.iter().zip(&sessions) {
            let s = &tour.samples[tick];
            let q = [QueryRegion {
                region: frame_at(&space, &s.pos, 0.1),
                band: LinearSpeedMap.band_for(s.speed),
            }];
            server.query(session, &q).expect("session is live");
        }
    }
    server.index().cache_stats().expect("the index is paged")
}

/// Every pool a `Residence::Paged` core opens runs LRU: its counters equal
/// those of an LRU pool opened on the same store, at a budget where the
/// motion-aware policy's differ (so the two cannot be confused).
#[test]
fn a_paged_residence_serves_through_an_lru_pool() {
    let scene = serve_scene(12, 2);
    let space = scene.config.space;
    let budget_bytes = 32 << 10;
    let path = ScratchPath::new("bench-serve", "policy.pages").expect("create tmp dir");
    let residence = Residence::Paged {
        path: path.to_path_buf(),
        budget_bytes,
    };
    let served = ServerCore::build(&scene, &residence, 1).expect("write the store");
    let data = served.data_arc();
    let opened = |policy| {
        let index = WaveletIndex::open_paged(&path, budget_bytes, policy).expect("open the store");
        ServerCore::from_parts(Arc::clone(&data), Arc::new(index))
    };
    let lru = replay_tours(opened(CachePolicy::Lru), space, 60, 101);
    let motion = replay_tours(opened(CachePolicy::MotionAware), space, 60, 101);
    assert_ne!(lru, motion, "the budget must tell the two policies apart");
    assert_eq!(
        replay_tours(served, space, 60, 101),
        lru,
        "a paged residence's pool must run LRU"
    );
}
