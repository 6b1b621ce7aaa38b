//! Ablations of the design choices DESIGN.md calls out — not figures from
//! the paper, but the experiments a reviewer would ask for:
//!
//! * `abl_index` — what the support-region index's R\* machinery buys over
//!   Guttman splits, and bulk loading over incremental insertion.
//! * `abl_alloc` — Eq. 2 recursive allocation vs an even split vs the
//!   exhaustive `k!` ordering search (the paper's "can be omitted" claim).
//! * `abl_sectors` — the number of direction sectors `k`.
//! * `abl_multires` — speed-scaled buffer resolutions on/off (§V final ¶).
//! * `abl_smoothing` — raw vs smoothed speed→resolution mapping on
//!   station-heavy tram tours.
//! * `abl_store` — out-of-core buffer-pool policy: the Eq. 2 motion-aware
//!   eviction vs plain LRU across pool budgets (DESIGN.md §15).
//!
//! Like the figures, every ablation fans its sweep points through
//! [`Engine::run`](crate::engine::Engine::run) and reassembles them in a
//! fixed order, so serial and parallel runs agree byte-for-byte.

use crate::engine::Engine;
use crate::figs::mean;
use crate::serve::session_tour;
use crate::{Scale, Table};
use mar_buffer::{AllocationStrategy, MotionAwarePrefetcher};
use mar_core::system::{run_motion_aware_system, SystemConfig};
use mar_core::{
    CachePolicy, IncrementalClient, LinearSpeedMap, QueryRegion, SceneIndexData, Server,
    ServerCore, SmoothedSpeed, SpeedResolutionMap, WaveletIndex,
};
use mar_mesh::ResolutionBand;
use mar_rtree::{RTree, RTreeConfig, Variant};
use mar_workload::{frame_at, paper_space, tram_tour, Placement, TourConfig};
use std::sync::Arc;

/// Index ablation: average I/O per tram-tour query for four ways of
/// building the same support-region index. The four index variants are
/// built once and shared read-only; one sweep point per speed.
pub fn abl_index(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let data = SceneIndexData::build(&scene);
    let build = |variant: Variant, bulk: bool| -> WaveletIndex {
        let cfg = RTreeConfig::new(20, variant);
        if bulk {
            WaveletIndex::build_with(&data, cfg)
        } else {
            // Incremental insertion through the public R-tree API.
            let mut tree: RTree<3, mar_core::CoeffRef> = RTree::new(cfg);
            for r in &data.records {
                tree.insert(r.support_xy.lift(r.w, r.w), r.id);
            }
            WaveletIndex::from_tree(tree)
        }
    };
    let variants: Vec<(&str, WaveletIndex)> = vec![
        ("rstar_bulk", build(Variant::RStar, true)),
        ("rstar_insert", build(Variant::RStar, false)),
        ("guttman_bulk", build(Variant::Guttman, true)),
        ("guttman_insert", build(Variant::Guttman, false)),
    ];
    let rows = engine.run(
        scale.speeds.clone(),
        || (),
        |_, &speed| {
            let tour = tram_tour(&TourConfig::new(
                paper_space(),
                scale.ticks,
                scale.tour_seeds[0],
                speed,
            ));
            variants
                .iter()
                .map(|(_, idx)| {
                    let mut io = 0u64;
                    for s in &tour.samples {
                        let frame = frame_at(&paper_space(), &s.pos, 0.1);
                        io += idx.query(&frame, ResolutionBand::new(s.speed, 1.0)).1;
                    }
                    io as f64 / tour.len() as f64
                })
                .collect::<Vec<f64>>()
        },
    );
    let mut t = Table::new(
        "abl_index",
        "index I/O per query: build strategy ablation",
        "speed",
        variants.iter().map(|(n, _)| n.to_string()).collect(),
    );
    for (&speed, row) in scale.speeds.iter().zip(rows) {
        t.push(speed, row);
    }
    t
}

/// Allocation ablation: hit rate under the three strategies. One point
/// per (buffer size, strategy, seed).
pub fn abl_alloc(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let strategies = [
        ("recursive_eq2", AllocationStrategy::Recursive),
        ("even_split", AllocationStrategy::Even),
        ("best_ordering", AllocationStrategy::BestOrdering),
    ];
    let kbs = [16.0, 64.0];
    let points: Vec<(f64, usize, u64)> = kbs
        .iter()
        .flat_map(|&kb| {
            (0..strategies.len())
                .flat_map(move |si| scale.tour_seeds.iter().map(move |&sd| (kb, si, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(kb, si, seed)| {
            let cfg = SystemConfig {
                buffer_bytes: kb * 1024.0,
                ..Default::default()
            };
            let tour = tram_tour(&TourConfig::new(paper_space(), scale.ticks, seed, 0.5));
            let mut p = MotionAwarePrefetcher::with_strategy(4, strategies[si].1);
            run_motion_aware_system(server, &scene, &tour, &mut p, &cfg)
                .cache
                .hit_rate()
        },
    );
    let mut t = Table::new(
        "abl_alloc",
        "cache hit rate: buffer allocation strategy ablation",
        "buffer_kb",
        strategies.iter().map(|(n, _)| n.to_string()).collect(),
    );
    let seeds = scale.tour_seeds.len();
    let per_kb = strategies.len() * seeds;
    for (i, &kb) in kbs.iter().enumerate() {
        let chunk = &results[i * per_kb..(i + 1) * per_kb];
        t.push(kb, chunk.chunks(seeds).map(mean).collect());
    }
    t
}

/// Sector-count ablation: hit rate for k ∈ {2, 4, 8, 16}. One point per
/// (k, seed).
pub fn abl_sectors(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let ks = [2usize, 4, 8, 16];
    let cfg = SystemConfig {
        buffer_bytes: 32.0 * 1024.0,
        ..Default::default()
    };
    let points: Vec<(usize, u64)> = ks
        .iter()
        .flat_map(|&k| scale.tour_seeds.iter().map(move |&sd| (k, sd)))
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(k, seed)| {
            let tour = tram_tour(&TourConfig::new(paper_space(), scale.ticks, seed, 0.5));
            let mut p = MotionAwarePrefetcher::new(k);
            let m = run_motion_aware_system(server, &scene, &tour, &mut p, &cfg).cache;
            (m.hit_rate(), m.utilization())
        },
    );
    let mut t = Table::new(
        "abl_sectors",
        "cache hit rate vs number of direction sectors",
        "k",
        vec!["hit_rate".into(), "utilization".into()],
    );
    let seeds = scale.tour_seeds.len();
    for (i, &k) in ks.iter().enumerate() {
        let chunk = &results[i * seeds..(i + 1) * seeds];
        let hits: Vec<f64> = chunk.iter().map(|r| r.0).collect();
        let utils: Vec<f64> = chunk.iter().map(|r| r.1).collect();
        t.push(k as f64, vec![mean(&hits), mean(&utils)]);
    }
    t
}

/// Shared engine runner for the two-column on/off buffer ablations: for
/// each speed, columns `[variant_a, variant_b]` where the variant flag
/// feeds `cfg_of`; one point per (speed, variant, seed).
fn on_off_buffer_ablation(
    engine: &Engine,
    scale: &Scale,
    id: &'static str,
    title: &'static str,
    columns: [&str; 2],
    cfg_of: impl Fn(bool) -> SystemConfig + Sync,
) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let points: Vec<(f64, bool, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| {
            [true, false]
                .into_iter()
                .flat_map(move |flag| scale.tour_seeds.iter().map(move |&sd| (sp, flag, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(speed, flag, seed)| {
            let cfg = cfg_of(flag);
            let tour = tram_tour(&TourConfig::new(paper_space(), scale.ticks, seed, speed));
            let mut p = MotionAwarePrefetcher::new(4);
            run_motion_aware_system(server, &scene, &tour, &mut p, &cfg)
                .cache
                .hit_rate()
        },
    );
    let mut t = Table::new(
        id,
        title,
        "speed",
        columns.iter().map(|c| c.to_string()).collect(),
    );
    let seeds = scale.tour_seeds.len();
    let per_speed = 2 * seeds;
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * per_speed..(i + 1) * per_speed];
        t.push(speed, chunk.chunks(seeds).map(mean).collect());
    }
    t
}

/// Multiresolution-buffering ablation (§V final ¶) across speeds.
pub fn abl_multires(engine: &Engine, scale: &Scale) -> Table {
    on_off_buffer_ablation(
        engine,
        scale,
        "abl_multires",
        "cache hit rate: speed-scaled resolutions on/off (32 KB)",
        ["multires", "full_res_only"],
        |multires| SystemConfig {
            buffer_bytes: 32.0 * 1024.0,
            multires,
            ..Default::default()
        },
    )
}

/// Speed-smoothing ablation: total KB retrieved per 1000 units on a
/// station-heavy tram tour, with raw vs smoothed MapSpeedToResolution
/// input. One point per (speed, smoothed, seed).
pub fn abl_smoothing(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let points: Vec<(f64, bool, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| {
            [true, false]
                .into_iter()
                .flat_map(move |sm| scale.tour_seeds.iter().map(move |&sd| (sp, sm, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(speed, smoothed, seed)| {
            let tour = tram_tour(&TourConfig::new(paper_space(), scale.ticks, seed, speed));
            let mut client = IncrementalClient::connect(server);
            let mut smoother = SmoothedSpeed::default();
            let mut first = 0.0;
            for (i, s) in tour.samples.iter().enumerate() {
                let sp = if smoothed {
                    smoother.update(s.speed)
                } else {
                    s.speed
                };
                let frame = frame_at(&paper_space(), &s.pos, 0.1);
                let r = client.tick(server, frame, sp);
                if i == 0 {
                    first = r.bytes;
                }
            }
            let dist = tour.distance().max(1.0);
            (client.metrics().bytes - first) / 1024.0 * 1000.0 / dist
        },
    );
    let mut t = Table::new(
        "abl_smoothing",
        "retrieval (KB/1000 units): raw vs smoothed speed mapping (tram)",
        "speed",
        vec!["smoothed_kb".into(), "raw_kb".into()],
    );
    let seeds = scale.tour_seeds.len();
    let per_speed = 2 * seeds;
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * per_speed..(i + 1) * per_speed];
        t.push(speed, chunk.chunks(seeds).map(mean).collect());
    }
    t
}

/// Out-of-core buffer-pool ablation: tour-workload hit rate of the
/// Eq. 2 motion-aware eviction policy vs plain LRU across pool budgets.
/// The index is serialized to a scratch page file once, and every
/// (budget, policy, seed) point reopens it with its own pool and replays
/// the serve-style tour workload against it. One point per (budget,
/// policy, seed); the transcript-level answers are backend-invariant, so
/// only the pool's hit rate distinguishes the columns.
pub fn abl_store(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let data = Arc::new(SceneIndexData::build(&scene));
    let dir = std::env::temp_dir().join("mar-bench-abl-store");
    // mar-lint: allow(D004) — a scratch dir the ablation cannot run without
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(format!("{}.pages", std::process::id()));
    // mar-lint: allow(D004) — the ablation cannot run without its page file
    mar_core::write_store(&path, &data).expect("write page file");
    let policies = [
        ("motion_aware", CachePolicy::MotionAware),
        ("lru", CachePolicy::Lru),
    ];
    let budgets_kb = [16usize, 32, 64, 128];
    let points: Vec<(usize, usize, u64)> = budgets_kb
        .iter()
        .flat_map(|&kb| {
            (0..policies.len())
                .flat_map(move |pi| scale.tour_seeds.iter().map(move |&sd| (kb, pi, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || (),
        |_, &(kb, pi, seed)| {
            let index = WaveletIndex::open_paged(&path, kb * 1024, policies[pi].1)
                // mar-lint: allow(D004) — the file was written above; failing to reopen it is fatal
                .expect("reopen page file");
            let server =
                Server::from_core(ServerCore::from_parts(Arc::clone(&data), Arc::new(index)));
            const SESSIONS: usize = 4;
            const FRAME_FRAC: f64 = 0.1;
            let tours: Vec<_> = (0..SESSIONS)
                .map(|k| session_tour(scene.config.space, scale.ticks, seed, k))
                .collect();
            let sessions: Vec<u64> = (0..SESSIONS).map(|_| server.connect()).collect();
            for tick in 0..scale.ticks {
                for (k, &c) in sessions.iter().enumerate() {
                    let s = &tours[k].samples[tick];
                    let frame = frame_at(&scene.config.space, &s.pos, FRAME_FRAC);
                    let q = [QueryRegion {
                        region: frame,
                        band: LinearSpeedMap.band_for(s.speed),
                    }];
                    server
                        .query(c, &q)
                        // mar-lint: allow(D004) — sessions were minted by the connect loop above
                        .expect("abl_store session vanished");
                }
            }
            let stats = server
                .index()
                .cache_stats()
                // mar-lint: allow(D004) — the index was opened paged above
                .expect("paged index has a pool");
            stats.hit_ratio()
        },
    );
    let _ = std::fs::remove_file(&path);
    let mut t = Table::new(
        "abl_store",
        "buffer-pool hit rate: motion-aware vs LRU eviction (paged store)",
        "pool_kb",
        policies.iter().map(|(n, _)| n.to_string()).collect(),
    );
    let seeds = scale.tour_seeds.len();
    let per_kb = policies.len() * seeds;
    for (i, &kb) in budgets_kb.iter().enumerate() {
        let chunk = &results[i * per_kb..(i + 1) * per_kb];
        t.push(kb as f64, chunk.chunks(seeds).map(mean).collect());
    }
    t
}

/// Direction-estimator ablation: Kalman/RLS block probabilities vs the
/// \[15\]-style empirical Markov direction model.
pub fn abl_direction(engine: &Engine, scale: &Scale) -> Table {
    // Column order is (kalman, markov) = (flag false, flag true), so the
    // on/off runner's `[true, false]` order is inverted via the flag.
    on_off_buffer_ablation(
        engine,
        scale,
        "abl_direction",
        "cache hit rate: Kalman/RLS vs Markov direction estimation (32 KB)",
        ["kalman_rls", "markov"],
        |kalman_first| SystemConfig {
            buffer_bytes: 32.0 * 1024.0,
            markov_directions: !kalman_first,
            ..Default::default()
        },
    )
}
