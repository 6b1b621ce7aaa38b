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
//! Each is one `figs::sweep` over its axes with the figures' per-point
//! measurements, so serial and parallel runs agree byte-for-byte.

use crate::engine::Engine;
use crate::figs::{buffer_stats, io_per_query, retrieval_kb_per_kdist, sweep, table, tour};
use crate::serve::replay_pool_tours;
use crate::{Scale, Table};
use mar_buffer::{AllocationStrategy, MotionAwarePrefetcher};
use mar_core::system::SystemConfig;
use mar_core::{CachePolicy, SceneIndexData, ScratchPath, Server, WaveletIndex};
use mar_rtree::{RTree, RTreeConfig, Variant};
use mar_workload::Placement;
use std::sync::Arc;

/// Index ablation: average I/O per tram-tour query (first tour seed) for
/// four ways of building the same support-region index. The four index
/// variants are built once and shared read-only.
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
    let variants = [
        ("rstar_bulk", build(Variant::RStar, true)),
        ("rstar_insert", build(Variant::RStar, false)),
        ("guttman_bulk", build(Variant::Guttman, true)),
        ("guttman_insert", build(Variant::Guttman, false)),
    ];
    let rows = sweep(
        engine,
        &scale.speeds,
        &variants,
        &scale.tour_seeds[..1],
        || (),
        |_, &speed, (_, index), seed| {
            let tour = tour(scale.ticks, speed, seed, true);
            [io_per_query(&tour, 0.1, |w, band| index.query(w, band).1)]
        },
    );
    table(
        "abl_index",
        "index I/O per query: build strategy ablation",
        "speed",
        variants.iter().map(|(n, _)| n),
        scale.speeds.iter().copied(),
        rows,
    )
}

/// Allocation ablation: hit rate under the three strategies.
pub fn abl_alloc(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let strategies = [
        ("recursive_eq2", AllocationStrategy::Recursive),
        ("even_split", AllocationStrategy::Even),
        ("best_ordering", AllocationStrategy::BestOrdering),
    ];
    let kbs = [16.0, 64.0];
    let rows = sweep(
        engine,
        &kbs,
        &strategies,
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &kb, &(_, strategy), seed| {
            let cfg = SystemConfig {
                buffer_bytes: kb * 1024.0,
                ..Default::default()
            };
            let mut p = MotionAwarePrefetcher::with_strategy(4, strategy);
            let tour = tour(scale.ticks, 0.5, seed, true);
            [buffer_stats(server, &scene, &tour, &mut p, &cfg)[0]]
        },
    );
    table(
        "abl_alloc",
        "cache hit rate: buffer allocation strategy ablation",
        "buffer_kb",
        strategies.iter().map(|(n, _)| n),
        kbs,
        rows,
    )
}

/// Sector-count ablation: hit rate and utilization for k ∈ {2, 4, 8, 16}.
pub fn abl_sectors(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let ks = [2usize, 4, 8, 16];
    let cfg = SystemConfig {
        buffer_bytes: 32.0 * 1024.0,
        ..Default::default()
    };
    let rows = sweep(
        engine,
        &ks,
        &[()],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &k, _, seed| {
            let tour = tour(scale.ticks, 0.5, seed, true);
            let mut p = MotionAwarePrefetcher::new(k);
            buffer_stats(server, &scene, &tour, &mut p, &cfg)
        },
    );
    table(
        "abl_sectors",
        "cache hit rate vs number of direction sectors",
        "k",
        ["hit_rate", "utilization"],
        ks.iter().map(|&k| k as f64),
        rows,
    )
}

/// Multiresolution-buffering ablation (§V final ¶) across speeds.
pub fn abl_multires(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let rows = sweep(
        engine,
        &scale.speeds,
        &[true, false],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &multires, seed| {
            let cfg = SystemConfig {
                buffer_bytes: 32.0 * 1024.0,
                multires,
                ..Default::default()
            };
            let tour = tour(scale.ticks, speed, seed, true);
            let mut p = MotionAwarePrefetcher::new(4);
            [buffer_stats(server, &scene, &tour, &mut p, &cfg)[0]]
        },
    );
    table(
        "abl_multires",
        "cache hit rate: speed-scaled resolutions on/off (32 KB)",
        "speed",
        ["multires", "full_res_only"],
        scale.speeds.iter().copied(),
        rows,
    )
}

/// Speed-smoothing ablation: total KB retrieved per 1000 units on a
/// station-heavy tram tour, with smoothed vs raw MapSpeedToResolution
/// input.
pub fn abl_smoothing(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let rows = sweep(
        engine,
        &scale.speeds,
        &[true, false],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &smoothed, seed| {
            let tour = tour(scale.ticks, speed, seed, true);
            [retrieval_kb_per_kdist(&scene, server, &tour, 0.1, smoothed)]
        },
    );
    table(
        "abl_smoothing",
        "retrieval (KB/1000 units): raw vs smoothed speed mapping (tram)",
        "speed",
        ["smoothed_kb", "raw_kb"],
        scale.speeds.iter().copied(),
        rows,
    )
}

/// Out-of-core buffer-pool ablation: tour-workload hit rate of the
/// Eq. 2 motion-aware eviction policy vs plain LRU across pool budgets.
/// The index is serialized to a scratch page file once, and every
/// (budget, policy, seed) point reopens it with its own pool and replays
/// the serve-style tour workload against it. The transcript-level answers
/// are backend-invariant, so only the pool's hit rate distinguishes the
/// columns.
pub fn abl_store(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let data = Arc::new(SceneIndexData::build(&scene));
    // mar-lint: allow(D004) — a scratch dir the ablation cannot run without
    let path = ScratchPath::new("bench-abl-store", "abl_store.pages").expect("create scratch dir");
    // mar-lint: allow(D004) — the ablation cannot run without its page file
    mar_core::write_store(&path, &data).expect("write page file");
    let policies = [
        ("motion_aware", CachePolicy::MotionAware),
        ("lru", CachePolicy::Lru),
    ];
    let budgets_kb = [16usize, 32, 64, 128];
    let rows = sweep(
        engine,
        &budgets_kb,
        &policies,
        &scale.tour_seeds,
        || (),
        |_, &kb, &(_, policy), seed| {
            let index = WaveletIndex::open_paged(&path, kb * 1024, policy)
                // mar-lint: allow(D004) — the file was written above; failing to reopen it is fatal
                .expect("reopen page file");
            let space = scene.config.space;
            [replay_pool_tours(&data, index, space, scale.ticks, seed).hit_ratio()]
        },
    );
    table(
        "abl_store",
        "buffer-pool hit rate: motion-aware vs LRU eviction (paged store)",
        "pool_kb",
        policies.iter().map(|(n, _)| n),
        budgets_kb.iter().map(|&kb| kb as f64),
        rows,
    )
}

/// Direction-estimator ablation: Kalman/RLS block probabilities vs the
/// \[15\]-style empirical Markov direction model.
pub fn abl_direction(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let rows = sweep(
        engine,
        &scale.speeds,
        &[false, true],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &markov_directions, seed| {
            let cfg = SystemConfig {
                buffer_bytes: 32.0 * 1024.0,
                markov_directions,
                ..Default::default()
            };
            let tour = tour(scale.ticks, speed, seed, true);
            let mut p = MotionAwarePrefetcher::new(4);
            [buffer_stats(server, &scene, &tour, &mut p, &cfg)[0]]
        },
    );
    table(
        "abl_direction",
        "cache hit rate: Kalman/RLS vs Markov direction estimation (32 KB)",
        "speed",
        ["kalman_rls", "markov"],
        scale.speeds.iter().copied(),
        rows,
    )
}
