//! One row-generator per figure of §VII. See DESIGN.md §3 for the mapping
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Every figure is expressed as a sweep over independent points (speed ×
//! tour seed × size/fraction/combination) dispatched through
//! [`Engine::run`](crate::engine::Engine::run): the points are enumerated
//! in a fixed order, computed on however many workers the engine has, and
//! reassembled in that order — so the tables are byte-identical whether
//! the engine is serial or parallel (`crates/bench/tests/parallel.rs`).

use crate::engine::Engine;
use crate::{Scale, Table};
use mar_buffer::{MotionAwarePrefetcher, NaivePrefetcher, Prefetcher};
use mar_core::system::{run_motion_aware_system, run_naive_system, SystemConfig};
use mar_core::{IncrementalClient, NaivePointIndex, SceneIndexData, Server, WaveletIndex};
use mar_mesh::ResolutionBand;
use mar_workload::{
    frame_at, paper_space, pedestrian_tour, tram_tour, Placement, Scene, SceneConfig, Tour,
    TourConfig,
};
use std::sync::Arc;

/// Builds the scene for `objects` objects under the scale's parameters.
/// Prefer [`Engine::scene`] where an engine is available — it memoises.
pub fn build_scene(scale: &Scale, objects: usize, placement: Placement) -> Scene {
    let mut cfg = SceneConfig::paper(objects, scale.scene_seed);
    cfg.levels = scale.levels;
    cfg.target_bytes = objects as f64 * scale.bytes_per_object;
    cfg.placement = placement;
    Scene::generate(cfg)
}

pub(crate) fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Fig. 8/9 measure clients "traveling similar distances at varying
/// speeds": a slow client needs more ticks to cover the same ground. This
/// returns the tick count for a nominal tour distance, capped to keep the
/// slowest sweeps tractable.
fn ticks_for_distance(scale: &Scale, speed: f64) -> usize {
    let max_step = TourConfig::new(paper_space(), 1, 0, speed).max_step;
    // Scale the nominal distance with the experiment scale so quick runs
    // stay quick; slow clients always get enough ticks to actually cover
    // it (each tick is a cheap sliver query, so even 10^5 ticks are fine).
    let target_distance = 600.0 + scale.ticks as f64;
    let ticks = (target_distance / (speed.max(1e-3) * max_step)).ceil() as usize;
    ticks.clamp(50, 100_000)
}

/// KB retrieved per 1000 units of distance traveled by the incremental
/// client (the initial frame fill is excluded — the paper's tours are long
/// enough to amortise it away, ours are capped).
fn retrieval_kb_per_kdist(scene: &Scene, server: &Server, tour: &Tour, frac: f64) -> f64 {
    let mut client = IncrementalClient::connect(server);
    let mut smooth = mar_core::SmoothedSpeed::default();
    let mut first_bytes = 0.0;
    for (i, s) in tour.samples.iter().enumerate() {
        let frame = frame_at(&scene.config.space, &s.pos, frac);
        let r = client.tick(server, frame, smooth.update(s.speed));
        if i == 0 {
            first_bytes = r.bytes;
        }
    }
    let distance = tour.distance().max(1.0);
    (client.metrics().bytes - first_bytes) / 1024.0 * 1000.0 / distance
}

/// Means of per-seed results, regrouped row-by-row: `results` is laid out
/// `[outer0: seed0..seedN, outer1: seed0..seedN, ...]` and each chunk of
/// `seeds` consecutive values is averaged. Accumulation order equals the
/// point order, so the output is schedule-independent.
fn mean_per_chunk(results: &[f64], seeds: usize) -> Vec<f64> {
    results.chunks(seeds).map(mean).collect()
}

/// Fig. 8 — effect of speed on data retrieval (tram vs pedestrian). One
/// sweep point per (speed, tour seed), each worker owning its own
/// [`Server`] over the shared scene.
pub fn fig8(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let points: Vec<(f64, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| scale.tour_seeds.iter().map(move |&sd| (sp, sd)))
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(speed, seed)| {
            let ticks = ticks_for_distance(scale, speed);
            let tcfg = TourConfig::new(paper_space(), ticks, seed, speed);
            (
                retrieval_kb_per_kdist(&scene, server, &tram_tour(&tcfg), 0.1),
                retrieval_kb_per_kdist(&scene, server, &pedestrian_tour(&tcfg), 0.1),
            )
        },
    );
    let mut t = Table::new(
        "fig8",
        "data retrieved (KB per 1000 units traveled) vs speed",
        "speed",
        vec!["tram_kb_per_kdist".into(), "walk_kb_per_kdist".into()],
    );
    let seeds = scale.tour_seeds.len();
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * seeds..(i + 1) * seeds];
        let tram: Vec<f64> = chunk.iter().map(|r| r.0).collect();
        let walk: Vec<f64> = chunk.iter().map(|r| r.1).collect();
        t.push(speed, vec![mean(&tram), mean(&walk)]);
    }
    t
}

/// Fig. 9(a) — retrieval vs speed for query sizes 5–20 % (tram tours).
/// One point per (speed, query fraction, seed).
pub fn fig9a(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let fracs = [0.05, 0.10, 0.15, 0.20];
    let points: Vec<(f64, f64, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| {
            fracs
                .iter()
                .flat_map(move |&f| scale.tour_seeds.iter().map(move |&sd| (sp, f, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(speed, frac, seed)| {
            let ticks = ticks_for_distance(scale, speed);
            let tour = tram_tour(&TourConfig::new(paper_space(), ticks, seed, speed));
            retrieval_kb_per_kdist(&scene, server, &tour, frac)
        },
    );
    let mut t = Table::new(
        "fig9a",
        "KB per 1000 units vs speed, per query size (tram)",
        "speed",
        fracs
            .iter()
            .map(|f| format!("q{:.0}%_kb", f * 100.0))
            .collect(),
    );
    let seeds = scale.tour_seeds.len();
    let per_speed = fracs.len() * seeds;
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * per_speed..(i + 1) * per_speed];
        t.push(speed, mean_per_chunk(chunk, seeds));
    }
    t
}

/// Fig. 9(b) — retrieval vs speed for dataset sizes 20–80 MB (tram tours).
/// One point per (speed, dataset size, seed); each worker lazily builds a
/// server per size it encounters, over the engine-cached scenes.
pub fn fig9b(engine: &Engine, scale: &Scale) -> Table {
    let sizes = [100usize, 200, 300, 400];
    let scaled: Vec<usize> = sizes
        .iter()
        .map(|&n| (n * scale.objects_default / 300).max(4))
        .collect();
    let scenes: Vec<Arc<Scene>> = scaled
        .iter()
        .map(|&n| engine.scene(scale, n, Placement::Uniform))
        .collect();
    let points: Vec<(f64, usize, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| {
            (0..scenes.len())
                .flat_map(move |si| scale.tour_seeds.iter().map(move |&sd| (sp, si, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || scenes.iter().map(|_| None).collect::<Vec<Option<Server>>>(),
        |servers, &(speed, si, seed)| {
            let server = servers[si].get_or_insert_with(|| Server::new(&scenes[si]));
            let ticks = ticks_for_distance(scale, speed);
            let tour = tram_tour(&TourConfig::new(paper_space(), ticks, seed, speed));
            retrieval_kb_per_kdist(&scenes[si], server, &tour, 0.1)
        },
    );
    let mut t = Table::new(
        "fig9b",
        "KB per 1000 units vs speed, per dataset size (tram)",
        "speed",
        sizes.iter().map(|n| format!("{}MB_kb", n / 5)).collect(),
    );
    let seeds = scale.tour_seeds.len();
    let per_speed = scenes.len() * seeds;
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * per_speed..(i + 1) * per_speed];
        t.push(speed, mean_per_chunk(chunk, seeds));
    }
    t
}

/// The four prefetcher/tour combinations every buffer experiment sweeps.
const BUFFER_COMBOS: [(bool, bool); 4] = [
    (true, true),   // motion-aware, tram
    (true, false),  // motion-aware, pedestrian
    (false, true),  // naive, tram
    (false, false), // naive, pedestrian
];

/// Runs one buffer-experiment sweep point: the given tour kind under the
/// given prefetcher. Returns `(hit_rate, utilization)`.
fn buffer_sim_point(
    server: &Server,
    scene: &Scene,
    tour: &Tour,
    motion_aware: bool,
    cfg: &SystemConfig,
) -> (f64, f64) {
    let (mut ma, mut naive) = (MotionAwarePrefetcher::new(4), NaivePrefetcher);
    let p: &mut dyn Prefetcher = if motion_aware { &mut ma } else { &mut naive };
    let m = run_motion_aware_system(server, scene, tour, p, cfg).cache;
    (m.hit_rate(), m.utilization())
}

/// Shared engine runner for the buffer experiments: for each x, a
/// `(SystemConfig, speed)` pair; points fan out over
/// (x, combo, seed) and each worker reuses one server (simulations open
/// their own sessions, so reuse is exact).
#[allow(clippy::too_many_arguments)] // two parallel tables share one sweep
fn buffer_tables(
    engine: &Engine,
    scale: &Scale,
    xs: &[f64],
    mut cfg_of: impl FnMut(f64) -> (SystemConfig, f64),
    id_hit: &'static str,
    id_util: &'static str,
    title_hit: &'static str,
    title_util: &'static str,
    xlabel: &'static str,
) -> (Table, Table) {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let configs: Vec<(SystemConfig, f64)> = xs.iter().map(|&x| cfg_of(x)).collect();
    let points: Vec<(usize, usize, u64)> = (0..xs.len())
        .flat_map(|xi| {
            (0..BUFFER_COMBOS.len())
                .flat_map(move |ci| scale.tour_seeds.iter().map(move |&sd| (xi, ci, sd)))
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(xi, ci, seed)| {
            let (cfg, speed) = &configs[xi];
            let (motion_aware, tram) = BUFFER_COMBOS[ci];
            let tcfg = TourConfig::new(paper_space(), scale.ticks, seed, *speed);
            let tour = if tram {
                tram_tour(&tcfg)
            } else {
                pedestrian_tour(&tcfg)
            };
            buffer_sim_point(server, &scene, &tour, motion_aware, cfg)
        },
    );
    let cols = vec![
        "ma_tram".to_string(),
        "ma_walk".to_string(),
        "naive_tram".to_string(),
        "naive_walk".to_string(),
    ];
    let mut t_hit = Table::new(id_hit, title_hit, xlabel, cols.clone());
    let mut t_util = Table::new(id_util, title_util, xlabel, cols);
    let seeds = scale.tour_seeds.len();
    let per_x = BUFFER_COMBOS.len() * seeds;
    for (xi, &x) in xs.iter().enumerate() {
        let chunk = &results[xi * per_x..(xi + 1) * per_x];
        let hits: Vec<f64> = chunk.iter().map(|r| r.0).collect();
        let utils: Vec<f64> = chunk.iter().map(|r| r.1).collect();
        t_hit.push(x, mean_per_chunk(&hits, seeds));
        t_util.push(x, mean_per_chunk(&utils, seeds));
    }
    (t_hit, t_util)
}

/// Fig. 10(a)+(b) — cache hit rate and data utilization vs buffer size
/// (16–128 KB), motion-aware vs naive, tram & pedestrian.
pub fn fig10(engine: &Engine, scale: &Scale) -> (Table, Table) {
    let sizes = [16.0, 32.0, 64.0, 128.0];
    buffer_tables(
        engine,
        scale,
        &sizes,
        |kb| {
            (
                SystemConfig {
                    buffer_bytes: kb * 1024.0,
                    ..Default::default()
                },
                0.5,
            )
        },
        "fig10a",
        "fig10b",
        "cache hit rate vs buffer size (KB)",
        "data utilization vs buffer size (KB)",
        "buffer_kb",
    )
}

/// Fig. 11(a)+(b) — cache hit rate and data utilization vs speed
/// (multiresolution buffering), 64 KB buffer.
pub fn fig11(engine: &Engine, scale: &Scale) -> (Table, Table) {
    let speeds = scale.speeds.clone();
    buffer_tables(
        engine,
        scale,
        &speeds,
        |speed| {
            (
                SystemConfig {
                    buffer_bytes: 64.0 * 1024.0,
                    ..Default::default()
                },
                speed,
            )
        },
        "fig11a",
        "fig11b",
        "cache hit rate vs speed (64 KB buffer)",
        "data utilization vs speed (64 KB buffer)",
        "speed",
    )
}

/// Average index I/O per query frame over one tram tour for both access
/// methods. Queries are read-only — the indexes are shared across workers.
fn index_io_seed(
    good: &WaveletIndex,
    naive: &NaivePointIndex,
    scale: &Scale,
    speed: f64,
    frac: f64,
    seed: u64,
) -> (f64, f64) {
    let tour = tram_tour(&TourConfig::new(paper_space(), scale.ticks, seed, speed));
    let mut g = 0u64;
    let mut n = 0u64;
    for s in &tour.samples {
        let frame = frame_at(&paper_space(), &s.pos, frac);
        let band = ResolutionBand::new(s.speed, 1.0);
        g += good.query(&frame, band).1;
        n += naive.query(&frame, band).1;
    }
    (g as f64 / tour.len() as f64, n as f64 / tour.len() as f64)
}

/// Regroups per-seed `(good, naive)` I/O pairs into per-x mean rows.
fn index_io_rows(results: &[(f64, f64)], seeds: usize) -> Vec<Vec<f64>> {
    results
        .chunks(seeds)
        .map(|chunk| {
            let g: Vec<f64> = chunk.iter().map(|r| r.0).collect();
            let n: Vec<f64> = chunk.iter().map(|r| r.1).collect();
            vec![mean(&g), mean(&n)]
        })
        .collect()
}

/// Fig. 12 — index I/O vs speed: support-region index vs naive point
/// index. Indexes built once, shared read-only across workers; one point
/// per (speed, seed).
pub fn fig12(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let data = SceneIndexData::build(&scene);
    let good = WaveletIndex::build(&data);
    let naive = NaivePointIndex::build(&data);
    let points: Vec<(f64, u64)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| scale.tour_seeds.iter().map(move |&sd| (sp, sd)))
        .collect();
    let results = engine.run(
        points,
        || (),
        |_, &(speed, seed)| index_io_seed(&good, &naive, scale, speed, 0.1, seed),
    );
    let mut t = Table::new(
        "fig12",
        "index node accesses per query vs speed",
        "speed",
        vec!["motion_aware_io".into(), "naive_io".into()],
    );
    for (&speed, row) in scale
        .speeds
        .iter()
        .zip(index_io_rows(&results, scale.tour_seeds.len()))
    {
        t.push(speed, row);
    }
    t
}

/// Fig. 13(a) — index I/O vs query size at speed 0.5.
/// One point per (query fraction, seed).
pub fn fig13a(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let data = SceneIndexData::build(&scene);
    let good = WaveletIndex::build(&data);
    let naive = NaivePointIndex::build(&data);
    let fracs = [0.05, 0.10, 0.15, 0.20];
    let points: Vec<(f64, u64)> = fracs
        .iter()
        .flat_map(|&f| scale.tour_seeds.iter().map(move |&sd| (f, sd)))
        .collect();
    let results = engine.run(
        points,
        || (),
        |_, &(frac, seed)| index_io_seed(&good, &naive, scale, 0.5, frac, seed),
    );
    let mut t = Table::new(
        "fig13a",
        "index node accesses per query vs query size (speed 0.5)",
        "query_pct",
        vec!["motion_aware_io".into(), "naive_io".into()],
    );
    for (&frac, row) in fracs
        .iter()
        .zip(index_io_rows(&results, scale.tour_seeds.len()))
    {
        t.push(frac * 100.0, row);
    }
    t
}

/// Fig. 13(b) — index I/O vs dataset size at speed 0.5, 10 % frames. One
/// point per dataset size; each point builds its indexes over the
/// engine-cached scene of that size.
pub fn fig13b(engine: &Engine, scale: &Scale) -> Table {
    let sizes = [100usize, 200, 300, 400];
    let scaled: Vec<usize> = sizes
        .iter()
        .map(|&n| (n * scale.objects_default / 300).max(4))
        .collect();
    let results = engine.run(
        scaled.clone(),
        || (),
        |_, &n| {
            let scene = engine.scene(scale, n, Placement::Uniform);
            let data = SceneIndexData::build(&scene);
            let good = WaveletIndex::build(&data);
            let naive = NaivePointIndex::build(&data);
            let per_seed: Vec<(f64, f64)> = scale
                .tour_seeds
                .iter()
                .map(|&sd| index_io_seed(&good, &naive, scale, 0.5, 0.1, sd))
                .collect();
            let g: Vec<f64> = per_seed.iter().map(|r| r.0).collect();
            let nv: Vec<f64> = per_seed.iter().map(|r| r.1).collect();
            (mean(&g), mean(&nv))
        },
    );
    let mut t = Table::new(
        "fig13b",
        "index node accesses per query vs dataset size (speed 0.5)",
        "dataset_mb",
        vec!["motion_aware_io".into(), "naive_io".into()],
    );
    for (&label, &(g, n)) in sizes.iter().zip(&results) {
        t.push((label / 5) as f64, vec![g, n]);
    }
    t
}

/// Figs. 14 & 15 — end-to-end query response time vs speed, motion-aware
/// vs naive system, for uniform (fig14) or Zipfian (fig15) data.
/// One point per (speed, seed, tour kind).
pub fn fig14_15(engine: &Engine, scale: &Scale, placement: Placement) -> Table {
    let (id, title): (&'static str, &'static str) = match placement {
        Placement::Uniform => ("fig14", "query response time (s) vs speed (uniform)"),
        Placement::Zipf { .. } => ("fig15", "query response time (s) vs speed (Zipf)"),
    };
    let scene = engine.scene(scale, scale.objects_default, placement);
    // Fig. 14 uses 5 % frames.
    let cfg = SystemConfig {
        frame_frac: 0.05,
        ..Default::default()
    };
    // Point order: speed → seed → (tram, walk).
    let points: Vec<(f64, u64, bool)> = scale
        .speeds
        .iter()
        .flat_map(|&sp| {
            scale
                .tour_seeds
                .iter()
                .flat_map(move |&sd| [(sp, sd, true), (sp, sd, false)])
        })
        .collect();
    let results = engine.run(
        points,
        || Server::new(&scene),
        |server, &(speed, seed, tram)| {
            let tcfg = TourConfig::new(paper_space(), scale.ticks, seed, speed);
            let tour = if tram {
                tram_tour(&tcfg)
            } else {
                pedestrian_tour(&tcfg)
            };
            let mut p = MotionAwarePrefetcher::new(4);
            let ma = run_motion_aware_system(server, &scene, &tour, &mut p, &cfg);
            let nv = run_naive_system(server, &scene, &tour, &cfg);
            (ma.mean_response(), nv.mean_response())
        },
    );
    let mut t = Table::new(
        id,
        title,
        "speed",
        vec![
            "ma_tram_s".into(),
            "ma_walk_s".into(),
            "naive_tram_s".into(),
            "naive_walk_s".into(),
        ],
    );
    let seeds = scale.tour_seeds.len();
    let per_speed = seeds * 2;
    for (i, &speed) in scale.speeds.iter().enumerate() {
        let chunk = &results[i * per_speed..(i + 1) * per_speed];
        // chunk is [seed0 tram, seed0 walk, seed1 tram, ...].
        let col = |kind: usize, which: fn(&(f64, f64)) -> f64| -> f64 {
            let vals: Vec<f64> = chunk.iter().skip(kind).step_by(2).map(which).collect();
            mean(&vals)
        };
        t.push(
            speed,
            vec![
                col(0, |r| r.0),
                col(1, |r| r.0),
                col(0, |r| r.1),
                col(1, |r| r.1),
            ],
        );
    }
    t
}
