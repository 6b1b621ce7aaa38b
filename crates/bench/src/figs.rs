//! One row-generator per figure of §VII. See DESIGN.md §3 for the mapping
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Every figure and ablation but fig13b is one `sweep`: its rows (the x
//! axis), its columns and the tour seeds span the points, one measurement
//! closure computes a point on [`Engine::run`](crate::engine::Engine::run)'s
//! workers, and each (row, column) is the mean over its seeds, summed in
//! seed order — so the tables are byte-identical whether the engine is
//! serial or parallel (`crates/bench/tests/parallel.rs`).

use crate::engine::Engine;
use crate::{Scale, Table};
use mar_buffer::{MotionAwarePrefetcher, NaivePrefetcher, Prefetcher};
use mar_core::system::{run_motion_aware_system, run_naive_system, SystemConfig};
use mar_core::{IncrementalClient, NaivePointIndex, SceneIndexData, Server, WaveletIndex};
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;
use mar_workload::{
    frame_at, paper_space, pedestrian_tour, tram_tour, Placement, Scene, SceneConfig, Tour,
    TourConfig,
};
use std::sync::Arc;

/// The seed of every generated scene.
pub const SCENE_SEED: u64 = 42;

/// Bytes per object: the paper's 0.2 MB (§VII-A), so 300 objects are its
/// 60 MB default dataset.
pub const BYTES_PER_OBJECT: f64 = 0.2 * 1024.0 * 1024.0;

/// Builds the scene for `objects` objects under the scale's parameters.
/// Prefer [`Engine::scene`] where an engine is available — it memoises.
pub fn build_scene(scale: &Scale, objects: usize, placement: Placement) -> Scene {
    let mut cfg = SceneConfig::paper(objects, SCENE_SEED);
    cfg.levels = scale.levels;
    cfg.target_bytes = objects as f64 * BYTES_PER_OBJECT;
    cfg.placement = placement;
    Scene::generate(cfg)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-metric means of one (row, column)'s results, one per tour seed in
/// seed order.
fn seed_mean<const M: usize>(per_seed: &[[f64; M]]) -> [f64; M] {
    std::array::from_fn(|m| mean(&per_seed.iter().map(|v| v[m]).collect::<Vec<_>>()))
}

/// The sweep behind every table: runs `measure` at each (row, column,
/// tour seed) point, enumerated in that order, on the engine's workers
/// (each owning one `init()` state), and returns per row and per metric
/// the column values, each the [`seed_mean`] of its points.
pub(crate) fn sweep<X: Sync, C: Sync, S, const M: usize>(
    engine: &Engine,
    rows: &[X],
    cols: &[C],
    seeds: &[u64],
    init: impl Fn() -> S + Sync,
    measure: impl Fn(&mut S, &X, &C, u64) -> [f64; M] + Sync,
) -> Vec<[Vec<f64>; M]> {
    let points: Vec<(usize, usize, u64)> = (0..rows.len())
        .flat_map(|r| (0..cols.len()).flat_map(move |c| seeds.iter().map(move |&s| (r, c, s))))
        .collect();
    let results = engine.run(points, init, |state, &(r, c, seed)| {
        measure(state, &rows[r], &cols[c], seed)
    });
    results
        .chunks(cols.len() * seeds.len())
        .map(|row| {
            let means: Vec<[f64; M]> = row.chunks(seeds.len()).map(seed_mean).collect();
            std::array::from_fn(|m| means.iter().map(|c| c[m]).collect())
        })
        .collect()
}

/// The table of `sweep` rows at x values `xs`: each row lists every
/// metric's columns in turn.
pub(crate) fn table<const M: usize>(
    id: &'static str,
    title: &'static str,
    xlabel: &'static str,
    columns: impl IntoIterator<Item = impl ToString>,
    xs: impl IntoIterator<Item = f64>,
    rows: Vec<[Vec<f64>; M]>,
) -> Table {
    let columns = columns.into_iter().map(|c| c.to_string()).collect();
    let mut t = Table::new(id, title, xlabel, columns);
    for (x, row) in xs.into_iter().zip(rows) {
        t.push(x, row.concat());
    }
    t
}

/// The `ticks`-long tram (or pedestrian) tour at `speed`, seeded `seed`.
pub(crate) fn tour(ticks: usize, speed: f64, seed: u64, tram: bool) -> Tour {
    let cfg = TourConfig::new(paper_space(), ticks, seed, speed);
    if tram {
        tram_tour(&cfg)
    } else {
        pedestrian_tour(&cfg)
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
/// client, which maps the smoothed (or, `smoothed` false, the raw) speed
/// to a resolution. The initial frame fill is excluded — the paper's
/// tours are long enough to amortise it away, ours are capped.
pub(crate) fn retrieval_kb_per_kdist(
    scene: &Scene,
    server: &Server,
    tour: &Tour,
    frac: f64,
    smoothed: bool,
) -> f64 {
    let mut client = IncrementalClient::connect(server);
    let mut smooth = mar_core::SmoothedSpeed::default();
    let mut first_bytes = 0.0;
    for (i, s) in tour.samples.iter().enumerate() {
        let frame = frame_at(&scene.config.space, &s.pos, frac);
        let speed = if smoothed {
            smooth.update(s.speed)
        } else {
            s.speed
        };
        let r = client.tick(server, frame, speed);
        if i == 0 {
            first_bytes = r.bytes;
        }
    }
    let distance = tour.distance().max(1.0);
    (client.metrics().bytes - first_bytes) / 1024.0 * 1000.0 / distance
}

/// The buffered client's cache `[hit rate, utilization]` over `tour`
/// under `prefetcher`.
pub(crate) fn buffer_stats(
    server: &Server,
    scene: &Scene,
    tour: &Tour,
    prefetcher: &mut dyn Prefetcher,
    cfg: &SystemConfig,
) -> [f64; 2] {
    let m = run_motion_aware_system(server, scene, tour, prefetcher, cfg).cache;
    [m.hit_rate(), m.utilization()]
}

/// Average index I/O per query frame of `tour`, `io` counting the node
/// accesses of one frame at the sample's speed band.
pub(crate) fn io_per_query(
    tour: &Tour,
    frac: f64,
    io: impl Fn(&Rect2, ResolutionBand) -> u64,
) -> f64 {
    let total: u64 = tour
        .samples
        .iter()
        .map(|s| {
            let frame = frame_at(&paper_space(), &s.pos, frac);
            io(&frame, ResolutionBand::new(s.speed, 1.0))
        })
        .sum();
    total as f64 / tour.len() as f64
}

/// Fig. 8 — effect of speed on data retrieval (tram vs pedestrian). Each
/// worker owns its own [`Server`] over the shared scene.
pub fn fig8(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let rows = sweep(
        engine,
        &scale.speeds,
        &[true, false],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &tram, seed| {
            let tour = tour(ticks_for_distance(scale, speed), speed, seed, tram);
            [retrieval_kb_per_kdist(&scene, server, &tour, 0.1, true)]
        },
    );
    table(
        "fig8",
        "data retrieved (KB per 1000 units traveled) vs speed",
        "speed",
        ["tram_kb_per_kdist", "walk_kb_per_kdist"],
        scale.speeds.iter().copied(),
        rows,
    )
}

/// Fig. 9(a) — retrieval vs speed for query sizes 5–20 % (tram tours).
pub fn fig9a(engine: &Engine, scale: &Scale) -> Table {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let fracs = [0.05, 0.10, 0.15, 0.20];
    let rows = sweep(
        engine,
        &scale.speeds,
        &fracs,
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &frac, seed| {
            let tour = tour(ticks_for_distance(scale, speed), speed, seed, true);
            [retrieval_kb_per_kdist(&scene, server, &tour, frac, true)]
        },
    );
    table(
        "fig9a",
        "KB per 1000 units vs speed, per query size (tram)",
        "speed",
        fracs.iter().map(|f| format!("q{:.0}%_kb", f * 100.0)),
        scale.speeds.iter().copied(),
        rows,
    )
}

/// The dataset sizes fig9b and fig13b sweep: paper-scale object counts
/// (0.2 MB each, so 20–80 MB), scaled to the scale's default dataset.
const DATASETS: [usize; 4] = [100, 200, 300, 400];

/// The engine-cached uniform scene of paper-scale dataset size `n`.
fn dataset_scene(engine: &Engine, scale: &Scale, n: usize) -> Arc<Scene> {
    let objects = (n * scale.objects_default / 300).max(4);
    engine.scene(scale, objects, Placement::Uniform)
}

/// Fig. 9(b) — retrieval vs speed for dataset sizes 20–80 MB (tram tours).
/// Each worker lazily builds a server per size it encounters, over the
/// engine-cached scenes.
pub fn fig9b(engine: &Engine, scale: &Scale) -> Table {
    let scenes = DATASETS.map(|n| dataset_scene(engine, scale, n));
    let rows = sweep(
        engine,
        &scale.speeds,
        &(0..scenes.len()).collect::<Vec<_>>(),
        &scale.tour_seeds,
        || scenes.iter().map(|_| None).collect::<Vec<Option<Server>>>(),
        |servers, &speed, &si, seed| {
            let scene = &scenes[si];
            let server = servers[si].get_or_insert_with(|| Server::new(scene));
            let tour = tour(ticks_for_distance(scale, speed), speed, seed, true);
            [retrieval_kb_per_kdist(scene, server, &tour, 0.1, true)]
        },
    );
    table(
        "fig9b",
        "KB per 1000 units vs speed, per dataset size (tram)",
        "speed",
        DATASETS.map(|n| format!("{}MB_kb", n / 5)),
        scale.speeds.iter().copied(),
        rows,
    )
}

/// The `(motion-aware, tram)` prefetcher/tour combinations every buffer
/// figure sweeps, in column order.
const BUFFER_COMBOS: [(bool, bool); 4] =
    [(true, true), (true, false), (false, true), (false, false)];

/// The two tables of a buffer figure, `(id, title)` each: cache hit rate
/// and data utilization at each x, where `at` gives the point's buffer
/// size (KB) and speed. Each worker reuses one server (simulations open
/// their own sessions, so reuse is exact).
fn buffer_tables(
    engine: &Engine,
    scale: &Scale,
    tables: [(&'static str, &'static str); 2],
    xlabel: &'static str,
    xs: &[f64],
    at: impl Fn(f64) -> (f64, f64) + Sync,
) -> (Table, Table) {
    let scene = engine.scene(scale, scale.objects_default, Placement::Uniform);
    let rows = sweep(
        engine,
        xs,
        &BUFFER_COMBOS,
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &x, &(motion_aware, tram), seed| {
            let (kb, speed) = at(x);
            let cfg = SystemConfig {
                buffer_bytes: kb * 1024.0,
                ..Default::default()
            };
            let (mut ma, mut naive) = (MotionAwarePrefetcher::new(4), NaivePrefetcher);
            let p: &mut dyn Prefetcher = if motion_aware { &mut ma } else { &mut naive };
            let tour = tour(scale.ticks, speed, seed, tram);
            buffer_stats(server, &scene, &tour, p, &cfg)
        },
    );
    let (hit, util) = rows.into_iter().map(|[h, u]| ([h], [u])).unzip();
    let columns = ["ma_tram", "ma_walk", "naive_tram", "naive_walk"];
    let [hit_table, util_table] = [(tables[0], hit), (tables[1], util)]
        .map(|((id, title), rows)| table(id, title, xlabel, columns, xs.iter().copied(), rows));
    (hit_table, util_table)
}

/// Fig. 10(a)+(b) — cache hit rate and data utilization vs buffer size
/// (16–128 KB), motion-aware vs naive, tram & pedestrian.
pub fn fig10(engine: &Engine, scale: &Scale) -> (Table, Table) {
    buffer_tables(
        engine,
        scale,
        [
            ("fig10a", "cache hit rate vs buffer size (KB)"),
            ("fig10b", "data utilization vs buffer size (KB)"),
        ],
        "buffer_kb",
        &[16.0, 32.0, 64.0, 128.0],
        |kb| (kb, 0.5),
    )
}

/// Fig. 11(a)+(b) — cache hit rate and data utilization vs speed
/// (multiresolution buffering), 64 KB buffer.
pub fn fig11(engine: &Engine, scale: &Scale) -> (Table, Table) {
    buffer_tables(
        engine,
        scale,
        [
            ("fig11a", "cache hit rate vs speed (64 KB buffer)"),
            ("fig11b", "data utilization vs speed (64 KB buffer)"),
        ],
        "speed",
        &scale.speeds,
        |speed| (64.0, speed),
    )
}

/// The support-region index and the naive point index over `scene`.
fn index_pair(scene: &Scene) -> (WaveletIndex, NaivePointIndex) {
    let data = SceneIndexData::build(scene);
    (WaveletIndex::build(&data), NaivePointIndex::build(&data))
}

/// Average I/O per query frame of one tram tour, `[support-region index,
/// naive point index]`. Queries are read-only — the indexes are shared
/// across workers.
fn index_io_seed(
    (good, naive): &(WaveletIndex, NaivePointIndex),
    scale: &Scale,
    speed: f64,
    frac: f64,
    seed: u64,
) -> [f64; 2] {
    let tour = tour(scale.ticks, speed, seed, true);
    [
        io_per_query(&tour, frac, |frame, band| good.query(frame, band).1),
        io_per_query(&tour, frac, |frame, band| naive.query(frame, band).1),
    ]
}

/// Column names of the index I/O figures.
const IO_COLUMNS: [&str; 2] = ["motion_aware_io", "naive_io"];

/// Fig. 12 — index I/O vs speed: support-region index vs naive point
/// index, both built once.
pub fn fig12(engine: &Engine, scale: &Scale) -> Table {
    let indexes = index_pair(&engine.scene(scale, scale.objects_default, Placement::Uniform));
    let rows = sweep(
        engine,
        &scale.speeds,
        &[()],
        &scale.tour_seeds,
        || (),
        |_, &speed, _, seed| index_io_seed(&indexes, scale, speed, 0.1, seed),
    );
    table(
        "fig12",
        "index node accesses per query vs speed",
        "speed",
        IO_COLUMNS,
        scale.speeds.iter().copied(),
        rows,
    )
}

/// Fig. 13(a) — index I/O vs query size at speed 0.5.
pub fn fig13a(engine: &Engine, scale: &Scale) -> Table {
    let indexes = index_pair(&engine.scene(scale, scale.objects_default, Placement::Uniform));
    let fracs = [0.05, 0.10, 0.15, 0.20];
    let rows = sweep(
        engine,
        &fracs,
        &[()],
        &scale.tour_seeds,
        || (),
        |_, &frac, _, seed| index_io_seed(&indexes, scale, 0.5, frac, seed),
    );
    table(
        "fig13a",
        "index node accesses per query vs query size (speed 0.5)",
        "query_pct",
        IO_COLUMNS,
        fracs.iter().map(|f| f * 100.0),
        rows,
    )
}

/// Fig. 13(b) — index I/O vs dataset size at speed 0.5, 10 % frames. One
/// point per dataset size, which builds its indexes over the engine-cached
/// scene of that size and runs every tour seed on them.
pub fn fig13b(engine: &Engine, scale: &Scale) -> Table {
    let rows = engine.run(
        DATASETS.to_vec(),
        || (),
        |_, &n| {
            let indexes = index_pair(&dataset_scene(engine, scale, n));
            let per_seed: Vec<[f64; 2]> = scale
                .tour_seeds
                .iter()
                .map(|&seed| index_io_seed(&indexes, scale, 0.5, 0.1, seed))
                .collect();
            seed_mean(&per_seed).map(|v| vec![v])
        },
    );
    table(
        "fig13b",
        "index node accesses per query vs dataset size (speed 0.5)",
        "dataset_mb",
        IO_COLUMNS,
        DATASETS.map(|n| (n / 5) as f64),
        rows,
    )
}

/// Figs. 14 & 15 — end-to-end query response time vs speed, motion-aware
/// vs naive system, for uniform (fig14) or Zipfian (fig15) data.
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
    let rows = sweep(
        engine,
        &scale.speeds,
        &[true, false],
        &scale.tour_seeds,
        || Server::new(&scene),
        |server, &speed, &tram, seed| {
            let tour = tour(scale.ticks, speed, seed, tram);
            let mut p = MotionAwarePrefetcher::new(4);
            let ma = run_motion_aware_system(server, &scene, &tour, &mut p, &cfg);
            let naive = run_naive_system(server, &scene, &tour, &cfg);
            [ma.mean_response(), naive.mean_response()]
        },
    );
    table(
        id,
        title,
        "speed",
        ["ma_tram_s", "ma_walk_s", "naive_tram_s", "naive_walk_s"],
        scale.speeds.iter().copied(),
        rows,
    )
}
