//! `micro` — the microbenchmark harness (`mar-bench micro`).
//!
//! Times the hot operations the figure sweeps are built from — index
//! construction and window-query throughput — and writes the
//! per-operation statistics to `BENCH_micro.json` (see EXPERIMENTS.md for
//! the schema) next to the human-readable stderr report.
//!
//! ```text
//! cargo run -p mar-bench --release --bin micro            # full run
//! cargo run -p mar-bench --release --bin micro -- --smoke # CI smoke
//! cargo run -p mar-bench --release --bin micro -- --out-dir target
//! ```
//!
//! `--smoke` collapses every measurement to a tiny scene and a couple of
//! iterations so CI can prove the harness end-to-end in seconds; the
//! numbers it writes are *not* meaningful measurements and are flagged as
//! `"mode": "smoke"`.

use criterion::{black_box, BenchmarkGroup, Criterion, Measurement};
use mar_bench::cli::{ensure_out_dir, exit_usage, Args, CliError};
use mar_bench::figs;
use mar_bench::report::{gate_entries, render, Json};
use mar_bench::serve::{replay_pool_tours, session_tour, POOL_SESSIONS, TOUR_SEED};
use mar_bench::Scale;
use mar_buffer::{MotionHeat, SlotHeats};
use mar_core::{
    page_checksum, CachePolicy, PageCache, PageFile, QueryRegion, QueryResult, SceneIndexData,
    SentFilter, Server, ServerCore, Sessions, VictimPlan, WaveletIndex, PAGE_SIZE, SESSION_STRIPES,
};
use mar_geom::{Point2, Rect2, Rect3};
use mar_mesh::ResolutionBand;
use mar_rtree::{RTree, RTreeConfig, Variant};
use mar_workload::{frame_at, Placement, Scene};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

// The wire codec, compiled into this binary from `mar-served`'s source:
// `mar-served` depends on `mar-bench` (it replays the serve workload),
// so the `wire` group cannot reach the codec as a dependency. (A plain
// comment: an outer doc comment here would be merged with codec.rs's
// own module docs and its intra-doc links resolved in this file's scope.)
#[allow(dead_code)]
#[path = "../../../served/src/codec.rs"]
mod codec;

/// One serialised benchmark entry.
struct Entry {
    group: &'static str,
    name: String,
    m: Measurement,
    /// Queries executed per iteration (1 for non-query benches) so
    /// per-query time can be derived from the per-iteration mean.
    ops_per_iter: u64,
    /// Buffer-pool hit ratio of the measured run (`io` tour points only).
    hit_ratio: Option<f64>,
}

struct Options {
    smoke: bool,
    out_dir: String,
    /// Path to a committed `BENCH_micro.json` to regression-gate against.
    gate: Option<String>,
}

const USAGE: &str = "usage: micro [--smoke] [--out-dir DIR] [--gate BASELINE.json]";

fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        smoke: false,
        out_dir: ".".to_string(),
        gate: None,
    };
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag()? {
        match flag {
            "--smoke" => opts.smoke = true,
            "--out-dir" => opts.out_dir = args.value()?.to_string(),
            "--gate" => opts.gate = Some(args.value()?.to_string()),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

/// The measurement scale: scene size and timing budgets.
struct MicroScale {
    objects: usize,
    levels: usize,
    sample_size: usize,
    measurement: Duration,
    warm_up: Duration,
    /// Ticks each of the `io` tour-workload sessions replays.
    io_ticks: usize,
    /// Objects of the cold-frame scene (4 levels, the paper's scale in a
    /// full run) and how many distinct frames cycle over it.
    cold_objects: usize,
    cold_frames: usize,
}

impl MicroScale {
    fn full() -> Self {
        Self {
            objects: 60,
            levels: 3,
            sample_size: 10,
            measurement: Duration::from_millis(1500),
            warm_up: Duration::from_millis(200),
            io_ticks: 120,
            cold_objects: 300,
            cold_frames: 4096,
        }
    }

    fn smoke() -> Self {
        Self {
            objects: 12,
            levels: 2,
            sample_size: 2,
            measurement: Duration::from_millis(30),
            warm_up: Duration::from_millis(5),
            io_ticks: 12,
            cold_objects: 12,
            cold_frames: 64,
        }
    }
}

/// One criterion group timed at the run's [`MicroScale`], and the entries
/// its points are recorded into.
struct Recorder<'a> {
    group: BenchmarkGroup<'a>,
    name: &'static str,
    entries: &'a mut Vec<Entry>,
}

impl<'a> Recorder<'a> {
    fn new(
        c: &'a mut Criterion,
        ms: &MicroScale,
        name: &'static str,
        entries: &'a mut Vec<Entry>,
    ) -> Self {
        let mut group = c.benchmark_group(name);
        group
            .sample_size(ms.sample_size)
            .measurement_time(ms.measurement)
            .warm_up_time(ms.warm_up);
        Self {
            group,
            name,
            entries,
        }
    }

    /// Times `routine` as this group's point `name`, `ops_per_iter`
    /// operations per call.
    fn time<R>(
        &mut self,
        name: impl Into<String>,
        ops_per_iter: u64,
        mut routine: impl FnMut() -> R,
    ) {
        let name = name.into();
        if let Some(m) = self
            .group
            .bench_function_measured(&name, |b| b.iter(&mut routine))
        {
            self.record(name, m, ops_per_iter, None);
        }
    }

    fn record(&mut self, name: String, m: Measurement, ops_per_iter: u64, hit_ratio: Option<f64>) {
        self.entries.push(Entry {
            group: self.name,
            name,
            m,
            ops_per_iter,
            hit_ratio,
        });
    }
}

/// Lifted `(rect, id)` items for the 3-D support index.
fn index_items(data: &SceneIndexData) -> Vec<(Rect3, mar_core::CoeffRef)> {
    data.records
        .iter()
        .map(|r| (r.support_xy.lift(r.w, r.w), r.id))
        .collect()
}

/// An evenly spaced `k × k` grid of query centers inside the space.
fn query_centers(scene: &Scene, k: usize) -> Vec<Point2> {
    query_centers_grid(&scene.config.space, k, k)
}

/// An evenly spaced `nx × ny` grid of points inside `space`, row-major.
fn query_centers_grid(space: &Rect2, nx: usize, ny: usize) -> Vec<Point2> {
    let mut out = Vec::with_capacity(nx * ny);
    for iy in 0..ny {
        for ix in 0..nx {
            let fx = (ix as f64 + 0.5) / nx as f64;
            let fy = (iy as f64 + 0.5) / ny as f64;
            out.push(Point2::new([
                space.lo[0] + fx * space.extent(0),
                space.lo[1] + fy * space.extent(1),
            ]));
        }
    }
    out
}

fn bench_index_build(
    c: &mut Criterion,
    ms: &MicroScale,
    data: &SceneIndexData,
    entries: &mut Vec<Entry>,
) {
    let mut rec = Recorder::new(c, ms, "index_build", entries);
    rec.time("wavelet_str_bulk", 1, || {
        WaveletIndex::build(black_box(data))
    });
    let paper = RTreeConfig::paper();
    for (label, variant) in [
        ("guttman_insert", Variant::Guttman),
        ("rstar_insert", Variant::RStar),
    ] {
        let items = index_items(data);
        rec.time(label, 1, || {
            let mut tree: RTree<3, mar_core::CoeffRef> =
                RTree::new(RTreeConfig::new(paper.max_entries, variant));
            for (rect, id) in &items {
                tree.insert(*rect, *id);
            }
            tree
        });
    }
}

fn bench_window_queries(
    c: &mut Criterion,
    ms: &MicroScale,
    scene: &Scene,
    index: &WaveletIndex,
    entries: &mut Vec<Entry>,
) {
    let centers = query_centers(scene, 4);
    let bands: [(&str, ResolutionBand); 3] = [
        ("full", ResolutionBand::FULL),
        ("half", ResolutionBand::new(0.5, 1.0)),
        ("top", ResolutionBand::new(0.9, 1.0)),
    ];
    let mut rec = Recorder::new(c, ms, "window_query", entries);
    for frac in [0.01, 0.05, 0.10, 0.20, 0.25] {
        for (band_label, band) in bands {
            let name = format!("frac{:02}_{band_label}", (frac * 100.0) as u32);
            let windows: Vec<_> = centers
                .iter()
                .map(|p| frame_at(&scene.config.space, p, frac))
                .collect();
            rec.time(name, windows.len() as u64, || {
                let mut total = 0usize;
                for w in &windows {
                    index.for_each(black_box(w), band, |_| total += 1);
                }
                total
            });
        }
    }
}

/// The batched group-descent kernel at batch sizes K ∈ {1, 4, 16}: the
/// same 16-window sweep as `window_query/frac05_full`, chunked into
/// groups of K that descend the index together. `k01` measures the
/// batched kernel's fixed overhead against the scalar path; `k16` shows
/// the cross-session sharing win.
fn bench_window_query_batch(
    c: &mut Criterion,
    ms: &MicroScale,
    scene: &Scene,
    index: &WaveletIndex,
    entries: &mut Vec<Entry>,
) {
    let centers = query_centers(scene, 4);
    let queries: Vec<(mar_geom::Rect2, ResolutionBand)> = centers
        .iter()
        .map(|p| (frame_at(&scene.config.space, p, 0.05), ResolutionBand::FULL))
        .collect();
    let mut rec = Recorder::new(c, ms, "window_query_batch", entries);
    for k in [1usize, 4, 16] {
        rec.time(format!("k{k:02}_frac05_full"), queries.len() as u64, || {
            let mut total = 0usize;
            for chunk in queries.chunks(k) {
                index.for_each_batch(black_box(chunk), |_, _| total += 1);
            }
            total
        });
    }
}

/// The session filter alone (`session_filter` group): the hit list of one
/// full-band frame replayed through [`SentFilter::admit`], per coefficient.
/// `admit_cold` admits it into an empty filter (every hit is new: block
/// allocation, bit sets and the transmission accounting — what a fresh
/// session's first frame costs); `admit_warm` admits it again into the
/// same filter (every hit is a look-up that sends nothing — the
/// steady-state cost of a touring client's overlapping frames).
/// `with_colliding_2t` runs that warm admit as a query,
/// [`Sessions::with`], from two threads at once for two sessions whose
/// ids are [`SESSION_STRIPES`] apart — one stripe of the session table —
/// and reports wall time per query over both (q/s = 10⁹ / `per_op_ns`):
/// what a table that held the stripe across a query would serialise.
fn bench_session_filter(
    c: &mut Criterion,
    ms: &MicroScale,
    scene: &Scene,
    data: &SceneIndexData,
    index: &WaveletIndex,
    entries: &mut Vec<Entry>,
) {
    let space = scene.config.space;
    let frame = frame_at(&space, &space.center(), 0.25);
    let (hits, _) = index.query(&frame, ResolutionBand::FULL);
    let per_hit = hits.len().max(1) as u64;
    let mut rec = Recorder::new(c, ms, "session_filter", entries);
    let mut warm = SentFilter::default();
    warm.admit(data, index, &hits, &mut QueryResult::default());
    let admit = |filter: &mut SentFilter| {
        let mut out = QueryResult::default();
        filter.admit(data, index, black_box(&hits), &mut out);
        out
    };
    rec.time("admit_cold", per_hit, || admit(&mut SentFilter::default()));
    rec.time("admit_warm", per_hit, || admit(&mut warm));
    // Queries per thread per iteration: enough that the two thread
    // spawns are a few per cent of it.
    const COLLIDING_QUERIES: u64 = 256;
    let sessions = Sessions::seeded(901);
    let ids: Vec<u64> = (0..=SESSION_STRIPES)
        .map(|_| sessions.connect_with_token().0)
        .collect();
    let pair = [ids[0], ids[SESSION_STRIPES]];
    let query = |id: u64| {
        // mar-lint: allow(D004) — both sessions were connected three lines up
        black_box(
            sessions
                .with(id, admit)
                .expect("micro: the session is connected"),
        );
    };
    // Warm both filters: the measured queries send nothing new.
    pair.into_iter().for_each(query);
    rec.time("with_colliding_2t", 2 * COLLIDING_QUERIES, || {
        std::thread::scope(|scope| {
            for id in pair {
                scope.spawn(move || (0..COLLIDING_QUERIES).for_each(|_| query(id)));
            }
        })
    });
}

/// The arriving client's first frame — a whole 10 % window at
/// [`ResolutionBand::FULL`] that nothing the caches hold has touched —
/// on the index (`window_query/cold_frame10_full`, per query, the same
/// counting walk as the warm points) and through the server
/// (`session_filter/stream_cold`: connect, [`Server::query`], disconnect
/// on a fresh session, so every hit streams into an empty filter; per
/// hit). Each iteration takes the next `COLD_BATCH` of the seed-derived
/// frames; a full run cycles 4 096 of them over the paper-scale scene,
/// whose tree (≈ 20 MB) a lap touches end to end, so a node is long out
/// of L2 when the walk returns to it.
fn bench_cold_frames(
    c: &mut Criterion,
    ms: &MicroScale,
    scene: &Scene,
    data: Arc<SceneIndexData>,
    entries: &mut Vec<Entry>,
) {
    const COLD_BATCH: usize = 16;
    let space = scene.config.space;
    let mut rng = StdRng::seed_from_u64(901);
    let frames: Vec<Rect2> = (0..ms.cold_frames)
        .map(|_| {
            let mut at = |d: usize| space.lo[d] + rng.gen::<f64>() * space.extent(d);
            frame_at(&space, &Point2::new([at(0), at(1)]), 0.10)
        })
        .collect();
    let index = Arc::new(WaveletIndex::build(&data));
    let server = Server::from_core_seeded(ServerCore::from_parts(data, Arc::clone(&index)), 901);
    let mut hits = 0u64;
    for frame in &frames {
        index.for_each(frame, ResolutionBand::FULL, |_| hits += 1);
    }
    let hits_per_batch = (hits * COLD_BATCH as u64 / frames.len() as u64).max(1);

    let mut batches = frames.chunks_exact(COLD_BATCH).cycle();
    let mut rec = Recorder::new(c, ms, "window_query", entries);
    rec.time("cold_frame10_full", COLD_BATCH as u64, || {
        let mut total = 0usize;
        for w in batches.next().into_iter().flatten() {
            index.for_each(black_box(w), ResolutionBand::FULL, |_| total += 1);
        }
        total
    });
    let mut rec = Recorder::new(c, ms, "session_filter", entries);
    rec.time("stream_cold", hits_per_batch, || {
        let mut coeffs = 0usize;
        for w in batches.next().into_iter().flatten() {
            let session = server.connect();
            let query = [QueryRegion {
                region: *black_box(w),
                band: ResolutionBand::FULL,
            }];
            coeffs += server.query(session, &query).map_or(0, |r| r.coeffs);
            let _ = server.disconnect(session);
        }
        coeffs
    });
}

/// The wire codec alone (`wire` group), on the buffers a connection
/// reuses: `encode_query` appends a two-region `QUERY` (a tour tick's
/// plan) to a cleared output buffer, `encode_result` a `RESULT`;
/// `frame_reader_burst8` takes a pipelined burst of eight such `QUERY`s
/// out of one `read` — per frame, the region `Vec` of each included.
fn bench_wire(c: &mut Criterion, ms: &MicroScale, scene: &Scene, entries: &mut Vec<Entry>) {
    let space = scene.config.space;
    let band = ResolutionBand::FULL;
    let regions = [0.1, 0.12].map(|frac| QueryRegion {
        region: frame_at(&space, &space.center(), frac),
        band,
    });
    let result = codec::Frame::Result {
        coeffs: 2,
        new_objects: 1,
        bytes: 1234.5,
        io: 9,
    };
    let mut burst = Vec::new();
    for _ in 0..8 {
        // mar-lint: allow(D004) — a two-region QUERY is far below the payload cap
        codec::encode_query_into(&regions, &mut burst).expect("micro: tour-sized QUERY fits");
    }

    let mut rec = Recorder::new(c, ms, "wire", entries);
    let mut out = Vec::new();
    rec.time("encode_query", 1, || {
        out.clear();
        codec::encode_query_into(black_box(&regions), &mut out)
    });
    rec.time("encode_result", 1, || {
        out.clear();
        codec::encode_into(black_box(&result), &mut out)
    });
    let mut reader = codec::FrameReader::new();
    rec.time("frame_reader_burst8", 8, || {
        let read = reader.fill(&mut black_box(&burst[..]));
        let mut frames = 0;
        while let Ok(Some(frame)) = reader.next_frame() {
            black_box(frame);
            frames += 1;
        }
        (read.ok(), frames)
    });
}

/// Byte budget of the `io` tour-workload pool: small enough that the
/// eviction policy matters, large enough that a policy can actually keep
/// a working set (8 pages).
const IO_TOUR_BUDGET: usize = 8 * 4096;

/// Sessions and candidate pages of the `io/victim_rank*` points, and the
/// pool of `io/pool_hit`: the serving benchmark's `paged_tour` shape (32
/// live sessions; a 1 199-page pool ranks its unprotected quarter, 299
/// pages, per fault).
const RANK_SESSIONS: usize = 32;
const RANK_GRID: (usize, usize) = (23, 13);
const POOL_PAGES: usize = 1199;

/// The out-of-core read path (`io` group): cold and warm page reads
/// through the buffer pool, the checksum of one page (ns per 4 KB), one
/// pool hit alone and the serving hit on two threads, the motion-aware victim
/// ranking after one and after five session steps (ns per ranked
/// candidate), then the tour-workload hit ratio of the
/// motion-aware eviction policy against plain LRU at the same byte
/// budget. The page file is built in `--out-dir` so CI exercises the
/// store writer on every run.
fn bench_io(
    c: &mut Criterion,
    ms: &MicroScale,
    scene: &Scene,
    data: &Arc<SceneIndexData>,
    out_dir: &str,
    entries: &mut Vec<Entry>,
) {
    let store_path = format!("{out_dir}/micro_store.pages");
    if let Err(e) = mar_core::write_store(std::path::Path::new(&store_path), data) {
        eprintln!("micro: cannot write page file {store_path}: {e}");
        std::process::exit(1);
    }
    let windows: Vec<_> = query_centers(scene, 4)
        .iter()
        .map(|p| frame_at(&scene.config.space, p, 0.05))
        .collect();
    let open = |budget: usize, policy: CachePolicy| {
        WaveletIndex::open_paged(std::path::Path::new(&store_path), budget, policy)
            // mar-lint: allow(D004) — the store was just written by this process; failing to reopen it is fatal
            .expect("micro: cannot reopen the page file")
    };
    let mut rec = Recorder::new(c, ms, "io", entries);
    // Cold: a single-page pool, so nearly every node access faults and
    // each query pays the full read-and-decode path.
    let cold = open(4096, CachePolicy::Lru);
    rec.time("page_read_cold", windows.len() as u64, || {
        let mut total = 0usize;
        for w in &windows {
            cold.for_each(black_box(w), ResolutionBand::FULL, |_| total += 1);
        }
        total
    });
    // Warm: a pool big enough for the whole file; after one priming sweep
    // every read hits, so this is the pure pool-lookup overhead.
    let warm = open(64 << 20, CachePolicy::Lru);
    for w in &windows {
        warm.for_each(w, ResolutionBand::FULL, |_| {});
    }
    rec.time("page_read_warm", windows.len() as u64, || {
        let mut total = 0usize;
        for w in &windows {
            warm.for_each(black_box(w), ResolutionBand::FULL, |_| total += 1);
        }
        total
    });
    // The checksum every page read verifies, over one page's payload as
    // it comes off the file.
    let file = PageFile::open(std::path::Path::new(&store_path))
        // mar-lint: allow(D004) — the store was just written by this process; failing to reopen it is fatal
        .expect("micro: cannot reopen the page file");
    // mar-lint: allow(D004) — every page of the store just written reads back
    let payload = file.read_at(0).expect("micro: cannot read the page file");
    rec.time("page_checksum", 1, || page_checksum(black_box(&payload)));
    // Pool hit: one `lookup` of a resident page — the pool's own hit
    // bookkeeping, which the serving path replays later under the pager
    // (`pool_hit_2t` below times the serving hit). The look-ups stride
    // through the residents, so the relink moves a page from the middle
    // of the recency list, not the one already at its tail.
    let residents = file.page_count().min(POOL_PAGES as u32);
    let mut pool = PageCache::new(file, POOL_PAGES * PAGE_SIZE, CachePolicy::MotionAware);
    for page in 0..residents {
        // mar-lint: allow(D004) — every page of the store just written reads back
        pool.read(page).expect("micro: cannot read the page file");
    }
    let mut next = 0u32;
    rec.time("pool_hit", 1, || {
        next = (next + 389) % residents;
        pool.lookup(black_box(next))
    });
    // Serving pool hit, two threads at once: `touch_payload` on records
    // whose pages are resident, one record per payload page, the threads
    // half the pages apart — the hit a query's node visits and payload
    // touches take, served from the residency record and logged for a
    // later replay. Wall time per hit over both threads.
    const HITS_PER_THREAD: usize = 8192;
    let resident = open(64 << 20, CachePolicy::MotionAware);
    let per_page = resident
        .paged()
        .map_or(1, |p| p.meta().records_per_page as usize);
    let ids: Vec<_> = data
        .records
        .iter()
        .step_by(per_page)
        .map(|r| r.id)
        .collect();
    ids.iter().for_each(|&id| resident.touch_payload(id));
    rec.time("pool_hit_2t", 2 * HITS_PER_THREAD as u64, || {
        std::thread::scope(|scope| {
            for start in [0, ids.len() / 2] {
                let (resident, ids) = (&resident, &ids);
                scope.spawn(move || {
                    for k in 0..HITS_PER_THREAD {
                        resident.touch_payload(black_box(ids[(start + k) % ids.len()]));
                    }
                });
            }
        })
    });
    // Victim plan: the two steps of an admission the pager takes under its
    // mutex — `plan`, which copies the unprotected quarter out of a full
    // motion-aware pool, and `commit` — with a uniform ranking between
    // them. The pool is one page short of the file, so there is always a
    // miss to admit: each commit evicts the least recent page, which is
    // the next one admitted.
    let file = PageFile::open(std::path::Path::new(&store_path))
        // mar-lint: allow(D004) — the store was just written by this process; failing to reopen it is fatal
        .expect("micro: cannot reopen the page file");
    let pages: Vec<Arc<Vec<u8>>> = (0..file.page_count())
        .map(|page| {
            // mar-lint: allow(D004) — every page of the store just written reads back
            let bytes = file
                .read_at(page)
                .expect("micro: cannot read the page file");
            Arc::new(bytes)
        })
        .collect();
    let mut pool = PageCache::new(
        file,
        (pages.len() - 1) * PAGE_SIZE,
        CachePolicy::MotionAware,
    );
    for page in 0..pages.len() as u32 - 1 {
        // mar-lint: allow(D004) — every page of the store just written reads back
        pool.read(page).expect("micro: cannot read the page file");
    }
    let mut missing = pages.len() as u32 - 1;
    let mut scan = VictimPlan::default();
    rec.time("victim_plan", 1, || {
        let data = &pages[missing as usize];
        let planned = pool.plan(black_box(missing), data, &mut scan);
        debug_assert!(planned.is_none(), "a full motion-aware pool ranks");
        scan.rank_with(
            |candidates, heats| heats.resize(candidates.len(), 0.0),
            f64::INFINITY,
        );
        let committed = pool.commit(data, &mut scan);
        missing = scan.candidates()[0].1;
        committed
    });
    // Victim ranking: one motion-aware eviction scan as the pager runs
    // it — the ranker's snapshot synced to the field, then every
    // candidate's Eq. 2 heat in one batch through the per-slot
    // contribution rows — without the pool around it, after one session
    // (`victim_rank`) or five of the 32 (`victim_rank_burst`, what two
    // drivers' interleaved steps leave between one thread's scans) have
    // stepped along their tours. Sessions have walked their tours once,
    // so allocations are skewed the way a live server's are; candidates
    // are leaf-sized regions tiling the scene, so near, far, diagonal and
    // containing cases all occur.
    let space = scene.config.space;
    let mut heat = MotionHeat::server_default((space.extent(0) + space.extent(1)) / 8.0);
    let walks: Vec<_> = (0..RANK_SESSIONS)
        .map(|k| session_tour(space, ms.io_ticks, TOUR_SEED, k))
        .collect();
    for (k, walk) in walks.iter().enumerate() {
        for s in &walk.samples {
            heat.observe(k as u64, s.pos);
        }
    }
    let regions: Vec<Rect2> = query_centers_grid(&space, RANK_GRID.0, RANK_GRID.1)
        .iter()
        .map(|p| frame_at(&space, p, 0.02))
        .collect();
    let candidates: Vec<(u32, u32)> = (0..regions.len() as u32).map(|s| (s, s)).collect();
    let mut rows = SlotHeats::new(&heat);
    let mut heats = Vec::new();
    let mut step = 0usize;
    for (name, movers) in [("victim_rank", 1), ("victim_rank_burst", 5)] {
        rec.time(name, candidates.len() as u64, || {
            for _ in 0..movers {
                let (k, tick) = (step % RANK_SESSIONS, step / RANK_SESSIONS);
                step += 1;
                let samples = &walks[k].samples;
                heat.observe(k as u64, samples[tick % samples.len()].pos);
            }
            rows.sync(&heat);
            rows.heat_slots(black_box(&candidates), &regions, &mut heats);
            heats.iter().copied().fold(f64::INFINITY, f64::min)
        });
    }

    // Tour hit ratio: replay the serving tours through a starved pool
    // under each policy. One deterministic replay per policy — the ratio
    // is exact, not sampled; the wall time rides along as `mean_ns`.
    let mut summary = Vec::new();
    for (name, policy) in [
        ("tour_hit_ratio_motion", CachePolicy::MotionAware),
        ("tour_hit_ratio_lru", CachePolicy::Lru),
    ] {
        let index = open(IO_TOUR_BUDGET, policy);
        // mar-lint: allow(D003) — wall-time measurement is this harness's job
        let t0 = std::time::Instant::now();
        let stats = replay_pool_tours(data, index, scene.config.space, ms.io_ticks, TOUR_SEED);
        let ns = t0.elapsed().as_nanos() as f64;
        let reads = (stats.hits + stats.faults).max(1);
        let ratio = stats.hits as f64 / reads as f64;
        summary.push(format!(
            "{policy:?} {ratio:.4} ({} evictions)",
            stats.evictions
        ));
        let m = Measurement {
            mean_ns: ns,
            min_ns: ns,
            max_ns: ns,
            iters: 1,
        };
        let ops_per_iter = (POOL_SESSIONS * ms.io_ticks) as u64;
        rec.record(name.into(), m, ops_per_iter, Some(ratio));
        eprintln!(
            "  io/{name}: hit ratio {ratio:.4} ({} hits / {} faults)",
            stats.hits, stats.faults
        );
    }
    eprintln!("micro: tour hit ratio {}", summary.join(", "));
}

/// The CI perf smoke gate: every `window_query`, `io`, `session_filter`
/// and `wire` point measured in this run must stay within `3x` of
/// the committed baseline's `per_op_ns`. The factor is deliberately
/// generous — the smoke scene is far smaller than the committed
/// full-scale scene and CI machines are noisy, so the gate only fires on
/// order-of-magnitude regressions (e.g. the batched kernel accidentally
/// losing its vectorised inner loop, or the pool read path growing a
/// copy), never on jitter. Points present on
/// only one side are skipped, so adding or retiring a point never breaks
/// the gate — and a committed snapshot that predates a group skips that
/// whole group gracefully instead of failing. Hit-ratio tour points
/// are excluded: they are single-shot replays whose wall time is not a
/// stable signal (the ratio itself is what they report).
fn run_gate(gate_path: &str, entries: &[Entry]) -> Result<usize, String> {
    const FACTOR: f64 = 3.0;
    let text = std::fs::read_to_string(gate_path)
        .map_err(|e| format!("gate: cannot read {gate_path}: {e}"))?;
    let baseline = gate_entries(&text);
    if baseline.is_empty() {
        return Err(format!("gate: no benchmark entries found in {gate_path}"));
    }
    let mut checked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for grp in ["window_query", "io", "session_filter", "wire"] {
        if !baseline.iter().any(|(g, _, _)| g == grp) {
            eprintln!("micro: gate: {gate_path} predates the '{grp}' group; skipping it");
            continue;
        }
        for e in entries
            .iter()
            .filter(|e| e.group == grp && e.hit_ratio.is_none())
        {
            let per_op = e.m.mean_ns / e.ops_per_iter as f64;
            if let Some((_, _, base)) = baseline.iter().find(|(g, n, _)| g == grp && *n == e.name) {
                checked += 1;
                let base = *base;
                if per_op > base * FACTOR {
                    failures.push(format!(
                        "  {grp}/{}: {per_op:.1} ns/op exceeds {FACTOR}x committed baseline {base:.1} ns/op",
                        e.name
                    ));
                }
            }
        }
    }
    if checked == 0 {
        return Err(format!(
            "gate: no gated entries of this run match {gate_path}"
        ));
    }
    if !failures.is_empty() {
        return Err(format!(
            "gate: perf regression vs {gate_path}:\n{}",
            failures.join("\n")
        ));
    }
    Ok(checked)
}

/// The `BENCH_micro.json` document: one `results` element per entry.
fn micro_report(mode: &str, scene: &Scene, coeffs: usize, entries: &[Entry]) -> String {
    let result = |e: &Entry| {
        let per_op = e.m.mean_ns / e.ops_per_iter as f64;
        let mut fields = vec![
            ("group", e.group.into()),
            ("name", e.name.as_str().into()),
            ("mean_ns", Json::Num(e.m.mean_ns, 1)),
            ("min_ns", Json::Num(e.m.min_ns, 1)),
            ("max_ns", Json::Num(e.m.max_ns, 1)),
            ("iters", e.m.iters.into()),
            ("ops_per_iter", e.ops_per_iter.into()),
            ("per_op_ns", Json::Num(per_op, 1)),
        ];
        if let Some(ratio) = e.hit_ratio {
            fields.push(("hit_ratio", Json::Num(ratio, 6)));
        }
        Json::Obj(fields)
    };
    let scene = vec![
        ("objects", scene.objects.len().into()),
        ("coefficients", coeffs.into()),
        ("levels", scene.config.levels.into()),
    ];
    render(&Json::Obj(vec![
        ("schema", "mar-bench-micro/3".into()),
        ("mode", mode.into()),
        ("scene", Json::Obj(scene)),
        ("results", Json::Arr(entries.iter().map(result).collect())),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    ensure_out_dir(&opts.out_dir);
    let mode = if opts.smoke { "smoke" } else { "full" };
    let ms = if opts.smoke {
        MicroScale::smoke()
    } else {
        MicroScale::full()
    };
    eprintln!(
        "micro: {mode} run ({} objects, {} levels)",
        ms.objects, ms.levels
    );

    let mut scale = Scale::quick();
    scale.objects_default = ms.objects;
    scale.levels = ms.levels;
    let scene = figs::build_scene(&scale, ms.objects, Placement::Uniform);
    let data = Arc::new(SceneIndexData::build(&scene));
    let index = WaveletIndex::build(&data);

    let mut c = Criterion::default();
    let mut entries: Vec<Entry> = Vec::new();
    bench_index_build(&mut c, &ms, &data, &mut entries);
    bench_window_queries(&mut c, &ms, &scene, &index, &mut entries);
    bench_window_query_batch(&mut c, &ms, &scene, &index, &mut entries);
    bench_session_filter(&mut c, &ms, &scene, &data, &index, &mut entries);
    {
        let mut scale = Scale::paper();
        scale.objects_default = ms.cold_objects;
        let scene = figs::build_scene(&scale, ms.cold_objects, Placement::Uniform);
        let data = Arc::new(SceneIndexData::build(&scene));
        bench_cold_frames(&mut c, &ms, &scene, data, &mut entries);
    }
    bench_wire(&mut c, &ms, &scene, &mut entries);
    bench_io(&mut c, &ms, &scene, &data, &opts.out_dir, &mut entries);

    let micro_path = format!("{}/BENCH_micro.json", opts.out_dir);
    let report = micro_report(mode, &scene, data.len(), &entries);
    if let Err(e) = std::fs::write(&micro_path, report) {
        eprintln!("micro: cannot write {micro_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("\nmicro: wrote {micro_path}");

    // The regression gate runs last, after the JSON file exists, so a
    // failing run still uploads its artifact for inspection.
    if let Some(gate_path) = &opts.gate {
        match run_gate(gate_path, &entries) {
            Ok(checked) => eprintln!(
                "micro: perf gate passed ({checked} gated points within 3x of {gate_path})"
            ),
            Err(e) => {
                eprintln!("micro: {e}");
                std::process::exit(1);
            }
        }
    }
}
