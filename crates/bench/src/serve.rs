//! `mar-bench serve` — the deterministic multi-session serving harness.
//!
//! Replays `K` client tours concurrently against **one shared**
//! [`Server`] (the paper's §III setting: many mobile clients issuing
//! continuous window queries against one wavelet index). Admission is
//! batched per tick: every session issues its tick-`t` query before any
//! session starts tick `t+1`, mirroring a frame-synchronous serving loop.
//!
//! Determinism (DESIGN.md §10): each session's query stream depends only
//! on its own tour, its own speed-smoothing state and its own server-side
//! filter — never on how sessions interleave inside a tick. The per-tick
//! fan-out runs on the scoped-thread [`Engine`], whose results come back
//! in point (= session-id) order, so the transcript merge is ordered by
//! session id and `jobs = 1` vs `jobs = N` transcripts are byte-identical
//! (pinned by `crates/bench/tests/serve.rs`).
//!
//! The harness reads no clock: its report — and the `BENCH_serve.json`
//! snapshot rendered from it — is a pure function of the config, so the
//! committed snapshot is diffed whole against a fresh run. Speed is
//! measured by `benchmark/` (`/BENCHMARK.json`), nowhere else.

use crate::engine::Engine;
use crate::report::Json;
use crate::{figs, Scale};
use mar_core::{
    CachePolicy, FramePlanner, LinearSpeedMap, PageCacheStats, QueryRegion, QueryResult,
    SceneIndexData, Server, ServerCore, Sessions, SmoothedSpeed, SpeedResolutionMap, StoreError,
    WaveletIndex,
};
use mar_geom::Rect2;
use mar_link::LinkConfig;
use mar_mesh::ResolutionBand;
use mar_workload::{
    frame_at, pedestrian_tour, tram_tour, Placement, Scene, Tour, TourConfig, TourSample,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Serving-workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of concurrent client sessions.
    pub sessions: usize,
    /// Ticks each session replays.
    pub ticks: usize,
    /// Objects in the generated scene.
    pub objects: usize,
    /// Subdivision levels per object.
    pub levels: usize,
    /// Query frame fraction of the space.
    pub frame_frac: f64,
    /// Worker threads (`<= 1` = serial reference execution).
    pub jobs: usize,
}

/// Base tour seed of the serve and chaos workloads (in process and over
/// the wire): session `k` tours with seed `TOUR_SEED + k`.
pub const TOUR_SEED: u64 = 901;

impl ServeConfig {
    /// The full measurement workload: 32 clients × 300 ticks over the
    /// quick-scale 60-object scene.
    pub fn full(jobs: usize) -> Self {
        Self {
            sessions: 32,
            ticks: 300,
            objects: 60,
            levels: 3,
            frame_frac: 0.05,
            jobs,
        }
    }

    /// A seconds-scale CI smoke workload.
    pub fn smoke(jobs: usize) -> Self {
        Self {
            sessions: 4,
            ticks: 40,
            objects: 12,
            levels: 2,
            frame_frac: 0.1,
            jobs,
        }
    }
}

/// Header line of the per-tick, per-session transcript CSV.
pub const TRANSCRIPT_HEADER: &str = "tick,session,coeffs,new_objects,bytes,io,response_s\n";

/// The serve transcript under construction, with the totals every report
/// carries. [`run_serve`] pushes what the server returned and `mar-load`
/// what it received over the wire, so transcript equality reduces to the
/// wire layer delivering bit-identical numbers.
#[derive(Debug, Clone)]
pub struct Transcript {
    /// The CSV so far: [`TRANSCRIPT_HEADER`], then one row per push.
    pub text: String,
    /// Payload bytes pushed.
    pub bytes: f64,
    /// Coefficients pushed.
    pub coeffs: u64,
    /// Index node accesses pushed.
    pub io: u64,
    link: LinkConfig,
}

impl Default for Transcript {
    fn default() -> Self {
        Self {
            text: String::from(TRANSCRIPT_HEADER),
            bytes: 0.0,
            coeffs: 0,
            io: 0,
            link: LinkConfig::paper(),
        }
    }
}

impl Transcript {
    /// Appends session `session`'s tick-`tick` row: the accounting of `r`
    /// plus the Eq. 1 response time of its payload at `speed`.
    pub fn push(&mut self, tick: usize, session: usize, r: &QueryResult, speed: f64) {
        let response_s = if r.bytes > 0.0 {
            self.link.request_time(r.bytes, speed)
        } else {
            0.0
        };
        self.text.push_str(&format!(
            "{tick},{session},{},{},{},{},{response_s}\n",
            r.coeffs, r.new_objects, r.bytes, r.io
        ));
        self.bytes += r.bytes;
        self.coeffs += r.coeffs as u64;
        self.io += r.io;
    }
}

/// The tour speed spread sessions cycle through (session `k` tours at
/// `TOUR_SPEEDS[k % TOUR_SPEEDS.len()]`).
pub const TOUR_SPEEDS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The scene every serving harness (serve, chaos, fleet, in-process or
/// wire) is served from: quick-scale parameters with the harness config's
/// object/level overrides, uniformly placed.
pub fn serve_scene(objects: usize, levels: usize) -> Scene {
    let mut scale = Scale::quick();
    scale.objects_default = objects;
    scale.levels = levels;
    figs::build_scene(&scale, objects, Placement::Uniform)
}

/// Session `k`'s `ticks`-long tour over `space`: alternating
/// tram/pedestrian kinds over the deterministic speed spread, seeded
/// `tour_seed + k`.
pub fn session_tour(space: Rect2, ticks: usize, tour_seed: u64, k: usize) -> Tour {
    let tc = TourConfig::new(
        space,
        ticks,
        tour_seed + k as u64,
        TOUR_SPEEDS[k % TOUR_SPEEDS.len()],
    );
    if k.is_multiple_of(2) {
        tram_tour(&tc)
    } else {
        pedestrian_tour(&tc)
    }
}

/// What a client looks at in one tick, and how fast it is moving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct View {
    /// The query frame around the tour position.
    pub frame: Rect2,
    /// The smoothed normalised speed.
    pub speed: f64,
    /// The resolution band that speed maps to.
    pub band: ResolutionBand,
}

/// One client stepping through its tour — the replay step every harness,
/// in-process or on the wire, shares: the [`View`] at each tick plus
/// Algorithm 1's frame planner. Per tick, [`TourSession::plan`] the view
/// into sub-queries, send them, and [`TourSession::commit`] the view once
/// the answer is known to be complete.
#[derive(Debug)]
pub struct TourSession {
    views: Vec<View>,
    planner: FramePlanner,
}

impl TourSession {
    /// Session `k` at the start of its [`session_tour`]. Its views are a
    /// pure function of the arguments: tour sample → `frame_frac`-sized
    /// frame → smoothed speed → band.
    pub fn new(space: Rect2, ticks: usize, tour_seed: u64, frame_frac: f64, k: usize) -> Self {
        let mut smooth = SmoothedSpeed::default();
        let view = |s: &TourSample| {
            let speed = smooth.update(s.speed);
            View {
                frame: frame_at(&space, &s.pos, frame_frac),
                speed,
                band: LinearSpeedMap.band_for(speed),
            }
        };
        let tour = session_tour(space, ticks, tour_seed, k);
        Self {
            views: tour.samples.iter().map(view).collect(),
            planner: FramePlanner::new(),
        }
    }

    /// The view at `tick`.
    ///
    /// # Panics
    /// Panics when `tick` is past the end of the tour.
    pub fn view(&self, tick: usize) -> View {
        self.views[tick]
    }

    /// The sub-queries that fetch what `view` shows beyond the coverage
    /// committed so far.
    pub fn plan(&self, view: &View) -> Vec<QueryRegion> {
        self.planner.plan(&view.frame, view.band)
    }

    /// Records `view` as covered.
    pub fn commit(&mut self, view: &View) {
        self.planner.commit(view.frame, view.band);
    }
}

/// Where the serving replay reads its index from.
///
/// `Ram` is the all-in-memory build every prior harness used. `Paged`
/// serializes the same index into a page file and serves it through the
/// motion-aware buffer pool (DESIGN.md §15) — the transcript must be
/// byte-identical either way, which `crates/bench/tests/serve.rs` pins.
#[derive(Debug, Clone)]
pub enum ServeBackend {
    /// In-memory index (the default).
    Ram,
    /// Out-of-core index: node pages + coefficient records in a page
    /// file at `path`, read through a pool of `budget_bytes` bytes.
    Paged {
        /// Where to write (and then serve) the page file.
        path: PathBuf,
        /// Hard buffer-pool byte budget.
        budget_bytes: usize,
        /// Eviction policy under that budget.
        policy: CachePolicy,
    },
}

impl ServeBackend {
    /// Builds the immutable serving core for `scene` on this backend; the
    /// in-RAM index bulk-load fans out over `jobs` workers, the paged one
    /// writes (then serves) its page file.
    pub fn build_core(&self, scene: &Scene, jobs: usize) -> Result<ServerCore, StoreError> {
        match self {
            Self::Ram => {
                let data = SceneIndexData::build(scene);
                let index = WaveletIndex::build_jobs(&data, jobs);
                Ok(ServerCore::from_parts(Arc::new(data), Arc::new(index)))
            }
            Self::Paged {
                path,
                budget_bytes,
                policy,
            } => ServerCore::new_paged(scene, path, *budget_bytes, *policy),
        }
    }
}

/// What one serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Sessions replayed.
    pub sessions: usize,
    /// Ticks per session.
    pub ticks: usize,
    /// Queries executed (`sessions × ticks`).
    pub queries: u64,
    /// Payload bytes served across all sessions.
    pub bytes: f64,
    /// Coefficients served across all sessions.
    pub coeffs: u64,
    /// Index node accesses across all sessions (logical: what each
    /// session's query would have cost on its own).
    pub io: u64,
    /// Unique physical node visits of the per-tick group descents — the
    /// pages actually read once the tick's sessions share the index walk.
    /// Always `<= io`; the gap is the cross-session sharing win.
    pub unique_io: u64,
    /// The deterministic per-tick, per-session transcript (CSV).
    pub transcript: String,
    /// Page-file size in bytes (`None` on the in-RAM backend).
    pub store_file_bytes: Option<u64>,
    /// Buffer-pool statistics (`None` on the in-RAM backend).
    pub cache: Option<PageCacheStats>,
}

impl ServeReport {
    /// The `BENCH_serve.json` snapshot of this run.
    pub fn snapshot(&self, mode: &str) -> Json {
        Json::Obj(vec![
            ("schema", "mar-bench-serve/3".into()),
            ("mode", mode.into()),
            ("sessions", self.sessions.into()),
            ("ticks", self.ticks.into()),
            ("queries", self.queries.into()),
            ("bytes_served", Json::Num(self.bytes, 1)),
            ("coeffs_served", self.coeffs.into()),
            ("index_io", self.io.into()),
            ("index_unique_io", self.unique_io.into()),
            ("transcript_fnv64", fnv_hex(&self.transcript)),
        ])
    }
}

/// Runs the serving workload on the in-RAM backend. The report is
/// identical for any `cfg.jobs`.
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    run_serve_backend(cfg, &ServeBackend::Ram)
}

/// Runs the serving workload against the chosen index backend. The
/// transcript does not depend on the backend (or on `cfg.jobs`): the
/// out-of-core path answers byte-identically and only the store-size and
/// cache-statistics fields differ.
pub fn run_serve_backend(cfg: &ServeConfig, backend: &ServeBackend) -> ServeReport {
    let scene = serve_scene(cfg.objects, cfg.levels);
    let core = backend
        .build_core(&scene, cfg.jobs)
        // mar-lint: allow(D004) — the harness cannot proceed without its store file; surface the I/O error
        .expect("serve: cannot build the page-file backend");
    let server = Server::from_core(core);
    let space = scene.config.space;

    // Sessions connect serially in id order, each with its own tour:
    // alternating tram/pedestrian kinds over a deterministic speed spread.
    // One mutex per session: a session is planned by exactly one worker
    // per tick, so the lock is uncontended and exists only to hand the
    // state safely across the scoped threads.
    let sims: Vec<(u64, Mutex<TourSession>)> = (0..cfg.sessions)
        .map(|k| {
            let sim = TourSession::new(space, cfg.ticks, TOUR_SEED, cfg.frame_frac, k);
            (server.connect(), Mutex::new(sim))
        })
        .collect();

    let engine = Engine::new(cfg.jobs);
    let mut transcript = Transcript::default();
    let mut unique_io = 0u64;
    for tick in 0..cfg.ticks {
        // Phase 1 — plan: every session runs Algorithm 1 for its own tour
        // sample in parallel. `Engine::run` returns in point (= session
        // id) order, so the plans line up with the session ids.
        // Committing before the query executes is safe in-process: the
        // query is issued unconditionally by the same tick and cannot
        // fail for a connected session.
        let plans = engine.run(
            (0..cfg.sessions).collect(),
            || (),
            |_, &k| {
                let mut sim = sims[k]
                    .1
                    .lock()
                    // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
                    .expect("session sim poisoned");
                let view = sim.view(tick);
                let regions = sim.plan(&view);
                sim.commit(&view);
                (regions, view.speed)
            },
        );
        // Phase 2 — one cross-session group descent for the whole tick:
        // every session's sub-queries share a single index walk, and the
        // per-session results are demultiplexed in session-id order so the
        // transcript merge below is unchanged from the scalar harness.
        let batch: Vec<(u64, &[QueryRegion])> = sims
            .iter()
            .zip(&plans)
            .map(|((session, _), (regions, _))| (*session, regions.as_slice()))
            .collect();
        let (results, unique) = server.query_batch(&batch);
        unique_io += unique;
        // Merge in session-id order.
        for (k, (result, (_, speed))) in results.iter().zip(&plans).enumerate() {
            let r = result
                .as_ref()
                // mar-lint: allow(D004) — sessions 0..N were minted by the bulk connect above and live until teardown
                .expect("serve session vanished mid-run");
            transcript.push(tick, k, r, *speed);
        }
    }

    // Tear every session down; the filter state must go with it.
    for (session, _) in &sims {
        server
            .disconnect(*session)
            // mar-lint: allow(D004) — sessions 0..N were minted by the bulk connect above
            .expect("serve session vanished");
    }
    assert_released(server.sessions());
    let store_file_bytes = server.index().paged().map(mar_core::PagedIndex::file_bytes);
    let cache = server.index().cache_stats();

    ServeReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        queries: (cfg.sessions * cfg.ticks) as u64,
        bytes: transcript.bytes,
        coeffs: transcript.coeffs,
        io: transcript.io,
        unique_io,
        transcript: transcript.text,
        store_file_bytes,
        cache,
    }
}

/// FNV-1a 64-bit hash of a transcript — a compact fingerprint for
/// comparing `--jobs 1` vs `--jobs N` runs across processes.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A transcript's [`fnv1a64`] as every snapshot's `transcript_fnv64` field
/// spells it.
pub fn fnv_hex(transcript: &str) -> Json {
    Json::Str(format!("{:016x}", fnv1a64(transcript)))
}

/// How every harness ends a server's life: once each session has been
/// disconnected, nothing of them may be left in the session table.
///
/// # Panics
/// Panics when a session, or any filter state, is still resident.
pub fn assert_released(sessions: &Sessions) {
    assert_eq!(sessions.session_count(), 0, "a session is still connected");
    assert_eq!(
        sessions.resident_filter_entries(),
        0,
        "disconnect must release filter state"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> ServeConfig {
        ServeConfig {
            sessions: 3,
            ticks: 10,
            objects: 8,
            levels: 2,
            frame_frac: 0.15,
            jobs,
        }
    }

    #[test]
    fn serve_produces_complete_transcript() {
        let r = run_serve(&tiny(1));
        assert_eq!(r.queries, 30);
        assert!(r.bytes > 0.0, "clients must retrieve data");
        assert!(
            r.unique_io > 0 && r.unique_io <= r.io,
            "shared descent reads at most the logical page count ({} vs {})",
            r.unique_io,
            r.io
        );
        // Header + one line per (tick, session).
        assert_eq!(r.transcript.lines().count(), 1 + 30);
        assert!(r
            .transcript
            .starts_with("tick,session,coeffs,new_objects,bytes,io,response_s\n"));
    }

    #[test]
    fn transcript_is_jobs_invariant() {
        let serial = run_serve(&tiny(1));
        let parallel = run_serve(&tiny(3));
        assert_eq!(serial.transcript, parallel.transcript);
        assert_eq!(serial.bytes, parallel.bytes);
        assert_eq!(serial.coeffs, parallel.coeffs);
        assert_eq!(serial.io, parallel.io);
        assert_eq!(serial.unique_io, parallel.unique_io);
        assert_eq!(fnv1a64(&serial.transcript), fnv1a64(&parallel.transcript));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64("a"), fnv1a64("b"));
    }
}
