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
//! Wall-clock timings (`elapsed_s`, per-tick latencies) are measured for
//! the throughput report only and never enter the transcript.

use crate::engine::Engine;
use crate::{figs, Scale};
use mar_core::{
    CachePolicy, FramePlanner, LinearSpeedMap, PageCacheStats, QueryRegion, SceneIndexData, Server,
    ServerCore, SmoothedSpeed, SpeedResolutionMap, StoreError, WaveletIndex,
};
use mar_link::LinkConfig;
use mar_workload::{frame_at, pedestrian_tour, tram_tour, Placement, Scene, Tour, TourConfig};
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
    /// Base tour seed; session `k` tours with seed `base + k`.
    pub tour_seed: u64,
}

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
            tour_seed: 901,
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
            tour_seed: 901,
        }
    }
}

/// Header line of the per-tick, per-session transcript CSV. Shared with
/// `mar-load`, whose loopback transcript must be byte-identical to the
/// in-process harness's.
pub const TRANSCRIPT_HEADER: &str = "tick,session,coeffs,new_objects,bytes,io,response_s\n";

/// Formats one transcript row exactly as [`run_serve`] does. `mar-load`
/// calls this with the accounting it received over the wire, so transcript
/// equality reduces to the wire layer delivering bit-identical numbers.
pub fn transcript_row(
    tick: usize,
    session: usize,
    coeffs: u64,
    new_objects: u64,
    bytes: f64,
    io: u64,
    response_s: f64,
) -> String {
    format!("{tick},{session},{coeffs},{new_objects},{bytes},{io},{response_s}\n")
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
pub fn session_tour(space: mar_geom::Rect2, ticks: usize, tour_seed: u64, k: usize) -> Tour {
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

/// Per-session simulation state: Algorithm 1's frame planner plus the
/// session's tour and speed-smoothing filter. Boxed behind one mutex per
/// session — a session is planned by exactly one worker per tick, so the
/// lock is uncontended and exists only to hand the state safely across
/// the scoped threads.
struct SessionSim {
    session: u64,
    planner: FramePlanner,
    smooth: SmoothedSpeed,
    tour: Tour,
}

impl SessionSim {
    /// Plans this session's tick-`t` sub-queries and commits the frame.
    /// Committing before the query executes is safe in-process: the query
    /// is issued unconditionally by the same tick and cannot fail for a
    /// connected session. Returns the sub-queries plus the smoothed speed
    /// (needed for the response-time model once the result is back).
    fn plan(&mut self, scene: &Scene, tick: usize, frame_frac: f64) -> (Vec<QueryRegion>, f64) {
        let s = self.tour.samples[tick];
        let frame = frame_at(&scene.config.space, &s.pos, frame_frac);
        let speed = self.smooth.update(s.speed);
        let band = LinearSpeedMap.band_for(speed);
        let regions = self.planner.plan(&frame, band);
        self.planner.commit(frame, band);
        (regions, speed)
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

/// `count` events per wall-clock second (`0` before any time has passed).
pub fn per_sec(count: u64, elapsed_s: f64) -> f64 {
    if elapsed_s > 0.0 {
        count as f64 / elapsed_s
    } else {
        0.0
    }
}

/// The `q`-quantile (`0.0..=1.0`, nearest rank) of wall-clock samples in
/// nanoseconds; `0` when there are none.
pub fn quantile_ns(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
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
    /// Wall-clock duration of each tick's batch, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Total wall-clock time of the replay loop, in seconds.
    pub elapsed_s: f64,
    /// Page-file size in bytes (`None` on the in-RAM backend).
    pub store_file_bytes: Option<u64>,
    /// Buffer-pool statistics (`None` on the in-RAM backend).
    pub cache: Option<PageCacheStats>,
}

impl ServeReport {
    /// Queries per second of wall-clock replay time.
    pub fn queries_per_sec(&self) -> f64 {
        per_sec(self.queries, self.elapsed_s)
    }

    /// The `q`-quantile (0..=1) of per-tick batch latency, in nanoseconds.
    pub fn tick_latency_ns(&self, q: f64) -> u64 {
        quantile_ns(&self.tick_ns, q)
    }
}

/// Runs the serving workload on the in-RAM backend. The transcript (and
/// every aggregate derived from it) is identical for any `cfg.jobs`; only
/// the wall-clock fields change.
pub fn run_serve(cfg: &ServeConfig) -> ServeReport {
    run_serve_backend(cfg, &ServeBackend::Ram)
}

/// Runs the serving workload against the chosen index backend. The
/// transcript does not depend on the backend (or on `cfg.jobs`): the
/// out-of-core path answers byte-identically and only the wall-clock and
/// cache-statistics fields differ.
pub fn run_serve_backend(cfg: &ServeConfig, backend: &ServeBackend) -> ServeReport {
    let scene = serve_scene(cfg.objects, cfg.levels);
    let core = backend
        .build_core(&scene, cfg.jobs)
        // mar-lint: allow(D004) — the harness cannot proceed without its store file; surface the I/O error
        .expect("serve: cannot build the page-file backend");
    let server = Server::from_core(core);
    let link = LinkConfig::paper();

    // Sessions connect serially in id order, each with its own tour:
    // alternating tram/pedestrian kinds over a deterministic speed spread.
    let sims: Vec<Mutex<SessionSim>> = (0..cfg.sessions)
        .map(|k| {
            Mutex::new(SessionSim {
                session: server.connect(),
                planner: FramePlanner::new(),
                smooth: SmoothedSpeed::default(),
                tour: session_tour(scene.config.space, cfg.ticks, cfg.tour_seed, k),
            })
        })
        .collect();

    let engine = Engine::new(cfg.jobs);
    let mut transcript = String::from(TRANSCRIPT_HEADER);
    let mut tick_ns = Vec::with_capacity(cfg.ticks);
    let mut bytes = 0.0;
    let mut coeffs = 0u64;
    let mut io = 0u64;
    let mut unique_io = 0u64;
    // mar-lint: allow(D003) — wall-clock throughput measurement is this harness's job; timings never enter the transcript
    let t0 = std::time::Instant::now();
    for tick in 0..cfg.ticks {
        // mar-lint: allow(D003) — per-tick batch latency for the report only
        let t_tick = std::time::Instant::now();
        // Phase 1 — plan: every session runs Algorithm 1 for its own tour
        // sample in parallel. `Engine::run` returns in point (= session
        // id) order, so the plans line up with the session ids.
        let plans = engine.run(
            (0..cfg.sessions).collect(),
            || (),
            |_, &k| {
                let mut sim = sims[k]
                    .lock()
                    // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
                    .expect("session sim poisoned");
                (sim.session, sim.plan(&scene, tick, cfg.frame_frac))
            },
        );
        // Phase 2 — one cross-session group descent for the whole tick:
        // every session's sub-queries share a single index walk, and the
        // per-session results are demultiplexed in session-id order so the
        // transcript merge below is unchanged from the scalar harness.
        let batch: Vec<(u64, &[QueryRegion])> = plans
            .iter()
            .map(|(session, (regions, _))| (*session, regions.as_slice()))
            .collect();
        let (results, unique) = server.query_batch(&batch);
        unique_io += unique;
        tick_ns.push(t_tick.elapsed().as_nanos() as u64);
        // Merge in session-id order.
        for (k, (result, (_, (_, speed)))) in results.iter().zip(&plans).enumerate() {
            let r = result
                .as_ref()
                // mar-lint: allow(D004) — sessions 0..N were minted by the bulk connect above and live until teardown
                .expect("serve session vanished mid-run");
            let response_s = if r.bytes > 0.0 {
                link.request_time(r.bytes, *speed)
            } else {
                0.0
            };
            transcript.push_str(&transcript_row(
                tick,
                k,
                r.coeffs as u64,
                r.new_objects as u64,
                r.bytes,
                r.io,
                response_s,
            ));
            bytes += r.bytes;
            coeffs += r.coeffs as u64;
            io += r.io;
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    // Tear every session down; the filter state must go with it.
    for k in 0..cfg.sessions as u64 {
        server
            .disconnect(k)
            // mar-lint: allow(D004) — sessions 0..N were minted by the bulk connect above
            .expect("serve session vanished");
    }
    assert_eq!(
        server.sessions().session_count(),
        0,
        "all sessions disconnected"
    );
    assert_eq!(
        server.sessions().resident_filter_entries(),
        0,
        "disconnect must release filter state"
    );
    let store_file_bytes = server.index().paged().map(mar_core::PagedIndex::file_bytes);
    let cache = server.index().cache_stats();

    ServeReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        queries: (cfg.sessions * cfg.ticks) as u64,
        bytes,
        coeffs,
        io,
        unique_io,
        transcript,
        tick_ns,
        elapsed_s,
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
            tour_seed: 901,
        }
    }

    #[test]
    fn serve_produces_complete_transcript() {
        let r = run_serve(&tiny(1));
        assert_eq!(r.queries, 30);
        assert_eq!(r.tick_ns.len(), 10);
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
