//! `mar-bench fleet` — the sharded serving tier under shard failure.
//!
//! Replays the serve-style multi-session tour workload against a
//! [`Server`] whose index is a shard fleet
//! ([`WaveletIndex::build_fleet`]): the ground plane is partitioned over
//! S shard indexes, every window query is scatter-gathered by the
//! stateless router, and a seeded [`mar_link::ShardOutagePlan`] kills
//! whole shards on a pure schedule. The harness measures
//! **availability** — the fraction of outage-tick queries still served
//! at full fidelity — and proves the tier's central invariant at every
//! grid point:
//!
//! > clients are **never** errored during a shard outage (replica
//! > promotion or degraded neighbour service always answers), and after
//! > the shard recovers, every session's resident set **over the final
//! > frame at the final band** is byte-identical to the fault-free run's.
//!
//! Determinism mirrors `mar-bench serve` (DESIGN.md §10): the outage
//! schedule is keyed by tick and set as fleet health before the tick's
//! sessions run, sessions tour with seeds keyed by client index `k`,
//! results come back in point order, and the transcript is
//! byte-identical at any `jobs`. The harness reads no clock, so the whole
//! report — and the `BENCH_fleet.json` snapshot rendered from it — is
//! deterministic; the tier's speed is `benchmark/`'s to measure.

use crate::engine::Engine;
use crate::report::Json;
use crate::serve::{assert_released, fnv_hex, resident_fingerprint, serve_scene, TourSession};
use mar_core::{FleetConfig, FleetHealth, SceneIndexData, Server, ServerCore, WaveletIndex};
use mar_link::ShardOutagePlan;
use std::sync::{Arc, Mutex};

/// Base tour seed: session `k` tours with seed `TOUR_SEED + k`.
const TOUR_SEED: u64 = 1201;
/// Shard-outage schedule seed (shared; the schedule is tick-keyed).
const OUTAGE_SEED: u64 = 6363;

/// One fleet-grid point: a replica policy plus an outage schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetGridPoint {
    /// Whether every shard has a promotable replica.
    pub replicas: bool,
    /// Outage event period in ticks (`0` = no outages — the reference).
    pub period: u64,
    /// Ticks a victim shard stays down within each event.
    pub outage: u64,
}

/// Fleet-workload parameters.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Concurrent client sessions per grid point.
    pub sessions: usize,
    /// Ticks each session replays.
    pub ticks: usize,
    /// Shard grid columns.
    pub nx: u32,
    /// Shard grid rows.
    pub ny: u32,
    /// Objects in the generated scene.
    pub objects: usize,
    /// Subdivision levels per object.
    pub levels: usize,
    /// Query frame fraction of the space.
    pub frame_frac: f64,
    /// Worker threads (`<= 1` = serial reference execution).
    pub jobs: usize,
    /// The grid. The first point must be outage-free — it is the
    /// reference every other point's resident sets are compared against.
    pub grid: Vec<FleetGridPoint>,
}

impl FleetBenchConfig {
    /// The full measurement: 10 000 sessions × 24 ticks over an 8×4 fleet
    /// (32 shards), outage-free vs shard-kill with and without replicas.
    pub fn full(jobs: usize) -> Self {
        Self {
            sessions: 10_000,
            ticks: 24,
            nx: 8,
            ny: 4,
            objects: 48,
            levels: 3,
            frame_frac: 0.05,
            jobs,
            grid: vec![
                FleetGridPoint {
                    replicas: false,
                    period: 0,
                    outage: 0,
                },
                FleetGridPoint {
                    replicas: true,
                    period: 8,
                    outage: 3,
                },
                FleetGridPoint {
                    replicas: false,
                    period: 8,
                    outage: 3,
                },
            ],
        }
    }

    /// A seconds-scale CI smoke grid: 32 sessions × 16 ticks over a 4×2
    /// fleet, same three failure-policy points.
    pub fn smoke(jobs: usize) -> Self {
        Self {
            sessions: 32,
            ticks: 16,
            nx: 4,
            ny: 2,
            objects: 12,
            levels: 2,
            frame_frac: 0.1,
            jobs,
            grid: vec![
                FleetGridPoint {
                    replicas: false,
                    period: 0,
                    outage: 0,
                },
                FleetGridPoint {
                    replicas: true,
                    period: 6,
                    outage: 2,
                },
                FleetGridPoint {
                    replicas: false,
                    period: 6,
                    outage: 2,
                },
            ],
        }
    }

    /// Total shards (validated against the 64-shard health word by the
    /// fleet build).
    pub fn shards(&self) -> u32 {
        self.nx * self.ny
    }
}

/// What one grid point measured, summed over its sessions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetPointReport {
    /// The grid point replayed.
    pub point: FleetGridPoint,
    /// Tick queries issued (one per session per tick, plus finish passes).
    pub queries: u64,
    /// Shard sub-query tasks executed.
    pub tasks: u64,
    /// Sub-rects a promoted replica served.
    pub replica_promotions: u64,
    /// Sub-rects served only via neighbour halo coverage.
    pub degraded_subqueries: u64,
    /// Sub-rects nobody could serve.
    pub unserved_subqueries: u64,
    /// Tick queries issued while at least one shard was down.
    pub outage_queries: u64,
    /// Outage-tick queries still served at full fidelity.
    pub complete_outage_queries: u64,
    /// Payload bytes delivered.
    pub bytes: f64,
    /// Index node accesses.
    pub io: u64,
    /// Per-session fingerprint of the resident set over the final frame
    /// at the final band — equal across grid points iff the invariant
    /// holds.
    pub fingerprints: Vec<u64>,
}

impl FleetPointReport {
    /// Adds one session's tally, in session order.
    fn absorb(&mut self, session: &Self) {
        self.queries += session.queries;
        self.tasks += session.tasks;
        self.replica_promotions += session.replica_promotions;
        self.degraded_subqueries += session.degraded_subqueries;
        self.unserved_subqueries += session.unserved_subqueries;
        self.outage_queries += session.outage_queries;
        self.complete_outage_queries += session.complete_outage_queries;
        self.bytes += session.bytes;
        self.io += session.io;
        self.fingerprints.extend_from_slice(&session.fingerprints);
    }

    /// Fraction of outage-tick queries served at full fidelity (`1.0`
    /// when there were no outage ticks). The shard-kill invariant demands
    /// this stays strictly positive: healthy-region clients keep full
    /// service, dead-region clients get replicas or degraded answers —
    /// never errors.
    pub fn availability(&self) -> f64 {
        if self.outage_queries == 0 {
            1.0
        } else {
            self.complete_outage_queries as f64 / self.outage_queries as f64
        }
    }
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Sessions per grid point.
    pub sessions: usize,
    /// Ticks per session.
    pub ticks: usize,
    /// Shards in the fleet.
    pub shards: u32,
    /// One report per grid point, in grid order.
    pub points: Vec<FleetPointReport>,
    /// The deterministic per-grid-point, per-session, per-tick transcript.
    pub transcript: String,
    /// Whether every grid point's final-frame resident sets matched the
    /// outage-free reference (grid point 0) and every outage query was
    /// answered.
    pub invariant_ok: bool,
}

impl FleetReport {
    /// The `BENCH_fleet.json` snapshot of this run.
    pub fn snapshot(&self, mode: &str) -> Json {
        let point = |p: &FleetPointReport| {
            Json::Obj(vec![
                ("replicas", Json::Bool(p.point.replicas)),
                ("period", p.point.period.into()),
                ("outage", p.point.outage.into()),
                ("queries", p.queries.into()),
                ("tasks", p.tasks.into()),
                ("replica_promotions", p.replica_promotions.into()),
                ("degraded_subqueries", p.degraded_subqueries.into()),
                ("unserved_subqueries", p.unserved_subqueries.into()),
                ("outage_queries", p.outage_queries.into()),
                ("complete_outage_queries", p.complete_outage_queries.into()),
                ("availability", Json::Num(p.availability(), 6)),
                ("bytes", Json::Num(p.bytes, 1)),
                ("io", p.io.into()),
            ])
        };
        Json::Obj(vec![
            ("schema", "mar-bench-fleet/2".into()),
            ("mode", mode.into()),
            ("sessions", self.sessions.into()),
            ("ticks", self.ticks.into()),
            ("shards", u64::from(self.shards).into()),
            ("invariant_ok", Json::Bool(self.invariant_ok)),
            ("grid", Json::Arr(self.points.iter().map(point).collect())),
            ("transcript_fnv64", fnv_hex(&self.transcript)),
        ])
    }
}

/// One session's replay across its grid point's ticks.
struct SessionRun {
    session: u64,
    tour: TourSession,
    rows: String,
    /// This session's share of its grid point's report.
    tally: FleetPointReport,
}

/// The transcript column header.
pub const FLEET_TRANSCRIPT_HEADER: &str =
    "replicas,period,session,tick,coeffs,new_objects,bytes,io,tasks,promotions,degraded,unserved,complete\n";

/// Runs the fleet workload. The report is identical for any `cfg.jobs`.
///
/// Tick-major, like `serve`: the fleet's health is set for a tick, then
/// every session runs that tick (in parallel over the engine), so the
/// outage schedule is fleet state shared by every session, not something
/// each query carries. A session's `tasks` / `promotions` / `degraded` /
/// `unserved` / `complete` columns are the router's plan for each of its
/// sub-queries under that health; its answers are [`Server::query`]'s,
/// one region per call, so its byte totals sum in region order.
///
/// # Panics
/// Panics when the workload itself is miswired (empty grid, outaged grid
/// point 0, zero ticks, outage outliving its period, too many shards) —
/// configuration bugs, not runtime faults.
pub fn run_fleet(cfg: &FleetBenchConfig) -> FleetReport {
    assert!(
        matches!(cfg.grid.first(), Some(p) if p.period == 0),
        "grid point 0 must be the outage-free reference"
    );
    let scene = serve_scene(cfg.objects, cfg.levels);
    let space = scene.config.space;
    let data = Arc::new(SceneIndexData::build(&scene));
    let engine = Engine::new(cfg.jobs);
    let shards = cfg.shards();

    let mut transcript = String::from(FLEET_TRANSCRIPT_HEADER);
    let mut points: Vec<FleetPointReport> = Vec::with_capacity(cfg.grid.len());
    let mut invariant_ok = true;

    for gp in &cfg.grid {
        // A fresh fleet per grid point (replica policy differs and filter
        // state must never leak between points) over the shared scene data.
        let fleet_cfg = FleetConfig::ram(cfg.nx, cfg.ny, gp.replicas);
        let index = WaveletIndex::build_fleet(&data, space, &fleet_cfg)
            // mar-lint: allow(D004) — the shard grid is validated static configuration
            .expect("fleet grid is valid");
        let server = Server::from_core(ServerCore::from_parts(Arc::clone(&data), Arc::new(index)));
        // mar-lint: allow(D004) — built as a fleet two lines up
        let fleet = server.index().fleet().expect("a fleet index");
        let outage = if gp.period == 0 {
            ShardOutagePlan::none(OUTAGE_SEED)
        } else {
            ShardOutagePlan::new(OUTAGE_SEED, gp.period, gp.outage)
                // mar-lint: allow(D004) — the outage grid is validated static configuration
                .expect("outage plan is valid")
        };
        let replicas_col = u8::from(gp.replicas);
        let runs: Vec<Mutex<SessionRun>> = (0..cfg.sessions)
            .map(|k| {
                Mutex::new(SessionRun {
                    session: server.connect(),
                    tour: TourSession::new(space, cfg.ticks, TOUR_SEED, cfg.frame_frac, k),
                    rows: String::new(),
                    tally: FleetPointReport::default(),
                })
            })
            .collect();
        // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
        let run_of = |k: usize| runs[k].lock().expect("session run poisoned");

        for tick in 0..cfg.ticks {
            let health = FleetHealth::from_down_mask(outage.down_mask(tick as u64, shards));
            fleet.set_health(health);
            engine.run(
                (0..cfg.sessions).collect(),
                || (),
                |_, &k| {
                    let mut run = run_of(k);
                    let SessionRun {
                        session,
                        tour,
                        rows,
                        tally: out,
                    } = &mut *run;
                    let view = tour.view(tick);
                    let mut coeffs = 0usize;
                    let mut new_objects = 0usize;
                    let mut bytes = 0.0f64;
                    let mut io = 0u64;
                    let mut tasks = 0u32;
                    let mut promotions = 0u32;
                    let mut degraded = 0u32;
                    let mut unserved = 0u32;
                    let mut complete = true;
                    for r in &tour.plan(&view) {
                        let plan = fleet.router().plan(health, &r.region, r.band);
                        let result = server
                            .query(*session, std::slice::from_ref(r))
                            // mar-lint: allow(D004) — outages degrade answers, they never error; an error here is the bug this harness exists to catch
                            .expect("fleet never errors a live session");
                        coeffs += result.coeffs;
                        new_objects += result.new_objects;
                        bytes += result.bytes;
                        io += result.io;
                        tasks += plan.tasks.len() as u32;
                        promotions += plan.replica_promotions();
                        degraded += plan.degraded_subqueries;
                        unserved += plan.unserved_subqueries;
                        complete &= plan.complete();
                    }
                    if complete {
                        // Only a fully-served tick advances the planner:
                        // degraded coverage is refetched after recovery.
                        tour.commit(&view);
                    }
                    out.queries += 1;
                    out.tasks += u64::from(tasks);
                    out.replica_promotions += u64::from(promotions);
                    out.degraded_subqueries += u64::from(degraded);
                    out.unserved_subqueries += u64::from(unserved);
                    out.bytes += bytes;
                    out.io += io;
                    if health.down_count() > 0 {
                        out.outage_queries += 1;
                        out.complete_outage_queries += u64::from(complete);
                    }
                    rows.push_str(&format!(
                        "{replicas_col},{},{k},{tick},{coeffs},{new_objects},{bytes},{io},{tasks},{promotions},{degraded},{unserved},{}\n",
                        gp.period,
                        u8::from(complete),
                    ));
                },
            );
        }

        // Recovery pass: the shard is back (all-up health); every session
        // refetches whatever its uncommitted planner coverage still owes
        // over the final frame at the final band, and reports whether it
        // then holds all of it.
        fleet.set_health(FleetHealth::all_up());
        let covered = engine.run(
            (0..cfg.sessions).collect(),
            || (),
            |_, &k| {
                let mut run = run_of(k);
                let SessionRun {
                    session,
                    tour,
                    rows,
                    tally: out,
                } = &mut *run;
                let last = tour.view(cfg.ticks - 1);
                let mut fin_coeffs = 0usize;
                let mut fin_bytes = 0.0f64;
                for r in &tour.plan(&last) {
                    let plan = fleet
                        .router()
                        .plan(FleetHealth::all_up(), &r.region, r.band);
                    debug_assert!(plan.complete());
                    let result = server
                        .query(*session, std::slice::from_ref(r))
                        // mar-lint: allow(D004) — all-up health cannot degrade or error
                        .expect("recovered fleet serves everything");
                    fin_coeffs += result.coeffs;
                    fin_bytes += result.bytes;
                    out.bytes += result.bytes;
                    out.io += result.io;
                    out.tasks += plan.tasks.len() as u64;
                }
                out.queries += 1;
                rows.push_str(&format!(
                    "{replicas_col},{},{k},finish,{fin_coeffs},0,{fin_bytes},0,0,0,0,0,1\n",
                    gp.period,
                ));
                // The invariant's object: the resident set over the final
                // frame at the final band.
                let (mut want, _) = server.query_stateless(&last.frame, last.band);
                want.sort_unstable();
                want.dedup();
                let sent = server
                    .sessions()
                    .session_sent_set(*session)
                    // mar-lint: allow(D004) — the session is live until teardown
                    .expect("fleet session is live");
                let (fingerprint, covered) = resident_fingerprint(&want, &sent);
                out.fingerprints.push(fingerprint);
                covered
            },
        );

        let mut report = FleetPointReport {
            point: *gp,
            ..FleetPointReport::default()
        };
        for (k, covered) in covered.into_iter().enumerate() {
            let run = run_of(k);
            transcript.push_str(&run.rows);
            report.absorb(&run.tally);
            invariant_ok &= covered;
            // Tear the session down; its filter state must go too.
            server
                .disconnect(run.session)
                // mar-lint: allow(D004) — each session is live until this teardown
                .expect("fleet session vanished");
        }
        assert_released(server.sessions());
        // Against the outage-free reference: identical resident sets, and
        // availability strictly positive whenever an outage actually bit.
        if let Some(reference) = points.first() {
            invariant_ok &= reference.fingerprints == report.fingerprints;
        }
        if report.outage_queries > 0 {
            invariant_ok &= report.complete_outage_queries > 0;
        }
        points.push(report);
    }

    FleetReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        shards,
        points,
        transcript,
        invariant_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> FleetBenchConfig {
        FleetBenchConfig {
            sessions: 4,
            ticks: 12,
            nx: 4,
            ny: 2,
            objects: 8,
            levels: 2,
            frame_frac: 0.15,
            jobs,
            grid: vec![
                FleetGridPoint {
                    replicas: false,
                    period: 0,
                    outage: 0,
                },
                FleetGridPoint {
                    replicas: true,
                    period: 5,
                    outage: 2,
                },
                FleetGridPoint {
                    replicas: false,
                    period: 5,
                    outage: 2,
                },
            ],
        }
    }

    #[test]
    fn fleet_invariant_holds_under_shard_kills() {
        let r = run_fleet(&tiny(1));
        assert!(
            r.invariant_ok,
            "resident sets diverged from outage-free run"
        );
        assert_eq!(r.points.len(), 3);
        assert_eq!(r.shards, 8);

        let clean = &r.points[0];
        assert_eq!(clean.outage_queries, 0);
        assert_eq!(clean.replica_promotions, 0);
        assert_eq!(clean.degraded_subqueries, 0);
        assert!((clean.availability() - 1.0).abs() < 1e-12);

        let replicated = &r.points[1];
        assert!(replicated.outage_queries > 0, "outages must bite");
        assert!(replicated.replica_promotions > 0, "kills must promote");
        assert_eq!(replicated.degraded_subqueries, 0);
        assert_eq!(replicated.unserved_subqueries, 0);
        assert!(
            (replicated.availability() - 1.0).abs() < 1e-12,
            "replicas keep availability at 1.0"
        );

        let degraded = &r.points[2];
        assert!(degraded.outage_queries > 0);
        assert_eq!(degraded.replica_promotions, 0);
        assert!(
            degraded.availability() > 0.0,
            "healthy-region clients keep full service"
        );
        assert!(
            degraded.availability() < 1.0 || degraded.degraded_subqueries == 0,
            "a kill that bites must show up as degraded ticks"
        );
    }

    #[test]
    fn transcript_is_jobs_invariant() {
        let serial = run_fleet(&tiny(1));
        let parallel = run_fleet(&tiny(3));
        assert_eq!(serial.transcript, parallel.transcript);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a, b, "grid-point aggregates must be jobs-invariant");
            assert_eq!(a.bytes.to_bits(), b.bytes.to_bits());
        }
    }

    #[test]
    fn transcript_shape() {
        let r = run_fleet(&tiny(1));
        // Header + per grid point: sessions × (ticks + finish row).
        assert_eq!(r.transcript.lines().count(), 1 + 3 * 4 * (12 + 1));
        assert!(r.transcript.starts_with(FLEET_TRANSCRIPT_HEADER));
    }

    #[test]
    #[should_panic(expected = "outage-free reference")]
    fn grid_must_lead_with_the_outage_free_point() {
        let mut cfg = tiny(1);
        cfg.grid[0].period = 5;
        cfg.grid[0].outage = 2;
        run_fleet(&cfg);
    }
}
