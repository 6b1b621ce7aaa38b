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
//! The outage schedule is one of the two fault sources of the grid driver
//! in `grid.rs` (DESIGN.md §10): keyed by tick, it is set as fleet health
//! before each tick's sessions run, so the transcript, and the
//! `BENCH_fleet.json` snapshot rendered from it, are identical at any
//! `jobs`. The harness reads no clock; the tier's speed is `benchmark/`'s
//! to measure.

use crate::grid::{run_grid, FaultSource, GridReport};
use crate::report::Json;
use crate::serve::{serve_scene, ServeConfig, TourSession, View};
use mar_core::{Fleet, FleetConfig, FleetHealth, SceneIndexData, Server, ServerCore, WaveletIndex};
use mar_geom::Rect2;
use mar_link::ShardOutagePlan;
use std::sync::Arc;

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
    /// The tour workload every grid point replays.
    pub serve: ServeConfig,
    /// Shard grid columns.
    pub nx: u32,
    /// Shard grid rows.
    pub ny: u32,
    /// The grid. The first point must be outage-free — it is the
    /// reference every other point's resident sets are compared against.
    pub grid: Vec<FleetGridPoint>,
}

impl FleetBenchConfig {
    /// The full measurement: 10 000 sessions × 24 ticks over an 8×4 fleet
    /// (32 shards), outage-free vs shard-kill with and without replicas.
    pub fn full(jobs: usize) -> Self {
        let serve = ServeConfig {
            sessions: 10_000,
            ticks: 24,
            objects: 48,
            levels: 3,
            frame_frac: 0.05,
            jobs,
        };
        Self {
            serve,
            nx: 8,
            ny: 4,
            grid: grid(8, 3),
        }
    }

    /// A seconds-scale CI smoke grid: 32 sessions × 16 ticks over a 4×2
    /// fleet, same three failure-policy points.
    pub fn smoke(jobs: usize) -> Self {
        let serve = ServeConfig {
            sessions: 32,
            ticks: 16,
            objects: 12,
            levels: 2,
            frame_frac: 0.1,
            jobs,
        };
        Self {
            serve,
            nx: 4,
            ny: 2,
            grid: grid(6, 2),
        }
    }

    /// Total shards (validated against the 64-shard health word by the
    /// fleet build).
    pub fn shards(&self) -> u32 {
        self.nx * self.ny
    }
}

/// The outage-free reference point, then a shard kill of `outage` ticks
/// every `period` ticks, first with replicas and then without.
fn grid(period: u64, outage: u64) -> Vec<FleetGridPoint> {
    let kill = |replicas| FleetGridPoint {
        replicas,
        period,
        outage,
    };
    vec![FleetGridPoint::default(), kill(true), kill(false)]
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
    /// Adds one view's tally to its session's, or one session's to a point's.
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

/// What one fleet run produced; its `shards` is the fleet's shard count.
pub type FleetReport = GridReport<FleetPointReport>;

impl FleetReport {
    /// The `BENCH_fleet.json` snapshot of this run.
    pub fn snapshot(&self, mode: &str) -> Json {
        self.render("mar-bench-fleet/2", mode, |p| {
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
        })
    }
}

/// The fleet fault: a tick-keyed shard-outage schedule over the one fleet
/// every session shares.
struct ShardOutages {
    data: Arc<SceneIndexData>,
    space: Rect2,
    nx: u32,
    ny: u32,
}

/// The fleet behind `server`.
fn fleet(server: &Server) -> &Fleet {
    // mar-lint: allow(D004) — every grid point's core is built as a fleet
    server.index().fleet().expect("a fleet index")
}

impl FaultSource for ShardOutages {
    type Point = FleetGridPoint;
    /// A server session and its share of the point's report.
    type Client = (u64, FleetPointReport);
    type Report = FleetPointReport;
    const HEADER: &'static str =
        "replicas,period,session,tick,coeffs,new_objects,bytes,io,tasks,promotions,degraded,unserved,complete\n";
    const TOUR_SEED: u64 = 1201;

    fn is_reference(&self, gp: &FleetGridPoint) -> bool {
        gp.period == 0
    }

    fn key(&self, gp: &FleetGridPoint) -> String {
        format!("{},{}", u8::from(gp.replicas), gp.period)
    }

    fn core(&self, gp: &FleetGridPoint) -> ServerCore {
        // The replica policy differs per point; the scene data is shared.
        let cfg = FleetConfig::ram(self.nx, self.ny, gp.replicas);
        let index = WaveletIndex::build_fleet(&self.data, self.space, &cfg)
            // mar-lint: allow(D004) — the shard grid is validated static configuration
            .expect("fleet grid is valid");
        ServerCore::from_parts(Arc::clone(&self.data), Arc::new(index))
    }

    fn before(&self, server: &Server, gp: &FleetGridPoint, tick: Option<usize>) {
        // Health is fleet state every session shares, keyed by tick; the
        // finish pass runs after recovery, on an all-up fleet.
        let down = tick.map_or(0, |tick| {
            ShardOutagePlan::new(OUTAGE_SEED, gp.period, gp.outage)
                // mar-lint: allow(D004) — the outage grid is validated static configuration
                .expect("outage plan is valid")
                .down_mask(tick as u64, self.nx * self.ny)
        });
        fleet(server).set_health(FleetHealth::from_down_mask(down));
    }

    fn connect(&self, server: &Server, _: &FleetGridPoint, _: usize) -> Self::Client {
        (server.connect(), FleetPointReport::default())
    }

    fn session(&self, client: &Self::Client) -> u64 {
        client.0
    }

    /// Serves `view` one region per [`Server::query`] call, so byte totals
    /// sum in region order, each routed under the fleet's current health.
    fn step(
        &self,
        server: &Server,
        (session, out): &mut Self::Client,
        tour: &mut TourSession,
        view: &View,
        tick: Option<usize>,
    ) -> String {
        let fleet = fleet(server);
        let health = fleet.health();
        // This view's share of the session's tally.
        let mut t = FleetPointReport {
            queries: 1,
            ..FleetPointReport::default()
        };
        let (mut coeffs, mut new_objects, mut complete) = (0, 0, true);
        for r in &tour.plan(view) {
            let plan = fleet.router().plan(health, &r.region, r.band);
            let result = server
                .query(*session, std::slice::from_ref(r))
                // mar-lint: allow(D004) — outages degrade answers, they never error; an error here is the bug this harness exists to catch
                .expect("fleet never errors a live session");
            coeffs += result.coeffs;
            new_objects += result.new_objects;
            t.bytes += result.bytes;
            t.io += result.io;
            t.tasks += plan.tasks.len() as u64;
            t.replica_promotions += u64::from(plan.replica_promotions());
            t.degraded_subqueries += u64::from(plan.degraded_subqueries);
            t.unserved_subqueries += u64::from(plan.unserved_subqueries);
            complete &= plan.complete();
        }
        if complete {
            // Only a fully-served view advances the planner: degraded
            // coverage is refetched after recovery.
            tour.commit(view);
        }
        if health.down_count() > 0 {
            t.outage_queries = 1;
            t.complete_outage_queries = u64::from(complete);
        }
        out.absorb(&t);
        let (bytes, io, complete) = (t.bytes, t.io, u8::from(complete));
        let (tasks, promoted) = (t.tasks, t.replica_promotions);
        let (degraded, unserved) = (t.degraded_subqueries, t.unserved_subqueries);
        match tick {
            Some(_) => format!("{coeffs},{new_objects},{bytes},{io},{tasks},{promoted},{degraded},{unserved},{complete}"),
            None => format!("{coeffs},0,{bytes},0,0,0,0,0,{complete}"),
        }
    }

    fn report(
        &self,
        gp: &FleetGridPoint,
        clients: Vec<Self::Client>,
        fingerprints: Vec<u64>,
    ) -> (FleetPointReport, bool) {
        let mut report = FleetPointReport {
            point: *gp,
            fingerprints,
            ..FleetPointReport::default()
        };
        for (_, tally) in &clients {
            report.absorb(tally);
        }
        // Availability stays strictly positive whenever an outage bit.
        let held = report.outage_queries == 0 || report.complete_outage_queries > 0;
        (report, held)
    }
}

/// Runs the fleet workload. The report is identical for any `cfg.serve.jobs`.
///
/// # Panics
/// Panics when the workload itself is miswired (empty grid, outaged grid
/// point 0, zero ticks, outage outliving its period, too many shards) —
/// configuration bugs, not runtime faults.
pub fn run_fleet(cfg: &FleetBenchConfig) -> FleetReport {
    let scene = serve_scene(cfg.serve.objects, cfg.serve.levels);
    let space = scene.config.space;
    let source = ShardOutages {
        data: Arc::new(SceneIndexData::build(&scene)),
        space,
        nx: cfg.nx,
        ny: cfg.ny,
    };
    let run = run_grid(&source, &cfg.grid, space, &cfg.serve);
    FleetReport {
        shards: Some(cfg.shards()),
        ..run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::tests::{check_jobs_invariant, check_shape};

    /// A seconds-scale 4×2 fleet over the three failure-policy points.
    fn tiny(jobs: usize) -> FleetBenchConfig {
        let serve = ServeConfig {
            sessions: 4,
            ticks: 12,
            objects: 8,
            levels: 2,
            frame_frac: 0.15,
            jobs,
        };
        FleetBenchConfig {
            serve,
            nx: 4,
            ny: 2,
            grid: grid(5, 2),
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
        assert_eq!(r.shards, Some(8));

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
        check_jobs_invariant(|jobs| run_fleet(&tiny(jobs)));
    }

    #[test]
    fn transcript_shape() {
        check_shape(&run_fleet(&tiny(1)));
    }

    #[test]
    #[should_panic(expected = "fault-free reference")]
    fn grid_must_lead_with_the_outage_free_point() {
        let mut cfg = tiny(1);
        cfg.grid[0].period = 5;
        cfg.grid[0].outage = 2;
        run_fleet(&cfg);
    }
}
