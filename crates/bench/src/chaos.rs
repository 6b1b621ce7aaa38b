//! `mar-bench chaos` — the fault-injection harness for the resilient
//! retrieval protocol.
//!
//! Replays the serve-style multi-session tour workload, but pushes every
//! query through a seeded [`mar_link::FaultyLink`] and the
//! [`mar_core::ResilientClient`] protocol, sweeping a fault grid of
//! (packet-loss probability, scheduled-drop period). The harness proves
//! the protocol's central invariant at every grid point:
//!
//! > after the end-of-tour repair pass, a faulted session's resident
//! > coefficient set **over the final frame at the final resolution band**
//! > is byte-identical to the fault-free session's.
//!
//! Retries, drops and degradation may reshape *when* data moves — never
//! *what* the client ends up holding where it matters.
//!
//! Determinism mirrors `mar-bench serve` (DESIGN.md §10): each session's
//! fault stream is keyed by its client index `k`, not by the server-minted
//! session id, so the `connect()` order under concurrency is unobservable;
//! sessions fan out over the [`Engine`], whose results come back in point
//! order; `jobs = 1` and `jobs = N` transcripts are byte-identical (pinned
//! by `crates/bench/tests/chaos.rs`). Link time is simulated, never
//! measured: the harness reads no clock, so the whole report — and the
//! `BENCH_chaos.json` snapshot rendered from it — is deterministic.

use crate::engine::Engine;
use crate::report::Json;
use crate::serve::{
    assert_released, fnv_hex, resident_fingerprint, serve_scene, ServeBackend, TourSession,
    TOUR_SEED,
};
use mar_core::{ResilienceMetrics, ResilientClient, ResilientTick, Server};
use mar_link::{FaultConfig, FaultPlan, FaultyLink, LinkConfig};

/// Fault-plan seed shared by every grid point (streams differ by `k`).
const FAULT_SEED: u64 = 4242;

/// One fault-grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Per-request loss probability.
    pub loss: f64,
    /// Scheduled session-drop period in link requests (`0` = never).
    pub drop_every: u64,
}

/// Chaos-workload parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Concurrent client sessions per grid point.
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
    /// The fault grid. The first point must be fault-free — it is the
    /// reference every other point's resident sets are compared against.
    pub grid: Vec<GridPoint>,
}

impl ChaosConfig {
    /// The full measurement grid: 16 sessions × 240 ticks under
    /// loss ∈ {0, 1, 5, 20 %} with periodic transport drops.
    pub fn full(jobs: usize) -> Self {
        Self {
            sessions: 16,
            ticks: 240,
            objects: 40,
            levels: 3,
            frame_frac: 0.05,
            jobs,
            grid: vec![
                GridPoint {
                    loss: 0.0,
                    drop_every: 0,
                },
                GridPoint {
                    loss: 0.01,
                    drop_every: 60,
                },
                GridPoint {
                    loss: 0.05,
                    drop_every: 60,
                },
                GridPoint {
                    loss: 0.20,
                    drop_every: 60,
                },
            ],
        }
    }

    /// A seconds-scale CI smoke grid.
    pub fn smoke(jobs: usize) -> Self {
        Self {
            sessions: 4,
            ticks: 40,
            objects: 12,
            levels: 2,
            frame_frac: 0.1,
            jobs,
            grid: vec![
                GridPoint {
                    loss: 0.0,
                    drop_every: 0,
                },
                GridPoint {
                    loss: 0.05,
                    drop_every: 15,
                },
                GridPoint {
                    loss: 0.20,
                    drop_every: 15,
                },
            ],
        }
    }
}

/// What one grid point measured, summed over its sessions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPointReport {
    /// The injected loss probability.
    pub loss: f64,
    /// The injected drop period (`0` = never).
    pub drop_every: u64,
    /// The sessions' protocol metrics, summed (`max_level`: the highest
    /// any session reached).
    pub metrics: ResilienceMetrics,
    /// Per-session fingerprint of the resident set over the final frame at
    /// the final band — equal across grid points iff the invariant holds.
    pub fingerprints: Vec<u64>,
}

impl ChaosPointReport {
    /// Goodput relative to the Eq. 1 fault-free ideal (`1.0` on a clean
    /// link, lower as faults burn time on retries and waits).
    pub fn goodput(&self) -> f64 {
        if self.metrics.link_time_s > 0.0 {
            self.metrics.ideal_time_s / self.metrics.link_time_s
        } else {
            1.0
        }
    }
}

/// What one chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Sessions per grid point.
    pub sessions: usize,
    /// Ticks per session.
    pub ticks: usize,
    /// One report per grid point, in grid order.
    pub points: Vec<ChaosPointReport>,
    /// The deterministic per-grid-point, per-session, per-tick transcript.
    pub transcript: String,
    /// Whether every grid point's resident sets matched the fault-free
    /// reference (grid point 0).
    pub invariant_ok: bool,
}

impl ChaosReport {
    /// The `BENCH_chaos.json` snapshot of this run.
    pub fn snapshot(&self, mode: &str) -> Json {
        let point = |p: &ChaosPointReport| {
            Json::Obj(vec![
                // Grid losses are whole percents.
                ("loss_pct", Json::Num(p.loss * 100.0, 0)),
                ("drop_every", p.drop_every.into()),
                ("retries", p.metrics.retries.into()),
                ("drops", p.metrics.drops.into()),
                ("resumed", p.metrics.resumed.into()),
                ("reconnects", p.metrics.reconnects.into()),
                ("degraded_ticks", p.metrics.degraded_ticks.into()),
                ("max_level", u64::from(p.metrics.max_level).into()),
                ("bytes", Json::Num(p.metrics.bytes, 1)),
                ("link_time_s", Json::Num(p.metrics.link_time_s, 3)),
                ("ideal_time_s", Json::Num(p.metrics.ideal_time_s, 3)),
                ("goodput", Json::Num(p.goodput(), 4)),
            ])
        };
        Json::Obj(vec![
            ("schema", "mar-bench-chaos/2".into()),
            ("mode", mode.into()),
            ("sessions", self.sessions.into()),
            ("ticks", self.ticks.into()),
            ("invariant_ok", Json::Bool(self.invariant_ok)),
            ("grid", Json::Arr(self.points.iter().map(point).collect())),
            ("transcript_fnv64", fnv_hex(&self.transcript)),
        ])
    }
}

/// One transcript row: what session `k`'s tick (or `finish` pass) did at
/// grid point `gp`.
fn push_row(rows: &mut String, gp: &GridPoint, k: usize, tick: &str, out: &ResilientTick) {
    rows.push_str(&format!(
        "{},{},{k},{tick},{},{},{},{},{},{},{},{}\n",
        gp.loss * 100.0,
        gp.drop_every,
        out.result.coeffs,
        out.result.new_objects,
        out.result.bytes,
        out.result.io,
        out.retries,
        out.drops,
        out.degrade_level,
        out.tick_time_s,
    ));
}

/// What one session's worker brings home.
struct SessionOutcome {
    rows: String,
    metrics: ResilienceMetrics,
    fingerprint: u64,
    covered: bool,
    session: u64,
}

/// Runs the chaos workload. The report is identical for any `cfg.jobs`.
///
/// # Panics
/// Panics when the workload itself is miswired (empty grid, faulted grid
/// point 0, zero ticks) — configuration bugs, not runtime faults.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    run_chaos_backend(cfg, &ServeBackend::Ram)
}

/// [`run_chaos`] against a chosen index backend. The transcript, every
/// aggregate and every fingerprint are backend-independent — the paged
/// store answers byte-identically to RAM (DESIGN.md §15), so the chaos
/// invariant carries over to the out-of-core server unchanged (pinned by
/// this module's tests).
///
/// # Panics
/// Panics on a miswired workload (see [`run_chaos`]) or when the page
/// file backing a [`ServeBackend::Paged`] run cannot be written.
pub fn run_chaos_backend(cfg: &ChaosConfig, backend: &ServeBackend) -> ChaosReport {
    assert!(
        matches!(cfg.grid.first(), Some(p) if p.loss == 0.0 && p.drop_every == 0),
        "grid point 0 must be the fault-free reference"
    );
    let scene = serve_scene(cfg.objects, cfg.levels);
    // One immutable core shared by every grid point's fresh server: only
    // session (filter) state must not leak between grid points, and that
    // lives in the `Server`, not the core.
    let core = backend
        .build_core(&scene, cfg.jobs)
        // mar-lint: allow(D004) — the harness cannot proceed without its store file; surface the I/O error
        .expect("chaos: cannot build the page-file backend");
    let engine = Engine::new(cfg.jobs);

    let mut transcript = String::from(
        "loss_pct,drop_every,session,tick,coeffs,new_objects,bytes,io,retries,drops,level,time_s\n",
    );
    let mut points = Vec::with_capacity(cfg.grid.len());
    let mut invariant_ok = true;

    for gp in &cfg.grid {
        // A fresh server per grid point over the same immutable core, so
        // filter state can never leak between grid points.
        let server = Server::from_core(core.clone());
        let fault = if gp.loss == 0.0 && gp.drop_every == 0 {
            FaultConfig::none(FAULT_SEED)
        } else {
            FaultConfig::hostile(FAULT_SEED, gp.loss, gp.drop_every)
        };
        let outcomes: Vec<SessionOutcome> = engine.run(
            (0..cfg.sessions).collect(),
            || (),
            |_, &k| {
                // The resilient client plans for itself; only the views
                // are read off the session.
                let space = scene.config.space;
                let tour = TourSession::new(space, cfg.ticks, TOUR_SEED, cfg.frame_frac, k);
                // The fault stream is keyed by the client index k, not the
                // server-minted session id: the connect order under
                // concurrency must be unobservable.
                let plan = FaultPlan::new(fault)
                    // mar-lint: allow(D004) — the grid is validated static configuration
                    .expect("chaos fault grid is valid");
                let link = FaultyLink::new(LinkConfig::paper(), plan, k as u64)
                    // mar-lint: allow(D004) — LinkConfig::paper() is valid by construction
                    .expect("paper link config is valid");
                let mut client = ResilientClient::connect(&server, link);
                let mut rows = String::new();
                for tick in 0..cfg.ticks {
                    let view = tour.view(tick);
                    let out = client
                        .tick(&server, view.frame, view.speed)
                        // mar-lint: allow(D004) — loss < 1 makes GaveUp unreachable (P ≈ loss^64); a hit means the protocol livelocked, which this harness exists to catch
                        .expect("resilient tick must terminate");
                    push_row(&mut rows, gp, k, &tick.to_string(), &out);
                }
                let last = tour.view(cfg.ticks - 1);
                // End-of-tour repair pass: drain degradation, refetch the
                // final frame at the full band for the final speed.
                let fin = client
                    .finish(&server, last.frame, last.speed)
                    // mar-lint: allow(D004) — same termination argument as tick
                    .expect("finish must terminate");
                push_row(&mut rows, gp, k, "finish", &fin);
                // The invariant's object: the resident set over the final
                // frame at the final (undegraded) band.
                let (want, _) = server.query_stateless(&last.frame, last.band);
                let sent = server
                    .sessions()
                    .session_sent_set(client.session())
                    // mar-lint: allow(D004) — the client's session is live by construction
                    .expect("chaos session is live");
                let (fingerprint, covered) = resident_fingerprint(&want, &sent);
                SessionOutcome {
                    rows,
                    metrics: *client.metrics(),
                    fingerprint,
                    covered,
                    session: client.session(),
                }
            },
        );

        let mut report = ChaosPointReport {
            loss: gp.loss,
            drop_every: gp.drop_every,
            ..ChaosPointReport::default()
        };
        for o in &outcomes {
            transcript.push_str(&o.rows);
            let (sum, m) = (&mut report.metrics, &o.metrics);
            sum.ticks += m.ticks;
            sum.contact_ticks += m.contact_ticks;
            sum.retries += m.retries;
            sum.drops += m.drops;
            sum.resumed += m.resumed;
            sum.reconnects += m.reconnects;
            sum.degraded_ticks += m.degraded_ticks;
            sum.max_level = sum.max_level.max(m.max_level);
            sum.bytes += m.bytes;
            sum.link_time_s += m.link_time_s;
            sum.ideal_time_s += m.ideal_time_s;
            report.fingerprints.push(o.fingerprint);
            invariant_ok &= o.covered;
        }
        // Against the fault-free reference: identical resident sets.
        if let Some(reference) = points.first() {
            let reference: &ChaosPointReport = reference;
            invariant_ok &= reference.fingerprints == report.fingerprints;
        }
        points.push(report);

        // Tear the grid point's sessions down; filter state must go too.
        for o in &outcomes {
            server
                .disconnect(o.session)
                // mar-lint: allow(D004) — each worker's final session is live until this teardown
                .expect("chaos session vanished");
        }
        assert_released(server.sessions());
    }

    ChaosReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        points,
        transcript,
        invariant_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> ChaosConfig {
        ChaosConfig {
            sessions: 3,
            ticks: 12,
            objects: 8,
            levels: 2,
            frame_frac: 0.15,
            jobs,
            grid: vec![
                GridPoint {
                    loss: 0.0,
                    drop_every: 0,
                },
                GridPoint {
                    loss: 0.2,
                    drop_every: 5,
                },
            ],
        }
    }

    #[test]
    fn chaos_invariant_holds_under_heavy_faults() {
        let r = run_chaos(&tiny(1));
        assert!(r.invariant_ok, "resident sets diverged from fault-free run");
        assert_eq!(r.points.len(), 2);
        let faulted = &r.points[1];
        assert!(faulted.metrics.retries > 0, "20% loss must retry");
        assert!(faulted.metrics.drops > 0, "drop_every=5 must drop");
        assert_eq!(
            faulted.metrics.drops, faulted.metrics.resumed,
            "drops heal via resume"
        );
        assert!(faulted.goodput() < 1.0, "faults must cost time");
        let clean = &r.points[0];
        assert_eq!(clean.metrics.retries, 0);
        assert_eq!(clean.metrics.drops, 0);
        assert!((clean.goodput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transcript_is_jobs_invariant() {
        let serial = run_chaos(&tiny(1));
        let parallel = run_chaos(&tiny(3));
        assert_eq!(serial.transcript, parallel.transcript);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a, b, "grid-point aggregates must be jobs-invariant");
        }
    }

    #[test]
    fn transcript_shape() {
        let r = run_chaos(&tiny(1));
        // Header + per grid point: sessions × (ticks + finish row).
        assert_eq!(r.transcript.lines().count(), 1 + 2 * 3 * (12 + 1));
        assert!(r.transcript.starts_with(
            "loss_pct,drop_every,session,tick,coeffs,new_objects,bytes,io,retries,drops,level,time_s\n"
        ));
    }

    #[test]
    fn chaos_invariant_holds_on_the_paged_backend() {
        let path = std::env::temp_dir().join(format!(
            "mar-bench-chaos-paged-{}.pages",
            std::process::id()
        ));
        let ram = run_chaos(&tiny(1));
        let paged = run_chaos_backend(
            &tiny(1),
            &ServeBackend::Paged {
                path: path.clone(),
                budget_bytes: 64 * 1024,
                policy: mar_core::CachePolicy::MotionAware,
            },
        );
        let _ = std::fs::remove_file(&path);
        assert!(paged.invariant_ok, "chaos invariant must hold out-of-core");
        assert_eq!(
            ram.transcript, paged.transcript,
            "the paged store must answer byte-identically to RAM"
        );
        for (a, b) in ram.points.iter().zip(&paged.points) {
            assert_eq!(a, b, "grid-point aggregates must be backend-invariant");
        }
    }

    #[test]
    #[should_panic(expected = "fault-free reference")]
    fn grid_must_lead_with_the_fault_free_point() {
        let mut cfg = tiny(1);
        cfg.grid[0].loss = 0.1;
        run_chaos(&cfg);
    }
}
