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
//! The link is one of the two fault sources of the grid driver in
//! `grid.rs` (DESIGN.md §11). Each session's fault stream is keyed by its
//! client index `k`, never by the server-minted session id, and link time
//! is simulated, never measured: the transcript, and the
//! `BENCH_chaos.json` snapshot rendered from it, are identical at any
//! `jobs` (pinned by `crates/bench/tests/chaos.rs`).

use crate::grid::{run_grid, FaultSource, GridReport};
use crate::report::Json;
use crate::serve::{serve_scene, ServeBackend, TourSession, View, TOUR_SEED};
use mar_core::{ResilienceMetrics, ResilientClient, Server, ServerCore};
use mar_link::{FaultConfig, FaultPlan, FaultyLink, LinkConfig};

/// Fault-plan seed shared by every grid point (streams differ by `k`).
const FAULT_SEED: u64 = 4242;

/// One fault-grid point; the default is the fault-free reference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
            grid: grid(&[0.01, 0.05, 0.20], 60),
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
            grid: grid(&[0.05, 0.20], 15),
        }
    }
}

/// The fault-free reference point, then one point per loss in `losses`
/// with a transport drop every `drop_every` link requests.
fn grid(losses: &[f64], drop_every: u64) -> Vec<GridPoint> {
    let faulted = losses.iter().map(|&loss| GridPoint { loss, drop_every });
    std::iter::once(GridPoint::default())
        .chain(faulted)
        .collect()
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
pub type ChaosReport = GridReport<ChaosPointReport>;

impl ChaosReport {
    /// The `BENCH_chaos.json` snapshot of this run.
    pub fn snapshot(&self, mode: &str) -> Json {
        self.render("mar-bench-chaos/2", mode, |p| {
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
        })
    }
}

/// The chaos fault: every client reaches the shared server over its own
/// seeded, lossy, dropping link.
struct LinkFaults(ServerCore);

impl FaultSource for LinkFaults {
    type Point = GridPoint;
    type Client = ResilientClient;
    type Report = ChaosPointReport;
    const HEADER: &'static str =
        "loss_pct,drop_every,session,tick,coeffs,new_objects,bytes,io,retries,drops,level,time_s\n";
    const TOUR_SEED: u64 = TOUR_SEED;

    fn is_reference(&self, gp: &GridPoint) -> bool {
        gp.loss == 0.0 && gp.drop_every == 0
    }

    fn key(&self, gp: &GridPoint) -> String {
        format!("{},{}", gp.loss * 100.0, gp.drop_every)
    }

    fn core(&self, _: &GridPoint) -> ServerCore {
        // One immutable core for every point: filter state lives in `Server`.
        self.0.clone()
    }

    fn connect(&self, server: &Server, gp: &GridPoint, k: usize) -> ResilientClient {
        let fault = if self.is_reference(gp) {
            FaultConfig::none(FAULT_SEED)
        } else {
            FaultConfig::hostile(FAULT_SEED, gp.loss, gp.drop_every)
        };
        let plan = FaultPlan::new(fault)
            // mar-lint: allow(D004) — the grid is validated static configuration
            .expect("chaos fault grid is valid");
        // The fault stream is keyed by the client index k, never by the
        // server-minted session id.
        let link = FaultyLink::new(LinkConfig::paper(), plan, k as u64)
            // mar-lint: allow(D004) — LinkConfig::paper() is valid by construction
            .expect("paper link config is valid");
        ResilientClient::connect(server, link)
    }

    fn session(&self, client: &ResilientClient) -> u64 {
        client.session()
    }

    fn step(
        &self,
        server: &Server,
        client: &mut ResilientClient,
        _: &mut TourSession,
        view: &View,
        tick: Option<usize>,
    ) -> String {
        // The resilient client plans for itself. Its finish pass is the
        // end-of-tour repair: drain degradation, refetch the final frame
        // at the full band for the final speed.
        let out = match tick {
            Some(_) => client.tick(server, view.frame, view.speed),
            None => client.finish(server, view.frame, view.speed),
        }
        // mar-lint: allow(D004) — loss < 1 makes GaveUp unreachable (P ≈ loss^64); a hit means the protocol livelocked, which this harness exists to catch
        .expect("resilient step must terminate");
        let r = &out.result;
        format!(
            "{},{},{},{},{},{},{},{}",
            r.coeffs,
            r.new_objects,
            r.bytes,
            r.io,
            out.retries,
            out.drops,
            out.degrade_level,
            out.tick_time_s,
        )
    }

    fn report(
        &self,
        gp: &GridPoint,
        clients: Vec<ResilientClient>,
        fingerprints: Vec<u64>,
    ) -> (ChaosPointReport, bool) {
        let mut metrics = ResilienceMetrics::default();
        for client in &clients {
            metrics.absorb(client.metrics());
        }
        let report = ChaosPointReport {
            loss: gp.loss,
            drop_every: gp.drop_every,
            metrics,
            fingerprints,
        };
        (report, true)
    }
}

/// Runs the chaos workload. The report is identical for any `cfg.jobs`.
///
/// # Panics
/// Panics when the workload itself is miswired (empty grid, faulted grid
/// point 0, zero ticks) — configuration bugs, not runtime faults.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    run_chaos_backend(cfg, &ServeBackend::Ram)
}

/// [`run_chaos`] against a chosen index backend. The report does not
/// depend on the backend: the paged store answers byte-identically to RAM
/// (DESIGN.md §15), so the invariant carries over out of core.
///
/// # Panics
/// Panics on a miswired workload (see [`run_chaos`]) or when the page
/// file backing a [`ServeBackend::Paged`] run cannot be written.
pub fn run_chaos_backend(cfg: &ChaosConfig, backend: &ServeBackend) -> ChaosReport {
    let scene = serve_scene(cfg.objects, cfg.levels);
    let core = backend
        .build_core(&scene, cfg.jobs)
        // mar-lint: allow(D004) — the harness cannot proceed without its store file; surface the I/O error
        .expect("chaos: cannot build the page-file backend");
    run_grid(
        &LinkFaults(core),
        &cfg.grid,
        scene.config.space,
        cfg.sessions,
        cfg.ticks,
        cfg.frame_frac,
        cfg.jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::tests::{check_jobs_invariant, check_shape};

    /// A seconds-scale grid: one clean point, one hostile one.
    fn tiny(jobs: usize) -> ChaosConfig {
        ChaosConfig {
            sessions: 3,
            ticks: 12,
            objects: 8,
            levels: 2,
            frame_frac: 0.15,
            jobs,
            grid: grid(&[0.2], 5),
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
    fn transcript_is_jobs_invariant() {
        check_jobs_invariant(|jobs| run_chaos(&tiny(jobs)));
    }

    #[test]
    fn transcript_shape() {
        check_shape(&run_chaos(&tiny(1)));
    }

    #[test]
    #[should_panic(expected = "fault-free reference")]
    fn grid_must_lead_with_the_fault_free_point() {
        let mut cfg = tiny(1);
        cfg.grid[0].loss = 0.1;
        run_chaos(&cfg);
    }
}
