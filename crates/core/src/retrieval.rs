//! Algorithm 1 — `ContinuousDataRetrieval` (§IV).
//!
//! ```text
//! O_t ← Q_t ∩ Q_{t−1}
//! N_t ← Q_t − Q_{t−1}
//! r_t ← MapSpeedToResolution(s_t)
//! if O_t ≠ ∅:
//!     if r_t > r_{t−1}:  R_t ← Retrieve({(O_t, r_{t−1}, r_t), (N_t, 0, r_t)})
//!     else:              R_t ← Retrieve({(N_t, 0, r_t)})
//! else:                  R_t ← Retrieve({(Q_t, 0, r_t)})
//! ```
//!
//! In wavelet-band terms, "resolution `r`" is the band `[w_min(r), 1.0]`,
//! and "`r_t > r_{t−1}`" (more detail) means `w_min(t) < w_min(t−1)`: the
//! overlap region needs exactly the band `[w_min(t), w_min(t−1))` on top of
//! what the client holds. The region difference `N_t` is decomposed into
//! disjoint rectangles by [`mar_geom::Rect::difference`] (the paper's
//! Figure 3 sub-query split), each retrieved at the full band for `r_t`.

use crate::metrics::RetrievalMetrics;
use crate::server::{QueryRegion, QueryResult, Server};
use crate::speedmap::{LinearSpeedMap, SpeedResolutionMap};
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;

/// The frame-to-frame planning state of Algorithm 1, factored out of the
/// client so both the plain [`IncrementalClient`] and the fault-tolerant
/// [`crate::resilient::ResilientClient`] share one implementation of the
/// overlap/difference decomposition.
#[derive(Debug, Default, Clone, Copy)]
pub struct FramePlanner {
    prev_frame: Option<Rect2>,
    prev_band: Option<ResolutionBand>,
}

impl FramePlanner {
    /// A planner with no history: the next plan queries the whole frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sub-queries Algorithm 1 issues for `frame` at `band`, given the
    /// last *committed* frame. Does not advance the state — a retried or
    /// failed query must not count as delivered.
    pub fn plan(&self, frame: &Rect2, band: ResolutionBand) -> Vec<QueryRegion> {
        // One overlap band plus at most four difference slabs.
        let mut regions = Vec::with_capacity(5);
        match self.prev_frame {
            Some(prev) if prev.intersects(frame) => {
                // mar-lint: allow(D004) — guarded by the `intersects` match arm
                let overlap = frame.intersection(&prev).expect("checked intersects");
                // mar-lint: allow(D004) — always set together with `prev_frame`
                let prev_band = self.prev_band.expect("band recorded with frame");
                if band.w_min < prev_band.w_min {
                    // Finer resolution needed: fetch the missing band over
                    // the overlap.
                    regions.push(QueryRegion {
                        region: overlap,
                        band: ResolutionBand::new(band.w_min, prev_band.w_min),
                    });
                }
                frame.for_each_difference(&prev, |part| {
                    regions.push(QueryRegion { region: part, band })
                });
            }
            _ => regions.push(QueryRegion {
                region: *frame,
                band,
            }),
        }
        regions
    }

    /// Records that `frame` was retrieved at `band`: the next plan is
    /// incremental against it.
    pub fn commit(&mut self, frame: Rect2, band: ResolutionBand) {
        self.prev_frame = Some(frame);
        self.prev_band = Some(band);
    }

    /// Forgets the history — used when the client had to reconnect with a
    /// fresh (empty-filter) session and must refetch from scratch.
    pub fn reset(&mut self) {
        self.prev_frame = None;
        self.prev_band = None;
    }

    /// The last committed frame, if any.
    pub fn prev_frame(&self) -> Option<Rect2> {
        self.prev_frame
    }
}

/// The incremental motion-aware client of §IV (no buffering — that layer
/// is `mar-buffer` / [`crate::system`]).
#[derive(Debug)]
pub struct IncrementalClient {
    session: u64,
    planner: FramePlanner,
    metrics: RetrievalMetrics,
}

impl IncrementalClient {
    /// Connects a new client to the server.
    pub fn connect(server: &Server) -> Self {
        Self {
            session: server.connect(),
            planner: FramePlanner::new(),
            metrics: RetrievalMetrics::default(),
        }
    }

    /// The sub-queries Algorithm 1 would issue for this frame, without
    /// executing them (used by tests and by the buffered system).
    pub fn plan(&self, frame: &Rect2, speed: f64) -> Vec<QueryRegion> {
        self.planner.plan(frame, LinearSpeedMap.band_for(speed))
    }

    /// Executes one query frame; returns the server's (session-filtered)
    /// result.
    pub fn tick(&mut self, server: &Server, frame: Rect2, speed: f64) -> QueryResult {
        let band = LinearSpeedMap.band_for(speed);
        let regions = self.planner.plan(&frame, band);
        let result = server
            .query(self.session, &regions)
            // mar-lint: allow(D004) — the session was minted by `connect` above and
            // this client never disconnects it; an unknown id here is a bug
            .expect("client session vanished");
        self.planner.commit(frame, band);
        self.metrics.ticks += 1;
        self.metrics.bytes += result.bytes;
        self.metrics.coeffs += result.coeffs;
        self.metrics.io += result.io;
        self.metrics.bytes_per_tick.push(result.bytes);
        result
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &RetrievalMetrics {
        &self.metrics
    }

    /// The session id on the server.
    pub fn session(&self) -> u64 {
        self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::Point2;
    use mar_workload::{Scene, SceneConfig};

    fn server() -> Server {
        let mut cfg = SceneConfig::paper(8, 33);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        Server::new(&Scene::generate(cfg))
    }

    fn frame(x: f64, y: f64) -> Rect2 {
        Rect2::new(Point2::new([x, y]), Point2::new([x + 200.0, y + 200.0]))
    }

    #[test]
    fn first_tick_queries_whole_frame() {
        let srv = server();
        let client = IncrementalClient::connect(&srv);
        let plan = client.plan(&frame(100.0, 100.0), 0.5);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].region, frame(100.0, 100.0));
        assert_eq!(plan[0].band.w_min, 0.5);
    }

    #[test]
    fn overlapping_frames_query_only_the_difference() {
        let srv = server();
        let mut client = IncrementalClient::connect(&srv);
        client.tick(&srv, frame(100.0, 100.0), 0.5);
        // Same speed, slight move: plan must not include the overlap.
        let plan = client.plan(&frame(150.0, 100.0), 0.5);
        assert_eq!(plan.len(), 1, "single new slab for a pure x move");
        let part = plan[0].region;
        assert!(
            part.lo[0] >= 300.0 - 1e-9,
            "part {part:?} must start at old hi"
        );
    }

    #[test]
    fn speeding_up_fetches_nothing_for_overlap() {
        let srv = server();
        let mut client = IncrementalClient::connect(&srv);
        client.tick(&srv, frame(100.0, 100.0), 0.2);
        let plan = client.plan(&frame(120.0, 120.0), 0.8);
        // Coarser need (w_min 0.8 > 0.2): overlap already satisfied.
        assert!(plan.iter().all(|q| q.band.w_min == 0.8));
        assert_eq!(plan.len(), 2, "L-shaped difference = two slabs");
    }

    #[test]
    fn slowing_down_fetches_band_delta_over_overlap() {
        let srv = server();
        let mut client = IncrementalClient::connect(&srv);
        client.tick(&srv, frame(100.0, 100.0), 0.8);
        let plan = client.plan(&frame(100.0, 100.0), 0.2);
        // Identical frame, finer need: exactly one overlap band query.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].band.w_min, 0.2);
        assert_eq!(plan[0].band.w_max, 0.8);
    }

    #[test]
    fn disjoint_jump_requeries_everything() {
        let srv = server();
        let mut client = IncrementalClient::connect(&srv);
        client.tick(&srv, frame(0.0, 0.0), 0.3);
        let plan = client.plan(&frame(700.0, 700.0), 0.3);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].region, frame(700.0, 700.0));
    }

    #[test]
    fn stationary_client_retrieves_once() {
        // Anchor the frame on a real object so the first tick has data to
        // fetch no matter where the seeded placement put things.
        let mut cfg = SceneConfig::paper(8, 33);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        let scene = Scene::generate(cfg);
        let c = scene.objects[0].footprint().center();
        let srv = Server::new(&scene);
        let mut client = IncrementalClient::connect(&srv);
        let f = frame(c[0] - 100.0, c[1] - 100.0);
        let r1 = client.tick(&srv, f, 0.0);
        let r2 = client.tick(&srv, f, 0.0);
        let r3 = client.tick(&srv, f, 0.0);
        assert!(r1.bytes > 0.0);
        assert_eq!(r2.bytes + r3.bytes, 0.0, "no motion, no new data");
    }

    #[test]
    fn faster_clients_retrieve_fewer_bytes_over_a_sweep() {
        // Sweep the same path at two speeds; the fast client's per-frame
        // resolution band is narrower so its total bytes are smaller, even
        // though it covers the same ground.
        let total = |speed: f64| {
            let srv = server();
            let mut c = IncrementalClient::connect(&srv);
            for i in 0..20 {
                c.tick(&srv, frame(40.0 * i as f64, 300.0), speed);
            }
            c.metrics().bytes
        };
        let slow = total(0.01);
        let fast = total(0.9);
        assert!(
            fast < slow * 0.6,
            "fast sweep {fast} must be well below slow sweep {slow}"
        );
    }

    #[test]
    fn incremental_equals_fresh_when_revisiting_is_free() {
        // Running a path twice costs the same as once (server-side dedup).
        let srv = server();
        let mut c = IncrementalClient::connect(&srv);
        for _round in 0..2 {
            for i in 0..10 {
                c.tick(&srv, frame(50.0 * i as f64, 400.0), 0.3);
            }
        }
        let bytes_two_rounds = c.metrics().bytes;
        let srv2 = server();
        let mut c2 = IncrementalClient::connect(&srv2);
        for i in 0..10 {
            c2.tick(&srv2, frame(50.0 * i as f64, 400.0), 0.3);
        }
        assert!((bytes_two_rounds - c2.metrics().bytes).abs() < 1e-6);
    }
}
