//! The fault-tolerant retrieval protocol: Algorithm 1 hardened for a
//! hostile wireless link.
//!
//! The plain [`IncrementalClient`](crate::IncrementalClient) assumes every
//! request succeeds. Over a [`mar_link::FaultyLink`] three things go
//! wrong, and this module answers each (DESIGN.md §11):
//!
//! * **Request loss** → *retry with capped exponential backoff*. Losses
//!   happen before the server processes the request, so a retry is
//!   exactly-once safe; each attempt consumes a fresh fault-schedule slot.
//! * **Session drop** → *resume, don't restart*. The transport dies but
//!   the server-side session (and its sent-filter) does not:
//!   [`Sessions::resume`](crate::Sessions::resume) reattaches by token and nothing already delivered
//!   is re-sent. Only if the server no longer knows the session — the
//!   token fails to resume, or a query comes back `UnknownSession` — does
//!   the client [`Server::connect`] fresh and reset its planner
//!   (everything must be refetched — the new session's filter is empty).
//! * **Sustained congestion** → *graceful degradation*. The client tracks
//!   the ratio of ideal (Eq. 1 fault-free) to actual time over a sliding
//!   window; when it falls below `ENTER_RATIO` the speed→resolution map
//!   shifts one band coarser ([`ResolutionBand::coarsened`]) — trading
//!   fidelity for liveness exactly as §IV's multiresolution design
//!   intends — and recovers one level at a time once the ratio clears
//!   `EXIT_RATIO` (hysteresis, so a single good tick does not flap the
//!   resolution back).
//!
//! All time is simulated ([`SimClock`]); the whole protocol is
//! deterministic for a fixed fault seed.

use crate::retrieval::FramePlanner;
use crate::server::{QueryRegion, QueryResult, Server};
use crate::speedmap::{LinearSpeedMap, SpeedResolutionMap};
use mar_geom::Rect2;
use mar_link::{splitmix64, u01, FaultyLink, LinkError, SimClock};
use mar_mesh::ResolutionBand;
use std::collections::VecDeque;

/// First backoff after a lost request, seconds.
const BASE_BACKOFF_S: f64 = 0.25;
/// Backoff ceiling, seconds.
const MAX_BACKOFF_S: f64 = 4.0;
/// Attempts per tick before the client gives up (anti-livelock bound; at
/// ≤ 20 % loss it is effectively unreachable).
const MAX_ATTEMPTS: u32 = 64;
/// Sliding-window length (contact ticks) for the goodput estimate.
const WINDOW: usize = 8;
/// Degrade one band when `ideal/actual` falls below this.
const ENTER_RATIO: f64 = 0.5;
/// Recover one band when `ideal/actual` rises above this.
const EXIT_RATIO: f64 = 0.8;
/// Maximum degradation levels.
const MAX_DEGRADE: u32 = 4;

/// The backoff before retry number `retry` (0-based), capped.
fn backoff_s(retry: u32) -> f64 {
    let exp = retry.min(16); // 2^16 × base already exceeds any sane cap
    (BASE_BACKOFF_S * (1u64 << exp) as f64).min(MAX_BACKOFF_S)
}

/// The backoff before retry `retry`, scaled by a deterministic jitter
/// factor in `[0.5, 1.5)` drawn from [`splitmix64`] over the client's
/// fault-stream key and its cumulative retry count. Two clients retrying
/// after the same outage back off at *decorrelated* times — no
/// synchronized retry storm can hammer a recovering shard — yet each
/// client's sequence is byte-identical across runs and thread counts (the
/// jitter is a pure function, never a wall clock). The result stays
/// capped at `MAX_BACKOFF_S` like the base schedule.
fn jittered_backoff_s(retry: u32, stream: u64, seq: u64) -> f64 {
    let h = splitmix64(stream ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let factor = 0.5 + u01(h);
    (backoff_s(retry) * factor).min(MAX_BACKOFF_S)
}

/// Why a resilient tick could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// 64 consecutive failures — the link is effectively down.
    GaveUp {
        /// Attempts spent before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::GaveUp { attempts } => write!(f, "gave up after {attempts} attempts"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// What one resilient tick did, beyond the query result itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientTick {
    /// The (session-filtered) payload the server delivered.
    pub result: QueryResult,
    /// Lost requests retried this tick.
    pub retries: u32,
    /// Transport drops survived this tick.
    pub drops: u32,
    /// Whether any drop was healed by `Sessions::resume` (filter retained).
    pub resumed: bool,
    /// Degradation level in force when the query was issued.
    pub degrade_level: u32,
    /// The `w_min` actually requested (after degradation).
    pub band_w_min: f64,
    /// Simulated seconds this tick spent on the link (incl. waits).
    pub tick_time_s: f64,
    /// What a fault-free link would have spent on the same payload.
    pub ideal_time_s: f64,
}

/// Cumulative protocol metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceMetrics {
    /// Ticks executed.
    pub ticks: u64,
    /// Ticks that contacted the server at all.
    pub contact_ticks: u64,
    /// Total lost-request retries.
    pub retries: u64,
    /// Total transport drops survived.
    pub drops: u64,
    /// Drops healed by session resumption (vs fresh reconnects).
    pub resumed: u64,
    /// Fresh reconnects (the server forgot the session; filter lost).
    pub reconnects: u64,
    /// Ticks that ran at a degraded resolution.
    pub degraded_ticks: u64,
    /// Highest degradation level reached.
    pub max_level: u32,
    /// Payload bytes delivered.
    pub bytes: f64,
    /// Simulated link time spent, seconds.
    pub link_time_s: f64,
    /// Fault-free (Eq. 1) link time for the same payloads, seconds.
    pub ideal_time_s: f64,
}

impl ResilienceMetrics {
    /// Adds another client's metrics: counts, bytes and times sum,
    /// `max_level` keeps the higher. Summing clients in a fixed order
    /// gives a fixed total.
    pub fn absorb(&mut self, other: &Self) {
        self.ticks += other.ticks;
        self.contact_ticks += other.contact_ticks;
        self.retries += other.retries;
        self.drops += other.drops;
        self.resumed += other.resumed;
        self.reconnects += other.reconnects;
        self.degraded_ticks += other.degraded_ticks;
        self.max_level = self.max_level.max(other.max_level);
        self.bytes += other.bytes;
        self.link_time_s += other.link_time_s;
        self.ideal_time_s += other.ideal_time_s;
    }
}

/// Algorithm 1 over a faulty link: retry, resume, degrade.
#[derive(Debug)]
pub struct ResilientClient {
    session: u64,
    token: u64,
    planner: FramePlanner,
    link: FaultyLink,
    clock: SimClock,
    level: u32,
    window: VecDeque<(f64, f64)>, // (ideal_s, actual_s) per contact tick
    metrics: ResilienceMetrics,
}

impl ResilientClient {
    /// Connects a new resilient client: a server session plus its own
    /// faulty transport channel.
    pub fn connect(server: &Server, link: FaultyLink) -> Self {
        let (session, token) = server.connect_with_token();
        Self {
            session,
            token,
            planner: FramePlanner::new(),
            link,
            clock: SimClock::new(),
            level: 0,
            window: VecDeque::new(),
            metrics: ResilienceMetrics::default(),
        }
    }

    /// The current server session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The unguessable resume token for the current session (what the
    /// client presents to [`Sessions::resume`](crate::Sessions::resume) after a transport drop).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The current degradation level (0 = full fidelity for the speed).
    pub fn degrade_level(&self) -> u32 {
        self.level
    }

    /// The simulated clock (advanced by every wait, retry and transfer).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The transport channel's fault statistics.
    pub fn link(&self) -> &FaultyLink {
        &self.link
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &ResilienceMetrics {
        &self.metrics
    }

    /// Executes one query frame through the faulty link, retrying lost
    /// requests, resuming dropped sessions, and updating the degradation
    /// state from the measured goodput.
    pub fn tick(
        &mut self,
        server: &Server,
        frame: Rect2,
        speed: f64,
    ) -> Result<ResilientTick, ProtocolError> {
        let band = LinearSpeedMap.band_for(speed).coarsened(self.level);
        let outcome = self.execute(server, frame, band, speed)?;
        self.metrics.ticks += 1;
        if outcome.ideal_time_s > 0.0 {
            self.metrics.contact_ticks += 1;
            self.window
                .push_back((outcome.ideal_time_s, outcome.tick_time_s));
            while self.window.len() > WINDOW {
                self.window.pop_front();
            }
            let ideal: f64 = self.window.iter().map(|w| w.0).sum();
            let actual: f64 = self.window.iter().map(|w| w.1).sum();
            let ratio = if actual > 0.0 { ideal / actual } else { 1.0 };
            if ratio < ENTER_RATIO && self.level < MAX_DEGRADE {
                self.level += 1;
            } else if ratio > EXIT_RATIO && self.level > 0 {
                self.level -= 1;
            }
        }
        self.metrics.max_level = self.metrics.max_level.max(self.level);
        if outcome.degrade_level > 0 {
            self.metrics.degraded_ticks += 1;
        }
        Ok(outcome)
    }

    /// Drains the degradation state and retrieves `frame` at the full
    /// (undegraded) band for `speed` — the end-of-tour repair pass that
    /// restores full fidelity once the client comes to rest. After it
    /// returns, the session's resident set covers everything a fault-free
    /// client would hold for this frame at this band.
    pub fn finish(
        &mut self,
        server: &Server,
        frame: Rect2,
        speed: f64,
    ) -> Result<ResilientTick, ProtocolError> {
        self.level = 0;
        self.window.clear();
        self.tick(server, frame, speed)
    }

    /// The retry/resume loop for one planned query batch.
    fn execute(
        &mut self,
        server: &Server,
        frame: Rect2,
        band: ResolutionBand,
        speed: f64,
    ) -> Result<ResilientTick, ProtocolError> {
        let mut regions = self.planner.plan(&frame, band);
        let mut outcome = ResilientTick {
            result: QueryResult::default(),
            retries: 0,
            drops: 0,
            resumed: false,
            degrade_level: self.level,
            band_w_min: band.w_min,
            tick_time_s: 0.0,
            ideal_time_s: 0.0,
        };
        if regions.is_empty() {
            // Fully covered by the previous frame at this band: no server
            // contact, no fault exposure.
            self.planner.commit(frame, band);
            return Ok(outcome);
        }
        let t0 = self.clock.now();
        let mut attempts = 0u32;
        let result = loop {
            if attempts >= MAX_ATTEMPTS {
                return Err(ProtocolError::GaveUp { attempts });
            }
            attempts += 1;
            match self.link.begin() {
                Ok(grant) => {
                    // A refused request makes the round trip too; then the
                    // client starts over, as after a failed resume.
                    let answer = server.query(self.session, &regions);
                    let bytes = answer.as_ref().map_or(0.0, |r| r.bytes);
                    self.clock
                        .advance(grant.transfer_time(self.link.config(), bytes, speed));
                    match answer {
                        Ok(r) => break r,
                        Err(_) => regions = self.reconnect(server, frame, band),
                    }
                }
                Err(LinkError::Lost { waited_s }) => {
                    self.clock.advance(waited_s);
                    // Seeded jitter keyed by (fault stream, cumulative
                    // retry number): decorrelated across clients, byte-
                    // identical across runs and thread counts.
                    self.clock.advance(jittered_backoff_s(
                        outcome.retries,
                        self.link.stream(),
                        self.metrics.retries,
                    ));
                    outcome.retries += 1;
                    self.metrics.retries += 1;
                }
                Err(LinkError::SessionDropped) => {
                    outcome.drops += 1;
                    self.metrics.drops += 1;
                    self.clock.advance(self.link.reconnect_time());
                    match server.sessions().resume(self.token) {
                        Ok(_) => {
                            // Filter retained server-side: nothing already
                            // delivered will be re-sent.
                            outcome.resumed = true;
                            self.metrics.resumed += 1;
                        }
                        Err(_) => regions = self.reconnect(server, frame, band),
                    }
                }
            }
        };
        outcome.result = result;
        outcome.tick_time_s = self.clock.now() - t0;
        outcome.ideal_time_s = self.link.config().request_time(result.bytes, speed);
        self.planner.commit(frame, band);
        self.metrics.bytes += result.bytes;
        self.metrics.link_time_s += outcome.tick_time_s;
        self.metrics.ideal_time_s += outcome.ideal_time_s;
        Ok(outcome)
    }

    /// The server forgot this client's session: start over with an empty
    /// filter, a fresh token and a full refetch — the regions returned.
    fn reconnect(
        &mut self,
        server: &Server,
        frame: Rect2,
        band: ResolutionBand,
    ) -> Vec<QueryRegion> {
        let (session, token) = server.connect_with_token();
        self.session = session;
        self.token = token;
        self.planner.reset();
        self.metrics.reconnects += 1;
        self.planner.plan(&frame, band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::Point2;
    use mar_link::{FaultConfig, FaultPlan, LinkConfig};
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

    fn client(server: &Server, fault: FaultConfig, stream: u64) -> ResilientClient {
        let link =
            FaultyLink::new(LinkConfig::paper(), FaultPlan::new(fault).unwrap(), stream).unwrap();
        ResilientClient::connect(server, link)
    }

    /// Drives a diagonal sweep and returns the per-tick outcomes.
    fn sweep(c: &mut ResilientClient, srv: &Server, n: usize) -> Vec<ResilientTick> {
        (0..n)
            .map(|i| {
                c.tick(srv, frame(30.0 * i as f64, 25.0 * i as f64), 0.4)
                    .expect("tick must terminate")
            })
            .collect()
    }

    #[test]
    fn fault_free_resilient_equals_plain_incremental() {
        let srv = server();
        let mut res = client(&srv, FaultConfig::none(1), 0);
        let outs = sweep(&mut res, &srv, 12);
        let srv2 = server();
        let mut plain = crate::IncrementalClient::connect(&srv2);
        for (i, out) in outs.iter().enumerate() {
            let want = plain.tick(&srv2, frame(30.0 * i as f64, 25.0 * i as f64), 0.4);
            assert_eq!(out.result, want, "tick {i}");
            assert_eq!(out.retries, 0);
            assert_eq!(out.drops, 0);
            assert_eq!(out.degrade_level, 0);
            assert!((out.tick_time_s - out.ideal_time_s).abs() < 1e-12);
        }
    }

    #[test]
    fn lossy_link_retries_and_still_delivers_everything() {
        let srv = server();
        let mut res = client(&srv, FaultConfig::hostile(7, 0.2, 0), 3);
        let outs = sweep(&mut res, &srv, 25);
        let m = *res.metrics();
        assert!(m.retries > 0, "20% loss over 25 ticks must retry");
        assert!(m.link_time_s > m.ideal_time_s, "faults cost time");
        // Same coverage as a fault-free client: the sent sets agree.
        let srv2 = server();
        let mut free = client(&srv2, FaultConfig::none(1), 3);
        sweep(&mut free, &srv2, 25);
        assert_eq!(
            srv.sessions().session_sent_set(res.session()).unwrap(),
            srv2.sessions().session_sent_set(free.session()).unwrap(),
            "request loss must never change what gets delivered"
        );
        let _ = outs;
    }

    #[test]
    fn drops_resume_without_resending() {
        let srv = server();
        let mut res = client(&srv, FaultConfig::hostile(7, 0.0, 4), 0);
        let outs = sweep(&mut res, &srv, 30);
        let m = *res.metrics();
        assert!(m.drops > 0, "drop_every=4 must drop");
        assert_eq!(m.drops, m.resumed, "every drop heals via resume");
        assert_eq!(m.reconnects, 0, "the server never forgets a live session");
        assert!(outs.iter().any(|o| o.resumed));
        // Coverage unchanged vs fault-free.
        let srv2 = server();
        let mut free = client(&srv2, FaultConfig::none(1), 0);
        sweep(&mut free, &srv2, 30);
        assert_eq!(
            srv.sessions().session_sent_set(res.session()).unwrap(),
            srv2.sessions().session_sent_set(free.session()).unwrap()
        );
    }

    #[test]
    fn resume_failure_falls_back_to_fresh_connect() {
        let srv = server();
        let mut res = client(&srv, FaultConfig::hostile(7, 0.0, 3), 0);
        res.tick(&srv, frame(100.0, 100.0), 0.3).unwrap();
        // Sabotage: disconnect the session behind the client's back. Every
        // later tick succeeds, and the first one — whether its request is
        // refused as `UnknownSession` or a scheduled drop's resume fails —
        // reconnects fresh.
        srv.disconnect(res.session()).unwrap();
        let before = res.session();
        for i in 1..=6 {
            let out = res.tick(&srv, frame(100.0 + 40.0 * i as f64, 100.0), 0.3);
            assert!(out.is_ok(), "tick {i} after the sabotage: {out:?}");
            assert_eq!(res.metrics().reconnects, 1, "tick {i}");
        }
        assert_ne!(res.session(), before, "fresh connect mints a new session");
        assert!(srv.sessions().session_token(res.session()).is_ok());
        // The sweep frames may land in empty scene regions; pull the whole
        // scene to show the fresh session really refetches from scratch.
        let world = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        res.finish(&srv, world, 0.0).expect("finish terminates");
        assert!(
            srv.sessions().session_sent(res.session()) > 0,
            "refetched after reset"
        );
    }

    #[test]
    fn congestion_degrades_then_recovers() {
        let srv = server();
        // Heavy loss so the early window ratio collapses.
        let mut res = client(&srv, FaultConfig::hostile(11, 0.45, 0), 1);
        let mut saw_degraded = false;
        for i in 0..40 {
            let out = res
                .tick(&srv, frame(20.0 * i as f64, 15.0 * i as f64), 0.3)
                .expect("terminates");
            if out.degrade_level > 0 {
                saw_degraded = true;
                assert!(
                    out.band_w_min > 0.3 - 1e-12,
                    "degraded band must be coarser than the speed band"
                );
            }
        }
        assert!(saw_degraded, "45% loss must trigger degradation");
        assert!(res.metrics().degraded_ticks > 0);
        // A long calm stretch recovers to full fidelity.
        let mut calm = client(&srv, FaultConfig::none(2), 9);
        calm.level = res.level.max(1);
        for i in 0..30 {
            calm.tick(&srv, frame(10.0 * i as f64, 500.0), 0.3).unwrap();
        }
        assert_eq!(calm.degrade_level(), 0, "clean link must recover");
    }

    #[test]
    fn finish_restores_full_fidelity() {
        let srv = server();
        let mut res = client(&srv, FaultConfig::hostile(5, 0.4, 7), 2);
        for i in 0..20 {
            res.tick(&srv, frame(25.0 * i as f64, 20.0 * i as f64), 0.5)
                .expect("terminates");
        }
        let last = frame(25.0 * 19.0, 20.0 * 19.0);
        let out = res.finish(&srv, last, 0.5).expect("finish terminates");
        assert_eq!(out.degrade_level, 0, "finish drains degradation");
        // Every coefficient of the final frame at the undegraded band is
        // resident.
        let band = LinearSpeedMap.band_for(0.5);
        let (want, _) = srv.index().query(&last, band);
        let sent = srv.sessions().session_sent_set(res.session()).unwrap();
        for id in want {
            assert!(
                sent.binary_search(&id).is_ok(),
                "coefficient {id:?} missing after finish"
            );
        }
    }

    #[test]
    fn a_dead_link_gives_up_and_leaves_the_session_resumable() {
        // Seed 0, stream 1 at 99 % loss: the schedule loses the first
        // MAX_ATTEMPTS requests (checked first), so the tick must give up.
        let fault = FaultConfig::hostile(0, 0.99, 0);
        let plan = FaultPlan::new(fault).unwrap();
        assert!((0..u64::from(MAX_ATTEMPTS)).all(|i| plan.decide(1, i).lost));
        let srv = server();
        let mut res = client(&srv, fault, 1);
        // Something already delivered, so "unchanged" is not vacuous.
        let world = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        let held = QueryRegion {
            region: world,
            band: ResolutionBand::new(0.5, 1.0),
        };
        srv.query(res.session(), &[held]).unwrap();
        let before = srv.sessions().session_sent_set(res.session()).unwrap();
        assert!(!before.is_empty());
        let out = res.tick(&srv, world, 0.0);
        assert_eq!(out, Err(ProtocolError::GaveUp { attempts: 64 }));
        assert_eq!(res.metrics().retries, 64);
        // A lost request never reached the server.
        assert_eq!(
            srv.sessions().session_sent_set(res.session()).unwrap(),
            before
        );
        let info = srv.sessions().resume(res.token()).unwrap();
        assert_eq!(info.session, res.session());
        assert_eq!(info.retained_coeffs, before.len());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        assert_eq!(backoff_s(0), 0.25);
        assert_eq!(backoff_s(1), 0.5);
        assert_eq!(backoff_s(2), 1.0);
        assert_eq!(backoff_s(10), MAX_BACKOFF_S);
        assert_eq!(backoff_s(60), MAX_BACKOFF_S, "shift must not overflow");
    }

    #[test]
    fn jittered_backoff_is_bounded_deterministic_and_decorrelated() {
        for stream in [0u64, 1, 42] {
            for seq in 0..200u64 {
                for retry in [0u32, 1, 2, 5] {
                    let j = jittered_backoff_s(retry, stream, seq);
                    let base = backoff_s(retry);
                    assert!(
                        j >= base * 0.5 - 1e-12 && j <= (base * 1.5).min(MAX_BACKOFF_S) + 1e-12,
                        "jitter out of [0.5, 1.5)·base (capped): {j} vs base {base}"
                    );
                    // Pure function: same inputs, same backoff, any run.
                    assert_eq!(j, jittered_backoff_s(retry, stream, seq));
                }
            }
        }
        // Two streams retrying in lockstep must not back off in lockstep:
        // that synchrony is exactly the retry storm the jitter breaks.
        let same = (0..64u64)
            .filter(|&s| jittered_backoff_s(1, 7, s) == jittered_backoff_s(1, 8, s))
            .count();
        assert!(same < 4, "streams 7 and 8 collide on {same}/64 backoffs");
    }

    #[test]
    fn lossy_runs_are_reproducible_with_jitter() {
        // The full protocol over a 20 %-loss link: two identical runs must
        // agree on every simulated timestamp (the jitter is seeded, not
        // sampled), and the delivered data is unchanged by jitter.
        let run = || {
            let srv = server();
            let mut c = client(&srv, FaultConfig::hostile(7, 0.2, 6), 3);
            let outs = sweep(&mut c, &srv, 20);
            let times: Vec<u64> = outs.iter().map(|o| o.tick_time_s.to_bits()).collect();
            (times, c.metrics().retries, c.clock().now().to_bits())
        };
        let (ta, ra, ca) = run();
        let (tb, rb, cb) = run();
        assert!(ra > 0, "20% loss over 20 ticks must retry");
        assert_eq!(ra, rb);
        assert_eq!(ta, tb, "per-tick times must be byte-identical across runs");
        assert_eq!(ca, cb, "final clocks must agree to the bit");
    }

    #[test]
    fn degraded_band_shifts_and_saturates() {
        let b = ResolutionBand::new(0.2, 1.0);
        assert_eq!(b.coarsened(0), b);
        assert!((b.coarsened(1).w_min - 0.35).abs() < 1e-12);
        assert!((b.coarsened(MAX_DEGRADE).w_min - 0.8).abs() < 1e-12);
        let dmax = b.coarsened(100);
        assert_eq!(dmax.w_min, 1.0, "degradation saturates at the band top");
    }
}
