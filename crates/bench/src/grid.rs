//! The fault-grid driver behind `chaos` and `fleet`.
//!
//! Both harnesses check one property of the §IV filter and Algorithm 1: a
//! client that fetches only frame and band differences ends up holding
//! exactly the coefficients of its final frame at its final band, whatever
//! faults hit it on the way. A `FaultSource` says what the fault is;
//! `run_grid` runs each grid point tick-major on a fresh [`Server`] and
//! checks the property against grid point 0, the fault-free reference.
//! Sessions connect in client-index order and their rows merge in that
//! order, so the transcript is byte-identical at any `jobs` (DESIGN.md §10).

use crate::engine::Engine;
use crate::report::Json;
use crate::serve::{assert_released, fnv1a64, snapshot, ServeConfig, TourSession, View};
use mar_core::{CoeffRef, Server, ServerCore};
use mar_geom::Rect2;
use std::sync::Mutex;

/// One kind of fault, as [`run_grid`] injects it.
pub(crate) trait FaultSource: Sync {
    /// One configured grid point.
    type Point: Sync;
    /// One session's client state.
    type Client: Send;
    /// What one grid point measured.
    type Report;
    /// The transcript header; every row starts `{key},{k},{tick},`.
    const HEADER: &'static str;
    /// Base tour seed: session `k` tours with seed `TOUR_SEED + k`.
    const TOUR_SEED: u64;

    /// Whether `point` injects no fault.
    fn is_reference(&self, point: &Self::Point) -> bool;
    /// The leading columns of `point`'s transcript rows.
    fn key(&self, point: &Self::Point) -> String;
    /// The immutable core under `point`'s fresh server.
    fn core(&self, point: &Self::Point) -> ServerCore;
    /// Sets what every session shares before tick `tick` (`None`: before
    /// the finish pass).
    fn before(&self, _server: &Server, _point: &Self::Point, _tick: Option<usize>) {}
    /// Connects client `k`.
    fn connect(&self, server: &Server, point: &Self::Point, k: usize) -> Self::Client;
    /// The server session `client` holds now.
    fn session(&self, client: &Self::Client) -> u64;
    /// Steps `client` through `view` at `tick` (`None`: the end-of-tour
    /// finish pass over the final view); returns the rest of its row.
    fn step(
        &self,
        server: &Server,
        client: &mut Self::Client,
        tour: &mut TourSession,
        view: &View,
        tick: Option<usize>,
    ) -> String;
    /// `point`'s report from its clients and their fingerprints, both in
    /// `k` order, and whether the source's own invariant held there.
    fn report(
        &self,
        point: &Self::Point,
        clients: Vec<Self::Client>,
        fingerprints: Vec<u64>,
    ) -> (Self::Report, bool);
}

/// Runs `source` over `grid`: per point, `cfg.sessions` tours of
/// `cfg.ticks` ticks over `space`, the extent of the scene the caller
/// built from `cfg`, with frames `cfg.frame_frac` of it, on `cfg.jobs`
/// workers.
///
/// # Panics
/// Panics when grid point 0 injects a fault or `cfg.ticks` is zero —
/// miswired configuration, not runtime faults.
pub(crate) fn run_grid<S: FaultSource>(
    source: &S,
    grid: &[S::Point],
    space: Rect2,
    cfg: &ServeConfig,
) -> GridReport<S::Report> {
    assert!(
        grid.first().is_some_and(|p| source.is_reference(p)),
        "grid point 0 must be the fault-free reference"
    );
    let engine = Engine::new(cfg.jobs);
    let mut run = GridReport {
        sessions: cfg.sessions,
        ticks: cfg.ticks,
        shards: None,
        points: Vec::with_capacity(grid.len()),
        transcript: String::from(S::HEADER),
        invariant_ok: true,
    };
    let mut reference = None;
    for point in grid {
        // A fresh server per point: no filter state leaks between points.
        let server = Server::from_core(source.core(point));
        let key = source.key(point);
        let slots: Vec<_> = (0..cfg.sessions)
            .map(|k| {
                let tour = TourSession::new(space, cfg.ticks, S::TOUR_SEED, cfg.frame_frac, k);
                Mutex::new((source.connect(&server, point, k), tour, String::new()))
            })
            .collect();
        for tick in (0..cfg.ticks).map(Some).chain([None]) {
            source.before(&server, point, tick);
            engine.run(
                (0..cfg.sessions).collect(),
                || (),
                |_, &k| {
                    // mar-lint: allow(D004) — poisoning implies a sibling worker panicked; propagate
                    let mut slot = slots[k].lock().expect("grid session poisoned");
                    let (client, tour, rows) = &mut *slot;
                    let view = tour.view(tick.unwrap_or(cfg.ticks - 1));
                    let cols = source.step(&server, client, tour, &view, tick);
                    let tick = tick.map_or_else(|| "finish".to_string(), |t| t.to_string());
                    rows.push_str(&format!("{key},{k},{tick},{cols}\n"));
                },
            );
        }
        let (mut clients, mut fingerprints) = (Vec::new(), Vec::new());
        for slot in slots {
            // mar-lint: allow(D004) — poisoning implies a worker panicked; propagate
            let (client, tour, rows) = slot.into_inner().expect("grid session poisoned");
            run.transcript.push_str(&rows);
            // The invariant's object: the resident set over the final frame
            // at the final band.
            let last = tour.view(cfg.ticks - 1);
            let (want, _) = server.index().query(&last.frame, last.band);
            let session = source.session(&client);
            let sent = server
                .sessions()
                .session_sent_set(session)
                // mar-lint: allow(D004) — every session is live until this teardown
                .expect("grid session is live");
            let (fingerprint, covered) = resident_fingerprint(want, &sent);
            run.invariant_ok &= covered;
            fingerprints.push(fingerprint);
            // mar-lint: allow(D004) — every session is live until this teardown
            server.disconnect(session).expect("grid session is live");
            clients.push(client);
        }
        assert_released(server.sessions());
        run.invariant_ok &= *reference.get_or_insert_with(|| fingerprints.clone()) == fingerprints;
        let (report, held) = source.report(point, clients, fingerprints);
        run.invariant_ok &= held;
        run.points.push(report);
    }
    run
}

/// The fingerprint of the part of `want` — the stateless answer over a
/// session's final frame at its final band, in any order and with
/// repeats — that the session holds (`sent`, sorted), and whether it holds
/// all of it. Equal fingerprints with full cover mean a faulted session
/// ended up with exactly the reference run's resident set.
fn resident_fingerprint(mut want: Vec<CoeffRef>, sent: &[CoeffRef]) -> (u64, bool) {
    want.sort_unstable();
    want.dedup();
    let mut covered = true;
    let mut held = String::new();
    for id in &want {
        if sent.binary_search(id).is_ok() {
            held.push_str(&format!("{}:{};", id.object, id.coeff));
        } else {
            covered = false;
        }
    }
    (fnv1a64(&held), covered)
}

/// What one fault-grid run produced.
#[derive(Debug, Clone)]
pub struct GridReport<P> {
    /// Sessions per grid point.
    pub sessions: usize,
    /// Ticks per session.
    pub ticks: usize,
    /// Shards behind the server (`None`: one unsharded index).
    pub shards: Option<u32>,
    /// One report per grid point, in grid order.
    pub points: Vec<P>,
    /// The deterministic per-grid-point, per-session, per-tick transcript.
    pub transcript: String,
    /// Whether every session covered its final frame at its final band
    /// with grid point 0's fingerprints, and every grid point held its
    /// fault source's own invariant.
    pub invariant_ok: bool,
}

impl<P> GridReport<P> {
    /// The run's snapshot: the shard count, the invariant and `point` of
    /// every grid point, in the frame `serve::snapshot` writes.
    pub(crate) fn render(&self, schema: &str, mode: &str, point: impl Fn(&P) -> Json) -> Json {
        let shards = self.shards.map(|s| ("shards", u64::from(s).into()));
        let fields = shards.into_iter().chain([
            ("invariant_ok", Json::Bool(self.invariant_ok)),
            ("grid", Json::Arr(self.points.iter().map(point).collect())),
        ]);
        let run = (self.sessions, self.ticks);
        snapshot(schema, mode, run, fields.collect(), &self.transcript)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fmt::Debug;

    /// A fault source's run at `jobs` 1 and 3 writes the same transcript
    /// and the same point reports (`Debug` spells every `f64` exactly).
    pub(crate) fn check_jobs_invariant<P: Debug>(run: impl Fn(usize) -> GridReport<P>) {
        let (serial, parallel) = (run(1), run(3));
        assert_eq!(serial.transcript, parallel.transcript);
        let points = |r: &GridReport<P>| format!("{:?}", r.points);
        assert_eq!(points(&serial), points(&parallel), "reports depend on jobs");
    }

    /// A fault source's transcript: a header, then one row per session step
    /// of every grid point (each tick plus the finish pass), every row with
    /// the header's columns.
    pub(crate) fn check_shape<P>(r: &GridReport<P>) {
        let mut lines = r.transcript.lines();
        let header = lines.next().expect("a header line");
        assert!(header.contains(",session,tick,coeffs,"), "{header}");
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), r.points.len() * r.sessions * (r.ticks + 1));
        let columns = header.split(',').count();
        assert!(rows.iter().all(|row| row.split(',').count() == columns));
    }

    fn ids(pairs: &[(u32, u32)]) -> Vec<CoeffRef> {
        let id = |&(object, coeff)| CoeffRef { object, coeff };
        pairs.iter().map(id).collect()
    }

    #[test]
    fn a_missing_coefficient_is_not_covered() {
        let want = ids(&[(0, 1), (0, 2), (3, 0)]);
        let all = resident_fingerprint(want.clone(), &want);
        let short = resident_fingerprint(want, &ids(&[(0, 1), (3, 0)]));
        assert!(all.1 && !short.1);
        assert_ne!(all.0, short.0, "the fingerprint names what is held");
    }

    #[test]
    fn coefficients_sent_outside_want_leave_the_fingerprint_unchanged() {
        let want = ids(&[(0, 1), (3, 0)]);
        let exact = resident_fingerprint(want.clone(), &want);
        let extra = ids(&[(0, 0), (0, 1), (2, 7), (3, 0), (9, 9)]);
        assert_eq!(resident_fingerprint(want, &extra), exact);
    }

    #[test]
    fn want_order_and_repeats_leave_the_fingerprint_unchanged() {
        for sent in [ids(&[(0, 1), (0, 2), (3, 0)]), ids(&[(0, 2)])] {
            let sorted = resident_fingerprint(ids(&[(0, 1), (0, 2), (3, 0)]), &sent);
            let shuffled = ids(&[(3, 0), (0, 1), (3, 0), (0, 2), (0, 1)]);
            assert_eq!(resident_fingerprint(shuffled, &sent), sorted);
        }
    }
}
