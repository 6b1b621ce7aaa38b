//! The data server: scene + wavelet index behind one session table.
//!
//! The server is split into two layers so many clients can be served at
//! once (the paper's §III setting — "serving heavy traffic" of continuous
//! window queries; DESIGN.md §10):
//!
//! * [`ServerCore`] — the shared **immutable** half: `Arc<SceneIndexData>`
//!   (which carries the prebuilt `sorted_w` magnitude distribution) plus
//!   `Arc<WaveletIndex>` — in RAM, paged or a shard fleet, the server
//!   cannot tell which. Every read path takes
//!   `&self` and is lock-free; index searches allocate nothing (the
//!   traversal stack is a thread-local scratch buffer in `mar-rtree`, the
//!   query paths' window and hit buffers are one here — `Scratch`) and
//!   tally I/O through a relaxed atomic.
//! * [`Sessions`] — the per-client sent-filters and resume tokens
//!   ([`crate::session`]), reached through [`Server::sessions`]. The
//!   server owns no session state of its own: its entry points descend
//!   the index and replay the hits through the session's filter.
//!
//! `query`/`query_batch` take `&self`: a `&Server` can be shared across
//! scoped threads and each client's queries run concurrently.

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use crate::session::{SentFilter, SessionError, Sessions};
use crate::store::write_store_with;
use mar_geom::Rect2;
use mar_mesh::ResolutionBand;
use mar_store::{CachePolicy, StoreError};
use mar_workload::Scene;
use std::cell::Cell;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-thread buffers of the buffered query paths: taken for one call,
/// cleared, and put back grown — the idiom of `mar-rtree`'s traversal
/// stacks — so a steady-state query allocates nothing. Never held across
/// calls, and not a lock: a query issued while the buffers are out simply
/// starts from empty ones.
#[derive(Debug, Default)]
struct Scratch {
    /// The windows of one grouped descent.
    queries: Vec<(Rect2, ResolutionBand)>,
    /// `hits[w]`: window `w`'s hits in search order. Lists beyond
    /// `queries.len()` are stale capacity.
    hits: Vec<Vec<CoeffRef>>,
    /// `per_window[w]`: window `w`'s logical node accesses.
    per_window: Vec<u64>,
    /// `query_batch` only: each batch slot's span of `queries`.
    spans: Vec<Option<Range<usize>>>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            queries: Vec::new(),
            hits: Vec::new(),
            per_window: Vec::new(),
            spans: Vec::new(),
        })
    };
}

impl Scratch {
    /// One grouped descent over `self.queries`, filling `hits` and
    /// `per_window`; returns the unique physical node visits.
    fn descend(&mut self, index: &WaveletIndex) -> u64 {
        let n = self.queries.len();
        if self.hits.len() < n {
            self.hits.resize_with(n, Vec::new);
        }
        self.hits[..n].iter_mut().for_each(Vec::clear);
        self.per_window.resize(n, 0);
        let hits = &mut self.hits;
        index.for_each_batch_into(&self.queries, &mut self.per_window, |w, id| {
            hits[w].push(id)
        })
    }
}

/// One sub-query: a region and the resolution band needed inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRegion {
    /// The spatial window.
    pub region: Rect2,
    /// The coefficient magnitude band.
    pub band: ResolutionBand,
}

/// What one server round trip produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryResult {
    /// Coefficients transmitted (after session filtering).
    pub coeffs: usize,
    /// Objects whose base mesh was transmitted for the first time.
    pub new_objects: usize,
    /// Payload bytes (coefficients + new base meshes).
    pub bytes: f64,
    /// Index node accesses.
    pub io: u64,
}

/// The eviction policy of every buffer pool a [`Residence::Paged`] index
/// is served through ([`ServerCore::build`], a paged fleet's shards):
/// LRU, which outran the motion-aware policy wherever both were measured
/// (DESIGN.md §15.2). That policy is opened only by name, through
/// [`WaveletIndex::open_paged`]: by the store ablation, `micro` and the
/// serving benchmark.
pub const POOL_POLICY: CachePolicy = CachePolicy::Lru;

/// Where an index lives (DESIGN.md §10).
#[derive(Debug, Clone)]
pub enum Residence {
    /// All nodes in the in-RAM arena.
    Ram,
    /// Node pages and coefficient records in a page file at `path`, read
    /// through a [`POOL_POLICY`] pool of `budget_bytes`. A fleet's shard
    /// `s` writes `path` with its extension replaced by `shard-<s>.pages`,
    /// behind a pool of its own of `budget_bytes`.
    Paged {
        /// Where to write, then serve, the page file.
        path: PathBuf,
        /// Hard buffer-pool byte budget.
        budget_bytes: usize,
    },
}

impl Residence {
    /// Shard `s`'s residence in a fleet.
    pub(crate) fn shard(&self, s: u32) -> Self {
        match self {
            Self::Ram => Self::Ram,
            Self::Paged { path, budget_bytes } => Self::Paged {
                path: path.with_extension(format!("shard-{s}.pages")),
                budget_bytes: *budget_bytes,
            },
        }
    }

    /// Moves `index`, built in RAM over `data`, here: kept as it is, or
    /// written to the page file and reopened from it.
    pub(crate) fn place(
        &self,
        data: &SceneIndexData,
        index: WaveletIndex,
    ) -> Result<WaveletIndex, StoreError> {
        match self {
            Self::Ram => Ok(index),
            Self::Paged { path, budget_bytes } => {
                write_store_with(path, data, &index)?;
                WaveletIndex::open_paged(path, *budget_bytes, POOL_POLICY)
            }
        }
    }
}

/// The shared immutable half of the server: scene-derived index data plus
/// the wavelet index, both behind `Arc` so clones are cheap handle copies.
/// Everything here is read-only after construction — safe to share across
/// any number of client threads without locks.
#[derive(Debug, Clone)]
pub struct ServerCore {
    data: Arc<SceneIndexData>,
    index: Arc<WaveletIndex>,
}

impl ServerCore {
    /// Builds the core (support regions + index) from a scene.
    pub fn new(scene: &Scene) -> Self {
        let data = SceneIndexData::build(scene);
        let index = WaveletIndex::build(&data);
        Self {
            data: Arc::new(data),
            index: Arc::new(index),
        }
    }

    /// Wraps pre-built parts (e.g. an index bulk-loaded in parallel via
    /// [`WaveletIndex::build_jobs`]).
    pub fn from_parts(data: Arc<SceneIndexData>, index: Arc<WaveletIndex>) -> Self {
        Self { data, index }
    }

    /// Builds the core for `scene` on `residence`: the index is
    /// bulk-loaded across up to `jobs` threads
    /// ([`WaveletIndex::build_jobs`]) and, when paged, written to its page
    /// file and served from there through a [`POOL_POLICY`] pool. Query
    /// answers are byte-identical on either residence.
    pub fn build(scene: &Scene, residence: &Residence, jobs: usize) -> Result<Self, StoreError> {
        let data = SceneIndexData::build(scene);
        let index = residence.place(&data, WaveletIndex::build_jobs(&data, jobs))?;
        Ok(Self::from_parts(Arc::new(data), Arc::new(index)))
    }

    /// The scene-derived index data.
    pub fn data(&self) -> &SceneIndexData {
        &self.data
    }

    /// A shared handle to the index data. Planning closures that must
    /// outlive a server borrow (e.g. `bytes_per_block` over the prebuilt
    /// `sorted_w`) clone this handle instead of deep-copying the vector.
    pub fn data_arc(&self) -> Arc<SceneIndexData> {
        Arc::clone(&self.data)
    }

    /// The wavelet index.
    pub fn index(&self) -> &WaveletIndex {
        &self.index
    }

    /// One window of an in-RAM index through the scalar descent and
    /// `filter`, accumulated into `out` (`io` included): hits stream
    /// straight into the filter from inside the one-ahead walk, with no
    /// hit list in between — the RAM path of [`Server::query`]. Visit
    /// order and logical `io` equal a batch's for the same window
    /// ([`WaveletIndex::for_each_batch`]'s contract), so the result is
    /// bit-identical to the grouped path's. A paged index never comes
    /// here: a payload touch in mid-descent would reorder its pool's page
    /// reads.
    pub(crate) fn admit_window(
        &self,
        filter: &mut SentFilter,
        region: &Rect2,
        band: ResolutionBand,
        out: &mut QueryResult,
    ) {
        let (data, index) = (self.data(), self.index());
        debug_assert!(!index.is_paged(), "a paged index descends first");
        out.io += index.for_each(
            region,
            band,
            #[inline(always)]
            |id| filter.admit_one(data, index, id, out),
        );
    }
}

/// The server: a shared [`ServerCore`] plus the [`Sessions`] table.
/// All entry points take `&self`; a `&Server` is safe to share across
/// client threads.
#[derive(Debug)]
pub struct Server {
    core: ServerCore,
    sessions: Sessions,
}

impl Server {
    /// Builds the server (support regions + index) from a scene.
    pub fn new(scene: &Scene) -> Self {
        Self::from_core(ServerCore::new(scene))
    }

    /// Builds the session layer over an existing shared core, with resume
    /// tokens keyed from per-process entropy ([`Sessions::new`]).
    pub fn from_core(core: ServerCore) -> Self {
        Self {
            core,
            sessions: Sessions::new(),
        }
    }

    /// Builds the session layer over an existing shared core with a
    /// deterministic resume-token key ([`Sessions::seeded`]). A deployment
    /// that does not need reproducible tokens should prefer
    /// [`Server::from_core`]'s entropy key.
    pub fn from_core_seeded(core: ServerCore, token_seed: u64) -> Self {
        Self {
            core,
            sessions: Sessions::seeded(token_seed),
        }
    }

    /// The shared immutable core.
    pub fn core(&self) -> &ServerCore {
        &self.core
    }

    /// The session table: tokens, `resume`, and every per-session look-up
    /// (`session_sent_set`, `session_count`, `resident_filter_entries`, …).
    pub fn sessions(&self) -> &Sessions {
        &self.sessions
    }

    /// The scene-derived index data.
    pub fn data(&self) -> &SceneIndexData {
        self.core.data()
    }

    /// The wavelet index.
    pub fn index(&self) -> &WaveletIndex {
        self.core.index()
    }

    /// Opens a client session; returns its id (handed out in call order).
    pub fn connect(&self) -> u64 {
        self.connect_with_token().0
    }

    /// Opens a client session; returns `(id, resume token)` — what wire
    /// endpoints use ([`Sessions::connect_with_token`]).
    pub fn connect_with_token(&self) -> (u64, u64) {
        self.sessions.connect_with_token()
    }

    /// Drops a session (client disconnected): its filter, its resume
    /// token and its delivery ledger in one call ([`Sessions::disconnect`]),
    /// and its heat contribution — a gone client must not keep pages warm
    /// (no-op on the in-RAM backend).
    pub fn disconnect(&self, session: u64) -> Result<(), SessionError> {
        self.sessions.disconnect(session)?;
        self.core.index().forget_motion(session);
        Ok(())
    }

    /// Executes a batch of sub-queries for a session, filtering out data
    /// the client already holds, and returns the transmission accounting.
    ///
    /// The walk is chosen by residence, not by window count:
    ///
    /// * **RAM** (a RAM fleet included): each window in sub-query order
    ///   takes the scalar one-ahead descent, its hits streamed into the
    ///   filter (`ServerCore::admit_window`).
    /// * **Paged**: all windows descend as one group
    ///   ([`WaveletIndex::for_each_batch`]; a group of one is the scalar
    ///   walk), then the per-window hit lists are replayed through the
    ///   filter, so no payload touch reorders the pool's page reads.
    ///
    /// Per window both walks produce the scalar search's hits in its order
    /// and its logical `io`, so the accounting (the floating-point byte
    /// total included) is bit-identical either way and to
    /// [`Server::query_batch`]. Neither path allocates in steady state:
    /// windows and hits live in per-thread reuse buffers.
    ///
    /// Holds only the session's own filter lock (across the descent and
    /// the accounting; no stripe of the session table, so no other
    /// session waits): the index walk itself is a `&self` read of the
    /// shared core — lock-free in RAM, the pager's short holds on the
    /// paged backend.
    ///
    /// An unknown or disconnected session id is a typed [`SessionError`].
    pub fn query(
        &self,
        session: u64,
        regions: &[QueryRegion],
    ) -> Result<QueryResult, SessionError> {
        let index = self.core.index();
        let data = self.core.data();
        self.sessions.with(session, |filter| {
            // The session's predicted motion (Eq. 2) feeds the buffer
            // pool's heat field: the first sub-query window's centre is
            // the client's position this tick. (No-op on the in-RAM
            // backend; only the session filter → pager lock edge of
            // DESIGN.md §13 is taken.)
            if let Some(q) = regions.first() {
                index.observe_motion(session, q.region.center());
            }
            let mut result = QueryResult::default();
            if !index.is_paged() {
                for q in regions {
                    self.core
                        .admit_window(filter, &q.region, q.band, &mut result);
                }
                return result;
            }
            let mut scratch = SCRATCH.take();
            scratch.queries.clear();
            scratch
                .queries
                .extend(regions.iter().map(|q| (q.region, q.band)));
            scratch.descend(index);
            for (hits, &io) in scratch.hits.iter().zip(&scratch.per_window) {
                filter.admit(data, index, hits, &mut result);
                result.io += io;
            }
            SCRATCH.set(scratch);
            result
        })
    }

    /// Executes every session's sub-queries as **one** cross-session group
    /// descent: the windows of all sessions in `batch` descend the index
    /// together, so a tree node needed by several sessions is read once
    /// physically. Returns the per-session results in caller order plus
    /// the number of unique physical node visits the merged descent
    /// performed (the shared-visit metric).
    ///
    /// Each per-session [`QueryResult`] — coefficients, bytes, *and* its
    /// logical `io` count — is bit-identical to what a separate
    /// [`Server::query`] call would have produced: per-window visit order
    /// equals the scalar search order, windows replay through the session
    /// filter in sub-query order, and logical accesses are counted per
    /// window regardless of physical sharing.
    ///
    /// Locking: sessions are entered one at a time (existence check up
    /// front, filter application afterwards) and no session's filter lock
    /// is held across the index descent. A session that disconnects
    /// between the two lock windows surfaces as
    /// [`SessionError::UnknownSession`], the same answer a scalar call in
    /// that race would give.
    pub fn query_batch(
        &self,
        batch: &[(u64, &[QueryRegion])],
    ) -> (Vec<Result<QueryResult, SessionError>>, u64) {
        let data = self.core.data();
        let index = self.core.index();
        let mut scratch = SCRATCH.take();
        scratch.queries.clear();
        scratch.spans.clear();
        // Admission, one session at a time and nothing held during the
        // walk: an admitted session feeds its window centre into the pool's
        // heat field (before the descent reads any pages) and appends its
        // windows; `spans[s]` is slot s's window span.
        for &(session, regions) in batch {
            let admitted = self.sessions.with(session, |_| ()).is_ok();
            let span = admitted.then(|| {
                if let Some(q) = regions.first() {
                    index.observe_motion(session, q.region.center());
                }
                let start = scratch.queries.len();
                scratch
                    .queries
                    .extend(regions.iter().map(|q| (q.region, q.band)));
                start..scratch.queries.len()
            });
            scratch.spans.push(span);
        }
        // One lock-free grouped descent over every admitted window.
        let unique = scratch.descend(index);
        // Demultiplex: apply each session's filter in caller order; a
        // session that disconnected since admission fails here.
        let out = batch
            .iter()
            .zip(&scratch.spans)
            .map(|(&(session, _), span)| {
                let span = span.clone().ok_or(SessionError::UnknownSession(session))?;
                self.sessions.with(session, |filter| {
                    let mut result = QueryResult::default();
                    let ios = &scratch.per_window[span.clone()];
                    for (hits, &io) in scratch.hits[span].iter().zip(ios) {
                        filter.admit(data, index, hits, &mut result);
                        result.io += io;
                    }
                    result
                })
            })
            .collect();
        SCRATCH.set(scratch);
        (out, unique)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SESSION_STRIPES;
    use mar_geom::Point2;
    use mar_link::splitmix64;
    use mar_workload::{Scene, SceneConfig};

    fn server() -> Server {
        let mut cfg = SceneConfig::paper(5, 21);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        Server::new(&Scene::generate(cfg))
    }

    fn whole() -> QueryRegion {
        QueryRegion {
            region: Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0])),
            band: ResolutionBand::FULL,
        }
    }

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Server>();
        assert_sync_send::<ServerCore>();
    }

    /// The RAM path streams hits into the filter from inside the walk
    /// (`admit_window`); it must equal, bit for bit, `SentFilter::admit`
    /// over the collected hit list and `query_batch` — also when the index
    /// knows objects and coefficients the scene data does not, so that the
    /// walk streams out-of-scene ids through the filter.
    #[test]
    fn streamed_window_equals_collected_hits_and_batch() {
        let data = |objects| {
            let mut cfg = SceneConfig::paper(objects, 21);
            cfg.levels = 3;
            cfg.target_bytes = 1_000_000.0;
            Arc::new(SceneIndexData::build(&Scene::generate(cfg)))
        };
        let (small, big) = (data(3), data(7));
        for (data, mismatched) in [(Arc::clone(&big), false), (small, true)] {
            let core = ServerCore::from_parts(data, Arc::new(WaveletIndex::build(&big)));
            let server = Server::from_core_seeded(core.clone(), 7);
            let session = server.connect();
            let (mut streamed, mut collected) = (SentFilter::default(), SentFilter::default());
            let (mut sent, mut out_of_scene) = (0, 0);
            for step in 0..40u64 {
                // Every fifth query repeats its predecessor: nothing to send.
                let repeat = step % 5 == 4;
                let k = step - u64::from(repeat);
                let unit =
                    |salt: u64| (splitmix64(k * 4 + salt) >> 11) as f64 / (1u64 << 53) as f64;
                let (x, y, side) = (unit(0) * 900.0, unit(1) * 900.0, 50.0 + unit(2) * 400.0);
                let region = Rect2::new(Point2::new([x, y]), Point2::new([x + side, y + side]));
                let band = ResolutionBand::new(unit(3) * 0.8, unit(3) * 0.8 + 0.2 + unit(2));

                let mut a = QueryResult::default();
                core.admit_window(&mut streamed, &region, band, &mut a);
                let (hits, io) = core.index().query(&region, band);
                let mut b = QueryResult {
                    io,
                    ..QueryResult::default()
                };
                collected.admit(core.data(), core.index(), &hits, &mut b);
                let (batch, _) = server.query_batch(&[(session, &[QueryRegion { region, band }])]);
                let c = *batch[0].as_ref().expect("live session");

                let key = |r: &QueryResult| (r.coeffs, r.new_objects, r.io, r.bytes.to_bits());
                assert_eq!(key(&a), key(&b), "streamed vs collected, step {step}");
                assert_eq!(key(&a), key(&c), "streamed vs batch, step {step}");
                if repeat {
                    assert_eq!((a.coeffs, a.bytes.to_bits()), (0, 0f64.to_bits()));
                }
                sent += a.coeffs;
                let objects = core.data().coeff_counts.len();
                out_of_scene += hits
                    .iter()
                    .filter(|id| id.object as usize >= objects)
                    .count();
            }
            assert!(sent > 0);
            assert_eq!(out_of_scene > 0, mismatched);
        }
    }

    /// A RAM `query` streams each window of a tour plan through the
    /// one-ahead walk; a twin server answers the same plans through the
    /// grouped `query_batch`. Answers, logical `io` and the index's
    /// cumulative logical counter must agree query for query.
    #[test]
    fn streamed_ram_plans_equal_the_grouped_batch() {
        use crate::retrieval::FramePlanner;
        let (streamed, grouped) = (server(), server());
        assert!(!streamed.index().is_paged());
        let (a, b) = (streamed.connect(), grouped.connect());
        let mut planner = FramePlanner::new();
        let (mut multi, mut sent) = (0, 0);
        for tick in 0..60u64 {
            let unit = |salt: u64| (splitmix64(tick * 3 + salt) >> 11) as f64 / (1u64 << 53) as f64;
            // A 200-unit frame drifting across the scene, its band
            // widening and narrowing with a jittered speed.
            let (x, y) = (10.0 * tick as f64 + 20.0 * unit(0), 8.0 * tick as f64);
            let frame = Rect2::new(Point2::new([x, y]), Point2::new([x + 200.0, y + 200.0]));
            let band = ResolutionBand::new(0.6 * unit(1), 1.0);
            let regions = planner.plan(&frame, band);
            planner.commit(frame, band);
            multi += usize::from(regions.len() >= 2);

            let (io_a, io_b) = (
                streamed.index().io_snapshot(),
                grouped.index().io_snapshot(),
            );
            let got = streamed.query(a, &regions).expect("live session");
            let (batch, _) = grouped.query_batch(&[(b, &regions)]);
            let want = batch[0].expect("live session");
            let key = |r: &QueryResult| (r.coeffs, r.new_objects, r.bytes.to_bits(), r.io);
            assert_eq!(key(&got), key(&want), "tick {tick}");
            sent += got.coeffs;
            assert_eq!(
                streamed.index().io_snapshot().logical - io_a.logical,
                grouped.index().io_snapshot().logical - io_b.logical,
                "tick {tick}"
            );
        }
        assert!(multi > 0, "no tick planned two or more windows");
        assert!(sent > 0, "the tour sent nothing");
    }

    #[test]
    fn repeat_queries_send_nothing_new() {
        let s = server();
        let c = s.connect();
        let r1 = s.query(c, &[whole()]).unwrap();
        assert!(r1.coeffs > 0);
        assert!(r1.bytes > 0.0);
        assert_eq!(r1.new_objects, 5);
        let r2 = s.query(c, &[whole()]).unwrap();
        assert_eq!(r2.coeffs, 0);
        assert_eq!(r2.bytes, 0.0);
        assert_eq!(r2.new_objects, 0);
        assert!(r2.io > 0, "index is still searched");
    }

    #[test]
    fn sessions_are_independent() {
        let s = server();
        let a = s.connect();
        let b = s.connect();
        let ra = s.query(a, &[whole()]).unwrap();
        let rb = s.query(b, &[whole()]).unwrap();
        assert_eq!(ra.coeffs, rb.coeffs);
    }

    #[test]
    fn query_batch_matches_scalar_queries_bit_for_bit() {
        // Two servers over the same scene: one answers session by session,
        // the other answers every session in one grouped descent. Every
        // per-session result — including the f64 byte totals and logical
        // io — must be identical.
        let scalar = server();
        let batched = server();
        let regions: Vec<Vec<QueryRegion>> = (0..5)
            .map(|k| {
                let x = 80.0 * k as f64;
                vec![
                    QueryRegion {
                        region: Rect2::new(
                            Point2::new([x, 100.0]),
                            Point2::new([x + 400.0, 620.0]),
                        ),
                        band: ResolutionBand::FULL,
                    },
                    QueryRegion {
                        region: Rect2::new(
                            Point2::new([x, 100.0]),
                            Point2::new([x + 650.0, 880.0]),
                        ),
                        band: ResolutionBand::new(0.4, 1.0),
                    },
                ]
            })
            .collect();
        let sessions_a: Vec<u64> = (0..5).map(|_| scalar.connect()).collect();
        let sessions_b: Vec<u64> = (0..5).map(|_| batched.connect()).collect();
        for round in 0..3 {
            let want: Vec<QueryResult> = sessions_a
                .iter()
                .enumerate()
                .map(|(k, &c)| scalar.query(c, &regions[(k + round) % 5]).unwrap())
                .collect();
            let batch: Vec<(u64, &[QueryRegion])> = sessions_b
                .iter()
                .enumerate()
                .map(|(k, &c)| (c, regions[(k + round) % 5].as_slice()))
                .collect();
            let (got, unique) = batched.query_batch(&batch);
            let logical: u64 = want.iter().map(|r| r.io).sum();
            assert!(
                unique > 0 && unique <= logical,
                "round {round}: shared descent must not exceed logical io ({unique} vs {logical})"
            );
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.as_ref().unwrap(), w, "round {round} session {k}");
            }
        }
    }

    #[test]
    fn query_batch_reports_unknown_sessions() {
        let s = server();
        let c = s.connect();
        let regions = [whole()];
        let batch: Vec<(u64, &[QueryRegion])> =
            vec![(9999, &regions), (c, &regions), (12345, &regions)];
        let (got, _) = s.query_batch(&batch);
        assert!(matches!(got[0], Err(SessionError::UnknownSession(9999))));
        assert!(got[1].as_ref().unwrap().coeffs > 0);
        assert!(matches!(got[2], Err(SessionError::UnknownSession(12345))));
    }

    #[test]
    fn incremental_band_widening_sends_only_the_difference() {
        let s = server();
        let c = s.connect();
        let region = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        let coarse = s
            .query(
                c,
                &[QueryRegion {
                    region,
                    band: ResolutionBand::new(0.5, 1.0),
                }],
            )
            .unwrap();
        let fine = s
            .query(
                c,
                &[QueryRegion {
                    region,
                    band: ResolutionBand::FULL,
                }],
            )
            .unwrap();
        let total_coeffs = s.data().len();
        assert_eq!(coarse.coeffs + fine.coeffs, total_coeffs);
        assert!(coarse.coeffs < fine.coeffs, "most coefficients are small");
    }

    #[test]
    fn base_mesh_charged_exactly_once_per_object() {
        let s = server();
        let c = s.connect();
        let left = QueryRegion {
            region: Rect2::new(Point2::new([0.0, 0.0]), Point2::new([500.0, 1000.0])),
            band: ResolutionBand::FULL,
        };
        let all = whole();
        let r1 = s.query(c, &[left]).unwrap();
        let r2 = s.query(c, &[all]).unwrap();
        assert_eq!(r1.new_objects + r2.new_objects, 5);
    }

    #[test]
    fn disconnect_forgets_state() {
        let s = server();
        let c = s.connect();
        s.query(c, &[whole()]).unwrap();
        assert!(s.sessions().session_sent(c) > 0);
        s.disconnect(c).unwrap();
        assert_eq!(s.sessions().session_sent(c), 0);
    }

    #[test]
    fn disconnect_releases_filter_state() {
        // Long-running serve workloads churn through sessions; the filter
        // footprint must be bounded by the *connected* sessions, not by
        // the total ever served.
        let s = server();
        assert_eq!(s.sessions().resident_filter_entries(), 0);
        for round in 0..50 {
            let c = s.connect();
            let r = s.query(c, &[whole()]).unwrap();
            assert!(r.coeffs > 0, "round {round} fetched data");
            assert!(s.sessions().resident_filter_entries() > 0);
            s.disconnect(c).unwrap();
            assert_eq!(
                s.sessions().resident_filter_entries(),
                0,
                "round {round} left filter state behind"
            );
        }
        assert_eq!(s.sessions().session_count(), 0);
    }

    #[test]
    fn sessions_land_on_distinct_stripes() {
        let s = server();
        let ids: Vec<u64> = (0..SESSION_STRIPES as u64 * 2)
            .map(|_| s.connect())
            .collect();
        // Ids are sequential, so consecutive sessions spread the table's
        // map operations over every stripe. That is all a stripe decides:
        // queries of sessions that share one do not wait for each other
        // (`session::tests::a_parked_query_delays_no_session_of_its_stripe`).
        assert_eq!(ids, (0..SESSION_STRIPES as u64 * 2).collect::<Vec<_>>());
        assert_eq!(s.sessions().session_count(), SESSION_STRIPES * 2);
        for &id in &ids {
            assert!(s.query(id, &[whole()]).unwrap().coeffs > 0);
        }
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let s = server();
        assert_eq!(
            s.query(42, &[whole()]),
            Err(SessionError::UnknownSession(42))
        );
        assert_eq!(s.disconnect(42), Err(SessionError::UnknownSession(42)));
        assert_eq!(s.sessions().resume(42), Err(SessionError::UnknownToken(42)));
        assert_eq!(
            s.sessions().session_sent_set(42),
            Err(SessionError::UnknownSession(42))
        );
        // No state was minted along the way.
        assert_eq!(s.sessions().session_count(), 0);
        assert_eq!(s.sessions().resident_filter_entries(), 0);
    }

    #[test]
    fn resume_retains_the_sent_filter() {
        let s = server();
        let c = s.connect();
        let token = s.sessions().session_token(c).unwrap();
        let r = s.query(c, &[whole()]).unwrap();
        assert!(r.coeffs > 0);
        // A transport drop does not touch server state: resuming by token
        // reports the retained filter, and a repeat query still sends
        // nothing new.
        let info = s.sessions().resume(token).unwrap();
        assert_eq!(info.session, c);
        assert_eq!(info.retained_coeffs, r.coeffs);
        assert_eq!(info.retained_objects, r.new_objects);
        let again = s.query(c, &[whole()]).unwrap();
        assert_eq!(again.coeffs, 0, "resume must not cause re-sends");
        // After a real disconnect the token is gone for good.
        s.disconnect(c).unwrap();
        assert_eq!(
            s.sessions().resume(token),
            Err(SessionError::UnknownToken(token))
        );
        assert_eq!(
            s.sessions().session_token(c),
            Err(SessionError::UnknownSession(c)),
            "a disconnected session has no token to look up"
        );
        assert_eq!(
            s.disconnect(c),
            Err(SessionError::UnknownSession(c)),
            "double disconnect is a typed error, not a silent no-op"
        );
    }

    #[test]
    fn resume_rejects_the_raw_session_id() {
        // Regression (ISSUE 6): `resume` used to accept the sequential
        // session id as the token, so any wire peer could resume — and
        // hijack the sent-filter of — any other session by counting.
        let s = server();
        let a = s.connect();
        let b = s.connect();
        s.query(a, &[whole()]).unwrap();
        s.query(b, &[whole()]).unwrap();
        for id in [a, b] {
            assert_eq!(
                s.sessions().resume(id),
                Err(SessionError::UnknownToken(id)),
                "a raw session id must not act as a resume token"
            );
        }
        // The real tokens still work, and each names only its own session.
        let ta = s.sessions().session_token(a).unwrap();
        let tb = s.sessions().session_token(b).unwrap();
        assert_eq!(s.sessions().resume(ta).unwrap().session, a);
        assert_eq!(s.sessions().resume(tb).unwrap().session, b);
        assert_ne!(ta, tb);
    }

    fn small_core() -> ServerCore {
        ServerCore::new(&{
            let mut cfg = mar_workload::SceneConfig::paper(3, 13);
            cfg.levels = 2;
            cfg.target_bytes = 100_000.0;
            Scene::generate(cfg)
        })
    }

    #[test]
    fn seeded_tokens_are_deterministic_distinct_and_floored() {
        let s1 = Server::from_core_seeded(small_core(), 7);
        let s2 = Server::from_core_seeded(small_core(), 7);
        let s3 = Server::from_core_seeded(small_core(), 8);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..512u64 {
            let (id1, t1) = s1.connect_with_token();
            let (id2, t2) = s2.connect_with_token();
            let (_, t3) = s3.connect_with_token();
            assert_eq!(id1, id2);
            assert_eq!(t1, t2, "same seed + same connect order → same tokens");
            assert_ne!(t1, t3, "different seeds → different token streams");
            assert!(seen.insert(t1), "token collision");
            assert!(
                t1 >= (1u64 << 32),
                "tokens stay above the floor so sequential ids can never alias them"
            );
            assert_ne!(t1, id1, "token must not echo the id");
            assert_eq!(s1.sessions().session_token(id1), Ok(t1), "lookup is stable");
        }
    }

    #[test]
    fn token_seed_is_not_recoverable_from_a_clients_own_handshake() {
        // Regression (ISSUE 6 review): tokens used to be
        // `splitmix64(seed ^ splitmix64(id))` — a public *bijection*, so
        // any client could invert its own `(id, token)` pair, recover the
        // seed, and mint every other session's token. Re-enact that attack against
        // the PRF-minted tokens and check it now yields garbage.
        const fn inv_mul(m: u64) -> u64 {
            let mut x = m;
            let mut i = 0;
            while i < 6 {
                x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
                i += 1;
            }
            x
        }
        fn un_xsr(y: u64, s: u32) -> u64 {
            let mut x = y;
            let mut done = 0;
            while done < 64 {
                x = y ^ (x >> s);
                done += s;
            }
            x
        }
        fn unmix64(z: u64) -> u64 {
            let z = un_xsr(z, 31);
            let z = z.wrapping_mul(inv_mul(0x94d0_49bb_1331_11eb));
            let z = un_xsr(z, 27);
            let z = z.wrapping_mul(inv_mul(0xbf58_476d_1ce4_e5b9));
            let z = un_xsr(z, 30);
            z.wrapping_sub(0x9e37_79b9_7f4a_7c15)
        }
        let seed = 0xdead_beef_cafe_f00d;
        let s = Server::from_core_seeded(small_core(), seed);
        let (id0, t0) = s.connect_with_token();
        let (id1, t1) = s.connect_with_token();
        // The old public formula must not mint the token any more…
        assert_ne!(
            t0,
            splitmix64(seed ^ splitmix64(id0)),
            "old derivation is dead"
        );
        // …and the old inversion applied to the attacker's own handshake
        // must neither recover the seed nor predict the peer's token.
        let recovered = unmix64(t0) ^ splitmix64(id0);
        assert_ne!(recovered, seed, "seed recovery attack is dead");
        assert_ne!(
            splitmix64(recovered ^ splitmix64(id1)),
            t1,
            "the 'recovered' seed must not mint other sessions' tokens"
        );
    }

    #[test]
    fn default_servers_mint_per_instance_token_streams() {
        // Without an explicit seed the token key comes from per-process
        // entropy: two servers over the same core must not agree on the
        // token for session 0, so there is no public default key a wire
        // peer could use to mint tokens offline.
        let a = Server::from_core(small_core());
        let b = Server::from_core(small_core());
        let (_, ta) = a.connect_with_token();
        let (_, tb) = b.connect_with_token();
        assert_ne!(ta, tb, "default token keys are per-instance entropy");
        assert!(ta >= (1u64 << 32) && tb >= (1u64 << 32));
        // Each server resumes only its own capability.
        assert!(a.sessions().resume(ta).is_ok());
        assert_eq!(a.sessions().resume(tb), Err(SessionError::UnknownToken(tb)));
    }

    #[test]
    fn session_sent_set_is_a_sorted_snapshot() {
        let s = server();
        let c = s.connect();
        let r = s.query(c, &[whole()]).unwrap();
        let set = s.sessions().session_sent_set(c).unwrap();
        assert_eq!(set.len(), r.coeffs);
        assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }
}
