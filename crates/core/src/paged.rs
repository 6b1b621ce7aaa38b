//! The out-of-core query backend: the store image of [`crate::store`]
//! read through a buffer pool of either policy (DESIGN.md §15).
//!
//! [`PagedIndex`] answers exactly the queries the in-RAM
//! [`crate::index::WaveletIndex`] answers, with byte-identical results,
//! and it does so without a descent of its own: `PagedIndex::nodes`
//! presents the store's node pages as a [`mar_rtree::PageSource`], and
//! the one window walk of `mar-rtree` ([`mar_rtree::search`],
//! [`mar_rtree::search_batch_into`]) runs over it — the same functions
//! the arena runs under. What this module supplies is the node fetch (a
//! [`PageCache`] read, validated on every fetch) and the 8-byte
//! [`CoeffRef`] decode (`coeff_ref`); hit sets, visit order and access
//! counts cannot drift from the RAM path because the code is shared, not
//! mirrored. One fetch per node visit, in visit order, is also what makes
//! the pool's page-read sequence a function of the queries alone.
//!
//! I/O accounting extends the paper's metric with one new axis: logical
//! and unique node accesses tally exactly as in RAM, and every pool
//! *miss* — a real trip to the page file, for node and payload pages
//! alike — counts as a **physical** access ([`mar_rtree::IoKind`]).
//!
//! # Locking (DESIGN.md §13)
//!
//! An LRU pool keeps no motion state: observations return before taking
//! a lock, the heat field stays empty, and a miss is one page read with
//! no guard live, then one pager hold whose [`PageCache::plan`] places
//! the page (the fault's ranker lends the plan its candidate buffer,
//! which LRU leaves empty). The rest of this section is the motion-aware
//! pool's, which feeds the Eq. 2 heat field and ranks victims against it.
//!
//! The pager mutex (pool + heat field) is taken under nothing but a
//! session's filter lock, and under it only the pool's own leaf locks —
//! a page's residency record and a pending-hit shard
//! ([`mar_store::HitPath`]) — so the global lock-order graph stays
//! acyclic. A hit does not take the pager: it reads the page's residency
//! record and logs itself in the calling thread's pending-hit shard
//! ([`mar_store::HitPath::lookup`]), and the pool replays the shard's hits
//! — stats, trace, stamp, relink — under the pager before that thread's
//! next admission plan, when the shard fills, and, every shard, before
//! [`PagedIndex::cache_stats`] reads the pool. On one thread the pool
//! therefore sees the operations a locked look-up per fetch would have
//! made, in the same order.
//!
//! *Under* the mutex, each hold O(1) per replayed hit: the replay — a
//! table read and a list relink per hit; the plan (room, LRU and
//! "admitted meanwhile" finish there, a full motion-aware pool copies the
//! eviction candidates it keeps beside the recency list); the refresh of
//! the ranker's snapshot of the heat field when a session has moved
//! since its last one ([`SlotHeats::sync`], a few hundred bytes); the
//! commit of the ranked choice ([`PageCache::commit`]); and the two
//! halves of a motion observation ([`MotionHeat::read_motion`] copies
//! the session's row out, [`MotionHeat::write_motion`] stores the new
//! one).
//!
//! *Outside* it: the page read — checksummed through a shared
//! [`PageFile`], one positioned read, no cursor to race on — the victim
//! ranking and the Eq. 2 refresh of a session's allocation between the
//! two halves of an observation ([`mar_buffer::MotionStep::compute`]); a
//! write half that finds the session's row changed since it was read —
//! another thread observed or forgot the same session — observes again
//! in place, so concurrent observations land in some serial order. When
//! the plan asks for a ranking, the guard is released and the
//! unprotected quarter of the pool is ranked by Eq. 2 heat against the
//! snapshot, in one call: a candidate's heat comes from its pool slot's
//! cached row of per-session contributions, of which only the sessions
//! that moved since the slot was last ranked are recomputed
//! ([`SlotHeats::heat_slots`], DESIGN.md §15.3) — bit for bit the heat a
//! full pass would give. If another thread used the chosen victim's slot
//! meanwhile, the commit evicts the runner-up by the same ranking, and
//! the scan is repeated only if every candidate's slot was used — so one
//! fault costs one ranking and at most two pager holds. The snapshot,
//! the rows and the candidate buffer are a `Ranker`, checked out of
//! `rankers` (a mutex of its own, taken with no other guard live and
//! held for a take or a return). A thread gets back the ranker it
//! returned last while that one is idle — its rows, a few hundred KB,
//! are then still in that core's cache — and another idle one otherwise;
//! the daemon is thread-per-connection, so a thread-local would cost one
//! row cache per connection.
//!
//! Two threads may miss the same page and both read it: the second
//! admission finds it resident, serves that copy and counts a fault, so
//! `lookups = hits + faults` and physical accesses = faults at any thread
//! count. Page payloads come back as shared `Arc`s, so node parsing, the
//! walk's window tests and record decoding never hold the lock either —
//! and neither does the panic on a corrupt page: a failed read leaves the
//! pool consistent (only its look-up is logged), no guard is live,
//! and the panic unwinds the one query that hit the bad page without
//! poisoning the pager for every other session.

use crate::coeff::CoeffRef;
use crate::store::{decode_record, open_store, StoreMeta, StoredRecord, RECORD_SIZE, REF_SIZE};
use mar_buffer::{MotionHeat, SlotHeats};
use mar_geom::{Point2, Rect2};
use mar_rtree::{IoCounters, IoKind, IoSnapshot, NodePage, PageSource};
use mar_store::{
    CachePolicy, HitPath, Lookup, PageCache, PageCacheStats, PageFile, StoreError, VictimPlan,
};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A tree node page as the pool hands it out.
pub(crate) type PooledNode = NodePage<Arc<Vec<u8>>, 3>;

/// Leaf entry `i` of a node page: its 8-byte [`CoeffRef`].
pub(crate) fn coeff_ref(leaf: &PooledNode, i: usize) -> CoeffRef {
    let b = leaf.item_bytes(i);
    CoeffRef {
        object: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        coeff: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
    }
}

/// The mutable half of the backend: the bounded pool plus the Eq. 2 heat
/// field its victim ranking consults (empty under LRU).
#[derive(Debug)]
struct Pager {
    cache: PageCache,
    heat: MotionHeat,
}

/// What one victim ranking works on while the pager is unlocked: the
/// candidates the pool copied out, and incremental heats against a
/// snapshot of the heat field.
#[derive(Debug)]
struct Ranker {
    scan: VictimPlan,
    heats: SlotHeats,
}

impl Ranker {
    /// Ranks the scan's candidates by the Eq. 2 heat of their regions.
    ///
    /// A page is as hot as the hottest predicted point its region covers:
    /// root and upper internal pages contain every session and stay
    /// resident; leaf and coefficient pages rank directionally. The page
    /// being faulted (no slot yet) is serving a live query, so it ranks
    /// maximally — admission can displace the coldest resident but a
    /// mid-run payload page is never served without being cached.
    fn rank(&mut self, regions: &[Rect2]) {
        let heats = &mut self.heats;
        self.scan.rank_with(
            |candidates, out| heats.heat_slots(candidates, regions, out),
            f64::INFINITY,
        );
    }
}

/// Idle [`Ranker`]s kept for reuse. One is out per thread that is
/// admitting a missed page, so the pool refills to the peak number of
/// concurrent misses; beyond this many a returned ranker is dropped
/// rather than kept (a row cache is ≈ 8 B × pool pages × sessions).
const MAX_IDLE_RANKERS: usize = 4;

/// The disk-backed wavelet index backend.
#[derive(Debug)]
pub struct PagedIndex {
    pager: Mutex<Pager>,
    /// The pool's residency records and pending-hit shards: hits are
    /// served from it without the pager.
    hits: Arc<HitPath>,
    /// The pool's eviction policy, read without the pager: an LRU pool
    /// keeps no motion state.
    policy: CachePolicy,
    /// Idle rankers, each beside the pending-hit shard of the thread that
    /// returned it; taken and returned with no other guard live.
    rankers: Mutex<Vec<(usize, Ranker)>>,
    /// The heat field's half-distance, for the snapshot of a new ranker.
    heat_scale: f64,
    /// The pool's file, read on a miss while the pager is unlocked.
    file: Arc<PageFile>,
    meta: StoreMeta,
    io: IoCounters,
}

impl PagedIndex {
    /// Opens a store image under a buffer pool of `budget_bytes` with the
    /// given eviction policy.
    pub fn open(path: &Path, budget_bytes: usize, policy: CachePolicy) -> Result<Self, StoreError> {
        let (file, meta) = open_store(path)?;
        let cache = PageCache::new(file, budget_bytes, policy);
        let file = Arc::clone(cache.file());
        let hits = Arc::clone(cache.hit_path());
        // Heat half-distance: an eighth of the scene's mean extent (the
        // root page region spans the whole indexed scene).
        let scale = meta
            .regions
            .first()
            .map(|r| ((r.hi[0] - r.lo[0]) + (r.hi[1] - r.lo[1])) / 8.0)
            .filter(|s| *s > 0.0 && s.is_finite())
            .unwrap_or(1.0);
        let heat = MotionHeat::server_default(scale);
        Ok(Self {
            pager: Mutex::new(Pager { cache, heat }),
            hits,
            policy,
            rankers: Mutex::new(Vec::new()),
            heat_scale: scale,
            file,
            meta,
            io: IoCounters::new(),
        })
    }

    /// The store layout metadata.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Indexed coefficients.
    pub fn len(&self) -> usize {
        self.meta.n_records as usize
    }

    /// True when the store indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.meta.n_records == 0
    }

    /// Tree node pages in the store.
    pub fn node_count(&self) -> usize {
        self.meta.node_pages as usize
    }

    /// On-disk size of the backing store file in bytes.
    pub fn file_bytes(&self) -> u64 {
        crate::store::store_file_bytes(self.file.page_count())
    }

    /// Buffer-pool counters (hits, faults, evictions, bypasses), every
    /// thread's pending hits replayed first.
    pub fn cache_stats(&self) -> PageCacheStats {
        let mut pager = self.lock_pager();
        pager.cache.replay_all();
        pager.cache.stats()
    }

    /// Cumulative node-access counters (logical / unique / physical).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    /// Resets the cumulative node-access counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Records that `session`'s window is now centred at `pos`; the heat
    /// field turns the per-session movement history into the Eq. 2
    /// k-direction allocation the pool's victim ranking consults.
    ///
    /// [`MotionHeat::observe`] in two holds of the pager: one copies the
    /// session's row out, the Eq. 2 refresh runs unlocked, the other
    /// stores the result (or observes again in place, should this
    /// session's row have moved in between). A non-finite `pos`, which
    /// the field ignores, takes no lock, and neither does an LRU pool.
    pub fn observe_motion(&self, session: u64, pos: Point2) {
        if self.policy == CachePolicy::Lru || !pos.is_finite() {
            return;
        }
        let step = self.lock_pager().heat.read_motion(session, pos);
        if let Some(mut step) = step {
            step.compute();
            self.lock_pager().heat.write_motion(&step);
        }
    }

    /// Drops `session`'s contribution to the heat field (none under LRU).
    pub fn forget_motion(&self, session: u64) {
        if self.policy == CachePolicy::MotionAware {
            self.lock_pager().heat.forget(session);
        }
    }

    /// Sessions currently contributing heat.
    pub fn motion_sessions(&self) -> usize {
        self.lock_pager().heat.session_count()
    }

    fn lock_pager(&self) -> std::sync::MutexGuard<'_, Pager> {
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        self.pager.lock().expect("pager poisoned")
    }

    /// The ranker the thread on pending-hit `shard` ([`HitPath::shard`])
    /// returned last if it is idle, else the one returned last by anyone,
    /// else a new one over an empty snapshot.
    fn checkout_ranker(&self, shard: usize) -> Ranker {
        let idle = {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let mut idle = self.rankers.lock().expect("ranker pool poisoned");
            match idle.iter().rposition(|&(owner, _)| owner == shard) {
                Some(own) => Some(idle.remove(own)),
                None => idle.pop(),
            }
        };
        idle.map_or_else(
            || Ranker {
                scan: VictimPlan::default(),
                heats: SlotHeats::new(&MotionHeat::server_default(self.heat_scale)),
            },
            |(_, ranker)| ranker,
        )
    }

    fn checkin_ranker(&self, shard: usize, ranker: Ranker) {
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        let mut idle = self.rankers.lock().expect("ranker pool poisoned");
        if idle.len() < MAX_IDLE_RANKERS {
            idle.push((shard, ranker));
        }
    }

    /// Fetches one page through the pool: a hit is served from the page's
    /// residency record without the pager (which is taken only when the
    /// thread's pending-hit shard is full, to replay it), a miss goes to
    /// [`Self::fault`].
    fn page(&self, page: u32) -> Arc<Vec<u8>> {
        match self.hits.lookup(page) {
            Lookup::Hit(bytes) => bytes,
            Lookup::HitReplayDue(bytes) => {
                self.lock_pager().cache.replay();
                bytes
            }
            Lookup::Miss => self.fault(page),
        }
    }

    /// The miss half of [`Self::page`]: reads `page`, tallies the physical
    /// access and admits it. The pager is locked for the plan (which
    /// replays the thread's pending hits first, and under LRU places the
    /// page) and for a motion-aware commit — never across the read or the
    /// ranking. Kept out of line: inlined, its frame and spills are paid by
    /// every hit (`io/page_read_warm` read 4–17 % slower).
    #[inline(never)]
    fn fault(&self, page: u32) -> Arc<Vec<u8>> {
        // No guard is live: a corrupt page panics this query only, and
        // the pool it leaves behind is consistent.
        let data = self
            .file
            .read_at(page)
            // mar-lint: allow(D004) — the store was validated at open; a failed page read here is unrecoverable corruption
            .expect("store page read failed");
        self.io.add(IoKind::Physical, 1);
        let data = Arc::new(data);
        let shard = self.hits.shard();
        let mut ranker = self.checkout_ranker(shard);
        let mut ranked = false;
        let served = loop {
            let mut pager = self.lock_pager();
            let Pager { cache, heat } = &mut *pager;
            let served = if ranked {
                cache.commit(&data, &mut ranker.scan)
            } else {
                cache.plan(page, &data, &mut ranker.scan)
            };
            if let Some(bytes) = served {
                break bytes;
            }
            ranker.heats.sync(heat);
            drop(pager);
            ranker.rank(&self.meta.regions);
            ranked = true;
        };
        self.checkin_ranker(shard, ranker);
        served
    }

    /// The store's tree as the [`NodeSource`](mar_rtree::NodeSource) the
    /// one window walk ([`mar_rtree::search`],
    /// [`mar_rtree::search_batch_into`]) runs over: each node visit is one
    /// pool look-up. Leaf hits decode through `coeff_ref`.
    pub(crate) fn nodes(&self) -> PageSource<'_, impl Fn(u32) -> PooledNode + '_> {
        let fetch = |id| {
            NodePage::parse(self.page(id), REF_SIZE)
                // mar-lint: allow(D004) — the store was validated at open; a malformed node image is unrecoverable corruption
                .expect("malformed node page")
        };
        PageSource {
            fetch,
            io: &self.io,
        }
    }

    /// Touches the payload page holding `id`'s coefficient record — the
    /// disk trip a transmission performs. Counts a physical access on a
    /// pool miss; unknown ids are ignored. Out of line: the filter's
    /// per-hit path, inlined into every RAM walk, calls it.
    #[inline(never)]
    pub fn touch_payload(&self, id: CoeffRef) {
        if let Some(rec) = self.meta.record_index(id) {
            self.touch_record(rec);
        }
    }

    /// Touches the payload page holding record `rec` (its position in the
    /// store, which for a fleet shard is not what `record_index` derives
    /// from the scene-wide id); records past the store are ignored.
    pub(crate) fn touch_record(&self, rec: u32) {
        if rec < self.meta.n_records {
            let (page, _) = self.meta.record_page(rec);
            let _ = self.page(page);
        }
    }

    /// Reads `id`'s coefficient record back from the store (through the
    /// pool). `None` for ids outside the stored scene.
    pub fn read_record(&self, id: CoeffRef) -> Option<StoredRecord> {
        let rec = self.meta.record_index(id)?;
        let (page, off) = self.meta.record_page(rec);
        let bytes = self.page(page);
        Some(decode_record(&bytes[off..off + RECORD_SIZE]))
    }

    /// Structural sanity of the open store (the deep validation happened
    /// at open: superblock, layout and per-page checksums).
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.data_pages() > self.file.page_count() {
            return Err("metadata claims more data pages than the file holds".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeff::SceneIndexData;
    use crate::index::WaveletIndex;
    use crate::store::write_store;
    use mar_geom::{Point2, Rect2, Rect3, Vector};
    use mar_mesh::ResolutionBand;
    use mar_rtree::{search, search_batch_into};
    use mar_store::{ScratchPath, TraceEvent};
    use mar_workload::{Scene, SceneConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> ScratchPath {
        ScratchPath::new("core-paged-tests", name).expect("create tmp dir")
    }

    fn data() -> SceneIndexData {
        let mut cfg = SceneConfig::paper(6, 3);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        SceneIndexData::build(&Scene::generate(cfg))
    }

    fn windows() -> Vec<Rect3> {
        let rects = [
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0])),
            Rect2::new(Point2::new([100.0, 100.0]), Point2::new([400.0, 350.0])),
            Rect2::new(Point2::new([700.0, 600.0]), Point2::new([760.0, 690.0])),
            Rect2::new(Point2::new([-50.0, -50.0]), Point2::new([-10.0, -10.0])),
        ];
        let bands = [
            ResolutionBand::FULL,
            ResolutionBand::new(0.5, 1.0),
            ResolutionBand::new(0.2, 0.7),
        ];
        let mut out = Vec::new();
        for r in &rects {
            for b in &bands {
                out.push(r.lift(b.w_min, b.w_max));
            }
        }
        out
    }

    fn open_small(
        name: &str,
        budget_pages: usize,
        policy: CachePolicy,
    ) -> (PagedIndex, WaveletIndex, SceneIndexData) {
        // The store's directory goes here; the index reads on through its
        // open file.
        let (paged, ram, d, _) = open_small_at(name, budget_pages, policy);
        (paged, ram, d)
    }

    /// [`open_small`] plus the path of the store file it wrote.
    fn open_small_at(
        name: &str,
        budget_pages: usize,
        policy: CachePolicy,
    ) -> (PagedIndex, WaveletIndex, SceneIndexData, ScratchPath) {
        let d = data();
        let ram = WaveletIndex::build(&d);
        let path = tmp(name);
        write_store(&path, &d).expect("write");
        let paged =
            PagedIndex::open(&path, budget_pages * mar_store::PAGE_SIZE, policy).expect("open");
        (paged, ram, d, path)
    }

    /// The pages evicted since the last call, in order.
    fn take_evictions(paged: &PagedIndex) -> Vec<u32> {
        paged
            .lock_pager()
            .cache
            .take_trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Evict(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn scalar_descent_matches_ram_order_and_io() {
        let (paged, ram, _) = open_small("scalar.pages", 4, CachePolicy::Lru);
        for (k, w) in windows().iter().enumerate() {
            let mut ram_hits = Vec::new();
            let ram_io = ram
                .ram_tree()
                .expect("ram")
                .search(w, |_, id| ram_hits.push(*id));
            let mut paged_hits = Vec::new();
            let paged_io = search(&paged.nodes(), w, |leaf, i| {
                paged_hits.push(coeff_ref(leaf, i))
            });
            // Order-sensitive equality: the descent is the same algorithm.
            assert_eq!(paged_hits, ram_hits, "window {k} hit order");
            assert_eq!(paged_io, ram_io, "window {k} accesses");
        }
        let snap = paged.io_snapshot();
        assert_eq!(snap.logical, snap.unique);
        assert!(snap.physical > 0, "a 4-page pool must fault");
        assert!(
            snap.physical <= snap.unique,
            "physical reads cannot exceed unique node visits"
        );
    }

    #[test]
    fn batch_descent_matches_ram_bit_for_bit() {
        let (paged, ram, _) = open_small("batch.pages", 6, CachePolicy::MotionAware);
        let ws = windows();
        let mut ram_hits: Vec<Vec<CoeffRef>> = vec![Vec::new(); ws.len()];
        let mut ram_per_window = vec![7u64; ws.len()];
        let ram_unique =
            ram.ram_tree()
                .expect("ram")
                .search_batch_into(&ws, &mut ram_per_window, |q, _, id| ram_hits[q].push(*id));
        let mut paged_hits: Vec<Vec<CoeffRef>> = vec![Vec::new(); ws.len()];
        // Stale tallies must be overwritten, not added to.
        let mut per_window = vec![7u64; ws.len()];
        let unique = search_batch_into(&paged.nodes(), &ws, &mut per_window, |q, leaf, i| {
            paged_hits[q].push(coeff_ref(leaf, i))
        });
        assert_eq!(paged_hits, ram_hits, "per-window hit order");
        assert_eq!(per_window, ram_per_window, "per-window logical accesses");
        assert_eq!(unique, ram_unique, "unique accesses");
    }

    /// The walk fetches each node it visits exactly once, so the pool
    /// sees one look-up per unique access — the page read order
    /// `results/abl_store.csv`'s hit ratios depend on.
    #[test]
    fn each_unique_node_visit_is_one_pool_lookup() {
        let (paged, _, _) = open_small("lookups.pages", 4, CachePolicy::MotionAware);
        let ws = windows();
        for w in &ws {
            let before = paged.cache_stats().lookups;
            let unique = search(&paged.nodes(), w, |_, _| {});
            assert_eq!(paged.cache_stats().lookups - before, unique);
        }
        let before = paged.cache_stats().lookups;
        let mut per_window = vec![0u64; ws.len()];
        let unique = search_batch_into(&paged.nodes(), &ws, &mut per_window, |_, _, _| {});
        assert_eq!(paged.cache_stats().lookups - before, unique);
        assert!(unique < per_window.iter().sum(), "the group shares nodes");
    }

    #[test]
    fn payload_touches_fault_then_hit() {
        let (paged, _, d) = open_small("payload.pages", 32, CachePolicy::Lru);
        let id = d.records[0].id;
        assert_eq!(paged.cache_stats(), PageCacheStats::default());
        paged.touch_payload(id);
        paged.touch_payload(id);
        let s = paged.cache_stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.faults, 1);
        assert_eq!(s.hits, 1);
        let got = paged.read_record(id).expect("record");
        assert_eq!(got.id, id);
        assert_eq!(got.w, d.records[0].w);
        assert_eq!(got.support_xy, d.records[0].support_xy);
        assert_eq!(
            paged.read_record(CoeffRef {
                object: u32::MAX,
                coeff: 0
            }),
            None
        );
    }

    /// A coefficient index past its object's records names no record:
    /// not the next object's first one, and not an overflowed sum.
    #[test]
    fn an_out_of_range_coefficient_names_no_record() {
        let (paged, _, d) = open_small("range.pages", 32, CachePolicy::Lru);
        let offsets = &paged.meta().obj_offsets;
        let first_count = offsets[1] - offsets[0];
        let last = d.records.last().expect("records").id;
        assert_eq!(
            paged.meta().record_index(last),
            Some(paged.meta().n_records - 1)
        );
        for id in [
            CoeffRef {
                object: 0,
                coeff: first_count,
            },
            CoeffRef {
                object: 1,
                coeff: u32::MAX,
            },
            CoeffRef {
                coeff: last.coeff + 1,
                ..last
            },
        ] {
            assert_eq!(paged.read_record(id), None, "{id:?}");
            paged.touch_payload(id);
        }
        assert_eq!(paged.cache_stats().lookups, 0, "no page was looked up");
    }

    #[test]
    fn motion_observations_feed_the_heat_field() {
        let (paged, _, _) = open_small("motion.pages", 4, CachePolicy::MotionAware);
        assert_eq!(paged.motion_sessions(), 0);
        for i in 0..5 {
            paged.observe_motion(7, Point2::new([100.0 + 10.0 * i as f64, 500.0]));
        }
        assert_eq!(paged.motion_sessions(), 1);
        paged.forget_motion(7);
        assert_eq!(paged.motion_sessions(), 0);
        assert!(paged.validate().is_ok());
    }

    /// Eviction decisions are a pure function of the heats, so a heat
    /// kernel that changes one bit somewhere it matters shows up here:
    /// the goldens were captured on the commit before the dense heat
    /// table, the `atan2`-free sector test and the per-epoch memo (PR 14).
    /// An 8-page pool ranks its two least-recent pages on every fault,
    /// and the same tour under `CachePolicy::Lru` faults 151 times, not
    /// 135 — the trace depends on the heats.
    #[test]
    fn two_session_tour_reproduces_the_pre_memo_decisions() {
        const EVICTED: [u32; 127] = [
            2, 72, 71, 70, 69, 68, 67, 30, 29, 2, 72, 71, 70, 68, 67, 69, 30, 29, 2, 72, 71, 70,
            68, 67, 69, 30, 29, 2, 72, 71, 70, 68, 67, 69, 30, 2, 29, 72, 71, 70, 68, 67, 69, 30,
            4, 72, 71, 70, 69, 0, 2, 30, 1, 20, 18, 17, 0, 2, 30, 29, 20, 18, 17, 2, 30, 29, 1, 20,
            19, 18, 17, 2, 30, 29, 1, 20, 19, 18, 17, 2, 30, 29, 1, 20, 19, 18, 17, 3, 47, 46, 45,
            1, 21, 20, 19, 18, 17, 91, 89, 88, 90, 3, 54, 48, 47, 46, 45, 1, 21, 20, 19, 18, 17,
            91, 90, 88, 0, 3, 56, 55, 54, 53, 48, 47, 46, 45, 1,
        ];
        let (paged, _, _) = open_small("golden.pages", 8, CachePolicy::MotionAware);
        paged.lock_pager().cache.set_trace(true);
        let half = Vector::new([60.0, 60.0]);
        for t in 0..40u32 {
            let f = t as f64 / 39.0;
            if t == 30 {
                paged.forget_motion(2);
            }
            let tour = [
                (1u64, [100.0 + 800.0 * f, 300.0 + 100.0 * f]),
                (2u64, [900.0 - 800.0 * f, 700.0 - 200.0 * f]),
            ];
            for (session, at) in tour {
                if session == 2 && t >= 30 {
                    continue;
                }
                let pos = Point2::new(at);
                paged.observe_motion(session, pos);
                let window = Rect2::new(pos - half, pos + half).lift(0.0, 1.0);
                let mut hits = Vec::new();
                search(&paged.nodes(), &window, |leaf, i| {
                    hits.push(coeff_ref(leaf, i))
                });
                for id in hits.iter().step_by(7).take(6) {
                    paged.touch_payload(*id);
                }
            }
        }
        assert_eq!(take_evictions(&paged), EVICTED);
        assert_eq!(
            paged.cache_stats(),
            PageCacheStats {
                lookups: 376,
                hits: 241,
                faults: 135,
                evictions: 127,
                bypasses: 0,
            }
        );
        assert_eq!(
            paged.io_snapshot(),
            IoSnapshot {
                logical: 359,
                unique: 359,
                physical: 135,
            }
        );
    }

    /// A memoised heat must not outlive the motion it was computed from:
    /// with the pool's two ranked candidates being coefficient pages A
    /// and B, a session sitting on A makes B the victim; once the session
    /// has moved onto B the very next fault must evict A, and once it has
    /// disconnected the next one falls back to recency — although both
    /// pages' heats were memoised before each change.
    #[test]
    fn moving_or_forgetting_a_session_invalidates_memoised_heats() {
        let (paged, _, d) = open_small("stale.pages", 8, CachePolicy::MotionAware);
        let meta = paged.meta().clone();
        let coeff_pages: Vec<u32> = (meta.node_pages..meta.data_pages()).collect();
        let region = |p: u32| meta.regions[p as usize];
        let id_on = |p: u32| d.records[((p - meta.node_pages) * meta.records_per_page) as usize].id;
        let touch = |p: u32| paged.touch_payload(id_on(p));
        let resident = |p: u32| paged.lock_pager().cache.contains(p);

        // A, B: two coefficient pages neither of whose regions reaches the
        // other's centre; fillers: pages that cover neither centre, so a
        // session standing on A or B heats that page strictly most.
        let a = coeff_pages[0];
        let at_a = region(a).center();
        let b = *coeff_pages
            .iter()
            .find(|&&p| {
                !region(p).contains_point(&at_a) && !region(a).contains_point(&region(p).center())
            })
            .expect("a coefficient page away from A");
        let at_b = region(b).center();
        let fillers: Vec<u32> = coeff_pages
            .iter()
            .copied()
            .filter(|&p| {
                p != a
                    && p != b
                    && !region(p).contains_point(&at_a)
                    && !region(p).contains_point(&at_b)
            })
            .collect();
        assert!(fillers.len() >= 9, "scene too small: {fillers:?}");
        let (fill, fresh) = fillers.split_at(6);

        // Pool (8 pages, least recent first): A, B, six fillers.
        touch(a);
        touch(b);
        fill.iter().for_each(|&p| touch(p));
        paged.lock_pager().cache.set_trace(true);

        // Session on A: B is the colder candidate. Memoises both heats.
        paged.observe_motion(1, at_a);
        touch(fresh[0]);
        assert_eq!(take_evictions(&paged), [b]);

        // Restore "A, B least recent" without a motion change: A (hit),
        // B (faults over one of the two oldest fillers), then re-touch
        // every other resident page.
        touch(a);
        touch(b);
        for &p in fill.iter().chain(&fresh[..1]) {
            if resident(p) {
                touch(p);
            }
        }
        assert_eq!(take_evictions(&paged).len(), 1);
        assert!(resident(a) && resident(b));

        // The session moves onto B. The stale memo says "A hot, B cold".
        paged.observe_motion(1, at_b);
        touch(fresh[1]);
        assert_eq!(
            take_evictions(&paged),
            [a],
            "observe_motion must drop the memo"
        );

        // B is now least recent and memoised as maximally hot. With the
        // session gone every heat ties, so recency picks B.
        paged.forget_motion(1);
        touch(fresh[2]);
        assert_eq!(
            take_evictions(&paged),
            [b],
            "forget_motion must drop the memo"
        );
    }

    /// One corrupt page must cost one query, not the server: the panic
    /// happens after the pager guard is dropped, so the mutex is not
    /// poisoned and every other session keeps being served — under either
    /// policy; only the motion-aware pool keeps the survivor's motion.
    #[test]
    fn a_corrupt_page_panics_one_query_without_poisoning_the_pager() {
        for policy in [CachePolicy::MotionAware, CachePolicy::Lru] {
            let (paged, _, d, path) = open_small_at("corrupt.pages", 8, policy);
            // Flip one payload byte of the last coefficient page on disk, after
            // the open-time validation and before anything has read it.
            let bad_page = paged.meta().data_pages() - 1;
            let bad_id = d.records.last().expect("records").id;
            let offset = mar_store::PAGE_SIZE as u64 * (1 + bad_page as u64) + 17;
            let mut bytes = std::fs::read(&path).expect("read store");
            bytes[offset as usize] ^= 0x40;
            std::fs::write(&path, &bytes).expect("rewrite store");

            let before = paged.cache_stats();
            std::thread::scope(|s| {
                let victim = s.spawn(|| paged.touch_payload(bad_id));
                assert!(
                    victim.join().is_err(),
                    "a bad checksum must panic the query"
                );
            });
            let after = paged.cache_stats();
            assert_eq!(after.lookups, before.lookups + 1);
            assert_eq!(
                after.faults, before.faults,
                "the failed read admitted nothing"
            );
            std::thread::scope(|s| {
                let survivor = s.spawn(|| {
                    paged.observe_motion(9, Point2::new([500.0, 500.0]));
                    search(&paged.nodes(), &windows()[0], |_, _| {})
                });
                assert!(survivor.join().expect("other sessions keep working") > 0);
            });
            let motion_aware = policy == CachePolicy::MotionAware;
            assert_eq!(paged.motion_sessions(), usize::from(motion_aware));
        }
    }

    /// Four threads hammer an 8-page pool of each policy — overlapping
    /// page sets, so concurrent misses of one page, hits during another
    /// thread's read and evictions (under a moving heat field, for the
    /// motion-aware pool) all occur.
    /// Every byte served is the file's, and the accounting identities the
    /// one-thread path has by construction hold with the read unlocked.
    #[test]
    fn four_threads_share_the_pool_without_losing_a_count_or_a_byte() {
        const THREADS: u32 = 4;
        const READS: u32 = 3000;
        for policy in [CachePolicy::MotionAware, CachePolicy::Lru] {
            let (paged, _, _, path) = open_small_at("stress.pages", 8, policy);
            let raw = PageFile::open(&path).expect("open raw");
            let pages = paged.meta().data_pages();
            let want: Vec<Vec<u8>> = (0..pages).map(|p| raw.read_at(p).expect("raw")).collect();
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (paged, want, start) = (&paged, &want, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut x = 0x9e37_79b9_u32.wrapping_mul(t + 1);
                        for i in 0..READS {
                            // xorshift: a hot dozen pages most of the time, a
                            // sweep of the whole store otherwise.
                            x ^= x << 13;
                            x ^= x >> 17;
                            x ^= x << 5;
                            let page = (x >> 2) % if x & 3 == 0 { pages } else { 12 };
                            if i & 15 == 0 {
                                let at = f64::from(x % 1000);
                                paged.observe_motion(u64::from(t), Point2::new([at, 1000.0 - at]));
                            }
                            assert_eq!(*paged.page(page), want[page as usize], "page {page}");
                        }
                        paged.forget_motion(u64::from(t));
                    });
                }
            });
            let stats = paged.cache_stats();
            assert_eq!(stats.lookups, u64::from(THREADS * READS));
            assert_eq!(stats.lookups, stats.hits + stats.faults);
            assert_eq!(paged.io_snapshot().physical, stats.faults);
            assert!(stats.evictions > 0 && stats.hits > 0);
            let pager = paged.lock_pager();
            pager.cache.validate().expect("pool structure");
            let resident = (0..pages).filter(|&p| pager.cache.contains(p)).count();
            assert!(resident <= pager.cache.capacity_pages());
        }
    }

    /// Four threads walk moving windows over an 8-page pool of each policy
    /// and touch the payload pages of what they find, so hits are served
    /// from residency records while other threads' faults evict pages
    /// under them; each thread exits right after its last query, leaving
    /// its pending hits unreplayed. After the join every look-up is a hit
    /// or a fault, every fault one physical read, every node visit and
    /// payload touch one look-up, the pool is sound and every page served
    /// was the file's.
    #[test]
    fn four_threads_walking_and_touching_payloads_balance_the_pool() {
        const THREADS: u32 = 4;
        const QUERIES: u32 = 400;
        for policy in [CachePolicy::MotionAware, CachePolicy::Lru] {
            let (paged, _, _, path) = open_small_at("walk.pages", 8, policy);
            let mut raw = PageFile::open(&path).expect("open raw");
            let want: Vec<Vec<u8>> = (0..paged.meta().data_pages())
                .map(|p| raw.read_page_vec(p).expect("raw"))
                .collect();
            let touches = AtomicU64::new(0);
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (paged, want, touches, start) = (&paged, &want, &touches, &start);
                    s.spawn(move || {
                        let served = |page: u32| {
                            let bytes = paged.page(page);
                            assert_eq!(*bytes, want[page as usize], "page {page}");
                            bytes
                        };
                        let nodes = PageSource {
                            fetch: |id| NodePage::parse(served(id), REF_SIZE).expect("node page"),
                            io: &paged.io,
                        };
                        let half = Vector::new([90.0, 90.0]);
                        let phase = f64::from(t) / f64::from(THREADS);
                        start.wait();
                        for q in 0..QUERIES {
                            let f = f64::from(q) / f64::from(QUERIES);
                            let at = Point2::new([
                                100.0 + 800.0 * ((f + phase) % 1.0),
                                100.0 + 800.0 * ((3.0 * f + phase) % 1.0),
                            ]);
                            paged.observe_motion(u64::from(t), at);
                            let window = Rect2::new(at - half, at + half).lift(0.0, 1.0);
                            let mut hits = Vec::new();
                            search(&nodes, &window, |leaf, i| hits.push(coeff_ref(leaf, i)));
                            for &id in hits.iter().step_by(5) {
                                let rec = paged.meta().record_index(id).expect("a stored record");
                                served(paged.meta().record_page(rec).0);
                                touches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            let stats = paged.cache_stats();
            let io = paged.io_snapshot();
            assert_eq!(stats.lookups, stats.hits + stats.faults);
            assert_eq!(io.physical, stats.faults);
            assert_eq!(stats.lookups, io.logical + touches.into_inner());
            assert!(stats.evictions > 0 && stats.hits > 0);
            paged.lock_pager().cache.validate().expect("pool structure");
        }
    }

    /// Four threads observe and forget motion at once through the split
    /// `observe_motion`. Each drives four sessions of its own, whose joins
    /// and leaves shift the other threads' rows between their two holds
    /// of the pager, and one step in sixteen is a NaN. All of them also
    /// observe and forget one shared session that only ever stands at one
    /// point, so that two threads often both read it untracked and the
    /// later write finds it joined — whatever the order, a row it has is
    /// the row of one join there. Once the threads are done and the shared
    /// session is observed once more, the field is a serial replay of each
    /// session's own sequence: the same sessions and every heat bit for
    /// bit.
    #[test]
    fn four_threads_observing_motion_equal_a_serial_replay() {
        const THREADS: u64 = 4;
        const STEPS: u64 = 20_000;
        const SHARED: u64 = 1 << 20;
        let (paged, _, _) = open_small("observe.pages", 4, CachePolicy::MotionAware);
        let shared_at = Point2::new([500.0, 500.0]);
        // Thread `t`'s step `i`: a session and its new position, or `None`
        // for a forget.
        let script = |t: u64, i: u64| {
            let mut x = (t << 32 | i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 29;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 32;
            let own = t + THREADS * (x >> 4 & 3);
            let at = |v: u64| (v & 15) as f64 * 60.0;
            match x & 15 {
                0..=2 => (SHARED, Some(shared_at)),
                3 => (SHARED, None),
                4 => (own, None),
                5 => (own, Some(Point2::new([f64::NAN, 0.0]))),
                _ => (own, Some(Point2::new([at(x >> 8), at(x >> 12)]))),
            }
        };
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (paged, start) = (&paged, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..STEPS {
                        match script(t, i) {
                            (session, Some(pos)) => paged.observe_motion(session, pos),
                            (session, None) => paged.forget_motion(session),
                        }
                    }
                });
            }
        });
        paged.observe_motion(SHARED, shared_at);
        let mut serial = MotionHeat::server_default(paged.heat_scale);
        for t in 0..THREADS {
            for i in 0..STEPS {
                match script(t, i) {
                    (SHARED, _) => {}
                    (session, Some(pos)) => serial.observe(session, pos),
                    (session, None) => serial.forget(session),
                }
            }
        }
        serial.observe(SHARED, shared_at);
        let pager = paged.lock_pager();
        assert_eq!(pager.heat.session_count(), serial.session_count());
        let more = [
            Rect2::new(shared_at, shared_at),
            Rect2::new(Point2::new([-1e4, -1e4]), Point2::new([1e4, 1e4])),
        ];
        for r in paged.meta().regions.iter().chain(&more) {
            assert_eq!(
                pager.heat.heat_rect(r).to_bits(),
                serial.heat_rect(r).to_bits(),
                "heat of {r:?}"
            );
        }
    }

    /// A window of NaNs reaches `observe_motion` as a NaN position. It
    /// must not reach the heat field: every heat would sum to NaN, `<`
    /// would never hold and the victim scan would degrade to LRU for
    /// every session until the sender next reports a finite position —
    /// which the sender here, silent afterwards, never does.
    #[test]
    fn a_nan_window_leaves_the_eviction_trace_alone() {
        use crate::server::{QueryRegion, Server, ServerCore};

        let tour = |with_nan: bool| {
            let d = Arc::new(data());
            let path = tmp("nan.pages");
            write_store(&path, &d).expect("write");
            let index =
                WaveletIndex::open_paged(&path, 8 * mar_store::PAGE_SIZE, CachePolicy::MotionAware)
                    .expect("open");
            let server = Server::from_core(ServerCore::from_parts(d, Arc::new(index)));
            let paged = server.index().paged().expect("paged backend");
            paged.lock_pager().cache.set_trace(true);
            let (a, b) = (server.connect(), server.connect());
            let half = Vector::new([60.0, 60.0]);
            let ask = |session: u64, region: Rect2| {
                let q = [QueryRegion {
                    region,
                    band: ResolutionBand::FULL,
                }];
                server.query(session, &q).expect("live session");
            };
            for t in 0..40u32 {
                let f = t as f64 / 39.0;
                let at_a = Point2::new([100.0 + 800.0 * f, 300.0 + 100.0 * f]);
                let at_b = Point2::new([900.0 - 800.0 * f, 700.0 - 200.0 * f]);
                ask(a, Rect2::new(at_a - half, at_a + half));
                // Session b tours for 20 ticks, then stays connected and
                // silent — after one NaN window, or after none.
                if t < 20 {
                    ask(b, Rect2::new(at_b - half, at_b + half));
                } else if t == 20 && with_nan {
                    let nan = Point2::new([f64::NAN, f64::NAN]);
                    ask(b, Rect2 { lo: nan, hi: nan });
                }
            }
            take_evictions(paged)
        };
        let clean = tour(false);
        assert!(clean.len() > 50, "the pool must be under pressure");
        assert_eq!(tour(true), clean);
    }
}
