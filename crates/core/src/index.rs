//! The efficient wavelet index (§VI-B).
//!
//! A 3-D R*-tree over `(x, y, w)`: the spatial dimensions hold the MBR of
//! each coefficient's **support region**, the third holds the coefficient's
//! (degenerate, point-valued) normalised magnitude. The experimental setup
//! of §VII-D — the paper implements exactly this "3D (x−y−w) R*-tree" with
//! 4 KB pages and node capacity 20.
//!
//! A window query `Q(R, w_max, w_min)` lifts `R` by the band
//! `[w_min, w_max]` and runs a single tree search: because support regions
//! are indexed (not vertex positions), every coefficient that contributes
//! any detail inside `R` intersects the lifted window — no neighbour
//! chasing, no second pass, and by the §VI-B minimality argument nothing
//! retrieved can be dropped without losing detail inside `R`.
//!
//! That search is written once, in `mar-rtree` ([`mar_rtree::search`],
//! grouped: [`mar_rtree::search_batch_into`]), over a
//! [`mar_rtree::NodeSource`]; [`WaveletIndex`] hands it the in-RAM arena
//! or the page store behind a buffer pool ([`PagedIndex`]) — or, for a
//! shard [`Fleet`], routes the window and hands it each task's shard.

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::fleet::{Fleet, FleetConfig, FleetError};
use crate::paged::{coeff_ref, PagedIndex};
use mar_geom::{Point2, Rect2, Rect3};
use mar_mesh::ResolutionBand;
use mar_rtree::{search, search_batch_into, BatchAccesses, IoSnapshot, RTree, RTreeConfig};
use mar_store::{CachePolicy, PageCacheStats, StoreError};
use std::cell::Cell;
use std::path::Path;

thread_local! {
    /// Reusable buffer for the lifted windows of one batched descent —
    /// taken, cleared and put back like `mar-rtree`'s traversal stacks, so
    /// steady-state batches allocate nothing.
    static WINDOWS: Cell<Vec<Rect3>> = const { Cell::new(Vec::new()) };
}

/// Where the index's nodes live: the flat in-RAM arena, a page file
/// read through a buffer pool, or a fleet of shard
/// indexes, each one of the first two. Every query below hands the arena
/// or the pages to the same walk, so answers, hit order and access counts
/// are byte-identical: the code is shared, not mirrored.
#[derive(Debug)]
enum Backend {
    Ram(RTree<3, CoeffRef>),
    /// Boxed: the pager (pool, heat field) is several times
    /// the size of the RAM tree's handle.
    Paged(Box<PagedIndex>),
    /// Boxed for the same reason.
    Sharded(Box<Fleet>),
}

/// The support-region index.
#[derive(Debug)]
pub struct WaveletIndex {
    backend: Backend,
}

impl WaveletIndex {
    /// Bulk-loads the index from scene data with the paper's page
    /// geometry.
    pub fn build(data: &SceneIndexData) -> Self {
        Self::build_with(data, RTreeConfig::paper())
    }

    /// Bulk-loads with a custom tree configuration.
    pub fn build_with(data: &SceneIndexData, config: RTreeConfig) -> Self {
        Self {
            backend: Backend::Ram(RTree::bulk_load(config, Self::items(data))),
        }
    }

    /// Bulk-loads across up to `jobs` threads via the deterministic
    /// parallel STR loader — the produced tree is identical in shape to
    /// [`WaveletIndex::build`] (see [`RTree::bulk_load_jobs`]).
    pub fn build_jobs(data: &SceneIndexData, jobs: usize) -> Self {
        Self {
            backend: Backend::Ram(RTree::bulk_load_jobs(
                RTreeConfig::paper(),
                Self::items(data),
                jobs,
            )),
        }
    }

    fn items(data: &SceneIndexData) -> Vec<(Rect3, CoeffRef)> {
        data.records
            .iter()
            .map(|r| (r.support_xy.lift(r.w, r.w), r.id))
            .collect()
    }

    /// Wraps an externally built tree (e.g. one filled by incremental
    /// insertion) — used by the index-construction ablation.
    pub fn from_tree(tree: RTree<3, CoeffRef>) -> Self {
        Self {
            backend: Backend::Ram(tree),
        }
    }

    /// Opens a disk-backed index over the store image at `path` (written
    /// by [`crate::store::write_store`]), reading node and payload pages
    /// through a buffer pool of `budget_bytes` with the given eviction
    /// policy. Query answers are byte-identical to the in-RAM build the
    /// store was exported from.
    pub fn open_paged(
        path: &Path,
        budget_bytes: usize,
        policy: CachePolicy,
    ) -> Result<Self, StoreError> {
        Ok(Self {
            backend: Backend::Paged(Box::new(PagedIndex::open(path, budget_bytes, policy)?)),
        })
    }

    /// Partitions `data` over an `nx × ny` shard fleet over `space`
    /// (DESIGN.md §10, "The fleet backend"), each shard an index on
    /// `cfg.backend`. All-up answers equal [`WaveletIndex::build`]'s as
    /// sets; a halo hit is visited once per routed shard holding it.
    pub fn build_fleet(
        data: &SceneIndexData,
        space: Rect2,
        cfg: &FleetConfig,
    ) -> Result<Self, FleetError> {
        Ok(Self {
            backend: Backend::Sharded(Box::new(Fleet::build(data, space, cfg)?)),
        })
    }

    /// True when this index reads pages from disk (a fleet: when its
    /// shards do).
    pub fn is_paged(&self) -> bool {
        self.paged().is_some() || self.fleet().is_some_and(|fleet| fleet.paged)
    }

    /// The in-RAM tree, when this index has one (store export needs it).
    pub(crate) fn ram_tree(&self) -> Option<&RTree<3, CoeffRef>> {
        match &self.backend {
            Backend::Ram(tree) => Some(tree),
            _ => None,
        }
    }

    /// The paged backend, when this index has one.
    pub fn paged(&self) -> Option<&PagedIndex> {
        match &self.backend {
            Backend::Paged(p) => Some(p),
            _ => None,
        }
    }

    /// The shard fleet, when this index is one.
    pub fn fleet(&self) -> Option<&Fleet> {
        match &self.backend {
            Backend::Sharded(fleet) => Some(fleet),
            _ => None,
        }
    }

    /// Number of indexed coefficients (a fleet counts each once).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Ram(tree) => tree.len(),
            Backend::Paged(p) => p.len(),
            Backend::Sharded(fleet) => fleet.len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tree nodes (pages).
    pub fn node_count(&self) -> usize {
        match &self.backend {
            Backend::Ram(tree) => tree.node_count(),
            Backend::Paged(p) => p.node_count(),
            Backend::Sharded(fleet) => fleet.indexes().map(Self::node_count).sum(),
        }
    }

    /// Executes `Q(R, w_max, w_min)` as a visitor: `visit` is called once
    /// per matching coefficient, in index search order, without
    /// materialising a hit vector. Returns the node accesses (I/O).
    ///
    /// This is the single query path — [`WaveletIndex::query`] and every
    /// server entry point, session-filtered or stateless, route here, so
    /// the answers cannot drift apart.
    pub fn for_each(
        &self,
        region: &Rect2,
        band: ResolutionBand,
        mut visit: impl FnMut(CoeffRef),
    ) -> u64 {
        self.walk(region, band, &mut visit)
    }

    /// [`WaveletIndex::for_each`] with the visitor by reference: the fleet
    /// walks each shard's index with its caller's visitor, so a fleet
    /// query instantiates this once per visitor type, not once per level.
    #[inline(always)]
    pub(crate) fn walk<F: FnMut(CoeffRef)>(
        &self,
        region: &Rect2,
        band: ResolutionBand,
        visit: &mut F,
    ) -> u64 {
        let window: Rect3 = region.lift(band.w_min, band.w_max);
        match &self.backend {
            Backend::Ram(tree) => search(tree, &window, |leaf, i| visit(*leaf.item(i))),
            Backend::Paged(p) => search(&p.nodes(), &window, |leaf, i| visit(coeff_ref(leaf, i))),
            Backend::Sharded(fleet) => fleet.for_each(region, band, visit),
        }
    }

    /// Executes a batch of window queries in one grouped descent: every
    /// tree node shared by several of the `queries` is visited once
    /// physically, while the returned [`BatchAccesses`] still reports the
    /// per-query *logical* accesses — exactly what [`WaveletIndex::for_each`]
    /// would have counted query by query. `visit(q, id)` receives the
    /// query's index within `queries` plus the matching coefficient; for
    /// any single `q` the visit order equals the scalar search order.
    pub fn for_each_batch(
        &self,
        queries: &[(Rect2, ResolutionBand)],
        visit: impl FnMut(usize, CoeffRef),
    ) -> BatchAccesses {
        let mut per_window = vec![0u64; queries.len()];
        let unique = self.for_each_batch_into(queries, &mut per_window, visit);
        BatchAccesses { per_window, unique }
    }

    /// [`WaveletIndex::for_each_batch`] into a caller-owned tally — what
    /// the server's query paths call with a reused buffer: `per_window`
    /// (one slot per query) is overwritten with the logical accesses and
    /// the unique physical visits are returned.
    pub fn for_each_batch_into(
        &self,
        queries: &[(Rect2, ResolutionBand)],
        per_window: &mut [u64],
        mut visit: impl FnMut(usize, CoeffRef),
    ) -> u64 {
        let mut windows = WINDOWS.take();
        windows.clear();
        windows.extend(
            queries
                .iter()
                .map(|(region, band)| region.lift(band.w_min, band.w_max)),
        );
        let unique = match &self.backend {
            Backend::Ram(tree) => search_batch_into(tree, &windows, per_window, |q, leaf, i| {
                visit(q, *leaf.item(i))
            }),
            Backend::Paged(p) => {
                search_batch_into(&p.nodes(), &windows, per_window, |q, leaf, i| {
                    visit(q, coeff_ref(leaf, i))
                })
            }
            Backend::Sharded(fleet) => fleet.for_each_batch_into(queries, per_window, &mut visit),
        };
        WINDOWS.set(windows);
        unique
    }

    /// Executes `Q(R, w_max, w_min)`: every coefficient whose support
    /// region intersects `region` and whose magnitude lies in `band`.
    /// Returns the hits and the node accesses (I/O).
    pub fn query(&self, region: &Rect2, band: ResolutionBand) -> (Vec<CoeffRef>, u64) {
        let mut hits = Vec::new();
        let io = self.for_each(region, band, |id| hits.push(id));
        (hits, io)
    }

    /// Cumulative I/O across queries (see [`mar_rtree::RTree::io_count`]).
    pub fn io_count(&self) -> u64 {
        self.io_snapshot().logical
    }

    /// Snapshot of the logical / unique / physical access counters (a
    /// fleet sums its shards'). The RAM backend never performs a physical
    /// read (`physical` stays 0).
    pub fn io_snapshot(&self) -> IoSnapshot {
        match &self.backend {
            Backend::Ram(tree) => tree.io_snapshot(),
            Backend::Paged(p) => p.io_snapshot(),
            Backend::Sharded(fleet) => fleet.io_snapshot(),
        }
    }

    /// Resets the cumulative I/O counters.
    pub fn reset_io(&self) {
        match &self.backend {
            Backend::Ram(tree) => tree.reset_io(),
            Backend::Paged(p) => p.reset_io(),
            Backend::Sharded(fleet) => fleet.indexes().for_each(Self::reset_io),
        }
    }

    /// Touches the payload page holding `id`'s coefficient record — the
    /// disk trip transmitting a hit performs (a fleet touches one shard's
    /// copy). A no-op in RAM, where payloads live in [`SceneIndexData`].
    pub fn touch_payload(&self, id: CoeffRef) {
        match &self.backend {
            Backend::Ram(_) => {}
            Backend::Paged(p) => p.touch_payload(id),
            Backend::Sharded(fleet) => fleet.touch_payload(id),
        }
    }

    /// Feeds a session's current window centre into the Eq. 2 heat field
    /// ranking the buffer pool (every shard's, in a fleet). A no-op in RAM.
    pub fn observe_motion(&self, session: u64, pos: Point2) {
        match &self.backend {
            Backend::Ram(_) => {}
            Backend::Paged(p) => p.observe_motion(session, pos),
            Backend::Sharded(fleet) => fleet.indexes().for_each(|i| i.observe_motion(session, pos)),
        }
    }

    /// Drops a session's heat contribution. A no-op in RAM.
    pub fn forget_motion(&self, session: u64) {
        match &self.backend {
            Backend::Ram(_) => {}
            Backend::Paged(p) => p.forget_motion(session),
            Backend::Sharded(fleet) => fleet.indexes().for_each(|i| i.forget_motion(session)),
        }
    }

    /// Buffer-pool counters, when this index reads through one pool (a
    /// fleet's shard pools answer through [`Fleet::shard`]).
    pub fn cache_stats(&self) -> Option<PageCacheStats> {
        self.paged().map(PagedIndex::cache_stats)
    }

    /// Validates the underlying backend (tests).
    pub fn validate(&self) -> Result<(), String> {
        match &self.backend {
            Backend::Ram(tree) => tree.validate(),
            Backend::Paged(p) => p.validate(),
            Backend::Sharded(fleet) => fleet.indexes().try_for_each(Self::validate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::Point2;
    use mar_workload::{Scene, SceneConfig};

    fn data() -> SceneIndexData {
        let mut cfg = SceneConfig::paper(6, 3);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        SceneIndexData::build(&Scene::generate(cfg))
    }

    fn brute(data: &SceneIndexData, region: &Rect2, band: ResolutionBand) -> Vec<CoeffRef> {
        let mut v: Vec<CoeffRef> = data
            .records
            .iter()
            .filter(|r| r.support_xy.intersects(region) && band.contains(r.w))
            .map(|r| r.id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn index_holds_every_coefficient() {
        let d = data();
        let idx = WaveletIndex::build(&d);
        assert_eq!(idx.len(), d.len());
        idx.validate().expect("valid tree");
    }

    #[test]
    fn query_matches_bruteforce_over_bands_and_windows() {
        let d = data();
        let idx = WaveletIndex::build(&d);
        let windows = [
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0])),
            Rect2::new(Point2::new([100.0, 100.0]), Point2::new([400.0, 350.0])),
            Rect2::new(Point2::new([700.0, 600.0]), Point2::new([760.0, 690.0])),
        ];
        let bands = [
            ResolutionBand::FULL,
            ResolutionBand::new(0.5, 1.0),
            ResolutionBand::new(0.2, 0.7),
            ResolutionBand::COARSEST,
        ];
        for w in &windows {
            for b in &bands {
                let (mut got, io) = idx.query(w, *b);
                got.sort_unstable();
                assert!(io >= 1);
                assert_eq!(got, brute(&d, w, *b), "window {w:?} band {b:?}");
            }
        }
    }

    #[test]
    fn narrower_bands_cost_less_io() {
        let d = data();
        let idx = WaveletIndex::build(&d);
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        let (_, io_full) = idx.query(&w, ResolutionBand::FULL);
        let (_, io_top) = idx.query(&w, ResolutionBand::COARSEST);
        assert!(
            io_top < io_full,
            "coarsest band {io_top} must beat full {io_full}"
        );
    }

    #[test]
    fn empty_region_returns_nothing() {
        let d = data();
        let idx = WaveletIndex::build(&d);
        let w = Rect2::new(Point2::new([-500.0, -500.0]), Point2::new([-400.0, -400.0]));
        let (got, _) = idx.query(&w, ResolutionBand::FULL);
        assert!(got.is_empty());
    }
}
