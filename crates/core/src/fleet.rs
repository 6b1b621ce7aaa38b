//! The fleet backend: spatial partitioning, scatter-gather routing and
//! shard failover behind one [`WaveletIndex`] (DESIGN.md §10, "The
//! fleet backend").
//!
//! The ground plane is a grid of **shards**, each its own
//! [`WaveletIndex`] (RAM or paged) over the coefficients whose supports
//! touch its tile — every such shard, not just the one holding the
//! centre (halo replication). A [`Fleet`] is `WaveletIndex`'s third
//! backend: its window walk asks the stateless [`Router`] to cut the
//! window into per-shard sub-rectangles ([`GridSpec::partition_rect`])
//! and walks each task's shard index in task order — ascending shard id
//! — with the caller's visitor. It is reached like any index, through
//! `ServerCore::from_parts` and the one [`crate::Server`], whose session
//! filter collapses the halo duplicates.
//!
//! Tiles, the router's block choice and its clip edges all read one seam
//! expression ([`GridSpec::seam`]), so each sub-rect lies inside its tile
//! bit for bit and the sub-rects cover `window ∩ space` without a gap: a
//! support meeting the window meets a sub-rect, hence lives on its shard,
//! and the union of shard answers is exactly the unsharded answer.
//!
//! Health is a [`FleetHealth`] down-mask in an atomic word
//! ([`Fleet::set_health`]); a walk plans under the word it reads when it
//! starts. Per sub-rect [`Router::plan`] picks the **primary** (owner
//! up), a **replica** (owner down, replicas configured: the same index
//! serves at the same band), every live ring-1 neighbour at a coarsened
//! band (**degraded**: their halos cover the tile's border, and the plan
//! is incomplete so clients refetch after recovery), or nobody
//! (**unserved**, counted, never an error).

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use crate::server::Residence;
use mar_geom::{BlockId, GridSpec, Point2, Rect2};
use mar_mesh::ResolutionBand;
use mar_rtree::IoSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed failure of building a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The shard grid must have between 1 and 64 shards (health is a
    /// 64-bit mask; a bigger fleet would need a wider word).
    BadShardGrid {
        /// Requested shard columns.
        nx: u32,
        /// Requested shard rows.
        ny: u32,
    },
    /// Building a paged shard backend failed (store I/O).
    Store(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadShardGrid { nx, ny } => {
                write!(f, "shard grid {nx}x{ny} must have 1..=64 shards")
            }
            Self::Store(e) => write!(f, "shard store backend: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// The fleet's ground-plane partition: a [`GridSpec`] whose blocks are
/// shards, with the row-major block↔shard-id bijection pinned here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMap {
    grid: GridSpec,
}

impl ShardMap {
    /// Partitions `space` into `nx × ny` shard tiles.
    pub fn new(space: Rect2, nx: u32, ny: u32) -> Result<Self, FleetError> {
        let count = u64::from(nx) * u64::from(ny);
        if count == 0 || count > 64 {
            return Err(FleetError::BadShardGrid { nx, ny });
        }
        Ok(Self {
            grid: GridSpec::new(space, nx, ny),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        (self.grid.block_count()) as u32
    }

    /// The shard owning grid block `b` (row-major id).
    pub fn shard_of_block(&self, b: &BlockId) -> u32 {
        (b.iy * i64::from(self.grid.nx) + b.ix) as u32
    }

    /// The grid block of shard `s`.
    pub fn block_of_shard(&self, s: u32) -> BlockId {
        BlockId::new(i64::from(s % self.grid.nx), i64::from(s / self.grid.nx))
    }

    /// Shard `s`'s tile: the closed rectangle between its seams
    /// ([`GridSpec::seam`]). Placement tests supports against exactly this
    /// rectangle, and every sub-rect [`ShardMap::route`] gives the shard
    /// lies inside it.
    pub fn tile(&self, s: u32) -> Rect2 {
        let b = self.block_of_shard(s);
        let g = &self.grid;
        Rect2::from_corners(
            Point2::new([g.seam(0, b.ix), g.seam(1, b.iy)]),
            Point2::new([g.seam(0, b.ix + 1), g.seam(1, b.iy + 1)]),
        )
    }

    /// Decomposes a window into `(shard, sub-rect)` pairs, ascending by
    /// shard id (row-major partition order *is* shard-id order).
    pub fn route(&self, window: &Rect2) -> Vec<(u32, Rect2)> {
        self.grid
            .partition_rect(window)
            .into_iter()
            .map(|(b, r)| (self.shard_of_block(&b), r))
            .collect()
    }

    /// Shard `s`'s ring-1 neighbours, ascending by shard id.
    pub fn neighbors(&self, s: u32) -> Vec<u32> {
        let c = self.block_of_shard(s);
        self.grid
            .blocks_within_ring(&c, 1)
            .into_iter()
            .filter(|b| *b != c)
            .map(|b| self.shard_of_block(&b))
            .collect()
    }
}

/// Fleet health as a value: bit `s` set means shard `s` is **down**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetHealth(u64);

impl FleetHealth {
    /// Every shard up.
    pub fn all_up() -> Self {
        Self(0)
    }

    /// Health from a down-shard bitmask (e.g.
    /// `mar_link::ShardOutagePlan::down_mask`).
    pub fn from_down_mask(mask: u64) -> Self {
        Self(mask)
    }

    /// The raw down bitmask.
    pub fn down_mask(&self) -> u64 {
        self.0
    }

    /// True when shard `s` is down.
    pub fn is_down(&self, s: u32) -> bool {
        s < 64 && (self.0 >> s) & 1 == 1
    }

    /// Number of down shards.
    pub fn down_count(&self) -> u32 {
        self.0.count_ones()
    }

    /// This health with shard `s` additionally down. The mask holds
    /// shards `0..64`; a shard outside it is unchanged (never down, the
    /// same rule as [`FleetHealth::is_down`]).
    pub fn with_down(self, s: u32) -> Self {
        Self(self.0 | 1u64.checked_shl(s).unwrap_or(0))
    }
}

/// Who answers one routed sub-rect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// The shard is up: its primary serves the sub-rect.
    Primary,
    /// The shard is down but has a replica: the replica serves the same
    /// sub-rect at the same band (transparent failover).
    Replica,
    /// The shard is down with no replica: a live neighbour serves the
    /// dead sub-rect from its halo coverage at a coarsened band.
    NeighborDegraded,
}

/// One scheduled sub-query of a routed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTask {
    /// The shard whose index executes the task (for `NeighborDegraded`
    /// this is the *neighbour*, not the dead owner).
    pub shard: u32,
    /// The dead or live owner of the sub-rect.
    pub owner: u32,
    /// The clipped sub-rectangle to answer.
    pub window: Rect2,
    /// The band to answer it at (coarsened for degraded tasks).
    pub band: ResolutionBand,
    /// Why this shard got the task.
    pub role: ShardRole,
}

/// A routed window query: the deterministic task list plus the
/// availability accounting of what could not be fully served.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Tasks in execution order: ascending owner shard id, primaries and
    /// replicas one task each, degraded sub-rects one task per live
    /// neighbour (ascending neighbour id).
    pub tasks: Vec<ShardTask>,
    /// Sub-rects served only by neighbour halo coverage at a coarsened
    /// band.
    pub degraded_subqueries: u32,
    /// Sub-rects nobody could serve (owner and all neighbours down).
    pub unserved_subqueries: u32,
}

impl RoutePlan {
    /// True when every sub-rect was served at full fidelity — the answer
    /// equals the unsharded one and the client may commit its frame.
    pub fn complete(&self) -> bool {
        self.degraded_subqueries == 0 && self.unserved_subqueries == 0
    }

    /// Sub-rects a promoted replica serves.
    pub fn replica_promotions(&self) -> u32 {
        let promoted = self.tasks.iter().filter(|t| t.role == ShardRole::Replica);
        promoted.count() as u32
    }
}

/// The stateless router: a pure view over the fleet's shard map and
/// replica configuration. Holds no session state and no clock — the same
/// `(health, window, band)` always produces the same [`RoutePlan`].
#[derive(Debug, Clone, Copy)]
pub struct Router<'a> {
    fleet: &'a Fleet,
}

impl Router<'_> {
    /// Routes one window at one band under the given health word.
    pub fn plan(&self, health: FleetHealth, window: &Rect2, band: ResolutionBand) -> RoutePlan {
        let fleet = self.fleet;
        let mut plan = RoutePlan {
            tasks: Vec::new(),
            degraded_subqueries: 0,
            unserved_subqueries: 0,
        };
        for (owner, sub) in fleet.map.route(window) {
            let task = |shard, band, role| ShardTask {
                shard,
                owner,
                window: sub,
                band,
                role,
            };
            if fleet.shards[owner as usize].is_none() {
                // An empty tile serves every sub-rect vacuously — dead or
                // alive, there is nothing to lose.
            } else if !health.is_down(owner) {
                plan.tasks.push(task(owner, band, ShardRole::Primary));
            } else if fleet.replicas {
                plan.tasks.push(task(owner, band, ShardRole::Replica));
            } else {
                let degraded = band.coarsened(1);
                let before = plan.tasks.len();
                for n in fleet.map.neighbors(owner) {
                    if !health.is_down(n) {
                        plan.tasks
                            .push(task(n, degraded, ShardRole::NeighborDegraded));
                    }
                }
                if plan.tasks.len() > before {
                    plan.degraded_subqueries += 1;
                } else {
                    plan.unserved_subqueries += 1;
                }
            }
        }
        plan
    }
}

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard columns.
    pub nx: u32,
    /// Shard rows.
    pub ny: u32,
    /// Whether every shard gets a promotable replica.
    pub replicas: bool,
    /// Where the shard indexes live; a paged fleet derives each shard's
    /// page file from the one path ([`Residence`]).
    pub residence: Residence,
}

impl FleetConfig {
    /// An in-RAM `nx × ny` fleet.
    pub fn ram(nx: u32, ny: u32, replicas: bool) -> Self {
        Self {
            nx,
            ny,
            replicas,
            residence: Residence::Ram,
        }
    }
}

/// The sharded backend of [`WaveletIndex`]: one index per shard tile,
/// routed under the fleet's health word. Built by
/// [`WaveletIndex::build_fleet`] and reached through
/// [`WaveletIndex::fleet`].
#[derive(Debug)]
pub struct Fleet {
    map: ShardMap,
    /// Shard `s`'s index; `None` for a tile no support reaches. A replica
    /// serves from its primary's index (in process the replica is an
    /// alias; the point is the promotion *routing*, which a multi-host
    /// deployment would back with a real copy).
    shards: Vec<Option<WaveletIndex>>,
    /// Shard `s`'s coefficient ids in store order (ascending), so a
    /// payload touch finds its record on a paged shard.
    ids: Vec<Vec<CoeffRef>>,
    replicas: bool,
    /// True when the shards read pages from disk.
    pub(crate) paged: bool,
    /// Distinct coefficients across the shards.
    pub(crate) len: usize,
    /// The [`FleetHealth`] down-mask queries are planned under.
    health: AtomicU64,
}

impl Fleet {
    /// Places every record on each shard whose tile its support meets
    /// (halo replication) and builds one index per non-empty shard — in
    /// RAM, or written to its page file and opened behind a pool.
    pub(crate) fn build(
        data: &SceneIndexData,
        space: Rect2,
        cfg: &FleetConfig,
    ) -> Result<Self, FleetError> {
        let map = ShardMap::new(space, cfg.nx, cfg.ny)?;
        let mut shards = Vec::with_capacity(map.shard_count() as usize);
        let mut ids = Vec::with_capacity(shards.capacity());
        for s in 0..map.shard_count() {
            let tile = map.tile(s);
            let records: Vec<_> = data
                .records
                .iter()
                .filter(|r| r.support_xy.intersects(&tile))
                .copied()
                .collect();
            ids.push(records.iter().map(|r| r.id).collect());
            if records.is_empty() {
                shards.push(None);
                continue;
            }
            let mut sorted_w: Vec<f64> = records.iter().map(|r| r.w).collect();
            sorted_w.sort_by(f64::total_cmp);
            let shard_data = SceneIndexData {
                records,
                footprints: data.footprints.clone(),
                coeff_bytes: data.coeff_bytes,
                base_bytes: data.base_bytes.clone(),
                object_bytes: data.object_bytes.clone(),
                coeff_counts: data.coeff_counts.clone(),
                sorted_w,
            };
            let index = cfg
                .residence
                .shard(s)
                .place(&shard_data, WaveletIndex::build(&shard_data))
                .map_err(|e| FleetError::Store(e.to_string()))?;
            shards.push(Some(index));
        }
        Ok(Self {
            map,
            ids,
            replicas: cfg.replicas,
            paged: matches!(cfg.residence, Residence::Paged { .. }),
            len: data.records.len(),
            health: AtomicU64::new(0),
            shards,
        })
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Shard `s`'s index (`None` for an empty tile).
    pub fn shard(&self, s: u32) -> Option<&WaveletIndex> {
        self.shards[s as usize].as_ref()
    }

    /// Coefficients resident on shard `s` (halo included).
    pub fn shard_coeffs(&self, s: u32) -> usize {
        self.ids[s as usize].len()
    }

    /// The stateless router over this fleet's topology.
    pub fn router(&self) -> Router<'_> {
        Router { fleet: self }
    }

    /// Marks the shards of `health` down (and every other shard up) for
    /// the queries that start from now on.
    pub fn set_health(&self, health: FleetHealth) {
        // Relaxed: the word publishes no other data (shard indexes are
        // immutable), and a walk reads it once, so any word it sees plans
        // a whole, consistent answer.
        self.health.store(health.down_mask(), Ordering::Relaxed);
    }

    /// The health word queries are planned under.
    pub fn health(&self) -> FleetHealth {
        FleetHealth::from_down_mask(self.health.load(Ordering::Relaxed))
    }

    /// The sharded window walk: plans `region` under the current health
    /// and walks each task's shard index in task order. Kept out of line
    /// so the RAM arm of [`WaveletIndex::for_each`] compiles as if this
    /// backend did not exist.
    #[inline(never)]
    pub(crate) fn for_each<F: FnMut(CoeffRef)>(
        &self,
        region: &Rect2,
        band: ResolutionBand,
        visit: &mut F,
    ) -> u64 {
        let plan = self.router().plan(self.health(), region, band);
        let mut io = 0;
        for task in &plan.tasks {
            if let Some(index) = &self.shards[task.shard as usize] {
                io += index.walk(&task.window, task.band, visit);
            }
        }
        io
    }

    /// The grouped walk, window by window: shards share no nodes, so the
    /// unique visits are the logical ones.
    #[inline(never)]
    pub(crate) fn for_each_batch_into<F: FnMut(usize, CoeffRef)>(
        &self,
        queries: &[(Rect2, ResolutionBand)],
        per_window: &mut [u64],
        visit: &mut F,
    ) -> u64 {
        let mut unique = 0;
        for (q, ((region, band), io)) in queries.iter().zip(per_window).enumerate() {
            *io = self.for_each(region, *band, &mut |id| visit(q, id));
            unique += *io;
        }
        unique
    }

    /// Every shard index, in shard order.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = &WaveletIndex> {
        self.shards.iter().flatten()
    }

    /// The shards' access counters, summed.
    pub(crate) fn io_snapshot(&self) -> IoSnapshot {
        self.indexes()
            .map(WaveletIndex::io_snapshot)
            .fold(IoSnapshot::default(), |a, b| IoSnapshot {
                logical: a.logical + b.logical,
                unique: a.unique + b.unique,
                physical: a.physical + b.physical,
            })
    }

    /// Touches `id`'s payload page once: on the lowest-id live shard that
    /// stores the record, "live" meaning able to serve (up, or down with a
    /// replica). Every hit comes from such a shard, so a transmitted
    /// coefficient always finds one. A no-op on RAM shards. Out of line:
    /// the filter's per-hit path, inlined into every RAM walk, calls it.
    #[inline(never)]
    pub(crate) fn touch_payload(&self, id: CoeffRef) {
        if !self.paged {
            return;
        }
        let health = self.health();
        for (s, (index, ids)) in self.shards.iter().zip(&self.ids).enumerate() {
            let live = !health.is_down(s as u32) || self.replicas;
            let paged = index.as_ref().and_then(WaveletIndex::paged);
            if let (true, Some(paged), Ok(rec)) = (live, paged, ids.binary_search(&id)) {
                paged.touch_record(rec as u32);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QueryRegion, QueryResult, Server, ServerCore};
    use mar_workload::{Placement, Scene, SceneConfig};
    use std::sync::Arc;

    fn scene() -> Scene {
        let mut cfg = SceneConfig::paper(12, 77);
        cfg.levels = 3;
        cfg.placement = Placement::Uniform;
        cfg.target_bytes = 1_000_000.0;
        Scene::generate(cfg)
    }

    fn serve(data: &Arc<SceneIndexData>, index: WaveletIndex) -> Server {
        Server::from_core(ServerCore::from_parts(Arc::clone(data), Arc::new(index)))
    }

    fn fleet_with(cfg: &FleetConfig) -> (Server, Arc<SceneIndexData>, Rect2) {
        let sc = scene();
        let space = sc.config.space;
        let data = Arc::new(SceneIndexData::build(&sc));
        let index = WaveletIndex::build_fleet(&data, space, cfg).expect("fleet builds");
        (serve(&data, index), data, space)
    }

    fn fleet(nx: u32, ny: u32, replicas: bool) -> (Server, Arc<SceneIndexData>, Rect2) {
        fleet_with(&FleetConfig::ram(nx, ny, replicas))
    }

    fn shards(server: &Server) -> &Fleet {
        server.index().fleet().expect("a fleet index")
    }

    fn ask(server: &Server, session: u64, q: &Rect2, band: ResolutionBand) -> QueryResult {
        let region = QueryRegion { region: *q, band };
        server.query(session, &[region]).expect("live session")
    }

    /// The fleet's raw answer, deduplicated and sorted.
    fn stateless(server: &Server, q: &Rect2, band: ResolutionBand) -> Vec<CoeffRef> {
        let (mut ids, _) = server.index().query(q, band);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn windows(space: &Rect2) -> Vec<Rect2> {
        let w = space.extent(0);
        let h = space.extent(1);
        (0..12)
            .map(|i| {
                let fx = 0.07 * i as f64;
                let fy = 0.05 * i as f64;
                Rect2::new(
                    Point2::new([space.lo[0] + fx * w, space.lo[1] + fy * h]),
                    Point2::new([space.lo[0] + (fx + 0.22) * w, space.lo[1] + (fy + 0.17) * h]),
                )
            })
            .collect()
    }

    #[test]
    fn halo_replication_makes_stateless_answers_exact() {
        let (f, data, space) = fleet(4, 2, false);
        let reference = serve(&data, WaveletIndex::build(&data));
        for (i, q) in windows(&space).iter().enumerate() {
            for band in [ResolutionBand::FULL, ResolutionBand::new(0.3, 1.0)] {
                let want = stateless(&reference, q, band);
                assert_eq!(stateless(&f, q, band), want, "window {i} band {band:?}");
            }
        }
    }

    #[test]
    fn every_coefficient_lands_on_at_least_one_shard() {
        let (f, data, _) = fleet(4, 4, false);
        let f = shards(&f);
        let total: usize = (0..f.map().shard_count()).map(|s| f.shard_coeffs(s)).sum();
        assert!(
            total >= data.records.len(),
            "halo replication can only add copies ({total} < {})",
            data.records.len()
        );
        assert!(
            total > data.records.len(),
            "straddling supports must be replicated onto neighbours"
        );
    }

    #[test]
    fn fleet_session_matches_unsharded_server_counts() {
        let (f, data, space) = fleet(4, 2, false);
        let server = serve(&data, WaveletIndex::build(&data));
        let fs = f.connect();
        let ss = server.connect();
        let band = ResolutionBand::new(0.2, 1.0);
        for q in windows(&space) {
            let fr = ask(&f, fs, &q, band);
            let sr = ask(&server, ss, &q, band);
            assert_eq!(fr.coeffs, sr.coeffs, "dedup across shards failed");
            assert_eq!(fr.new_objects, sr.new_objects);
            // Byte totals are sums in different orders; equal to rounding.
            assert!((fr.bytes - sr.bytes).abs() < 1e-6 * sr.bytes.max(1.0));
        }
        assert_eq!(
            f.sessions().session_sent_set(fs).unwrap(),
            server.sessions().session_sent_set(ss).unwrap(),
            "resident sets must be identical"
        );
        f.disconnect(fs).unwrap();
        assert_eq!(f.sessions().session_count(), 0);
        assert_eq!(f.sessions().resident_filter_entries(), 0);

        // A 1×1 all-up fleet routes every window to its one shard as one
        // task, so it replays the *same* hit sequence through the same
        // filter code: the whole `QueryResult` — the f64 byte total and
        // the logical io included — equals the RAM index's exactly.
        let (one, _, _) = fleet(1, 1, false);
        let os = one.connect();
        server.disconnect(ss).unwrap();
        let ss = server.connect();
        for q in windows(&space) {
            let plan = shards(&one).router().plan(FleetHealth::all_up(), &q, band);
            assert_eq!((plan.tasks.len(), plan.complete()), (1, true));
            let fr = ask(&one, os, &q, band);
            let sr = ask(&server, ss, &q, band);
            assert_eq!(fr, sr, "a 1x1 fleet is the plain index");
            assert_eq!(fr.bytes.to_bits(), sr.bytes.to_bits());
        }
    }

    #[test]
    fn replica_promotion_is_transparent() {
        let (f, _, space) = fleet(4, 2, true);
        let (g, _, _) = fleet(4, 2, true);
        let a = f.connect();
        let b = g.connect();
        let band = ResolutionBand::FULL;
        for (i, q) in windows(&space).iter().enumerate() {
            // Run `a` fault-free; run `b` with a rotating dead shard.
            let down = FleetHealth::all_up().with_down((i % 8) as u32);
            shards(&g).set_health(down);
            let plan = shards(&g).router().plan(down, q, band);
            assert!(plan.complete(), "replicas keep answers complete");
            assert_eq!((plan.degraded_subqueries, plan.unserved_subqueries), (0, 0));
            let ra = ask(&f, a, q, band);
            let rb = ask(&g, b, q, band);
            assert_eq!(ra.coeffs, rb.coeffs, "window {i}");
        }
        assert_eq!(
            f.sessions().session_sent_set(a).unwrap(),
            g.sessions().session_sent_set(b).unwrap(),
            "promoted replicas must serve the exact fault-free sets"
        );
    }

    #[test]
    fn degraded_answers_then_recovery_converges() {
        let (f, _, space) = fleet(4, 2, false);
        let (g, _, _) = fleet(4, 2, false);
        let a = f.connect(); // fault-free reference
        let b = g.connect(); // suffers an outage mid-sequence
        let band = ResolutionBand::new(0.1, 1.0);
        let qs = windows(&space);
        let mut saw_degraded = false;
        for (i, q) in qs.iter().enumerate() {
            ask(&f, a, q, band);
            // Shards 0..4 rotate dead during the middle of the tour.
            let health = if (3..9).contains(&i) {
                FleetHealth::all_up().with_down((i % 4) as u32)
            } else {
                FleetHealth::all_up()
            };
            shards(&g).set_health(health);
            let plan = shards(&g).router().plan(health, q, band);
            if !plan.complete() {
                saw_degraded = true;
                assert!(
                    plan.degraded_subqueries > 0 || plan.unserved_subqueries > 0,
                    "incomplete must be accounted"
                );
            }
            ask(&g, b, q, band);
        }
        assert!(saw_degraded, "the outage must actually bite a window");
        // Recovery: refetch every window under all-up health (what the
        // client's uncommitted planner coverage forces), then compare.
        shards(&g).set_health(FleetHealth::all_up());
        for q in &qs {
            ask(&g, b, q, band);
        }
        assert_eq!(
            f.sessions().session_sent_set(a).unwrap(),
            g.sessions().session_sent_set(b).unwrap(),
            "post-recovery resident set must equal the fault-free run"
        );
    }

    #[test]
    fn degraded_service_comes_from_neighbour_halos() {
        let (f, _, _) = fleet(4, 2, false);
        let s = f.connect();
        // Query exactly one interior tile at full band with its owner
        // dead: the answer must be non-empty (halo coverage) but smaller
        // than the fault-free answer (the tile interior is lost).
        let owner = 1u32;
        let tile = shards(&f).map().tile(owner);
        let want = stateless(&f, &tile, ResolutionBand::FULL);
        let health = FleetHealth::all_up().with_down(owner);
        shards(&f).set_health(health);
        let plan = shards(&f)
            .router()
            .plan(health, &tile, ResolutionBand::FULL);
        assert!(!plan.complete());
        assert_eq!(plan.degraded_subqueries, 1);
        let r = ask(&f, s, &tile, ResolutionBand::FULL);
        assert!(r.coeffs > 0, "neighbour halos must cover the tile border");
        assert!(
            r.coeffs < want.len(),
            "a dead tile cannot be fully served from halos ({} vs {})",
            r.coeffs,
            want.len()
        );
    }

    #[test]
    fn router_is_deterministic_and_orders_tasks() {
        let (f, _, space) = fleet(4, 4, false);
        let router = shards(&f).router();
        let q = windows(&space)[3];
        let health = FleetHealth::from_down_mask(0b0110);
        let p1 = router.plan(health, &q, ResolutionBand::FULL);
        let p2 = router.plan(health, &q, ResolutionBand::FULL);
        assert_eq!(p1, p2, "the router is a pure function");
        // Owners ascend; within a dead owner, neighbours ascend.
        let owners: Vec<u32> = p1.tasks.iter().map(|t| t.owner).collect();
        let mut sorted = owners.clone();
        sorted.sort_unstable();
        assert_eq!(owners, sorted, "merge order must be shard-id order");
        for w in p1.tasks.windows(2) {
            if w[0].owner == w[1].owner {
                assert!(w[0].shard < w[1].shard, "neighbour tasks must ascend");
            }
        }
    }

    #[test]
    fn typed_errors_and_grid_bounds() {
        let sc = scene();
        let data = SceneIndexData::build(&sc);
        assert_eq!(
            WaveletIndex::build_fleet(&data, sc.config.space, &FleetConfig::ram(9, 8, false)).err(),
            Some(FleetError::BadShardGrid { nx: 9, ny: 8 })
        );
        assert!(matches!(
            ShardMap::new(sc.config.space, 0, 4),
            Err(FleetError::BadShardGrid { .. })
        ));
    }

    /// Paged shards answer like RAM shards, and every transmitted
    /// coefficient costs exactly one payload look-up: a shard pool sees
    /// one look-up per node the walks visited plus one per coefficient
    /// sent — including the coefficients a promoted replica served.
    #[test]
    fn paged_shards_answer_identically_to_ram() {
        let path = mar_store::ScratchPath::new("core-fleet-tests", "fleet.pages")
            .expect("create shard store dir");
        let (ram, _, space) = fleet(2, 2, true);
        let (paged, _, _) = fleet_with(&FleetConfig {
            residence: Residence::Paged {
                path: path.to_path_buf(),
                budget_bytes: 64 * 1024,
            },
            ..FleetConfig::ram(2, 2, true)
        });
        assert!(paged.index().is_paged() && !ram.index().is_paged());
        let a = ram.connect();
        let b = paged.connect();
        let (mut io, mut sent) = (0, 0);
        for (i, q) in windows(&space).iter().enumerate() {
            let band = ResolutionBand::new(0.1, 1.0);
            let down = FleetHealth::all_up().with_down((i % 4) as u32);
            shards(&ram).set_health(down);
            shards(&paged).set_health(down);
            let ra = ask(&ram, a, q, band);
            let rb = ask(&paged, b, q, band);
            assert_eq!(ra, rb, "window {i}");
            io += rb.io;
            sent += rb.coeffs as u64;
        }
        assert!(sent > 0);
        assert_eq!(
            ram.sessions().session_sent_set(a).unwrap(),
            paged.sessions().session_sent_set(b).unwrap(),
            "paged shard answers must be byte-identical to RAM"
        );
        let fleet = shards(&paged);
        let lookups: u64 = (0..fleet.map().shard_count())
            .filter_map(|s| fleet.shard(s)?.cache_stats())
            .map(|c| c.lookups)
            .sum();
        assert_eq!(lookups, io + sent, "one payload read per sent coefficient");
        ram.disconnect(a).unwrap();
        paged.disconnect(b).unwrap();
    }

    #[test]
    fn health_mask_round_trips() {
        let h = FleetHealth::from_down_mask(0b1010);
        assert!(h.is_down(1) && h.is_down(3));
        assert!(!h.is_down(0) && !h.is_down(2) && !h.is_down(63));
        assert_eq!(h.down_count(), 2);
        assert_eq!(h.with_down(0).down_mask(), 0b1011);
        assert!(h.with_down(63).is_down(63));
        // Out of range: no shard goes down — in particular not `s % 64`.
        assert_eq!(h.with_down(64), h);
        assert_eq!(h.with_down(u32::MAX), h);
        assert_eq!(FleetHealth::all_up().down_count(), 0);
    }
}
