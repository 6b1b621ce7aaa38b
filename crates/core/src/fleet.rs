//! The sharded serving tier: spatial partitioning, scatter-gather
//! routing, and shard failover (DESIGN.md §16; ROADMAP item 2).
//!
//! Voyager-style city-scale serving partitions the ground plane into a
//! grid of **shards**, each an independent [`ServerCore`] holding exactly
//! the coefficients whose support regions touch its tile. A stateless
//! [`Router`] decomposes every window query into per-shard sub-rectangles
//! with [`GridSpec::partition_rect`] (the same disjoint-rect machinery
//! Algorithm 1 uses for frame differences), scatter-gathers the shard
//! answers, and merges them **deterministically in ascending shard-id
//! order** — so a fleet transcript is byte-identical at any worker count.
//!
//! # Halo replication makes routing exact
//!
//! A coefficient lives on *every* shard whose (epsilon-inflated) tile its
//! `support_xy` intersects, not just the one holding its centre. For any
//! query window `Q`: a support intersects `Q ∩ space` iff it intersects
//! one of the per-shard sub-rects, and the owning shard holds the
//! coefficient because the sub-rect lies inside that shard's inflated
//! tile. The union of per-shard answers is therefore **exactly** the
//! unsharded answer; cross-shard halo duplicates are suppressed by the
//! per-session sent-filter ([`crate::session`]), which replays shard
//! answers in shard order.
//! The halo is also what makes *degraded* service real: a dead tile's
//! boundary coefficients genuinely exist on its neighbours.
//!
//! # Failover state machine
//!
//! Health is a value, not a state: callers pass a [`FleetHealth`] bitmask
//! (derived from a pure `mar_link::ShardOutagePlan` schedule in the
//! harness) into every query, keeping the router stateless with respect
//! to time. Per sub-rect:
//!
//! 1. shard up → **primary** serves it at the requested band;
//! 2. shard down, replica configured → **replica promotion**: the replica
//!    core serves the same sub-rect at the same band (the shared session
//!    filter makes this transparently identical to the fault-free run);
//! 3. shard down, no replica → **degraded synthesis**: every live ring-1
//!    neighbour is queried with the dead sub-rect at a coarsened band;
//!    the halo coefficients they hold cover the tile's border region, and
//!    the answer is marked incomplete so clients refetch after recovery;
//! 4. shard down, no replica, all neighbours down → the sub-rect goes
//!    unserved this tick (counted, never an error).
//!
//! Recovery is re-admission by value: the next tick whose health mask has
//! the bit clear routes to the primary again — nothing to rebuild,
//! because shard state is immutable and session filters live in the
//! fleet's [`Sessions`] table (the same one `Server` holds — tokens,
//! `resume` and the typed `SessionError` included), not in the shards.

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use crate::server::{QueryResult, ServerCore};
use crate::session::{SessionError, Sessions};
use mar_geom::{BlockId, GridSpec, Point2, Rect2};
use mar_mesh::ResolutionBand;
use std::sync::Arc;

/// Typed failure of building a fleet (per-session failures are the shared
/// [`SessionError`]).
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

    /// The underlying grid.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
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

    /// Shard `s`'s exact tile.
    pub fn tile(&self, s: u32) -> Rect2 {
        self.grid.block_rect(&self.block_of_shard(s))
    }

    /// Shard `s`'s tile inflated by the partition epsilon. Data placement
    /// uses this: sub-rect edges and tile edges agree only to within one
    /// ulp (`partition_rect` computes `lo + i·w`, `block_rect` computes
    /// `(lo + i·w) + w`), so assigning supports against the *inflated*
    /// tile guarantees every sub-rect's coefficients are on its shard.
    pub fn inflated_tile(&self, s: u32) -> Rect2 {
        let t = self.tile(s);
        let eps = 1e-9 * (self.grid.block_w() + self.grid.block_h());
        Rect2::new(
            Point2::new([t.lo[0] - eps, t.lo[1] - eps]),
            Point2::new([t.hi[0] + eps, t.hi[1] + eps]),
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

    /// Shard `s`'s live ring-1 neighbours, ascending by shard id.
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
/// Queries take a health word instead of the fleet mutating state, so the
/// router stays a pure function of `(health, window, band)`.
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
    /// The shard is up: its primary core serves the sub-rect.
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
    /// The shard whose core executes the task (for `NeighborDegraded`
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
    /// Sub-rects served at full fidelity (primary or promoted replica).
    pub complete_subqueries: u32,
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
}

/// The stateless router: a pure view over the fleet's shard map and
/// replica configuration. Holds no session state and no clock — the same
/// `(health, window, band)` always produces the same [`RoutePlan`].
#[derive(Debug, Clone, Copy)]
pub struct Router<'a> {
    map: &'a ShardMap,
    has_core: &'a [bool],
    has_replica: &'a [bool],
    degrade_step: f64,
}

impl Router<'_> {
    /// Routes one window at one band under the given health word.
    pub fn plan(&self, health: FleetHealth, window: &Rect2, band: ResolutionBand) -> RoutePlan {
        let mut plan = RoutePlan {
            tasks: Vec::new(),
            complete_subqueries: 0,
            degraded_subqueries: 0,
            unserved_subqueries: 0,
        };
        for (owner, sub) in self.map.route(window) {
            if !self.has_core[owner as usize] {
                // An empty tile serves every sub-rect vacuously — dead or
                // alive, there is nothing to lose.
                plan.complete_subqueries += 1;
            } else if !health.is_down(owner) {
                plan.complete_subqueries += 1;
                plan.tasks.push(ShardTask {
                    shard: owner,
                    owner,
                    window: sub,
                    band,
                    role: ShardRole::Primary,
                });
            } else if self.has_replica[owner as usize] {
                plan.complete_subqueries += 1;
                plan.tasks.push(ShardTask {
                    shard: owner,
                    owner,
                    window: sub,
                    band,
                    role: ShardRole::Replica,
                });
            } else {
                let degraded = ResolutionBand::new(
                    (band.w_min + self.degrade_step).min(band.w_max),
                    band.w_max,
                );
                let mut served = false;
                for n in self.map.neighbors(owner) {
                    if health.is_down(n) {
                        continue;
                    }
                    served = true;
                    plan.tasks.push(ShardTask {
                        shard: n,
                        owner,
                        window: sub,
                        band: degraded,
                        role: ShardRole::NeighborDegraded,
                    });
                }
                if served {
                    plan.degraded_subqueries += 1;
                } else {
                    plan.unserved_subqueries += 1;
                }
            }
        }
        plan
    }
}

/// Where each shard's [`ServerCore`] reads its index from.
#[derive(Debug, Clone)]
pub enum FleetBackend {
    /// Every shard index in RAM.
    Ram,
    /// Every shard serves a page file `shard-<id>.pages` under `dir`
    /// through its own buffer pool (DESIGN.md §15) — per-shard stores,
    /// the follow-on ROADMAP item 1 named.
    Paged {
        /// Directory for the per-shard page files.
        dir: std::path::PathBuf,
        /// Buffer-pool byte budget *per shard*.
        budget_bytes: usize,
        /// Eviction policy for every shard pool.
        policy: mar_store::CachePolicy,
    },
}

/// Fleet construction parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard columns.
    pub nx: u32,
    /// Shard rows.
    pub ny: u32,
    /// Whether every shard gets a promotable replica core.
    pub replicas: bool,
    /// How much `w_min` rises for neighbour-degraded answers.
    pub degrade_step: f64,
    /// Shard index backend.
    pub backend: FleetBackend,
}

impl FleetConfig {
    /// An in-RAM `nx × ny` fleet.
    pub fn ram(nx: u32, ny: u32, replicas: bool) -> Self {
        Self {
            nx,
            ny,
            replicas,
            degrade_step: 0.15,
            backend: FleetBackend::Ram,
        }
    }
}

/// One shard: the primary core (absent when no coefficient touches the
/// tile), the optional promotable replica, and the tile's record count.
#[derive(Debug)]
struct Shard {
    core: Option<ServerCore>,
    replica: Option<ServerCore>,
    coeffs: usize,
}

/// What one fleet window query produced, beyond the payload accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetQueryResult {
    /// Merged, session-filtered payload accounting (deterministic: tasks
    /// apply in ascending owner/neighbour order).
    pub result: QueryResult,
    /// Shard tasks executed.
    pub tasks: u32,
    /// Sub-rects a promoted replica served.
    pub replica_promotions: u32,
    /// Sub-rects served only via neighbour halo coverage.
    pub degraded_subqueries: u32,
    /// Sub-rects nobody could serve.
    pub unserved_subqueries: u32,
    /// True when every sub-rect was served at full fidelity; a client
    /// commits its frame coverage only on complete answers, so degraded
    /// regions are refetched after recovery.
    pub complete: bool,
}

/// The sharded serving tier: shard cores under one [`Sessions`] table.
/// All entry points take `&self` (DESIGN.md §10); a session's one filter
/// sits above the shards and is shared by primary, replica and neighbour
/// answers, which is why failover never re-sends and why cross-shard halo
/// duplicates collapse.
#[derive(Debug)]
pub struct FleetServer {
    map: ShardMap,
    shards: Vec<Shard>,
    has_core: Vec<bool>,
    has_replica: Vec<bool>,
    degrade_step: f64,
    sessions: Sessions,
}

impl FleetServer {
    /// Builds the fleet over shared scene data: every shard gets the
    /// coefficients whose supports intersect its inflated tile (halo
    /// replication), its own [`WaveletIndex`], and — when configured — a
    /// replica core sharing the same immutable storage (in-process the
    /// replica is an `Arc` alias; the point is the promotion *routing*,
    /// which a multi-host deployment would back with a real copy).
    pub fn build(
        data: &Arc<SceneIndexData>,
        space: Rect2,
        cfg: &FleetConfig,
    ) -> Result<Self, FleetError> {
        let map = ShardMap::new(space, cfg.nx, cfg.ny)?;
        let mut shards = Vec::with_capacity(map.shard_count() as usize);
        for s in 0..map.shard_count() {
            let tile = map.inflated_tile(s);
            let records: Vec<_> = data
                .records
                .iter()
                .filter(|r| r.support_xy.intersects(&tile))
                .copied()
                .collect();
            let coeffs = records.len();
            if coeffs == 0 {
                shards.push(Shard {
                    core: None,
                    replica: None,
                    coeffs,
                });
                continue;
            }
            let mut sorted_w: Vec<f64> = records.iter().map(|r| r.w).collect();
            sorted_w.sort_by(f64::total_cmp);
            let shard_data = Arc::new(SceneIndexData {
                records,
                footprints: data.footprints.clone(),
                coeff_bytes: data.coeff_bytes,
                base_bytes: data.base_bytes.clone(),
                object_bytes: data.object_bytes.clone(),
                coeff_counts: data.coeff_counts.clone(),
                sorted_w,
            });
            let index = WaveletIndex::build(&shard_data);
            let core = match &cfg.backend {
                FleetBackend::Ram => ServerCore::from_parts(shard_data, Arc::new(index)),
                FleetBackend::Paged {
                    dir,
                    budget_bytes,
                    policy,
                } => {
                    let path = dir.join(format!("shard-{s}.pages"));
                    crate::store::write_store_with(&path, &shard_data, &index)
                        .map_err(|e| FleetError::Store(e.to_string()))?;
                    let paged = WaveletIndex::open_paged(&path, *budget_bytes, *policy)
                        .map_err(|e| FleetError::Store(e.to_string()))?;
                    ServerCore::from_parts(shard_data, Arc::new(paged))
                }
            };
            let replica = cfg.replicas.then(|| core.clone());
            shards.push(Shard {
                core: Some(core),
                replica,
                coeffs,
            });
        }
        let has_core = shards.iter().map(|s| s.core.is_some()).collect();
        let has_replica = shards.iter().map(|s| s.replica.is_some()).collect();
        Ok(Self {
            map,
            shards,
            has_core,
            has_replica,
            degrade_step: cfg.degrade_step,
            sessions: Sessions::new(),
        })
    }

    /// The shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.map.shard_count()
    }

    /// Coefficients resident on shard `s` (halo included).
    pub fn shard_coeffs(&self, s: u32) -> usize {
        self.shards[s as usize].coeffs
    }

    /// True when shard `s` has a promotable replica.
    pub fn has_replica(&self, s: u32) -> bool {
        self.has_replica[s as usize]
    }

    /// The stateless router over this fleet's topology.
    pub fn router(&self) -> Router<'_> {
        Router {
            map: &self.map,
            has_core: &self.has_core,
            has_replica: &self.has_replica,
            degrade_step: self.degrade_step,
        }
    }

    /// The session table: tokens, `resume`, and every per-session look-up
    /// — the same calls [`crate::Server::sessions`] answers.
    pub fn sessions(&self) -> &Sessions {
        &self.sessions
    }

    /// Opens a fleet session; returns its id (handed out in call order).
    pub fn connect(&self) -> u64 {
        self.sessions.connect_with_token().0
    }

    /// Drops a fleet session: its filter state, its resume token, and its
    /// heat contribution on every shard pager.
    pub fn disconnect(&self, session: u64) -> Result<(), SessionError> {
        self.sessions.disconnect(session)?;
        for shard in &self.shards {
            if let Some(core) = &shard.core {
                core.index().forget_motion(session);
            }
        }
        Ok(())
    }

    /// Executes one window query for a session under the given health
    /// word: route → scatter over shard cores → gather through the
    /// session filter in task order, all under the session's filter lock.
    /// Merging is deterministic because the task list is (owner,
    /// neighbour)-ordered and the filter replay is sequential —
    /// concurrency lives *across* sessions, exactly as in the unsharded
    /// server.
    pub fn query(
        &self,
        session: u64,
        health: FleetHealth,
        window: &Rect2,
        band: ResolutionBand,
    ) -> Result<FleetQueryResult, SessionError> {
        let plan = self.router().plan(health, window, band);
        let is_promotion = |t: &&ShardTask| t.role == ShardRole::Replica;
        let promotions = plan.tasks.iter().filter(is_promotion).count();
        let result = self.sessions.with(session, |filter| {
            let mut result = QueryResult::default();
            for task in &plan.tasks {
                let shard = &self.shards[task.shard as usize];
                let core = match task.role {
                    ShardRole::Replica => shard.replica.as_ref(),
                    ShardRole::Primary | ShardRole::NeighborDegraded => shard.core.as_ref(),
                };
                // An empty tile serves every query vacuously.
                let Some(core) = core else { continue };
                // Feed the shard pager's heat field (no-op in RAM).
                core.index().observe_motion(session, task.window.center());
                // A newly sent coefficient touches its payload page on the
                // shard that produced the hit (halo copies live on several).
                core.admit_window(filter, &task.window, task.band, &mut result);
            }
            result
        })?;
        Ok(FleetQueryResult {
            result,
            tasks: plan.tasks.len() as u32,
            replica_promotions: promotions as u32,
            degraded_subqueries: plan.degraded_subqueries,
            unserved_subqueries: plan.unserved_subqueries,
            complete: plan.complete(),
        })
    }

    /// The raw (session-free) fleet answer for a window: the union of the
    /// per-shard answers under all-up health, deduplicated and sorted.
    /// Equals the unsharded index's answer set — the exactness the
    /// routing invariants pin.
    pub fn query_stateless(&self, window: &Rect2, band: ResolutionBand) -> (Vec<CoeffRef>, u64) {
        let mut ids: Vec<CoeffRef> = Vec::new();
        let mut io = 0u64;
        for (shard, sub) in self.map.route(window) {
            if let Some(core) = &self.shards[shard as usize].core {
                let (hits, i) = core.query_stateless(&sub, band);
                ids.extend(hits);
                io += i;
            }
        }
        ids.sort_unstable();
        ids.dedup();
        (ids, io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_workload::{Placement, Scene, SceneConfig};

    fn scene() -> Scene {
        let mut cfg = SceneConfig::paper(12, 77);
        cfg.levels = 3;
        cfg.placement = Placement::Uniform;
        cfg.target_bytes = 1_000_000.0;
        Scene::generate(cfg)
    }

    fn fleet(nx: u32, ny: u32, replicas: bool) -> (FleetServer, Arc<SceneIndexData>, Rect2) {
        let sc = scene();
        let space = sc.config.space;
        let data = Arc::new(SceneIndexData::build(&sc));
        let f = FleetServer::build(&data, space, &FleetConfig::ram(nx, ny, replicas))
            .expect("fleet builds");
        (f, data, space)
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
        let reference = WaveletIndex::build(&data);
        for (i, q) in windows(&space).iter().enumerate() {
            for band in [ResolutionBand::FULL, ResolutionBand::new(0.3, 1.0)] {
                let (mut want, _) = reference.query(q, band);
                want.sort_unstable();
                want.dedup();
                let (got, _) = f.query_stateless(q, band);
                assert_eq!(got, want, "window {i} band {band:?} diverged");
            }
        }
    }

    #[test]
    fn every_coefficient_lands_on_at_least_one_shard() {
        let (f, data, _) = fleet(4, 4, false);
        let total: usize = (0..f.shard_count()).map(|s| f.shard_coeffs(s)).sum();
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
        let server = crate::Server::from_core(ServerCore::from_parts(
            Arc::clone(&data),
            Arc::new(WaveletIndex::build(&data)),
        ));
        let fs = f.connect();
        let ss = server.connect();
        for q in windows(&space) {
            let band = ResolutionBand::new(0.2, 1.0);
            let fr = f.query(fs, FleetHealth::all_up(), &q, band).unwrap();
            let sr = server
                .query(ss, &[crate::QueryRegion { region: q, band }])
                .unwrap();
            assert!(fr.complete);
            assert_eq!(fr.result.coeffs, sr.coeffs, "dedup across shards failed");
            assert_eq!(fr.result.new_objects, sr.new_objects);
            // Byte totals are sums in different orders; equal to rounding.
            assert!((fr.result.bytes - sr.bytes).abs() < 1e-6 * sr.bytes.max(1.0));
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
        // the logical io included — equals `Server::query`'s exactly.
        let (one, _, _) = fleet(1, 1, false);
        let os = one.connect();
        server.disconnect(ss).unwrap();
        let ss = server.connect();
        for q in windows(&space) {
            let band = ResolutionBand::new(0.2, 1.0);
            let fr = one.query(os, FleetHealth::all_up(), &q, band).unwrap();
            let sr = server
                .query(ss, &[crate::QueryRegion { region: q, band }])
                .unwrap();
            assert_eq!((fr.tasks, fr.complete), (1, true));
            assert_eq!(fr.result, sr, "a 1x1 fleet is the plain server");
            assert_eq!(fr.result.bytes.to_bits(), sr.bytes.to_bits());
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
            let ra = f.query(a, FleetHealth::all_up(), q, band).unwrap();
            let rb = g.query(b, down, q, band).unwrap();
            assert!(rb.complete, "replicas keep answers complete");
            assert_eq!(rb.degraded_subqueries, 0);
            assert_eq!(rb.unserved_subqueries, 0);
            assert_eq!(ra.result.coeffs, rb.result.coeffs, "window {i}");
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
            f.query(a, FleetHealth::all_up(), q, band).unwrap();
            // Shards 0..4 rotate dead during the middle of the tour.
            let health = if (3..9).contains(&i) {
                FleetHealth::all_up().with_down((i % 4) as u32)
            } else {
                FleetHealth::all_up()
            };
            let r = g.query(b, health, q, band).unwrap();
            if !r.complete {
                saw_degraded = true;
                assert!(
                    r.degraded_subqueries > 0 || r.unserved_subqueries > 0,
                    "incomplete must be accounted"
                );
            }
        }
        assert!(saw_degraded, "the outage must actually bite a window");
        // Recovery: refetch every window under all-up health (what the
        // client's uncommitted planner coverage forces), then compare.
        for q in &qs {
            let r = g.query(b, FleetHealth::all_up(), q, band).unwrap();
            assert!(r.complete);
        }
        assert_eq!(
            f.sessions().session_sent_set(a).unwrap(),
            g.sessions().session_sent_set(b).unwrap(),
            "post-recovery resident set must equal the fault-free run"
        );
    }

    #[test]
    fn degraded_service_comes_from_neighbour_halos() {
        let (f, _, space) = fleet(4, 2, false);
        let s = f.connect();
        // Query exactly one interior tile at full band with its owner
        // dead: the answer must be non-empty (halo coverage) but smaller
        // than the fault-free answer (the tile interior is lost).
        let owner = 1u32;
        let tile = f.map().tile(owner);
        let health = FleetHealth::all_up().with_down(owner);
        let r = f.query(s, health, &tile, ResolutionBand::FULL).unwrap();
        assert!(!r.complete);
        assert_eq!(r.degraded_subqueries, 1);
        assert!(
            r.result.coeffs > 0,
            "neighbour halos must cover the tile border"
        );
        let (want, _) = f.query_stateless(&tile, ResolutionBand::FULL);
        assert!(
            r.result.coeffs < want.len(),
            "a dead tile cannot be fully served from halos ({} vs {})",
            r.result.coeffs,
            want.len()
        );
        let _ = space;
    }

    #[test]
    fn router_is_deterministic_and_orders_tasks() {
        let (f, _, space) = fleet(4, 4, false);
        let router = f.router();
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
        let data = Arc::new(SceneIndexData::build(&sc));
        assert_eq!(
            FleetServer::build(&data, sc.config.space, &FleetConfig::ram(9, 8, false)).err(),
            Some(FleetError::BadShardGrid { nx: 9, ny: 8 })
        );
        assert!(matches!(
            ShardMap::new(sc.config.space, 0, 4),
            Err(FleetError::BadShardGrid { .. })
        ));
        let (f, _, space) = fleet(2, 2, false);
        let q = windows(&space)[0];
        assert_eq!(
            f.query(99, FleetHealth::all_up(), &q, ResolutionBand::FULL)
                .err(),
            Some(SessionError::UnknownSession(99))
        );
        assert_eq!(f.disconnect(99), Err(SessionError::UnknownSession(99)));
        assert_eq!(
            f.sessions().session_sent_set(99).err(),
            Some(SessionError::UnknownSession(99))
        );
        assert_eq!(f.sessions().session_count(), 0);
    }

    #[test]
    fn paged_shards_answer_identically_to_ram() {
        let sc = scene();
        let space = sc.config.space;
        let data = Arc::new(SceneIndexData::build(&sc));
        let dir = std::env::temp_dir().join(format!("mar-core-fleet-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create shard store dir");
        let ram =
            FleetServer::build(&data, space, &FleetConfig::ram(2, 2, false)).expect("ram fleet");
        let paged = FleetServer::build(
            &data,
            space,
            &FleetConfig {
                nx: 2,
                ny: 2,
                replicas: false,
                degrade_step: 0.15,
                backend: FleetBackend::Paged {
                    dir: dir.clone(),
                    budget_bytes: 64 * 1024,
                    policy: mar_store::CachePolicy::MotionAware,
                },
            },
        )
        .expect("paged fleet");
        let a = ram.connect();
        let b = paged.connect();
        for q in windows(&space) {
            let band = ResolutionBand::new(0.1, 1.0);
            let ra = ram.query(a, FleetHealth::all_up(), &q, band).unwrap();
            let rb = paged.query(b, FleetHealth::all_up(), &q, band).unwrap();
            assert_eq!(ra.result.coeffs, rb.result.coeffs);
            assert_eq!(ra.result.new_objects, rb.result.new_objects);
        }
        assert_eq!(
            ram.sessions().session_sent_set(a).unwrap(),
            paged.sessions().session_sent_set(b).unwrap(),
            "paged shard answers must be byte-identical to RAM"
        );
        ram.disconnect(a).unwrap();
        paged.disconnect(b).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
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
