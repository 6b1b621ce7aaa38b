//! The out-of-core query backend: the store image of [`crate::store`]
//! read through a motion-aware buffer pool (DESIGN.md §15).
//!
//! [`PagedIndex`] answers exactly the queries the in-RAM
//! [`crate::index::WaveletIndex`] answers, with byte-identical results:
//! the scalar descent mirrors [`mar_rtree::RTree::search`] (per-entry
//! closed-interval tests, children pushed in ascending entry order, LIFO
//! pops) and the grouped descent mirrors
//! [`mar_rtree::RTree::search_batch_into`] loop for loop — same `(node,
//! window-bitmask)` stack, same per-set-bit logical attribution, same
//! 64-wide child-mask transpose. Hit sets, visit order and access counts
//! cannot drift from the RAM path because the algorithms are the same;
//! only the node fetch differs (a [`PageCache`] read instead of an arena
//! index).
//!
//! I/O accounting extends the paper's metric with one new axis: logical
//! and unique node accesses tally exactly as in RAM, and every pool
//! *miss* — a real trip to the page file, for node and payload pages
//! alike — counts as a **physical** access ([`mar_rtree::IoKind`]).
//!
//! # Locking (DESIGN.md §13)
//!
//! The pager mutex (pool + heat field) is a **leaf** lock: no code
//! holding it acquires any other lock, so the `session stripe → pager`
//! edge the server adds keeps the global lock-order graph acyclic. Each
//! page fetch locks and releases the pager — page payloads come back as
//! shared `Arc`s, so decoding happens outside the critical section.

use crate::coeff::CoeffRef;
use crate::store::{decode_record, open_store, StoreMeta, StoredRecord, RECORD_SIZE, REF_SIZE};
use mar_buffer::MotionHeat;
use mar_geom::{Point2, Rect3};
use mar_rtree::{IoCounters, IoKind, IoSnapshot, NodePage, PagedNodeKind};
use mar_store::{CachePolicy, PageCache, PageCacheStats, StoreError};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The mutable half of the backend: the bounded pool plus the Eq. 2 heat
/// field its victim ranking consults.
#[derive(Debug)]
struct Pager {
    cache: PageCache,
    heat: MotionHeat,
}

/// The disk-backed wavelet index backend.
#[derive(Debug)]
pub struct PagedIndex {
    pager: Mutex<Pager>,
    meta: StoreMeta,
    file_pages: u32,
    io: IoCounters,
}

impl PagedIndex {
    /// Opens a store image under a buffer pool of `budget_bytes` with the
    /// given eviction policy.
    pub fn open(path: &Path, budget_bytes: usize, policy: CachePolicy) -> Result<Self, StoreError> {
        let (file, meta) = open_store(path)?;
        let file_pages = file.page_count();
        let cache = PageCache::new(file, budget_bytes, policy);
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
            meta,
            file_pages,
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
        crate::store::store_file_bytes(self.file_pages)
    }

    /// The pool's eviction policy.
    pub fn policy(&self) -> CachePolicy {
        self.lock_pager().cache.policy()
    }

    /// Buffer-pool counters (hits, faults, evictions, bypasses).
    pub fn cache_stats(&self) -> PageCacheStats {
        self.lock_pager().cache.stats()
    }

    /// Zeroes the buffer-pool counters.
    pub fn reset_cache_stats(&self) {
        self.lock_pager().cache.reset_stats();
    }

    /// Cumulative node-access counters (logical / unique / physical).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    /// Cumulative logical node accesses (the paper's metric).
    pub fn io_count(&self) -> u64 {
        self.io.get(IoKind::Logical)
    }

    /// Resets the cumulative node-access counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Records that `session`'s window is now centred at `pos`; the heat
    /// field turns the per-session movement history into the Eq. 2
    /// k-direction allocation the pool's victim ranking consults.
    pub fn observe_motion(&self, session: u64, pos: Point2) {
        self.lock_pager().heat.observe(session, pos);
    }

    /// Drops `session`'s contribution to the heat field.
    pub fn forget_motion(&self, session: u64) {
        self.lock_pager().heat.forget(session);
    }

    /// Sessions currently contributing heat.
    pub fn motion_sessions(&self) -> usize {
        self.lock_pager().heat.session_count()
    }

    fn lock_pager(&self) -> std::sync::MutexGuard<'_, Pager> {
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        self.pager.lock().expect("pager poisoned")
    }

    /// Fetches one page through the pool, tallying a physical access on
    /// a miss. The heat of a candidate page is the Eq. 2 heat at the
    /// centre of its ground-plane region.
    fn page(&self, page: u32) -> Arc<Vec<u8>> {
        let mut pager = self.lock_pager();
        let Pager { cache, heat } = &mut *pager;
        let regions = &self.meta.regions;
        // A page is as hot as the hottest predicted point its region
        // covers: root and upper internal pages contain every session and
        // stay resident; leaf and coefficient pages rank directionally.
        // The page being faulted is serving a live query, so it ranks
        // maximally — admission can displace the coldest resident but a
        // mid-run payload page is never served without being cached.
        let rank = move |p: u32| {
            if p == page {
                return f64::INFINITY;
            }
            regions.get(p as usize).map_or(0.0, |r| heat.heat_rect(r))
        };
        let (data, hit) = cache
            .read_with_heat(page, &rank)
            // mar-lint: allow(D004) — the store was validated at open; a failed page read here is unrecoverable corruption
            .expect("store page read failed");
        if !hit {
            self.io.add(IoKind::Physical, 1);
        }
        data
    }

    fn decode_ref(b: &[u8]) -> CoeffRef {
        CoeffRef {
            object: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            coeff: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
        }
    }

    /// Scalar window search, mirroring [`mar_rtree::RTree::search`]:
    /// identical visit order and access count. Returns the node accesses.
    pub fn for_each(&self, window: &Rect3, mut visit: impl FnMut(CoeffRef)) -> u64 {
        let mut stack = vec![0u32];
        let mut accesses = 0u64;
        while let Some(id) = stack.pop() {
            accesses += 1;
            let bytes = self.page(id);
            let node = NodePage::<3>::parse(&bytes, REF_SIZE)
                // mar-lint: allow(D004) — the store was validated at open; a malformed node image is unrecoverable corruption
                .expect("malformed node page");
            match node.kind() {
                PagedNodeKind::Leaf => {
                    for i in 0..node.len() {
                        if node.rect(i).intersects(window) {
                            visit(Self::decode_ref(node.item_bytes(i)));
                        }
                    }
                }
                PagedNodeKind::Internal => {
                    for i in 0..node.len() {
                        if node.rect(i).intersects(window) {
                            stack.push(node.child(i));
                        }
                    }
                }
            }
        }
        self.io.add(IoKind::Logical, accesses);
        self.io.add(IoKind::Unique, accesses);
        accesses
    }

    /// Grouped multi-window search, mirroring
    /// [`mar_rtree::RTree::search_batch_into`]: per-window hit sets, visit
    /// order and logical accesses equal the scalar path; nodes shared by
    /// several windows of a 64-wide group are fetched once. `per_window`
    /// (one slot per window) is overwritten with the logical accesses; the
    /// unique visits are returned.
    pub fn for_each_batch_into(
        &self,
        windows: &[Rect3],
        per_window: &mut [u64],
        mut visit: impl FnMut(usize, CoeffRef),
    ) -> u64 {
        assert_eq!(per_window.len(), windows.len(), "one tally per window");
        per_window.fill(0);
        let mut unique = 0u64;
        for (chunk_idx, chunk) in windows.chunks(64).enumerate() {
            unique += self.search_group(chunk, chunk_idx * 64, per_window, &mut visit);
        }
        let total: u64 = per_window.iter().sum();
        self.io.add(IoKind::Logical, total);
        self.io.add(IoKind::Unique, unique);
        unique
    }

    /// One ≤64-window group descent; returns the physical node visits.
    fn search_group(
        &self,
        windows: &[Rect3],
        base: usize,
        per_window: &mut [u64],
        visit: &mut impl FnMut(usize, CoeffRef),
    ) -> u64 {
        if windows.is_empty() {
            return 0;
        }
        let all = if windows.len() == 64 {
            u64::MAX
        } else {
            (1u64 << windows.len()) - 1
        };
        let mut stack: Vec<(u32, u64)> = vec![(0, all)];
        let mut unique = 0u64;
        while let Some((id, group)) = stack.pop() {
            unique += 1;
            let mut g = group;
            while g != 0 {
                let w = g.trailing_zeros() as usize;
                g &= g - 1;
                per_window[base + w] += 1;
            }
            let bytes = self.page(id);
            let node = NodePage::<3>::parse(&bytes, REF_SIZE)
                // mar-lint: allow(D004) — the store was validated at open; a malformed node image is unrecoverable corruption
                .expect("malformed node page");
            match node.kind() {
                PagedNodeKind::Leaf => {
                    let mut g = group;
                    while g != 0 {
                        let w = g.trailing_zeros() as usize;
                        g &= g - 1;
                        let window = &windows[w];
                        for i in 0..node.len() {
                            if node.rect(i).intersects(window) {
                                visit(base + w, Self::decode_ref(node.item_bytes(i)));
                            }
                        }
                    }
                }
                PagedNodeKind::Internal => {
                    let mut start = 0;
                    while start < node.len() {
                        let n = (node.len() - start).min(64);
                        let mut child_masks = [0u64; 64];
                        let mut g = group;
                        while g != 0 {
                            let w = g.trailing_zeros() as usize;
                            g &= g - 1;
                            let window = &windows[w];
                            for (j, cm) in child_masks[..n].iter_mut().enumerate() {
                                if node.rect(start + j).intersects(window) {
                                    *cm |= 1u64 << w;
                                }
                            }
                        }
                        for (j, &cm) in child_masks[..n].iter().enumerate() {
                            if cm != 0 {
                                stack.push((node.child(start + j), cm));
                            }
                        }
                        start += n;
                    }
                }
            }
        }
        unique
    }

    /// Counts items intersecting `window`. Totals (count and accesses)
    /// equal [`mar_rtree::RTree::count_in`]'s, which itself matches the
    /// scalar search.
    pub fn count_in(&self, window: &Rect3) -> (usize, u64) {
        let mut hits = 0usize;
        let io = self.for_each(window, |_| hits += 1);
        (hits, io)
    }

    /// Touches the payload page holding `id`'s coefficient record — the
    /// disk trip a transmission performs. Counts a physical access on a
    /// pool miss; unknown ids are ignored.
    pub fn touch_payload(&self, id: CoeffRef) {
        if let Some(rec) = self.meta.record_index(id) {
            if rec < self.meta.n_records {
                let (page, _) = self.meta.record_page(rec);
                let _ = self.page(page);
            }
        }
    }

    /// Reads `id`'s coefficient record back from the store (through the
    /// pool). `None` for ids outside the stored scene.
    pub fn read_record(&self, id: CoeffRef) -> Option<StoredRecord> {
        let rec = self.meta.record_index(id)?;
        if rec >= self.meta.n_records {
            return None;
        }
        let (page, off) = self.meta.record_page(rec);
        let bytes = self.page(page);
        Some(decode_record(&bytes[off..off + RECORD_SIZE]))
    }

    /// Structural sanity of the open store (the deep validation happened
    /// at open: superblock, layout and per-page checksums).
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.data_pages() > self.file_pages {
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
    use mar_geom::{Point2, Rect2};
    use mar_mesh::ResolutionBand;
    use mar_rtree::BatchAccesses;
    use mar_workload::{Scene, SceneConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mar-core-paged-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(format!(
            "{}-{}-{name}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
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
        let d = data();
        let ram = WaveletIndex::build(&d);
        let path = tmp(name);
        write_store(&path, &d).expect("write");
        let paged =
            PagedIndex::open(&path, budget_pages * mar_store::PAGE_SIZE, policy).expect("open");
        (paged, ram, d)
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
            let paged_io = paged.for_each(w, |id| paged_hits.push(id));
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
        let ram_acc = ram
            .ram_tree()
            .expect("ram")
            .search_batch(&ws, |q, _, id| ram_hits[q].push(*id));
        let mut paged_hits: Vec<Vec<CoeffRef>> = vec![Vec::new(); ws.len()];
        // Stale tallies must be overwritten, not added to.
        let mut per_window = vec![7u64; ws.len()];
        let unique =
            paged.for_each_batch_into(&ws, &mut per_window, |q, id| paged_hits[q].push(id));
        assert_eq!(paged_hits, ram_hits, "per-window hit order");
        let paged_acc = BatchAccesses { per_window, unique };
        assert_eq!(paged_acc, ram_acc, "per-window logical + unique accesses");
    }

    #[test]
    fn count_in_matches_ram_totals() {
        let (paged, ram, _) = open_small("count.pages", 4, CachePolicy::Lru);
        for (k, w) in windows().iter().enumerate() {
            let (ram_n, ram_io) = ram.ram_tree().expect("ram").count_in(w);
            let (paged_n, paged_io) = paged.count_in(w);
            assert_eq!(paged_n, ram_n, "window {k} count");
            assert_eq!(paged_io, ram_io, "window {k} accesses");
        }
    }

    #[test]
    fn payload_touches_fault_then_hit() {
        let (paged, _, d) = open_small("payload.pages", 32, CachePolicy::Lru);
        let id = d.records[0].id;
        paged.reset_cache_stats();
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
}
