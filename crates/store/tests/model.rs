//! Proptest model test for `PageCache`: both policies are pinned against
//! a tiny reference model. Every read must return the same bytes as the
//! raw page file, the hit/fault/evict/bypass trace must equal the
//! model's decision sequence, and identical read sequences on fresh
//! caches must produce identical traces (determinism across runs and
//! `--jobs` counts — each case owns its own files, so test parallelism
//! cannot perturb the decisions). The pool's structural invariants
//! (`PageCache::validate`) are checked after every operation, and a
//! third property replays the same reads through [`TreePool`] — the
//! ordered-map pool `PageCache` was before its slab — and demands the
//! same trace.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use std::collections::BTreeMap;
use std::sync::Arc;

use mar_store::{
    CachePolicy, PageCache, PageCacheStats, PageFile, RecencyIndex, TraceEvent, PAGE_SIZE,
};
use proptest::prelude::*;

static CASE: AtomicU64 = AtomicU64::new(0);

/// Builds a fresh page file for one case and returns its path. Names are
/// unique per process + case so parallel test binaries never collide.
fn build_store(n_pages: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("mar-store-model");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("model-{}-{id}.pages", std::process::id()));
    let payloads: Vec<Vec<u8>> = (0..n_pages)
        .map(|i| {
            let mut p = vec![(i % 251) as u8; 48];
            p[0] = (i >> 8) as u8;
            p[1] = i as u8;
            p
        })
        .collect();
    PageFile::create(&path, &payloads).expect("create page file");
    path
}

/// Reference model: a cache is a set of (page, stamp) pairs plus a
/// clock. LRU victimizes the lowest stamp; motion-aware protects the
/// most recently used three quarters of the pool, victimizes the
/// coldest of the rest (stamp tie-break), and refuses admission of
/// pages colder than the victim.
struct Model {
    policy: CachePolicy,
    cap: usize,
    clock: u64,
    resident: Vec<(u32, u64)>,
}

impl Model {
    fn new(policy: CachePolicy, cap: usize) -> Self {
        Self {
            policy,
            cap,
            clock: 0,
            resident: Vec::new(),
        }
    }

    fn read(&mut self, page: u32, heat: &dyn Fn(u32) -> f64) -> Vec<TraceEvent> {
        self.clock += 1;
        if let Some(slot) = self.resident.iter_mut().find(|(p, _)| *p == page) {
            slot.1 = self.clock;
            return vec![TraceEvent::Hit(page)];
        }
        let mut events = Vec::new();
        if self.resident.len() >= self.cap {
            let mut by_stamp: Vec<(u32, u64)> = self.resident.clone();
            by_stamp.sort_by_key(|&(_, s)| s);
            let candidates = match self.policy {
                CachePolicy::Lru => 1,
                CachePolicy::MotionAware => {
                    let protected = self.cap - self.cap / 4;
                    by_stamp.len().saturating_sub(protected).max(1)
                }
            };
            let (victim, _) = *by_stamp[..candidates]
                .iter()
                .min_by(|(pa, sa), (pb, sb)| match self.policy {
                    CachePolicy::Lru => sa.cmp(sb),
                    CachePolicy::MotionAware => heat(*pa).total_cmp(&heat(*pb)).then(sa.cmp(sb)),
                })
                .expect("resident set at capacity");
            if self.policy == CachePolicy::MotionAware && heat(page) < heat(victim) {
                return vec![TraceEvent::Bypass(page)];
            }
            self.resident.retain(|(p, _)| *p != victim);
            events.push(TraceEvent::Evict(victim));
        }
        self.resident.push((page, self.clock));
        events.push(TraceEvent::Fault(page));
        events
    }
}

/// Runs `reads` through a fresh cache over `path`, checking bytes
/// against a raw `PageFile` and the trace against the model. Returns the
/// trace for cross-run comparison.
fn run_and_check(
    path: &Path,
    policy: CachePolicy,
    cap: usize,
    reads: &[u32],
    heats: &[f64],
) -> Result<Vec<TraceEvent>, TestCaseError> {
    let heat = |p: u32| heats[p as usize];
    let file = PageFile::open(path).expect("open for cache");
    let mut raw = PageFile::open(path).expect("open raw");
    let mut cache = PageCache::new(file, cap * PAGE_SIZE, policy);
    cache.set_trace(true);
    let mut model = Model::new(policy, cache.capacity_pages());
    let mut trace = Vec::new();
    for &p in reads {
        let (got, hit) = cache
            .read_with_heat(p, &mut |_, p| heat(p))
            .expect("cache read");
        cache.validate().map_err(TestCaseError::Fail)?;
        let want = raw.read_page_vec(p).expect("raw read");
        prop_assert_eq!(got.as_slice(), want.as_slice(), "bytes of page {}", p);
        let expected = model.read(p, &heat);
        let actual = cache.take_trace();
        prop_assert_eq!(&actual, &expected, "decision on page {}", p);
        prop_assert_eq!(hit, matches!(expected[0], TraceEvent::Hit(_)));
        trace.extend(actual);
    }
    let s = cache.stats();
    prop_assert_eq!(s.lookups, reads.len() as u64);
    prop_assert_eq!(s.hits + s.faults, s.lookups);
    Ok(trace)
}

/// The pool as it was before the slab: residents in a `BTreeMap` keyed
/// by page id, recency in a [`RecencyIndex`] of unique stamps, victim
/// scans streaming out of the index least-recent first. Kept as the
/// reference the slab must reproduce decision for decision.
struct TreePool {
    file: PageFile,
    policy: CachePolicy,
    capacity_pages: usize,
    entries: BTreeMap<u32, (u64, Arc<Vec<u8>>)>,
    recency: RecencyIndex<u32>,
    stats: PageCacheStats,
    trace: Vec<TraceEvent>,
}

impl TreePool {
    fn new(file: PageFile, capacity_pages: usize, policy: CachePolicy) -> Self {
        Self {
            file,
            policy,
            capacity_pages,
            entries: BTreeMap::new(),
            recency: RecencyIndex::new(),
            stats: PageCacheStats::default(),
            trace: Vec::new(),
        }
    }

    fn read(&mut self, page: u32, heat: &dyn Fn(u32) -> f64) -> (Arc<Vec<u8>>, bool) {
        self.stats.lookups += 1;
        if let Some((stamp, data)) = self.entries.get_mut(&page) {
            *stamp = self.recency.touch(*stamp, page);
            self.stats.hits += 1;
            self.trace.push(TraceEvent::Hit(page));
            return (Arc::clone(data), true);
        }
        let data = Arc::new(self.file.read_page_vec(page).expect("reference read"));
        self.stats.faults += 1;
        if self.entries.len() >= self.capacity_pages {
            let victim = match self.policy {
                CachePolicy::Lru => self.recency.peek_lru().map(|(_, &p)| p),
                CachePolicy::MotionAware => {
                    let protected = self.capacity_pages - self.capacity_pages / 4;
                    let candidates = self.entries.len().saturating_sub(protected).max(1);
                    let mut coldest: Option<(f64, u32)> = None;
                    for (_, &p) in self.recency.iter().take(candidates) {
                        let h = heat(p);
                        if coldest.is_none_or(|(ch, _)| h < ch) {
                            coldest = Some((h, p));
                        }
                    }
                    coldest.map(|(_, p)| p)
                }
            }
            .expect("a full pool has a victim");
            if self.policy == CachePolicy::MotionAware && heat(page) < heat(victim) {
                self.stats.bypasses += 1;
                self.trace.push(TraceEvent::Bypass(page));
                return (data, false);
            }
            let (stamp, _) = self.entries.remove(&victim).expect("victim is resident");
            self.recency.remove(stamp);
            self.stats.evictions += 1;
            self.trace.push(TraceEvent::Evict(victim));
        }
        let stamp = self.recency.tick();
        self.recency.insert(stamp, page);
        self.entries.insert(page, (stamp, Arc::clone(&data)));
        self.trace.push(TraceEvent::Fault(page));
        (data, false)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_matches_model_and_is_deterministic(
        n_pages in 2usize..20,
        cap in 1usize..6,
        raw_reads in prop::collection::vec(0u32..64, 1..120),
        raw_heats in prop::collection::vec(0u32..4, 20..21),
    ) {
        let reads: Vec<u32> = raw_reads.iter().map(|r| r % n_pages as u32).collect();
        // Quantized heats so ties exercise the stamp tie-break.
        let heats: Vec<f64> = raw_heats.iter().map(|&h| h as f64).collect();
        let path = build_store(n_pages);
        for policy in [CachePolicy::Lru, CachePolicy::MotionAware] {
            let t1 = run_and_check(&path, policy, cap, &reads, &heats)?;
            let t2 = run_and_check(&path, policy, cap, &reads, &heats)?;
            prop_assert_eq!(t1, t2, "eviction order must be run-invariant");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uniform_heat_equals_lru(
        n_pages in 2usize..16,
        cap in 1usize..5,
        raw_reads in prop::collection::vec(0u32..64, 1..100),
    ) {
        let reads: Vec<u32> = raw_reads.iter().map(|r| r % n_pages as u32).collect();
        let heats = vec![1.0f64; n_pages];
        let path = build_store(n_pages);
        let lru = run_and_check(&path, CachePolicy::Lru, cap, &reads, &heats)?;
        let motion = run_and_check(&path, CachePolicy::MotionAware, cap, &reads, &heats)?;
        prop_assert_eq!(lru, motion, "uniform heat must degenerate to LRU");
        std::fs::remove_file(&path).ok();
    }

    /// Slab + list ≡ `BTreeMap` + `RecencyIndex`: the same reads under
    /// the same heats leave the same trace, counters and bytes, for both
    /// policies, including heats with NaNs and ties in them.
    #[test]
    fn slab_pool_equals_the_ordered_map_pool(
        n_pages in 2usize..24,
        cap in 1usize..9,
        raw_reads in prop::collection::vec(0u32..96, 1..160),
        raw_heats in prop::collection::vec(0u32..5, 24..25),
    ) {
        let reads: Vec<u32> = raw_reads.iter().map(|r| r % n_pages as u32).collect();
        let heats: Vec<f64> = raw_heats
            .iter()
            .map(|&h| if h == 4 { f64::NAN } else { h as f64 })
            .collect();
        let heat = |p: u32| heats[p as usize];
        let path = build_store(n_pages);
        for policy in [CachePolicy::Lru, CachePolicy::MotionAware] {
            let mut slab = PageCache::new(PageFile::open(&path).expect("open"), cap * PAGE_SIZE, policy);
            slab.set_trace(true);
            let mut tree = TreePool::new(PageFile::open(&path).expect("open"), cap, policy);
            for &p in &reads {
                let (got, hit) = slab.read_with_heat(p, &mut |_, p| heat(p)).expect("slab read");
                slab.validate().map_err(TestCaseError::Fail)?;
                let (want, want_hit) = tree.read(p, &heat);
                prop_assert_eq!(got.as_slice(), want.as_slice(), "bytes of page {}", p);
                prop_assert_eq!(hit, want_hit, "hit on page {}", p);
                prop_assert_eq!(slab.take_trace(), std::mem::take(&mut tree.trace), "decision on page {}", p);
            }
            prop_assert_eq!(slab.stats(), tree.stats);
        }
        std::fs::remove_file(&path).ok();
    }
}
