//! Proptest model test for `PageCache`: both policies are pinned against
//! a tiny reference model. Every read must return the same bytes as the
//! raw page file, the hit/fault/evict/bypass trace must equal the
//! model's decision sequence, and identical read sequences on fresh
//! caches must produce identical traces (determinism across runs and
//! `--jobs` counts — each case owns its own files, so test parallelism
//! cannot perturb the decisions). The pool's structural invariants
//! (`PageCache::validate`) are checked after every operation, and a
//! third property replays the same reads through [`TreePool`] — the
//! ordered-map pool `PageCache` was before its slab, deciding a whole
//! admission in one locked call — and demands the same trace. A fourth
//! drives the pool the way a caller that ranks outside a lock does
//! (`lookup`, then `plan` → `rank` → `commit` as separate calls) against
//! the same reference; the example tests after it put other work between
//! a plan and its commit, on one thread and on four. A fifth serves hits
//! off the lock (`HitPath::lookup`) and replays them in batches before
//! each admission, against the same reference.

use std::path::Path;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mar_store::{
    CachePolicy, Lookup, PageCache, PageCacheStats, PageFile, RecencyIndex, ScratchPath,
    TraceEvent, VictimPlan, HIT_SHARD_CAPACITY, PAGE_SIZE,
};
use proptest::prelude::*;

/// Builds a fresh page file for one case and returns its path, in a
/// directory of its own that goes when the path drops (also when a case
/// fails before its `remove_file`).
fn build_store(n_pages: usize) -> ScratchPath {
    let path = ScratchPath::new("store-model", "model.pages").expect("create tmp dir");
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

    /// The pages a victim scan would rank now, in scan order.
    fn candidates(&self) -> Vec<u32> {
        let protected = self.capacity_pages - self.capacity_pages / 4;
        let candidates = self.entries.len().saturating_sub(protected).max(1);
        self.recency
            .iter()
            .take(candidates)
            .map(|(_, &p)| p)
            .collect()
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
                    let mut coldest: Option<(f64, u32)> = None;
                    for p in self.candidates() {
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

/// Capacity and page count of a slab-pool proptest case: a small pool,
/// whose quarter (the motion-aware candidates) holds one or two pages, or
/// a pool of 16–48 pages over a file 1–56 pages larger, whose quarter of
/// 4–12 members sees tombstones, compaction and its last member used.
fn pool_shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (1usize..9, 2usize..24),
        (16usize..49, 1usize..57).prop_map(|(cap, extra)| (cap, cap + extra)),
    ]
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
    /// policies, including heats with NaNs and ties in them, at every
    /// [`pool_shape`].
    #[test]
    fn slab_pool_equals_the_ordered_map_pool(
        (cap, n_pages) in pool_shape(),
        raw_reads in prop::collection::vec(0u32..256, 1..400),
        raw_heats in prop::collection::vec(0u32..5, 104..105),
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

/// A read the way a caller that guards the pool with a lock runs it:
/// `lookup`, the file read, `plan`, and — when the plan asks for it —
/// `rank` and `commit` as separate calls, `between` running where such a
/// caller has let go of the lock. Returns the bytes and how many commits
/// were refused.
fn staged_read(
    pool: &Mutex<PageCache>,
    page: u32,
    scan: &mut VictimPlan,
    heat: &dyn Fn(u32) -> f64,
    mut between: impl FnMut(&VictimPlan),
) -> (Arc<Vec<u8>>, u32) {
    let hit = pool.lock().expect("pool").lookup(page);
    if let Some(data) = hit {
        return (data, 0);
    }
    let file = Arc::clone(pool.lock().expect("pool").file());
    let data = Arc::new(file.read_at(page).expect("file read"));
    let mut served = pool.lock().expect("pool").plan(page, &data, scan);
    let mut refused = 0;
    loop {
        if let Some(bytes) = served {
            return (bytes, refused);
        }
        between(scan);
        scan.rank(&mut |_, p| heat(p));
        between(scan);
        served = pool.lock().expect("pool").commit(&data, scan);
        refused += u32::from(served.is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One thread, admission in three calls: the candidates copied out
    /// are the ones the one-call scan walked, in its order, and the
    /// trace, counters and bytes are those of the pool that decided each
    /// admission in a single call — for both policies, NaN heats and ties
    /// included, at every [`pool_shape`]. No commit is ever refused.
    #[test]
    fn plan_rank_commit_equals_the_one_call_admission(
        (cap, n_pages) in pool_shape(),
        raw_reads in prop::collection::vec(0u32..256, 1..400),
        raw_heats in prop::collection::vec(0u32..5, 104..105),
    ) {
        let reads: Vec<u32> = raw_reads.iter().map(|r| r % n_pages as u32).collect();
        let heats: Vec<f64> = raw_heats
            .iter()
            .map(|&h| if h == 4 { f64::NAN } else { h as f64 })
            .collect();
        let heat = |p: u32| heats[p as usize];
        let path = build_store(n_pages);
        for policy in [CachePolicy::Lru, CachePolicy::MotionAware] {
            let mut staged = PageCache::new(PageFile::open(&path).expect("open"), cap * PAGE_SIZE, policy);
            staged.set_trace(true);
            let staged = Mutex::new(staged);
            let mut tree = TreePool::new(PageFile::open(&path).expect("open"), cap, policy);
            let mut scan = VictimPlan::default();
            for &p in &reads {
                let scanned = tree.candidates();
                let mut ranked = false;
                let (got, refused) = staged_read(&staged, p, &mut scan, &heat, |scan| {
                    let pages: Vec<u32> = scan.candidates().iter().map(|&(_, page)| page).collect();
                    assert_eq!(pages, scanned, "candidates for page {p}");
                    ranked = true;
                });
                prop_assert_eq!(refused, 0);
                let (want, _) = tree.read(p, &heat);
                prop_assert_eq!(got.as_slice(), want.as_slice(), "bytes of page {}", p);
                let mut staged = staged.lock().expect("pool");
                staged.validate().map_err(TestCaseError::Fail)?;
                let trace = std::mem::take(&mut tree.trace);
                let full = !matches!(trace[0], TraceEvent::Hit(_))
                    && (trace.len() == 2 || matches!(trace[0], TraceEvent::Bypass(_)));
                prop_assert_eq!(ranked, full && policy == CachePolicy::MotionAware);
                prop_assert_eq!(staged.take_trace(), trace, "decision on page {}", p);
            }
            prop_assert_eq!(staged.lock().expect("pool").stats(), tree.stats);
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One thread, some hits served off the lock through the pool's
    /// `HitPath` and replayed in batches of 1 up to the shard capacity —
    /// whatever a batch leaves pending is replayed by the next admission's
    /// plan, or before the next locked read — and the trace, counters and
    /// bytes are those of the pool that took every look-up under its lock:
    /// the [`TreePool`] reference, for both policies, NaN heats and ties
    /// included, at every [`pool_shape`]. An off-lock look-up finds a page
    /// exactly when the reference hits it.
    #[test]
    fn hits_replayed_before_each_admission_equal_the_locked_pool(
        (cap, n_pages) in pool_shape(),
        raw_reads in prop::collection::vec((0u32..256, 0u32..2), 1..400),
        raw_heats in prop::collection::vec(0u32..5, 104..105),
        batches in prop::collection::vec(1usize..HIT_SHARD_CAPACITY + 1, 1..16),
    ) {
        let heats: Vec<f64> = raw_heats
            .iter()
            .map(|&h| if h == 4 { f64::NAN } else { h as f64 })
            .collect();
        let heat = |p: u32| heats[p as usize];
        let path = build_store(n_pages);
        for policy in [CachePolicy::Lru, CachePolicy::MotionAware] {
            let mut pool = PageCache::new(PageFile::open(&path).expect("open"), cap * PAGE_SIZE, policy);
            pool.set_trace(true);
            let hits = Arc::clone(pool.hit_path());
            let mut tree = TreePool::new(PageFile::open(&path).expect("open"), cap, policy);
            let mut trace = Vec::new();
            let mut batch = batches.iter().cycle();
            let mut due = batch.next().copied().unwrap_or(1);
            let mut pending = 0;
            for &(raw, off_lock) in &raw_reads {
                let p = raw % n_pages as u32;
                let (want, want_hit) = tree.read(p, &heat);
                let got = if off_lock == 1 {
                    match hits.lookup(p) {
                        Lookup::Hit(bytes) | Lookup::HitReplayDue(bytes) => {
                            prop_assert!(want_hit, "off-lock hit on page {} the reference misses", p);
                            pending += 1;
                            bytes
                        }
                        Lookup::Miss => {
                            prop_assert!(!want_hit, "off-lock miss on page {} the reference hits", p);
                            let data = Arc::new(pool.file().read_at(p).expect("file read"));
                            pending = 0;
                            pool.admit(p, data, &mut |_, p| heat(p))
                        }
                    }
                } else {
                    pool.replay();
                    pending = 0;
                    let (bytes, hit) = pool.read_with_heat(p, &mut |_, p| heat(p)).expect("read");
                    prop_assert_eq!(hit, want_hit, "hit on page {}", p);
                    bytes
                };
                prop_assert_eq!(got.as_slice(), want.as_slice(), "bytes of page {}", p);
                if pending >= due {
                    pool.replay();
                    pending = 0;
                    due = batch.next().copied().unwrap_or(1);
                }
                if pending == 0 {
                    pool.validate().map_err(TestCaseError::Fail)?;
                    trace.extend(pool.take_trace());
                    prop_assert_eq!(&trace, &tree.trace, "decisions up to page {}", p);
                }
            }
            pool.replay_all();
            trace.extend(pool.take_trace());
            prop_assert_eq!(&trace, &tree.trace);
            prop_assert_eq!(pool.stats(), tree.stats);
            pool.validate().map_err(TestCaseError::Fail)?;
        }
        std::fs::remove_file(&path).ok();
    }
}

/// An 8-page motion-aware pool holding pages 0..8, page 0 least recent,
/// tracing on. It ranks its two least recent pages; with `heat(p) = p`
/// the victim is the lower page id.
fn full_pool(path: &Path) -> Mutex<PageCache> {
    let file = PageFile::open(path).expect("open");
    let mut pool = PageCache::new(file, 8 * PAGE_SIZE, CachePolicy::MotionAware);
    for p in 0..8 {
        pool.read(p).expect("fill");
    }
    pool.set_trace(true);
    Mutex::new(pool)
}

fn by_page_id(p: u32) -> f64 {
    f64::from(p)
}

/// Reads page 10 into [`full_pool`] under `heat`, running `meanwhile`
/// against the pool once the victim is ranked and before the commit.
/// Returns the pool, the refused commits and how often the candidates
/// were ranked.
fn race_the_commit(
    path: &Path,
    heat: &dyn Fn(u32) -> f64,
    meanwhile: impl Fn(&mut PageCache),
) -> (PageCache, u32, u32) {
    let pool = full_pool(path);
    let mut scan = VictimPlan::default();
    let mut calls = 0;
    let (_, refused) = staged_read(&pool, 10, &mut scan, heat, |_| {
        calls += 1;
        if calls == 2 {
            meanwhile(&mut pool.lock().expect("pool"));
        }
    });
    (pool.into_inner().expect("pool"), refused, calls / 2)
}

/// Whatever happens to the chosen victim's slot between the plan and the
/// commit — a hit, an eviction, an eviction and a refill with the very
/// page that was ranked — the commit evicts the runner-up: the coldest
/// candidate whose slot is still unused, by the plan's heats, bypass rule
/// included. Nothing is ranked again and the fault is counted once. Only
/// when every candidate's slot was used does the pool plan again, and
/// that second round, ranked over fresh candidates, stands.
#[test]
fn a_commit_whose_victim_was_used_since_the_plan_takes_the_runner_up() {
    use TraceEvent::{Bypass, Evict, Fault, Hit};
    let path = build_store(16);
    let hit = |pages: &'static [u32]| {
        move |pool: &mut PageCache| {
            for &p in pages {
                assert!(pool.lookup(p).is_some(), "page {p} is resident");
            }
        }
    };

    // Hit: page 0 is chosen, then hit; page 1 goes instead.
    let (mut pool, refused, rankings) = race_the_commit(&path, &by_page_id, hit(&[0]));
    assert_eq!((refused, rankings), (0, 1));
    assert_eq!(pool.take_trace(), [Hit(0), Evict(1), Fault(10)]);
    assert_eq!(pool.stats().faults, 8 + 1, "the fault is counted once");
    assert!(pool.contains(0) && pool.contains(10) && !pool.contains(1));
    pool.validate().expect("pool structure");

    // Evicted: another admission takes the chosen victim first, so its
    // slot holds page 11 when the commit arrives.
    let (mut pool, refused, rankings) = race_the_commit(&path, &by_page_id, |pool| {
        pool.read_with_heat(11, &mut |_, p| by_page_id(p))
            .expect("read");
    });
    assert_eq!((refused, rankings), (0, 1));
    assert_eq!(
        pool.take_trace(),
        [Evict(0), Fault(11), Evict(1), Fault(10)]
    );
    assert!(pool.contains(10) && pool.contains(11));
    pool.validate().expect("pool structure");

    // Evicted and refilled with the *same* page: slot 0 goes 0 → 11, six
    // hits age page 11 into the candidates, and a read of page 0 ranked
    // to evict 11 puts page 0 back into slot 0. The slot holds the ranked
    // page again, but it is not the use that was ranked.
    let (mut pool, refused, rankings) = race_the_commit(&path, &by_page_id, |pool| {
        pool.read_with_heat(11, &mut |_, p| by_page_id(p))
            .expect("read");
        hit(&[2, 3, 4, 5, 6, 7])(pool);
        let only_11_is_cold = |p: u32| if p == 11 { 0.0 } else { 100.0 };
        pool.read_with_heat(0, &mut |_, p| only_11_is_cold(p))
            .expect("read");
    });
    assert_eq!((refused, rankings), (0, 1));
    let mut want = vec![Evict(0), Fault(11)];
    want.extend((2..8).map(Hit));
    want.extend([Evict(11), Fault(0), Evict(1), Fault(10)]);
    assert_eq!(pool.take_trace(), want);
    assert!(pool.contains(0) && pool.contains(10) && !pool.contains(1));
    pool.validate().expect("pool structure");

    // The runner-up is hotter than the page being admitted: bypass.
    let heat = |p: u32| if p == 10 { 0.5 } else { by_page_id(p) };
    let (mut pool, refused, rankings) = race_the_commit(&path, &heat, hit(&[0]));
    assert_eq!((refused, rankings), (0, 1));
    assert_eq!(pool.take_trace(), [Hit(0), Bypass(10)]);
    assert_eq!((pool.stats().bypasses, pool.stats().evictions), (1, 0));
    pool.validate().expect("pool structure");

    // Every candidate used: the pool plans again, over pages 2 and 3.
    let (mut pool, refused, rankings) = race_the_commit(&path, &by_page_id, hit(&[0, 1]));
    assert_eq!((refused, rankings), (1, 2));
    assert_eq!(pool.take_trace(), [Hit(0), Hit(1), Evict(2), Fault(10)]);
    assert_eq!(
        pool.stats().faults,
        8 + 1,
        "a re-plan counts no second fault"
    );
    pool.validate().expect("pool structure");

    // The same in a one-page pool, whose only slot goes 0 → 11 → 0.
    let file = PageFile::open(&path).expect("open");
    let mut pool = PageCache::new(file, PAGE_SIZE, CachePolicy::MotionAware);
    pool.read(0).expect("fill");
    pool.set_trace(true);
    let pool = Mutex::new(pool);
    let mut scan = VictimPlan::default();
    let mut calls = 0;
    let (_, refused) = staged_read(&pool, 10, &mut scan, &|_| 0.0, |scan| {
        calls += 1;
        assert_eq!(scan.candidates(), [(0, 0)]);
        if calls == 2 {
            let mut pool = pool.lock().expect("pool");
            pool.read(11).expect("read");
            pool.read(0).expect("read");
        }
    });
    assert_eq!((refused, calls), (1, 4));
    let mut pool = pool.into_inner().expect("pool");
    assert_eq!(
        pool.take_trace(),
        [
            Evict(0),
            Fault(11),
            Evict(11),
            Fault(0),
            Evict(0),
            Fault(10)
        ]
    );
    pool.validate().expect("pool structure");
    std::fs::remove_file(&path).ok();
}

/// Two outcomes a stale plan does not void: the page was admitted by
/// someone else meanwhile (the resident copy is served, nobody is
/// evicted), and use of a candidate that was *not* chosen.
#[test]
fn a_commit_survives_what_did_not_touch_its_victim() {
    use TraceEvent::{Evict, Fault, Hit};
    let path = build_store(16);
    let mut scan = VictimPlan::default();

    let pool = full_pool(&path);
    let mut rounds = 0;
    let (got, refused) = staged_read(&pool, 10, &mut scan, &by_page_id, |_| {
        rounds += 1;
        if rounds == 2 {
            let mut pool = pool.lock().expect("pool");
            pool.read_with_heat(10, &mut |_, p| by_page_id(p))
                .expect("read");
        }
    });
    assert_eq!(refused, 0);
    let mut pool = pool.into_inner().expect("pool");
    assert_eq!(pool.take_trace(), [Evict(0), Fault(10)]);
    let (resident, hit) = pool.read(10).expect("read");
    assert!(
        hit && Arc::ptr_eq(&got, &resident),
        "the resident copy was served"
    );
    let s = pool.stats();
    assert_eq!((s.lookups, s.hits, s.faults), (8 + 3, 1, 8 + 2));
    pool.validate().expect("pool structure");

    let pool = full_pool(&path);
    let mut rounds = 0;
    let (_, refused) = staged_read(&pool, 10, &mut scan, &by_page_id, |_| {
        rounds += 1;
        if rounds == 2 {
            assert!(pool.lock().expect("pool").lookup(1).is_some());
        }
    });
    assert_eq!(refused, 0);
    let mut pool = pool.into_inner().expect("pool");
    assert_eq!(pool.take_trace(), [Hit(1), Evict(0), Fault(10)]);
    pool.validate().expect("pool structure");
    std::fs::remove_file(&path).ok();
}

/// Four threads, one pool behind a mutex, every ranking done with the
/// mutex released: whatever interleaving results, no look-up is lost, no
/// fault counted twice, the structure holds and every byte is the file's.
#[test]
fn four_threads_ranking_unlocked_keep_the_accounting_and_the_structure() {
    const THREADS: u32 = 4;
    const READS: u32 = 4000;
    const PAGES: u32 = 40;
    let path = build_store(PAGES as usize);
    let raw = PageFile::open(&path).expect("open raw");
    let want: Vec<Vec<u8>> = (0..PAGES).map(|p| raw.read_at(p).expect("raw")).collect();
    let file = PageFile::open(&path).expect("open");
    let pool = Mutex::new(PageCache::new(
        file,
        8 * PAGE_SIZE,
        CachePolicy::MotionAware,
    ));
    let start = std::sync::Barrier::new(THREADS as usize);
    let refused: u32 = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, want, start) = (&pool, &want, &start);
                scope.spawn(move || {
                    let mut scan = VictimPlan::default();
                    let mut refused = 0;
                    let mut x = 0x9e37_79b9_u32.wrapping_mul(t + 1);
                    start.wait();
                    for _ in 0..READS {
                        // xorshift: a hot dozen pages most of the time, a
                        // sweep of the whole file otherwise.
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        let page = (x >> 2) % if x & 3 == 0 { PAGES } else { 12 };
                        // Heats that differ per thread, so rankings disagree.
                        let heat = |p: u32| f64::from((p + t) % 5);
                        let (got, r) =
                            staged_read(pool, page, &mut scan, &heat, |_| std::thread::yield_now());
                        assert_eq!(*got, want[page as usize], "page {page}");
                        refused += r;
                    }
                    refused
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("reader thread"))
            .sum()
    });
    let pool = pool.into_inner().expect("pool");
    let s = pool.stats();
    assert_eq!(s.lookups, u64::from(THREADS * READS));
    assert_eq!(s.lookups, s.hits + s.faults);
    assert!(s.evictions > 0 && s.hits > 0);
    pool.validate().expect("pool structure");
    // Informational: how often another thread got to the victim first.
    eprintln!("{refused} commits refused in {} faults", s.faults);
    std::fs::remove_file(&path).ok();
}
