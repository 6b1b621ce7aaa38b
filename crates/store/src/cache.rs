//! The server-side buffer pool: a hard byte budget over [`PageFile`]
//! reads with deterministic, policy-switchable eviction.
//!
//! Two policies share one mechanism:
//!
//! * [`CachePolicy::Lru`] — classic least-recently-used, the ablation
//!   baseline. Victim = the entry with the lowest recency stamp.
//! * [`CachePolicy::MotionAware`] — the Eq. 2 promotion: an externally
//!   supplied *heat* function ranks pages by how much of the k-direction
//!   allocation (aggregated over connected sessions) falls on them.
//!   Eviction is **recency-protected**: the most recently used three
//!   quarters of the pool are exempt (demand reuse is recency-shaped —
//!   consecutive overlapping query windows re-descend the same node
//!   pages within a few ticks), and heat ranks only the oldest quarter,
//!   so the direction signal chooses among pages no session has touched
//!   lately.
//!   Victim = the coldest unprotected entry (ties broken by lowest
//!   stamp), and a faulted page colder than the would-be victim is
//!   served but **not** admitted — scan resistance, so a one-off sweep
//!   cannot flush the pages the sessions' predicted motion is about to
//!   need.
//!
//! With a uniform heat function the motion-aware policy degenerates to
//! exactly LRU (the LRU victim is always in the unprotected least-recent
//! quarter; equal heat → stamp tie-break picks it, and the bypass test
//! `heat(new) < heat(victim)` never fires), which is what makes the
//! ablation a controlled comparison.
//!
//! Cost: the pool never computes a heat itself. On a fault into a full
//! motion-aware pool it asks the caller's `FnMut(u32) -> f64` once per
//! candidate of the unprotected quarter (a quarter of the pool per
//! eviction), then for the faulted page and the chosen victim; hits,
//! LRU pools and pools with room never call it. Because the closure may
//! keep state, a caller whose heats are expensive memoises them — the
//! paged backend keeps one `(motion epoch, heat)` slot per page
//! (mar-core `paged.rs`, DESIGN.md §15.2) — and the pool stays
//! oblivious: a decision depends only on the values returned.
//!
//! Determinism: entries live in a `BTreeMap` keyed by page id, victim
//! scans iterate in key order, floats compare via `total_cmp`, and the
//! recency side index is a [`RecencyIndex`] — identical read sequences
//! yield identical hit/fault/evict/bypass traces on every run.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::page::{PageFile, StoreError, PAGE_SIZE};
use crate::recency::RecencyIndex;

/// Eviction/admission policy for a [`PageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Plain least-recently-used (ablation baseline).
    Lru,
    /// Heat-ranked admission and eviction (Eq. 2 k-direction promotion).
    MotionAware,
}

impl CachePolicy {
    /// Stable lowercase name, used in bench JSON and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::MotionAware => "motion",
        }
    }
}

/// Counters a [`PageCache`] keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Total page requests.
    pub lookups: u64,
    /// Requests served from the pool.
    pub hits: u64,
    /// Requests that went to the page file (physical reads).
    pub faults: u64,
    /// Resident pages dropped to make room.
    pub evictions: u64,
    /// Faulted pages served but not admitted (motion-aware only).
    pub bypasses: u64,
}

impl PageCacheStats {
    /// Hits over lookups; `1.0` when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One cache decision, recorded when tracing is on. The proptest model
/// test replays traces across runs to pin eviction-order determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Page served from the pool.
    Hit(u32),
    /// Page read from the file and admitted.
    Fault(u32),
    /// Page dropped to make room.
    Evict(u32),
    /// Page read from the file but not admitted (colder than victim).
    Bypass(u32),
}

#[derive(Debug, Clone)]
struct Resident {
    stamp: u64,
    data: Arc<Vec<u8>>,
}

/// Deterministic bounded buffer pool over a [`PageFile`].
#[derive(Debug)]
pub struct PageCache {
    file: PageFile,
    policy: CachePolicy,
    capacity_pages: usize,
    entries: BTreeMap<u32, Resident>,
    recency: RecencyIndex<u32>,
    stats: PageCacheStats,
    trace: Option<Vec<TraceEvent>>,
}

impl PageCache {
    /// Wraps `file` in a pool holding at most `budget_bytes` of page
    /// data (at least one page, so progress is always possible).
    pub fn new(file: PageFile, budget_bytes: usize, policy: CachePolicy) -> Self {
        let capacity_pages = (budget_bytes / PAGE_SIZE).max(1);
        Self {
            file,
            policy,
            capacity_pages,
            entries: BTreeMap::new(),
            recency: RecencyIndex::new(),
            stats: PageCacheStats::default(),
            trace: None,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Hard capacity in pages implied by the byte budget.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Pages in the underlying file.
    pub fn file_page_count(&self) -> u32 {
        self.file.page_count()
    }

    /// Current counters.
    pub fn stats(&self) -> PageCacheStats {
        self.stats
    }

    /// Zeroes the counters (resident set and recency are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = PageCacheStats::default();
    }

    /// Turns decision tracing on (`take_trace` collects the log).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the recorded decisions; empty when tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// True when `page` is resident (no stats or recency side effects).
    pub fn contains(&self, page: u32) -> bool {
        self.entries.contains_key(&page)
    }

    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Reads `page` under a uniform heat function (policy degenerates to
    /// LRU). Returns the payload and whether it was a pool hit.
    pub fn read(&mut self, page: u32) -> Result<(Arc<Vec<u8>>, bool), StoreError> {
        self.read_with_heat(page, &mut |_| 0.0)
    }

    /// Reads `page`, ranking admission/eviction by `heat` (higher =
    /// hotter = more worth keeping). Returns the payload and whether it
    /// was a pool hit. `heat` may keep state (see the module docs on
    /// cost) but must return the same value for the same page throughout
    /// one call.
    pub fn read_with_heat(
        &mut self,
        page: u32,
        heat: &mut dyn FnMut(u32) -> f64,
    ) -> Result<(Arc<Vec<u8>>, bool), StoreError> {
        self.stats.lookups += 1;
        if let Some(res) = self.entries.get_mut(&page) {
            let data = Arc::clone(&res.data);
            res.stamp = self.recency.touch(res.stamp, page);
            self.stats.hits += 1;
            self.record(TraceEvent::Hit(page));
            return Ok((data, true));
        }

        let data = Arc::new(self.file.read_page_vec(page)?);
        self.stats.faults += 1;

        if self.entries.len() >= self.capacity_pages {
            let victim = match self.policy {
                CachePolicy::Lru => self.recency.peek_lru().map(|(_, &p)| p),
                CachePolicy::MotionAware => {
                    // Recency-protected heat ranking: exempt the most
                    // recently used three quarters of the pool and pick
                    // the coldest of the rest. Candidates stream out of
                    // the recency index least-recent first, so the strict
                    // `<` keeps the lowest-stamped of equally cold pages —
                    // with a uniform heat that is exactly the LRU victim.
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
            };
            // `victim` is always present here (capacity ≥ 1 and the cache
            // is full); written as `if let` to keep the path panic-free.
            if let Some(victim) = victim {
                if self.policy == CachePolicy::MotionAware && heat(page) < heat(victim) {
                    // Admission bypass: the faulted page is colder than
                    // everything resident — serve it without caching it.
                    self.stats.bypasses += 1;
                    self.record(TraceEvent::Bypass(page));
                    return Ok((data, false));
                }
                if let Some(res) = self.entries.remove(&victim) {
                    self.recency.remove(res.stamp);
                }
                self.stats.evictions += 1;
                self.record(TraceEvent::Evict(victim));
            }
        }

        let stamp = self.recency.tick();
        self.recency.insert(stamp, page);
        self.entries.insert(
            page,
            Resident {
                stamp,
                data: Arc::clone(&data),
            },
        );
        self.record(TraceEvent::Fault(page));
        Ok((data, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_PAYLOAD;
    use std::path::PathBuf;

    fn store(name: &str, pages: usize) -> PageFile {
        let dir = std::env::temp_dir().join("mar-store-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path: PathBuf = dir.join(name);
        let payloads: Vec<Vec<u8>> = (0..pages).map(|i| vec![i as u8; 32]).collect();
        PageFile::create(&path, &payloads).expect("create");
        PageFile::open(&path).expect("open")
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::new(store("lru.pages", 4), 2 * PAGE_SIZE, CachePolicy::Lru);
        c.set_trace(true);
        c.read(0).unwrap();
        c.read(1).unwrap();
        c.read(0).unwrap(); // refresh 0 → victim is 1
        c.read(2).unwrap();
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
        assert_eq!(
            c.take_trace(),
            vec![
                TraceEvent::Fault(0),
                TraceEvent::Fault(1),
                TraceEvent::Hit(0),
                TraceEvent::Evict(1),
                TraceEvent::Fault(2),
            ]
        );
    }

    #[test]
    fn uniform_heat_degenerates_to_lru() {
        let reads = [0u32, 1, 0, 2, 3, 1, 0, 3, 2, 1];
        let mut lru = PageCache::new(store("deg-l.pages", 4), 2 * PAGE_SIZE, CachePolicy::Lru);
        let mut mot = PageCache::new(
            store("deg-m.pages", 4),
            2 * PAGE_SIZE,
            CachePolicy::MotionAware,
        );
        lru.set_trace(true);
        mot.set_trace(true);
        for &p in &reads {
            lru.read(p).unwrap();
            mot.read(p).unwrap();
        }
        assert_eq!(lru.take_trace(), mot.take_trace());
        assert_eq!(lru.stats(), mot.stats());
    }

    #[test]
    fn motion_aware_bypasses_cold_pages() {
        let mut c = PageCache::new(
            store("bypass.pages", 4),
            2 * PAGE_SIZE,
            CachePolicy::MotionAware,
        );
        // Pages 0 and 1 are hot; 2 and 3 are a cold scan.
        let mut heat = |p: u32| if p < 2 { 10.0 } else { 0.0 };
        c.set_trace(true);
        c.read_with_heat(0, &mut heat).unwrap();
        c.read_with_heat(1, &mut heat).unwrap();
        c.read_with_heat(2, &mut heat).unwrap(); // cold → bypass
        c.read_with_heat(3, &mut heat).unwrap(); // cold → bypass
        let (_, hit) = c.read_with_heat(0, &mut heat).unwrap();
        assert!(hit, "hot page survived the scan");
        assert_eq!(
            c.take_trace(),
            vec![
                TraceEvent::Fault(0),
                TraceEvent::Fault(1),
                TraceEvent::Bypass(2),
                TraceEvent::Bypass(3),
                TraceEvent::Hit(0),
            ]
        );
        let s = c.stats();
        assert_eq!((s.bypasses, s.evictions), (2, 0));
    }

    #[test]
    fn bytes_match_raw_file_under_pressure() {
        let mut raw = store("bytes-raw.pages", 8);
        let mut c = PageCache::new(store("bytes-c.pages", 8), PAGE_SIZE, CachePolicy::Lru);
        for &p in &[0u32, 5, 2, 5, 0, 7, 1, 1, 3, 6, 4, 0] {
            let (got, _) = c.read(p).unwrap();
            let mut want = [0u8; PAGE_PAYLOAD];
            raw.read_page(p, &mut want).unwrap();
            assert_eq!(got.as_slice(), &want[..], "page {p}");
        }
    }

    #[test]
    fn budget_floor_is_one_page() {
        let c = PageCache::new(store("floor.pages", 1), 0, CachePolicy::Lru);
        assert_eq!(c.capacity_pages(), 1);
    }
}
