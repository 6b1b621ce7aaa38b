//! The server-side buffer pool: a hard byte budget over [`PageFile`]
//! reads with deterministic, policy-switchable eviction.
//!
//! Two policies share one mechanism:
//!
//! * [`CachePolicy::Lru`] — classic least-recently-used, the ablation
//!   baseline. Victim = the least recently used resident.
//! * [`CachePolicy::MotionAware`] — the Eq. 2 promotion: an externally
//!   supplied *heat* function ranks pages by how much of the k-direction
//!   allocation (aggregated over connected sessions) falls on them.
//!   Eviction is **recency-protected**: the most recently used three
//!   quarters of the pool are exempt (demand reuse is recency-shaped —
//!   consecutive overlapping query windows re-descend the same node
//!   pages within a few ticks), and heat ranks only the oldest quarter,
//!   so the direction signal chooses among pages no session has touched
//!   lately.
//!   Victim = the coldest unprotected entry (ties broken by least recent
//!   use), and a faulted page colder than the would-be victim is
//!   served but **not** admitted — scan resistance, so a one-off sweep
//!   cannot flush the pages the sessions' predicted motion is about to
//!   need.
//!
//! With a uniform heat function the motion-aware policy degenerates to
//! exactly LRU (the LRU victim is always in the unprotected least-recent
//! quarter; equal heat → the recency tie-break picks it, and the bypass
//! test `heat(new) < heat(victim)` never fires), which is what makes the
//! ablation a controlled comparison.
//!
//! Layout: residents live in a slab of at most `capacity_pages` slots, a
//! dense `page → slot` table (4 B per file page) finds them, and an
//! intrusive doubly-linked list through the slots (`prev` / `next` slot
//! indices, least recent at the head) orders them. A hit is one table
//! read and a relink; LRU's victim is the list head. The only operation
//! that vacates a slot is an eviction, and the admission that caused it
//! refills that slot in the same call, so the slab needs no free list
//! and, once full, stays full.
//!
//! A full motion-aware pool also keeps its eviction candidates — the
//! least recent `max(capacity / 4, 1)` slots, the *quarter* — in list
//! order in an array beside the list, `(slot, page)` each, so that a plan
//! copies them instead of chasing links. The fill that makes the pool
//! full takes the first quarter's links once. From then on a member that
//! is used or evicted leaves a tombstone (each slot knows its index in the
//! array), and the one slot that now belongs to the quarter — the link
//! after the last member — joins at the back. Only that slot ever joins,
//! so the live entries stay in list order. The array is compacted when
//! its tombstones outnumber its members, and a tombstone at the back is
//! popped at once, so every use costs O(1) amortised; a pool with room,
//! or an LRU pool, keeps no quarter at all.
//!
//! A resident page's bytes live in its *residency record*, one
//! `RwLock<Option<Arc<Vec<u8>>>>` per file page in the pool's
//! [`HitPath`], which only the pool writes (when it admits or evicts the
//! page) and which anybody holding the [`HitPath`] reads without the
//! pool. A caller that shares the pool between threads behind a mutex
//! serves a hit from the record with [`HitPath::lookup`], off its lock:
//! the look-up lands in the calling thread's *pending-hit shard* (one of
//! 16, each of at most [`HIT_SHARD_CAPACITY`] entries before it asks to be
//! replayed), and [`PageCache::replay`] later runs the hits in
//! order through the same bookkeeping [`PageCache::lookup`] does — stats,
//! [`TraceEvent::Hit`], stamp, relink, quarter. [`PageCache::plan`]
//! replays the calling thread's shard before it plans, the caller replays
//! it when it fills, and every shard ([`PageCache::replay_all`]) before it
//! reads the counters; so on one thread the pool
//! sees exactly the operation sequence of a locked look-up per read. A
//! replayed hit on a page evicted meanwhile counts as a hit and relinks
//! nothing.
//!
//! A read is two halves, both `&mut self` and neither touching the file:
//! [`PageCache::lookup`] (count, relink, clone the `Arc`) and, after a
//! miss, the admission of the bytes the caller read. An admission is
//! three steps. [`PageCache::plan`] counts the fault and decides at once
//! whatever needs no heat — the page became resident meanwhile, the pool
//! has room, the policy is LRU; a full motion-aware pool instead copies
//! the quarter's live entries, `(slot, page)` in scan order, into the
//! caller's [`VictimPlan`] together with the pool's use counter.
//! [`VictimPlan::rank`] (or [`VictimPlan::rank_with`], all candidates'
//! heats in one call) keeps the caller's heats beside that copy and picks
//! the victim or the bypass — it does not touch the pool.
//! [`PageCache::commit`] carries the choice out if the victim's slot has
//! not been used since the plan was taken; if it has, the runner-up — the
//! coldest candidate whose slot is still unused, by the same heats — takes
//! its place, and only when every candidate's slot was used does the pool
//! plan again (so two threads that picked the same victim rank once
//! each, not three times between them). [`PageCache::admit`] and
//! [`PageCache::read_with_heat`] run the three in place; a caller that
//! guards the pool with a mutex holds it for `plan` and `commit` only, and
//! reads the page and ranks the candidates outside it (mar-core
//! `paged.rs`), sharing the file through [`PageCache::file`]. Nothing
//! moves between a plan and its commit on one thread, so there every
//! decision is the one a single locked scan would have made.
//!
//! Cost: the pool never computes a heat itself. On a fault into a full
//! motion-aware pool the ranking asks the caller's `FnMut(Option<u32>,
//! u32) -> f64` once for the faulted page (no slot yet: `None`) and once
//! per candidate of the unprotected quarter, passing the candidate's slot
//! beside its page id; hits, LRU pools and pools with room never call it. A slot names the same page until that page is evicted, so a
//! caller whose heats are expensive keys its own per-slot state by it —
//! the paged backend keeps one row of per-session contributions per slot
//! and heats a whole scan in one call (`mar_buffer::SlotHeats`, DESIGN.md
//! §15.3) — and the pool
//! stays oblivious: a decision depends only on the values returned.
//!
//! Determinism: every use moves a resident to the tail of one list, so
//! list order is the order of last use — a total order, a pure function
//! of the operation sequence. Victim scans walk it from the head and
//! keep the earlier of equally cold candidates (strict `<`): identical
//! read sequences yield identical hit/fault/evict/bypass traces on every
//! run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::page::{PageFile, StoreError, PAGE_SIZE};

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

/// "No slot": the end of the recency list, or a page that is not
/// resident. Never a real slot — the slab holds at most one slot per
/// file page, and page ids stop short of `u32::MAX`.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident page and its links in the recency list.
/// Its bytes are the page's residency record in the [`HitPath`].
#[derive(Debug)]
struct Resident {
    page: u32,
    /// Neighbour towards the least recently used end.
    prev: u32,
    /// Neighbour towards the most recently used end.
    next: u32,
    /// Index of this slot's entry in the quarter array, or [`NIL`].
    member: u32,
    /// The pool's use counter when this slot was last used or filled.
    used: u64,
}

/// Pending-hit shards per pool. Threads are dealt out to them round
/// robin in the order they first look a page up, so up to this many
/// threads log their hits without sharing a shard.
const HIT_SHARDS: usize = 16;

/// Entries a pending-hit shard holds before [`HitPath::lookup`] asks for
/// its replay.
pub const HIT_SHARD_CAPACITY: usize = 64;

/// Hands out thread ordinals, dense from 0 in order of first look-up.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's pending-hit shard.
    static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % HIT_SHARDS;
}

/// Look-ups one thread made off the pool's lock, not yet replayed; a
/// shard, alone on its cache lines.
#[derive(Debug)]
#[repr(align(128))]
struct PendingHits {
    /// Pages served from their residency record, in order.
    hits: Vec<u32>,
    /// Look-ups that found no record (each one's fault is counted by the
    /// admission that follows it).
    misses: u64,
}

/// A page's residency record: its bytes while it is resident.
type Record = RwLock<Option<Arc<Vec<u8>>>>;

/// What [`HitPath::lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// Resident: the page's bytes, hit logged.
    Hit(Arc<Vec<u8>>),
    /// Resident, and the calling thread's shard is now full: replay it
    /// ([`PageCache::replay`]) before its next look-up.
    HitReplayDue(Arc<Vec<u8>>),
    /// Not resident: the miss is logged; read the page and admit it
    /// ([`PageCache::plan`] replays the shard first).
    Miss,
}

/// The half of a [`PageCache`] its users reach without the pool's lock:
/// one residency record per file page — an
/// `RwLock<Option<Arc<Vec<u8>>>>`, the bytes of a resident page and
/// `None` for any other — and the pending-hit shards. Shared through
/// [`PageCache::hit_path`]; only the pool writes a record, and a record
/// is a leaf lock (nothing is acquired under it).
#[derive(Debug)]
pub struct HitPath {
    records: Box<[Record]>,
    pending_hits: Box<[Mutex<PendingHits>]>,
}

impl HitPath {
    fn new(pages: usize) -> Self {
        Self {
            records: (0..pages).map(|_| RwLock::new(None)).collect(),
            pending_hits: (0..HIT_SHARDS)
                .map(|_| {
                    Mutex::new(PendingHits {
                        hits: Vec::with_capacity(HIT_SHARD_CAPACITY),
                        misses: 0,
                    })
                })
                .collect(),
        }
    }

    /// The calling thread's pending-hit shard, below 16: a small number
    /// that names the thread to the pool (threads beyond the sixteenth
    /// share one).
    pub fn shard(&self) -> usize {
        SHARD.with(|&s| s)
    }

    /// `page`'s residency record.
    fn residency(&self, page: u32) -> &Record {
        &self.records[page as usize]
    }

    /// The bytes of `page` if it is resident, without any bookkeeping.
    /// A record's one update is an assignment, and a shard's leave it
    /// whole too, so a guard poisoned by a panicking holder is recovered.
    fn resident(&self, page: u32) -> Option<Arc<Vec<u8>>> {
        let record = self
            .residency(page)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        record.clone()
    }

    /// Sets `page`'s residency record and hands back what it held, to be
    /// dropped once the record is released.
    fn set_resident(&self, page: u32, bytes: Option<Arc<Vec<u8>>>) -> Option<Arc<Vec<u8>>> {
        let mut record = self
            .residency(page)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *record, bytes)
    }

    fn pending_hits(&self, shard: usize) -> std::sync::MutexGuard<'_, PendingHits> {
        self.pending_hits[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `page` up without the pool: serves it from its residency
    /// record and logs the look-up in the calling thread's shard for
    /// [`PageCache::replay`].
    ///
    /// # Panics
    /// If `page` is not a page of the file.
    pub fn lookup(&self, page: u32) -> Lookup {
        let bytes = self.resident(page);
        let mut pending = self.pending_hits(self.shard());
        match bytes {
            Some(bytes) => {
                pending.hits.push(page);
                if pending.hits.len() >= HIT_SHARD_CAPACITY {
                    Lookup::HitReplayDue(bytes)
                } else {
                    Lookup::Hit(bytes)
                }
            }
            None => {
                pending.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Moves `shard`'s pending hits into the empty `into` (their order
    /// kept) and returns its pending misses, leaving the shard empty.
    fn take_pending(&self, shard: usize, into: &mut Vec<u32>) -> u64 {
        let mut pending = self.pending_hits(shard);
        std::mem::swap(&mut pending.hits, into);
        std::mem::take(&mut pending.misses)
    }
}

/// One victim scan of a full motion-aware pool, split off the pool so
/// that it can run while the pool serves other threads: the candidates as
/// [`PageCache::plan`] copied them, the heats the ranking gave them, and
/// the choice made among them. Reusable — a plan overwrites what the last
/// one left.
#[derive(Debug, Default)]
pub struct VictimPlan {
    /// The page being admitted.
    page: u32,
    /// `(slot, page)` of every eviction candidate, least recently used
    /// first — the order the scan ranks them in.
    candidates: Vec<(u32, u32)>,
    /// The ranking's heat of each candidate, in candidate order.
    heats: Vec<f64>,
    /// The ranking's heat of the page being admitted.
    page_heat: f64,
    /// The pool's use counter when the candidates were copied.
    stamp: u64,
    /// Index into `candidates` of the victim; `None` once ranked means
    /// bypass.
    victim: Option<usize>,
}

impl VictimPlan {
    /// The candidates of the last plan, `(slot, page)` in scan order.
    pub fn candidates(&self) -> &[(u32, u32)] {
        &self.candidates
    }

    /// Picks the victim: the coldest candidate, the earlier of equally
    /// cold ones — or nobody, when the page being admitted is colder than
    /// all of them (admission bypass).
    ///
    /// `heat(slot, page)` ranks a page (higher = hotter = more worth
    /// keeping): `slot` is `Some` for a candidate, `None` for the page
    /// being admitted. It may keep state but must return the same value
    /// for the same page throughout one call.
    pub fn rank(&mut self, heat: &mut dyn FnMut(Option<u32>, u32) -> f64) {
        let page_heat = heat(None, self.page);
        self.rank_with(
            |candidates, heats| {
                heats.extend(
                    candidates
                        .iter()
                        .map(|&(slot, page)| heat(Some(slot), page)),
                )
            },
            page_heat,
        );
    }

    /// [`Self::rank`] for a caller that heats all candidates in one call:
    /// `candidate_heats` pushes one heat per candidate, in candidate order,
    /// onto the empty vector it is given; `page_heat` is the heat of the
    /// page being admitted.
    ///
    /// # Panics
    /// If `candidate_heats` pushes a heat count other than the candidates'.
    pub fn rank_with(
        &mut self,
        candidate_heats: impl FnOnce(&[(u32, u32)], &mut Vec<f64>),
        page_heat: f64,
    ) {
        self.heats.clear();
        candidate_heats(&self.candidates, &mut self.heats);
        assert_eq!(
            self.heats.len(),
            self.candidates.len(),
            "one heat per candidate"
        );
        self.page_heat = page_heat;
        // Recency-protected heat ranking: the candidates are the least
        // recently used quarter of the pool, least recent first, so
        // keeping the earliest of equally cold pages picks, under a
        // uniform heat, exactly the LRU victim.
        self.victim = self.coldest(|_| true).filter(|&i| !self.bypasses(i));
    }

    /// The coldest candidate whose slot `eligible` accepts, the earliest
    /// of equally cold ones; `None` when it accepts none.
    fn coldest(&self, eligible: impl Fn(u32) -> bool) -> Option<usize> {
        let mut coldest: Option<usize> = None;
        for (i, (&(slot, _), &h)) in self.candidates.iter().zip(&self.heats).enumerate() {
            if eligible(slot) && coldest.is_none_or(|c| h < self.heats[c]) {
                coldest = Some(i);
            }
        }
        coldest
    }

    /// True when the page being admitted is colder than candidate `i`, so
    /// that displacing `i` for it would be a loss: the page is served
    /// without being cached.
    fn bypasses(&self, i: usize) -> bool {
        self.page_heat < self.heats[i]
    }
}

/// Deterministic bounded buffer pool over a [`PageFile`].
#[derive(Debug)]
pub struct PageCache {
    file: Arc<PageFile>,
    policy: CachePolicy,
    capacity_pages: usize,
    /// The slab: every slot is resident and linked.
    slots: Vec<Resident>,
    /// Per file page: the slot holding it, or [`NIL`].
    slot_of: Vec<u32>,
    /// Least recently used slot.
    head: u32,
    /// Most recently used slot.
    tail: u32,
    /// Once the pool is full, its least recent `quarter_len` slots,
    /// `(slot, page)` in list order; a tombstone's slot is [`NIL`], and
    /// the last entry is live.
    quarter: Vec<(u32, u32)>,
    /// Live entries of `quarter`.
    members: usize,
    /// A full pool's eviction candidates, the unprotected quarter:
    /// `max(capacity_pages / 4, 1)` for the motion-aware policy, none for
    /// LRU (its victim is the list head).
    quarter_len: usize,
    /// Counts uses (hits and fills); a slot's `used` is its last one.
    uses: u64,
    stats: PageCacheStats,
    trace: Option<Vec<TraceEvent>>,
    /// The residency records and pending-hit shards.
    hit_path: Arc<HitPath>,
    /// The hits of the shard being replayed; empty between replays.
    replaying: Vec<u32>,
}

impl PageCache {
    /// Wraps `file` in a pool holding at most `budget_bytes` of page
    /// data (at least one page, so progress is always possible).
    pub fn new(file: PageFile, budget_bytes: usize, policy: CachePolicy) -> Self {
        let capacity_pages = (budget_bytes / PAGE_SIZE).max(1);
        let slot_of = vec![NIL; file.page_count() as usize];
        let hit_path = Arc::new(HitPath::new(slot_of.len()));
        Self {
            file: Arc::new(file),
            policy,
            capacity_pages,
            slots: Vec::new(),
            slot_of,
            head: NIL,
            tail: NIL,
            quarter: Vec::new(),
            members: 0,
            quarter_len: match policy {
                CachePolicy::Lru => 0,
                CachePolicy::MotionAware => (capacity_pages / 4).max(1),
            },
            uses: 0,
            stats: PageCacheStats::default(),
            trace: None,
            hit_path,
            replaying: Vec::with_capacity(HIT_SHARD_CAPACITY),
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

    /// The underlying file, shareable: its reads are positioned, so a
    /// caller can fetch a missed page through a clone of this handle
    /// while other threads use the pool.
    pub fn file(&self) -> &Arc<PageFile> {
        &self.file
    }

    /// The residency records and pending-hit shards, for look-ups
    /// without the pool ([`HitPath::lookup`]).
    pub fn hit_path(&self) -> &Arc<HitPath> {
        &self.hit_path
    }

    /// Current counters. Hits still pending in a shard are not in them:
    /// [`Self::replay_all`] first.
    pub fn stats(&self) -> PageCacheStats {
        self.stats
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
        self.slot_of.get(page as usize).is_some_and(|&s| s != NIL)
    }

    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Resident { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends the unlinked `slot` at the most recently used end.
    fn link_most_recent(&mut self, slot: u32) {
        let tail = self.tail;
        let s = &mut self.slots[slot as usize];
        s.prev = tail;
        s.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Takes `slot` out of the quarter, leaving a tombstone, if it is a
    /// member; true if it was.
    fn leave(&mut self, slot: u32) -> bool {
        let at = self.slots[slot as usize].member;
        if at == NIL {
            return false;
        }
        self.slots[slot as usize].member = NIL;
        self.quarter[at as usize].0 = NIL;
        self.members -= 1;
        while self.quarter.last().is_some_and(|&(s, _)| s == NIL) {
            self.quarter.pop();
        }
        if self.quarter.len() - self.members > self.members {
            self.quarter.retain(|&(s, _)| s != NIL);
            for (at, &(s, _)) in self.quarter.iter().enumerate() {
                self.slots[s as usize].member = at as u32;
            }
        }
        true
    }

    /// In a full pool, after a member left: when the quarter is a member
    /// short, the slot after its last member — the head when it has none —
    /// joins.
    fn top_up(&mut self) {
        if self.members == self.quarter_len {
            return;
        }
        let next = match self.quarter.last() {
            Some(&(last, _)) => self.slots[last as usize].next,
            None => self.head,
        };
        if next != NIL {
            let s = &mut self.slots[next as usize];
            s.member = self.quarter.len() as u32;
            self.quarter.push((next, s.page));
            self.members += 1;
        }
    }

    /// Counts a use of `slot`: a [`VictimPlan`] taken before it may no
    /// longer evict the slot.
    fn stamp(&mut self, slot: u32) {
        self.uses += 1;
        self.slots[slot as usize].used = self.uses;
    }

    /// Marks the resident in `slot` as just used.
    fn touch(&mut self, slot: u32) {
        self.stamp(slot);
        if slot != self.tail {
            // Relinking a slot past the quarter leaves the quarter as it is.
            let left = self.leave(slot);
            self.unlink(slot);
            self.link_most_recent(slot);
            if left {
                self.top_up();
            }
        }
    }

    /// The residency record of the resident `page`.
    fn resident_bytes(&self, page: u32) -> Arc<Vec<u8>> {
        self.hit_path
            .resident(page)
            // mar-lint: allow(D004) — a record is written with its slot, under `&mut self`: a resident page has bytes
            .expect("resident page without a residency record")
    }

    /// The bookkeeping of one hit on `page`: counts it and, while `page`
    /// is resident, marks it most recently used.
    fn hit(&mut self, page: u32) {
        self.stats.hits += 1;
        self.record(TraceEvent::Hit(page));
        let slot = self.slot_of[page as usize];
        if slot != NIL {
            self.touch(slot);
        }
    }

    /// Replays the look-ups pending in the calling thread's shard
    /// ([`HitPath::lookup`]), in the order they were made: each counts a
    /// look-up, each hit the bookkeeping of [`Self::lookup`]. A hit on a
    /// page evicted since is counted and relinks nothing.
    pub fn replay(&mut self) {
        self.replay_shard(self.hit_path.shard());
    }

    /// [`Self::replay`] of every shard.
    pub fn replay_all(&mut self) {
        for shard in 0..HIT_SHARDS {
            self.replay_shard(shard);
        }
    }

    fn replay_shard(&mut self, shard: usize) {
        let mut pending = std::mem::take(&mut self.replaying);
        let misses = self.hit_path.take_pending(shard, &mut pending);
        self.stats.lookups += misses + pending.len() as u64;
        for &page in &pending {
            self.hit(page);
        }
        pending.clear();
        self.replaying = pending;
    }

    /// Reads `page` under a uniform heat function (policy degenerates to
    /// LRU). Returns the payload and whether it was a pool hit.
    pub fn read(&mut self, page: u32) -> Result<(Arc<Vec<u8>>, bool), StoreError> {
        self.read_with_heat(page, &mut |_, _| 0.0)
    }

    /// Reads `page`, ranking admission/eviction by `heat` (higher =
    /// hotter = more worth keeping; see [`VictimPlan::rank`]). Returns the
    /// payload and whether it was a pool hit. A failed read leaves only
    /// the look-up counted.
    pub fn read_with_heat(
        &mut self,
        page: u32,
        heat: &mut dyn FnMut(Option<u32>, u32) -> f64,
    ) -> Result<(Arc<Vec<u8>>, bool), StoreError> {
        if let Some(data) = self.lookup(page) {
            return Ok((data, true));
        }
        let data = Arc::new(self.file.read_at(page)?);
        Ok((self.admit(page, data, heat), false))
    }

    /// The hit half of a read: counts the look-up and, when `page` is
    /// resident, the hit, marks it most recently used and returns its
    /// bytes. `None` is a miss — the caller reads the page and hands it
    /// to [`Self::admit`], or to [`Self::plan`] when it ranks victims
    /// itself.
    pub fn lookup(&mut self, page: u32) -> Option<Arc<Vec<u8>>> {
        self.stats.lookups += 1;
        if *self.slot_of.get(page as usize)? == NIL {
            return None;
        }
        self.hit(page);
        Some(self.resident_bytes(page))
    }

    /// The fault half of a read in one call: `data` is `page` as just read
    /// from the file after a [`Self::lookup`] miss. [`Self::plan`],
    /// [`VictimPlan::rank`] with `heat` and [`Self::commit`], in place —
    /// nothing can move between them under one `&mut self`, so the first
    /// commit stands. Returns the bytes to serve.
    ///
    /// # Panics
    /// If `page` is not a page of the file.
    pub fn admit(
        &mut self,
        page: u32,
        data: Arc<Vec<u8>>,
        heat: &mut dyn FnMut(Option<u32>, u32) -> f64,
    ) -> Arc<Vec<u8>> {
        let mut scan = VictimPlan::default();
        let mut served = self.plan(page, &data, &mut scan);
        loop {
            if let Some(bytes) = served {
                return bytes;
            }
            scan.rank(heat);
            served = self.commit(&data, &mut scan);
        }
    }

    /// First step of an admission: replays the calling thread's pending
    /// hits ([`Self::replay`]) — so that a thread's hits are in the pool
    /// before its next plan — counts the fault and, unless a victim
    /// has to be ranked, finishes — `Some` is the bytes to serve. `None`
    /// means the pool is full and motion-aware: `scan` now holds the
    /// candidates (the quarter: the least recent `max(capacity / 4, 1)`
    /// slots, copied from the array beside the list) for
    /// [`VictimPlan::rank`], and the admission ends with [`Self::commit`].
    ///
    /// When `page` became resident since the look-up missed — another
    /// thread admitted it while this one was reading — the resident copy
    /// is served and the fault counted, nothing else changes; so
    /// `lookups = hits + faults` and "one file read per fault" hold at
    /// any thread count.
    ///
    /// # Panics
    /// If `page` is not a page of the file.
    pub fn plan(
        &mut self,
        page: u32,
        data: &Arc<Vec<u8>>,
        scan: &mut VictimPlan,
    ) -> Option<Arc<Vec<u8>>> {
        self.replay();
        self.stats.faults += 1;
        self.plan_uncounted(page, data, scan)
    }

    /// [`Self::plan`] without the fault count: also what a commit falls
    /// back to when every candidate's slot was used since the plan.
    fn plan_uncounted(
        &mut self,
        page: u32,
        data: &Arc<Vec<u8>>,
        scan: &mut VictimPlan,
    ) -> Option<Arc<Vec<u8>>> {
        let resident = self.slot_of[page as usize];
        if resident != NIL {
            self.touch(resident);
            return Some(self.resident_bytes(page));
        }
        if self.slots.len() < self.capacity_pages {
            self.slots.push(Resident {
                page,
                prev: NIL,
                next: NIL,
                member: NIL,
                used: 0,
            });
            self.install((self.slots.len() - 1) as u32, page, data);
            if self.slots.len() == self.capacity_pages {
                // Full: the first quarter's links become the candidates.
                for _ in 0..self.quarter_len {
                    self.top_up();
                }
            }
            return Some(Arc::clone(data));
        }
        // Full, so the list is not empty: `head` is a slot.
        if self.policy == CachePolicy::Lru {
            return Some(self.replace(self.head, page, data));
        }
        // Recency-protected: the most recently used three quarters of the
        // pool are exempt, the quarter's members are the candidates.
        scan.page = page;
        scan.stamp = self.uses;
        scan.victim = None;
        scan.candidates.clear();
        scan.candidates.extend(
            self.quarter
                .iter()
                .copied()
                .filter(|&(slot, _)| slot != NIL),
        );
        None
    }

    /// Last step of an admission that [`Self::plan`] left to a ranking:
    /// evicts the victim `scan` chose and caches `data` in its slot, or
    /// serves `data` uncached when the ranking chose bypass. `Some` is the
    /// bytes to serve.
    ///
    /// The pool may have been used between the plan and this call. If the
    /// page was admitted meanwhile, the resident copy is served. If the
    /// victim's slot was used — hit, or evicted and refilled, so it may
    /// hold another page — the runner-up takes its place: the coldest
    /// candidate whose slot is still unused (the earliest of equally cold
    /// ones), ranked by the heats of the plan, bypass rule included. Only
    /// when every candidate's slot was used does the pool plan again into
    /// `scan`, and return `None` when that needs a fresh ranking. One
    /// thread never gets here: nothing uses the pool between its plan and
    /// its commit.
    pub fn commit(&mut self, data: &Arc<Vec<u8>>, scan: &mut VictimPlan) -> Option<Arc<Vec<u8>>> {
        let page = scan.page;
        let resident = self.slot_of[page as usize];
        if resident != NIL {
            self.touch(resident);
            return Some(self.resident_bytes(page));
        }
        // A slot's page changes only by a fill, and a fill is a use: an
        // unused slot still holds the page that was ranked.
        let unused = |slot: u32| self.slots[slot as usize].used <= scan.stamp;
        let victim = match scan.victim {
            Some(v) if !unused(scan.candidates[v].0) => match scan.coldest(unused) {
                Some(runner_up) => Some(runner_up).filter(|&i| !scan.bypasses(i)),
                None => return self.plan_uncounted(page, data, scan),
            },
            chosen => chosen,
        };
        let Some(victim) = victim else {
            self.stats.bypasses += 1;
            self.record(TraceEvent::Bypass(page));
            return Some(Arc::clone(data));
        };
        Some(self.replace(scan.candidates[victim].0, page, data))
    }

    /// Evicts the resident of `slot` and caches `page` there.
    fn replace(&mut self, slot: u32, page: u32, data: &Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let evicted = self.slots[slot as usize].page;
        self.slot_of[evicted as usize] = NIL;
        self.hit_path.set_resident(evicted, None);
        self.stats.evictions += 1;
        self.record(TraceEvent::Evict(evicted));
        self.leave(slot);
        self.unlink(slot);
        self.slots[slot as usize].page = page;
        self.install(slot, page, data);
        self.top_up();
        Arc::clone(data)
    }

    /// Makes the unlinked `slot`, already holding `page` and out of the
    /// quarter, resident with `data` and most recently used.
    fn install(&mut self, slot: u32, page: u32, data: &Arc<Vec<u8>>) {
        self.slot_of[page as usize] = slot;
        self.hit_path.set_resident(page, Some(Arc::clone(data)));
        self.stamp(slot);
        self.link_most_recent(slot);
        self.record(TraceEvent::Fault(page));
    }

    /// Checks the pool's structure: at most `capacity_pages` slots, the
    /// recency list threads every slot exactly once with consistent
    /// back-links, `page → slot → page` round-trips with no other page
    /// claiming a slot, and — in a full pool — the quarter array's live
    /// entries are the first quarter's links, pages and slot indices
    /// included, with a live last entry and no more tombstones than
    /// members; a page has bytes in its residency record exactly while it
    /// is resident.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.slots.len();
        if n > self.capacity_pages {
            return Err(format!("{n} slots exceed capacity {}", self.capacity_pages));
        }
        let quarter_len = if n == self.capacity_pages {
            self.quarter_len
        } else {
            0
        };
        let mut live = self
            .quarter
            .iter()
            .enumerate()
            .filter(|&(_, &(slot, _))| slot != NIL);
        let (mut at, mut prev, mut seen) = (self.head, NIL, 0usize);
        while at != NIL {
            let s = self
                .slots
                .get(at as usize)
                .ok_or(format!("list reaches slot {at} outside the slab"))?;
            if s.prev != prev {
                return Err(format!(
                    "slot {at}: prev {} but reached from {prev}",
                    s.prev
                ));
            }
            if self.slot_of.get(s.page as usize) != Some(&at) {
                return Err(format!(
                    "slot {at} holds page {} but the table disagrees",
                    s.page
                ));
            }
            if seen < quarter_len {
                let entry = live.next();
                if entry.is_none_or(|(i, &(slot, page))| {
                    slot != at || page != s.page || s.member != i as u32
                }) {
                    return Err(format!(
                        "link {seen} (slot {at}) is not the quarter's next entry"
                    ));
                }
            } else if s.member != NIL {
                return Err(format!("slot {at} is past the quarter but a member"));
            }
            seen += 1;
            if seen > n {
                return Err("recency list cycles".into());
            }
            (prev, at) = (at, s.next);
        }
        if live.next().is_some() {
            return Err("the quarter holds a slot the list does not reach first".into());
        }
        let entries = self.quarter.len();
        if self.members != quarter_len || entries - self.members > self.members {
            return Err(format!(
                "quarter: {} members in {entries} entries over {n} slots",
                self.members
            ));
        }
        if self.quarter.last().is_some_and(|&(slot, _)| slot == NIL) {
            return Err("the quarter ends in a tombstone".into());
        }
        if prev != self.tail {
            return Err(format!("list ends at {prev}, tail says {}", self.tail));
        }
        if seen != n {
            return Err(format!("list threads {seen} of {n} slots"));
        }
        let mapped = self.slot_of.iter().filter(|&&s| s != NIL).count();
        if mapped != n {
            return Err(format!("{mapped} pages map to {n} slots"));
        }
        for (page, &slot) in (0u32..).zip(&self.slot_of) {
            if self.hit_path.resident(page).is_some() != (slot != NIL) {
                return Err(format!(
                    "page {page}: residency record disagrees with slot {slot}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_PAYLOAD;

    /// An open page file of `pages` pages. Its directory is removed on
    /// return; the pool reads on through the open handle.
    fn store(name: &str, pages: usize) -> PageFile {
        let path = crate::ScratchPath::new("store-tests", name).expect("create tmp dir");
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
        c.validate().expect("pool structure");
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
        let mut heat = |_: Option<u32>, p: u32| if p < 2 { 10.0 } else { 0.0 };
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
        c.validate().expect("pool structure");
    }

    /// Two threads miss the same page and both read it; the second
    /// `admit` finds it resident. The duplicate read counts as a fault,
    /// the resident copy is served, nothing is evicted.
    #[test]
    fn admitting_a_page_admitted_meanwhile_counts_a_fault_and_evicts_nothing() {
        let mut c = PageCache::new(store("race.pages", 4), 2 * PAGE_SIZE, CachePolicy::Lru);
        c.read(1).unwrap();
        assert!(c.lookup(0).is_none(), "the slower thread misses");
        let dup = Arc::new(c.file().read_at(0).unwrap());
        let (first, hit) = c.read(0).unwrap(); // the faster thread: miss, read, admit
        assert!(!hit);
        c.set_trace(true);
        let served = c.admit(0, dup, &mut |_, _| 0.0);
        assert!(Arc::ptr_eq(&served, &first), "the resident copy is served");
        assert_eq!(c.take_trace(), vec![]);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.faults, s.evictions), (3, 0, 3, 0));
        c.read(3).unwrap();
        assert!(c.contains(0) && c.contains(3) && !c.contains(1));
        c.validate().expect("pool structure");
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
