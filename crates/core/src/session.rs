//! The one session layer, held by [`crate::Server`] over any index
//! backend — RAM, paged or a shard fleet.
//!
//! §IV: "After retrieving the results for all the sub-queries, the server
//! filters the results to avoid transmitting the data that is already
//! available at the client." A [`SentFilter`] remembers which coefficients
//! (and which objects' base meshes) one client has already received;
//! [`Sessions`] is the table of them, plus their resume tokens.
//!
//! Concurrency (DESIGN.md §10): the *table* is sharded into
//! [`SESSION_STRIPES`] independent `Mutex<BTreeMap<..>>` stripes by
//! `session_id % SESSION_STRIPES`, and every session's filter sits behind
//! a mutex of its own. A stripe is locked only to find, add or remove an
//! entry — never while a query runs: [`Sessions::with`] looks the session
//! up, lets the stripe go and runs the query under that session's filter
//! lock, so two sessions never wait for each other's descents or page
//! reads, whatever their ids. A session's filter depends only on that
//! session's own query history, so how sessions interleave is
//! unobservable (pinned by `crates/core/tests/server_concurrent.rs`).

use crate::coeff::{CoeffRef, SceneIndexData};
use crate::index::WaveletIndex;
use crate::server::QueryResult;
use mar_link::splitmix64;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of shards of the session table. A fixed power of two keeps
/// `id % N` cheap and the shard choice deterministic; a stripe is held for
/// one map operation, so 16 of them keep connects, disconnects and
/// look-ups from queueing behind each other.
pub const SESSION_STRIPES: usize = 16;

/// Typed failure of a per-session entry point. Unknown or
/// already-disconnected session ids are a *client protocol* condition (a
/// stale token after a crash, a double disconnect), not a server bug, so
/// they surface as values instead of panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The session id is not (or no longer) connected.
    UnknownSession(u64),
    /// The resume token does not name any connected session. The token is
    /// echoed verbatim — the server never reveals which session id (if
    /// any) a rejected token would have mapped to.
    UnknownToken(u64),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownSession(id) => write!(f, "unknown or disconnected session id {id}"),
            Self::UnknownToken(tok) => write!(f, "unknown resume token {tok:#018x}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Tokens are minted strictly above this floor, so a token can never
/// collide with a raw sequential session id (which would need 2^32
/// connects to reach the floor) — `resume` with a session id is
/// structurally guaranteed to fail, not just overwhelmingly likely to.
const TOKEN_FLOOR: u64 = 1 << 32;

fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13) ^ v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16) ^ v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21) ^ v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17) ^ v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 of one 64-bit word under a 128-bit key — a keyed PRF, not
/// a bijection: a peer holding any number of `(input, output)` pairs
/// cannot recover the key or predict other outputs. This is what makes
/// resume tokens capabilities rather than obfuscated session ids.
fn siphash24(k0: u64, k1: u64, msg: u64) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    // One full 8-byte block.
    v[3] ^= msg;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= msg;
    // Finalisation block: message length (8) in the top byte.
    let b = 8u64 << 56;
    v[3] ^= b;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= b;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// One word of per-process entropy for the default token key. Tokens are
/// security capabilities, not results: they never enter a transcript,
/// fingerprint, or metric, so they are the one place the repo's
/// determinism discipline (DESIGN.md §5) deliberately does not apply.
fn entropy_word(tag: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    // mar-lint: allow(D003) — token-key entropy is nondeterministic on purpose; tokens never enter any result
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u64(tag);
    h.finish()
}

/// What [`Sessions::resume`] reattached: how much server-side filter state
/// survived the transport drop, i.e. how much data will *not* be re-sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeInfo {
    /// The resumed session id (unchanged — the token named it).
    pub session: u64,
    /// Coefficients the server still knows this client holds.
    pub retained_coeffs: usize,
    /// Objects whose base mesh the server still knows this client holds.
    pub retained_objects: usize,
}

/// One session's state: what the client has been sent.
///
/// The sent set is one bitmap per object, bit `k` of object `o` standing
/// for `CoeffRef { object: o, coeff: k }`. An object's word block is
/// carved off the end of one shared word arena on the object's first hit,
/// sized once from the scene's [`SceneIndexData::coeff_counts`], so a
/// filter costs one bit per coefficient of the objects the client has
/// *touched* — and "the block exists" is exactly "the base mesh has been
/// sent". Testing and setting a bit hashes nothing and, once the block
/// exists, allocates nothing; dropping a filter frees two vectors however
/// many objects it saw.
#[derive(Debug, Default)]
pub struct SentFilter {
    /// Indexed by object id: where the object's block sits in `words`.
    /// An empty range means the object is unsent.
    blocks: Vec<Range<usize>>,
    /// Every block, in first-hit order.
    words: Vec<u64>,
    /// Set bits across all blocks.
    coeffs: usize,
    /// Non-empty blocks.
    objects: usize,
}

impl SentFilter {
    /// Replays one hit list (in index search order) through the filter,
    /// accumulating the transmission accounting into `out`. Every query
    /// path routes here (or, hit by hit, through
    /// [`SentFilter::admit_one`]), so batched and scalar executions of
    /// the same sub-queries produce bit-identical [`QueryResult`]s (the
    /// `f64` byte total included).
    ///
    /// `data` and `index` are those of the core that *produced* `hits`.
    /// Every *newly transmitted* coefficient touches its payload page
    /// through that index — a no-op in RAM, a buffer-pool read (and
    /// physical-I/O tally on a miss) on the disk-backed backends. The touch
    /// never changes the result, so RAM and paged transcripts stay
    /// byte-identical.
    pub fn admit(
        &mut self,
        data: &SceneIndexData,
        index: &WaveletIndex,
        hits: &[CoeffRef],
        out: &mut QueryResult,
    ) {
        for &id in hits {
            self.admit_one(data, index, id, out);
        }
    }

    /// [`SentFilter::admit`] for a single hit — what a scalar descent
    /// streams its hits into, with no hit list in between.
    ///
    /// An id outside the scene (`object` or `coeff` beyond
    /// [`SceneIndexData::coeff_counts`]; only a store/scene mismatch can
    /// produce one) is skipped: it is never sent, never accounted, and
    /// never grows the filter.
    #[inline]
    pub fn admit_one(
        &mut self,
        data: &SceneIndexData,
        index: &WaveletIndex,
        id: CoeffRef,
        out: &mut QueryResult,
    ) {
        let object = id.object as usize;
        let Some(&count) = data.coeff_counts.get(object) else {
            return;
        };
        if id.coeff >= count {
            return;
        }
        // The first hit on an object carves its block out of line, so
        // this body stays small enough to inline into the index walk's
        // leaf loop — a streamed query pays no call per hit. (Two plain
        // copies, not a cloned `Range`: that spelling compiled to a
        // `ram_cold` query 10 % slower.)
        let (start, len, new_object) = match self.blocks.get(object) {
            Some(block) if !block.is_empty() => (block.start, block.len(), false),
            _ => {
                let block = self.carve_block(data, object, count);
                (block.start, block.len(), true)
            }
        };
        let w = id.coeff as usize / 64;
        // A block sized from a smaller scene than `data` stays as it is.
        if w >= len {
            return;
        }
        let word = &mut self.words[start + w];
        let bit = 1u64 << (id.coeff % 64);
        if *word & bit != 0 {
            return;
        }
        *word |= bit;
        self.coeffs += 1;
        index.touch_payload(id);
        out.coeffs += 1;
        out.bytes += data.coeff_bytes;
        if new_object {
            self.objects += 1;
            out.new_objects += 1;
            if let Some(&base) = data.base_bytes.get(object) {
                out.bytes += base;
            }
        }
    }

    /// Carves `object`'s word block (`count` ≥ 1 bits) off the end of the
    /// word arena — the first-hit half of [`SentFilter::admit_one`].
    #[cold]
    #[inline(never)]
    fn carve_block(&mut self, data: &SceneIndexData, object: usize, count: u32) -> Range<usize> {
        if self.blocks.len() <= object {
            self.blocks.resize(data.coeff_counts.len(), 0..0);
        }
        let start = self.words.len();
        self.words.resize(start + (count as usize).div_ceil(64), 0);
        self.blocks[object] = start..self.words.len();
        start..self.words.len()
    }

    /// Every coefficient sent so far, ascending by `(object, coeff)`.
    fn sent_set(&self) -> Vec<CoeffRef> {
        let mut refs = Vec::with_capacity(self.coeffs);
        for (object, block) in self.blocks.iter().enumerate() {
            for (w, &word) in self.words[block.clone()].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    refs.push(CoeffRef {
                        object: object as u32,
                        coeff: (w * 64) as u32 + bits.trailing_zeros(),
                    });
                    bits &= bits - 1;
                }
            }
        }
        refs
    }
}

/// A session's delivery state on a wire, kept across transport drops:
/// the payload bytes served but not yet acknowledged (the credit an
/// `OVERLOAD` admission checks) and whether a live connection drives the
/// session. A session starts detached with nothing unacked; in-process
/// callers never touch it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delivery {
    /// Served-but-unacked payload bytes.
    pub unacked: f64,
    /// Whether a live connection currently drives the session.
    pub attached: bool,
}

/// One entry of the session table.
#[derive(Debug)]
struct Session {
    /// The resume capability minted at connect time.
    token: u64,
    /// The session's filter behind its own lock, shared out of the table
    /// so that a query holds this lock and no stripe.
    filter: Arc<Mutex<SentFilter>>,
    /// Guarded by the stripe: updated in place, never across a query.
    delivery: Delivery,
}

/// The striped session table: every connected session's [`SentFilter`],
/// keyed by session id, plus the live resume-token map.
#[derive(Debug)]
pub struct Sessions {
    stripes: [Mutex<BTreeMap<u64, Session>>; SESSION_STRIPES],
    next_session: AtomicU64,
    /// 128-bit SipHash key minting resume tokens. Never derivable from
    /// any number of observed `(session, token)` pairs — SipHash is a
    /// PRF, unlike the invertible splitmix mix a client could run
    /// backwards on its own handshake to recover the seed.
    token_key: (u64, u64),
    /// Monotone nonce feeding the token PRF (not the session id: the
    /// nonce advances past skipped candidates, so tokens are not even a
    /// per-key function of the id).
    token_nonce: AtomicU64,
    /// Live resume capabilities: token → session id. `resume` is a map
    /// lookup, not an inversion — the server stores what it minted.
    tokens: Mutex<BTreeMap<u64, u64>>,
}

impl Default for Sessions {
    fn default() -> Self {
        Self::new()
    }
}

impl Sessions {
    /// An empty table whose resume-token key is drawn from per-process
    /// entropy, so every instance mints its own unpredictable token
    /// stream — there is no public default a wire peer could use to mint
    /// tokens offline.
    pub fn new() -> Self {
        Self::with_key((entropy_word(1), entropy_word(2)))
    }

    /// An empty table with a deterministic resume-token key expanded from
    /// `token_seed` (`mar-served --token-seed`). Tokens are then
    /// reproducible across runs for debugging; they stay unforgeable as
    /// long as the seed is secret, because the PRF key cannot be
    /// recovered from observed tokens.
    pub fn seeded(token_seed: u64) -> Self {
        // `splitmix64` only expands the seed into a key, never mints a
        // token: it is a public bijection, so a token minted as
        // `splitmix64(seed ^ splitmix64(id))` would hand the seed to any
        // client that inverts its own `(id, token)` pair.
        let k0 = splitmix64(token_seed ^ 0x6d61_725f_7365_7276); // "mar_serv"
        let k1 = splitmix64(token_seed ^ 0x746f_6b65_6e5f_6b31); // "token_k1"
        Self::with_key((k0, k1))
    }

    fn with_key(token_key: (u64, u64)) -> Self {
        Self {
            stripes: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            next_session: AtomicU64::new(0),
            token_key,
            token_nonce: AtomicU64::new(0),
            tokens: Mutex::new(BTreeMap::new()),
        }
    }

    /// The stripe holding `session`'s table entry.
    fn stripe(&self, session: u64) -> &Mutex<BTreeMap<u64, Session>> {
        &self.stripes[(session % SESSION_STRIPES as u64) as usize]
    }

    /// Opens a session; returns `(id, resume token)`. Ids are handed out
    /// in call order, so a program that connects sessions
    /// deterministically gets deterministic ids. The token is minted and
    /// registered atomically with the session, so there is no window
    /// where a connected session has no capability.
    pub fn connect_with_token(&self) -> (u64, u64) {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let token = {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let mut tokens = self.tokens.lock().expect("token map poisoned");
            loop {
                let nonce = self.token_nonce.fetch_add(1, Ordering::Relaxed);
                let candidate = siphash24(self.token_key.0, self.token_key.1, nonce);
                // Skip the (astronomically rare) candidates that could be
                // mistaken for a session id or collide with a live token.
                if candidate < TOKEN_FLOOR || tokens.contains_key(&candidate) {
                    continue;
                }
                tokens.insert(candidate, id);
                break candidate;
            }
        };
        let entry = Session {
            token,
            filter: Arc::default(),
            delivery: Delivery::default(),
        };
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        let mut stripe = self.stripe(id).lock().expect("session stripe poisoned");
        stripe.insert(id, entry);
        (id, token)
    }

    /// Drops a session, releasing its sent-filter and delivery state and
    /// retiring its token — long-running serve workloads must not
    /// accumulate filters for clients that are gone (pinned by
    /// `disconnect_releases_filter_state`), and a stale token must never
    /// resume a later session. Disconnecting an unknown or
    /// already-disconnected id is a typed error, so a double disconnect
    /// cannot silently pass for a real teardown.
    ///
    /// Takes no filter lock, so it neither waits for a query the session
    /// has in flight nor trips over a filter such a query poisoned: that
    /// query finishes on the filter it holds, which is freed with it.
    pub fn disconnect(&self, session: u64) -> Result<(), SessionError> {
        let entry = {
            let mut stripe = self
                .stripe(session)
                .lock()
                // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
                .expect("session stripe poisoned");
            stripe
                .remove(&session)
                .ok_or(SessionError::UnknownSession(session))?
        };
        // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
        let mut tokens = self.tokens.lock().expect("token map poisoned");
        tokens.remove(&entry.token);
        Ok(())
    }

    /// Runs `f` on `session`'s filter under that session's own lock — the
    /// one way in to per-session state. The stripe is held only for the
    /// look-up and released before the filter is locked, so `f` (a whole
    /// query: descent, page reads, accounting) blocks nobody but a second
    /// query of the same session. Query paths descend the index inside
    /// `f`, so a session's filter cannot change between its descent and
    /// its accounting. An unknown or disconnected session id is a typed
    /// [`SessionError`]: the table never mints filter state for a session
    /// it did not hand out. A session disconnected after the look-up is
    /// served this once, on state nobody else can reach any more.
    pub fn with<R>(
        &self,
        session: u64,
        f: impl FnOnce(&mut SentFilter) -> R,
    ) -> Result<R, SessionError> {
        let filter = {
            let stripe = self
                .stripe(session)
                .lock()
                // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
                .expect("session stripe poisoned");
            let entry = stripe
                .get(&session)
                .ok_or(SessionError::UnknownSession(session))?;
            Arc::clone(&entry.filter)
        };
        // mar-lint: allow(D004) — poisoning implies this session's last query panicked; propagate
        let mut filter = filter.lock().expect("session filter poisoned");
        Ok(f(&mut filter))
    }

    /// Runs `f` on `session`'s [`Delivery`] under its stripe. The stripe
    /// is held for `f` alone — a few field updates — and never across a
    /// query, so `f` must not call back into the table.
    pub fn with_delivery<R>(
        &self,
        session: u64,
        f: impl FnOnce(&mut Delivery) -> R,
    ) -> Result<R, SessionError> {
        let mut stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        let entry = stripe
            .get_mut(&session)
            .ok_or(SessionError::UnknownSession(session))?;
        Ok(f(&mut entry.delivery))
    }

    /// The resume token minted for a *connected* session — a lookup of
    /// server-side state, not a derivation. There is no public function
    /// from session ids to tokens: tokens come from a keyed PRF over a
    /// private nonce stream, so observing any number of `(id, token)`
    /// pairs (every client sees its own in `WELCOME`) reveals nothing
    /// about any other session's token.
    pub fn session_token(&self, session: u64) -> Result<u64, SessionError> {
        let stripe = self
            .stripe(session)
            .lock()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .expect("session stripe poisoned");
        stripe
            .get(&session)
            .map(|entry| entry.token)
            .ok_or(SessionError::UnknownSession(session))
    }

    /// Reattaches a client to its session after a *transport* drop (the
    /// wireless link died; the server-side session state did not). The
    /// caller presents the resume **token** it was handed at connect time
    /// — *not* the raw session id, which is sequential and therefore
    /// guessable by any other wire peer. If the token names a session the
    /// table still holds, the client resumes with its sent-filter intact
    /// — nothing already delivered is ever re-sent — and learns how much
    /// state was retained. Any other token (stale, forged, or a raw
    /// session id — tokens are minted above 2^32, so ids can never alias
    /// them) is a typed [`SessionError`] echoing only the token itself;
    /// the client must connect fresh and refetch from scratch.
    pub fn resume(&self, token: u64) -> Result<ResumeInfo, SessionError> {
        let session = {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let tokens = self.tokens.lock().expect("token map poisoned");
            tokens
                .get(&token)
                .copied()
                .ok_or(SessionError::UnknownToken(token))?
        };
        self.with(session, |f| ResumeInfo {
            session,
            retained_coeffs: f.coeffs,
            retained_objects: f.objects,
        })
        // A disconnect can race between the two locks; the answer is the
        // same either way — the capability no longer resumes.
        .map_err(|_| SessionError::UnknownToken(token))
    }

    /// A sorted snapshot of every coefficient the session has been sent —
    /// the client's resident set as the server knows it (the bitmaps are
    /// walked in id order, so the snapshot is born sorted). The chaos and
    /// fleet harnesses fingerprint this to prove faulty runs converge to
    /// the fault-free resident set.
    pub fn session_sent_set(&self, session: u64) -> Result<Vec<CoeffRef>, SessionError> {
        self.with(session, |f| f.sent_set())
    }

    /// How many coefficients a session has been sent (0 when unknown).
    pub fn session_sent(&self, session: u64) -> usize {
        self.with(session, |f| f.coeffs).unwrap_or(0)
    }

    /// Number of currently connected sessions, across all stripes.
    pub fn session_count(&self) -> usize {
        self.stripes
            .iter()
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            .map(|s| s.lock().expect("session stripe poisoned").len())
            .sum()
    }

    /// Total resident filter entries (sent coefficients + sent base-mesh
    /// markers) across every connected session — the quantity that must
    /// return to zero when all clients disconnect. Each stripe's filters
    /// are collected first and locked after the stripe is released: no
    /// stripe guard is ever live across a filter lock.
    pub fn resident_filter_entries(&self) -> usize {
        let mut filters = Vec::new();
        for stripe in &self.stripes {
            // mar-lint: allow(D004) — poisoning implies another client thread panicked; propagate
            let stripe = stripe.lock().expect("session stripe poisoned");
            filters.extend(stripe.values().map(|entry| Arc::clone(&entry.filter)));
        }
        filters
            .iter()
            .map(|filter| {
                // mar-lint: allow(D004) — poisoning implies that session's last query panicked; propagate
                let f = filter.lock().expect("session filter poisoned");
                f.coeffs + f.objects
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_workload::{Scene, SceneConfig};
    use std::sync::mpsc;
    use std::time::Duration;

    fn scene_data() -> SceneIndexData {
        let mut cfg = SceneConfig::paper(3, 13);
        cfg.levels = 2;
        cfg.target_bytes = 100_000.0;
        SceneIndexData::build(&Scene::generate(cfg))
    }

    /// A query sitting inside [`Sessions::with`], holding its session's
    /// filter lock, until this is dropped.
    struct Parked {
        release: mpsc::Sender<()>,
    }

    impl Parked {
        /// Runs `f` on a helper thread and fails, instead of hanging, if
        /// it has not returned within ten seconds.
        fn must_not_block<R: Send>(&self, what: &str, f: impl FnOnce() -> R + Send) -> R {
            std::thread::scope(|scope| {
                let (done_tx, done_rx) = mpsc::channel();
                scope.spawn(move || done_tx.send(f()));
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| {
                        // Unpark the query so that `f`, and with it the
                        // scope, can end.
                        let _ = self.release.send(());
                        panic!("{what} waited for another session's query")
                    })
            })
        }
    }

    /// Runs `body` while a query of `session` is [`Parked`] — on a
    /// channel, not on a sleep — then lets the query finish and returns
    /// what it returned.
    fn while_a_query_is_parked<R: Send>(
        sessions: &Sessions,
        session: u64,
        query: impl FnOnce(&mut SentFilter) -> R + Send,
        body: impl FnOnce(&Parked),
    ) -> Result<R, SessionError> {
        let (inside_tx, inside_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || {
                sessions.with(session, |filter| {
                    inside_tx.send(()).expect("the test is listening");
                    // A dropped sender releases the query as well, so a
                    // failed assertion in `body` cannot hang the scope.
                    let _ = release_rx.recv();
                    query(filter)
                })
            });
            inside_rx.recv().expect("the query reaches its closure");
            body(&Parked { release });
            parked.join().expect("the parked query does not panic")
        })
    }

    #[test]
    fn a_parked_query_delays_no_session_of_its_stripe() {
        let data = scene_data();
        let index = WaveletIndex::build(&data);
        let sessions = Sessions::seeded(7);
        let ids: Vec<u64> = (0..=SESSION_STRIPES)
            .map(|_| sessions.connect_with_token().0)
            .collect();
        let (parked, neighbour) = (ids[0], ids[SESSION_STRIPES]);
        assert_eq!(
            parked % SESSION_STRIPES as u64,
            neighbour % SESSION_STRIPES as u64,
            "ids s and s + 16 share a stripe"
        );
        let hits = [data.records[0].id];
        let admit = |filter: &mut SentFilter| {
            let mut out = QueryResult::default();
            filter.admit(&data, &index, &hits, &mut out);
            out.coeffs
        };
        let sent = while_a_query_is_parked(&sessions, parked, admit, |query| {
            query.must_not_block("a query of session s + 16", || {
                assert_eq!(sessions.with(neighbour, admit), Ok(1));
            });
            // Everything else the stripe serves goes on as well.
            query.must_not_block("the stripe's map operations", || {
                assert!(sessions.session_token(parked).is_ok());
                assert_eq!(sessions.session_count(), SESSION_STRIPES + 1);
                let (late, _) = sessions.connect_with_token();
                sessions.disconnect(late).expect("connected a moment ago");
                sessions.disconnect(neighbour).expect("still connected");
            });
        });
        assert_eq!(sent, Ok(1), "the parked query then completes");
        assert_eq!(sessions.session_sent(parked), 1);
    }

    #[test]
    fn a_disconnect_racing_a_query_neither_waits_nor_leaks() {
        let data = scene_data();
        let index = WaveletIndex::build(&data);
        let hits = [data.records[0].id, data.records[1].id];
        let admit = |filter: &mut SentFilter| {
            let mut out = QueryResult::default();
            filter.admit(&data, &index, &hits, &mut out);
            out.coeffs
        };
        let sessions = Sessions::seeded(7);
        let nothing_left = |sessions: &Sessions| {
            assert_eq!(sessions.session_count(), 0);
            assert_eq!(sessions.resident_filter_entries(), 0);
            assert!(sessions.tokens.lock().expect("token map").is_empty());
        };

        // Forced order: the query is in flight when the session goes.
        let (s, token) = sessions.connect_with_token();
        let sent = while_a_query_is_parked(&sessions, s, admit, |query| {
            query
                .must_not_block("disconnect", || sessions.disconnect(s))
                .expect("connected");
            nothing_left(&sessions);
            assert_eq!(
                sessions.resume(token),
                Err(SessionError::UnknownToken(token))
            );
            assert_eq!(
                sessions.with(s, |_| ()),
                Err(SessionError::UnknownSession(s))
            );
        });
        assert_eq!(sent, Ok(2), "the in-flight query completes on its filter");
        nothing_left(&sessions);

        // Free-running: either order, never a panic, never a leak.
        for _ in 0..200 {
            let (s, _) = sessions.connect_with_token();
            let start = std::sync::Barrier::new(2);
            let raced = std::thread::scope(|scope| {
                let query = scope.spawn(|| {
                    start.wait();
                    sessions.with(s, admit)
                });
                start.wait();
                sessions.disconnect(s).expect("disconnected exactly once");
                query.join().expect("the racing query does not panic")
            });
            assert!(
                matches!(raced, Ok(2) | Err(SessionError::UnknownSession(_))),
                "{raced:?}"
            );
            nothing_left(&sessions);
        }
    }

    #[test]
    fn ids_outside_the_scene_are_skipped_without_growing_the_filter() {
        // Regression: `admit` indexed `base_bytes[id.object]` unchecked, so
        // an id from a store that does not match the scene panicked — and a
        // bitmap sized from `id.coeff` would have grown to whatever the id
        // said.
        let data = scene_data();
        let index = WaveletIndex::build(&data);
        let objects = data.coeff_counts.len() as u32;
        let last = CoeffRef {
            object: objects - 1,
            coeff: data.coeff_counts[objects as usize - 1] - 1,
        };
        let hits = [
            CoeffRef {
                object: objects,
                coeff: 0,
            },
            CoeffRef {
                object: u32::MAX,
                coeff: u32::MAX,
            },
            CoeffRef {
                object: 0,
                coeff: data.coeff_counts[0],
            },
            CoeffRef {
                object: 1,
                coeff: u32::MAX,
            },
            last,
        ];
        let mut filter = SentFilter::default();
        let mut out = QueryResult::default();
        filter.admit(&data, &index, &hits, &mut out);
        // Only the one in-range id was sent; objects 0 and 1 saw nothing
        // but out-of-range coefficients, so they hold no block.
        assert_eq!((out.coeffs, out.new_objects), (1, 1));
        assert_eq!(
            out.bytes.to_bits(),
            (data.coeff_bytes + data.base_bytes[last.object as usize]).to_bits()
        );
        assert_eq!(filter.sent_set(), vec![last]);
        assert_eq!((filter.coeffs, filter.objects), (1, 1));
        assert_eq!(filter.blocks.len(), objects as usize);
        assert!(filter.blocks[0].is_empty() && filter.blocks[1].is_empty());
        let words = (data.coeff_counts[last.object as usize] as usize).div_ceil(64);
        assert_eq!(filter.words.len(), words, "one block, sized from the scene");
    }
}
