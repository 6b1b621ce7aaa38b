//! Slab node storage — one contiguous block per node — and structural
//! validation.
//!
//! Every node of a tree is one **block** of a single slab (`Vec<Chunk>`):
//! `stride = ⌈(M + 1) / 8⌉` consecutive [`Chunk`]s, each holding eight
//! entries as struct-of-arrays MBR lanes (`lo`/`hi` per axis) *and* the
//! eight payload slots (a child slot id or a stored item) right behind
//! them. Slot `id`'s block starts at chunk `id · stride`, so a child hop
//! is index arithmetic and a node visit touches one run of memory: the
//! lanes the window test sweeps and the payload its hits read share the
//! block, with no per-node heap vector behind a pointer. A node's kind
//! and entry count sit in a parallel array of 8-byte heads, fetched
//! alongside (not before) the block. The tree only grows (bulk load and
//! insertion), so every slot ever allocated is a live node, and dropping
//! a tree is two deallocations.
//!
//! The window test is one loop over a node's live chunks, whatever the
//! capacity ([`ArenaNode::match_bits`]): every chunk is swept whole, slot
//! by slot in eight independent lanes — branchless compare/mask
//! arithmetic over fixed-size arrays, which the compiler vectorizes —
//! into a 64-bit hit mask (a node wider than 64 entries is tested 64 at a
//! time). All of a node's lanes are read before the first hit is handed
//! out, so its cache lines are fetched together. Because whole chunks are
//! swept, slots past a node's length hold NaN in all `2·N` lanes (and an
//! empty payload); [`Arena::validate`] checks it. NaN fails both interval
//! compares, so padding cannot match.
//!
//! Nodes are reached through two views over a block, [`ArenaNode`]
//! (shared; what the window walk sees) and [`NodeMut`]. The AoS
//! [`Entry`] / [`ChildEntry`] types are the *transient* representation of
//! the split and reinsert algorithms, which drain a node to an entry
//! vector, permute it and write the entries back in the permuted order;
//! the common no-overflow paths never materialise them.

use crate::RTreeConfig;
use mar_geom::{Point, Rect};

/// A leaf entry: one stored item under its rectangle.
#[derive(Debug, Clone)]
pub struct Entry<const N: usize, T> {
    /// Bounding rectangle of the item.
    pub rect: Rect<N>,
    /// The stored item.
    pub item: T,
}

/// An internal entry: an arena slot index under the child's MBR.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildEntry<const N: usize> {
    /// MBR of everything under `child`.
    pub rect: Rect<N>,
    /// Arena slot of the child node.
    pub child: u32,
}

/// Entries per chunk: a lane of eight `f64` is one cache line's worth.
pub(crate) const CHUNK: usize = 8;

/// Lane value of slots past `len`: NaN compares false against every
/// window bound on both sides of the interval test, so a padded slot
/// never matches.
const PAD: f64 = f64::NAN;

/// What one payload slot of a block holds.
#[derive(Debug, Clone)]
pub(crate) enum Payload<T> {
    /// A slot past the node's length.
    Empty,
    /// An internal entry's child slot id.
    Child(u32),
    /// A leaf entry's item.
    Item(T),
}

/// What a slot holds; an entry type names the kind of node it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A leaf page holding items.
    Leaf,
    /// An internal page holding child slots.
    Internal,
}

/// A transient AoS entry ([`Entry`], [`ChildEntry`]) as a block stores it.
pub(crate) trait SlabEntry<const N: usize, T>: Sized {
    /// The kind of node holding entries of this type.
    const KIND: Kind;
    fn into_parts(self) -> (Rect<N>, Payload<T>);
    fn from_parts(rect: Rect<N>, payload: Payload<T>) -> Self;
}

impl<const N: usize, T> SlabEntry<N, T> for Entry<N, T> {
    const KIND: Kind = Kind::Leaf;

    fn into_parts(self) -> (Rect<N>, Payload<T>) {
        (self.rect, Payload::Item(self.item))
    }

    fn from_parts(rect: Rect<N>, payload: Payload<T>) -> Self {
        match payload {
            Payload::Item(item) => Self { rect, item },
            _ => unreachable!("a leaf entry slot holds an item"),
        }
    }
}

impl<const N: usize, T> SlabEntry<N, T> for ChildEntry<N> {
    const KIND: Kind = Kind::Internal;

    fn into_parts(self) -> (Rect<N>, Payload<T>) {
        (self.rect, Payload::Child(self.child))
    }

    fn from_parts(rect: Rect<N>, payload: Payload<T>) -> Self {
        match payload {
            Payload::Child(child) => Self { rect, child },
            _ => unreachable!("an internal entry slot holds a child id"),
        }
    }
}

/// Eight entries of one node: per-axis `lo` / `hi` coordinate lanes, then
/// the eight payload slots (`repr(C)` keeps that order, so a sweep reads
/// forward through the block and the payload lies behind its lanes).
#[derive(Debug, Clone)]
#[repr(C)]
struct Chunk<const N: usize, T> {
    lo: [[f64; CHUNK]; N],
    hi: [[f64; CHUNK]; N],
    payload: [Payload<T>; CHUNK],
}

impl<const N: usize, T> Chunk<N, T> {
    fn empty() -> Self {
        Self {
            lo: [[PAD; CHUNK]; N],
            hi: [[PAD; CHUNK]; N],
            payload: std::array::from_fn(|_| Payload::Empty),
        }
    }

    /// True when slot `k` intersects `window` (closed intervals, exactly
    /// [`Rect::intersects`]); never for a padded slot.
    #[inline(always)]
    fn hit(&self, window: &Rect<N>, k: usize) -> bool {
        let mut hit = true;
        for d in 0..N {
            hit &= (self.lo[d][k] <= window.hi[d]) & (window.lo[d] <= self.hi[d][k]);
        }
        hit
    }

    fn rect(&self, k: usize) -> Rect<N> {
        Rect::from_corners(
            Point::new(std::array::from_fn(|d| self.lo[d][k])),
            Point::new(std::array::from_fn(|d| self.hi[d][k])),
        )
    }

    fn set_rect(&mut self, k: usize, r: &Rect<N>) {
        for d in 0..N {
            self.lo[d][k] = r.lo[d];
            self.hi[d][k] = r.hi[d];
        }
    }

    fn pad(&mut self, k: usize) {
        for d in 0..N {
            self.lo[d][k] = PAD;
            self.hi[d][k] = PAD;
        }
    }

    /// True when slot `k` is NaN in all `2·N` lanes and empty.
    fn is_padded(&self, k: usize) -> bool {
        (0..N).all(|d| self.lo[d][k].is_nan() && self.hi[d][k].is_nan())
            && matches!(self.payload[k], Payload::Empty)
    }
}

/// A slot's kind and entry count.
#[derive(Debug, Clone, Copy)]
struct Head {
    kind: Kind,
    len: u32,
}

/// A fetched arena node: a shared view over one slot's block (`&RTree`
/// as a [`crate::NodeSource`] hands these out).
#[derive(Debug)]
pub struct ArenaNode<'a, const N: usize, T> {
    head: Head,
    chunks: &'a [Chunk<N, T>],
}

impl<const N: usize, T> Clone for ArenaNode<'_, N, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<const N: usize, T> Copy for ArenaNode<'_, N, T> {}

impl<'a, const N: usize, T> ArenaNode<'a, N, T> {
    #[inline]
    pub(crate) fn kind(&self) -> Kind {
        self.head.kind
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.head.len as usize
    }

    /// Entry `i`'s rectangle, materialised from the lanes.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        debug_assert!(i < self.len());
        self.chunks[i / CHUNK].rect(i % CHUNK)
    }

    /// Leaf entry `i`'s item.
    #[inline]
    pub fn item(&self, i: usize) -> &'a T {
        match &self.chunks[i / CHUNK].payload[i % CHUNK] {
            Payload::Item(item) => item,
            _ => unreachable!("item() on a slot that holds no item"),
        }
    }

    /// Internal entry `i`'s child slot.
    #[inline]
    pub(crate) fn child(&self, i: usize) -> u32 {
        match self.chunks[i / CHUNK].payload[i % CHUNK] {
            Payload::Child(child) => child,
            _ => unreachable!("child() on a slot that holds no child id"),
        }
    }

    /// The child slots of an internal node, in entry order (none for a
    /// leaf).
    pub(crate) fn children(&self) -> impl Iterator<Item = u32> + 'a {
        let node = *self;
        let n = if node.kind() == Kind::Internal {
            node.len()
        } else {
            0
        };
        (0..n).map(move |i| node.child(i))
    }

    /// MBR of all entries, folded in entry order; `None` when empty.
    pub(crate) fn mbr(&self) -> Option<Rect<N>> {
        (0..self.len())
            .map(|i| self.rect(i))
            .reduce(|a, b| a.union(&b))
    }

    /// Tests up to 64 entries starting at `start` (a multiple of 64)
    /// against `window` and returns `(hit_mask, tested)`: bit `j` of the
    /// mask is set iff entry `start + j` intersects `window`.
    ///
    /// One loop over the live chunks, whatever the node's capacity, each
    /// swept whole — the slots past the length are padding and cannot hit.
    /// Slot `k` of every chunk ORs into accumulator `k`, already shifted to
    /// its bit of the mask, and the eight accumulators are folded once at
    /// the end: eight independent lanes of compares and shifts with no
    /// reduction inside the loop, which is the shape the compiler turns
    /// into vector code (a per-chunk `mask |= hit << k` is unrolled into
    /// scalar compares instead, lane 0's shift-by-nothing breaking the
    /// pattern).
    #[inline(always)]
    pub(crate) fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        debug_assert_eq!(start % 64, 0);
        let tested = (self.len() - start).min(64);
        let live = &self.chunks[start / CHUNK..][..tested.div_ceil(CHUNK)];
        let mut lanes = [0u64; CHUNK];
        for (c, chunk) in live.iter().enumerate() {
            for (k, lane) in lanes.iter_mut().enumerate() {
                *lane |= u64::from(chunk.hit(window, k)) << (c * CHUNK + k);
            }
        }
        (lanes.iter().fold(0, |mask, lane| mask | lane), tested)
    }
}

/// The mutable view over one slot's block.
pub(crate) struct NodeMut<'a, const N: usize, T> {
    head: &'a mut Head,
    chunks: &'a mut [Chunk<N, T>],
}

impl<const N: usize, T> NodeMut<'_, N, T> {
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len as usize
    }

    /// Appends `entry`. A block holds `M + 1` entries (the transient
    /// overflow before a split) rounded up to whole chunks; pushing past
    /// that is an out-of-bounds panic.
    #[inline]
    pub fn push<E: SlabEntry<N, T>>(&mut self, entry: E) {
        debug_assert_eq!(self.head.kind, E::KIND);
        let (rect, payload) = entry.into_parts();
        let i = self.len();
        let chunk = &mut self.chunks[i / CHUNK];
        chunk.set_rect(i % CHUNK, &rect);
        chunk.payload[i % CHUNK] = payload;
        self.head.len += 1;
    }

    pub fn extend<E: SlabEntry<N, T>>(&mut self, entries: impl IntoIterator<Item = E>) {
        for e in entries {
            self.push(e);
        }
    }

    #[inline]
    pub fn set_rect(&mut self, i: usize, r: &Rect<N>) {
        debug_assert!(i < self.len());
        self.chunks[i / CHUNK].set_rect(i % CHUNK, r);
    }

    /// Moves entry `i` out, leaving its slot padded and empty.
    fn take(&mut self, i: usize) -> (Rect<N>, Payload<T>) {
        let chunk = &mut self.chunks[i / CHUNK];
        let rect = chunk.rect(i % CHUNK);
        chunk.pad(i % CHUNK);
        let payload = std::mem::replace(&mut chunk.payload[i % CHUNK], Payload::Empty);
        (rect, payload)
    }

    /// Drains the node into AoS entries (same order), leaving the block
    /// padded and empty. Overflow handling materialises through here,
    /// runs the split or reinsert permutation, and writes back via
    /// [`NodeMut::extend`].
    pub fn drain<E: SlabEntry<N, T>>(&mut self) -> Vec<E> {
        let out = (0..self.len())
            .map(|i| {
                let (rect, payload) = self.take(i);
                E::from_parts(rect, payload)
            })
            .collect();
        self.head.len = 0;
        out
    }
}

/// Flat node storage: the slab of blocks and one head per slot.
#[derive(Debug, Clone)]
pub(crate) struct Arena<const N: usize, T> {
    /// Chunks per block.
    stride: usize,
    /// Slot `id`'s block is `chunks[id · stride..][..stride]`.
    chunks: Vec<Chunk<N, T>>,
    heads: Vec<Head>,
}

impl<const N: usize, T> Arena<N, T> {
    /// An empty arena whose blocks hold `max_entries + 1` entries.
    pub fn new(max_entries: usize) -> Self {
        Self {
            stride: (max_entries + 1).div_ceil(CHUNK),
            chunks: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// Reserves room for `nodes` more slots, so that a bulk load builds
    /// its slab in one allocation instead of regrowing (and copying) it.
    pub fn reserve(&mut self, nodes: usize) {
        self.chunks.reserve_exact(nodes * self.stride);
        self.heads.reserve_exact(nodes);
    }

    /// Stores `entries` as one node (a leaf or an internal node, by the
    /// entry type) in a fresh slot and returns its index.
    pub fn alloc<E: SlabEntry<N, T>>(&mut self, entries: impl IntoIterator<Item = E>) -> u32 {
        let idx = self.heads.len() as u32;
        assert!(idx < u32::MAX, "arena exhausted u32 slot space");
        self.heads.push(Head {
            kind: E::KIND,
            len: 0,
        });
        self.chunks.extend((0..self.stride).map(|_| Chunk::empty()));
        self.node_mut(idx).extend(entries);
        idx
    }

    #[inline]
    pub fn node(&self, idx: u32) -> ArenaNode<'_, N, T> {
        ArenaNode {
            head: self.heads[idx as usize],
            chunks: &self.chunks[idx as usize * self.stride..][..self.stride],
        }
    }

    pub fn node_mut(&mut self, idx: u32) -> NodeMut<'_, N, T> {
        NodeMut {
            head: &mut self.heads[idx as usize],
            chunks: &mut self.chunks[idx as usize * self.stride..][..self.stride],
        }
    }

    pub fn is_leaf(&self, idx: u32) -> bool {
        self.heads[idx as usize].kind == Kind::Leaf
    }

    /// MBR of all entries of the node at `idx`, or `None` when empty.
    pub fn mbr(&self, idx: u32) -> Option<Rect<N>> {
        self.node(idx).mbr()
    }

    /// Total node count of the subtree rooted at `idx` (including itself).
    pub fn count_nodes(&self, idx: u32) -> usize {
        let mut count = 0usize;
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            count += 1;
            stack.extend(self.node(i).children());
        }
        count
    }

    /// Total slots ever allocated.
    pub fn slot_count(&self) -> usize {
        self.heads.len()
    }

    /// Checks that the slab holds exactly one block per slot.
    pub fn validate_slab(&self) -> Result<(), String> {
        if self.chunks.len() != self.heads.len() * self.stride {
            return Err(format!(
                "{} chunks for {} slots of {} chunks each",
                self.chunks.len(),
                self.heads.len(),
                self.stride
            ));
        }
        Ok(())
    }

    /// Checks that every slot of `idx`'s block past the node's length is
    /// NaN in all `2·N` lanes and empty in the payload.
    fn validate_padding(&self, idx: u32) -> Result<(), String> {
        let node = self.node(idx);
        match (node.len()..self.stride * CHUNK)
            .find(|&i| !node.chunks[i / CHUNK].is_padded(i % CHUNK))
        {
            Some(i) => Err(format!(
                "slot {idx}: entry {i} past len {} is not padded",
                node.len()
            )),
            None => Ok(()),
        }
    }

    /// Recursively checks structural invariants of the subtree at `idx`.
    /// `depth_left` is the expected remaining height (1 at leaves); `total`
    /// accumulates the item count and `live` the reachable node count.
    pub fn validate(
        &self,
        idx: u32,
        config: &RTreeConfig,
        depth_left: usize,
        is_root: bool,
        total: &mut usize,
        live: &mut usize,
    ) -> Result<(), String> {
        *live += 1;
        let node = self.node(idx);
        let count = node.len();
        if count > config.max_entries {
            return Err(format!("node overflow: {count} > {}", config.max_entries));
        }
        if !is_root && count < config.min_entries {
            return Err(format!("node underflow: {count} < {}", config.min_entries));
        }
        self.validate_padding(idx)?;
        // Live slots carry a finite MBR and the payload of the node's kind.
        for i in 0..count {
            let payload_ok = matches!(
                (&node.chunks[i / CHUNK].payload[i % CHUNK], node.kind()),
                (Payload::Item(_), Kind::Leaf) | (Payload::Child(_), Kind::Internal)
            );
            if !payload_ok || !node.rect(i).is_finite() {
                return Err(format!("slot {idx}: entry {i} is malformed"));
            }
        }
        match node.kind() {
            Kind::Leaf => {
                if depth_left != 1 {
                    return Err(format!("leaf at wrong depth ({depth_left} levels left)"));
                }
                *total += count;
                Ok(())
            }
            Kind::Internal => {
                if depth_left <= 1 {
                    return Err("internal node at leaf depth".into());
                }
                if is_root && count < 2 {
                    return Err("internal root must have at least 2 children".into());
                }
                for i in 0..count {
                    let stored = node.rect(i);
                    let child = node.child(i);
                    let child_mbr = self
                        .mbr(child)
                        .ok_or_else(|| "empty child node".to_string())?;
                    if !rects_equal(&stored, &child_mbr) {
                        return Err(format!(
                            "stale MBR: stored {stored:?}, actual {child_mbr:?}"
                        ));
                    }
                    self.validate(child, config, depth_left - 1, false, total, live)?;
                }
                Ok(())
            }
        }
    }
}

fn rects_equal<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
    (0..N).all(|i| (a.lo[i] - b.lo[i]).abs() < 1e-9 && (a.hi[i] - b.hi[i]).abs() < 1e-9)
}
