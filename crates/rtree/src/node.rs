//! Arena node storage (struct-of-arrays MBR lanes) and structural
//! validation.
//!
//! Nodes live in one contiguous `Vec` and reference each other by `u32`
//! slot index instead of `Box` pointers. Search then walks a flat array —
//! child hops are index arithmetic into memory the allocator laid out
//! contiguously — and dropping a tree is one `Vec` deallocation instead of
//! a pointer chase. Slots freed by deletion are recycled through a free
//! list, so long-lived trees under churn do not grow without bound.
//!
//! Within a node, entry MBRs are stored **struct-of-arrays**: one
//! contiguous `lo` lane and one `hi` lane per axis ([`Lanes`]), with the
//! payloads (items or child slots) in a parallel array. A window test
//! against a whole node is then a branchless sweep over `2·N` flat `f64`
//! lanes producing a hit bitmask ([`Lanes::match_bits`]) — the shape
//! stable Rust auto-vectorizes without `unsafe` or intrinsics. The
//! AoS [`Entry`]/[`ChildEntry`] types survive as the *transient*
//! representation used by split and reinsert algorithms, which drain a
//! node to entry vectors, permute them, and rebuild lanes; the common
//! no-overflow paths never materialise them.

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

/// Lane chunk width: window tests always sweep whole 8-entry blocks,
/// so the compiler sees fixed trip counts and emits straight-line SIMD.
pub(crate) const CHUNK: usize = 8;

/// Padding value for slots past `len`: NaN compares false against every
/// window bound on both sides of the interval test, so padded slots can
/// be swept unconditionally without ever matching.
const PAD: f64 = f64::NAN;

/// Struct-of-arrays rectangle storage: per-axis contiguous `lo`/`hi`
/// coordinate lanes, all packed into **one** backing allocation. Lane
/// `d`'s `lo` values occupy `buf[2d·cap .. 2d·cap + len]` and its `hi`
/// values the next stride, so entry `i`'s MBR is spread across the
/// lanes at index `i`. A single allocation keeps every lane of a node
/// within one ~1 KiB contiguous block the hardware prefetcher streams
/// through — six independent heap vectors cost a cache miss per lane
/// per node, which dominates the window-test time.
///
/// The stride is always a multiple of [`CHUNK`] and slots past `len`
/// hold NaN padding, so the window-test kernels sweep full fixed-width
/// chunks with no length-dependent control flow and no scalar tail.
#[derive(Debug, Clone)]
pub(crate) struct Lanes<const N: usize> {
    /// `2·N` lanes of `cap` slots each; slots past `len` are NaN padding.
    buf: Vec<f64>,
    len: usize,
    /// Stride between consecutive lanes in `buf`; a multiple of [`CHUNK`].
    cap: usize,
}

impl<const N: usize> Default for Lanes<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Rounds a capacity up to a whole number of chunks.
fn round_chunks(cap: usize) -> usize {
    cap.div_ceil(CHUNK) * CHUNK
}

impl<const N: usize> Lanes<N> {
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            len: 0,
            cap: 0,
        }
    }

    pub fn with_capacity(cap: usize) -> Self {
        let cap = round_chunks(cap);
        Self {
            buf: vec![PAD; 2 * N * cap],
            len: 0,
            cap,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Repacks into a buffer with a larger stride. Growth is exact (the
    /// next chunk multiple, not doubling): the sweep kernels walk every
    /// slot up to `cap`, so slack capacity is not free here — it is paid
    /// for on every window test against the node. Nodes are bounded by
    /// the split threshold, so a fill costs at most a handful of repacks.
    fn grow(&mut self, min_cap: usize) {
        let new_cap = round_chunks(min_cap);
        let mut buf = vec![PAD; 2 * N * new_cap];
        for lane in 0..2 * N {
            let src = lane * self.cap;
            let dst = lane * new_cap;
            buf[dst..dst + self.len].copy_from_slice(&self.buf[src..src + self.len]);
        }
        self.buf = buf;
        self.cap = new_cap;
    }

    #[inline]
    pub fn push(&mut self, r: &Rect<N>) {
        if self.len == self.cap {
            self.grow(self.len + 1);
        }
        for d in 0..N {
            self.buf[2 * d * self.cap + self.len] = r.lo[d];
            self.buf[(2 * d + 1) * self.cap + self.len] = r.hi[d];
        }
        self.len += 1;
    }

    /// Materialises entry `i`'s rectangle from the lanes.
    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        debug_assert!(i < self.len);
        Rect::from_corners(
            Point::new(std::array::from_fn(|d| self.buf[2 * d * self.cap + i])),
            Point::new(std::array::from_fn(|d| {
                self.buf[(2 * d + 1) * self.cap + i]
            })),
        )
    }

    #[inline]
    pub fn set(&mut self, i: usize, r: &Rect<N>) {
        debug_assert!(i < self.len);
        for d in 0..N {
            self.buf[2 * d * self.cap + i] = r.lo[d];
            self.buf[(2 * d + 1) * self.cap + i] = r.hi[d];
        }
    }

    /// Order-preserving removal (shifts each lane's tail left), mirroring
    /// `Vec::remove` so deletion produces the same node layouts as the
    /// AoS storage did. The vacated last slot is re-padded.
    pub fn remove(&mut self, i: usize) -> Rect<N> {
        let r = self.rect(i);
        for lane in 0..2 * N {
            let off = lane * self.cap;
            self.buf.copy_within(off + i + 1..off + self.len, off + i);
            self.buf[off + self.len - 1] = PAD;
        }
        self.len -= 1;
        r
    }

    pub fn clear(&mut self) {
        for lane in 0..2 * N {
            let off = lane * self.cap;
            self.buf[off..off + self.len].fill(PAD);
        }
        self.len = 0;
    }

    /// MBR of all stored rectangles, folded in entry order exactly like
    /// the AoS `reduce(union)` did.
    pub fn mbr(&self) -> Option<Rect<N>> {
        (0..self.len())
            .map(|i| self.rect(i))
            .reduce(|a, b| a.union(&b))
    }

    /// Tests up to 64 entries starting at `start` against `window` and
    /// returns `(hit_mask, tested)`: bit `j` of the mask is set iff entry
    /// `start + j` intersects `window` (closed intervals, exactly
    /// [`Rect::intersects`]). The per-axis sweeps over contiguous lanes
    /// are branchless bitmask arithmetic that auto-vectorizes.
    #[inline(always)]
    pub fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        debug_assert_eq!(start % CHUNK, 0);
        let n = (self.len - start).min(64);
        if self.cap <= 64 {
            // cap ≤ 64 ⇒ the whole node fits one mask and `start` is 0.
            debug_assert_eq!(start, 0);
            (self.sweep(window), n)
        } else {
            let mut mask = 0u64;
            let mut o = start;
            while o < start + n {
                mask |= u64::from(self.chunk_bits(window, o)) << (o - start);
                o += CHUNK;
            }
            (mask, n)
        }
    }

    /// Full-node hit mask for strides up to 64: dispatches the runtime
    /// stride onto a monomorphized constant-stride sweep, so the hot
    /// kernel always runs with compile-time trip counts and offsets.
    #[inline(always)]
    pub(crate) fn sweep(&self, window: &Rect<N>) -> u64 {
        match self.cap {
            0 => 0,
            8 => self.sweep_const::<8>(window),
            16 => self.sweep_const::<16>(window),
            24 => self.sweep_const::<24>(window),
            32 => self.sweep_const::<32>(window),
            40 => self.sweep_const::<40>(window),
            48 => self.sweep_const::<48>(window),
            56 => self.sweep_const::<56>(window),
            64 => self.sweep_const::<64>(window),
            other => unreachable!("stride {other} is not a chunk multiple ≤ 64"),
        }
    }

    /// Sweeps all `C` slots of every lane (live entries and NaN padding
    /// alike — padding fails both interval compares, so bits at and past
    /// `len` are always zero) and returns the hit bitmask. `C` is a
    /// compile-time constant, so each arm below is straight-line
    /// branchless compare/mask arithmetic the compiler auto-vectorizes;
    /// the common dimensions get hand-fused lane expressions because the
    /// optimizer will not unroll a nested runtime-`d` loop into the same
    /// shape. Window bounds go through slice views so the dead arms of
    /// the `N` dispatch compile for every `N`.
    #[inline(always)]
    fn sweep_const<const C: usize>(&self, window: &Rect<N>) -> u64 {
        debug_assert_eq!(self.cap, C);
        let b: &[f64] = &self.buf;
        let wlo: &[f64] = &window.lo.coords;
        let whi: &[f64] = &window.hi.coords;
        if N == 2 {
            let (l0, h0) = (&b[0..C], &b[C..2 * C]);
            let (l1, h1) = (&b[2 * C..3 * C], &b[3 * C..4 * C]);
            let mut m = 0u64;
            for k in 0..C {
                let ok =
                    (l0[k] <= whi[0]) & (wlo[0] <= h0[k]) & (l1[k] <= whi[1]) & (wlo[1] <= h1[k]);
                m |= u64::from(ok) << k;
            }
            m
        } else if N == 3 {
            let (l0, h0) = (&b[0..C], &b[C..2 * C]);
            let (l1, h1) = (&b[2 * C..3 * C], &b[3 * C..4 * C]);
            let (l2, h2) = (&b[4 * C..5 * C], &b[5 * C..6 * C]);
            let mut m = 0u64;
            for k in 0..C {
                let ok = (l0[k] <= whi[0])
                    & (wlo[0] <= h0[k])
                    & (l1[k] <= whi[1])
                    & (wlo[1] <= h1[k])
                    & (l2[k] <= whi[2])
                    & (wlo[2] <= h2[k]);
                m |= u64::from(ok) << k;
            }
            m
        } else if N == 4 {
            let (l0, h0) = (&b[0..C], &b[C..2 * C]);
            let (l1, h1) = (&b[2 * C..3 * C], &b[3 * C..4 * C]);
            let (l2, h2) = (&b[4 * C..5 * C], &b[5 * C..6 * C]);
            let (l3, h3) = (&b[6 * C..7 * C], &b[7 * C..8 * C]);
            let mut m = 0u64;
            for k in 0..C {
                let ok = (l0[k] <= whi[0])
                    & (wlo[0] <= h0[k])
                    & (l1[k] <= whi[1])
                    & (wlo[1] <= h1[k])
                    & (l2[k] <= whi[2])
                    & (wlo[2] <= h2[k])
                    & (l3[k] <= whi[3])
                    & (wlo[3] <= h3[k]);
                m |= u64::from(ok) << k;
            }
            m
        } else {
            // Exotic dimensions: per-axis masks, AND-combined. Still
            // constant trip counts, just not hand-fused.
            let mut m = if C >= 64 { u64::MAX } else { (1u64 << C) - 1 };
            for d in 0..N {
                let lo = &b[2 * d * C..2 * d * C + C];
                let hi = &b[(2 * d + 1) * C..(2 * d + 1) * C + C];
                let mut md = 0u64;
                for k in 0..C {
                    md |= u64::from((lo[k] <= whi[d]) & (wlo[d] <= hi[k])) << k;
                }
                m &= md;
            }
            m
        }
    }

    /// Hit bitmask of one chunk at chunk-aligned offset `o`; only used
    /// for nodes too large for a single 64-bit sweep.
    #[inline]
    fn chunk_bits(&self, window: &Rect<N>, o: usize) -> u32 {
        let cap = self.cap;
        let los: [&[f64]; N] = std::array::from_fn(|d| {
            let off = 2 * d * cap + o;
            &self.buf[off..off + CHUNK]
        });
        let his: [&[f64]; N] = std::array::from_fn(|d| {
            let off = (2 * d + 1) * cap + o;
            &self.buf[off..off + CHUNK]
        });
        let mut m = 0u32;
        for k in 0..CHUNK {
            let mut ok = true;
            for d in 0..N {
                ok &= (los[d][k] <= window.hi[d]) & (window.lo[d] <= his[d][k]);
            }
            m |= u32::from(ok) << k;
        }
        m
    }
}

/// A leaf page: MBR lanes plus the stored items in a parallel array.
#[derive(Debug, Clone)]
pub(crate) struct LeafNode<const N: usize, T> {
    pub lanes: Lanes<N>,
    items: Vec<T>,
}

impl<const N: usize, T> LeafNode<N, T> {
    pub fn new() -> Self {
        Self {
            lanes: Lanes::new(),
            items: Vec::new(),
        }
    }

    pub fn from_entries(entries: Vec<Entry<N, T>>) -> Self {
        let mut node = Self {
            lanes: Lanes::with_capacity(entries.len()),
            items: Vec::with_capacity(entries.len()),
        };
        for e in entries {
            node.push(e.rect, e.item);
        }
        node
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    #[inline]
    pub fn push(&mut self, rect: Rect<N>, item: T) {
        self.lanes.push(&rect);
        self.items.push(item);
    }

    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        self.lanes.rect(i)
    }

    #[inline]
    pub fn item(&self, i: usize) -> &T {
        &self.items[i]
    }

    /// Order-preserving removal, mirroring `Vec::remove`.
    pub fn remove(&mut self, i: usize) -> Entry<N, T> {
        let rect = self.lanes.remove(i);
        Entry {
            rect,
            item: self.items.remove(i),
        }
    }

    /// Drains the node into AoS entries (same order), leaving it empty.
    /// Overflow handling materialises through here, runs the split or
    /// reinsert permutation, and rebuilds via [`LeafNode::extend_entries`].
    pub fn drain_entries(&mut self) -> Vec<Entry<N, T>> {
        let rects: Vec<Rect<N>> = (0..self.len()).map(|i| self.rect(i)).collect();
        self.lanes.clear();
        rects
            .into_iter()
            .zip(self.items.drain(..))
            .map(|(rect, item)| Entry { rect, item })
            .collect()
    }

    pub fn extend_entries(&mut self, entries: Vec<Entry<N, T>>) {
        for e in entries {
            self.push(e.rect, e.item);
        }
    }

    pub fn into_entries(mut self) -> Vec<Entry<N, T>> {
        self.drain_entries()
    }
}

/// An internal page: MBR lanes plus the child slots in a parallel array.
#[derive(Debug, Clone)]
pub(crate) struct InternalNode<const N: usize> {
    pub lanes: Lanes<N>,
    children: Vec<u32>,
}

impl<const N: usize> InternalNode<N> {
    pub fn from_entries(entries: Vec<ChildEntry<N>>) -> Self {
        let mut node = Self {
            lanes: Lanes::with_capacity(entries.len()),
            children: Vec::with_capacity(entries.len()),
        };
        for e in entries {
            node.push(e.rect, e.child);
        }
        node
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.children.len()
    }

    #[inline]
    pub fn push(&mut self, rect: Rect<N>, child: u32) {
        self.lanes.push(&rect);
        self.children.push(child);
    }

    #[inline]
    pub fn rect(&self, i: usize) -> Rect<N> {
        self.lanes.rect(i)
    }

    #[inline]
    pub fn child(&self, i: usize) -> u32 {
        self.children[i]
    }

    #[inline]
    pub fn children(&self) -> &[u32] {
        &self.children
    }

    #[inline]
    pub fn set_rect(&mut self, i: usize, r: &Rect<N>) {
        self.lanes.set(i, r);
    }

    /// Order-preserving removal, mirroring `Vec::remove`.
    pub fn remove(&mut self, i: usize) -> ChildEntry<N> {
        let rect = self.lanes.remove(i);
        ChildEntry {
            rect,
            child: self.children.remove(i),
        }
    }

    pub fn pop(&mut self) -> Option<ChildEntry<N>> {
        let child = self.children.pop()?;
        let i = self.children.len();
        let rect = self.lanes.remove(i);
        Some(ChildEntry { rect, child })
    }

    /// Drains the node into AoS entries (same order), leaving it empty.
    pub fn drain_entries(&mut self) -> Vec<ChildEntry<N>> {
        let out: Vec<ChildEntry<N>> = (0..self.len())
            .map(|i| ChildEntry {
                rect: self.rect(i),
                child: self.children[i],
            })
            .collect();
        self.lanes.clear();
        self.children.clear();
        out
    }

    pub fn extend_entries(&mut self, entries: Vec<ChildEntry<N>>) {
        for e in entries {
            self.push(e.rect, e.child);
        }
    }
}

/// One page of the tree, stored in an arena slot.
#[derive(Debug, Clone)]
pub(crate) enum NodeKind<const N: usize, T> {
    /// A leaf page holding items.
    Leaf(LeafNode<N, T>),
    /// An internal page holding child slots.
    Internal(InternalNode<N>),
    /// A recycled slot on the free list.
    Free,
}

/// Flat node storage: a slab of nodes plus a free list of recycled slots.
#[derive(Debug, Clone)]
pub(crate) struct Arena<const N: usize, T> {
    nodes: Vec<NodeKind<N, T>>,
    free: Vec<u32>,
}

impl<const N: usize, T> Arena<N, T> {
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `kind` in a recycled or fresh slot and returns its index.
    pub fn alloc(&mut self, kind: NodeKind<N, T>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = kind;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < u32::MAX, "arena exhausted u32 slot space");
            self.nodes.push(kind);
            idx
        }
    }

    /// Moves the node out of its slot, leaving the slot on the free list.
    pub fn take(&mut self, idx: u32) -> NodeKind<N, T> {
        let kind = std::mem::replace(&mut self.nodes[idx as usize], NodeKind::Free);
        self.free.push(idx);
        kind
    }

    /// Recycles a slot without inspecting its contents.
    pub fn release(&mut self, idx: u32) {
        self.nodes[idx as usize] = NodeKind::Free;
        self.free.push(idx);
    }

    pub fn node(&self, idx: u32) -> &NodeKind<N, T> {
        &self.nodes[idx as usize]
    }

    pub fn node_mut(&mut self, idx: u32) -> &mut NodeKind<N, T> {
        &mut self.nodes[idx as usize]
    }

    /// The internal node at `idx`; must only be called on a slot known to
    /// hold an internal node.
    pub fn internal(&self, idx: u32) -> &InternalNode<N> {
        match &self.nodes[idx as usize] {
            NodeKind::Internal(node) => node,
            _ => unreachable!("slot {idx} is not an internal node"),
        }
    }

    /// Mutable twin of [`Arena::internal`].
    pub fn internal_mut(&mut self, idx: u32) -> &mut InternalNode<N> {
        match &mut self.nodes[idx as usize] {
            NodeKind::Internal(node) => node,
            _ => unreachable!("slot {idx} is not an internal node"),
        }
    }

    pub fn is_leaf(&self, idx: u32) -> bool {
        matches!(self.nodes[idx as usize], NodeKind::Leaf(_))
    }

    /// Number of entries in the node at `idx` (0 for a free slot).
    pub fn entry_count(&self, idx: u32) -> usize {
        match &self.nodes[idx as usize] {
            NodeKind::Leaf(node) => node.len(),
            NodeKind::Internal(node) => node.len(),
            NodeKind::Free => 0,
        }
    }

    /// MBR of all entries of the node at `idx`, or `None` when empty.
    pub fn mbr(&self, idx: u32) -> Option<Rect<N>> {
        match &self.nodes[idx as usize] {
            NodeKind::Leaf(node) => node.lanes.mbr(),
            NodeKind::Internal(node) => node.lanes.mbr(),
            NodeKind::Free => None,
        }
    }

    /// Total node count of the subtree rooted at `idx` (including itself).
    pub fn count_nodes(&self, idx: u32) -> usize {
        let mut count = 0usize;
        let mut stack = vec![idx];
        while let Some(i) = stack.pop() {
            count += 1;
            if let NodeKind::Internal(node) = self.node(i) {
                stack.extend_from_slice(node.children());
            }
        }
        count
    }

    /// Total slots ever allocated (live + free).
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Slots currently on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Checks the free list against the slot states: every listed slot is
    /// in bounds and marked `Free`, and every `Free` slot is listed exactly
    /// once (counting both ways rules out duplicates).
    pub fn validate_free_list(&self) -> Result<(), String> {
        for &idx in &self.free {
            match self.nodes.get(idx as usize) {
                Some(NodeKind::Free) => {}
                Some(_) => return Err(format!("free-list slot {idx} holds a live node")),
                None => return Err(format!("free-list slot {idx} out of bounds")),
            }
        }
        let marked = self
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeKind::Free))
            .count();
        if marked != self.free.len() {
            return Err(format!(
                "{marked} slots marked free but free list holds {}",
                self.free.len()
            ));
        }
        Ok(())
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
        let count = self.entry_count(idx);
        if count > config.max_entries {
            return Err(format!("node overflow: {count} > {}", config.max_entries));
        }
        if !is_root && count < config.min_entries {
            return Err(format!("node underflow: {count} < {}", config.min_entries));
        }
        match self.node(idx) {
            NodeKind::Leaf(node) => {
                if depth_left != 1 {
                    return Err(format!("leaf at wrong depth ({depth_left} levels left)"));
                }
                // Items and lanes must stay parallel.
                if node.lanes.len() != node.len() {
                    return Err(format!(
                        "leaf lane/item length mismatch: {} vs {}",
                        node.lanes.len(),
                        node.len()
                    ));
                }
                *total += node.len();
                Ok(())
            }
            NodeKind::Internal(node) => {
                if depth_left <= 1 {
                    return Err("internal node at leaf depth".into());
                }
                if is_root && node.len() < 2 {
                    return Err("internal root must have at least 2 children".into());
                }
                if node.lanes.len() != node.len() {
                    return Err(format!(
                        "internal lane/child length mismatch: {} vs {}",
                        node.lanes.len(),
                        node.len()
                    ));
                }
                for i in 0..node.len() {
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
            NodeKind::Free => Err(format!("free slot {idx} reachable from the root")),
        }
    }
}

fn rects_equal<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
    (0..N).all(|i| (a.lo[i] - b.lo[i]).abs() < 1e-9 && (a.hi[i] - b.hi[i]).abs() < 1e-9)
}
