//! The §VI-B window query, written once: a scalar walk and a grouped
//! (64-window bitmask) walk over any [`NodeSource`].
//!
//! A source hands out nodes by `u32` id; a node ([`NodeView`]) tests up
//! to 64 of its entries against a window at a time and yields a hit
//! bitmask, which the walks iterate by `trailing_zeros`. The in-RAM arena
//! (`&RTree`, struct-of-arrays lanes, branchless sweep) and the page
//! images of [`crate::PageSource`] are the two sources; visit order, hit
//! order and every access count are those of the classic
//! one-rect-at-a-time LIFO descent for both, because both run the code
//! below — only the node fetch and the window-test kernel differ.
//!
//! The walks perform no allocation on the hot path: the traversal stacks
//! are thread-local scratch buffers that are taken for the duration of
//! one search and handed back (grown) afterwards, so steady-state queries
//! reuse the same capacity forever. A `Cell` (take/replace) rather than a
//! `RefCell` keeps re-entrant searches safe: a query issued from inside a
//! visitor simply starts from a fresh empty stack.
//!
//! [`search_batch_into`] runs K windows at once: the stack carries
//! `(node, window_bitmask)` pairs, so a node shared by several windows is
//! *fetched* once per group while the per-window **logical** access
//! counts (what K independent scalar descents would have reported, and
//! what the cumulative [`RTree::io_count`] tallies) are still attributed
//! exactly. The unique visit count — the improved node-access metric
//! batching buys — is returned alongside.

use crate::node::{ArenaNode, Kind};
use crate::{IoCounters, IoKind, RTree};
use mar_geom::Rect;
use std::cell::Cell;

thread_local! {
    /// Reusable traversal stack shared by every source on this thread;
    /// node ids are plain `u32`s, so one buffer serves all `N`/`T`.
    static SEARCH_STACK: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    /// Reusable `(node, window-bitmask)` stack for the grouped walk.
    static BATCH_STACK: Cell<Vec<(u32, u64)>> = const { Cell::new(Vec::new()) };
}

/// Where a walk's nodes come from. Implemented for `&RTree` (arena
/// slots) and `&PageSource` (page images behind a fetch function).
pub trait NodeSource<const N: usize> {
    /// One fetched node.
    type Node: NodeView<N>;

    /// Id of the root node.
    fn root(&self) -> u32;

    /// Fetches node `id` — called exactly once per node visit, in visit
    /// order, so a source backed by a buffer pool sees one look-up per
    /// unique access.
    fn node(&self, id: u32) -> Self::Node;

    /// The cumulative counters the walks tally logical and unique
    /// accesses into.
    fn io(&self) -> &IoCounters;
}

/// One node as the walks see it. A leaf hit reaches the visitor as
/// `(node, entry index)`; what a leaf entry carries is the node type's
/// own business ([`ArenaNode::item`], [`crate::NodePage::item_bytes`]).
pub trait NodeView<const N: usize> {
    /// True for a leaf (entries carry items), false for an internal node
    /// (entries carry child ids).
    fn is_leaf(&self) -> bool;

    /// Entries stored in the node.
    fn entry_count(&self) -> usize;

    /// Tests up to 64 entries starting at `start` (a multiple of 64,
    /// `< entry_count`, or 0) against `window` and returns `(hit_mask,
    /// tested)`: bit `j` is set iff entry `start + j` intersects `window`
    /// on closed intervals, exactly [`Rect::intersects`].
    fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize);

    /// Entry `i`'s child id (internal nodes only).
    fn child(&self, i: usize) -> u32;
}

/// Calls `hit(i)` for every entry `i` of `node` intersecting `window`,
/// in ascending entry order; `first` is `node.match_bits(window, 0)`.
#[inline(always)]
fn for_each_match_from<const N: usize>(
    node: &impl NodeView<N>,
    window: &Rect<N>,
    first: (u64, usize),
    mut hit: impl FnMut(usize),
) {
    let (mut mask, mut n) = first;
    let mut start = 0;
    loop {
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            hit(start + j);
        }
        start += n;
        if start >= node.entry_count() {
            break;
        }
        (mask, n) = node.match_bits(window, start);
    }
}

/// [`for_each_match_from`], testing the first entries here.
#[inline(always)]
fn for_each_match<const N: usize>(
    node: &impl NodeView<N>,
    window: &Rect<N>,
    hit: impl FnMut(usize),
) {
    for_each_match_from(node, window, node.match_bits(window, 0), hit);
}

/// The scalar window walk: calls `visit(leaf, i)` for every leaf entry
/// of `src` whose rectangle intersects `window` (children pushed in
/// ascending entry order, LIFO pops), returning the number of node
/// accesses performed. The source's cumulative logical and unique
/// counters are incremented by the same amount.
///
/// The walk runs one node ahead of itself: the next node on the stack is
/// fetched and its first entries tested *before* the current node's
/// matches are handed out, so the next node's memory is in flight while
/// the visitor works. Fetch order, visit order and every count are those
/// of the plain pop-fetch-test loop.
pub fn search<const N: usize, S: NodeSource<N>>(
    src: S,
    window: &Rect<N>,
    mut visit: impl FnMut(&S::Node, usize),
) -> u64 {
    let mut stack = SEARCH_STACK.with(Cell::take);
    stack.clear();
    let mut accesses = 0u64;
    stack.push(src.root());
    let mut current: Option<(S::Node, (u64, usize))> = None;
    loop {
        // An internal node pushes its matching children; a leaf leaves
        // the stack alone. Either way the next node to visit is now on top.
        if let Some((node, first)) = &current {
            if !node.is_leaf() {
                for_each_match_from(node, window, *first, |i| stack.push(node.child(i)));
            }
        }
        let next = stack.pop().map(|id| {
            let node = src.node(id);
            let first = node.match_bits(window, 0);
            (node, first)
        });
        if let Some((node, first)) = &current {
            if node.is_leaf() {
                for_each_match_from(node, window, *first, |i| visit(node, i));
            }
        }
        if next.is_none() {
            break;
        }
        accesses += 1;
        current = next;
    }
    SEARCH_STACK.with(|cell| cell.set(stack));
    src.io().add(IoKind::Logical, accesses);
    src.io().add(IoKind::Unique, accesses);
    accesses
}

/// The grouped window walk: `visit` receives `(window_index, leaf, i)`
/// for every window/entry intersection — per window, exactly the hits
/// the scalar [`search`] of that window produces, in the same order
/// (emission may interleave windows).
///
/// Windows are grouped 64 at a time (one bitmask lane each); within a
/// group every node is fetched at most once, while logical per-window
/// accesses are attributed exactly as K scalar searches would have:
/// `per_window[w]` is overwritten with window `w`'s logical accesses
/// (`per_window.len()` must equal `windows.len()`), their sum goes to the
/// source's logical counter, and the unique node visits are tallied and
/// returned.
pub fn search_batch_into<const N: usize, S: NodeSource<N>>(
    src: S,
    windows: &[Rect<N>],
    per_window: &mut [u64],
    mut visit: impl FnMut(usize, &S::Node, usize),
) -> u64 {
    assert_eq!(per_window.len(), windows.len(), "one tally per window");
    if let [window] = windows {
        // A group of one is the scalar walk: same hits, order and counts.
        per_window[0] = search(src, window, |leaf, i| visit(0, leaf, i));
        return per_window[0];
    }
    per_window.fill(0);
    let mut unique = 0u64;
    for (chunk_idx, chunk) in windows.chunks(64).enumerate() {
        unique += search_group(&src, chunk, chunk_idx * 64, per_window, &mut visit);
    }
    let total: u64 = per_window.iter().sum();
    src.io().add(IoKind::Logical, total);
    src.io().add(IoKind::Unique, unique);
    unique
}

/// One ≤64-window group descent; returns the unique node visits.
fn search_group<const N: usize, S: NodeSource<N>>(
    src: &S,
    windows: &[Rect<N>],
    base: usize,
    per_window: &mut [u64],
    visit: &mut impl FnMut(usize, &S::Node, usize),
) -> u64 {
    let all = if windows.len() == 64 {
        u64::MAX
    } else {
        (1u64 << windows.len()) - 1
    };
    let mut stack = BATCH_STACK.with(Cell::take);
    stack.clear();
    let mut unique = 0u64;
    stack.push((src.root(), all));
    while let Some((id, group)) = stack.pop() {
        unique += 1;
        // Logical attribution: every window whose bit is set "visits"
        // this node, exactly as its own scalar descent would have.
        let mut g = group;
        while g != 0 {
            let w = g.trailing_zeros() as usize;
            g &= g - 1;
            per_window[base + w] += 1;
        }
        let node = src.node(id);
        if node.is_leaf() {
            let mut g = group;
            while g != 0 {
                let w = g.trailing_zeros() as usize;
                g &= g - 1;
                for_each_match(&node, &windows[w], |i| visit(base + w, &node, i));
            }
        } else {
            // Transpose window×entry hits into per-child window masks,
            // then push surviving children in entry order.
            let mut start = 0;
            while start < node.entry_count() {
                let n = (node.entry_count() - start).min(64);
                let mut child_masks = [0u64; 64];
                let mut g = group;
                while g != 0 {
                    let w = g.trailing_zeros() as usize;
                    g &= g - 1;
                    let (mut mask, _) = node.match_bits(&windows[w], start);
                    while mask != 0 {
                        let j = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        child_masks[j] |= 1u64 << w;
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
    BATCH_STACK.with(|cell| cell.set(stack));
    unique
}

impl<'a, const N: usize, T> NodeSource<N> for &'a RTree<N, T> {
    type Node = ArenaNode<'a, N, T>;

    #[inline]
    fn root(&self) -> u32 {
        self.root
    }

    #[inline]
    fn node(&self, id: u32) -> Self::Node {
        self.arena.node(id)
    }

    #[inline]
    fn io(&self) -> &IoCounters {
        &self.io
    }
}

impl<const N: usize, T> NodeView<N> for ArenaNode<'_, N, T> {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.kind() == Kind::Leaf
    }

    #[inline]
    fn entry_count(&self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        ArenaNode::match_bits(self, window, start)
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        ArenaNode::child(self, i)
    }
}

/// Access accounting of one grouped descent ([`RTree::search_batch_into`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAccesses {
    /// Logical node accesses per window — exactly what a scalar
    /// [`RTree::search`] of the same window would have returned. These are
    /// what the cumulative [`RTree::io_count`] is incremented by, so
    /// existing I/O accounting is batch-invariant.
    pub per_window: Vec<u64>,
    /// Distinct node visits the grouped descent actually performed (a
    /// node shared by several windows of a 64-wide group counts once).
    /// `max(per_window) <= unique <= sum(per_window)`.
    pub unique: u64,
}

impl BatchAccesses {
    /// Sum of the per-window logical accesses (what K scalar searches
    /// would have cost).
    pub fn logical_total(&self) -> u64 {
        self.per_window.iter().sum()
    }
}

impl<const N: usize, T> RTree<N, T> {
    /// Visits every `(rect, item)` whose rectangle intersects `window`,
    /// returning the number of node (page) accesses the search performed.
    /// The cumulative [`RTree::io_count`] is incremented by the same
    /// amount. This is [`search`] over the arena.
    pub fn search<'a>(&'a self, window: &Rect<N>, mut visit: impl FnMut(Rect<N>, &'a T)) -> u64 {
        search(self, window, |leaf, i| visit(leaf.rect(i), leaf.item(i)))
    }

    /// Searches `K` windows in one grouped descent
    /// ([`search_batch_into`] over the arena). `visit` receives
    /// `(window_index, rect, item)` for every window/item intersection —
    /// per window, exactly the hit set the scalar [`RTree::search`] of
    /// that window produces (emission order may interleave windows).
    /// `per_window[w]` is overwritten with window `w`'s logical accesses
    /// (`per_window.len()` must equal `windows.len()`), and the unique
    /// physical visits are returned — see [`BatchAccesses`] for the two
    /// counts.
    pub fn search_batch_into<'a>(
        &'a self,
        windows: &[Rect<N>],
        per_window: &mut [u64],
        mut visit: impl FnMut(usize, Rect<N>, &'a T),
    ) -> u64 {
        search_batch_into(self, windows, per_window, |w, leaf, i| {
            visit(w, leaf.rect(i), leaf.item(i))
        })
    }

    /// Collects every item intersecting `window`; returns the items and the
    /// node accesses.
    pub fn query(&self, window: &Rect<N>) -> (Vec<&T>, u64) {
        let mut out = Vec::new();
        let io = self.search(window, |_, item| out.push(item));
        (out, io)
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeConfig, Variant};
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn grid_tree(variant: Variant) -> RTree<2, (i32, i32)> {
        let mut t = RTree::new(RTreeConfig::new(8, variant));
        for x in 0..20 {
            for y in 0..20 {
                t.insert(pt(x as f64, y as f64), (x, y));
            }
        }
        t
    }

    #[test]
    fn window_query_matches_bruteforce() {
        for variant in [Variant::Guttman, Variant::RStar] {
            let t = grid_tree(variant);
            let w = Rect2::new(Point2::new([3.5, 2.5]), Point2::new([8.5, 6.5]));
            let (mut got, io) = t.query(&w);
            assert!(io >= 1);
            let mut items: Vec<(i32, i32)> = got.drain(..).copied().collect();
            items.sort_unstable();
            let mut expect = Vec::new();
            for x in 4..=8 {
                for y in 3..=6 {
                    expect.push((x, y));
                }
            }
            assert_eq!(items, expect);
        }
    }

    #[test]
    fn boundary_inclusive() {
        let t = grid_tree(Variant::RStar);
        // A degenerate window exactly on a point.
        let w = Rect2::point(Point2::new([5.0, 5.0]));
        let (got, _) = t.query(&w);
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0], (5, 5));
    }

    #[test]
    fn empty_window_returns_nothing() {
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([100.0, 100.0]), Point2::new([110.0, 110.0]));
        let (got, io) = t.query(&w);
        assert!(got.is_empty());
        assert_eq!(io, 1, "only the root should be touched");
    }

    #[test]
    fn io_counter_accumulates_and_resets() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let (_, io1) = t.query(&w);
        let (_, io2) = t.query(&w);
        assert_eq!(io1, io2);
        assert_eq!(t.io_count(), io1 + io2);
        t.reset_io();
        assert_eq!(t.io_count(), 0);
        // A full scan must touch every node.
        assert_eq!(io1 as usize, t.node_count());
    }

    #[test]
    fn smaller_windows_cost_fewer_accesses() {
        let t = grid_tree(Variant::RStar);
        let small = Rect2::new(Point2::new([5.0, 5.0]), Point2::new([6.0, 6.0]));
        let big = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let (_, io_small) = t.query(&small);
        let (_, io_big) = t.query(&big);
        assert!(io_small < io_big);
    }

    #[test]
    fn reentrant_search_from_visitor() {
        // A query issued from inside a visitor must not corrupt the
        // thread-local scratch stack of the outer search.
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        t.search(&w, |_, _| {
            outer += 1;
            let small = Rect2::point(Point2::new([5.0, 5.0]));
            t.search(&small, |_, _| inner_total += 1);
        });
        assert_eq!(outer, 400);
        assert_eq!(inner_total, 400);
    }

    #[test]
    fn batch_matches_scalar_hits_and_counts() {
        let t = grid_tree(Variant::RStar);
        let windows = [
            Rect2::new(Point2::new([3.5, 2.5]), Point2::new([8.5, 6.5])),
            Rect2::point(Point2::new([5.0, 5.0])),
            Rect2::new(Point2::new([100.0, 100.0]), Point2::new([110.0, 110.0])),
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0])),
        ];
        let mut batch_hits: Vec<Vec<(i32, i32)>> = vec![Vec::new(); windows.len()];
        let mut per_window = vec![0u64; windows.len()];
        let unique = t.search_batch_into(&windows, &mut per_window, |w, _, &item| {
            batch_hits[w].push(item)
        });
        let mut logical_sum = 0;
        let mut max_logical = 0;
        for (w, window) in windows.iter().enumerate() {
            let (mut scalar, io) = t.query(window);
            let mut scalar: Vec<(i32, i32)> = scalar.drain(..).copied().collect();
            scalar.sort_unstable();
            batch_hits[w].sort_unstable();
            assert_eq!(batch_hits[w], scalar, "window {w} hit set");
            assert_eq!(per_window[w], io, "window {w} logical accesses");
            logical_sum += io;
            max_logical = max_logical.max(io);
        }
        assert!(unique >= max_logical);
        assert!(unique <= logical_sum);
    }

    #[test]
    fn batch_shares_node_visits_across_duplicate_windows() {
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([2.0, 2.0]), Point2::new([10.0, 10.0]));
        let (_, scalar_io) = t.query(&w);
        let windows = vec![w; 16];
        let mut per_window = vec![0u64; windows.len()];
        let unique = t.search_batch_into(&windows, &mut per_window, |_, _, _| {});
        // Every window is the same, so the group descends each shared node
        // exactly once: unique == one scalar descent.
        assert_eq!(unique, scalar_io);
        assert!(per_window.iter().all(|&io| io == scalar_io));
    }

    #[test]
    fn batch_io_counter_uses_logical_total() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([9.0, 9.0]));
        let mut per_window = [0u64; 3];
        t.search_batch_into(&[w, w, w], &mut per_window, |_, _, _| {});
        assert_eq!(t.io_count(), per_window.iter().sum::<u64>());
    }

    #[test]
    fn batch_handles_more_than_64_windows() {
        let t = grid_tree(Variant::RStar);
        let windows: Vec<Rect2> = (0..150)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                Rect2::new(Point2::new([x, y]), Point2::new([x + 1.5, y + 1.5]))
            })
            .collect();
        let mut batch_counts = vec![0usize; windows.len()];
        let mut per_window = vec![0u64; windows.len()];
        t.search_batch_into(&windows, &mut per_window, |w, _, _| batch_counts[w] += 1);
        for (w, window) in windows.iter().enumerate() {
            let mut n = 0usize;
            let io = t.search(window, |_, _| n += 1);
            assert_eq!(batch_counts[w], n, "window {w} count");
            assert_eq!(per_window[w], io, "window {w} accesses");
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let unique = t.search_batch_into(&[], &mut [], |_, _, _| {});
        assert_eq!(unique, 0);
        assert_eq!(t.io_count(), 0);
    }
}
