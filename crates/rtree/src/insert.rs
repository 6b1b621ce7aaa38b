//! Insertion: subtree choice, node splits (quadratic and R*), forced
//! reinsertion.
//!
//! The two variants follow the published algorithms:
//!
//! * **Guttman** — ChooseLeaf descends by least volume enlargement; an
//!   overflowing node is split with the quadratic PickSeeds/PickNext
//!   heuristic.
//! * **R\*** — ChooseSubtree minimises *overlap* enlargement at the level
//!   above the leaves (ties: volume enlargement, then volume); an
//!   overflowing leaf first triggers a forced reinsertion of the 30 % of
//!   its entries farthest from the node centre (once per top-level insert),
//!   and splits use the margin-driven axis choice followed by the
//!   minimum-overlap distribution. Forced reinsertion is applied at the
//!   leaf level only — the level where it buys nearly all of its packing
//!   benefit — which keeps overflow propagation single-pass.

use crate::node::{Arena, ArenaNode, ChildEntry, Entry, SlabEntry};
use crate::{RTree, RTreeConfig, Variant};
use mar_geom::{Point, Rect};
use std::cell::Cell;

thread_local! {
    // Reused scratch for forced reinsertion and R* splits (the same
    // take/set pattern as the query traversal stack), so overflow handling
    // on the insert hot path performs no per-call allocation. The two
    // users never nest within one call stack.
    static ORDER_SCRATCH: Cell<Vec<usize>> = const { Cell::new(Vec::new()) };
    static KEY_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Anything that sits in a node under a rectangle.
pub(crate) trait HasRect<const N: usize> {
    fn rect(&self) -> &Rect<N>;
}

impl<const N: usize, T> HasRect<N> for Entry<N, T> {
    fn rect(&self) -> &Rect<N> {
        &self.rect
    }
}

impl<const N: usize> HasRect<N> for ChildEntry<N> {
    fn rect(&self) -> &Rect<N> {
        &self.rect
    }
}

pub(crate) fn mbr_of<const N: usize, R: HasRect<N>>(items: &[R]) -> Rect<N> {
    items
        .iter()
        .map(|i| *i.rect())
        .reduce(|a, b| a.union(&b))
        // mar-lint: allow(D004) — callers only pass non-empty entry slices
        .expect("mbr of empty set")
}

impl<const N: usize, T> RTree<N, T> {
    /// Inserts `item` under `rect`.
    pub fn insert(&mut self, rect: Rect<N>, item: T) {
        assert!(rect.is_finite(), "cannot index a non-finite rectangle");
        self.len += 1;
        // Forced reinsertion is allowed once per top-level insert.
        let mut allow_reinsert = self.config.variant == Variant::RStar;
        let mut queue: Vec<Entry<N, T>> = vec![Entry { rect, item }];
        // One reinsert buffer for the whole insert: it is empty at the top
        // of every iteration, so draining it into the queue (instead of
        // allocating a fresh vector per pass) changes nothing but the
        // allocation count.
        let mut reinserts: Vec<Entry<N, T>> = Vec::new();
        while let Some(e) = queue.pop() {
            let split = insert_rec(
                &mut self.arena,
                self.root,
                e,
                &self.config,
                &mut allow_reinsert,
                &mut reinserts,
            );
            if let Some((new_rect, new_node)) = split {
                self.grow_root(new_rect, new_node);
            }
            queue.append(&mut reinserts);
        }
    }

    fn grow_root(&mut self, sibling_rect: Rect<N>, sibling: u32) {
        let old_root = self.root;
        let old_rect = self
            .arena
            .mbr(old_root)
            // mar-lint: allow(D004) — a node that just split holds ≥ min_entries
            .expect("split root cannot be empty");
        self.root = self.arena.alloc(vec![
            ChildEntry {
                rect: old_rect,
                child: old_root,
            },
            ChildEntry {
                rect: sibling_rect,
                child: sibling,
            },
        ]);
        self.height += 1;
    }
}

/// Recursive insert; returns the `(mbr, slot)` of a new sibling when the
/// visited node split.
fn insert_rec<const N: usize, T>(
    arena: &mut Arena<N, T>,
    node: u32,
    entry: Entry<N, T>,
    config: &RTreeConfig,
    allow_reinsert: &mut bool,
    reinserts: &mut Vec<Entry<N, T>>,
) -> Option<(Rect<N>, u32)> {
    if arena.is_leaf(node) {
        // The no-overflow fast path only appends to the block; overflow
        // materialises the entries, runs the reinsert/split permutation,
        // and writes them back in the permuted order.
        let mut leaf = arena.node_mut(node);
        leaf.push(entry);
        if leaf.len() <= config.max_entries {
            return None;
        }
        let mut entries: Vec<Entry<N, T>> = leaf.drain();
        if *allow_reinsert {
            *allow_reinsert = false;
            force_reinsert(&mut entries, config, reinserts);
            leaf.extend(entries);
            return None;
        }
        return Some(split_node(arena, node, entries, config));
    }
    let (idx, child) = {
        let inode = arena.node(node);
        let child_is_leaf = inode.len() > 0 && arena.is_leaf(inode.child(0));
        let idx = choose_subtree(&inode, &entry.rect, config, child_is_leaf);
        (idx, inode.child(idx))
    };
    let split = insert_rec(arena, child, entry, config, allow_reinsert, reinserts);
    let child_mbr = arena
        .mbr(child)
        // mar-lint: allow(D004) — insertion only ever adds entries
        .expect("child emptied during insert");
    let mut inode = arena.node_mut(node);
    inode.set_rect(idx, &child_mbr);
    let (rect, child) = split?;
    inode.push(ChildEntry { rect, child });
    if inode.len() <= config.max_entries {
        return None;
    }
    let entries: Vec<ChildEntry<N>> = inode.drain();
    Some(split_node(arena, node, entries, config))
}

/// Splits the drained, overfull `entries` of `node`: one group goes back
/// into the node, the other into a newly allocated sibling whose
/// `(mbr, slot)` is returned.
fn split_node<const N: usize, T, E: SlabEntry<N, T> + HasRect<N>>(
    arena: &mut Arena<N, T>,
    node: u32,
    entries: Vec<E>,
    config: &RTreeConfig,
) -> (Rect<N>, u32) {
    let (keep, moved) = split_items(entries, config);
    let sibling_rect = mbr_of(&moved);
    arena.node_mut(node).extend(keep);
    (sibling_rect, arena.alloc(moved))
}

/// R* forced reinsertion: removes the `p` entries whose centres are
/// farthest from the node's centre and queues them for reinsertion
/// (in increasing distance — "close reinsert").
fn force_reinsert<const N: usize, T>(
    entries: &mut Vec<Entry<N, T>>,
    config: &RTreeConfig,
    reinserts: &mut Vec<Entry<N, T>>,
) {
    let node_center = mbr_of(entries).center();
    let p = config
        .reinsert_count()
        .min(entries.len() - config.min_entries);
    let mut order = ORDER_SCRATCH.take();
    let mut dist = KEY_SCRATCH.take();
    dist.clear();
    dist.extend(
        entries
            .iter()
            .map(|e| e.rect.center().distance(&node_center)),
    );
    order.clear();
    order.extend(0..entries.len());
    // Unstable sort with an index tiebreak reproduces the stable
    // descending-distance order over the ascending index sequence exactly.
    order.sort_unstable_by(|&a, &b| dist[b].total_cmp(&dist[a]).then(a.cmp(&b)));
    order.truncate(p);
    order.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back
    let start = reinserts.len();
    for &i in &order {
        reinserts.push(entries.swap_remove(i));
    }
    // Close reinsert: nearest first => reinsert queue is processed LIFO by
    // the caller, so order farthest first. At most `p` (≤ 0.3·M) elements:
    // the stable sort stays in its allocation-free insertion regime.
    reinserts[start..].sort_by(|a, b| {
        let da = a.rect.center().distance(&node_center);
        let db = b.rect.center().distance(&node_center);
        db.total_cmp(&da)
    });
    ORDER_SCRATCH.set(order);
    KEY_SCRATCH.set(dist);
}

/// Picks the child to descend into.
fn choose_subtree<const N: usize, T>(
    node: &ArenaNode<'_, N, T>,
    rect: &Rect<N>,
    config: &RTreeConfig,
    child_is_leaf: bool,
) -> usize {
    if config.variant == Variant::RStar && child_is_leaf {
        // Minimise overlap enlargement (R* §4.1), ties by volume
        // enlargement, then by volume.
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for i in 0..node.len() {
            let r = node.rect(i);
            let enlarged = r.union(rect);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for j in 0..node.len() {
                if i == j {
                    continue;
                }
                let o = node.rect(j);
                overlap_before += r.overlap_volume(&o);
                overlap_after += enlarged.overlap_volume(&o);
            }
            let key = (
                overlap_after - overlap_before,
                r.enlargement(rect),
                r.volume(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        // Least volume enlargement, ties by volume.
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for i in 0..node.len() {
            let r = node.rect(i);
            let key = (r.enlargement(rect), r.volume());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

/// Splits an overfull set of items into two groups per the configured
/// algorithm.
pub(crate) fn split_items<const N: usize, R: HasRect<N>>(
    items: Vec<R>,
    config: &RTreeConfig,
) -> (Vec<R>, Vec<R>) {
    match config.variant {
        Variant::Guttman => quadratic_split(items, config),
        Variant::RStar => rstar_split(items, config),
    }
}

/// Guttman's quadratic split.
fn quadratic_split<const N: usize, R: HasRect<N>>(
    mut items: Vec<R>,
    config: &RTreeConfig,
) -> (Vec<R>, Vec<R>) {
    let m = config.min_entries;
    // PickSeeds: the pair wasting the most area together.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let d = items[i].rect().union(items[j].rect()).volume()
                - items[i].rect().volume()
                - items[j].rect().volume();
            if d > worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove the higher index first so the lower stays valid.
    let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let seed_b = items.swap_remove(hi);
    let seed_a = items.swap_remove(lo);
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut mbr_a = *group_a[0].rect();
    let mut mbr_b = *group_b[0].rect();

    while !items.is_empty() {
        // If one group must absorb all remaining to reach m, do it.
        let remaining = items.len();
        if group_a.len() + remaining == m {
            for it in items.drain(..) {
                mbr_a = mbr_a.union(it.rect());
                group_a.push(it);
            }
            break;
        }
        if group_b.len() + remaining == m {
            for it in items.drain(..) {
                mbr_b = mbr_b.union(it.rect());
                group_b.push(it);
            }
            break;
        }
        // PickNext: max preference difference.
        let (mut pick, mut pref) = (0, f64::NEG_INFINITY);
        for (i, it) in items.iter().enumerate() {
            let da = mbr_a.enlargement(it.rect());
            let db = mbr_b.enlargement(it.rect());
            let d = (da - db).abs();
            if d > pref {
                pref = d;
                pick = i;
            }
        }
        let it = items.swap_remove(pick);
        let da = mbr_a.enlargement(it.rect());
        let db = mbr_b.enlargement(it.rect());
        let to_a = match da.total_cmp(&db) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                // Ties: smaller volume, then fewer entries.
                (mbr_a.volume(), group_a.len()) <= (mbr_b.volume(), group_b.len())
            }
        };
        if to_a {
            mbr_a = mbr_a.union(it.rect());
            group_a.push(it);
        } else {
            mbr_b = mbr_b.union(it.rect());
            group_b.push(it);
        }
    }
    (group_a, group_b)
}

/// R* split: choose the axis with the least total margin over all
/// distributions, then the distribution with least overlap (ties: least
/// combined volume).
fn rstar_split<const N: usize, R: HasRect<N>>(
    items: Vec<R>,
    config: &RTreeConfig,
) -> (Vec<R>, Vec<R>) {
    let m = config.min_entries;
    let total = items.len();
    debug_assert!(total >= 2 * m);

    let mut order = ORDER_SCRATCH.take();
    let mut suffix = KEY_SCRATCH.take();
    order.clear();
    order.extend(0..total);
    // Unstable sort with an index tiebreak: reproduces the stable sort of
    // the ascending index sequence exactly, so the chosen axis, split
    // point and group order are identical to the original formulation.
    let sort_on = |order: &mut Vec<usize>, items: &[R], axis: usize| {
        order.sort_unstable_by(|&a, &b| {
            let ra = items[a].rect();
            let rb = items[b].rect();
            ra.lo[axis]
                .total_cmp(&rb.lo[axis])
                .then(ra.hi[axis].total_cmp(&rb.hi[axis]))
                .then(a.cmp(&b))
        });
    };

    // Choose split axis by minimum margin sum. Each distribution's left
    // MBR grows incrementally and its right MBR comes from a precomputed
    // suffix array, so one axis pass costs O(n) unions instead of O(n²).
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..N {
        sort_on(&mut order, &items, axis);
        build_suffix_mbrs(&items, &order, &mut suffix);
        let mut left = mbr_of_indices(&items, &order[..m]);
        let mut margin_sum = 0.0;
        for k in m..=(total - m) {
            let right = read_rect::<N>(&suffix, k);
            margin_sum += left.margin() + right.margin();
            left = left.union(items[order[k]].rect());
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // Choose the distribution along the best axis.
    sort_on(&mut order, &items, best_axis);
    build_suffix_mbrs(&items, &order, &mut suffix);
    let mut left = mbr_of_indices(&items, &order[..m]);
    let mut best_k = m;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for k in m..=(total - m) {
        let right = read_rect::<N>(&suffix, k);
        let key = (left.overlap_volume(&right), left.volume() + right.volume());
        if key < best_key {
            best_key = key;
            best_k = k;
        }
        left = left.union(items[order[k]].rect());
    }

    // Materialise the two groups preserving the chosen order.
    let mut slots: Vec<Option<R>> = items.into_iter().map(Some).collect();
    let left: Vec<R> = order[..best_k]
        .iter()
        // mar-lint: allow(D004) — `order` is a permutation; each index once
        .map(|&i| slots[i].take().expect("index used twice"))
        .collect();
    let right: Vec<R> = order[best_k..]
        .iter()
        // mar-lint: allow(D004) — `order` is a permutation; each index once
        .map(|&i| slots[i].take().expect("index used twice"))
        .collect();
    KEY_SCRATCH.set(suffix);
    ORDER_SCRATCH.set(order);
    (left, right)
}

/// Fills `suffix` (a flat scratch of `2·N` floats per slot — `lo` then
/// `hi`) so slot `k` holds the MBR of `order[k..]`. Built back to front;
/// `union` is an elementwise min/max, so the accumulation direction yields
/// bit-identical MBRs to a left-to-right fold.
fn build_suffix_mbrs<const N: usize, R: HasRect<N>>(
    items: &[R],
    order: &[usize],
    suffix: &mut Vec<f64>,
) {
    let total = order.len();
    suffix.clear();
    suffix.resize(total * 2 * N, 0.0);
    let mut acc = *items[order[total - 1]].rect();
    write_rect(suffix, total - 1, &acc);
    for k in (0..total - 1).rev() {
        acc = items[order[k]].rect().union(&acc);
        write_rect(suffix, k, &acc);
    }
}

fn write_rect<const N: usize>(buf: &mut [f64], k: usize, r: &Rect<N>) {
    let base = k * 2 * N;
    for d in 0..N {
        buf[base + d] = r.lo[d];
        buf[base + N + d] = r.hi[d];
    }
}

fn read_rect<const N: usize>(buf: &[f64], k: usize) -> Rect<N> {
    let base = k * 2 * N;
    // `Rect::new` normalises corners via min/max — the identity here,
    // because what was stored is already a well-formed MBR.
    Rect::new(
        Point::new(std::array::from_fn(|d| buf[base + d])),
        Point::new(std::array::from_fn(|d| buf[base + N + d])),
    )
}

fn mbr_of_indices<const N: usize, R: HasRect<N>>(items: &[R], idx: &[usize]) -> Rect<N> {
    idx.iter()
        .map(|&i| *items[i].rect())
        .reduce(|a, b| a.union(&b))
        // mar-lint: allow(D004) — split distributions are never empty (k ≥ m)
        .expect("mbr of empty slice")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn build(variant: Variant, n: usize, cap: usize) -> RTree<2, usize> {
        let mut t = RTree::new(RTreeConfig::new(cap, variant));
        for i in 0..n {
            // Deterministic scatter with some duplicates and clusters.
            let x = ((i * 37) % 100) as f64 + (i % 7) as f64 * 0.1;
            let y = ((i * 61) % 100) as f64 + (i % 5) as f64 * 0.1;
            t.insert(pt(x, y), i);
        }
        t
    }

    #[test]
    fn guttman_insert_keeps_invariants() {
        let t = build(Variant::Guttman, 500, 8);
        assert_eq!(t.len(), 500);
        t.validate().expect("valid tree");
    }

    #[test]
    fn rstar_insert_keeps_invariants() {
        let t = build(Variant::RStar, 500, 8);
        assert_eq!(t.len(), 500);
        t.validate().expect("valid tree");
    }

    #[test]
    fn paper_capacity_large_insert() {
        let t = build(Variant::RStar, 3000, 20);
        assert_eq!(t.len(), 3000);
        t.validate().expect("valid tree");
        assert!(t.height() >= 3);
    }

    #[test]
    fn rectangles_not_just_points() {
        let mut t: RTree<2, usize> = RTree::new(RTreeConfig::paper());
        for i in 0..200 {
            let x = ((i * 13) % 90) as f64;
            let y = ((i * 29) % 90) as f64;
            let r = Rect2::new(
                Point2::new([x, y]),
                Point2::new([x + 1.0 + (i % 9) as f64, y + 1.0 + (i % 4) as f64]),
            );
            t.insert(r, i);
        }
        t.validate().expect("valid tree");
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn duplicate_rects_allowed() {
        let mut t: RTree<2, usize> = RTree::new(RTreeConfig::new(4, Variant::RStar));
        for i in 0..50 {
            t.insert(pt(1.0, 1.0), i);
        }
        assert_eq!(t.len(), 50);
        t.validate().expect("valid tree");
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let items: Vec<Entry<2, usize>> = (0..9)
            .map(|i| Entry {
                rect: pt(i as f64, 0.0),
                item: i,
            })
            .collect();
        let cfg = RTreeConfig::new(8, Variant::Guttman);
        let (a, b) = quadratic_split(items, &cfg);
        assert_eq!(a.len() + b.len(), 9);
        assert!(a.len() >= cfg.min_entries);
        assert!(b.len() >= cfg.min_entries);
    }

    #[test]
    fn rstar_split_separates_line_cleanly() {
        // Points on a line must split into contiguous halves.
        let items: Vec<Entry<2, usize>> = (0..9)
            .map(|i| Entry {
                rect: pt(i as f64, 0.0),
                item: i,
            })
            .collect();
        let cfg = RTreeConfig::new(8, Variant::RStar);
        let (a, b) = rstar_split(items, &cfg);
        assert_eq!(a.len() + b.len(), 9);
        let max_a = a.iter().map(|e| e.item).max().unwrap();
        let min_b = b.iter().map(|e| e.item).min().unwrap();
        assert!(max_a < min_b, "groups must not interleave along the axis");
    }

    #[test]
    fn rstar_beats_or_matches_guttman_on_node_count() {
        // R* packing should not be wildly worse than Guttman; this is a
        // smoke regression, not a benchmark.
        let g = build(Variant::Guttman, 2000, 16);
        let r = build(Variant::RStar, 2000, 16);
        assert!(r.node_count() as f64 <= g.node_count() as f64 * 1.5);
    }
}
