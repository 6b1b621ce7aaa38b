//! Deletion with tree condensation.
//!
//! Follows Guttman's Delete/CondenseTree: the leaf entry is located by
//! rectangle + item equality, removed, and any node left underfull on the
//! path is dissolved — its remaining items are collected and re-inserted,
//! and its arena slots are recycled through the free list. When the root
//! becomes a single-child internal node the tree shrinks.

use crate::node::{Arena, ChildEntry, Entry, Kind};
use crate::RTree;
use mar_geom::Rect;

impl<const N: usize, T: PartialEq> RTree<N, T> {
    /// Removes one entry matching `rect` (exactly) and `item` (by
    /// equality). Returns the removed item, or `None` when no such entry
    /// exists.
    pub fn remove(&mut self, rect: &Rect<N>, item: &T) -> Option<T> {
        let mut orphans: Vec<(Rect<N>, T)> = Vec::new();
        let removed = remove_rec(
            &mut self.arena,
            self.root,
            rect,
            item,
            &mut orphans,
            &self.config,
        )?;
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let root = self.arena.node(self.root);
            if root.kind() != Kind::Internal || root.len() != 1 {
                break;
            }
            let child = root.child(0);
            self.arena.release(self.root);
            self.root = child;
            self.height -= 1;
        }
        // Re-insert orphaned items (len is restored by insert).
        self.len -= orphans.len();
        for (r, it) in orphans {
            self.insert(r, it);
        }
        Some(removed)
    }

    /// Removes every entry whose rectangle intersects `window` and
    /// satisfies `pred`, returning the removed items. Implemented as
    /// repeated single deletions to reuse the condensation logic (deletion
    /// is not on any experiment's hot path).
    pub fn remove_where(
        &mut self,
        window: &Rect<N>,
        mut pred: impl FnMut(&Rect<N>, &T) -> bool,
    ) -> Vec<(Rect<N>, T)>
    where
        T: Clone,
    {
        let mut victims: Vec<(Rect<N>, T)> = Vec::new();
        self.search(window, |r, t| {
            if pred(&r, t) {
                victims.push((r, t.clone()));
            }
        });
        let mut out = Vec::with_capacity(victims.len());
        for (r, t) in victims {
            if let Some(item) = self.remove(&r, &t) {
                out.push((r, item));
            }
        }
        out
    }
}

fn remove_rec<const N: usize, T: PartialEq>(
    arena: &mut Arena<N, T>,
    node: u32,
    rect: &Rect<N>,
    item: &T,
    orphans: &mut Vec<(Rect<N>, T)>,
    config: &crate::RTreeConfig,
) -> Option<T> {
    if arena.is_leaf(node) {
        let leaf = arena.node(node);
        let pos =
            (0..leaf.len()).find(|&i| rects_match(&leaf.rect(i), rect) && leaf.item(i) == item)?;
        // Order-preserving removal: the surviving entries keep their
        // relative order, exactly as `Vec::remove` would.
        let removed: Entry<N, T> = arena.node_mut(node).remove(pos);
        return Some(removed.item);
    }
    let mut removed = None;
    let mut touched = 0usize;
    for i in 0..arena.entry_count(node) {
        let inode = arena.node(node);
        let (e_rect, e_child) = (inode.rect(i), inode.child(i));
        if e_rect.contains_rect(rect) || e_rect.intersects(rect) {
            if let Some(it) = remove_rec(arena, e_child, rect, item, orphans, config) {
                removed = Some(it);
                touched = i;
                break;
            }
        }
    }
    let removed = removed?;
    let child = arena.node(node).child(touched);
    if arena.entry_count(child) < config.min_entries {
        // Dissolve the underfull child; orphan its leaf items.
        arena.node_mut(node).remove::<ChildEntry<N>>(touched);
        collect_items(arena, child, orphans);
    } else {
        let child_mbr = arena
            .mbr(child)
            // mar-lint: allow(D004) — child holds ≥ min_entries per the branch above
            .expect("non-empty child");
        arena.node_mut(node).set_rect(touched, &child_mbr);
    }
    Some(removed)
}

/// Collects every leaf item of a subtree, recycling its arena slots
/// (a node's own slot before its children's).
fn collect_items<const N: usize, T>(
    arena: &mut Arena<N, T>,
    node: u32,
    out: &mut Vec<(Rect<N>, T)>,
) {
    let children: Vec<u32> = arena.node(node).children().collect();
    if arena.is_leaf(node) {
        let entries: Vec<Entry<N, T>> = arena.node_mut(node).drain();
        out.extend(entries.into_iter().map(|e| (e.rect, e.item)));
    }
    arena.release(node);
    for child in children {
        collect_items(arena, child, out);
    }
}

fn rects_match<const N: usize>(a: &Rect<N>, b: &Rect<N>) -> bool {
    (0..N).all(|i| a.lo[i] == b.lo[i] && a.hi[i] == b.hi[i])
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeConfig, Variant};
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn build(n: usize) -> RTree<2, usize> {
        let mut t = RTree::new(RTreeConfig::new(6, Variant::RStar));
        for i in 0..n {
            t.insert(pt((i % 31) as f64, (i / 31) as f64), i);
        }
        t
    }

    #[test]
    fn remove_existing_item() {
        let mut t = build(100);
        let r = pt(5.0, 0.0);
        assert_eq!(t.remove(&r, &5), Some(5));
        assert_eq!(t.len(), 99);
        t.validate().expect("valid after remove");
        let (found, _) = t.query(&r);
        assert!(!found.contains(&&5));
    }

    #[test]
    fn remove_missing_item_is_none() {
        let mut t = build(50);
        assert_eq!(t.remove(&pt(999.0, 999.0), &1), None);
        assert_eq!(t.remove(&pt(5.0, 0.0), &9999), None);
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn remove_everything_one_by_one() {
        let mut t = build(300);
        for i in 0..300 {
            let r = pt((i % 31) as f64, (i / 31) as f64);
            assert_eq!(t.remove(&r, &i), Some(i), "failed to remove {i}");
            t.validate()
                .unwrap_or_else(|e| panic!("invalid after removing {i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn tree_shrinks_after_mass_deletion() {
        let mut t = build(500);
        let h_before = t.height();
        for i in 0..450 {
            let r = pt((i % 31) as f64, (i / 31) as f64);
            t.remove(&r, &i);
        }
        assert!(t.height() <= h_before);
        assert_eq!(t.len(), 50);
        t.validate().expect("valid");
        // Remaining items still findable.
        let (found, _) = t.query(&Rect2::new(
            Point2::new([0.0, 0.0]),
            Point2::new([31.0, 31.0]),
        ));
        assert_eq!(found.len(), 50);
    }

    #[test]
    fn remove_where_bulk() {
        let mut t = build(200);
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([10.0, 10.0]));
        let removed = t.remove_where(&w, |_, &i| i % 2 == 0);
        assert!(!removed.is_empty());
        t.validate().expect("valid");
        let (left, _) = t.query(&w);
        assert!(left.iter().all(|&&i| i % 2 == 1));
    }

    #[test]
    fn duplicate_items_removed_one_at_a_time() {
        let mut t: RTree<2, u8> = RTree::new(RTreeConfig::new(4, Variant::Guttman));
        for _ in 0..5 {
            t.insert(pt(1.0, 1.0), 7);
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.remove(&pt(1.0, 1.0), &7), Some(7));
        assert_eq!(t.len(), 4);
        t.validate().expect("valid");
    }

    #[test]
    fn deletion_recycles_arena_slots() {
        // Insert/delete churn must not grow the arena without bound: after
        // deleting most items the number of live nodes shrinks, and the
        // freed slots are reused by subsequent inserts (validated by the
        // leak check inside `validate`).
        let mut t = build(400);
        for i in 0..380 {
            let r = pt((i % 31) as f64, (i / 31) as f64);
            assert_eq!(t.remove(&r, &i), Some(i));
        }
        t.validate().expect("valid after churn");
        for i in 0..380 {
            t.insert(pt((i % 31) as f64, (i / 31) as f64), i);
        }
        t.validate().expect("valid after refill");
        assert_eq!(t.len(), 400);
    }
}
