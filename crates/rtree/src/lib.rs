//! # mar-rtree — N-dimensional R-tree / R*-tree with I/O accounting
//!
//! A from-scratch in-memory implementation of Guttman's R-tree \[16\] and
//! the R*-tree of Beckmann et al. \[24\], the two access methods the paper
//! builds its wavelet index on (§VI). Being in-memory, "I/O cost" is
//! measured the way the paper reports it: as the number of **node (page)
//! accesses** a query performs — that number depends only on tree geometry
//! and the search algorithm, not on a physical disk.
//!
//! Features:
//! * arbitrary dimension via const generics (`RTree<3, T>` is the paper's
//!   experimental `x-y-w` tree);
//! * slab storage: every node is one contiguous block — MBR lanes and
//!   payload side by side — of a single `Vec`, addressed by `u32` slot
//!   index, so a node visit is index arithmetic and one run of memory,
//!   and the query hot path performs no allocation (the traversal stack
//!   is a reusable thread-local scratch buffer);
//! * insertion with either Guttman's quadratic split or the R\* split with
//!   forced reinsertion (selectable via [`RTreeConfig`]);
//! * Sort-Tile-Recursive (STR) bulk loading for building large static
//!   indexes quickly;
//! * window (range) queries with per-query and cumulative node-access
//!   counters — one scalar and one grouped walk ([`search`],
//!   [`search_batch_into`]) over a [`NodeSource`], implemented by the
//!   arena and by exported page images ([`PageSource`]), so an
//!   out-of-core backend runs the very same descent;
//! * a structural [`RTree::validate`] (tree shape **and** slab
//!   invariants) used heavily by the test suite.
//!
//! The page geometry of the evaluation (4 KB pages, node capacity 20) is
//! [`RTreeConfig::paper`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bulk;
mod counters;
mod insert;
mod node;
mod pages;
mod query;

pub use counters::{IoCounters, IoKind, IoSnapshot};
pub use node::{ArenaNode, Entry};
pub use pages::{NodePage, PageExport, PageSource};
pub use query::{search, search_batch_into, BatchAccesses, NodeSource, NodeView};

use mar_geom::Rect;
use node::{Arena, Kind};

/// Which insertion/split algorithm the tree uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Guttman's original R-tree: least-enlargement subtree choice,
    /// quadratic split.
    Guttman,
    /// R*-tree: overlap-aware subtree choice, margin-driven split, forced
    /// reinsertion at the leaf level.
    RStar,
}

/// Tree parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`), `2 ≤ m ≤ M/2`.
    pub min_entries: usize,
    /// Algorithm variant.
    pub variant: Variant,
}

impl RTreeConfig {
    /// Creates a config with `m = max(2, ⌊0.4·M⌋)` (the R*-tree paper's
    /// recommended fill).
    pub fn new(max_entries: usize, variant: Variant) -> Self {
        assert!(max_entries >= 4, "node capacity must be at least 4");
        Self {
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
            variant,
        }
    }

    /// The evaluation's page geometry: 4 KB pages with node capacity 20
    /// (§VII-D), R*-tree variant.
    pub fn paper() -> Self {
        Self::new(20, Variant::RStar)
    }

    /// Number of entries the R* forced-reinsert removes on first overflow
    /// (30 % of M, the original paper's `p`).
    pub(crate) fn reinsert_count(&self) -> usize {
        (self.max_entries * 3 / 10).max(1)
    }
}

/// An N-dimensional R-tree over items of type `T`.
///
/// Each item is stored under an axis-aligned rectangle (possibly
/// degenerate, for point data). The tree never inspects `T`.
///
/// ```
/// use mar_rtree::{RTree, RTreeConfig};
/// use mar_geom::{Point2, Rect2};
/// let mut tree: RTree<2, &str> = RTree::new(RTreeConfig::paper());
/// tree.insert(Rect2::point(Point2::new([1.0, 1.0])), "kiosk");
/// tree.insert(Rect2::point(Point2::new([8.0, 8.0])), "tower");
/// let window = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([2.0, 2.0]));
/// let (hits, node_accesses) = tree.query(&window);
/// assert_eq!(hits, vec![&"kiosk"]);
/// assert!(node_accesses >= 1); // the paper's I/O metric
/// ```
#[derive(Debug)]
pub struct RTree<const N: usize, T> {
    pub(crate) config: RTreeConfig,
    /// Slab node storage; `root` indexes into it.
    pub(crate) arena: Arena<N, T>,
    pub(crate) root: u32,
    /// Height of the tree: 1 for a single leaf node.
    pub(crate) height: usize,
    pub(crate) len: usize,
    /// Cumulative node-access counters across all queries since the last
    /// reset (see [`IoCounters`]). Atomics (not `Cell`s) so a read-only
    /// tree can be shared across threads: queries take `&self` yet still
    /// tally the paper's I/O metric.
    pub(crate) io: IoCounters,
}

impl<const N: usize, T: Clone> Clone for RTree<N, T> {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            arena: self.arena.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            io: self.io.clone(),
        }
    }
}

impl<const N: usize, T> RTree<N, T> {
    /// Creates an empty tree.
    pub fn new(config: RTreeConfig) -> Self {
        let mut arena = Arena::new(config.max_entries);
        let root = arena.alloc(Vec::<Entry<N, T>>::new());
        Self {
            config,
            arena,
            root,
            height: 1,
            len: 0,
            io: IoCounters::new(),
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The tree's configuration.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Total number of nodes (pages) in the tree.
    pub fn node_count(&self) -> usize {
        self.arena.count_nodes(self.root)
    }

    /// MBR of everything stored, or `None` when empty.
    pub fn bounding_rect(&self) -> Option<Rect<N>> {
        self.arena.mbr(self.root)
    }

    /// Cumulative **logical** node accesses performed by queries since
    /// the last [`RTree::reset_io`] — the paper's §VI metric. See
    /// [`RTree::io_snapshot`] for the unique/physical companions.
    pub fn io_count(&self) -> u64 {
        self.io.get(IoKind::Logical)
    }

    /// Snapshot of all three node-access counters.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.io.snapshot()
    }

    /// Resets all cumulative node-access counters.
    pub fn reset_io(&self) {
        self.io.reset();
    }

    /// Checks every structural invariant (entry counts, MBR containment,
    /// uniform leaf depth, length bookkeeping) plus the slab invariants:
    /// one block per slot, every slot reachable from the root, and every
    /// slot past a node's length padded. Intended for tests; returns a
    /// human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0usize;
        let mut live = 0usize;
        self.arena.validate(
            self.root,
            &self.config,
            self.height,
            true,
            &mut total,
            &mut live,
        )?;
        if total != self.len {
            return Err(format!("len {} but counted {}", self.len, total));
        }
        self.arena.validate_slab()?;
        if live != self.arena.slot_count() {
            return Err(format!(
                "arena leak: {live} reachable of {} slots",
                self.arena.slot_count()
            ));
        }
        Ok(())
    }

    /// Iterates over every `(rect, item)` in the tree (arbitrary order).
    /// Rectangles are materialised by value from the node's coordinate
    /// lanes.
    pub fn iter(&self) -> impl Iterator<Item = (Rect<N>, &T)> {
        let mut stack = vec![self.root];
        let mut leaf_items: Vec<(Rect<N>, &T)> = Vec::new();
        while let Some(idx) = stack.pop() {
            let node = self.arena.node(idx);
            if node.kind() == Kind::Leaf {
                leaf_items.extend((0..node.len()).map(|i| (node.rect(i), node.item(i))));
            }
            stack.extend(node.children());
        }
        leaf_items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    #[test]
    fn empty_tree_basics() {
        let t: RTree<2, u32> = RTree::new(RTreeConfig::paper());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.node_count(), 1);
        assert!(t.bounding_rect().is_none());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn paper_config_geometry() {
        let c = RTreeConfig::paper();
        assert_eq!(c.max_entries, 20);
        assert_eq!(c.min_entries, 8);
        assert_eq!(c.variant, Variant::RStar);
        assert_eq!(c.reinsert_count(), 6);
    }

    #[test]
    fn iter_visits_everything() {
        let mut t: RTree<2, usize> = RTree::new(RTreeConfig::new(4, Variant::Guttman));
        for i in 0..50 {
            t.insert(pt(i as f64, (i * 7 % 13) as f64), i);
        }
        let mut seen: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }
}
