//! Property-based equivalence of the two node sources: the one window
//! walk (`mar_rtree::search`, `search_batch_into`) over a tree's exported
//! page images must be observationally identical to the same walk over
//! the arena the images were exported from — same hits in the same
//! order, same per-window logical accesses, same unique visits, same
//! cumulative counters. The page source here is the real `PageSource`
//! over an in-memory slice of images: no file, no pool, just the format.

use mar_geom::{Point2, Rect2};
use mar_rtree::{
    search, search_batch_into, IoCounters, NodePage, NodeView, PageSource, RTree, RTreeConfig,
    Variant,
};
use proptest::prelude::*;

fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect2 {
    Rect2::new(Point2::new([x, y]), Point2::new([x + w, y + h]))
}

fn items(boxes: &[(f64, f64, f64, f64)]) -> Vec<(Rect2, u64)> {
    boxes
        .iter()
        .enumerate()
        .map(|(i, &(x, y, w, h))| (rect(x, y, w, h), i as u64))
        .collect()
}

fn windows(wins: &[(f64, f64, f64, f64)]) -> Vec<Rect2> {
    wins.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect()
}

/// Exports `tree`, runs every window through both sources (scalar, then
/// one grouped call) and returns the widest exported page's entry count.
fn assert_pages_equal_arena(tree: &RTree<2, u64>, windows: &[Rect2]) -> usize {
    let export = tree.export_pages(8, |item, buf| buf.extend_from_slice(&item.to_le_bytes()));
    let page = |id: u32| {
        NodePage::<_, 2>::parse(export.pages[id as usize].as_slice(), 8).expect("valid page")
    };
    let item = |leaf: &NodePage<&[u8], 2>, i: usize| {
        u64::from_le_bytes(leaf.item_bytes(i).try_into().expect("8-byte item"))
    };
    let io = IoCounters::new();
    let pages = PageSource {
        fetch: page,
        io: &io,
    };
    tree.reset_io();

    for w in windows {
        let mut ram = Vec::new();
        let ram_io = tree.search(w, |_, &t| ram.push(t));
        let mut paged = Vec::new();
        let paged_io = search(&pages, w, |leaf, i| paged.push(item(leaf, i)));
        assert_eq!(paged, ram, "scalar hit stream for {w:?}");
        assert_eq!(paged_io, ram_io, "scalar accesses for {w:?}");
    }

    let mut ram_hits: Vec<Vec<u64>> = vec![Vec::new(); windows.len()];
    let mut ram_per_window = vec![9u64; windows.len()];
    let ram_unique =
        tree.search_batch_into(windows, &mut ram_per_window, |q, _, &t| ram_hits[q].push(t));
    let mut paged_hits: Vec<Vec<u64>> = vec![Vec::new(); windows.len()];
    // Stale tallies must be overwritten, not added to.
    let mut per_window = vec![9u64; windows.len()];
    let unique = search_batch_into(&pages, windows, &mut per_window, |q, leaf, i| {
        paged_hits[q].push(item(leaf, i))
    });
    assert_eq!(paged_hits, ram_hits, "grouped per-window hit streams");
    assert_eq!(per_window, ram_per_window, "grouped logical accesses");
    assert_eq!(unique, ram_unique, "grouped unique visits");
    assert_eq!(io.snapshot(), tree.io_snapshot(), "cumulative counters");

    (0..export.pages.len() as u32)
        .map(|id| page(id).entry_count())
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pages_equal_arena_on_bulk_trees(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 0..400),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..150),
    ) {
        // Zero boxes is the empty tree: one empty leaf page; up to 150
        // windows spans three 64-wide groups.
        let tree = RTree::bulk_load(RTreeConfig::paper(), items(&boxes));
        assert_pages_equal_arena(&tree, &windows(&wins));
    }

    #[test]
    fn pages_equal_arena_on_incremental_trees(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..6.0, 0.0f64..6.0), 0..250),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..70),
        guttman in 0usize..2,
    ) {
        let variant = if guttman == 1 { Variant::Guttman } else { Variant::RStar };
        let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(5, variant));
        for (r, id) in items(&boxes) {
            tree.insert(r, id);
        }
        assert_pages_equal_arena(&tree, &windows(&wins));
    }

    #[test]
    fn pages_equal_arena_on_nodes_wider_than_one_mask(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..6.0, 0.0f64..6.0), 300..700),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..70),
        incremental in 0usize..2,
    ) {
        // Capacity 150 puts more than 64 entries in a node, so both
        // sources' `match_bits` run with `start > 0` — unreachable at the
        // paper's capacity 20.
        let config = RTreeConfig::new(150, Variant::RStar);
        let tree = if incremental == 1 {
            let mut tree: RTree<2, u64> = RTree::new(config);
            for (r, id) in items(&boxes) {
                tree.insert(r, id);
            }
            tree
        } else {
            RTree::bulk_load(config, items(&boxes))
        };
        let widest = assert_pages_equal_arena(&tree, &windows(&wins));
        prop_assert!(widest > 64, "widest page holds {} entries", widest);
    }
}
