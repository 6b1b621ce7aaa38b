//! Property-based equivalence: the batched group-descent kernel must be
//! observationally identical to the scalar `search` path — same hits, in
//! the same order, with the same per-window *logical* access counts — on
//! any tree, bulk-loaded or grown by inserts and forced reinsertions. The
//! only thing batching may change is the number
//! of *unique physical* node visits, which must never exceed the logical
//! total.

use mar_geom::{Point2, Rect2};
use mar_rtree::{RTree, RTreeConfig, Variant};
use proptest::prelude::*;

fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect2 {
    Rect2::new(Point2::new([x, y]), Point2::new([x + w, y + h]))
}

/// Runs `windows` through both kernels and checks full observational
/// equivalence plus the unique-visit bound and the shared io counter.
fn assert_batch_equals_scalar(tree: &RTree<2, u64>, windows: &[Rect2]) {
    let mut scalar_hits: Vec<Vec<u64>> = Vec::with_capacity(windows.len());
    let mut scalar_io: Vec<u64> = Vec::with_capacity(windows.len());
    for w in windows {
        let mut hits = Vec::new();
        let io = tree.search(w, |_, &t| hits.push(t));
        scalar_hits.push(hits);
        scalar_io.push(io);
    }
    let io_before = tree.io_count();
    let mut batch_hits: Vec<Vec<u64>> = vec![Vec::new(); windows.len()];
    let mut per_window = vec![0u64; windows.len()];
    let unique = tree.search_batch_into(windows, &mut per_window, |w, _, &t| batch_hits[w].push(t));
    // Hits match per window — including their order, which the group
    // descent preserves (a window's visits follow its scalar DFS order).
    assert_eq!(batch_hits, scalar_hits, "hit streams diverge");
    // Logical accesses match the scalar counts exactly, window by window.
    assert_eq!(per_window, scalar_io, "logical access counts diverge");
    // Physical sharing can only reduce work, never add it.
    let logical_total: u64 = per_window.iter().sum();
    assert!(
        unique <= logical_total,
        "unique visits {unique} exceed logical total {logical_total}"
    );
    // The tree's cumulative io counter advances by the logical total, so
    // existing I/O accounting cannot observe whether batching happened.
    assert_eq!(tree.io_count() - io_before, logical_total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_equals_scalar_on_bulk_trees(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 1..400),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..90),
    ) {
        let items: Vec<(Rect2, u64)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| (rect(x, y, w, h), i as u64))
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::paper(), items);
        tree.validate().expect("bulk tree valid");
        let windows: Vec<Rect2> = wins.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
        assert_batch_equals_scalar(&tree, &windows);
    }

    #[test]
    fn batch_equals_scalar_on_incremental_trees(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..6.0, 0.0f64..6.0), 1..250),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..70),
        guttman in 0usize..2,
    ) {
        // Small capacity forces deep trees with many splits; the R*
        // variant additionally exercises forced reinsertion.
        let variant = if guttman == 1 { Variant::Guttman } else { Variant::RStar };
        let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(5, variant));
        for (i, &(x, y, w, h)) in boxes.iter().enumerate() {
            tree.insert(rect(x, y, w, h), i as u64);
        }
        tree.validate().expect("incremental tree valid");
        let windows: Vec<Rect2> = wins.iter().map(|&(x, y, w, h)| rect(x, y, w, h)).collect();
        assert_batch_equals_scalar(&tree, &windows);
    }

    #[test]
    fn duplicate_windows_share_physical_visits(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 50..400),
        win in (0.0f64..100.0, 0.0f64..100.0, 5.0f64..45.0, 5.0f64..45.0),
        copies in 2usize..64,
    ) {
        // K identical windows in one group must cost exactly one window's
        // physical reads: the strongest form of the sharing guarantee.
        let items: Vec<(Rect2, u64)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| (rect(x, y, w, h), i as u64))
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::paper(), items);
        let w = rect(win.0, win.1, win.2, win.3);
        let scalar_io = tree.search(&w, |_, _| {});
        let windows = vec![w; copies];
        let mut per_window = vec![0u64; copies];
        let unique = tree.search_batch_into(&windows, &mut per_window, |_, _, _| {});
        prop_assert_eq!(unique, scalar_io);
        for per in &per_window {
            prop_assert_eq!(*per, scalar_io);
        }
    }
}
