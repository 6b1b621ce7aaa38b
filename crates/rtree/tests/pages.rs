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
use std::cell::RefCell;

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

/// A leaf page image of `rects` in the layout `export_pages` writes (the
/// module docs of `pages.rs`), with 8 zero bytes per item.
fn leaf_page(rects: &[Rect2]) -> Vec<u8> {
    let mut bytes = vec![1, 0];
    bytes.extend_from_slice(&(rects.len() as u16).to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    for r in rects {
        for v in [r.lo[0], r.lo[1], r.hi[0], r.hi[1]] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes.resize(bytes.len() + 8 * rects.len(), 0);
    bytes
}

proptest! {
    /// The page window test is `Rect::intersects` per entry, for every
    /// 64-entry block of a page of 0–150 entries (so `start` = 0, 64 and
    /// 128 all occur), with nothing set past the tested count. Entries
    /// and windows sit on a small lattice, so shared and touching edges
    /// are common; windows also include exact touches of an entry's
    /// corner from above and below, degenerate (point) windows, and
    /// windows with a NaN coordinate.
    #[test]
    fn page_window_test_equals_rect_intersects(
        boxes in prop::collection::vec((-8i32..8, -8i32..8, 0i32..4, 0i32..4), 0..151),
        wins in prop::collection::vec((0u32..5, -10i32..10, -10i32..10, 0i32..6, 0i32..6), 1..12),
    ) {
        let lattice = |&(x, y, w, h): &(i32, i32, i32, i32)| {
            rect(f64::from(x), f64::from(y), f64::from(w), f64::from(h))
        };
        let rects: Vec<Rect2> = boxes.iter().map(lattice).collect();
        let bytes = leaf_page(&rects);
        let page = NodePage::<_, 2>::parse(bytes.as_slice(), 8).expect("valid page");
        prop_assert_eq!(page.entry_count(), rects.len());
        for &(kind, x, y, w, h) in &wins {
            let mut window = lattice(&(x, y, w, h));
            let near = rects.get((x.unsigned_abs() as usize) % rects.len().max(1)).copied();
            match (kind, near) {
                (1, Some(r)) => window = Rect2::new(r.hi, r.hi + (window.hi - window.lo)),
                (2, Some(r)) => window = Rect2::new(r.lo - (window.hi - window.lo), r.lo),
                (3, _) => window.hi = window.lo,
                (4, _) => window.lo[(y & 1) as usize] = f64::NAN,
                _ => {}
            }
            let mut start = 0;
            loop {
                let (mask, tested) = page.match_bits(&window, start);
                prop_assert_eq!(tested, (rects.len() - start).min(64));
                let untested = u64::MAX.checked_shl(tested as u32).unwrap_or(0);
                prop_assert_eq!(mask & untested, 0);
                for (j, r) in rects[start..start + tested].iter().enumerate() {
                    prop_assert_eq!(mask >> j & 1 == 1, r.intersects(&window), "entry {} vs {:?}", start + j, window);
                    prop_assert_eq!(*r, page.rect(start + j));
                }
                start += 64;
                if start >= rects.len() {
                    break;
                }
            }
        }
    }
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

/// The pages the plain pop–fetch–test walk reads for `window`, in order:
/// a pre-order DFS from the root (page 0) that takes each node's
/// matching children in descending entry order, as LIFO pops of
/// children pushed in ascending order do.
fn preorder_fetches<'p>(page: &impl Fn(u32) -> NodePage<&'p [u8], 2>, window: &Rect2) -> Vec<u32> {
    fn visit<'p>(
        page: &impl Fn(u32) -> NodePage<&'p [u8], 2>,
        window: &Rect2,
        id: u32,
        out: &mut Vec<u32>,
    ) {
        out.push(id);
        let node = page(id);
        if node.is_leaf() {
            return;
        }
        for i in (0..node.entry_count()).rev() {
            if node.rect(i).intersects(window) {
                visit(page, window, node.child(i), out);
            }
        }
    }
    let mut out = Vec::new();
    visit(page, window, 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The page source is lazy: the scalar walk fetches each node it
    /// visits exactly once, in visit order — the pre-order model's — so
    /// a buffer pool behind it sees the look-ups, and makes the eviction
    /// decisions, of the plain pop–fetch–test loop. Hits and accesses
    /// still equal the arena's, which tests a child as it pushes it.
    #[test]
    fn the_page_source_fetches_in_visit_order(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 0..400),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0), 1..20),
        incremental in 0usize..2,
    ) {
        let tree = if incremental == 1 {
            let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(5, Variant::RStar));
            for (r, id) in items(&boxes) {
                tree.insert(r, id);
            }
            tree
        } else {
            RTree::bulk_load(RTreeConfig::paper(), items(&boxes))
        };
        let export = tree.export_pages(8, |item, buf| buf.extend_from_slice(&item.to_le_bytes()));
        let page = |id: u32| {
            NodePage::<_, 2>::parse(export.pages[id as usize].as_slice(), 8).expect("valid page")
        };
        let fetched = RefCell::new(Vec::new());
        let io = IoCounters::new();
        let pages = PageSource {
            fetch: |id: u32| {
                fetched.borrow_mut().push(id);
                page(id)
            },
            io: &io,
        };
        for w in &windows(&wins) {
            fetched.borrow_mut().clear();
            let mut paged = Vec::new();
            let paged_io = search(&pages, w, |leaf, i| {
                paged.push(u64::from_le_bytes(leaf.item_bytes(i).try_into().expect("8 B")))
            });
            let mut ram = Vec::new();
            let ram_io = tree.search(w, |_, &t| ram.push(t));
            prop_assert_eq!(&*fetched.borrow(), &preorder_fetches(&page, w), "fetches for {:?}", w);
            prop_assert_eq!(paged_io as usize, fetched.borrow().len());
            prop_assert_eq!(paged, ram, "hit stream for {:?}", w);
            prop_assert_eq!(paged_io, ram_io, "accesses for {:?}", w);
        }
    }
}

/// `mar-store`'s page payload: a 4 KB page less its 8-byte checksum.
const PAGE_PAYLOAD: usize = 4096 - 8;

/// A page image rebuilt from what [`NodePage`] decodes out of it, in the
/// layout of the module docs of `pages.rs`: equal to the exported bytes
/// only if the decoder reads every byte the writer wrote, and the writer
/// wrote nothing else.
fn reencode(page: &NodePage<&[u8], 2>) -> Vec<u8> {
    let n = page.entry_count();
    let mut bytes = vec![if page.is_leaf() { 1 } else { 2 }, 0];
    bytes.extend_from_slice(&(n as u16).to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    for i in 0..n {
        let r = page.rect(i);
        for v in [r.lo[0], r.lo[1], r.hi[0], r.hi[1]] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    for i in 0..n {
        if page.is_leaf() {
            bytes.extend_from_slice(page.item_bytes(i));
        } else {
            bytes.extend_from_slice(&page.child(i).to_le_bytes());
        }
    }
    bytes
}

/// The streaming export's contract: one payload per node, handed over in
/// dense breadth-first page order, each within one page and decoding
/// through [`NodePage`] to the tree's entries, and one returned region
/// per page equal to that node's MBR.
fn assert_export_contract(tree: &RTree<2, u64>) {
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let regions = tree
        .stream_pages(
            8,
            |item, buf| buf.extend_from_slice(&item.to_le_bytes()),
            |page| {
                payloads.push(page.to_vec());
                Ok::<(), ()>(())
            },
        )
        .expect("the sink never fails");
    assert_eq!(payloads.len(), tree.node_count(), "one payload per node");
    assert_eq!(regions.len(), payloads.len(), "one region per page");
    let mut next_child = 1;
    let mut leaf_items = Vec::new();
    for (id, (bytes, region)) in payloads.iter().zip(&regions).enumerate() {
        assert!(bytes.len() <= PAGE_PAYLOAD, "page {id}: {} B", bytes.len());
        let page = NodePage::<_, 2>::parse(bytes.as_slice(), 8).expect("valid page");
        assert_eq!(&reencode(&page), bytes, "page {id} decodes as written");
        let n = page.entry_count();
        let mbr = (0..n).map(|i| page.rect(i)).reduce(|a, b| a.union(&b));
        assert_eq!(
            *region,
            mbr.unwrap_or_else(|| Rect2::point(Point2::new([0.0; 2]))),
            "page {id}'s region"
        );
        for i in 0..n {
            if page.is_leaf() {
                let item = u64::from_le_bytes(page.item_bytes(i).try_into().expect("8 B"));
                leaf_items.push((item, page.rect(i)));
            } else {
                // Breadth-first and dense: the children of the pages, in
                // page order, are exactly pages 1, 2, 3, ...
                assert_eq!(page.child(i), next_child, "page {id} entry {i}");
                next_child += 1;
            }
        }
    }
    assert_eq!(
        next_child as usize,
        payloads.len(),
        "every page but the root is a child"
    );
    let mut stored: Vec<(u64, Rect2)> = tree.iter().map(|(r, &item)| (item, r)).collect();
    stored.sort_by_key(|&(item, _)| item);
    leaf_items.sort_by_key(|&(item, _)| item);
    assert_eq!(leaf_items, stored, "the leaf pages hold the tree's entries");

    // The collecting export is the same stream, kept.
    let export = tree.export_pages(8, |item, buf| buf.extend_from_slice(&item.to_le_bytes()));
    assert_eq!(export.pages, payloads);
    assert_eq!(export.regions, regions);

    // A failing sink stops the export at the page it refused.
    let stop = payloads.len() / 2;
    let mut seen = 0;
    let refused = tree.stream_pages(
        8,
        |item, buf| buf.extend_from_slice(&item.to_le_bytes()),
        |_| {
            seen += 1;
            if seen > stop {
                Err(seen)
            } else {
                Ok(())
            }
        },
    );
    assert_eq!(refused, Err(stop + 1));
    assert_eq!(seen, stop + 1, "no page is handed over after a refusal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Paper-capacity bulk-loaded trees and capacity-5 incremental ones,
    /// from the empty tree (one empty leaf page) up to four levels.
    #[test]
    fn the_streaming_export_keeps_its_contract(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 0..400),
        incremental in 0usize..2,
    ) {
        let tree = if incremental == 1 {
            let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(5, Variant::RStar));
            for (r, id) in items(&boxes) {
                tree.insert(r, id);
            }
            tree
        } else {
            RTree::bulk_load(RTreeConfig::paper(), items(&boxes))
        };
        assert_export_contract(&tree);
    }
}
