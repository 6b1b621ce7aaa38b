//! Property-based tests: the R-tree must behave exactly like a brute-force
//! list of rectangles under any interleaving of inserts, deletes, and
//! window queries, for both variants and for bulk loading.

use mar_geom::{Point2, Rect2};
use mar_rtree::{search, IoCounters, NodePage, PageSource, RTree, RTreeConfig, Variant};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { x: f64, y: f64, w: f64, h: f64 },
    Remove { idx: usize },
    Query { x: f64, y: f64, w: f64, h: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0f64..100.0, 0.0f64..100.0, 0.0f64..10.0, 0.0f64..10.0)
            .prop_map(|(x, y, w, h)| Op::Insert { x, y, w, h }),
        1 => (0usize..500).prop_map(|idx| Op::Remove { idx }),
        2 => (0.0f64..100.0, 0.0f64..100.0, 0.1f64..40.0, 0.1f64..40.0)
            .prop_map(|(x, y, w, h)| Op::Query { x, y, w, h }),
    ]
}

fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect2 {
    Rect2::new(Point2::new([x, y]), Point2::new([x + w, y + h]))
}

fn run_model_test(variant: Variant, cap: usize, ops: Vec<Op>) {
    let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(cap, variant));
    let mut model: Vec<(Rect2, u64)> = Vec::new();
    let mut next_id = 0u64;
    for op in ops {
        match op {
            Op::Insert { x, y, w, h } => {
                let r = rect(x, y, w, h);
                tree.insert(r, next_id);
                model.push((r, next_id));
                next_id += 1;
            }
            Op::Remove { idx } => {
                if model.is_empty() {
                    continue;
                }
                let (r, id) = model.swap_remove(idx % model.len());
                assert_eq!(tree.remove(&r, &id), Some(id));
            }
            Op::Query { x, y, w, h } => {
                let q = rect(x, y, w, h);
                let (mut got, _) = tree.query(&q);
                let mut got: Vec<u64> = got.drain(..).copied().collect();
                got.sort_unstable();
                let mut expect: Vec<u64> = model
                    .iter()
                    .filter(|(r, _)| r.intersects(&q))
                    .map(|&(_, id)| id)
                    .collect();
                expect.sort_unstable();
                assert_eq!(got, expect, "query mismatch for window {q:?}");
            }
        }
        tree.validate().expect("invariants hold after every op");
        assert_eq!(tree.len(), model.len());
    }
}

#[derive(Debug, Clone)]
enum ChurnOp {
    Insert {
        x: f64,
        y: f64,
        w: f64,
        h: f64,
    },
    Remove {
        idx: usize,
    },
    /// Remove, then insert the same entry again: the insert lands in the
    /// slot (or next to the entries) the removal just vacated.
    Reinsert {
        idx: usize,
    },
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        4 => (0.0f64..100.0, 0.0f64..100.0, 0.0f64..10.0, 0.0f64..10.0)
            .prop_map(|(x, y, w, h)| ChurnOp::Insert { x, y, w, h }),
        3 => (0usize..500).prop_map(|idx| ChurnOp::Remove { idx }),
        2 => (0usize..500).prop_map(|idx| ChurnOp::Reinsert { idx }),
    ]
}

/// The tree's answer to `window` — hit sequence and node accesses — must
/// be the brute-force hit set, in the order and at the access count of
/// the one-rectangle-at-a-time walk over the tree's exported page images
/// (which shares no window-test code with the slab's chunk sweep).
fn assert_search_exact(tree: &RTree<2, u64>, model: &[(Rect2, u64)], window: &Rect2) {
    let mut hits = Vec::new();
    let io = tree.search(window, |_, &id| hits.push(id));

    let mut expect: Vec<u64> = model
        .iter()
        .filter(|(r, _)| r.intersects(window))
        .map(|&(_, id)| id)
        .collect();
    expect.sort_unstable();
    let mut sorted = hits.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expect, "hit set for {window:?}");

    let export = tree.export_pages(8, |item, buf| buf.extend_from_slice(&item.to_le_bytes()));
    let counters = IoCounters::new();
    let pages = PageSource {
        fetch: |id: u32| {
            NodePage::<_, 2>::parse(export.pages[id as usize].as_slice(), 8).expect("valid page")
        },
        io: &counters,
    };
    let mut reference = Vec::new();
    let reference_io = search(&pages, window, |leaf, i| {
        reference.push(u64::from_le_bytes(
            leaf.item_bytes(i).try_into().expect("8-byte item"),
        ))
    });
    assert_eq!(hits, reference, "hit sequence for {window:?}");
    assert_eq!(io, reference_io, "node accesses for {window:?}");
}

/// Slab invariants under churn: starts from `cap` entries (one full
/// root leaf — wider than one 64-bit mask at capacity 150), then after
/// every insert / delete / reinsert checks `validate()` (NaN-padded,
/// empty slots past every node's length and throughout freed blocks) and
/// the exact answer to two windows.
fn run_churn_test(variant: Variant, cap: usize, ops: Vec<ChurnOp>, window: Rect2) {
    let mut tree: RTree<2, u64> = RTree::new(RTreeConfig::new(cap, variant));
    let mut model: Vec<(Rect2, u64)> = Vec::new();
    let mut next_id = 0u64;
    let everything = rect(-1.0, -1.0, 200.0, 200.0);
    let mut insert = |tree: &mut RTree<2, u64>, model: &mut Vec<(Rect2, u64)>, r: Rect2| {
        tree.insert(r, next_id);
        model.push((r, next_id));
        next_id += 1;
    };
    for i in 0..cap {
        let (x, y) = ((i * 37 % 100) as f64, (i * 61 % 100) as f64);
        insert(&mut tree, &mut model, rect(x, y, 3.0, 2.0));
    }
    for op in ops {
        match op {
            ChurnOp::Insert { x, y, w, h } => insert(&mut tree, &mut model, rect(x, y, w, h)),
            ChurnOp::Remove { idx } if !model.is_empty() => {
                let (r, id) = model.swap_remove(idx % model.len());
                assert_eq!(tree.remove(&r, &id), Some(id));
            }
            ChurnOp::Reinsert { idx } if !model.is_empty() => {
                let (r, id) = model[idx % model.len()];
                assert_eq!(tree.remove(&r, &id), Some(id));
                tree.validate()
                    .expect("invariants hold between remove and reinsert");
                tree.insert(r, id);
            }
            ChurnOp::Remove { .. } | ChurnOp::Reinsert { .. } => {}
        }
        tree.validate().expect("invariants hold after every op");
        assert_eq!(tree.len(), model.len());
        assert_search_exact(&tree, &model, &window);
        assert_search_exact(&tree, &model, &everything);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slab_survives_churn_at_every_capacity(
        ops in prop::collection::vec(arb_churn_op(), 1..90),
        q in (0.0f64..100.0, 0.0f64..100.0, 0.1f64..40.0, 0.1f64..40.0),
        cap in 0usize..4,
        guttman in 0usize..2,
    ) {
        let variant = if guttman == 1 { Variant::Guttman } else { Variant::RStar };
        run_churn_test(variant, [4, 5, 20, 150][cap], ops, rect(q.0, q.1, q.2, q.3));
    }

    #[test]
    fn guttman_matches_bruteforce(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_model_test(Variant::Guttman, 5, ops);
    }

    #[test]
    fn rstar_matches_bruteforce(ops in prop::collection::vec(arb_op(), 1..120)) {
        run_model_test(Variant::RStar, 5, ops);
    }

    #[test]
    fn rstar_paper_capacity_matches_bruteforce(
        ops in prop::collection::vec(arb_op(), 1..200)
    ) {
        run_model_test(Variant::RStar, 20, ops);
    }

    #[test]
    fn bulk_load_equals_incremental_queries(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..400),
        q in (0.0f64..100.0, 0.0f64..100.0, 0.1f64..50.0, 0.1f64..50.0),
    ) {
        let items: Vec<(Rect2, usize)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect2::point(Point2::new([x, y])), i))
            .collect();
        let bulk = RTree::bulk_load(RTreeConfig::paper(), items.clone());
        bulk.validate().expect("bulk tree valid");
        prop_assert_eq!(bulk.len(), items.len());
        let w = rect(q.0, q.1, q.2, q.3);
        let (mut got, _) = bulk.query(&w);
        let mut got: Vec<usize> = got.drain(..).copied().collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&w))
            .map(|&(_, i)| i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
