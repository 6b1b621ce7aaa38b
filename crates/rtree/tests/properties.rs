//! Property-based tests: the R-tree must behave exactly like a brute-force
//! list of rectangles under any interleaving of inserts and window
//! queries, for both variants and for bulk loading.

use mar_geom::{Point2, Rect2};
use mar_rtree::{RTree, RTreeConfig, Variant};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert { x: f64, y: f64, w: f64, h: f64 },
    Query { x: f64, y: f64, w: f64, h: f64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0f64..100.0, 0.0f64..100.0, 0.0f64..10.0, 0.0f64..10.0)
            .prop_map(|(x, y, w, h)| Op::Insert { x, y, w, h }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
