//! Arena-storage fixture tests for bulk loading: the parallel STR loader
//! must build the serial loader's tree slot for slot and answer queries
//! exactly like a brute-force rectangle list. Complements
//! `properties.rs` (random insert / query interleavings).

use mar_geom::{Point2, Rect2};
use mar_rtree::{RTree, RTreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rect(rng: &mut StdRng) -> Rect2 {
    let x = rng.gen_range(0.0..1000.0);
    let y = rng.gen_range(0.0..1000.0);
    let w = rng.gen_range(0.0..25.0);
    let h = rng.gen_range(0.0..25.0);
    Rect2::new(Point2::new([x, y]), Point2::new([x + w, y + h]))
}

fn assert_matches_bruteforce(tree: &RTree<2, u64>, model: &[(Rect2, u64)], windows: &[Rect2]) {
    for q in windows {
        let (hits, _) = tree.query(q);
        let mut got: Vec<u64> = hits.iter().map(|&&id| id).collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = model
            .iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|&(_, id)| id)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "window {q:?}");
    }
}

/// The parallel STR loader's determinism contract: for any worker count,
/// `bulk_load_jobs` must produce not just an equivalent tree but the
/// *same* tree as the serial loader — identical shape, identical arena
/// layout (pinned via `iter()` order), identical query answers.
#[test]
fn parallel_bulk_load_builds_the_identical_tree() {
    let mut rng = StdRng::seed_from_u64(0x57A);
    for n in [0usize, 1, 19, 20, 21, 160, 700, 2500] {
        let items: Vec<(Rect2, u64)> = (0..n as u64)
            .map(|id| (random_rect(&mut rng), id))
            .collect();
        let serial = RTree::bulk_load(RTreeConfig::paper(), items.clone());
        serial.validate().expect("serial tree valid");
        for jobs in [1usize, 2, 4, 9] {
            let parallel = RTree::bulk_load_jobs(RTreeConfig::paper(), items.clone(), jobs);
            parallel
                .validate()
                .unwrap_or_else(|e| panic!("n={n} jobs={jobs}: invalid parallel tree: {e}"));
            assert_eq!(parallel.len(), serial.len(), "n={n} jobs={jobs}");
            assert_eq!(parallel.height(), serial.height(), "n={n} jobs={jobs}");
            assert_eq!(
                parallel.node_count(),
                serial.node_count(),
                "n={n} jobs={jobs}"
            );
            // iter() walks the leaf level in arena order, so equality here
            // pins the entire physical layout, not just the logical content.
            let a: Vec<(Rect2, u64)> = serial.iter().map(|(r, &id)| (r, id)).collect();
            let b: Vec<(Rect2, u64)> = parallel.iter().map(|(r, &id)| (r, id)).collect();
            assert_eq!(a, b, "n={n} jobs={jobs}: arena layout differs");
        }
    }
}

#[test]
fn parallel_bulk_load_answers_queries_exactly() {
    let mut rng = StdRng::seed_from_u64(0x57B);
    let items: Vec<(Rect2, u64)> = (0..900u64).map(|id| (random_rect(&mut rng), id)).collect();
    let tree = RTree::bulk_load_jobs(RTreeConfig::paper(), items.clone(), 4);
    let windows: Vec<Rect2> = (0..12)
        .map(|_| {
            let x = rng.gen_range(0.0..900.0);
            let y = rng.gen_range(0.0..900.0);
            Rect2::new(Point2::new([x, y]), Point2::new([x + 120.0, y + 120.0]))
        })
        .collect();
    assert_matches_bruteforce(&tree, &items, &windows);
}
