//! The §VI straw-man access method.
//!
//! "An R-tree can be used to index the positions of wavelet coefficients
//! and the associated values … For this, all the coefficients (vertices)
//! that fall inside the query rectangle are retrieved first. However,
//! these coefficients are not sufficient … Therefore, after retrieving
//! initial sets of coefficients, we compute a bounding region that encloses
//! all the neighbouring vertices and re-execute the query for the extended
//! region."
//!
//! That is exactly what [`NaivePointIndex::query`] does, and why it loses:
//! it pays two passes, the second over a grown window, and it must store
//! the neighbour bounding box with every vertex.

use crate::coeff::{CoeffRef, SceneIndexData};
use mar_geom::{Rect2, Rect3};
use mar_mesh::ResolutionBand;
use mar_rtree::{RTree, RTreeConfig};

/// Per-entry payload: the coefficient plus its stored neighbour box, the
/// MBR of its vertex's 1-ring. That box is the coefficient's support MBR:
/// the support polygon is the union of the faces around the vertex, whose
/// vertex set is exactly the 1-ring.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PointEntry {
    id: CoeffRef,
    ring_xy: Rect2,
}

/// The naive point index over `(x, y, w)` coefficient positions.
#[derive(Debug)]
pub struct NaivePointIndex {
    tree: RTree<3, PointEntry>,
}

impl NaivePointIndex {
    /// Bulk-loads with the paper's page geometry.
    pub fn build(data: &SceneIndexData) -> Self {
        Self::build_with(data, RTreeConfig::paper())
    }

    /// Bulk-loads with a custom configuration.
    pub fn build_with(data: &SceneIndexData, config: RTreeConfig) -> Self {
        let items: Vec<(Rect3, PointEntry)> = data
            .records
            .iter()
            .map(|r| {
                (
                    Rect2::point(r.vertex_xy).lift(r.w, r.w),
                    PointEntry {
                        id: r.id,
                        ring_xy: r.support_xy,
                    },
                )
            })
            .collect();
        Self {
            tree: RTree::bulk_load(config, items),
        }
    }

    /// Number of indexed coefficients.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Executes `Q(R, w_max, w_min)` the straw-man way:
    /// 1. fetch the coefficients whose *vertex* lies in `R`;
    /// 2. union their stored neighbour boxes into an extended region;
    /// 3. re-execute over the extended region;
    /// 4. keep the phase-2 hits that are relevant to `R` (vertex inside, or
    ///    neighbour box touching `R`).
    ///
    /// Returns the hits and the total node accesses of both passes.
    pub fn query(&self, region: &Rect2, band: ResolutionBand) -> (Vec<CoeffRef>, u64) {
        let window: Rect3 = region.lift(band.w_min, band.w_max);
        let mut phase1: Vec<PointEntry> = Vec::new();
        let io1 = self.tree.search(&window, |_, e| phase1.push(*e));
        if phase1.is_empty() {
            return (Vec::new(), io1);
        }
        // Extended region: covers every neighbour of a phase-1 vertex.
        let mut extended = *region;
        for e in &phase1 {
            extended = extended.union(&e.ring_xy);
        }
        let ext_window: Rect3 = extended.lift(band.w_min, band.w_max);
        let mut hits: Vec<CoeffRef> = Vec::new();
        let io2 = self.tree.search(&ext_window, |rect, e| {
            // Keep vertices inside R, plus neighbours that contribute to R
            // (their ring reaches into R).
            let vertex_inside =
                region.contains_point(&mar_geom::Point2::new([rect.lo[0], rect.lo[1]]));
            if vertex_inside || e.ring_xy.intersects(region) {
                hits.push(e.id);
            }
        });
        (hits, io1 + io2)
    }

    /// Cumulative I/O across queries.
    pub fn io_count(&self) -> u64 {
        self.tree.io_count()
    }

    /// Resets the cumulative I/O counter.
    pub fn reset_io(&self) {
        self.tree.reset_io();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::WaveletIndex;
    use mar_geom::Point2;
    use mar_workload::{Scene, SceneConfig};

    fn data() -> SceneIndexData {
        let mut cfg = SceneConfig::paper(6, 3);
        cfg.levels = 3;
        cfg.target_bytes = 1_000_000.0;
        SceneIndexData::build(&Scene::generate(cfg))
    }

    #[test]
    fn naive_query_covers_vertices_in_region() {
        let d = data();
        let idx = NaivePointIndex::build(&d);
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0]));
        let (got, io) = idx.query(&w, ResolutionBand::FULL);
        assert!(io >= 2, "two passes expected");
        // Every coefficient whose vertex is inside must be present.
        for r in &d.records {
            if w.contains_point(&r.vertex_xy) {
                assert!(got.contains(&r.id));
            }
        }
    }

    #[test]
    fn naive_costs_more_io_than_support_index() {
        let d = data();
        let naive = NaivePointIndex::build(&d);
        let good = WaveletIndex::build(&d);
        let mut io_naive = 0;
        let mut io_good = 0;
        for (x, y) in [
            (100.0, 100.0),
            (300.0, 500.0),
            (600.0, 200.0),
            (700.0, 700.0),
        ] {
            let w = Rect2::new(Point2::new([x, y]), Point2::new([x + 150.0, y + 150.0]));
            io_naive += naive.query(&w, ResolutionBand::FULL).1;
            io_good += good.query(&w, ResolutionBand::FULL).1;
        }
        assert!(
            io_naive > io_good,
            "naive {io_naive} must exceed support-region {io_good}"
        );
    }

    #[test]
    fn naive_and_support_agree_on_core_coefficients() {
        // Both methods must deliver every coefficient whose support
        // overlaps the window (the naive one may fetch a superset shape
        // but must not lose anything the reconstruction needs: vertices in
        // R and neighbours reaching into R).
        let d = data();
        let naive = NaivePointIndex::build(&d);
        let good = WaveletIndex::build(&d);
        let w = Rect2::new(Point2::new([200.0, 200.0]), Point2::new([450.0, 400.0]));
        let (mut a, _) = naive.query(&w, ResolutionBand::FULL);
        let (mut b, _) = good.query(&w, ResolutionBand::FULL);
        a.sort_unstable();
        b.sort_unstable();
        // Vertices strictly inside R appear in both.
        for r in &d.records {
            if w.contains_point(&r.vertex_xy) {
                assert!(a.binary_search(&r.id).is_ok(), "naive missing {:?}", r.id);
                assert!(b.binary_search(&r.id).is_ok(), "support missing {:?}", r.id);
            }
        }
    }

    #[test]
    fn empty_region_single_pass() {
        let d = data();
        let idx = NaivePointIndex::build(&d);
        let w = Rect2::new(Point2::new([-100.0, -100.0]), Point2::new([-50.0, -50.0]));
        let (got, io) = idx.query(&w, ResolutionBand::FULL);
        assert!(got.is_empty());
        // Phase 2 must be skipped when phase 1 found nothing.
        assert!(io <= idx.tree.node_count() as u64);
    }
}
