//! Partitioning the plane around the client into `k` direction sectors.
//!
//! §V-A extends the 1-D prefetching model to the plane by splitting the
//! space around the client into `k` equally sized sectors, each standing
//! for one possible direction of travel. §V-B (Figure 4(b)) then assigns
//! every neighbouring grid block to one sector; a block that intersects a
//! partition line goes to the sector owning the larger share of the block,
//! and *exact ties are resolved by alternating* consecutive tied blocks
//! between the two candidate sectors.
//!
//! [`SectorPartition`] implements that assignment. The default orientation
//! places sector boundaries on the diagonals (so with `k = 4` the sectors
//! are "east", "north", "west", "south"), matching the paper's figure.
//!
//! [`SectorPartition::sector_of`] is on the server's victim-ranking path
//! (one call per resident-page candidate per session, DESIGN.md §15.3),
//! so the compass partition classifies by comparing `|x|` with `|y|`
//! instead of calling `atan2` ([`SectorPartition::compass_select`], which
//! the heat field's batch ranking also runs straight). The comparison is
//! only trusted outside a guard band around the diagonals that is seven
//! orders of magnitude wider than the angle path's rounding error; inside
//! it, and for every other partition, the angle path decides — so the two
//! agree on every input, not merely on almost every one.

use crate::{BlockId, GridSpec, Point2, Vec2};
use std::collections::BTreeMap;
use std::f64::consts::TAU;

/// A division of the plane around a reference point into `k` equal angular
/// sectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectorPartition {
    k: usize,
    /// Angle (radians, CCW from +x) of the boundary that *starts* sector 0.
    offset: f64,
    /// True for the axis-centred `k = 4` partition, whose sectors
    /// [`Self::sector_of`] can tell apart without trigonometry.
    compass: bool,
}

/// Relative half-width of the band around the diagonals in which the
/// compass fast path defers to the angle path: `| |x|−|y| |` must exceed
/// this fraction of `|x|+|y|`. The direction is then at least ~1e-9 rad
/// from a sector boundary, while `atan2`, the offset subtraction,
/// `rem_euclid` and the division are together good to ~1e-15 rad.
const COMPASS_GUARD: f64 = 1e-9;

impl SectorPartition {
    /// Creates a partition with `k` sectors whose first boundary lies at
    /// `offset` radians.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, offset: f64) -> Self {
        assert!(k > 0, "need at least one sector");
        let offset = offset.rem_euclid(TAU);
        Self {
            k,
            offset,
            compass: k == 4 && offset == (-TAU / 8.0).rem_euclid(TAU),
        }
    }

    /// The paper's orientation: sector boundaries on the diagonals, so each
    /// sector is centred on a compass axis (`k = 4` ⇒ sector 0 = east,
    /// 1 = north, 2 = west, 3 = south).
    pub fn axis_centered(k: usize) -> Self {
        assert!(k > 0, "need at least one sector");
        Self::new(k, -TAU / (2.0 * k as f64))
    }

    /// Number of sectors.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Angular width of one sector.
    pub fn sector_width(&self) -> f64 {
        TAU / self.k as f64
    }

    /// True for the axis-centred `k = 4` partition, the one
    /// [`Self::compass_select`] classifies for.
    pub fn is_compass(&self) -> bool {
        self.compass
    }

    /// The sector containing direction `v`, or `None` for the zero vector.
    pub fn sector_of(&self, v: &Vec2) -> Option<usize> {
        if self.compass {
            // `Vec2::angle`'s zero-vector rule, checked first so the two
            // paths agree on it too.
            if v.norm_sq() <= f64::EPSILON * f64::EPSILON {
                return None;
            }
            if let (sector, true) = Self::compass_select(v[0], v[1], [0, 1, 2, 3]) {
                return Some(sector);
            }
        }
        self.sector_of_by_angle(v)
    }

    /// The entry of `by_sector` (east, north, west, south — the compass
    /// partition's sectors 0 to 3) for the non-zero offset `(x, y)`, chosen
    /// by comparisons and sign selects alone, and whether that choice
    /// holds: `false` within the guard band around the diagonals, and for a
    /// NaN or infinite component (the guard comparison fails), where only
    /// [`Self::sector_of`]'s angle path decides. No branch and no indexed
    /// load, so a caller classifying many offsets at once can run it in a
    /// straight (vectorisable) loop and look at the few `false`s after.
    #[inline(always)]
    pub fn compass_select<T: Copy>(x: f64, y: f64, by_sector: [T; 4]) -> (T, bool) {
        let [east, north, west, south] = by_sector;
        let (ax, ay) = (x.abs(), y.abs());
        let clear = (ax - ay).abs() > COMPASS_GUARD * (ax + ay);
        let pick = if ax > ay {
            if x > 0.0 {
                east
            } else {
                west
            }
        } else if y > 0.0 {
            north
        } else {
            south
        };
        (pick, clear)
    }

    /// [`Self::sector_of`] through `atan2`: the definition, the path every
    /// non-compass partition takes, and the reference the compass fast
    /// path is tested against.
    fn sector_of_by_angle(&self, v: &Vec2) -> Option<usize> {
        let angle = v.angle()?;
        let rel = (angle - self.offset).rem_euclid(TAU);
        Some(((rel / self.sector_width()) as usize).min(self.k - 1))
    }

    /// Assigns each block to a sector around `center`, implementing the
    /// paper's tie-breaking rule: a block whose centre direction lies on
    /// (or within `tie_eps` radians of) a partition line is alternately
    /// assigned to the two adjacent sectors, per boundary, in the order the
    /// blocks are supplied. The block containing `center` itself (direction
    /// undefined) is omitted from the result.
    pub fn assign_blocks(
        &self,
        grid: &GridSpec,
        center: &Point2,
        blocks: &[BlockId],
        tie_eps: f64,
    ) -> BTreeMap<BlockId, usize> {
        let mut out = BTreeMap::new();
        // Per-boundary toggle used to alternate tied blocks.
        let mut toggles: BTreeMap<usize, bool> = BTreeMap::new();
        let w = self.sector_width();
        for b in blocks {
            let v = grid.block_center(b) - *center;
            let Some(angle) = v.angle() else { continue };
            let rel = (angle - self.offset).rem_euclid(TAU);
            let raw = ((rel / w) as usize).min(self.k - 1);
            let within = rel.rem_euclid(w);
            let dist = within.min(w - within);
            let sector = if dist <= tie_eps && self.k > 1 {
                // Identify the boundary index: boundary `i` starts sector `i`.
                let boundary = if within <= w - within {
                    raw // the boundary at the start of this sector
                } else {
                    (raw + 1) % self.k // the boundary at the end
                };
                let flip = toggles.entry(boundary).or_insert(false);
                let lower = (boundary + self.k - 1) % self.k;
                let chosen = if *flip { lower } else { boundary };
                *flip = !*flip;
                chosen
            } else {
                raw
            };
            out.insert(*b, sector);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect2;

    fn grid() -> GridSpec {
        GridSpec::new(
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([100.0, 100.0])),
            10,
            10,
        )
    }

    #[test]
    fn axis_centered_compass_sectors() {
        let p = SectorPartition::axis_centered(4);
        assert_eq!(p.sector_of(&Vec2::new([1.0, 0.0])), Some(0)); // east
        assert_eq!(p.sector_of(&Vec2::new([0.0, 1.0])), Some(1)); // north
        assert_eq!(p.sector_of(&Vec2::new([-1.0, 0.0])), Some(2)); // west
        assert_eq!(p.sector_of(&Vec2::new([0.0, -1.0])), Some(3)); // south
        assert_eq!(p.sector_of(&Vec2::ZERO), None);
    }

    #[test]
    fn every_direction_lands_in_exactly_one_sector() {
        for k in [1usize, 2, 3, 4, 6, 8, 16] {
            let p = SectorPartition::axis_centered(k);
            for i in 0..720 {
                let a = i as f64 * TAU / 720.0 + 1e-4;
                let v = Vec2::new([a.cos(), a.sin()]);
                let s = p.sector_of(&v).unwrap();
                assert!(s < k, "k={k} angle={a} gave sector {s}");
            }
        }
    }

    #[test]
    fn assign_blocks_covers_all_but_center() {
        let g = grid();
        let center = Point2::new([55.0, 55.0]); // centre of block (5,5)
        let p = SectorPartition::axis_centered(4);
        let blocks = g.blocks_within_ring(&BlockId::new(5, 5), 2);
        let assigned = p.assign_blocks(&g, &center, &blocks, 1e-9);
        // 25 blocks in the ring; the centre one has no direction.
        assert_eq!(assigned.len(), 24);
        for s in assigned.values() {
            assert!(*s < 4);
        }
    }

    #[test]
    fn tied_blocks_alternate_between_sectors() {
        let g = grid();
        let center = Point2::new([55.0, 55.0]);
        let p = SectorPartition::axis_centered(4);
        // Diagonal blocks (6,6), (7,7), (8,8) lie exactly on the NE boundary.
        let diag = vec![BlockId::new(6, 6), BlockId::new(7, 7), BlockId::new(8, 8)];
        let assigned = p.assign_blocks(&g, &center, &diag, 1e-6);
        let sectors: Vec<usize> = diag.iter().map(|b| assigned[b]).collect();
        // Alternation: consecutive tied blocks must differ.
        assert_ne!(sectors[0], sectors[1]);
        assert_eq!(sectors[0], sectors[2]);
        // And they must be the two sectors adjacent to the NE boundary.
        for s in sectors {
            assert!(s == 0 || s == 1);
        }
    }

    #[test]
    fn east_blocks_assigned_east() {
        let g = grid();
        let center = Point2::new([55.0, 55.0]);
        let p = SectorPartition::axis_centered(4);
        let blocks = vec![BlockId::new(7, 5), BlockId::new(9, 5)];
        let assigned = p.assign_blocks(&g, &center, &blocks, 1e-9);
        assert_eq!(assigned[&BlockId::new(7, 5)], 0);
        assert_eq!(assigned[&BlockId::new(9, 5)], 0);
    }

    /// `(x, y)` under every sign combination, and with the axes swapped,
    /// must classify on the compass partition exactly as the `atan2`
    /// reference does.
    fn assert_matches_reference(x: f64, y: f64) {
        let compass = SectorPartition::axis_centered(4);
        assert!(compass.compass);
        for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
            for v in [Vec2::new([sx * x, sy * y]), Vec2::new([sy * y, sx * x])] {
                assert_eq!(
                    compass.sector_of(&v),
                    compass.sector_of_by_angle(&v),
                    "compass fast path disagrees with atan2 on {v:?}"
                );
            }
        }
    }

    /// `a` moved `n` representable values up (`n > 0`) or down.
    fn step_ulps(a: f64, n: i64) -> f64 {
        f64::from_bits((a.to_bits() as i64 + n) as u64)
    }

    #[test]
    fn only_the_axis_centered_four_is_compass() {
        assert!(SectorPartition::new(4, -TAU / 8.0).compass);
        assert!(!SectorPartition::new(4, 0.0).compass);
        assert!(!SectorPartition::axis_centered(8).compass);
        assert!(!SectorPartition::axis_centered(2).compass);
    }

    #[test]
    fn compass_matches_atan2_on_and_around_the_diagonals() {
        for a in [1.0, 0.1, 3.7e-6, 55.0, 1e9, 1e150, f64::MIN_POSITIVE * 1e20] {
            assert_matches_reference(a, a);
            for n in 1..=4 {
                assert_matches_reference(a, step_ulps(a, n));
                assert_matches_reference(a, step_ulps(a, -n));
            }
            // Either side of the guard band's own edge.
            for rel in [0.5e-9, 0.999e-9, 1.001e-9, 2e-9, 4e-9, 1e-6] {
                assert_matches_reference(a, a * (1.0 + rel));
                assert_matches_reference(a, a * (1.0 - rel));
            }
        }
    }

    #[test]
    fn compass_matches_atan2_on_degenerate_vectors() {
        let tiny = [
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::EPSILON / 2.0,
            f64::EPSILON / std::f64::consts::SQRT_2,
            f64::EPSILON,
            f64::EPSILON * 1.5,
        ];
        for x in tiny {
            for y in tiny {
                assert_matches_reference(x, y);
            }
            assert_matches_reference(x, 1.0);
        }
        for (x, y) in [
            (f64::INFINITY, 1.0),
            (f64::INFINITY, f64::INFINITY),
            (f64::NAN, 1.0),
            (f64::MAX, f64::MAX),
            (f64::MAX, 1.0),
        ] {
            assert_matches_reference(x, y);
        }
    }

    proptest::proptest! {
        #[test]
        fn compass_matches_atan2_on_random_vectors(
            x in -1000.0f64..1000.0,
            y in -1000.0f64..1000.0,
            exp in -40i32..40,
            ulps in -4i64..5,
        ) {
            assert_matches_reference(x, y);
            // The same direction at another magnitude, and a near-diagonal
            // neighbour of it a few representable values off.
            let s = 2f64.powi(exp);
            assert_matches_reference(x * s, y * s);
            assert_matches_reference(x * s, step_ulps(x * s, ulps));
        }
    }

    #[test]
    fn k_eight_sectors() {
        let p = SectorPartition::axis_centered(8);
        assert_eq!(p.sector_of(&Vec2::new([1.0, 0.0])), Some(0));
        assert_eq!(p.sector_of(&Vec2::new([1.0, 1.0])), Some(1));
        assert_eq!(p.sector_of(&Vec2::new([0.0, 1.0])), Some(2));
        assert_eq!(p.sector_of(&Vec2::new([-1.0, -1.0])), Some(5));
    }
}
