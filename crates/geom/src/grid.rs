//! The block grid of §V.
//!
//! The buffer-management cost model assumes the data space is "divided into
//! grid-like blocks"; the client prefetches whole blocks and a *cache miss*
//! means the current query frame touches a block that is not buffered.
//! [`GridSpec`] defines the tiling, [`BlockId`] names one cell, and the
//! methods here convert between continuous space and block coordinates.

use crate::{Point2, Rect2};

/// Integer coordinates of one grid block. Blocks outside the data space are
/// representable (predictions may wander off the edge); [`GridSpec::clamp`]
/// pulls them back in when needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Column index (x direction).
    pub ix: i64,
    /// Row index (y direction).
    pub iy: i64,
}

impl BlockId {
    /// Creates a block id.
    pub const fn new(ix: i64, iy: i64) -> Self {
        Self { ix, iy }
    }

    /// Chebyshev (ring) distance between two blocks — the radius of the
    /// smallest square ring around `self` containing `other`.
    pub fn ring_distance(&self, other: &Self) -> i64 {
        (self.ix - other.ix).abs().max((self.iy - other.iy).abs())
    }
}

/// A uniform tiling of a rectangular data space into `nx × ny` blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// The extent of the data space being tiled.
    pub space: Rect2,
    /// Number of blocks along x.
    pub nx: u32,
    /// Number of blocks along y.
    pub ny: u32,
}

impl GridSpec {
    /// Creates a grid over `space` with the given block counts.
    ///
    /// # Panics
    /// Panics if either block count is zero or the space is degenerate.
    pub fn new(space: Rect2, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one block");
        assert!(
            space.extent(0) > 0.0 && space.extent(1) > 0.0,
            "grid space must have positive extent"
        );
        Self { space, nx, ny }
    }

    /// Width of one block in space units.
    pub fn block_w(&self) -> f64 {
        self.space.extent(0) / self.nx as f64
    }

    /// Height of one block in space units.
    pub fn block_h(&self) -> f64 {
        self.space.extent(1) / self.ny as f64
    }

    /// Total number of blocks in the grid.
    pub fn block_count(&self) -> u64 {
        self.nx as u64 * self.ny as u64
    }

    /// The block containing point `p`. Points on shared block boundaries
    /// belong to the block with the larger index except at the space's far
    /// edge, which maps into the last block so the whole closed space is
    /// covered.
    pub fn block_of(&self, p: &Point2) -> BlockId {
        let fx = (p[0] - self.space.lo[0]) / self.block_w();
        let fy = (p[1] - self.space.lo[1]) / self.block_h();
        let ix = (fx.floor() as i64).min(self.nx as i64 - 1);
        let iy = (fy.floor() as i64).min(self.ny as i64 - 1);
        BlockId::new(ix, iy)
    }

    /// The spatial extent of block `b` (blocks outside the data space get
    /// their natural extrapolated extent).
    pub fn block_rect(&self, b: &BlockId) -> Rect2 {
        let w = self.block_w();
        let h = self.block_h();
        let x0 = self.space.lo[0] + b.ix as f64 * w;
        let y0 = self.space.lo[1] + b.iy as f64 * h;
        Rect2::new(Point2::new([x0, y0]), Point2::new([x0 + w, y0 + h]))
    }

    /// Centre of block `b`.
    pub fn block_center(&self, b: &BlockId) -> Point2 {
        self.block_rect(b).center()
    }

    /// True when `b` lies inside the tiled data space.
    pub fn in_bounds(&self, b: &BlockId) -> bool {
        (0..self.nx as i64).contains(&b.ix) && (0..self.ny as i64).contains(&b.iy)
    }

    /// Clamps a block id to the data space.
    pub fn clamp(&self, b: &BlockId) -> BlockId {
        BlockId::new(
            b.ix.clamp(0, self.nx as i64 - 1),
            b.iy.clamp(0, self.ny as i64 - 1),
        )
    }

    /// All in-bounds blocks intersecting the rectangle `r` (closed
    /// intersection: a frame touching a block boundary pulls that block in).
    pub fn blocks_overlapping(&self, r: &Rect2) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.blocks_overlapping_into(r, &mut out);
        out
    }

    /// Like [`GridSpec::blocks_overlapping`], but reuses `out` (cleared
    /// first) so per-tick simulation loops allocate nothing in steady
    /// state. Blocks are pushed in the same row-major order.
    pub fn blocks_overlapping_into(&self, r: &Rect2, out: &mut Vec<BlockId>) {
        out.clear();
        let Some(clipped) = r.intersection(&self.space) else {
            return;
        };
        let w = self.block_w();
        let h = self.block_h();
        let ix0 = ((clipped.lo[0] - self.space.lo[0]) / w).floor() as i64;
        let iy0 = ((clipped.lo[1] - self.space.lo[1]) / h).floor() as i64;
        // Use a tiny epsilon so a frame whose edge coincides with a block
        // boundary does not pull in the next (untouched) block row.
        let eps = 1e-9 * (w + h);
        let ix1 = (((clipped.hi[0] - self.space.lo[0]) / w) - eps)
            .floor()
            .max(ix0 as f64) as i64;
        let iy1 = (((clipped.hi[1] - self.space.lo[1]) / h) - eps)
            .floor()
            .max(iy0 as f64) as i64;
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let b = BlockId::new(ix, iy);
                if self.in_bounds(&b) {
                    out.push(b);
                }
            }
        }
    }

    /// Seam `i` along `axis` (0 = x, 1 = y): `space.lo + i·w`, with `w`
    /// the block width (height), and the far edge `space.hi` itself for
    /// `i` = the block count. Every seam the sharded tier draws — a
    /// shard's tile, [`GridSpec::partition_rect`]'s block choice and its
    /// clip edges — is read from here, so the three agree bit for bit at
    /// any coordinate magnitude and block size.
    pub fn seam(&self, axis: usize, i: i64) -> f64 {
        let n = i64::from(if axis == 0 { self.nx } else { self.ny });
        if i >= n {
            self.space.hi[axis]
        } else {
            self.space.lo[axis] + i as f64 * (self.space.extent(axis) / n as f64)
        }
    }

    /// The blocks along `axis` that `[a, b]` (inside the space) spans:
    /// from the last block whose low seam is at or below `a` to the first
    /// whose high seam reaches `b`. The division only guesses; the seams
    /// decide, so rounding can neither drop a sliver of `[a, b]` nor add a
    /// block it merely touches.
    fn seam_span(&self, axis: usize, a: f64, b: f64) -> (i64, i64) {
        let n = i64::from(if axis == 0 { self.nx } else { self.ny });
        let w = self.space.extent(axis) / n as f64;
        let guess = |x: f64| (((x - self.space.lo[axis]) / w).floor() as i64).clamp(0, n - 1);
        let mut first = guess(a);
        while first > 0 && self.seam(axis, first) > a {
            first -= 1;
        }
        while first + 1 < n && self.seam(axis, first + 1) <= a {
            first += 1;
        }
        let mut last = guess(b).max(first);
        while last > first && self.seam(axis, last) >= b {
            last -= 1;
        }
        while last + 1 < n && self.seam(axis, last + 1) < b {
            last += 1;
        }
        (first, last)
    }

    /// Decomposes `r ∩ space` into per-block clipped sub-rectangles: one
    /// `(block, sub-rect)` pair per overlapped block, in row-major block
    /// order. The sub-rects are pairwise interior-disjoint and their union
    /// is exactly `r ∩ space` — the scatter half of the sharded router's
    /// scatter-gather (each shard answers its own clipped piece and the
    /// merged answer covers the query exactly once per block).
    ///
    /// Blocks are chosen, and sub-rects clipped, against
    /// [`GridSpec::seam`]: adjacent sub-rects share their edge bit for bit,
    /// every sub-rect lies inside its block's seams, and a query edge on a
    /// seam pulls in no block beyond it.
    pub fn partition_rect(&self, r: &Rect2) -> Vec<(BlockId, Rect2)> {
        let mut out = Vec::new();
        self.partition_rect_into(r, &mut out);
        out
    }

    /// Like [`GridSpec::partition_rect`], but reuses `out` (cleared first)
    /// so per-tick routing loops allocate nothing in steady state.
    pub fn partition_rect_into(&self, r: &Rect2, out: &mut Vec<(BlockId, Rect2)>) {
        out.clear();
        let Some(clipped) = r.intersection(&self.space) else {
            return;
        };
        let (ix0, ix1) = self.seam_span(0, clipped.lo[0], clipped.hi[0]);
        let (iy0, iy1) = self.seam_span(1, clipped.lo[1], clipped.hi[1]);
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let x0 = clipped.lo[0].max(self.seam(0, ix));
                let x1 = clipped.hi[0].min(self.seam(0, ix + 1));
                let y0 = clipped.lo[1].max(self.seam(1, iy));
                let y1 = clipped.hi[1].min(self.seam(1, iy + 1));
                out.push((
                    BlockId::new(ix, iy),
                    Rect2::from_corners(Point2::new([x0, y0]), Point2::new([x1, y1])),
                ));
            }
        }
    }

    /// All in-bounds blocks whose ring (Chebyshev) distance from `center`
    /// is at most `radius`, in row-major order.
    pub fn blocks_within_ring(&self, center: &BlockId, radius: i64) -> Vec<BlockId> {
        let mut out = Vec::new();
        for iy in (center.iy - radius)..=(center.iy + radius) {
            for ix in (center.ix - radius)..=(center.ix + radius) {
                let b = BlockId::new(ix, iy);
                if self.in_bounds(&b) {
                    out.push(b);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn grid_10x10() -> GridSpec {
        GridSpec::new(
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([100.0, 100.0])),
            10,
            10,
        )
    }

    #[test]
    fn block_of_interior_points() {
        let g = grid_10x10();
        assert_eq!(g.block_of(&Point2::new([5.0, 5.0])), BlockId::new(0, 0));
        assert_eq!(g.block_of(&Point2::new([15.0, 95.0])), BlockId::new(1, 9));
    }

    #[test]
    fn far_edge_maps_into_last_block() {
        let g = grid_10x10();
        assert_eq!(g.block_of(&Point2::new([100.0, 100.0])), BlockId::new(9, 9));
    }

    #[test]
    fn block_rect_round_trip() {
        let g = grid_10x10();
        let b = BlockId::new(3, 7);
        let r = g.block_rect(&b);
        assert_eq!(g.block_of(&r.center()), b);
        assert!((r.volume() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_overlapping_counts() {
        let g = grid_10x10();
        // A frame inside a single block.
        let one = g.blocks_overlapping(&Rect2::new(
            Point2::new([1.0, 1.0]),
            Point2::new([9.0, 9.0]),
        ));
        assert_eq!(one, vec![BlockId::new(0, 0)]);
        // A frame spanning a 2x2 patch of blocks.
        let four = g.blocks_overlapping(&Rect2::new(
            Point2::new([5.0, 5.0]),
            Point2::new([15.0, 15.0]),
        ));
        assert_eq!(four.len(), 4);
        // A frame exactly coinciding with one block's extent.
        let exact = g.blocks_overlapping(&g.block_rect(&BlockId::new(2, 2)));
        assert_eq!(exact, vec![BlockId::new(2, 2)]);
    }

    #[test]
    fn blocks_overlapping_clips_to_space() {
        let g = grid_10x10();
        let out = g.blocks_overlapping(&Rect2::new(
            Point2::new([-50.0, -50.0]),
            Point2::new([5.0, 5.0]),
        ));
        assert_eq!(out, vec![BlockId::new(0, 0)]);
        let none = g.blocks_overlapping(&Rect2::new(
            Point2::new([200.0, 200.0]),
            Point2::new([300.0, 300.0]),
        ));
        assert!(none.is_empty());
    }

    #[test]
    fn partition_covers_exactly_once() {
        let g = grid_10x10();
        let q = Rect2::new(Point2::new([5.0, 5.0]), Point2::new([37.0, 26.0]));
        let parts = g.partition_rect(&q);
        assert_eq!(parts.len(), 4 * 3);
        // Blocks agree with blocks_overlapping, in the same order.
        let blocks: Vec<BlockId> = parts.iter().map(|(b, _)| *b).collect();
        assert_eq!(blocks, g.blocks_overlapping(&q));
        // Each sub-rect lies inside both its block and the query.
        let mut area = 0.0;
        for (b, sub) in &parts {
            assert!(g.block_rect(b).contains_rect(sub));
            assert!(q.contains_rect(sub));
            area += sub.volume();
        }
        // Pairwise interior-disjoint, and the areas add to the query's.
        for (i, (_, a)) in parts.iter().enumerate() {
            for (_, b) in &parts[i + 1..] {
                assert!(!a.interior_intersects(b), "{a:?} overlaps {b:?}");
            }
        }
        assert!((area - q.volume()).abs() < 1e-9 * q.volume());
    }

    #[test]
    fn partition_seams_are_bit_exact() {
        let g = grid_10x10();
        let q = Rect2::new(Point2::new([3.0, 3.0]), Point2::new([27.0, 17.0]));
        let parts = g.partition_rect(&q);
        // Horizontally adjacent sub-rects share their seam coordinate
        // bit-for-bit; no gap or overlap can open between shards.
        for (ba, ra) in &parts {
            for (bb, rb) in &parts {
                if bb.ix == ba.ix + 1 && bb.iy == ba.iy {
                    assert_eq!(ra.hi[0].to_bits(), rb.lo[0].to_bits());
                }
                if bb.iy == ba.iy + 1 && bb.ix == ba.ix {
                    assert_eq!(ra.hi[1].to_bits(), rb.lo[1].to_bits());
                }
            }
        }
    }

    #[test]
    fn partition_clips_to_space_and_handles_misses() {
        let g = grid_10x10();
        let straddling = Rect2::new(Point2::new([-20.0, 95.0]), Point2::new([15.0, 140.0]));
        let parts = g.partition_rect(&straddling);
        assert_eq!(parts.len(), 2, "only the in-space corner blocks remain");
        let clipped = straddling.intersection(&g.space).unwrap();
        let area: f64 = parts.iter().map(|(_, r)| r.volume()).sum();
        assert!((area - clipped.volume()).abs() < 1e-9);
        // A query entirely outside the space partitions to nothing.
        assert!(g
            .partition_rect(&Rect2::new(
                Point2::new([500.0, 500.0]),
                Point2::new([600.0, 600.0]),
            ))
            .is_empty());
        // A query exactly one block wide yields that block's rect alone.
        let exact = g.partition_rect(&g.block_rect(&BlockId::new(4, 4)));
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].0, BlockId::new(4, 4));
        assert_eq!(exact[0].1, g.block_rect(&BlockId::new(4, 4)));
    }

    /// A UTM-scale offset with centimetre blocks: `lo + i·w` rounds at
    /// every seam, yet each sub-rect stays between its block's seams, the
    /// sub-rects tile the window without a gap, and a window edge exactly
    /// on a seam pulls in no block beyond it.
    #[test]
    fn partition_follows_the_seams_at_large_offsets() {
        let (x, y) = (4.5e6 + 0.123, 5.3e6 + 0.456);
        let space = Rect2::new(Point2::new([x, y]), Point2::new([x + 0.07, y + 0.05]));
        let g = GridSpec::new(space, 7, 5);
        for (i0, i1, j0, j1) in [(0, 7, 0, 5), (2, 3, 1, 4), (1, 6, 2, 3)] {
            let seam_rect = Rect2::new(
                Point2::new([g.seam(0, i0), g.seam(1, j0)]),
                Point2::new([g.seam(0, i1), g.seam(1, j1)]),
            );
            let nudged = Rect2::new(
                Point2::new([g.seam(0, i0).next_up(), g.seam(1, j0).next_down()]),
                Point2::new([g.seam(0, i1).next_down(), g.seam(1, j1).next_up()]),
            );
            for q in [seam_rect, nudged] {
                let parts = g.partition_rect(&q);
                let clipped = q.intersection(&g.space).expect("inside the space");
                let xs: BTreeSet<i64> = parts.iter().map(|(b, _)| b.ix).collect();
                let ys: BTreeSet<i64> = parts.iter().map(|(b, _)| b.iy).collect();
                // On a seam: nothing beyond it. An ulp past one: the next
                // block (the nudged rectangle reaches past its y seams).
                let want_ys = if q == seam_rect {
                    j0..j1
                } else {
                    (j0 - 1).max(0)..(j1 + 1).min(5)
                };
                assert_eq!(xs, (i0..i1).collect(), "{q:?}");
                assert_eq!(ys, want_ys.collect(), "{q:?}");
                for (b, sub) in &parts {
                    assert!(sub.lo[0] >= g.seam(0, b.ix) && sub.hi[0] <= g.seam(0, b.ix + 1));
                    assert!(sub.lo[1] >= g.seam(1, b.iy) && sub.hi[1] <= g.seam(1, b.iy + 1));
                }
                let (first, last) = (parts[0].1, parts[parts.len() - 1].1);
                assert_eq!((first.lo, last.hi), (clipped.lo, clipped.hi), "{q:?}");
                for (a, b) in parts.iter().zip(&parts[1..]) {
                    if a.0.iy == b.0.iy {
                        assert_eq!(a.1.hi[0].to_bits(), b.1.lo[0].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn the_last_seam_is_the_space_edge() {
        // 0.1 + 3·(0.2 / 3) is not 0.3 in floating point; the far seam is.
        let g = GridSpec::new(
            Rect2::new(Point2::new([0.1, 0.1]), Point2::new([0.3, 0.3])),
            3,
            3,
        );
        assert_eq!(g.seam(0, 0), 0.1);
        assert_eq!(g.seam(0, 3), 0.3);
        assert_eq!(g.seam(1, 3), 0.3);
        let parts = g.partition_rect(&g.space);
        assert_eq!(parts.len(), 9);
        assert_eq!(parts[8].1.hi, g.space.hi);
    }

    #[test]
    fn ring_blocks() {
        let g = grid_10x10();
        let c = BlockId::new(5, 5);
        assert_eq!(g.blocks_within_ring(&c, 0), vec![c]);
        assert_eq!(g.blocks_within_ring(&c, 1).len(), 9);
        assert_eq!(g.blocks_within_ring(&c, 2).len(), 25);
        // Near the corner the ring is clipped by the space bounds.
        let corner = BlockId::new(0, 0);
        assert_eq!(g.blocks_within_ring(&corner, 1).len(), 4);
    }

    #[test]
    fn clamp_and_bounds() {
        let g = grid_10x10();
        assert!(g.in_bounds(&BlockId::new(0, 9)));
        assert!(!g.in_bounds(&BlockId::new(-1, 3)));
        assert_eq!(g.clamp(&BlockId::new(-5, 20)), BlockId::new(0, 9));
        assert_eq!(g.block_count(), 100);
    }

    #[test]
    fn distances() {
        let a = BlockId::new(0, 0);
        let b = BlockId::new(3, -4);
        assert_eq!(a.ring_distance(&b), 4);
    }
}
