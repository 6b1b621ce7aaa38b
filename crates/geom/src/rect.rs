//! Axis-aligned hyper-rectangles and the rectangle algebra of Algorithm 1.
//!
//! The continuous-retrieval algorithm (paper §IV) works on the *overlap*
//! `O_t = Q_t ∩ Q_{t−1}` and the *new region* `N_t = Q_t − Q_{t−1}` of two
//! consecutive query frames. The difference of two rectangles is not a
//! rectangle, so [`Rect::difference`] decomposes it into at most `2·N`
//! pairwise-disjoint rectangles (the paper's Figure 3 splits the example
//! region along the x-axis into two sub-queries; we generalise the same
//! slab decomposition to any dimension).
//!
//! `Rect` is also the key type of the R-tree crate: index entries, node
//! MBRs and window queries are all `Rect<N>`.

use crate::point::Point;

/// An axis-aligned hyper-rectangle in `N` dimensions, stored as the
/// component-wise minimum (`lo`) and maximum (`hi`) corner.
///
/// Invariant: `lo[i] <= hi[i]` for every dimension `i`. Degenerate
/// rectangles (zero extent in some dimension) are allowed — a wavelet
/// coefficient's value, for instance, occupies a single `w` coordinate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const N: usize> {
    /// Minimum corner.
    pub lo: Point<N>,
    /// Maximum corner.
    pub hi: Point<N>,
}

impl<const N: usize> Rect<N> {
    /// Creates a rectangle from two opposite corners, normalising so the
    /// stored `lo`/`hi` respect the invariant.
    pub fn new(a: Point<N>, b: Point<N>) -> Self {
        Self {
            lo: a.min(&b),
            hi: a.max(&b),
        }
    }

    /// Creates a rectangle from explicit `lo`/`hi` corners.
    ///
    /// # Panics
    /// Panics (in debug builds) if `lo[i] > hi[i]` in any dimension.
    pub fn from_corners(lo: Point<N>, hi: Point<N>) -> Self {
        debug_assert!(
            (0..N).all(|i| lo[i] <= hi[i]),
            "Rect corners violate lo <= hi"
        );
        Self { lo, hi }
    }

    /// A degenerate rectangle containing exactly one point.
    pub fn point(p: Point<N>) -> Self {
        Self { lo: p, hi: p }
    }

    /// A rectangle centred at `c` with the given half-extent per dimension.
    pub fn centered(c: Point<N>, half: [f64; N]) -> Self {
        let mut lo = c;
        let mut hi = c;
        for i in 0..N {
            lo[i] -= half[i];
            hi[i] += half[i];
        }
        Self { lo, hi }
    }

    /// Extent along dimension `i`.
    pub fn extent(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// Hyper-volume (area in 2-D).
    pub fn volume(&self) -> f64 {
        (0..N).map(|i| self.extent(i)).product()
    }

    /// Sum of extents over all dimensions — the *margin* used by the
    /// R*-tree split heuristic.
    pub fn margin(&self) -> f64 {
        (0..N).map(|i| self.extent(i)).sum()
    }

    /// Centre point.
    pub fn center(&self) -> Point<N> {
        self.lo.midpoint(&self.hi)
    }

    /// True when `p` lies inside or on the boundary.
    pub fn contains_point(&self, p: &Point<N>) -> bool {
        (0..N).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// True when `other` lies entirely inside or on the boundary of `self`.
    pub fn contains_rect(&self, other: &Self) -> bool {
        (0..N).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// True when the closed rectangles share at least one point.
    pub fn intersects(&self, other: &Self) -> bool {
        (0..N).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// True when the *open interiors* overlap (touching edges do not count).
    /// Degenerate rectangles never interior-overlap.
    pub fn interior_intersects(&self, other: &Self) -> bool {
        (0..N).all(|i| self.lo[i] < other.hi[i] && other.lo[i] < self.hi[i])
    }

    /// Intersection of the two closed rectangles, or `None` when disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        Some(Self {
            lo: self.lo.max(&other.lo),
            hi: self.hi.min(&other.hi),
        })
    }

    /// Smallest rectangle enclosing both inputs (the R-tree "enlarge" op).
    pub fn union(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Volume of the intersection (0 when disjoint) — used by split
    /// heuristics.
    pub fn overlap_volume(&self, other: &Self) -> f64 {
        match self.intersection(other) {
            Some(r) => r.volume(),
            None => 0.0,
        }
    }

    /// How much `self.union(other)` grows beyond `self` in volume.
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Decomposes `self − other` into at most `2·N` pairwise-disjoint
    /// rectangles whose union is exactly the set difference.
    ///
    /// This is the slab decomposition of the paper's Figure 3: for each
    /// dimension in turn, the parts of the remaining region lying strictly
    /// below/above `other`'s extent are split off as whole slabs; the
    /// leftover is clipped to `other`'s extent in that dimension and the
    /// process recurses into the next dimension.
    ///
    /// * If the rectangles are disjoint the result is `vec![self]`.
    /// * If `other` covers `self` the result is empty.
    /// * Degenerate slivers (zero volume) are omitted.
    ///
    /// ```
    /// use mar_geom::{Point2, Rect2};
    /// let q_prev = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([4.0, 4.0]));
    /// let q_cur = Rect2::new(Point2::new([1.0, 1.0]), Point2::new([5.0, 5.0]));
    /// let new_region = q_cur.difference(&q_prev);
    /// // The L-shaped new region decomposes into two disjoint slabs.
    /// assert_eq!(new_region.len(), 2);
    /// let area: f64 = new_region.iter().map(|r| r.volume()).sum();
    /// assert!((area - 7.0).abs() < 1e-12);
    /// ```
    pub fn difference(&self, other: &Self) -> Vec<Self> {
        let mut out = Vec::with_capacity(2 * N);
        self.for_each_difference(other, |part| out.push(part));
        out
    }

    /// [`Rect::difference`] as a visitor: `emit` receives the same parts
    /// in the same order, with no vector in between.
    pub fn for_each_difference(&self, other: &Self, mut emit: impl FnMut(Self)) {
        if !self.intersects(other) {
            emit(*self);
            return;
        }
        let mut remainder = *self;
        for i in 0..N {
            // Slab strictly below `other` in dimension i.
            if remainder.lo[i] < other.lo[i] {
                let mut hi = remainder.hi;
                hi[i] = other.lo[i];
                let slab = Self::from_corners(remainder.lo, hi);
                if slab.volume() > 0.0 {
                    emit(slab);
                }
                remainder.lo[i] = other.lo[i];
            }
            // Slab strictly above `other` in dimension i.
            if remainder.hi[i] > other.hi[i] {
                let mut lo = remainder.lo;
                lo[i] = other.hi[i];
                let slab = Self::from_corners(lo, remainder.hi);
                if slab.volume() > 0.0 {
                    emit(slab);
                }
                remainder.hi[i] = other.hi[i];
            }
        }
        // What is left of `remainder` is inside `other` and is discarded.
    }

    /// True when every coordinate of both corners is finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

impl<const N: usize> Rect<N> {
    /// Lifts an `N`-dimensional rectangle into `N+1` dimensions by
    /// appending the closed interval `[lo_extra, hi_extra]` as the last
    /// coordinate. Used to build `x-y-w` index regions from spatial MBRs.
    pub fn lift<const M: usize>(&self, lo_extra: f64, hi_extra: f64) -> Rect<M> {
        assert_eq!(M, N + 1, "lift target must have exactly one extra dim");
        let mut lo = Point::<M>::ORIGIN;
        let mut hi = Point::<M>::ORIGIN;
        for i in 0..N {
            lo[i] = self.lo[i];
            hi[i] = self.hi[i];
        }
        lo[N] = lo_extra.min(hi_extra);
        hi[N] = lo_extra.max(hi_extra);
        Rect { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point2;

    fn r2(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect<2> {
        Rect::new(Point2::new([x0, y0]), Point2::new([x1, y1]))
    }

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(Point2::new([5.0, 1.0]), Point2::new([1.0, 5.0]));
        assert_eq!(r.lo, Point2::new([1.0, 1.0]));
        assert_eq!(r.hi, Point2::new([5.0, 5.0]));
    }

    #[test]
    fn volume_margin_center() {
        let r = r2(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.volume(), 8.0);
        assert_eq!(r.margin(), 6.0);
        assert_eq!(r.center(), Point2::new([2.0, 1.0]));
    }

    #[test]
    fn containment() {
        let outer = r2(0.0, 0.0, 10.0, 10.0);
        let inner = r2(2.0, 2.0, 5.0, 5.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_point(&Point2::new([0.0, 10.0])));
        assert!(!outer.contains_point(&Point2::new([-0.1, 5.0])));
    }

    #[test]
    fn intersection_and_union() {
        let a = r2(0.0, 0.0, 4.0, 4.0);
        let b = r2(2.0, 2.0, 6.0, 6.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r2(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.union(&b), r2(0.0, 0.0, 6.0, 6.0));
        assert_eq!(a.overlap_volume(&b), 4.0);
        let c = r2(10.0, 10.0, 11.0, 11.0);
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.overlap_volume(&c), 0.0);
    }

    #[test]
    fn touching_rects_intersect_closed_but_not_open() {
        let a = r2(0.0, 0.0, 1.0, 1.0);
        let b = r2(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(!a.interior_intersects(&b));
    }

    #[test]
    fn enlargement_measures_growth() {
        let a = r2(0.0, 0.0, 2.0, 2.0);
        let b = r2(1.0, 1.0, 3.0, 3.0);
        // union is 3x3 = 9, a is 4 => growth 5
        assert_eq!(a.enlargement(&b), 5.0);
        assert_eq!(a.enlargement(&r2(0.5, 0.5, 1.0, 1.0)), 0.0);
    }

    #[test]
    fn difference_disjoint_returns_self() {
        let a = r2(0.0, 0.0, 1.0, 1.0);
        let b = r2(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.difference(&b), vec![a]);
    }

    #[test]
    fn difference_covered_is_empty() {
        let a = r2(1.0, 1.0, 2.0, 2.0);
        let b = r2(0.0, 0.0, 3.0, 3.0);
        assert!(a.difference(&b).is_empty());
    }

    #[test]
    fn difference_paper_figure3_shape() {
        // Frame moves up-right: the difference is an L-shape made of 2 rects.
        let q_prev = r2(0.0, 0.0, 4.0, 4.0);
        let q_cur = r2(1.0, 1.0, 5.0, 5.0);
        let parts = q_cur.difference(&q_prev);
        assert_eq!(parts.len(), 2);
        let total: f64 = parts.iter().map(|r| r.volume()).sum();
        let expected = q_cur.volume() - q_cur.overlap_volume(&q_prev);
        assert!((total - expected).abs() < 1e-9);
        // Parts must be disjoint (open interiors).
        assert!(!parts[0].interior_intersects(&parts[1]));
        // Each part is inside q_cur and outside q_prev's interior.
        for p in &parts {
            assert!(q_cur.contains_rect(p));
            assert!(!q_prev.interior_intersects(p) || q_prev.overlap_volume(p) < 1e-12);
        }
    }

    #[test]
    fn difference_hole_in_middle_yields_four_parts() {
        let outer = r2(0.0, 0.0, 10.0, 10.0);
        let inner = r2(4.0, 4.0, 6.0, 6.0);
        let parts = outer.difference(&inner);
        assert_eq!(parts.len(), 4);
        let total: f64 = parts.iter().map(|r| r.volume()).sum();
        assert!((total - (100.0 - 4.0)).abs() < 1e-9);
    }

    #[test]
    fn lift_appends_dimension() {
        let r = r2(0.0, 0.0, 2.0, 2.0);
        let l: Rect<3> = r.lift(0.25, 0.75);
        assert_eq!(l.lo.coords, [0.0, 0.0, 0.25]);
        assert_eq!(l.hi.coords, [2.0, 2.0, 0.75]);
        // Swapped extra bounds are normalised too.
        let l2: Rect<3> = r.lift(0.75, 0.25);
        assert_eq!(l2.lo[2], 0.25);
        assert_eq!(l2.hi[2], 0.75);
    }

    #[test]
    fn degenerate_point_rect() {
        let p = Point2::new([3.0, 3.0]);
        let r = Rect::point(p);
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains_point(&p));
        assert!(r.intersects(&r2(0.0, 0.0, 3.0, 3.0)));
    }
}
