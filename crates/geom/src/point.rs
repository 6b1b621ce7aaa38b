//! Const-generic points and vectors.
//!
//! The simulation only needs a handful of operations (component-wise
//! arithmetic, dot products, norms, lerp), so rather than pulling in a linear
//! algebra crate we implement exactly those on `[f64; N]` wrappers. Keeping
//! `Point`/`Vector` distinct types documents intent at API boundaries: a
//! `Point` is a location in the data space, a `Vector` is a displacement
//! (velocity, wavelet detail offset, …).

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A location in `N`-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<const N: usize> {
    /// Coordinates, one per dimension.
    pub coords: [f64; N],
}

/// A displacement in `N`-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vector<const N: usize> {
    /// Components, one per dimension.
    pub comps: [f64; N],
}

impl<const N: usize> Default for Point<N> {
    fn default() -> Self {
        Self::ORIGIN
    }
}

impl<const N: usize> Default for Vector<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> Point<N> {
    /// The origin (all coordinates zero).
    pub const ORIGIN: Self = Self { coords: [0.0; N] };

    /// Creates a point from raw coordinates.
    pub const fn new(coords: [f64; N]) -> Self {
        Self { coords }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Self) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper when only comparing).
    pub fn distance_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..N {
            let d = self.coords[i] - other.coords[i];
            acc += d * d;
        }
        acc
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(&self, other: &Self, t: f64) -> Self {
        let mut coords = [0.0; N];
        for i in 0..N {
            coords[i] = self.coords[i] + (other.coords[i] - self.coords[i]) * t;
        }
        Self { coords }
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Self) -> Self {
        let mut coords = [0.0; N];
        for i in 0..N {
            coords[i] = self.coords[i].min(other.coords[i]);
        }
        Self { coords }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Self) -> Self {
        let mut coords = [0.0; N];
        for i in 0..N {
            coords[i] = self.coords[i].max(other.coords[i]);
        }
        Self { coords }
    }

    /// Midpoint between `self` and `other`.
    pub fn midpoint(&self, other: &Self) -> Self {
        self.lerp(other, 0.5)
    }

    /// Interprets the point as a displacement from the origin.
    pub fn to_vector(self) -> Vector<N> {
        Vector { comps: self.coords }
    }

    /// True when every coordinate is finite (no NaN/∞).
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

impl<const N: usize> Vector<N> {
    /// The zero vector.
    pub const ZERO: Self = Self { comps: [0.0; N] };

    /// Creates a vector from raw components.
    pub const fn new(comps: [f64; N]) -> Self {
        Self { comps }
    }

    /// Dot product.
    pub fn dot(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..N {
            acc += self.comps[i] * other.comps[i];
        }
        acc
    }

    /// Euclidean norm (length).
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared norm.
    pub fn norm_sq(&self) -> f64 {
        self.dot(self)
    }

    /// Returns the unit vector in this direction, or `None` for (near-)zero
    /// vectors where the direction is undefined.
    pub fn normalized(&self) -> Option<Self> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(*self / n)
        }
    }

    /// True when every component is finite.
    pub fn is_finite(&self) -> bool {
        self.comps.iter().all(|c| c.is_finite())
    }
}

impl Vector<2> {
    /// Angle of the vector in radians within `[0, 2π)`, measured
    /// counter-clockwise from the positive x-axis. Returns `None` for the
    /// zero vector.
    pub fn angle(&self) -> Option<f64> {
        if self.norm_sq() <= f64::EPSILON * f64::EPSILON {
            return None;
        }
        let a = self.comps[1].atan2(self.comps[0]);
        Some(if a < 0.0 {
            a + std::f64::consts::TAU
        } else {
            a
        })
    }
}

impl<const N: usize> Index<usize> for Point<N> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl<const N: usize> IndexMut<usize> for Point<N> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl<const N: usize> Index<usize> for Vector<N> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.comps[i]
    }
}

impl<const N: usize> IndexMut<usize> for Vector<N> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.comps[i]
    }
}

impl<const N: usize> Sub for Point<N> {
    type Output = Vector<N>;
    fn sub(self, rhs: Self) -> Vector<N> {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = self.coords[i] - rhs.coords[i];
        }
        Vector { comps }
    }
}

impl<const N: usize> Add<Vector<N>> for Point<N> {
    type Output = Point<N>;
    fn add(self, rhs: Vector<N>) -> Point<N> {
        let mut coords = [0.0; N];
        for i in 0..N {
            coords[i] = self.coords[i] + rhs.comps[i];
        }
        Point { coords }
    }
}

impl<const N: usize> Sub<Vector<N>> for Point<N> {
    type Output = Point<N>;
    fn sub(self, rhs: Vector<N>) -> Point<N> {
        let mut coords = [0.0; N];
        for i in 0..N {
            coords[i] = self.coords[i] - rhs.comps[i];
        }
        Point { coords }
    }
}

impl<const N: usize> AddAssign<Vector<N>> for Point<N> {
    fn add_assign(&mut self, rhs: Vector<N>) {
        for i in 0..N {
            self.coords[i] += rhs.comps[i];
        }
    }
}

impl<const N: usize> Add for Vector<N> {
    type Output = Vector<N>;
    fn add(self, rhs: Self) -> Self {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = self.comps[i] + rhs.comps[i];
        }
        Vector { comps }
    }
}

impl<const N: usize> Sub for Vector<N> {
    type Output = Vector<N>;
    fn sub(self, rhs: Self) -> Self {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = self.comps[i] - rhs.comps[i];
        }
        Vector { comps }
    }
}

impl<const N: usize> AddAssign for Vector<N> {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.comps[i] += rhs.comps[i];
        }
    }
}

impl<const N: usize> SubAssign for Vector<N> {
    fn sub_assign(&mut self, rhs: Self) {
        for i in 0..N {
            self.comps[i] -= rhs.comps[i];
        }
    }
}

impl<const N: usize> Mul<f64> for Vector<N> {
    type Output = Vector<N>;
    fn mul(self, rhs: f64) -> Self {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = self.comps[i] * rhs;
        }
        Vector { comps }
    }
}

impl<const N: usize> Div<f64> for Vector<N> {
    type Output = Vector<N>;
    fn div(self, rhs: f64) -> Self {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = self.comps[i] / rhs;
        }
        Vector { comps }
    }
}

impl<const N: usize> Neg for Vector<N> {
    type Output = Vector<N>;
    fn neg(self) -> Self {
        let mut comps = [0.0; N];
        for i in 0..N {
            comps[i] = -self.comps[i];
        }
        Vector { comps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P2 = Point<2>;
    type V2 = Vector<2>;

    #[test]
    fn point_distance() {
        let a = P2::new([0.0, 0.0]);
        let b = P2::new([3.0, 4.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn point_lerp_endpoints_and_midpoint() {
        let a = P2::new([1.0, 2.0]);
        let b = P2::new([3.0, 6.0]);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.midpoint(&b), P2::new([2.0, 4.0]));
    }

    #[test]
    fn point_min_max() {
        let a = P2::new([1.0, 5.0]);
        let b = P2::new([3.0, 2.0]);
        assert_eq!(a.min(&b), P2::new([1.0, 2.0]));
        assert_eq!(a.max(&b), P2::new([3.0, 5.0]));
    }

    #[test]
    fn vector_arithmetic() {
        let v = V2::new([1.0, 2.0]);
        let w = V2::new([3.0, -1.0]);
        assert_eq!(v + w, V2::new([4.0, 1.0]));
        assert_eq!(v - w, V2::new([-2.0, 3.0]));
        assert_eq!(v * 2.0, V2::new([2.0, 4.0]));
        assert_eq!(v / 2.0, V2::new([0.5, 1.0]));
        assert_eq!(-v, V2::new([-1.0, -2.0]));
        assert_eq!(v.dot(&w), 1.0);
    }

    #[test]
    fn point_vector_round_trip() {
        let a = P2::new([1.0, 1.0]);
        let b = P2::new([4.0, 5.0]);
        let d = b - a;
        assert_eq!(a + d, b);
        assert_eq!(b - d, a);
        assert_eq!(d.norm(), 5.0);
    }

    #[test]
    fn normalized_unit_length() {
        let v = V2::new([3.0, 4.0]);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(V2::ZERO.normalized().is_none());
    }

    #[test]
    fn angle_quadrants() {
        use std::f64::consts::{FRAC_PI_2, PI};
        assert!((V2::new([1.0, 0.0]).angle().unwrap() - 0.0).abs() < 1e-12);
        assert!((V2::new([0.0, 1.0]).angle().unwrap() - FRAC_PI_2).abs() < 1e-12);
        assert!((V2::new([-1.0, 0.0]).angle().unwrap() - PI).abs() < 1e-12);
        assert!((V2::new([0.0, -1.0]).angle().unwrap() - 3.0 * FRAC_PI_2).abs() < 1e-12);
        assert!(V2::ZERO.angle().is_none());
    }

    #[test]
    fn angle_is_in_range() {
        for i in 0..64 {
            let a = (i as f64) * std::f64::consts::TAU / 64.0;
            let v = V2::new([a.cos(), a.sin()]);
            let got = v.angle().unwrap();
            assert!((0.0..std::f64::consts::TAU).contains(&got));
            // The recovered angle must match the generating one modulo 2π.
            let diff = (got - a).rem_euclid(std::f64::consts::TAU);
            assert!(!(1e-9..=std::f64::consts::TAU - 1e-9).contains(&diff));
        }
    }

    #[test]
    fn finiteness_checks() {
        assert!(P2::new([1.0, 2.0]).is_finite());
        assert!(!P2::new([f64::NAN, 2.0]).is_finite());
        assert!(!V2::new([f64::INFINITY, 0.0]).is_finite());
    }

    #[test]
    fn higher_dimensions_compile_and_work() {
        let a = Point::<4>::new([1.0, 2.0, 3.0, 4.0]);
        let b = Point::<4>::new([2.0, 3.0, 4.0, 5.0]);
        assert!((a.distance(&b) - 2.0).abs() < 1e-12);
    }
}
