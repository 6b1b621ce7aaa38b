//! Wavelet analysis and synthesis over the subdivision hierarchy (§III).
//!
//! *Analysis* turns a final mesh `M^J` (given as positions over the
//! hierarchy's finest connectivity) into the base mesh plus per-level
//! wavelet coefficients: the coefficient of a vertex inserted on edge
//! `(a, b)` is `d = v − (v_a + v_b)/2`, exactly the paper's
//! `d⁰₄ = v¹₄ − (v⁰₁ + v⁰₂)/2`. Because the scheme is interpolating, the
//! parent positions are identical at every level, so analysis is a single
//! pass.
//!
//! *Synthesis* rebuilds an approximation from any subset of coefficients:
//! unselected vertices stay at their predicted midpoints. Selecting by a
//! magnitude band `[w_min, w_max]` implements the paper's speed-dependent
//! resolution choice — the geometric influence of a coefficient is
//! proportional to its (normalised) magnitude, so fast clients retrieve
//! only the large-`w` coefficients.

use crate::subdivision::SubdivisionHierarchy;
use crate::TriMesh;
use mar_geom::{Point3, Vec3};
use std::ops::Range;

/// One wavelet coefficient: the missing detail of one inserted vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveletCoeff {
    /// Global vertex index (stable across levels) of the inserted vertex.
    pub vertex: u32,
    /// Level `j`: this coefficient belongs to `W_j` (refines `Mʲ → Mʲ⁺¹`).
    pub level: u8,
    /// The parent edge the vertex was inserted on.
    pub parents: (u32, u32),
    /// Displacement from the parent-edge midpoint.
    pub detail: Vec3,
    /// Normalised magnitude in `[0, 1]`; larger ⇒ more geometric influence.
    pub w: f64,
}

/// A half-open selection band over normalised coefficient magnitudes.
///
/// Selection is *inclusive* on both ends (`w_min ≤ w ≤ w_max`), matching
/// the paper's `Q(R, w_max, w_min)` queries where `(1.0, 1.0)` selects
/// exactly the coarsest-resolution coefficients and `(1.0, 0.0)` selects
/// everything.
///
/// ```
/// use mar_mesh::ResolutionBand;
/// // A client at normalised speed 0.5 needs w ∈ [0.5, 1.0] (§VII-A).
/// let band = ResolutionBand::new(0.5, 1.0);
/// assert!(band.contains(0.8));
/// assert!(!band.contains(0.3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionBand {
    /// Lower magnitude bound.
    pub w_min: f64,
    /// Upper magnitude bound.
    pub w_max: f64,
}

impl ResolutionBand {
    /// Everything: `[0, 1]` — the full-resolution object.
    pub const FULL: Self = Self {
        w_min: 0.0,
        w_max: 1.0,
    };

    /// Only the most significant coefficients: `[1, 1]`.
    pub const COARSEST: Self = Self {
        w_min: 1.0,
        w_max: 1.0,
    };

    /// Creates a band, clamping both bounds into `[0, 1]` and swapping if
    /// given in the wrong order.
    pub fn new(w_min: f64, w_max: f64) -> Self {
        let a = w_min.clamp(0.0, 1.0);
        let b = w_max.clamp(0.0, 1.0);
        Self {
            w_min: a.min(b),
            w_max: a.max(b),
        }
    }

    /// How much `w_min` rises per degradation level of
    /// [`ResolutionBand::coarsened`].
    pub const DEGRADE_STEP: f64 = 0.15;

    /// True when `w` is selected by this band.
    pub fn contains(&self, w: f64) -> bool {
        self.w_min <= w && w <= self.w_max
    }

    /// This band coarsened by `levels` degradation steps: `w_min` rises by
    /// [`ResolutionBand::DEGRADE_STEP`] per level, saturating at `w_max`.
    pub fn coarsened(self, levels: u32) -> Self {
        let w_min = (self.w_min + Self::DEGRADE_STEP * f64::from(levels)).min(self.w_max);
        Self::new(w_min, self.w_max)
    }
}

/// A 3D object in wavelet multiresolution form: base mesh + coefficients +
/// (for convenience and for the straw-man index) the final vertex
/// positions.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletMesh {
    /// Connectivity of every level.
    pub hierarchy: SubdivisionHierarchy,
    /// All coefficients, ordered by level then by insertion order.
    pub coeffs: Vec<WaveletCoeff>,
    /// `level_ranges[j]` slices `coeffs` to exactly `W_j`.
    pub level_ranges: Vec<Range<usize>>,
    /// Positions of every vertex of the finest mesh `M^J`.
    pub final_positions: Vec<Point3>,
    /// The per-object normalisation constant (max raw detail magnitude).
    pub max_detail: f64,
}

impl WaveletMesh {
    /// Wavelet analysis: decomposes the final positions over `hierarchy`
    /// into per-level coefficients with normalised magnitudes.
    ///
    /// # Panics
    /// Panics if `final_positions` does not match the hierarchy's finest
    /// vertex count.
    pub fn analyze(mut hierarchy: SubdivisionHierarchy, final_positions: Vec<Point3>) -> Self {
        let finest = hierarchy.vertex_count_at(hierarchy.levels()) as usize;
        assert_eq!(
            final_positions.len(),
            finest,
            "positions must cover the finest mesh"
        );
        // The scheme is interpolating: base vertices never move, so the
        // base mesh's stored positions are the final positions of the first
        // `|M⁰|` vertices. Enforcing this here makes full reconstruction
        // exact by construction, whatever positions the caller passed in
        // the base.
        let base_n = hierarchy.base.vertices.len();
        hierarchy
            .base
            .vertices
            .copy_from_slice(&final_positions[..base_n]);
        let mut coeffs = Vec::with_capacity(hierarchy.total_detail_count());
        let mut level_ranges = Vec::with_capacity(hierarchy.levels());
        let mut max_detail = 0.0f64;
        for (j, step) in hierarchy.steps.iter().enumerate() {
            let start = coeffs.len();
            for (i, &(a, b)) in step.parents.iter().enumerate() {
                let v = step.new_vertex_index(i);
                let predicted = final_positions[a as usize].midpoint(&final_positions[b as usize]);
                let detail = final_positions[v as usize] - predicted;
                max_detail = max_detail.max(detail.norm());
                coeffs.push(WaveletCoeff {
                    vertex: v,
                    level: j as u8,
                    parents: (a, b),
                    detail,
                    w: 0.0, // normalised below
                });
            }
            level_ranges.push(start..coeffs.len());
        }
        if max_detail > 0.0 {
            for c in &mut coeffs {
                c.w = c.detail.norm() / max_detail;
            }
        }
        Self {
            hierarchy,
            coeffs,
            level_ranges,
            final_positions,
            max_detail,
        }
    }

    /// Number of subdivision levels.
    pub fn levels(&self) -> usize {
        self.hierarchy.levels()
    }

    /// The coefficients of level `j` (the set `W_j`).
    pub fn level_coeffs(&self, j: usize) -> &[WaveletCoeff] {
        &self.coeffs[self.level_ranges[j].clone()]
    }

    /// Iterates over coefficients selected by `band`.
    pub fn coeffs_in_band(&self, band: ResolutionBand) -> impl Iterator<Item = &WaveletCoeff> {
        self.coeffs.iter().filter(move |c| band.contains(c.w))
    }

    /// Number of coefficients selected by `band`.
    pub fn count_in_band(&self, band: ResolutionBand) -> usize {
        self.coeffs_in_band(band).count()
    }

    /// Reconstructs the finest-connectivity mesh using only the
    /// coefficients selected by `selected` (a predicate over coefficients);
    /// unselected vertices stay at their predicted midpoints.
    pub fn reconstruct_with(&self, mut selected: impl FnMut(&WaveletCoeff) -> bool) -> TriMesh {
        let finest = self.hierarchy.vertex_count_at(self.levels()) as usize;
        let mut pos = vec![Point3::ORIGIN; finest];
        let base_n = self.hierarchy.base.vertices.len();
        pos[..base_n].copy_from_slice(&self.hierarchy.base.vertices);
        for j in 0..self.levels() {
            for c in self.level_coeffs(j) {
                let (a, b) = c.parents;
                let mut p = pos[a as usize].midpoint(&pos[b as usize]);
                if selected(c) {
                    p += c.detail;
                }
                pos[c.vertex as usize] = p;
            }
        }
        TriMesh {
            vertices: pos,
            faces: self.hierarchy.faces_at(self.levels()).to_vec(),
        }
    }

    /// Reconstructs using the magnitude band (plus the always-present base
    /// mesh).
    pub fn reconstruct(&self, band: ResolutionBand) -> TriMesh {
        self.reconstruct_with(|c| band.contains(c.w))
    }

    /// Root-mean-square vertex error of a reconstruction against the
    /// original final positions.
    pub fn rms_error(&self, approx: &TriMesh) -> f64 {
        assert_eq!(approx.vertices.len(), self.final_positions.len());
        let n = self.final_positions.len() as f64;
        let sum: f64 = self
            .final_positions
            .iter()
            .zip(&approx.vertices)
            .map(|(a, b)| a.distance_sq(b))
            .sum();
        (sum / n).sqrt()
    }

    /// Position of any finest-mesh vertex.
    pub fn vertex_position(&self, v: u32) -> Point3 {
        self.final_positions[v as usize]
    }

    /// Spatial bounding box of the object (finest mesh).
    pub fn bounding_box(&self) -> mar_geom::Rect3 {
        let mut lo = self.final_positions[0];
        let mut hi = lo;
        for p in &self.final_positions[1..] {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        mar_geom::Rect3::from_corners(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subdivision::SubdivisionHierarchy;
    use crate::TriMesh;

    /// Builds a unit-sphere wavelet mesh: octahedron subdivided `levels`
    /// times, every vertex pushed onto the unit sphere.
    fn sphere(levels: usize) -> WaveletMesh {
        let (h, mut fine) = SubdivisionHierarchy::build(TriMesh::octahedron(), levels);
        for v in &mut fine.vertices {
            let n = v.to_vector().norm();
            for c in &mut v.coords {
                *c /= n;
            }
        }
        // Base positions must match the final positions of base vertices.
        let mut h = h;
        for (i, v) in h.base.vertices.iter_mut().enumerate() {
            *v = fine.vertices[i];
        }
        WaveletMesh::analyze(h, fine.vertices)
    }

    #[test]
    fn full_reconstruction_is_exact() {
        let wm = sphere(3);
        let rec = wm.reconstruct(ResolutionBand::FULL);
        let err = wm.rms_error(&rec);
        assert!(err < 1e-12, "full reconstruction error {err}");
    }

    #[test]
    fn coarsest_reconstruction_has_midpoints() {
        let wm = sphere(2);
        // The empty band keeps every inserted vertex at its midpoint.
        let rec = wm.reconstruct_with(|_| false);
        for c in &wm.coeffs {
            let (a, b) = c.parents;
            let mid = rec.vertices[a as usize].midpoint(&rec.vertices[b as usize]);
            assert!(rec.vertices[c.vertex as usize].distance(&mid) < 1e-12);
        }
    }

    #[test]
    fn w_is_normalized_and_positive_details_exist() {
        let wm = sphere(3);
        assert!(wm.max_detail > 0.0);
        let mut max_w = 0.0f64;
        for c in &wm.coeffs {
            assert!((0.0..=1.0).contains(&c.w), "w out of range: {}", c.w);
            max_w = max_w.max(c.w);
        }
        assert!((max_w - 1.0).abs() < 1e-12, "some coefficient must hit 1.0");
    }

    #[test]
    fn coefficient_magnitudes_decay_with_level() {
        // A smooth surface's details shrink as subdivision refines — the
        // property the speed→resolution mapping exploits.
        let wm = sphere(4);
        let mean_w = |j: usize| -> f64 {
            let cs = wm.level_coeffs(j);
            cs.iter().map(|c| c.w).sum::<f64>() / cs.len() as f64
        };
        let m: Vec<f64> = (0..4).map(mean_w).collect();
        assert!(m[0] > m[1] && m[1] > m[2] && m[2] > m[3], "means {m:?}");
        // Roughly quadratic decay for a sphere; at minimum a 2x drop/level.
        assert!(m[0] > 2.0 * m[1]);
    }

    #[test]
    fn error_decreases_monotonically_with_band() {
        let wm = sphere(3);
        let mut last = f64::INFINITY;
        for wmin in [1.0, 0.75, 0.5, 0.25, 0.1, 0.0] {
            let rec = wm.reconstruct(ResolutionBand::new(wmin, 1.0));
            let err = wm.rms_error(&rec);
            assert!(
                err <= last + 1e-12,
                "error must not grow as band widens: {err} > {last} at wmin={wmin}"
            );
            last = err;
        }
        assert!(last < 1e-12);
    }

    #[test]
    fn band_selection_counts_are_monotone() {
        let wm = sphere(3);
        let c_all = wm.count_in_band(ResolutionBand::FULL);
        let c_half = wm.count_in_band(ResolutionBand::new(0.5, 1.0));
        let c_top = wm.count_in_band(ResolutionBand::COARSEST);
        assert_eq!(c_all, wm.coeffs.len());
        assert!(c_half <= c_all);
        assert!(c_top <= c_half);
    }

    #[test]
    fn band_constructor_clamps_and_orders() {
        let b = ResolutionBand::new(1.5, -0.2);
        assert_eq!(b.w_min, 0.0);
        assert_eq!(b.w_max, 1.0);
        assert!(b.contains(0.5));
        assert!(ResolutionBand::COARSEST.contains(1.0));
        assert!(!ResolutionBand::COARSEST.contains(0.999));
    }

    #[test]
    fn flat_object_has_zero_details() {
        // Subdividing a flat triangle and keeping midpoints exact yields
        // zero details everywhere; w stays 0 and reconstruction is exact.
        let tri = TriMesh::new(
            vec![
                mar_geom::Point3::new([0.0, 0.0, 0.0]),
                mar_geom::Point3::new([1.0, 0.0, 0.0]),
                mar_geom::Point3::new([0.0, 1.0, 0.0]),
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let (h, fine) = SubdivisionHierarchy::build(tri, 2);
        let wm = WaveletMesh::analyze(h, fine.vertices);
        assert_eq!(wm.max_detail, 0.0);
        let rec = wm.reconstruct_with(|_| false);
        assert!(wm.rms_error(&rec) < 1e-12);
    }

    #[test]
    fn level_ranges_partition_coeffs() {
        let wm = sphere(3);
        let total: usize = (0..3).map(|j| wm.level_coeffs(j).len()).sum();
        assert_eq!(total, wm.coeffs.len());
        assert_eq!(wm.level_coeffs(0).len(), 12);
        assert_eq!(wm.level_coeffs(1).len(), 48);
        assert_eq!(wm.level_coeffs(2).len(), 192);
    }
}
