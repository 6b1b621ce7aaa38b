//! Transmission byte accounting.
//!
//! The evaluation measures "amount of data retrieved" in bytes and sizes
//! datasets as 20/40/60/80 MB. A [`SizeModel`] defines how many wire bytes
//! one wavelet coefficient and one base-mesh vertex cost; everything else
//! (frames, data sets, buffers) is derived from it.
//!
//! The default model is the natural binary encoding — a coefficient is a
//! 3 × f32 detail vector plus an f32 magnitude (16 B) and a base vertex is
//! 3 × f32 (12 B). Scene builders may instead fit `coeff_bytes` so a given
//! object population hits an exact target dataset size (the paper's
//! "60 MB = 300 objects"), which trades coefficient count against bytes per
//! coefficient without changing any retrieval *ratio* — see DESIGN.md §4.

use crate::wavelet::WaveletMesh;

/// Wire-size model for multiresolution objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeModel {
    /// Bytes to transmit one wavelet coefficient.
    pub coeff_bytes: f64,
    /// Bytes to transmit one base-mesh vertex.
    pub base_vertex_bytes: f64,
}

impl Default for SizeModel {
    fn default() -> Self {
        Self {
            coeff_bytes: 16.0,
            base_vertex_bytes: 12.0,
        }
    }
}

impl SizeModel {
    /// A model whose coefficient cost is fitted so `total_coeffs`
    /// coefficients plus `total_base_vertices` base vertices occupy exactly
    /// `target_bytes` on the wire.
    pub fn fitted(target_bytes: f64, total_coeffs: usize, total_base_vertices: usize) -> Self {
        assert!(
            total_coeffs > 0,
            "cannot fit a size model to zero coefficients"
        );
        let base_vertex_bytes = 12.0;
        let base = base_vertex_bytes * total_base_vertices as f64;
        let coeff_bytes = ((target_bytes - base) / total_coeffs as f64).max(1.0);
        Self {
            coeff_bytes,
            base_vertex_bytes,
        }
    }

    /// Bytes of one whole object at full resolution.
    pub fn object_bytes(&self, wm: &WaveletMesh) -> f64 {
        self.base_bytes(wm) + self.coeff_bytes * wm.coeffs.len() as f64
    }

    /// Bytes of the always-transmitted base mesh of an object.
    pub fn base_bytes(&self, wm: &WaveletMesh) -> f64 {
        self.base_vertex_bytes * wm.hierarchy.base.vertices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, ObjectParams};

    fn obj() -> WaveletMesh {
        generate(&ObjectParams {
            levels: 3,
            seed: 5,
            ..Default::default()
        })
    }

    #[test]
    fn default_model_binary_sizes() {
        let m = SizeModel::default();
        let wm = obj();
        assert_eq!(m.base_bytes(&wm), 12.0 * 6.0);
        assert_eq!(m.object_bytes(&wm), 12.0 * 6.0 + 16.0 * 252.0);
    }

    #[test]
    fn fitted_model_hits_target() {
        let wm = obj();
        let target = 1_000_000.0;
        let m = SizeModel::fitted(target, wm.coeffs.len(), wm.hierarchy.base.vertices.len());
        let got = m.object_bytes(&wm);
        assert!((got - target).abs() < 1.0, "got {got}");
    }

    #[test]
    fn fitted_model_floors_at_one_byte() {
        let m = SizeModel::fitted(10.0, 1000, 0);
        assert_eq!(m.coeff_bytes, 1.0);
    }
}
