//! Indexed triangle meshes.
//!
//! A [`TriMesh`] is the flat, cache-friendly representation the rest of the
//! crate works on: a vertex array and a face array of index triples. The
//! adjacency queries here (vertex neighbours, edge set, edge→faces) are
//! what the wavelet support regions and the straw-man index's
//! "neighbouring vertices" filtering (paper §IV, Figure 3) are built from.

use mar_geom::Point3;
use std::collections::{BTreeMap, BTreeSet};

/// An indexed triangle mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Point3>,
    /// Faces as CCW triples of vertex indices.
    pub faces: Vec<[u32; 3]>,
}

/// Errors found by [`TriMesh::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A face references a vertex index ≥ `vertices.len()`.
    IndexOutOfBounds {
        /// Offending face index.
        face: usize,
    },
    /// A face references the same vertex twice.
    DegenerateFace {
        /// Offending face index.
        face: usize,
    },
}

impl std::fmt::Display for MeshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshError::IndexOutOfBounds { face } => {
                write!(f, "face {face} references a vertex out of bounds")
            }
            MeshError::DegenerateFace { face } => {
                write!(f, "face {face} repeats a vertex")
            }
        }
    }
}

impl std::error::Error for MeshError {}

impl TriMesh {
    /// Creates a mesh after validating its indices.
    pub fn new(vertices: Vec<Point3>, faces: Vec<[u32; 3]>) -> Result<Self, MeshError> {
        let m = Self { vertices, faces };
        m.validate()?;
        Ok(m)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of faces.
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Checks index bounds and face non-degeneracy.
    pub fn validate(&self) -> Result<(), MeshError> {
        let n = self.vertices.len() as u32;
        for (i, f) in self.faces.iter().enumerate() {
            if f.iter().any(|&v| v >= n) {
                return Err(MeshError::IndexOutOfBounds { face: i });
            }
            if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] {
                return Err(MeshError::DegenerateFace { face: i });
            }
        }
        Ok(())
    }

    /// The set of undirected edges, as ordered `(min, max)` pairs.
    pub fn edges(&self) -> BTreeSet<(u32, u32)> {
        let mut out = BTreeSet::new();
        for f in &self.faces {
            for (a, b) in [(f[0], f[1]), (f[1], f[2]), (f[2], f[0])] {
                out.insert((a.min(b), a.max(b)));
            }
        }
        out
    }

    /// For every vertex, its neighbouring vertices (the 1-ring), sorted.
    pub fn vertex_neighbors(&self) -> Vec<Vec<u32>> {
        let mut sets = vec![BTreeSet::new(); self.vertices.len()];
        for f in &self.faces {
            for (a, b) in [(f[0], f[1]), (f[1], f[2]), (f[2], f[0])] {
                sets[a as usize].insert(b);
                sets[b as usize].insert(a);
            }
        }
        sets.into_iter().map(|s| s.into_iter().collect()).collect()
    }

    /// Map from undirected edge to the (1 or 2) faces containing it.
    pub fn edge_faces(&self) -> BTreeMap<(u32, u32), Vec<u32>> {
        let mut out: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (fi, f) in self.faces.iter().enumerate() {
            for (a, b) in [(f[0], f[1]), (f[1], f[2]), (f[2], f[0])] {
                out.entry((a.min(b), a.max(b))).or_default().push(fi as u32);
            }
        }
        out
    }

    /// True when every edge is shared by exactly two faces (a closed
    /// 2-manifold, like the generator outputs).
    pub fn is_closed(&self) -> bool {
        self.edge_faces().values().all(|fs| fs.len() == 2)
    }

    /// Euler characteristic `V − E + F` (2 for a sphere-topology mesh).
    pub fn euler_characteristic(&self) -> i64 {
        self.vertex_count() as i64 - self.edges().len() as i64 + self.face_count() as i64
    }

    /// Axis-aligned bounding box of the vertices, or `None` for an empty
    /// mesh.
    pub fn bounding_box(&self) -> Option<mar_geom::Rect3> {
        let first = *self.vertices.first()?;
        let mut lo = first;
        let mut hi = first;
        for v in &self.vertices[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some(mar_geom::Rect3::from_corners(lo, hi))
    }

    /// Total surface area (sum of triangle areas).
    pub fn surface_area(&self) -> f64 {
        self.faces
            .iter()
            .map(|f| {
                let a = self.vertices[f[0] as usize];
                let b = self.vertices[f[1] as usize];
                let c = self.vertices[f[2] as usize];
                triangle_area(&a, &b, &c)
            })
            .sum()
    }

    /// The canonical octahedron centred at the origin with unit radius —
    /// the standard closed base mesh used by the generators (6 vertices,
    /// 8 faces, genus 0).
    pub fn octahedron() -> Self {
        let vertices = vec![
            Point3::new([1.0, 0.0, 0.0]),
            Point3::new([-1.0, 0.0, 0.0]),
            Point3::new([0.0, 1.0, 0.0]),
            Point3::new([0.0, -1.0, 0.0]),
            Point3::new([0.0, 0.0, 1.0]),
            Point3::new([0.0, 0.0, -1.0]),
        ];
        let faces = vec![
            [0, 2, 4],
            [2, 1, 4],
            [1, 3, 4],
            [3, 0, 4],
            [2, 0, 5],
            [1, 2, 5],
            [3, 1, 5],
            [0, 3, 5],
        ];
        Self { vertices, faces }
    }
}

/// Area of the triangle `(a, b, c)` via the cross-product magnitude.
pub fn triangle_area(a: &Point3, b: &Point3, c: &Point3) -> f64 {
    let u = *b - *a;
    let v = *c - *a;
    let cx = u[1] * v[2] - u[2] * v[1];
    let cy = u[2] * v[0] - u[0] * v[2];
    let cz = u[0] * v[1] - u[1] * v[0];
    0.5 * (cx * cx + cy * cy + cz * cz).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octahedron_is_valid_closed_sphere() {
        let m = TriMesh::octahedron();
        assert!(m.validate().is_ok());
        assert_eq!(m.vertex_count(), 6);
        assert_eq!(m.face_count(), 8);
        assert_eq!(m.edges().len(), 12);
        assert!(m.is_closed());
        assert_eq!(m.euler_characteristic(), 2);
    }

    #[test]
    fn validation_catches_bad_indices() {
        let m = TriMesh {
            vertices: vec![Point3::ORIGIN; 3],
            faces: vec![[0, 1, 5]],
        };
        assert_eq!(m.validate(), Err(MeshError::IndexOutOfBounds { face: 0 }));
        let d = TriMesh {
            vertices: vec![Point3::ORIGIN; 3],
            faces: vec![[0, 1, 1]],
        };
        assert_eq!(d.validate(), Err(MeshError::DegenerateFace { face: 0 }));
    }

    #[test]
    fn neighbors_of_octahedron_apex() {
        let m = TriMesh::octahedron();
        let nbrs = m.vertex_neighbors();
        // Vertex 4 (+z apex) touches the four equator vertices.
        assert_eq!(nbrs[4], vec![0, 1, 2, 3]);
        // Every octahedron vertex has valence 4.
        for n in &nbrs {
            assert_eq!(n.len(), 4);
        }
    }

    #[test]
    fn edge_faces_closed_mesh() {
        let m = TriMesh::octahedron();
        let ef = m.edge_faces();
        assert_eq!(ef.len(), 12);
        assert!(ef.values().all(|v| v.len() == 2));
    }

    #[test]
    fn triangle_area_unit_right_triangle() {
        let a = Point3::new([0.0, 0.0, 0.0]);
        let b = Point3::new([1.0, 0.0, 0.0]);
        let c = Point3::new([0.0, 1.0, 0.0]);
        assert!((triangle_area(&a, &b, &c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounding_box_and_area() {
        let m = TriMesh::octahedron();
        let bb = m.bounding_box().unwrap();
        assert_eq!(bb.lo.coords, [-1.0, -1.0, -1.0]);
        assert_eq!(bb.hi.coords, [1.0, 1.0, 1.0]);
        // Octahedron surface area = 2·√3·a² with edge a = √2 ⇒ 4√3.
        assert!((m.surface_area() - 4.0 * 3.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_mesh_has_no_bbox() {
        let m = TriMesh {
            vertices: vec![],
            faces: vec![],
        };
        assert!(m.bounding_box().is_none());
        assert!(m.validate().is_ok());
    }
}
