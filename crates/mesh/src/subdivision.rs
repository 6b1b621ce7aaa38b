//! Midpoint (quadrisection) subdivision — the paper's Figures 1(b)/2(b).
//!
//! One [`subdivide`] step splits every triangle into four by inserting a new
//! vertex at each edge midpoint. The step records, for every new vertex,
//! the *parent edge* it was born on; the wavelet transform later uses this
//! parentage both for prediction (midpoint of the parents) and to locate
//! the coefficient's support region.
//!
//! A [`SubdivisionHierarchy`] stacks `J` steps on top of a base mesh and
//! owns the connectivity of every intermediate level; vertex indices are
//! stable across levels (level `j+1` extends level `j`'s vertex array), so
//! "vertex 17" means the same point of the surface at every level where it
//! exists.

use crate::mesh::TriMesh;
use mar_geom::Point3;

/// The connectivity delta of one subdivision step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubdivisionStep {
    /// Number of vertices in the coarse mesh this step refines.
    pub coarse_vertex_count: u32,
    /// Parent edge of each new vertex: new vertex `coarse_vertex_count + i`
    /// sits on the edge `parents[i]` (stored as `(min, max)`).
    pub parents: Vec<(u32, u32)>,
    /// Faces of the refined mesh.
    pub faces: Vec<[u32; 3]>,
}

impl SubdivisionStep {
    /// Number of vertices introduced by this step (= number of coarse edges).
    pub fn new_vertex_count(&self) -> usize {
        self.parents.len()
    }

    /// Number of vertices in the refined mesh.
    pub fn fine_vertex_count(&self) -> u32 {
        self.coarse_vertex_count + self.parents.len() as u32
    }

    /// Global index of the `i`-th new vertex.
    pub fn new_vertex_index(&self, i: usize) -> u32 {
        self.coarse_vertex_count + i as u32
    }
}

/// Splits every face of `mesh` into four, placing new vertices exactly at
/// edge midpoints (the un-deformed mesh of Figure 1(b); callers displace
/// the midpoints afterwards to fit the target surface).
///
/// Returns the refined mesh and the connectivity step.
pub fn subdivide(mesh: &TriMesh) -> (TriMesh, SubdivisionStep) {
    let mut vertices = mesh.vertices.clone();
    let step = refine(&mut vertices, &mesh.faces, mesh.faces.len().div_ceil(2) * 3);
    let faces = step.faces.clone();
    (TriMesh { vertices, faces }, step)
}

/// One subdivision step in place: appends the midpoint of every edge of
/// `coarse` to `vertices`, numbered in order of first occurrence, and
/// returns the step. `edges` is the expected edge count; it sizes the
/// vertex and parent arrays, which grow past it if it was short.
fn refine(vertices: &mut Vec<Point3>, coarse: &[[u32; 3]], edges: usize) -> SubdivisionStep {
    let coarse_vertex_count = vertices.len() as u32;
    vertices.reserve_exact(edges);
    let mut parents = Vec::with_capacity(edges);
    let mut table = EdgeTable::for_faces(coarse.len());
    let mut faces = Vec::with_capacity(coarse.len() * 4);
    let mut midpoint = |a: u32, b: u32| -> u32 {
        let key = (a.min(b), a.max(b));
        table.get_or_insert(key, || {
            let p = vertices[a as usize].midpoint(&vertices[b as usize]);
            vertices.push(p);
            parents.push(key);
            vertices.len() as u32 - 1
        })
    };
    for &[a, b, c] in coarse {
        let ab = midpoint(a, b);
        let bc = midpoint(b, c);
        let ca = midpoint(c, a);
        faces.push([a, ab, ca]);
        faces.push([ab, b, bc]);
        faces.push([ca, bc, c]);
        faces.push([ab, bc, ca]);
    }
    SubdivisionStep {
        coarse_vertex_count,
        parents,
        faces,
    }
}

/// The midpoint vertex of each edge seen so far, keyed by `(min, max)`:
/// open addressing with linear probing over one array that never grows.
/// A mesh of `F` faces has at most `3F` edges and the table has at least
/// `4F` slots, so every probe sequence reaches an empty slot. The hash is
/// a fixed multiplier, so the probe order is the same on every run (it
/// decides nothing visible anyway: numbering follows the faces).
struct EdgeTable {
    slots: Vec<(u64, u32)>,
    shift: u32,
}

impl EdgeTable {
    /// No edge `(min, max)` packs to this: it would need `min == max == u32::MAX`.
    const EMPTY: u64 = u64::MAX;

    fn for_faces(faces: usize) -> Self {
        let len = (4 * faces).next_power_of_two().max(2);
        Self {
            slots: vec![(Self::EMPTY, 0); len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The value stored under `(lo, hi)`, storing `fresh()` on first sight.
    fn get_or_insert(&mut self, (lo, hi): (u32, u32), fresh: impl FnOnce() -> u32) -> u32 {
        let key = (u64::from(lo) << 32) | u64::from(hi);
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let (k, value) = self.slots[i];
            if k == key {
                return value;
            }
            if k == Self::EMPTY {
                let value = fresh();
                self.slots[i] = (key, value);
                return value;
            }
            i = (i + 1) & mask;
        }
    }
}

/// A base mesh plus `J` recorded subdivision steps.
///
/// The hierarchy owns connectivity only; vertex *positions* of the final
/// mesh live in the [`crate::wavelet::WaveletMesh`] that analysis produces
/// (base positions + details).
#[derive(Debug, Clone, PartialEq)]
pub struct SubdivisionHierarchy {
    /// The coarse base mesh `M⁰` (positions here are the base positions).
    pub base: TriMesh,
    /// One connectivity step per level, `steps[j]` turning `Mʲ` into `Mʲ⁺¹`.
    pub steps: Vec<SubdivisionStep>,
}

impl SubdivisionHierarchy {
    /// Subdivides `base` `levels` times, returning the hierarchy and the
    /// final mesh with all new vertices at exact midpoints (no detail yet).
    pub fn build(base: TriMesh, levels: usize) -> (Self, TriMesh) {
        let mut steps: Vec<SubdivisionStep> = Vec::with_capacity(levels);
        let mut vertices = base.vertices.clone();
        // After the first step the edge count is exact: each edge splits in
        // two and each face gains three inner edges.
        let mut edges = base.faces.len().div_ceil(2) * 3;
        for _ in 0..levels {
            let coarse = steps.last().map_or(&base.faces[..], |s| &s.faces[..]);
            let step = refine(&mut vertices, coarse, edges);
            edges = 2 * step.new_vertex_count() + 3 * coarse.len();
            steps.push(step);
        }
        let faces = steps.last().map_or(&base.faces, |s| &s.faces).clone();
        (Self { base, steps }, TriMesh { vertices, faces })
    }

    /// Number of subdivision levels `J`.
    pub fn levels(&self) -> usize {
        self.steps.len()
    }

    /// Vertex count of the level-`j` mesh (`j = 0` is the base).
    pub fn vertex_count_at(&self, j: usize) -> u32 {
        if j == 0 {
            self.base.vertices.len() as u32
        } else {
            self.steps[j - 1].fine_vertex_count()
        }
    }

    /// Faces of the level-`j` mesh.
    pub fn faces_at(&self, j: usize) -> &[[u32; 3]] {
        if j == 0 {
            &self.base.faces
        } else {
            &self.steps[j - 1].faces
        }
    }

    /// Total number of wavelet coefficients the hierarchy will produce
    /// (= total number of inserted vertices).
    pub fn total_detail_count(&self) -> usize {
        self.steps.iter().map(|s| s.new_vertex_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_geom::Point3;

    /// The `BTreeMap` subdivision the edge table replaced, kept as the
    /// oracle it must match: vertices, `parents` and faces.
    fn subdivide_btree(mesh: &TriMesh) -> (TriMesh, SubdivisionStep) {
        use std::collections::BTreeMap;
        let nv = mesh.vertices.len() as u32;
        let mut vertices = mesh.vertices.clone();
        let mut parents = Vec::new();
        let mut midpoint_of: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut faces = Vec::new();
        let mut midpoint = |a: u32, b: u32, vertices: &mut Vec<Point3>| -> u32 {
            let key = (a.min(b), a.max(b));
            *midpoint_of.entry(key).or_insert_with(|| {
                let idx = vertices.len() as u32;
                let p = vertices[a as usize].midpoint(&vertices[b as usize]);
                vertices.push(p);
                parents.push(key);
                idx
            })
        };
        for &[a, b, c] in &mesh.faces {
            let ab = midpoint(a, b, &mut vertices);
            let bc = midpoint(b, c, &mut vertices);
            let ca = midpoint(c, a, &mut vertices);
            faces.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]);
        }
        let step = SubdivisionStep {
            coarse_vertex_count: nv,
            parents,
            faces: faces.clone(),
        };
        (TriMesh { vertices, faces }, step)
    }

    /// Two triangles over a square, as `generate`'s terrain patch builds it.
    fn terrain_patch() -> TriMesh {
        let (c, r) = ([3.5, -2.0, 0.25], 40.0);
        TriMesh::new(
            vec![
                Point3::new([c[0] - r, c[1] - r, c[2]]),
                Point3::new([c[0] + r, c[1] - r, c[2]]),
                Point3::new([c[0] + r, c[1] + r, c[2]]),
                Point3::new([c[0] - r, c[1] + r, c[2]]),
            ],
            vec![[0, 1, 2], [0, 2, 3]],
        )
        .unwrap()
    }

    /// Two triangles sharing one edge, wound the other way round.
    fn quad() -> TriMesh {
        TriMesh::new(
            vec![
                Point3::new([0.0, 0.0, 0.0]),
                Point3::new([1.0, 0.0, 0.0]),
                Point3::new([1.0, 1.0, 0.0]),
                Point3::new([0.0, 1.0, 0.0]),
            ],
            vec![[0, 1, 2], [2, 3, 0]],
        )
        .unwrap()
    }

    #[test]
    fn the_edge_table_subdivides_exactly_like_the_btreemap() {
        for base in [TriMesh::octahedron(), terrain_patch(), quad()] {
            for levels in 1..=4 {
                let (h, fine) = SubdivisionHierarchy::build(base.clone(), levels);
                let mut current = base.clone();
                for (j, step) in h.steps.iter().enumerate() {
                    let (finer, expect) = subdivide_btree(&current);
                    assert_eq!(step, &expect, "level {j} of {levels}");
                    assert_eq!(subdivide(&current), (finer.clone(), expect));
                    current = finer;
                }
                assert_eq!(fine, current);
            }
        }
    }

    #[test]
    fn one_step_counts() {
        let base = TriMesh::octahedron();
        let (fine, step) = subdivide(&base);
        // 12 edges -> 12 new vertices; 8 faces -> 32 faces.
        assert_eq!(step.new_vertex_count(), 12);
        assert_eq!(fine.vertex_count(), 18);
        assert_eq!(fine.face_count(), 32);
        assert!(fine.validate().is_ok());
        assert!(fine.is_closed());
        assert_eq!(fine.euler_characteristic(), 2);
    }

    #[test]
    fn new_vertices_sit_on_edge_midpoints() {
        let base = TriMesh::octahedron();
        let (fine, step) = subdivide(&base);
        for (i, &(a, b)) in step.parents.iter().enumerate() {
            let v = fine.vertices[step.new_vertex_index(i) as usize];
            let mid = base.vertices[a as usize].midpoint(&base.vertices[b as usize]);
            assert!(v.distance(&mid) < 1e-12);
        }
    }

    #[test]
    fn old_vertices_keep_positions_and_indices() {
        let base = TriMesh::octahedron();
        let (fine, _) = subdivide(&base);
        for (i, v) in base.vertices.iter().enumerate() {
            assert_eq!(&fine.vertices[i], v);
        }
    }

    #[test]
    fn hierarchy_counts_match_closed_form() {
        // Octahedron: E_j = 12·4^j, so details per level are 12, 48, 192 …
        let (h, finest) = SubdivisionHierarchy::build(TriMesh::octahedron(), 3);
        assert_eq!(h.levels(), 3);
        assert_eq!(h.steps[0].new_vertex_count(), 12);
        assert_eq!(h.steps[1].new_vertex_count(), 48);
        assert_eq!(h.steps[2].new_vertex_count(), 192);
        assert_eq!(h.total_detail_count(), 252);
        assert_eq!(finest.vertex_count(), 6 + 252);
        assert_eq!(finest.face_count(), 8 * 64);
        assert!(finest.is_closed());
    }

    #[test]
    fn vertex_counts_at_levels() {
        let (h, _) = SubdivisionHierarchy::build(TriMesh::octahedron(), 2);
        assert_eq!(h.vertex_count_at(0), 6);
        assert_eq!(h.vertex_count_at(1), 18);
        assert_eq!(h.vertex_count_at(2), 66);
        assert_eq!(h.faces_at(0).len(), 8);
        assert_eq!(h.faces_at(1).len(), 32);
        assert_eq!(h.faces_at(2).len(), 128);
    }

    #[test]
    fn subdividing_single_triangle() {
        // The paper's Figure 1: one triangle, three midpoints, four faces.
        let tri = TriMesh::new(
            vec![
                Point3::new([0.0, 0.0, 0.0]),
                Point3::new([1.0, 0.0, 0.0]),
                Point3::new([0.0, 1.0, 0.0]),
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let (fine, step) = subdivide(&tri);
        assert_eq!(step.new_vertex_count(), 3);
        assert_eq!(fine.face_count(), 4);
        // Total area preserved by midpoint split.
        assert!((fine.surface_area() - tri.surface_area()).abs() < 1e-12);
    }

    #[test]
    fn shared_edges_get_one_midpoint() {
        // Two triangles sharing an edge: 5 edges -> 5 new vertices, not 6.
        let quad = TriMesh::new(
            vec![
                Point3::new([0.0, 0.0, 0.0]),
                Point3::new([1.0, 0.0, 0.0]),
                Point3::new([1.0, 1.0, 0.0]),
                Point3::new([0.0, 1.0, 0.0]),
            ],
            vec![[0, 1, 2], [0, 2, 3]],
        )
        .unwrap();
        let (_, step) = subdivide(&quad);
        assert_eq!(step.new_vertex_count(), 5);
    }
}
