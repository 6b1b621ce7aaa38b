//! Wavelet support regions (§VI-A).
//!
//! The *support region* of a wavelet coefficient is the part of the surface
//! the coefficient influences during reconstruction: the union of the faces
//! of the finer mesh `Mʲ⁺¹` incident to the inserted vertex (the paper's
//! polygon `(1, 4, 2, 5, 6)` for vertex 4 of Figure 1(c)). The efficient
//! index of §VI-B stores each coefficient under the *minimum bounding box*
//! of its support region, so a window query returns exactly the
//! coefficients that contribute detail anywhere inside the window — no
//! second "neighbouring vertices" round trip.

use crate::wavelet::WaveletMesh;
use mar_geom::Rect3;

/// Visits the support region of every coefficient of `wm`, in the order
/// of `wm.coeffs`: `visit(ci, ring, mbb)` receives the coefficient's index,
/// the vertices of its support polygon (the 1-ring of its vertex in
/// `Mʲ⁺¹`, the vertex included), sorted, and the polygon's minimum
/// bounding box in object space.
///
/// The MBB is taken over the *final* vertex positions, which is
/// conservative for every reconstruction level: the union of faces incident
/// to the vertex can only shrink toward the MBB as details are added.
///
/// One pass per level: the face incidence of `Mʲ⁺¹` is laid out flat
/// (counts, then offsets, then fill), and every ring is gathered into one
/// reused buffer, so the pass allocates per level, never per coefficient,
/// whatever the valence.
pub fn for_each_support(wm: &WaveletMesh, mut visit: impl FnMut(usize, &[u32], Rect3)) {
    let (mut offsets, mut incident, mut ring) = (Vec::new(), Vec::new(), Vec::new());
    for j in 0..wm.levels() {
        // Faces of the finer mesh M^{j+1} this level's coefficients act on.
        let faces = wm.hierarchy.faces_at(j + 1);
        let fine_n = wm.hierarchy.vertex_count_at(j + 1) as usize;
        // Counts land two slots up, so that after the prefix sum
        // `offsets[v + 1]` is vertex v's start and the fill, bumping it,
        // leaves v's faces at `offsets[v]..offsets[v + 1]`.
        offsets.clear();
        offsets.resize(fine_n + 2, 0u32);
        for &v in faces.iter().flatten() {
            offsets[v as usize + 2] += 1;
        }
        for v in 2..offsets.len() {
            offsets[v] += offsets[v - 1];
        }
        incident.clear();
        incident.resize(faces.len() * 3, 0u32);
        for (fi, f) in faces.iter().enumerate() {
            for &v in f {
                let at = &mut offsets[v as usize + 1];
                incident[*at as usize] = fi as u32;
                *at += 1;
            }
        }
        for ci in wm.level_ranges[j].clone() {
            let vertex = wm.coeffs[ci].vertex as usize;
            ring.clear();
            for &fi in &incident[offsets[vertex] as usize..offsets[vertex + 1] as usize] {
                ring.extend_from_slice(&faces[fi as usize]);
            }
            ring.sort_unstable();
            ring.dedup();
            debug_assert!(ring.binary_search(&(vertex as u32)).is_ok());
            let mut lo = wm.final_positions[vertex];
            let mut hi = lo;
            for &v in &ring {
                let p = wm.final_positions[v as usize];
                lo = lo.min(&p);
                hi = hi.max(&p);
            }
            visit(ci, &ring, Rect3::from_corners(lo, hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, ObjectKind, ObjectParams};
    use crate::subdivision::SubdivisionHierarchy;
    use crate::wavelet::WaveletMesh;
    use crate::TriMesh;
    use mar_geom::Point3;
    use std::collections::BTreeSet;

    /// One support region as the visitor reports it.
    type Region = (usize, Vec<u32>, Rect3);

    fn regions(wm: &WaveletMesh) -> Vec<Region> {
        let mut out = Vec::new();
        for_each_support(wm, |ci, ring, mbb| out.push((ci, ring.to_vec(), mbb)));
        out
    }

    /// The per-coefficient `BTreeSet` pass the visitor replaced (a
    /// `Vec<Vec<u32>>` incidence per level, a set per ring), kept as the
    /// oracle it must match ring for ring and bit for bit.
    fn regions_btree(wm: &WaveletMesh) -> Vec<Region> {
        let mut out = Vec::new();
        for j in 0..wm.levels() {
            let faces = wm.hierarchy.faces_at(j + 1);
            let fine_n = wm.hierarchy.vertex_count_at(j + 1) as usize;
            let mut incident: Vec<Vec<u32>> = vec![Vec::new(); fine_n];
            for (fi, f) in faces.iter().enumerate() {
                for &v in f {
                    incident[v as usize].push(fi as u32);
                }
            }
            for ci in wm.level_ranges[j].clone() {
                let c = &wm.coeffs[ci];
                let mut ring: BTreeSet<u32> = BTreeSet::new();
                for &fi in &incident[c.vertex as usize] {
                    ring.extend(faces[fi as usize]);
                }
                let mut lo = wm.vertex_position(c.vertex);
                let mut hi = lo;
                for &v in &ring {
                    let p = wm.vertex_position(v);
                    lo = lo.min(&p);
                    hi = hi.max(&p);
                }
                out.push((ci, ring.into_iter().collect(), Rect3::from_corners(lo, hi)));
            }
        }
        out
    }

    fn bits(r: &Rect3) -> [u64; 6] {
        let c = |p: Point3| p.coords.map(f64::to_bits);
        let (lo, hi) = (c(r.lo), c(r.hi));
        [lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]]
    }

    fn assert_matches_oracle(wm: &WaveletMesh) {
        let (got, expect) = (regions(wm), regions_btree(wm));
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!((g.0, &g.1), (e.0, &e.1), "ring of coefficient {}", e.0);
            assert_eq!(bits(&g.2), bits(&e.2), "MBB of coefficient {}", e.0);
        }
    }

    fn sphere(levels: usize) -> WaveletMesh {
        let (h, mut fine) = SubdivisionHierarchy::build(TriMesh::octahedron(), levels);
        for v in &mut fine.vertices {
            let n = v.to_vector().norm();
            for c in &mut v.coords {
                *c /= n;
            }
        }
        WaveletMesh::analyze(h, fine.vertices)
    }

    /// A disc of `spokes` triangles around vertex 0, lifted onto a wavy
    /// surface: vertex 0 has valence `spokes` at every level.
    fn fan(spokes: u32, levels: usize) -> WaveletMesh {
        let rim = (0..spokes).map(|i| {
            let a = f64::from(i) * std::f64::consts::TAU / f64::from(spokes);
            Point3::new([a.cos(), a.sin(), 0.0])
        });
        let vertices = std::iter::once(Point3::ORIGIN).chain(rim).collect();
        let faces = (1..=spokes).map(|i| [0, i, i % spokes + 1]).collect();
        let (h, mut fine) =
            SubdivisionHierarchy::build(TriMesh::new(vertices, faces).unwrap(), levels);
        for v in &mut fine.vertices {
            v[2] = (3.0 * v[0]).sin() * (2.0 * v[1]).cos();
        }
        WaveletMesh::analyze(h, fine.vertices)
    }

    #[test]
    fn the_flat_pass_matches_the_btreeset_rings_and_boxes() {
        assert_matches_oracle(&sphere(4));
        let terrain = generate(&ObjectParams {
            kind: ObjectKind::Terrain,
            levels: 4,
            seed: 7,
            center: Point3::new([10.0, -4.0, 0.0]),
            radius: 8.0,
            detail: 0.3,
        });
        assert_matches_oracle(&terrain);
        let fan = fan(40, 3);
        assert!(
            fan.hierarchy
                .faces_at(3)
                .iter()
                .filter(|f| f.contains(&0))
                .count()
                > 32
        );
        assert_matches_oracle(&fan);
    }

    #[test]
    fn one_region_per_coefficient_in_order() {
        let wm = sphere(2);
        let regions = regions(&wm);
        assert_eq!(regions.len(), wm.coeffs.len());
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.0, i);
            assert!(r.1.contains(&wm.coeffs[i].vertex));
        }
    }

    #[test]
    fn mbb_contains_vertex_and_parents() {
        let wm = sphere(2);
        for ((_, _, mbb), c) in regions(&wm).iter().zip(&wm.coeffs) {
            assert!(mbb.contains_point(&wm.vertex_position(c.vertex)));
            // In quadrisection the inserted vertex's 1-ring includes both
            // parents, so the MBB must cover them.
            assert!(mbb.contains_point(&wm.vertex_position(c.parents.0)));
            assert!(mbb.contains_point(&wm.vertex_position(c.parents.1)));
        }
    }

    #[test]
    fn ring_matches_mesh_one_ring() {
        let wm = sphere(2);
        // Cross-check the rings of the last level's coefficients against
        // the finest mesh's adjacency.
        let finest = TriMesh {
            vertices: wm.final_positions.clone(),
            faces: wm.hierarchy.faces_at(wm.levels()).to_vec(),
        };
        let nbrs = finest.vertex_neighbors();
        for (ci, ring, _) in regions(&wm) {
            let c = &wm.coeffs[ci];
            if c.level as usize != wm.levels() - 1 {
                continue;
            }
            // ring = 1-ring ∪ {vertex}
            let mut expect = nbrs[c.vertex as usize].clone();
            expect.push(c.vertex);
            expect.sort_unstable();
            assert_eq!(ring, expect, "ring mismatch at vertex {}", c.vertex);
        }
    }

    #[test]
    fn deeper_levels_have_smaller_support() {
        let wm = sphere(3);
        let regions = regions(&wm);
        let mean_vol = |lvl: u8| -> f64 {
            let vols: Vec<f64> = regions
                .iter()
                .filter(|r| wm.coeffs[r.0].level == lvl)
                .map(|r| r.2.volume())
                .collect();
            vols.iter().sum::<f64>() / vols.len() as f64
        };
        let v0 = mean_vol(0);
        let v1 = mean_vol(1);
        let v2 = mean_vol(2);
        assert!(v0 > v1 && v1 > v2, "support volumes {v0} {v1} {v2}");
    }

    #[test]
    fn paper_figure1_support_polygon() {
        // One triangle subdivided once: each of the 3 coefficients has a
        // ring of {itself, both parents, the other two midpoints} = 5
        // vertices (the paper's polygon (1,4,2,5,6)).
        let tri = TriMesh::new(
            vec![
                Point3::new([0.0, 0.0, 0.0]),
                Point3::new([2.0, 0.0, 0.0]),
                Point3::new([0.0, 2.0, 0.0]),
            ],
            vec![[0, 1, 2]],
        )
        .unwrap();
        let (h, fine) = SubdivisionHierarchy::build(tri, 1);
        let wm = WaveletMesh::analyze(h, fine.vertices);
        let regions = regions(&wm);
        assert_eq!(regions.len(), 3);
        for (_, ring, _) in &regions {
            assert_eq!(ring.len(), 5, "ring {ring:?}");
        }
    }
}
