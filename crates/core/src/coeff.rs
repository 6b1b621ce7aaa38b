//! Scene-wide coefficient records: the unit of indexing and transmission.

use mar_geom::{Point2, Rect2};
use mar_mesh::support::for_each_support;
use mar_workload::Scene;

/// Identity of one wavelet coefficient within a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoeffRef {
    /// Object id within the scene.
    pub object: u32,
    /// Index into that object's `coeffs` array.
    pub coeff: u32,
}

/// Everything the server's indexes need to know about one coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoeffRecord {
    /// Which coefficient this is.
    pub id: CoeffRef,
    /// Normalised magnitude `w ∈ [0, 1]`.
    pub w: f64,
    /// Subdivision level.
    pub level: u8,
    /// Ground-plane MBR of the coefficient's support region (§VI-A).
    pub support_xy: Rect2,
    /// Ground-plane position of the coefficient's vertex (what the naive
    /// point index stores).
    pub vertex_xy: Point2,
}

/// Per-scene derived data shared by every index and the server: one record
/// per coefficient, plus per-object footprints and byte sizes.
#[derive(Debug, Clone)]
pub struct SceneIndexData {
    /// All coefficient records, ordered by object then coefficient index.
    pub records: Vec<CoeffRecord>,
    /// Ground-plane footprint of each object.
    pub footprints: Vec<Rect2>,
    /// Wire bytes of one coefficient.
    pub coeff_bytes: f64,
    /// Wire bytes of each object's base mesh.
    pub base_bytes: Vec<f64>,
    /// Wire bytes of each object at full resolution.
    pub object_bytes: Vec<f64>,
    /// Number of coefficients of each object: `CoeffRef::coeff` of object
    /// `o` ranges over `0..coeff_counts[o]`. Sizes (and bounds) the
    /// per-object bitmaps of [`crate::SentFilter`]. Scene-wide even in a
    /// fleet shard's data, whose `records` are a subset but whose ids stay
    /// global.
    pub coeff_counts: Vec<u32>,
    /// Every coefficient magnitude, sorted ascending (`total_cmp`).
    /// Computed once at build time so the per-run planning closures in the
    /// system and buffer simulations (`bytes_per_block`) can
    /// `partition_point` directly instead of re-sorting per run.
    pub sorted_w: Vec<f64>,
}

impl SceneIndexData {
    /// Extracts records from a generated scene (support regions are
    /// computed here, once, and shared by all indexes).
    pub fn build(scene: &Scene) -> Self {
        let mut records = Vec::with_capacity(scene.total_coeffs());
        let mut footprints = Vec::with_capacity(scene.objects.len());
        let mut base_bytes = Vec::with_capacity(scene.objects.len());
        let mut object_bytes = Vec::with_capacity(scene.objects.len());
        let mut coeff_counts = Vec::with_capacity(scene.objects.len());
        for obj in &scene.objects {
            let mesh = &obj.mesh;
            for_each_support(mesh, |ci, _, mbb| {
                let c = &mesh.coeffs[ci];
                let v = mesh.vertex_position(c.vertex);
                records.push(CoeffRecord {
                    id: CoeffRef {
                        object: obj.id,
                        coeff: ci as u32,
                    },
                    w: c.w,
                    level: c.level,
                    support_xy: Rect2::from_corners(
                        Point2::new([mbb.lo[0], mbb.lo[1]]),
                        Point2::new([mbb.hi[0], mbb.hi[1]]),
                    ),
                    vertex_xy: Point2::new([v[0], v[1]]),
                });
            });
            footprints.push(obj.footprint());
            base_bytes.push(scene.size_model.base_bytes(&obj.mesh));
            object_bytes.push(scene.size_model.object_bytes(&obj.mesh));
            coeff_counts.push(obj.mesh.coeffs.len() as u32);
        }
        let mut sorted_w: Vec<f64> = records.iter().map(|r| r.w).collect();
        sorted_w.sort_by(f64::total_cmp);
        Self {
            records,
            footprints,
            coeff_bytes: scene.size_model.coeff_bytes,
            base_bytes,
            object_bytes,
            coeff_counts,
            sorted_w,
        }
    }

    /// Number of coefficient records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the scene had no coefficients.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mar_workload::{Placement, Scene, SceneConfig};

    fn tiny_scene() -> Scene {
        let mut cfg = SceneConfig::paper(4, 11);
        cfg.levels = 2;
        cfg.placement = Placement::Uniform;
        cfg.target_bytes = 100_000.0;
        Scene::generate(cfg)
    }

    #[test]
    fn one_record_per_coefficient() {
        let scene = tiny_scene();
        let data = SceneIndexData::build(&scene);
        assert_eq!(data.len(), scene.total_coeffs());
        assert_eq!(data.footprints.len(), 4);
        // Per-object counts bound every id: record k of object o is
        // `CoeffRef { object: o, coeff: k }` with `k < coeff_counts[o]`.
        assert_eq!(data.coeff_counts.len(), 4);
        assert_eq!(
            data.coeff_counts.iter().map(|&n| n as usize).sum::<usize>(),
            data.len()
        );
        for r in &data.records {
            assert!(r.id.coeff < data.coeff_counts[r.id.object as usize]);
        }
    }

    #[test]
    fn support_contains_every_ring_vertex() {
        // The support polygon is the union of the faces of M^{j+1} around
        // the vertex: its MBR is also the naive index's "neighbouring
        // vertices" box.
        let scene = tiny_scene();
        let data = SceneIndexData::build(&scene);
        let mut records = data.records.iter();
        for obj in &scene.objects {
            for c in &obj.mesh.coeffs {
                let r = records.next().unwrap();
                assert!(r.support_xy.contains_point(&r.vertex_xy));
                let faces = obj.mesh.hierarchy.faces_at(usize::from(c.level) + 1);
                for f in faces.iter().filter(|f| f.contains(&c.vertex)) {
                    for &v in f {
                        let p = obj.mesh.vertex_position(v);
                        assert!(r.support_xy.contains_point(&Point2::new([p[0], p[1]])));
                    }
                }
            }
        }
    }

    #[test]
    fn supports_inside_object_footprint() {
        let scene = tiny_scene();
        let data = SceneIndexData::build(&scene);
        for r in &data.records {
            let fp = &data.footprints[r.id.object as usize];
            assert!(
                fp.contains_rect(&r.support_xy),
                "support {:?} outside footprint {:?}",
                r.support_xy,
                fp
            );
        }
    }

    #[test]
    fn byte_accounting_consistent() {
        let scene = tiny_scene();
        let data = SceneIndexData::build(&scene);
        let total: f64 = data.object_bytes.iter().sum();
        assert!((total - scene.total_bytes()).abs() < 1.0);
        for (i, ob) in data.object_bytes.iter().enumerate() {
            let coeffs_of_obj = data
                .records
                .iter()
                .filter(|r| r.id.object == i as u32)
                .count();
            let expect = data.base_bytes[i] + data.coeff_bytes * coeffs_of_obj as f64;
            assert!((ob - expect).abs() < 1e-6);
        }
    }
}
