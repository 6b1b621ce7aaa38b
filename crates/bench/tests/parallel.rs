//! The determinism contract of the parallel sweep engine: worker count
//! changes wall-clock time only, never a single output byte.

use mar_bench::engine::Engine;
use mar_bench::{figs, Scale, EXPERIMENTS};
use mar_workload::Placement;
use std::sync::Arc;

/// A scale small enough to run every figure twice in a debug-mode test,
/// but with ≥2 speeds and ≥2 seeds so the sweeps genuinely fan out.
fn tiny() -> Scale {
    Scale {
        ticks: 40,
        speeds: vec![0.25, 1.0],
        objects_default: 12,
        levels: 2,
        tour_seeds: vec![101, 202],
    }
}

/// `(id, CSV)` of every table the registry's figures (`ablation` false)
/// or ablations (`ablation` true) produce on `engine`, in registry order.
fn csv_of(ablation: bool, engine: &Engine, scale: &Scale) -> Vec<(String, String)> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.ablation == ablation)
        .flat_map(|e| {
            let tables = (e.run)(engine, scale);
            let ids: Vec<&str> = tables.iter().map(|t| t.id).collect();
            assert_eq!(
                ids, e.ids,
                "{} writes other tables than it registers",
                e.name
            );
            tables
        })
        .map(|t| (t.id.to_string(), t.to_csv()))
        .collect()
}

#[test]
fn figures_are_byte_identical_serial_vs_parallel() {
    let scale = tiny();
    let serial = csv_of(false, &Engine::serial(), &scale);
    let parallel = csv_of(false, &Engine::new(4), &scale);
    assert_eq!(serial.len(), parallel.len());
    for ((sid, scsv), (pid, pcsv)) in serial.iter().zip(&parallel) {
        assert_eq!(sid, pid, "table order must not depend on worker count");
        assert_eq!(
            scsv, pcsv,
            "{sid}: CSV differs between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn ablations_are_byte_identical_serial_vs_parallel() {
    let scale = tiny();
    let serial = csv_of(true, &Engine::serial(), &scale);
    let parallel = csv_of(true, &Engine::new(4), &scale);
    assert_eq!(serial.len(), parallel.len());
    for ((sid, scsv), (pid, pcsv)) in serial.iter().zip(&parallel) {
        assert_eq!(sid, pid);
        assert_eq!(
            scsv, pcsv,
            "{sid}: CSV differs between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn cached_scene_is_identical_to_fresh_generation() {
    let scale = tiny();
    let engine = Engine::new(2);
    let cached = engine.scene(&scale, scale.objects_default, Placement::Uniform);
    let fresh = figs::build_scene(&scale, scale.objects_default, Placement::Uniform);
    // Scene carries no interior mutability, so the Debug form is a full
    // structural fingerprint.
    assert_eq!(
        format!("{cached:?}"),
        format!("{fresh:?}"),
        "cache must hand out exactly what Scene::generate produces"
    );
    let again = engine.scene(&scale, scale.objects_default, Placement::Uniform);
    assert!(
        Arc::ptr_eq(&cached, &again),
        "repeat lookup must reuse the cached scene, not rebuild"
    );
    assert_eq!(engine.cache().len(), 1);
}

#[test]
fn engine_reuse_across_figures_shares_one_default_scene() {
    // fig8, fig9a, fig12 and fig13a all sweep the default uniform scene;
    // one engine must build it exactly once.
    let scale = tiny();
    let engine = Engine::new(2);
    let _ = figs::fig8(&engine, &scale);
    let _ = figs::fig9a(&engine, &scale);
    let _ = figs::fig12(&engine, &scale);
    let _ = figs::fig13a(&engine, &scale);
    assert_eq!(
        engine.cache().len(),
        1,
        "shared default scene must be generated once"
    );
}
