//! Golden-output regression test: regenerates every table of
//! `EXPERIMENTS` at a reduced scale and asserts each CSV is byte-identical
//! to its committed fixture.
//!
//! The full reproduction (`results/*.csv`) is the real determinism
//! contract, but it takes too long for the test suite. This pins all 19
//! tables scaled down instead, and fig13a (the index path), fig10a and
//! fig14 (the buffered client's two gauges: cache hit rate and response
//! time) in tests of their own: any change that perturbs float operation
//! order or values anywhere along the pipeline (scene generation,
//! prediction, indexing, query counting, prefetch planning, the sweep's
//! seed means) shows up here as a one-line diff.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! MAR_UPDATE_GOLDEN=1 cargo test -p mar-bench --test golden
//! ```
//!
//! then re-run without the variable and commit the updated fixture.

use mar_bench::engine::Engine;
use mar_bench::{figs, Scale, Table, EXPERIMENTS};
use mar_workload::Placement;

/// The reduced scale: same shape as `Scale::quick`, small enough that
/// every table builds in seconds unoptimised, and the smallest at which
/// no fixture can pass vacuously — no series column is zero in every
/// row, and fig12's and fig13b's two indexes read different I/O. Fewer
/// objects or ticks, or one tour seed, zero out a retrieval or response
/// time column.
fn small_scale() -> Scale {
    let mut s = Scale::quick();
    s.ticks = 60;
    s.speeds = vec![0.5];
    s.objects_default = 16;
    s.levels = 2;
    s.tour_seeds = vec![101, 202];
    s
}

/// Compares `table` with `tests/golden/<id>_small.csv`, or rewrites the
/// fixture under `MAR_UPDATE_GOLDEN`.
fn check_golden(table: &Table) {
    let golden_path = format!(
        "{}/tests/golden/{}_small.csv",
        env!("CARGO_MANIFEST_DIR"),
        table.id
    );
    let csv = table.to_csv();

    if std::env::var_os("MAR_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &csv).expect("write golden fixture");
        eprintln!("updated {golden_path}");
        return;
    }

    let golden = std::fs::read_to_string(&golden_path)
        .expect("missing golden fixture; run with MAR_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        csv, golden,
        "{} output drifted from the committed golden CSV; if the \
         change is intentional, regenerate with MAR_UPDATE_GOLDEN=1",
        table.id
    );
}

#[test]
fn fig13a_small_matches_golden_csv() {
    check_golden(&figs::fig13a(&Engine::serial(), &small_scale()));
}

#[test]
fn fig10a_small_matches_golden_csv() {
    check_golden(&figs::fig10(&Engine::serial(), &small_scale()).0);
}

#[test]
fn fig14_small_matches_golden_csv() {
    check_golden(&figs::fig14_15(
        &Engine::serial(),
        &small_scale(),
        Placement::Uniform,
    ));
}

/// Every table of the registry, figures and ablations, at the reduced
/// scale. The only test in this binary that runs `abl_store`, whose
/// scratch page file is named per process.
#[test]
fn every_experiment_small_matches_golden_csv() {
    let (engine, scale) = (Engine::serial(), small_scale());
    for experiment in EXPERIMENTS {
        for table in (experiment.run)(&engine, &scale) {
            check_golden(&table);
        }
    }
}
