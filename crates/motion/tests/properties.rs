//! Property tests for the motion predictor and its probability pipeline.

use mar_geom::{GridSpec, Point2, Rect2, SectorPartition};
use mar_motion::probability::{direction_probabilities, gaussian_block_probabilities};
use mar_motion::MotionPredictor;
use proptest::prelude::*;

fn grid() -> GridSpec {
    GridSpec::new(
        Rect2::new(Point2::new([0.0, 0.0]), Point2::new([1000.0, 1000.0])),
        25,
        25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Predictions stay finite under arbitrary bounded trajectories.
    #[test]
    fn predictions_always_finite(
        steps in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..80),
        horizon in 1u32..20,
    ) {
        let mut p = MotionPredictor::new();
        for (x, y) in &steps {
            p.observe(Point2::new([*x, *y]));
        }
        let pred = p.predict(horizon);
        prop_assert!(pred.mean.is_finite());
        prop_assert!(pred.cov[(0, 0)].is_finite() && pred.cov[(0, 0)] >= 0.0);
        prop_assert!(pred.cov[(1, 1)].is_finite() && pred.cov[(1, 1)] >= 0.0);
    }

    /// On exact linear motion, warm predictions land near the true line.
    #[test]
    fn linear_motion_error_bounded(
        x0 in 0.0f64..100.0, y0 in 0.0f64..100.0,
        vx in -5.0f64..5.0, vy in -5.0f64..5.0,
    ) {
        let mut p = MotionPredictor::new();
        for t in 0..40 {
            p.observe(Point2::new([x0 + vx * t as f64, y0 + vy * t as f64]));
        }
        let truth = Point2::new([x0 + vx * 42.0, y0 + vy * 42.0]);
        let pred = p.predict(3);
        let speed = (vx * vx + vy * vy).sqrt();
        prop_assert!(
            pred.mean.distance(&truth) <= 0.5 + speed * 0.5,
            "predicted {:?} vs true {truth:?}", pred.mean
        );
    }

    /// Block probabilities are a distribution (sum 1) whenever non-empty.
    #[test]
    fn block_probabilities_are_distribution(
        steps in prop::collection::vec((100.0f64..900.0, 100.0f64..900.0), 3..40),
    ) {
        let g = grid();
        let mut p = MotionPredictor::new();
        for (x, y) in &steps {
            p.observe(Point2::new([*x, *y]));
        }
        let probs = gaussian_block_probabilities(&g, &p.predict_horizon(4));
        prop_assert!(!probs.is_empty());
        let total: f64 = probs.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum {total}");
        for v in probs.values() {
            prop_assert!(*v >= 0.0);
        }
    }

    /// Direction probabilities are a distribution for any k.
    #[test]
    fn direction_probabilities_are_distribution(
        k in 2usize..9,
        cx in 100.0f64..900.0, cy in 100.0f64..900.0,
        tx in 100.0f64..900.0, ty in 100.0f64..900.0,
    ) {
        let g = grid();
        let mut p = MotionPredictor::new();
        let a = Point2::new([cx, cy]);
        let b = Point2::new([tx, ty]);
        for i in 0..30 {
            p.observe(a.lerp(&b, i as f64 / 60.0));
        }
        let center = a.lerp(&b, 29.0 / 60.0);
        let probs = gaussian_block_probabilities(&g, &p.predict_horizon(4));
        let dir = direction_probabilities(&g, &center, &probs, &SectorPartition::axis_centered(k));
        prop_assert_eq!(dir.len(), k);
        let total: f64 = dir.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}

/// Deterministic check: the dominant direction of travel receives the
/// most probability mass across all four compass headings.
#[test]
fn dominant_direction_wins_across_headings() {
    let g = grid();
    let part = SectorPartition::axis_centered(4);
    for (heading, expect_sector) in [
        (0.0f64, 0usize),
        (std::f64::consts::FRAC_PI_2, 1),
        (std::f64::consts::PI, 2),
        (-std::f64::consts::FRAC_PI_2, 3),
    ] {
        let mut p = MotionPredictor::new();
        let start = Point2::new([500.0, 500.0]);
        let v = mar_geom::Vec2::new([heading.cos(), heading.sin()]) * 8.0;
        let mut pos = start;
        for _ in 0..30 {
            p.observe(pos);
            pos += v;
        }
        let probs = gaussian_block_probabilities(&g, &p.predict_horizon(4));
        let dir = direction_probabilities(&g, &pos, &probs, &part);
        let best = dir
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, expect_sector, "heading {heading}: probs {dir:?}");
    }
}
