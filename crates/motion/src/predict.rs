//! The paper's motion predictor: RLS-learned transition over a sliding
//! window of recent positions, with the Kalman predict step's covariance
//! propagation (§V-B).
//!
//! State (paper §V-B): `s_t = [p(t), p(t−1), …, p(t−h)]ᵀ ∈ ℝ^{2(h+1)}`.
//! The transition matrix has the block structure
//!
//! ```text
//!       ⎡ θ          ⎤   ← 2 learned rows (RLS): p(t+1) from the window
//! A  =  ⎢ I  0       ⎥   ← shift: old p(t) becomes new p(t−1), etc.
//!       ⎣    I  0    ⎦
//! ```
//!
//! Multi-step prediction is `ŝ_{t+i} = Aⁱ·s_t`; its uncertainty is
//! propagated as `P_{t+i} = A·P_{t+i−1}·Aᵀ + Q`, where `Q` injects the
//! empirically tracked one-step residual covariance into the newest
//! position block. The predicted position is then distributed
//! `N(ŝ, P)` (the paper's Eq. 3), which [`crate::probability`] integrates
//! over grid blocks.
//!
//! Before the estimator has seen enough transitions it falls back to
//! constant-velocity extrapolation, and it also falls back when the learned
//! `A` extrapolates absurdly (unstable spectral radius on short windows) —
//! state estimation must degrade gracefully, never catastrophically.

use crate::linalg::Mat;
use crate::rls::RlsEstimator;
use mar_geom::Point2;
use std::collections::VecDeque;

/// `h`: the state holds `h + 1` recent positions.
const HISTORY: usize = 3;
/// RLS forgetting factor λ (1.0 = infinite memory).
const LAMBDA: f64 = 0.98;
/// Minimum RLS samples before the learned model is trusted.
const MIN_SAMPLES: usize = 8;
/// Baseline per-step position variance added even when residuals are
/// tiny (keeps block probabilities smooth).
const BASE_VARIANCE: f64 = 0.25;

/// One multi-step prediction: mean position and 2×2 covariance.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Predicted position.
    pub mean: Point2,
    /// Position covariance (2×2).
    pub cov: Mat,
}

/// Online predictor of a client's future positions.
///
/// ```
/// use mar_motion::MotionPredictor;
/// use mar_geom::Point2;
/// let mut p = MotionPredictor::new();
/// for t in 0..30 {
///     p.observe(Point2::new([2.0 * t as f64, 100.0])); // heading east
/// }
/// let pred = p.predict(5);
/// assert!(pred.mean.distance(&Point2::new([68.0, 100.0])) < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct MotionPredictor {
    /// Most recent position at the front.
    window: VecDeque<Point2>,
    rls: RlsEstimator,
    /// Running one-step residual covariance (2×2).
    resid: Mat,
    resid_samples: usize,
}

impl Default for MotionPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl MotionPredictor {
    /// Creates a predictor.
    pub fn new() -> Self {
        Self {
            window: VecDeque::with_capacity(HISTORY + 2),
            rls: RlsEstimator::new(2 * (HISTORY + 1), 2, LAMBDA, 1e4),
            resid: Mat::identity(2).scale(BASE_VARIANCE),
            resid_samples: 0,
        }
    }

    /// State dimension `2(h+1)`.
    pub fn state_dim(&self) -> usize {
        2 * (HISTORY + 1)
    }

    /// Number of positions observed so far.
    pub fn observations(&self) -> usize {
        self.window.len().max(self.resid_samples)
    }

    /// True once the learned transition is in use (vs. the constant-velocity
    /// fallback).
    pub fn is_warm(&self) -> bool {
        self.rls.samples() >= MIN_SAMPLES
    }

    /// Most recent speed (distance covered in the last step), or 0.
    pub fn speed(&self) -> f64 {
        match (self.window.front(), self.window.get(1)) {
            (Some(a), Some(b)) => a.distance(b),
            _ => 0.0,
        }
    }

    /// Feeds the position observed at the next timestamp.
    pub fn observe(&mut self, p: Point2) {
        if self.window.len() == HISTORY + 1 {
            // A full previous state exists: train on (s_t → p_{t+1}).
            let x = self.state_vector();
            let y = [p[0], p[1]];
            // Track the residual of the *pre-update* prediction.
            let pred = self.rls.predict(&x);
            if self.rls.samples() >= MIN_SAMPLES {
                let e = [y[0] - pred[0], y[1] - pred[1]];
                self.update_residual(&e);
            }
            self.rls.observe(&x, &y);
        }
        self.window.push_front(p);
        if self.window.len() > HISTORY + 1 {
            self.window.pop_back();
        }
    }

    fn update_residual(&mut self, e: &[f64; 2]) {
        let alpha = 0.15;
        for i in 0..2 {
            for j in 0..2 {
                self.resid[(i, j)] = (1.0 - alpha) * self.resid[(i, j)] + alpha * e[i] * e[j];
            }
        }
        // Keep a variance floor so probabilities never collapse to a point.
        for i in 0..2 {
            self.resid[(i, i)] = self.resid[(i, i)].max(BASE_VARIANCE * 0.1);
        }
        self.resid_samples += 1;
    }

    /// The current state vector `[p_t, p_{t−1}, …]`, zero-padded when young.
    fn state_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.state_dim());
        let last = self.window.front().copied().unwrap_or(Point2::ORIGIN);
        for i in 0..=HISTORY {
            let p = self.window.get(i).copied().unwrap_or(last);
            v.push(p[0]);
            v.push(p[1]);
        }
        v
    }

    /// Builds the full transition matrix: learned top rows + shift block.
    fn transition(&self) -> Mat {
        let n = self.state_dim();
        let mut a = Mat::zeros(n, n);
        let theta = self.rls.coefficients();
        for j in 0..n {
            a[(0, j)] = theta[(0, j)];
            a[(1, j)] = theta[(1, j)];
        }
        for i in 0..(n - 2) {
            a[(i + 2, i)] = 1.0;
        }
        a
    }

    /// Predicts the position `steps ≥ 1` timestamps ahead.
    pub fn predict(&self, steps: u32) -> Prediction {
        assert!(steps >= 1, "predict at least one step ahead");
        let Some(&last) = self.window.front() else {
            return Prediction {
                mean: Point2::ORIGIN,
                cov: Mat::identity(2).scale(BASE_VARIANCE),
            };
        };
        let linear = self.linear_prediction(last, steps);
        if !self.is_warm() {
            return linear;
        }
        // Learned model: s_{t+i} = A^i s_t with covariance propagation.
        let a = self.transition();
        let at = a.transpose();
        let mut s = self.state_vector();
        let n = self.state_dim();
        let mut p = Mat::zeros(n, n);
        let q = self.process_noise();
        for _ in 0..steps {
            s = a.mul_vec(&s);
            p = &(&(&a * &p) * &at) + &q;
        }
        self.finish_prediction(steps, &s, &p, linear)
    }

    /// Turns a propagated state/covariance pair into a [`Prediction`],
    /// applying the instability guard and covariance hygiene shared by
    /// [`MotionPredictor::predict`] and the incremental horizon sweep.
    fn finish_prediction(&self, steps: u32, s: &[f64], p: &Mat, linear: Prediction) -> Prediction {
        let mean = Point2::new([s[0], s[1]]);
        // Guard against an unstable learned A: if it wandered wildly past
        // anything constant-velocity would do, trust the fallback.
        let sane_radius = (self.speed() + 1.0) * (steps as f64) * 5.0 + 1.0;
        if !mean.is_finite() || mean.distance(&linear.mean) > sane_radius {
            return linear;
        }
        let mut cov = p.block(0, 0, 2);
        // Numerical hygiene: keep the covariance symmetric positive.
        let off = 0.5 * (cov[(0, 1)] + cov[(1, 0)]);
        cov[(0, 1)] = off;
        cov[(1, 0)] = off;
        for i in 0..2 {
            cov[(i, i)] = cov[(i, i)].max(BASE_VARIANCE * 0.1);
        }
        Prediction { mean, cov }
    }

    /// Constant-velocity fallback with variance growing quadratically in
    /// the horizon (uncertainty of an unmodelled turn grows with distance).
    fn linear_prediction(&self, last: Point2, steps: u32) -> Prediction {
        let v = match self.window.get(1) {
            Some(prev) => last - *prev,
            None => mar_geom::Vec2::ZERO,
        };
        let mean = last + v * steps as f64;
        let var = BASE_VARIANCE * (steps as f64).powi(2) + 0.25 * v.norm_sq() * (steps as f64);
        Prediction {
            mean,
            cov: Mat::identity(2).scale(var.max(BASE_VARIANCE)),
        }
    }

    /// Process noise: the tracked residual covariance injected into the
    /// newest position block.
    fn process_noise(&self) -> Mat {
        let n = self.state_dim();
        let mut q = Mat::zeros(n, n);
        for i in 0..2 {
            for j in 0..2 {
                q[(i, j)] = self.resid[(i, j)];
            }
        }
        q
    }

    /// Predictions for horizons `1..=steps` (used to accumulate block
    /// probabilities over the prefetch horizon).
    pub fn predict_horizon(&self, steps: u32) -> Vec<Prediction> {
        let mut out = Vec::new();
        self.predict_horizon_into(steps, &mut out);
        out
    }

    /// Like [`MotionPredictor::predict_horizon`], but reuses `out` (cleared
    /// first) and propagates the state/covariance recurrence *once* across
    /// the whole horizon instead of re-running it from scratch for every
    /// step — `predict(i)`'s intermediate values at step `i` are exactly
    /// `predict(i-1)`'s finals, so the sweep is O(h) matrix products
    /// instead of O(h²) with bit-identical output.
    pub fn predict_horizon_into(&self, steps: u32, out: &mut Vec<Prediction>) {
        out.clear();
        let Some(&last) = self.window.front() else {
            out.extend((1..=steps).map(|i| self.predict(i)));
            return;
        };
        if !self.is_warm() {
            out.extend((1..=steps).map(|i| self.linear_prediction(last, i)));
            return;
        }
        let a = self.transition();
        let at = a.transpose();
        let mut s = self.state_vector();
        let n = self.state_dim();
        let mut p = Mat::zeros(n, n);
        let q = self.process_noise();
        for i in 1..=steps {
            s = a.mul_vec(&s);
            p = &(&(&a * &p) * &at) + &q;
            out.push(self.finish_prediction(i, &s, &p, self.linear_prediction(last, i)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_line(p: &mut MotionPredictor, n: usize, vx: f64, vy: f64) {
        for t in 0..n {
            p.observe(Point2::new([t as f64 * vx, t as f64 * vy]));
        }
    }

    #[test]
    fn cold_predictor_returns_last_position_neighborhood() {
        let mut p = MotionPredictor::new();
        p.observe(Point2::new([10.0, 20.0]));
        let pred = p.predict(1);
        assert_eq!(pred.mean, Point2::new([10.0, 20.0]));
        assert!(pred.cov[(0, 0)] > 0.0);
    }

    #[test]
    fn linear_motion_predicted_exactly_when_warm() {
        let mut p = MotionPredictor::new();
        feed_line(&mut p, 40, 2.0, -1.0);
        assert!(p.is_warm());
        let pred = p.predict(1);
        // Next point on the line is (80, -40).
        assert!(
            pred.mean.distance(&Point2::new([80.0, -40.0])) < 0.5,
            "{:?}",
            pred.mean
        );
        let pred5 = p.predict(5);
        assert!(
            pred5.mean.distance(&Point2::new([88.0, -44.0])) < 2.0,
            "{:?}",
            pred5.mean
        );
    }

    #[test]
    fn uncertainty_grows_with_horizon() {
        let mut p = MotionPredictor::new();
        feed_line(&mut p, 40, 1.0, 0.0);
        let c1 = p.predict(1).cov[(0, 0)] + p.predict(1).cov[(1, 1)];
        let c5 = p.predict(5).cov[(0, 0)] + p.predict(5).cov[(1, 1)];
        assert!(c5 >= c1, "cov must grow with horizon: {c1} vs {c5}");
    }

    #[test]
    fn speed_reflects_last_step() {
        let mut p = MotionPredictor::new();
        p.observe(Point2::new([0.0, 0.0]));
        p.observe(Point2::new([3.0, 4.0]));
        assert!((p.speed() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn curved_motion_stays_sane() {
        // Circle walk: the guard must keep predictions within a sane radius
        // even though the linear state model cannot express the curvature
        // exactly.
        let mut p = MotionPredictor::new();
        for t in 0..100 {
            let a = t as f64 * 0.15;
            p.observe(Point2::new([50.0 * a.cos(), 50.0 * a.sin()]));
        }
        let pred = p.predict(3);
        assert!(pred.mean.is_finite());
        // Must stay within a generous band around the circle.
        let r = pred.mean.to_vector().norm();
        assert!(r > 20.0 && r < 90.0, "r = {r}");
    }

    #[test]
    fn rls_beats_linear_on_circular_motion() {
        // A second-order linear recurrence models circular motion exactly;
        // the trained predictor should out-predict constant velocity.
        let mut p = MotionPredictor::new();
        let pos = |t: f64| Point2::new([50.0 * (t * 0.1).cos(), 50.0 * (t * 0.1).sin()]);
        for t in 0..200 {
            p.observe(pos(t as f64));
        }
        let truth = pos(202.0);
        let learned = p.predict(2).mean.distance(&truth);
        // Constant-velocity baseline from the last two points:
        let v = pos(199.0) - pos(198.0);
        let linear = (pos(199.0) + v * 2.0).distance(&truth);
        assert!(
            learned <= linear + 1e-9,
            "learned {learned} vs linear {linear}"
        );
    }

    #[test]
    fn horizon_returns_requested_count() {
        let mut p = MotionPredictor::new();
        feed_line(&mut p, 20, 1.0, 1.0);
        assert_eq!(p.predict_horizon(4).len(), 4);
    }

    #[test]
    fn horizon_matches_per_step_predict_exactly() {
        // The incremental sweep must be bit-identical to calling
        // `predict(i)` per step — on a warm straight line, on curved
        // motion (exercising the instability guard), and cold.
        let mut straight = MotionPredictor::new();
        feed_line(&mut straight, 40, 2.0, -1.0);
        let mut curved = MotionPredictor::new();
        for t in 0..100 {
            let a = t as f64 * 0.15;
            curved.observe(Point2::new([50.0 * a.cos(), 50.0 * a.sin()]));
        }
        let mut cold = MotionPredictor::new();
        cold.observe(Point2::new([1.0, 2.0]));
        for p in [&straight, &curved, &cold] {
            for (i, pred) in p.predict_horizon(8).iter().enumerate() {
                let single = p.predict(i as u32 + 1);
                assert_eq!(pred.mean, single.mean, "mean at step {}", i + 1);
                for r in 0..2 {
                    for c in 0..2 {
                        assert_eq!(
                            pred.cov[(r, c)].to_bits(),
                            single.cov[(r, c)].to_bits(),
                            "cov[({r},{c})] at step {}",
                            i + 1
                        );
                    }
                }
            }
        }
    }
}
