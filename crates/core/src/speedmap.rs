//! `MapSpeedToResolution` (Algorithm 1, line 1.3).
//!
//! "This function is application dependent and … should be adjusted by the
//! vendor." The paper's experiments use the identity map: at normalised
//! speed `s` the client retrieves the coefficients with `w ∈ [s, 1.0]`
//! (§VII-A), [`LinearSpeedMap`] — the one map every client uses.

use mar_mesh::ResolutionBand;

/// A map from normalised client speed to the resolution band to retrieve.
pub trait SpeedResolutionMap {
    /// The band of coefficient magnitudes needed at `speed ∈ [0, 1]`.
    /// Faster ⇒ narrower band (higher `w_min`).
    fn band_for(&self, speed: f64) -> ResolutionBand;
}

/// The paper's map: `w_min = speed` ("the speed is expected to be
/// inversely proportional to the value of the wavelet coefficients
/// retrieved").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearSpeedMap;

impl SpeedResolutionMap for LinearSpeedMap {
    fn band_for(&self, speed: f64) -> ResolutionBand {
        ResolutionBand::new(speed.clamp(0.0, 1.0), 1.0)
    }
}

/// Asymmetric speed smoothing for the resolution map.
///
/// The paper leaves `MapSpeedToResolution` "application dependent …
/// adjusted by the vendor". One adjustment matters in practice: a tram
/// pausing at a station for two ticks should not trigger a full-resolution
/// fill of the whole frame, but a client that genuinely stops should get
/// full detail. `SmoothedSpeed` therefore follows speed *increases* fast
/// (coarsening is cheap and instantly safe) and speed *decreases* slowly
/// (refinement is expensive; wait until the slowdown is sustained).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothedSpeed {
    /// Blend factor when speed rises (fast adaptation).
    pub alpha_up: f64,
    /// Blend factor when speed falls (slow adaptation).
    pub alpha_down: f64,
    state: Option<f64>,
}

impl Default for SmoothedSpeed {
    fn default() -> Self {
        Self {
            alpha_up: 0.6,
            alpha_down: 0.06,
            state: None,
        }
    }
}

impl SmoothedSpeed {
    /// Creates a smoother with explicit blend factors.
    pub fn with_alphas(alpha_up: f64, alpha_down: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha_up) && (0.0..=1.0).contains(&alpha_down));
        Self {
            alpha_up,
            alpha_down,
            state: None,
        }
    }

    /// Feeds the instantaneous speed, returning the smoothed value.
    pub fn update(&mut self, speed: f64) -> f64 {
        let s = speed.clamp(0.0, 1.0);
        let prev = self.state.unwrap_or(s);
        let alpha = if s >= prev {
            self.alpha_up
        } else {
            self.alpha_down
        };
        let next = prev + alpha * (s - prev);
        self.state = Some(next);
        next
    }

    /// The current smoothed speed (last update's result).
    pub fn current(&self) -> Option<f64> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_map_matches_paper_examples() {
        let m = LinearSpeedMap;
        // "when the speed is very low (s ≈ 0) … all the coefficients whose
        // values range from 0.0 to 1.0"
        let slow = m.band_for(0.001);
        assert!(slow.w_min < 0.01);
        assert_eq!(slow.w_max, 1.0);
        // "when the speed is higher, say s = 0.5 … coefficients whose
        // values range from 0.5 to 1.0"
        let mid = m.band_for(0.5);
        assert_eq!(mid.w_min, 0.5);
        // Out-of-range speeds clamp.
        assert_eq!(m.band_for(7.0).w_min, 1.0);
        assert_eq!(m.band_for(-1.0).w_min, 0.0);
    }

    #[test]
    fn faster_is_never_finer() {
        let m = LinearSpeedMap;
        let mut last = -1.0;
        for i in 0..=10 {
            let w = m.band_for(i as f64 / 10.0).w_min;
            assert!(w >= last);
            last = w;
        }
    }

    #[test]
    fn smoothing_ignores_brief_stops_but_honors_real_ones() {
        let mut sm = SmoothedSpeed::default();
        for _ in 0..50 {
            sm.update(0.5);
        }
        // A 4-tick station dwell barely moves the smoothed speed...
        let mut during = 1.0;
        for _ in 0..4 {
            during = sm.update(0.0);
        }
        assert!(
            during > 0.35,
            "brief stop must not collapse speed: {during}"
        );
        // ...but a sustained stop converges to 0 (full resolution).
        for _ in 0..200 {
            during = sm.update(0.0);
        }
        assert!(during < 0.01, "sustained stop must refine: {during}");
        // Speeding up is adopted quickly.
        let up = sm.update(0.9);
        assert!(up > 0.5, "speedup must coarsen fast: {up}");
    }

    #[test]
    fn smoothing_first_sample_passes_through() {
        let mut sm = SmoothedSpeed::default();
        assert!(sm.current().is_none());
        assert_eq!(sm.update(0.7), 0.7);
        assert_eq!(sm.current(), Some(0.7));
    }
}
