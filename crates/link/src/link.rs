//! The deterministic wireless link model.

use std::fmt;

/// Why a [`LinkConfig`] was rejected at construction.
///
/// Validating up front keeps the downstream arithmetic
/// ([`LinkConfig::request_time`], the fault layer's transfer timing) free
/// of non-finite intermediate values: a non-positive bandwidth would turn
/// every transfer time into `inf`/NaN and poison every simulated clock it
/// touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkConfigError {
    /// `bandwidth_bps` was NaN, infinite, zero or negative.
    InvalidBandwidth(f64),
    /// `latency_s` was NaN, infinite or negative.
    InvalidLatency(f64),
    /// `connection_s` was NaN, infinite or negative.
    InvalidConnection(f64),
    /// `motion_degradation` was NaN or infinite.
    InvalidDegradation(f64),
}

impl fmt::Display for LinkConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidBandwidth(v) => {
                write!(f, "bandwidth_bps must be finite and positive, got {v}")
            }
            Self::InvalidLatency(v) => {
                write!(f, "latency_s must be finite and non-negative, got {v}")
            }
            Self::InvalidConnection(v) => {
                write!(f, "connection_s must be finite and non-negative, got {v}")
            }
            Self::InvalidDegradation(v) => {
                write!(f, "motion_degradation must be finite, got {v}")
            }
        }
    }
}

impl std::error::Error for LinkConfigError {}

/// Link parameters.
///
/// ```
/// use mar_link::LinkConfig;
/// let link = LinkConfig::paper(); // 256 Kbps, 200 ms, motion-degraded
/// // A 32 KB transfer for a client at rest vs at full speed:
/// let at_rest = link.request_time(32.0 * 1024.0, 0.0);
/// let moving = link.request_time(32.0 * 1024.0, 1.0);
/// assert!(moving > at_rest); // §I: motion costs bandwidth
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Nominal bandwidth in bits per second (paper: 256 Kbps).
    pub bandwidth_bps: f64,
    /// One-way request latency in seconds (paper: 200 ms).
    pub latency_s: f64,
    /// Extra cost of establishing a connection, in seconds (the `C_c` of
    /// Eq. 1 expressed as time).
    pub connection_s: f64,
    /// Fraction of bandwidth lost at normalised speed 1.0 (§I: moving
    /// clients see only a fraction of the at-rest bandwidth). `0.0`
    /// disables degradation.
    pub motion_degradation: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl LinkConfig {
    /// The evaluation's link: 256 Kbps, 200 ms latency, and a 50 % maximum
    /// motion degradation.
    pub fn paper() -> Self {
        Self {
            bandwidth_bps: 256_000.0,
            latency_s: 0.2,
            connection_s: 0.1,
            motion_degradation: 0.5,
        }
    }

    /// Builds a validated configuration; the typed-error alternative to
    /// filling in the (public) fields by hand.
    ///
    /// ```
    /// use mar_link::{LinkConfig, LinkConfigError};
    /// assert!(LinkConfig::new(256_000.0, 0.2, 0.1, 0.5).is_ok());
    /// assert_eq!(
    ///     LinkConfig::new(0.0, 0.2, 0.1, 0.5),
    ///     Err(LinkConfigError::InvalidBandwidth(0.0))
    /// );
    /// ```
    pub fn new(
        bandwidth_bps: f64,
        latency_s: f64,
        connection_s: f64,
        motion_degradation: f64,
    ) -> Result<Self, LinkConfigError> {
        let cfg = Self {
            bandwidth_bps,
            latency_s,
            connection_s,
            motion_degradation,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the configuration, returning the first violated constraint.
    /// The fault layer validates at construction so the per-request
    /// arithmetic never has to re-check.
    pub fn validate(&self) -> Result<(), LinkConfigError> {
        if !(self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0) {
            return Err(LinkConfigError::InvalidBandwidth(self.bandwidth_bps));
        }
        if !(self.latency_s.is_finite() && self.latency_s >= 0.0) {
            return Err(LinkConfigError::InvalidLatency(self.latency_s));
        }
        if !(self.connection_s.is_finite() && self.connection_s >= 0.0) {
            return Err(LinkConfigError::InvalidConnection(self.connection_s));
        }
        if !self.motion_degradation.is_finite() {
            return Err(LinkConfigError::InvalidDegradation(self.motion_degradation));
        }
        Ok(())
    }

    /// Effective bandwidth for a client moving at normalised `speed ∈
    /// [0, 1]`; never less than 10 % of nominal.
    pub fn effective_bandwidth(&self, speed: f64) -> f64 {
        let s = speed.clamp(0.0, 1.0);
        let factor = (1.0 - self.motion_degradation * s).max(0.1);
        self.bandwidth_bps * factor
    }

    /// Time to complete one request that transfers `bytes` bytes at
    /// normalised `speed`: latency + connection setup + payload time.
    /// A zero-byte request still pays latency (a round trip that found
    /// nothing new).
    pub fn request_time(&self, bytes: f64, speed: f64) -> f64 {
        assert!(bytes >= 0.0 && bytes.is_finite());
        self.latency_s + self.connection_s + bytes * 8.0 / self.effective_bandwidth(speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = LinkConfig::paper();
        assert_eq!(c.bandwidth_bps, 256_000.0);
        assert_eq!(c.latency_s, 0.2);
    }

    #[test]
    fn transfer_time_components() {
        let c = LinkConfig {
            bandwidth_bps: 8_000.0, // 1000 bytes/s
            latency_s: 0.2,
            connection_s: 0.1,
            motion_degradation: 0.0,
        };
        // 500 bytes at 1000 B/s = 0.5 s payload + 0.3 s overhead.
        assert!((c.request_time(500.0, 0.0) - 0.8).abs() < 1e-12);
        // Zero bytes still pays the round trip.
        assert!((c.request_time(0.0, 1.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn motion_degrades_bandwidth() {
        let c = LinkConfig::paper();
        assert_eq!(c.effective_bandwidth(0.0), 256_000.0);
        assert_eq!(c.effective_bandwidth(1.0), 128_000.0);
        assert!(c.request_time(10_000.0, 1.0) > c.request_time(10_000.0, 0.0));
        // Speeds outside [0,1] are clamped.
        assert_eq!(c.effective_bandwidth(5.0), 128_000.0);
        assert_eq!(c.effective_bandwidth(-1.0), 256_000.0);
    }

    #[test]
    fn degradation_floor() {
        let c = LinkConfig {
            motion_degradation: 2.0,
            ..LinkConfig::paper()
        };
        assert_eq!(c.effective_bandwidth(1.0), 25_600.0);
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        assert!(LinkConfig::paper().validate().is_ok());
        assert!(matches!(
            LinkConfig::new(f64::NAN, 0.2, 0.1, 0.5),
            Err(LinkConfigError::InvalidBandwidth(v)) if v.is_nan()
        ));
        assert_eq!(
            LinkConfig::new(-1.0, 0.2, 0.1, 0.5),
            Err(LinkConfigError::InvalidBandwidth(-1.0))
        );
        assert_eq!(
            LinkConfig::new(256_000.0, -0.2, 0.1, 0.5),
            Err(LinkConfigError::InvalidLatency(-0.2))
        );
        assert_eq!(
            LinkConfig::new(256_000.0, 0.2, f64::INFINITY, 0.5),
            Err(LinkConfigError::InvalidConnection(f64::INFINITY))
        );
        assert!(matches!(
            LinkConfig::new(256_000.0, 0.2, 0.1, f64::NAN),
            Err(LinkConfigError::InvalidDegradation(v)) if v.is_nan()
        ));
        // The error message names the offending field and value.
        let e = LinkConfig::new(0.0, 0.2, 0.1, 0.5).unwrap_err();
        assert!(e.to_string().contains("bandwidth_bps"));
    }
}
