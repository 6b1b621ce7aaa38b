//! The speed-scaled buffering policy (§V, final paragraph): "a client
//! moving at higher speeds buffers more objects with lower resolutions
//! than that of a slowly moving client."
//!
//! The policy maps the client's speed to the resolution at which blocks
//! are prefetched, and — because coarser blocks carry fewer bytes — to a
//! larger block budget for the same byte-sized buffer.

/// The multiresolution buffering policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiresPolicy {
    /// Buffer capacity in bytes (the 16–128 KB of Fig. 10).
    pub buffer_bytes: f64,
    /// When `false`, blocks are always buffered at full resolution (the
    /// non-multires ablation).
    pub speed_scaled: bool,
    /// How much finer than the instantaneous demand band blocks are
    /// buffered (`w_buffer = speed − margin`). Buffering exactly at the
    /// demand band would turn every small speed fluctuation into a
    /// resolution miss; the margin absorbs jitter and brief slowdowns at
    /// the price of more bytes per block.
    pub resolution_margin: f64,
}

impl MultiresPolicy {
    /// Creates a speed-scaled policy with the default margin.
    pub fn new(buffer_bytes: f64) -> Self {
        assert!(buffer_bytes > 0.0);
        Self {
            buffer_bytes,
            speed_scaled: true,
            resolution_margin: 0.35,
        }
    }

    /// A full-resolution-only policy with the same byte budget.
    pub fn full_resolution(buffer_bytes: f64) -> Self {
        Self {
            buffer_bytes,
            speed_scaled: false,
            resolution_margin: 0.0,
        }
    }

    /// The lowest wavelet magnitude worth buffering at the given
    /// normalised speed: a margin finer than the retrieval band, so the
    /// cache keeps serving through speed jitter.
    pub fn buffer_w_min(&self, speed: f64) -> f64 {
        if self.speed_scaled {
            (speed - self.resolution_margin).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// How many blocks fit, given a callback reporting the average bytes
    /// one block costs when filtered to `w ≥ w_min`. At least 1.
    pub fn block_budget(&self, speed: f64, bytes_per_block: impl Fn(f64) -> f64) -> usize {
        let w = self.buffer_w_min(speed);
        let per_block = bytes_per_block(w).max(1.0);
        ((self.buffer_bytes / per_block).floor() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy cost curve: full resolution costs 4 KB/block, coarsest 400 B.
    fn cost(w_min: f64) -> f64 {
        4096.0 * (1.0 - 0.9 * w_min)
    }

    #[test]
    fn faster_clients_fit_more_blocks() {
        let p = MultiresPolicy::new(64.0 * 1024.0);
        let slow = p.block_budget(0.0, cost);
        let fast = p.block_budget(1.0, cost);
        assert_eq!(slow, 16);
        assert!(fast > 2 * slow, "slow {slow} fast {fast}");
    }

    #[test]
    fn margin_buffers_finer_than_demand() {
        let p = MultiresPolicy::new(64.0 * 1024.0);
        assert!(p.buffer_w_min(0.5) < 0.5);
        assert!((p.buffer_w_min(0.5) - 0.15).abs() < 1e-12);
        // Below the margin the buffer holds full resolution.
        assert_eq!(p.buffer_w_min(0.2), 0.0);
    }

    #[test]
    fn full_resolution_policy_ignores_speed() {
        let p = MultiresPolicy::full_resolution(64.0 * 1024.0);
        assert_eq!(p.buffer_w_min(0.9), 0.0);
        assert_eq!(p.block_budget(0.0, cost), p.block_budget(1.0, cost));
    }

    #[test]
    fn bigger_buffers_fit_more_blocks() {
        let small = MultiresPolicy::new(16.0 * 1024.0);
        let big = MultiresPolicy::new(128.0 * 1024.0);
        assert!(big.block_budget(0.5, cost) > small.block_budget(0.5, cost));
    }

    #[test]
    fn budget_is_at_least_one() {
        let p = MultiresPolicy::new(1.0);
        assert_eq!(p.block_budget(0.0, cost), 1);
    }
}
