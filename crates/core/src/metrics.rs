//! Measured quantities for every experiment family.

/// Per-tour aggregates of the incremental retrieval client (Figs. 8–9).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetrievalMetrics {
    /// Ticks simulated.
    pub ticks: usize,
    /// Total payload bytes retrieved.
    pub bytes: f64,
    /// Total coefficients retrieved.
    pub coeffs: usize,
    /// Total index node accesses.
    pub io: u64,
    /// Per-tick bytes (for distribution-shape assertions).
    pub bytes_per_tick: Vec<f64>,
}

/// End-to-end system metrics: the buffer manager's gauges (Figs. 10–11)
/// and the response times over the link (Figs. 14–15), read off one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemMetrics {
    /// Ticks simulated.
    pub ticks: usize,
    /// Per-tick query response time (seconds; 0 when served locally).
    pub response_times: Vec<f64>,
    /// Total bytes over the wireless link.
    pub bytes: f64,
    /// Total server index I/O.
    pub io: u64,
    /// Total simulated time, advanced by `max(tick duration, response)`
    /// per frame — the wall-clock a user would experience.
    pub sim_time_s: f64,
    /// Frames whose response exceeded the tick duration (visible stalls).
    pub late_frames: usize,
    /// The client block cache's counters — hit rate and data utilization
    /// (all zero for the naive system, which has no block cache).
    pub cache: mar_buffer::CacheStats,
    /// Blocks fetched at each local cache miss — the `N(j)` series of the
    /// §V-A cost model (Eq. 1): one entry per tick that contacted the
    /// server, holding the demand + prefetch block count of that contact.
    pub blocks_per_miss: Vec<u64>,
}

impl SystemMetrics {
    /// Mean response time per query frame.
    pub fn mean_response(&self) -> f64 {
        if self.response_times.is_empty() {
            0.0
        } else {
            self.response_times.iter().sum::<f64>() / self.response_times.len() as f64
        }
    }

    /// Maximum single-frame response time.
    pub fn max_response(&self) -> f64 {
        self.response_times.iter().copied().fold(0.0, f64::max)
    }

    /// Fraction of frames that blew their deadline (visible stalls) —
    /// §I's "the results in the query window have to be retrieved at a
    /// high rate", as a number.
    pub fn late_frame_rate(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.late_frames as f64 / self.ticks as f64
        }
    }

    /// Number of server contacts (the `M` of Eq. 1).
    pub fn miss_count(&self) -> u64 {
        self.blocks_per_miss.len() as u64
    }

    /// Evaluates the §V-A transfer cost model (Eq. 1,
    /// `C = Σⱼ C_c + C_t·B·N(j)`) over the recorded misses.
    pub fn eq1_cost(&self, model: &mar_link::TransferCostModel) -> f64 {
        model.query_cost(&self.blocks_per_miss)
    }

    /// The p-th percentile (0–100) of response times.
    pub fn percentile_response(&self, p: f64) -> f64 {
        if self.response_times.is_empty() {
            return 0.0;
        }
        let mut v = self.response_times.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_percentiles() {
        let m = SystemMetrics {
            ticks: 5,
            response_times: vec![0.1, 0.5, 0.2, 0.4, 0.3],
            ..Default::default()
        };
        assert!((m.mean_response() - 0.3).abs() < 1e-12);
        assert_eq!(m.max_response(), 0.5);
        assert_eq!(m.percentile_response(0.0), 0.1);
        assert_eq!(m.percentile_response(100.0), 0.5);
        assert_eq!(m.percentile_response(50.0), 0.3);
    }

    #[test]
    fn late_frame_rate_accounting() {
        let m = SystemMetrics {
            ticks: 10,
            late_frames: 3,
            ..Default::default()
        };
        assert!((m.late_frame_rate() - 0.3).abs() < 1e-12);
        assert_eq!(SystemMetrics::default().late_frame_rate(), 0.0);
    }
}
