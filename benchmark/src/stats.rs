//! Constant-memory latency histogram, quartiles, and the transcript hash.

/// Sub-buckets per power of two: 128 → every recorded value is kept to
/// within 0.8 %.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Log-linear histogram of nanosecond samples. Its size does not depend
/// on how many samples a run produces, so `peak_rss_mb` does not either.
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (((shift + 1) as u64) << SUB_BITS) as usize + ((v >> shift) - SUB) as usize
    }

    /// Lowest value and width of bucket `b`.
    fn bounds(b: usize) -> (f64, f64) {
        if b < 2 * SUB as usize {
            return (b as f64, 1.0);
        }
        let shift = (b >> SUB_BITS) - 1;
        let low = ((b as u64 & (SUB - 1)) + SUB) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket by
    /// rank so that two runs do not print the same quantised number.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (before + c) as f64 {
                let (low, width) = Self::bounds(b);
                return low + width * (rank - before as f64 + 0.5) / c as f64;
            }
            before += c;
        }
        let (low, width) = Self::bounds(BUCKETS - 1);
        low + width
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) does.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step over `bytes`, continuing from `h`.
pub fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64: the seed-derived stream behind the cold-hop positions.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_bounds_invert_them() {
        let mut last = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 8192, 1 << 62]) {
            let b = Histogram::bucket(v);
            assert!(b == last || b == last + 1 || v >= 1 << 20, "gap at {v}");
            last = b;
            let (low, width) = Histogram::bounds(b);
            assert!(low <= v as f64 && (v as f64) < low + width + 1.0, "{v}");
        }
        assert!(Histogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "{q}: {got}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
