//! A fixed-size latency histogram with 1 µs buckets, and quantiles over
//! raw sample vectors.
//!
//! The benchmark never reads the service's own meter
//! (`MetricsSnapshot::p50`/`p99`, `LatencyHistogram`): those buckets are
//! up to 25% wide and may change with the program. These histograms are
//! the benchmark's own, allocated and paged in before the service is set
//! up, so `peak_rss_mb` moves only with the program.

/// One bucket per microsecond up to 8.2 ms. Slower samples are kept
/// exactly in an overflow list, so every quantile keeps 1 µs resolution.
pub const BUCKETS: usize = 1 << 13;

/// Latency counts at 1 µs resolution.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    overflow: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Allocate and touch every bucket, so the memory is resident before
    /// the measured program starts.
    pub fn new() -> Self {
        let mut counts = vec![1u32; BUCKETS];
        std::hint::black_box(&mut counts);
        counts.fill(0);
        Histogram {
            counts,
            overflow: Vec::with_capacity(64),
            n: 0,
        }
    }

    /// Record one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut((ns / 1_000) as usize) {
            Some(c) => *c += 1,
            None => self.overflow.push(ns),
        }
        self.n += 1;
    }

    /// Add another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.overflow.extend_from_slice(&other.overflow);
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile in microseconds, interpolated linearly inside its
    /// 1 µs bucket (exact for overflow samples). 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.n as f64).max(0.5);
        let mut below = 0u64;
        for (us, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = u64::from(c);
            if (below + c) as f64 >= rank {
                return us as f64 + (rank - below as f64) / c as f64;
            }
            below += c;
        }
        let mut slow = self.overflow.clone();
        slow.sort_unstable();
        let i = (rank.ceil() as u64).saturating_sub(below + 1) as usize;
        slow[i.min(slow.len() - 1)] as f64 / 1_000.0
    }

    /// The highest percentile of a fixed ladder that still has at least
    /// ten samples beyond it, with its value in microseconds; `None` when
    /// fewer than 1000 samples exist (not even p99 qualifies).
    pub fn tail(&self) -> Option<(f64, f64)> {
        // percentiles in thousandths, so the count beyond stays exact
        [99_999u64, 99_990, 99_900, 99_000]
            .into_iter()
            .find(|&k| self.n * (100_000 - k) >= 10 * 100_000)
            .map(|k| (k as f64 / 1_000.0, self.quantile_us(k as f64 / 100_000.0)))
    }
}

/// The `q`-quantile of raw samples (nanoseconds), in microseconds, by
/// linear interpolation between order statistics. Sorts in place; 0 when
/// empty.
pub fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    (samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac) / 1_000.0
}

/// Arithmetic mean of raw samples (nanoseconds), in microseconds.
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_inside_microsecond_buckets() {
        let mut h = Histogram::new();
        for ns in [1_000, 2_000, 2_500, 3_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        // rank 2 of 4 falls halfway through the 2 µs bucket (two samples)
        assert!(
            (h.quantile_us(0.5) - 2.5).abs() < 1e-9,
            "{}",
            h.quantile_us(0.5)
        );
        assert!((h.quantile_us(0.25) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slow_samples_keep_their_exact_value() {
        let mut h = Histogram::new();
        h.record(1_000);
        h.record(40_000_123);
        h.record(90_000_000);
        assert_eq!(h.quantile_us(0.6), 40_000.123);
        assert_eq!(h.quantile_us(1.0), 90_000.0);
        let mut m = Histogram::new();
        m.merge(&h);
        assert_eq!(m.count(), 3);
        assert_eq!(m.quantile_us(1.0), 90_000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 1_000);
        }
        let (p, _) = h.tail().unwrap();
        assert_eq!(p, 99.9);
        let mut small = Histogram::new();
        small.record(1);
        assert!(small.tail().is_none());
    }

    #[test]
    fn raw_quantiles() {
        let mut s = vec![4_000, 1_000, 3_000, 2_000];
        assert!((quantile_us(&mut s, 0.5) - 2.5).abs() < 1e-9);
        assert!((mean_us(&s) - 2.5).abs() < 1e-9);
    }
}
