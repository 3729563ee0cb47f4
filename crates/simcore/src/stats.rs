//! Measurement utilities: the latency histogram.

use crate::time::SimDuration;

/// Fixed-layout log-scale latency histogram.
///
/// Buckets are powers of two in nanoseconds from 1 µs up to ~17 s, which is
/// ample for disk latencies; quantiles are estimated at bucket upper bounds.
///
/// # Examples
///
/// ```
/// use seqio_simcore::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for ms in 1..=100 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 100);
/// assert!(h.quantile(0.5).unwrap() >= SimDuration::from_millis(32));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// bucket i holds samples in (2^(i-1), 2^i] microseconds-ish space;
    /// concretely: upper bound of bucket i = 1024ns << i.
    buckets: Vec<u64>,
    count: u64,
    sum: SimDuration,
    max: SimDuration,
}

const BUCKETS: usize = 25; // 1us << 24 ≈ 17.2 s

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }

    fn bucket_for(d: SimDuration) -> usize {
        let ns = d.as_nanos().max(1);
        // Index of the first bucket whose upper bound (1024 << i) is >= ns,
        // i.e. ceil(log2(ns)) - 10 clamped to the bucket range. `ns - 1`
        // makes exact powers of two land in the lower bucket (1024 << i is
        // an inclusive upper bound).
        let ceil_log2 = (64 - (ns - 1).leading_zeros()) as usize;
        ceil_log2.saturating_sub(10).min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> SimDuration {
        SimDuration::from_nanos(1024u64 << i)
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_for(d)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(d);
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all recorded samples.
    pub fn mean(&self) -> SimDuration {
        match self.sum.as_nanos().checked_div(self.count) {
            Some(ns) => SimDuration::from_nanos(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Estimated `q`-quantile (bucket upper bound), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            acc += n;
            if acc >= target {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(Self::bucket_upper(BUCKETS - 1))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-optimization linear scan, kept as the reference oracle for
    /// `bucket_for`.
    fn bucket_for_linear(d: SimDuration) -> usize {
        let ns = d.as_nanos().max(1);
        let mut i = 0usize;
        while i + 1 < BUCKETS && (1024u64 << i) < ns {
            i += 1;
        }
        i
    }

    #[test]
    fn bucket_for_matches_linear_scan_across_full_range() {
        // Every power of two (and its neighbours) across the whole u64
        // range, including 0, 1, u64::MAX.
        let mut probes = vec![0u64, 1, 2, u64::MAX, u64::MAX - 1];
        for shift in 0..64 {
            let p = 1u64 << shift;
            probes.extend([p.saturating_sub(1), p, p.saturating_add(1)]);
        }
        // A dense sweep through the first few buckets where requests live.
        probes.extend(1..=16_384u64);
        // Coarser deterministic sweep further out.
        let mut v = 16_384u64;
        while v < 1u64 << 40 {
            probes.push(v);
            probes.push(v + v / 3);
            v = v.saturating_mul(2);
        }
        for ns in probes {
            let d = SimDuration::from_nanos(ns);
            assert_eq!(
                LatencyHistogram::bucket_for(d),
                bucket_for_linear(d),
                "bucket mismatch at {ns} ns"
            );
        }
    }

    #[test]
    fn bucket_for_boundary_values() {
        // Inclusive upper bounds: exactly 1024 << i stays in bucket i.
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(0)), 0);
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(1)), 0);
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(1024)), 0);
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(1025)), 1);
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(2048)), 1);
        assert_eq!(LatencyHistogram::bucket_for(SimDuration::from_nanos(u64::MAX)), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for us in [10u64, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                h.record(SimDuration::from_micros(us));
            }
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
        assert_eq!(h.count(), 50);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(10));
        h.record(SimDuration::from_millis(30));
        assert_eq!(h.mean(), SimDuration::from_millis(20));
        assert_eq!(h.max(), SimDuration::from_millis(30));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn histogram_empty_quantile_none() {
        assert_eq!(LatencyHistogram::new().quantile(0.5), None);
    }
}
