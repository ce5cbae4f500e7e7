//! Log2-bucketed latency histograms.
//!
//! Bucket `k` (for `k >= 1`) covers the value range `[2^(k-1), 2^k - 1]`;
//! bucket 0 holds only the value 0. A recorded nanosecond latency lands in
//! the bucket indexed by its bit length, so the whole histogram is 64
//! counters plus count/sum/min/max — constant memory per op class no
//! matter how long a run gets, unlike the exact-sample
//! `LatencyRecorder` in `share-workloads`.

use crate::percentile::nearest_rank_index;

/// Number of log2 buckets (covers the full `u64` range).
pub const BUCKETS: usize = 64;

/// Bucket index of a value: its bit length, clamped to the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `k` (`0` for bucket 0).
#[inline]
pub fn bucket_upper_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Inclusive lower bound of bucket `k`.
#[inline]
pub fn bucket_lower_bound(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// A log2-bucketed histogram of `u64` samples (simulated nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// Whether any sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`.
    ///
    /// The rank is resolved to a bucket by walking the cumulative counts
    /// (the same nearest-rank rule the exact-sample recorder uses), then
    /// interpolated linearly inside the bucket's `[lo, hi]` value range —
    /// so the estimate always lands in the **same log2 bucket** as the
    /// exact nearest-rank sample would, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank_index(self.count as usize, q) as u64 + 1; // 1-based
        let mut before = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if before + n >= rank {
                let lo = bucket_lower_bound(k);
                let hi = bucket_upper_bound(k);
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - before) as f64 / n as f64;
                let est = lo + ((hi - lo) as f64 * frac) as u64;
                return est.clamp(self.min, self.max);
            }
            before += n;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for k in 1..20 {
            assert_eq!(bucket_of(bucket_lower_bound(k)), k);
            assert_eq!(bucket_of(bucket_upper_bound(k)), k);
            assert!(bucket_lower_bound(k) <= bucket_upper_bound(k));
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [7u64, 100, 3, 900] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 900);
    }

    #[test]
    fn quantile_lands_in_exact_sample_bucket() {
        // Mixed magnitudes: the estimate must sit in the same log2 bucket
        // as the exact nearest-rank sample for every quantile.
        let samples: Vec<u64> = (1..=200u64).map(|i| i * i * 37).collect();
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let exact = sorted[nearest_rank_index(sorted.len(), q)];
            let est = h.quantile(q);
            assert_eq!(
                bucket_of(exact),
                bucket_of(est),
                "q={q}: exact {exact} and estimate {est} in different buckets"
            );
        }
    }

    #[test]
    fn quantile_of_empty_and_single() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.quantile(0.5), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn histogram_set_records_by_label() {
        // The device keeps one histogram per op class, found by the op's
        // export label.
        use crate::{OpClass, Telemetry};
        let mut t = Telemetry::default();
        t.record(OpClass::Read, 0, 10);
        t.record(OpClass::Read, 10, 30);
        t.record(OpClass::Write, 30, 35);
        let snap = t.snapshot();
        let count = |label: &str| snap.ops.iter().find(|o| o.op.name() == label).map(|o| o.hist.count);
        assert_eq!(count("read"), Some(2));
        assert_eq!(count("write"), Some(1));
        assert_eq!(count("trim"), Some(0));
        assert_eq!(count("no_such_op"), None);
        assert_eq!(snap.ops.iter().filter(|o| !o.hist.is_empty()).count(), 2);
    }
}
