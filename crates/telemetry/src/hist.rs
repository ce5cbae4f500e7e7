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

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The samples recorded since `base`, an earlier copy of this same
    /// histogram: counts, sum and buckets are exact differences. The
    /// extremes are exact when the window set a new one (or `base` is
    /// empty); otherwise they are the window's outer bucket bounds, held
    /// inside `self`'s extremes. So a quantile of the difference lands in
    /// the same log2 bucket as the exact one, and merging consecutive
    /// differences rebuilds `self` exactly.
    pub fn delta_since(&self, base: &Histogram) -> Histogram {
        let mut d = Histogram {
            count: self.count - base.count,
            sum: self.sum - base.sum,
            ..Histogram::default()
        };
        if d.count == 0 {
            return d;
        }
        for (k, (now, then)) in self.buckets.iter().zip(&base.buckets).enumerate() {
            d.buckets[k] = now - then;
        }
        let first = d.buckets.iter().position(|&n| n > 0).expect("count > 0");
        let last = d.buckets.iter().rposition(|&n| n > 0).expect("count > 0");
        d.min = if base.count == 0 || self.min < base.min {
            self.min
        } else {
            bucket_lower_bound(first).max(self.min)
        };
        d.max = if base.count == 0 || self.max > base.max {
            self.max
        } else {
            bucket_upper_bound(last).min(self.max)
        };
        d
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
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [5u64, 1000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 1116);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 1000);
        let empty = Histogram::new();
        let mut c = Histogram::new();
        c.merge(&empty);
        assert!(c.is_empty());
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn delta_since_keeps_the_window_in_its_buckets() {
        let mut h = Histogram::new();
        for v in [3u64, 50, 700] {
            h.record(v);
        }
        // From empty, the difference is the histogram itself.
        assert_eq!(h.delta_since(&Histogram::new()), h);
        assert!(h.delta_since(&h).is_empty());
        let base = h.clone();
        for v in [40u64, 600] {
            h.record(v);
        }
        // No new extreme: the window's outer bucket bounds stand in for
        // its min and max, so its quantiles stay in the samples' buckets.
        let d = h.delta_since(&base);
        assert_eq!((d.count, d.sum, d.min, d.max), (2, 640, 32, 700));
        assert_eq!((bucket_of(d.quantile(0.0)), bucket_of(d.quantile(1.0))), (6, 10));
        // A new extreme is exact.
        let base = h.clone();
        h.record(9_000);
        let d = h.delta_since(&base);
        assert_eq!((d.count, d.min, d.max), (1, 8_192, 9_000));
        assert_eq!(d.quantile(0.5), 9_000);
    }

    #[test]
    fn merge_reset_round_trip_preserves_quantiles_exactly() {
        // Record one stream of samples, cut it into windows by
        // `delta_since` of consecutive copies, and merge the windows back.
        // The round trip must be lossless — identical struct, therefore
        // identical quantiles at every q. This is the property a sampler
        // that windows a device's cumulative histograms relies on.
        let samples: Vec<u64> = (1..=500u64).map(|i| (i * 7919) % 100_000).collect();
        let mut continuous = Histogram::new();
        let mut base = Histogram::new();
        let mut merged = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            continuous.record(v);
            if i % 37 == 36 {
                merged.merge(&continuous.delta_since(&base));
                base = continuous.clone();
            }
        }
        merged.merge(&continuous.delta_since(&base));
        assert_eq!(merged, continuous);
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), continuous.quantile(q), "q={q}");
        }
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
