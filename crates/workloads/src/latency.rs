//! Per-operation latency recording and percentile summaries.
//!
//! Regenerates the paper's Table 1: mean / P25 / P50 / P75 / P99 / max
//! latency per transaction type.
//!
//! Percentile math is shared with the device-telemetry histograms
//! (`share_telemetry::percentile_sorted` is the same nearest-rank rule the
//! histogram quantile walk uses).

use share_telemetry::percentile_sorted;
use std::collections::BTreeMap;

/// Summary statistics of one operation type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// 25th percentile (ns).
    pub p25_ns: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 75th percentile (ns).
    pub p75_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    /// Convert a field from ns to milliseconds.
    pub fn ms(ns: u64) -> f64 {
        ns as f64 / 1e6
    }
}

/// Collects latency samples keyed by operation name.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (simulated ns) under `op`.
    pub fn record(&mut self, op: &'static str, ns: u64) {
        self.samples.entry(op).or_default().push(ns);
    }

    /// Total samples across all ops.
    pub fn total_count(&self) -> u64 {
        self.samples.values().map(|v| v.len() as u64).sum()
    }

    /// Operation names seen, in sorted order.
    pub fn ops(&self) -> Vec<&'static str> {
        self.samples.keys().copied().collect()
    }

    /// Summarize one operation, if any samples were recorded.
    pub fn summary(&self, op: &str) -> Option<LatencySummary> {
        let v = self.samples.get(op)?;
        if v.is_empty() {
            return None;
        }
        let mut sorted = v.clone();
        sorted.sort_unstable();
        // Nearest-rank percentile, same rule as the telemetry histograms.
        let pct = |p: f64| -> u64 { percentile_sorted(&sorted, p) };
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        Some(LatencySummary {
            count: sorted.len() as u64,
            mean_ns: sum as f64 / sorted.len() as f64,
            p25_ns: pct(25.0),
            p50_ns: pct(50.0),
            p75_ns: pct(75.0),
            p99_ns: pct(99.0),
            max_ns: *sorted.last().expect("non-empty"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_summaries() {
        let r = LatencyRecorder::new();
        assert!(r.summary("x").is_none());
        assert_eq!(r.total_count(), 0);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record("op", i * 1000);
        }
        let s = r.summary("op").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.p25_ns, 25_000);
        assert_eq!(s.p50_ns, 50_000);
        assert_eq!(s.p75_ns, 75_000);
        assert_eq!(s.p99_ns, 99_000);
        assert_eq!(s.max_ns, 100_000);
        assert!((s.mean_ns - 50_500.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_summary() {
        let mut r = LatencyRecorder::new();
        r.record("one", 42);
        let s = r.summary("one").unwrap();
        assert_eq!(s.p25_ns, 42);
        assert_eq!(s.p99_ns, 42);
        assert_eq!(s.max_ns, 42);
    }

    #[test]
    fn ops_are_sorted_and_counted() {
        let mut r = LatencyRecorder::new();
        r.record("b", 1);
        r.record("a", 2);
        r.record("a", 3);
        assert_eq!(r.ops(), vec!["a", "b"]);
        assert_eq!(r.total_count(), 3);
    }

    #[test]
    fn ms_conversion() {
        assert!((LatencySummary::ms(1_500_000) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn exact_percentiles_agree_with_histogram_within_one_bucket() {
        // The recorder keeps exact samples; a telemetry histogram fed the
        // same samples only keeps log2 buckets. Both use the same
        // nearest-rank rule, so each histogram estimate must land in the
        // same log2 bucket as the exact nearest-rank sample.
        use share_telemetry::hist::bucket_of;
        let mut r = LatencyRecorder::new();
        let mut h = share_telemetry::Histogram::new();
        // A skewed, multi-decade distribution (deterministic LCG).
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 33) % 10_000_000 + 1;
            r.record("txn", v);
            h.record(v);
        }
        let s = r.summary("txn").unwrap();
        assert_eq!(h.count, s.count);
        for (exact, q) in [(s.p25_ns, 0.25), (s.p50_ns, 0.50), (s.p75_ns, 0.75), (s.p99_ns, 0.99)]
        {
            let est = h.quantile(q);
            assert_eq!(
                bucket_of(est),
                bucket_of(exact),
                "q{q}: histogram estimate {est} strayed from exact {exact}"
            );
        }
        assert_eq!(h.max, s.max_ns);
    }
}
