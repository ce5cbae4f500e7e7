//! Nearest-rank percentile selection, shared between the exact-sample
//! `LatencyRecorder` in `share-workloads` and the bucketed histograms here
//! so the two always resolve a quantile to the same rank.

/// Zero-based index of the nearest-rank `q`-quantile (`q` in `[0, 1]`) in a
/// sorted sequence of `len` samples. Returns 0 for an empty sequence.
#[inline]
pub(crate) fn nearest_rank_index(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let rank = (q * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// Nearest-rank percentile (`p` in percent, `[0, 100]`) of a **sorted**
/// slice. Returns 0 for an empty slice.
#[inline]
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[nearest_rank_index(sorted.len(), p / 100.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_classic_nearest_rank() {
        // 100 samples 1..=100: P25 = 25, P50 = 50, P99 = 99, P100 = 100.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 25.0), 25);
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 0.0), 7);
        assert_eq!(percentile_sorted(&[7], 100.0), 7);
        assert_eq!(percentile_sorted(&[1, 2], 50.0), 1);
        assert_eq!(percentile_sorted(&[1, 2], 51.0), 2);
    }

    #[test]
    fn index_is_clamped() {
        assert_eq!(nearest_rank_index(0, 0.5), 0);
        assert_eq!(nearest_rank_index(10, 0.0), 0);
        assert_eq!(nearest_rank_index(10, 1.0), 9);
    }
}
