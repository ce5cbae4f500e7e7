//! SMART-style device health and wear model.
//!
//! Everything here is derived read-only from state the device already
//! persists — per-block erase counts (NAND image), pool free-block state,
//! and the cumulative [`DeviceStats`] — so a health report can be taken
//! from any image without changing it, and the image format is untouched.
//!
//! The centerpiece is [`HealthReport`]: the erase-count distribution as a
//! bucketed wear histogram plus summary moments, free-block headroom,
//! cumulative write amplification, and a remaining-life estimate in the
//! spirit of SMART attribute 177 (wear leveling) / 231 (life left):
//! [`WearStats::remaining_life`], the one formula the flight recorder's
//! epoch gauge uses too.

use crate::ftl::WearStats;
use crate::stats::DeviceStats;
use share_telemetry::json::{count, Json};
use share_telemetry::{rows_json, Metric};

/// Rated program/erase cycles assumed when no override is given. Mid-range
/// MLC endurance; `sharectl doctor --endurance` overrides it per report.
pub const DEFAULT_ENDURANCE_CYCLES: u64 = 3_000;

/// Number of equal-width bins in the erase-count histogram.
const WEAR_HIST_BINS: usize = 12;

/// One bin of the erase-count histogram: blocks whose erase count lies in
/// `[lo, hi]` (inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearBucket {
    /// Lowest erase count this bin covers.
    pub lo: u32,
    /// Highest erase count this bin covers.
    pub hi: u32,
    /// Data blocks whose erase count falls in the bin.
    pub blocks: u64,
}

/// A point-in-time device health report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Erase-count summary moments over the data pool.
    pub wear: WearStats,
    /// Wear-leveling skew (max/mean erases; 1.0 = perfectly even).
    pub wear_skew: f64,
    /// Bucketed erase-count histogram (equal-width bins over `min..=max`;
    /// bucket counts always sum to `data_blocks`).
    pub wear_hist: Vec<WearBucket>,
    /// Data blocks currently free.
    pub free_blocks: u64,
    /// Data blocks total.
    pub data_blocks: u64,
    /// The device's lifetime counters (host writes, WAF, copyback and meta
    /// pages are what `sharectl doctor` reads off them).
    pub stats: DeviceStats,
    /// Remaining-life fraction in `[0, 1]`.
    pub remaining_life: f64,
    /// The rated endurance the estimate assumed.
    pub endurance_cycles: u64,
}

impl HealthReport {
    /// Build a report from per-block erase counts, pool headroom, and the
    /// cumulative device counters.
    pub(crate) fn compute(
        erase_counts: &[u32],
        free_blocks: u64,
        stats: &DeviceStats,
        endurance_cycles: u64,
    ) -> HealthReport {
        let wear = WearStats::from_counts(erase_counts.iter().copied());
        HealthReport {
            wear,
            wear_skew: wear.skew(),
            wear_hist: wear_histogram(erase_counts, &wear),
            free_blocks,
            data_blocks: erase_counts.len() as u64,
            stats: *stats,
            remaining_life: wear.remaining_life(endurance_cycles),
            endurance_cycles,
        }
    }

    /// The wear, headroom and remaining-life readings as exported rows.
    pub(crate) fn rows(&self) -> Vec<Metric> {
        let (w, int, real) = (&self.wear, Metric::gauge, Metric::ratio);
        vec![
            int("share_wear_erases_min", "Fewest erases of any data block.", w.min_erases.into()),
            int("share_wear_erases_max", "Most erases of any data block.", w.max_erases.into()),
            real("share_wear_erases_mean", "Mean erases per data block.", w.mean_erases),
            real(
                "share_wear_erases_stddev",
                "Standard deviation of per-block erase counts.",
                w.stddev_erases,
            ),
            real(
                "share_wear_skew",
                "Wear-leveling skew (max/mean erases; 1 = even).",
                self.wear_skew,
            ),
            int("share_free_blocks", "Data blocks currently free.", self.free_blocks),
            int("share_data_blocks", "Data blocks total.", self.data_blocks),
            real(
                "share_remaining_life",
                "SMART-style remaining-life fraction (1 = new).",
                self.remaining_life,
            ),
            int(
                "share_endurance_cycles",
                "Rated program/erase cycles the remaining-life estimate assumes.",
                self.endurance_cycles,
            ),
        ]
    }

    /// JSON form used by `sharectl doctor` and bench dumps: the health
    /// rows, the wear histogram, and every lifetime counter row.
    pub fn to_json(&self) -> Json {
        let hist = Json::Arr(
            self.wear_hist
                .iter()
                .map(|b| {
                    Json::obj(vec![
                        ("lo", count(b.lo as u64)),
                        ("hi", count(b.hi as u64)),
                        ("blocks", count(b.blocks)),
                    ])
                })
                .collect(),
        );
        let mut fields = rows_json(&self.rows());
        fields.push(("wear_hist".to_string(), hist));
        fields.extend(rows_json(&self.stats.metrics()));
        Json::Obj(fields)
    }
}

/// Equal-width erase-count histogram over `[min, max]`. A flat pool (all
/// blocks at the same count) collapses to one bin; bin counts always sum
/// to the number of blocks.
fn wear_histogram(erase_counts: &[u32], wear: &WearStats) -> Vec<WearBucket> {
    if erase_counts.is_empty() {
        return Vec::new();
    }
    let (lo, hi) = (wear.min_erases, wear.max_erases);
    let span = (hi - lo) as u64 + 1;
    let bins = (WEAR_HIST_BINS as u64).min(span) as usize;
    let width = span.div_ceil(bins as u64);
    let mut out: Vec<WearBucket> = (0..bins)
        .map(|i| {
            let b_lo = lo as u64 + i as u64 * width;
            let b_hi = (b_lo + width - 1).min(hi as u64);
            WearBucket { lo: b_lo as u32, hi: b_hi as u32, blocks: 0 }
        })
        .collect();
    for &e in erase_counts {
        let idx = (((e - lo) as u64) / width) as usize;
        out[idx.min(bins - 1)].blocks += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summarizes_wear_and_life() {
        let counts = vec![10u32, 20, 30, 40];
        let stats = DeviceStats {
            host_writes: 1000,
            copyback_pages: 250,
            meta_page_writes: 50,
            nand: nand_sim::NandStats { page_programs: 1300, ..Default::default() },
            ..Default::default()
        };
        let r = HealthReport::compute(&counts, 2, &stats, 100);
        assert_eq!(r.wear.min_erases, 10);
        assert_eq!(r.wear.max_erases, 40);
        assert!((r.wear.mean_erases - 25.0).abs() < 1e-12);
        assert!((r.wear_skew - 40.0 / 25.0).abs() < 1e-12);
        assert!((r.stats.waf() - 1.3).abs() < 1e-12);
        assert_eq!(r.data_blocks, 4);
        assert_eq!(r.free_blocks, 2);
        // 25 mean erases of 100 rated cycles → 75% life left.
        assert!((r.remaining_life - 0.75).abs() < 1e-12);
        // Histogram covers every block exactly once.
        assert_eq!(r.wear_hist.iter().map(|b| b.blocks).sum::<u64>(), 4);
        assert_eq!(r.wear_hist[0].lo, 10);
        assert_eq!(r.wear_hist.last().unwrap().hi, 40);
    }

    #[test]
    fn life_clamps_and_handles_zero_endurance() {
        let counts = vec![500u32; 3];
        let stats = DeviceStats::default();
        assert_eq!(HealthReport::compute(&counts, 0, &stats, 100).remaining_life, 0.0);
        assert_eq!(HealthReport::compute(&counts, 0, &stats, 0).remaining_life, 0.0);
        let fresh = HealthReport::compute(&[0, 0], 2, &stats, 100);
        assert_eq!(fresh.remaining_life, 1.0);
        assert_eq!(fresh.wear_skew, 0.0);
    }

    #[test]
    fn flat_pool_collapses_histogram_to_one_bin() {
        let r = HealthReport::compute(&[7u32; 16], 4, &DeviceStats::default(), 100);
        assert_eq!(r.wear_hist.len(), 1);
        assert_eq!(r.wear_hist[0], WearBucket { lo: 7, hi: 7, blocks: 16 });
        // Empty pool: no histogram, no NaNs.
        let empty = HealthReport::compute(&[], 0, &DeviceStats::default(), 100);
        assert!(empty.wear_hist.is_empty());
        assert_eq!(empty.remaining_life, 1.0);
    }

    #[test]
    fn report_json_round_trips() {
        let r = HealthReport::compute(&[1, 2, 3, 100], 1, &DeviceStats::default(), 3000);
        let doc = r.to_json();
        let back = share_telemetry::json::parse(&doc.render()).expect("health json parses");
        assert_eq!(back.get("wear_erases_max").and_then(Json::as_u64), Some(100));
        assert_eq!(back.get("data_blocks").and_then(Json::as_u64), Some(4));
        let hist = back.get("wear_hist").and_then(Json::as_array).unwrap();
        let total: u64 =
            hist.iter().filter_map(|b| b.get("blocks").and_then(Json::as_u64)).sum();
        assert_eq!(total, 4);
        assert_eq!(back.get("endurance_cycles").and_then(Json::as_u64), Some(3000));
        // The lifetime counters ride along under their field names.
        assert_eq!(back.get("host_writes").and_then(Json::as_u64), Some(0));
        assert!(back.get("waf").is_some());
    }
}
