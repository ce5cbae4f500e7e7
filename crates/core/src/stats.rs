//! Host- and device-level I/O statistics.
//!
//! These counters regenerate the paper's Figure 6: host page writes,
//! garbage-collection events, and copyback pages, plus the derived write
//! amplification factor (WAF).

use nand_sim::NandStats;
use share_telemetry::Metric;

share_telemetry::counter_table! {
    /// Cumulative statistics of one block device.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DeviceStats {
        /// Host read commands (pages).
        pub host_reads: u64,
        /// Host write commands (pages).
        pub host_writes: u64,
        /// Bytes read by the host.
        pub host_read_bytes: u64,
        /// Bytes written by the host.
        pub host_write_bytes: u64,
        /// Flush (fsync) commands.
        pub flushes: u64,
        /// TRIMmed pages.
        pub trims: u64,
        /// SHARE commands received (a batch counts once).
        pub share_commands: u64,
        /// Individual LPN pairs remapped by SHARE.
        pub shared_pages: u64,
        /// Snapshots created (`snapshot_create` commands).
        pub snapshot_creates: u64,
        /// Snapshots dropped (`snapshot_drop` commands).
        pub snapshot_drops: u64,
        /// Clone commands materialized from snapshots (a ranged clone counts
        /// once).
        pub snapshot_clones: u64,
        /// Individual pages remapped into the live map by clones.
        pub snapshot_clone_pages: u64,
        /// Point-in-time page reads served from frozen snapshot entries.
        pub snapshot_reads: u64,
        /// GC relocations of snapshot-pinned pages that were already dead in
        /// the live map (pure pin keep-alive copyback; also counted in
        /// `copyback_pages`).
        pub snapshot_pinned_relocations: u64,
        /// Garbage-collection victim selections.
        pub gc_events: u64,
        /// Valid pages copied back during GC.
        pub copyback_pages: u64,
        /// Blocks erased by GC (excludes meta-area erases).
        pub gc_erases: u64,
        /// Simulated time foreground commands spent stalled on hard-floor GC
        /// drains inside `ensure_free` (copyback + mapping flush + erase run on
        /// the command's own timeline). Background relocation does not accrue
        /// here — it only shows up as lane contention.
        pub gc_stall_ns: u64,
        /// Times a background GC step exhausted its page budget and parked
        /// the rest of the victim for later commands.
        pub gc_budget_deferrals: u64,
        /// Mapping meta pages programmed (delta log + checkpoints).
        pub meta_page_writes: u64,
        /// Mapping-table checkpoints taken.
        pub checkpoints: u64,
        /// Crash recoveries performed by [`crate::Ftl::open`] into this
        /// device instance (1 for a reopened device, 0 for a fresh format).
        pub recoveries: u64,
        /// NAND pages read while recovering (checkpoint scan + delta-log
        /// replay + block-state rebuild).
        pub recovery_page_reads: u64,
        /// NAND pages programmed while recovering (the fresh checkpoint that
        /// closes recovery). Crash sweeps assert bounds on this.
        pub recovery_page_writes: u64,
        /// Free-block pops where a write point's preferred channel had no
        /// free block and one was stolen from another channel. Non-zero means
        /// lane parallelism (and on a real device, channel striping) degraded
        /// under free-space skew.
        pub lane_steals: u64,
        #[nested]
        /// Raw NAND counters (includes meta and GC traffic).
        pub nand: NandStats,
    }
}

impl DeviceStats {
    /// Write amplification: NAND page programs per host page write.
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            self.nand.page_programs as f64 / self.host_writes as f64
        }
    }

    /// Every exported row of these counters: [`DeviceStats::rows`] plus the
    /// derived `waf`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut rows = self.rows();
        rows.push(Metric::ratio("waf", self.waf()));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use share_telemetry::metric::Value;

    #[test]
    fn waf_handles_zero_writes() {
        assert_eq!(DeviceStats::default().waf(), 0.0);
    }

    #[test]
    fn waf_ratio() {
        let s = DeviceStats {
            host_writes: 100,
            nand: NandStats { page_programs: 150, ..Default::default() },
            ..Default::default()
        };
        assert!((s.waf() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts() {
        let a = DeviceStats { host_writes: 10, gc_events: 3, ..Default::default() };
        let b = DeviceStats { host_writes: 4, gc_events: 1, ..Default::default() };
        let d = a.delta_since(&b);
        assert_eq!(d.host_writes, 6);
        assert_eq!(d.gc_events, 2);
    }

    #[test]
    fn delta_and_rows_share_one_field_list() {
        // `counter_table!` derives both from the declaration, so the guard
        // is a subtraction plus "there is a row per u64 of the struct".
        let full = DeviceStats {
            host_writes: 10,
            gc_events: 3,
            lane_steals: 2,
            nand: NandStats { page_programs: 18, torn_programs: 1, ..Default::default() },
            ..Default::default()
        };
        let base = DeviceStats { host_writes: 4, gc_events: 1, ..Default::default() };
        let d = full.delta_since(&base);
        assert_eq!((d.host_writes, d.gc_events, d.lane_steals), (6, 2, 2));
        assert_eq!(d.nand, full.nand);
        assert_eq!(full.delta_since(&DeviceStats::default()), full);
        assert_eq!(full.delta_since(&full), DeviceStats::default());

        let rows = full.rows();
        assert_eq!(rows.len() * 8, std::mem::size_of::<DeviceStats>());
        let get = |name: &str| rows.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(get("host_writes"), Some(Value::U64(10)));
        assert_eq!(get("torn_programs"), Some(Value::U64(1)));
        assert_eq!(full.metrics().last().map(|m| m.name), Some("waf"));
    }
}
