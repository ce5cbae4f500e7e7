//! FTL configuration and on-flash layout.
//!
//! Physical blocks are partitioned into a **meta area** and a **data pool**:
//!
//! ```text
//! | ckpt slot A | ckpt slot B | delta-log ring | ............ data pool ............ |
//! ```
//!
//! * The two checkpoint slots alternate full snapshots of the L2P table.
//! * The delta-log ring holds page-sized groups of mapping deltas
//!   (`(LPN, old PPN, new PPN)` — the paper's §4.2.2 "Delta" records).
//!   Its blocks sit on consecutive NAND units, and its slots interleave
//!   over a stripe of `w` of them (`w` the largest divisor of
//!   `log_blocks` no larger than the unit count), so the pages of one log
//!   submission program side by side. Four blocks, `w = 4`:
//!
//! ```text
//! ring block:   L0   L1   L2   L3
//! page 0:        0    1    2    3     <- slots, in sequence order
//! page 1:        4    5    6    7
//! ...
//! ```
//!
//!   At one channel `w = 1` and the slots fill `L0` before `L1`.
//! * The data pool serves host writes and GC copyback, with
//!   over-provisioning beyond the exported logical capacity.

use crate::mapping::RevMapPolicy;
use crate::util::div_ceil_u64;
use nand_sim::{BlockId, NandGeometry, NandTiming};
use share_telemetry::{SloConfig, TelemetryConfig};

/// Garbage-collection victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Block with the fewest valid pages (standard, minimizes copyback).
    #[default]
    Greedy,
    /// Oldest sealed block first (simple firmware, baseline for ablation).
    Fifo,
}

/// Bytes of one serialized mapping delta: LPN (8) + old PPN (4) + new PPN (4).
pub const DELTA_BYTES: usize = 16;
/// Bytes of the delta-log / checkpoint page header (magic, seq, count, crc).
pub const META_PAGE_HEADER: usize = 32;

/// Configuration of a [`crate::Ftl`] instance.
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// NAND geometry (page size is the mapping unit).
    pub geometry: NandGeometry,
    /// NAND latency model.
    pub timing: NandTiming,
    /// Exported logical capacity in pages.
    pub logical_pages: u64,
    /// Capacity of the shared-page reverse-mapping table. The OpenSSD
    /// prototype used 250 (4 KB) or 500 (8 KB) entries (§4.2.1).
    /// `usize::MAX` models an unbounded table (for ablation).
    pub revmap_capacity: usize,
    /// What happens when the reverse map runs out of slots.
    pub revmap_policy: RevMapPolicy,
    /// GC victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Number of blocks in the delta-log ring.
    pub log_blocks: u32,
    /// Hard floor of free data blocks: at it a command drains whole victims
    /// on its own timeline (`Ftl::ensure_free`). Background collection
    /// starts one block above the slack banked on top of it for open lanes
    /// (`Ftl::collect_after`).
    pub gc_low_water: usize,
    /// A drain stops when free data blocks reach this count (plus the
    /// same slack).
    pub gc_high_water: usize,
    /// Host-to-device command round-trip latency (share/trim/flush), ns.
    /// Models the ioctl/SATA path the paper batches SHARE pairs to amortize.
    pub command_ns: u64,
    /// Submission-queue depth: how many queued commands may be in flight
    /// (submitted, not yet reaped) at once. Synchronous commands ignore
    /// this entirely; `submit` returns `QueueFull` beyond it.
    pub queue_depth: usize,
    /// Telemetry collection settings. Counters are always on; latency
    /// histograms and the command ring are opt-in. Telemetry only reads
    /// the simulated clock, so no setting can change simulated results.
    pub telemetry: TelemetryConfig,
    /// SLO thresholds evaluated at flight-recorder epoch boundaries.
    /// Inert unless `telemetry.epoch_ns` turns the recorder on.
    pub slo: SloConfig,
}

impl FtlConfig {
    /// Build a config exporting `logical_bytes` with `over_provision`
    /// (e.g. 0.15 = 15 %) spare data-pool space, 4 KiB pages, 128-page blocks.
    pub fn for_capacity(logical_bytes: u64, over_provision: f64) -> Self {
        Self::for_capacity_with(logical_bytes, over_provision, 4096, 128, NandTiming::default())
    }

    /// [`Self::for_capacity`] with explicit page size, block size, timing.
    pub fn for_capacity_with(
        logical_bytes: u64,
        over_provision: f64,
        page_size: usize,
        pages_per_block: u32,
        timing: NandTiming,
    ) -> Self {
        assert!(over_provision > 0.0, "over-provisioning must be positive");
        let logical_pages = div_ceil_u64(logical_bytes, page_size as u64);
        let data_pages = (logical_pages as f64 * (1.0 + over_provision)).ceil() as u64;
        // Slack for the two active write points and GC headroom.
        let data_blocks = div_ceil_u64(data_pages, pages_per_block as u64) as u32 + 10;
        let log_blocks = 4;
        let mut cfg = Self {
            geometry: NandGeometry::new(page_size, pages_per_block, 1),
            timing,
            logical_pages,
            revmap_capacity: 500,
            revmap_policy: RevMapPolicy::default(),
            gc_policy: GcPolicy::default(),
            log_blocks,
            gc_low_water: 3,
            gc_high_water: 6,
            command_ns: 20_000,
            queue_depth: 32,
            telemetry: TelemetryConfig::default(),
            slo: SloConfig::default(),
        };
        let meta = 2 * cfg.ckpt_slot_blocks_for(logical_pages, page_size, pages_per_block) + log_blocks;
        cfg.geometry = NandGeometry::new(page_size, pages_per_block, meta + data_blocks);
        cfg.validate();
        cfg
    }

    /// Spread the NAND over `channels` x `ways` independently-timed units
    /// (blocks interleave across units; see [`NandGeometry::unit_of_block`]).
    /// Capacity and layout are unchanged — only the timing parallelism.
    pub fn with_parallelism(mut self, channels: u32, ways: u32) -> Self {
        self.geometry = self.geometry.with_parallelism(channels, ways);
        self
    }

    /// Set the telemetry collection level.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the SLO thresholds the flight recorder evaluates per epoch.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Set the submission-queue depth (must be at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }

    /// Panic if the layout is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.logical_pages > 0, "logical capacity must be positive");
        assert!(self.gc_high_water > self.gc_low_water, "GC watermarks inverted");
        assert!(self.log_blocks >= 2, "need at least two log blocks");
        let data_blocks = self.data_blocks();
        assert!(
            (data_blocks as u64 * self.geometry.pages_per_block as u64)
                > self.logical_pages + (self.gc_high_water as u64 + 2) * self.geometry.pages_per_block as u64,
            "data pool too small for logical capacity plus GC headroom"
        );
        assert!(self.deltas_per_page() >= 1, "page too small for delta records");
    }

    /// Mapping deltas that fit one meta page — the atomic SHARE batch limit.
    #[inline]
    pub fn deltas_per_page(&self) -> usize {
        (self.geometry.page_size - META_PAGE_HEADER) / DELTA_BYTES
    }

    fn ckpt_slot_blocks_for(&self, logical_pages: u64, page_size: usize, ppb: u32) -> u32 {
        // Header page + table pages + commit page.
        let table_pages = div_ceil_u64(logical_pages * 4, page_size as u64);
        div_ceil_u64(table_pages + 2, ppb as u64) as u32
    }

    /// Blocks per checkpoint slot.
    pub fn ckpt_slot_blocks(&self) -> u32 {
        self.ckpt_slot_blocks_for(self.logical_pages, self.geometry.page_size, self.geometry.pages_per_block)
    }

    /// First block of checkpoint slot `slot` (0 or 1).
    pub fn ckpt_slot_start(&self, slot: u32) -> BlockId {
        debug_assert!(slot < 2);
        BlockId(slot * self.ckpt_slot_blocks())
    }

    /// First block of the delta-log ring.
    pub fn log_ring_start(&self) -> BlockId {
        BlockId(2 * self.ckpt_slot_blocks())
    }

    /// Total meta-area blocks (checkpoints + log ring).
    pub fn meta_blocks(&self) -> u32 {
        2 * self.ckpt_slot_blocks() + self.log_blocks
    }

    /// First data-pool block.
    pub fn data_start(&self) -> BlockId {
        BlockId(self.meta_blocks())
    }

    /// Number of data-pool blocks.
    pub fn data_blocks(&self) -> u32 {
        self.geometry.blocks - self.meta_blocks()
    }

    /// Exported logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages * self.geometry.page_size as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_builder_lays_out_regions() {
        let cfg = FtlConfig::for_capacity(64 << 20, 0.15); // 64 MiB logical
        assert_eq!(cfg.logical_pages, (64 << 20) / 4096);
        let slot = cfg.ckpt_slot_blocks();
        assert!(slot >= 1);
        assert_eq!(cfg.ckpt_slot_start(0), BlockId(0));
        assert_eq!(cfg.ckpt_slot_start(1), BlockId(slot));
        assert_eq!(cfg.log_ring_start(), BlockId(2 * slot));
        assert_eq!(cfg.data_start().0, cfg.meta_blocks());
        assert!(cfg.data_blocks() > 0);
        let data_pages = cfg.data_blocks() as u64 * cfg.geometry.pages_per_block as u64;
        assert!(data_pages as f64 > 1.15 * cfg.logical_pages as f64);
    }

    #[test]
    fn deltas_per_page_matches_layout_constants() {
        let cfg = FtlConfig::for_capacity(16 << 20, 0.2);
        assert_eq!(cfg.deltas_per_page(), (4096 - META_PAGE_HEADER) / DELTA_BYTES);
        assert_eq!(cfg.deltas_per_page(), 254);
    }

    #[test]
    fn page_size_scales_batch_limit() {
        let cfg = FtlConfig::for_capacity_with(16 << 20, 0.2, 8192, 128, NandTiming::zero());
        assert_eq!(cfg.deltas_per_page(), (8192 - META_PAGE_HEADER) / DELTA_BYTES);
    }

    #[test]
    fn over_provision_grows_data_pool() {
        let lean = FtlConfig::for_capacity(32 << 20, 0.07);
        let fat = FtlConfig::for_capacity(32 << 20, 0.30);
        assert!(fat.data_blocks() > lean.data_blocks());
        assert_eq!(lean.logical_pages, fat.logical_pages);
    }

    #[test]
    #[should_panic(expected = "GC watermarks")]
    fn validate_rejects_inverted_watermarks() {
        let mut cfg = FtlConfig::for_capacity(16 << 20, 0.2);
        cfg.gc_low_water = 8;
        cfg.gc_high_water = 4;
        cfg.validate();
    }

    #[test]
    fn checkpoint_slot_fits_whole_table() {
        let cfg = FtlConfig::for_capacity(128 << 20, 0.1);
        let table_bytes = cfg.logical_pages * 4;
        let slot_bytes = cfg.ckpt_slot_blocks() as u64
            * cfg.geometry.pages_per_block as u64
            * cfg.geometry.page_size as u64;
        assert!(slot_bytes >= table_bytes + 2 * cfg.geometry.page_size as u64);
    }
}
