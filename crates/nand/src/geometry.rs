//! Physical geometry of the simulated NAND array and its timing model.

use std::fmt;

/// A physical NAND page number, the unit the FTL maps to.
///
/// PPNs address pages across the whole array: block `b`, in-block page `i`
/// has PPN `b * pages_per_block + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppn(pub u32);

impl Ppn {
    /// Sentinel for "not mapped"; never a valid physical page.
    pub const INVALID: Ppn = Ppn(u32::MAX);

    /// Whether this PPN is the invalid sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A physical erase-block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Static geometry of a NAND array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NandGeometry {
    /// Page size in bytes. This is also the FTL mapping unit (4 KiB on the
    /// OpenSSD prototype).
    pub page_size: usize,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Total number of erase blocks in the array.
    pub blocks: u32,
    /// Independent channels. Operations on different channels overlap in
    /// simulated time; the OpenSSD prototype has 8.
    pub channels: u32,
    /// Ways (dies) per channel. Each (channel, way) pair is one
    /// independently-busy unit.
    pub ways: u32,
}

impl NandGeometry {
    /// Geometry scaled for fast simulation: 4 KiB pages, 128-page (512 KiB)
    /// blocks. Capacity is chosen by the caller via `blocks`. Single
    /// channel/way; use [`with_parallelism`](Self::with_parallelism) for a
    /// multi-channel device.
    pub fn new(page_size: usize, pages_per_block: u32, blocks: u32) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        assert!(pages_per_block > 0 && blocks > 0);
        Self { page_size, pages_per_block, blocks, channels: 1, ways: 1 }
    }

    /// The same geometry with `channels` x `ways` independent units. Blocks
    /// are interleaved across units by block number (`block % units`).
    pub fn with_parallelism(mut self, channels: u32, ways: u32) -> Self {
        assert!(channels > 0 && ways > 0, "channels and ways must be >= 1");
        self.channels = channels;
        self.ways = ways;
        self
    }

    /// Number of independently-busy units (channels x ways).
    #[inline]
    pub fn units(&self) -> u32 {
        self.channels * self.ways
    }

    /// The unit (channel, way) pair serving `block`, as a flat index.
    #[inline]
    pub fn unit_of_block(&self, block: BlockId) -> u32 {
        block.0 % self.units()
    }

    /// The channel serving `block`.
    #[inline]
    pub fn channel_of_block(&self, block: BlockId) -> u32 {
        block.0 % self.channels
    }

    /// The unit serving the block that contains `ppn`.
    #[inline]
    pub fn unit_of(&self, ppn: Ppn) -> u32 {
        self.unit_of_block(self.block_of(ppn))
    }

    /// A small default geometry (64 MiB) suitable for unit tests.
    pub fn small() -> Self {
        Self::new(4096, 128, 128)
    }

    /// Total physical pages in the array.
    #[inline]
    pub fn total_pages(&self) -> u32 {
        self.pages_per_block * self.blocks
    }

    /// The block containing `ppn`.
    #[inline]
    pub fn block_of(&self, ppn: Ppn) -> BlockId {
        BlockId(ppn.0 / self.pages_per_block)
    }

    /// The in-block page index of `ppn`.
    #[inline]
    pub fn page_in_block(&self, ppn: Ppn) -> u32 {
        ppn.0 % self.pages_per_block
    }

    /// The first PPN of `block`.
    #[inline]
    pub fn first_ppn(&self, block: BlockId) -> Ppn {
        Ppn(block.0 * self.pages_per_block)
    }

    /// PPN of page index `idx` within `block`.
    #[inline]
    pub fn ppn_at(&self, block: BlockId, idx: u32) -> Ppn {
        debug_assert!(idx < self.pages_per_block);
        Ppn(block.0 * self.pages_per_block + idx)
    }
}

/// Latency model for the three NAND primitives plus host transfer cost.
///
/// Defaults approximate the MLC parts on the OpenSSD board: 60 µs read,
/// 800 µs program, 2 ms erase, with a SATA-II-class transfer cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NandTiming {
    /// Page read (cell-to-register) latency in nanoseconds.
    pub read_ns: u64,
    /// Page program latency in nanoseconds.
    pub program_ns: u64,
    /// Block erase latency in nanoseconds.
    pub erase_ns: u64,
    /// Bus transfer cost per KiB moved between host and device, in ns.
    pub xfer_ns_per_kib: u64,
}

impl Default for NandTiming {
    fn default() -> Self {
        Self {
            read_ns: 60_000,
            program_ns: 800_000,
            erase_ns: 2_000_000,
            xfer_ns_per_kib: 4_000,
        }
    }
}

impl NandTiming {
    /// A zero-latency timing model, useful when only counting operations.
    pub fn zero() -> Self {
        Self { read_ns: 0, program_ns: 0, erase_ns: 0, xfer_ns_per_kib: 0 }
    }

    /// Transfer cost for `bytes` over the host interface.
    #[inline]
    pub fn xfer_ns(&self, bytes: usize) -> u64 {
        (bytes as u64 * self.xfer_ns_per_kib) / 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_addressing_round_trips() {
        let g = NandGeometry::new(4096, 128, 16);
        assert_eq!(g.total_pages(), 2048);
        let ppn = Ppn(5 * 128 + 17);
        assert_eq!(g.block_of(ppn), BlockId(5));
        assert_eq!(g.page_in_block(ppn), 17);
        assert_eq!(g.ppn_at(BlockId(5), 17), ppn);
        assert_eq!(g.first_ppn(BlockId(5)), Ppn(5 * 128));
    }

    #[test]
    fn invalid_ppn_is_never_valid() {
        assert!(!Ppn::INVALID.is_valid());
        assert!(Ppn(0).is_valid());
        assert!(Ppn(u32::MAX - 1).is_valid());
    }

    #[test]
    fn timing_transfer_scales_with_bytes() {
        let t = NandTiming::default();
        assert_eq!(t.xfer_ns(4096), 4 * t.xfer_ns_per_kib);
        assert_eq!(t.xfer_ns(0), 0);
        let z = NandTiming::zero();
        assert_eq!(z.xfer_ns(1 << 20), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_odd_page_size() {
        NandGeometry::new(5000, 128, 16);
    }

    #[test]
    fn default_geometry_is_single_channel() {
        let g = NandGeometry::new(4096, 128, 16);
        assert_eq!((g.channels, g.ways), (1, 1));
        assert_eq!(g.units(), 1);
        for b in 0..16 {
            assert_eq!(g.unit_of_block(BlockId(b)), 0);
            assert_eq!(g.channel_of_block(BlockId(b)), 0);
        }
    }

    #[test]
    fn parallelism_interleaves_blocks_across_units() {
        let g = NandGeometry::new(4096, 128, 64).with_parallelism(4, 2);
        assert_eq!(g.units(), 8);
        assert_eq!(g.unit_of_block(BlockId(0)), 0);
        assert_eq!(g.unit_of_block(BlockId(7)), 7);
        assert_eq!(g.unit_of_block(BlockId(8)), 0);
        assert_eq!(g.channel_of_block(BlockId(5)), 1);
        assert_eq!(g.channel_of_block(BlockId(6)), 2);
        // Consecutive blocks land on distinct units up to the unit count.
        let units: Vec<u32> = (0..8).map(|b| g.unit_of_block(BlockId(b))).collect();
        let mut sorted = units.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        // PPNs inherit their block's unit.
        assert_eq!(g.unit_of(g.ppn_at(BlockId(9), 17)), g.unit_of_block(BlockId(9)));
    }

    #[test]
    #[should_panic(expected = "channels and ways")]
    fn parallelism_rejects_zero_channels() {
        let _ = NandGeometry::new(4096, 128, 16).with_parallelism(0, 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Ppn(7).to_string(), "P7");
        assert_eq!(BlockId(3).to_string(), "B3");
    }
}
