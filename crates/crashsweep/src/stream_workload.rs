//! Multi-stream crash workload on a four-channel FTL.
//!
//! Three concurrent host streams drive the one multi-channel device of
//! this crate, so at any instant the pool holds several open frontiers
//! (one user lane per channel plus GC lanes). A crash can therefore land
//! with several blocks partially programmed, and recovery must rebuild
//! every frontier before the prefix-consistency oracle (see
//! [`crate::ftl_workload`]) is checked.
//!
//! The streams mimic their database namesakes:
//! - `heap`: wide random writes, reads, trims and small atomic batches
//!   over most of the logical space;
//! - `wal`: a small append window rewritten round after round, with
//!   frequent flushes — hot journal traffic;
//! - `compact`: SHARE remaps of settled heap pages into a cold region,
//!   plus occasional checkpoints.

use crate::ftl_workload::{apply, run_ftl_case, FtlOp, State};
use crate::CrashWorkload;
use nand_sim::{FaultMode, NandTiming};
use share_core::FtlConfig;
use share_rng::{Rng, StdRng};

/// Stream labels, index-aligned with the per-op stream slots.
pub const STREAM_LABELS: [&str; 3] = ["heap", "wal", "compact"];

const HEAP: usize = 0;
const WAL: usize = 1;
const COMPACT: usize = 2;

/// Logical pages of the stream workload. Larger than the mixed workload's
/// space because four user lanes plus their GC lanes need headroom of
/// free blocks (see `ensure_free`'s lane watermark).
pub const STREAM_PAGES: u64 = 96;

const HEAP_PAGES: u64 = 64;
const WAL_BASE: u64 = 64;
const WAL_PAGES: u64 = 16;
const COLD_BASE: u64 = 80;
const COLD_PAGES: u64 = 16;

/// Deterministic three-stream workload; every op carries the stream slot
/// it is issued on, and the driver switches the device's active stream
/// before each op.
#[derive(Debug, Clone)]
pub struct FtlStreamWorkload {
    seed: u64,
    ops: Vec<(usize, FtlOp)>,
    cfg: FtlConfig,
}

impl FtlStreamWorkload {
    /// Generate `n_ops` ops from `seed` for a four-channel device.
    pub fn new(seed: u64, n_ops: usize) -> Self {
        let cfg = FtlConfig::for_capacity_with(
            STREAM_PAGES * 4096,
            0.5,
            4096,
            16,
            NandTiming::zero(),
        )
        .with_parallelism(4, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: State = vec![None; STREAM_PAGES as usize];
        let mut wal_cursor = 0u64;
        let mut ops = Vec::with_capacity(n_ops);
        while ops.len() < n_ops {
            let (slot, op) = match rng.random_range(0..8u32) {
                // Heap dominates the op budget, like a data file under a
                // busy database.
                0..=3 => (HEAP, Self::gen_heap(&mut rng, &model)),
                4..=6 => (WAL, Self::gen_wal(&mut rng, &mut wal_cursor)),
                _ => (COMPACT, Self::gen_compact(&mut rng, &model)),
            };
            apply(&mut model, &op);
            ops.push((slot, op));
        }
        Self { seed, ops, cfg }
    }

    fn gen_heap(rng: &mut StdRng, model: &State) -> FtlOp {
        let lpn = rng.random_range(0..HEAP_PAGES);
        let fill = rng.random_range(1..256u32) as u8;
        match rng.random_range(0..10u32) {
            0..=6 => FtlOp::Write { lpn, fill },
            7 => FtlOp::Read { lpn },
            8 => {
                if model[lpn as usize].is_some() {
                    FtlOp::Trim { lpn }
                } else {
                    FtlOp::Write { lpn, fill }
                }
            }
            _ => {
                // Small atomic batch of distinct heap pages.
                let mut pages: Vec<(u64, u8)> = vec![(lpn, fill)];
                for _ in 0..2 {
                    let l = rng.random_range(0..HEAP_PAGES);
                    if !pages.iter().any(|&(d, _)| d == l) {
                        pages.push((l, rng.random_range(1..256u32) as u8));
                    }
                }
                FtlOp::WriteAtomic { pages }
            }
        }
    }

    fn gen_wal(rng: &mut StdRng, cursor: &mut u64) -> FtlOp {
        if rng.random_range(0..4u32) == 0 {
            // A commit: everything appended so far becomes durable.
            return FtlOp::Flush;
        }
        let lpn = WAL_BASE + *cursor % WAL_PAGES;
        *cursor += 1;
        FtlOp::Write { lpn, fill: rng.random_range(1..256u32) as u8 }
    }

    fn gen_compact(rng: &mut StdRng, model: &State) -> FtlOp {
        if rng.random_range(0..6u32) == 0 {
            return FtlOp::Checkpoint;
        }
        let mapped: Vec<u64> =
            (0..HEAP_PAGES).filter(|&l| model[l as usize].is_some()).collect();
        if mapped.is_empty() {
            // Nothing to compact yet: seed the cold region directly.
            return FtlOp::Write {
                lpn: COLD_BASE + rng.random_range(0..COLD_PAGES),
                fill: rng.random_range(1..256u32) as u8,
            };
        }
        // Remap settled heap pages into the cold region: distinct dests,
        // no dest aliasing a src (heap srcs can never collide with cold
        // dests, so only dest-dest clashes need checking).
        let want = rng.random_range(1..4usize);
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for _ in 0..want * 3 {
            if pairs.len() >= want {
                break;
            }
            let src = mapped[rng.random_range(0..mapped.len())];
            let dest = COLD_BASE + rng.random_range(0..COLD_PAGES);
            if !pairs.iter().any(|&(d, s)| d == dest || s == dest || d == src) {
                pairs.push((dest, src));
            }
        }
        if pairs.is_empty() {
            FtlOp::Flush
        } else {
            FtlOp::Share { pairs }
        }
    }
}

impl CrashWorkload for FtlStreamWorkload {
    fn name(&self) -> String {
        format!("ftl-stream-s{}-n{}", self.seed, self.ops.len())
    }

    fn crash_points(&self) -> u64 {
        let ops = self.ops.iter().map(|(slot, op)| (Some(*slot), op));
        run_ftl_case(&self.cfg, &STREAM_LABELS, ops, None, 0).expect("fault-free run cannot fail")
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        let ops = self.ops.iter().map(|(slot, op)| (Some(*slot), op));
        run_ftl_case(&self.cfg, &STREAM_LABELS, ops, Some(mode), index).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl_workload::exec;
    use nand_sim::BlockId;
    use share_core::{BlockDevice, Ftl};
    use std::collections::BTreeSet;

    #[test]
    fn generated_ops_are_deterministic_and_use_all_streams() {
        let a = FtlStreamWorkload::new(5, 200);
        let b = FtlStreamWorkload::new(5, 200);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        for slot in [HEAP, WAL, COMPACT] {
            assert!(
                a.ops.iter().any(|&(s, _)| s == slot),
                "200 ops should touch stream {} ({})",
                slot,
                STREAM_LABELS[slot]
            );
        }
    }

    #[test]
    fn fault_free_run_has_a_nonempty_crash_space() {
        let w = FtlStreamWorkload::new(2, 150);
        assert!(w.crash_points() > 60, "150 stream ops should program > 60 pages");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = FtlStreamWorkload::new(8, 200);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }

    #[test]
    fn channels_keep_multiple_frontiers_open_during_the_run() {
        // The point of this workload: the crash space spans several
        // partially programmed data blocks at once. Check that some crash
        // boundary of the fault-free run — the op boundary with the most
        // open frontiers, not just the last one — finds them on at least
        // two channels.
        let w = FtlStreamWorkload::new(3, 250);
        let mut ftl = Ftl::new(w.cfg.clone());
        let streams: Vec<u32> =
            STREAM_LABELS.iter().map(|l| ftl.stream_intern(l)).collect();
        let g = w.cfg.geometry;
        let mut widest: (BTreeSet<u32>, Vec<BlockId>) = Default::default();
        for (slot, op) in &w.ops {
            ftl.set_stream(streams[*slot]);
            exec(&mut ftl, op).unwrap();
            let partial: Vec<BlockId> = (w.cfg.data_start().0..g.blocks)
                .map(BlockId)
                .filter(|&b| (1..g.pages_per_block).contains(&ftl.nand().write_frontier(b)))
                .collect();
            let channels: BTreeSet<u32> =
                partial.iter().map(|&b| g.channel_of_block(b)).collect();
            if channels.len() > widest.0.len() {
                widest = (channels, partial);
            }
        }
        let (channels, partial) = widest;
        assert!(
            channels.len() >= 2,
            "at the widest op boundary, partially programmed data blocks {partial:?} sit on \
             channels {channels:?}"
        );
    }
}
