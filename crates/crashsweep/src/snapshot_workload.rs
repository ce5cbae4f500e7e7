//! Snapshot-aware FTL crash workload.
//!
//! Mixes plain writes/trims with snapshot create/clone/drop/read so every
//! crash point lands around a snapshot lifecycle boundary: a create that
//! was never checkpointed (and is legitimately lost), a clone's atomic
//! delta flush, a drop whose tombstone is still RAM-buffered, a GC pass
//! relocating pinned-only pages. The logical page state is verified by
//! the shared prefix-consistency oracle, which then checks every recovered
//! snapshot against the shadow table.

use crate::ftl_workload::{apply, small_device, FtlOp, FtlWorkload, State};
use share_rng::{Rng, StdRng};

/// Logical pages of the snapshot workload: same tiny space as the mixed
/// workload so GC, pinned relocation and checkpoints all trigger fast.
pub const SNAP_PAGES: u64 = 64;

/// Snapshot name slots cycled by the generator ("s0".."s3"); dropping
/// and re-creating a slot reuses the name with fresh frozen content.
const SNAP_SLOTS: u32 = 4;

impl FtlWorkload {
    /// Snapshot lifecycle workload over a small logical space: `n_ops` ops
    /// generated deterministically from `seed`. Ops are pre-validated
    /// against the shadow model so the fault-free run accepts every one.
    pub fn snapshot(seed: u64, n_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = State::new(SNAP_PAGES);
        let mut ops = Vec::with_capacity(n_ops);
        while ops.len() < n_ops {
            let op = gen_op(&mut rng, &model);
            apply(&mut model, &op);
            ops.push(op);
        }
        Self::new(format!("ftl-snapshot-s{seed}-n{n_ops}"), small_device(SNAP_PAGES), ops)
    }
}

fn gen_op(rng: &mut StdRng, model: &State) -> FtlOp {
    let snaps = &model.snaps;
    let lpn = |rng: &mut StdRng| rng.random_range(0..SNAP_PAGES);
    let fill = |rng: &mut StdRng| rng.random_range(1..256u32) as u8;
    let live: Vec<u32> = snaps.keys().copied().collect();
    let pick_live = |rng: &mut StdRng| live[rng.random_range(0..live.len())];
    match rng.random_range(0..16u32) {
        0..=5 => FtlOp::Write { lpn: lpn(rng), fill: fill(rng) },
        6 => FtlOp::Trim { lpn: lpn(rng) },
        7..=8 => {
            let free: Vec<u32> = (0..SNAP_SLOTS).filter(|s| !snaps.contains_key(s)).collect();
            if free.is_empty() {
                return FtlOp::Write { lpn: lpn(rng), fill: fill(rng) };
            }
            let slot = free[rng.random_range(0..free.len())];
            let start = rng.random_range(0..SNAP_PAGES - 1);
            let len = rng.random_range(1..=(SNAP_PAGES - start).min(16));
            FtlOp::SnapCreate { slot, start, len }
        }
        9..=10 => {
            if live.is_empty() {
                return FtlOp::Write { lpn: lpn(rng), fill: fill(rng) };
            }
            let slot = pick_live(rng);
            let snap_len = snaps[&slot].content.len() as u64;
            let len = rng.random_range(1..=snap_len);
            let src_offset = rng.random_range(0..=snap_len - len);
            let dst = rng.random_range(0..=SNAP_PAGES - len);
            FtlOp::SnapClone { slot, src_offset, dst, len }
        }
        11 => {
            if live.is_empty() {
                return FtlOp::Trim { lpn: lpn(rng) };
            }
            FtlOp::SnapDrop { slot: pick_live(rng) }
        }
        12..=13 => {
            if live.is_empty() {
                return FtlOp::Write { lpn: lpn(rng), fill: fill(rng) };
            }
            let slot = pick_live(rng);
            let snap_len = snaps[&slot].content.len() as u64;
            FtlOp::SnapRead { slot, offset: rng.random_range(0..snap_len) }
        }
        14 => FtlOp::Flush,
        _ => FtlOp::Checkpoint,
    }
}
