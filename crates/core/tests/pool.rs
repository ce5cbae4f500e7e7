//! The data-pool allocator through its public API: lanes, rotation, the
//! hard-floor rule, victim eligibility, pins and recovery.

use nand_sim::{BlockId, NandArray, NandGeometry, NandTiming, Ppn, SimClock};
use share_core::{BlockPool, BlockState, FtlError, WritePoint};

const USER: WritePoint = WritePoint::User;
const GC: WritePoint = WritePoint::Gc;

fn setup() -> (BlockPool, NandArray) {
    let g = NandGeometry::new(512, 4, 10);
    let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
    // Data pool: blocks 2..10 (first two "meta").
    (BlockPool::new(g, BlockId(2), 8, 0), nand)
}

/// A pool over every block of a `channels`-channel array of 4-page blocks.
fn multi_channel(channels: u32, blocks: u32, low_water: usize) -> (BlockPool, NandArray) {
    let g = NandGeometry::new(512, 4, blocks).with_parallelism(channels, 1);
    let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
    (BlockPool::new(g, BlockId(0), blocks, low_water), nand)
}

#[test]
fn allocations_are_sequential_within_a_block() {
    let (mut pool, nand) = setup();
    let p0 = pool.alloc(&nand, USER).unwrap();
    let p1 = pool.alloc(&nand, USER).unwrap();
    assert_eq!(p1.0, p0.0 + 1);
    // Same block until it fills (4 pages).
    let _p2 = pool.alloc(&nand, USER).unwrap();
    let p3 = pool.alloc(&nand, USER).unwrap();
    assert_eq!(nand.geometry().block_of(p0), nand.geometry().block_of(p3));
    let p4 = pool.alloc(&nand, USER).unwrap();
    assert_ne!(nand.geometry().block_of(p0), nand.geometry().block_of(p4));
}

#[test]
fn user_and_gc_write_points_use_distinct_blocks() {
    let (mut pool, nand) = setup();
    let u = pool.alloc(&nand, USER).unwrap();
    let g = pool.alloc(&nand, GC).unwrap();
    assert_ne!(nand.geometry().block_of(u), nand.geometry().block_of(g));
}

#[test]
fn user_allocations_stripe_across_channels() {
    let (mut pool, nand) = multi_channel(4, 16, 0);
    let g = nand.geometry();
    let ppns: Vec<Ppn> = (0..4).map(|_| pool.alloc(&nand, USER).unwrap()).collect();
    let mut channels: Vec<u32> = ppns.iter().map(|&p| g.channel_of_block(g.block_of(p))).collect();
    channels.sort_unstable();
    channels.dedup();
    assert_eq!(channels.len(), 4, "4 consecutive host pages span 4 channels");
    // The fifth allocation wraps back to the first lane's open block.
    let p4 = pool.alloc(&nand, USER).unwrap();
    assert_eq!(g.block_of(p4), g.block_of(ppns[0]));
    assert_eq!(p4.0, ppns[0].0 + 1);
}

#[test]
fn gc_allocations_rotate_over_channels() {
    let (mut pool, nand) = multi_channel(4, 16, 0);
    let g = nand.geometry();
    let ppns: Vec<Ppn> = (0..4).map(|_| pool.alloc(&nand, GC).unwrap()).collect();
    let mut channels: Vec<u32> = ppns.iter().map(|&p| g.channel_of_block(g.block_of(p))).collect();
    channels.sort_unstable();
    channels.dedup();
    assert_eq!(channels.len(), 4, "4 consecutive copyback pages span 4 channels");
    // The fifth allocation wraps back to the first GC lane's open block.
    let p4 = pool.alloc(&nand, GC).unwrap();
    assert_eq!(g.block_of(p4), g.block_of(ppns[0]));
    assert_eq!(p4.0, ppns[0].0 + 1);
    for rel in ppns.iter().map(|&p| pool.rel(g.block_of(p)).unwrap()) {
        assert_eq!(pool.state(rel), BlockState::GcOpen);
    }
}

/// Fill both GC lanes of a 2-channel, 8-block pool, then open one more
/// block; returns that allocation and the one after it.
fn gc_lanes_past_one_block(low_water: usize) -> (BlockPool, NandArray, Ppn, Ppn) {
    let (mut pool, nand) = multi_channel(2, 8, low_water);
    for _ in 0..8 {
        pool.alloc(&nand, GC).unwrap();
    }
    assert_eq!(pool.free_count(), 6, "two GC blocks open, both full");
    let opened = pool.alloc(&nand, GC).unwrap();
    assert_eq!(pool.free_count(), 5);
    let next = pool.alloc(&nand, GC).unwrap();
    (pool, nand, opened, next)
}

#[test]
fn gc_rotation_skips_a_full_lane_at_the_floor() {
    // Above the floor the rotation moves on to the other lane, whose block
    // is full, and it opens a second fresh block.
    let (pool, nand, opened, next) = gc_lanes_past_one_block(0);
    let g = nand.geometry();
    assert_ne!(g.channel_of_block(g.block_of(opened)), g.channel_of_block(g.block_of(next)));
    assert_eq!(pool.free_count(), 4);
    // At the floor the full lane is skipped for the one with room: the
    // page lands behind the block just opened and no block is spent.
    let (pool, _, opened, next) = gc_lanes_past_one_block(6);
    assert_eq!(pool.hard_floor(), 6);
    assert_eq!(next.0, opened.0 + 1, "full GC lane skipped while another has room");
    assert_eq!(pool.free_count(), 5, "no block opened while a GC lane had room");
}

#[test]
fn gc_rotation_at_the_floor_opens_a_block_only_when_no_lane_has_room() {
    let (mut pool, nand) = multi_channel(2, 8, 8);
    // At the floor from the start: the first GC allocation has no lane
    // with room and must open one; the next three fill that block.
    let first = pool.alloc(&nand, GC).unwrap();
    for i in 1..4 {
        assert_eq!(pool.alloc(&nand, GC).unwrap().0, first.0 + i);
    }
    assert_eq!(pool.free_count(), 7);
    pool.alloc(&nand, GC).unwrap();
    assert_eq!(pool.free_count(), 6, "a full lane everywhere opens one block");
}

#[test]
fn gc_rotation_leaves_a_channel_its_last_free_block() {
    // Blocks 0 and 2 are channel 0, blocks 1 and 3 channel 1.
    let (mut pool, nand) = multi_channel(2, 4, 0);
    let g = nand.geometry();
    let channel = |p: Ppn| g.channel_of_block(g.block_of(p));
    // A host page takes one channel-0 block, leaving channel 0 one.
    assert_eq!(channel(pool.alloc(&nand, USER).unwrap()), 0);
    // GC lane 0 would take that last block: the rotation skips it for lane
    // 1 and stays there while lane 1 has room.
    for _ in 0..4 {
        assert_eq!(channel(pool.alloc(&nand, GC).unwrap()), 1);
    }
    assert_eq!(pool.lane_steals(), 0);
}

#[test]
fn lane_steal_fires_when_the_rotation_finds_a_channel_dry() {
    let (mut pool, nand) = multi_channel(2, 4, 0);
    let g = nand.geometry();
    // The GC rotation opens a block on each channel and fills both. With
    // no lane left with room and no channel with a spare block, the ninth
    // page opens channel 0's last block on the cursor's lane.
    for _ in 0..9 {
        pool.alloc(&nand, GC).unwrap();
    }
    assert_eq!(pool.lane_steals(), 0);
    // Channel 0 is dry: user lane 0's first block is a stolen one.
    let p = pool.alloc(&nand, USER).unwrap();
    assert_eq!(g.channel_of_block(g.block_of(p)), 1, "stolen block is foreign");
    assert_eq!(pool.lane_steals(), 1, "cross-channel fallback must be counted");
}

#[test]
fn exhaustion_yields_device_full() {
    let (mut pool, nand) = setup();
    // 8 blocks * 4 pages = 32 allocations, all to the user point.
    for _ in 0..32 {
        pool.alloc(&nand, USER).unwrap();
    }
    assert_eq!(pool.alloc(&nand, USER), Err(FtlError::DeviceFull));
    assert_eq!(pool.free_count(), 0);
}

#[test]
fn full_blocks_become_victim_eligible() {
    let (mut pool, mut nand) = setup();
    for _ in 0..4 {
        let p = pool.alloc(&nand, USER).unwrap();
        nand.program(p, &[0u8; 512]).unwrap();
    }
    // Block not yet closed: closing happens lazily on the next alloc.
    pool.alloc(&nand, USER).unwrap();
    let closed: Vec<u32> = (0..8).filter(|&r| pool.victim_eligible(r, &nand)).collect();
    assert_eq!(closed.len(), 1);
}

#[test]
fn unprogrammed_batch_pages_block_victim_eligibility() {
    let (mut pool, mut nand) = setup();
    // Fill a block with allocations but only program three of the four
    // pages — the last allocation is still in flight.
    let mut pages = Vec::new();
    for _ in 0..4 {
        pages.push(pool.alloc(&nand, USER).unwrap());
    }
    for p in &pages[..3] {
        nand.program(*p, &[0u8; 512]).unwrap();
    }
    pool.alloc(&nand, USER).unwrap(); // closes the full block
    let rel = pool.rel(nand.geometry().block_of(pages[0])).unwrap();
    assert_eq!(pool.state(rel), BlockState::Closed);
    assert!(!pool.victim_eligible(rel, &nand), "in-flight page must pin the block");
    nand.program(pages[3], &[0u8; 512]).unwrap();
    assert!(pool.victim_eligible(rel, &nand));
}

#[test]
fn release_returns_block_to_free_list() {
    let (mut pool, mut nand) = setup();
    for _ in 0..5 {
        let p = pool.alloc(&nand, USER).unwrap();
        nand.program(p, &[0u8; 512]).unwrap();
    }
    let victim = (0..8).find(|&r| pool.victim_eligible(r, &nand)).unwrap();
    let before = pool.free_count();
    nand.erase(pool.abs(victim)).unwrap();
    pool.release(victim);
    assert_eq!(pool.free_count(), before + 1);
    assert_eq!(pool.state(victim), BlockState::Free);
}

#[test]
fn wear_leveling_prefers_low_erase_count() {
    let (mut pool, mut nand) = setup();
    // Wear out block rel=0 (abs 2) heavily.
    for _ in 0..5 {
        nand.erase(BlockId(2)).unwrap();
    }
    let p = pool.alloc(&nand, USER).unwrap();
    // Allocation should come from some block other than the worn one.
    assert_ne!(nand.geometry().block_of(p), BlockId(2));
}

#[test]
fn rebuild_from_nand_seals_programmed_blocks() {
    let (mut pool, mut nand) = setup();
    let p = pool.alloc(&nand, USER).unwrap();
    nand.program(p, &[0u8; 512]).unwrap();
    pool.rebuild_from_nand(&nand);
    let rel = pool.rel(nand.geometry().block_of(p)).unwrap();
    assert_eq!(pool.state(rel), BlockState::Closed);
    assert_eq!(pool.free_count(), 7);
}

#[test]
fn captured_blocks_pin_victims_until_released() {
    let (mut pool, mut nand) = setup();
    // Fill one block inside a capture window, program every page.
    pool.begin_capture();
    let mut pages = Vec::new();
    for _ in 0..4 {
        let p = pool.alloc(&nand, USER).unwrap();
        nand.program(p, &[0u8; 512]).unwrap();
        pages.push(p);
    }
    let captured = pool.end_capture();
    assert_eq!(captured.len(), 4);
    pool.alloc(&nand, USER).unwrap(); // closes the full block
    let rel = pool.rel(nand.geometry().block_of(pages[0])).unwrap();
    assert_eq!(pool.state(rel), BlockState::Closed);
    assert_eq!(pool.inflight_pinned_blocks(), 1);
    assert_eq!(pool.hard_floor(), 1, "a pinned block raises the floor");
    assert!(
        !pool.victim_eligible(rel, &nand),
        "fully-programmed block must stay pinned while its command is unreaped"
    );
    pool.release_inflight(&captured);
    assert_eq!(pool.inflight_pinned_blocks(), 0);
    assert!(pool.victim_eligible(rel, &nand));
}

#[test]
fn overlapping_command_pins_release_independently() {
    let (mut pool, mut nand) = setup();
    pool.begin_capture();
    let p0 = pool.alloc(&nand, USER).unwrap();
    nand.program(p0, &[0u8; 512]).unwrap();
    let first = pool.end_capture();
    pool.begin_capture();
    let p1 = pool.alloc(&nand, USER).unwrap();
    nand.program(p1, &[0u8; 512]).unwrap();
    let second = pool.end_capture();
    // Both commands touched the same open block.
    assert_eq!(first, second);
    assert_eq!(pool.inflight_pinned_blocks(), 1);
    pool.release_inflight(&first);
    assert_eq!(pool.inflight_pinned_blocks(), 1, "second command still pins");
    pool.release_inflight(&second);
    assert_eq!(pool.inflight_pinned_blocks(), 0);
}

#[test]
fn rebuild_clears_inflight_pins() {
    let (mut pool, mut nand) = setup();
    pool.begin_capture();
    let p = pool.alloc(&nand, USER).unwrap();
    nand.program(p, &[0u8; 512]).unwrap();
    let _captured = pool.end_capture();
    assert_eq!(pool.inflight_pinned_blocks(), 1);
    pool.rebuild_from_nand(&nand);
    assert_eq!(pool.inflight_pinned_blocks(), 0);
}

#[test]
fn rel_abs_round_trip() {
    let (pool, _) = setup();
    assert_eq!(pool.abs(3), BlockId(5));
    assert_eq!(pool.rel(BlockId(5)), Some(3));
    assert_eq!(pool.rel(BlockId(1)), None); // meta area
    assert_eq!(pool.rel(BlockId(10)), None); // beyond pool
}
