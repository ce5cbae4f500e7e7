//! Unit cases of `MappingTable`: writes, overwrites, shares, unmaps,
//! relocation and the reverse-state rebuild, each followed by
//! `check_invariants` (the L2P scan as the oracle).

use nand_sim::{BlockId, NandGeometry, Ppn};
use share_core::{FtlError, Lpn, MappingTable};

fn table() -> MappingTable {
    MappingTable::new(NandGeometry::new(512, 4, 8), 16, 8)
}

#[test]
fn fresh_table_is_unmapped() {
    let t = table();
    assert_eq!(t.lookup(Lpn(0)), Ppn::INVALID);
    assert!(!t.is_live(Ppn(0)));
    assert_eq!(t.valid_pages(BlockId(0)), 0);
}

#[test]
fn write_maps_and_counts() {
    let mut t = table();
    t.map_new_write(Lpn(3), Ppn(5)).unwrap();
    assert_eq!(t.lookup(Lpn(3)), Ppn(5));
    assert_eq!(t.refcount(Ppn(5)), 1);
    assert_eq!(t.primary(Ppn(5)), Lpn(3));
    assert_eq!(t.valid_pages(BlockId(1)), 1); // ppn 5 is in block 1
    t.check_invariants();
}

#[test]
fn overwrite_invalidates_old_ppn() {
    let mut t = table();
    t.map_new_write(Lpn(3), Ppn(5)).unwrap();
    let old = t.map_new_write(Lpn(3), Ppn(6)).unwrap();
    assert_eq!(old, Ppn(5));
    assert!(!t.is_live(Ppn(5)));
    assert_eq!(t.valid_pages(BlockId(1)), 1);
    t.check_invariants();
}

#[test]
fn share_creates_two_references() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_new_write(Lpn(2), Ppn(1)).unwrap();
    // share(dest=2, src=1): Lpn 2 now points at Ppn 0 too.
    let old = t.map_shared(Lpn(2), Ppn(0)).unwrap();
    assert_eq!(old, Ppn(1));
    assert!(!t.is_live(Ppn(1)));
    assert_eq!(t.refcount(Ppn(0)), 2);
    assert_eq!(t.revmap().len(), 1);
    assert_eq!(t.referrers(Ppn(0)), vec![Lpn(1), Lpn(2)]);
    t.check_invariants();
}

#[test]
fn unmapping_shared_reference_frees_revmap_slot() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_shared(Lpn(2), Ppn(0)).unwrap();
    assert_eq!(t.revmap().len(), 1);
    t.unmap(Lpn(2));
    assert_eq!(t.revmap().len(), 0);
    assert_eq!(t.refcount(Ppn(0)), 1);
    t.check_invariants();
}

#[test]
fn unmapping_primary_keeps_shared_reference_alive() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_shared(Lpn(2), Ppn(0)).unwrap();
    t.unmap(Lpn(1));
    assert!(t.is_live(Ppn(0)));
    assert_eq!(t.referrers(Ppn(0)), vec![Lpn(2)]);
    t.check_invariants();
}

#[test]
fn revmap_capacity_is_enforced() {
    let mut t = MappingTable::new(NandGeometry::new(512, 4, 8), 16, 1);
    t.map_new_write(Lpn(0), Ppn(0)).unwrap();
    t.map_shared(Lpn(1), Ppn(0)).unwrap();
    assert_eq!(t.map_shared(Lpn(2), Ppn(0)), Err(FtlError::RevMapFull { capacity: 1 }));
    // The refused share changed nothing.
    assert_eq!(t.lookup(Lpn(2)), Ppn::INVALID);
    assert_eq!(t.referrers(Ppn(0)), vec![Lpn(0), Lpn(1)]);
    // Mapping the *primary* back needs no slot.
    t.unmap(Lpn(0));
    t.map_shared(Lpn(0), Ppn(0)).unwrap();
    t.check_invariants();
}

#[test]
fn relocate_moves_all_references() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_shared(Lpn(2), Ppn(0)).unwrap();
    t.map_shared(Lpn(3), Ppn(0)).unwrap();
    let moved = t.relocate(Ppn(0), Ppn(7)).unwrap();
    assert_eq!(moved.len(), 3);
    assert!(!t.is_live(Ppn(0)));
    assert_eq!(t.refcount(Ppn(7)), 3);
    for lpn in [Lpn(1), Lpn(2), Lpn(3)] {
        assert_eq!(t.lookup(lpn), Ppn(7));
    }
    t.check_invariants();
}

#[test]
fn relocate_when_primary_was_overwritten() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_shared(Lpn(2), Ppn(0)).unwrap();
    t.map_new_write(Lpn(1), Ppn(1)).unwrap(); // primary moves on
    assert_eq!(t.referrers(Ppn(0)), vec![Lpn(2)]);
    let moved = t.relocate(Ppn(0), Ppn(7)).unwrap();
    assert_eq!(moved, vec![Lpn(2)]);
    assert_eq!(t.lookup(Lpn(2)), Ppn(7));
    t.check_invariants();
}

#[test]
fn trim_then_rewrite_round_trip() {
    let mut t = table();
    t.map_new_write(Lpn(4), Ppn(2)).unwrap();
    assert_eq!(t.unmap(Lpn(4)), Ppn(2));
    assert!(!t.is_live(Ppn(2)));
    assert_eq!(t.lookup(Lpn(4)), Ppn::INVALID);
    t.map_new_write(Lpn(4), Ppn(3)).unwrap();
    assert_eq!(t.lookup(Lpn(4)), Ppn(3));
    t.check_invariants();
}

#[test]
fn rebuild_reverse_reconstructs_shared_state() {
    let mut t = table();
    t.map_new_write(Lpn(1), Ppn(0)).unwrap();
    t.map_shared(Lpn(2), Ppn(0)).unwrap();
    t.map_new_write(Lpn(3), Ppn(1)).unwrap();

    // Simulate recovery: copy the raw L2P, wipe reverse state, rebuild.
    let mut r = MappingTable::new(NandGeometry::new(512, 4, 8), 16, 8);
    for i in 0..16 {
        r.raw_set(Lpn(i), t.lookup(Lpn(i)));
    }
    r.rebuild_reverse();
    assert_eq!(r.refcount(Ppn(0)), 2);
    assert_eq!(r.refcount(Ppn(1)), 1);
    assert_eq!(r.referrers(Ppn(0)), vec![Lpn(1), Lpn(2)]);
    r.check_invariants();
}
