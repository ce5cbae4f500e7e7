//! The L2P mapping table, per-page reference counts, and the bounded
//! shared-page reverse-mapping (P2L) table.
//!
//! Invariants maintained (and checked by `debug_assert` plus the property
//! tests in `tests/`):
//!
//! 1. `refcount(ppn) == |{ lpn : l2p[lpn] == ppn }|` for every PPN.
//! 2. Every LPN mapping to `ppn` is discoverable from the reverse side:
//!    it is either `primary(ppn)` or listed in the shared rev-map entry of
//!    `ppn`. Garbage collection depends on this to relocate shared pages.
//! 3. `valid_pages(block) == |{ ppn in block : refcount(ppn) > 0 }|`.

use crate::error::FtlError;
use crate::types::{Lpn, Ppn};
use crate::util::FixedState;
use nand_sim::{BlockId, NandGeometry};
use std::collections::HashMap;

/// What happens when the bounded reverse map runs out of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RevMapPolicy {
    /// Reject the SHARE command (`RevMapFull`); the host falls back to a
    /// plain write. Models a firmware that treats the table as exact.
    Strict,
    /// Accept the share and mark the physical page *overflowed*: garbage
    /// collection finds its referrers with a full L2P scan instead. Models
    /// the table as a bounded cache — slower GC under heavy sharing, but
    /// commands never fail. The scan costs no simulated time, and the
    /// simulator keeps its answer per overflowed page instead of
    /// recomputing it.
    #[default]
    ScanOnOverflow,
}

/// Bounded table of *extra* logical references to shared physical pages.
///
/// The primary (program-time) LPN of each PPN lives in the per-page OOB
/// area; only references added by SHARE need RAM here, which is why the
/// paper can cap it at a few hundred entries (§4.2.1).
#[derive(Debug)]
pub struct RevMap {
    entries: HashMap<Ppn, Vec<Lpn>, FixedState>,
    /// Pages whose extra references exceed the table, each with every LPN
    /// mapped to it in ascending order: the answer of the L2P scan the
    /// model charges for, kept up to date instead of recomputed. They hold
    /// no slots.
    overflowed: HashMap<Ppn, Vec<Lpn>, FixedState>,
    /// Emptied lists of both maps, handed to the next page that needs one,
    /// so a steady stream of shares and relocations allocates nothing.
    spare: Vec<Vec<Lpn>>,
    len: usize,
    capacity: usize,
}

impl RevMap {
    /// A table holding at most `capacity` extra references.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::default(),
            overflowed: HashMap::default(),
            spare: Vec::new(),
            len: 0,
            capacity,
        }
    }

    /// Whether `ppn`'s extra references spilled out of the table.
    pub fn is_overflowed(&self, ppn: Ppn) -> bool {
        self.overflowed.contains_key(&ppn)
    }

    /// Move `ppn` to scan tracking: release the slots its extras held and
    /// keep them, `primary` (if still mapped to it) and `added` as its
    /// holders.
    fn mark_overflowed(&mut self, ppn: Ppn, primary: Option<Lpn>, added: Lpn) {
        let mut holders = match self.entries.remove(&ppn) {
            Some(list) => {
                self.len -= list.len();
                list
            }
            None => self.spare.pop().unwrap_or_default(),
        };
        holders.extend(primary);
        holders.push(added);
        holders.sort_unstable();
        self.overflowed.insert(ppn, holders);
    }

    /// Record `lpn` as a new holder of the overflowed page `ppn`.
    fn add_holder(&mut self, ppn: Ppn, lpn: Lpn) {
        let holders = self.overflowed.get_mut(&ppn).expect("page is overflowed");
        let pos = holders.binary_search(&lpn).expect_err("holder listed twice");
        holders.insert(pos, lpn);
    }

    fn recycle(&mut self, mut list: Vec<Lpn>) {
        list.clear();
        self.spare.push(list);
    }

    /// Current number of extra references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.len)
    }

    /// Record `lpn` as an extra reference to `ppn`.
    pub fn insert(&mut self, ppn: Ppn, lpn: Lpn) -> Result<(), FtlError> {
        if self.len >= self.capacity {
            return Err(FtlError::RevMapFull { capacity: self.capacity });
        }
        let spare = &mut self.spare;
        let list = self.entries.entry(ppn).or_insert_with(|| spare.pop().unwrap_or_default());
        debug_assert!(!list.contains(&lpn), "duplicate revmap entry {ppn} -> {lpn}");
        list.push(lpn);
        self.len += 1;
        Ok(())
    }

    /// Remove the reference `ppn -> lpn`: from the holders of an
    /// overflowed page, else from the extras if present.
    pub fn remove(&mut self, ppn: Ppn, lpn: Lpn) {
        if let Some(holders) = self.overflowed.get_mut(&ppn) {
            if let Ok(pos) = holders.binary_search(&lpn) {
                holders.remove(pos);
            }
            return;
        }
        if let Some(list) = self.entries.get_mut(&ppn) {
            if let Some(pos) = list.iter().position(|&l| l == lpn) {
                list.swap_remove(pos);
                self.len -= 1;
                if list.is_empty() {
                    let list = self.entries.remove(&ppn).expect("listed above");
                    self.recycle(list);
                }
            }
        }
    }

    /// Extra references to `ppn` (primary LPN not included).
    pub fn extras(&self, ppn: Ppn) -> &[Lpn] {
        self.entries.get(&ppn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Drop every entry for `ppn` (page relocated or erased).
    pub fn remove_all(&mut self, ppn: Ppn) {
        if let Some(list) = self.entries.remove(&ppn) {
            self.len -= list.len();
            self.recycle(list);
        }
        if let Some(holders) = self.overflowed.remove(&ppn) {
            self.recycle(holders);
        }
    }
}

/// The in-DRAM mapping state of the FTL.
#[derive(Debug)]
pub struct MappingTable {
    geometry: NandGeometry,
    l2p: Vec<Ppn>,
    refcount: Vec<u16>,
    /// Program-time (OOB) logical owner of each physical page.
    primary: Vec<Lpn>,
    revmap: RevMap,
    policy: RevMapPolicy,
    valid_per_block: Vec<u32>,
    /// The LPNs the last [`Self::relocate`] moved (reused, never shrunk).
    moved: Vec<Lpn>,
}

impl MappingTable {
    /// An empty mapping for `logical_pages` LPNs over `geometry`.
    pub fn new(geometry: NandGeometry, logical_pages: u64, revmap_capacity: usize) -> Self {
        Self::with_policy(geometry, logical_pages, revmap_capacity, RevMapPolicy::default())
    }

    /// [`Self::new`] with an explicit overflow policy.
    pub fn with_policy(
        geometry: NandGeometry,
        logical_pages: u64,
        revmap_capacity: usize,
        policy: RevMapPolicy,
    ) -> Self {
        let phys = geometry.total_pages() as usize;
        Self {
            geometry,
            l2p: vec![Ppn::INVALID; logical_pages as usize],
            refcount: vec![0; phys],
            primary: vec![Lpn::INVALID; phys],
            revmap: RevMap::new(revmap_capacity),
            policy,
            valid_per_block: vec![0; geometry.blocks as usize],
            moved: Vec::new(),
        }
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// Current physical page of `lpn` (INVALID if unmapped).
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Ppn {
        self.l2p[lpn.0 as usize]
    }

    /// Whether `ppn` holds live data (referenced by at least one LPN).
    #[inline]
    pub fn is_live(&self, ppn: Ppn) -> bool {
        self.refcount[ppn.0 as usize] > 0
    }

    /// Reference count of `ppn`.
    #[inline]
    pub fn refcount(&self, ppn: Ppn) -> u16 {
        self.refcount[ppn.0 as usize]
    }

    /// Live (valid) pages currently in `block`.
    #[inline]
    pub fn valid_pages(&self, block: BlockId) -> u32 {
        self.valid_per_block[block.0 as usize]
    }

    /// The shared-page reverse map (read-only).
    pub fn revmap(&self) -> &RevMap {
        &self.revmap
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> RevMapPolicy {
        self.policy
    }

    /// Program-time owner of `ppn`.
    pub fn primary(&self, ppn: Ppn) -> Lpn {
        self.primary[ppn.0 as usize]
    }

    /// Every LPN currently mapped to `ppn` (primary first if still mapped).
    ///
    /// For pages whose extra references overflowed the bounded table, this
    /// is what a full L2P scan finds, in ascending LPN order (the
    /// [`RevMapPolicy::ScanOnOverflow`] cost model: GC pays, commands never
    /// fail).
    pub fn referrers(&self, ppn: Ppn) -> Vec<Lpn> {
        let mut out = Vec::new();
        self.referrers_into(ppn, &mut out);
        out
    }

    fn referrers_into(&self, ppn: Ppn, out: &mut Vec<Lpn>) {
        if let Some(holders) = self.revmap.overflowed.get(&ppn) {
            out.extend_from_slice(holders);
            return;
        }
        let p = self.primary[ppn.0 as usize];
        if p.is_valid() && self.l2p[p.0 as usize] == ppn {
            out.push(p);
        }
        for &l in self.revmap.extras(ppn) {
            debug_assert_eq!(self.l2p[l.0 as usize], ppn, "stale revmap entry");
            out.push(l);
        }
    }

    fn inc_ref(&mut self, ppn: Ppn) -> Result<(), FtlError> {
        let rc = &mut self.refcount[ppn.0 as usize];
        if *rc == u16::MAX {
            return Err(FtlError::RefOverflow);
        }
        *rc += 1;
        if *rc == 1 {
            self.valid_per_block[self.geometry.block_of(ppn).0 as usize] += 1;
        }
        Ok(())
    }

    fn dec_ref(&mut self, ppn: Ppn) {
        let rc = &mut self.refcount[ppn.0 as usize];
        debug_assert!(*rc > 0, "refcount underflow on {ppn}");
        *rc -= 1;
        if *rc == 0 {
            self.valid_per_block[self.geometry.block_of(ppn).0 as usize] -= 1;
            self.revmap.remove_all(ppn);
        }
    }

    /// Unmap `lpn` (no-op if already unmapped), returning the physical
    /// page it pointed to (INVALID if none). Used by writes (before
    /// remapping), TRIM and SHARE.
    pub fn unmap(&mut self, lpn: Lpn) -> Ppn {
        let old = self.l2p[lpn.0 as usize];
        if !old.is_valid() {
            return old;
        }
        self.l2p[lpn.0 as usize] = Ppn::INVALID;
        // If lpn was an extra (shared) reference, retire its revmap slot;
        // an overflowed page drops it from its holders, primary or not.
        if self.primary[old.0 as usize] != lpn || self.revmap.is_overflowed(old) {
            self.revmap.remove(old, lpn);
        }
        self.dec_ref(old);
        old
    }

    /// Map `lpn` to a freshly programmed `ppn` (a host write or a GC
    /// copyback destination). Sets the program-time primary owner. Returns
    /// the page `lpn` pointed to before, as [`Self::unmap`] does.
    pub fn map_new_write(&mut self, lpn: Lpn, ppn: Ppn) -> Result<Ppn, FtlError> {
        debug_assert_eq!(self.refcount[ppn.0 as usize], 0, "fresh ppn must be unreferenced");
        let old = self.unmap(lpn);
        self.l2p[lpn.0 as usize] = ppn;
        self.primary[ppn.0 as usize] = lpn;
        self.inc_ref(ppn)?;
        Ok(old)
    }

    /// Redirect `lpn` to an *already live* `ppn` (the SHARE remap, and GC
    /// relocation of secondary references). Consumes a rev-map slot when
    /// `lpn` is not the page's primary owner. Returns the page `lpn`
    /// pointed to before, as [`Self::unmap`] does.
    pub fn map_shared(&mut self, lpn: Lpn, ppn: Ppn) -> Result<Ppn, FtlError> {
        debug_assert!(self.refcount[ppn.0 as usize] > 0, "share target must be live");
        let overflow = self.shared_slot_need(lpn, ppn) > self.revmap.free();
        if overflow && self.policy == RevMapPolicy::Strict {
            return Err(FtlError::RevMapFull { capacity: self.revmap.capacity() });
        }
        let old = self.unmap(lpn);
        self.l2p[lpn.0 as usize] = ppn;
        self.inc_ref(ppn)?;
        let primary = self.primary[ppn.0 as usize];
        if self.revmap.is_overflowed(ppn) {
            self.revmap.add_holder(ppn, lpn);
        } else if primary != lpn {
            if overflow || self.revmap.free() == 0 {
                let mapped = primary.is_valid() && self.l2p[primary.0 as usize] == ppn;
                self.revmap.mark_overflowed(ppn, mapped.then_some(primary), lpn);
            } else {
                self.revmap.insert(ppn, lpn).expect("free slot checked");
            }
        }
        Ok(old)
    }

    /// Net rev-map slots `map_shared(lpn, ppn)` would consume: one if `lpn`
    /// becomes a secondary reference, minus one if `lpn` currently *is* a
    /// secondary reference elsewhere (its slot is released by the remap).
    pub fn shared_slot_need(&self, lpn: Lpn, ppn: Ppn) -> usize {
        if self.revmap.is_overflowed(ppn) {
            return 0; // scan tracking needs no slots
        }
        let needs = (self.primary[ppn.0 as usize] != lpn) as usize;
        let old = self.l2p[lpn.0 as usize];
        let frees = (old.is_valid()
            && self.primary[old.0 as usize] != lpn
            // The slot only comes back if the remap kills the old page or
            // merely drops this secondary reference; either way `remove`
            // or `remove_all` runs inside `unmap`.
            ) as usize;
        needs.saturating_sub(frees)
    }

    /// Relocate all references of `from` to `to` (GC copyback). `to` must be
    /// freshly programmed with the same content. Returns the moved LPNs,
    /// valid until the next relocation.
    pub fn relocate(&mut self, from: Ppn, to: Ppn) -> Result<&[Lpn], FtlError> {
        let mut lpns = std::mem::take(&mut self.moved);
        lpns.clear();
        self.referrers_into(from, &mut lpns);
        debug_assert!(!lpns.is_empty(), "relocating dead page {from}");
        let (first, rest) = lpns.split_first().expect("live page has referrers");
        self.map_new_write(*first, to)?;
        for &lpn in rest {
            self.map_shared(lpn, to)?;
        }
        debug_assert!(!self.is_live(from), "source still live after relocation");
        self.moved = lpns;
        Ok(&self.moved)
    }

    /// Rebuild reverse state (refcounts, primaries, rev-map, valid counts)
    /// from a recovered L2P table.
    ///
    /// The first LPN found mapping to a PPN becomes its primary owner; any
    /// further LPNs (created by SHARE before the crash) go to the rev-map.
    /// Which referrer is "primary" is an accounting choice only — GC treats
    /// primary and shared references identically.
    pub fn rebuild_reverse(&mut self) {
        self.refcount.iter_mut().for_each(|r| *r = 0);
        self.valid_per_block.iter_mut().for_each(|v| *v = 0);
        self.primary.iter_mut().for_each(|p| *p = Lpn::INVALID);
        self.revmap = RevMap::new(self.revmap.capacity());
        for lpn_idx in 0..self.l2p.len() {
            let ppn = self.l2p[lpn_idx];
            if !ppn.is_valid() {
                continue;
            }
            let lpn = Lpn(lpn_idx as u64);
            let rc = &mut self.refcount[ppn.0 as usize];
            *rc += 1;
            if *rc == 1 {
                self.valid_per_block[self.geometry.block_of(ppn).0 as usize] += 1;
                self.primary[ppn.0 as usize] = lpn;
            } else {
                // Recovery may momentarily exceed the configured capacity;
                // grow transparently, as the device would rebuild into DRAM.
                if self.revmap.free() == 0 {
                    self.revmap.capacity += 1;
                }
                self.revmap.insert(ppn, lpn).expect("grown above");
            }
        }
    }

    /// Directly set an L2P entry during recovery replay (no reverse upkeep;
    /// call [`Self::rebuild_reverse`] afterwards).
    pub fn raw_set(&mut self, lpn: Lpn, ppn: Ppn) {
        self.l2p[lpn.0 as usize] = ppn;
    }

    /// The raw L2P table, for checkpointing.
    pub fn l2p_raw(&self) -> &[Ppn] {
        &self.l2p
    }

    /// Verify the invariants exhaustively (test helper; O(physical)). The
    /// full L2P scan is the oracle for the holders kept of overflowed pages.
    pub fn check_invariants(&self) {
        let mut counts = vec![0u16; self.refcount.len()];
        for &ppn in &self.l2p {
            if ppn.is_valid() {
                counts[ppn.0 as usize] += 1;
            }
        }
        assert_eq!(counts, self.refcount, "refcount does not match L2P");
        let mut valid = vec![0u32; self.valid_per_block.len()];
        for (i, &rc) in self.refcount.iter().enumerate() {
            if rc > 0 {
                valid[self.geometry.block_of(Ppn(i as u32)).0 as usize] += 1;
            }
        }
        assert_eq!(valid, self.valid_per_block, "per-block valid counts drifted");
        // Invariant 2: every mapped LPN is discoverable from its PPN.
        for (i, &ppn) in self.l2p.iter().enumerate() {
            if ppn.is_valid() {
                let lpn = Lpn(i as u64);
                assert!(
                    self.referrers(ppn).contains(&lpn),
                    "{lpn} -> {ppn} not discoverable from reverse side"
                );
            }
        }
        let mut scanned: HashMap<Ppn, Vec<Lpn>, FixedState> = HashMap::default();
        for (i, &ppn) in self.l2p.iter().enumerate() {
            if self.revmap.is_overflowed(ppn) {
                scanned.entry(ppn).or_default().push(Lpn(i as u64));
            }
        }
        for (&ppn, holders) in &self.revmap.overflowed {
            assert_eq!(scanned.get(&ppn), Some(holders), "{ppn}: kept holders are not the scan");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut t =
            MappingTable::with_policy(NandGeometry::new(512, 4, 8), 16, 1, RevMapPolicy::Strict);
        t.map_new_write(Lpn(0), Ppn(0)).unwrap();
        t.map_shared(Lpn(1), Ppn(0)).unwrap();
        assert_eq!(
            t.map_shared(Lpn(2), Ppn(0)),
            Err(FtlError::RevMapFull { capacity: 1 })
        );
        // Mapping the *primary* back needs no slot.
        t.check_invariants();
    }

    #[test]
    fn scan_on_overflow_keeps_sharing_working() {
        let mut t = MappingTable::with_policy(
            NandGeometry::new(512, 4, 8),
            16,
            1,
            RevMapPolicy::ScanOnOverflow,
        );
        t.map_new_write(Lpn(0), Ppn(0)).unwrap();
        t.map_shared(Lpn(1), Ppn(0)).unwrap();
        // Third reference overflows the 1-slot table but still succeeds.
        t.map_shared(Lpn(2), Ppn(0)).unwrap();
        assert!(t.revmap().is_overflowed(Ppn(0)));
        assert_eq!(t.refcount(Ppn(0)), 3);
        let mut refs = t.referrers(Ppn(0));
        refs.sort();
        assert_eq!(refs, vec![Lpn(0), Lpn(1), Lpn(2)]);
        t.check_invariants();
        // Relocation still moves every reference.
        let moved = t.relocate(Ppn(0), Ppn(7)).unwrap();
        assert_eq!(moved.len(), 3);
        assert!(!t.is_live(Ppn(0)));
        t.check_invariants();
        // Overflow mark clears when the page dies.
        for l in [Lpn(0), Lpn(1), Lpn(2)] {
            t.unmap(l);
        }
        assert!(!t.revmap().is_overflowed(Ppn(7)));
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
}
