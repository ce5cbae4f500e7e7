//! The L2P mapping table, per-page reference counts, and the
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

/// Table of *extra* logical references to shared physical pages.
///
/// The primary (program-time) LPN of each PPN lives in the per-page OOB
/// area; only references added by SHARE need RAM here, which is why the
/// paper can cap it at a few hundred entries (§4.2.1). A bounded table
/// refuses a share it has no slot for (`RevMapFull`); `usize::MAX` slots
/// model an unbounded one.
#[derive(Debug)]
pub struct RevMap {
    entries: HashMap<Ppn, Vec<Lpn>, FixedState>,
    /// Emptied lists, handed to the next page that needs one, so a steady
    /// stream of shares and relocations allocates nothing.
    spare: Vec<Vec<Lpn>>,
    len: usize,
    capacity: usize,
}

impl RevMap {
    /// A table holding at most `capacity` extra references.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::default(),
            spare: Vec::new(),
            len: 0,
            capacity,
        }
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

    /// Remove the extra reference `ppn -> lpn` if present.
    pub fn remove(&mut self, ppn: Ppn, lpn: Lpn) {
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
    valid_per_block: Vec<u32>,
    /// The LPNs the last [`Self::relocate`] moved (reused, never shrunk).
    moved: Vec<Lpn>,
}

impl MappingTable {
    /// An empty mapping for `logical_pages` LPNs over `geometry`.
    pub fn new(geometry: NandGeometry, logical_pages: u64, revmap_capacity: usize) -> Self {
        let phys = geometry.total_pages() as usize;
        Self {
            geometry,
            l2p: vec![Ppn::INVALID; logical_pages as usize],
            refcount: vec![0; phys],
            primary: vec![Lpn::INVALID; phys],
            revmap: RevMap::new(revmap_capacity),
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

    /// Program-time owner of `ppn`.
    pub fn primary(&self, ppn: Ppn) -> Lpn {
        self.primary[ppn.0 as usize]
    }

    /// Every LPN currently mapped to `ppn` (primary first if still mapped,
    /// then the extras).
    pub fn referrers(&self, ppn: Ppn) -> Vec<Lpn> {
        let mut out = Vec::new();
        self.referrers_into(ppn, &mut out);
        out
    }

    fn referrers_into(&self, ppn: Ppn, out: &mut Vec<Lpn>) {
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
        // If lpn was an extra (shared) reference, retire its revmap slot.
        if self.primary[old.0 as usize] != lpn {
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
    /// `lpn` is not the page's primary owner, and is refused with
    /// `RevMapFull` when none is free. Returns the page `lpn` pointed to
    /// before, as [`Self::unmap`] does.
    pub fn map_shared(&mut self, lpn: Lpn, ppn: Ppn) -> Result<Ppn, FtlError> {
        debug_assert!(self.refcount[ppn.0 as usize] > 0, "share target must be live");
        if self.shared_slot_need(lpn, ppn) > self.revmap.free() {
            return Err(FtlError::RevMapFull { capacity: self.revmap.capacity() });
        }
        let old = self.unmap(lpn);
        self.l2p[lpn.0 as usize] = ppn;
        self.inc_ref(ppn)?;
        if self.primary[ppn.0 as usize] != lpn {
            self.revmap.insert(ppn, lpn).expect("free slot checked");
        }
        Ok(old)
    }

    /// Net rev-map slots `map_shared(lpn, ppn)` would consume: one if `lpn`
    /// becomes a secondary reference, minus one if `lpn` currently *is* a
    /// secondary reference elsewhere (its slot is released by the remap).
    pub fn shared_slot_need(&self, lpn: Lpn, ppn: Ppn) -> usize {
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
                // A rebuild of what the runtime left holds no more extras
                // than its capacity, but a sidecar or a caller may name a
                // smaller capacity than the image holds. Grow to hold every
                // recovered reference (the device rebuilds into DRAM); a
                // share that needs a slot is then refused until one dies.
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
    /// full L2P scan is the oracle for every page's referrers.
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
        // Invariant 2: a page's referrers are the LPNs the scan maps to it:
        // each of them is listed, and no more are listed than it counts.
        for (i, &ppn) in self.l2p.iter().enumerate() {
            if ppn.is_valid() {
                let lpn = Lpn(i as u64);
                let referrers = self.referrers(ppn);
                let listed = referrers.contains(&lpn);
                assert!(listed, "{lpn} -> {ppn} not discoverable from reverse side");
                let count = self.refcount(ppn) as usize;
                assert_eq!(referrers.len(), count, "{ppn}: referrers are not the scan");
            }
        }
    }
}
