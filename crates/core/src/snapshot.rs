//! Device-level snapshot table: named, frozen alias namespaces over the
//! live L2P map, built on the same refcount machinery as SHARE.
//!
//! `snapshot_create` freezes the physical pages currently backing a
//! logical range into a [`SnapshotRecord`] — O(mapped pages) map reads and
//! **zero NAND programs**. The frozen PPNs *pin* their physical pages:
//! GC may relocate a pinned page (rewriting the frozen entry) but never
//! reclaims it while any snapshot references it, even after the live map
//! has moved on. Clones re-enter frozen pages into the live map through
//! the ordinary shared-mapping path, so copy-on-write falls out of the
//! existing refcount/invalidation machinery for free.
//!
//! Durability: the whole table is serialized into checkpoint images
//! (format v4; older images decode as an empty table), and incremental
//! changes between checkpoints ride the delta log as *tagged* deltas —
//! `Delta.lpn` bit 63 marks a snapshot record carrying `(snap id, page
//! offset)` instead of a logical page. Replaying a tagged delta against an
//! unknown snapshot id is a no-op: a snapshot created after the last
//! checkpoint was never durable, so losing it at a crash is the documented
//! (fsync-like) contract — `snapshot_persist` checkpoints to harden it.

use crate::error::FtlError;
use crate::types::Lpn;
use nand_sim::Ppn;
use std::collections::HashMap;

/// Tag bit marking a delta-log record as a snapshot-table delta.
pub const SNAP_DELTA_TAG: u64 = 1 << 63;
/// Snapshot ids fit 23 bits (bits 40..63 of a tagged delta LPN).
pub const SNAP_MAX_ID: u32 = (1 << 23) - 1;
/// Page offsets within a snapshot fit 40 bits; the all-ones offset is the
/// drop tombstone.
pub const SNAP_MAX_OFFSET: u64 = (1 << 40) - 2;
const SNAP_TOMBSTONE_OFFSET: u64 = (1 << 40) - 1;

/// Magic prefixing the serialized snapshot table ("SNAP").
const SNAP_MAGIC: u32 = 0x534E_4150;

/// Pack `(snap id, page offset)` into a tagged delta LPN.
#[inline]
pub fn snap_delta_lpn(id: u32, offset: u64) -> Lpn {
    debug_assert!(id <= SNAP_MAX_ID);
    debug_assert!(offset <= SNAP_TOMBSTONE_OFFSET);
    Lpn(SNAP_DELTA_TAG | ((id as u64) << 40) | offset)
}

/// Tombstone delta LPN recording the drop of snapshot `id`.
#[inline]
pub fn snap_tombstone_lpn(id: u32) -> Lpn {
    snap_delta_lpn(id, SNAP_TOMBSTONE_OFFSET)
}

/// What a tagged delta-log record means for the snapshot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapDelta {
    /// Frozen entry `(snap id, offset)` moved to a new physical page
    /// (GC relocation of a pinned page).
    Relocate {
        /// Snapshot id the entry belongs to.
        id: u32,
        /// Page offset within the snapshot's range.
        offset: u64,
    },
    /// Snapshot `id` was dropped.
    Tombstone {
        /// Snapshot id that was dropped.
        id: u32,
    },
}

/// Decode a delta LPN: `None` for an ordinary logical-page delta,
/// `Some(..)` for a snapshot-table delta.
#[inline]
pub fn decode_snap_delta(lpn: Lpn) -> Option<SnapDelta> {
    if lpn.0 & SNAP_DELTA_TAG == 0 {
        return None;
    }
    let id = ((lpn.0 >> 40) & SNAP_MAX_ID as u64) as u32;
    let offset = lpn.0 & ((1 << 40) - 1);
    Some(if offset == SNAP_TOMBSTONE_OFFSET {
        SnapDelta::Tombstone { id }
    } else {
        SnapDelta::Relocate { id, offset }
    })
}

/// Host-visible description of one snapshot (for `snapshot_list`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Monotonically-assigned snapshot id (device-lifetime unique).
    pub id: u32,
    /// Host-chosen name.
    pub name: String,
    /// First logical page of the frozen range.
    pub start: Lpn,
    /// Length of the frozen range in pages.
    pub len: u64,
    /// Pages that were mapped (non-hole) at create time.
    pub mapped_pages: u64,
}

/// One frozen alias namespace: the physical pages backing a logical range
/// at create time. Holes (unmapped pages at create) are absent and read
/// back as zeroes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRecord {
    /// Device-lifetime-unique id (also the delta-log tag id).
    pub id: u32,
    /// Host-chosen name, unique among live snapshots.
    pub name: String,
    /// First logical page of the frozen range.
    pub start: Lpn,
    /// Length of the frozen range in pages.
    pub len: u64,
    /// `(offset, ppn)` for every page mapped at create time, sorted by
    /// offset (offset is relative to `start`).
    pub pages: Vec<(u64, Ppn)>,
}

impl SnapshotRecord {
    /// Frozen physical page at `offset`, or `None` for a hole.
    pub fn page_at(&self, offset: u64) -> Option<Ppn> {
        self.pages.binary_search_by_key(&offset, |&(o, _)| o).ok().map(|i| self.pages[i].1)
    }

    fn info(&self) -> SnapshotInfo {
        SnapshotInfo {
            id: self.id,
            name: self.name.clone(),
            start: self.start,
            len: self.len,
            mapped_pages: self.pages.len() as u64,
        }
    }
}

/// The device snapshot table: live snapshots plus a reverse index from
/// pinned physical pages to the frozen entries referencing them.
#[derive(Debug, Default)]
pub struct SnapshotTable {
    /// Live snapshots, sorted by id.
    snaps: Vec<SnapshotRecord>,
    /// Next id to assign (monotonic across drops — ids are never reused,
    /// so a stale tagged delta can never resurrect onto a new snapshot).
    next_id: u32,
    /// `ppn -> [(snap id, offset)]` for every frozen entry. Pin lookups
    /// and GC relocation rewrites are O(refs) through this index. Never
    /// iterated for ordered effects (HashMap order is nondeterministic);
    /// only per-key lookups and order-independent aggregation.
    rev: HashMap<u32, Vec<(u32, u64)>>,
}

impl SnapshotTable {
    /// An empty table (fresh device or pre-v4 image).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no snapshot is live (the off-path fast test).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Number of live snapshots.
    pub fn count(&self) -> usize {
        self.snaps.len()
    }

    /// Total frozen (non-hole) entries across all snapshots.
    pub fn frozen_pages(&self) -> u64 {
        self.snaps.iter().map(|s| s.pages.len() as u64).sum()
    }

    /// Distinct physical pages pinned by at least one snapshot.
    pub fn pinned_pages(&self) -> u64 {
        self.rev.len() as u64
    }

    /// Look up a live snapshot by name.
    pub fn get(&self, name: &str) -> Option<&SnapshotRecord> {
        self.snaps.iter().find(|s| s.name == name)
    }

    /// The physical page of every frozen entry, snapshot by snapshot.
    pub(crate) fn frozen_ppns(&self) -> impl Iterator<Item = Ppn> + '_ {
        self.snaps.iter().flat_map(|s| s.pages.iter().map(|&(_, ppn)| ppn))
    }

    /// Host-visible listing, sorted by id.
    pub fn list(&self) -> Vec<SnapshotInfo> {
        self.snaps.iter().map(|s| s.info()).collect()
    }

    /// Whether `ppn` is referenced by any frozen entry (GC must relocate,
    /// never reclaim, such a page).
    #[inline]
    pub fn is_pinned(&self, ppn: Ppn) -> bool {
        self.rev.contains_key(&ppn.0)
    }

    /// Create a snapshot freezing `pages` (sorted `(offset, ppn)` pairs).
    /// Fails if the name is already live or the id/offset space is
    /// exhausted.
    pub fn create(
        &mut self,
        name: &str,
        start: Lpn,
        len: u64,
        pages: Vec<(u64, Ppn)>,
    ) -> Result<u32, FtlError> {
        if self.get(name).is_some() {
            return Err(FtlError::SnapshotExists);
        }
        if self.next_id > SNAP_MAX_ID || len > SNAP_MAX_OFFSET + 1 {
            return Err(FtlError::SnapshotTableFull);
        }
        debug_assert!(pages.windows(2).all(|w| w[0].0 < w[1].0), "offsets sorted unique");
        let id = self.next_id;
        self.next_id += 1;
        for &(offset, ppn) in &pages {
            self.rev.entry(ppn.0).or_default().push((id, offset));
        }
        self.snaps.push(SnapshotRecord {
            id,
            name: name.to_string(),
            start,
            len,
            pages,
        });
        Ok(id)
    }

    /// Drop the snapshot named `name`, unpinning its entries. Returns the
    /// record, whose id the caller's tombstone delta names.
    pub fn remove(&mut self, name: &str) -> Result<SnapshotRecord, FtlError> {
        let pos = self
            .snaps
            .iter()
            .position(|s| s.name == name)
            .ok_or(FtlError::SnapshotNotFound)?;
        let rec = self.snaps.remove(pos);
        self.unpin(&rec);
        Ok(rec)
    }

    /// Drop by id (tagged-tombstone replay). Unknown ids are a no-op.
    pub fn remove_by_id(&mut self, id: u32) -> Option<SnapshotRecord> {
        let pos = self.snaps.iter().position(|s| s.id == id)?;
        let rec = self.snaps.remove(pos);
        self.unpin(&rec);
        Some(rec)
    }

    fn unpin(&mut self, rec: &SnapshotRecord) {
        for &(offset, ppn) in &rec.pages {
            if let Some(refs) = self.rev.get_mut(&ppn.0) {
                refs.retain(|&(id, o)| !(id == rec.id && o == offset));
                if refs.is_empty() {
                    self.rev.remove(&ppn.0);
                }
            }
        }
    }

    /// Rewrite every frozen entry referencing `from` to `to` (GC moved the
    /// physical page). Returns the rewritten `(snap id, offset)` entries so
    /// the caller can log tagged relocation deltas. Deterministic: the
    /// per-PPN ref list preserves insertion order.
    pub fn relocate(&mut self, from: Ppn, to: Ppn) -> Vec<(u32, u64)> {
        let Some(refs) = self.rev.remove(&from.0) else {
            return Vec::new();
        };
        for &(id, offset) in &refs {
            let snap = self
                .snaps
                .iter_mut()
                .find(|s| s.id == id)
                .expect("rev index names a live snapshot");
            let i = snap
                .pages
                .binary_search_by_key(&offset, |&(o, _)| o)
                .expect("rev index names a frozen entry");
            snap.pages[i].1 = to;
        }
        self.rev.entry(to.0).or_default().extend(refs.iter().copied());
        refs
    }

    /// Replay a tagged relocation delta: move snapshot `id`'s entry at
    /// `offset` to `new`. Unknown ids (snapshot never persisted) and
    /// missing offsets are ignored.
    pub fn replay_relocate(&mut self, id: u32, offset: u64, new: Ppn) {
        let Some(snap) = self.snaps.iter_mut().find(|s| s.id == id) else {
            return;
        };
        if let Ok(i) = snap.pages.binary_search_by_key(&offset, |&(o, _)| o) {
            snap.pages[i].1 = new;
        }
    }

    /// Rebuild the reverse pin index from the records (after checkpoint
    /// decode plus delta replay).
    pub fn rebuild_rev(&mut self) {
        self.rev.clear();
        for snap in &self.snaps {
            for &(offset, ppn) in &snap.pages {
                self.rev.entry(ppn.0).or_default().push((snap.id, offset));
            }
        }
    }

    /// Per-block count of *pinned-dead* pages (pinned by a snapshot but no
    /// longer live in the L2P map): pages GC must relocate even though the
    /// mapping's valid count ignores them. `block_of` maps a PPN to a
    /// pool-relative block index (or `None` outside the pool); `is_live`
    /// is the live-map test. Order-independent aggregation over the rev
    /// index, so HashMap iteration order cannot leak into results.
    pub fn pinned_dead_by_block(
        &self,
        blocks: usize,
        block_of: impl Fn(Ppn) -> Option<u32>,
        is_live: impl Fn(Ppn) -> bool,
    ) -> Vec<u32> {
        let mut counts = vec![0u32; blocks];
        for &ppn in self.rev.keys() {
            let ppn = Ppn(ppn);
            if !is_live(ppn) {
                if let Some(rel) = block_of(ppn) {
                    counts[rel as usize] += 1;
                }
            }
        }
        counts
    }

    /// Serialize the whole table (checkpoint image v4 section). An empty
    /// table serializes to an empty byte string, keeping v4 images of
    /// snapshot-free devices byte-identical to v3.
    pub fn encode(&self) -> Vec<u8> {
        if self.is_empty() && self.next_id == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        out.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.next_id.to_le_bytes());
        out.extend_from_slice(&(self.snaps.len() as u32).to_le_bytes());
        for snap in &self.snaps {
            out.extend_from_slice(&snap.id.to_le_bytes());
            let name = snap.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.extend_from_slice(&snap.start.0.to_le_bytes());
            out.extend_from_slice(&snap.len.to_le_bytes());
            out.extend_from_slice(&(snap.pages.len() as u64).to_le_bytes());
            for &(offset, ppn) in &snap.pages {
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&ppn.0.to_le_bytes());
            }
        }
        out
    }

    /// Decode a serialized table. Empty input decodes as the empty table
    /// (pre-v4 images). The rev index is rebuilt.
    pub fn decode(bytes: &[u8]) -> Result<Self, FtlError> {
        if bytes.is_empty() {
            return Ok(Self::new());
        }
        let mut r = Reader { bytes, pos: 0 };
        if r.u32()? != SNAP_MAGIC {
            return Err(FtlError::RecoveryCorrupt("snapshot table magic".into()));
        }
        let next_id = r.u32()?;
        let count = r.u32()? as usize;
        // Capacities are capped by the bytes left, never taken from a
        // header alone: a corrupt count can claim 2^64 entries over a body
        // of a few bytes, and the read fails long before the vectors grow
        // to it. A record takes at least 30 bytes, a page entry 12.
        let mut snaps = Vec::with_capacity(count.min(r.remaining() / 30));
        let mut prev_id = None;
        for _ in 0..count {
            let id = r.u32()?;
            if id >= next_id || prev_id.is_some_and(|p| id <= p) {
                return Err(FtlError::RecoveryCorrupt("snapshot table ids".into()));
            }
            prev_id = Some(id);
            let name_len = r.u16()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| FtlError::RecoveryCorrupt("snapshot name".into()))?;
            let start = Lpn(r.u64()?);
            let len = r.u64()?;
            let mapped = r.u64()?;
            let mut pages = Vec::with_capacity(mapped.min(r.remaining() as u64 / 12) as usize);
            let mut prev_off = None;
            for _ in 0..mapped {
                let offset = r.u64()?;
                let ppn = Ppn(r.u32()?);
                if offset >= len || prev_off.is_some_and(|p| offset <= p) {
                    return Err(FtlError::RecoveryCorrupt("snapshot entry offsets".into()));
                }
                prev_off = Some(offset);
                pages.push((offset, ppn));
            }
            snaps.push(SnapshotRecord { id, name, start, len, pages });
        }
        if r.pos != bytes.len() {
            return Err(FtlError::RecoveryCorrupt("snapshot table trailing bytes".into()));
        }
        let mut table = Self { snaps, next_id, rev: HashMap::new() };
        table.rebuild_rev();
        Ok(table)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FtlError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(FtlError::RecoveryCorrupt("snapshot table truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, FtlError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len checked")))
    }

    fn u32(&mut self) -> Result<u32, FtlError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len checked")))
    }

    fn u64(&mut self) -> Result<u64, FtlError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len checked")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(list: &[(u64, u32)]) -> Vec<(u64, Ppn)> {
        list.iter().map(|&(o, p)| (o, Ppn(p))).collect()
    }

    #[test]
    fn create_pins_and_drop_unpins() {
        let mut t = SnapshotTable::new();
        let id = t.create("a", Lpn(0), 8, pages(&[(0, 100), (3, 101)])).unwrap();
        assert_eq!(id, 0);
        assert!(t.is_pinned(Ppn(100)));
        assert!(t.is_pinned(Ppn(101)));
        assert!(!t.is_pinned(Ppn(102)));
        assert_eq!(t.frozen_pages(), 2);
        assert_eq!(t.pinned_pages(), 2);
        let rec = t.remove("a").unwrap();
        assert_eq!(rec.id, 0);
        assert!(!t.is_pinned(Ppn(100)));
        assert!(t.is_empty());
    }

    #[test]
    fn shared_pin_survives_one_drop() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 4, pages(&[(0, 7)])).unwrap();
        t.create("b", Lpn(0), 4, pages(&[(1, 7)])).unwrap();
        t.remove("a").unwrap();
        assert!(t.is_pinned(Ppn(7)), "second snapshot still pins the page");
        t.remove("b").unwrap();
        assert!(!t.is_pinned(Ppn(7)));
    }

    #[test]
    fn duplicate_name_rejected_ids_monotonic() {
        let mut t = SnapshotTable::new();
        assert_eq!(t.create("a", Lpn(0), 1, vec![]).unwrap(), 0);
        assert_eq!(t.create("a", Lpn(0), 1, vec![]), Err(FtlError::SnapshotExists));
        t.remove("a").unwrap();
        // Ids are never reused after a drop.
        assert_eq!(t.create("a", Lpn(0), 1, vec![]).unwrap(), 1);
        assert_eq!(t.remove("missing"), Err(FtlError::SnapshotNotFound));
    }

    #[test]
    fn relocate_rewrites_entries_and_rev() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 8, pages(&[(2, 50)])).unwrap();
        t.create("b", Lpn(8), 8, pages(&[(5, 50), (6, 60)])).unwrap();
        let moved = t.relocate(Ppn(50), Ppn(99));
        assert_eq!(moved, vec![(0, 2), (1, 5)]);
        assert!(!t.is_pinned(Ppn(50)));
        assert!(t.is_pinned(Ppn(99)));
        assert_eq!(t.get("a").unwrap().page_at(2), Some(Ppn(99)));
        assert_eq!(t.get("b").unwrap().page_at(5), Some(Ppn(99)));
        assert_eq!(t.get("b").unwrap().page_at(6), Some(Ppn(60)));
        assert!(t.relocate(Ppn(1234), Ppn(5)).is_empty());
    }

    #[test]
    fn pinned_dead_counts_per_block() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 16, pages(&[(0, 4), (1, 5), (2, 12)])).unwrap();
        // 4 pages per block; ppn 4,5 -> block 1, ppn 12 -> block 3.
        // ppn 5 is still live; only dead pins count.
        let counts = t.pinned_dead_by_block(4, |p| Some(p.0 / 4), |p| p.0 == 5);
        assert_eq!(counts, vec![0, 1, 0, 1]);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut t = SnapshotTable::new();
        t.create("db-main", Lpn(64), 32, pages(&[(0, 9), (7, 12), (31, 80)])).unwrap();
        t.create("backup", Lpn(0), 4, vec![]).unwrap();
        t.remove("db-main").unwrap();
        let bytes = t.encode();
        let back = SnapshotTable::decode(&bytes).unwrap();
        assert_eq!(back.count(), 1);
        assert_eq!(back.next_id, 2, "monotonic id cursor survives");
        let b = back.get("backup").unwrap();
        assert_eq!((b.id, b.start, b.len), (1, Lpn(0), 4));
        assert!(!back.is_pinned(Ppn(9)), "dropped snapshot left no pins");
    }

    #[test]
    fn empty_table_encodes_to_nothing() {
        let t = SnapshotTable::new();
        assert!(t.encode().is_empty());
        let back = SnapshotTable::decode(&[]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 8, pages(&[(1, 3)])).unwrap();
        let good = t.encode();
        assert!(SnapshotTable::decode(&good[..good.len() - 1]).is_err(), "truncated");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(SnapshotTable::decode(&bad_magic).is_err(), "magic");
        let mut extra = good.clone();
        extra.push(0);
        assert!(SnapshotTable::decode(&extra).is_err(), "trailing bytes");
    }

    #[test]
    fn decode_sizes_nothing_from_an_unchecked_header() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 8, vec![]).unwrap();
        let good = t.encode();
        // The last eight bytes are the record's mapped-page count.
        let mut huge_mapped = good.clone();
        let n = huge_mapped.len();
        huge_mapped[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotTable::decode(&huge_mapped),
            Err(FtlError::RecoveryCorrupt(_))
        ));
        // Bytes 8..12 are the record count.
        let mut huge_count = good;
        huge_count[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(SnapshotTable::decode(&huge_count), Err(FtlError::RecoveryCorrupt(_))));
    }

    #[test]
    fn decode_survives_every_truncation_and_bit_flip() {
        use share_rng::{Rng, StdRng};
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x5AA9_0000 + seed);
            let mut t = SnapshotTable::new();
            for i in 0..rng.random_range(1..4u32) {
                let len = rng.random_range(1..64u64);
                let mut list = Vec::new();
                for o in 0..len {
                    if rng.random_bool(0.3) {
                        list.push((o, Ppn(rng.random_range(0..1u32 << 20))));
                    }
                }
                t.create(&format!("snap-{i}"), Lpn(rng.random_range(0..1u64 << 30)), len, list)
                    .unwrap();
            }
            let good = t.encode();
            // Whatever decodes re-encodes to the same bytes: nothing is
            // dropped or invented on the way through.
            let check = |bytes: &[u8]| {
                if let Ok(back) = SnapshotTable::decode(bytes) {
                    assert_eq!(back.encode(), bytes, "seed {seed}");
                }
            };
            // Empty input is the pre-v4 empty table; every other prefix
            // is short.
            for cut in 1..good.len() {
                assert!(SnapshotTable::decode(&good[..cut]).is_err(), "seed {seed} cut {cut}");
            }
            for bit in 0..good.len() * 8 {
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                check(&bad);
            }
        }
    }

    #[test]
    fn tagged_delta_lpns_round_trip() {
        for (id, offset) in [(0u32, 0u64), (7, 1 << 20), (SNAP_MAX_ID, SNAP_MAX_OFFSET)] {
            let lpn = snap_delta_lpn(id, offset);
            assert_eq!(decode_snap_delta(lpn), Some(SnapDelta::Relocate { id, offset }));
        }
        assert_eq!(
            decode_snap_delta(snap_tombstone_lpn(42)),
            Some(SnapDelta::Tombstone { id: 42 })
        );
        assert_eq!(decode_snap_delta(Lpn(12345)), None, "ordinary LPNs untagged");
    }

    #[test]
    fn replay_relocate_ignores_unknown_ids() {
        let mut t = SnapshotTable::new();
        t.create("a", Lpn(0), 8, pages(&[(2, 50)])).unwrap();
        t.replay_relocate(99, 2, Ppn(7)); // unknown id: no-op
        t.replay_relocate(0, 3, Ppn(7)); // hole offset: no-op
        t.replay_relocate(0, 2, Ppn(70));
        assert_eq!(t.get("a").unwrap().page_at(2), Some(Ppn(70)));
    }
}
