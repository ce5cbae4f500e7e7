//! On-disk page format of the clustered index.
//!
//! A [`NodePage`] *is* its `page_bytes` image in the on-media layout: the
//! header, then the records sorted by key and packed end to end, then
//! zeros. Beside the image it keeps only a directory of record offsets,
//! rebuilt by one validating walk when the image comes back from the
//! device. Lookups binary-search the directory into the image, mutations
//! shift the packed tail in place, and a flush seals the header and a
//! CRC-32C over the whole page into the same bytes. A torn write — the
//! failure mode double-write protects against — is detected as a checksum
//! mismatch when the image is reopened.

use crate::key::Key;
use share_core::crc32c;
use std::ops::Range;

/// Bytes of the fixed page header:
/// `checksum:4 | page_no:8 | lsn:8 | level:2 | count:2 | next:8`.
pub const PAGE_HEADER: usize = 32;

/// Per-entry overhead on disk: 24-byte key + 2-byte value length.
pub const ENTRY_OVERHEAD: usize = 26;

/// Sentinel for "no next leaf".
pub const NO_PAGE: u64 = u64::MAX;

const KEY_BYTES: usize = 24;
/// Largest image a `u16` offset directory can address.
const MAX_PAGE_BYTES: usize = 1 << 16;

/// Why a page image failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageDecodeError {
    /// Checksum mismatch: a torn or partially written page.
    BadChecksum { page_no_field: u64 },
    /// The image is structurally impossible (counts/lengths out of range).
    Malformed(&'static str),
    /// All zeros: the page was never written.
    Empty,
}

/// End of the packed `key:24 | vlen:2 | value` record that starts at `off`,
/// if it lies inside `buf`. The redo encoding of an entry is the same bytes
/// (`RedoBody::AppendEntries`), so the log walks its runs with this too.
pub(crate) fn record_end(buf: &[u8], off: usize) -> Option<usize> {
    let vlen = buf.get(off + KEY_BYTES..off + ENTRY_OVERHEAD)?;
    let end = off + ENTRY_OVERHEAD + u16::from_le_bytes([vlen[0], vlen[1]]) as usize;
    (end <= buf.len()).then_some(end)
}

/// Start offsets of the records of a packed run.
pub(crate) fn record_starts(run: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut off = 0;
    std::iter::from_fn(move || {
        let start = off;
        (start < run.len()).then(|| {
            off = record_end(run, start).expect("a packed run ends on a record boundary");
            start
        })
    })
}

/// A B+tree node, held as its page image.
#[derive(Debug, Clone)]
pub struct NodePage {
    /// Page number within the tablespace.
    pub page_no: u64,
    /// LSN of the last redo record applied to this page.
    pub lsn: u64,
    /// Tree level: 0 = leaf, >0 = internal.
    pub level: u16,
    /// Next leaf in key order (leaf chain), or [`NO_PAGE`].
    pub next: u64,
    /// The page image. The records and the zero tail are always current;
    /// the header is written by [`Self::seal`]. Internal nodes store an
    /// 8-byte child page number as the value, leaves store user payloads.
    img: Vec<u8>,
    /// Offset of each record, in key order.
    dir: Vec<u16>,
    /// End of the last record: the bytes this node occupies.
    end: usize,
}

impl NodePage {
    /// A fresh empty node with a zeroed `page_bytes` image.
    pub fn new(page_no: u64, level: u16, page_bytes: usize) -> Self {
        assert!(
            (PAGE_HEADER..=MAX_PAGE_BYTES).contains(&page_bytes),
            "page size {page_bytes} outside {PAGE_HEADER}..={MAX_PAGE_BYTES}"
        );
        Self {
            page_no,
            lsn: 0,
            level,
            next: NO_PAGE,
            img: vec![0; page_bytes],
            dir: Vec::new(),
            end: PAGE_HEADER,
        }
    }

    /// Make this frame a fresh empty node (redo `PageInit`), whatever its
    /// image held, keeping its buffers.
    pub fn reset(&mut self, page_no: u64, level: u16) {
        self.img.fill(0);
        self.dir.clear();
        self.end = PAGE_HEADER;
        (self.page_no, self.lsn, self.level, self.next) = (page_no, 0, level, NO_PAGE);
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// Whether the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Bytes this node occupies on disk: header plus records.
    pub fn bytes_used(&self) -> usize {
        self.end
    }

    /// Whether inserting a value of `vlen` bytes would exceed the page.
    pub fn would_overflow(&self, vlen: usize) -> bool {
        self.end + ENTRY_OVERHEAD + vlen > self.img.len()
    }

    /// Where to split this node before `key` goes in with a `vlen`-byte
    /// value: at half the entries, unless the half that takes the new entry
    /// would still overflow (long rows beside short ones); then where the
    /// fuller half, new entry included, is least full.
    pub fn split_point(&self, key: &Key, vlen: usize) -> usize {
        debug_assert!(self.len() >= 2, "splitting a node with <2 entries");
        // The target half gains the new entry and loses the one it replaces.
        let replaced = self.find(key).map_or(0, |i| self.off(i + 1) - self.off(i));
        let fuller_end = |m: usize| {
            let (low, high) = (self.off(m), PAGE_HEADER + self.end - self.off(m));
            let grow = |half: usize| half - replaced + ENTRY_OVERHEAD + vlen;
            if *key >= self.key_at(m) { low.max(grow(high)) } else { grow(low).max(high) }
        };
        let half = self.len() / 2;
        if fuller_end(half) <= self.img.len() {
            return half;
        }
        (1..self.len()).min_by_key(|&m| fuller_end(m)).expect("two entries or more")
    }

    /// Offset of record `i`; `len()` is the end of the records.
    fn off(&self, i: usize) -> usize {
        self.dir.get(i).map_or(self.end, |&o| o as usize)
    }

    /// The key of the record at `off`, as an array so that comparisons
    /// compile to fixed-width loads.
    fn key_bytes(&self, off: u16) -> &[u8; KEY_BYTES] {
        self.img[off as usize..off as usize + KEY_BYTES].try_into().expect("24-byte key")
    }

    /// Key of entry `i`.
    pub fn key_at(&self, i: usize) -> Key {
        Key(*self.key_bytes(self.dir[i]))
    }

    /// Value of entry `i`, borrowed from the image.
    pub fn value_at(&self, i: usize) -> &[u8] {
        &self.img[self.dir[i] as usize + ENTRY_OVERHEAD..self.off(i + 1)]
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[u8])> {
        (0..self.len()).map(|i| (self.key_at(i), self.value_at(i)))
    }

    /// The packed bytes of entries `range`, as they sit in the image — what
    /// a split logs and [`Self::extend_high`] takes.
    pub fn packed(&self, range: Range<usize>) -> &[u8] {
        &self.img[self.off(range.start)..self.off(range.end)]
    }

    /// Binary-search for `key`; `Ok(i)` = exact hit, `Err(i)` = insert slot.
    pub fn find(&self, key: &Key) -> Result<usize, usize> {
        // Keys order bytewise, i.e. as three big-endian words: comparing
        // those inline spares a `memcmp` call per probe.
        let words = |k: &[u8; KEY_BYTES]| {
            [0, 8, 16].map(|i| u64::from_be_bytes(k[i..i + 8].try_into().expect("8 bytes")))
        };
        let target = words(&key.0);
        self.dir.binary_search_by(|&o| words(self.key_bytes(o)).cmp(&target))
    }

    /// Point lookup.
    pub fn get(&self, key: &Key) -> Option<&[u8]> {
        self.find(key).ok().map(|i| self.value_at(i))
    }

    /// Resize the `old` bytes at `at` to `new`: shift the packed tail, zero
    /// what it vacates and move the directory entries `from..` along.
    fn splice(&mut self, at: usize, old: usize, new: usize, from: usize) {
        if new == old {
            return; // a same-size replace (every count row) moves nothing
        }
        let end = self.end + new - old;
        assert!(end <= self.img.len(), "page {} over-full", self.page_no);
        self.img.copy_within(at + old..self.end, at + new);
        if end < self.end {
            self.img[end..self.end].fill(0);
        }
        for o in &mut self.dir[from..] {
            *o = (*o as usize + new - old) as u16;
        }
        self.end = end;
    }

    /// Insert or replace; whether the key was already present.
    pub fn upsert(&mut self, key: &Key, value: &[u8]) -> bool {
        let new = ENTRY_OVERHEAD + value.len();
        let found = self.find(key);
        let (Ok(i) | Err(i)) = found;
        let (at, hit) = (self.off(i), found.is_ok());
        if hit {
            self.splice(at, self.off(i + 1) - at, new, i + 1);
        } else {
            self.splice(at, 0, new, i);
            self.dir.insert(i, at as u16);
        }
        let (head, body) = self.img[at..at + new].split_at_mut(ENTRY_OVERHEAD);
        head[..KEY_BYTES].copy_from_slice(&key.0);
        head[KEY_BYTES..].copy_from_slice(&(value.len() as u16).to_le_bytes());
        body.copy_from_slice(value);
        hit
    }

    /// Remove `key`; whether it was present.
    pub fn remove(&mut self, key: &Key) -> bool {
        let Ok(i) = self.find(key) else { return false };
        let at = self.off(i);
        self.splice(at, self.off(i + 1) - at, 0, i + 1);
        self.dir.remove(i);
        true
    }

    /// Split: drop all entries with key >= `pivot`.
    pub fn drain_high(&mut self, pivot: &Key) {
        let (Ok(i) | Err(i)) = self.find(pivot);
        let at = self.off(i);
        self.img[at..self.end].fill(0);
        self.dir.truncate(i);
        self.end = at;
    }

    /// Append a packed run of pre-sorted entries that all compare greater
    /// than the existing ones.
    pub fn extend_high(&mut self, run: &[u8]) {
        let at = self.end;
        assert!(at + run.len() <= self.img.len(), "page {} over-full", self.page_no);
        self.img[at..at + run.len()].copy_from_slice(run);
        self.dir.extend(record_starts(run).map(|o| (at + o) as u16));
        self.end = at + run.len();
        debug_assert!(self.dir.windows(2).all(|w| self.key_bytes(w[0]) < self.key_bytes(w[1])));
    }

    /// Interpret an internal-node value as a child page number.
    pub fn child_at(&self, idx: usize) -> u64 {
        debug_assert!(!self.is_leaf());
        u64::from_le_bytes(self.value_at(idx).try_into().expect("child value is 8 bytes"))
    }

    /// Encode a child page number as an internal-node value.
    pub fn child_value(page_no: u64) -> Vec<u8> {
        page_no.to_le_bytes().to_vec()
    }

    /// Write the header and the checksum into the image and return it: the
    /// bytes a flush sends to the device.
    pub fn seal(&mut self) -> &[u8] {
        let img = &mut self.img;
        img[4..12].copy_from_slice(&self.page_no.to_le_bytes());
        img[12..20].copy_from_slice(&self.lsn.to_le_bytes());
        img[20..22].copy_from_slice(&self.level.to_le_bytes());
        img[22..24].copy_from_slice(&(self.dir.len() as u16).to_le_bytes());
        img[24..32].copy_from_slice(&self.next.to_le_bytes());
        let crc = crc32c(&img[4..]);
        img[0..4].copy_from_slice(&crc.to_le_bytes());
        img
    }

    /// The image as of the last [`Self::seal`] (or as fetched).
    pub fn image(&self) -> &[u8] {
        &self.img
    }

    /// The raw frame, for the device to read into. The page is unusable
    /// until [`Self::reopen`] accepts what was read or [`Self::reset`]
    /// discards it.
    pub(crate) fn image_mut(&mut self) -> &mut [u8] {
        &mut self.img
    }

    /// Verify the image and rebuild the header fields and the directory
    /// from it: one checksum pass, one walk over the records.
    pub(crate) fn reopen(&mut self) -> Result<(), PageDecodeError> {
        let buf = &self.img[..];
        // A never-written image is looked for only once the image has been
        // rejected. An all-zero image cannot pass the checksum: its stored
        // field is 0, and CRC-32C of a run of zero bytes is not 0 for any
        // run shorter than the polynomial's period (hundreds of megabytes).
        let reject = |damage: PageDecodeError| {
            Err(if all_zero(buf) { PageDecodeError::Empty } else { damage })
        };
        if !(PAGE_HEADER..=MAX_PAGE_BYTES).contains(&buf.len()) {
            return reject(PageDecodeError::Malformed("image size out of range"));
        }
        let stored = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        self.page_no = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        if crc32c(&buf[4..]) != stored {
            return reject(PageDecodeError::BadChecksum { page_no_field: self.page_no });
        }
        self.lsn = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        self.level = u16::from_le_bytes(buf[20..22].try_into().unwrap());
        let count = u16::from_le_bytes(buf[22..24].try_into().unwrap()) as usize;
        self.next = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        if PAGE_HEADER + count * ENTRY_OVERHEAD > buf.len() {
            return Err(PageDecodeError::Malformed("entry count past end"));
        }
        self.dir.clear();
        let mut off = PAGE_HEADER;
        for _ in 0..count {
            let end = record_end(buf, off).ok_or(PageDecodeError::Malformed("entry past end"))?;
            // A binary search over unsorted keys answers wrongly.
            if let Some(&prev) = self.dir.last() {
                let prev = prev as usize;
                if buf[prev..prev + KEY_BYTES] >= buf[off..off + KEY_BYTES] {
                    return Err(PageDecodeError::Malformed("keys out of order"));
                }
            }
            self.dir.push(off as u16);
            off = end;
        }
        // Mutations rely on the tail being zero to keep it zero.
        if !all_zero(&buf[off..]) {
            return Err(PageDecodeError::Malformed("bytes after the last entry"));
        }
        self.end = off;
        Ok(())
    }

    /// Decode and verify a copy of a page image.
    pub fn decode(buf: &[u8]) -> Result<NodePage, PageDecodeError> {
        let (img, dir) = (buf.to_vec(), Vec::new());
        let mut page = NodePage { page_no: 0, lsn: 0, level: 0, next: NO_PAGE, img, dir, end: 0 };
        page.reopen()?;
        Ok(page)
    }
}

/// Whether every byte of `bytes` is zero. An OR over all of them, with no
/// early exit, so the loop is one the compiler vectorises: a page's zero
/// tail is most of the page, and `reopen` reads it on every fetch.
fn all_zero(bytes: &[u8]) -> bool {
    bytes.iter().fold(0u8, |acc, &b| acc | b) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodePage {
        let mut p = NodePage::new(7, 0, 4096);
        p.lsn = 99;
        p.next = 8;
        p.upsert(&Key::node(2), &[2; 10]);
        p.upsert(&Key::node(1), &[1; 5]);
        p.upsert(&Key::node(3), &[3; 7]);
        p
    }

    fn entries(p: &NodePage) -> Vec<(Key, Vec<u8>)> {
        p.iter().map(|(k, v)| (k, v.to_vec())).collect()
    }

    fn recount(p: &NodePage) -> usize {
        PAGE_HEADER + p.iter().map(|(_, v)| ENTRY_OVERHEAD + v.len()).sum::<usize>()
    }

    #[test]
    fn seal_decode_round_trips() {
        let mut p = sample();
        let img = p.seal().to_vec();
        assert_eq!(img.len(), 4096);
        let mut q = NodePage::decode(&img).unwrap();
        assert_eq!((q.page_no, q.lsn, q.level, q.next), (7, 99, 0, 8));
        assert_eq!(entries(&q), entries(&p));
        assert_eq!(q.bytes_used(), p.bytes_used());
        assert_eq!(q.seal(), &img[..]);
    }

    #[test]
    fn entries_stay_sorted_through_upserts() {
        let p = sample();
        let keys: Vec<Key> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [Key::node(1), Key::node(2), Key::node(3)]);
        assert_eq!(p.get(&Key::node(2)), Some(&[2u8; 10][..]));
        assert_eq!(p.get(&Key::node(4)), None);
    }

    #[test]
    fn upsert_replaces_and_tracks_bytes() {
        let mut p = NodePage::new(0, 0, 4096);
        assert_eq!(p.bytes_used(), PAGE_HEADER);
        assert!(!p.upsert(&Key::node(1), &[0; 10]));
        assert_eq!(p.bytes_used(), PAGE_HEADER + ENTRY_OVERHEAD + 10);
        p.upsert(&Key::node(2), &[9; 3]);
        assert!(p.upsert(&Key::node(1), &[7; 4]));
        assert_eq!(p.bytes_used(), recount(&p));
        assert_eq!(entries(&p), [(Key::node(1), vec![7; 4]), (Key::node(2), vec![9; 3])]);
        // The six bytes the shrink vacated are zero again.
        assert!(p.image()[p.bytes_used()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn remove_reclaims_bytes_and_zeroes_the_tail() {
        let mut p = sample();
        let before = p.bytes_used();
        assert!(p.remove(&Key::node(2)));
        assert_eq!(p.bytes_used(), before - ENTRY_OVERHEAD - 10);
        assert!(!p.remove(&Key::node(2)));
        assert_eq!(entries(&p), [(Key::node(1), vec![1; 5]), (Key::node(3), vec![3; 7])]);
        assert!(p.image()[p.bytes_used()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn torn_image_fails_checksum() {
        let mut img = sample().seal().to_vec();
        // Tear: second half replaced by 0xFF (the NAND torn pattern).
        for b in &mut img[2048..] {
            *b = 0xFF;
        }
        assert!(matches!(NodePage::decode(&img), Err(PageDecodeError::BadChecksum { .. })));
    }

    #[test]
    fn zero_image_is_empty_not_corrupt() {
        assert_eq!(NodePage::decode(&[0u8; 4096]).unwrap_err(), PageDecodeError::Empty);
        assert_eq!(NodePage::decode(&[]).unwrap_err(), PageDecodeError::Empty);
    }

    #[test]
    fn drain_high_splits_at_pivot_and_extend_high_takes_the_run() {
        let mut p = sample();
        let run = p.packed(1..3).to_vec();
        assert_eq!(run.len(), 2 * ENTRY_OVERHEAD + 10 + 7);
        p.drain_high(&Key::node(2));
        assert_eq!(entries(&p), [(Key::node(1), vec![1; 5])]);
        assert_eq!(p.bytes_used(), recount(&p));
        let mut q = NodePage::new(9, 0, 4096);
        q.upsert(&Key::node(0), &[0]);
        q.extend_high(&run);
        assert_eq!(q.len(), 3);
        assert_eq!(q.bytes_used(), recount(&q));
        assert_eq!(entries(&NodePage::decode(q.seal()).unwrap()), entries(&q));
    }

    #[test]
    fn reset_reuses_a_dirty_frame() {
        let mut p = sample();
        p.seal();
        p.reset(11, 2);
        assert_eq!((p.page_no, p.lsn, p.level, p.next, p.len()), (11, 0, 2, NO_PAGE, 0));
        let mut fresh = NodePage::new(11, 2, 4096);
        assert_eq!(p.seal(), fresh.seal());
    }

    #[test]
    fn child_value_round_trip() {
        let mut p = NodePage::new(1, 1, 4096);
        p.upsert(&Key::MIN, &NodePage::child_value(42));
        assert_eq!(p.child_at(0), 42);
    }

    #[test]
    fn would_overflow_respects_page_size() {
        let mut p = NodePage::new(0, 0, 4096);
        let max_v = 4096 - PAGE_HEADER - ENTRY_OVERHEAD;
        assert!(!p.would_overflow(max_v));
        assert!(p.would_overflow(max_v + 1));
        p.upsert(&Key::node(1), &[0; 100]);
        assert!(p.would_overflow(max_v - 100));
    }

    #[test]
    fn split_point_leaves_room_for_the_row_that_caused_it() {
        // Twenty 8-byte rows, then three quarter-page rows: full for a
        // fourth long row after them.
        let mut p = NodePage::new(0, 0, 4096);
        for id in 0..23 {
            p.upsert(&Key::node(id), if id < 20 { &[1; 8][..] } else { &[2; 1024] });
        }
        let key = Key::node(23);
        assert!(p.would_overflow(1024));
        // Half the entries would leave all three long rows with the new one.
        let m = p.split_point(&key, 1024);
        assert!(m > p.len() / 2 && key >= p.key_at(m), "split at {m}");
        let right = PAGE_HEADER + p.packed(m..p.len()).len() + ENTRY_OVERHEAD + 1024;
        assert!(right <= 4096, "the right half ends at {right}");
        // Rows of one size split by count, as they always did.
        assert_eq!(p.split_point(&Key::node(5), 8), p.len() / 2);
        let mut q = NodePage::new(0, 0, 4096);
        for id in 0..100 {
            q.upsert(&Key::node(id), &[3; 12]);
        }
        assert_eq!(q.split_point(&Key::node(100), 12), 50);
    }
}
