//! On-disk page format of the clustered index.
//!
//! Pages are decoded into [`NodePage`] while resident in the buffer pool
//! and re-encoded (with a CRC-32C checksum over the whole page) when
//! flushed. A torn write — the failure mode double-write protects against —
//! is detected as a checksum mismatch at decode time.

use crate::key::Key;
use share_core::crc32c;

/// Bytes of the fixed page header:
/// `checksum:4 | page_no:8 | lsn:8 | level:2 | count:2 | next:8`.
pub const PAGE_HEADER: usize = 32;

/// Per-entry overhead on disk: 24-byte key + 2-byte value length.
pub const ENTRY_OVERHEAD: usize = 26;

/// Sentinel for "no next leaf".
pub const NO_PAGE: u64 = u64::MAX;

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

/// A decoded B+tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePage {
    /// Page number within the tablespace.
    pub page_no: u64,
    /// LSN of the last redo record applied to this page.
    pub lsn: u64,
    /// Tree level: 0 = leaf, >0 = internal.
    pub level: u16,
    /// Next leaf in key order (leaf chain), or [`NO_PAGE`].
    pub next: u64,
    /// Sorted entries. Internal nodes store an 8-byte child page number as
    /// the value; leaves store user payloads.
    pub entries: Vec<(Key, Vec<u8>)>,
    bytes_used: usize,
}

impl NodePage {
    /// A fresh empty node.
    pub fn new(page_no: u64, level: u16) -> Self {
        Self { page_no, lsn: 0, level, next: NO_PAGE, entries: Vec::new(), bytes_used: PAGE_HEADER }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Bytes this node occupies when encoded.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Whether inserting a value of `vlen` bytes would exceed `page_bytes`.
    pub fn would_overflow(&self, vlen: usize, page_bytes: usize) -> bool {
        self.bytes_used + ENTRY_OVERHEAD + vlen > page_bytes
    }

    /// Binary-search for `key`; `Ok(i)` = exact hit, `Err(i)` = insert slot.
    pub fn find(&self, key: &Key) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Point lookup.
    pub fn get(&self, key: &Key) -> Option<&[u8]> {
        self.find(key).ok().map(|i| self.entries[i].1.as_slice())
    }

    /// Insert or replace; returns the previous value if any.
    pub fn upsert(&mut self, key: Key, value: Vec<u8>) -> Option<Vec<u8>> {
        match self.find(&key) {
            Ok(i) => {
                self.bytes_used = self.bytes_used - self.entries[i].1.len() + value.len();
                Some(std::mem::replace(&mut self.entries[i].1, value))
            }
            Err(i) => {
                self.bytes_used += ENTRY_OVERHEAD + value.len();
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`; returns the removed value if present.
    pub fn remove(&mut self, key: &Key) -> Option<Vec<u8>> {
        match self.find(key) {
            Ok(i) => {
                let (_, v) = self.entries.remove(i);
                self.bytes_used -= ENTRY_OVERHEAD + v.len();
                Some(v)
            }
            Err(_) => None,
        }
    }

    /// Split: remove and return all entries with key >= `pivot`.
    pub fn drain_high(&mut self, pivot: &Key) -> Vec<(Key, Vec<u8>)> {
        let at = match self.find(pivot) {
            Ok(i) | Err(i) => i,
        };
        let high: Vec<_> = self.entries.drain(at..).collect();
        for (_, v) in &high {
            self.bytes_used -= ENTRY_OVERHEAD + v.len();
        }
        high
    }

    /// Append pre-sorted entries that all compare greater than existing ones.
    pub fn extend_high(&mut self, entries: Vec<(Key, Vec<u8>)>) {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(
            self.entries.last().is_none_or(|(k, _)| entries.first().is_none_or(|(k2, _)| k < k2))
        );
        for (_, v) in &entries {
            self.bytes_used += ENTRY_OVERHEAD + v.len();
        }
        self.entries.extend(entries);
    }

    /// Interpret an internal-node value as a child page number.
    pub fn child_at(&self, idx: usize) -> u64 {
        debug_assert!(!self.is_leaf());
        u64::from_le_bytes(self.entries[idx].1.as_slice().try_into().expect("child value is 8 bytes"))
    }

    /// Encode a child page number as an internal-node value.
    pub fn child_value(page_no: u64) -> Vec<u8> {
        page_no.to_le_bytes().to_vec()
    }

    /// Encode into a `page_bytes` image with checksum.
    pub fn encode(&self, page_bytes: usize) -> Vec<u8> {
        debug_assert!(self.bytes_used <= page_bytes, "page over-full at encode");
        let mut buf = vec![0u8; page_bytes];
        buf[4..12].copy_from_slice(&self.page_no.to_le_bytes());
        buf[12..20].copy_from_slice(&self.lsn.to_le_bytes());
        buf[20..22].copy_from_slice(&self.level.to_le_bytes());
        buf[22..24].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        buf[24..32].copy_from_slice(&self.next.to_le_bytes());
        let mut off = PAGE_HEADER;
        for (k, v) in &self.entries {
            buf[off..off + 24].copy_from_slice(&k.0);
            buf[off + 24..off + 26].copy_from_slice(&(v.len() as u16).to_le_bytes());
            buf[off + 26..off + 26 + v.len()].copy_from_slice(v);
            off += ENTRY_OVERHEAD + v.len();
        }
        let crc = crc32c(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode and verify a page image.
    pub fn decode(buf: &[u8]) -> Result<NodePage, PageDecodeError> {
        // One pass per fetched page: a never-written image is looked for
        // only once the checksum has failed. An all-zero image cannot
        // pass it: its stored field is 0, and CRC-32C of a run of zero
        // bytes is not 0 for any run shorter than the polynomial's period
        // (hundreds of megabytes).
        let reject = |damage: PageDecodeError| {
            Err(if buf.iter().all(|&b| b == 0) { PageDecodeError::Empty } else { damage })
        };
        if buf.len() < PAGE_HEADER {
            return reject(PageDecodeError::Malformed("image smaller than header"));
        }
        let stored = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let page_no = u64::from_le_bytes(buf[4..12].try_into().unwrap());
        if crc32c(&buf[4..]) != stored {
            return reject(PageDecodeError::BadChecksum { page_no_field: page_no });
        }
        let lsn = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let level = u16::from_le_bytes(buf[20..22].try_into().unwrap());
        let count = u16::from_le_bytes(buf[22..24].try_into().unwrap()) as usize;
        let next = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        let mut entries = Vec::with_capacity(count);
        let mut off = PAGE_HEADER;
        let mut bytes_used = PAGE_HEADER;
        for _ in 0..count {
            if off + ENTRY_OVERHEAD > buf.len() {
                return Err(PageDecodeError::Malformed("entry header past end"));
            }
            let key = Key(buf[off..off + 24].try_into().unwrap());
            let vlen = u16::from_le_bytes(buf[off + 24..off + 26].try_into().unwrap()) as usize;
            if off + ENTRY_OVERHEAD + vlen > buf.len() {
                return Err(PageDecodeError::Malformed("value past end"));
            }
            entries.push((key, buf[off + 26..off + 26 + vlen].to_vec()));
            off += ENTRY_OVERHEAD + vlen;
            bytes_used += ENTRY_OVERHEAD + vlen;
        }
        Ok(NodePage { page_no, lsn, level, next, entries, bytes_used })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodePage {
        let mut p = NodePage::new(7, 0);
        p.lsn = 99;
        p.next = 8;
        p.upsert(Key::node(2), vec![2; 10]);
        p.upsert(Key::node(1), vec![1; 5]);
        p.upsert(Key::node(3), vec![3; 7]);
        p
    }

    #[test]
    fn encode_decode_round_trips() {
        let p = sample();
        let img = p.encode(4096);
        assert_eq!(img.len(), 4096);
        let q = NodePage::decode(&img).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn entries_stay_sorted_through_upserts() {
        let p = sample();
        let keys: Vec<&Key> = p.entries.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn upsert_replaces_and_tracks_bytes() {
        let mut p = NodePage::new(0, 0);
        assert_eq!(p.bytes_used(), PAGE_HEADER);
        p.upsert(Key::node(1), vec![0; 10]);
        let b1 = p.bytes_used();
        assert_eq!(b1, PAGE_HEADER + ENTRY_OVERHEAD + 10);
        let old = p.upsert(Key::node(1), vec![0; 4]);
        assert_eq!(old.unwrap().len(), 10);
        assert_eq!(p.bytes_used(), PAGE_HEADER + ENTRY_OVERHEAD + 4);
    }

    #[test]
    fn remove_returns_value_and_reclaims_bytes() {
        let mut p = sample();
        let before = p.bytes_used();
        let v = p.remove(&Key::node(2)).unwrap();
        assert_eq!(v, vec![2; 10]);
        assert_eq!(p.bytes_used(), before - ENTRY_OVERHEAD - 10);
        assert!(p.remove(&Key::node(2)).is_none());
    }

    #[test]
    fn torn_image_fails_checksum() {
        let p = sample();
        let mut img = p.encode(4096);
        // Tear: second half replaced by 0xFF (the NAND torn pattern).
        for b in &mut img[2048..] {
            *b = 0xFF;
        }
        assert!(matches!(NodePage::decode(&img), Err(PageDecodeError::BadChecksum { .. })));
    }

    #[test]
    fn zero_image_is_empty_not_corrupt() {
        assert_eq!(NodePage::decode(&[0u8; 4096]), Err(PageDecodeError::Empty));
    }

    #[test]
    fn drain_high_splits_at_pivot() {
        let mut p = sample();
        let high = p.drain_high(&Key::node(2));
        assert_eq!(high.len(), 2);
        assert_eq!(p.entries.len(), 1);
        assert_eq!(p.entries[0].0, Key::node(1));
        let recount: usize =
            PAGE_HEADER + p.entries.iter().map(|(_, v)| ENTRY_OVERHEAD + v.len()).sum::<usize>();
        assert_eq!(p.bytes_used(), recount);
    }

    #[test]
    fn extend_high_appends_sorted_run() {
        let mut p = NodePage::new(9, 0);
        p.upsert(Key::node(1), vec![1]);
        p.extend_high(vec![(Key::node(5), vec![5]), (Key::node(6), vec![6])]);
        assert_eq!(p.entries.len(), 3);
        let img = p.encode(4096);
        assert_eq!(NodePage::decode(&img).unwrap(), p);
    }

    #[test]
    fn child_value_round_trip() {
        let mut p = NodePage::new(1, 1);
        p.upsert(Key::MIN, NodePage::child_value(42));
        assert_eq!(p.child_at(0), 42);
    }

    #[test]
    fn would_overflow_respects_page_size() {
        let mut p = NodePage::new(0, 0);
        let max_v = 4096 - PAGE_HEADER - ENTRY_OVERHEAD;
        assert!(!p.would_overflow(max_v, 4096));
        assert!(p.would_overflow(max_v + 1, 4096));
        p.upsert(Key::node(1), vec![0; 100]);
        assert!(p.would_overflow(max_v - 100, 4096));
    }
}
