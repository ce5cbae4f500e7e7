//! Record-page format of the mini-SQLite pager.

use share_core::crc32c;

/// Page header bytes: crc(4) page_no(8) count(2) pad(2).
pub const PAGE_HEADER: usize = 16;
/// Per-record overhead: key(8) + vlen(2).
pub const RECORD_OVERHEAD: usize = 10;

/// A decoded record page: sorted `(key, value)` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordPage {
    /// Page number within the database file.
    pub page_no: u64,
    /// Sorted records.
    pub records: Vec<(u64, Vec<u8>)>,
    bytes_used: usize,
}

impl RecordPage {
    /// An empty page.
    pub fn new(page_no: u64) -> Self {
        Self { page_no, records: Vec::new(), bytes_used: PAGE_HEADER }
    }

    /// Bytes this page occupies when encoded.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Whether a value of `vlen` more bytes fits in `page_bytes`.
    pub fn fits(&self, vlen: usize, page_bytes: usize) -> bool {
        self.bytes_used + RECORD_OVERHEAD + vlen <= page_bytes
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.records
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| self.records[i].1.as_slice())
    }

    /// Insert or replace; returns the old value if any.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> Option<Vec<u8>> {
        match self.records.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                self.bytes_used = self.bytes_used - self.records[i].1.len() + value.len();
                Some(std::mem::replace(&mut self.records[i].1, value))
            }
            Err(i) => {
                self.bytes_used += RECORD_OVERHEAD + value.len();
                self.records.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`; returns the old value if present.
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        match self.records.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => {
                let (_, v) = self.records.remove(i);
                self.bytes_used -= RECORD_OVERHEAD + v.len();
                Some(v)
            }
            Err(_) => None,
        }
    }

    /// Encode with checksum into a `page_bytes` image.
    pub fn encode(&self, page_bytes: usize) -> Vec<u8> {
        debug_assert!(self.bytes_used <= page_bytes);
        let mut b = vec![0u8; page_bytes];
        b[4..12].copy_from_slice(&self.page_no.to_le_bytes());
        b[12..14].copy_from_slice(&(self.records.len() as u16).to_le_bytes());
        let mut off = PAGE_HEADER;
        for (k, v) in &self.records {
            b[off..off + 8].copy_from_slice(&k.to_le_bytes());
            b[off + 8..off + 10].copy_from_slice(&(v.len() as u16).to_le_bytes());
            b[off + 10..off + 10 + v.len()].copy_from_slice(v);
            off += RECORD_OVERHEAD + v.len();
        }
        let crc = crc32c(&b[4..]);
        b[0..4].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Decode and verify. `Ok(None)` = all-zero (never written) page.
    pub fn decode(b: &[u8]) -> Result<Option<RecordPage>, &'static str> {
        // One pass per fetched page: a never-written image is looked for
        // only once the checksum has failed (an all-zero image stores 0,
        // which CRC-32C of a page-sized run of zero bytes never is).
        let reject = |damage| if b.iter().all(|&x| x == 0) { Ok(None) } else { Err(damage) };
        if b.len() < PAGE_HEADER {
            return reject("short");
        }
        let stored = u32::from_le_bytes(b[0..4].try_into().unwrap());
        if crc32c(&b[4..]) != stored {
            return reject("checksum mismatch (torn page)");
        }
        let page_no = u64::from_le_bytes(b[4..12].try_into().unwrap());
        let count = u16::from_le_bytes(b[12..14].try_into().unwrap()) as usize;
        let mut records = Vec::with_capacity(count);
        let mut off = PAGE_HEADER;
        let mut bytes_used = PAGE_HEADER;
        for _ in 0..count {
            if off + RECORD_OVERHEAD > b.len() {
                return Err("record header past end");
            }
            let key = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
            let vlen = u16::from_le_bytes(b[off + 8..off + 10].try_into().unwrap()) as usize;
            if off + RECORD_OVERHEAD + vlen > b.len() {
                return Err("value past end");
            }
            records.push((key, b[off + 10..off + 10 + vlen].to_vec()));
            off += RECORD_OVERHEAD + vlen;
            bytes_used += RECORD_OVERHEAD + vlen;
        }
        Ok(Some(RecordPage { page_no, records, bytes_used }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut p = RecordPage::new(5);
        p.put(3, vec![3; 30]);
        p.put(1, vec![1; 10]);
        p.put(2, vec![2; 20]);
        let img = p.encode(4096);
        let q = RecordPage::decode(&img).unwrap().unwrap();
        assert_eq!(q, p);
        assert_eq!(q.get(2), Some(&[2u8; 20][..]));
    }

    #[test]
    fn put_replaces_and_tracks_bytes() {
        let mut p = RecordPage::new(0);
        let b0 = p.bytes_used();
        p.put(1, vec![0; 100]);
        assert_eq!(p.bytes_used(), b0 + RECORD_OVERHEAD + 100);
        let old = p.put(1, vec![0; 40]).unwrap();
        assert_eq!(old.len(), 100);
        assert_eq!(p.bytes_used(), b0 + RECORD_OVERHEAD + 40);
        assert_eq!(p.remove(1).unwrap().len(), 40);
        assert_eq!(p.bytes_used(), b0);
    }

    #[test]
    fn torn_image_detected() {
        let mut p = RecordPage::new(1);
        p.put(1, vec![0xAB; 50]);
        let mut img = p.encode(4096);
        for b in &mut img[2048..] {
            *b = 0x55;
        }
        assert_eq!(RecordPage::decode(&img), Err("checksum mismatch (torn page)"));
    }

    #[test]
    fn zero_page_is_none() {
        assert_eq!(RecordPage::decode(&[0u8; 4096]), Ok(None));
    }

    #[test]
    fn fits_respects_capacity() {
        let p = RecordPage::new(0);
        assert!(p.fits(4096 - PAGE_HEADER - RECORD_OVERHEAD, 4096));
        assert!(!p.fits(4096 - PAGE_HEADER - RECORD_OVERHEAD + 1, 4096));
    }
}
