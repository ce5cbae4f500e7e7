//! Small utilities: CRC-32C checksums, little-endian codec helpers and a
//! fixed-state hasher.
//!
//! The FTL persists mapping metadata (delta-log pages, checkpoint pages) to
//! flash; each such page carries a CRC so recovery can detect torn or
//! partially programmed meta pages.

/// CRC-32C (Castagnoli) over `data`, table-driven.
pub fn crc32c(data: &[u8]) -> u32 {
    const POLY: u32 = 0x82F6_3B78;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Hasher with no per-process state, for hash tables keyed by numbers the
/// device hands out itself (physical page numbers). `RandomState` seeds
/// every table differently in every process, so where a table's probe
/// sequences collide — and with that when it grows or rehashes — differs
/// from run to run; on this hasher the same command sequence allocates the
/// same way every time. It has no defence against chosen keys: never key
/// it with values a caller picks.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

/// `BuildHasher` of [`FixedHasher`].
pub type FixedState = std::hash::BuildHasherDefault<FixedHasher>;

impl std::hash::Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// SplitMix64's finalizer: the table takes its bucket from the low
    /// bits and its tag from the high ones, so both must mix.
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Write a `u32` little-endian at `buf[off..off+4]` and return the next offset.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) -> usize {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    off + 4
}

/// Write a `u64` little-endian at `buf[off..off+8]` and return the next offset.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) -> usize {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    off + 8
}

/// Read a `u32` little-endian from `buf[off..off+4]`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().unwrap())
}

/// Read a `u64` little-endian from `buf[off..off+8]`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

/// Integer ceiling division.
#[inline]
pub fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 100];
        let c1 = crc32c(&data);
        data[50] ^= 0x01;
        assert_ne!(c1, crc32c(&data));
    }

    #[test]
    fn fixed_hasher_repeats_and_spreads_consecutive_keys() {
        use std::hash::BuildHasher;
        let hash = |ppn: u32| FixedState::default().hash_one(ppn);
        assert_eq!(hash(7), hash(7), "no per-table or per-process state");
        // Physical page numbers are handed out consecutively: neither the
        // bucket bits (low) nor the tag bits (high 7) may repeat in a run.
        let low: std::collections::HashSet<u64> = (0..1024).map(|p| hash(p) & 1023).collect();
        let high: std::collections::HashSet<u64> = (0..1024).map(|p| hash(p) >> 57).collect();
        assert!(low.len() > 512, "{} distinct bucket indexes of 1024", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn codec_round_trips() {
        let mut buf = [0u8; 16];
        let off = put_u32(&mut buf, 0, 0xDEAD_BEEF);
        let off = put_u64(&mut buf, off, 0x0123_4567_89AB_CDEF);
        assert_eq!(off, 12);
        assert_eq!(get_u32(&buf, 0), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, 4), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn div_ceil_matches_manual() {
        assert_eq!(div_ceil_u64(0, 4), 0);
        assert_eq!(div_ceil_u64(1, 4), 1);
        assert_eq!(div_ceil_u64(4, 4), 1);
        assert_eq!(div_ceil_u64(5, 4), 2);
    }
}
