//! Small utilities: CRC-32C checksums, little-endian codec helpers and a
//! fixed-state hasher.
//!
//! The FTL persists mapping metadata (delta-log pages, checkpoint pages) to
//! flash; each such page carries a CRC so recovery can detect torn or
//! partially programmed meta pages.

const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables, built at compile time. `TABLES[0]` is the classic
/// one-byte table; `TABLES[k][b]` is the CRC state after byte `b` followed
/// by `k` zero bytes, which lets eight input bytes be folded in one step of
/// eight independent lookups instead of eight dependent ones.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// The lane length of the two-lane kernel: 2 · 2016 = 4032 bytes fit inside
/// the shortest 4 KiB span the engines and the FTL checksum (the delta log's
/// 4 064 bytes), and a lane is a whole number of eight-byte steps.
const LANE: usize = 2016;

/// The map "state after [`LANE`] zero bytes" (see [`zeros_table`]).
static ZEROS: [[u32; 256]; 4] = zeros_table(LANE);

/// The map "append `len` zero bytes" on the CRC state, as four byte tables:
/// `t[k][b]` is the state after the state `b << 8k` meets `len` zero bytes.
/// The map is linear over GF(2), so the state after `len` zero bytes from any
/// state `s` is the XOR of `t[k][byte k of s]` over its four bytes. Built at
/// compile time from the bitwise definition, one column per state bit.
const fn zeros_table(len: usize) -> [[u32; 256]; 4] {
    let mut column = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < 8 * len {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            n += 1;
        }
        column[bit] = crc;
        bit += 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 1usize;
        while b < 256 {
            // `b` less its lowest set bit is already filled in.
            t[k][b] = t[k][b & (b - 1)] ^ column[8 * k + b.trailing_zeros() as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The state after [`LANE`] zero bytes, from `crc`.
#[inline(always)]
fn shift(crc: u32) -> u32 {
    ZEROS[0][(crc & 0xFF) as usize]
        ^ ZEROS[1][((crc >> 8) & 0xFF) as usize]
        ^ ZEROS[2][((crc >> 16) & 0xFF) as usize]
        ^ ZEROS[3][(crc >> 24) as usize]
}

/// One slicing-by-8 step: the state after `crc` meets the eight bytes of
/// `chunk`. The four lookups of the high word do not depend on `crc` and
/// come first in the XOR chain, so the chain from one step's state to the
/// next waits on four lookups instead of eight.
#[inline(always)]
fn step(crc: u32, chunk: &[u8]) -> u32 {
    let lo = get_u32(chunk, 0) ^ crc;
    let hi = get_u32(chunk, 4);
    TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
        ^ TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
}

/// CRC-32C (Castagnoli, reflected, init and final XOR `0xFFFF_FFFF`) over
/// `data`: the one checksum behind every engine page, couch block, redo
/// page, VFS journal record, delta-log page and checkpoint.
///
/// Slicing-by-8 (Kounavis & Berry) on two lanes: while at least two lanes
/// of [`LANE`] bytes are left, the next two are walked as two independent
/// slicing-by-8 chains in one loop — the first from the running state, the
/// second from 0 — and folded with the zero-byte table, `shift(a) ^ b`: the
/// CRC is linear, so the state after lanes A and B equals that fold (the
/// technique behind zlib's `crc32_combine`). What is left, and every buffer
/// under 4 032 bytes, takes the serial slicing-by-8 loop and its byte tail.
/// Bit-identical to the bytewise definition. One kernel on every CPU, so
/// what a run costs does not depend on the machine's instruction set
/// (DESIGN.md §6 says why the `crc32` instruction is not used, and why two
/// lanes and not three).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// The CRC-32C of `a ‖ data`, given `crc` = [`crc32c`]`(a)`: the same
/// kernel, started from the state `crc` finalises. A log that checksums a
/// page it fills record by record extends its CRC by each record instead
/// of checksumming the page again; `crc32c_append(0, x) == crc32c(x)`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut rest = data;
    while rest.len() >= 2 * LANE {
        let (a, tail) = rest.split_at(LANE);
        let (b, tail) = tail.split_at(LANE);
        let (mut sa, mut sb) = (crc, 0);
        for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            sa = step(sa, x);
            sb = step(sb, y);
        }
        crc = shift(sa) ^ sb;
        rest = tail;
    }
    let mut chunks = rest.chunks_exact(8);
    for chunk in &mut chunks {
        crc = step(crc, chunk);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Hasher with no per-process state, for hash tables keyed by numbers the
/// stack hands out itself (physical page numbers, an engine's page
/// numbers). It is also cheaper per lookup than SipHash. `RandomState` seeds
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

/// Empty `v` and hand its allocation back as a vector of `U`, an item type
/// of the same size and alignment — in practice the same type with a new
/// lifetime. A request vector whose items borrow (the pages of one call, the
/// frames of one fetch) can then be kept between calls in its `'static`
/// form: each call recycles it into one that borrows for the call, fills and
/// submits it, and recycles it back. No item survives a recycle, so nothing
/// borrowed outlives its call, and std collects an emptied `IntoIter` into
/// the allocation it came from (`crates/core/tests/alloc_budget.rs` fails if
/// a toolchain stops doing so).
pub fn recycle_vec<T, U>(mut v: Vec<T>) -> Vec<U> {
    const {
        assert!(size_of::<T>() == size_of::<U>() && align_of::<T>() == align_of::<U>());
    }
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one byte per dependent step and no table: the
    /// reference the kernel is swept against.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32c_rfc3720_known_answers() {
        // RFC 3720 §B.4, plus the classic check string.
        let ascending: Vec<u8> = (0..=31).collect();
        let descending: Vec<u8> = (0..=31).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c_bytewise(data), want, "reference on {data:02x?}");
            assert_eq!(crc32c(data), want, "kernel on {data:02x?}");
        }
    }

    #[test]
    fn kernel_equals_the_bytewise_reference() {
        use share_rng::Rng;
        // Every length around the 8-byte step and its tail; every length
        // within 16 bytes of one and of two two-lane blocks, where the fold
        // starts and repeats; the checksummed spans of a 4 KiB page
        // (innodb/sqlite `[4..]`, couch `[8..]`, `[12..]`, the delta log's
        // `[32..]`), the same `[12..]` and `[32..]` spans of a 16 KiB page
        // and 16 KiB ± 8; each at every alignment of the first byte.
        let mut lens: Vec<usize> = (0..=130).collect();
        lens.extend(2 * LANE - 16..=2 * LANE + 16);
        lens.extend(4 * LANE - 16..=4 * LANE + 16);
        lens.extend([4092, 4088, 4084, 4064, 16_372, 16_352]);
        lens.extend(16_384 - 8..=16_384 + 8);
        let mut buf = vec![0u8; 16_384 + 8 + 8];
        share_rng::StdRng::seed_from_u64(0x0C3C_32C0).fill(&mut buf);
        for len in lens {
            for start in 0..8 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), crc32c_bytewise(data), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn append_extends_the_checksum_of_a_prefix() {
        use share_rng::Rng;
        // Totals around one two-lane block and a whole 4 KiB page, split
        // at and beside the byte step, the byte tail and the lane length,
        // so the first part ends and the second starts everywhere the
        // kernel changes loops.
        let mut buf = vec![0u8; 4096];
        share_rng::StdRng::seed_from_u64(0xA99E_4D00).fill(&mut buf);
        for total in [4031, 4032, 4033, 4096] {
            let data = &buf[..total];
            for cut in [0, 1, 7, 8, 2015, 2016, 2017] {
                let (a, b) = data.split_at(cut);
                assert_eq!(crc32c_append(crc32c(a), b), crc32c(data), "total {total} cut {cut}");
            }
        }
        for len in [0, 1, 7, 8, 9, 2016, 4031, 4032, 4033, 4096] {
            assert_eq!(crc32c_append(0, &buf[..len]), crc32c(&buf[..len]), "len {len}");
        }
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
