//! A NAND image is outside input (`sharectl` opens whatever file it is
//! handed): `NandArray::load_image` must answer damage with an error or a
//! valid array, never a panic, and must size nothing from a header field
//! before the bytes behind it have arrived.
//!
//! A test cannot catch the failure this file exists for — a header whose
//! block or page count reserves gigabytes ends the process with `memory
//! allocation of … bytes failed`, not an unwind — and need not: with the
//! reservation the test binary dies, without it every call below returns.

use nand_sim::{BlockId, FaultMode, NandArray, NandGeometry, NandTiming, Ppn};

const PAGE: usize = 512;
const PPB: u32 = 4;
const BLOCKS: u32 = 6;
/// magic, version, page_size u64, pages_per_block, blocks, channels, ways,
/// clock u64, four u64 counters.
const HEADER: usize = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 8 + 32;
/// Header offsets of the fields the tests patch.
const AT_VERSION: usize = 4;
const AT_PAGE_SIZE: usize = 8;
const AT_PPB: usize = 16;
const AT_BLOCKS: usize = 20;
const AT_CHANNELS: usize = 24;

/// Programmed, erased-and-reprogrammed, torn and untouched blocks on a
/// two-channel device.
fn build() -> NandArray {
    let g = NandGeometry::new(PAGE, PPB, BLOCKS).with_parallelism(2, 1);
    let mut nand = NandArray::new(g);
    for i in 0..7u32 {
        nand.program(Ppn(i), &[i as u8; PAGE]).unwrap();
    }
    nand.erase(BlockId(0)).unwrap();
    nand.program(Ppn(0), &[0xEE; PAGE]).unwrap();
    nand.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
    let _ = nand.program(Ppn(1), &[0xDD; PAGE]);
    nand.power_cycle();
    nand
}

fn save(nand: &NandArray) -> Vec<u8> {
    let mut buf = Vec::new();
    nand.save_image(&mut buf).unwrap();
    buf
}

fn load(bytes: &[u8]) -> std::io::Result<NandArray> {
    NandArray::load_image(&mut &bytes[..], NandTiming::default())
}

/// Re-encode a v4 image in an older layout, from the format's own
/// description: v1 has no `channels`/`ways` words, v2 is v4's layout, v3
/// carries a third `u32` per block (the retired lifetime-class tag).
fn as_version(v4: &[u8], version: u32) -> Vec<u8> {
    let mut out = v4[..AT_VERSION].to_vec();
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&v4[AT_PAGE_SIZE..AT_CHANNELS]);
    if version >= 2 {
        out.extend_from_slice(&v4[AT_CHANNELS..AT_CHANNELS + 8]);
    }
    out.extend_from_slice(&v4[AT_CHANNELS + 8..HEADER]);
    for (b, entry) in v4[HEADER..HEADER + BLOCKS as usize * 8].chunks(8).enumerate() {
        out.extend_from_slice(entry);
        if version == 3 {
            out.extend_from_slice(&(b as u32 % 3).to_le_bytes());
        }
    }
    out.extend_from_slice(&v4[HEADER + BLOCKS as usize * 8..]);
    out
}

/// The image with one header field overwritten.
fn patched(image: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
    let mut out = image.to_vec();
    out[at..at + value.len()].copy_from_slice(value);
    out
}

/// `Err`, or an array that saves and loads back to the bytes it saved.
/// Returns whether the image loaded.
fn err_or_valid(bytes: &[u8], what: &str) -> bool {
    let Ok(nand) = load(bytes) else { return false };
    let again = save(&nand);
    let reloaded = load(&again).unwrap_or_else(|e| panic!("{what}: loaded, then {e}"));
    assert_eq!(save(&reloaded), again, "{what}: not a fixed point");
    true
}

#[test]
fn older_versions_load_to_the_array_a_v4_image_does() {
    let v4 = save(&build());
    assert_eq!(v4[AT_VERSION..AT_VERSION + 4], 4u32.to_le_bytes());
    assert_eq!(save(&load(&v4).unwrap()), v4, "v4 round trip");
    for version in [2, 3] {
        let old = as_version(&v4, version);
        assert_eq!(save(&load(&old).unwrap()), v4, "v{version}");
    }
    // v1 predates channels: the same state on a 1 x 1 device.
    let one_by_one = [1u32.to_le_bytes(), 1u32.to_le_bytes()].concat();
    let one_lane = patched(&v4, AT_CHANNELS, &one_by_one);
    assert_eq!(save(&load(&as_version(&v4, 1)).unwrap()), one_lane, "v1");
}

#[test]
fn every_header_and_block_table_bit_flip_is_an_error_or_a_valid_array() {
    let v4 = save(&build());
    for version in [4, 3, 2] {
        let image = as_version(&v4, version);
        let table = BLOCKS as usize * if version == 3 { 12 } else { 8 };
        let mut loaded = 0;
        for bit in 0..(HEADER + table) * 8 {
            let mut bytes = image.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            loaded += usize::from(err_or_valid(&bytes, &format!("v{version} bit {bit}")));
        }
        // The sweep must see both answers: clock, counter and wear flips
        // load, geometry and frontier flips do not.
        assert!(loaded > 0 && loaded < (HEADER + table) * 8, "v{version}: {loaded} loaded");
    }
}

#[test]
fn every_truncation_is_an_error() {
    let v4 = save(&build());
    for version in [4, 3, 2] {
        let image = as_version(&v4, version);
        for len in 0..image.len() {
            assert!(load(&image[..len]).is_err(), "v{version} cut to {len} bytes loaded");
        }
    }
}

#[test]
fn a_frontier_that_disagrees_with_its_pages_is_rejected() {
    let v4 = save(&build());
    let frontier_of = |b: usize| HEADER + b * 8 + 4;
    // Block 1 holds three pages: beyond the block, past them, short of them.
    for claimed in [PPB + 1, PPB, 2, 0] {
        let bytes = patched(&v4, frontier_of(1), &claimed.to_le_bytes());
        assert!(load(&bytes).is_err(), "frontier {claimed} over three pages loaded");
    }
    // Block 3 was never written.
    assert!(load(&patched(&v4, frontier_of(3), &1u32.to_le_bytes())).is_err());
}

#[test]
fn a_header_that_claims_the_moon_over_a_64_byte_body_is_an_error() {
    let v4 = save(&build());
    let over_small_body = |at: usize, value: &[u8]| {
        let mut bytes = patched(&v4, at, value);
        bytes.truncate(HEADER + 64);
        bytes
    };
    let max = u32::MAX.to_le_bytes();
    let one = 1u32.to_le_bytes();
    // Page totals that wrap `u32`.
    assert!(load(&over_small_body(AT_BLOCKS, &max)).is_err());
    assert!(load(&over_small_body(AT_PPB, &max)).is_err());
    // Page totals that fit: nothing may be reserved for them up front.
    assert!(load(&patched(&over_small_body(AT_BLOCKS, &max), AT_PPB, &one)).is_err());
    assert!(load(&patched(&over_small_body(AT_PPB, &max), AT_BLOCKS, &one)).is_err());
    assert!(load(&over_small_body(AT_PAGE_SIZE, &(1u64 << 40).to_le_bytes())).is_err());
    assert!(load(&over_small_body(AT_CHANNELS, &max)).is_err());
}
