//! Hostile file tables: a mount reads whatever the two metadata slots hold,
//! and the payload CRC only says the bytes are the ones written, not that
//! a well-meaning VFS wrote them. So a CRC-valid table whose counts claim
//! more records than its payload holds must be *refused* with
//! `MetadataCorrupt`, never sized from and never an abort.
//!
//! The tables are written here in the VFS's own layout into both slots of
//! a formatted device. One shape mounts (the writer is right); the others
//! raise the file count or the last file's extent count past what the
//! payload holds, up to `u32::MAX`. A reader that sizes a vector from such
//! a count *aborts* the test binary ("memory allocation of … bytes
//! failed") instead of failing a test. The rest keep every count right but
//! place an extent where no file can own it: over another file's pages,
//! over the metadata area or past the device, or so far up that its end
//! overflows. Such a table must be refused too, not mounted with two files
//! sharing pages.

use nand_sim::NandTiming;
use share_core::{crc32c, BlockDevice, Ftl, FtlConfig, Lpn};
use share_vfs::{Vfs, VfsError, VfsOptions};

const META_MAGIC: u32 = 0x4653_4D44;
/// Pages per metadata slot; slot `s` starts at LPN `s * SLOT_PAGES`.
const SLOT_PAGES: u64 = 8;
/// Header bytes before the payload.
const HEADER: usize = 32;

/// A file record: id, name, length in pages, extents as (start, len).
type Record<'a> = (u32, &'a str, u64, &'a [(u64, u64)]);

/// A file-table payload in the on-media layout: count, next id, then each
/// record.
fn table(files: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(files.len() as u32).to_le_bytes());
    let next_id = files.iter().map(|f| f.0 + 1).max().unwrap_or(1);
    buf.extend_from_slice(&next_id.to_le_bytes());
    for &(id, name, len_pages, extents) in files {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.push(name.len() as u8);
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&len_pages.to_le_bytes());
        buf.extend_from_slice(&(extents.len() as u32).to_le_bytes());
        for &(start, len) in extents {
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
    }
    buf
}

/// Mount a freshly formatted device whose two slots both hold `payload`
/// under a valid header and CRC, at generations newer than the format's.
fn mount_with(payload: &[u8]) -> Result<Vfs<Ftl>, VfsError> {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, NandTiming::zero());
    let mut dev = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap().into_device();
    let ps = dev.page_size();
    let pages = (HEADER + payload.len()).div_ceil(ps);
    assert!(pages as u64 <= SLOT_PAGES, "payload larger than a slot");
    for slot in 0..2u64 {
        let mut image = vec![0u8; pages * ps];
        image[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        image[4..12].copy_from_slice(&(100 + slot).to_le_bytes());
        image[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        image[16..20].copy_from_slice(&crc32c(payload).to_le_bytes());
        image[HEADER..HEADER + payload.len()].copy_from_slice(payload);
        for (p, chunk) in image.chunks(ps).enumerate() {
            dev.write(Lpn(slot * SLOT_PAGES + p as u64), chunk).unwrap();
        }
    }
    Vfs::open(dev, VfsOptions::default())
}

const EXTENTS: [(u64, u64); 2] = [(40, 8), (64, 4)];

fn files() -> Vec<Record<'static>> {
    vec![(1, "a.db", 3, &EXTENTS[..1]), (2, "b.log", 10, &EXTENTS[1..])]
}

/// Count values past what a payload of `len` bytes could hold for records
/// of at least `record` bytes, from one past the true `count` to the top.
fn too_many(count: u32, len: usize, record: usize) -> [u32; 5] {
    [count + 1, (len / record) as u32 + 1, 1 << 16, 1 << 31, u32::MAX]
}

fn assert_refused(payload: &[u8], what: &str) {
    match mount_with(payload) {
        Err(VfsError::MetadataCorrupt(_)) => {}
        Err(e) => panic!("{what}: refused with {e:?}, want MetadataCorrupt"),
        Ok(fs) => panic!("{what}: mounted {:?}", fs.list()),
    }
}

#[test]
fn a_table_written_here_mounts() {
    let fs = mount_with(&table(&files())).unwrap();
    assert_eq!(fs.list(), ["a.db", "b.log"]);
    let b = fs.lookup("b.log").unwrap();
    assert_eq!((fs.len_pages(b).unwrap(), fs.allocated_pages(b).unwrap()), (10, 4));
}

#[test]
fn a_file_count_past_the_payload_is_refused() {
    let good = table(&files());
    for count in too_many(2, good.len(), 17) {
        let mut payload = good.clone();
        payload[0..4].copy_from_slice(&count.to_le_bytes());
        assert_refused(&payload, &format!("file count {count}"));
    }
}

#[test]
fn an_extent_count_past_the_payload_is_refused() {
    let good = table(&files());
    // The last record's extent count sits one extent from the end.
    let at = good.len() - 16 - 4;
    assert_eq!(good[at..at + 4], 1u32.to_le_bytes());
    for n_ext in too_many(1, good.len(), 16) {
        let mut payload = good.clone();
        payload[at..at + 4].copy_from_slice(&n_ext.to_le_bytes());
        assert_refused(&payload, &format!("extent count {n_ext}"));
    }
}

/// `b.log`'s one extent replaced by `extent`, every count left right.
fn with_b_extent(extent: (u64, u64)) -> Vec<u8> {
    let ext = [extent];
    table(&[(1, "a.db", 3, &EXTENTS[..1]), (2, "b.log", 10, &ext)])
}

#[test]
fn overlapping_extents_are_refused() {
    // `a.db` owns pages 40..48.
    for extent in [(40, 8), (44, 4), (36, 8), (47, 20), (30, 40)] {
        assert_refused(&with_b_extent(extent), &format!("extent {extent:?} over a.db's"));
    }
}

#[test]
fn an_extent_outside_the_data_area_is_refused() {
    // The metadata slots and the journal ring sit below the first file
    // page; the device holds 8 MiB of 4 KiB pages.
    for extent in [(0, 4), (8, 1), (30, 4), (2_000, 1 << 20), (1 << 40, 1)] {
        assert_refused(&with_b_extent(extent), &format!("extent {extent:?}"));
    }
}

#[test]
fn an_extent_whose_end_overflows_is_refused() {
    for extent in [(u64::MAX, 1), (u64::MAX - 3, 8), (100, u64::MAX)] {
        assert_refused(&with_b_extent(extent), &format!("extent {extent:?}"));
    }
}
