//! NAND image persistence: save/load the whole flash state to a byte
//! stream, so simulated devices survive process restarts (used by the
//! `sharectl` tool and by long-running experiment pipelines).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "NSIM" | version u32 | page_size u64 | pages_per_block u32 |
//! blocks u32 | channels u32 | ways u32 (v2+) | clock_ns u64 |
//! stats (4 x u64) |
//! per block: erase_count u32, frontier u32 [, tag u32 (v3 only)] |
//! per page:  state u8 (0 free, 1 programmed, 2 torn) [+ content]
//! ```
//!
//! Version 4 is what `save_image` writes. Version 1 images (pre-channel)
//! load as a 1-channel, 1-way device. Version 3 carried one more `u32`
//! per block, the lifetime class the block was opened under while the FTL
//! separated write points by class; the loader reads the column and drops
//! it, so v2, v3 and v4 images of one state load to the same array.
//!
//! An image is outside input (`sharectl` opens whatever file it is
//! given), so the loader trusts no count in the header: vectors grow as
//! bytes arrive, and a geometry no device here could have is rejected
//! before anything is sized from it.

use crate::array::{NandArray, PageState};
use crate::clock::SimClock;
use crate::geometry::{BlockId, NandGeometry, NandTiming, Ppn};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"NSIM";
const VERSION: u32 = 4;
/// Largest page the loader accepts (real NAND pages are 2–64 KiB); bounds
/// the one buffer that is sized from a header field before its bytes exist.
const MAX_PAGE_SIZE: u64 = 1 << 20;
/// Largest channels × ways the loader accepts: a unit owns two words of
/// timing state and no image byte, so nothing else bounds it.
const MAX_UNITS: u32 = 1 << 16;

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl NandArray {
    /// Serialize the full flash state (geometry, wear, frontiers, page
    /// contents, clock, counters) into `w`.
    pub fn save_image(&self, w: &mut impl Write) -> io::Result<()> {
        let g = self.geometry();
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;
        put_u64(w, g.page_size as u64)?;
        put_u32(w, g.pages_per_block)?;
        put_u32(w, g.blocks)?;
        put_u32(w, g.channels)?;
        put_u32(w, g.ways)?;
        put_u64(w, self.clock().now_ns())?;
        let s = self.stats();
        put_u64(w, s.page_reads)?;
        put_u64(w, s.page_programs)?;
        put_u64(w, s.block_erases)?;
        put_u64(w, s.torn_programs)?;
        for b in 0..g.blocks {
            put_u32(w, self.erase_count(BlockId(b)))?;
            put_u32(w, self.write_frontier(BlockId(b)))?;
        }
        for p in 0..g.total_pages() {
            let ppn = Ppn(p);
            match self.page_state(ppn) {
                PageState::Free => w.write_all(&[0u8])?,
                state => {
                    w.write_all(&[if state == PageState::Torn { 2u8 } else { 1 }])?;
                    w.write_all(self.raw_page(ppn).expect("programmed page has content"))?;
                }
            }
        }
        Ok(())
    }

    /// Reconstruct an array from [`NandArray::save_image`] output. The
    /// timing model is supplied by the caller (it is configuration, not
    /// state).
    pub fn load_image(r: &mut impl Read, timing: NandTiming) -> io::Result<NandArray> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a NAND image"));
        }
        let version = get_u32(r)?;
        if !(1..=VERSION).contains(&version) {
            return Err(bad("unsupported NAND image version"));
        }
        let page_size = get_u64(r)?;
        let pages_per_block = get_u32(r)?;
        let blocks = get_u32(r)?;
        let (channels, ways) = if version >= 2 { (get_u32(r)?, get_u32(r)?) } else { (1, 1) };
        if !page_size.is_power_of_two() || page_size > MAX_PAGE_SIZE {
            return Err(bad("corrupt page size"));
        }
        let page_size = page_size as usize;
        // `NandGeometry::total_pages` multiplies in `u32`.
        let total_pages = match pages_per_block.checked_mul(blocks) {
            Some(n) if n > 0 => n,
            _ => return Err(bad("corrupt geometry")),
        };
        if !matches!(channels.checked_mul(ways), Some(1..=MAX_UNITS)) {
            return Err(bad("corrupt parallelism"));
        }
        let geometry = NandGeometry::new(page_size, pages_per_block, blocks)
            .with_parallelism(channels, ways);
        let clock = SimClock::new();
        clock.advance(get_u64(r)?);
        let stats = crate::stats::NandStats {
            page_reads: get_u64(r)?,
            page_programs: get_u64(r)?,
            block_erases: get_u64(r)?,
            torn_programs: get_u64(r)?,
        };
        // No `with_capacity` below: a header can claim 2^32 blocks over a
        // body of a few bytes, and the read fails long before the vectors
        // grow to it.
        let mut erase_counts = Vec::new();
        let mut frontiers = Vec::new();
        for _ in 0..blocks {
            erase_counts.push(get_u32(r)?);
            frontiers.push(get_u32(r)?);
            if version == 3 {
                get_u32(r)?; // the retired lifetime-class tag
            }
        }
        let mut pages = Vec::new();
        let mut torn = Vec::new();
        let mut tag = [0u8; 1];
        for _ in 0..total_pages {
            r.read_exact(&mut tag)?;
            match tag[0] {
                0 => {
                    pages.push(None);
                    torn.push(false);
                }
                t @ (1 | 2) => {
                    let mut content = vec![0u8; page_size];
                    r.read_exact(&mut content)?;
                    pages.push(Some(content.into_boxed_slice()));
                    torn.push(t == 2);
                }
                _ => return Err(bad("corrupt page tag")),
            }
        }
        NandArray::from_parts(
            geometry,
            timing,
            clock,
            pages,
            torn,
            frontiers,
            erase_counts,
            stats,
        )
        .map_err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;

    fn build() -> NandArray {
        let mut nand = NandArray::new(NandGeometry::new(512, 4, 6));
        for i in 0..7u32 {
            nand.program(Ppn(i), &vec![i as u8; 512]).unwrap();
        }
        nand.erase(BlockId(0)).unwrap();
        nand.program(Ppn(0), &vec![0xEE; 512]).unwrap();
        // Leave one torn page behind.
        nand.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
        let _ = nand.program(Ppn(1), &vec![0xDD; 512]);
        nand.power_cycle();
        nand
    }

    #[test]
    fn image_round_trips_everything() {
        let nand = build();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        let mut loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), nand.geometry());
        assert_eq!(loaded.stats(), nand.stats());
        assert_eq!(loaded.clock().now_ns(), nand.clock().now_ns());
        for b in 0..6 {
            assert_eq!(loaded.erase_count(BlockId(b)), nand.erase_count(BlockId(b)));
            assert_eq!(loaded.write_frontier(BlockId(b)), nand.write_frontier(BlockId(b)));
        }
        for p in 0..24u32 {
            assert_eq!(loaded.page_state(Ppn(p)), nand.page_state(Ppn(p)), "page {p}");
        }
        let mut got = vec![0u8; 512];
        loaded.read(Ppn(0), &mut got).unwrap();
        assert!(got.iter().all(|&b| b == 0xEE));
        // Programming constraints still enforced after a load.
        assert!(loaded.program(Ppn(0), &vec![1; 512]).is_err());
    }

    #[test]
    fn image_round_trips_parallel_geometry() {
        let g = NandGeometry::new(512, 4, 8).with_parallelism(4, 2);
        let mut nand = NandArray::with_timing(g, NandTiming::default(), SimClock::new());
        nand.program(Ppn(0), &vec![0x11; 512]).unwrap();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        let loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), g);
        assert_eq!(loaded.geometry().units(), 8);
    }

    /// Hand-encode the version-2 layout and load it with all state intact.
    #[test]
    fn v2_image_loads_as_single_stream() {
        let nand = build();
        let g = nand.geometry();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(g.page_size as u64).to_le_bytes());
        buf.extend_from_slice(&g.pages_per_block.to_le_bytes());
        buf.extend_from_slice(&g.blocks.to_le_bytes());
        buf.extend_from_slice(&g.channels.to_le_bytes());
        buf.extend_from_slice(&g.ways.to_le_bytes());
        buf.extend_from_slice(&nand.clock().now_ns().to_le_bytes());
        let s = nand.stats();
        for v in [s.page_reads, s.page_programs, s.block_erases, s.torn_programs] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for b in 0..g.blocks {
            buf.extend_from_slice(&nand.erase_count(BlockId(b)).to_le_bytes());
            buf.extend_from_slice(&nand.write_frontier(BlockId(b)).to_le_bytes());
        }
        for p in 0..g.total_pages() {
            let ppn = Ppn(p);
            match nand.page_state(ppn) {
                PageState::Free => buf.push(0),
                state => {
                    buf.push(if state == PageState::Torn { 2 } else { 1 });
                    buf.extend_from_slice(nand.raw_page(ppn).unwrap());
                }
            }
        }
        let loaded = NandArray::load_image(&mut buf.as_slice(), NandTiming::default()).unwrap();
        assert_eq!(loaded.geometry(), g);
        assert_eq!(loaded.stats(), s);
        for b in 0..g.blocks {
            assert_eq!(loaded.write_frontier(BlockId(b)), nand.write_frontier(BlockId(b)));
        }
        for p in 0..g.total_pages() {
            assert_eq!(loaded.page_state(Ppn(p)), nand.page_state(Ppn(p)), "page {p}");
        }
        // Re-saving upgrades in place: v2 and v4 differ in the version
        // word alone.
        let mut buf4 = Vec::new();
        loaded.save_image(&mut buf4).unwrap();
        assert_eq!(buf4[4..8], VERSION.to_le_bytes());
        assert_eq!(buf4[8..], buf[8..]);
    }

    #[test]
    fn truncated_and_corrupt_images_are_rejected() {
        let nand = build();
        let mut buf = Vec::new();
        nand.save_image(&mut buf).unwrap();
        assert!(NandArray::load_image(&mut &buf[..buf.len() / 2], NandTiming::default()).is_err());
        let mut junk = buf.clone();
        junk[0] = b'X';
        assert!(NandArray::load_image(&mut junk.as_slice(), NandTiming::default()).is_err());
    }
}
