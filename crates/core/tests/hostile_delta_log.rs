//! Hostile delta-log pages: recovery replays every page whose CRC holds,
//! so a mapping entry it replays must be range-checked before it indexes
//! the translation table — never a panic.
//!
//! Two crafted pages, each re-CRCed so it passes the torn-page check: a
//! delta whose LPN lies past the logical capacity, and one whose PPN lies
//! past the NAND. Recovery refuses both with `RecoveryCorrupt`. Then a
//! seeded sweep over the log pages of a saved image: bit flips and
//! truncations recover the state after some prefix of the log (the damaged
//! page ends the scan) or are refused, and flips re-CRCed into the delta
//! payload are refused or give a device whose mapping invariants hold.

use nand_sim::{NandArray, NandTiming, PageState, Ppn};
use share_core::{crc32c, BlockDevice, Ftl, FtlConfig, FtlError, Lpn, META_PAGE_HEADER};
use share_rng::{Rng, StdRng};

/// Bytes before the block table in a saved NAND image (`nand_sim::image`).
const IMAGE_HEADER: usize = 72;
/// Log pages the fixture writes, one per flush.
const LOG_PAGES: u32 = 6;

fn cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 8, NandTiming::zero())
}

/// The whole translation table, as recovery left it.
fn mapping(ftl: &Ftl) -> Vec<Option<Ppn>> {
    (0..ftl.config().logical_pages).map(|l| ftl.mapping_of(Lpn(l))).collect()
}

/// Byte offset of `ppn`'s contents in `nand`'s saved image: the header,
/// the block table, then a state byte per page followed by the contents of
/// each programmed one.
fn page_offset(nand: &NandArray, ppn: Ppn) -> usize {
    let g = nand.geometry();
    let before: usize = (0..ppn.0)
        .map(|p| 1 + if nand.page_state(Ppn(p)) == PageState::Free { 0 } else { g.page_size })
        .sum();
    IMAGE_HEADER + 8 * g.blocks as usize + before + 1
}

/// A device whose log holds `LOG_PAGES` pages after its birth checkpoint,
/// each a flush of a few overwrites and first writes. Returns the saved
/// image, the NAND it came from, and the mapping after each prefix of the
/// log (`states[k]`: the first `k` pages replayed).
fn fixture() -> (Vec<u8>, NandArray, Vec<Vec<Option<Ppn>>>) {
    let cfg = cfg();
    let mut ftl = Ftl::new(cfg.clone());
    let mut states = vec![mapping(&ftl)];
    for round in 0..u64::from(LOG_PAGES) {
        for i in 0..5 {
            let data = vec![(round * 5 + i + 1) as u8; cfg.geometry.page_size];
            ftl.write(Lpn((round * 3 + i * 7) % 40), &data).unwrap();
        }
        ftl.flush().unwrap();
        states.push(mapping(&ftl));
    }
    assert_eq!(ftl.stats().gc_events, 0, "the fixture must not collect");
    let nand = ftl.into_nand();
    let mut image = Vec::new();
    nand.save_image(&mut image).unwrap();
    (image, nand, states)
}

/// Open `image` with log page `slot` replaced by `page`.
fn open_with(image: &[u8], nand: &NandArray, slot: u32, page: &[u8]) -> Result<Ftl, FtlError> {
    let cfg = cfg();
    let at = page_offset(nand, cfg.log_ring().ppn(slot));
    let mut image = image.to_vec();
    image[at..at + page.len()].copy_from_slice(page);
    let nand = NandArray::load_image(&mut image.as_slice(), cfg.timing).unwrap();
    Ftl::open(cfg, nand)
}

/// Log page `slot` as the image holds it.
fn log_page(image: &[u8], nand: &NandArray, slot: u32) -> Vec<u8> {
    let cfg = cfg();
    let ppn = cfg.log_ring().ppn(slot);
    assert_eq!(nand.page_state(ppn), PageState::Programmed, "slot {slot}");
    let at = page_offset(nand, ppn);
    image[at..at + cfg.geometry.page_size].to_vec()
}

/// Recompute a delta-log page's payload CRC (header bytes 16..20), as a
/// device that wrote the damage itself would have.
fn re_crc(page: &mut [u8]) {
    let crc = crc32c(&page[META_PAGE_HEADER..]);
    page[16..20].copy_from_slice(&crc.to_le_bytes());
}

/// Deltas are `(lpn: u64, old: u32, new: u32)` from the header on.
fn delta_at(i: usize) -> usize {
    META_PAGE_HEADER + 16 * i
}

#[test]
fn a_crc_valid_delta_past_the_logical_capacity_is_refused() {
    let (image, nand, _) = fixture();
    let mut page = log_page(&image, &nand, 0);
    let lpn = cfg().logical_pages + 5;
    page[delta_at(1)..delta_at(1) + 8].copy_from_slice(&lpn.to_le_bytes());
    re_crc(&mut page);
    let r = open_with(&image, &nand, 0, &page);
    assert!(matches!(r, Err(FtlError::RecoveryCorrupt(_))), "{:?}", r.err());
}

#[test]
fn a_crc_valid_delta_past_the_nand_is_refused() {
    let (image, nand, _) = fixture();
    let mut page = log_page(&image, &nand, 2);
    page[delta_at(0) + 12..delta_at(0) + 16].copy_from_slice(&16_777_200u32.to_le_bytes());
    re_crc(&mut page);
    let r = open_with(&image, &nand, 2, &page);
    assert!(matches!(r, Err(FtlError::RecoveryCorrupt(_))), "{:?}", r.err());
}

#[test]
fn damaged_log_pages_recover_a_prefix_or_are_refused() {
    let (image, nand, states) = fixture();
    let page_size = cfg().geometry.page_size;
    let untouched = open_with(&image, &nand, 0, &log_page(&image, &nand, 0)).unwrap();
    assert_eq!(mapping(&untouched), states[LOG_PAGES as usize], "the undamaged log replays whole");
    let mut rng = StdRng::seed_from_u64(0xD106);
    let (mut prefixes, mut refused, mut re_crced) = (0, 0, 0);
    for case in 0..600u32 {
        let slot = rng.random_range(0..LOG_PAGES);
        let original = log_page(&image, &nand, slot);
        let mut page = original.clone();
        let count = u32::from_le_bytes(page[12..16].try_into().unwrap()) as usize;
        match case % 3 {
            0 => {
                for _ in 0..rng.random_range(1..8u32) {
                    let bit = rng.random_range(0..page_size * 8);
                    page[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => page[rng.random_range(0..page_size)..].fill(0xFF),
            _ => {
                // Inside the deltas, then re-CRCed: the torn-page check
                // passes and only the range checks stand between the
                // values and the table.
                for _ in 0..rng.random_range(1..4u32) {
                    let bit = rng.random_range(delta_at(0) * 8..delta_at(count) * 8);
                    page[bit / 8] ^= 1 << (bit % 8);
                }
                re_crc(&mut page);
            }
        }
        let r = open_with(&image, &nand, slot, &page);
        if case % 3 == 2 {
            re_crced += 1;
            if let Ok(ftl) = r {
                ftl.check_invariants();
            }
            continue;
        }
        match r {
            Ok(ftl) => {
                let state = mapping(&ftl);
                let k = states.iter().position(|s| *s == state);
                assert!(k.is_some(), "case {case}: slot {slot} recovered a state no prefix held");
                if page != original {
                    prefixes += usize::from(k <= Some(slot as usize));
                }
            }
            Err(_) => refused += 1,
        }
    }
    assert!(prefixes > 300, "{prefixes} prefixes, {refused} refused, {re_crced} re-CRCed");
}
