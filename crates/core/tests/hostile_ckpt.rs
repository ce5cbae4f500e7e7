//! Hostile checkpoint pages: recovery reads whatever the slots hold, so a
//! damaged or foreign checkpoint must be *passed over*, never decoded on
//! trust and never a panic.
//!
//! Four shapes of outside input. A header whose snapshot length no slot
//! could hold (the commit page's position is computed from it). A
//! checkpoint that passes every CRC but whose snapshot section freezes a
//! page outside the data pool. Seeded bit
//! flips and truncations of the header, table and commit pages of a
//! striped slot's newest checkpoint: recovery gives that checkpoint while
//! the damage misses every byte it checks, and otherwise an older one or
//! none. And an image written under one-block slots opened under the
//! four-lane layout.

use nand_sim::{NandArray, NandTiming, PageState, Ppn};
use share_core::{
    checkpoint_pages, crc32c, BlockDevice, Ftl, FtlConfig, FtlError, Lpn, SnapshotTable,
};
use share_rng::{Rng, StdRng};

const CKPT_MAGIC: u32 = 0x434B_5054;
const COMMIT_MAGIC: u32 = 0x4343_4D54;
/// Header bytes recovery checks: magic, sequence, count, table CRC,
/// generation, snapshot length and CRC.
const HEADER_CHECKED: usize = 44;
/// Commit-page bytes recovery checks: magic and the four echoed fields.
const COMMIT_CHECKED: usize = 28;
/// Bytes before the block table in a saved NAND image (`nand_sim::image`).
const IMAGE_HEADER: usize = 72;

fn cfg(channels: u32) -> FtlConfig {
    FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 8, NandTiming::zero())
        .with_parallelism(channels, 1)
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

/// Open `image` with the bytes at `at` replaced by `bytes`; `None` when the
/// device refuses it with an error.
fn open_with(cfg: &FtlConfig, image: &[u8], at: usize, bytes: &[u8]) -> Option<Vec<Option<Ppn>>> {
    let mut image = image.to_vec();
    image[at..at + bytes.len()].copy_from_slice(bytes);
    let nand = NandArray::load_image(&mut image.as_slice(), cfg.timing).unwrap();
    Ftl::open(cfg.clone(), nand).ok().map(|ftl| mapping(&ftl))
}

/// Before any arithmetic with the header's `snap_bytes`: a header with the
/// magic and a matching count but a snapshot section of 2^32 pages used to
/// overflow the commit page's position (a panic in debug builds, a silent
/// wrap in release).
#[test]
fn a_snapshot_length_no_slot_holds_is_rejected() {
    let cfg = cfg(1);
    let mut nand = NandArray::with_timing(cfg.geometry, cfg.timing, nand_sim::SimClock::new());
    let mut header = vec![0u8; cfg.geometry.page_size];
    header[0..4].copy_from_slice(&CKPT_MAGIC.to_le_bytes());
    header[12..20].copy_from_slice(&cfg.logical_pages.to_le_bytes());
    header[32..40].copy_from_slice(&(u32::MAX as u64 * 4096).to_le_bytes());
    nand.program(Ppn(0), &header).unwrap();
    let ftl = Ftl::open(cfg, nand).expect("no valid checkpoint: an empty device");
    assert!(mapping(&ftl).iter().all(Option::is_none));
}

/// A NAND holding one checkpoint, CRC-valid throughout, of an empty device
/// with one snapshot that freezes the page at `frozen`.
fn checkpoint_freezing(cfg: &FtlConfig, frozen: Ppn) -> NandArray {
    let ps = cfg.geometry.page_size;
    let mut snaps = SnapshotTable::new();
    snaps.create("s", Lpn(0), 1, vec![(0, frozen)]).unwrap();
    let snap = snaps.encode();
    let table = vec![0xFF; cfg.logical_pages as usize * 4]; // every LPN unmapped
    let (table_crc, snap_crc) = (crc32c(&table), crc32c(&snap));
    let mut header = vec![0u8; ps];
    header[0..4].copy_from_slice(&CKPT_MAGIC.to_le_bytes());
    header[12..20].copy_from_slice(&cfg.logical_pages.to_le_bytes());
    header[20..24].copy_from_slice(&table_crc.to_le_bytes());
    header[32..40].copy_from_slice(&(snap.len() as u64).to_le_bytes());
    header[40..44].copy_from_slice(&snap_crc.to_le_bytes());
    let mut commit = vec![0u8; ps];
    commit[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    commit[12..16].copy_from_slice(&table_crc.to_le_bytes());
    commit[24..28].copy_from_slice(&snap_crc.to_le_bytes());
    let padded = |bytes: &[u8]| {
        let mut v = bytes.to_vec();
        v.resize(bytes.len().div_ceil(ps) * ps, 0);
        v
    };
    let image = [header, padded(&table), padded(&snap), commit].concat();
    let mut nand = NandArray::with_timing(cfg.geometry, cfg.timing, nand_sim::SimClock::new());
    let slot = cfg.ckpt_slot(0);
    for (i, page) in image.chunks(ps).enumerate() {
        nand.program(slot.ppn(i as u32), page).unwrap();
    }
    nand
}

/// A snapshot section passes its CRC, so the pages it names are checked
/// like the table's: one past the NAND, one in the meta area and an
/// unmapped one are refused. The first used to open, and the first GC
/// victim pick then indexed the reference counts out of bounds.
#[test]
fn a_snapshot_page_outside_the_data_pool_is_rejected() {
    let cfg = cfg(1);
    let ppb = cfg.geometry.pages_per_block;
    let in_pool = Ppn(cfg.data_start().0 * ppb);
    let ftl = Ftl::open(cfg.clone(), checkpoint_freezing(&cfg, in_pool)).unwrap();
    assert_eq!(ftl.snapshot_list().unwrap().len(), 1, "a data-pool page opens");
    let past_nand = Ppn(cfg.geometry.blocks * ppb + 5);
    for frozen in [past_nand, Ppn(ppb), Ppn::INVALID] {
        match Ftl::open(cfg.clone(), checkpoint_freezing(&cfg, frozen)) {
            Err(FtlError::RecoveryCorrupt(_)) => {}
            Err(e) => panic!("{frozen:?}: {e}"),
            Ok(_) => panic!("{frozen:?}: a snapshot page outside the data pool opened"),
        }
    }
}

/// A four-channel device takes eleven checkpoints, so slot 0's newest sits
/// at its second position behind an older one. Every bit of the checked
/// header and commit bytes, 48 seeded bits of each table page, and eight
/// seeded truncations of every page of that checkpoint (its tail reads
/// erased, as a torn program leaves it) — each recovers to the state of one
/// of the eleven checkpoints or to an empty device, and to the newest only
/// when no checked byte changed.
#[test]
fn damaged_striped_checkpoint_pages_recover_an_older_state_or_none() {
    let cfg = cfg(4);
    assert_eq!(cfg.stripe_width(), 4);
    let mut ftl = Ftl::new(cfg.clone());
    let page = |b: u8| vec![b; cfg.geometry.page_size];
    let mut states = vec![mapping(&ftl)];
    for round in 1..=10u64 {
        for i in 0..16 {
            ftl.write(Lpn(round * 37 + i * 101), &page(round as u8)).unwrap();
        }
        ftl.flush().unwrap();
        ftl.checkpoint().unwrap();
        states.push(mapping(&ftl));
    }
    assert_eq!(ftl.stats().checkpoints, 11);
    let newest = states.last().unwrap().clone();
    let nand = ftl.into_nand();
    let mut image = Vec::new();
    nand.save_image(&mut image).unwrap();

    // Generation 10: slot 0, after generation 8's pages.
    let pages = checkpoint_pages(&cfg);
    let slot = cfg.ckpt_slot(0);
    let targets: Vec<(Ppn, usize)> = (0..pages)
        .map(|i| {
            let checked = match i {
                0 => HEADER_CHECKED,
                i if i == pages - 1 => COMMIT_CHECKED,
                _ => cfg.geometry.page_size,
            };
            (slot.ppn(pages + i), checked)
        })
        .collect();
    let untouched = open_with(&cfg, &image, 0, &[]);
    assert_eq!(untouched.as_ref(), Some(&newest), "the undamaged image recovers the newest");

    let mut rng = StdRng::seed_from_u64(0xC4EC);
    let mut cases = 0;
    let mut older = 0;
    for &(ppn, checked) in &targets {
        assert_eq!(nand.page_state(ppn), PageState::Programmed);
        let at = page_offset(&nand, ppn);
        let original = image[at..at + cfg.geometry.page_size].to_vec();
        let mut damaged: Vec<Vec<u8>> = Vec::new();
        let bits: Vec<usize> = match checked {
            HEADER_CHECKED | COMMIT_CHECKED => (0..checked * 8).collect(),
            _ => (0..48).map(|_| rng.random_range(0..checked * 8)).collect(),
        };
        for bit in bits {
            let mut p = original.clone();
            p[bit / 8] ^= 1 << (bit % 8);
            damaged.push(p);
        }
        for _ in 0..8 {
            let cut = rng.random_range(0..cfg.geometry.page_size);
            let mut p = original.clone();
            p[cut..].fill(0xFF);
            damaged.push(p);
        }
        for p in damaged {
            let got = open_with(&cfg, &image, at, &p);
            let state = got.unwrap_or_else(|| vec![None; newest.len()]);
            assert!(
                states.contains(&state) || state.iter().all(Option::is_none),
                "ppn {ppn:?}: damage recovered a state no checkpoint held"
            );
            if p[..checked] != original[..checked] {
                assert_ne!(state, newest, "ppn {ppn:?}: a damaged checkpoint was trusted");
                older += 1;
            }
            cases += 1;
        }
    }
    assert!(cases > 900 && older > 800, "{cases} cases, {older} with checked bytes damaged");
}

/// An image written with one-block slots (one channel) opened as a
/// four-channel device, whose slots are four lanes wide and whose ring and
/// data pool sit further on: recovery errs or loads; it never panics.
#[test]
fn a_one_channel_image_opened_as_four_channels_errs_or_loads() {
    let one = cfg(1);
    let mut ftl = Ftl::new(one.clone());
    for round in 0..6u64 {
        for i in 0..40 {
            ftl.write(Lpn(i * 13 + round), &vec![round as u8 + 1; one.geometry.page_size]).unwrap();
        }
        ftl.flush().unwrap();
        if round % 2 == 1 {
            ftl.checkpoint().unwrap();
        }
    }
    let mut image = Vec::new();
    ftl.into_nand().save_image(&mut image).unwrap();
    // The channel count sits after magic, version, page size, pages per
    // block and block count.
    image[24..28].copy_from_slice(&4u32.to_le_bytes());
    let nand = NandArray::load_image(&mut image.as_slice(), one.timing).unwrap();
    // As `sharectl` rebuilds a config from an image: the image's geometry.
    let mut four = one.clone();
    four.geometry = nand.geometry();
    assert_eq!(four.stripe_width(), 4);
    assert!(four.data_start() > one.data_start());
    if let Ok(mut dev) = Ftl::open(four, nand) {
        dev.check_invariants();
        let mut buf = vec![0u8; one.geometry.page_size];
        for l in 0..dev.config().logical_pages {
            dev.read(Lpn(l), &mut buf).unwrap();
        }
    }
}
