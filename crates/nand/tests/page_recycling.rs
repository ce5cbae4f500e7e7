//! Page-buffer recycling is invisible: an erase hands the block's page
//! memory to later programs, and nothing of the old contents may ever be
//! read back, land in an image, or show up in a page no program reached.

use nand_sim::{
    BlockId, FaultMode, NandArray, NandError, NandGeometry, NandTiming, PageState, Ppn, SimClock,
};

const PS: usize = 512;
const PPB: u32 = 4;
const BLOCKS: u32 = 4;

fn array() -> NandArray {
    NandArray::with_timing(NandGeometry::new(PS, PPB, BLOCKS), NandTiming::zero(), SimClock::new())
}

/// Position-dependent content, so a stale byte anywhere in a page shows.
fn pattern(salt: u8) -> Vec<u8> {
    (0..PS).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

fn read(a: &mut NandArray, ppn: u32) -> Vec<u8> {
    let mut buf = vec![0u8; PS];
    a.read(Ppn(ppn), &mut buf).unwrap();
    buf
}

fn fill_block(a: &mut NandArray, block: u32, salt: u8) {
    for i in 0..PPB {
        a.program(Ppn(block * PPB + i), &pattern(salt.wrapping_add(i as u8))).unwrap();
    }
}

#[test]
fn erased_pages_read_erased_and_a_reprogram_holds_only_the_new_data() {
    let mut a = array();
    fill_block(&mut a, 0, 1);
    a.erase(BlockId(0)).unwrap();
    for i in 0..PPB {
        assert_eq!(a.page_state(Ppn(i)), PageState::Free);
        assert_eq!(read(&mut a, i), vec![0xFF; PS]);
    }
    // These programs run on the erased block's buffers — also in another block.
    a.program(Ppn(0), &pattern(100)).unwrap();
    a.program(Ppn(PPB), &pattern(101)).unwrap();
    assert_eq!(read(&mut a, 0), pattern(100));
    assert_eq!(read(&mut a, PPB), pattern(101));
    assert_eq!(read(&mut a, 1), vec![0xFF; PS], "unprogrammed neighbour stays erased");
}

#[test]
fn torn_program_on_a_recycled_buffer_has_an_erased_tail() {
    let mut a = array();
    fill_block(&mut a, 0, 0);
    a.erase(BlockId(0)).unwrap();
    a.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
    assert_eq!(a.program(Ppn(0), &pattern(7)), Err(NandError::PowerLoss));
    a.power_cycle();
    assert_eq!(a.page_state(Ppn(0)), PageState::Torn);
    let got = read(&mut a, 0);
    assert_eq!(got[..PS / 2], pattern(7)[..PS / 2]);
    assert!(got[PS / 2..].iter().all(|&b| b == 0xFF), "old contents leaked into the torn tail");
}

#[test]
fn image_round_trips_byte_identically_after_erase_reprogram_cycles() {
    let mut a = array();
    for cycle in 0..4u8 {
        for block in 0..BLOCKS {
            fill_block(&mut a, block, cycle.wrapping_mul(16).wrapping_add(block as u8));
            a.erase(BlockId(block)).unwrap();
        }
    }
    // A full, a partial and an erased block, all on recycled buffers.
    fill_block(&mut a, 0, 200);
    a.program(Ppn(PPB), &pattern(210)).unwrap();
    a.program(Ppn(PPB + 1), &pattern(211)).unwrap();

    let mut image = Vec::new();
    a.save_image(&mut image).unwrap();
    let mut b = NandArray::load_image(&mut image.as_slice(), NandTiming::zero()).unwrap();
    let mut again = Vec::new();
    b.save_image(&mut again).unwrap();
    assert_eq!(image, again);
    for ppn in 0..BLOCKS * PPB {
        assert_eq!(a.page_state(Ppn(ppn)), b.page_state(Ppn(ppn)));
        assert_eq!(read(&mut a, ppn), read(&mut b, ppn), "ppn {ppn}");
    }
}

#[test]
fn a_batch_stopped_by_a_fault_leaves_later_pages_untouched() {
    let mut a = array();
    fill_block(&mut a, 0, 9);
    fill_block(&mut a, 1, 9);
    a.erase_batch(&[BlockId(0), BlockId(1)]).unwrap();

    let pages: Vec<Vec<u8>> = (0..PPB as u8).map(|i| pattern(50 + i)).collect();
    let batch: Vec<(Ppn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Ppn(i as u32), p.as_slice())).collect();
    a.fault_handle().arm_after_programs(2, FaultMode::DroppedWrite);
    assert_eq!(a.program_batch(batch.iter().copied()), Err(NandError::PowerLoss));
    a.power_cycle();

    assert_eq!(read(&mut a, 0), pages[0]);
    for ppn in 1..PPB {
        assert_eq!(a.page_state(Ppn(ppn)), PageState::Free);
        assert_eq!(read(&mut a, ppn), vec![0xFF; PS]);
    }
    // The pages the batch never reached program normally afterwards.
    a.program_batch(batch[1..].iter().copied()).unwrap();
    for (i, page) in pages.iter().enumerate() {
        assert_eq!(&read(&mut a, i as u32), page);
    }
}

/// A copyback destination shares its source's image: erasing either side
/// and programming new data over it leaves the other reading its bytes.
#[test]
fn a_copyback_destination_outlives_its_source_block() {
    let mut a = array();
    fill_block(&mut a, 0, 30);
    let pairs: Vec<(Ppn, Ppn)> = (0..PPB).map(|i| (Ppn(i), Ppn(PPB + i))).collect();
    a.copyback_batch(&pairs).unwrap();
    a.copyback_batch(&[(Ppn(1), Ppn(2 * PPB))]).unwrap();
    a.erase(BlockId(0)).unwrap();
    fill_block(&mut a, 0, 90);
    for i in 0..PPB {
        assert_eq!(read(&mut a, i), pattern(90 + i as u8), "ppn {i}: the source's new data");
        assert_eq!(read(&mut a, PPB + i), pattern(30 + i as u8), "ppn {}", PPB + i);
    }
    // The other way round: a destination erased and reprogrammed leaves
    // the page that still shares its image alone.
    a.erase(BlockId(1)).unwrap();
    fill_block(&mut a, 1, 150);
    assert_eq!(read(&mut a, 2 * PPB), pattern(31));
    for i in 0..PPB {
        assert_eq!(read(&mut a, PPB + i), pattern(150 + i as u8));
    }
}

/// Pages that share one image save as separate pages of the current
/// format and load back byte for byte; the loaded array shares nothing, so
/// an erase on it behaves as on the original.
#[test]
fn an_image_with_shared_pages_round_trips_byte_for_byte() {
    let mut a = array();
    fill_block(&mut a, 0, 60);
    a.copyback_batch(&[(Ppn(0), Ppn(PPB)), (Ppn(2), Ppn(PPB + 1)), (Ppn(0), Ppn(2 * PPB))])
        .unwrap();
    let mut image = Vec::new();
    a.save_image(&mut image).unwrap();
    let mut b = NandArray::load_image(&mut image.as_slice(), NandTiming::zero()).unwrap();
    let mut again = Vec::new();
    b.save_image(&mut again).unwrap();
    assert_eq!(image, again);
    assert_eq!(image[4..8], 4u32.to_le_bytes(), "written in the current version");
    for x in [&mut a, &mut b] {
        x.erase(BlockId(0)).unwrap();
        assert_eq!(read(x, PPB), pattern(60));
        assert_eq!(read(x, PPB + 1), pattern(62));
        assert_eq!(read(x, 2 * PPB), pattern(60));
    }
    for ppn in 0..BLOCKS * PPB {
        assert_eq!(a.page_state(Ppn(ppn)), b.page_state(Ppn(ppn)));
        assert_eq!(read(&mut a, ppn), read(&mut b, ppn), "ppn {ppn}");
    }
}
