//! Model test of the page-as-image [`NodePage`]: every mutation shifts
//! bytes inside the on-media image, so after every operation the sealed
//! image must equal, byte for byte, what the retired decode-to-`Vec` page
//! would have encoded from the same entries. That encoder and its decoder
//! live on here as the reference (the pattern of the bytewise `crc32c`
//! reference in `share_core`): no on-media change means the old decoder
//! still reads every new image and the new page still reads an image the
//! old encoder wrote.

use mini_innodb::{Key, NodePage, PageDecodeError, ENTRY_OVERHEAD, NO_PAGE, PAGE_HEADER};
use share_core::crc32c;
use share_rng::{sweep, Rng, StdRng};
use std::collections::BTreeMap;

type Rows = BTreeMap<Key, Vec<u8>>;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Model {
    page_no: u64,
    lsn: u64,
    level: u16,
    next: u64,
    rows: Rows,
}

impl Model {
    fn bytes_used(&self) -> usize {
        PAGE_HEADER + self.rows.values().map(|v| ENTRY_OVERHEAD + v.len()).sum::<usize>()
    }

    /// The retired `NodePage::encode`, over the model's entries.
    fn encode(&self, page_bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; page_bytes];
        buf[4..12].copy_from_slice(&self.page_no.to_le_bytes());
        buf[12..20].copy_from_slice(&self.lsn.to_le_bytes());
        buf[20..22].copy_from_slice(&self.level.to_le_bytes());
        buf[22..24].copy_from_slice(&(self.rows.len() as u16).to_le_bytes());
        buf[24..32].copy_from_slice(&self.next.to_le_bytes());
        let mut off = PAGE_HEADER;
        for (k, v) in &self.rows {
            buf[off..off + 24].copy_from_slice(&k.0);
            buf[off + 24..off + 26].copy_from_slice(&(v.len() as u16).to_le_bytes());
            buf[off + 26..off + 26 + v.len()].copy_from_slice(v);
            off += ENTRY_OVERHEAD + v.len();
        }
        let crc = crc32c(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// The retired `NodePage::decode` (checksum, then one `Vec` per entry).
    fn decode(buf: &[u8]) -> Option<Model> {
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let u16_at = |o: usize| u16::from_le_bytes(buf[o..o + 2].try_into().unwrap());
        if crc32c(&buf[4..]) != u32::from_le_bytes(buf[0..4].try_into().unwrap()) {
            return None;
        }
        let mut rows = BTreeMap::new();
        let mut off = PAGE_HEADER;
        for _ in 0..u16_at(22) {
            let vlen = u16_at(off + 24) as usize;
            let value = buf.get(off + 26..off + 26 + vlen)?.to_vec();
            rows.insert(Key(buf[off..off + 24].try_into().unwrap()), value);
            off += ENTRY_OVERHEAD + vlen;
        }
        let (page_no, lsn, level, next) = (u64_at(4), u64_at(12), u16_at(20), u64_at(24));
        Some(Model { page_no, lsn, level, next, rows })
    }
}

fn rows_of(page: &NodePage) -> Rows {
    page.iter().map(|(k, v)| (k, v.to_vec())).collect()
}

/// Everything that must hold after every operation.
fn check(page: &mut NodePage, model: &Model, page_bytes: usize, probe_vlen: usize) {
    let want = model.encode(page_bytes);
    assert_eq!(page.seal(), &want[..], "sealed image differs from the reference encoder");
    assert_eq!(page.bytes_used(), model.bytes_used());
    assert_eq!(page.len(), model.rows.len());
    assert_eq!(
        page.would_overflow(probe_vlen),
        model.bytes_used() + ENTRY_OVERHEAD + probe_vlen > page_bytes
    );
    assert_eq!(Model::decode(page.image()).as_ref(), Some(model), "the old decoder reads it");
    let mut back = NodePage::decode(page.image()).expect("own image decodes");
    assert_eq!(
        (back.page_no, back.lsn, back.level, back.next),
        (model.page_no, model.lsn, model.level, model.next)
    );
    assert_eq!(rows_of(&back), model.rows);
    assert_eq!(back.bytes_used(), page.bytes_used());
    assert_eq!(back.seal(), &want[..], "decode then seal is the identity");
}

fn run_case(rng: &mut StdRng, page_bytes: usize) {
    let level = rng.random_range(0..3u16);
    let mut model =
        Model { page_no: rng.random(), lsn: 0, level, next: NO_PAGE, rows: Rows::new() };
    let mut page = NodePage::new(model.page_no, level, page_bytes);
    // A run cut off by `drain_high`, waiting to be appended again.
    let mut held: Option<(Vec<u8>, Rows)> = None;
    let ids = page_bytes as u64 / 16;
    for _ in 0..rng.random_range(1..400usize) {
        match rng.random_range(0..11u32) {
            0..=4 => {
                let key = Key::node(rng.random_range(0..ids));
                let mut value = vec![0u8; rng.random_range(0..300usize)];
                rng.fill(value.as_mut_slice());
                // The tree's rule: never insert into a node that reports overflow.
                if !page.would_overflow(value.len()) {
                    assert_eq!(page.upsert(&key, &value), model.rows.insert(key, value).is_some());
                }
            }
            5..=6 => {
                let key = Key::node(rng.random_range(0..ids));
                assert_eq!(page.remove(&key), model.rows.remove(&key).is_some());
                assert_eq!(page.get(&key), None);
            }
            7 => {
                let pivot = Key::node(rng.random_range(0..ids));
                let (Ok(at) | Err(at)) = page.find(&pivot);
                let run = page.packed(at..page.len()).to_vec();
                page.drain_high(&pivot);
                let high = model.rows.split_off(&pivot);
                let high_bytes: usize = high.values().map(|v| ENTRY_OVERHEAD + v.len()).sum();
                assert_eq!(run.len(), high_bytes);
                held = Some((run, high));
            }
            8 => {
                if let Some((run, high)) = held.take() {
                    let above = model.rows.keys().next_back() < high.keys().next();
                    if !high.is_empty() && above && page.bytes_used() + run.len() <= page_bytes {
                        page.extend_high(&run);
                        model.rows.extend(high);
                    }
                }
            }
            9 => {
                model.next = rng.random();
                page.next = model.next;
            }
            _ => {
                model.lsn += rng.random_range(1..1_000u64);
                page.lsn = model.lsn;
            }
        }
        check(&mut page, &model, page_bytes, rng.random_range(0..page_bytes));
    }
    for (k, v) in &model.rows {
        assert_eq!(page.get(k), Some(v.as_slice()));
    }
}

#[test]
fn page_image_matches_the_reference_encoder_after_every_op() {
    for (_case, mut rng) in sweep("innodb/page_image_matches_reference", 16) {
        run_case(&mut rng, 4096);
        run_case(&mut rng, 16_384);
    }
}

/// The used prefix of a 4 KiB leaf image written by the parent commit's
/// `NodePage::encode` (page 0x01020304, lsn 0x0A0B0C0D0E0F, next 0x01020305,
/// five rows, one of them with an empty value); the rest of the page is zero.
const PARENT_IMAGE_PREFIX: &str = "\
bf0d226404030201000000000f0e0d0c0b0a000000000500050302010000000001000000000000000300000000000000\
000000000000000000000100000000000000070000000000000000000000000000002800000102030405060708090a0b\
0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526270200000000000000070000000200000000000000\
090000000700666f6c6c6f777302000000000000000700000002000000000000000b0000001100eeeeeeeeeeeeeeeeee\
eeeeeeeeeeeeeeee03000000000000000700000002000000000000000000000008000300000000000000";

#[test]
fn an_image_written_by_the_parent_commit_opens_and_reseals_to_itself() {
    let mut image: Vec<u8> = (0..PARENT_IMAGE_PREFIX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&PARENT_IMAGE_PREFIX[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(image.len(), 234);
    image.resize(4096, 0);

    let mut page = NodePage::decode(&image).expect("the parent's image decodes");
    assert_eq!(
        (page.page_no, page.lsn, page.level, page.next),
        (0x0102_0304, 0x0A0B_0C0D_0E0F, 0, 0x0102_0305)
    );
    let rows: Vec<(Key, Vec<u8>)> = page.iter().map(|(k, v)| (k, v.to_vec())).collect();
    let want = [
        (Key::node(3), Vec::new()),
        (Key::node(7), (0u8..40).collect()),
        (Key::link(7, 2, 9), b"follows".to_vec()),
        (Key::link(7, 2, 11), vec![0xEE; 17]),
        (Key::count(7, 2), 3u64.to_le_bytes().to_vec()),
    ];
    assert_eq!(rows, want);
    assert_eq!(page.bytes_used(), 234);
    assert_eq!(page.seal(), &image[..], "re-sealing an untouched page changes no byte");

    // And it is a live page: a change and its undo lands on the same bytes.
    page.upsert(&Key::node(5), &[1, 2, 3]);
    assert_ne!(page.seal(), &image[..]);
    page.remove(&Key::node(5));
    assert_eq!(page.seal(), &image[..]);
    assert_eq!(NodePage::decode(&image[..4095]).unwrap_err(), PageDecodeError::BadChecksum {
        page_no_field: 0x0102_0304
    });
}
