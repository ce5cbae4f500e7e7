//! Hostile-input sweep over every checksummed page format an engine reads
//! back from the device: a block that comes back short or with one bit
//! flipped must be *rejected*, never decoded and never a panic.
//!
//! For the mini-innodb page, whose image is what lookups search, the sweep
//! is followed by checksum-*valid* hostile images.
//!
//! Five formats: the mini-innodb `NodePage`, the mini-sqlite `RecordPage`
//! and the mini-couch document, node and header blocks. For each, one image
//! with seeded content is cut at every length below its own and flipped at
//! every bit of its first 128 bytes (the fixed headers and the first
//! entries) plus 1,500 seeded positions anywhere in the image.

use share_repro::couch::{
    decode_doc_block, decode_header, decode_node, encode_doc, encode_header, encode_node, Header,
    NodeEntry,
};
use share_repro::innodb::{Key, NodePage, PageDecodeError, ENTRY_OVERHEAD, PAGE_HEADER};
use share_repro::sqlite::RecordPage;
use share_rng::{Rng, StdRng};

const PAGE: usize = 4096;

/// Run the sweep over `image`; `accepts` says whether the format's decoder
/// took the bytes for a valid page.
fn sweep(format: &str, image: &[u8], rng: &mut StdRng, accepts: impl Fn(&[u8]) -> bool) {
    assert!(accepts(image), "{format}: the intact image must decode");
    for len in 0..image.len() {
        assert!(!accepts(&image[..len]), "{format}: accepted a {len}-byte truncation");
    }
    let mut flipped = image.to_vec();
    let header_bits = 0..128 * 8;
    let seeded_bits = (0..1_500).map(|_| rng.random_range(0..image.len() * 8));
    for bit in header_bits.chain(seeded_bits) {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(!accepts(&flipped), "{format}: accepted a flip of bit {bit}");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill(&mut v);
    v
}

/// Damage the checksum cannot see: the image is mutated and then re-sealed,
/// as a buggy or hostile writer would leave it. The page is its image, so
/// each of these would otherwise go straight into lookups — an entry count
/// that runs off the page, keys a binary search cannot be run over, bytes
/// in the tail that in-place mutation relies on being zero.
fn checksum_valid_hostile_node_pages(image: &[u8]) {
    let reject = |what: &str, mutate: &dyn Fn(&mut [u8])| {
        let mut img = image.to_vec();
        mutate(&mut img);
        let crc = share_repro::core::crc32c(&img[4..]);
        img[0..4].copy_from_slice(&crc.to_le_bytes());
        match NodePage::decode(&img) {
            Err(PageDecodeError::Malformed(_)) => {}
            other => panic!("innodb NodePage: {what}: {:?}", other.map(|p| p.len())),
        }
    };
    let record = |img: &[u8], i: usize| {
        // Start and length of record `i`: `key:24 | vlen:2 | value`.
        let mut off = PAGE_HEADER;
        for _ in 0..i {
            off += ENTRY_OVERHEAD + u16::from_le_bytes([img[off + 24], img[off + 25]]) as usize;
        }
        (off, ENTRY_OVERHEAD + u16::from_le_bytes([img[off + 24], img[off + 25]]) as usize)
    };
    let count_at = 22;
    let fits = ((PAGE - PAGE_HEADER) / ENTRY_OVERHEAD) as u16;
    reject("count of entries that cannot fit", &|img| {
        img[count_at..count_at + 2].copy_from_slice(&(fits + 1).to_le_bytes())
    });
    reject("count past the last entry", &|img| {
        img[count_at..count_at + 2].copy_from_slice(&fits.to_le_bytes())
    });
    reject("keys out of order", &|img| {
        let ((a, a_len), (b, b_len)) = (record(img, 3), record(img, 4));
        let swapped = [&img[b..b + b_len], &img[a..a + a_len]].concat();
        img[a..a + a_len + b_len].copy_from_slice(&swapped);
    });
    reject("a key twice", &|img| {
        let ((a, _), (b, _)) = (record(img, 3), record(img, 4));
        img.copy_within(a..a + 24, b);
    });
    reject("a byte after the last entry", &|img| {
        let (last, len) = record(img, 19);
        img[last + len] = 1;
    });
    reject("a byte at the end of the page", &|img| img[PAGE - 1] = 0x80);
}

#[test]
fn truncated_and_bit_flipped_images_are_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(0x4057_11E5);

    let mut node = NodePage::new(rng.random(), 0, PAGE);
    node.lsn = rng.random();
    for id in 0..20 {
        let len = rng.random_range(1..120);
        node.upsert(&Key::node(id), &random_bytes(&mut rng, len));
    }
    sweep("innodb NodePage", node.seal(), &mut rng, |b| NodePage::decode(b).is_ok());
    checksum_valid_hostile_node_pages(node.seal());

    let mut records = RecordPage::new(rng.random());
    for key in 0..20 {
        let len = rng.random_range(1..120);
        records.put(key, random_bytes(&mut rng, len));
    }
    sweep("sqlite RecordPage", &records.encode(PAGE), &mut rng, |b| {
        matches!(RecordPage::decode(b), Ok(Some(_)))
    });

    let payload = random_bytes(&mut rng, 3_000);
    let doc = encode_doc(rng.random(), rng.random(), &payload, PAGE).remove(0);
    sweep("couch doc block", &doc, &mut rng, |b| decode_doc_block(b).is_some());

    let entries: Vec<NodeEntry> = (0..40)
        .map(|key| NodeEntry {
            key,
            ptr: rng.random(),
            nblocks: rng.random(),
            len: rng.random(),
            aux: rng.random(),
        })
        .collect();
    sweep("couch node block", &encode_node(1, &entries, PAGE), &mut rng, |b| {
        decode_node(b).is_some()
    });

    let header = Header {
        seq: rng.random(),
        root: rng.random(),
        root_level: 2,
        seq_root: rng.random(),
        seq_root_level: 1,
        next_seq: rng.random(),
        doc_count: rng.random(),
        tail: rng.random(),
        stale_blocks: rng.random(),
    };
    sweep("couch header block", &encode_header(&header, PAGE), &mut rng, |b| {
        decode_header(b).is_some()
    });
}
