//! Hostile-input sweep over every checksummed page format an engine reads
//! back from the device: a block that comes back short or with one bit
//! flipped must be *rejected*, never decoded and never a panic.
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
use share_repro::innodb::{Key, NodePage};
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

#[test]
fn truncated_and_bit_flipped_images_are_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(0x4057_11E5);

    let mut node = NodePage::new(rng.random(), 0);
    node.lsn = rng.random();
    for id in 0..20 {
        let len = rng.random_range(1..120);
        node.upsert(Key::node(id), random_bytes(&mut rng, len));
    }
    sweep("innodb NodePage", &node.encode(PAGE), &mut rng, |b| NodePage::decode(b).is_ok());

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
