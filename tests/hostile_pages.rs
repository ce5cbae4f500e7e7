//! Hostile-input sweep over every checksummed page format an engine reads
//! back from the device: a block that comes back short or with one bit
//! flipped must be *rejected*, never decoded and never a panic.
//!
//! For the mini-innodb page, whose image is what lookups search, the sweep
//! is followed by checksum-*valid* hostile images; so is the mini-couch
//! document, which is reassembled inside the buffer its blocks were read into.
//!
//! Five formats: the mini-innodb `NodePage`, the mini-sqlite `RecordPage`
//! and the mini-couch document, node and header blocks. For each, one image
//! with seeded content is cut at every length below its own and flipped at
//! every bit of its first 128 bytes (the fixed headers and the first
//! entries) plus 1,500 seeded positions anywhere in the image.

use share_repro::couch::{
    decode_doc_block, decode_doc_payload, decode_header, decode_node, doc_payload_per_block,
    encode_doc, encode_header, encode_node, CouchError, DocPtr, Header, NodeEntry,
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
    // The zero tail is checked a word at a time: a stray byte must be
    // found at its first byte, at the page's last, and at every residue
    // mod 16 in between — the check's head, its body and its remainder.
    let (last, len) = record(image, 19);
    let tail = last + len;
    let stride = 16 * ((PAGE - 2 - tail) / 256) + 1;
    assert!(stride > 1, "the sample page leaves a tail of at least 256 bytes");
    let spread = (0..16).map(|r| tail + 1 + r * stride);
    for (i, at) in [tail, PAGE - 1].into_iter().chain(spread).enumerate() {
        assert!(at < PAGE);
        reject(&format!("a byte {} after the last entry", at - tail), &|img| {
            img[at] = 1 << (i % 8)
        });
    }
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
    // The same damage at every tail length mod 64: a vectorised zero-tail
    // check has a remainder only when the length is not a multiple of its
    // step, and the stray byte must be found there too.
    let value = node.get(&Key::node(19)).unwrap().to_vec();
    for extra in 1..64 {
        assert!(node.upsert(&Key::node(19), &[&value[..], &[0xA5; 64][..extra]].concat()));
        checksum_valid_hostile_node_pages(node.seal());
    }

    let mut records = RecordPage::new(rng.random());
    for key in 0..20 {
        let len = rng.random_range(1..120);
        records.put(key, random_bytes(&mut rng, len));
    }
    sweep("sqlite RecordPage", &records.encode(PAGE), &mut rng, |b| {
        matches!(RecordPage::decode(b), Ok(Some(_)))
    });

    let payload = random_bytes(&mut rng, 3_000);
    let mut doc = Vec::new();
    encode_doc(rng.random(), rng.random(), &payload, PAGE, &mut doc);
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
    let mut block = vec![0u8; PAGE];
    encode_node(1, &entries, &mut block);
    sweep("couch node block", &block, &mut rng, |b| decode_node(b).is_some());

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
    encode_header(&header, &mut block);
    sweep("couch header block", &block, &mut rng, |b| decode_header(b).is_some());
}

/// A checksum says a block is *a* document block, not that it is block `i`
/// of the document the index points at. Every image below is made of blocks
/// the encoder wrote, checksums intact, put where they do not belong — what
/// a stale tail or a multi-command remap cut between commands leaves in a
/// file. Reassembly must answer `Corrupt`, never splice and never panic.
#[test]
fn checksum_valid_blocks_of_the_wrong_document_are_not_spliced() {
    let mut rng = StdRng::seed_from_u64(0xD0C_B10C);
    let per = doc_payload_per_block(PAGE);
    let len = 3 * per + 500;
    let ptr = DocPtr { block: 64, nblocks: 4, len: len as u32 };
    let image = |key: u64, rev: u64, rng: &mut StdRng| {
        let payload = random_bytes(rng, len);
        let mut blocks = Vec::new();
        encode_doc(key, rev, &payload, PAGE, &mut blocks);
        (payload, blocks)
    };
    let (payload, good) = image(7, 9, &mut rng);
    let (_, other_doc) = image(8, 9, &mut rng);
    let (_, older_rev) = image(7, 5, &mut rng);
    assert_eq!(decode_doc_payload(ptr, good.clone(), PAGE).as_ref(), Ok(&payload));

    let block = |i: usize| i * PAGE..(i + 1) * PAGE;
    let with_block = |at: usize, from: &[u8], i: usize| {
        let mut blocks = good.clone();
        blocks[block(at)].copy_from_slice(&from[block(i)]);
        blocks
    };
    let short = |len: usize, nblocks: u16| {
        let mut blocks = Vec::new();
        encode_doc(7, 9, &payload[..len], PAGE, &mut blocks);
        assert_eq!(blocks.len(), nblocks as usize * PAGE);
        blocks
    };
    // What only a buggy or hostile writer leaves: the chunk length changed
    // and the block sealed again.
    let resealed_with_chunk_len = |at: usize, chunk_len: usize| {
        let mut blocks = good.clone();
        let b = &mut blocks[block(at)];
        b[30..32].copy_from_slice(&(chunk_len as u16).to_le_bytes());
        let crc = share_repro::core::crc32c(&b[8..]);
        b[4..8].copy_from_slice(&crc.to_le_bytes());
        blocks
    };
    let cases: Vec<(&str, DocPtr, Vec<u8>)> = vec![
        ("a continuation of another document", ptr, with_block(2, &other_doc, 2)),
        ("a continuation of an older revision", ptr, with_block(3, &older_rev, 3)),
        ("a head of an older revision under its own tail", ptr, with_block(0, &older_rev, 0)),
        ("a head in position 2", ptr, with_block(2, &good, 0)),
        ("a continuation in position 0", ptr, with_block(0, &good, 1)),
        ("a buffer one block short", ptr, good[..3 * PAGE].to_vec()),
        ("a buffer one byte short", ptr, good[..4 * PAGE - 1].to_vec()),
        ("a buffer one block long", ptr, [&good[..], &good[block(3)]].concat()),
        ("an empty buffer", ptr, Vec::new()),
        ("a pointer to no blocks", DocPtr { nblocks: 0, ..ptr }, Vec::new()),
        (
            "a document of fewer blocks than the index says",
            ptr,
            [short(2 * per, 2), short(2 * per, 2)].concat(),
        ),
        ("a document shorter than the index says", ptr, short(len - 1, 4)),
        ("a document longer than the index says", DocPtr { len: ptr.len - 1, ..ptr }, good.clone()),
        ("a re-sealed block whose chunk lost a byte", ptr, resealed_with_chunk_len(1, per - 1)),
        ("a re-sealed block whose chunk is too long", ptr, resealed_with_chunk_len(3, per + 1)),
    ];
    for (what, ptr, blocks) in cases {
        match decode_doc_payload(ptr, blocks, PAGE) {
            Err(CouchError::Corrupt(_)) => {}
            other => panic!("couch document with {what}: {:?}", other.map(|d| d.len())),
        }
    }
}
