//! On-disk block formats of the append-only store.
//!
//! Everything is written in 4 KiB file blocks (the device page), mirroring
//! couchstore's block-aligned layout: document blocks, immutable B+tree
//! node blocks, and a header block appended at each commit. Every block
//! carries a CRC so recovery can scan backward for the last intact header.

use crate::CouchError;
use share_core::crc32c;

/// Magic tags.
pub const DOC_MAGIC: u32 = 0x4344_4F43; // "CDOC"
pub const DOC_CONT_MAGIC: u32 = 0x4343_4E54; // "CCNT"
pub const NODE_MAGIC: u32 = 0x434E_4F44; // "CNOD"
pub const HDR_MAGIC: u32 = 0x4348_4452; // "CHDR"

/// Per-block header bytes (magic + crc + type-specific fields ≤ 40).
pub const BLOCK_HEADER: usize = 40;

/// Payload bytes a document block carries.
pub fn doc_payload_per_block(block_size: usize) -> usize {
    block_size - BLOCK_HEADER
}

/// Blocks a document of `len` payload bytes occupies.
pub fn doc_blocks(len: usize, block_size: usize) -> u64 {
    (len.max(1)).div_ceil(doc_payload_per_block(block_size)) as u64
}

/// A pointer to a document on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocPtr {
    /// First file block of the document.
    pub block: u64,
    /// Number of blocks.
    pub nblocks: u16,
    /// Payload length in bytes.
    pub len: u32,
}

/// One B+tree node entry: leaf entries point at documents, inner entries
/// at child nodes (`nblocks`/`len` then describe the subtree loosely).
///
/// Couchstore keeps two indexes over the same documents: by-id and by-seq.
/// `aux` carries the *other* coordinate: in the by-id tree it is the
/// document's sequence number, in the by-seq tree it is the document key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEntry {
    /// Separator key (document id or sequence number).
    pub key: u64,
    /// Child node block or document pointer.
    pub ptr: u64,
    /// Document block count (leaf) or 0 (inner).
    pub nblocks: u16,
    /// Document payload length (leaf) or 0 (inner).
    pub len: u32,
    /// Cross-index coordinate (seq in by-id leaves, id in by-seq leaves).
    pub aux: u64,
}

const ENTRY_BYTES: usize = 32;

/// Encode a document into `out` as consecutive block images, back to back:
/// `out` is left `doc_blocks(len) × block_size` long, whatever it held.
pub fn encode_doc(key: u64, rev: u64, payload: &[u8], block_size: usize, out: &mut Vec<u8>) {
    let per = doc_payload_per_block(block_size);
    let nblocks = doc_blocks(payload.len(), block_size) as usize;
    out.clear();
    out.resize(nblocks * block_size, 0);
    for (i, b) in out.chunks_exact_mut(block_size).enumerate() {
        let chunk = &payload[i * per..payload.len().min((i + 1) * per)];
        let magic = if i == 0 { DOC_MAGIC } else { DOC_CONT_MAGIC };
        b[0..4].copy_from_slice(&magic.to_le_bytes());
        b[8..16].copy_from_slice(&key.to_le_bytes());
        b[16..24].copy_from_slice(&rev.to_le_bytes());
        b[24..28].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        b[28..30].copy_from_slice(&(nblocks as u16).to_le_bytes());
        b[30..32].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
        b[BLOCK_HEADER..BLOCK_HEADER + chunk.len()].copy_from_slice(chunk);
        let crc = crc32c(&b[8..]);
        b[4..8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// A decoded document block, borrowing its chunk from the block image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocBlock<'a> {
    /// Whether this is the first block of the document.
    pub is_head: bool,
    /// Document key.
    pub key: u64,
    /// Document revision.
    pub rev: u64,
    /// Total payload length.
    pub total_len: u32,
    /// Total blocks of the document.
    pub nblocks: u16,
    /// This block's payload chunk.
    pub chunk: &'a [u8],
}

/// Decode and verify a document block.
pub fn decode_doc_block(b: &[u8]) -> Option<DocBlock<'_>> {
    if b.len() < BLOCK_HEADER {
        return None;
    }
    let magic = u32::from_le_bytes(b[0..4].try_into().ok()?);
    let is_head = match magic {
        DOC_MAGIC => true,
        DOC_CONT_MAGIC => false,
        _ => return None,
    };
    let crc = u32::from_le_bytes(b[4..8].try_into().ok()?);
    if crc32c(&b[8..]) != crc {
        return None;
    }
    let key = u64::from_le_bytes(b[8..16].try_into().ok()?);
    let rev = u64::from_le_bytes(b[16..24].try_into().ok()?);
    let total_len = u32::from_le_bytes(b[24..28].try_into().ok()?);
    let nblocks = u16::from_le_bytes(b[28..30].try_into().ok()?);
    let chunk_len = u16::from_le_bytes(b[30..32].try_into().ok()?) as usize;
    if BLOCK_HEADER + chunk_len > b.len() {
        return None;
    }
    Some(DocBlock {
        is_head,
        key,
        rev,
        total_len,
        nblocks,
        chunk: &b[BLOCK_HEADER..BLOCK_HEADER + chunk_len],
    })
}

/// Reassemble the document `ptr` names from `blocks`, the images of its
/// `ptr.nblocks` blocks back to back as read from the file, *inside* that
/// buffer: the returned document is `blocks` itself, cut to `ptr.len`.
///
/// Block `i` is verified where it lies (magic, checksum, chunk bound) before
/// its chunk moves down behind the chunks of the blocks before it; that
/// destination ends at or before `(i + 1) × per`, short of where block
/// `i + 1` starts, so nothing is overwritten unverified. A checksum says a
/// block is *a* document block, not that it is block `i` of *this* document
/// (a stale tail, a remap cut between two commands): block 0 must be a head
/// and the others continuations, all of one `(key, rev)`, each agreeing with
/// `ptr` on block count and length, and the chunks must add up to `ptr.len`.
pub fn decode_doc_payload(
    ptr: DocPtr,
    mut blocks: Vec<u8>,
    block_size: usize,
) -> Result<Vec<u8>, CouchError> {
    let corrupt = |i: usize, what: &str| {
        let block = ptr.block.wrapping_add(i as u64);
        CouchError::Corrupt(format!("doc block at {block}: {what}"))
    };
    let n = ptr.nblocks as usize;
    if n == 0 || blocks.len() != n * block_size {
        return Err(corrupt(0, &format!("{n} blocks read as {} bytes", blocks.len())));
    }
    let mut identity = None;
    let mut filled = 0;
    for i in 0..n {
        let at = i * block_size;
        let d = decode_doc_block(&blocks[at..at + block_size])
            .ok_or_else(|| corrupt(i, "bad magic, checksum or chunk length"))?;
        if d.is_head != (i == 0) {
            return Err(corrupt(i, "head and continuation blocks out of place"));
        }
        if *identity.get_or_insert((d.key, d.rev)) != (d.key, d.rev) {
            return Err(corrupt(i, "belongs to another document or revision"));
        }
        if d.nblocks != ptr.nblocks || d.total_len != ptr.len {
            return Err(corrupt(i, "disagrees with the index on the document's size"));
        }
        let len = d.chunk.len();
        blocks.copy_within(at + BLOCK_HEADER..at + BLOCK_HEADER + len, filled);
        filled += len;
    }
    if filled != ptr.len as usize {
        return Err(corrupt(0, &format!("chunks hold {filled} bytes of {}", ptr.len)));
    }
    blocks.truncate(filled);
    Ok(blocks)
}

/// Max entries a node block can hold at `block_size`.
pub fn node_capacity(block_size: usize) -> usize {
    (block_size - BLOCK_HEADER) / ENTRY_BYTES
}

/// Encode a tree node block into `b`, one block long, whatever it held.
pub fn encode_node(level: u8, entries: &[NodeEntry], b: &mut [u8]) {
    assert!(entries.len() <= node_capacity(b.len()), "node over capacity");
    b.fill(0);
    b[0..4].copy_from_slice(&NODE_MAGIC.to_le_bytes());
    b[8] = level;
    b[10..12].copy_from_slice(&(entries.len() as u16).to_le_bytes());
    let mut off = BLOCK_HEADER;
    for e in entries {
        b[off..off + 8].copy_from_slice(&e.key.to_le_bytes());
        b[off + 8..off + 16].copy_from_slice(&e.ptr.to_le_bytes());
        b[off + 16..off + 18].copy_from_slice(&e.nblocks.to_le_bytes());
        b[off + 18..off + 22].copy_from_slice(&e.len.to_le_bytes());
        b[off + 22..off + 30].copy_from_slice(&e.aux.to_le_bytes());
        off += ENTRY_BYTES;
    }
    let crc = crc32c(&b[8..]);
    b[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decode a tree node block.
pub fn decode_node(b: &[u8]) -> Option<(u8, Vec<NodeEntry>)> {
    if b.len() < BLOCK_HEADER {
        return None;
    }
    if u32::from_le_bytes(b[0..4].try_into().ok()?) != NODE_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(b[4..8].try_into().ok()?);
    if crc32c(&b[8..]) != crc {
        return None;
    }
    let level = b[8];
    let count = u16::from_le_bytes(b[10..12].try_into().ok()?) as usize;
    if BLOCK_HEADER + count * ENTRY_BYTES > b.len() {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    let mut off = BLOCK_HEADER;
    for _ in 0..count {
        entries.push(NodeEntry {
            key: u64::from_le_bytes(b[off..off + 8].try_into().ok()?),
            ptr: u64::from_le_bytes(b[off + 8..off + 16].try_into().ok()?),
            nblocks: u16::from_le_bytes(b[off + 16..off + 18].try_into().ok()?),
            len: u32::from_le_bytes(b[off + 18..off + 22].try_into().ok()?),
            aux: u64::from_le_bytes(b[off + 22..off + 30].try_into().ok()?),
        });
        off += ENTRY_BYTES;
    }
    Some((level, entries))
}

/// The commit header appended at each commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Commit sequence number.
    pub seq: u64,
    /// By-id root node block (u64::MAX = empty tree).
    pub root: u64,
    /// By-id root level (0 = leaf root).
    pub root_level: u8,
    /// By-seq root node block (u64::MAX = empty tree).
    pub seq_root: u64,
    /// By-seq root level.
    pub seq_root_level: u8,
    /// Next document sequence number.
    pub next_seq: u64,
    /// Live documents.
    pub doc_count: u64,
    /// File length in blocks at commit time (header block included).
    pub tail: u64,
    /// Stale (dead) blocks accumulated.
    pub stale_blocks: u64,
}

/// Bytes of a header block that carry fields (magic, crc and the nine
/// [`Header`] fields); the rest of the block is zero padding.
const HEADER_FIELDS: usize = 66;

/// Encode a header block into `b`, one block long, whatever it held.
pub fn encode_header(h: &Header, b: &mut [u8]) {
    b.fill(0);
    b[0..4].copy_from_slice(&HDR_MAGIC.to_le_bytes());
    b[8..16].copy_from_slice(&h.seq.to_le_bytes());
    b[16..24].copy_from_slice(&h.root.to_le_bytes());
    b[24] = h.root_level;
    b[25..33].copy_from_slice(&h.doc_count.to_le_bytes());
    b[33..41].copy_from_slice(&h.tail.to_le_bytes());
    b[41..49].copy_from_slice(&h.stale_blocks.to_le_bytes());
    b[49..57].copy_from_slice(&h.seq_root.to_le_bytes());
    b[57] = h.seq_root_level;
    b[58..66].copy_from_slice(&h.next_seq.to_le_bytes());
    let crc = crc32c(&b[8..]);
    b[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decode and verify a header block.
pub fn decode_header(b: &[u8]) -> Option<Header> {
    if b.len() < HEADER_FIELDS {
        return None;
    }
    if u32::from_le_bytes(b[0..4].try_into().ok()?) != HDR_MAGIC {
        return None;
    }
    let crc = u32::from_le_bytes(b[4..8].try_into().ok()?);
    if crc32c(&b[8..]) != crc {
        return None;
    }
    Some(Header {
        seq: u64::from_le_bytes(b[8..16].try_into().ok()?),
        root: u64::from_le_bytes(b[16..24].try_into().ok()?),
        root_level: b[24],
        doc_count: u64::from_le_bytes(b[25..33].try_into().ok()?),
        tail: u64::from_le_bytes(b[33..41].try_into().ok()?),
        stale_blocks: u64::from_le_bytes(b[41..49].try_into().ok()?),
        seq_root: u64::from_le_bytes(b[49..57].try_into().ok()?),
        seq_root_level: b[57],
        next_seq: u64::from_le_bytes(b[58..66].try_into().ok()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BS: usize = 4096;

    /// A block-sized scratch with stale bytes in it, as the store's is.
    fn dirty() -> Vec<u8> {
        vec![0xA5; BS]
    }

    fn doc_image(key: u64, rev: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = dirty();
        encode_doc(key, rev, payload, BS, &mut out);
        out
    }

    fn node_image(level: u8, entries: &[NodeEntry]) -> Vec<u8> {
        let mut b = dirty();
        encode_node(level, entries, &mut b);
        b
    }

    fn header_image(h: &Header) -> Vec<u8> {
        let mut b = dirty();
        encode_header(h, &mut b);
        b
    }

    #[test]
    fn doc_round_trip_single_block() {
        let payload = vec![0xAB; 1000];
        let blocks = doc_image(7, 3, &payload);
        assert_eq!(blocks.len(), BS);
        let d = decode_doc_block(&blocks).unwrap();
        assert!(d.is_head);
        assert_eq!((d.key, d.rev, d.total_len, d.nblocks), (7, 3, 1000, 1));
        assert_eq!(d.chunk, payload);
    }

    #[test]
    fn doc_round_trip_multi_block() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let blocks = doc_image(9, 1, &payload);
        assert_eq!((blocks.len() / BS) as u64, doc_blocks(payload.len(), BS));
        let mut rebuilt = Vec::new();
        for (i, b) in blocks.chunks_exact(BS).enumerate() {
            let d = decode_doc_block(b).unwrap();
            assert_eq!(d.is_head, i == 0);
            assert_eq!(d.total_len as usize, payload.len());
            rebuilt.extend_from_slice(d.chunk);
        }
        assert_eq!(rebuilt, payload);
        let ptr = DocPtr { block: 40, nblocks: 3, len: 10_000 };
        assert_eq!(decode_doc_payload(ptr, blocks, BS).unwrap(), payload);
    }

    #[test]
    fn doc_block_math() {
        let per = doc_payload_per_block(BS);
        assert_eq!(doc_blocks(1, BS), 1);
        assert_eq!(doc_blocks(per, BS), 1);
        assert_eq!(doc_blocks(per + 1, BS), 2);
        assert_eq!(doc_blocks(0, BS), 1); // empty docs still take a block
    }

    #[test]
    fn node_round_trip() {
        let entries: Vec<NodeEntry> = (0..50)
            .map(|i| NodeEntry { key: i * 10, ptr: 1000 + i, nblocks: 1, len: 4056, aux: i })
            .collect();
        let b = node_image(2, &entries);
        let (level, got) = decode_node(&b).unwrap();
        assert_eq!(level, 2);
        assert_eq!(got, entries);
    }

    #[test]
    fn header_round_trip() {
        let h = Header {
            seq: 5,
            root: 77,
            root_level: 2,
            seq_root: 81,
            seq_root_level: 1,
            next_seq: 500,
            doc_count: 123,
            tail: 200,
            stale_blocks: 9,
        };
        let b = header_image(&h);
        assert_eq!(decode_header(&b).unwrap(), h);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let h = Header { seq: 1, ..Default::default() };
        let mut b = header_image(&h);
        b[20] ^= 0xFF;
        assert!(decode_header(&b).is_none());
        let mut n = node_image(0, &[]);
        n[9] ^= 1;
        assert!(decode_node(&n).is_none());
        let mut d = doc_image(1, 1, &[1, 2, 3]);
        d[100] ^= 1;
        assert!(decode_doc_block(&d).is_none());
    }

    #[test]
    fn block_types_do_not_cross_decode() {
        let h = header_image(&Header::default());
        assert!(decode_node(&h).is_none());
        assert!(decode_doc_block(&h).is_none());
        let n = node_image(1, &[]);
        assert!(decode_header(&n).is_none());
    }

    #[test]
    fn capacity_is_positive_and_bounded() {
        let cap = node_capacity(BS);
        assert!(cap >= 100);
        let entries = vec![NodeEntry { key: 0, ptr: 0, nblocks: 0, len: 0, aux: 0 }; cap];
        let b = node_image(0, &entries);
        assert_eq!(decode_node(&b).unwrap().1.len(), cap);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// The on-media format did not move when the encoders stopped allocating:
    /// one block of each type as the allocate-and-return encoders wrote it
    /// (recorded from the commit before they went), equal byte for byte to
    /// what the buffer forms leave in a scratch full of stale bytes. Each
    /// fixture is the block's non-zero prefix; the head block's chunk, a full
    /// one, is the payload itself and its checksum is in the recorded header.
    #[test]
    fn encoded_blocks_equal_the_recorded_images() {
        let expect = |what: &str, block: &[u8], prefix: &str, rest: &[u8]| {
            let prefix = unhex(prefix);
            assert_eq!(block.len(), BS, "{what}");
            assert_eq!(block[..prefix.len()], prefix[..], "{what}: recorded prefix");
            assert_eq!(block[prefix.len()..], *rest, "{what}: after the prefix");
        };
        let per = doc_payload_per_block(BS);
        let payload: Vec<u8> = (0..per + 7).map(|i| (i * 7 + 3) as u8).collect();
        let doc = doc_image(0x0123_4567_89AB_CDEF, 0x1122_3344_5566_7788, &payload);
        assert_eq!(doc.len(), 2 * BS);
        expect(
            "doc head",
            &doc[..BS],
            "434f44431c2b8833efcdab89674523018877665544332211df0f00000200d80f0000000000000000",
            &payload[..per],
        );
        expect(
            "doc continuation",
            &doc[BS..],
            "544e434303461d69efcdab89674523018877665544332211df0f0000020007000000000000000000\
             ebf2f900070e15",
            &[0; BS - 47],
        );
        let entries: Vec<NodeEntry> = (0..3u64)
            .map(|i| NodeEntry {
                key: 0x1000 + i * 0x11,
                ptr: 0xA0B0_C0D0_0000_0000 + i,
                nblocks: 4 + i as u16,
                len: 16_000 + i as u32,
                aux: 0xFFEE_DDCC_BBAA_0000 + i,
            })
            .collect();
        expect(
            "node",
            &node_image(2, &entries),
            "444f4e43b74505280200030000000000000000000000000000000000000000000000000000000000\
             001000000000000000000000d0c0b0a00400803e00000000aabbccddeeff0000\
             111000000000000001000000d0c0b0a00500813e00000100aabbccddeeff0000\
             221000000000000002000000d0c0b0a00600823e00000200aabbccddeeff0000",
            &[0; BS - 136],
        );
        let header = Header {
            seq: 0x0101_0101_0101_0101,
            root: 0x0202_0202_0202_0202,
            root_level: 3,
            seq_root: 0x0404_0404_0404_0404,
            seq_root_level: 5,
            next_seq: 0x0606_0606_0606_0606,
            doc_count: 0x0707_0707_0707_0707,
            tail: 0x0808_0808_0808_0808,
            stale_blocks: 0x0909_0909_0909_0909,
        };
        expect(
            "header",
            &header_image(&header),
            "5244484328a44a17010101010101010102020202020202020307070707070707070808080808080808\
             09090909090909090404040404040404050606060606060606",
            &[0; BS - 66],
        );
    }
}
