//! On-disk block formats of the append-only store.
//!
//! Everything is written in 4 KiB file blocks (the device page), mirroring
//! couchstore's block-aligned layout: document blocks, immutable B+tree
//! node blocks, and a header block appended at each commit. Every block
//! carries a CRC so recovery can scan backward for the last intact header.

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

/// Encode a document into consecutive block images.
pub fn encode_doc(key: u64, rev: u64, payload: &[u8], block_size: usize) -> Vec<Vec<u8>> {
    let per = doc_payload_per_block(block_size);
    let nblocks = doc_blocks(payload.len(), block_size) as usize;
    let mut out = Vec::with_capacity(nblocks);
    for i in 0..nblocks {
        let chunk = &payload[i * per..payload.len().min((i + 1) * per)];
        let mut b = vec![0u8; block_size];
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
        out.push(b);
    }
    out
}

/// A decoded document block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocBlock {
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
    pub chunk: Vec<u8>,
}

/// Decode and verify a document block.
pub fn decode_doc_block(b: &[u8]) -> Option<DocBlock> {
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
        chunk: b[BLOCK_HEADER..BLOCK_HEADER + chunk_len].to_vec(),
    })
}

/// Max entries a node block can hold at `block_size`.
pub fn node_capacity(block_size: usize) -> usize {
    (block_size - BLOCK_HEADER) / ENTRY_BYTES
}

/// Encode a tree node block.
pub fn encode_node(level: u8, entries: &[NodeEntry], block_size: usize) -> Vec<u8> {
    assert!(entries.len() <= node_capacity(block_size), "node over capacity");
    let mut b = vec![0u8; block_size];
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
    b
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

/// Encode a header block.
pub fn encode_header(h: &Header, block_size: usize) -> Vec<u8> {
    let mut b = vec![0u8; block_size];
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
    b
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

    #[test]
    fn doc_round_trip_single_block() {
        let payload = vec![0xAB; 1000];
        let blocks = encode_doc(7, 3, &payload, BS);
        assert_eq!(blocks.len(), 1);
        let d = decode_doc_block(&blocks[0]).unwrap();
        assert!(d.is_head);
        assert_eq!((d.key, d.rev, d.total_len, d.nblocks), (7, 3, 1000, 1));
        assert_eq!(d.chunk, payload);
    }

    #[test]
    fn doc_round_trip_multi_block() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let blocks = encode_doc(9, 1, &payload, BS);
        assert_eq!(blocks.len() as u64, doc_blocks(payload.len(), BS));
        let mut rebuilt = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            let d = decode_doc_block(b).unwrap();
            assert_eq!(d.is_head, i == 0);
            assert_eq!(d.total_len as usize, payload.len());
            rebuilt.extend_from_slice(&d.chunk);
        }
        assert_eq!(rebuilt, payload);
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
        let b = encode_node(2, &entries, BS);
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
        let b = encode_header(&h, BS);
        assert_eq!(decode_header(&b).unwrap(), h);
    }

    #[test]
    fn corrupt_blocks_are_rejected() {
        let h = Header { seq: 1, ..Default::default() };
        let mut b = encode_header(&h, BS);
        b[20] ^= 0xFF;
        assert!(decode_header(&b).is_none());
        let mut n = encode_node(0, &[], BS);
        n[9] ^= 1;
        assert!(decode_node(&n).is_none());
        let mut d = encode_doc(1, 1, &[1, 2, 3], BS).remove(0);
        d[100] ^= 1;
        assert!(decode_doc_block(&d).is_none());
    }

    #[test]
    fn block_types_do_not_cross_decode() {
        let h = encode_header(&Header::default(), BS);
        assert!(decode_node(&h).is_none());
        assert!(decode_doc_block(&h).is_none());
        let n = encode_node(1, &[], BS);
        assert!(decode_header(&n).is_none());
    }

    #[test]
    fn capacity_is_positive_and_bounded() {
        let cap = node_capacity(BS);
        assert!(cap >= 100);
        let entries = vec![NodeEntry { key: 0, ptr: 0, nblocks: 0, len: 0, aux: 0 }; cap];
        let b = encode_node(0, &entries, BS);
        assert_eq!(decode_node(&b).unwrap().1.len(), cap);
    }
}
