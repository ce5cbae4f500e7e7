//! Allocation budget of mini-couch's read, write and compaction paths.
//!
//! A document is never copied between the medium and the caller (DESIGN.md
//! "Buffer ownership"): the buffer its blocks are read into is reassembled
//! in place and *is* the document `get` returns; `get_many` lends each
//! queued read a buffer its previous result gave back, so a warm round's
//! documents land in buffers the store already holds; a save encodes the
//! block images into the store's scratch and lends them to the file system,
//! which lends them on to the device — a queued write command borrows its
//! pages for the `submit` call, so nothing above the medium copies them, and
//! a document's request vectors sit on the stack; tree nodes are lent from
//! the cache; a SHARE compaction reads every document head through one
//! reused buffer. This test holds a warmed `CouchMode::Share` store of
//! 4-block documents on an aged, queued device to it, in requested bytes
//! and heap requests:
//!
//! * `get`: one document-sized buffer per document — the decode that copied
//!   chunks out and the node clones asked for 3.2 of them;
//! * `get_many`: no document-sized buffer at all, and one request per call —
//!   the completion vector the device's `drain` returns. Each read's fresh
//!   buffer and request vectors made it one document per document and 40
//!   requests a call of 16;
//! * `save_many`, its share of the commit included: no document-sized
//!   allocation, and one request per call — the completion vector of the
//!   commit's barrier — beside the file's extent list when the append grows
//!   it. The per-document request vectors and pin lists, the pending-remap
//!   map's nodes and the commit's pair vectors made it 58 requests a call;
//! * a SHARE `compact()` of N documents: the 256-head read buffer and the
//!   index it rebuilds — every head held at once and copied was `2 × N`
//!   blocks.
//!
//! The file holds one test on purpose: the counters are process-wide, and
//! the harness runs the tests of one binary on parallel threads.

use mini_couch::{doc_blocks, CouchConfig, CouchMode, CouchStore};
use share_core::{Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BS: usize = 4096;
const DOCS: u64 = 256;
/// The benchmark's document: 16,000 bytes in four blocks.
const DOC_LEN: usize = 16_000;
const BATCH: usize = 16;
/// One document's blocks: the buffer a read returns.
const DOC_IMAGE: u64 = 4 * BS as u64;

// Slack per document in bytes — above `DOC_IMAGE` on `get`, above nothing
// on `get_many` and the write path — a third over what the paths measure:
// 192, 64 and 65. Until `get_many` lent its reads the buffers of its last
// result it took an image per document, 16,674 bytes (`get` 16,672, the
// write path 589); before the buffer became the document the
// reads took 35,372 and 35,638 and the write path 20,451, and while the
// queued command still copied its pages the write path took 17,367. What is
// left is request vectors — pages, LPNs, completions — and, on the write
// path, the file's extent list.
const GET_SLACK: u64 = 256;
const GET_MANY_SLACK: u64 = 88;
const SAVE_SLACK: u64 = 88;
/// Heap requests of a warm `get_many` or `save_many` call: the completion
/// vector its `drain` returns, which the `BlockDevice` trait hands over.
const PER_CALL: u64 = 1;
/// Requests of the file's extent list growing as the rewrites append (one
/// in this window).
const FILE_GROWTH: u64 = 1;
/// Per compacted document (measured 682; 4,938 with every head held at once
/// and copied): its leaf entry in both rebuilt indexes and their cache
/// copies, its share pairs from the engine down to the delta log, the trims
/// of the file it leaves.
const COMPACT_PER_DOC: u64 = 896;

/// Requested heap bytes and heap requests of `f`.
fn requested<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOC_BYTES.load(Relaxed), ALLOCS.load(Relaxed));
    let out = f();
    (ALLOC_BYTES.load(Relaxed) - before.0, ALLOCS.load(Relaxed) - before.1, out)
}

/// Document `key`'s first version: the key, then a version byte the rounds
/// below overwrite.
fn payload(key: u64) -> Vec<u8> {
    let mut v = vec![(key * 31) as u8; DOC_LEN];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v
}

/// One round of the benchmark's write side: every document (`docs[key]`)
/// rewritten at its size in groups of `BATCH`, each group one `save_many`
/// and one commit.
fn rewrite_all(s: &mut CouchStore<Ftl>, docs: &[Vec<u8>]) {
    let keyed: Vec<(u64, &[u8])> = docs.iter().zip(0..).map(|(d, key)| (key, &d[..])).collect();
    for group in keyed.chunks(BATCH) {
        s.save_many(group).unwrap();
    }
}

#[test]
fn reads_writes_and_compaction_stay_inside_their_allocation_budget() {
    assert_eq!(doc_blocks(DOC_LEN, BS), 4);
    let fcfg = FtlConfig::for_capacity_with(24 << 20, 0.15, BS, 64, nand_sim::NandTiming::zero())
        .with_parallelism(4, 1);
    let fs = Vfs::format(Ftl::new(fcfg), VfsOptions::default()).unwrap();
    let cfg = CouchConfig { mode: CouchMode::Share, batch_size: BATCH, ..Default::default() };
    let mut s = CouchStore::create(fs, "budget.couch", cfg).unwrap();
    let mut docs: Vec<Vec<u8>> = (0..DOCS).map(payload).collect();
    rewrite_all(&mut s, &docs);
    s.commit().unwrap();
    // Age: every physical page programmed at least once (NAND page buffers
    // then cycle through the array's spare list), compactions and device GC
    // cycling, every scratch grown to its working size.
    for round in 1..=24 {
        docs.iter_mut().for_each(|d| d[8] = round);
        rewrite_all(&mut s, &docs);
        if s.stale_ratio() >= 0.5 {
            assert!(s.compact().unwrap().zero_copy);
        }
    }
    assert!(s.device_stats().gc_events > 0, "aging must reach device garbage collection");
    let stats0 = s.stats();
    assert!(stats0.compactions >= 4 && stats0.share_fallbacks == DOCS, "{stats0:?}");
    let keys: Vec<u64> = (0..DOCS).map(|i| (i * 37) % DOCS).collect();

    // ---- serial reads ---------------------------------------------------------
    let (bytes, _, ()) = requested(|| {
        for &k in &keys {
            let d = s.get(k).unwrap().expect("loaded");
            assert_eq!((d.len(), &d[..9]), (DOC_LEN, &docs[k as usize][..9]));
        }
    });
    let per_doc = bytes / DOCS;
    assert!(
        per_doc <= DOC_IMAGE + GET_SLACK,
        "get requested {per_doc} bytes per document, budget {DOC_IMAGE} + {GET_SLACK}"
    );

    // ---- queued reads ---------------------------------------------------------
    // Two calls fill the spare stack: the first's documents go onto it, the
    // second's reads take them and leave theirs.
    let calls = DOCS / BATCH as u64;
    for group in keys.chunks(BATCH).take(2) {
        s.get_many(group).unwrap();
    }
    let (bytes, n, ()) = requested(|| {
        for group in keys.chunks(BATCH) {
            for (k, d) in group.iter().zip(s.get_many(group).unwrap()) {
                let d = d.as_ref().expect("loaded");
                assert_eq!((d.len(), &d[..9]), (DOC_LEN, &docs[*k as usize][..9]));
            }
        }
    });
    let per_doc = bytes / DOCS;
    assert!(
        per_doc <= GET_MANY_SLACK,
        "get_many requested {per_doc} bytes per document, budget {GET_MANY_SLACK}"
    );
    assert!(n <= calls * PER_CALL, "{calls} get_many calls made {n} heap requests");

    // ---- queued writes, a commit per batch -------------------------------------
    docs.iter_mut().for_each(|d| d[8] = 0xFF);
    let keyed: Vec<(u64, &[u8])> = docs.iter().zip(0..).map(|(d, key)| (key, &d[..])).collect();
    let (bytes, n, ()) = requested(|| {
        for group in keyed.chunks(BATCH) {
            s.save_many(group).unwrap();
        }
    });
    let st = s.stats();
    assert_eq!(st.share_remaps - stats0.share_remaps, DOCS, "every save a SHARE remap");
    assert_eq!(st.commits - stats0.commits, calls);
    assert_eq!(st.compactions, stats0.compactions);
    let per_doc = bytes / DOCS;
    assert!(
        per_doc <= SAVE_SLACK,
        "save_many requested {per_doc} bytes per document, budget {SAVE_SLACK}"
    );
    assert!(
        n <= calls * PER_CALL + FILE_GROWTH,
        "{calls} save_many calls made {n} heap requests, budget {calls} + {FILE_GROWTH}"
    );

    // ---- SHARE compaction -------------------------------------------------------
    let (bytes, _, report) = requested(|| s.compact().unwrap());
    assert!(report.zero_copy);
    assert_eq!((report.docs_moved, report.doc_blocks_moved), (DOCS, 4 * DOCS));
    let budget = 256 * BS as u64 + DOCS * COMPACT_PER_DOC;
    assert!(
        bytes <= budget,
        "compacting {DOCS} documents requested {bytes} bytes, budget {budget}: \
         {} per document over the head buffer",
        bytes.saturating_sub(256 * BS as u64) / DOCS
    );
    for &k in &keys {
        assert_eq!(s.get(k).unwrap().as_ref(), Some(&docs[k as usize]), "doc {k} after compaction");
    }
}
