//! Allocation budget of the engine's fetch and flush paths.
//!
//! A pool frame is the page's on-media image (DESIGN.md "Buffer
//! ownership"): a fetch reads the device pages straight into the buffer of
//! the frame just evicted and rebuilds the offset directory in place, and a
//! flush seals the image where it sits and lends it to the file system.
//! The request vectors of both paths — the engine's, the file system's and
//! the device's — are kept by their owners and refilled. This test holds a
//! warmed `FlushMode::Share` engine, whose 64-page pool is a fraction of
//! its tree, to it:
//!
//! * reads: a fetch requests nothing — the page decoded into a `Vec` per
//!   entry asked for 22, and the request vectors built per call for 3;
//! * read-ahead: `prefetch_keys` rounds and a scan whose leaves are not
//!   resident read their batches with no request either;
//! * writes: nothing per flushed page or per batch above the device — the
//!   encoder asked for one page image each, the batch's vectors for 34;
//! * checkpoints: the same for the oldest pages a checkpoint flushes off
//!   the flush list — walking the list allocates nothing;
//! * link lists: `get_link_list` refills the rows of the engine's link-row
//!   buffer in place, so once the buffer has held the longest list and the
//!   largest payload of each slot, a list read from resident leaves requests
//!   nothing — the owned rows asked for about one allocation per row.
//!
//! The file holds one test on purpose: the counter is process-wide, and the
//! harness runs the tests of one binary on parallel threads.

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig, Key};
use share_core::{BlockDevice, Ftl, FtlConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

const ROWS: u64 = 6_000;
/// Rows after the walk's, read twice each to fill the young sublist.
const HOT: u64 = 2_000;
const GETS: u64 = 5_000;
const UPSERTS: u64 = 2_000;
const CHECKPOINTS: u64 = 200;
/// Link lists of 4 to 40 rows, and the `get_link_list` calls made on them.
const LISTS: u64 = 24;
const LIST_READS: u64 = 3_000;
/// Keys of one `prefetch_keys` round, and the rounds measured.
const PREFETCH_KEYS: usize = 16;
const PREFETCH_ROUNDS: u64 = 300;
/// What one SHARE flush batch requests, whatever its page count (it was 34).
/// Nothing above the `BlockDevice` boundary. Below it, on this young device
/// whose NAND array has not been written through once (its slot free list,
/// `crates/core/tests/alloc_budget.rs`, is still short), a page buffer for
/// each page the batch programs besides its images when no freed slot is
/// left — the four journal pages of its two fsyncs, the delta-log pages of
/// its SHARE and its flush — and now and then the redo log device's first
/// write of a log page: 2.9 a batch in the writes below, 2.0 in the
/// checkpoints.
const PER_FLUSH_BATCH: u64 = 4;
/// Below the `BlockDevice` boundary a flushed page costs this young device
/// at most the NAND page buffer its image is programmed into. Above it,
/// nothing.
const PER_FLUSHED_PAGE: u64 = 1;
/// A hash table or a scratch vector growing once in a phase.
const STRAY: u64 = 16;

/// Rows of link list `id1`: 4 to 40.
fn list_len(id1: u64) -> u64 {
    4 + id1 * 7 % 37
}

/// Payload of link (`id1`, `id2`): 8 to 120 bytes of one value.
fn link_payload(id1: u64, id2: u64) -> (usize, u8) {
    (8 + ((id1 * 31 + id2 * 17) % 113) as usize, (id1 + id2) as u8)
}

/// Pages the engine read from the tablespace: the data device serves no
/// other reads once the engine is open.
fn fetched(db: &InnoDb<Ftl>) -> u64 {
    db.data_device_stats().host_reads
}

#[test]
fn fetch_and_flush_stay_inside_their_allocation_budget() {
    let fcfg = FtlConfig::for_capacity_with(32 << 20, 0.3, 4096, 32, nand_sim::NandTiming::zero());
    let dev = Ftl::new(fcfg);
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig {
        mode: FlushMode::Share,
        pool_pages: 64,
        max_pages: 4096,
        ckpt_redo_bytes: 1 << 20,
        ..Default::default()
    };
    let mut db = InnoDb::create(dev, log, cfg).unwrap();
    for id in 0..ROWS + HOT {
        db.upsert_kv(Key::node(id), vec![(id % 251) as u8; 96]).unwrap();
        db.commit().unwrap();
    }
    db.checkpoint().unwrap();
    assert!(db.page_count() > 4 * 64, "the tree must not fit the 64-page pool");
    // A fetched page enters the pool's old sublist, and only a second
    // lookup makes it young. Read the hot rows twice each: their leaves
    // fill the young sublist beside the inner pages, so no leaf the walk
    // reaches stays resident there.
    for id in ROWS..ROWS + HOT {
        for _ in 0..2 {
            db.get(&Key::node(id)).unwrap();
        }
    }
    // The walk: consecutive ids are ~40 leaves apart, and it comes back to
    // within a leaf of an id only after dozens of other leaves — far more
    // than the old sublist's 24 frames keep, so every lookup fetches its
    // leaf.
    let mut id = 0;
    let mut step = move || {
        id = (id + 1_237) % ROWS;
        id
    };
    // Warm: fill the pool, so that every fetch from here on reuses a frame.
    for _ in 0..500 {
        db.get(&Key::node(step())).unwrap();
    }

    // ---- reads: every get misses at least once -----------------------------
    let (allocs0, fetched0) = (ALLOCS.load(Relaxed), fetched(&db));
    for _ in 0..GETS {
        let (id, pages0) = (step(), fetched(&db));
        let got = db.get(&Key::node(id)).unwrap();
        assert_eq!(got, Some(vec![(id % 251) as u8; 96]));
        assert!(fetched(&db) > pages0, "get of node {id} was served from the pool");
    }
    let (allocs, pages) = (ALLOCS.load(Relaxed) - allocs0, fetched(&db) - fetched0);
    // One owned value per `get`, plus the one the assertion compares with.
    let allocs = allocs - 2 * GETS;
    println!("{GETS} gets: {pages} pages fetched, {allocs} allocations");
    assert!(allocs <= STRAY, "{GETS} gets fetched {pages} pages with {allocs} allocations");

    // ---- read-ahead: prefetch rounds and scans over non-resident leaves ----
    // Warm: the engine's request vectors reach the size of a round's batch.
    let mut keys = Vec::with_capacity(PREFETCH_KEYS);
    let mut round = |db: &mut InnoDb<Ftl>, keys: &mut Vec<Key>| {
        keys.clear();
        keys.extend((0..PREFETCH_KEYS).map(|_| Key::node(step())));
        db.prefetch_keys(keys).unwrap();
    };
    for _ in 0..8 {
        round(&mut db, &mut keys);
    }
    db.count_entries().unwrap();
    let (allocs0, stats0) = (ALLOCS.load(Relaxed), db.stats());
    for _ in 0..PREFETCH_ROUNDS {
        round(&mut db, &mut keys);
    }
    let prefetched = db.stats().pages_read_batched - stats0.pages_read_batched;
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    println!("{PREFETCH_ROUNDS} prefetch rounds: {prefetched} pages, {allocs} allocations");
    assert!(prefetched >= PREFETCH_ROUNDS, "{PREFETCH_ROUNDS} rounds read {prefetched} pages");
    assert!(
        allocs <= STRAY,
        "{PREFETCH_ROUNDS} prefetch rounds read {prefetched} pages with {allocs} allocations"
    );
    let (allocs0, stats0) = (ALLOCS.load(Relaxed), db.stats());
    let rows = db.count_entries().unwrap();
    let scanned = db.stats().pages_read_batched - stats0.pages_read_batched;
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    println!("a scan of {rows} rows: {scanned} pages read ahead, {allocs} allocations");
    assert_eq!(rows, ROWS + HOT);
    assert!(scanned > db.page_count() / 2, "the scan read ahead {scanned} pages");
    assert!(allocs <= STRAY, "a scan read ahead {scanned} pages with {allocs} allocations");

    // ---- writes: committed upserts through eviction flushes ----------------
    let (allocs0, fetched0, stats0) = (ALLOCS.load(Relaxed), fetched(&db), db.stats());
    for i in 0..UPSERTS {
        db.upsert_kv(Key::node(step()), vec![i as u8; 96]).unwrap();
        db.commit().unwrap();
    }
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let pages = fetched(&db) - fetched0;
    let (batches, flushed) = {
        let s = db.stats();
        (s.flush_batches - stats0.flush_batches, s.pages_flushed - stats0.pages_flushed)
    };
    assert!(flushed >= UPSERTS / 2 && batches > 0, "{flushed} pages flushed in {batches} batches");
    // One value per upsert, made by the caller.
    let allocs = allocs - UPSERTS;
    println!(
        "{UPSERTS} upserts: {pages} pages fetched, {flushed} flushed in {batches} batches, \
         {allocs} allocations"
    );
    let budget = PER_FLUSH_BATCH * batches + PER_FLUSHED_PAGE * flushed + STRAY;
    assert!(
        allocs <= budget,
        "{UPSERTS} upserts ({pages} pages fetched, {flushed} flushed in {batches} batches) made \
         {allocs} allocations, budget {budget}: {:.2} per flushed page over it",
        (allocs - budget) as f64 / flushed as f64
    );

    // ---- checkpoints: a few dirty pages each, flushed oldest first --------
    let (allocs0, fetched0, stats0) = (ALLOCS.load(Relaxed), fetched(&db), db.stats());
    for i in 0..CHECKPOINTS {
        for _ in 0..8 {
            db.upsert_kv(Key::node(step()), vec![i as u8; 96]).unwrap();
            db.commit().unwrap();
        }
        db.checkpoint().unwrap();
    }
    let allocs = ALLOCS.load(Relaxed) - allocs0 - 8 * CHECKPOINTS;
    let pages = fetched(&db) - fetched0;
    let s = db.stats();
    let (batches, flushed) =
        (s.flush_batches - stats0.flush_batches, s.pages_flushed - stats0.pages_flushed);
    assert!(s.checkpoints - stats0.checkpoints == CHECKPOINTS && flushed >= CHECKPOINTS);
    println!(
        "{CHECKPOINTS} checkpoints: {pages} pages fetched, {flushed} flushed in {batches} \
         batches, {allocs} allocations"
    );
    let budget = PER_FLUSH_BATCH * batches + PER_FLUSHED_PAGE * flushed + STRAY;
    assert!(
        allocs <= budget,
        "{CHECKPOINTS} checkpoints ({pages} pages fetched, {flushed} flushed in {batches} \
         batches) made {allocs} allocations, budget {budget}"
    );

    // ---- link lists: rows refilled in place, none allocated per row -------
    for id1 in 0..LISTS {
        for id2 in 0..list_len(id1) {
            let (len, byte) = link_payload(id1, id2);
            db.add_link(id1, 0, id2, &vec![byte; len]).unwrap();
        }
    }
    // Warm: every list read twice, so the buffer has held each slot's
    // longest payload and the lists' leaves are young in the pool.
    for _ in 0..2 {
        for id1 in 0..LISTS {
            db.get_link_list(id1, 0).unwrap();
        }
    }
    let (allocs0, fetched0) = (ALLOCS.load(Relaxed), fetched(&db));
    for i in 0..LIST_READS {
        let id1 = i * 5 % LISTS;
        let rows = db.get_link_list(id1, 0).unwrap();
        assert_eq!(rows.len() as u64, list_len(id1), "list {id1}");
        for (at, (id2, v)) in rows.iter().enumerate() {
            let (len, byte) = link_payload(id1, *id2);
            assert!(
                *id2 == at as u64 && v.len() == len && v.iter().all(|&b| b == byte),
                "row {at} of list {id1}"
            );
        }
    }
    let (allocs, pages) = (ALLOCS.load(Relaxed) - allocs0, fetched(&db) - fetched0);
    assert!(
        allocs <= STRAY,
        "{LIST_READS} link-list reads ({pages} pages fetched) made {allocs} allocations: {:.2} \
         per read",
        allocs as f64 / LIST_READS as f64
    );
    assert_eq!(db.stats().share_fallbacks, 0);
}
