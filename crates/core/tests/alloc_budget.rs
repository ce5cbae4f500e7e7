//! Allocation budget of the steady-state write path.
//!
//! Under the `BlockDevice` boundary page memory is owned and reused: NAND
//! page buffers cycle through the array's spare list, GC copies back inside
//! the array from the device's scratch of page pairs, the reverse map
//! recycles its lists, the delta log encodes into one page (DESIGN.md
//! "Buffer ownership"). This test holds the device to it: on an aged, 85 %
//! full `Ftl`, a window of overwrites, SHARE commits and trims that spans
//! garbage collection, log flushes and a checkpoint may request less than
//! half a KiB of heap per op — an eighth of one page, where one forgotten
//! per-program or per-copyback buffer costs 4 KiB — in fewer than 0.15
//! requests per op (it makes 0.001; the four-channel window below 0.08:
//! its multi-chunk SHARE commits). The second bound is the one a GC step
//! or a share can break without moving the first: collection runs as
//! 4-page background steps, about one per four ops here, so a single
//! request vector built per step adds a quarter of a request per op and a
//! few dozen bytes, and so does a reverse-map list allocated per shared
//! page instead of taken from the map's spares.
//!
//! Above the boundary a queued `ReadBatch` reads into the buffer its
//! submitter lends it and hands its pages back in it, which the reaper owns:
//! the same test ends by holding a k-page batch lent an empty buffer to one
//! page-sized-or-larger allocation, its `submit` to that buffer and the
//! queue's bookkeeping (no request vector), and its pages to the bytes a
//! synchronous `read_batch` of the same pages returns. A queued `WriteBatch`
//! or `WriteAtomic` lends its pages for the `submit` call, so it may request
//! no page-sized allocation at all and no more bytes than its synchronous
//! twin plus the queue's own bookkeeping. Warm, neither submission requests
//! any heap: a read lent a buffer of the capacity it needs, and a write whose
//! pinned-block list an earlier reaped command gave back.
//!
//! On four channels a large SHARE commits a stripe of log pages per
//! submission, encoded into the log's own page images from the device's
//! delta scratch: the test closes with a window of the same op mix plus
//! multi-chunk `share_batch` commits under the same two bounds, each
//! commit counted as one op per journal page it writes.
//!
//! A checkpoint builds its pages in an image the device keeps: on the aged,
//! snapshot-free device, one or four channels, one explicit checkpoint may
//! request less than one page of heap, where a fresh image costs a page per
//! table page.
//!
//! Above the device, the engines and the file system keep the request
//! vectors whose items borrow a call's pages in their `'static` form and
//! recycle them for each call (`share_core::recycle_vec`). That rests on std
//! collecting an emptied vector's `IntoIter` into the allocation it came
//! from: the test opens by holding a thousand refills of borrowed page
//! requests to no heap request at all, so a toolchain that stops reusing the
//! allocation fails here rather than in a benchmark.
//!
//! The file holds one test on purpose: the counters are process-wide, and
//! the harness runs the tests of one binary on parallel threads.

use nand_sim::NandTiming;
use share_core::{recycle_vec, BlockDevice, DeviceStats, Ftl, FtlConfig, Lpn, QueuedCmd, SharePair};
use share_rng::{Rng, StdRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Requests of a page or more: payload buffers, as against request vectors.
static PAGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    ALLOC_REQUESTS.fetch_add(1, Relaxed);
    PAGE_ALLOCS.fetch_add((size >= PAGE) as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

const PAGE: usize = 4096;
const LOGICAL_PAGES: u64 = 4096;
/// Pages of one SHARE commit: journal writes, one `share`, one `trim`.
const COMMIT_PAGES: u64 = 4;
/// Pages of one multi-chunk SHARE commit: two log pages of pairs.
const BATCH_PAGES: u64 = 400;
const WINDOW_OPS: u64 = 20_000;

struct Rig {
    ftl: Ftl,
    rng: StdRng,
    page: [u8; PAGE],
    pairs: Vec<SharePair>,
    home_pages: u64,
}

impl Rig {
    fn overwrite(&mut self, lpn: u64) {
        self.page.fill(self.rng.random());
        self.ftl.write(Lpn(lpn), &self.page).unwrap();
    }

    /// The paper's usage pattern at device level: write journal copies,
    /// remap them onto their home pages, trim the journal.
    fn share_commit(&mut self, first_home: u64) {
        let journal = self.home_pages;
        self.pairs.clear();
        for i in 0..COMMIT_PAGES {
            self.overwrite(journal + i);
            self.pairs.push(SharePair::new(Lpn(first_home + i), Lpn(journal + i)));
        }
        self.ftl.share(&self.pairs).unwrap();
        self.ftl.trim(Lpn(journal), COMMIT_PAGES).unwrap();
    }

    /// The same pattern at the size of a database checkpoint: one batched
    /// journal write, one `share_batch` of two log pages of pairs, one trim.
    fn batch_commit(&mut self, journal: &[u8]) {
        let first_home = self.rng.random_range(0..self.home_pages - BATCH_PAGES);
        let first_journal = self.home_pages + COMMIT_PAGES;
        let writes: Vec<(Lpn, &[u8])> =
            journal.chunks(PAGE).enumerate().map(|(i, p)| (Lpn(first_journal + i as u64), p)).collect();
        self.ftl.write_batch(&writes).unwrap();
        self.pairs.clear();
        self.pairs.extend(
            (0..BATCH_PAGES).map(|i| SharePair::new(Lpn(first_home + i), Lpn(first_journal + i))),
        );
        self.ftl.share_batch(&self.pairs).unwrap();
        self.ftl.trim(Lpn(first_journal), BATCH_PAGES).unwrap();
    }

    fn op(&mut self) {
        let lpn = self.rng.random_range(0..self.home_pages - COMMIT_PAGES);
        match self.rng.random_range(0..10u32) {
            0..=6 => self.overwrite(lpn),
            7..=8 => self.share_commit(lpn),
            _ => self.ftl.trim(Lpn(lpn), 1).unwrap(),
        }
    }
}

#[test]
fn steady_state_write_path_stays_inside_its_allocation_budget() {
    recycled_request_vectors_keep_their_allocation();
    let cfg = FtlConfig::for_capacity_with(
        LOGICAL_PAGES * PAGE as u64,
        0.15,
        PAGE,
        64,
        NandTiming::default(),
    );
    let mut rig = Rig::aged(cfg);

    let before = rig.ftl.stats();
    let bytes_before = ALLOC_BYTES.load(Relaxed);
    let requests_before = ALLOC_REQUESTS.load(Relaxed);
    for _ in 0..WINDOW_OPS {
        rig.op();
    }
    let bytes = ALLOC_BYTES.load(Relaxed) - bytes_before;
    let requests = ALLOC_REQUESTS.load(Relaxed) - requests_before;
    let window = rig.ftl.stats().delta_since(&before);

    // The budget must cover GC in parked steps, log flushes and a
    // checkpoint, not an idle device.
    assert!(window.gc_events >= 10, "window saw {} GC events", window.gc_events);
    assert!(window.gc_budget_deferrals > 0, "no GC step parked its victim");
    assert!(window.copyback_pages > 0 && window.shared_pages > 0 && window.trims > 0);
    assert!(window.checkpoints >= 1, "window saw no checkpoint");
    assert_within_budget("steady state", bytes, requests, WINDOW_OPS, &window);
    rig.ftl.check_invariants();
    queued_read_batch_is_one_flat_buffer(&mut rig);
    queued_writes_lend_their_pages(&mut rig);
    warm_queued_submits_request_no_heap(&mut rig);
    a_checkpoint_builds_its_pages_in_the_device_image(&mut rig);
    reads_and_writes_request_no_heap(&mut rig);
    multi_chunk_share_batches_stay_inside_the_budget();
}

/// A kept request vector refilled with borrowed pages — a read request and a
/// write request of 32 pages each, a thousand times — requests no heap once
/// it has held 32 items: each recycle hands the allocation on.
fn recycled_request_vectors_keep_their_allocation() {
    const PAGES: usize = 32;
    let mut bufs = vec![[0u8; PAGE]; PAGES];
    let mut kept_reads: Vec<(Lpn, &'static mut [u8])> = Vec::with_capacity(PAGES);
    let mut kept_writes: Vec<(u64, &'static [u8])> = Vec::with_capacity(PAGES);
    let requests = ALLOC_REQUESTS.load(Relaxed);
    for round in 0..1_000u64 {
        let mut reads: Vec<(Lpn, &mut [u8])> = recycle_vec(std::mem::take(&mut kept_reads));
        reads.extend(bufs.iter_mut().enumerate().map(|(i, b)| (Lpn(round + i as u64), &mut b[..])));
        for (lpn, buf) in reads.iter_mut() {
            buf[0] = lpn.0 as u8;
        }
        kept_reads = recycle_vec(reads);
        let mut writes: Vec<(u64, &[u8])> = recycle_vec(std::mem::take(&mut kept_writes));
        writes.extend(bufs.iter().enumerate().map(|(i, b)| (i as u64, &b[..])));
        assert!(writes.iter().all(|&(i, buf)| buf[0] == (round + i) as u8));
        kept_writes = recycle_vec(writes);
    }
    let requests = ALLOC_REQUESTS.load(Relaxed) - requests;
    assert_eq!(requests, 0, "1 000 refills of {PAGES}-page requests asked for heap {requests}×");
    assert!(kept_reads.is_empty() && kept_reads.capacity() >= PAGES);
    assert!(kept_writes.is_empty() && kept_writes.capacity() >= PAGES);
}

/// One explicit checkpoint: under a page of heap.
fn a_checkpoint_builds_its_pages_in_the_device_image(rig: &mut Rig) {
    let checkpoints = rig.ftl.stats().checkpoints;
    let (bytes, _) = heap_of(|| rig.ftl.checkpoint().unwrap());
    assert_eq!(rig.ftl.stats().checkpoints, checkpoints + 1);
    assert!(bytes < PAGE as u64, "one checkpoint requested {bytes} bytes of heap");
}

impl Rig {
    /// An 85 % full device under `cfg`, aged until every physical page has
    /// been programmed at least once (the spare list feeds all further
    /// programs) and the scratch has seen a full step.
    fn aged(cfg: FtlConfig) -> Rig {
        let home_pages = LOGICAL_PAGES * 85 / 100;
        let ftl = Ftl::new(cfg);
        let mut rig = Rig {
            ftl,
            rng: StdRng::seed_from_u64(7),
            page: [0; PAGE],
            pairs: Vec::with_capacity(BATCH_PAGES as usize),
            home_pages,
        };
        for lpn in 0..home_pages {
            rig.overwrite(lpn);
        }
        for _ in 0..4 * LOGICAL_PAGES {
            rig.op();
        }
        assert!(rig.ftl.stats().gc_events > 0, "aging must reach garbage collection");
        rig
    }
}

/// The two bounds: under half a KiB and 0.15 heap requests per op.
fn assert_within_budget(what: &str, bytes: u64, requests: u64, ops: u64, window: &DeviceStats) {
    let kib_per_op = bytes as f64 / 1024.0 / ops as f64;
    assert!(
        kib_per_op < 0.5,
        "{what} requested {kib_per_op:.3} KiB/op of heap over {ops} ops \
         ({} GC events, {} copybacks, {} checkpoints)",
        window.gc_events,
        window.copyback_pages,
        window.checkpoints
    );
    let requests_per_op = requests as f64 / ops as f64;
    println!("{what}: {kib_per_op:.3} KiB/op in {requests_per_op:.3} requests/op");
    assert!(
        requests_per_op < 0.15,
        "{what} made {requests_per_op:.3} heap requests/op over {ops} ops \
         ({} copybacks in {} parked steps)",
        window.copyback_pages,
        window.gc_budget_deferrals
    );
}

/// Four channels, where one log submission carries a stripe of pages: the
/// op mix with a 400-page `share_batch` commit every hundredth op. Each
/// commit's two chunks are remapped into the device's delta scratch and
/// programmed from the log's page images in one submission. A commit
/// counts as one op per journal page, as one `overwrite` does: its heap is
/// the reverse map's entries for the pages it shares, as for `share`.
fn multi_chunk_share_batches_stay_inside_the_budget() {
    const OPS: u64 = 5_000;
    const COMMITS: u64 = OPS / 100;
    let cfg = FtlConfig::for_capacity_with(
        LOGICAL_PAGES * PAGE as u64,
        0.15,
        PAGE,
        64,
        NandTiming::default(),
    )
    .with_parallelism(4, 1);
    let mut rig = Rig::aged(cfg);
    let journal = vec![0x6Cu8; BATCH_PAGES as usize * PAGE];
    rig.batch_commit(&journal);

    let before = rig.ftl.stats();
    let (bytes_before, requests_before) = (ALLOC_BYTES.load(Relaxed), ALLOC_REQUESTS.load(Relaxed));
    for i in 0..OPS {
        match i % 100 {
            0 => rig.batch_commit(&journal),
            _ => rig.op(),
        }
    }
    let bytes = ALLOC_BYTES.load(Relaxed) - bytes_before;
    let requests = ALLOC_REQUESTS.load(Relaxed) - requests_before;
    let window = rig.ftl.stats().delta_since(&before);
    assert!(window.share_commands > COMMITS && window.checkpoints >= 1);
    assert!(window.shared_pages >= COMMITS * BATCH_PAGES);
    let ops = OPS - COMMITS + COMMITS * BATCH_PAGES;
    assert_within_budget("four channels, multi-chunk SHARE", bytes, requests, ops, &window);
    a_checkpoint_builds_its_pages_in_the_device_image(&mut rig);
    rig.ftl.check_invariants();
}

/// Heap bytes and page-sized requests made while `body` runs.
fn heap_of(body: impl FnOnce()) -> (u64, u64) {
    let (bytes, pages) = (ALLOC_BYTES.load(Relaxed), PAGE_ALLOCS.load(Relaxed));
    body();
    (ALLOC_BYTES.load(Relaxed) - bytes, PAGE_ALLOCS.load(Relaxed) - pages)
}

/// `read`, `write`, `read_batch` and `write_batch` run one read body and one
/// write body, which borrow the caller's pages and the device's scratch. The
/// first pass of rounds of each grows what the device keeps at a high-water
/// mark (the destination scratch, the reverse map's spare lists as the
/// shared pages it overwrites give theirs back); the second, the same rounds
/// again over the GC steps and log flushes they pay for, may request no heap
/// at all. A request vector built per command would cost one per call.
fn reads_and_writes_request_no_heap(rig: &mut Rig) {
    const N: usize = 8;
    const ROUNDS: u64 = 64;
    let data: Vec<[u8; PAGE]> = (0..N).map(|i| [0x90 | i as u8; PAGE]).collect();
    let mut bufs = vec![[0u8; PAGE]; N];
    let mut page = [0u8; PAGE];
    for pass in 0..2 {
        let before = rig.ftl.stats();
        for round in 0..ROUNDS {
            let first = round * N as u64;
            let pages: Vec<(Lpn, &[u8])> =
                data.iter().enumerate().map(|(i, d)| (Lpn(first + i as u64), &d[..])).collect();
            let mut reqs: Vec<(Lpn, &mut [u8])> =
                bufs.iter_mut().enumerate().map(|(i, b)| (Lpn(first + i as u64), &mut b[..])).collect();
            let ftl = &mut rig.ftl;
            let heap = [
                heap_of(|| ftl.write_batch(&pages).unwrap()).0,
                heap_of(|| ftl.read_batch(&mut reqs).unwrap()).0,
                heap_of(|| ftl.write(Lpn(first), &data[1]).unwrap()).0,
                heap_of(|| ftl.read(Lpn(first + 1), &mut page).unwrap()).0,
            ];
            if pass == 1 {
                assert_eq!(heap, [0; 4], "write_batch, read_batch, write, read in round {round}");
            }
            drop(reqs);
            assert!(bufs.iter().zip(&data).all(|(b, d)| b == d) && page == data[1]);
        }
        let window = rig.ftl.stats().delta_since(&before);
        assert!(window.gc_events > 0 && window.meta_page_writes > 0, "{window:?}");
    }
}

/// A queued `WriteBatch` / `WriteAtomic` of N mapped pages borrows the
/// caller's buffers until `submit` returns: no payload-sized allocation, and
/// no more heap than the synchronous call on the same pages plus what the
/// queue keeps per command (the `PendingCmd` entry with its pinned-block
/// list until a reaped command gives one back, and the vector `drain`
/// builds to hand the completion back). One copied page would cost 4 KiB,
/// four times the slack.
fn queued_writes_lend_their_pages(rig: &mut Rig) {
    const N: u64 = 8;
    const QUEUE_SLACK: u64 = 1024;
    let bufs: Vec<[u8; PAGE]> = (0..N).map(|i| [0xA0 | i as u8; PAGE]).collect();
    let pages: Vec<(Lpn, &[u8])> =
        bufs.iter().enumerate().map(|(i, b)| (Lpn(100 + i as u64), &b[..])).collect();
    let ftl = &mut rig.ftl;

    let (sync_batch, _) = heap_of(|| ftl.write_batch(&pages).unwrap());
    let (queued_batch, payloads) = heap_of(|| {
        ftl.submit(QueuedCmd::WriteBatch { pages: &pages }).unwrap();
        assert!(ftl.drain().iter().all(|c| c.is_ok()));
    });
    assert_eq!(payloads, 0, "a queued {N}-page WriteBatch copied a page");
    assert!(
        queued_batch <= sync_batch + QUEUE_SLACK,
        "queued WriteBatch requested {queued_batch} B, write_batch {sync_batch} B"
    );

    let (sync_atomic, _) = heap_of(|| ftl.write_atomic(&pages).unwrap());
    let (queued_atomic, payloads) = heap_of(|| {
        ftl.submit(QueuedCmd::WriteAtomic { pages: &pages }).unwrap();
        assert!(ftl.drain().iter().all(|c| c.is_ok()));
    });
    assert_eq!(payloads, 0, "a queued {N}-page WriteAtomic copied a page");
    assert!(
        queued_atomic <= sync_atomic + QUEUE_SLACK,
        "queued WriteAtomic requested {queued_atomic} B, write_atomic {sync_atomic} B"
    );
    println!(
        "{N}-page writes: write_batch {sync_batch} B, queued {queued_batch} B; \
         write_atomic {sync_atomic} B, queued {queued_atomic} B"
    );
    ftl.check_invariants();
}

/// A warm queued command's `submit` requests no heap at all: a `ReadBatch`
/// lent the buffer the last one handed back reads into it, and a
/// `WriteBatch` pins its blocks in the list the last reaped write gave back.
/// The completion vector `drain` returns is the `BlockDevice` trait's, and
/// the reaper's.
fn warm_queued_submits_request_no_heap(rig: &mut Rig) {
    const N: u64 = 8;
    let bufs: Vec<[u8; PAGE]> = (0..N).map(|i| [0xB0 | i as u8; PAGE]).collect();
    let pages: Vec<(Lpn, &[u8])> =
        bufs.iter().enumerate().map(|(i, b)| (Lpn(200 + i as u64), &b[..])).collect();
    let lpns: Vec<Lpn> = pages.iter().map(|&(lpn, _)| lpn).collect();
    let ftl = &mut rig.ftl;
    let mut lent = Vec::new();
    for round in 0..3 {
        let (write, _) = heap_of(|| {
            ftl.submit(QueuedCmd::WriteBatch { pages: &pages }).unwrap();
        });
        assert!(ftl.drain().iter().all(|c| c.is_ok()));
        let buf = std::mem::take(&mut lent);
        let (read, _) = heap_of(|| {
            ftl.submit(QueuedCmd::ReadBatch { lpns: &lpns, buf }).unwrap();
        });
        lent = ftl.drain().pop().unwrap().result.unwrap().into_pages().unwrap();
        assert!(lent.chunks_exact(PAGE).zip(&bufs).all(|(got, want)| got == want));
        if round > 0 {
            assert_eq!((write, read), (0, 0), "warm queued WriteBatch, ReadBatch submits");
        }
    }
    ftl.check_invariants();
}

/// Mapped, trimmed and never-written pages in one queued `ReadBatch`: the
/// completion carries `k × PAGE` bytes, page for page what a synchronous
/// `read_batch` of the same LPNs reads, and the command made one payload
/// allocation — the buffer the reaper now owns — where a buffer per page made
/// k.
fn queued_read_batch_is_one_flat_buffer(rig: &mut Rig) {
    let (mapped, other, never_written) = (7, rig.home_pages - 1, LOGICAL_PAGES - 1);
    rig.ftl.trim(Lpn(40), 2).unwrap();
    rig.ftl.write(Lpn(mapped), &[0x5A; PAGE]).unwrap();
    rig.ftl.write(Lpn(other), &[0xC3; PAGE]).unwrap();
    let lpns = [mapped, 40, other, never_written, 41, mapped].map(Lpn).to_vec();
    let k = lpns.len();

    let mut sync = vec![0xEEu8; k * PAGE];
    let mut reqs: Vec<(Lpn, &mut [u8])> =
        lpns.iter().copied().zip(sync.chunks_exact_mut(PAGE)).collect();
    rig.ftl.read_batch(&mut reqs).unwrap();
    let fills: Vec<u8> = sync.chunks_exact(PAGE).map(|p| p[PAGE - 1]).collect();
    assert_eq!(fills, [0x5A, 0, 0xC3, 0, 0, 0x5A], "trimmed and never-written pages read as zeros");

    let (before, requests_before) = (PAGE_ALLOCS.load(Relaxed), ALLOC_REQUESTS.load(Relaxed));
    rig.ftl.submit(QueuedCmd::ReadBatch { lpns: &lpns, buf: Vec::new() }).unwrap();
    let submit_requests = ALLOC_REQUESTS.load(Relaxed) - requests_before;
    let mut done = rig.ftl.drain();
    let payload_allocs = PAGE_ALLOCS.load(Relaxed) - before;
    assert_eq!(done.len(), 1);
    let flat = done.pop().unwrap().result.unwrap().into_pages().unwrap();
    assert_eq!(flat.len(), k * PAGE);
    assert!(flat == sync, "queued and synchronous reads of the same pages differ");
    assert_eq!(payload_allocs, 1, "payload allocations of a {k}-page queued read");
    // The flat buffer and the pending-command list, which grows on the rig's
    // first queued command: no request vector is built to lend the pages.
    assert_eq!(submit_requests, 2, "heap requests of a {k}-page queued read's submit");
}
