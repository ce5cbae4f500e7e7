//! What a borrowed queued command promises: the device captures a command's
//! state at submission, so the caller's buffers are its own again the moment
//! `submit` returns, and a submission the queue refuses has touched nothing.
//! A queued read is lent its destination by value and hands it back holding
//! the pages, and only them, whatever the buffer held before.

use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, FtlError, Lpn, QueuedCmd};

const PAGES: u64 = 64;

fn device(queue_depth: usize) -> Ftl {
    let cfg = FtlConfig::for_capacity_with(PAGES * 4096, 0.5, 4096, 16, NandTiming::default())
        .with_parallelism(4, 1);
    let mut f = Ftl::new(cfg);
    f.set_queue_depth(queue_depth);
    f
}

/// The physical page behind every LPN (`None`: unmapped).
fn mapping(f: &Ftl) -> Vec<Option<u64>> {
    (0..PAGES).map(|l| f.mapping_of(Lpn(l)).map(|p| p.0 as u64)).collect()
}

fn read(f: &mut Ftl, lpn: u64) -> Vec<u8> {
    let mut buf = vec![0u8; f.page_size()];
    f.read(Lpn(lpn), &mut buf).unwrap();
    buf
}

#[test]
fn a_borrowed_write_is_captured_at_submit() {
    let mut f = device(8);
    let ps = f.page_size();
    let mut bufs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![0x10 + i; ps]).collect();
    {
        let batch: Vec<(Lpn, &[u8])> =
            bufs[..4].iter().zip(0..).map(|(b, l)| (Lpn(l), b.as_slice())).collect();
        f.submit(QueuedCmd::WriteBatch { pages: &batch }).unwrap();
        let atomic: Vec<(Lpn, &[u8])> =
            bufs[4..].iter().zip(4..).map(|(b, l)| (Lpn(l), b.as_slice())).collect();
        f.submit(QueuedCmd::WriteAtomic { pages: &atomic }).unwrap();
    }
    // Both commands are still in flight, and the buffers are the caller's
    // again: scribble over them before anything is reaped.
    assert_eq!(f.inflight(), 2);
    bufs.iter_mut().for_each(|b| b.fill(0xEE));
    assert!(f.drain().iter().all(|c| c.is_ok()));
    for lpn in 0..6 {
        assert_eq!(read(&mut f, lpn), vec![0x10 + lpn as u8; ps], "lpn {lpn}");
    }
    f.check_invariants();
}

#[test]
fn queue_full_at_depth_one_touches_nothing_and_clears_on_reap() {
    let mut f = device(1);
    let ps = f.page_size();
    // Age the device into garbage collection first: the refusal must hold
    // with the background collector mid-victim, not only on a fresh pool.
    for round in 0..6u64 {
        for lpn in 0..PAGES {
            f.write(Lpn((lpn * 7 + round) % PAGES), &vec![0x80 | round as u8; ps]).unwrap();
        }
    }
    assert!(f.stats().gc_events > 0, "aging must reach garbage collection");
    let (old, new) = (vec![0x01u8; ps], vec![0x02u8; ps]);
    let first = [(Lpn(0), &old[..]), (Lpn(1), &old[..])];
    let second = [(Lpn(1), &new[..]), (Lpn(2), &new[..])];
    f.submit(QueuedCmd::WriteBatch { pages: &first }).unwrap();

    let before = (f.stats(), f.clock().now_ns(), mapping(&f));
    for _ in 0..2 {
        assert_eq!(
            f.submit(QueuedCmd::WriteBatch { pages: &second }),
            Err(FtlError::QueueFull { depth: 1 })
        );
    }
    assert_eq!(f.submit(QueuedCmd::Flush), Err(FtlError::QueueFull { depth: 1 }));
    let after = (f.stats(), f.clock().now_ns(), mapping(&f));
    assert_eq!(before, after, "a refused submit left a mark");
    assert_eq!(f.inflight(), 1);

    let done = f.reap();
    assert_eq!(done.len(), 1);
    assert!(done[0].is_ok());
    // The same borrowed request, lent again, now goes through.
    f.submit(QueuedCmd::WriteBatch { pages: &second }).unwrap();
    assert!(f.reap().iter().all(|c| c.is_ok()));
    assert_eq!((read(&mut f, 0), read(&mut f, 1), read(&mut f, 2)), (old, new.clone(), new));
    f.check_invariants();
}

/// A `ReadBatch` lent a buffer of any length, full of old bytes, hands it
/// back exactly `n` pages long, page for page what the synchronous
/// `read_batch` reads: the mapped pages' bytes and zeros for trimmed and
/// never-written ones, nothing of what the buffer held.
#[test]
fn a_lent_read_buffer_comes_back_holding_exactly_the_pages() {
    let mut f = device(8);
    let ps = f.page_size();
    for lpn in 0..8u64 {
        f.write(Lpn(lpn), &vec![0x30 + lpn as u8; ps]).unwrap();
    }
    f.trim(Lpn(2), 2).unwrap();
    // Mapped 0, 1 and 5 (0 twice); trimmed 2 and 3; never written 40 and 63.
    let lpns = [0, 2, 40, 5, 3, 63, 1, 0].map(Lpn);
    let n = lpns.len();
    let mut want = vec![0x55u8; n * ps];
    let mut reqs: Vec<(Lpn, &mut [u8])> =
        lpns.iter().copied().zip(want.chunks_exact_mut(ps)).collect();
    f.read_batch(&mut reqs).unwrap();
    let fills: Vec<u8> = want.chunks_exact(ps).map(|p| p[ps / 2]).collect();
    assert_eq!(fills, [0x30, 0, 0, 0x35, 0, 0, 0x31, 0x30], "holes read as zeros");

    // Longer than the request by three pages and a bit, shorter, empty.
    for len in [(n + 3) * ps + 17, 2 * ps + 1, 0] {
        let lent = vec![0xAAu8; len];
        f.submit(QueuedCmd::ReadBatch { lpns: &lpns, buf: lent }).unwrap();
        let mut done = f.drain();
        assert_eq!(done.len(), 1);
        let got = done.pop().unwrap().result.unwrap().into_pages().unwrap();
        assert_eq!(got.len(), n * ps, "a {len}-byte buffer came back the wrong length");
        assert!(got == want, "a {len}-byte buffer of 0xAA read other bytes than read_batch");
    }
    f.check_invariants();
}
