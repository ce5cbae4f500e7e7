//! The delta-log ring's striped layout and its one-submission commits.
//!
//! The ring's blocks sit on consecutive NAND units, and the log stripes
//! over the largest divisor `w` of its block count that the units can run
//! side by side: consecutive slots land on `w` different blocks, so the
//! `w` pages of one flush program at once. These tests hold the layout to
//! its three promises — every slot round-trips through recovery across
//! stripe boundaries, one channel keeps the block-major layout, and a
//! stripe of pages costs one program time on idle lanes — and hold the
//! device's checkpoint margin to the largest submission the log can make.

use nand_sim::{BlockId, NandArray, NandTiming, Ppn, SimClock};
use share_core::{BlockDevice, Delta, DeltaLog, Ftl, FtlConfig, Lpn, SharePair};

/// A 512-byte-page device (30 deltas a log page) with 8-page blocks, so a
/// ring of four blocks holds 32 slots.
fn cfg(channels: u32, timing: NandTiming) -> FtlConfig {
    FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 8, timing).with_parallelism(channels, 1)
}

fn medium(cfg: &FtlConfig) -> NandArray {
    NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new())
}

fn delta(i: u64) -> Delta {
    Delta { lpn: Lpn(i), old: Ppn::INVALID, new: Ppn(i as u32 + 1) }
}

#[test]
fn stripe_width_is_the_largest_divisor_the_units_cover() {
    for (channels, width) in [(1, 1), (2, 2), (4, 4), (8, 4)] {
        assert_eq!(cfg(channels, NandTiming::zero()).stripe_width(), width, "{channels} channels");
    }
    let mut three = cfg(4, NandTiming::zero());
    three.log_blocks = 3;
    assert_eq!(three.stripe_width(), 3);
    three.geometry = three.geometry.with_parallelism(2, 1);
    assert_eq!(three.stripe_width(), 1, "2 does not divide 3");
}

#[test]
fn one_channel_keeps_the_block_major_layout() {
    let cfg = cfg(1, NandTiming::zero());
    let log = DeltaLog::new(&cfg, 0);
    let (start, ppb) = (cfg.log_ring_start().0, cfg.geometry.pages_per_block);
    for slot in 0..log.ring_pages() {
        let old = (start + slot / ppb) * ppb + slot % ppb;
        assert_eq!(cfg.log_ring().ppn(slot).0, old, "slot {slot}");
    }
}

/// Every slot lies in the ring, no two share a page, the `w` slots of each
/// stripe row sit on `w` different units, and a block's pages fill in
/// order. Then the whole ring, written in flushes of 1 to `w + 1` pages —
/// so submissions straddle stripe rows and, below width 4, stripes —
/// recovers page for page, and after a reset the next generation does too.
#[test]
fn every_width_round_trips_the_whole_ring_through_recovery() {
    for channels in [1, 2, 4, 8] {
        let cfg = cfg(channels, NandTiming::zero());
        let mut nand = medium(&cfg);
        let mut log = DeltaLog::new(&cfg, 0);
        let w = cfg.stripe_width();
        let ring = cfg.log_ring_start().0..cfg.log_ring_start().0 + cfg.log_blocks;
        let stripe = cfg.log_ring();
        let mut seen = std::collections::HashSet::new();
        let mut next_in_block = vec![0u32; cfg.log_blocks as usize];
        for slot in 0..log.ring_pages() {
            let ppn = stripe.ppn(slot);
            let block = cfg.geometry.block_of(ppn);
            assert!(ring.contains(&block.0), "{channels} ch: slot {slot} outside the ring");
            assert!(seen.insert(ppn.0), "{channels} ch: slot {slot} reuses a page");
            let b = (block.0 - ring.start) as usize;
            assert_eq!(cfg.geometry.page_in_block(ppn), next_in_block[b], "slot {slot}");
            next_in_block[b] += 1;
            if slot % w != 0 {
                let prev = cfg.geometry.unit_of(stripe.ppn(slot - 1));
                assert_ne!(cfg.geometry.unit_of(ppn), prev, "{channels} ch: slot {slot}");
            }
        }

        let per_page = cfg.deltas_per_page() as u64;
        for generation in 0..2u64 {
            let first_seq = log.next_seq();
            let mut pages = 0u64;
            let mut sizes = (1..=u64::from(w) + 1).cycle();
            while log.pages_remaining() > 0 {
                let n = sizes.next().unwrap().min(u64::from(log.pages_remaining()));
                for i in 0..n * per_page {
                    log.append(delta((pages * per_page + i) * 2 + generation));
                }
                log.flush(&mut nand).unwrap();
                pages += n;
            }
            let got = DeltaLog::recover(&cfg, &mut nand, first_seq);
            assert_eq!(got.len() as u64, pages, "{channels} ch, generation {generation}");
            for (k, page) in got.iter().enumerate() {
                assert_eq!(page.seq, first_seq + k as u64);
                let want: Vec<Delta> = (0..per_page)
                    .map(|i| delta((k as u64 * per_page + i) * 2 + generation))
                    .collect();
                assert_eq!(page.deltas, want, "{channels} ch: page {k}");
            }
            log.reset(&mut nand).unwrap();
            assert!(DeltaLog::recover(&cfg, &mut nand, 0).is_empty(), "reset leaves no page");
        }
    }
}

/// A flush of one page per stripe lane: on idle lanes the stripe programs
/// side by side, so it completes in one program time at every width,
/// where programming the pages one by one takes `w`. The ring erase is
/// one submission too: one erase time.
#[test]
fn a_stripe_of_pages_costs_one_program_time() {
    for channels in [1, 2, 4, 8] {
        let cfg = cfg(channels, NandTiming::default());
        let mut nand = medium(&cfg);
        let mut log = DeltaLog::new(&cfg, 0);
        let w = cfg.stripe_width() as usize;
        let one = cfg.timing.program_ns + cfg.timing.xfer_ns(cfg.geometry.page_size);
        for i in 0..cfg.deltas_per_page() * w - 1 {
            log.append(delta(i as u64));
        }
        assert!(!log.buffer_full());
        log.append(delta(1 << 20));
        assert!(log.buffer_full(), "the buffer flushes at a page per lane");
        let t0 = nand.now_ns();
        log.flush(&mut nand).unwrap();
        assert_eq!(nand.now_ns() - t0, one, "{channels} ch: {w} pages");
        assert_eq!(log.pages_written, w as u64);

        // The same pages one program at a time, as a block-major ring
        // (or a `w = 1` stripe) takes them.
        let mut serial = medium(&cfg);
        let t0 = serial.now_ns();
        let page = vec![0u8; cfg.geometry.page_size];
        for p in 0..w as u32 {
            let block = BlockId(cfg.log_ring_start().0);
            serial.program(cfg.geometry.ppn_at(block, p), &page).unwrap();
        }
        assert_eq!(serial.now_ns() - t0, w as u64 * one, "{channels} ch");

        let t0 = nand.now_ns();
        log.reset(&mut nand).unwrap();
        let erases = cfg.log_blocks as u64 / cfg.geometry.units().min(cfg.log_blocks) as u64;
        assert_eq!(nand.now_ns() - t0, erases.max(1) * cfg.timing.erase_ns, "{channels} ch");
    }
}

/// `commit_pages` predicts what a commit programs — the device compares it
/// with the room left in the ring before every commit — for buffers below,
/// at and beyond the flush threshold (relocation deltas join the buffer
/// without a flush check) and atomic commits from empty to a stripe.
#[test]
fn commit_pages_counts_what_a_commit_programs() {
    for channels in [1, 4] {
        let cfg = cfg(channels, NandTiming::zero());
        let per_page = cfg.deltas_per_page();
        let w = cfg.stripe_width() as usize;
        let buffers = [0, 1, per_page - 1, per_page, w * per_page - 1, w * per_page, w * per_page + 5];
        let atomics = [None, Some(0), Some(1), Some(per_page), Some(per_page + 1), Some(w * per_page)];
        for buffered in buffers {
            for atomic in atomics {
                let mut nand = medium(&cfg);
                let mut log = DeltaLog::new(&cfg, 0);
                (0..buffered as u64).for_each(|i| log.append(delta(i)));
                let predicted = log.commit_pages(atomic);
                let batch: Vec<Delta> = (0..atomic.unwrap_or(0) as u64).map(|i| delta(500 + i)).collect();
                match atomic {
                    None => log.flush(&mut nand).unwrap(),
                    Some(_) => log.flush_atomic_pages(&mut nand, &batch).unwrap(),
                }
                assert_eq!(
                    u64::from(predicted),
                    log.pages_written,
                    "{channels} ch: {buffered} buffered, atomic {atomic:?}"
                );
                let pages = DeltaLog::recover(&cfg, &mut nand, 0);
                let got: Vec<Delta> = pages.iter().flat_map(|p| p.deltas.iter().copied()).collect();
                let want: Vec<Delta> = (0..buffered as u64).map(delta).chain(batch).collect();
                assert_eq!(got, want, "{channels} ch: deltas in order");
            }
        }
    }
}

/// The largest submission the log makes is a stripe of buffered pages
/// followed by a stripe of atomic pages: a buffer one delta short of its
/// flush threshold (its tail too long to ride), then a `share_batch` of a
/// stripe of full chunks. Repeated until the ring has been refilled many
/// times over, such commits must never meet a ring without room — the
/// device checkpoints first — and the device must recover what they
/// committed. (Relocation deltas can push a commit past two stripes; the
/// device then checkpoints in place of a commit the ring cannot take.)
#[test]
fn maximum_submissions_checkpoint_before_the_ring_overflows() {
    for channels in [1, 2, 4, 8] {
        let cfg = cfg(channels, NandTiming::zero());
        let mut ftl = Ftl::new(cfg.clone());
        let w = cfg.stripe_width() as u64;
        let per_page = cfg.deltas_per_page() as u64;
        let ring_pages = u64::from(cfg.log_blocks * cfg.geometry.pages_per_block);
        let page = vec![0x5Au8; cfg.geometry.page_size];
        let (homes, sources) = (0..w * per_page - 1, 1000..1000 + w * per_page);
        for lpn in sources.clone() {
            ftl.write(Lpn(lpn), &page).unwrap();
        }
        ftl.flush().unwrap();
        let pairs: Vec<SharePair> =
            (0..w * per_page).map(|i| SharePair::new(Lpn(500 + i), Lpn(1000 + i))).collect();
        let (mut biggest, mut rounds) = (0, 0);
        while ftl.stats().checkpoints < 4 || rounds < 3 * ring_pages / (2 * w) {
            for lpn in homes.clone() {
                ftl.write(Lpn(lpn), &page).unwrap();
            }
            let (before, checkpoints) = (ftl.stats().meta_page_writes, ftl.stats().checkpoints);
            ftl.share_batch(&pairs).expect("a maximum submission found the ring full");
            if ftl.stats().checkpoints == checkpoints {
                biggest = biggest.max(ftl.stats().meta_page_writes - before);
            }
            rounds += 1;
        }
        assert!(biggest >= 2 * w, "{channels} ch: no commit of two stripes ({biggest} pages)");
        let mut rec = Ftl::open(cfg, ftl.into_nand()).expect("recovery must succeed");
        for p in &pairs {
            assert_eq!(rec.mapping_of(p.dest), rec.mapping_of(p.src), "{channels} ch");
        }
        let mut buf = vec![0u8; page.len()];
        rec.read(Lpn(0), &mut buf).unwrap();
        assert_eq!(buf, page);
    }
}

/// A ring whose stripe is wider than half the checkpoint margin could
/// overflow between two checkpoint checks: such a device refuses to
/// assemble.
#[test]
#[should_panic(expected = "checkpoint margin")]
fn a_stripe_wider_than_the_margin_allows_is_refused() {
    let mut wide = cfg(8, NandTiming::zero());
    wide.log_blocks = 8;
    assert_eq!(wide.stripe_width(), 8);
    let _ = Ftl::new(wide);
}
