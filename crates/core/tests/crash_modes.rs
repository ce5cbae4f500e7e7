//! Targeted fault-mode coverage at the FTL's two metadata write sites
//! (PR 2, satellite of the crash-sweep harness).
//!
//! The broad sweep in `crates/crashsweep` hits these sites statistically;
//! this file pins them down deterministically: every [`FaultMode`] is
//! injected exactly at the delta-log page program (both the `share`
//! atomic-batch path and the plain `flush` path) and at every program of
//! a checkpoint (header, each table page, commit page), with
//! mode-specific expectations for what recovery must show.

use nand_sim::{FaultMode, NandTiming};
use share_core::telemetry::metric::Value;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, SharePair};

fn cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(1 << 20, 0.3, 4096, 16, NandTiming::zero())
}

fn table_pages(cfg: &FtlConfig) -> u64 {
    (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64)
}

fn write_fill(ftl: &mut Ftl, lpn: u64, fill: u8) {
    let data = vec![fill; ftl.page_size()];
    ftl.write(Lpn(lpn), &data).unwrap();
}

fn read_fill(ftl: &mut Ftl, lpn: u64) -> u8 {
    let mut buf = vec![0u8; ftl.page_size()];
    ftl.read(Lpn(lpn), &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == buf[0]), "lpn {lpn} reads non-uniform content");
    buf[0]
}

fn reopen(ftl: Ftl) -> Ftl {
    let rec = Ftl::open(cfg(), ftl.into_nand()).expect("recovery must succeed");
    assert_eq!(rec.stats().recoveries, 1);
    rec
}

/// Crash exactly on the SHARE batch's single delta-log page program.
/// Torn or dropped: the batch must roll back whole; after-program: the
/// page landed, so the batch must be fully applied.
#[test]
fn share_batch_delta_page_crash_is_all_or_nothing() {
    for mode in FaultMode::ALL {
        let mut ftl = Ftl::new(cfg());
        write_fill(&mut ftl, 0, 0xAA);
        write_fill(&mut ftl, 1, 0xBB);
        write_fill(&mut ftl, 2, 0xCC);
        ftl.flush().unwrap();
        let handle = ftl.fault_handle();
        handle.arm_after_programs(1, mode); // share programs only the delta page
        ftl.share(&[SharePair::new(Lpn(4), Lpn(0)), SharePair::new(Lpn(5), Lpn(1))])
            .unwrap_err();
        assert!(handle.is_down());
        handle.disarm();

        let mut rec = reopen(ftl);
        let applied = rec.mapping_of(Lpn(4)).is_some();
        match mode {
            FaultMode::TornHalf | FaultMode::DroppedWrite => {
                assert!(!applied, "{mode:?}: a lost delta page must undo the whole batch");
                assert!(rec.mapping_of(Lpn(5)).is_none());
            }
            FaultMode::AfterProgram => {
                assert!(applied, "{mode:?}: a landed delta page must commit the whole batch");
                assert_eq!(read_fill(&mut rec, 4), 0xAA);
                assert_eq!(read_fill(&mut rec, 5), 0xBB);
            }
        }
        // The sources must be intact in every mode.
        assert_eq!(read_fill(&mut rec, 0), 0xAA);
        assert_eq!(read_fill(&mut rec, 1), 0xBB);
        assert_eq!(read_fill(&mut rec, 2), 0xCC);
    }
}

/// Crash exactly on the delta page a plain `flush` programs. The data
/// page of the overwrite landed *before* the fault was armed, so only the
/// mapping update is at risk: torn or dropped, the LPN must still read
/// its old committed content; after-program, the new one.
#[test]
fn flush_delta_page_crash_keeps_committed_mapping() {
    for mode in FaultMode::ALL {
        let mut ftl = Ftl::new(cfg());
        write_fill(&mut ftl, 7, 0x11);
        ftl.flush().unwrap();
        write_fill(&mut ftl, 7, 0x22); // data page programs here, delta buffered
        let handle = ftl.fault_handle();
        handle.arm_after_programs(1, mode); // next program: the flush's delta page
        ftl.flush().unwrap_err();
        assert!(handle.is_down());
        handle.disarm();

        let mut rec = reopen(ftl);
        let got = read_fill(&mut rec, 7);
        match mode {
            FaultMode::TornHalf | FaultMode::DroppedWrite => {
                assert_eq!(got, 0x11, "{mode:?}: lost delta page must keep the old mapping");
            }
            FaultMode::AfterProgram => {
                assert_eq!(got, 0x22, "{mode:?}: landed delta page must expose the new write");
            }
        }
    }
}

/// Crash at every program of a checkpoint (header, table pages, commit
/// page) in every mode. The previous snapshot plus the delta log already
/// cover everything committed, so recovery must always reproduce the
/// pre-checkpoint state — whether or not the new snapshot completed.
#[test]
fn checkpoint_crash_at_every_page_preserves_committed_state() {
    let ckpt_programs = table_pages(&cfg()) + 2;
    for mode in FaultMode::ALL {
        for k in 1..=ckpt_programs {
            let mut ftl = Ftl::new(cfg());
            write_fill(&mut ftl, 0, 0x42);
            write_fill(&mut ftl, 9, 0x43);
            ftl.flush().unwrap();
            write_fill(&mut ftl, 3, 0x44); // buffered delta rides into the snapshot
            let handle = ftl.fault_handle();
            handle.arm_after_programs(k, mode);
            ftl.checkpoint().unwrap_err();
            assert!(handle.is_down(), "mode {mode:?} k {k}: checkpoint must hit the fault");
            handle.disarm();

            let mut rec = reopen(ftl);
            assert_eq!(read_fill(&mut rec, 0), 0x42, "mode {mode:?} k {k}");
            assert_eq!(read_fill(&mut rec, 9), 0x43, "mode {mode:?} k {k}");
            // The un-flushed write is durable only if the crashed
            // checkpoint's commit record landed. That happens for
            // AfterProgram on the last program, and also for TornHalf
            // there: the whole commit record sits in the intact first
            // half of the torn page, and the table it validates was fully
            // programmed before it — so the snapshot is genuinely
            // complete. Only a dropped commit page leaves it invalid.
            let survived = read_fill(&mut rec, 3);
            if k == ckpt_programs && mode != FaultMode::DroppedWrite {
                assert_eq!(survived, 0x44, "completed checkpoint must keep the buffered write");
            } else {
                assert_eq!(survived, 0, "mode {mode:?} k {k}: buffered write must roll back");
                assert!(rec.mapping_of(Lpn(3)).is_none());
            }
        }
    }
}

/// Regression (found by the crash sweep): two checkpoints with only
/// RAM-buffered deltas between them carry the same `next_delta_seq`, and
/// recovery used to pick between the slots by that sequence — a tie it
/// could resolve to the *stale* snapshot, silently rolling back committed
/// writes. Checkpoint generations now order the slots.
#[test]
fn back_to_back_checkpoints_recover_to_the_newer_snapshot() {
    let mut ftl = Ftl::new(cfg());
    // No flush between format's initial checkpoint and this one: the
    // write's delta stays buffered, so both snapshots share a delta seq.
    write_fill(&mut ftl, 12, 0x77);
    ftl.checkpoint().unwrap();

    let mut rec = reopen(ftl);
    assert_eq!(
        read_fill(&mut rec, 12),
        0x77,
        "recovery picked the stale checkpoint slot on a delta-seq tie"
    );

    // Same shape one level deeper: two explicit checkpoints in a row.
    write_fill(&mut rec, 13, 0x78);
    rec.checkpoint().unwrap();
    write_fill(&mut rec, 14, 0x79);
    rec.checkpoint().unwrap();
    let mut rec2 = reopen(rec);
    assert_eq!(read_fill(&mut rec2, 13), 0x78);
    assert_eq!(read_fill(&mut rec2, 14), 0x79);
}

/// A `write_atomic` inside the slack band runs its background collection
/// after its commit, and here that collection finishes the victim holding
/// the batch's old pages. Crash at every program of the command — the
/// batch's data pages, its commit page, the step's copybacks and the log
/// page that retires the victim — in every mode: the batch reads all old or
/// all new, and the victim's survivors keep their data. Collected before
/// the commit, the victim is erased while the durable mapping still points
/// the batch's pages at it.
#[test]
fn atomic_write_trailing_collection_crash_is_all_or_nothing() {
    // One channel, 16-page blocks, 28 data blocks: low == hard floor == 3.
    let cfg = || FtlConfig::for_capacity_with(256 * 4096, 0.07, 4096, 16, NandTiming::zero());
    const OLD: u8 = 0xA1;
    const NEW: u8 = 0xB2;
    let fill_of = |lpn: u64| (lpn % 200 + 20) as u8;
    // 16 blocks of sequential data, then 8 pages rewritten in each of
    // blocks 1..=14: free falls to 5 with no collection, block 0 is intact
    // and every other closed block holds at least 8 valid pages.
    let aged = || {
        let mut ftl = Ftl::new(cfg());
        for lpn in 0..256 {
            write_fill(&mut ftl, lpn, if lpn < 12 { OLD } else { fill_of(lpn) });
        }
        for block in 1..=14u64 {
            for i in 0..8 {
                write_fill(&mut ftl, block * 16 + 2 * i, fill_of(block * 16 + 2 * i));
            }
        }
        ftl.flush().unwrap();
        let free = ftl.telemetry_snapshot().unwrap().metric("free_blocks");
        assert_eq!((ftl.stats().gc_events, free), (0, Some(Value::U64(5))));
        ftl
    };
    let page = vec![NEW; 4096];
    let batch: Vec<(Lpn, &[u8])> = (0..12).map(|l| (Lpn(l), page.as_slice())).collect();

    // Fault-free: the batch takes free to the floor's band edge, and its
    // collection picks block 0 (four survivors) and finishes it.
    let mut ftl = aged();
    let before = (ftl.stats(), ftl.fault_handle().programs_seen());
    ftl.write_atomic(&batch).unwrap();
    let window = ftl.stats().delta_since(&before.0);
    assert_eq!((window.gc_events, window.gc_erases, window.copyback_pages), (1, 1, 4));
    let programs = ftl.fault_handle().programs_seen() - before.1;
    // 12 data pages, the commit page, 4 copybacks, the victim's log page.
    assert_eq!(programs, 18, "programs in the command");

    for mode in FaultMode::ALL {
        for k in 1..=programs {
            let mut ftl = aged();
            let handle = ftl.fault_handle();
            handle.arm_after_programs(k, mode);
            let crashed = ftl.write_atomic(&batch).is_err();
            assert!(crashed && handle.is_down(), "{mode:?} at program {k} did not crash");
            handle.disarm();
            let mut rec = Ftl::open(cfg(), ftl.into_nand()).expect("recovery must succeed");
            let got: Vec<u8> = (0..12).map(|l| read_fill(&mut rec, l)).collect();
            assert!(
                got.iter().all(|&b| b == OLD) || got.iter().all(|&b| b == NEW),
                "{mode:?} at program {k}: the batch reads {got:x?}"
            );
            for lpn in 12..16 {
                assert_eq!(read_fill(&mut rec, lpn), fill_of(lpn), "{mode:?} at {k}: lpn {lpn}");
            }
            rec.check_invariants();
        }
    }
}

/// A multi-page log submission is one `program_batch`, which the NAND
/// attempts strictly in slot order, and the ring stripes consecutive slots
/// over four blocks on four channels. On a 512-byte-page device (30 deltas
/// a page, a flush threshold of 120): five plain writes leave their deltas
/// buffered, a 70-pair `share_batch` commits them and its three chunks in
/// one four-page submission (the buffered tail is too long to ride with a
/// full chunk), and a 45-page trim goes out on the next flush as two
/// pages. Crash at every one of those eleven programs in every mode:
/// recovery must show exactly the state after the log pages that landed
/// intact — a prefix, so no SHARE chunk without the chunks before it, and
/// each chunk whole or absent.
#[test]
fn striped_log_submissions_recover_to_the_landed_prefix() {
    let cfg = || {
        FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 16, NandTiming::zero())
            .with_parallelism(4, 1)
    };
    const OLD: u8 = 0x11;
    const NEW: u8 = 0x22;
    const PAIRS: u64 = 70;
    let fill_of = |lpn: u64| (lpn % 200 + 30) as u8;
    let (plain, sources, dests, trimmed) = (100..105u64, 0..PAIRS - 1, 1000..1000 + PAIRS, 200..245u64);
    // The last pair shares a page the plain writes just replaced.
    let src_of = |i: u64| if i == PAIRS - 1 { plain.start } else { i };
    let pairs: Vec<SharePair> =
        (0..PAIRS).map(|i| SharePair::new(Lpn(dests.start + i), Lpn(src_of(i)))).collect();
    let base = || {
        let mut ftl = Ftl::new(cfg());
        let page = |b: u8| vec![b; 512];
        for lpn in sources.clone().chain(trimmed.clone()) {
            ftl.write(Lpn(lpn), &page(fill_of(lpn))).unwrap();
        }
        for lpn in plain.clone() {
            ftl.write(Lpn(lpn), &page(OLD)).unwrap();
        }
        ftl.checkpoint().unwrap(); // the ring restarts empty
        ftl
    };
    let run = |ftl: &mut Ftl| -> Result<(), share_core::FtlError> {
        for lpn in plain.clone() {
            ftl.write(Lpn(lpn), &[NEW; 512])?;
        }
        ftl.share_batch(&pairs)?;
        ftl.trim(Lpn(trimmed.start), trimmed.end - trimmed.start)?;
        ftl.flush()
    };
    // The expected content of every LPN involved once the first `landed`
    // log pages are durable: [tail, chunk 0, chunk 1, chunk 2, trim 0, trim 1].
    let expect = |landed: usize, lpn: u64| -> u8 {
        if plain.contains(&lpn) {
            return if landed >= 1 { NEW } else { OLD };
        }
        if dests.contains(&lpn) {
            let i = lpn - dests.start;
            let chunk = (i / 30) as usize;
            if landed < 2 + chunk {
                return 0;
            }
            return if src_of(i) == plain.start { NEW } else { fill_of(src_of(i)) };
        }
        if trimmed.contains(&lpn) {
            let page = ((lpn - trimmed.start) / 30) as usize;
            return if landed >= 5 + page { 0 } else { fill_of(lpn) };
        }
        fill_of(lpn)
    };
    let lpns: Vec<u64> = sources.clone().chain(plain.clone()).chain(dests.clone()).chain(trimmed.clone()).collect();
    let state = |ftl: &mut Ftl| -> Vec<u8> { lpns.iter().map(|&l| read_fill(ftl, l)).collect() };
    let prefix = |landed: usize| -> Vec<u8> { lpns.iter().map(|&l| expect(landed, l)).collect() };

    // Fault-free: five data programs, then the two log submissions.
    let mut ftl = base();
    let handle = ftl.fault_handle();
    let mut marks = vec![handle.programs_seen()];
    for lpn in plain.clone() {
        ftl.write(Lpn(lpn), &[NEW; 512]).unwrap();
    }
    marks.push(handle.programs_seen());
    ftl.share_batch(&pairs).unwrap();
    marks.push(handle.programs_seen());
    ftl.trim(Lpn(trimmed.start), trimmed.end - trimmed.start).unwrap();
    ftl.flush().unwrap();
    marks.push(handle.programs_seen());
    let steps: Vec<u64> = marks.windows(2).map(|m| m[1] - m[0]).collect();
    assert_eq!(steps, [5, 4, 2], "data programs, SHARE submission, trim flush");
    assert_eq!(ftl.stats().checkpoints, 2, "no checkpoint inside the sequence");
    let programs = 11u64;

    for mode in FaultMode::ALL {
        for k in 1..=programs {
            let mut ftl = base();
            let handle = ftl.fault_handle();
            handle.arm_after_programs(k, mode);
            assert!(run(&mut ftl).is_err() && handle.is_down(), "{mode:?} at {k} did not crash");
            handle.disarm();
            let mut rec = reopen_with(cfg(), ftl);
            // Log pages are programs 6..=11; the crashed one counts only if
            // it landed whole.
            let log_before = k.saturating_sub(6) as usize;
            let landed = log_before + usize::from(k >= 6 && mode == FaultMode::AfterProgram);
            let got = state(&mut rec);
            let matched = (0..=6).find(|&p| prefix(p) == got);
            assert_eq!(
                matched,
                Some(landed),
                "{mode:?} at program {k}: recovered the prefix {matched:?} of {landed} landed log pages"
            );
            rec.check_invariants();
        }
    }
    let mut rec = reopen_with(cfg(), ftl);
    assert!(state(&mut rec) == prefix(6), "the fault-free run recovers every log page");
}

fn reopen_with(cfg: FtlConfig, ftl: Ftl) -> Ftl {
    Ftl::open(cfg, ftl.into_nand()).expect("recovery must succeed")
}

/// The checkpoint stripes over four lanes, and a slot takes four
/// checkpoints between erases. Nine rounds — plain writes, a flush, one
/// more write left buffered, a checkpoint — take generations 1 to 9: slot
/// 1 at its four positions, slot 0 at its second to fourth, then each slot
/// erased again. Crash at every program of the run in every mode: the
/// recovered map is the one at the last flush or checkpoint completed
/// before the crash, or the one after the crashed flush or checkpoint when
/// its last page landed.
#[test]
fn striped_checkpoint_slots_recover_a_durable_state_at_every_crash() {
    let cfg = || {
        FtlConfig::for_capacity_with(256 << 10, 0.3, 512, 8, NandTiming::zero())
            .with_parallelism(4, 1)
    };
    let w = cfg().stripe_width() as u64;
    assert_eq!(w, 4);
    enum Op {
        Write(u64, u8),
        Flush,
        Checkpoint,
    }
    let mut ops = Vec::new();
    for round in 0..2 * w + 1 {
        let fill = round as u8 + 1;
        ops.extend((0..3).map(|i| Op::Write(round * 7 + i * 50, fill)));
        ops.push(Op::Flush);
        ops.push(Op::Write(400 + round, fill));
        ops.push(Op::Checkpoint);
    }
    let durable = |op: &Op| !matches!(op, Op::Write(..));
    let apply = |ftl: &mut Ftl, op: &Op| match *op {
        Op::Write(lpn, fill) => ftl.write(Lpn(lpn), &[fill; 512]),
        Op::Flush => ftl.flush(),
        Op::Checkpoint => ftl.checkpoint(),
    };
    let map = |ftl: &Ftl| -> Vec<_> {
        (0..ftl.config().logical_pages).map(|l| ftl.mapping_of(Lpn(l))).collect()
    };

    // Fault-free: the program count each op ends at and the map after it
    // (`maps[i + 1]` after op `i`).
    let mut ftl = Ftl::new(cfg());
    let handle = ftl.fault_handle();
    let start = handle.programs_seen();
    let (mut ends, mut maps) = (Vec::new(), vec![map(&ftl)]);
    for op in &ops {
        apply(&mut ftl, op).unwrap();
        ends.push(handle.programs_seen() - start);
        maps.push(map(&ftl));
    }
    assert_eq!(ftl.stats().checkpoints, 2 * w + 2, "format's and one per round");
    let erases = ftl.nand().stats().block_erases;
    assert_eq!(erases, (2 * w + 2) * w + 4 * w, "the ring at every checkpoint, each slot twice");

    for mode in FaultMode::ALL {
        for k in 1..=*ends.last().unwrap() {
            let crashed = ends.iter().position(|&e| e >= k).unwrap();
            let mut ftl = Ftl::new(cfg());
            let handle = ftl.fault_handle();
            handle.arm_after_programs(k, mode);
            let failed = ops[..=crashed].iter().any(|op| apply(&mut ftl, op).is_err());
            assert!(failed && handle.is_down(), "{mode:?} at {k} did not crash");
            handle.disarm();
            let rec = reopen_with(cfg(), ftl);
            let got = map(&rec);
            let last = (0..crashed).rev().find(|&i| durable(&ops[i]));
            let landed = durable(&ops[crashed]).then_some(crashed + 1);
            assert!(
                maps[last.map_or(0, |i| i + 1)] == got || landed.is_some_and(|s| maps[s] == got),
                "{mode:?} at program {k} (op {crashed}): the map is neither the one after the last \
                 durable op ({last:?}) nor the one after the crashed op"
            );
            rec.check_invariants();
        }
    }
}
