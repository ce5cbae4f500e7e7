//! Crash-recovery tests for mini-InnoDB over the SHARE FTL.
//!
//! These exercise the paper's §2/§4.3 correctness argument end to end:
//! after any crash, a consistent copy of every page exists either in the
//! database or in the double-write area (DwbOn), or the home location was
//! remapped atomically (Share) — and committed transactions survive via
//! redo. DwbOff demonstrates the torn-page hazard the other modes prevent.
//! The crash sweeps run through the engine harness of `share-crashsweep`.

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use nand_sim::{FaultMode, NandTiming};
use share_core::{BlockDevice, Ftl, FtlConfig, SimpleSsd};
use share_crashsweep::innodb_workload::{cached, large_pages, workload};
use share_crashsweep::sweep;

fn ftl_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, NandTiming::zero())
}

fn engine_cfg(mode: FlushMode) -> InnoDbConfig {
    InnoDbConfig {
        mode,
        pool_pages: 32, // small pool: constant eviction traffic
        flush_batch: 8,
        max_pages: 4096,
        ckpt_redo_bytes: 256 << 10,
        ..Default::default()
    }
}

fn fresh_engine(mode: FlushMode) -> InnoDb<Ftl> {
    let dev = Ftl::new(ftl_cfg());
    let log = standard_log_device(dev.clock().clone());
    InnoDb::create(dev, log, engine_cfg(mode)).unwrap()
}

#[test]
fn clean_shutdown_reopen_all_modes() {
    for mode in
        [FlushMode::DwbOn, FlushMode::DwbOff, FlushMode::Share, FlushMode::AtomicWrite]
    {
        let mut e = fresh_engine(mode);
        for i in 0..500u64 {
            e.update_node(i, &[(i % 251) as u8; 64]).unwrap();
        }
        e.shutdown().unwrap();
        let (data, log) = e.into_devices();
        let mut e2 = InnoDb::open(data, log, engine_cfg(mode)).unwrap();
        for i in 0..500u64 {
            assert_eq!(
                e2.get_node(i).unwrap().map(<[u8]>::to_vec),
                Some(vec![(i % 251) as u8; 64]),
                "mode {:?} lost node {i}",
                mode
            );
        }
    }
}

// Crash at every (strided) program of a run of transactions under all three
// fault modes: each key reads its last committed version, or the in-flight
// one, whole.

#[test]
fn committed_transactions_survive_crash_dwb_on() {
    sweep(&workload::<Ftl>(FlushMode::DwbOn, 42), &FaultMode::ALL, 3).assert_clean();
}

#[test]
fn committed_transactions_survive_crash_share() {
    sweep(&workload::<Ftl>(FlushMode::Share, 42), &FaultMode::ALL, 2).assert_clean();
}

#[test]
fn committed_transactions_survive_crash_atomic_write() {
    sweep(&workload::<Ftl>(FlushMode::AtomicWrite, 42), &FaultMode::ALL, 1).assert_clean();
}

#[test]
fn atomic_write_mode_matches_share_write_volume() {
    // Both eliminate the second write; AtomicWrite also skips the DWB copy
    // (its data write *is* the protected write).
    let run = |mode: FlushMode| {
        let mut e = fresh_engine(mode);
        for round in 0..10u64 {
            for i in 0..800u64 {
                e.update_node(i, &[((i + round) % 251) as u8; 256]).unwrap();
            }
        }
        e.checkpoint().unwrap();
        e.data_device_stats().host_writes
    };
    let dwb = run(FlushMode::DwbOn);
    let share = run(FlushMode::Share);
    let atomic = run(FlushMode::AtomicWrite);
    // SHARE pays one dwb fsync (plus its fs-journal charge) per batch that
    // AtomicWrite avoids entirely, so SHARE sits slightly above.
    let ratio = share as f64 / atomic as f64;
    assert!(
        (0.95..1.40).contains(&ratio),
        "AtomicWrite ({atomic}) and SHARE ({share}) should write similarly"
    );
    assert!(
        dwb as f64 > 1.6 * atomic as f64,
        "DWB-On ({dwb}) should write ~2x AtomicWrite ({atomic})"
    );
}

#[test]
fn atomic_write_protects_multi_device_page_spans() {
    // 16 KiB engine pages in AtomicWrite mode: the batch is atomic per
    // engine page, so no crash point may leave a torn page.
    sweep(&large_pages(42), &FaultMode::ALL, 4).assert_clean();
}

#[test]
fn dwb_repairs_a_torn_home_page() {
    // One big flush batch so every page of the final checkpoint still has
    // its copy in the double-write area (DWB only guarantees repair for
    // the in-flight batch — exactly like real InnoDB).
    let cfg = InnoDbConfig { flush_batch: 64, ..engine_cfg(FlushMode::DwbOn) };
    let dev = Ftl::new(ftl_cfg());
    let log = standard_log_device(dev.clock().clone());
    let mut e = InnoDb::create(dev, log, cfg.clone()).unwrap();
    for i in 0..200u64 {
        e.update_node(i, &[(i % 251) as u8; 64]).unwrap();
    }
    e.checkpoint().unwrap(); // every page flushed: DWB + home both valid

    // Tear a home page behind the engine's back (simulates a torn in-place
    // write whose DWB copy survived). Page 0 of the tablespace.
    let garbage = vec![0xA5u8; 4096];
    let fs = e.fs_mut();
    let ts = fs.lookup("ibdata").unwrap();
    fs.write_page(ts, 0, &garbage).unwrap();
    fs.fsync(ts).unwrap();

    let (data, log) = e.into_devices();
    let mut e2 = InnoDb::open(data, log, cfg).expect("repair from DWB");
    for i in 0..200u64 {
        assert_eq!(e2.get_node(i).unwrap().map(<[u8]>::to_vec), Some(vec![(i % 251) as u8; 64]));
    }
}

#[test]
fn dwb_off_crash_can_leave_unrecoverable_torn_page() {
    // The paper's premise: without a DWB (or SHARE), a crash mid in-place
    // write tears a page that nothing can repair. A page-mapped FTL masks
    // this (a torn program only reverts its mapping), so the hazard is
    // demonstrated where it historically lives: a conventional drive that
    // overwrites sectors in place.
    let report = sweep(&workload::<SimpleSsd>(FlushMode::DwbOff, 42), &[FaultMode::TornHalf], 1);
    let torn = report.failures.iter().filter(|f| f.reason.contains("is torn and unrecoverable"));
    assert!(torn.count() > 0, "expected an unrecoverable torn page in DwbOff mode: {report}");
}

#[test]
fn share_mode_never_tears_pages_across_crash_sweep() {
    // The tree resident, checkpoints recorded with pages still dirty: every
    // node reads an intact committed (or in-flight) version.
    sweep(&cached(42), &FaultMode::ALL, 3).assert_clean();
}

#[test]
fn share_mode_halves_data_device_writes() {
    let run = |mode: FlushMode| -> (u64, u64) {
        let mut e = fresh_engine(mode);
        for round in 0..20u64 {
            for i in 0..200u64 {
                e.update_node(i, &[((i + round) % 251) as u8; 64]).unwrap();
            }
        }
        e.checkpoint().unwrap();
        let s = e.data_device_stats();
        (s.host_writes, e.stats().pages_flushed)
    };
    let (dwb_writes, dwb_flushed) = run(FlushMode::DwbOn);
    let (share_writes, share_flushed) = run(FlushMode::Share);
    assert!(dwb_flushed > 0 && share_flushed > 0);
    // SHARE eliminates the second write of every flushed page.
    let ratio = dwb_writes as f64 / share_writes as f64;
    assert!(
        ratio > 1.6,
        "expected ~2x write reduction, got {ratio:.2} ({dwb_writes} vs {share_writes})"
    );
}

#[test]
fn share_falls_back_when_revmap_exhausted() {
    // A pathologically small reverse map forces the fallback path.
    let mut fcfg = ftl_cfg();
    fcfg.revmap_capacity = 4;
    let dev = Ftl::new(fcfg);
    let log = standard_log_device(dev.clock().clone());
    let mut e = InnoDb::create(dev, log, engine_cfg(FlushMode::Share)).unwrap();
    for round in 0..10u64 {
        for i in 0..200u64 {
            e.update_node(i, &[(round % 251) as u8; 64]).unwrap();
        }
    }
    e.checkpoint().unwrap();
    assert!(e.stats().share_fallbacks > 0, "expected rev-map fallbacks");
    // Data still correct.
    for i in 0..200u64 {
        assert_eq!(e.get_node(i).unwrap().map(<[u8]>::to_vec), Some(vec![9u8; 64]));
    }
}

/// The redo log stamps each page with a CRC it kept up record by record
/// instead of checksumming the page at every flush. Drive appends, partial
/// flushes (a tail page rewritten in place), full-page advances,
/// checkpoints at the write position and behind it, and reopens that go on
/// writing; after every step each log page on the device must carry
/// `crc32c` of its payload, and recovery must replay every record the log
/// acknowledged since its checkpoint.
#[test]
fn redo_pages_carry_the_crc_of_their_payload_through_flushes_checkpoints_and_reopens() {
    use mini_innodb::{CheckpointMeta, Key, RedoBody, RedoLog, RedoRecord};
    use nand_sim::SimClock;
    use share_core::{crc32c, Lpn};
    use share_rng::{Rng, StdRng};

    const PAGES: u64 = 64;
    const LOG_MAGIC: u32 = 0x5244_4F4C;

    /// Every record page on the device: its payload's CRC is the stamped
    /// one. Marks the pages that held records in `seen`.
    fn check_pages(dev: &mut SimpleSsd, seen: &mut [bool]) {
        let mut page = vec![0u8; 4096];
        for lpn in 1..PAGES {
            dev.read(Lpn(lpn), &mut page).unwrap();
            if u32::from_le_bytes(page[0..4].try_into().unwrap()) != LOG_MAGIC {
                continue;
            }
            let stamped = u32::from_le_bytes(page[4..8].try_into().unwrap());
            let used = u16::from_le_bytes(page[8..10].try_into().unwrap()) as usize;
            assert_eq!(stamped, crc32c(&page[16..16 + used]), "log page {lpn} ({used} bytes)");
            assert!(page[16 + used..].iter().all(|&b| b == 0), "log page {lpn}: a stale tail");
            seen[lpn as usize] = true;
        }
    }

    let mut rng = StdRng::seed_from_u64(0x2ED0_C2C0);
    let mut log = RedoLog::format(SimpleSsd::new(4096, PAGES, SimClock::new())).unwrap();
    // Records since the checkpoint, each with the position before it.
    // Every round ends durable, so each of these is acknowledged. A
    // position is that of the log before the record; a reopen renumbers
    // the ring, so the positions before one are dropped.
    let mut since: Vec<(Option<u64>, RedoRecord)> = Vec::new();
    let mut seen = [false; PAGES as usize];
    for round in 0..400u32 {
        for _ in 0..rng.random_range(1..12u32) {
            let lsn = log.next_lsn();
            let len = rng.random_range(0..900usize);
            let body = RedoBody::Upsert {
                page_no: lsn % 97,
                key: Key::node(lsn),
                value: vec![lsn as u8; len],
            };
            since.push((Some(log.position()), RedoRecord { lsn, body: body.clone() }));
            log.append(lsn, &body).unwrap();
        }
        match round % 7 {
            // A checkpoint at the write position or at a record behind it.
            3 | 6 => {
                let later = &since[since.len() / 2..];
                let behind = later.iter().find_map(|(pos, r)| Some((pos.as_ref()?, r)));
                let (pos, ckpt_lsn) = match behind {
                    Some((&pos, r)) if round % 2 == 1 => (pos, r.lsn),
                    _ => (log.position(), since.last().unwrap().1.lsn + 1),
                };
                let meta = CheckpointMeta { ckpt_lsn, root: 1, height: 1, next_page_no: 2 };
                log.write_checkpoint(meta, pos).unwrap();
                since.retain(|(_, r)| r.lsn >= ckpt_lsn);
            }
            _ => log.flush().unwrap(),
        }
        check_pages(log.device_mut(), &mut seen);
        // A reopen that goes on writing from the recovered log.
        if round % 50 == 49 {
            let (back, _, records) = RedoLog::recover(log.into_device()).unwrap();
            let want: Vec<_> = since.iter().map(|(_, r)| r.clone()).collect();
            assert_eq!(records, want, "round {round}: recovery replays every acknowledged record");
            log = back;
            since.iter_mut().for_each(|(pos, _)| *pos = None);
        }
    }
    assert!(seen[1..].iter().all(|&s| s), "the log went round its whole ring");
}
