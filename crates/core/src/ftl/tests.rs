//! Unit tests of the FTL (compiled through `#[cfg(test)] mod tests;` in `ftl.rs`).

use super::*;
use nand_sim::NandTiming;
use share_telemetry::metric::Value;

fn tiny() -> Ftl {
    // 1 MiB logical, generous OP so GC has room; zero latency for speed.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    Ftl::new(cfg)
}

fn pagev(b: u8, ftl: &Ftl) -> Vec<u8> {
    vec![b; ftl.page_size()]
}

fn read_byte(ftl: &mut Ftl, lpn: Lpn) -> u8 {
    let mut buf = vec![0u8; ftl.page_size()];
    ftl.read(lpn, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == buf[0]), "page not uniform");
    buf[0]
}

#[test]
fn write_read_round_trip() {
    let mut f = tiny();
    f.write(Lpn(7), &pagev(0xAA, &f)).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(7)), 0xAA);
    f.check_invariants();
}

#[test]
fn unwritten_reads_zero() {
    let mut f = tiny();
    assert_eq!(read_byte(&mut f, Lpn(100)), 0);
}

#[test]
fn overwrite_returns_new_data() {
    let mut f = tiny();
    f.write(Lpn(5), &pagev(1, &f)).unwrap();
    f.write(Lpn(5), &pagev(2, &f)).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(5)), 2);
    f.check_invariants();
}

#[test]
fn share_makes_dest_read_src_content() {
    let mut f = tiny();
    f.write(Lpn(1), &pagev(0x11, &f)).unwrap();
    f.write(Lpn(2), &pagev(0x22, &f)).unwrap();
    f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(1)), 0x22);
    assert_eq!(read_byte(&mut f, Lpn(2)), 0x22);
    assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
    assert_eq!(f.refcount_of(Lpn(1)), 2);
    f.check_invariants();
}

#[test]
fn share_consumes_no_data_page_writes() {
    let mut f = tiny();
    f.write(Lpn(1), &pagev(1, &f)).unwrap();
    f.write(Lpn(2), &pagev(2, &f)).unwrap();
    f.flush().unwrap(); // drain buffered deltas so the batch page is isolated
    let before = f.stats();
    f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
    let d = f.stats().delta_since(&before);
    assert_eq!(d.host_writes, 0);
    // Exactly one meta page for the atomic batch.
    assert_eq!(d.meta_page_writes, 1);
    assert_eq!(d.share_commands, 1);
    assert_eq!(d.shared_pages, 1);
}

#[test]
fn share_after_overwrite_of_src_keeps_old_content_for_dest() {
    let mut f = tiny();
    f.write(Lpn(1), &pagev(1, &f)).unwrap();
    f.write(Lpn(2), &pagev(2, &f)).unwrap();
    f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
    // src moves on; dest keeps the shared physical page.
    f.write(Lpn(2), &pagev(3, &f)).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(1)), 2);
    assert_eq!(read_byte(&mut f, Lpn(2)), 3);
    assert_eq!(f.refcount_of(Lpn(1)), 1);
    f.check_invariants();
}

#[test]
fn share_unmapped_src_is_rejected() {
    let mut f = tiny();
    f.write(Lpn(1), &pagev(1, &f)).unwrap();
    assert_eq!(
        f.share(&[SharePair::new(Lpn(1), Lpn(9))]),
        Err(FtlError::SrcUnmapped(Lpn(9)))
    );
    // Mapping untouched.
    assert_eq!(read_byte(&mut f, Lpn(1)), 1);
}

#[test]
fn share_batch_validation() {
    let mut f = tiny();
    for i in 0..4 {
        f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
    }
    assert_eq!(
        f.share(&[SharePair::new(Lpn(1), Lpn(1))]),
        Err(FtlError::InvalidBatch("destination equals source"))
    );
    assert_eq!(
        f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(1), Lpn(3))]),
        Err(FtlError::InvalidBatch("duplicate destination LPN"))
    );
    assert_eq!(
        f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(3), Lpn(1))]),
        Err(FtlError::InvalidBatch("an LPN is both destination and source"))
    );
    let too_big: Vec<SharePair> = (0..f.share_batch_limit() as u64 + 1)
        .map(|i| SharePair::new(Lpn(1000 + i), Lpn(0)))
        .collect();
    assert!(matches!(f.share(&too_big), Err(FtlError::BatchTooLarge { .. })));
    // Failed commands must not mutate state.
    f.check_invariants();
    assert_eq!(f.stats().share_commands, 0);
}

#[test]
fn ranged_share_remaps_every_page() {
    let mut f = tiny();
    for i in 0..8 {
        f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
    }
    for i in 0..4u64 {
        f.write(Lpn(100 + i), &pagev(0xF0 + i as u8, &f)).unwrap();
    }
    f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
    for i in 0..4u64 {
        assert_eq!(read_byte(&mut f, Lpn(i)), 0xF0 + i as u8);
    }
    for i in 4..8u64 {
        assert_eq!(read_byte(&mut f, Lpn(i)), i as u8);
    }
    f.check_invariants();
}

#[test]
fn trim_unmaps_and_reads_zero() {
    let mut f = tiny();
    f.write(Lpn(3), &pagev(9, &f)).unwrap();
    f.trim(Lpn(3), 1).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(3)), 0);
    assert_eq!(f.mapping_of(Lpn(3)), None);
    f.check_invariants();
}

#[test]
fn failed_trim_leaves_the_device_untouched() {
    // A range that runs past the capacity (or overflows) is rejected
    // before the first side effect, sync and queued alike — it used to
    // unmap everything up to the capacity first.
    let mut f = tiny_channels(1);
    let cap = f.capacity_pages();
    for lpn in 0..cap {
        f.write(Lpn(lpn), &pagev(lpn as u8 | 1, &f)).unwrap();
    }
    let mapped = |f: &Ftl| (0..cap).map(|l| f.mapping_of(Lpn(l))).collect::<Vec<_>>();
    let before = (mapped(&f), f.stats(), f.clock().now_ns());
    for (lpn, len) in [(0, u64::MAX), (0, cap + 1), (cap - 1, 2), (cap, 1), (u64::MAX, 2)] {
        let err = f.trim(Lpn(lpn), len).unwrap_err();
        assert!(matches!(err, FtlError::LpnOutOfRange { .. }), "trim({lpn}, {len}): {err:?}");
        f.submit(QueuedCmd::Trim { lpn: Lpn(lpn), len }).unwrap();
        let done = f.reap().pop().unwrap();
        assert!(matches!(done.result, Err(FtlError::LpnOutOfRange { .. })));
        assert_eq!(done.latency_ns(), 0, "a rejected trim costs no device time");
        assert_eq!(before, (mapped(&f), f.stats(), f.clock().now_ns()));
    }
    // The whole range is still a valid trim.
    f.trim(Lpn(0), cap).unwrap();
    assert_eq!(f.stats().trims, cap);
    assert!(mapped(&f).iter().all(Option::is_none));
}

#[test]
fn revmap_full_rejects_whole_batch() {
    let cfg = {
        let mut c = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        c.revmap_capacity = 2;
        c
    };
    let mut f = Ftl::new(cfg);
    for i in 0..8 {
        f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
    }
    // Two shares fit...
    f.share(&[SharePair::new(Lpn(0), Lpn(4)), SharePair::new(Lpn(1), Lpn(5))]).unwrap();
    assert_eq!(f.revmap_len(), 2);
    // ...a third does not, and the whole batch is rejected.
    assert_eq!(
        f.share(&[SharePair::new(Lpn(2), Lpn(6)), SharePair::new(Lpn(3), Lpn(7))]),
        Err(FtlError::RevMapFull { capacity: 2 })
    );
    assert_eq!(f.revmap_len(), 2);
    assert_eq!(read_byte(&mut f, Lpn(2)), 2);
    f.check_invariants();
}

#[test]
fn overwriting_shared_dest_releases_revmap_slot() {
    let mut f = tiny();
    f.write(Lpn(0), &pagev(1, &f)).unwrap();
    f.write(Lpn(1), &pagev(2, &f)).unwrap();
    f.share(&[SharePair::new(Lpn(0), Lpn(1))]).unwrap();
    assert_eq!(f.revmap_len(), 1);
    f.write(Lpn(0), &pagev(3, &f)).unwrap();
    assert_eq!(f.revmap_len(), 0);
    f.check_invariants();
}

#[test]
fn gc_reclaims_space_under_overwrite_pressure() {
    let mut f = tiny();
    let logical = f.capacity_pages();
    // Fill the device, then overwrite half of it repeatedly.
    for i in 0..logical {
        f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
    }
    for round in 0..4u64 {
        for i in 0..logical / 2 {
            f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
        }
    }
    let s = f.stats();
    assert!(s.gc_events > 0, "GC must have run");
    assert!(s.gc_erases > 0);
    assert!(s.waf() > 1.0);
    // All data still readable and correct.
    for i in 0..logical / 2 {
        assert_eq!(read_byte(&mut f, Lpn(i)), ((i + 3) % 251) as u8);
    }
    for i in logical / 2..logical {
        assert_eq!(read_byte(&mut f, Lpn(i)), (i % 251) as u8);
    }
    f.check_invariants();
}

#[test]
fn gc_preserves_shared_pages() {
    let mut f = tiny();
    let logical = f.capacity_pages();
    // Create shared mappings up front.
    f.write(Lpn(0), &pagev(0x5A, &f)).unwrap();
    f.share(&[SharePair::new(Lpn(1), Lpn(0)), SharePair::new(Lpn(2), Lpn(0))]).unwrap();
    // Force many GC cycles with overwrite churn elsewhere.
    for round in 0..6u64 {
        for i in 3..logical {
            f.write(Lpn(i), &pagev(((i * 7 + round) % 251) as u8, &f)).unwrap();
        }
    }
    assert!(f.stats().gc_events > 0);
    // The shared trio still reads the same content through one PPN.
    assert_eq!(read_byte(&mut f, Lpn(0)), 0x5A);
    assert_eq!(read_byte(&mut f, Lpn(1)), 0x5A);
    assert_eq!(read_byte(&mut f, Lpn(2)), 0x5A);
    assert_eq!(f.mapping_of(Lpn(0)), f.mapping_of(Lpn(1)));
    assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
    f.check_invariants();
}

#[test]
fn flush_persists_and_reopen_recovers() {
    let mut f = tiny();
    let cfg = f.config().clone();
    for i in 0..50 {
        f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
    }
    f.share(&[SharePair::new(Lpn(60), Lpn(0))]).unwrap();
    f.flush().unwrap();
    let nand = f.into_nand();
    let mut f2 = Ftl::open(cfg, nand).unwrap();
    for i in 0..50 {
        assert_eq!(read_byte(&mut f2, Lpn(i)), (i + 1) as u8);
    }
    assert_eq!(read_byte(&mut f2, Lpn(60)), 1);
    assert_eq!(f2.mapping_of(Lpn(60)), f2.mapping_of(Lpn(0)));
    f2.check_invariants();
}

#[test]
fn unflushed_writes_may_be_lost_but_old_data_survives() {
    let mut f = tiny();
    let cfg = f.config().clone();
    f.write(Lpn(1), &pagev(1, &f)).unwrap();
    f.flush().unwrap();
    // Overwrite without flush: durability not promised for the new data,
    // but recovery must yield *some* consistent version (here: the old).
    f.write(Lpn(1), &pagev(2, &f)).unwrap();
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    let v = read_byte(&mut f2, Lpn(1));
    assert!(v == 1 || v == 2, "must be old or new, got {v}");
    f2.check_invariants();
}

#[test]
fn crash_mid_share_batch_is_all_or_nothing() {
    let mut f = tiny();
    let cfg = f.config().clone();
    for i in 0..4 {
        f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
    }
    for i in 0..4u64 {
        f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
    }
    f.flush().unwrap();
    // Tear the very next NAND program: that is the atomic batch's log page.
    f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::TornHalf);
    let pairs = SharePair::range(Lpn(0), Lpn(100), 4);
    assert!(f.share(&pairs).is_err());
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    let first = read_byte(&mut f2, Lpn(0));
    let all_old = first == 10;
    for i in 0..4u64 {
        let v = read_byte(&mut f2, Lpn(i));
        if all_old {
            assert_eq!(v, 10 + i as u8, "partial share visible after crash");
        } else {
            assert_eq!(v, 20 + i as u8, "partial share visible after crash");
        }
    }
    f2.check_invariants();
}

#[test]
fn committed_share_survives_crash() {
    let mut f = tiny();
    let cfg = f.config().clone();
    for i in 0..4 {
        f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
    }
    for i in 0..4u64 {
        f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
    }
    f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
    // Crash on the next data write, *after* the share completed.
    f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::AfterProgram);
    let _ = f.write(Lpn(200), &pagev(1, &f));
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    for i in 0..4u64 {
        assert_eq!(read_byte(&mut f2, Lpn(i)), 20 + i as u8);
    }
    f2.check_invariants();
}

#[test]
fn checkpoint_cycles_do_not_lose_data() {
    // Tiny log ring forces frequent checkpoints.
    let mut cfg = FtlConfig::for_capacity_with(256 << 10, 0.5, 4096, 16, NandTiming::zero());
    cfg.log_blocks = 2;
    let mut f = Ftl::new(cfg.clone());
    let logical = f.capacity_pages();
    let rounds = 30u64;
    for round in 0..rounds {
        for i in 0..logical {
            f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
        }
        f.flush().unwrap();
    }
    assert!(f.stats().checkpoints > 1, "expected periodic checkpoints");
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    for i in 0..logical {
        assert_eq!(read_byte(&mut f2, Lpn(i)), ((i + rounds - 1) % 251) as u8);
    }
}

#[test]
fn stats_track_host_and_nand_sides() {
    let mut f = tiny();
    f.write(Lpn(0), &pagev(1, &f)).unwrap();
    f.flush().unwrap();
    let s = f.stats();
    assert_eq!(s.host_writes, 1);
    assert_eq!(s.flushes, 1);
    assert!(s.nand.page_programs >= 2); // data page + delta page
    assert!(s.meta_page_writes >= 1);
}

#[test]
fn out_of_range_lpn_rejected_everywhere() {
    let mut f = tiny();
    let cap = f.capacity_pages();
    let buf = pagev(0, &f);
    let mut rbuf = buf.clone();
    assert!(matches!(f.write(Lpn(cap), &buf), Err(FtlError::LpnOutOfRange { .. })));
    assert!(matches!(f.read(Lpn(cap), &mut rbuf), Err(FtlError::LpnOutOfRange { .. })));
    assert!(matches!(f.trim(Lpn(cap), 1), Err(FtlError::LpnOutOfRange { .. })));
    assert!(matches!(
        f.share(&[SharePair::new(Lpn(cap), Lpn(0))]),
        Err(FtlError::LpnOutOfRange { .. })
    ));
}

#[test]
fn write_atomic_batch_round_trips() {
    let mut f = tiny();
    let imgs: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x30 + i, &f)).collect();
    let batch: Vec<(Lpn, &[u8])> =
        imgs.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
    f.write_atomic(&batch).unwrap();
    for i in 0..8u64 {
        assert_eq!(read_byte(&mut f, Lpn(i)), 0x30 + i as u8);
    }
    assert_eq!(f.stats().host_writes, 8);
    f.check_invariants();
}

#[test]
fn write_atomic_is_all_or_nothing_across_crash() {
    // Sweep crash points across the batch's data programs and its
    // commit (delta) page: recovery must show all-old or all-new.
    for crash_at in 1..=10u64 {
        let mut f = tiny();
        let cfg = f.config().clone();
        let old: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x10 + i, &f)).collect();
        let batch: Vec<(Lpn, &[u8])> =
            old.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
        f.write_atomic(&batch).unwrap();
        f.flush().unwrap();

        let new: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x50 + i, &f)).collect();
        let batch: Vec<(Lpn, &[u8])> =
            new.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
        f.fault_handle().arm_after_programs(crash_at, nand_sim::FaultMode::TornHalf);
        let crashed = f.write_atomic(&batch).is_err();
        f.fault_handle().disarm();
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        let first = read_byte(&mut f2, Lpn(0));
        let base = if first == 0x10 { 0x10 } else { 0x50 };
        for i in 0..8u64 {
            assert_eq!(
                read_byte(&mut f2, Lpn(i)),
                base + i as u8,
                "crash {crash_at} (crashed={crashed}): partial atomic write visible"
            );
        }
        f2.check_invariants();
    }
}

#[test]
fn write_atomic_validates_batches() {
    let mut f = tiny();
    let img = pagev(1, &f);
    assert_eq!(
        f.write_atomic(&[(Lpn(0), img.as_slice()), (Lpn(0), img.as_slice())]),
        Err(FtlError::InvalidBatch("duplicate LPN in atomic write"))
    );
    let too_big: Vec<(Lpn, &[u8])> =
        (0..f.write_atomic_limit() as u64 + 1).map(|i| (Lpn(i), img.as_slice())).collect();
    assert!(matches!(f.write_atomic(&too_big), Err(FtlError::BatchTooLarge { .. })));
    assert_eq!(f.stats().host_writes, 0, "failed batches must not write");
}

#[test]
fn wear_stats_empty_pool_is_all_zero() {
    // A zero-block pool must not report min == u32::MAX / mean == NaN.
    let w = WearStats::from_counts(std::iter::empty::<u32>());
    assert_eq!(w.min_erases, 0);
    assert_eq!(w.max_erases, 0);
    assert_eq!(w.mean_erases, 0.0);
    assert!(!w.mean_erases.is_nan());
}

#[test]
fn wear_stats_from_counts_summarizes() {
    let w = WearStats::from_counts([3u32, 1, 2]);
    assert_eq!(w.min_erases, 1);
    assert_eq!(w.max_erases, 3);
    assert!((w.mean_erases - 2.0).abs() < 1e-12);
}

#[test]
fn wear_rows_summarize_the_pool() {
    let w = WearStats::from_counts([10u32, 20, 30, 40]);
    let rows = w.rows(2, 4);
    let row = |name: &str| rows.iter().find(|m| m.name == name).map(|m| m.value);
    assert_eq!(row("wear_erases_min"), Some(Value::U64(10)));
    assert_eq!(row("wear_erases_max"), Some(Value::U64(40)));
    assert_eq!(row("wear_erases_mean"), Some(Value::F64(25.0)));
    assert_eq!(row("wear_skew"), Some(Value::F64(40.0 / 25.0)));
    assert_eq!(row("free_blocks"), Some(Value::U64(2)));
    assert_eq!(row("data_blocks"), Some(Value::U64(4)));
    assert_eq!(rows.len(), 7);
    // A pool that has never erased reads zero skew, not NaN.
    assert_eq!(WearStats::from_counts([0u32, 0]).skew(), 0.0);
}

#[test]
fn open_reports_recovery_cost_in_stats() {
    let mut f = tiny();
    for i in 0..40u64 {
        f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
    }
    f.flush().unwrap();
    let cfg = f.config().clone();
    let rec = Ftl::open(cfg.clone(), f.into_nand()).unwrap();
    let s = rec.stats();
    assert_eq!(s.recoveries, 1);
    assert!(s.recovery_page_reads > 0, "recovery must scan the image");
    // Recovery programs exactly the fresh closing checkpoint: header +
    // table pages + commit page.
    let table_pages = (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64);
    assert_eq!(s.recovery_page_writes, table_pages + 2);
    // A freshly formatted device, by contrast, has never recovered.
    let fresh = tiny();
    assert_eq!(fresh.stats().recoveries, 0);
    assert_eq!(fresh.stats().recovery_page_writes, 0);
}

#[test]
fn wear_stats_track_erases_and_stay_balanced() {
    let mut f = tiny();
    let logical = f.capacity_pages();
    let w0 = f.wear_stats();
    assert_eq!(w0.max_erases, 0);
    for round in 0..10u64 {
        for i in 0..logical {
            f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
        }
    }
    let w = f.wear_stats();
    assert!(w.max_erases > 0, "churn must cause erases");
    assert!(w.mean_erases > 0.5);
    // Min-erase-count free-block selection keeps wear within a band.
    assert!(
        w.max_erases - w.min_erases <= w.max_erases.max(4),
        "wear spread too wide: {w:?}"
    );
}

#[test]
fn share_timing_is_cheaper_than_write() {
    // With real latencies, sharing N pages must beat writing N pages.
    let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default());
    let mut f = Ftl::new(cfg);
    for i in 0..64u64 {
        f.write(Lpn(i), &pagev(1, &f)).unwrap();
    }
    for i in 0..64u64 {
        f.write(Lpn(100 + i), &pagev(2, &f)).unwrap();
    }
    let t0 = f.clock().now_ns();
    f.share(&SharePair::range(Lpn(0), Lpn(100), 64)).unwrap();
    let share_cost = f.clock().now_ns() - t0;

    let t1 = f.clock().now_ns();
    for i in 0..64u64 {
        f.write(Lpn(200 + i), &pagev(3, &f)).unwrap();
    }
    let write_cost = f.clock().now_ns() - t1;
    assert!(
        share_cost * 10 < write_cost,
        "share ({share_cost} ns) should be >10x cheaper than writes ({write_cost} ns)"
    );
}

fn tiny_channels(channels: u32) -> Ftl {
    let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default())
        .with_parallelism(channels, 1);
    Ftl::new(cfg)
}

#[test]
fn write_batch_round_trips_and_matches_serial_stats() {
    let mut f = tiny_channels(4);
    let ps = f.page_size();
    let pages: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; ps]).collect();
    let batch: Vec<(Lpn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
    f.write_batch(&batch).unwrap();
    assert_eq!(f.stats().host_writes, 32);
    let mut buf = vec![0u8; ps];
    for i in 0..32u64 {
        f.read(Lpn(i), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == i as u8), "lpn {i} diverged");
    }
    f.check_invariants();
}

#[test]
fn read_batch_mixes_mapped_and_unmapped() {
    let mut f = tiny_channels(2);
    let ps = f.page_size();
    f.write(Lpn(1), &pagev(7, &f)).unwrap();
    f.write(Lpn(3), &pagev(9, &f)).unwrap();
    let mut bufs = vec![vec![0xAAu8; ps]; 4];
    {
        let mut reqs: Vec<(Lpn, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (Lpn(i as u64), b.as_mut_slice()))
            .collect();
        f.read_batch(&mut reqs).unwrap();
    }
    assert!(bufs[0].iter().all(|&b| b == 0), "unmapped reads zero");
    assert!(bufs[1].iter().all(|&b| b == 7));
    assert!(bufs[2].iter().all(|&b| b == 0));
    assert!(bufs[3].iter().all(|&b| b == 9));
    assert_eq!(f.stats().host_reads, 4);
}

#[test]
fn write_batch_scales_with_channels() {
    // The same 64-page batch must finish earlier on 8 channels than
    // on 1 — the tentpole's end-to-end claim at device level.
    let mut times = Vec::new();
    for ch in [1u32, 8] {
        let mut f = tiny_channels(ch);
        let ps = f.page_size();
        let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        let t0 = f.clock().now_ns();
        f.write_batch(&batch).unwrap();
        times.push(f.clock().now_ns() - t0);
    }
    assert!(
        times[1] * 2 < times[0],
        "8-channel batch ({} ns) should be >2x faster than 1-channel ({} ns)",
        times[1],
        times[0]
    );
}

#[test]
fn one_channel_write_batch_matches_serial_writes_in_time() {
    // On a single channel the batched path must cost exactly what the
    // serial path costs — batching changes dispatch, not physics.
    let mut serial = tiny_channels(1);
    let ps = serial.page_size();
    let pages: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; ps]).collect();
    let t0 = serial.clock().now_ns();
    for (i, p) in pages.iter().enumerate() {
        serial.write(Lpn(i as u64), p).unwrap();
    }
    let serial_ns = serial.clock().now_ns() - t0;

    let mut batched = tiny_channels(1);
    let batch: Vec<(Lpn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
    let t1 = batched.clock().now_ns();
    batched.write_batch(&batch).unwrap();
    let batched_ns = batched.clock().now_ns() - t1;
    assert_eq!(serial_ns, batched_ns);
}

#[test]
fn share_batch_spans_multiple_log_pages_as_one_command() {
    let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero());
    let mut f = Ftl::new(cfg);
    let limit = f.share_batch_limit();
    let n = limit as u64 + 10; // forces two log-page sub-batches
    for i in 0..n {
        f.write(Lpn(512 + i), &pagev((i % 251) as u8, &f)).unwrap();
    }
    let pairs: Vec<SharePair> =
        (0..n).map(|i| SharePair::new(Lpn(i), Lpn(512 + i))).collect();
    let cmds_before = f.stats().share_commands;
    f.share_batch(&pairs).unwrap();
    assert_eq!(f.stats().share_commands, cmds_before + 1, "one host command");
    assert_eq!(f.stats().shared_pages, n);
    let mut buf = vec![0u8; f.page_size()];
    for i in 0..n {
        f.read(Lpn(i), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == (i % 251) as u8), "pair {i} diverged");
    }
    f.check_invariants();
}

#[test]
fn share_validation_errors_are_unchanged_by_scratch_reuse() {
    // Reusing scratch buffers across commands must not leak state
    // from a failed validation into the next command.
    let mut f = tiny();
    f.write(Lpn(10), &pagev(1, &f)).unwrap();
    assert!(matches!(
        f.share(&[SharePair::new(Lpn(0), Lpn(99))]),
        Err(FtlError::SrcUnmapped(_))
    ));
    assert!(matches!(
        f.share(&[SharePair::new(Lpn(0), Lpn(10)), SharePair::new(Lpn(0), Lpn(10))]),
        Err(FtlError::InvalidBatch("duplicate destination LPN"))
    ));
    // A valid command right after the failures still works.
    f.share(&[SharePair::new(Lpn(0), Lpn(10))]).unwrap();
    let mut buf = vec![0u8; f.page_size()];
    f.read(Lpn(0), &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 1));
    f.check_invariants();
}

/// Drive a mixed, error-free workload through `f` exercising every
/// host op class plus GC/log/checkpoint traffic.
fn mixed_workload(f: &mut Ftl) {
    let ps = f.page_size();
    let logical = f.capacity_pages();
    for round in 0..6u64 {
        for i in 0..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 251) as u8; ps]).unwrap();
        }
    }
    let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; ps]).collect();
    let batch: Vec<(Lpn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
    f.write_batch(&batch).unwrap();
    f.write_atomic(&batch[..8]).unwrap();
    f.share(&[SharePair::new(Lpn(200), Lpn(0))]).unwrap();
    f.share_batch(&SharePair::range(Lpn(210), Lpn(1), 4)).unwrap();
    let mut buf = vec![0u8; ps];
    f.read(Lpn(0), &mut buf).unwrap();
    let mut bufs = vec![vec![0u8; ps]; 4];
    let mut reqs: Vec<(Lpn, &mut [u8])> =
        bufs.iter_mut().enumerate().map(|(i, b)| (Lpn(i as u64), b.as_mut_slice())).collect();
    f.read_batch(&mut reqs).unwrap();
    f.trim(Lpn(220), 3).unwrap();
    f.flush().unwrap();
}

#[test]
fn telemetry_counters_match_device_stats() {
    // A latency histogram records every command of its class, so its
    // count is the command count `DeviceStats` keeps.
    use share_telemetry::OpClass as Op;
    let mut f = tiny();
    mixed_workload(&mut f);
    let s = f.stats();
    let t = f.telemetry().snapshot();
    let n = |op| t.op(op).hist.count;
    assert!(s.gc_events > 0, "workload must trigger GC");
    assert_eq!(s.flushes, n(Op::Flush));
    assert_eq!(s.share_commands, n(Op::Share) + n(Op::ShareBatch));
    assert_eq!(s.gc_events, n(Op::Gc));
    assert_eq!(s.checkpoints, n(Op::Checkpoint));
}

#[test]
fn full_telemetry_leaves_simulated_results_bit_identical() {
    // Same workload, default telemetry vs. everything on (tracing
    // included): the simulated clock, every DeviceStats counter and every
    // latency histogram must match exactly — telemetry and the tracer only
    // read clock values around work that happens anyway, never advance it.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
    let mut plain = Ftl::new(cfg.clone());
    let mut full = Ftl::new(cfg.with_telemetry(share_telemetry::TelemetryConfig::tracing()));
    mixed_workload(&mut plain);
    mixed_workload(&mut full);
    assert_eq!(plain.clock().now_ns(), full.clock().now_ns());
    assert_eq!(plain.stats(), full.stats());
    assert_eq!(plain.telemetry().snapshot().ops, full.telemetry().snapshot().ops);
    // The default device's tracer is off and holds nothing; the full device
    // actually collected the optional data.
    assert!(!plain.tracer().is_enabled());
    assert_eq!(plain.tracer().span_count(), 0);
    assert!(!full.telemetry().snapshot().op(share_telemetry::OpClass::Write).hist.is_empty());
    assert!(full.tracer().span_count() > 0, "traced run must collect spans");
}

#[test]
fn trace_spans_nest_ftl_over_nand_and_export() {
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default())
        .with_telemetry(share_telemetry::TelemetryConfig::tracing());
    let mut f = Ftl::new(cfg);
    f.write(Lpn(3), &pagev(7, &f)).unwrap();
    let spans = f.tracer().spans();
    let write = spans
        .iter()
        .find(|s| s.name == "write" && s.layer == Layer::Ftl)
        .expect("ftl write span");
    assert_eq!(write.track, Track::Command);
    let program = spans
        .iter()
        .find(|s| s.name == "program" && s.layer == Layer::Nand && s.parent == write.id)
        .expect("NAND program leaf hangs off the FTL command span");
    assert!(write.start_ns <= program.start_ns && program.end_ns <= write.end_ns);
    // The export names the command track and re-parses.
    let doc = f.tracer().chrome_json().expect("enabled tracer exports");
    let text = doc.render();
    assert!(text.contains("ftl:command"));
    share_telemetry::json::parse(&text).expect("chrome trace re-parses");
}

#[test]
fn log_flush_inside_host_command_is_its_child_on_the_internal_track() {
    // A delta-log flush triggered mid-command (RAM buffer filled during a
    // large write_batch) runs inside the host command: its span is a child
    // of the command's span on the command track, while the pass itself is
    // drawn on the internal track.
    let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero())
        .with_telemetry(share_telemetry::TelemetryConfig::tracing());
    let mut f = Ftl::new(cfg);
    let ps = f.page_size();
    let n = f.config().deltas_per_page() * 2 + 8; // forces buffered flushes
    let pages: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; ps]).collect();
    let batch: Vec<(Lpn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
    f.write_batch(&batch).unwrap();
    let spans = f.tracer().spans();
    let command = spans.iter().find(|s| s.name == "write_batch").expect("write_batch span");
    assert_eq!(command.track, Track::Command);
    let flushes: Vec<_> =
        spans.iter().filter(|s| s.name == "log_flush" && s.parent == command.id).collect();
    assert!(!flushes.is_empty(), "batch must trigger a mid-command log flush");
    assert!(flushes.iter().all(|s| s.track == Track::Internal));
}

#[test]
fn unit_utilization_snapshot_tracks_channels() {
    let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::default())
        .with_parallelism(4, 1);
    let mut f = Ftl::new(cfg);
    let ps = f.page_size();
    let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
    let batch: Vec<(Lpn, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
    f.write_batch(&batch).unwrap();
    let snap = f.telemetry_snapshot().unwrap();
    assert_eq!(snap.units.len(), 4, "one utilization row per channel-way");
    assert!(snap.now_ns > 0);
    for u in &snap.units {
        assert!(u.busy_ns > 0, "striped batch keeps every unit busy");
        assert!(u.busy_ns <= snap.now_ns, "busy time cannot exceed wall time");
    }
    assert_eq!(snap.units.iter().map(|u| u.channel).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
}

#[test]
fn recovery_is_recorded_as_an_op() {
    let mut f = tiny();
    for i in 0..30u64 {
        f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
    }
    f.flush().unwrap();
    let cfg = f.config().clone();
    let rec = Ftl::open(cfg, f.into_nand()).unwrap();
    let t = rec.telemetry().snapshot();
    use share_telemetry::OpClass as Op;
    let n = |t: &share_telemetry::Snapshot, op| t.op(op).hist.count;
    assert_eq!(n(&t, Op::Recovery), 1);
    let s = rec.stats();
    assert_eq!(s.recoveries, 1);
    // The closing checkpoint is visible both as a Checkpoint op and in
    // DeviceStats.
    assert_eq!(n(&t, Op::Checkpoint), s.checkpoints);
    // A fresh format records its birth checkpoint but no recovery.
    let fresh = tiny();
    let tf = fresh.telemetry().snapshot();
    assert_eq!(n(&tf, Op::Recovery), 0);
    assert_eq!(n(&tf, Op::Checkpoint), 1);
}

#[test]
fn host_commands_and_internal_passes_sit_on_two_tracks() {
    // Every host command's span sits on the command track; every internal
    // pass (here the birth checkpoint and the flush's) on the internal one.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
        .with_telemetry(share_telemetry::TelemetryConfig::tracing());
    let mut f = Ftl::new(cfg);
    for i in 0..10u64 {
        f.write(Lpn(i), &pagev(1, &f)).unwrap();
    }
    f.flush().unwrap();
    let spans = f.tracer().spans();
    let ftl: Vec<_> = spans.iter().filter(|s| s.layer == Layer::Ftl).collect();
    let on = |track: Track| {
        let mut names: Vec<&str> =
            ftl.iter().filter(|s| s.track == track).map(|s| s.name.as_str()).collect();
        names.dedup();
        names
    };
    assert_eq!(on(Track::Command), ["write", "flush"]);
    assert!(on(Track::Internal).contains(&"checkpoint"), "{:?}", on(Track::Internal));
    assert!(ftl.iter().all(|s| matches!(s.track, Track::Command | Track::Internal)));
}

#[test]
fn gc_survives_batched_writes_under_pressure() {
    // Overwrite far more than the pool holds, in batches, across
    // channels: GC must relocate correctly and never eat a page that
    // a batch just programmed.
    let mut f = tiny_channels(4);
    let ps = f.page_size();
    let span = 96u64; // < logical capacity, > data pool working set
    for round in 0..12u8 {
        let pages: Vec<Vec<u8>> = (0..span).map(|i| vec![round ^ (i as u8); ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
    }
    let mut buf = vec![0u8; ps];
    for i in 0..span {
        f.read(Lpn(i), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 11 ^ (i as u8)), "lpn {i} diverged after GC");
    }
    assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
    f.check_invariants();
}

// ----- submission/completion queue ------------------------------------

#[test]
fn queued_write_then_read_round_trips() {
    let mut f = tiny();
    let page = pagev(0x5A, &f);
    let wt = f.submit(QueuedCmd::Write { lpn: Lpn(3), data: page.clone() }).unwrap();
    let done = f.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tag, wt);
    assert!(done[0].is_ok());
    let rt = f.submit(QueuedCmd::Read { lpn: Lpn(3) }).unwrap();
    let done = f.drain();
    assert_eq!(done[0].tag, rt);
    let data = done[0].result.clone().unwrap().into_pages().unwrap();
    assert_eq!(data, page);
    f.check_invariants();
}

#[test]
fn queued_state_is_eager_but_completion_is_deferred() {
    let mut f = tiny_channels(2);
    let page = pagev(0x42, &f);
    let before = f.nand().now_ns();
    f.submit(QueuedCmd::Write { lpn: Lpn(9), data: page.clone() }).unwrap();
    // Submission never moves the clock...
    assert_eq!(f.nand().now_ns(), before);
    assert_eq!(f.inflight(), 1);
    // ...and nothing is due yet under nonzero NAND timing.
    assert!(f.poll().is_empty());
    // But the state transition already happened: a sync read sees it.
    assert_eq!(read_byte(&mut f, Lpn(9)), 0x42);
    let done = f.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(f.inflight(), 0);
}

#[test]
fn queue_full_applies_backpressure() {
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
        .with_queue_depth(2);
    let mut f = Ftl::new(cfg);
    let page = pagev(1, &f);
    f.submit(QueuedCmd::Write { lpn: Lpn(0), data: page.clone() }).unwrap();
    f.submit(QueuedCmd::Write { lpn: Lpn(1), data: page.clone() }).unwrap();
    assert_eq!(
        f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page.clone() }),
        Err(FtlError::QueueFull { depth: 2 })
    );
    // Reaping frees a slot (zero timing: everything is due at once).
    assert!(!f.reap().is_empty());
    f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page }).unwrap();
    f.drain();
}

/// One host command of the sync==queued pin, in a form both paths can
/// issue: LPNs and fill bytes, no borrowed payloads.
#[derive(Debug)]
enum PinOp {
    Write(u64, u8),
    WriteBatch(Vec<(u64, u8)>),
    WriteAtomic(Vec<(u64, u8)>),
    Share(Vec<SharePair>),
    ShareBatch(Vec<SharePair>),
    Trim(u64, u64),
    Flush,
    Read(u64),
    ReadBatch(Vec<u64>),
}

/// A deterministic script over `pages` LPNs that reaches every queued
/// command kind, overwrites the whole range `rounds` times in a
/// permuted order (so GC must relocate), and flushes often enough to
/// fill the delta-log ring and force a checkpoint.
fn pin_script(pages: u64, rounds: u64) -> Vec<PinOp> {
    let fill = |round: u64, lpn: u64| ((round * 67 + lpn * 31) % 255 + 1) as u8;
    let half = pages / 2;
    // Map everything first, so every SHARE source below is mapped.
    let mut ops: Vec<PinOp> = (0..pages / 16)
        .map(|c| PinOp::WriteBatch((c * 16..c * 16 + 16).map(|l| (l, fill(0, l))).collect()))
        .collect();
    for round in 1..=rounds {
        let lpn_at = |i: u64| (i * 173 + round * 311) % pages;
        let mut i = 0;
        while i < pages {
            match (i / 8) % 4 {
                0 => {
                    for k in i..i + 8 {
                        ops.push(PinOp::Write(lpn_at(k), fill(round, lpn_at(k))));
                    }
                }
                1 => ops.push(PinOp::WriteBatch(
                    (i..i + 8).map(|k| (lpn_at(k), fill(round, lpn_at(k)))).collect(),
                )),
                2 => ops.push(PinOp::WriteAtomic(
                    (i..i + 8).map(|k| (lpn_at(k), fill(round, lpn_at(k)))).collect(),
                )),
                _ => {
                    ops.push(PinOp::ReadBatch((i..i + 8).map(lpn_at).collect()));
                    ops.push(PinOp::Read(lpn_at(i)));
                    ops.push(PinOp::Flush);
                }
            }
            i += 8;
        }
        // Remap a few low pages onto high ones, drop two low ones
        // (sources stay mapped), and once push a SHARE submission long
        // enough to span log pages.
        let base = (round * 8) % (half - 8);
        ops.push(PinOp::Share(
            (0..8).map(|k| SharePair::new(Lpn(base + k), Lpn(half + base + k))).collect(),
        ));
        ops.push(PinOp::Trim((round * 7) % (half - 2), 2));
        if round == 2 {
            ops.push(PinOp::ShareBatch(
                (0..half).map(|k| SharePair::new(Lpn(k), Lpn(half + k))).collect(),
            ));
        }
        ops.push(PinOp::Flush);
    }
    ops
}

/// Run `ops` through the blocking methods (`queued == false`) or one
/// `submit` + `reap` per command at queue depth 1, returning the clock,
/// the full counters and an FNV-1a hash over every read payload plus a
/// final sweep of the whole logical range.
fn run_pin(mut f: Ftl, ops: &[PinOp], queued: bool) -> (u64, DeviceStats, u64) {
    let ps = f.page_size();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    };
    for op in ops {
        // What the vector commands lend, built once for both paths: the
        // queued form borrows exactly what the blocking call borrows.
        let (pages, lpns): (Vec<(Lpn, Vec<u8>)>, Vec<Lpn>) = match op {
            PinOp::WriteBatch(v) | PinOp::WriteAtomic(v) => {
                (v.iter().map(|&(l, b)| (Lpn(l), vec![b; ps])).collect(), Vec::new())
            }
            PinOp::ReadBatch(v) => (Vec::new(), v.iter().map(|&l| Lpn(l)).collect()),
            _ => (Vec::new(), Vec::new()),
        };
        let refs: Vec<(Lpn, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
        if queued {
            let cmd = match op {
                PinOp::Write(l, b) => QueuedCmd::Write { lpn: Lpn(*l), data: vec![*b; ps] },
                PinOp::WriteBatch(_) => QueuedCmd::WriteBatch { pages: &refs },
                PinOp::WriteAtomic(_) => QueuedCmd::WriteAtomic { pages: &refs },
                PinOp::Share(pairs) => QueuedCmd::Share { pairs },
                PinOp::ShareBatch(pairs) => QueuedCmd::ShareBatch { pairs },
                PinOp::Trim(l, n) => QueuedCmd::Trim { lpn: Lpn(*l), len: *n },
                PinOp::Flush => QueuedCmd::Flush,
                PinOp::Read(l) => QueuedCmd::Read { lpn: Lpn(*l) },
                PinOp::ReadBatch(_) => QueuedCmd::ReadBatch { lpns: &lpns, buf: Vec::new() },
            };
            f.submit(cmd).unwrap();
            let mut done = f.reap();
            assert_eq!(done.len(), 1);
            match done.pop().unwrap().result.unwrap() {
                CmdOutput::None => {}
                CmdOutput::Pages(flat) => flat.chunks_exact(ps).for_each(&mut fold),
            }
            continue;
        }
        match op {
            PinOp::Write(l, b) => f.write(Lpn(*l), &vec![*b; ps]).unwrap(),
            PinOp::WriteBatch(_) => f.write_batch(&refs).unwrap(),
            PinOp::WriteAtomic(_) => f.write_atomic(&refs).unwrap(),
            PinOp::Share(pairs) => f.share(pairs).unwrap(),
            PinOp::ShareBatch(pairs) => f.share_batch(pairs).unwrap(),
            PinOp::Trim(l, n) => f.trim(Lpn(*l), *n).unwrap(),
            PinOp::Flush => f.flush().unwrap(),
            PinOp::Read(l) => {
                let mut buf = vec![0u8; ps];
                f.read(Lpn(*l), &mut buf).unwrap();
                fold(&buf);
            }
            PinOp::ReadBatch(_) => {
                let mut bufs = vec![vec![0u8; ps]; lpns.len()];
                let mut reqs: Vec<(Lpn, &mut [u8])> = lpns
                    .iter()
                    .copied()
                    .zip(bufs.iter_mut().map(|b| b.as_mut_slice()))
                    .collect();
                f.read_batch(&mut reqs).unwrap();
                bufs.iter().for_each(|b| fold(b));
            }
        }
    }
    let (now, stats) = (f.nand().now_ns(), f.stats());
    let mut buf = vec![0u8; ps];
    for lpn in 0..f.capacity_pages() {
        f.read(Lpn(lpn), &mut buf).unwrap();
        fold(&buf);
    }
    f.check_invariants();
    (now, stats, hash)
}

#[test]
fn qd1_submit_reap_is_bit_identical_to_sync() {
    // One command in flight at a time must cost exactly what the
    // blocking path costs and leave exactly the same device — for every
    // command kind, across GC and a checkpoint. This is the pin that
    // lets the sync methods and `submit` share one command frame and
    // one set of bodies.
    const PAGES: u64 = 256;
    let ops = pin_script(PAGES, 6);
    let device = |channels: u32, over_provision: f64| {
        let cfg = FtlConfig::for_capacity_with(
            PAGES * 4096,
            over_provision,
            4096,
            16,
            NandTiming::default(),
        );
        Ftl::new(cfg.with_parallelism(channels, 1))
    };
    for channels in [1u32, 4] {
        // Roomy device: no GC, so nothing but the command paths differ.
        let (t_sync, s_sync, h_sync) = run_pin(device(channels, 8.0), &ops, false);
        let (t_q, s_q, h_q) = run_pin(device(channels, 8.0), &ops, true);
        assert!(s_sync.gc_events == 0 && s_sync.checkpoints >= 2, "{s_sync:?}");
        assert_eq!(t_sync, t_q, "qd=1 timing diverged at {channels} channels");
        assert_eq!(s_sync, s_q, "qd=1 counters diverged at {channels} channels");
        assert_eq!(h_sync, h_q, "qd=1 contents diverged at {channels} channels");

        // Tight device: the same script now crosses dozens of victims.
        let (t_sync, s_sync, h_sync) = run_pin(device(channels, 0.25), &ops, false);
        let (t_q, s_q, h_q) = run_pin(device(channels, 0.25), &ops, true);
        assert!(
            s_sync.gc_erases >= 4 && s_sync.copyback_pages > 0 && s_sync.checkpoints >= 2,
            "script too short to reach GC and a checkpoint at {channels} channels: {s_sync:?}"
        );
        assert_eq!(h_sync, h_q, "qd=1 contents diverged under GC at {channels} channels");
        assert_eq!(
            (s_sync.host_writes, s_sync.host_reads, s_sync.trims, s_sync.shared_pages),
            (s_q.host_writes, s_q.host_reads, s_q.trims, s_q.shared_pages)
        );
        if channels == 1 {
            assert_eq!(t_sync, t_q, "qd=1 timing diverged under GC");
            assert_eq!(s_sync, s_q, "qd=1 counters diverged under GC");
        }
        // At 4 channels GC is *not* bit-identical, by design rather
        // than by drift: a queued command pins every block it allocates
        // into — copyback destinations included — until the host reaps
        // it, so a drain inside the command cannot re-collect a
        // copyback block it has just topped up and sealed, while the
        // blocking path can. With four copyback lanes and the raised
        // watermarks, drains are long enough here for that to change a
        // victim choice (first at a `write_atomic`, ~500 commands in);
        // from there the two runs are equivalent, not equal.
    }
}

#[test]
fn single_page_commands_are_one_element_batches() {
    // `read` and `write` run the batch bodies on a one-element slice: one
    // seeded stream through them, and through `read_batch` / `write_batch`
    // of one page on a twin, must leave the same device — across GC,
    // copyback and checkpoints, at one channel and at four.
    use share_rng::{Rng, StdRng};
    const PAGES: u64 = 256;
    let aged = |channels: u32| {
        let cfg =
            FtlConfig::for_capacity_with(PAGES * 4096, 0.25, 4096, 16, NandTiming::default());
        let mut f = Ftl::new(cfg.with_parallelism(channels, 1));
        for i in 0..3 * PAGES {
            f.write(Lpn(i * 7 % PAGES), &pagev(i as u8, &f)).unwrap();
        }
        f
    };
    let run = |mut f: Ftl, batch: bool| {
        let mut rng = StdRng::seed_from_u64(47);
        let mut page = vec![0u8; f.page_size()];
        let mut read = Vec::new();
        for _ in 0..3_000 {
            let lpn = Lpn(rng.random_range(0..PAGES));
            match rng.random_range(0..8u32) {
                0..=3 => {
                    page.fill(rng.random());
                    match batch {
                        false => f.write(lpn, &page),
                        true => f.write_batch(&[(lpn, &page[..])]),
                    }
                    .unwrap();
                }
                4..=6 => {
                    match batch {
                        false => f.read(lpn, &mut page),
                        true => f.read_batch(&mut [(lpn, &mut page[..])]),
                    }
                    .unwrap();
                    read.push(page[0]);
                }
                _ => f.trim(lpn, 1).unwrap(),
            }
        }
        let mut image = Vec::new();
        f.nand().save_image(&mut image).unwrap();
        (f.stats(), f.nand().now_ns(), f.nand().busy_ns().to_vec(), read, image)
    };
    for channels in [1u32, 4] {
        let single = run(aged(channels), false);
        let batched = run(aged(channels), true);
        let stats = &single.0;
        assert!(stats.gc_events > 0 && stats.copyback_pages > 0 && stats.checkpoints >= 2);
        assert_eq!(single.0, batched.0, "counters at {channels} channels");
        assert_eq!(single.1, batched.1, "clock at {channels} channels");
        assert_eq!(single.2, batched.2, "unit busy time at {channels} channels");
        assert_eq!(single.3, batched.3, "bytes read at {channels} channels");
        assert!(single.4 == batched.4, "saved images differ at {channels} channels");
    }
}

#[test]
fn queued_commands_overlap_across_channels() {
    // Four single-page writes, submitted before any completes: the
    // block pool stripes them over four channels, so the whole burst
    // must finish in far less than four serial write times.
    let serial = {
        let mut f = tiny_channels(4);
        let t0 = f.nand().now_ns();
        for i in 0..4u64 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        f.nand().now_ns() - t0
    };
    let overlapped = {
        let mut f = tiny_channels(4);
        let t0 = f.nand().now_ns();
        for i in 0..4u64 {
            f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap();
        }
        let done = f.drain();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(Completion::is_ok));
        f.nand().now_ns() - t0
    };
    assert!(
        overlapped * 2 < serial,
        "4 queued writes ({overlapped} ns) should overlap well under half of serial ({serial} ns)"
    );
}

#[test]
fn poll_reap_drain_orderings() {
    let mut f = tiny_channels(4);
    let tags: Vec<CmdTag> = (0..3u64)
        .map(|i| f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap())
        .collect();
    assert_eq!(f.inflight(), 3);
    // reap advances only to the earliest completion.
    let first = f.reap();
    assert!(!first.is_empty());
    assert!(f.inflight() < 3);
    let rest = f.drain();
    assert_eq!(first.len() + rest.len(), 3);
    // Completions come back ordered by completion time.
    let all: Vec<&Completion> = first.iter().chain(rest.iter()).collect();
    for w in all.windows(2) {
        assert!(w[0].complete_ns <= w[1].complete_ns);
    }
    let mut seen: Vec<CmdTag> = all.iter().map(|c| c.tag).collect();
    seen.sort();
    assert_eq!(seen, tags);
    // Queue telemetry gauges reflect the run.
    let snap = f.telemetry_snapshot().unwrap();
    assert_eq!(snap.queue.submitted, 3);
    assert_eq!(snap.queue.reaped, 3);
    assert_eq!(snap.queue.inflight, 0);
    assert_eq!(snap.queue.max_inflight, 3);
    assert_eq!(snap.queue.depth, 32);
}

#[test]
fn queued_errors_surface_in_completions() {
    let mut f = tiny();
    let cap = f.capacity_pages();
    f.submit(QueuedCmd::Read { lpn: Lpn(cap + 1) }).unwrap();
    let done = f.drain();
    assert_eq!(done.len(), 1);
    assert!(matches!(done[0].result, Err(FtlError::LpnOutOfRange { .. })));
}

#[test]
fn deep_queue_under_gc_pressure_never_stalls() {
    // Satellite regression: overwrite several times the pool's working
    // set with a deep queue. Blocks pinned by unreaped commands are
    // GC-ineligible; the raised watermarks must keep GC ahead anyway.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
        .with_parallelism(4, 1)
        .with_queue_depth(16);
    let mut f = Ftl::new(cfg);
    let ps = f.page_size();
    let span = 96u64;
    for round in 0..10u8 {
        for i in 0..span {
            let data = vec![round ^ (i as u8); ps];
            loop {
                match f.submit(QueuedCmd::Write { lpn: Lpn(i), data: data.clone() }) {
                    Ok(_) => break,
                    Err(FtlError::QueueFull { .. }) => {
                        assert!(!f.reap().is_empty());
                    }
                    Err(e) => panic!("queued write failed under pressure: {e}"),
                }
            }
        }
    }
    for c in f.drain() {
        assert!(c.is_ok(), "completion failed: {:?}", c.result);
    }
    assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
    let mut buf = vec![0u8; ps];
    for i in 0..span {
        f.read(Lpn(i), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 9 ^ (i as u8)), "lpn {i} diverged");
    }
    f.check_invariants();
}

#[test]
fn queued_batches_round_trip() {
    let mut f = tiny_channels(4);
    let ps = f.page_size();
    let pages: Vec<(Lpn, Vec<u8>)> =
        (0..20u64).map(|i| (Lpn(i), vec![(i % 251) as u8; ps])).collect();
    let refs: Vec<(Lpn, &[u8])> = pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
    f.submit(QueuedCmd::WriteBatch { pages: &refs[..16] }).unwrap();
    f.submit(QueuedCmd::WriteAtomic { pages: &refs[16..] }).unwrap();
    assert!(f.drain().iter().all(Completion::is_ok));
    let lpns: Vec<Lpn> = (0..20).map(Lpn).collect();
    f.submit(QueuedCmd::ReadBatch { lpns: &lpns, buf: Vec::new() }).unwrap();
    let done = f.drain();
    let flat = done[0].result.clone().unwrap().into_pages().unwrap();
    assert_eq!(flat.len(), 20 * ps);
    for (i, b) in flat.chunks_exact(ps).enumerate() {
        assert!(b.iter().all(|&x| x == (i % 251) as u8), "lpn {i} diverged");
    }
    f.check_invariants();
}

// ----- device-level snapshots -----------------------------------------

#[test]
fn snapshot_create_consumes_no_nand_programs() {
    // The tentpole's headline property: freezing a range is O(mapped
    // pages) of RAM metadata — zero NAND page programs, zero reads.
    let mut f = tiny();
    for i in 0..32u64 {
        f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
    }
    f.flush().unwrap();
    let before = f.stats();
    let id = f.snapshot_create("base", Lpn(0), 32).unwrap();
    let spent = f.stats().delta_since(&before);
    assert_eq!(spent.nand.page_programs, 0, "snapshot create must not program NAND");
    assert_eq!(spent.nand.page_reads, 0, "snapshot create must not read NAND");
    assert_eq!(spent.snapshot_creates, 1);
    assert!(f.supports_snapshot());
    let list = f.snapshot_list().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!((list[0].id, list[0].mapped_pages), (id, 32));
    assert_eq!(f.snapshot_list().unwrap()[0].name, "base");
    f.check_invariants();
}

#[test]
fn snapshot_read_is_point_in_time() {
    let mut f = tiny();
    for i in 0..8u64 {
        f.write(Lpn(i), &pagev(7, &f)).unwrap();
    }
    f.snapshot_create("pit", Lpn(0), 8).unwrap();
    // Overwrite and trim the live range after the freeze.
    for i in 0..4u64 {
        f.write(Lpn(i), &pagev(9, &f)).unwrap();
    }
    f.trim(Lpn(4), 4).unwrap();
    let mut buf = vec![0u8; f.page_size()];
    for off in 0..8u64 {
        f.snapshot_read("pit", off, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7), "offset {off} must show frozen content");
    }
    // The live map sees the new world.
    assert_eq!(read_byte(&mut f, Lpn(0)), 9);
    assert_eq!(read_byte(&mut f, Lpn(4)), 0);
    // Reads beyond the frozen range and of unknown names fail cleanly.
    assert!(matches!(
        f.snapshot_read("pit", 8, &mut buf),
        Err(FtlError::InvalidBatch(_))
    ));
    assert_eq!(f.snapshot_read("nope", 0, &mut buf), Err(FtlError::SnapshotNotFound));
    assert_eq!(f.stats().snapshot_reads, 8);
    f.check_invariants();
}

#[test]
fn clone_is_zero_copy_then_cow() {
    let mut f = tiny();
    for i in 0..16u64 {
        f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
    }
    f.snapshot_create("db", Lpn(0), 16).unwrap();
    let before = f.stats();
    let mapped = f.snapshot_clone("db", 0, Lpn(100), 16).unwrap();
    assert_eq!(mapped, 16);
    let spent = f.stats().delta_since(&before);
    // Zero-copy: only mapping-log pages were programmed, no data pages.
    assert_eq!(spent.nand.page_programs, spent.meta_page_writes);
    assert!(spent.meta_page_writes >= 1, "clone deltas must be durably logged");
    assert_eq!(spent.snapshot_clone_pages, 16);
    // Clone reads the frozen content.
    for i in 0..16u64 {
        assert_eq!(read_byte(&mut f, Lpn(100 + i)), (i + 1) as u8);
    }
    // CoW: writing the clone diverges it without touching origin or
    // snapshot.
    f.write(Lpn(100), &pagev(200, &f)).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(100)), 200);
    assert_eq!(read_byte(&mut f, Lpn(0)), 1);
    let mut buf = vec![0u8; f.page_size()];
    f.snapshot_read("db", 0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 1));
    // And writing the origin leaves the clone alone.
    f.write(Lpn(1), &pagev(201, &f)).unwrap();
    assert_eq!(read_byte(&mut f, Lpn(101)), 2);
    f.check_invariants();
}

#[test]
fn clone_window_and_holes() {
    let mut f = tiny();
    // Only even offsets mapped at freeze time.
    for i in (0..8u64).step_by(2) {
        f.write(Lpn(i), &pagev(5, &f)).unwrap();
    }
    f.snapshot_create("sparse", Lpn(0), 8).unwrap();
    // Pre-dirty the clone target so holes must actively unmap.
    for i in 0..4u64 {
        f.write(Lpn(50 + i), &pagev(99, &f)).unwrap();
    }
    // Window: offsets 2..6 (mapped at 2 and 4) onto 50..54.
    let mapped = f.snapshot_clone("sparse", 2, Lpn(50), 4).unwrap();
    assert_eq!(mapped, 2);
    assert_eq!(read_byte(&mut f, Lpn(50)), 5); // offset 2
    assert_eq!(read_byte(&mut f, Lpn(51)), 0); // hole (was 99)
    assert_eq!(read_byte(&mut f, Lpn(52)), 5); // offset 4
    assert_eq!(read_byte(&mut f, Lpn(53)), 0); // hole
    assert!(matches!(
        f.snapshot_clone("sparse", 6, Lpn(0), 4),
        Err(FtlError::InvalidBatch(_))
    ));
    f.check_invariants();
}

#[test]
fn snapshot_pins_survive_gc_churn() {
    // Pinned pages must stay bit-stable across victim collection even
    // when nothing in the live map references them anymore. FIFO
    // victim selection guarantees the frozen blocks actually get
    // collected (greedy would keep preferring emptier churn blocks).
    let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    cfg.gc_policy = crate::config::GcPolicy::Fifo;
    let mut f = Ftl::new(cfg);
    let logical = f.capacity_pages();
    // Interleave the to-be-frozen pages with churn pages so the frozen
    // blocks keep reclaimable garbage (a fully-pinned block is never a
    // victim — erasing it reclaims nothing).
    for i in 0..32u64 {
        f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
    }
    f.snapshot_create("pin", Lpn(0), 32).unwrap();
    // Kill the live references entirely, then churn hard enough to
    // collect every original block several times over.
    f.trim(Lpn(0), 32).unwrap();
    for round in 0..8u64 {
        for i in 32..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
        }
    }
    let s = f.stats();
    assert!(s.gc_events > 0, "churn must trigger GC");
    assert!(
        s.snapshot_pinned_relocations > 0,
        "pinned-only pages must have been relocated at least once"
    );
    let mut buf = vec![0u8; f.page_size()];
    for off in 0..32u64 {
        f.snapshot_read("pin", off, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (off % 251) as u8),
            "offset {off} corrupted by GC"
        );
    }
    f.check_invariants();
}

#[test]
fn snapshot_pins_survive_pipelined_gc_churn() {
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    let mut f = Ftl::new(cfg);
    let logical = f.capacity_pages();
    for i in 0..32u64 {
        f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
    }
    f.snapshot_create("pin", Lpn(0), 32).unwrap();
    f.trim(Lpn(0), 32).unwrap();
    for round in 0..8u64 {
        for i in 32..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
        }
    }
    assert!(f.stats().gc_events > 0, "churn must trigger GC");
    let mut buf = vec![0u8; f.page_size()];
    for off in 0..32u64 {
        f.snapshot_read("pin", off, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (off % 251) as u8),
            "offset {off} corrupted by pipelined GC"
        );
    }
    f.check_invariants();
}

#[test]
fn snapshot_drop_releases_pins() {
    let mut f = tiny();
    for i in 0..16u64 {
        f.write(Lpn(i), &pagev(3, &f)).unwrap();
    }
    f.snapshot_create("tmp", Lpn(0), 16).unwrap();
    f.trim(Lpn(0), 16).unwrap();
    assert_eq!(f.snapshot_table().pinned_pages(), 16);
    f.snapshot_drop("tmp").unwrap();
    assert_eq!(f.snapshot_table().pinned_pages(), 0);
    assert_eq!(f.snapshot_drop("tmp"), Err(FtlError::SnapshotNotFound));
    let mut buf = vec![0u8; f.page_size()];
    assert_eq!(f.snapshot_read("tmp", 0, &mut buf), Err(FtlError::SnapshotNotFound));
    assert_eq!(f.stats().snapshot_drops, 1);
    // The freed space is genuinely reclaimable again.
    let logical = f.capacity_pages();
    for round in 0..6u64 {
        for i in 0..logical / 2 {
            f.write(Lpn(i), &vec![(round % 251) as u8; f.page_size()]).unwrap();
        }
    }
    f.check_invariants();
}

#[test]
fn snapshots_survive_recovery() {
    // Checkpointed table + tagged-delta replay (relocations and
    // tombstones) must reconstruct the same frozen world after a
    // reopen.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    let mut f = Ftl::new(cfg.clone());
    for i in 0..24u64 {
        f.write(Lpn(i), &pagev((i + 10) as u8, &f)).unwrap();
    }
    f.snapshot_create("keep", Lpn(0), 16).unwrap();
    f.snapshot_create("doomed", Lpn(16), 8).unwrap();
    // Persist both, then mutate the table only via the delta log:
    // drop one snapshot and churn so GC relocates pinned pages.
    f.snapshot_persist().unwrap();
    f.snapshot_drop("doomed").unwrap();
    f.trim(Lpn(0), 16).unwrap();
    let logical = f.capacity_pages();
    for round in 0..6u64 {
        for i in 24..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
        }
    }
    f.flush().unwrap();
    let live_before = f.snapshot_table().count();
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    assert_eq!(f2.snapshot_table().count(), live_before);
    let list = f2.snapshot_list().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].name, "keep");
    let mut buf = vec![0u8; f2.page_size()];
    for off in 0..16u64 {
        f2.snapshot_read("keep", off, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (off + 10) as u8),
            "offset {off} diverged across recovery"
        );
    }
    // Ids keep advancing monotonically after recovery.
    let id = f2.snapshot_create("after", Lpn(0), 4).unwrap();
    assert!(id >= 2, "recovered next_id must not reuse dropped ids");
    f2.check_invariants();
}

#[test]
fn snapshot_clone_survives_crash_after_log_flush() {
    // A clone's deltas commit atomically in the log; a crash right
    // after the command returns must preserve the whole clone.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    let mut f = Ftl::new(cfg.clone());
    for i in 0..8u64 {
        f.write(Lpn(i), &pagev(42, &f)).unwrap();
    }
    f.snapshot_create("src", Lpn(0), 8).unwrap();
    f.snapshot_persist().unwrap();
    f.snapshot_clone("src", 0, Lpn(200), 8).unwrap();
    // Crash: no flush/checkpoint after the clone.
    let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
    for i in 0..8u64 {
        assert_eq!(read_byte(&mut f2, Lpn(200 + i)), 42, "clone page {i} lost");
    }
    f2.check_invariants();
}

#[test]
fn unused_snapshot_path_is_bit_identical() {
    // Off-path guarantee: a device that never issues a snapshot
    // command keeps the empty-table fast paths — deterministic clock
    // and stats across identical runs, with every snapshot counter
    // still zero.
    let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
    let mut a = Ftl::new(cfg.clone());
    let mut b = Ftl::new(cfg);
    mixed_workload(&mut a);
    mixed_workload(&mut b);
    assert_eq!(a.clock().now_ns(), b.clock().now_ns());
    assert_eq!(a.stats(), b.stats());
    let s = a.stats();
    assert_eq!(
        (s.snapshot_creates, s.snapshot_clones, s.snapshot_reads),
        (0, 0, 0),
        "mixed workload must not touch the snapshot path"
    );
    assert!(a.snapshot_table().is_empty());
}

#[test]
fn snapshot_gauges_exported() {
    let mut f = tiny();
    for i in 0..8u64 {
        f.write(Lpn(i), &pagev(1, &f)).unwrap();
    }
    f.snapshot_create("g", Lpn(0), 8).unwrap();
    f.snapshot_clone("g", 0, Lpn(100), 8).unwrap();
    let mut buf = vec![0u8; f.page_size()];
    f.snapshot_read("g", 0, &mut buf).unwrap();
    let t = f.telemetry_snapshot().unwrap();
    for (name, want) in [
        ("snapshots_live", 1),
        ("snapshot_frozen_pages", 8),
        ("snapshot_pinned_pages", 8),
        ("snapshot_creates", 1),
        ("snapshot_clones", 1),
        ("snapshot_clone_pages", 8),
        ("snapshot_reads", 1),
    ] {
        assert_eq!(t.metric(name), Some(Value::U64(want)), "{name}");
    }
    let doc = share_telemetry::json::parse(&t.to_json().render()).unwrap();
    let metric = |key| doc.get("metrics").and_then(|m| m.get(key)).and_then(|v| v.as_u64());
    assert_eq!(metric("snapshots_live"), Some(1));
    assert_eq!(metric("snapshot_clone_pages"), Some(8));
}

#[test]
fn snapshot_clone_and_drop_under_gc_churn_keep_invariants() {
    // A clone half of which dies, then the drop of its snapshot, under
    // churn: pinned-only pages are relocated, and the mapping invariants
    // hold after the drop. FIFO selection forces the pinned blocks
    // through GC.
    let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
    cfg.gc_policy = crate::config::GcPolicy::Fifo;
    let mut f = Ftl::new(cfg);
    let logical = f.capacity_pages();
    for i in 0..32u64 {
        f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        f.write(Lpn(96 + i), &pagev(0xEE, &f)).unwrap();
    }
    f.snapshot_create("w", Lpn(0), 32).unwrap();
    f.snapshot_clone("w", 0, Lpn(64), 32).unwrap();
    f.trim(Lpn(0), 32).unwrap();
    // Half the clone dies too, leaving those frozen pages pinned-only.
    f.trim(Lpn(64), 16).unwrap();
    for round in 0..16u64 {
        for i in 96..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
        }
    }
    f.snapshot_drop("w").unwrap();
    for round in 0..8u64 {
        for i in 96..logical / 2 {
            f.write(Lpn(i), &vec![((i + round) % 7) as u8; f.page_size()]).unwrap();
        }
    }
    f.flush().unwrap();
    let s = f.stats();
    assert!(s.gc_events > 0 && s.snapshot_pinned_relocations > 0);
    f.check_invariants();
}
