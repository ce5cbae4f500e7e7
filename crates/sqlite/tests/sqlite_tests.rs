//! Tests for the mini-SQLite pager: all four journal modes, crash sweeps
//! (through the engine harness of `share-crashsweep`), and the write-cost
//! ordering the paper predicts.

use mini_sqlite::{JournalMode, MiniSqlite, SqliteConfig, SqliteError};
use nand_sim::{FaultMode, NandTiming};
use share_core::{Ftl, FtlConfig, SimpleSsd};
use share_crashsweep::{sqlite_workload::workload, sweep, CrashWorkload};

fn ftl_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, NandTiming::zero())
}

fn pager(mode: JournalMode) -> MiniSqlite<Ftl> {
    MiniSqlite::create(Ftl::new(ftl_cfg()), SqliteConfig { mode, ..Default::default() }).unwrap()
}

fn cfg(mode: JournalMode) -> SqliteConfig {
    SqliteConfig { mode, ..Default::default() }
}

const ALL_MODES: [JournalMode; 4] =
    [JournalMode::Rollback, JournalMode::Wal, JournalMode::Off, JournalMode::Share];

fn val(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 120];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

#[test]
fn put_get_delete_cycle_all_modes() {
    for mode in ALL_MODES {
        let mut db = pager(mode);
        for k in 0..300u64 {
            db.put(k, &val(k, 1)).unwrap();
        }
        db.commit().unwrap();
        for k in 0..300u64 {
            assert_eq!(db.get(k).unwrap(), Some(val(k, 1)), "{mode:?} key {k}");
        }
        for k in (0..300u64).step_by(3) {
            assert!(db.delete(k).unwrap());
        }
        db.commit().unwrap();
        assert_eq!(db.key_count(), 200);
        assert_eq!(db.get(0).unwrap(), None);
        assert_eq!(db.get(1).unwrap(), Some(val(1, 1)));
    }
}

#[test]
fn reopen_preserves_committed_state_all_modes() {
    for mode in ALL_MODES {
        let mut db = pager(mode);
        for k in 0..200u64 {
            db.put(k, &val(k, 1)).unwrap();
        }
        db.commit().unwrap();
        for k in 0..100u64 {
            db.put(k, &val(k, 2)).unwrap();
        }
        db.commit().unwrap();
        let dev = db.into_device();
        let mut db2 = MiniSqlite::open(dev, cfg(mode)).unwrap();
        for k in 0..100u64 {
            assert_eq!(db2.get(k).unwrap(), Some(val(k, 2)), "{mode:?} key {k}");
        }
        for k in 100..200u64 {
            assert_eq!(db2.get(k).unwrap(), Some(val(k, 1)), "{mode:?} key {k}");
        }
        assert_eq!(db2.key_count(), 200);
    }
}

#[test]
fn in_memory_rollback_restores_pre_txn_state() {
    for mode in ALL_MODES {
        let mut db = pager(mode);
        db.put(1, &val(1, 1)).unwrap();
        db.commit().unwrap();
        db.put(1, &val(1, 2)).unwrap();
        db.put(2, &val(2, 1)).unwrap();
        db.delete(1).unwrap();
        db.rollback();
        assert_eq!(db.get(1).unwrap(), Some(val(1, 1)), "{mode:?}");
        assert_eq!(db.get(2).unwrap(), None, "{mode:?}");
    }
}

#[test]
fn grown_records_relocate_across_pages() {
    let mut db = pager(JournalMode::Share);
    db.put(7, &[1u8; 50]).unwrap();
    db.commit().unwrap();
    // Fill the page so the grown record cannot stay.
    for k in 100..130u64 {
        db.put(k, &[0u8; 120]).unwrap();
    }
    db.commit().unwrap();
    db.put(7, &[2u8; 900]).unwrap();
    db.commit().unwrap();
    assert_eq!(db.get(7).unwrap(), Some(vec![2u8; 900]));
    let dev = db.into_device();
    let mut db2 = MiniSqlite::open(dev, cfg(JournalMode::Share)).unwrap();
    assert_eq!(db2.get(7).unwrap(), Some(vec![2u8; 900]));
}

#[test]
fn crash_recovery_yields_consistent_versions_in_safe_modes() {
    // Every key reads its last committed version, or the crashed commit's
    // — all of that commit or none of it.
    for mode in [JournalMode::Rollback, JournalMode::Wal, JournalMode::Share] {
        sweep(&workload::<Ftl>(mode, 42), &FaultMode::ALL, 6).assert_clean();
    }
}

#[test]
fn journal_off_crash_can_leave_unrecoverable_torn_page() {
    // Without a journal a commit overwrites its pages in place, and a
    // conventional drive that overwrites sectors in place keeps the torn
    // half (a page-mapped FTL only reverts the mapping): the checksum must
    // catch it.
    let report = sweep(&workload::<SimpleSsd>(JournalMode::Off, 42), &[FaultMode::TornHalf], 1);
    let torn = report.failures.iter().filter(|f| f.reason.contains("is torn and unrecoverable"));
    assert!(torn.count() > 0, "expected an unrecoverable torn page in JournalMode::Off: {report}");
}

#[test]
fn rollback_journal_rolls_back_interrupted_commits() {
    // Some crash point lands inside the in-place phase of a commit:
    // recovery must detect the hot journal and roll back.
    let w = workload::<Ftl>(JournalMode::Rollback, 42);
    let rolled_back =
        |i| w.recovered(FaultMode::TornHalf, i).unwrap().db.stats().recovered_rollbacks;
    assert!((1..=w.crash_points()).any(|i| rolled_back(i) > 0), "no hot-journal rollback");
}

#[test]
fn share_txn_larger_than_batch_limit_is_rejected() {
    let mut db = MiniSqlite::create(
        Ftl::new(ftl_cfg()),
        SqliteConfig { mode: JournalMode::Share, max_pages: 1_600, ..Default::default() },
    )
    .unwrap();
    // Dirty more pages than one atomic share batch can carry.
    for k in 0..12_000u64 {
        db.put(k, &[1u8; 120]).unwrap();
    }
    assert!(matches!(db.commit(), Err(SqliteError::TxnTooLarge { .. })));
}

#[test]
fn write_costs_order_as_the_paper_predicts() {
    // Per committed page: rollback ~2 writes + journal header, WAL ~2
    // (frame now, checkpoint later), SHARE ~1, OFF ~1.
    let cost = |mode| {
        let mut db = pager(mode);
        for k in 0..400u64 {
            db.put(k, &val(k, 1)).unwrap();
        }
        db.commit().unwrap();
        let w0 = db.device_stats().host_writes;
        for round in 2..8u64 {
            for k in 0..400u64 {
                db.put(k, &val(k, round)).unwrap();
                if k % 10 == 9 {
                    db.commit().unwrap();
                }
            }
        }
        db.commit().unwrap();
        if mode == JournalMode::Wal {
            db.checkpoint_wal().unwrap(); // pay the deferred cost
        }
        db.device_stats().host_writes - w0
    };
    let rollback = cost(JournalMode::Rollback);
    let wal = cost(JournalMode::Wal);
    let off = cost(JournalMode::Off);
    let share = cost(JournalMode::Share);
    assert!(
        rollback as f64 > 1.7 * share as f64,
        "rollback ({rollback}) should cost ~2x SHARE ({share})"
    );
    assert!(wal as f64 > 1.2 * share as f64, "wal ({wal}) should cost more than SHARE ({share})");
    let off_ratio = share as f64 / off as f64;
    assert!(
        (0.8..1.35).contains(&off_ratio),
        "SHARE ({share}) should cost about the same as OFF ({off})"
    );
}

#[test]
fn commit_retries_through_a_saturated_shared_queue() {
    // Regression: commit used to propagate `QueueFull` out of
    // `write_pages_overlapped` instead of draining and retrying, so
    // commands already in flight on the device's one queue failed this
    // commit. Queue depth 4, preloaded to capacity through the engine's
    // own mount.
    use share_core::{BlockDevice, Lpn, QueuedCmd};
    let mut db =
        MiniSqlite::create(Ftl::new(ftl_cfg().with_queue_depth(4)), cfg(JournalMode::Rollback))
            .unwrap();
    // Values near the record-size cap so a handful of keys dirty several
    // pages and the commit takes the queued multi-page path.
    let big = |k: u64, v: u8| {
        let mut x = vec![v; 1_000];
        x[..8].copy_from_slice(&k.to_le_bytes());
        x
    };
    for k in 0..16u64 {
        db.put(k, &big(k, 1)).unwrap();
    }
    db.commit().unwrap();
    // Fill the submission queue to its depth with un-reaped reads.
    let dev = db.fs_mut().device_mut();
    for _ in 0..4 {
        dev.submit(QueuedCmd::ReadBatch { lpns: &[Lpn(0)], buf: Vec::new() }).unwrap();
    }
    assert_eq!(dev.inflight(), 4, "queue must be saturated");
    // This commit's journal and database batches must absorb the
    // back-pressure (reap + retry), not fail.
    for k in 0..16u64 {
        db.put(k, &big(k, 2)).unwrap();
    }
    db.commit().unwrap();
    for k in 0..16u64 {
        assert_eq!(db.get(k).unwrap().unwrap(), big(k, 2), "key {k}");
    }
    db.into_device().check_invariants();
}

#[test]
fn instant_clone_is_zero_copy_and_point_in_time() {
    for mode in ALL_MODES {
        // Small database so the clone's LPN range fits alongside the source.
        let mut db = MiniSqlite::create(
            Ftl::new(ftl_cfg()),
            SqliteConfig { mode, max_pages: 256, ..Default::default() },
        )
        .unwrap();
        for k in 0..300u64 {
            db.put(k, &val(k, 1)).unwrap();
        }
        db.commit().unwrap();
        // A rolled-back transaction's new pages were never written; the
        // clone must not name them.
        for k in 1000..1100u64 {
            db.put(k, &val(k, 9)).unwrap();
        }
        db.rollback();
        if mode == JournalMode::Wal {
            // What the clone's own checkpoint would write is not the clone's.
            db.checkpoint_wal().unwrap();
        }
        let before = db.device_stats();
        // One remap of the written pages: the clone keeps them alive
        // through its own references.
        db.clone_db("clone.db").unwrap();
        let spent = db.device_stats().delta_since(&before);
        // Zero-copy: only mapping metadata (log flushes, fs metadata) is
        // written — far fewer programs than the pages logically cloned.
        let clone_id = db.fs_mut().lookup("clone.db").unwrap();
        let cloned_pages = db.fs_mut().len_pages(clone_id).unwrap();
        assert!(cloned_pages > 0);
        assert!(
            spent.nand.page_programs < cloned_pages,
            "{mode:?}: clone copied data: {} programs for {} pages",
            spent.nand.page_programs,
            cloned_pages
        );
        // Diverge the source after the clone.
        for k in 0..300u64 {
            db.put(k, &val(k, 2)).unwrap();
        }
        db.commit().unwrap();
        // The clone still decodes to version-1 records.
        let fs = db.fs_mut();
        let ps = fs.page_size();
        let mut img = vec![0u8; ps];
        let mut seen = 0u64;
        for p in 0..cloned_pages {
            fs.read_page(clone_id, p, &mut img).unwrap();
            if let Ok(Some(pg)) = mini_sqlite::RecordPage::decode(&img) {
                for (k, v) in &pg.records {
                    if *k < 300 {
                        assert_eq!(v, &val(*k, 1), "{mode:?}: clone key {k} saw post-clone write");
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, 300, "{mode:?}: clone is missing records");
        // Source sees version 2.
        assert_eq!(db.get(7).unwrap(), Some(val(7, 2)));
    }
}

#[test]
fn named_snapshot_outlives_source_churn_all_modes() {
    for mode in ALL_MODES {
        let mut db = MiniSqlite::create(
            Ftl::new(ftl_cfg()),
            SqliteConfig { mode, max_pages: 256, ..Default::default() },
        )
        .unwrap();
        for k in 0..100u64 {
            db.put(k, &val(k, 1)).unwrap();
        }
        db.commit().unwrap();
        db.clone_db("restore.db").unwrap();
        for round in 2..6u64 {
            for k in 0..100u64 {
                db.put(k, &val(k, round)).unwrap();
            }
            db.commit().unwrap();
        }
        // The live database moved on; the clone still reads v1.
        for k in 0..100u64 {
            assert_eq!(db.get(k).unwrap(), Some(val(k, 5)), "{mode:?}: live key {k}");
        }
        let fs = db.fs_mut();
        let restore = fs.lookup("restore.db").unwrap();
        let pages = fs.len_pages(restore).unwrap();
        let ps = fs.page_size();
        let mut img = vec![0u8; ps];
        let mut seen = 0u64;
        for p in 0..pages {
            fs.read_page(restore, p, &mut img).unwrap();
            if let Ok(Some(pg)) = mini_sqlite::RecordPage::decode(&img) {
                for (k, v) in &pg.records {
                    if *k < 100 {
                        assert_eq!(v, &val(*k, 1), "{mode:?}: restored key {k} not at v1");
                        seen += 1;
                    }
                }
            }
        }
        assert_eq!(seen, 100, "{mode:?}: restore missing records");
    }
}
