//! data_checksums: torn heap pages are detected, and only FPW/SHARE can
//! avoid them. The crash sweeps run through the engine harness of
//! `share-crashsweep`.

use mini_pg::{FpwMode, MiniPg, PgConfig, PgError};
use nand_sim::{FaultMode, NandTiming};
use share_core::{Ftl, FtlConfig, SimpleSsd};
use share_crashsweep::{pg_workload::workload, sweep};

#[test]
fn fpw_off_crash_can_tear_heap_pages_checksums_catch_it() {
    // 8 KiB heap pages span two device pages: a crash between the halves
    // of an in-place checkpoint write tears the page, and FPW-Off has
    // nothing to repair it with — data_checksums at least refuses to serve
    // the damage. Demonstrated on a conventional SSD; the page-mapped FTL
    // masks un-synced partial writes (its mapping reverts).
    let report = sweep(&workload::<SimpleSsd>(FpwMode::Off, 42), &[FaultMode::TornHalf], 1);
    let torn = report.failures.iter().filter(|f| f.reason.contains("torn heap page"));
    assert!(torn.count() > 0, "expected data_checksums to catch a torn heap page: {report}");
}

#[test]
fn share_mode_never_trips_data_checksums() {
    sweep(&workload::<Ftl>(FpwMode::Share, 42), &[FaultMode::TornHalf], 5).assert_clean();
}

#[test]
fn fpw_on_never_trips_data_checksums() {
    // FPIs restore any torn page before the heap is read.
    sweep(&workload::<Ftl>(FpwMode::On, 42), &[FaultMode::TornHalf], 5).assert_clean();
}

#[test]
fn a_torn_heap_page_is_an_error() {
    // Tear the second half of account 42's heap page behind the engine's
    // back, after a checkpoint wrote it: FPW-Off has no image to restore.
    let cfg = PgConfig { mode: FpwMode::Off, ..Default::default() };
    let dev = Ftl::new(FtlConfig::for_capacity_with(64 << 20, 0.3, 4096, 64, NandTiming::zero()));
    let mut pg = MiniPg::create(dev, cfg.clone()).unwrap();
    pg.run_txn(42, 1, 0, 250).unwrap();
    pg.checkpoint().unwrap();
    let fs = pg.fs_mut();
    let heap = fs.lookup("pgdata").unwrap();
    fs.write_page(heap, 1, &[0xA5; 4096]).unwrap();
    fs.fsync(heap).unwrap();
    let mut pg = MiniPg::open(pg.into_device(), cfg).unwrap();
    assert_eq!(pg.account_balance(42), Err(PgError::TornPage { page: 0 }));
}
