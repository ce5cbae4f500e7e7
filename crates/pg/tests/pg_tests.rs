//! Tests for the mini-PostgreSQL engine across the three FPW modes.

use mini_pg::{FpwMode, MiniPg, PgConfig};
use nand_sim::NandTiming;
use share_core::{Ftl, FtlConfig};
use share_workloads::{Pgbench, PgbenchConfig};

fn engine(mode: FpwMode, checkpoint_txns: u64) -> MiniPg<Ftl> {
    let cfg = FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, NandTiming::zero());
    MiniPg::create(Ftl::new(cfg), PgConfig { mode, checkpoint_txns, ..Default::default() }).unwrap()
}

#[test]
fn balances_track_transactions() {
    let mut pg = engine(FpwMode::On, 10_000);
    pg.run_txn(5, 1, 0, 100).unwrap();
    pg.run_txn(5, 2, 0, -30).unwrap();
    pg.run_txn(6, 1, 0, 7).unwrap();
    assert_eq!(pg.account_balance(5).unwrap(), 70);
    assert_eq!(pg.account_balance(6).unwrap(), 7);
    assert_eq!(pg.account_balance(7).unwrap(), 0);
    assert_eq!(pg.stats().txns, 3);
}

#[test]
fn fpw_on_logs_full_page_images_once_per_cycle() {
    let mut pg = engine(FpwMode::On, 1_000);
    // Same pages repeatedly: FPIs only on first touch.
    for _ in 0..50 {
        pg.run_txn(1, 1, 0, 1).unwrap();
    }
    let s = pg.stats();
    // Account page, teller page, branch page, history page ≈ 4 FPIs.
    assert!(s.fpi_count >= 3 && s.fpi_count <= 8, "fpi_count {}", s.fpi_count);
    let before = s.fpi_count;
    // Force a checkpoint: the next touches log FPIs again.
    pg.checkpoint().unwrap();
    pg.run_txn(1, 1, 0, 1).unwrap();
    assert!(pg.stats().fpi_count > before);
}

#[test]
fn fpw_off_and_share_log_no_images() {
    for mode in [FpwMode::Off, FpwMode::Share] {
        let mut pg = engine(mode, 1_000);
        for i in 0..100u64 {
            pg.run_txn(i * 37 % 100_000, i % 10, 0, 1).unwrap();
        }
        assert_eq!(pg.stats().fpi_count, 0, "{mode:?}");
        assert!(pg.stats().wal_bytes < 100 * 8 * 80, "{mode:?} WAL too large");
    }
}

#[test]
fn fpw_off_roughly_doubles_throughput() {
    // The paper: "when the full_page_write option was turned off, the
    // transaction throughput approximately doubled".
    let run = |mode: FpwMode| {
        let cfg = FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, NandTiming::default());
        let mut pg =
            MiniPg::create(Ftl::new(cfg), PgConfig { mode, checkpoint_txns: 500, ..Default::default() })
                .unwrap();
        let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 7 });
        let n = 2_000;
        let t0 = pg.clock().now_ns();
        for _ in 0..n {
            let t = gen.next_txn();
            pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
        }
        let secs = (pg.clock().now_ns() - t0) as f64 / 1e9;
        (n as f64 / secs, pg.stats())
    };
    let (tps_on, s_on) = run(FpwMode::On);
    let (tps_off, s_off) = run(FpwMode::Off);
    let speedup = tps_off / tps_on;
    // The paper reports ~2x; our capacitor-less FTL charges a mapping
    // delta-log flush on every fsync, which levels the two modes somewhat.
    assert!(
        speedup > 1.3 && speedup < 6.0,
        "FPW-off speedup {speedup:.2} out of plausible range"
    );
    // WAL reduction should be in the ballpark of the FPI volume.
    assert!(s_on.wal_bytes > 3 * s_off.wal_bytes);
    // Each FPI replaces an 80-byte record with (page + 64) bytes.
    assert_eq!(
        s_on.wal_bytes - s_off.wal_bytes,
        s_on.fpi_bytes + s_on.fpi_count * 64 - s_on.fpi_count * 80
    );
}

#[test]
fn share_mode_matches_off_throughput() {
    let run = |mode: FpwMode| {
        let cfg = FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, NandTiming::default());
        let mut pg =
            MiniPg::create(Ftl::new(cfg), PgConfig { mode, checkpoint_txns: 500, ..Default::default() })
                .unwrap();
        let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 7 });
        let t0 = pg.clock().now_ns();
        for _ in 0..2_000 {
            let t = gen.next_txn();
            pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
        }
        (pg.clock().now_ns() - t0) as f64
    };
    let off = run(FpwMode::Off);
    let share = run(FpwMode::Share);
    let overhead = share / off;
    assert!(
        overhead < 1.15,
        "SHARE mode should cost within a few percent of FPW-off, got {overhead:.3}x"
    );
}

#[test]
fn checkpoints_flush_dirty_pages() {
    let mut pg = engine(FpwMode::Share, 100);
    for i in 0..250u64 {
        pg.run_txn(i, i % 10, 0, 1).unwrap();
    }
    let s = pg.stats();
    assert!(s.checkpoints >= 2);
    assert!(s.pages_flushed > 0);
    // SHARE checkpoints issue share commands instead of second writes.
    assert!(pg.device_stats().share_commands > 0);
}

#[test]
fn balances_survive_many_random_txns() {
    let mut pg = engine(FpwMode::On, 300);
    let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 3 });
    let mut expected = std::collections::HashMap::new();
    for _ in 0..1_000 {
        let t = gen.next_txn();
        pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
        *expected.entry(t.aid).or_insert(0i64) += t.delta;
    }
    for (aid, want) in expected {
        assert_eq!(pg.account_balance(aid).unwrap(), want, "aid {aid}");
    }
}

#[test]
fn txn_commit_retries_through_a_saturated_shared_queue() {
    // Regression: the WAL/data write path used to propagate `QueueFull`
    // out of `write_pages_overlapped` instead of draining and retrying,
    // so commands already in flight on the device's one queue failed
    // this commit. Queue depth 4, preloaded to capacity through the
    // engine's own mount.
    use share_core::{BlockDevice, Lpn, QueuedCmd};
    let ftl_cfg = FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, NandTiming::zero())
        .with_queue_depth(4);
    let mut pg = MiniPg::create(
        Ftl::new(ftl_cfg),
        PgConfig { checkpoint_txns: 10_000, ..Default::default() },
    )
    .unwrap();
    // Dirty several heap pages (accounts spread across pages), then
    // saturate the queue with un-reaped reads and checkpoint: the heap
    // flush is a multi-page queued batch hitting the full queue.
    pg.run_txn(1, 1, 0, 5).unwrap();
    for i in 0..20u64 {
        pg.run_txn(100 + i * 937, i % 10, 0, 1).unwrap();
    }
    let dev = pg.fs_mut().device_mut();
    for _ in 0..4 {
        dev.submit(QueuedCmd::ReadBatch { lpns: &[Lpn(0)] }).unwrap();
    }
    assert_eq!(dev.inflight(), 4, "queue must be saturated");
    pg.checkpoint().unwrap();
    assert_eq!(pg.account_balance(1).unwrap(), 5);
    pg.into_device().check_invariants();
}
