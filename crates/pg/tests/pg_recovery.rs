//! Crash-recovery tests for mini-PostgreSQL: LSN-gated WAL replay,
//! FPI-based torn-page repair, and transaction atomicity across crashes.
//! The crash sweeps run through the engine harness of `share-crashsweep`.

use mini_pg::{FpwMode, MiniPg, PgConfig};
use nand_sim::{FaultMode, NandTiming};
use share_core::{Ftl, FtlConfig};
use share_crashsweep::{pg_workload::workload, sweep};
use share_workloads::{Pgbench, PgbenchConfig};
use std::collections::HashMap;

fn ftl_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, NandTiming::zero())
}

fn engine(mode: FpwMode, checkpoint_txns: u64) -> MiniPg<Ftl> {
    MiniPg::create(Ftl::new(ftl_cfg()), PgConfig { mode, checkpoint_txns, ..Default::default() })
        .unwrap()
}

fn cfg(mode: FpwMode, checkpoint_txns: u64) -> PgConfig {
    PgConfig { mode, checkpoint_txns, ..Default::default() }
}

#[test]
fn clean_reopen_preserves_balances_all_modes() {
    for mode in [FpwMode::On, FpwMode::Off, FpwMode::Share] {
        let mut pg = engine(mode, 100);
        let mut expected: HashMap<u64, i64> = HashMap::new();
        let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 5 });
        for _ in 0..450 {
            let t = gen.next_txn();
            pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
            *expected.entry(t.aid).or_insert(0) += t.delta;
        }
        let dev = pg.into_device();
        let mut pg2 = MiniPg::open(dev, cfg(mode, 100)).unwrap();
        for (&aid, &want) in &expected {
            assert_eq!(pg2.account_balance(aid).unwrap(), want, "{mode:?} aid {aid}");
        }
    }
}

// Crash at every (strided) program under the faults that drop or complete
// the in-flight write (torn ones: `pg_checksums.rs`): each account reads its
// last committed balance, or the in-flight one.
const NOT_TORN: [FaultMode; 2] = [FaultMode::DroppedWrite, FaultMode::AfterProgram];

#[test]
fn committed_txns_survive_crash_fpw_on() {
    sweep(&workload::<Ftl>(FpwMode::On, 42), &NOT_TORN, 10).assert_clean();
}

#[test]
fn committed_txns_survive_crash_share() {
    sweep(&workload::<Ftl>(FpwMode::Share, 42), &NOT_TORN, 10).assert_clean();
}

#[test]
fn recovery_replays_only_complete_transactions() {
    // Force a crash *during* the WAL flush of a transaction: the trailing
    // partial transaction must vanish entirely (teller/branch/account stay
    // mutually consistent: their balance sums are always equal in TPC-B).
    for crash_at in (20..400u64).step_by(13) {
        let mut pg = engine(FpwMode::On, 10_000);
        pg.fs_mut().device_mut().fault_handle().arm_after_programs(crash_at, FaultMode::TornHalf);
        let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 3 });
        let mut sum_committed = 0i64;
        for _ in 0..2_000 {
            let t = gen.next_txn();
            match pg.run_txn(t.aid, t.tid, t.bid, t.delta) {
                Ok(()) => sum_committed += t.delta,
                Err(_) => break,
            }
        }
        pg.fs_mut().device_mut().fault_handle().disarm();
        let nand = pg.into_device().into_nand();
        let dev = Ftl::open(ftl_cfg(), nand).unwrap();
        let mut pg2 = MiniPg::open(dev, cfg(FpwMode::On, 10_000)).unwrap();
        // Sum of all account balances must equal the committed delta sum —
        // a partial replay of the in-flight txn would break the identity.
        // (Uniform pgbench touches few distinct accounts in 2k txns; we
        // recompute over exactly the touched ones.)
        let mut gen2 = Pgbench::new(&PgbenchConfig { scale: 1, seed: 3 });
        let mut touched = std::collections::HashSet::new();
        for _ in 0..2_000 {
            touched.insert(gen2.next_txn().aid);
        }
        let total: i64 = touched.iter().map(|&aid| pg2.account_balance(aid).unwrap()).sum();
        assert_eq!(
            total, sum_committed,
            "crash {crash_at}: account sum diverged (partial txn replayed?)"
        );
    }
}

#[test]
fn recovery_works_right_after_a_checkpoint() {
    let mut pg = engine(FpwMode::Share, 50);
    let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 8 });
    let mut expected: HashMap<u64, i64> = HashMap::new();
    for _ in 0..150 {
        // Crosses two checkpoints (every 50 txns).
        let t = gen.next_txn();
        pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
        *expected.entry(t.aid).or_insert(0) += t.delta;
    }
    assert!(pg.stats().checkpoints >= 2);
    let nand = pg.into_device().into_nand();
    let dev = Ftl::open(ftl_cfg(), nand).unwrap();
    let mut pg2 = MiniPg::open(dev, cfg(FpwMode::Share, 50)).unwrap();
    for (&aid, &want) in &expected {
        assert_eq!(pg2.account_balance(aid).unwrap(), want, "aid {aid}");
    }
    // The engine keeps working after recovery, including checkpoints.
    for _ in 0..120 {
        let t = gen.next_txn();
        pg2.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
    }
    assert!(pg2.stats().checkpoints >= 1);
}

#[test]
fn replayed_txn_counter_is_reported() {
    let mut pg = engine(FpwMode::On, 10_000); // no checkpoint during the run
    let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 2 });
    for _ in 0..40 {
        let t = gen.next_txn();
        pg.run_txn(t.aid, t.tid, t.bid, t.delta).unwrap();
    }
    let dev = pg.into_device();
    let pg2 = MiniPg::open(dev, cfg(FpwMode::On, 10_000)).unwrap();
    assert_eq!(pg2.stats().replayed_txns, 40);
}
