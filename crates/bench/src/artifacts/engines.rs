//! The artifacts that set up an engine of their own: the SHARE clone bench,
//! pgbench's `full_page_writes` and SQLite's journal modes.

use super::Records;
use crate::{f, mb, render_table};
use mini_pg::{FpwMode, MiniPg, PgConfig};
use mini_sqlite::{JournalMode, MiniSqlite, SqliteConfig};
use nand_sim::NandTiming;
use share_core::{Ftl, FtlConfig};
use share_rng::{Rng, StdRng};
use share_workloads::{Pgbench, PgbenchConfig};

const DB_PAGES: u64 = 16_384; // 64 MiB at 4 KiB pages
const PAGE: usize = 4096;
const KEYS: u64 = 40_000;
const VAL: usize = 1_000;
const CHURN_ROUNDS: u64 = 6;
const COW_WRITES: u64 = 4_000;
const READ_SAMPLES: usize = 2_000;

fn quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Clone bench — a zero-copy clone of an aged mini-SQLite database through
/// SHARE: `clone_db` remaps the database's written pages into a new file
/// (the paper's file copy "almost without copying data", §1).
///
/// A 64 MiB database (16384 pages) is populated and aged with overwrite
/// churn until GC has run, then:
///
/// 1. `clone_db` makes the clone. Reported: pages cloned, simulated latency
///    and NAND programs (mapping deltas only, far fewer than the pages
///    cloned — the zero-copy claim), and the reverse map's entries before
///    and after (the table is the default, unbounded one).
/// 2. An overwrite storm on the source breaks the sharing page by page;
///    the copy-on-write WA of that window is reported.
/// 3. Reads of the clone, which the source has long diverged from, are
///    sampled for p50/p99 latency.
///
/// Sizes are fixed; the report is gated byte for byte by
/// `results/bench_clone.txt`.
pub(crate) fn bench_clone(_: &Records) -> String {
    // Logical space for the database, its staging area and one clone;
    // 25 % OP and real NAND timing so latencies and GC are meaningful.
    let dev = Ftl::new(
        FtlConfig::for_capacity_with(3 * DB_PAGES * PAGE as u64, 0.2, PAGE, 128, NandTiming::default())
            .with_parallelism(4, 1),
    );
    let cfg = SqliteConfig {
        mode: JournalMode::Share,
        max_pages: DB_PAGES,
        ..Default::default()
    };
    let mut db = MiniSqlite::create(dev, cfg).unwrap();

    // ---- populate + age ---------------------------------------------------
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for key in 0..KEYS {
        db.put(key, &vec![(key % 251) as u8; VAL]).unwrap();
        if key % 200 == 199 {
            db.commit().unwrap();
        }
    }
    db.commit().unwrap();
    for round in 0..CHURN_ROUNDS {
        for i in 0..KEYS / 4 {
            let key = rng.random_range(0..KEYS);
            db.put(key, &vec![((key + round + 1) % 251) as u8; VAL]).unwrap();
            if i % 200 == 199 {
                db.commit().unwrap();
            }
        }
        db.commit().unwrap();
    }
    assert!(db.device_stats().gc_events > 0, "aging storm never triggered GC — device too large");

    // ---- 1. zero-copy clone -----------------------------------------------
    let clock = db.clock();
    let revmap = |db: &mut MiniSqlite<Ftl>| db.fs_mut().device().revmap_len().to_string();
    let revmap_before = revmap(&mut db);
    let before = db.device_stats();
    let t0 = clock.now_ns();
    db.clone_db("clone.db").unwrap();
    let clone_ns = clock.now_ns() - t0;
    let clone = db.device_stats().delta_since(&before);
    let revmap_after = revmap(&mut db);
    let fs = db.fs_mut();
    let clone_file = fs.lookup("clone.db").unwrap();
    let cloned = fs.len_pages(clone_file).unwrap();

    // ---- 2. copy-on-write storm on the source -----------------------------
    let before = db.device_stats();
    for i in 0..COW_WRITES {
        let key = rng.random_range(0..KEYS);
        db.put(key, &vec![((key + 7 + i) % 251) as u8; VAL]).unwrap();
        if i % 200 == 199 {
            db.commit().unwrap();
        }
    }
    db.commit().unwrap();
    let cow = db.device_stats().delta_since(&before);
    let cow_wa = cow.nand.page_programs as f64 / cow.host_writes.max(1) as f64;

    // ---- 3. clone read latency --------------------------------------------
    let mut buf = vec![0u8; PAGE];
    let mut lat: Vec<u64> = Vec::with_capacity(READ_SAMPLES);
    for _ in 0..READ_SAMPLES {
        let page = rng.random_range(0..cloned);
        let t0 = clock.now_ns();
        db.fs_mut().read_page(clone_file, page, &mut buf).unwrap();
        lat.push(clock.now_ns() - t0);
    }
    lat.sort_unstable();
    let read_p50 = quantile(&lat, 0.50);
    let read_p99 = quantile(&lat, 0.99);

    render_table(
        "bench_clone: SHARE clone of a 64 MiB aged mini-SQLite DB",
        &["metric", "value"],
        &[
            vec!["db pages cloned".into(), cloned.to_string()],
            vec!["clone NAND programs".into(), clone.nand.page_programs.to_string()],
            vec!["clone latency".into(), format!("{} ms", f(clone_ns as f64 / 1e6, 2))],
            vec!["reverse-map entries before".into(), revmap_before],
            vec!["reverse-map entries after".into(), revmap_after],
            vec!["CoW WA (storm window)".into(), f(cow_wa, 3)],
            vec!["clone read p50".into(), format!("{} us", f(read_p50 as f64 / 1e3, 1))],
            vec!["clone read p99".into(), format!("{} us", f(read_p99 as f64 / 1e3, 1))],
        ],
    )
}

/// **§5.3.1 side experiment** — PostgreSQL `full_page_writes` under a
/// pgbench (TPC-B-like) load: FPW-on vs FPW-off vs SHARE.
///
/// Paper: turning FPW off approximately doubles throughput, and the WAL
/// shrinks by roughly the volume of data pages written; SHARE delivers the
/// same without giving up torn-page safety.
pub(crate) fn pgbench_fpw(_: &Records) -> String {
    let txns = 10_000;
    let mut rows = Vec::new();
    let mut tps_on = 0.0;
    for mode in [FpwMode::On, FpwMode::Off, FpwMode::Share] {
        let fcfg = FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 128, NandTiming::default());
        let mut pg = MiniPg::create(
            Ftl::new(fcfg),
            PgConfig { mode, checkpoint_txns: 2_000, ..Default::default() },
        )
        .expect("create engine");
        let mut gen = Pgbench::new(&PgbenchConfig { scale: 1, seed: 7 });
        let t0 = pg.clock().now_ns();
        for _ in 0..txns {
            let t = gen.next_txn();
            pg.run_txn(t.aid, t.tid, t.bid, t.delta).expect("txn");
        }
        let secs = (pg.clock().now_ns() - t0) as f64 / 1e9;
        let tps = txns as f64 / secs;
        if mode == FpwMode::On {
            tps_on = tps;
        }
        let s = pg.stats();
        rows.push(vec![
            mode.label().to_string(),
            f(tps, 0),
            format!("{}x", f(tps / tps_on, 2)),
            mb(s.wal_bytes),
            s.fpi_count.to_string(),
            mb(s.fpi_bytes),
            s.pages_flushed.to_string(),
        ]);
    }
    render_table(
        "pgbench: full_page_writes cost (TPC-B-like, scale 1)",
        &["mode", "tps", "vs FPW-On", "WAL MB", "FPIs", "FPI MB", "ckpt pages"],
        &rows,
    ) + "\nPaper: FPW-off ~doubles throughput; WAL reduction ~= data-page volume.\n\
     SHARE keeps torn-page safety at FPW-off speed.\n"
}

/// **Extension experiment** — SQLite journaling modes on the SHARE device
/// (the paper's §3.3 / §7 future-work claim: "SQLite ... can simply turn
/// \[journaling\] off, because SHARE supports transactional atomicity and
/// durability at the storage level").
///
/// Compares txn throughput and write volume across rollback-journal, WAL,
/// journal-off (unsafe) and SHARE modes on the same update workload.
pub(crate) fn sqlite_modes(_: &Records) -> String {
    let keys = 5_000;
    let txns = 20_000;
    let rows_per_txn = 4u64;

    let mut rows = Vec::new();
    let mut tps_rollback = 0.0;
    for mode in [JournalMode::Rollback, JournalMode::Wal, JournalMode::Off, JournalMode::Share] {
        let fcfg = FtlConfig::for_capacity_with(128 << 20, 0.25, 4096, 128, NandTiming::default());
        let mut db = MiniSqlite::create(
            Ftl::new(fcfg),
            SqliteConfig { mode, max_pages: 16_384, wal_checkpoint_frames: 1_024 },
        )
        .expect("create db");
        let mut rng = StdRng::seed_from_u64(7);

        // Load.
        for k in 0..keys {
            db.put(k, &[(k % 251) as u8; 100]).unwrap();
            if k % 64 == 63 {
                db.commit().unwrap();
            }
        }
        db.commit().unwrap();

        // Measured update transactions.
        let clock = db.clock();
        let s0 = db.device_stats();
        let t0 = clock.now_ns();
        for _ in 0..txns {
            for _ in 0..rows_per_txn {
                let k = rng.random_range(0..keys);
                db.put(k, &[rng.random(); 100]).unwrap();
            }
            db.commit().unwrap();
        }
        if mode == JournalMode::Wal {
            db.checkpoint_wal().unwrap(); // pay any deferred cost
        }
        let elapsed = (clock.now_ns() - t0) as f64 / 1e9;
        let d = db.device_stats().delta_since(&s0);
        let tps = txns as f64 / elapsed;
        if mode == JournalMode::Rollback {
            tps_rollback = tps;
        }
        let st = db.stats();
        rows.push(vec![
            mode.label().to_string(),
            f(tps, 0),
            format!("{}x", f(tps / tps_rollback, 2)),
            mb(d.host_write_bytes),
            st.journal_pages.to_string(),
            st.wal_frames.to_string(),
            st.share_pages.to_string(),
            f(d.waf(), 2),
        ]);
    }
    render_table(
        &format!("SQLite journal modes ({txns} txns x {rows_per_txn} rows, {keys} keys)"),
        &["mode", "tps", "vs rollback", "written MB", "journal pgs", "wal frames", "share pgs", "WAF"],
        &rows,
    ) + "\nExpectation (paper §3.3): SHARE reaches journal-OFF throughput while\n\
     keeping rollback-grade crash safety; rollback pays ~2x writes per page.\n"
}
