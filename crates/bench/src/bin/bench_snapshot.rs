//! Snapshot/clone bench — instant clone of an aged mini-SQLite database
//! through the device snapshot subsystem.
//!
//! A 64 MiB database (16384 pages) is populated and aged with overwrite
//! churn until GC has run, then:
//!
//! 1. `snapshot_db` freezes the whole database file. The create must
//!    program **zero** NAND pages — a snapshot is a mapping-table
//!    operation, never a data copy.
//! 2. `clone_from_snapshot` materializes a writable clone. Reported:
//!    simulated latency and NAND programs (mapping deltas only, far
//!    fewer than the pages cloned — the zero-copy claim).
//! 3. An overwrite storm on the source breaks the sharing page by page;
//!    the copy-on-write WA of that window is reported.
//! 4. Point-in-time reads through the frozen snapshot are sampled for
//!    p50/p99 latency while the live file has long diverged.
//!
//! Sizes are fixed (not scaled); the report is gated byte for byte by
//! `results/bench_snapshot.txt`.

use nand_sim::NandTiming;
use share_bench::{f, print_table};
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_rng::{Rng, StdRng};
use mini_sqlite::{JournalMode, MiniSqlite, SqliteConfig};

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

fn main() {
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

    // ---- 1. snapshot create: zero NAND programs ---------------------------
    let clock = db.fs_mut().device().clock().clone();
    db.snapshot_db("base").unwrap();
    let baseline = db.device_stats();
    // `snapshot_db` barriers the pager first; measure the create itself
    // (the part after everything is already durable) by re-snapshotting
    // under a second name on the now-quiescent device.
    let create_t0 = clock.now_ns();
    db.fs_mut().vfs_snapshot("main.db", "probe").unwrap();
    let create_ns = clock.now_ns() - create_t0;
    let create = db.device_stats().delta_since(&baseline);
    db.fs_mut().vfs_snapshot_drop("probe").unwrap();
    let frozen: u64 = db
        .fs_mut()
        .vfs_snapshot_list()
        .unwrap()
        .iter()
        .find(|(n, _)| n == "base")
        .map(|&(_, len)| len)
        .unwrap();

    // ---- 2. zero-copy clone -----------------------------------------------
    let before = db.device_stats();
    let t0 = clock.now_ns();
    db.clone_from_snapshot("base", "clone.db").unwrap();
    let clone_ns = clock.now_ns() - t0;
    let clone = db.device_stats().delta_since(&before);

    // ---- 3. copy-on-write storm on the source -----------------------------
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

    // ---- 4. point-in-time read latency ------------------------------------
    let mut buf = vec![0u8; PAGE];
    let mut lat: Vec<u64> = Vec::with_capacity(READ_SAMPLES);
    for _ in 0..READ_SAMPLES {
        let page = rng.random_range(0..frozen);
        let t0 = clock.now_ns();
        db.fs_mut().vfs_snapshot_read("base", page, &mut buf).unwrap();
        lat.push(clock.now_ns() - t0);
    }
    lat.sort_unstable();
    let read_p50 = quantile(&lat, 0.50);
    let read_p99 = quantile(&lat, 0.99);

    db.drop_snapshot("base").unwrap();

    print_table(
        "snapshot_clone: instant clone of a 64 MiB aged mini-SQLite DB",
        &["metric", "value"],
        &[
            vec!["db pages (frozen)".into(), frozen.to_string()],
            vec!["create NAND programs".into(), create.nand.page_programs.to_string()],
            vec!["create latency".into(), format!("{} us", f(create_ns as f64 / 1e3, 1))],
            vec!["clone latency".into(), format!("{} ms", f(clone_ns as f64 / 1e6, 2))],
            vec!["clone NAND programs".into(), clone.nand.page_programs.to_string()],
            vec!["CoW WA (storm window)".into(), f(cow_wa, 3)],
            vec!["snapshot read p50".into(), format!("{} us", f(read_p50 as f64 / 1e3, 1))],
            vec!["snapshot read p99".into(), format!("{} us", f(read_p99 as f64 / 1e3, 1))],
        ],
    );
}
