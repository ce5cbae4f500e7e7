//! Write-amplification ledger invariants, checked through the whole stack.
//!
//! The ledger blames every background NAND program (GC copyback, delta-log
//! flush, checkpoint) on the foreground stream whose invalidations caused
//! it. The blame is settled at the exact sites where `copyback_pages` and
//! `meta_page_writes` increment, so the per-stream rows must sum to those
//! device-wide counters *exactly* — no rounding residue, no lost pages —
//! regardless of which engine is driving the device.

use share_repro::core::{BlockDevice, Ftl, FtlConfig, Layer, Snapshot, TelemetryConfig, Track};
use share_repro::couch::{CouchConfig, CouchMode, CouchStore};
use share_repro::innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use share_repro::nand::NandTiming;
use share_repro::pg::{FpwMode, MiniPg, PgConfig};
use share_repro::sqlite::{JournalMode, MiniSqlite, SqliteConfig};
use share_repro::vfs::{Vfs, VfsOptions};

fn traced_ftl(mb: u64) -> Ftl {
    Ftl::new(
        FtlConfig::for_capacity_with(mb << 20, 0.3, 4096, 64, NandTiming::zero())
            .with_telemetry(TelemetryConfig::tracing()),
    )
}

/// Σ per-stream blamed background programs must equal the device-wide
/// counters exactly.
fn assert_ledger_sums(engine: &str, snap: &Snapshot, stats: &share_repro::core::DeviceStats) {
    let bg_gc: u64 = snap.wa.iter().map(|w| w.bg_gc).sum();
    let bg_meta: u64 = snap.wa.iter().map(|w| w.bg_log + w.bg_ckpt).sum();
    assert_eq!(
        bg_gc, stats.copyback_pages,
        "{engine}: blamed GC programs != device copyback_pages"
    );
    assert_eq!(
        bg_meta, stats.meta_page_writes,
        "{engine}: blamed log+ckpt programs != device meta_page_writes"
    );
}

#[test]
fn wa_ledger_sums_exactly_across_four_engines() {
    let mut total_copyback = 0u64;
    let mut total_meta = 0u64;

    // ---- InnoDB: load, overwrite storm, checkpoint (DWB on: the
    // write-heaviest flush protocol). -----------------------------------
    {
        let dev = traced_ftl(24);
        let log = standard_log_device(dev.clock().clone());
        let cfg = InnoDbConfig {
            mode: FlushMode::DwbOn,
            pool_pages: 64,
            max_pages: 4_000,
            ..Default::default()
        };
        let mut db = InnoDb::create(dev, log, cfg).unwrap();
        for round in 0..4u64 {
            for id in 0..400u64 {
                if round == 0 {
                    db.add_node(id, &[round as u8; 96]).unwrap();
                } else {
                    db.update_node(id, &[round as u8; 96]).unwrap();
                }
            }
            db.checkpoint().unwrap();
        }
        let stats = db.data_device_stats();
        let snap = db.fs_mut().device().telemetry_snapshot().unwrap();
        assert_ledger_sums("innodb", &snap, &stats);
        eprintln!("innodb: copyback={} meta={} host_writes={} gc_events={}", stats.copyback_pages, stats.meta_page_writes, stats.host_writes, stats.gc_events);
        total_copyback += stats.copyback_pages;
        total_meta += stats.meta_page_writes;
    }

    // ---- Couchbase: append-heavy saves, commit, compaction. ------------
    {
        let fs = Vfs::format(traced_ftl(16), VfsOptions::default()).unwrap();
        let ccfg = CouchConfig {
            mode: CouchMode::Share,
            batch_size: 8,
            node_max_entries: 16,
            ..Default::default()
        };
        let mut store = CouchStore::create(fs, "wa.couch", ccfg).unwrap();
        for round in 0..8u64 {
            for key in 0..400u64 {
                store.save(key, &vec![round as u8; 900]).unwrap();
            }
            store.commit().unwrap();
            // Compaction trims the old file: the invalidations that give
            // GC something to reclaim.
            if round % 3 == 2 {
                store.compact().unwrap();
            }
        }
        store.compact().unwrap();
        let stats = store.device_stats();
        let snap = store.fs_mut().device().telemetry_snapshot().unwrap();
        assert_ledger_sums("couch", &snap, &stats);
        eprintln!("couch: copyback={} meta={} host_writes={} gc_events={}", stats.copyback_pages, stats.meta_page_writes, stats.host_writes, stats.gc_events);
        total_copyback += stats.copyback_pages;
        total_meta += stats.meta_page_writes;
    }

    // ---- SQLite: overwrite storms through the SHARE journal. -----------
    {
        let cfg =
            SqliteConfig { mode: JournalMode::Share, max_pages: 1_024, ..Default::default() };
        let mut db = MiniSqlite::create(traced_ftl(13), cfg).unwrap();
        for round in 0..40u64 {
            // ~4 rows per page. The hot set re-dirties ~150 pages per
            // round, so the churn laps the physical space and GC runs.
            // Write-once cold keys are interleaved every ~2 hot pages:
            // commit order scatters them through every NAND block the
            // staging writes fill, so no sealed block ever goes fully
            // dead and greedy GC must relocate live pages (copyback > 0).
            for key in 0..600u64 {
                db.put(key, &vec![(round + key % 7) as u8; 1_000]).unwrap();
                if key % 9 == 8 {
                    let cold = 10_000 + round * 100 + key / 9;
                    db.put(cold, &[round as u8; 1_000]).unwrap();
                }
            }
            db.commit().unwrap();
        }
        let stats = db.device_stats();
        let snap = db.fs_mut().device().telemetry_snapshot().unwrap();
        assert_ledger_sums("sqlite", &snap, &stats);
        eprintln!("sqlite: copyback={} meta={} host_writes={} gc_events={}", stats.copyback_pages, stats.meta_page_writes, stats.host_writes, stats.gc_events);
        total_copyback += stats.copyback_pages;
        total_meta += stats.meta_page_writes;
    }

    // ---- Postgres: OLTP transactions plus periodic checkpoints. --------
    {
        let cfg = PgConfig { mode: FpwMode::Share, checkpoint_txns: 100, ..Default::default() };
        let mut pg = MiniPg::create(traced_ftl(48), cfg).unwrap();
        for i in 0..600u64 {
            pg.run_txn(i * 13 % 50_000, i % 10, 0, 5).unwrap();
        }
        pg.checkpoint().unwrap();
        let stats = pg.device_stats();
        let snap = pg.fs_mut().device().telemetry_snapshot().unwrap();
        assert_ledger_sums("pg", &snap, &stats);
        eprintln!("pg: copyback={} meta={} host_writes={} gc_events={}", stats.copyback_pages, stats.meta_page_writes, stats.host_writes, stats.gc_events);
        total_copyback += stats.copyback_pages;
        total_meta += stats.meta_page_writes;
    }

    // The invariant is vacuous if no background work ever happened; the
    // mixed workload must exercise both blame paths somewhere.
    assert!(total_copyback > 0, "no engine triggered GC — workload too small");
    assert!(total_meta > 0, "no engine wrote FTL metadata — workload too small");
}

#[test]
fn wa_ledger_sums_exactly_with_pipelined_relocation_in_flight() {
    // A victim stays half-collected across foreground commands, so the
    // ledger is sampled *while* relocations are in
    // flight: blame is settled per budgeted step, not per victim, and
    // the per-stream rows must still sum to the device counters at every
    // intermediate snapshot — not just after jobs complete.
    use share_repro::core::Lpn;
    let pages: u64 = 1024;
    let mut dev = Ftl::new(
        FtlConfig::for_capacity_with(pages * 4096, 0.12, 4096, 32, NandTiming::zero())
            .with_telemetry(TelemetryConfig::tracing()),
    );
    let data = dev.stream_intern("data");
    let journal = dev.stream_intern("journal");

    let mut samples_in_flight = 0u64;
    let mut last_deferrals = 0u64;
    for round in 0..8u64 {
        for i in 0..pages {
            // Mixed lifetimes in a permuted order: no sealed block goes
            // fully dead, so every victim carries live pages to relocate.
            let lpn = (i * 173 + round * 311) % pages;
            if round % (1 + lpn % 4) != 0 {
                continue;
            }
            dev.set_stream(if lpn % 4 == 0 { journal } else { data });
            dev.write(Lpn(lpn), &[(round + 1) as u8; 4096]).unwrap();
            if i % 96 == 95 {
                let stats = dev.stats();
                let snap = dev.telemetry_snapshot().unwrap();
                assert_ledger_sums("pipelined-ftl", &snap, &stats);
                if stats.gc_budget_deferrals > last_deferrals {
                    samples_in_flight += 1;
                }
                last_deferrals = stats.gc_budget_deferrals;
            }
        }
        dev.flush().unwrap();
    }
    let stats = dev.stats();
    let snap = dev.telemetry_snapshot().unwrap();
    assert_ledger_sums("pipelined-ftl", &snap, &stats);
    assert!(stats.copyback_pages > 0, "storm never forced a relocation");
    assert!(
        stats.gc_budget_deferrals > 0 && samples_in_flight > 0,
        "no snapshot was taken with a victim half-collected \
         (deferrals={}, in-flight samples={samples_in_flight})",
        stats.gc_budget_deferrals
    );
}

#[test]
fn wa_ledger_sums_exactly_with_snapshots_pinning_pages() {
    // Snapshots add a third kind of background traffic: GC relocating
    // pinned-only pages (dead in the live map, frozen in a snapshot) and
    // clone/drop deltas through the log. The blame ledger must keep
    // summing exactly to the device counters while a snapshot pins pages
    // across GC churn, while a clone CoW-materializes under its own
    // stream, and after the drop settles the unpinned garbage.
    use share_repro::core::{GcPolicy, Lpn};
    let pages: u64 = 1024;
    let mut cfg = FtlConfig::for_capacity_with(pages * 4096, 0.12, 4096, 32, NandTiming::zero())
        .with_telemetry(TelemetryConfig::tracing());
    // FIFO victims: blocks whose pages are only snapshot-pinned still
    // rotate through GC, forcing pinned relocations (greedy would park
    // them forever as "fully valid").
    cfg.gc_policy = GcPolicy::Fifo;
    let mut dev = Ftl::new(cfg);
    let data = dev.stream_intern("data");
    let cloner = dev.stream_intern("clone");

    dev.set_stream(data);
    // Permuted seed order scatters the to-be-frozen LPNs across blocks:
    // a block holding only frozen pages stays fully effective-valid
    // (live + pinned-dead) and would never be a victim, so each must
    // share its block with churnable neighbors to keep GC interested.
    for i in 0..pages {
        dev.write(Lpn((i * 389) % pages), &[7u8; 4096]).unwrap();
    }
    dev.snapshot_create("base", Lpn(0), 256).unwrap();

    for round in 0..8u64 {
        for i in 0..pages {
            let lpn = (i * 173 + round * 311) % pages;
            if round % (1 + lpn % 3) != 0 {
                continue;
            }
            dev.write(Lpn(lpn), &[(round + 2) as u8; 4096]).unwrap();
            if i % 128 == 127 {
                let stats = dev.stats();
                let snap = dev.telemetry_snapshot().unwrap();
                assert_ledger_sums("snapshot-ftl", &snap, &stats);
            }
        }
        if round == 3 {
            // Mid-churn zero-copy clone: its mapping deltas (and the CoW
            // garbage its dst overwrites leave behind) bill to `clone`.
            dev.set_stream(cloner);
            dev.snapshot_clone("base", 0, Lpn(512), 256).unwrap();
            dev.set_stream(data);
        }
        if round == 6 {
            dev.set_stream(cloner);
            dev.snapshot_drop("base").unwrap();
            dev.set_stream(data);
        }
        dev.flush().unwrap();
    }

    let stats = dev.stats();
    let snap = dev.telemetry_snapshot().unwrap();
    assert_ledger_sums("snapshot-ftl", &snap, &stats);
    assert!(stats.copyback_pages > 0, "storm never forced a relocation");
    assert!(
        stats.snapshot_pinned_relocations > 0,
        "no pinned-only page was ever relocated by GC (copyback={})",
        stats.copyback_pages
    );
    assert_eq!(stats.snapshot_clone_pages, 256);
    // The cloning stream owns real blame rows: its clone deltas flushed
    // through the log, and the garbage its drop unpinned fed GC.
    let clone_row = snap.wa.iter().find(|w| w.label == "clone").unwrap();
    assert!(
        clone_row.bg_log > 0,
        "clone/drop deltas produced no log blame for the clone stream"
    );
}

#[test]
fn dwb_batch_flush_events_carry_the_doublewrite_stream() {
    // Regression for batched-path attribution: the double-write buffer is
    // flushed with one `write_batch` command, and every sub-op of that
    // batch must inherit the file's stream — the command's span has to sit
    // on the `doublewrite` track, not on anonymous host traffic's.
    let dev = traced_ftl(24);
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig {
        mode: FlushMode::DwbOn,
        pool_pages: 32,
        max_pages: 4_000,
        ..Default::default()
    };
    let mut db = InnoDb::create(dev, log, cfg).unwrap();
    for id in 0..200u64 {
        db.add_node(id, &[id as u8; 96]).unwrap();
    }
    db.checkpoint().unwrap();
    assert!(db.stats().dwb_pages_written > 0, "checkpoint must flush through the DWB");

    let device = db.fs_mut().device();
    let snap = device.telemetry_snapshot().unwrap();
    let label = |track: Track| match track {
        Track::Stream(id) => snap.wa[id as usize].label.as_str(),
        _ => "",
    };
    let commands: Vec<_> =
        device.tracer().spans().into_iter().filter(|s| s.layer == Layer::Ftl).collect();
    let dwb_batches: Vec<_> = commands
        .iter()
        .filter(|s| s.name == "write_batch" && label(s.track) == "doublewrite")
        .collect();
    assert!(
        !dwb_batches.is_empty(),
        "no write_batch command attributed to the doublewrite stream; command streams: {:?}",
        commands.iter().map(|s| (s.name.as_str(), label(s.track))).collect::<Vec<_>>()
    );
    assert!(
        dwb_batches.iter().any(|s| s.pages > 1),
        "DWB flush should batch more than one page"
    );
    // The per-stream ledger agrees with the spans.
    let dwb_row = snap.wa.iter().find(|w| w.label == "doublewrite").unwrap();
    assert!(dwb_row.fg_pages >= db.stats().dwb_pages_written);
}
