//! Placement-model integration tests: lifetime-class lane separation,
//! stream-aware GC, and the bit-identity guard rails for the per-channel
//! GC lane refactor.

use nand_sim::{BlockId, NandTiming};
use share_core::telemetry::Value;
use share_core::{
    BlockDevice, Ftl, FtlConfig, Lpn, PlacementConfig, Snapshot, CLASS_DEFAULT, CLASS_SHORT,
};
use std::collections::BTreeSet;

/// GC-heavy deterministic overwrite workload on a 1-channel device.
fn run_one_channel() -> (u64, u64, u64, u64, u64) {
    let cfg = FtlConfig::for_capacity_with(64 * 4096, 0.5, 4096, 16, NandTiming::default());
    let mut ftl = Ftl::new(cfg);
    let ps = ftl.page_size();
    // Hot churn interleaved with occasional cold writes: every open block
    // ends up holding a few long-lived pages, so GC victims carry valid
    // survivors and copyback actually runs.
    for i in 0..1000u64 {
        let lpn = if i % 13 == 0 { 24 + (i / 13) % 40 } else { (i * 7) % 24 };
        ftl.write(Lpn(lpn), &vec![(i % 251) as u8; ps]).unwrap();
        if i % 97 == 0 {
            ftl.flush().unwrap();
        }
    }
    ftl.flush().unwrap();
    let s = ftl.stats();
    (
        ftl.clock().now_ns(),
        s.nand.page_programs,
        s.nand.block_erases,
        s.gc_events,
        s.copyback_pages,
    )
}

/// Satellite: per-channel GC lanes must leave the schedule of a 1-channel
/// device pinned. Any drift in program order, GC timing, or copyback
/// volume on one channel changes at least one of these. Captured from the
/// single-GC-lane implementation as (1_069_280_000, 1142, 66, 56, 68);
/// the GC trigger moved from `low` to the soft band, a stated change of
/// simulated behaviour, and the values were recorded again at that PR.
#[test]
fn one_channel_gc_timing_is_bit_identical_to_single_lane() {
    let got = run_one_channel();
    assert_eq!(
        got,
        (1_062_144_000, 1134, 66, 56, 60),
        "(now_ns, page_programs, block_erases, gc_events, copyback_pages) drifted \
         from the recorded single-GC-lane run"
    );
}

/// Blocks holding a set of LPNs, via the live mapping.
fn blocks_of(ftl: &Ftl, lpns: impl Iterator<Item = u64>) -> BTreeSet<BlockId> {
    lpns.map(|l| ftl.nand().geometry().block_of(ftl.mapping_of(Lpn(l)).expect("mapped")))
        .collect()
}

/// Tentpole: with placement on, pages written under a short-lived stream
/// (wal/journal) and a long-lived stream (db) never share a block, and
/// every block carries its class in the NAND tag.
#[test]
fn streams_of_different_classes_never_share_blocks() {
    let cfg = FtlConfig::for_capacity_with(128 * 4096, 0.5, 4096, 16, NandTiming::zero())
        .with_placement(true);
    let mut ftl = Ftl::new(cfg);
    let ps = ftl.page_size();
    let db = ftl.stream_intern("db");
    let wal = ftl.stream_intern("wal");
    for i in 0..48u64 {
        ftl.set_stream(db);
        ftl.write(Lpn(i), &vec![1u8; ps]).unwrap();
        ftl.set_stream(wal);
        ftl.write(Lpn(64 + i % 8), &vec![2u8; ps]).unwrap();
    }
    let db_blocks = blocks_of(&ftl, 0..48);
    let wal_blocks = blocks_of(&ftl, 64..72);
    assert!(db_blocks.is_disjoint(&wal_blocks), "classes must not share blocks");
    for &b in &db_blocks {
        assert_eq!(ftl.nand().block_tag(b), CLASS_DEFAULT as u32);
    }
    for &b in &wal_blocks {
        assert_eq!(ftl.nand().block_tag(b), CLASS_SHORT as u32);
    }
}

/// Tentpole: GC relocates survivors into a block of the victim's class,
/// not a unified GC lane — long-lived data stays in default-class blocks
/// through arbitrarily many collections.
#[test]
fn gc_relocation_preserves_the_victims_class() {
    let cfg = FtlConfig::for_capacity_with(128 * 4096, 0.5, 4096, 16, NandTiming::zero())
        .with_placement(true);
    let mut ftl = Ftl::new(cfg);
    let ps = ftl.page_size();
    let db = ftl.stream_intern("db");
    let wal = ftl.stream_intern("wal");
    // Long-lived data with a churned hot subset (so default-class victims
    // carry survivors), plus a hot journal stream.
    ftl.set_stream(db);
    for i in 0..48u64 {
        ftl.write(Lpn(i), &vec![1u8; ps]).unwrap();
    }
    for round in 0..40u64 {
        ftl.set_stream(db);
        for i in 0..8u64 {
            ftl.write(Lpn(i), &vec![(round % 250) as u8; ps]).unwrap();
        }
        // One cold page per round shares the hot blocks, so default-class
        // victims are mostly-dead but carry a survivor to relocate.
        ftl.write(Lpn(8 + round % 40), &vec![4u8; ps]).unwrap();
        ftl.set_stream(wal);
        for i in 0..8u64 {
            ftl.write(Lpn(64 + i), &vec![3u8; ps]).unwrap();
        }
    }
    let s = ftl.stats();
    assert!(s.gc_events > 0 && s.copyback_pages > 0, "workload must exercise GC copyback");
    // Cold db pages have been relocated by GC; they must still live in
    // default-class blocks, and wal pages in short-lived blocks.
    for &b in &blocks_of(&ftl, 8..48) {
        assert_eq!(ftl.nand().block_tag(b), CLASS_DEFAULT as u32, "db page left its class");
    }
    for &b in &blocks_of(&ftl, 64..72) {
        assert_eq!(ftl.nand().block_tag(b), CLASS_SHORT as u32, "wal page left its class");
    }
}

/// Placement gauges surface in the telemetry snapshot: per-class placed
/// pages, GC relocations, and the enabled flag.
#[test]
fn snapshot_reports_placement_gauges() {
    let cfg = FtlConfig::for_capacity_with(128 * 4096, 0.5, 4096, 16, NandTiming::zero())
        .with_placement(true);
    let mut ftl = Ftl::new(cfg);
    let ps = ftl.page_size();
    let wal = ftl.stream_intern("wal");
    ftl.set_stream(wal);
    for i in 0..10u64 {
        ftl.write(Lpn(64 + i), &vec![2u8; ps]).unwrap();
    }
    let snap = ftl.telemetry_snapshot().unwrap();
    let classes = |snap: &Snapshot| {
        snap.metrics.iter().filter(|m| m.name == "share_placement_open_blocks").count()
    };
    assert_eq!(snap.metric("share_placement_enabled", None), Some(Value::U64(1)));
    assert_eq!(classes(&snap), 3);
    assert_eq!(PlacementConfig::class_label(CLASS_SHORT), "short-lived");
    assert_eq!(
        snap.metric("share_placement_placed_pages_total", Some("short-lived")),
        Some(Value::U64(10))
    );
    assert!(matches!(
        snap.metric("share_placement_open_blocks", Some("short-lived")),
        Some(Value::U64(n)) if n >= 1
    ));

    // Placement off: single default class, label routing inert.
    let off = Ftl::new(FtlConfig::for_capacity_with(128 * 4096, 0.5, 4096, 16, NandTiming::zero()));
    let snap = off.telemetry_snapshot().unwrap();
    assert_eq!(snap.metric("share_placement_enabled", None), Some(Value::U64(0)));
    assert_eq!(classes(&snap), 1);
}

/// A placement-enabled image survives save/load/recovery with its class
/// tags: reopened devices keep relocating by class.
#[test]
fn recovery_preserves_class_separation() {
    let cfg = FtlConfig::for_capacity_with(128 * 4096, 0.5, 4096, 16, NandTiming::zero())
        .with_placement(true);
    let mut ftl = Ftl::new(cfg.clone());
    let ps = ftl.page_size();
    let db = ftl.stream_intern("db");
    let wal = ftl.stream_intern("wal");
    for i in 0..24u64 {
        ftl.set_stream(db);
        ftl.write(Lpn(i), &vec![1u8; ps]).unwrap();
        ftl.set_stream(wal);
        ftl.write(Lpn(64 + i % 8), &vec![2u8; ps]).unwrap();
    }
    ftl.flush().unwrap();
    let nand = ftl.into_nand();
    let ftl = Ftl::open(cfg, nand).unwrap();
    ftl.check_invariants();
    for &b in &blocks_of(&ftl, 0..24) {
        assert_eq!(ftl.nand().block_tag(b), CLASS_DEFAULT as u32);
    }
    for &b in &blocks_of(&ftl, 64..72) {
        assert_eq!(ftl.nand().block_tag(b), CLASS_SHORT as u32);
    }
}
