//! Smoke tier of the crash-point sweep (PR 2 acceptance gate).
//!
//! Strided sweeps over the FTL-level mixed workload and both engine-level
//! workloads, each crossed with all three fault modes. Together they must
//! visit at least 200 distinct crash points with zero oracle violations,
//! in seconds — this file runs inside plain `cargo test` and therefore
//! inside `scripts/verify.sh`.
//!
//! The deep soak tier is the same sweep with stride 1 (exhaustive) and
//! larger workloads; it is gated on the `SHARE_CRASH_POINTS` environment
//! variable (see `deep_sweep_soak` below and ROADMAP.md).

use nand_sim::FaultMode;
use share_crashsweep::{
    deep_point_cap, sweep, CrashWorkload, FtlGcPipelineWorkload, FtlMixedWorkload,
    FtlQueuedWorkload, FtlSnapshotWorkload, FtlStreamWorkload, InnodbShareWorkload,
    SqliteShareWorkload,
};

/// Stride that visits about `target` points of a `total`-point space.
fn stride_for(total: u64, target: u64) -> u64 {
    (total / target).max(1)
}

fn run_smoke(workload: &dyn CrashWorkload, target_points: u64) -> u64 {
    let total = workload.crash_points();
    let report = sweep(workload, &FaultMode::ALL, stride_for(total, target_points));
    println!("smoke: {report}");
    report.assert_clean();
    assert_eq!(report.cases_run, report.points_visited * 3);
    report.points_visited
}

#[test]
fn smoke_sweep_covers_200_points_across_the_stack() {
    let mut visited = 0;
    // FTL-level: mixed writes / trims / shares / atomic batches / checkpoints.
    visited += run_smoke(&FtlMixedWorkload::new(42, 300), 180);
    // Engine-level: mini-SQLite's SHARE journal commit protocol.
    visited += run_smoke(&SqliteShareWorkload::new(7, 24, 10), 45);
    // Engine-level: mini-InnoDB's DWB-via-SHARE flush/checkpoint path.
    visited += run_smoke(&InnodbShareWorkload::new(9, 40, 60), 45);
    // The same engine with the tree resident: checkpoints recorded while
    // pages are still dirty, recovery replaying from below the last
    // durable LSN.
    visited += run_smoke(&InnodbShareWorkload::cached(9, 40, 60), 15);
    // Queued submission path: the same mixed op mix through the NVMe-style
    // queue with commands in flight at the crash (submission boundaries
    // via TornHalf/DroppedWrite, completion boundaries via AfterProgram).
    visited += run_smoke(&FtlQueuedWorkload::new(42, 300, 4), 120);
    // The queued write the engines actually send: 2-8-page `WriteBatch`
    // commands between SHAREs, trims and flushes, each batch checked as a
    // page-by-page prefix.
    visited += run_smoke(&FtlQueuedWorkload::write_batches(60, 4), 60);
    // Three streams on four channels: several open frontiers at every
    // crash boundary.
    visited += run_smoke(&FtlStreamWorkload::new(42, 300), 60);
    // Parked GC: a storm on a tight device keeps half-collected victims
    // across commands, so crashes land at copyback submission/completion
    // boundaries with relocations (and buffered deltas) in flight — on one
    // channel, then on four, where one victim's survivors sit on several
    // GC frontiers (the four-channel run holds ~4/5 of the points).
    visited += run_smoke(&FtlGcPipelineWorkload::new(42, 600), 120);
    // Snapshot lifecycle: crash points around RAM-only creates, atomic
    // clone delta flushes, buffered drop tombstones and pinned-page GC
    // (the snapshot/clone subsystem tentpole).
    visited += run_smoke(&FtlSnapshotWorkload::new(42, 300), 60);
    assert!(
        visited >= 200,
        "smoke tier must visit at least 200 distinct crash points, got {visited}"
    );
}

/// Deep soak: exhaustive (stride 1) sweeps, capped per workload by the
/// `SHARE_CRASH_POINTS` environment variable. Unset → this test is a
/// no-op so plain `cargo test` stays fast.
///
/// Example: `SHARE_CRASH_POINTS=5000 cargo test -p share-crashsweep
/// --release -- deep_sweep_soak --nocapture`
#[test]
fn deep_sweep_soak() {
    let Some(cap) = deep_point_cap() else { return };
    let workloads: [Box<dyn CrashWorkload>; 9] = [
        Box::new(FtlMixedWorkload::new(1009, 800)),
        Box::new(SqliteShareWorkload::new(1013, 32, 25)),
        Box::new(InnodbShareWorkload::new(1019, 48, 150)),
        Box::new(InnodbShareWorkload::cached(1019, 48, 150)),
        Box::new(FtlQueuedWorkload::new(1021, 800, 4)),
        Box::new(FtlQueuedWorkload::write_batches(400, 4)),
        Box::new(FtlStreamWorkload::new(1031, 800)),
        Box::new(FtlGcPipelineWorkload::new(1033, 800)),
        Box::new(FtlSnapshotWorkload::new(1039, 800)),
    ];
    for w in &workloads {
        let total = w.crash_points();
        let stride = stride_for(total, cap);
        let report = sweep(w.as_ref(), &FaultMode::ALL, stride);
        println!("deep: {report}");
        report.assert_clean();
    }
}
