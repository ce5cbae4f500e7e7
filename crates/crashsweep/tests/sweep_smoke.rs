//! Smoke tier of the crash-point sweep.
//!
//! Strided sweeps over the FTL-level workloads, each crossed with all three
//! fault modes, must visit at least 200 distinct crash points with zero
//! oracle violations, and so must a few points of every engine mode — in
//! seconds: this file runs inside plain `cargo test` and therefore inside
//! `scripts/verify.sh`.
//!
//! The deep soak tier is the same sweep with stride 1 (exhaustive) and
//! larger workloads; it is gated on the `SHARE_CRASH_POINTS` environment
//! variable (see `deep_sweep_soak` below and ROADMAP.md).

use nand_sim::FaultMode;
use share_crashsweep::{
    deep_point_cap, engine_workload, ftl_workload, sweep, CrashWorkload, ENGINE_WORKLOADS,
    FTL_OPS, FTL_WORKLOADS,
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
    // Points per FTL workload, in `FTL_WORKLOADS` order: the GC storm's
    // four-channel run holds ~4/5 of its points.
    let targets = [180, 120, 60, 60, 120, 60, 60];
    let mut visited = 0;
    for (name, target) in FTL_WORKLOADS.iter().zip(targets) {
        visited += run_smoke(ftl_workload(name, 42, FTL_OPS).unwrap().as_ref(), target);
    }
    assert!(
        visited >= 200,
        "smoke tier must visit at least 200 distinct crash points, got {visited}"
    );
}

/// Every safe mode of every engine (innodb also cached and with 16 KiB pages).
fn engine_workloads(seed: u64) -> impl Iterator<Item = Box<dyn CrashWorkload>> {
    ENGINE_WORKLOADS.iter().map(move |name| engine_workload(name, seed).unwrap())
}

/// Every engine mode through the one engine harness; the engines' own
/// suites sweep them densely.
#[test]
fn smoke_sweep_covers_every_engine_mode() {
    for w in engine_workloads(7) {
        run_smoke(w.as_ref(), 8);
    }
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
    // (seed, n) per FTL workload, in `FTL_WORKLOADS` order: a seed of its
    // own for each, 400 rounds of the fixed batch sequence (n / 5), and 800
    // ops of the GC storm (2n).
    let sizes = [
        (1009, 800),
        (1021, 800),
        (0, 2000),
        (1031, 800),
        (1033, 400),
        (1039, 800),
        (1049, 800),
    ];
    let ftl = FTL_WORKLOADS.iter().zip(sizes).map(|(name, (seed, n))| {
        ftl_workload(name, seed, n).unwrap()
    });
    for w in ftl.chain(engine_workloads(1019)) {
        let total = w.crash_points();
        let stride = stride_for(total, cap);
        let report = sweep(w.as_ref(), &FaultMode::ALL, stride);
        println!("deep: {report}");
        report.assert_clean();
    }
}
