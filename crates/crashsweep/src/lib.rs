//! # crashsweep — exhaustive power-loss recovery testing
//!
//! The paper's core claim (§2, §4.2) is that SHARE makes two-phase atomic
//! commit protocols safe with a single physical write. That only holds if
//! FTL recovery is correct at *every* crash boundary, not just the few an
//! armed-countdown test happens to hit. This crate turns the fault
//! injection in `nand-sim` into a sweep:
//!
//! 1. run a deterministic workload once, fault-free, and count NAND
//!    program *attempts* via [`nand_sim::FaultHandle::programs_seen`] —
//!    that delta is the crash-point space;
//! 2. re-run the workload once per `(mode, index)` pair, arming the fault
//!    to fire on the `index`-th program with each [`FaultMode`];
//! 3. recover with `Ftl::open` (and the engine's own recovery, for
//!    engine-level workloads) and check a recovery oracle.
//!
//! The FTL-level oracle is **prefix consistency**: ops are applied to a
//! shadow model as the run progresses, and the recovered logical state
//! must equal the model after some *single* prefix `p` of the applied
//! ops, with `p` at least the last explicitly durable op (flush, share,
//! atomic write, checkpoint) and at most the op the crash interrupted
//! (whose effect may or may not have become durable). A half-applied
//! `share` batch matches *no* prefix, so batch atomicity falls out of the
//! same check. On top of that the oracle re-derives refcounts and revmap
//! occupancy from the recovered L2P and asserts the FTL's own invariant
//! walk passes, and it bounds the pages recovery itself wrote. Every FTL
//! workload runs through one harness ([`ftl_workload`]), the engines through
//! another, with a per-key oracle at commit granularity ([`engine_workload`]).
//!
//! Every failure carries an exactly reproducible
//! `(workload, mode, crash_index)` triple; `sharectl crashsweep` accepts
//! the same triple to replay one case under a debugger.

pub mod couch_workload;
pub mod engine_workload;
pub mod ftl_workload;
pub mod gcpipe_workload;
pub mod innodb_workload;
pub mod pg_workload;
pub mod queued_workload;
pub mod snapshot_workload;
pub mod sqlite_workload;
pub mod stream_workload;

pub use engine_workload::{CrashDevice, EngineWorkload, KvEngine};
pub use ftl_workload::FtlWorkload;
pub use gcpipe_workload::FtlGcPipelineWorkload;

use mini_couch::CouchMode;
use mini_innodb::FlushMode;
use mini_pg::FpwMode;
use mini_sqlite::JournalMode;
use nand_sim::FaultMode;
use share_core::{Ftl, SimpleSsd};
use std::fmt;

/// The FTL-level workloads, by the names `sharectl crashsweep --workload`
/// takes: mixed writes / trims / shares / atomic batches / checkpoints; the
/// same mix through the submission queue with commands in flight at the
/// crash; the 2–8-page queued `WriteBatch` commands the engines send, each
/// checked as a page-by-page prefix; three streams on four channels, several
/// open frontiers at every crash boundary; a GC storm that keeps
/// half-collected victims across commands, on one channel and then four;
/// the snapshot lifecycle around RAM-only creates, clone delta flushes and
/// buffered drop tombstones; cold pages shared onto churning hot ones, so
/// GC relocates shared pages.
pub const FTL_WORKLOADS: [&str; 7] =
    ["ftl", "queued", "queued-batch", "stream", "gcpipe", "snapshot", "relocate"];

/// Host ops of the FTL workloads `sharectl crashsweep` runs.
pub const FTL_OPS: usize = 300;

/// The FTL workload named `name` (one of [`FTL_WORKLOADS`]) over `n` host
/// ops from `seed`: the GC storm runs `2n`, the fixed batch sequence `n / 5`
/// rounds whatever the seed.
pub fn ftl_workload(name: &str, seed: u64, n: usize) -> Option<Box<dyn CrashWorkload>> {
    Some(match name {
        "ftl" => Box::new(FtlWorkload::mixed(seed, n)),
        "queued" => Box::new(FtlWorkload::queued(seed, n, 4)),
        "queued-batch" => Box::new(FtlWorkload::write_batches(n as u64 / 5, 4)),
        "stream" => Box::new(FtlWorkload::stream(seed, n)),
        "gcpipe" => Box::new(FtlGcPipelineWorkload::new(seed, 2 * n)),
        "snapshot" => Box::new(FtlWorkload::snapshot(seed, n)),
        "relocate" => Box::new(FtlWorkload::relocate(seed, n)),
        _ => return None,
    })
}

/// Every safe mode of every engine once (innodb also cached and with
/// 16 KiB pages, couch also with documents wider than a SHARE log page), by
/// the names `sharectl crashsweep --workload` takes.
pub const ENGINE_WORKLOADS: [&str; 13] = [
    "innodb-dwb", "innodb-share", "innodb-atomic", "innodb-cached", "innodb-16k", "couch-original",
    "couch-share", "couch-share-wide", "pg-on", "pg-share", "sqlite-rollback", "sqlite-wal",
    "sqlite-share",
];

/// The positive controls: an unsafe mode on a drive that overwrites in
/// place, which the oracle must catch.
pub const ENGINE_CONTROLS: [&str; 3] = ["innodb-dwb-off", "pg-off", "sqlite-off"];

/// The engine workload named `name` (one of [`ENGINE_WORKLOADS`] or
/// [`ENGINE_CONTROLS`]); its [`CrashWorkload::name`] starts with `name`.
pub fn engine_workload(name: &str, seed: u64) -> Option<Box<dyn CrashWorkload>> {
    use {couch_workload as couch, innodb_workload as innodb};
    use {pg_workload as pg, sqlite_workload as sqlite};
    Some(match name {
        "innodb-dwb" => Box::new(innodb::workload::<Ftl>(FlushMode::DwbOn, seed)),
        "innodb-share" => Box::new(innodb::workload::<Ftl>(FlushMode::Share, seed)),
        "innodb-atomic" => Box::new(innodb::workload::<Ftl>(FlushMode::AtomicWrite, seed)),
        "innodb-cached" => Box::new(innodb::cached(seed)),
        "innodb-16k" => Box::new(innodb::large_pages(seed)),
        "innodb-dwb-off" => Box::new(innodb::workload::<SimpleSsd>(FlushMode::DwbOff, seed)),
        "couch-original" => Box::new(couch::workload(CouchMode::Original, seed)),
        "couch-share" => Box::new(couch::workload(CouchMode::Share, seed)),
        "couch-share-wide" => Box::new(couch::wide(seed)),
        "pg-on" => Box::new(pg::workload::<Ftl>(FpwMode::On, seed)),
        "pg-share" => Box::new(pg::workload::<Ftl>(FpwMode::Share, seed)),
        "pg-off" => Box::new(pg::workload::<SimpleSsd>(FpwMode::Off, seed)),
        "sqlite-rollback" => Box::new(sqlite::workload::<Ftl>(JournalMode::Rollback, seed)),
        "sqlite-wal" => Box::new(sqlite::workload::<Ftl>(JournalMode::Wal, seed)),
        "sqlite-share" => Box::new(sqlite::workload::<Ftl>(JournalMode::Share, seed)),
        "sqlite-off" => Box::new(sqlite::workload::<SimpleSsd>(JournalMode::Off, seed)),
        _ => return None,
    })
}

/// One crash scenario, exactly reproducible from its three coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPoint {
    /// Workload name (encodes its seed and size, e.g. `ftl-mixed-s42-n300`).
    pub workload: String,
    /// What the injected fault does to the in-flight program.
    pub mode: FaultMode,
    /// The fault fires on the `index`-th NAND program attempt after setup
    /// (1 = the very next one).
    pub index: u64,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(workload={}, mode={}, crash_index={})",
            self.workload,
            self.mode.label(),
            self.index
        )
    }
}

/// An oracle violation found by a sweep.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Where the crash was injected.
    pub point: CrashPoint,
    /// What the oracle observed.
    pub reason: String,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FAIL {}: {}", self.point, self.reason)
    }
}

/// Outcome of sweeping one workload.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Workload name.
    pub workload: String,
    /// Size of the full crash-point space (program attempts per run).
    pub total_points: u64,
    /// Distinct crash indices actually visited (per mode).
    pub points_visited: u64,
    /// Cases run (`points_visited × modes`).
    pub cases_run: u64,
    /// Oracle violations, in sweep order.
    pub failures: Vec<SweepFailure>,
}

impl SweepReport {
    /// True when every case satisfied the recovery oracle.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Panic with every reproducible triple if any case failed.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let mut msg = format!(
                "{}: {} of {} crash cases violated the recovery oracle:\n",
                self.workload,
                self.failures.len(),
                self.cases_run
            );
            for f in &self.failures {
                msg.push_str(&format!("  {f}\n"));
            }
            panic!("{msg}");
        }
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload={} points={} visited={} cases={} violations={}",
            self.workload, self.total_points, self.points_visited, self.cases_run,
            self.failures.len()
        )
    }
}

/// A deterministic workload the sweep can crash at every program boundary.
///
/// Implementations must be reproducible: two calls with the same
/// `(mode, index)` must execute the identical NAND program sequence up to
/// the crash.
pub trait CrashWorkload {
    /// Stable name embedding the workload's parameters (seed, size).
    fn name(&self) -> String;

    /// Program attempts of one fault-free run, measured after setup —
    /// the size of the crash-point space.
    fn crash_points(&self) -> u64;

    /// Run the workload with a fault armed `index` programs after setup,
    /// recover, and check the oracle. `Err` describes the violation.
    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String>;
}

/// Sweep `workload` across `modes`, crashing at every `stride`-th program
/// attempt (stride 1 = exhaustive).
pub fn sweep(workload: &dyn CrashWorkload, modes: &[FaultMode], stride: u64) -> SweepReport {
    assert!(stride >= 1, "stride must be at least 1");
    let total = workload.crash_points();
    let name = workload.name();
    let mut failures = Vec::new();
    let mut cases = 0u64;
    let mut visited = 0u64;
    for (mi, &mode) in modes.iter().enumerate() {
        let mut index = 1;
        while index <= total {
            cases += 1;
            if mi == 0 {
                visited += 1;
            }
            if let Err(reason) = workload.run_case(mode, index) {
                failures.push(SweepFailure {
                    point: CrashPoint { workload: name.clone(), mode, index },
                    reason,
                });
            }
            index += stride;
        }
    }
    SweepReport {
        workload: name,
        total_points: total,
        points_visited: visited,
        cases_run: cases,
        failures,
    }
}

/// Deep-soak crash-point cap from the `SHARE_CRASH_POINTS` environment
/// variable (mirrors `SHARE_MODEL_CASES` for the model sweeps). `None`
/// when unset or unparsable — the deep tier stays off.
pub fn deep_point_cap() -> Option<u64> {
    std::env::var("SHARE_CRASH_POINTS").ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fake workload recording which cases ran and failing a fixed set.
    struct Fake {
        total: u64,
        ran: AtomicU64,
    }

    impl CrashWorkload for Fake {
        fn name(&self) -> String {
            "fake".into()
        }
        fn crash_points(&self) -> u64 {
            self.total
        }
        fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
            self.ran.fetch_add(1, Ordering::Relaxed);
            if mode == FaultMode::DroppedWrite && index == 7 {
                Err("planted violation".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn sweep_visits_strided_points_for_every_mode() {
        let w = Fake { total: 10, ran: AtomicU64::new(0) };
        let r = sweep(&w, &FaultMode::ALL, 3);
        // indices 1,4,7,10 per mode
        assert_eq!(r.points_visited, 4);
        assert_eq!(r.cases_run, 12);
        assert_eq!(w.ran.load(Ordering::Relaxed), 12);
        assert_eq!(r.failures.len(), 1);
        let f = &r.failures[0];
        assert_eq!(f.point.mode, FaultMode::DroppedWrite);
        assert_eq!(f.point.index, 7);
        assert!(!r.is_clean());
        let shown = format!("{f}");
        assert!(shown.contains("workload=fake"), "{shown}");
        assert!(shown.contains("mode=dropped-write"), "{shown}");
        assert!(shown.contains("crash_index=7"), "{shown}");
    }

    #[test]
    fn clean_report_asserts_quietly() {
        let w = Fake { total: 5, ran: AtomicU64::new(0) };
        let r = sweep(&w, &[FaultMode::TornHalf], 1);
        assert!(r.is_clean());
        r.assert_clean();
        assert_eq!(r.cases_run, 5);
    }

    #[test]
    fn every_ftl_name_builds_the_workload_it_names() {
        let names: Vec<String> =
            FTL_WORKLOADS.iter().map(|n| ftl_workload(n, 42, FTL_OPS).unwrap().name()).collect();
        assert_eq!(
            names,
            [
                "ftl-mixed-s42-n300",
                "ftl-queued-s42-n300-r4",
                "ftl-queued-batch-n60-r4",
                "ftl-stream-s42-n300",
                "ftl-gcpipe-s42-n600",
                "ftl-snapshot-s42-n300",
                "ftl-relocate-s42-n300",
            ]
        );
        assert!(ftl_workload("innodb-share", 42, FTL_OPS).is_none());
    }

    #[test]
    fn every_engine_name_builds_the_workload_it_names() {
        for name in ENGINE_WORKLOADS.iter().chain(&ENGINE_CONTROLS) {
            let w = engine_workload(name, 3).unwrap_or_else(|| panic!("{name} builds nothing"));
            assert!(w.name().starts_with(&format!("{name}-s3-")), "{name} builds {}", w.name());
        }
        assert!(engine_workload("innodb", 3).is_none());
    }

    #[test]
    #[should_panic(expected = "crash_index=7")]
    fn dirty_report_panics_with_the_triple() {
        let w = Fake { total: 8, ran: AtomicU64::new(0) };
        sweep(&w, &[FaultMode::DroppedWrite], 1).assert_clean();
    }
}
