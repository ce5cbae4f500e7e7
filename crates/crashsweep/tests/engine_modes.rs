//! The engine modes as each other's oracle.

use mini_couch::CouchMode;
use mini_innodb::FlushMode;
use mini_pg::FpwMode;
use mini_sqlite::JournalMode;
use share_core::Ftl;
use share_crashsweep::{
    couch_workload, innodb_workload, pg_workload, sqlite_workload, CrashWorkload, EngineWorkload,
    KvEngine,
};

/// Every workload reads the same contents after the fault-free run and
/// again after a reopen over the recovered device.
fn agree<E: KvEngine>(workloads: &[EngineWorkload<E>]) {
    let first = workloads[0].contents().unwrap();
    assert_eq!(first[0], first[1], "{}: reopen changed the contents", workloads[0].name());
    for w in &workloads[1..] {
        let (name, first_name) = (w.name(), workloads[0].name());
        assert_eq!(w.contents().unwrap(), first, "{name} disagrees with {first_name}");
    }
}

/// The same seeded transactions through every safe mode of one engine leave
/// the same logical contents, fault-free and after a reopen: a mode that
/// answers differently shows here even when its own oracle passes.
#[test]
fn safe_modes_of_each_engine_hold_the_same_contents() {
    let seed = 11;
    agree(&[
        innodb_workload::workload::<Ftl>(FlushMode::DwbOn, seed),
        innodb_workload::workload(FlushMode::Share, seed),
        innodb_workload::workload(FlushMode::AtomicWrite, seed),
        innodb_workload::cached(seed),
        innodb_workload::large_pages(seed),
    ]);
    agree(&[
        couch_workload::workload(CouchMode::Original, seed),
        couch_workload::workload(CouchMode::Share, seed),
    ]);
    agree(&[
        pg_workload::workload::<Ftl>(FpwMode::On, seed),
        pg_workload::workload(FpwMode::Share, seed),
    ]);
    agree(&[
        sqlite_workload::workload::<Ftl>(JournalMode::Rollback, seed),
        sqlite_workload::workload(JournalMode::Wal, seed),
        sqlite_workload::workload(JournalMode::Share, seed),
    ]);
}
