//! mini-SQLite behind the engine harness: puts and deletes join the open
//! transaction and a commit runs the mode's protocol — the rollback journal,
//! the WAL (checkpointed by the maintenance pass) or the paper's §3.3 SHARE
//! commit, after-images staged beyond the database tail and remapped by one
//! `share` batch. Each makes a commit all-or-nothing; `JournalMode::Off`
//! writes in place and is the positive control on a `SimpleSsd`.

use crate::engine_workload::{text, value, version_of, CrashDevice, EngineWorkload, KvEngine};
use mini_sqlite::{JournalMode, MiniSqlite, SqliteConfig};
use nand_sim::NandTiming;
use share_core::FtlConfig;

/// mini-SQLite as a [`KvEngine`].
pub struct Sqlite<D: CrashDevice> {
    /// The pager under the adapter.
    pub db: MiniSqlite<D>,
    cfg: SqliteConfig,
}

impl<D: CrashDevice> KvEngine for Sqlite<D> {
    type Dev = D;
    type Cfg = SqliteConfig;
    const DELETES: bool = true;
    const ATOMIC_COMMIT: bool = true;

    fn create(dev: D, cfg: &SqliteConfig) -> Result<Self, String> {
        Ok(Self { db: MiniSqlite::create(dev, cfg.clone()).map_err(text)?, cfg: cfg.clone() })
    }
    fn put(&mut self, key: u64, version: u64) -> Result<(), String> {
        // 24 records of 200 bytes fill both halves of two pages.
        self.db.put(key, &value(key, version, 200)).map_err(text)
    }
    fn delete(&mut self, key: u64) -> Result<(), String> {
        self.db.delete(key).map(drop).map_err(text)
    }
    fn commit(&mut self) -> Result<(), String> {
        self.db.commit().map_err(text)
    }
    fn maintenance(&mut self) -> Result<(), String> {
        match self.cfg.mode {
            JournalMode::Wal => self.db.checkpoint_wal().map_err(text),
            _ => Ok(()),
        }
    }
    fn reopen(self) -> Result<Self, String> {
        let db = MiniSqlite::open(self.db.into_device().recover()?, self.cfg.clone());
        Ok(Self { db: db.map_err(text)?, cfg: self.cfg })
    }
    fn get(&mut self, key: u64) -> Result<Option<u64>, String> {
        let row = self.db.get(key).map_err(text)?;
        row.map(|b| version_of(key, &b, |_| 200)).transpose()
    }
    fn count(&mut self) -> Result<Option<u64>, String> {
        Ok(Some(self.db.key_count() as u64))
    }
}

/// 16 commits over 24 keys in `mode`, on a small database and WAL.
pub fn workload<D: CrashDevice>(mode: JournalMode, seed: u64) -> EngineWorkload<Sqlite<D>> {
    let dev = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 32, NandTiming::zero());
    let cfg = SqliteConfig { mode, max_pages: 32, wal_checkpoint_frames: 8 };
    EngineWorkload::new(&format!("sqlite-{}", mode.label().to_lowercase()), dev, cfg, seed, 24, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashWorkload;
    use nand_sim::FaultMode;
    use share_core::Ftl;

    #[test]
    fn workload_is_deterministic_and_nonempty() {
        let points = workload::<Ftl>(JournalMode::Share, 5).crash_points();
        assert_eq!(points, workload::<Ftl>(JournalMode::Share, 5).crash_points());
        assert!(points > 16, "16 SHARE commits should program > 16 pages, got {points}");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = workload::<Ftl>(JournalMode::Share, 2);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }
}
