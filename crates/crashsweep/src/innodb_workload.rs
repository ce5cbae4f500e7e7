//! mini-InnoDB behind the engine harness: a put upserts a node row, a
//! commit ends the mini-transaction. Redo lives on a separate log device that
//! never loses power, so recovery combines the surviving data image, the
//! double-write repair pass and redo replay. Shapes of the same run:
//!
//! * [`workload`]: a pool smaller than the tree, so eviction flushes all the
//!   time; `DwbOff` on a `SimpleSsd` is the positive control;
//! * [`cached`]: SHARE with the tree resident and a redo budget of a few
//!   commits, so checkpoints are recorded with pages still dirty and
//!   recovery replays from below the last durable LSN (a header claiming
//!   `flushed_lsn + 1` loses committed updates here);
//! * [`large_pages`]: atomic writes of 16 KiB pages spanning four device pages.

use crate::engine_workload::{text, value, version_of, CrashDevice, EngineWorkload, KvEngine};
use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig, Key};
use nand_sim::NandTiming;
use share_core::{Ftl, FtlConfig};

/// mini-InnoDB as a [`KvEngine`].
pub struct Innodb<D: CrashDevice> {
    db: InnoDb<D>,
    cfg: InnoDbConfig,
}

impl<D: CrashDevice> KvEngine for Innodb<D> {
    type Dev = D;
    type Cfg = InnoDbConfig;
    const DELETES: bool = true;
    const ATOMIC_COMMIT: bool = true;

    fn create(dev: D, cfg: &InnoDbConfig) -> Result<Self, String> {
        let log = standard_log_device(dev.clock().clone());
        Ok(Self { db: InnoDb::create(dev, log, cfg.clone()).map_err(text)?, cfg: cfg.clone() })
    }
    fn put(&mut self, key: u64, version: u64) -> Result<(), String> {
        let row = value(key, version, self.cfg.page_bytes / 8);
        self.db.upsert_kv(Key::node(key), row).map_err(text)
    }
    fn delete(&mut self, key: u64) -> Result<(), String> {
        self.db.delete_kv(&Key::node(key)).map(drop).map_err(text)
    }
    fn commit(&mut self) -> Result<(), String> {
        self.db.commit().map_err(text)
    }
    fn maintenance(&mut self) -> Result<(), String> {
        self.db.checkpoint().map_err(text)
    }
    fn reopen(self) -> Result<Self, String> {
        let (data, log) = self.db.into_devices();
        let db = InnoDb::open(data.recover()?, log, self.cfg.clone()).map_err(text)?;
        Ok(Self { db, cfg: self.cfg })
    }
    fn get(&mut self, key: u64) -> Result<Option<u64>, String> {
        let row = self.db.get_node(key).map_err(text)?;
        row.map(|b| version_of(key, &b, |_| self.cfg.page_bytes / 8)).transpose()
    }
    fn count(&mut self) -> Result<Option<u64>, String> {
        self.db.count_entries().map(Some).map_err(text)
    }
}

/// 32 commits over 32 nodes of an eighth of a page each, about 11 pages;
/// the tablespace fits the 2 048-page device.
fn build<D: CrashDevice>(label: &str, cfg: InnoDbConfig, seed: u64) -> EngineWorkload<Innodb<D>> {
    let dev = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 32, NandTiming::zero());
    EngineWorkload::new(label, dev, cfg, seed, 32, 32)
}

/// An 8-page pool, so eviction flushes all the time, and a checkpoint
/// through the mode's flush protocol every dozen-odd rows.
fn config(mode: FlushMode) -> InnoDbConfig {
    let (pool_pages, flush_batch, max_pages, ckpt_redo_bytes) = (8, 8, 1024, 8 << 10);
    InnoDbConfig { mode, pool_pages, flush_batch, max_pages, ckpt_redo_bytes, ..Default::default() }
}

/// The small-pool shape in `mode`.
pub fn workload<D: CrashDevice>(mode: FlushMode, seed: u64) -> EngineWorkload<Innodb<D>> {
    let label = match mode {
        FlushMode::DwbOn => "innodb-dwb",
        FlushMode::DwbOff => "innodb-dwb-off",
        FlushMode::Share => "innodb-share",
        FlushMode::AtomicWrite => "innodb-atomic",
    };
    build(label, config(mode), seed)
}

/// SHARE with the whole tree resident; the log holds about four updates
/// beyond its checkpoint.
pub fn cached(seed: u64) -> EngineWorkload<Innodb<Ftl>> {
    let (pool_pages, flush_batch, ckpt_redo_bytes) = (256, 2, 4 << 10);
    let cfg = InnoDbConfig { pool_pages, flush_batch, ckpt_redo_bytes, ..config(FlushMode::Share) };
    build("innodb-cached", cfg, seed)
}

/// Atomic checkpoint writes of 16 KiB engine pages (the tree resident): no
/// crash may tear one.
pub fn large_pages(seed: u64) -> EngineWorkload<Innodb<Ftl>> {
    let (page_bytes, pool_pages, max_pages, ckpt_redo_bytes) = (16 << 10, 32, 256, 64 << 10);
    let mode = FlushMode::AtomicWrite;
    let cfg = InnoDbConfig { page_bytes, pool_pages, max_pages, ckpt_redo_bytes, ..config(mode) };
    build("innodb-16k", cfg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashWorkload;
    use nand_sim::FaultMode;

    #[test]
    fn workload_is_deterministic_and_nonempty() {
        let a = workload::<Ftl>(FlushMode::Share, 9);
        let points = a.crash_points();
        assert_eq!(points, workload::<Ftl>(FlushMode::Share, 9).crash_points());
        assert!(points > 20, "32 commits over an 8-page pool should flush, got {points}");
    }

    #[test]
    fn the_cached_shape_checkpoints_without_evicting() {
        let w = cached(9);
        let (mut e, fault) = w.setup().unwrap();
        let stats0 = e.db.stats();
        w.drive(&mut e, &fault).unwrap();
        let (s, pool) = (e.db.stats(), e.db.pool_stats());
        assert_eq!(pool.evictions, 0, "the tree must fit the pool");
        // Checkpoints flush only what is old; most commits find the
        // budget unspent.
        let ckpts = s.checkpoints - stats0.checkpoints;
        assert!(ckpts >= 10, "{ckpts} checkpoints");
        assert!(s.flush_batches - stats0.flush_batches >= ckpts / 2);
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = workload::<Ftl>(FlushMode::Share, 4);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }
}
