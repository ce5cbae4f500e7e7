//! mini-PostgreSQL behind the engine harness: key `k` is pgbench account
//! `5 k` (so the rows span a whole 8 KiB heap page) whose balance is its
//! version, and a commit runs one TPC-B transaction per put (WAL fsynced).
//! The maintenance pass is a checkpoint, which flushes the dirty heap pages
//! in place (`FpwMode::On`, repaired by full-page images) or through a
//! journal area and SHARE; the engine checkpoints on its own too. With
//! `data_checksums` a torn heap page is an error, never a balance:
//! `FpwMode::Off` on a `SimpleSsd` is the positive control.

use crate::engine_workload::{text, CrashDevice, EngineWorkload, KvEngine};
use mini_pg::{FpwMode, MiniPg, PgConfig};
use nand_sim::NandTiming;
use share_core::FtlConfig;

/// mini-PostgreSQL as a [`KvEngine`].
pub struct Pg<D: CrashDevice> {
    db: MiniPg<D>,
    cfg: PgConfig,
    /// The open transaction's puts.
    puts: Vec<(u64, u64)>,
}

impl<D: CrashDevice> KvEngine for Pg<D> {
    type Dev = D;
    type Cfg = PgConfig;
    const DELETES: bool = false;
    const ATOMIC_COMMIT: bool = false;

    fn create(dev: D, cfg: &PgConfig) -> Result<Self, String> {
        let db = MiniPg::create(dev, cfg.clone()).map_err(text)?;
        Ok(Self { db, cfg: cfg.clone(), puts: vec![] })
    }
    fn put(&mut self, key: u64, version: u64) -> Result<(), String> {
        self.puts.push((5 * key, version));
        Ok(())
    }
    fn commit(&mut self) -> Result<(), String> {
        for (aid, version) in std::mem::take(&mut self.puts) {
            let delta = version as i64 - self.db.account_balance(aid).map_err(text)?;
            self.db.run_txn(aid, aid % 10, 0, delta).map_err(text)?;
        }
        Ok(())
    }
    fn maintenance(&mut self) -> Result<(), String> {
        self.db.checkpoint().map_err(text)
    }
    fn reopen(self) -> Result<Self, String> {
        let db = MiniPg::open(self.db.into_device().recover()?, self.cfg.clone());
        Ok(Self { db: db.map_err(text)?, cfg: self.cfg, puts: vec![] })
    }
    fn get(&mut self, key: u64) -> Result<Option<u64>, String> {
        let balance = self.db.account_balance(5 * key).map_err(text)?;
        Ok((balance != 0).then_some(balance as u64))
    }
}

/// 12 commits over 16 accounts in `mode`, on a device that holds the scale-1 heap.
pub fn workload<D: CrashDevice>(mode: FpwMode, seed: u64) -> EngineWorkload<Pg<D>> {
    let dev = FtlConfig::for_capacity_with(48 << 20, 0.3, 4096, 64, NandTiming::zero());
    let cfg = PgConfig { mode, checkpoint_txns: 12, ..Default::default() };
    let label = format!("pg-{}", mode.label().trim_start_matches("FPW-").to_lowercase());
    EngineWorkload::new(&label, dev, cfg, seed, 16, 12)
}
