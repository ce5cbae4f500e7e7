//! mini-Couchbase behind the engine harness: a commit saves its documents as
//! one queued group and commits them, the maintenance pass compacts. The
//! documents are four 1 KiB blocks long on a four-channel device, so a
//! document's submission starts a block after the previous one's, a
//! compaction writes its index as one submission and a SHARE commit trims
//! the copies it remapped. Key 5 is a block shorter at odd versions, so its
//! updates take the tree path inside otherwise remap-only commits. A commit
//! is atomic per document only: SHARE remaps its same-size updates before it
//! writes the tree changes of the rest.

use crate::engine_workload::{text, value, version_of, CrashDevice, EngineWorkload, KvEngine};
use mini_couch::{doc_payload_per_block, CouchConfig, CouchMode, CouchStore};
use nand_sim::NandTiming;
use share_core::{Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};

fn doc_len(key: u64, version: u64) -> usize {
    let blocks = if key == 5 && version % 2 == 1 { 3 } else { 4 };
    blocks * doc_payload_per_block(1024) - 100
}

/// mini-Couchbase as a [`KvEngine`].
pub struct Couch<D: CrashDevice> {
    store: CouchStore<D>,
    cfg: CouchConfig,
    /// The open transaction's documents.
    docs: Vec<(u64, Vec<u8>)>,
}

impl<D: CrashDevice> KvEngine for Couch<D> {
    type Dev = D;
    type Cfg = CouchConfig;
    const DELETES: bool = true;
    const ATOMIC_COMMIT: bool = false;

    fn create(dev: D, cfg: &CouchConfig) -> Result<Self, String> {
        let fs = Vfs::format(dev, VfsOptions::default()).map_err(text)?;
        let store = CouchStore::create(fs, "crash.couch", cfg.clone()).map_err(text)?;
        Ok(Self { store, cfg: cfg.clone(), docs: Vec::new() })
    }
    fn put(&mut self, key: u64, version: u64) -> Result<(), String> {
        self.docs.push((key, value(key, version, doc_len(key, version))));
        Ok(())
    }
    fn delete(&mut self, key: u64) -> Result<(), String> {
        self.store.delete(key).map_err(text)
    }
    fn commit(&mut self) -> Result<(), String> {
        let docs = std::mem::take(&mut self.docs);
        let lent: Vec<(u64, &[u8])> = docs.iter().map(|(k, d)| (*k, &d[..])).collect();
        self.store.save_many(&lent).and_then(|()| self.store.commit()).map_err(text)
    }
    fn maintenance(&mut self) -> Result<(), String> {
        self.store.compact().map(drop).map_err(text)
    }
    fn reopen(self) -> Result<Self, String> {
        let fs = Vfs::open(self.store.into_fs().into_device().recover()?, VfsOptions::default());
        let store = CouchStore::open(fs.map_err(text)?, "crash.couch", self.cfg.clone());
        Ok(Self { store: store.map_err(text)?, cfg: self.cfg, docs: Vec::new() })
    }
    fn get(&mut self, key: u64) -> Result<Option<u64>, String> {
        let doc = self.store.get(key).map_err(text)?;
        doc.map(|d| version_of(key, &d, |v| doc_len(key, v))).transpose()
    }
    fn count(&mut self) -> Result<Option<u64>, String> {
        Ok(Some(self.store.doc_count()))
    }
}

/// Eight group commits over ten documents in `mode`, then a compaction.
pub fn workload(mode: CouchMode, seed: u64) -> EngineWorkload<Couch<Ftl>> {
    let dev = FtlConfig::for_capacity_with(4 << 20, 0.3, 1024, 16, NandTiming::zero());
    let (batch_size, node_max_entries) = (usize::MAX, 4);
    let cfg = CouchConfig { mode, batch_size, node_max_entries, ..Default::default() };
    let label = format!("couch-{}", mode.label().to_lowercase());
    EngineWorkload::new(&label, dev.with_parallelism(4, 1), cfg, seed, 10, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fault-free run takes every path the sweep is there to crash: in SHARE
    /// mode commits that remap same-size updates and trim the remapped
    /// copies, key 5 falling back to the tree path, and a zero-copy
    /// compaction of every live document.
    #[test]
    fn the_share_run_remaps_falls_back_and_compacts_zero_copy() {
        for mode in [CouchMode::Share, CouchMode::Original] {
            let w = workload(mode, 42);
            let (mut e, fault) = w.setup().unwrap();
            let (s0, trims0) = (e.store.stats(), e.store.device_stats().trims);
            w.drive(&mut e, &fault).unwrap();
            let (s, trims) = (e.store.stats(), e.store.device_stats().trims - trims0);
            let remaps = s.share_remaps - s0.share_remaps;
            assert_eq!(s.compactions - s0.compactions, 1, "{mode:?}");
            let report = e.store.compact().unwrap();
            assert_eq!(report.docs_moved, e.store.doc_count(), "{mode:?}");
            if mode == CouchMode::Share {
                assert!(remaps > 0 && s.share_fallbacks > s0.share_fallbacks, "{s:?}");
                assert!(trims >= 4 * remaps, "{trims} trims for {remaps} remapped documents");
                assert!(report.zero_copy);
            } else {
                assert_eq!((remaps, report.zero_copy), (0, false));
            }
        }
    }
}
