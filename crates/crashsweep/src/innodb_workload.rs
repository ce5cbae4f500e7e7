//! Crash sweep through mini-InnoDB's DWB-via-SHARE commit path.
//!
//! Serial `update_node` transactions run over the SHARE flush mode: dirty
//! pages are written once to the double-write area, fsynced, then SHARE
//! rebinds the home pages to those physical pages (§4.3 of the paper) —
//! no second physical write. The redo log lives on a separate
//! conventional device, so this sweep enumerates crash points on the
//! *data* device only: redo survives the crash, and recovery must combine
//! the surviving data image, the DWB repair pass, and redo replay.
//!
//! Two shapes of the same run:
//!
//! * [`InnodbShareWorkload::new`]: a pool far smaller than the tree, so
//!   eviction flushes all the time and checkpoints find little dirty.
//! * [`InnodbShareWorkload::cached`]: a pool larger than the database and
//!   a redo budget of a few commits. Nothing is evicted; the checkpoint
//!   rule alone flushes, and it records checkpoints while pages are still
//!   dirty, so recovery replays from a `ckpt_lsn` below the last durable
//!   LSN. A header that claimed every durable record (the sharp formula
//!   `flushed_lsn + 1`) loses committed updates here.
//!
//! Oracle: after `Ftl::open` + `InnoDb::open`, every node reads the
//! payload of its last committed version (a returned `update_node` is
//! durable — `fsync_on_commit` is on), except that the single in-flight
//! update at the crash may appear instead; node count must be exact.

use crate::CrashWorkload;
use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use nand_sim::{FaultMode, NandTiming};
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_rng::{Rng, StdRng};

fn ftl_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 32, NandTiming::zero())
}

fn engine_cfg(cached: bool) -> InnoDbConfig {
    let base = InnoDbConfig {
        mode: FlushMode::Share,
        pool_pages: 24, // small pool: constant eviction traffic through SHARE
        flush_batch: 8,
        max_pages: 1024, // tablespace preallocated in full; fits the 2048-page device
        // A tiny checkpoint threshold: every dozen-odd commits the
        // engine flushes dirty pages through the DWB-via-share path, so
        // the crash-point space densely covers that protocol.
        ckpt_redo_bytes: 2 << 10,
        ..Default::default()
    };
    if !cached {
        return base;
    }
    // The whole tree stays resident, and the log may hold about four
    // updates (~250 redo bytes each) beyond its checkpoint.
    InnoDbConfig { pool_pages: 256, flush_batch: 2, ckpt_redo_bytes: 1 << 10, ..base }
}

fn payload(id: u64, version: u64) -> Vec<u8> {
    let mut p = vec![(id.wrapping_mul(31) ^ version) as u8; 200];
    p[..8].copy_from_slice(&id.to_le_bytes());
    p[8..16].copy_from_slice(&version.to_le_bytes());
    p
}

/// Serial node-update transactions against mini-InnoDB in SHARE mode.
#[derive(Debug, Clone)]
pub struct InnodbShareWorkload {
    seed: u64,
    /// Pool larger than the database (see the module docs).
    cached: bool,
    nodes: u64,
    /// Serial committed updates: `(node id, version)`.
    updates: Vec<(u64, u64)>,
}

impl InnodbShareWorkload {
    /// `n_updates` single-node update txns over `nodes` nodes, through a
    /// pool far smaller than the tree.
    pub fn new(seed: u64, nodes: u64, n_updates: usize) -> Self {
        Self::build(seed, false, nodes, n_updates)
    }

    /// The same transactions through a pool larger than the database,
    /// checkpointed every few commits with pages still dirty.
    pub fn cached(seed: u64, nodes: u64, n_updates: usize) -> Self {
        Self::build(seed, true, nodes, n_updates)
    }

    fn build(seed: u64, cached: bool, nodes: u64, n_updates: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_version = vec![1u64; nodes as usize];
        let updates = (0..n_updates)
            .map(|_| {
                let id = rng.random_range(0..nodes);
                let v = next_version[id as usize];
                next_version[id as usize] += 1;
                (id, v)
            })
            .collect();
        Self { seed, cached, nodes, updates }
    }

    /// Build the engine and insert every node at version 0 (fault disarmed).
    fn setup(&self) -> Result<(InnoDb<Ftl>, nand_sim::FaultHandle), String> {
        let dev = Ftl::new(ftl_cfg());
        let handle = dev.fault_handle();
        let log = standard_log_device(dev.clock().clone());
        let mut e = InnoDb::create(dev, log, engine_cfg(self.cached))
            .map_err(|e| format!("setup: create failed: {e}"))?;
        for id in 0..self.nodes {
            e.update_node(id, &payload(id, 0))
                .map_err(|err| format!("setup: insert of node {id} failed: {err}"))?;
        }
        e.checkpoint().map_err(|e| format!("setup: checkpoint failed: {e}"))?;
        Ok((e, handle))
    }
}

impl CrashWorkload for InnodbShareWorkload {
    fn name(&self) -> String {
        let shape = if self.cached { "cached" } else { "share" };
        format!("innodb-{shape}-s{}-n{}-u{}", self.seed, self.nodes, self.updates.len())
    }

    fn crash_points(&self) -> u64 {
        let (mut e, handle) = self.setup().expect("fault-free setup cannot fail");
        let base = handle.programs_seen();
        for &(id, v) in &self.updates {
            e.update_node(id, &payload(id, v)).expect("fault-free update cannot fail");
        }
        e.shutdown().expect("fault-free shutdown cannot fail");
        handle.programs_seen() - base
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        let (mut e, handle) = self.setup()?;
        handle.arm_after_programs(index, mode);
        let mut last_committed = vec![0u64; self.nodes as usize];
        let mut in_flight: Option<(u64, u64)> = None;
        let mut crashed = false;
        for &(id, v) in &self.updates {
            match e.update_node(id, &payload(id, v)) {
                Ok(()) => last_committed[id as usize] = v,
                Err(err) => {
                    if !handle.is_down() {
                        return Err(format!("update of node {id} failed without a crash: {err}"));
                    }
                    in_flight = Some((id, v));
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed {
            // Index beyond the update phase: the armed fault may fire
            // during shutdown, which must also recover cleanly.
            let _ = e.shutdown();
        }
        handle.disarm();

        let (data, log) = e.into_devices();
        let data = Ftl::open(ftl_cfg(), data.into_nand())
            .map_err(|e| format!("Ftl::open failed after crash: {e}"))?;
        if data.stats().recoveries != 1 {
            return Err("reopened device does not report a recovery".into());
        }
        let mut e2 = InnoDb::open(data, log, engine_cfg(self.cached))
            .map_err(|e| format!("InnoDb::open failed after recovery: {e}"))?;

        let count = e2
            .count_entries()
            .map_err(|e| format!("count_entries failed after recovery: {e}"))?;
        if count != self.nodes {
            return Err(format!("expected {} nodes after recovery, found {count}", self.nodes));
        }
        for id in 0..self.nodes {
            let got = e2
                .get_node(id)
                .map_err(|e| format!("get_node({id}) failed after recovery: {e}"))?
                .ok_or_else(|| format!("node {id} missing after recovery"))?;
            let committed_ok = got == payload(id, last_committed[id as usize]);
            let in_flight_ok =
                matches!(in_flight, Some((fid, fv)) if fid == id && got == payload(id, fv));
            if !committed_ok && !in_flight_ok {
                return Err(format!(
                    "node {id}: recovered payload is neither committed version {} nor \
                     the in-flight update {:?}",
                    last_committed[id as usize], in_flight
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_nonempty() {
        let a = InnodbShareWorkload::new(9, 40, 60);
        let b = InnodbShareWorkload::new(9, 40, 60);
        assert_eq!(a.updates, b.updates);
        let points = a.crash_points();
        assert_eq!(points, b.crash_points());
        assert!(points > 20, "60 updates over a 24-page pool should flush, got {points}");
    }

    #[test]
    fn the_cached_shape_checkpoints_without_evicting() {
        let w = InnodbShareWorkload::cached(9, 40, 60);
        let (mut e, _) = w.setup().unwrap();
        let stats0 = e.stats();
        for &(id, v) in &w.updates {
            e.update_node(id, &payload(id, v)).unwrap();
        }
        let (s, pool) = (e.stats(), e.pool_stats());
        assert_eq!(pool.evictions, 0, "the tree must fit the pool");
        // Checkpoints flush only what is old; most commits find the
        // budget unspent.
        let ckpts = s.checkpoints - stats0.checkpoints;
        assert!(ckpts >= 10, "{ckpts} checkpoints");
        assert!(s.flush_batches - stats0.flush_batches >= ckpts / 2);
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = InnodbShareWorkload::new(4, 24, 30);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid.max(1)).unwrap();
        }
    }
}
