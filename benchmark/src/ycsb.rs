//! YCSB-A on mini-couch: `ycsb_a_couch`.
//!
//! Closed loop: a round gathers one operation per modelled connection and
//! issues the reads through `get_many` and the updates through `save_many`
//! (the queued paths). Before the round's operations the driver compacts
//! the store whenever its stale ratio has reached the threshold, so the
//! connections of that round wait for the compaction, as clients of a
//! store that blocks during compaction would. An operation's latency runs
//! from the round start to the return of the call that carried it.

use crate::rep::{fingerprint, finish, measure, ratio, Recover, RepCtx, RepOut, Rig as _};
use crate::timed::BenchDevice;
use crate::trace::{Probe, WallLayer};
use mini_couch::{doc_blocks, CouchConfig, CouchMode, CouchStore};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_rng::{Rng, StdRng};
use share_vfs::{Vfs, VfsOptions};
use share_workloads::{Ycsb, YcsbConfig, YcsbOp, YcsbWorkload};
use std::collections::BTreeMap;
use std::time::Instant;

const DB_NAME: &str = "ycsb.couch";

#[derive(Debug, Clone)]
pub struct YcsbParams {
    pub records: u64,
    /// Document payload bytes (4 blocks of 4 KiB with their headers).
    pub record_size: usize,
    /// Updates per commit (the paper's batch-size knob).
    pub batch_size: usize,
    pub connections: usize,
    pub channels: u32,
    /// Unmeasured YCSB-A ops after the load, so compaction and GC are cycling.
    pub warmup_ops: u64,
    /// The driver compacts when `stale_ratio()` reaches this.
    pub compact_at: f64,
    /// Logical device size as a multiple of the live data. SHARE compaction
    /// needs the new file's logical space beside the old file's.
    pub device_factor: f64,
    pub verify_samples: usize,
}

struct Rig<D: BenchDevice> {
    store: CouchStore<D>,
    gen: Ycsb,
    rng: StdRng,
    /// Fingerprint of the last acknowledged payload per key.
    shadow: Vec<u64>,
    p: YcsbParams,
    ccfg: CouchConfig,
    seed: u64,
    tally: Tally,
}

/// Compaction and space accounting of the rounds since it was last reset
/// (at window start).
#[derive(Default)]
struct Tally {
    compact_sim_ns: u64,
    compact_wall_ns: u64,
    stale_peak: f64,
    file_blocks_sum: u64,
    rounds: u64,
}

fn doc(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(v.as_mut_slice());
    v
}

fn build<D: BenchDevice>(p: &YcsbParams, seed: u64, ctx: &RepCtx) -> Rig<D> {
    let live_blocks = p.records * doc_blocks(p.record_size, 4096);
    let logical_bytes = (live_blocks as f64 * p.device_factor) as u64 * 4096 + (8 << 20);
    let fcfg = FtlConfig::for_capacity_with(logical_bytes, 0.15, 4096, 128, NandTiming::default())
        .with_parallelism(p.channels, 1)
        .with_telemetry(ctx.telemetry());
    let dev = D::wrap(Ftl::new(fcfg), ctx.probe.clone());
    let fs = Vfs::format(dev, VfsOptions::default()).expect("format");
    let ccfg = CouchConfig {
        mode: CouchMode::Share,
        batch_size: p.batch_size,
        ..Default::default()
    };
    let mut store = CouchStore::create(fs, DB_NAME, ccfg.clone()).expect("create store");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad);
    let mut shadow = Vec::with_capacity(p.records as usize);
    for key in 0..p.records {
        let d = doc(&mut rng, p.record_size);
        store.save(key, &d).expect("load doc");
        shadow.push(fingerprint(&d));
    }
    store.commit().expect("load commit");
    let gen = Ycsb::new(&YcsbConfig {
        workload: YcsbWorkload::A,
        record_count: p.records,
        record_size: p.record_size,
        seed,
    });
    Rig {
        store,
        gen,
        rng: StdRng::seed_from_u64(seed ^ 0x0b5e),
        shadow,
        p: p.clone(),
        ccfg,
        seed,
        tally: Tally::default(),
    }
}

impl<D: BenchDevice> crate::rep::Rig for Rig<D> {
    type Dev = D;

    fn device(&mut self) -> &D {
        self.store.fs_mut().device()
    }

    fn round(&mut self, n: usize, probe: &Probe, lat: Option<&mut Vec<u64>>) -> (u64, u64) {
        let (ops, read_keys, writes) = probe.span(WallLayer::Gen, "next_round", || {
            let ops: Vec<YcsbOp> = (0..n).map(|_| self.gen.next_op()).collect();
            let mut read_keys = Vec::new();
            let mut writes = Vec::new();
            for op in &ops {
                match *op {
                    YcsbOp::Read { key } => read_keys.push(key),
                    YcsbOp::Update { key } => {
                        writes.push((key, doc(&mut self.rng, self.p.record_size)))
                    }
                    other => unreachable!("YCSB-A generates reads and updates only: {other:?}"),
                }
            }
            (ops, read_keys, writes)
        });
        let store = &mut self.store;
        let clock = store.clock();
        let t0 = clock.now_ns();
        let mut failed = 0u64;

        let stale = store.stale_ratio();
        self.tally.stale_peak = self.tally.stale_peak.max(stale);
        if stale >= self.p.compact_at {
            let wall = Instant::now();
            if probe
                .span(WallLayer::Engine, "compact", || store.compact())
                .is_err()
            {
                failed += 1;
            }
            self.tally.compact_wall_ns += wall.elapsed().as_nanos() as u64;
            self.tally.compact_sim_ns += clock.now_ns() - t0;
        }
        if !read_keys.is_empty()
            && probe
                .span(WallLayer::Engine, "get_many", || store.get_many(&read_keys))
                .is_err()
        {
            failed += read_keys.len() as u64;
        }
        let reads_done = clock.now_ns();
        let mut user_bytes = 0u64;
        if !writes.is_empty() {
            let batch: Vec<(u64, &[u8])> = writes.iter().map(|(k, d)| (*k, d.as_slice())).collect();
            if probe
                .span(WallLayer::Engine, "save_many", || store.save_many(&batch))
                .is_ok()
            {
                probe.span(WallLayer::Gen, "shadow", || {
                    for (key, d) in &writes {
                        self.shadow[*key as usize] = fingerprint(d);
                        user_bytes += d.len() as u64;
                    }
                });
            } else {
                failed += writes.len() as u64;
            }
        }
        let writes_done = clock.now_ns();
        self.tally.file_blocks_sum += store.file_blocks();
        self.tally.rounds += 1;
        if let Some(lat) = lat {
            lat.extend(ops.iter().map(|op| match op {
                YcsbOp::Read { .. } => reads_done - t0,
                _ => writes_done - t0,
            }));
        }
        (failed, user_bytes)
    }

    /// Commits first: in SHARE mode `get` serves a same-size update from
    /// the old location until the commit remaps it, so only committed
    /// updates count as acknowledged.
    fn verify(&mut self, when: &str, failures: &mut Vec<String>) {
        if let Err(e) = self.store.commit() {
            failures.push(format!("{when}: commit: {e}"));
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_c4ec);
        let bad = (0..self.p.verify_samples)
            .filter(|_| {
                let key = rng.random_range(0..self.p.records);
                let got = self.store.get(key).ok().flatten().map(|d| fingerprint(&d));
                got != Some(self.shadow[key as usize])
            })
            .count();
        if bad > 0 {
            failures.push(format!(
                "{when}: {bad} sampled documents differ from the shadow model"
            ));
        }
    }

    /// Everything is committed by the preceding `verify`: unmount, recover
    /// the device, mount, open the store.
    fn reopen(self, failures: &mut Vec<String>) -> (Option<Self>, Recover) {
        let Rig { store, ccfg, .. } = self;
        let ftl = store.into_fs().into_device().into_ftl();
        let fcfg = ftl.config().clone();
        let clock = ftl.clock().clone();
        let nand = ftl.into_nand();
        let (sim0, wall) = (clock.now_ns(), Instant::now());
        let mut page_reads = 0;
        let store = Ftl::open(fcfg, nand)
            .map_err(|e| format!("device reopen: {e}"))
            .and_then(|ftl| {
                page_reads = ftl.stats().recovery_page_reads;
                Vfs::open(D::wrap(ftl, Probe::off()), VfsOptions::default())
                    .map_err(|e| format!("mount: {e}"))
            })
            .and_then(|fs| {
                CouchStore::open(fs, DB_NAME, ccfg.clone())
                    .map_err(|e| format!("engine reopen: {e}"))
            })
            .map_err(|e| failures.push(e))
            .ok();
        let recover = Recover {
            sim_ms: (clock.now_ns() - sim0) as f64 / 1e6,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            page_reads,
        };
        (
            store.map(|store| Rig {
                store,
                ccfg,
                ..self
            }),
            recover,
        )
    }
}

pub fn run<D: BenchDevice>(p: &YcsbParams, seed: u64, ctx: &RepCtx) -> RepOut {
    let setup = Instant::now();
    let mut rig = build::<D>(p, seed, ctx);
    let conns = p.connections.max(1);
    let mut left = p.warmup_ops;
    while left > 0 {
        let n = conns.min(left as usize);
        rig.round(n, &Probe::off(), None);
        left -= n as u64;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let couch0 = rig.store.stats();
    let vfs0 = rig.store.fs_mut().stats();
    rig.tally = Tally::default();
    let window = measure(&mut rig, ctx, conns);

    let c = rig.store.stats();
    let vfs = rig.store.fs_mut().stats();
    let ops = window.ops as f64;
    let ratio = |num: u64, den: u64| ratio(num as f64, den as f64);
    let updates =
        (c.share_remaps - couch0.share_remaps) + (c.share_fallbacks - couch0.share_fallbacks);
    let commits = c.commits - couch0.commits;
    let live_blocks = p.records * doc_blocks(p.record_size, 4096);
    let layer = BTreeMap::from([
        (
            "couch.doc_blocks_per_update",
            ratio(c.doc_blocks_appended - couch0.doc_blocks_appended, updates),
        ),
        (
            "couch.node_blocks_per_update",
            ratio(
                c.node_blocks_appended - couch0.node_blocks_appended,
                updates,
            ),
        ),
        (
            "couch.header_blocks_per_commit",
            ratio(
                c.header_blocks_appended - couch0.header_blocks_appended,
                commits,
            ),
        ),
        (
            "couch.share_remaps_per_commit",
            ratio(c.share_remaps - couch0.share_remaps, commits),
        ),
        (
            "couch.share_fallbacks",
            (c.share_fallbacks - couch0.share_fallbacks) as f64,
        ),
        (
            "couch.compactions",
            (c.compactions - couch0.compactions) as f64,
        ),
        (
            "couch.compact_sim_share",
            ratio(
                rig.tally.compact_sim_ns,
                window.end.sim_ns - window.start.sim_ns,
            ),
        ),
        (
            "couch.compact_wall_share",
            rig.tally.compact_wall_ns as f64 / 1e9 / window.host.wall_s,
        ),
        ("couch.stale_ratio_peak", rig.tally.stale_peak),
        (
            "couch.file_blocks_per_live_block",
            ratio(rig.tally.file_blocks_sum, rig.tally.rounds * live_blocks),
        ),
        (
            "vfs.journal_commits_per_op",
            (vfs.journal_commits - vfs0.journal_commits) as f64 / ops,
        ),
        (
            "vfs.journal_pages_per_op",
            (vfs.journal_pages - vfs0.journal_pages) as f64 / ops,
        ),
    ]);

    finish(rig, ctx, window, setup_s, None, layer)
}
