//! LinkBench on mini-innodb: `linkbench_share`, `linkbench_dwb`,
//! `linkbench_cached`.
//!
//! Closed loop: a round gathers one transaction per modelled connection,
//! prefetches the round's B+tree pages, applies the transactions inside a
//! group-commit window and closes it with one shared log fsync. A read's
//! latency runs from the round start to the return of its call; a write's
//! to the return of the round's group commit, when it is durable.

use crate::rep::{fingerprint, finish, measure, ratio, Recover, RepCtx, RepOut, Rig as _};
use crate::timed::BenchDevice;
use crate::trace::{Probe, WallLayer};
use mini_innodb::{standard_log_device, EngineError, FlushMode, InnoDb, InnoDbConfig, Key};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_rng::{Rng, StdRng};
use share_workloads::{LinkBench, LinkBenchConfig, LinkOp, LinkOpType};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// How the buffer pool is sized against the database.
#[derive(Debug, Clone, Copy)]
pub enum Pool {
    /// A fraction of the estimated database (working set ≫ cache).
    FractionOfDb(f64),
    /// A multiple ≥ 1 of the estimated database (fits in cache).
    TimesDb(f64),
}

#[derive(Debug, Clone)]
pub struct LinkParams {
    pub mode: FlushMode,
    pub pool: Pool,
    pub nodes: u64,
    pub links_per_node: u64,
    pub warmup_txns: u64,
    pub connections: usize,
    pub channels: u32,
    /// Redo bytes between fuzzy checkpoints: sized with the database like
    /// the pool, so the window holds several checkpoint cycles.
    pub ckpt_redo_bytes: u64,
    /// Keys verified at window end and again after reopen.
    pub verify_samples: usize,
}

/// Last-acknowledged state of the database: value fingerprint per key
/// (`None` = deleted), plus the link counts the engine derives.
#[derive(Default)]
struct Shadow {
    rows: BTreeMap<Key, Option<u64>>,
    counts: HashMap<(u64, u32), u64>,
}

impl Shadow {
    fn put(&mut self, key: Key, value: &[u8]) {
        self.rows.insert(key, Some(fingerprint(value)));
    }

    fn live(&self, key: &Key) -> bool {
        matches!(self.rows.get(key), Some(Some(_)))
    }

    fn set_count(&mut self, id1: u64, typ: u32, n: u64) {
        self.counts.insert((id1, typ), n);
        self.put(Key::count(id1, typ), &n.to_le_bytes());
    }

    fn add_link(&mut self, id1: u64, typ: u32, id2: u64, payload: &[u8]) {
        let key = Key::link(id1, typ, id2);
        if !self.live(&key) {
            let n = self.counts.get(&(id1, typ)).copied().unwrap_or(0) + 1;
            self.set_count(id1, typ, n);
        }
        self.put(key, payload);
    }

    fn delete_link(&mut self, id1: u64, typ: u32, id2: u64) {
        let key = Key::link(id1, typ, id2);
        if self.live(&key) {
            self.rows.insert(key, None);
            let n = self
                .counts
                .get(&(id1, typ))
                .copied()
                .unwrap_or(0)
                .saturating_sub(1);
            self.set_count(id1, typ, n);
        }
    }

    /// Mirror a write op; returns the user payload bytes it carried.
    fn apply(&mut self, op: &LinkOp, payload: &[u8]) -> u64 {
        match op.op {
            LinkOpType::AddNode | LinkOpType::UpdateNode => self.put(Key::node(op.id1), payload),
            LinkOpType::DeleteNode => {
                self.rows.insert(Key::node(op.id1), None);
            }
            LinkOpType::AddLink => self.add_link(op.id1, op.link_type, op.id2, payload),
            LinkOpType::UpdateLink => self.put(Key::link(op.id1, op.link_type, op.id2), payload),
            LinkOpType::DeleteLink => self.delete_link(op.id1, op.link_type, op.id2),
            _ => {}
        }
        payload.len() as u64
    }
}

fn payload(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(v.as_mut_slice());
    v
}

/// The database and the generators that drive it.
struct Rig<D: BenchDevice> {
    db: InnoDb<D>,
    lb: LinkBench,
    rng: StdRng,
    shadow: Shadow,
    ecfg: InnoDbConfig,
    seed: u64,
    verify_samples: usize,
}

/// One generated transaction with everything the engine call needs.
struct Txn {
    op: LinkOp,
    id2s: Vec<u64>,
    payload: Vec<u8>,
}

fn engine_config(p: &LinkParams) -> (InnoDbConfig, u64) {
    // Database size estimate: nodes + links + counts at ~70 % page fill
    // (the sizing rule of the legacy fig5 driver).
    let base = InnoDbConfig::default();
    let rows = p.nodes * (1 + 2 * p.links_per_node);
    let est_db_pages = ((rows * 130) as f64 / 0.70 / base.page_bytes as f64).ceil() as u64;
    let max_pages = (est_db_pages as f64 * 1.25) as u64 + 128;
    let pool_pages = match p.pool {
        Pool::FractionOfDb(f) => ((est_db_pages as f64 * f) as usize).max(64),
        Pool::TimesDb(x) => ((est_db_pages as f64 * x) as usize).max(max_pages as usize),
    };
    let ecfg = InnoDbConfig {
        mode: p.mode,
        pool_pages,
        max_pages,
        ckpt_redo_bytes: p.ckpt_redo_bytes,
        ..base
    };
    (ecfg, est_db_pages)
}

fn build<D: BenchDevice>(p: &LinkParams, seed: u64, ctx: &RepCtx) -> Rig<D> {
    let (ecfg, _) = engine_config(p);
    // Tablespace plus double-write area plus file-system metadata; modest
    // logical headroom keeps GC under pressure (aged device).
    let logical_bytes =
        ecfg.max_pages * ecfg.page_bytes as u64 + 80 * ecfg.page_bytes as u64 + (6 << 20);
    let fcfg = FtlConfig::for_capacity_with(logical_bytes, 0.18, 4096, 128, NandTiming::default())
        .with_parallelism(p.channels, 1)
        .with_telemetry(ctx.telemetry());
    let dev = D::wrap(Ftl::new(fcfg), ctx.probe.clone());
    let log_dev = standard_log_device(dev.clock().clone());
    let mut db = InnoDb::create(dev, log_dev, ecfg.clone()).expect("create engine");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad);
    let mut shadow = Shadow::default();
    for id in 0..p.nodes {
        let node = payload(&mut rng, 96);
        db.add_node(id, &node).expect("load node");
        shadow.put(Key::node(id), &node);
        for l in 0..p.links_per_node {
            let id2 = rng.random_range(0..p.nodes);
            let link = payload(&mut rng, 96);
            db.add_link(id, (l % 4) as u32, id2, &link)
                .expect("load link");
            shadow.add_link(id, (l % 4) as u32, id2, &link);
        }
    }
    db.checkpoint().expect("post-load checkpoint");

    let lb = LinkBench::new(&LinkBenchConfig {
        initial_nodes: p.nodes,
        link_types: 4,
        payload_mean: 96,
        seed,
    });
    Rig {
        db,
        lb,
        rng,
        shadow,
        ecfg,
        seed,
        verify_samples: p.verify_samples,
    }
}

impl<D: BenchDevice> Rig<D> {
    fn next_round(&mut self, round: usize) -> Vec<Txn> {
        (0..round)
            .map(|_| {
                let op = self.lb.next_op();
                let id2s = if op.op == LinkOpType::MultigetLink {
                    (0..4)
                        .map(|_| self.rng.random_range(0..self.lb.node_count()))
                        .collect()
                } else {
                    Vec::new()
                };
                let needs_payload = matches!(
                    op.op,
                    LinkOpType::AddNode
                        | LinkOpType::UpdateNode
                        | LinkOpType::AddLink
                        | LinkOpType::UpdateLink
                );
                let payload = if needs_payload {
                    payload(&mut self.rng, op.payload)
                } else {
                    Vec::new()
                };
                Txn { op, id2s, payload }
            })
            .collect()
    }

    fn prefetch_keys(txns: &[Txn]) -> Vec<Key> {
        let mut keys = Vec::with_capacity(txns.len() * 2);
        for Txn { op, id2s, .. } in txns {
            match op.op {
                LinkOpType::GetNode
                | LinkOpType::AddNode
                | LinkOpType::UpdateNode
                | LinkOpType::DeleteNode => keys.push(Key::node(op.id1)),
                LinkOpType::CountLink => keys.push(Key::count(op.id1, op.link_type)),
                LinkOpType::MultigetLink => {
                    keys.extend(id2s.iter().map(|&id2| Key::link(op.id1, op.link_type, id2)));
                }
                LinkOpType::GetLinkList => {
                    keys.push(Key::link_range_start(op.id1, op.link_type));
                }
                LinkOpType::AddLink | LinkOpType::UpdateLink | LinkOpType::DeleteLink => {
                    keys.push(Key::link(op.id1, op.link_type, op.id2));
                    keys.push(Key::count(op.id1, op.link_type));
                }
            }
        }
        keys
    }

    fn call(db: &mut InnoDb<D>, t: &Txn) -> Result<(), EngineError> {
        let op = &t.op;
        match op.op {
            LinkOpType::GetNode => db.get_node(op.id1).map(drop),
            LinkOpType::CountLink => db.count_link(op.id1, op.link_type).map(drop),
            LinkOpType::MultigetLink => db.multiget_link(op.id1, op.link_type, &t.id2s).map(drop),
            LinkOpType::GetLinkList => db.get_link_list(op.id1, op.link_type).map(drop),
            LinkOpType::AddNode => db.add_node(op.id1, &t.payload),
            LinkOpType::UpdateNode => db.update_node(op.id1, &t.payload),
            LinkOpType::DeleteNode => db.delete_node(op.id1).map(drop),
            LinkOpType::AddLink => db.add_link(op.id1, op.link_type, op.id2, &t.payload),
            LinkOpType::DeleteLink => db.delete_link(op.id1, op.link_type, op.id2).map(drop),
            LinkOpType::UpdateLink => db.update_link(op.id1, op.link_type, op.id2, &t.payload),
        }
    }

    /// Sampled check of the shadow model against the engine: point reads
    /// of live and deleted keys, and whole link lists.
    fn verify_sampled(&mut self, when: &str, failures: &mut Vec<String>) {
        let samples = self.verify_samples;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_c4ec);
        let nodes = self.lb.node_count();
        let mut bad = 0usize;
        for i in 0..samples {
            let id1 = rng.random_range(0..nodes);
            let probe_key = match i % 3 {
                0 => Key::node(id1),
                1 => Key::link_range_start(id1, 0),
                _ => Key::count(id1, 0),
            };
            let Some((&key, &want)) = self.shadow.rows.range(probe_key..).next() else {
                continue;
            };
            let got = self.db.get(&key).ok().flatten().map(|v| fingerprint(&v));
            if got != want {
                bad += 1;
            }
        }
        for _ in 0..samples / 10 {
            let id1 = rng.random_range(0..nodes);
            let typ = rng.random_range(0..4u32);
            let want: Vec<(u64, u64)> = self
                .shadow
                .rows
                .range(Key::link_range_start(id1, typ)..Key::link_range_end(id1, typ))
                .filter_map(|(k, v)| {
                    let id2 = u64::from_be_bytes(k.0[13..21].try_into().expect("id2 field"));
                    v.map(|fp| (id2, fp))
                })
                .collect();
            let got: Option<Vec<(u64, u64)>> = self
                .db
                .get_link_list(id1, typ)
                .ok()
                .map(|rows| rows.iter().map(|(id2, v)| (*id2, fingerprint(v))).collect());
            if got.as_ref() != Some(&want) {
                bad += 1;
            }
        }
        if bad > 0 {
            failures.push(format!(
                "{when}: {bad} sampled keys differ from the shadow model"
            ));
        }
    }
}

impl<D: BenchDevice> crate::rep::Rig for Rig<D> {
    type Dev = D;

    fn device(&mut self) -> &D {
        self.db.fs_mut().device()
    }

    fn round(&mut self, n: usize, probe: &Probe, lat: Option<&mut Vec<u64>>) -> (u64, u64) {
        let (txns, keys) = probe.span(WallLayer::Gen, "next_round", || {
            let txns = self.next_round(n);
            let keys = Self::prefetch_keys(&txns);
            (txns, keys)
        });
        let clock = self.db.clock();
        let t0 = clock.now_ns();
        let db = &mut self.db;
        let shadow = &mut self.shadow;
        let mut failed = 0u64;
        let mut user_bytes = 0u64;
        if probe
            .span(WallLayer::Engine, "prefetch_keys", || {
                db.prefetch_keys(&keys)
            })
            .is_err()
        {
            failed += 1;
        }
        db.begin_group();
        // Completion time of each read; writes complete with the group.
        let mut read_done: Vec<Option<u64>> = Vec::with_capacity(txns.len());
        for t in &txns {
            let ok = probe
                .span(WallLayer::Engine, t.op.op.name(), || Self::call(db, t))
                .is_ok();
            if !ok {
                failed += 1;
            }
            if t.op.op.is_write() {
                if ok {
                    user_bytes +=
                        probe.span(WallLayer::Gen, "shadow", || shadow.apply(&t.op, &t.payload));
                }
                read_done.push(None);
            } else {
                read_done.push(Some(clock.now_ns()));
            }
        }
        if probe
            .span(WallLayer::Engine, "group_commit", || db.group_commit())
            .is_err()
        {
            failed += 1;
        }
        if let Some(lat) = lat {
            let durable = clock.now_ns();
            lat.extend(read_done.iter().map(|d| d.unwrap_or(durable) - t0));
        }
        (failed, user_bytes)
    }

    fn verify(&mut self, when: &str, failures: &mut Vec<String>) {
        self.verify_sampled(when, failures)
    }

    fn reopen(mut self, failures: &mut Vec<String>) -> (Option<Self>, Recover) {
        if let Err(e) = self.db.shutdown() {
            failures.push(format!("shutdown: {e}"));
        }
        let Rig { db, ecfg, .. } = self;
        let (dev, log_dev) = db.into_devices();
        let ftl = dev.into_ftl();
        let fcfg = ftl.config().clone();
        let clock = ftl.clock().clone();
        let nand = ftl.into_nand();
        let (sim0, wall) = (clock.now_ns(), Instant::now());
        let mut page_reads = 0;
        let db = match Ftl::open(fcfg, nand) {
            Ok(ftl) => {
                page_reads = ftl.stats().recovery_page_reads;
                InnoDb::open(D::wrap(ftl, Probe::off()), log_dev, ecfg.clone())
                    .map_err(|e| failures.push(format!("engine reopen: {e}")))
                    .ok()
            }
            Err(e) => {
                failures.push(format!("device reopen: {e}"));
                None
            }
        };
        let recover = Recover {
            sim_ms: (clock.now_ns() - sim0) as f64 / 1e6,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            page_reads,
        };
        (db.map(|db| Rig { db, ecfg, ..self }), recover)
    }
}

pub fn run<D: BenchDevice>(p: &LinkParams, seed: u64, ctx: &RepCtx) -> RepOut {
    let setup = Instant::now();
    let mut rig = build::<D>(p, seed, ctx);
    let conns = p.connections.max(1);
    let mut left = p.warmup_txns;
    while left > 0 {
        let n = conns.min(left as usize);
        // A failing warm-up op would fail again in the window's checks.
        rig.round(n, &Probe::off(), None);
        left -= n as u64;
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let engine0 = rig.db.stats();
    let pool0 = rig.db.pool_stats();
    let log0 = rig.db.log_device_stats();
    let vfs0 = rig.db.fs_mut().stats();
    let window = measure(&mut rig, ctx, conns);

    // ---- per-layer counters of the window ---------------------------------
    let e = rig.db.stats();
    let pool = rig.db.pool_stats();
    let log = rig.db.log_device_stats().delta_since(&log0);
    let vfs = rig.db.fs_mut().stats();
    let ops = window.ops as f64;
    // `PoolStats::misses` never counts (the engine checks residency before
    // every `get_mut`), so a miss is taken as a page load, and in a full
    // pool every load is preceded by one eviction.
    let lookups = (pool.hits - pool0.hits) + (pool.misses - pool0.misses);
    let evictions = pool.evictions - pool0.evictions;
    let layer = BTreeMap::from([
        (
            "innodb.pool_hit_ratio",
            ratio(lookups.saturating_sub(evictions) as f64, lookups as f64),
        ),
        ("innodb.pool_evictions_per_op", evictions as f64 / ops),
        (
            "innodb.pages_flushed_per_op",
            (e.pages_flushed - engine0.pages_flushed) as f64 / ops,
        ),
        (
            "innodb.dwb_pages_per_op",
            (e.dwb_pages_written - engine0.dwb_pages_written) as f64 / ops,
        ),
        (
            "innodb.group_commit_size",
            ratio(
                (e.commits - engine0.commits) as f64,
                (e.group_commits - engine0.group_commits) as f64,
            ),
        ),
        (
            "innodb.share_fallbacks",
            (e.share_fallbacks - engine0.share_fallbacks) as f64,
        ),
        (
            "innodb.checkpoints",
            (e.checkpoints - engine0.checkpoints) as f64,
        ),
        ("logdev.flushes_per_op", log.flushes as f64 / ops),
        (
            "logdev.write_kb_per_op",
            log.host_write_bytes as f64 / 1024.0 / ops,
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

    finish(rig, ctx, window, setup_s, Some(log), layer)
}
