//! LinkBench-over-mini-InnoDB experiment driver (Figures 5–6, Table 1).

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use nand_sim::NandTiming;
use share_rng::{Rng, StdRng};
use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig};
use share_workloads::{LatencyRecorder, LinkBench, LinkBenchConfig, LinkOp, LinkOpType};

/// The workload seed and the links per node at load time of every run.
const SEED: u64 = 42;
const LINKS_PER_NODE: u64 = 3;

/// Parameters of one LinkBench run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBenchRun {
    /// InnoDB flush protocol under test.
    pub mode: FlushMode,
    /// Engine page size (the paper's 4/8/16 KiB axis).
    pub page_bytes: usize,
    /// Buffer pool as a fraction of the database size (the paper's
    /// 50–150 MB axis, scaled).
    pub pool_fraction: f64,
    /// Social-graph nodes to load.
    pub nodes: u64,
    /// Warm-up transactions (not measured; also ages the SSD).
    pub warmup_txns: u64,
    /// Measured transactions.
    pub txns: u64,
    /// Reverse-map capacity of the device (`usize::MAX`: unbounded).
    pub revmap_capacity: usize,
    /// InnoDB neighbor flushing (the paper turned it off).
    pub flush_neighbors: bool,
    /// NAND channels of the data device (1 = the paper's serial device).
    pub channels: u32,
    /// Concurrent client connections (the paper ran 16 LinkBench clients;
    /// 1 = the original serial driver). With C > 1 each round batches C
    /// transactions: their B+tree pages are prefetched with one batched
    /// read per tree level and their commits share one group fsync.
    pub connections: usize,
}

impl Default for LinkBenchRun {
    fn default() -> Self {
        Self {
            mode: FlushMode::DwbOn,
            page_bytes: 4096,
            pool_fraction: 1.0 / 30.0, // 50 MB of a 1.5 GB database
            nodes: 20_000,
            warmup_txns: 40_000,
            txns: 20_000,
            revmap_capacity: usize::MAX,
            flush_neighbors: false,
            channels: 1,
            connections: 1,
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug)]
pub struct LinkBenchResult {
    /// Transactions per simulated second.
    pub tps: f64,
    /// Simulated seconds of the measured window.
    pub elapsed_secs: f64,
    /// Per-op-type latency samples.
    pub latency: LatencyRecorder,
    /// Data-device traffic during the measured window.
    pub device: DeviceStats,
    /// Database size in engine pages after load.
    pub db_pages: u64,
    /// Engine counters for the whole run.
    pub engine: mini_innodb::EngineStats,
    /// Final wear summary of the data device.
    pub wear: share_core::WearStats,
}

fn payload(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(v.as_mut_slice());
    v
}

/// Build the device + engine, load the graph, run warm-up + measured
/// transactions. The FTL is sized so the database fills most of the
/// logical space (aged device: GC stays active, as in the paper's setup).
pub fn run_linkbench(run: &LinkBenchRun) -> LinkBenchResult {
    // Rough database size estimate: nodes + links + counts, ~70 % page fill.
    let rows = run.nodes * (1 + 2 * LINKS_PER_NODE);
    let row_bytes = 130u64;
    let est_db_bytes = (rows * row_bytes) as f64 / 0.70;
    let est_db_pages = (est_db_bytes / run.page_bytes as f64).ceil() as u64;
    let pool_pages = ((est_db_pages as f64 * run.pool_fraction) as usize).max(64);

    // Device: tablespace plus double-write area plus FS overhead; modest
    // logical headroom keeps GC under pressure (aged device, as in the
    // paper's setup).
    let max_pages = (est_db_pages as f64 * 1.25) as u64 + 128;
    let logical_bytes = max_pages * run.page_bytes as u64
        + 80 * run.page_bytes as u64 // double-write area + slack
        + (6 << 20); // file-system metadata + journal
    let mut fcfg = FtlConfig::for_capacity_with(logical_bytes, 0.18, 4096, 128, NandTiming::default())
        .with_parallelism(run.channels, 1);
    fcfg.revmap_capacity = run.revmap_capacity;
    let dev = Ftl::new(fcfg);
    let log_dev = standard_log_device(dev.clock().clone());

    let ecfg = InnoDbConfig {
        mode: run.mode,
        page_bytes: run.page_bytes,
        pool_pages,
        max_pages,
        flush_neighbors: run.flush_neighbors,
        ..InnoDbConfig::default()
    };
    let mut db = InnoDb::create(dev, log_dev, ecfg).expect("create engine");

    // ---- load phase -----------------------------------------------------
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x10ad);
    for id in 0..run.nodes {
        db.add_node(id, &payload(&mut rng, 96)).expect("load node");
        for l in 0..LINKS_PER_NODE {
            let id2 = rng.random_range(0..run.nodes);
            db.add_link(id, (l % 4) as u32, id2, &payload(&mut rng, 96)).expect("load link");
        }
    }
    db.checkpoint().expect("post-load checkpoint");
    let db_pages = db.page_count();

    // ---- warm-up / aging --------------------------------------------------
    let mut lb = LinkBench::new(&LinkBenchConfig {
        initial_nodes: run.nodes,
        link_types: 4,
        payload_mean: 96,
        seed: SEED,
    });
    let mut latency = LatencyRecorder::new();
    let conns = run.connections.max(1);
    let mut warmup_left = run.warmup_txns;
    while warmup_left > 0 {
        let round = conns.min(warmup_left as usize);
        apply_round(&mut db, &mut lb, &mut rng, round, None);
        warmup_left -= round as u64;
    }

    // ---- measured window ---------------------------------------------------
    let clock = db.clock();
    let stats0 = db.data_device_stats();
    let t0 = clock.now_ns();
    let mut left = run.txns;
    while left > 0 {
        let round = conns.min(left as usize);
        apply_round(&mut db, &mut lb, &mut rng, round, Some(&mut latency));
        left -= round as u64;
    }
    let elapsed = clock.now_ns() - t0;
    let device = db.data_device_stats().delta_since(&stats0);
    let wear = db.fs_mut().device().wear_stats();

    LinkBenchResult {
        tps: run.txns as f64 / (elapsed as f64 / 1e9),
        elapsed_secs: elapsed as f64 / 1e9,
        latency,
        device,
        db_pages,
        engine: db.stats(),
        wear,
    }
}

/// Process one round of concurrent transactions (round size 1 = the
/// original serial driver, bit-identical to the pre-queue behaviour).
/// Larger rounds model C connections: the round's B+tree pages are
/// prefetched with one batched device read per tree level, and every
/// transaction's commit shares one group fsync.
fn apply_round(
    db: &mut InnoDb<Ftl>,
    lb: &mut LinkBench,
    rng: &mut StdRng,
    round: usize,
    mut latency: Option<&mut LatencyRecorder>,
) {
    use mini_innodb::Key;
    let grouped = round > 1;
    // Collect the round's transactions; multiget targets are drawn up
    // front so prefetch can see them.
    let mut ops: Vec<(LinkOp, Vec<u64>)> = Vec::with_capacity(round);
    for _ in 0..round {
        let op = lb.next_op();
        let id2s = if op.op == LinkOpType::MultigetLink {
            (0..4).map(|_| rng.random_range(0..lb.node_count())).collect()
        } else {
            Vec::new()
        };
        ops.push((op, id2s));
    }
    if grouped {
        let mut keys: Vec<Key> = Vec::with_capacity(ops.len() * 2);
        for (op, id2s) in &ops {
            match op.op {
                LinkOpType::GetNode
                | LinkOpType::AddNode
                | LinkOpType::UpdateNode
                | LinkOpType::DeleteNode => keys.push(Key::node(op.id1)),
                LinkOpType::CountLink => keys.push(Key::count(op.id1, op.link_type)),
                LinkOpType::MultigetLink => {
                    keys.extend(id2s.iter().map(|&id2| Key::link(op.id1, op.link_type, id2)));
                }
                LinkOpType::GetLinkList => keys.push(Key::link_range_start(op.id1, op.link_type)),
                LinkOpType::AddLink | LinkOpType::UpdateLink | LinkOpType::DeleteLink => {
                    keys.push(Key::link(op.id1, op.link_type, op.id2));
                    keys.push(Key::count(op.id1, op.link_type));
                }
            }
        }
        db.prefetch_keys(&keys).expect("prefetch");
        db.begin_group();
    }
    // Concurrent semantics: every txn in the round was submitted at t0, so
    // each op's latency runs from the round start. A read ends at its own
    // return; a grouped write is acknowledged when the group commit makes
    // it durable.
    let clock = db.clock();
    let t0 = clock.now_ns();
    let mut unacked: Vec<&'static str> = Vec::new();
    for (op, id2s) in &ops {
        apply_one(db, op, id2s, rng);
        if let Some(rec) = latency.as_deref_mut() {
            if grouped && op.op.is_write() {
                unacked.push(op.op.name());
            } else {
                rec.record(op.op.name(), clock.now_ns() - t0);
            }
        }
    }
    if grouped {
        db.group_commit().expect("group commit");
        if let Some(rec) = latency {
            let acked = clock.now_ns() - t0;
            for name in unacked {
                rec.record(name, acked);
            }
        }
    }
}

fn apply_one(db: &mut InnoDb<Ftl>, op: &LinkOp, id2s: &[u64], rng: &mut StdRng) {
    match op.op {
        LinkOpType::GetNode => {
            db.get_node(op.id1).expect("get_node");
        }
        LinkOpType::CountLink => {
            db.count_link(op.id1, op.link_type).expect("count_link");
        }
        LinkOpType::MultigetLink => {
            db.multiget_link(op.id1, op.link_type, id2s).expect("multiget_link");
        }
        LinkOpType::GetLinkList => {
            db.get_link_list(op.id1, op.link_type).expect("get_link_list");
        }
        LinkOpType::AddNode => {
            db.add_node(op.id1, &payload(rng, op.payload)).expect("add_node");
        }
        LinkOpType::UpdateNode => {
            db.update_node(op.id1, &payload(rng, op.payload)).expect("update_node");
        }
        LinkOpType::DeleteNode => {
            db.delete_node(op.id1).expect("delete_node");
        }
        LinkOpType::AddLink => {
            db.add_link(op.id1, op.link_type, op.id2, &payload(rng, op.payload))
                .expect("add_link");
        }
        LinkOpType::DeleteLink => {
            db.delete_link(op.id1, op.link_type, op.id2).expect("delete_link");
        }
        LinkOpType::UpdateLink => {
            db.update_link(op.id1, op.link_type, op.id2, &payload(rng, op.payload))
                .expect("update_link");
        }
    }
}
