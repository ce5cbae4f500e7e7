//! YCSB-over-mini-Couchbase experiment driver (Figures 7–8, Table 2).

use mini_couch::{CompactionReport, CouchConfig, CouchMode, CouchStore};
use nand_sim::NandTiming;
use share_rng::{Rng, StdRng};
use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig, Snapshot, TelemetryConfig, Tracer};
use share_vfs::{Vfs, VfsOptions};
use share_workloads::{Ycsb, YcsbConfig, YcsbOp, YcsbWorkload};

/// The workload seed of every run.
const SEED: u64 = 42;

/// Parameters of one YCSB run.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbRun {
    /// Couchbase index strategy under test.
    pub mode: CouchMode,
    /// Workload A (50/50) or F (read-modify-write).
    pub workload: YcsbWorkload,
    /// Updates per fsync (the paper's batch-size axis: 1..256).
    pub batch_size: usize,
    /// Documents loaded before the run.
    pub records: u64,
    /// Document payload bytes (one 4 KiB block by default).
    pub record_size: usize,
    /// Measured operations.
    pub ops: u64,
    /// NAND channels of the device (1 = the paper's serial device).
    pub channels: u32,
    /// Concurrent host connections (1 = the original serial driver).
    /// With C > 1 each round issues C operations together: reads through
    /// `get_many` (queued, overlapping) and writes through `save_many`
    /// (queued appends + one group commit), so independent commands from
    /// different connections overlap across NAND channels.
    pub connections: usize,
    /// Device telemetry collection (counters-only by default).
    pub telemetry: TelemetryConfig,
}

impl Default for YcsbRun {
    fn default() -> Self {
        Self {
            mode: CouchMode::Original,
            workload: YcsbWorkload::F,
            batch_size: 1,
            records: 10_000,
            record_size: 4056, // one 4 KiB block including the header
            ops: 10_000,
            channels: 1,
            connections: 1,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Measured outcome of one run.
#[derive(Debug)]
pub struct YcsbResult {
    /// Operations per simulated second.
    pub ops_per_sec: f64,
    /// Simulated seconds of the measured window.
    pub elapsed_secs: f64,
    /// Device traffic during the measured window.
    pub device: DeviceStats,
    /// Cumulative device traffic for the whole run (load + measure) — the
    /// window the telemetry snapshot covers.
    pub device_total: DeviceStats,
    /// Engine counters for the whole run.
    pub couch: mini_couch::CouchStats,
    /// Device telemetry at the end of the run (whole run, not just the
    /// measured window).
    pub telemetry: Option<Snapshot>,
    /// Span tracer of the device (a disabled no-op handle unless the run's
    /// [`TelemetryConfig`] enabled tracing).
    pub tracer: Tracer,
}

fn doc_payload(rng: &mut StdRng, n: usize) -> Vec<u8> {
    let mut v = vec![0u8; n];
    rng.fill(v.as_mut_slice());
    v
}

/// Size an FTL for a couch run: load + appended traffic + headroom.
fn device_for(run: &YcsbRun) -> Ftl {
    let blocks_per_doc = mini_couch::doc_blocks(run.record_size, 4096);
    // Worst-case appends: doc + both index paths (by-id and by-seq) +
    // header per committed op, plus load-time index churn and slack.
    let worst_blocks = run.records * (blocks_per_doc + 5) + run.ops * (blocks_per_doc + 15) + 16_384;
    let logical_bytes = worst_blocks * 4096 + (8 << 20);
    let fcfg = FtlConfig::for_capacity_with(logical_bytes, 0.15, 4096, 128, NandTiming::default())
        .with_parallelism(run.channels, 1)
        .with_telemetry(run.telemetry);
    Ftl::new(fcfg)
}

/// Create a loaded store for `run`.
pub fn loaded_store(run: &YcsbRun) -> CouchStore<Ftl> {
    let fs = Vfs::format(device_for(run), VfsOptions::default()).expect("format");
    let ccfg = CouchConfig {
        mode: run.mode,
        batch_size: run.batch_size,
        // Fanout chosen so the index is ~3 levels deep at the default
        // record count, matching the paper's "average tree depth was 3".
        node_max_entries: 22,
        ..Default::default()
    };
    let mut store = CouchStore::create(fs, "ycsb.couch", ccfg).expect("create store");
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x10ad);
    // Bulk load with a large effective batch (load is not measured).
    for key in 0..run.records {
        store.save(key, &doc_payload(&mut rng, run.record_size)).expect("load doc");
        if key % 4096 == 4095 {
            store.commit().expect("load commit");
        }
    }
    store.commit().expect("final load commit");
    store
}

/// Run the measured YCSB window.
pub fn run_ycsb(run: &YcsbRun) -> YcsbResult {
    let mut store = loaded_store(run);
    let mut gen = Ycsb::new(&YcsbConfig {
        workload: run.workload,
        record_count: run.records,
        record_size: run.record_size,
        seed: SEED,
    });
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x0b5e);

    let clock = store.clock();
    let stats0 = store.device_stats();
    let t0 = clock.now_ns();
    if run.connections > 1 {
        run_concurrent(run, &mut store, &mut gen, &mut rng);
    } else {
        run_serial(run, &mut store, &mut gen, &mut rng);
    }
    store.commit().expect("final commit");
    let elapsed = clock.now_ns() - t0;
    let device_total = store.device_stats();
    let device = device_total.delta_since(&stats0);
    let telemetry = store.fs_mut().device().telemetry_snapshot();
    let tracer = store.fs_mut().device().tracer();

    YcsbResult {
        ops_per_sec: run.ops as f64 / (elapsed as f64 / 1e9),
        elapsed_secs: elapsed as f64 / 1e9,
        device,
        device_total,
        couch: store.stats(),
        telemetry,
        tracer,
    }
}

/// The original one-blocking-command-at-a-time driver.
fn run_serial(run: &YcsbRun, store: &mut CouchStore<Ftl>, gen: &mut Ycsb, rng: &mut StdRng) {
    for _ in 0..run.ops {
        match gen.next_op() {
            YcsbOp::Read { key } => {
                store.get(key).expect("read");
            }
            YcsbOp::Update { key } => {
                store.save(key, &doc_payload(rng, run.record_size)).expect("update");
            }
            YcsbOp::ReadModifyWrite { key } => {
                let _old = store.get(key).expect("rmw read");
                store.save(key, &doc_payload(rng, run.record_size)).expect("rmw write");
            }
            YcsbOp::Insert { key } => {
                store.save(key, &doc_payload(rng, run.record_size)).expect("insert");
            }
            YcsbOp::Scan { key, len } => {
                // The store has no range API (couchstore scans via views);
                // model a scan as `len` point reads over the key range.
                for k in key..(key + len).min(run.records) {
                    store.get(k).expect("scan read");
                }
            }
        }
    }
}

/// The multi-connection driver: each round gathers one operation per
/// connection, issues every read through the queued `get_many` path and
/// every write through `save_many` (queued appends sharing one group
/// commit), so commands from different connections overlap on the device.
fn run_concurrent(run: &YcsbRun, store: &mut CouchStore<Ftl>, gen: &mut Ycsb, rng: &mut StdRng) {
    let mut remaining = run.ops;
    while remaining > 0 {
        let round = run.connections.min(remaining as usize);
        let ops: Vec<YcsbOp> = (0..round).map(|_| gen.next_op()).collect();
        let mut read_keys: Vec<u64> = Vec::new();
        for op in &ops {
            match *op {
                YcsbOp::Read { key } | YcsbOp::ReadModifyWrite { key } => read_keys.push(key),
                YcsbOp::Scan { key, len } => {
                    read_keys.extend(key..(key + len).min(run.records));
                }
                _ => {}
            }
        }
        if !read_keys.is_empty() {
            store.get_many(&read_keys).expect("round reads");
        }
        let writes: Vec<(u64, Vec<u8>)> = ops
            .iter()
            .filter_map(|op| match *op {
                YcsbOp::Update { key }
                | YcsbOp::Insert { key }
                | YcsbOp::ReadModifyWrite { key } => {
                    Some((key, doc_payload(rng, run.record_size)))
                }
                _ => None,
            })
            .collect();
        if !writes.is_empty() {
            let batch: Vec<(u64, &[u8])> =
                writes.iter().map(|(k, d)| (*k, d.as_slice())).collect();
            store.save_many(&batch).expect("round writes");
        }
        remaining -= round as u64;
    }
}

/// Build an aged database (several full update rounds) and compact it —
/// the paper's Table 2 scenario.
pub fn run_compaction(mode: CouchMode, records: u64, update_rounds: u64) -> CompactionReport {
    let run = YcsbRun { mode, records, ops: records * update_rounds, batch_size: 16, ..Default::default() };
    let mut store = loaded_store(&run);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..update_rounds {
        for key in 0..records {
            store.save(key, &doc_payload(&mut rng, run.record_size)).expect("aging update");
        }
    }
    store.commit().expect("aging commit");
    store.compact().expect("compaction")
}
