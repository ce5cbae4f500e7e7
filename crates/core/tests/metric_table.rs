//! A counter that exists is exported.
//!
//! Every `DeviceStats`/`NandStats` field is one row of the device's metric
//! table, and the JSON export walks that table: whatever
//! `dev.stats().rows()` holds must appear, with the same value, under
//! `metrics.<field>` in the document `sharectl metrics` prints. Every key a
//! device snapshot emits is pinned in order, each latency histogram's
//! buckets are checked against its count and percentiles, and damaged
//! copies of the dump go back through the parser (ROADMAP item 5, exporter
//! text). Reading the exports after every command changes nothing
//! simulated.

use nand_sim::NandTiming;
use share_core::telemetry::json::{self, Json};
use share_core::telemetry::metric::Value;
use share_core::telemetry::OpClass;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, QueuedCmd, SharePair, TelemetryConfig};
use share_rng::Rng;

const PAGES: u64 = 512;
const PAGE: usize = 4096;

/// Writes, batch writes, reads, SHARE, trim, snapshot create/clone/read,
/// a queued command, and enough overwrite rounds for GC and a checkpoint.
fn mixed_script(dev: &mut Ftl) {
    let page = |b: u64| vec![(b % 251 + 1) as u8; PAGE];
    for lpn in 0..PAGES {
        dev.write(Lpn(lpn), &page(lpn)).unwrap();
    }
    let (a, b) = (page(7), page(8));
    dev.write_batch(&[(Lpn(300), &a[..]), (Lpn(301), &b[..])]).unwrap();
    dev.write_atomic(&[(Lpn(302), &a[..]), (Lpn(303), &b[..])]).unwrap();
    dev.share(&[SharePair::new(Lpn(310), Lpn(300))]).unwrap();
    dev.share_batch(&SharePair::range(Lpn(320), Lpn(0), 8)).unwrap();
    dev.trim(Lpn(301), 1).unwrap();
    dev.snapshot_create("base", Lpn(0), 16).unwrap();
    dev.snapshot_clone("base", 0, Lpn(400), 16).unwrap();
    let mut buf = vec![0u8; PAGE];
    dev.snapshot_read("base", 3, &mut buf).unwrap();
    dev.read(Lpn(310), &mut buf).unwrap();
    dev.submit(QueuedCmd::ReadBatch { lpns: &[Lpn(1), Lpn(2)], buf: Vec::new() }).unwrap();
    dev.drain();
    // Mixed overwrite lifetimes, so GC victims still carry live pages.
    for round in 0..8u64 {
        for i in 0..PAGES {
            let lpn = (i * 173 + round * 311) % PAGES;
            if round % (1 + lpn % 4) == 0 {
                dev.write(Lpn(lpn), &page(lpn + round)).unwrap();
            }
        }
        dev.flush().unwrap();
    }
    dev.snapshot_drop("base").unwrap();
}

fn device() -> Ftl {
    let cfg = FtlConfig::for_capacity_with(PAGES * PAGE as u64, 0.12, PAGE, 32, NandTiming::default())
        .with_telemetry(TelemetryConfig::tracing());
    let mut dev = Ftl::new(cfg);
    mixed_script(&mut dev);
    dev
}

#[test]
fn every_counter_row_is_exported_with_its_value() {
    let dev = device();
    let stats = dev.stats();
    for (what, n) in [
        ("gc", stats.gc_events),
        ("copyback", stats.copyback_pages),
        ("checkpoints", stats.checkpoints),
        ("share", stats.shared_pages),
        ("clone", stats.snapshot_clone_pages),
        ("erases", stats.nand.block_erases),
    ] {
        assert!(n > 0, "script exercised no {what}");
    }

    let snap = dev.telemetry_snapshot().unwrap();
    let doc = json::parse(&snap.to_json().render()).expect("metrics JSON parses");
    let metrics = doc.get("metrics").expect("metrics object");

    let rows = stats.rows();
    assert_eq!(rows.len() * 8, std::mem::size_of_val(&stats), "a row per counter");
    for m in &rows {
        let Value::U64(v) = m.value else { panic!("{} is not integral", m.name) };
        assert_eq!(metrics.get(m.name).and_then(Json::as_u64), Some(v), "metrics.{}", m.name);
        assert_eq!(snap.metric(m.name), Some(m.value));
    }
    // WAF rides beside them.
    assert_eq!(snap.metric("waf"), Some(Value::F64(stats.waf())));
    assert_eq!(metrics.get("waf").and_then(Json::as_f64), Some(stats.waf()));
}

/// Every key a device snapshot's document emits, in emission order: its
/// four sections, the fields of each op class's latency histogram, each
/// NAND unit's field, and the metric table's rows. A key added or removed
/// anywhere shows up here first.
const KEYS: [&str; 58] = [
    "now_ns",
    "latency_ns",
    "units",
    "metrics",
    "count",
    "sum",
    "min",
    "max",
    "p50",
    "p95",
    "p99",
    "buckets",
    "busy_ns",
    "host_reads",
    "host_writes",
    "host_read_bytes",
    "host_write_bytes",
    "flushes",
    "trims",
    "share_commands",
    "shared_pages",
    "snapshot_creates",
    "snapshot_drops",
    "snapshot_clones",
    "snapshot_clone_pages",
    "snapshot_reads",
    "snapshot_pinned_relocations",
    "gc_events",
    "copyback_pages",
    "gc_erases",
    "gc_stall_ns",
    "gc_budget_deferrals",
    "meta_page_writes",
    "checkpoints",
    "recoveries",
    "recovery_page_reads",
    "recovery_page_writes",
    "lane_steals",
    "page_reads",
    "page_programs",
    "block_erases",
    "torn_programs",
    "waf",
    "queue_depth",
    "queue_inflight",
    "queue_inflight_max",
    "queue_submitted",
    "queue_reaped",
    "snapshots_live",
    "snapshot_frozen_pages",
    "snapshot_pinned_pages",
    "wear_erases_min",
    "wear_erases_max",
    "wear_erases_mean",
    "wear_erases_stddev",
    "wear_skew",
    "free_blocks",
    "data_blocks",
];

/// The keys of a JSON object, in order.
fn keys(obj: &Json) -> Vec<&str> {
    let Json::Obj(fields) = obj else { panic!("not an object: {obj:?}") };
    fields.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn families_emitted_before_the_table_are_still_emitted() {
    let dev = device();
    let doc = json::parse(&dev.telemetry_snapshot().unwrap().to_json().render()).unwrap();
    let section = |name: &str| doc.get(name).unwrap_or_else(|| panic!("no {name}"));
    let mut emitted = keys(&doc);
    // Every op class has a histogram, and every histogram the same fields.
    let latency = section("latency_ns");
    let ops: Vec<&str> = OpClass::ALL.iter().map(|op| op.name()).collect();
    assert_eq!(keys(latency), ops);
    let fields = keys(latency.get("read").unwrap());
    for op in &ops {
        assert_eq!(keys(latency.get(op).unwrap()), fields, "{op}");
    }
    emitted.extend(fields);
    // Every NAND unit, `ch<c>:w<w>` in unit order, has its busy time.
    let units = section("units");
    let geometry = dev.config().geometry;
    assert_eq!(keys(units).len(), (geometry.channels * geometry.ways) as usize);
    let unit = keys(units)[0];
    assert_eq!(unit, "ch0:w0");
    emitted.extend(keys(units.get(unit).unwrap()));
    emitted.extend(keys(section("metrics")));
    assert_eq!(emitted, KEYS, "the emitted keys changed");
}

/// Each op class's bucket list adds up to its count, and each reported
/// percentile lies inside one of its buckets: the distribution the summary
/// percentiles were read from travels with them.
#[test]
fn latency_buckets_sum_to_count_and_hold_each_percentile() {
    let doc = json::parse(&device().telemetry_snapshot().unwrap().to_json().render()).unwrap();
    let Some(Json::Obj(latency)) = doc.get("latency_ns") else { panic!("no latency_ns") };
    let field = |h: &Json, f: &str| h.get(f).and_then(Json::as_u64).unwrap();
    let mut recorded = 0;
    for (op, h) in latency {
        let listed = h.get("buckets").and_then(Json::as_array).unwrap();
        let buckets: Vec<(u64, u64)> = listed
            .iter()
            .map(|b| {
                let pair = b.as_array().unwrap();
                (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap())
            })
            .collect();
        assert_eq!(buckets.iter().map(|&(_, n)| n).sum::<u64>(), field(h, "count"), "{op}");
        assert!(buckets.iter().all(|&(_, n)| n > 0), "{op}: an empty bucket is listed");
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "{op}: buckets out of order");
        if buckets.is_empty() {
            continue;
        }
        recorded += 1;
        for p in ["p50", "p95", "p99"] {
            let v = field(h, p);
            // Bucket `[lo, hi]` of a log2 histogram: `hi = 2^k - 1`,
            // `lo = 2^(k-1)`; bucket 0 holds only 0.
            let held = buckets.iter().any(|&(hi, _)| hi.div_ceil(2) <= v && v <= hi);
            assert!(held, "{op}.{p} = {v} lies in no bucket of {buckets:?}");
        }
    }
    assert!(recorded >= 8, "script recorded only {recorded} op classes");
}

/// Seeded bit flips, truncations and bracket floods over a real metrics
/// dump: every case parses or is rejected — none panics, overflows the
/// stack or loops.
#[test]
fn damaged_dumps_parse_or_are_rejected() {
    let dump = device().telemetry_snapshot().unwrap().to_json().render().into_bytes();
    assert!(json::parse(std::str::from_utf8(&dump).unwrap()).is_ok());
    for (case, mut rng) in share_rng::sweep("exporter-hostile-input", 96) {
        let mut bytes = dump.clone();
        match case % 3 {
            0 => {
                for _ in 0..rng.random_range(1..8usize) {
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            1 => bytes.truncate(rng.random_range(0..bytes.len())),
            _ => {
                let at = rng.random_range(0..bytes.len());
                let open = if rng.random_bool(0.5) { "[" } else { "{\"k\":" };
                let flood = open.repeat(rng.random_range(1..100_000usize));
                bytes.splice(at..at, flood.bytes());
            }
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }
}

/// Pages of the GC-heavy storm below: 12 % over-provisioning on realistic
/// timing, so GC copyback, log flushes and checkpoints all run in it.
const STORM_PAGES: u64 = 1024;

fn storm_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(STORM_PAGES * PAGE as u64, 0.12, PAGE, 32, NandTiming::default())
}

/// Deterministic GC-heavy storm (mirrors the golden driver of
/// `gc_pipeline.rs`), running `observe` after every command.
fn drive(ftl: &mut Ftl, rounds: u64, mut observe: impl FnMut(&Ftl)) {
    for round in 0..rounds {
        for i in 0..STORM_PAGES {
            let lpn = (i * 173 + round * 311) % STORM_PAGES;
            if round % (1 + lpn % 4) == 0 {
                ftl.write(Lpn(lpn), &[((round * 67 + lpn * 31) % 255 + 1) as u8; PAGE]).unwrap();
                observe(ftl);
            }
        }
        if round % 3 == 2 {
            ftl.trim(Lpn((round * 7) % STORM_PAGES), 2).unwrap();
            observe(ftl);
        }
        ftl.flush().unwrap();
        observe(ftl);
    }
}

fn image_bytes(ftl: Ftl) -> Vec<u8> {
    let mut bytes = Vec::new();
    ftl.into_nand().save_image(&mut bytes).expect("image serializes");
    bytes
}

/// Reading a device's exports — `stats()`, `clock()` and
/// `telemetry_snapshot()` after every command of a GC-heavy run — changes
/// nothing simulated: the clock, the counters and the serialized flash
/// image match an unobserved twin's bit for bit.
#[test]
fn observed_run_is_bit_identical_to_unobserved() {
    let mut plain = Ftl::new(storm_cfg());
    let mut observed = Ftl::new(storm_cfg());
    drive(&mut plain, 6, |_| {});
    let mut reads = 0u64;
    drive(&mut observed, 6, |d| {
        std::hint::black_box((d.stats(), d.clock().now_ns(), d.telemetry_snapshot()));
        reads += 1;
    });
    assert!(reads > 1_000, "only {reads} observations");
    assert!(observed.monitor_snapshot().is_none(), "the device keeps no series of its own");

    assert_eq!(plain.clock().now_ns(), observed.clock().now_ns(), "clock drifted");
    assert_eq!(plain.stats(), observed.stats(), "counters drifted");
    plain.check_invariants();
    observed.check_invariants();
    assert_eq!(image_bytes(plain), image_bytes(observed), "flash image drifted");
}
