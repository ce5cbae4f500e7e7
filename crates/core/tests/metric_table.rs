//! A counter that exists is exported.
//!
//! Every `DeviceStats`/`NandStats` field is one row of the device's metric
//! table, and both exporters walk that table: whatever `dev.stats().rows()`
//! holds must appear, with the same value, as `share_<field>_total` in the
//! Prometheus text and under `metrics.<field>` in the JSON — the two
//! strings `sharectl metrics` prints. The full list of families a device
//! snapshot emits is pinned by name, and damaged copies of both dumps go
//! back through the parsers (ROADMAP item 5, exporter text).

use nand_sim::NandTiming;
use share_core::telemetry::json::{self, Json};
use share_core::telemetry::metric::Value;
use share_core::telemetry::prom;
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
    dev.submit(QueuedCmd::ReadBatch { lpns: &[Lpn(1), Lpn(2)] }).unwrap();
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
        .with_telemetry(TelemetryConfig::monitoring(10_000_000));
    let mut dev = Ftl::new(cfg);
    mixed_script(&mut dev);
    dev
}

#[test]
fn every_counter_row_is_exported_by_both_formats() {
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
    let prom = snap.to_prometheus();
    let doc = json::parse(&snap.to_json().render()).expect("metrics JSON parses");
    let metrics = doc.get("metrics").expect("metrics object");

    let rows = stats.rows();
    assert_eq!(rows.len() * 8, std::mem::size_of_val(&stats), "a row per counter");
    for m in &rows {
        let Value::U64(v) = m.value else { panic!("{} is not integral", m.name) };
        assert!(m.name.starts_with("share_") && m.name.ends_with("_total"), "{}", m.name);
        assert!(prom.contains(&format!("\n{} {v}\n", m.name)), "{} {v} not in prom dump", m.name);
        assert_eq!(metrics.get(m.key()).and_then(Json::as_u64), Some(v), "metrics.{}", m.key());
        assert_eq!(snap.metric(m.name), Some(m.value));
    }
    // WAF rides beside them.
    assert_eq!(snap.metric("share_waf"), Some(Value::F64(stats.waf())));
    assert_eq!(metrics.get("waf").and_then(Json::as_f64), Some(stats.waf()));
}

/// Every family a device snapshot emits, in emission order: the latency
/// histograms, the metric table's rows and the per-unit busy time. A
/// family added or removed anywhere shows up here first.
const FAMILIES: [&str; 48] = [
    "share_op_latency_ns",
    "share_host_reads_total",
    "share_host_writes_total",
    "share_host_read_bytes_total",
    "share_host_write_bytes_total",
    "share_flushes_total",
    "share_trims_total",
    "share_share_commands_total",
    "share_shared_pages_total",
    "share_snapshot_creates_total",
    "share_snapshot_drops_total",
    "share_snapshot_clones_total",
    "share_snapshot_clone_pages_total",
    "share_snapshot_reads_total",
    "share_snapshot_pinned_relocations_total",
    "share_gc_events_total",
    "share_copyback_pages_total",
    "share_gc_erases_total",
    "share_gc_stall_ns_total",
    "share_gc_budget_deferrals_total",
    "share_meta_page_writes_total",
    "share_checkpoints_total",
    "share_recoveries_total",
    "share_recovery_page_reads_total",
    "share_recovery_page_writes_total",
    "share_lane_steals_total",
    "share_page_reads_total",
    "share_page_programs_total",
    "share_block_erases_total",
    "share_torn_programs_total",
    "share_waf",
    "share_queue_depth",
    "share_queue_inflight",
    "share_queue_inflight_max",
    "share_queue_submitted_total",
    "share_queue_reaped_total",
    "share_snapshots_live",
    "share_snapshot_frozen_pages",
    "share_snapshot_pinned_pages",
    "share_wear_erases_min",
    "share_wear_erases_max",
    "share_wear_erases_mean",
    "share_wear_erases_stddev",
    "share_wear_skew",
    "share_free_blocks",
    "share_data_blocks",
    "share_unit_busy_ns_total",
    "share_unit_utilization",
];

#[test]
fn families_emitted_before_the_table_are_still_emitted() {
    let prom = device().telemetry_snapshot().unwrap().to_prometheus();
    let help: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .map(|l| l.split_once(' ').map_or(l, |(name, _)| name))
        .collect();
    assert_eq!(help, FAMILIES, "the emitted families changed");
    for name in FAMILIES {
        assert_eq!(prom.matches(&format!("# TYPE {name} ")).count(), 1, "{name}");
    }
}

/// Seeded bit flips, truncations and bracket floods over a real metrics
/// dump in each format: every case parses or is rejected — none panics,
/// overflows the stack or loops.
#[test]
fn damaged_dumps_parse_or_are_rejected() {
    let snap = device().telemetry_snapshot().unwrap();
    let dumps = [snap.to_json().render().into_bytes(), snap.to_prometheus().into_bytes()];
    assert!(json::parse(std::str::from_utf8(&dumps[0]).unwrap()).is_ok());
    for (case, mut rng) in share_rng::sweep("exporter-hostile-input", 96) {
        for dump in &dumps {
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
            let text = String::from_utf8_lossy(&bytes);
            let _ = json::parse(&text);
            for line in text.lines() {
                let _ = prom::parse_sample_value(line);
            }
        }
    }
}
