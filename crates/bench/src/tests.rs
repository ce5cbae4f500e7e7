//! The results table's declared runs, and smoke tests for the experiment
//! drivers at miniature scale, so the harness itself is covered by
//! `cargo test`.

use crate::artifacts::linkbench::{page_run, pool_run};
use crate::artifacts::{distinct_runs, Artifact, Run, ARTIFACTS};
use crate::{run_compaction, run_linkbench, run_ycsb, LinkBenchRun, YcsbRun};
use mini_couch::CouchMode;
use mini_innodb::FlushMode;
use share_core::telemetry::json::{parse, Json};
use share_core::telemetry::metric::Value;
use share_core::{OpClass, TelemetryConfig};
use share_workloads::{LinkOpType, YcsbWorkload};
use std::collections::HashSet;

fn artifact(stem: &str) -> &'static Artifact {
    ARTIFACTS.iter().find(|a| a.stem == stem).unwrap_or_else(|| panic!("no artifact {stem}"))
}

#[test]
fn every_results_file_is_one_artifact_and_every_artifact_one_file() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.unwrap().file_name().to_str()?.strip_suffix(".txt").map(String::from))
        .collect();
    files.sort();
    let stems: Vec<&str> = ARTIFACTS.iter().map(|a| a.stem).collect();
    assert_eq!(files, stems, "results/*.txt and the artifact table (kept sorted) differ");
}

#[test]
fn the_tier_requests_71_driver_runs_and_simulates_58() {
    let all: Vec<&Artifact> = ARTIFACTS.iter().collect();
    let requested: usize = all.iter().map(|a| (a.runs)().len()).sum();
    assert_eq!((requested, distinct_runs(&all).len()), (71, 58));
}

/// Figure 6, the lifespan projection and the §6.1 comparison quote
/// Figure 5's runs: they declare the same values, so they read the same
/// simulation instead of a copy that has to be kept in step.
#[test]
fn the_artifacts_that_quote_figure_5_read_its_runs() {
    // Figure 5(a) and (b), the one-connection runs; (c) runs 16.
    let fig5: Vec<Run> = (artifact("fig5_linkbench_throughput").runs)()
        .into_iter()
        .filter(|r| matches!(r, Run::LinkBench(lb) if lb.connections == 1))
        .collect();
    assert_eq!(fig5.len(), 18);
    // Every LinkBench run the three declare, less related's AtomicWrite.
    let quoted = |stem| -> Vec<Run> {
        let atomic = FlushMode::AtomicWrite;
        let not_atomic = |r: &Run| matches!(r, Run::LinkBench(lb) if lb.mode != atomic);
        (artifact(stem).runs)().into_iter().filter(not_atomic).collect()
    };
    let quoting = [("fig6_io_activities", 6), ("lifespan_erases", 2), ("related_atomic_write", 2)];
    for (stem, n) in quoting {
        let runs = quoted(stem);
        assert_eq!(runs.len(), n, "{stem}");
        assert!(runs.iter().all(|r| fig5.contains(r)), "{stem} simulates a run of its own");
    }
    // Figure 5(b)'s DB/30 row is (a)'s 4 KB row.
    for mode in [FlushMode::DwbOn, FlushMode::Share, FlushMode::DwbOff] {
        assert_eq!(pool_run(1.0 / 30.0, mode), page_run(4096, mode));
    }
}

fn tiny_linkbench(mode: FlushMode) -> LinkBenchRun {
    LinkBenchRun { mode, nodes: 1_500, warmup_txns: 200, txns: 800, ..Default::default() }
}

#[test]
fn linkbench_driver_produces_coherent_results() {
    let dwb = run_linkbench(&tiny_linkbench(FlushMode::DwbOn));
    let share = run_linkbench(&tiny_linkbench(FlushMode::Share));
    assert!(dwb.tps > 0.0 && share.tps > 0.0);
    assert!(share.tps > dwb.tps, "SHARE must win even at tiny scale");
    assert!(share.device.host_writes < dwb.device.host_writes);
    assert!(share.device.share_commands > 0);
    assert_eq!(dwb.device.share_commands, 0);
    assert!(dwb.latency.total_count() >= 800);
    // Deterministic: same run config, same numbers.
    let again = run_linkbench(&tiny_linkbench(FlushMode::DwbOn));
    assert_eq!(again.device.host_writes, dwb.device.host_writes);
    assert_eq!(again.tps, dwb.tps);
}

/// In a round of concurrent transactions a write is acknowledged by the
/// round's group commit: every write of the round records the same
/// latency, which no read of the round exceeds.
#[test]
fn a_grouped_write_is_timed_to_its_group_commit() {
    let run = LinkBenchRun { connections: 16, txns: 16, ..tiny_linkbench(FlushMode::Share) };
    let latency = run_linkbench(&run).latency;
    let summaries = |write: bool| {
        LinkOpType::ALL
            .into_iter()
            .filter(move |t| t.is_write() == write)
            .filter_map(|t| latency.summary(t.name()))
    };
    let writes: Vec<_> = summaries(true).collect();
    assert!(writes.iter().map(|s| s.count).sum::<u64>() >= 2, "{writes:?}");
    let acked = writes[0].max_ns;
    for s in &writes {
        assert_eq!((s.mean_ns, s.max_ns), (acked as f64, acked), "{writes:?}");
    }
    for s in summaries(false) {
        assert!(s.max_ns < acked, "a read outlasted the group commit: {s:?}");
    }
}

fn tiny_ycsb(mode: CouchMode, workload: YcsbWorkload) -> YcsbRun {
    YcsbRun { mode, workload, batch_size: 4, records: 600, ops: 600, ..Default::default() }
}

#[test]
fn ycsb_driver_produces_coherent_results() {
    let orig = run_ycsb(&tiny_ycsb(CouchMode::Original, YcsbWorkload::F));
    let share = run_ycsb(&tiny_ycsb(CouchMode::Share, YcsbWorkload::F));
    assert!(share.ops_per_sec > orig.ops_per_sec);
    assert!(share.device.host_write_bytes < orig.device.host_write_bytes);
    assert!(share.couch.share_remaps > 0);
    assert_eq!(orig.couch.share_remaps, 0);
}

#[test]
fn ycsb_driver_handles_every_workload() {
    for workload in [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ] {
        let r = run_ycsb(&tiny_ycsb(CouchMode::Share, workload));
        assert!(r.ops_per_sec > 0.0, "{workload:?}");
        if !workload.has_writes() {
            assert_eq!(r.couch.share_remaps, 0);
        }
    }
}

#[test]
fn telemetry_counters_equal_device_stats() {
    // Load + YCSB-A over the SHARE store exercises writes, batched appends,
    // share batches, flushes and checkpoints. The snapshot's counters are
    // the device's `DeviceStats` rows, and the JSON export carries them.
    let r = run_ycsb(&tiny_ycsb(CouchMode::Share, YcsbWorkload::A));
    let snap = r.telemetry.as_ref().expect("FTL device must expose telemetry");
    // The snapshot covers the whole run, so compare against the cumulative
    // stats, not the measured-window delta.
    let d = &r.device_total;
    assert!(d.host_writes > 0 && d.share_commands > 0 && d.meta_page_writes > 0);
    let doc = parse(&snap.to_json().render()).expect("JSON export re-parses");
    let metrics = doc.get("metrics").expect("metrics object");
    for m in d.metrics() {
        assert_eq!(snap.metric(m.name), Some(m.value), "snapshot row {}", m.name);
        let exported = metrics.get(m.name);
        match m.value {
            Value::U64(v) => assert_eq!(exported.and_then(Json::as_u64), Some(v), "{}", m.name),
            Value::F64(v) => assert_eq!(exported.and_then(Json::as_f64), Some(v), "{}", m.name),
        }
    }

    // Each command lands in its op class's histogram, in memory and in
    // the export.
    let n = |op: OpClass| snap.op(op).hist.count;
    assert_eq!(n(OpClass::Flush), d.flushes);
    assert_eq!(n(OpClass::Share) + n(OpClass::ShareBatch), d.share_commands);
    assert!(n(OpClass::Write) > 0);
    let write_count =
        doc.get("latency_ns").and_then(|o| o.get("write")).and_then(|w| w.get("count"));
    assert_eq!(write_count.and_then(Json::as_u64), Some(n(OpClass::Write)));
}

#[test]
fn tracing_observes_without_perturbing() {
    let run = |telemetry| {
        run_ycsb(&YcsbRun { telemetry, ..tiny_ycsb(CouchMode::Share, YcsbWorkload::A) })
    };
    let off = run(TelemetryConfig::default());
    // Tracing is observation-only, so the run must stay bit-identical to
    // the bare one.
    let on = run(TelemetryConfig::tracing());
    assert_eq!(off.elapsed_secs, on.elapsed_secs, "tracing changed the simulated timeline");
    assert_eq!(off.device_total, on.device_total, "tracing changed device traffic");
    let spans = on.tracer.span_count();
    assert!(spans > 0, "tracing was on but recorded no spans");
    assert_eq!(off.tracer.span_count(), 0, "tracing-off run recorded spans");

    // The Chrome trace_event export re-parses and is well formed.
    let text = on.tracer.chrome_json().expect("tracer was enabled").render();
    let doc = parse(&text).expect("chrome trace re-parses through telemetry::json");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");

    let mut named: HashSet<(u64, u64)> = HashSet::new(); // (pid, tid) with thread_name
    let mut procs: HashSet<u64> = HashSet::new(); // pid with process_name
    let mut span_ids: HashSet<u64> = HashSet::new();
    let mut parents: Vec<u64> = Vec::new();
    let mut last_ts = f64::MIN;
    let mut x_events = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event phase");
        let pid = ev.get("pid").and_then(Json::as_u64).expect("event pid");
        match ph {
            "M" => match ev.get("name").and_then(Json::as_str).expect("meta name") {
                "process_name" => {
                    procs.insert(pid);
                }
                "thread_name" => {
                    let tid = ev.get("tid").and_then(Json::as_u64).expect("meta tid");
                    named.insert((pid, tid));
                }
                other => panic!("unexpected metadata record {other}"),
            },
            "X" => {
                x_events += 1;
                let tid = ev.get("tid").and_then(Json::as_u64).expect("X tid");
                assert!(procs.contains(&pid), "pid {pid} has no process_name metadata");
                assert!(named.contains(&(pid, tid)), "track {pid}/{tid} has no thread_name");
                let ts = ev.get("ts").and_then(Json::as_f64).expect("X ts");
                assert!(ts >= last_ts, "timestamps not monotonic: {ts} after {last_ts}");
                last_ts = ts;
                let dur = ev.get("dur").and_then(Json::as_f64).expect("X dur");
                assert!(dur >= 0.0, "negative duration — unbalanced span");
                let args = ev.get("args").expect("X args");
                span_ids.insert(args.get("id").and_then(Json::as_u64).expect("span id"));
                parents.extend(args.get("parent").and_then(Json::as_u64));
            }
            other => panic!("unexpected event phase {other}"),
        }
    }
    assert_eq!(x_events, spans, "exported X events != recorded spans");
    for p in &parents {
        assert!(span_ids.contains(p), "parent span {p} missing from the export");
    }
    // The three host layers and the NAND leaves must all be present.
    for cat in ["engine", "vfs", "ftl", "nand"] {
        assert!(
            events.iter().any(|e| e.get("cat").and_then(Json::as_str) == Some(cat)),
            "no {cat}-layer spans in the export"
        );
    }
}

#[test]
fn compaction_driver_is_zero_copy_in_share_mode() {
    let orig = run_compaction(CouchMode::Original, 400, 2);
    let share = run_compaction(CouchMode::Share, 400, 2);
    assert!(!orig.zero_copy);
    assert!(share.zero_copy);
    assert_eq!(orig.docs_moved, 400);
    assert_eq!(share.docs_moved, 400);
    assert!(share.bytes_written < orig.bytes_written / 2);
}

#[test]
fn concurrent_ycsb_breaks_the_channel_plateau() {
    // The serial driver is host-bound past 4 channels; 16 connections over
    // queued reads + group-committed writes must keep scaling to 8.
    let run_at = |channels: u32, connections: usize| {
        run_ycsb(&YcsbRun {
            mode: CouchMode::Share,
            workload: YcsbWorkload::A,
            batch_size: 64,
            records: 600,
            ops: 600,
            channels,
            connections,
            ..Default::default()
        })
    };
    let serial4 = run_at(4, 1);
    let serial8 = run_at(8, 1);
    let conc4 = run_at(4, 16);
    let conc8 = run_at(8, 16);
    // The bug being fixed: serial 4ch and 8ch are byte-identical.
    assert_eq!(serial4.elapsed_secs, serial8.elapsed_secs, "serial plateau moved — update this test");
    assert!(
        conc8.ops_per_sec >= conc4.ops_per_sec * 1.5,
        "8ch ({:.0} ops/s) must beat 4ch ({:.0} ops/s) by 1.5x with 16 connections",
        conc8.ops_per_sec,
        conc4.ops_per_sec
    );
    // Concurrency must not change what reaches the medium: the same
    // document blocks are appended either way.
    assert_eq!(conc8.couch.doc_blocks_appended, serial8.couch.doc_blocks_appended);
}

#[test]
fn concurrent_linkbench_improves_channel_scaling() {
    let run_at = |channels: u32, connections: usize| {
        run_linkbench(&LinkBenchRun {
            mode: FlushMode::Share,
            nodes: 1_500,
            warmup_txns: 200,
            txns: 800,
            channels,
            connections,
            ..Default::default()
        })
    };
    let serial8 = run_at(8, 1);
    let conc8 = run_at(8, 16);
    assert!(
        conc8.tps > serial8.tps * 1.2,
        "16 connections ({:.0} tps) must clearly beat serial ({:.0} tps) at 8 channels",
        conc8.tps,
        serial8.tps
    );
    // Scaling ratio 1ch -> 8ch must improve under concurrency.
    let serial1 = run_at(1, 1);
    let conc1 = run_at(1, 16);
    let serial_ratio = serial8.tps / serial1.tps;
    let conc_ratio = conc8.tps / conc1.tps;
    assert!(
        conc_ratio > serial_ratio,
        "concurrent 8ch/1ch ratio {conc_ratio:.2} must beat serial {serial_ratio:.2}"
    );
}

/// A miniature of the benchmark's `linkbench_share`: SHARE, 4 KiB pages,
/// 4 channels, 16 connections. The pool is DB/10 (126 frames), not DB/30:
/// at 4 000 nodes a thirtieth is below the engine's 64-frame floor, and a
/// quarter of 126 frames leaves a round's prefetch room beside its own
/// leaves, as a quarter of the benchmark's 253 does.
fn small_linkbench_share(txns: u64) -> LinkBenchRun {
    LinkBenchRun {
        mode: FlushMode::Share,
        nodes: 4_000,
        pool_fraction: 0.1,
        warmup_txns: 16_000,
        txns,
        channels: 4,
        connections: 16,
        ..Default::default()
    }
}

/// A link-list scan reads its leaves inside a batched submission (the
/// round's prefetch, or the scan's own read-ahead), so the window reads
/// few engine pages one at a time: 0.029 per op here, 0.098 when the scan
/// walked the leaf chain with one read per leaf.
#[test]
fn linkbench_reads_its_range_scans_in_batches() {
    // The engine's counters cover the whole run, so the window is the
    // difference from the same run stopped after its warm-up.
    let txns = 3_200;
    let full = run_linkbench(&small_linkbench_share(txns)).engine;
    let warm = run_linkbench(&small_linkbench_share(0)).engine;
    let serial = (full.pages_read_serial - warm.pages_read_serial) as f64 / txns as f64;
    let batched = (full.pages_read_batched - warm.pages_read_batched) as f64 / txns as f64;
    assert!(serial < 0.045, "{serial:.4} serial page reads per op ({batched:.4} batched)");
}
