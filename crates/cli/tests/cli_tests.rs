//! End-to-end tests of the sharectl tool against on-disk images.

use sharectl::run;

/// A fresh directory of this call's own. Tests run concurrently in one
/// process, so a directory per process would have one test deleting
/// another's image and sidecar.
fn tmpdir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("sharectl-test-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cmd(args: &[&str]) -> Result<String, String> {
    run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map_err(|e| e.to_string())
}

#[test]
fn create_write_share_read_cycle_persists() {
    let dir = tmpdir();
    let img = dir.join("disk.nand");
    let img = img.to_str().unwrap();

    cmd(&["create", img, "16"]).unwrap();
    assert!(std::path::Path::new(img).exists());

    cmd(&["write", img, "0", "--byte", "5a", "--count", "4"]).unwrap();
    cmd(&["share", img, "100", "0", "--len", "4"]).unwrap();

    // The remap must be visible across separate invocations (image reload).
    let out = cmd(&["read", img, "100"]).unwrap();
    assert!(out.contains("5a 5a"), "shared page content missing: {out}");

    cmd(&["trim", img, "0", "--len", "4"]).unwrap();
    let out = cmd(&["read", img, "100"]).unwrap();
    assert!(out.contains("5a"), "dest must survive trimming the source: {out}");

    let info = cmd(&["info", img]).unwrap();
    assert!(info.contains("logical capacity"), "{info}");
    assert!(info.contains("share batch"), "{info}");
}

#[test]
fn replay_runs_a_text_trace() {
    let dir = tmpdir();
    let img = dir.join("replay.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    let trace = dir.join("trace.txt");
    std::fs::write(&trace, "W 1\nW 2\nW 1\nF\nR 1\nT 2 1\n# done\n").unwrap();
    let out = cmd(&["replay", img, trace.to_str().unwrap()]).unwrap();
    assert!(out.contains("replayed 6 ops"), "{out}");
    assert!(out.contains("host writes 3"), "{out}");

    // Stats accumulate across invocations.
    let info = cmd(&["info", img]).unwrap();
    assert!(info.contains("nand programs"), "{info}");
}

#[test]
fn bad_usage_is_reported() {
    assert!(cmd(&[]).is_err());
    assert!(cmd(&["bogus"]).is_err());
    assert!(cmd(&["create"]).is_err());
    let e = cmd(&["info", "/nonexistent/img.nand"]).unwrap_err();
    assert!(e.contains("sidecar") || e.contains("io"), "{e}");
}

#[test]
fn create_refuses_to_overwrite() {
    let dir = tmpdir();
    let img = dir.join("dup.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    assert!(cmd(&["create", img, "16"]).unwrap_err().contains("exists"));
}

#[test]
fn crashsweep_strided_ftl_sweep_is_clean() {
    let out = cmd(&["crashsweep", "--workload", "ftl", "--stride", "40"]).unwrap();
    assert!(out.contains("workload=ftl-mixed-s42-n300"), "{out}");
    assert!(out.contains("violations=0"), "{out}");
}

#[test]
fn crashsweep_strided_snapshot_sweep_is_clean() {
    let out = cmd(&["crashsweep", "--workload", "snapshot", "--stride", "40"]).unwrap();
    assert!(out.contains("workload=ftl-snapshot-s42-n300"), "{out}");
    assert!(out.contains("violations=0"), "{out}");
}

#[test]
fn crashsweep_replays_a_single_triple() {
    let out = cmd(&[
        "crashsweep", "--workload", "ftl", "--mode", "torn-half", "--index", "10",
    ])
    .unwrap();
    assert!(out.contains("PASS (workload=ftl-mixed-s42-n300, mode=torn-half, crash_index=10)"), "{out}");
}

#[test]
fn crashsweep_runs_engine_modes_and_replays_their_triples() {
    let out = cmd(&["crashsweep", "--workload", "pg", "--stride", "60"]).unwrap();
    let both = out.contains("workload=pg-on-s42-k16-t12") && out.contains("workload=pg-share-");
    assert!(both, "{out}");
    assert!(out.lines().all(|l| l.ends_with("violations=0")), "{out}");
    let out = cmd(&[
        "crashsweep", "--workload", "sqlite-share", "--mode", "torn-half", "--index", "10",
    ])
    .unwrap();
    let triple = "(workload=sqlite-share-s42-k24-t16, mode=torn-half, crash_index=10)";
    assert!(out.contains(&format!("PASS {triple}")), "{out}");
    // A positive control is caught, with its triples, and its first
    // reported triple replays to the same failure.
    let sweep = ["crashsweep", "--workload", "sqlite-off", "--mode", "torn-half", "--stride", "1"];
    let e = cmd(&sweep).unwrap_err();
    assert!(e.contains("violated the recovery oracle"), "{e}");
    let line = e.lines().find(|l| l.contains("FAIL (")).expect("a reported triple");
    let (triple, index) = (&line[line.find('(').unwrap()..], line.split("crash_index=").nth(1));
    let index = index.unwrap().split(')').next().unwrap();
    let e = cmd(&["crashsweep", "--workload", "sqlite-off", "--mode", "torn-half", "--index", index]);
    assert!(e.unwrap_err().contains(&format!("FAIL {triple}")), "{line}");
    let e = cmd(&["crashsweep", "--workload", "couch", "--index", "5", "--mode", "torn-half"]);
    assert!(e.unwrap_err().contains("single --workload"));
}

#[test]
fn crashsweep_sweeps_a_trace_file() {
    let dir = tmpdir();
    let trace = dir.join("share.txt");
    std::fs::write(&trace, "W 0\nW 1\nF\nS 8 0 2\nF\n").unwrap();
    let out = cmd(&["crashsweep", "--trace", trace.to_str().unwrap(), "--stride", "1"]).unwrap();
    assert!(out.contains("workload=ftl-trace-share"), "{out}");
    assert!(out.contains("violations=0"), "{out}");
}

#[test]
fn metrics_reports_a_replayed_trace_in_both_formats() {
    let dir = tmpdir();
    let img = dir.join("metrics.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    let trace = dir.join("mtrace.txt");
    std::fs::write(&trace, "W 0\nW 1\nF\nS 8 0 2\nR 8\nT 1 1\n").unwrap();

    let info_before = cmd(&["info", img]).unwrap();
    let prom = cmd(&["metrics", img, "--trace", trace.to_str().unwrap()]).unwrap();
    assert!(prom.contains("share_commands_total"), "{prom}");
    assert!(prom.contains(r#"share_op_pages_total{op="write"} 2"#), "{prom}");
    assert!(prom.contains(r#"share_op_pages_total{op="share"} 2"#), "{prom}");
    assert!(prom.contains("share_op_latency_ns_bucket"), "histograms missing: {prom}");
    // Opening the image is itself a recovery: it must show up as an op.
    assert!(prom.contains(r#"share_op_ops_total{op="recovery"} 1"#), "{prom}");
    // The device counters (Figure 6's inputs) and WAF are in the dump.
    for line in ["share_host_writes_total 2\n", "share_shared_pages_total 2\n", "share_recoveries_total 1\n"]
    {
        assert!(prom.contains(line), "{line:?} missing: {prom}");
    }
    assert!(prom.contains("\nshare_page_programs_total ") && prom.contains("\nshare_waf "), "{prom}");

    let json = cmd(&[
        "metrics", img, "--trace", trace.to_str().unwrap(), "--format", "json",
    ])
    .unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("metrics JSON parses");
    let pages = doc
        .get("ops")
        .and_then(|o| o.get("write"))
        .and_then(|w| w.get("pages"))
        .and_then(|v| v.as_u64());
    assert_eq!(pages, Some(2), "{json}");
    let metric = |key| doc.get("metrics").and_then(|m| m.get(key)).and_then(|v| v.as_u64());
    assert_eq!(metric("host_writes"), Some(2), "{json}");
    assert_eq!(metric("shared_pages"), Some(2), "{json}");

    // Observation only: the replayed writes must not persist in the image.
    let info_after = cmd(&["info", img]).unwrap();
    assert_eq!(info_before, info_after, "metrics must not save the image");
}

#[test]
fn metrics_works_without_a_trace_and_rejects_bad_formats() {
    let dir = tmpdir();
    let img = dir.join("metrics2.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    // No trace: the snapshot still reports the open-time recovery.
    let prom = cmd(&["metrics", img]).unwrap();
    assert!(prom.contains(r#"share_op_ops_total{op="recovery"} 1"#), "{prom}");

    let e = cmd(&["metrics", img, "--format", "xml"]).unwrap_err();
    assert!(e.contains("bad --format"), "{e}");
}

#[test]
fn crashsweep_rejects_bad_arguments() {
    assert!(cmd(&["crashsweep", "--workload", "bogus"]).unwrap_err().contains("bad --workload"));
    assert!(cmd(&["crashsweep", "--mode", "half-torn"]).unwrap_err().contains("bad --mode"));
    let e = cmd(&["crashsweep", "--workload", "ftl", "--index", "5"]).unwrap_err();
    assert!(e.contains("single --mode"), "{e}");
}

#[test]
fn trace_reports_wa_ledger_and_exports_chrome_json() {
    let dir = tmpdir();
    let img = dir.join("traced.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    let json_path = dir.join("trace.json");
    let info_before = cmd(&["info", img]).unwrap();
    let out = cmd(&[
        "trace", img, "--workload", "zipfian", "--ops", "3000", "--seed", "7",
        "--out", json_path.to_str().unwrap(), "--tree", "5",
    ])
    .unwrap();
    assert!(out.contains("spans recorded"), "{out}");
    assert!(out.contains("per-stream write-amplification ledger"), "{out}");
    assert!(out.contains("data"), "data stream missing from WA table: {out}");
    assert!(out.contains("span tree (first 5 lines)"), "{out}");

    // The exported Chrome trace re-parses through the repo's own JSON parser.
    let text = std::fs::read_to_string(&json_path).unwrap();
    let doc = share_core::telemetry::json::parse(&text).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events emitted");
    assert!(
        text.contains("stream:data") && text.contains("stream:journal"),
        "stream tracks missing: first 400 bytes: {}",
        &text[..text.len().min(400)]
    );

    // Observation only: the traced workload must not persist in the image.
    let info_after = cmd(&["info", img]).unwrap();
    assert_eq!(info_before, info_after, "trace must not save the image");

    let e = cmd(&["trace", img, "--workload", "bogus"]).unwrap_err();
    assert!(e.contains("bad --workload"), "{e}");
}

#[test]
fn snapshot_create_clone_drop_ls_cycle_persists() {
    let dir = tmpdir();
    let img = dir.join("snap.nand");
    let img = img.to_str().unwrap();

    cmd(&["create", img, "16"]).unwrap();
    cmd(&["write", img, "0", "--byte", "5a", "--count", "8"]).unwrap();

    let out = cmd(&["snapshot", img, "create", "base", "0", "8"]).unwrap();
    assert!(out.contains("froze 8 page(s)"), "{out}");
    assert!(out.contains("0 NAND program(s)"), "create must be zero-copy: {out}");

    // Snapshot table must survive the image round-trip.
    let ls = cmd(&["snapshot", img, "ls"]).unwrap();
    assert!(ls.contains("base"), "{ls}");

    // Overwrite the live range, then clone the frozen image elsewhere.
    cmd(&["write", img, "0", "--byte", "ff", "--count", "8"]).unwrap();
    let out = cmd(&["snapshot", img, "clone", "base", "100"]).unwrap();
    assert!(out.contains("cloned 8 page(s)"), "{out}");

    // The clone carries the pre-overwrite bytes; the live range the new.
    let out = cmd(&["read", img, "100"]).unwrap();
    assert!(out.contains("5a 5a"), "clone lost frozen content: {out}");
    let out = cmd(&["read", img, "0"]).unwrap();
    assert!(out.contains("ff ff"), "live range lost new content: {out}");

    cmd(&["snapshot", img, "drop", "base"]).unwrap();
    let ls = cmd(&["snapshot", img, "ls"]).unwrap();
    assert!(ls.contains("no snapshots"), "{ls}");
    // Clone outlives the snapshot it came from.
    let out = cmd(&["read", img, "100"]).unwrap();
    assert!(out.contains("5a 5a"), "clone must outlive its snapshot: {out}");

    // Snapshot gauges show up in the metrics exposition while live.
    cmd(&["snapshot", img, "create", "again", "0", "4"]).unwrap();
    let prom = cmd(&["metrics", img]).unwrap();
    assert!(prom.contains("share_snapshots_live 1"), "{prom}");
    assert!(prom.contains("share_snapshot_frozen_pages 4"), "{prom}");
}

#[test]
fn monitor_reports_epoch_series_in_both_formats() {
    let dir = tmpdir();
    let img = dir.join("monitored.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    let info_before = cmd(&["info", img]).unwrap();
    let out = cmd(&[
        "monitor", img, "--workload", "zipfian", "--ops", "3000", "--seed", "7",
        "--epoch-ms", "5",
    ])
    .unwrap();
    assert!(out.contains("epoch(s) sealed"), "{out}");
    assert!(out.contains("wp99(us)"), "epoch table header missing: {out}");
    assert!(out.contains("unit busy: ch0:w0"), "per-unit utilization missing: {out}");
    assert!(out.contains("health:"), "health one-liner missing: {out}");

    // JSON form re-parses through the repo's own parser and carries the
    // per-epoch series.
    let json = cmd(&[
        "monitor", img, "--workload", "zipfian", "--ops", "3000", "--seed", "7",
        "--epoch-ms", "5", "--format", "json",
    ])
    .unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("monitor JSON parses");
    let sealed = doc.get("sealed").and_then(|v| v.as_u64()).expect("sealed count");
    assert!(sealed > 10, "only {sealed} epochs sealed");
    let epochs = doc.get("epochs").and_then(|e| e.as_array()).expect("epochs array");
    assert!(!epochs.is_empty(), "no epoch records");
    assert!(epochs[0].get("free_blocks").is_some(), "epoch rows missing gauges");

    // Observation only: the monitored workload must not persist.
    let info_after = cmd(&["info", img]).unwrap();
    assert_eq!(info_before, info_after, "monitor must not save the image");

    // An SLO flag that always breaches surfaces in the table's alert list.
    let out = cmd(&[
        "monitor", img, "--workload", "uniform", "--ops", "1500", "--free-floor", "100000",
    ])
    .unwrap();
    assert!(out.contains("critical"), "breached floor missing from output: {out}");

    assert!(cmd(&["monitor", img, "--epoch-ms", "0"]).unwrap_err().contains("epoch-ms"));
    assert!(cmd(&["monitor", img, "--workload", "bogus"]).unwrap_err().contains("bad --workload"));
}

#[test]
fn doctor_reports_health_and_exits_nonzero_on_critical() {
    let dir = tmpdir();
    let img = dir.join("doctored.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    // Age the image a little so wear counters are non-trivial.
    cmd(&["write", img, "0", "--byte", "a5", "--count", "64"]).unwrap();
    cmd(&["write", img, "0", "--byte", "5a", "--count", "64"]).unwrap();

    let out = cmd(&["doctor", img]).unwrap();
    assert!(out.contains("device health"), "{out}");
    assert!(out.contains("wear histogram"), "{out}");
    assert!(out.contains("skew"), "{out}");
    assert!(out.contains("remaining life"), "{out}");
    assert!(out.contains("doctor: OK"), "{out}");

    let json = cmd(&["doctor", img, "--format", "json"]).unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("doctor JSON parses");
    assert!(doc.get("wear_hist").and_then(|h| h.as_array()).is_some(), "{json}");
    assert!(doc.get("remaining_life").is_some(), "{json}");

    // A floor no healthy image satisfies: the report still prints, but the
    // run fails (non-zero exit from the binary).
    let e = cmd(&["doctor", img, "--free-floor", "100000"]).unwrap_err();
    assert!(e.contains("doctor: CRITICAL"), "{e}");
    assert!(e.contains("free_blocks"), "offending check missing: {e}");
    assert!(e.contains("device health"), "report must ride with the failure: {e}");

    assert!(cmd(&["doctor", img, "--format", "xml"]).unwrap_err().contains("bad --format"));
}

#[test]
fn snapshot_rejects_bad_arguments() {
    let dir = tmpdir();
    let img = dir.join("snapbad.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    assert!(cmd(&["snapshot", img, "create", "x"]).is_err());
    assert!(cmd(&["snapshot", img, "clone", "missing", "0"]).unwrap_err().contains("missing"));
    assert!(cmd(&["snapshot", img, "drop", "missing"]).is_err());
    assert!(cmd(&["snapshot", img, "frobnicate"]).unwrap_err().contains("bad snapshot verb"));
}
