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
fn metrics_reports_a_replayed_trace_as_json() {
    let dir = tmpdir();
    let img = dir.join("metrics.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();

    let trace = dir.join("mtrace.txt");
    std::fs::write(&trace, "W 0\nW 1\nF\nS 8 0 2\nR 8\nT 1 1\n").unwrap();

    let info_before = cmd(&["info", img]).unwrap();
    let json = cmd(&["metrics", img, "--trace", trace.to_str().unwrap()]).unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("metrics JSON parses");
    let op = |name: &str, field: &str| {
        doc.get("latency_ns").and_then(|o| o.get(name)).and_then(|h| h.get(field)).cloned()
    };
    let count = |name| op(name, "count").and_then(|v| v.as_u64());
    assert_eq!(count("write"), Some(2), "{json}");
    assert_eq!(count("share"), Some(1), "{json}");
    let buckets = op("write", "buckets").and_then(|b| b.as_array().map(<[_]>::len));
    assert!(buckets.is_some_and(|n| n > 0), "histograms missing: {json}");
    // Opening the image is itself a recovery: it must show up as an op.
    assert_eq!(count("recovery"), Some(1), "{json}");
    // The device counters (Figure 6's inputs) and WAF are in the dump.
    let metric = |key| doc.get("metrics").and_then(|m| m.get(key)).cloned();
    for (key, want) in [("host_writes", 2), ("shared_pages", 2), ("recoveries", 1)] {
        assert_eq!(metric(key).and_then(|v| v.as_u64()), Some(want), "{key}: {json}");
    }
    assert!(metric("page_programs").is_some() && metric("waf").is_some(), "{json}");

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
    let json = cmd(&["metrics", img]).unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("metrics JSON parses");
    let recovery = doc.get("latency_ns").and_then(|o| o.get("recovery"));
    assert_eq!(recovery.and_then(|h| h.get("count")).and_then(|v| v.as_u64()), Some(1), "{json}");

    // JSON is the one format: any `--format`, the old `prom` included, is refused.
    for format in ["xml", "prom", "json"] {
        let e = cmd(&["metrics", img, "--format", format]).unwrap_err();
        assert!(e.contains("bad metrics arguments"), "{e}");
    }
}

#[test]
fn crashsweep_rejects_bad_arguments() {
    assert!(cmd(&["crashsweep", "--workload", "bogus"]).unwrap_err().contains("bad --workload"));
    assert!(cmd(&["crashsweep", "--mode", "half-torn"]).unwrap_err().contains("bad --mode"));
    let e = cmd(&["crashsweep", "--workload", "ftl", "--index", "5"]).unwrap_err();
    assert!(e.contains("single --mode"), "{e}");
}

#[test]
fn trace_exports_chrome_json_with_two_ftl_tracks() {
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
    assert!(out.contains("span tree (first 5 lines)"), "{out}");

    // The exported Chrome trace re-parses through the repo's own JSON parser.
    let text = std::fs::read_to_string(&json_path).unwrap();
    let doc = share_core::telemetry::json::parse(&text).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(!events.is_empty(), "no trace events emitted");
    // The host process names four threads, and the FTL's spans sit on its
    // two tracks: host commands on tid 3, internal passes on tid 4.
    let field = |e: &share_core::telemetry::json::Json, k: &str| {
        e.get(k).and_then(|v| v.as_u64())
    };
    let host_threads: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                && field(e, "pid") == Some(1)
        })
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()))
        .collect();
    assert_eq!(host_threads, ["engine", "vfs", "ftl:command", "ftl:internal"]);
    let ftl_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("ftl"))
        .filter_map(|e| field(e, "tid"))
        .collect();
    assert_eq!(ftl_tids.into_iter().collect::<Vec<_>>(), [3, 4]);

    // Observation only: the traced workload must not persist in the image.
    let info_after = cmd(&["info", img]).unwrap();
    assert_eq!(info_before, info_after, "trace must not save the image");

    let e = cmd(&["trace", img, "--workload", "bogus"]).unwrap_err();
    assert!(e.contains("bad --workload"), "{e}");
}

#[test]
fn a_damaged_sidecar_is_refused_not_a_panic() {
    // Each field is checked against the image before the device is sized
    // from it: a zero capacity, a one-block ring, a capacity past the data
    // pool and a field that is not a number each come back as an error.
    let dir = tmpdir();
    let img = dir.join("sidecar.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    let sidecar = format!("{img}.cfg");
    let good = std::fs::read_to_string(&sidecar).unwrap();
    let with = |field: &str, value: &str| {
        let prefix = format!("{field}=");
        let line =
            |l: &str| if l.starts_with(&prefix) { format!("{prefix}{value}") } else { l.into() };
        good.lines().map(line).collect::<Vec<_>>().join("\n")
    };
    for (field, value, why) in [
        ("logical_pages", "0", "logical capacity must be positive"),
        ("log_blocks", "1", "need at least two log blocks"),
        ("logical_pages", "6000", "data pool too small"),
        ("logical_pages", "18446744073709551615", "do not fit"),
        ("log_blocks", "4294967296", "do not fit"),
        ("revmap_capacity", "many", "sidecar revmap_capacity is not a count: many"),
    ] {
        std::fs::write(&sidecar, with(field, value)).unwrap();
        let e = cmd(&["info", img]).unwrap_err();
        assert!(e.contains(why), "{field}={value}: {e}");
    }
    std::fs::write(&sidecar, &good).unwrap();
    assert!(cmd(&["info", img]).unwrap().contains("logical capacity: 4096 pages"));
    // An image whose pages cannot hold one delta record is refused too.
    let tiny = dir.join("tiny.nand");
    let mut bytes = Vec::new();
    let geometry = nand_sim::NandGeometry::new(16, 128, 53);
    nand_sim::NandArray::new(geometry).save_image(&mut bytes).unwrap();
    std::fs::write(&tiny, bytes).unwrap();
    std::fs::write(format!("{}.cfg", tiny.display()), &good).unwrap();
    let e = cmd(&["info", tiny.to_str().unwrap()]).unwrap_err();
    assert!(e.contains("page too small for delta records"), "{e}");
}

#[test]
fn a_sidecar_naming_a_smaller_reverse_map_than_the_image_holds_opens_and_refuses_shares() {
    // Four shared references, then a sidecar that names room for two:
    // recovery grows the table to hold what the image maps, the image
    // reads back, and a share that needs one more slot is an error.
    let dir = tmpdir();
    let img = dir.join("grown.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    cmd(&["write", img, "0", "--byte", "5a", "--count", "4"]).unwrap();
    cmd(&["share", img, "100", "0", "--len", "4"]).unwrap();
    let sidecar = format!("{img}.cfg");
    let text = std::fs::read_to_string(&sidecar).unwrap();
    let capacity = text.lines().find(|l| l.starts_with("revmap_capacity=")).unwrap();
    std::fs::write(&sidecar, text.replace(capacity, "revmap_capacity=2")).unwrap();

    assert!(cmd(&["info", img]).unwrap().contains("logical capacity"));
    for lpn in ["0", "103"] {
        let out = cmd(&["read", img, lpn]).unwrap();
        assert!(out.contains("5a 5a"), "LPN {lpn}: {out}");
    }
    let trace = dir.join("share.txt");
    std::fs::write(&trace, "S 200 0\n").unwrap();
    let e = cmd(&["replay", img, trace.to_str().unwrap()]).unwrap_err();
    assert!(e.contains("reverse-mapping table full"), "{e}");
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

    // Snapshot gauges show up in the metrics document while live.
    cmd(&["snapshot", img, "create", "again", "0", "4"]).unwrap();
    let json = cmd(&["metrics", img]).unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("metrics JSON parses");
    let metric = |key| doc.get("metrics").and_then(|m| m.get(key)).and_then(|v| v.as_u64());
    assert_eq!(metric("snapshots_live"), Some(1), "{json}");
    assert_eq!(metric("snapshot_frozen_pages"), Some(4), "{json}");
}

/// Wear is a reading, not a verdict: `info` prints the erase range and
/// `metrics` exports every wear and headroom row with no life estimate.
#[test]
fn wear_is_read_through_info_and_metrics() {
    let dir = tmpdir();
    let img = dir.join("worn.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    // Age the image a little so wear counters are non-trivial.
    cmd(&["write", img, "0", "--byte", "a5", "--count", "64"]).unwrap();
    cmd(&["write", img, "0", "--byte", "5a", "--count", "64"]).unwrap();

    assert!(cmd(&["info", img]).unwrap().contains("wear (min..max):"));
    let json = cmd(&["metrics", img]).unwrap();
    let doc = share_core::telemetry::json::parse(&json).expect("metrics JSON parses");
    let metrics = doc.get("metrics").expect("metrics object");
    for row in ["wear_erases_max", "wear_skew", "free_blocks", "data_blocks"] {
        assert!(metrics.get(row).is_some(), "{row} missing: {json}");
    }
    assert!(!json.contains("remaining_life"), "{json}");
    assert!(cmd(&["doctor", img]).unwrap_err().contains("usage"));
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

#[test]
fn create_refuses_a_size_or_over_provisioning_it_cannot_build() {
    let dir = tmpdir();
    let img = dir.join("refused.nand");
    let img = img.to_str().unwrap();
    let e = cmd(&["create", img, "64", "0"]).unwrap_err();
    assert!(e.contains("op-percent must be at least 1"), "{e}");
    let e = cmd(&["create", img, "0"]).unwrap_err();
    assert!(e.contains("size must be at least 1 MiB"), "{e}");
    // 2^44 MiB is 2^64 bytes, which wraps to 0 in a u64.
    let e = cmd(&["create", img, "17592186044416"]).unwrap_err();
    assert!(e.contains("size too large"), "{e}");
    assert!(!std::path::Path::new(img).exists(), "a refused create writes nothing");
}

/// Every subcommand refuses a flag it does not read and a flag given
/// without its value, before it touches the image: a misspelt `--seed`
/// must not silently run the default seed.
#[test]
fn every_subcommand_refuses_a_flag_it_does_not_read() {
    let dir = tmpdir();
    let img = dir.join("flags.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "16"]).unwrap();
    cmd(&["write", img, "0", "--count", "4"]).unwrap();
    cmd(&["snapshot", img, "create", "base", "0", "4"]).unwrap();
    let info = cmd(&["info", img]).unwrap();
    let cases: [(&[&str], &str); 18] = [
        (&["create", "x.nand", "16", "15", "--byte", "aa"], "unexpected --byte"),
        (&["info", img, "--verbose", "1"], "unexpected --verbose"),
        (&["write", img, "0", "--bytes", "ff"], "unexpected --bytes"),
        (&["write", img, "0", "--count"], "--count needs a value"),
        (&["read", img, "0", "--len", "2"], "unexpected --len"),
        (&["share", img, "100", "0", "--length", "4"], "unexpected --length"),
        (&["share", img, "100", "0", "--len"], "--len needs a value"),
        (&["trim", img, "0", "--count", "2"], "unexpected --count"),
        (&["trim", img, "0", "--len"], "--len needs a value"),
        (&["replay", img, "ops.txt", "--seed", "7"], "unexpected --seed"),
        (&["metrics", img, "--trace"], "--trace needs a value"),
        (&["trace", img, "--workload", "mixed", "--ops", "50", "--sed", "7"], "unexpected --sed"),
        (&["trace", img, "--out"], "--out needs a value"),
        (&["snapshot", img, "clone", "base", "100", "--size", "4"], "unexpected --size"),
        (&["snapshot", img, "clone", "base", "100", "--offset"], "--offset needs a value"),
        (&["snapshot", img, "ls", "--all", "1"], "unexpected --all"),
        (&["crashsweep", "--workload", "ftl", "--strides", "40"], "unexpected --strides"),
        (&["crashsweep", "--workload"], "--workload needs a value"),
    ];
    for (args, why) in cases {
        let e = cmd(args).unwrap_err();
        let sub = format!("bad {} arguments", args[0]);
        assert!(e.contains(&sub) && e.contains(why), "{args:?}: {e}");
    }
    // A stray positional argument is refused the same way.
    assert!(cmd(&["read", img, "0", "1"]).unwrap_err().contains("unexpected 1"));
    assert_eq!(cmd(&["info", img]).unwrap(), info, "a refused command changed the image");
    assert!(!std::path::Path::new("x.nand").exists());
}

/// Seeded damaged copies of an image and of its sidecar — truncations and
/// single bit flips — are each refused with an error or read back: no
/// subcommand that reads an image panics on one.
#[test]
fn damaged_images_and_sidecars_are_refused_or_read_never_a_panic() {
    let dir = tmpdir();
    let img = dir.join("good.nand");
    let img = img.to_str().unwrap();
    cmd(&["create", img, "1"]).unwrap();
    cmd(&["write", img, "0", "--byte", "5a", "--count", "16"]).unwrap();
    cmd(&["snapshot", img, "create", "base", "0", "8"]).unwrap();
    cmd(&["write", img, "4", "--byte", "a5", "--count", "8"]).unwrap();
    let ops = dir.join("ops.txt");
    std::fs::write(&ops, "W 1\nR 1\nT 2 1\nF\n").unwrap();
    let ops = ops.to_str().unwrap();
    let image = std::fs::read(img).unwrap();
    let sidecar = std::fs::read(format!("{img}.cfg")).unwrap();

    // xorshift64*: a fixed seed picks the same cuts and flips every run.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |below: usize| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) % below as u64) as usize
    };
    let mut damaged: Vec<(String, Vec<u8>, Vec<u8>)> = Vec::new();
    for _ in 0..8 {
        let (cut_img, cut_cfg) = (next(image.len()), next(sidecar.len()));
        damaged.push((format!("image cut at {cut_img}"), image[..cut_img].to_vec(), sidecar.clone()));
        damaged.push((format!("sidecar cut at {cut_cfg}"), image.clone(), sidecar[..cut_cfg].to_vec()));
    }
    // Flips anywhere, and flips in the 72-byte v4 header (geometry, clock,
    // counters), which a uniform pick seldom reaches.
    for span in [image.len(), 72].into_iter().flat_map(|span| [span; 24]) {
        let bit = next(span * 8);
        let mut copy = image.clone();
        copy[bit / 8] ^= 1 << (bit % 8);
        damaged.push((format!("image bit {bit} flipped"), copy, sidecar.clone()));
    }
    for _ in 0..16 {
        let bit = next(sidecar.len() * 8);
        let mut copy = sidecar.clone();
        copy[bit / 8] ^= 1 << (bit % 8);
        damaged.push((format!("sidecar bit {bit} flipped"), image.clone(), copy));
    }

    let copy = dir.join("copy.nand");
    let copy = copy.to_str().unwrap();
    let commands: [&[&str]; 6] = [
        &["info", copy],
        &["read", copy, "3"],
        &["metrics", copy],
        &["trace", copy, "--ops", "40"],
        &["replay", copy, ops],
        &["snapshot", copy, "ls"],
    ];
    let mut read_back = 0;
    for (what, image, sidecar) in &damaged {
        for args in commands {
            // `replay` writes the image back: each command starts from the
            // damaged copy.
            std::fs::write(copy, image).unwrap();
            std::fs::write(format!("{copy}.cfg"), sidecar).unwrap();
            let outcome = std::panic::catch_unwind(|| cmd(args));
            let result = outcome.unwrap_or_else(|_| panic!("{what}: {args:?} panicked"));
            read_back += result.is_ok() as usize;
        }
    }
    // The flips that land in page data leave a loadable image.
    assert!(read_back > 0, "every damaged copy was refused");
}
