//! # sharectl — a command-line tool for SHARE device images
//!
//! Persists the simulated SSD to a `.nand` image file (plus a small `.cfg`
//! sidecar), so the device survives between invocations:
//!
//! ```text
//! sharectl create disk.nand 64        # a 64 MiB SHARE device
//! sharectl write  disk.nand 0 --byte aa
//! sharectl share  disk.nand 100 0     # remap LPN 100 onto LPN 0's page
//! sharectl read   disk.nand 100
//! sharectl replay disk.nand trace.txt # run a block trace (W/R/T/F lines)
//! sharectl info   disk.nand
//! sharectl metrics disk.nand --trace trace.txt  # telemetry snapshot
//! ```
//!
//! All logic lives in [`run`], which returns the output text — `main` is a
//! thin wrapper, so the whole tool is unit-testable.

use share_core::telemetry::EpochObservation;
use share_core::{
    AlertSeverity, BlockDevice, DeviceStats, Ftl, FtlConfig, Lpn, SharePair, SloConfig,
    TelemetryConfig, DEFAULT_ENDURANCE_CYCLES,
};
use share_workloads::{parse_trace, AccessPattern, TraceConfig, TraceGen, TraceOp};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Tool errors (argument problems, I/O, device failures).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io: {e}"))
    }
}

impl From<share_core::FtlError> for CliError {
    fn from(e: share_core::FtlError) -> Self {
        CliError(format!("device: {e}"))
    }
}

type Result<T> = std::result::Result<T, CliError>;

fn usage() -> String {
    "sharectl — SHARE device images\n\
     usage:\n\
     \x20 sharectl create <img> <size-mb> [op-percent]\n\
     \x20 sharectl info   <img>\n\
     \x20 sharectl write  <img> <lpn> [--byte XX] [--count N]\n\
     \x20 sharectl read   <img> <lpn>\n\
     \x20 sharectl share  <img> <dest-lpn> <src-lpn> [--len N]\n\
     \x20 sharectl trim   <img> <lpn> [--len N]\n\
     \x20 sharectl replay <img> <trace-file>\n\
     \x20 sharectl metrics <img> [--trace <file>] [--format prom|json]\n\
     \x20\x20\x20\x20 (telemetry snapshot; with --trace, replays first — observation only,\n\
     \x20\x20\x20\x20 nothing is written back to the image)\n\
     \x20 sharectl trace  <img> [--workload sequential|uniform|zipfian|mixed]\n\
     \x20\x20\x20\x20 [--ops N] [--seed N] [--out trace.json] [--tree N]\n\
     \x20\x20\x20\x20 (run a traced workload: per-stream write-amplification table,\n\
     \x20\x20\x20\x20 optional Chrome trace_event JSON and span-tree dump —\n\
     \x20\x20\x20\x20 observation only, nothing is written back to the image)\n\
     \x20 sharectl monitor <img> [--workload sequential|uniform|zipfian|mixed] [--ops N]\n\
     \x20\x20\x20\x20 [--seed N] [--epoch-ms N] [--ring N] [--format table|json]\n\
     \x20\x20\x20\x20 [--write-p99-us N] [--read-p99-us N] [--gc-stall-ms N]\n\
     \x20\x20\x20\x20 [--free-floor N] [--skew-max X] [--life-floor X]\n\
     \x20\x20\x20\x20 (run a workload under the flight recorder: one row of counter\n\
     \x20\x20\x20\x20 deltas per epoch, SLO alerts at epoch boundaries — observation\n\
     \x20\x20\x20\x20 only, nothing is written back to the image)\n\
     \x20 sharectl doctor <img> [--endurance N] [--free-floor N] [--skew-max X]\n\
     \x20\x20\x20\x20 [--life-floor X] [--format text|json]\n\
     \x20\x20\x20\x20 (read-only health report: wear histogram, free-block headroom,\n\
     \x20\x20\x20\x20 lifetime WA, remaining life; exits non-zero on a critical breach)\n\
     \x20 sharectl snapshot <img> create <name> <start-lpn> <len>\n\
     \x20 sharectl snapshot <img> clone  <name> <dst-lpn> [--offset N] [--len N]\n\
     \x20 sharectl snapshot <img> drop   <name>\n\
     \x20 sharectl snapshot <img> ls\n\
     \x20\x20\x20\x20 (device-level snapshots: create freezes a page range with zero\n\
     \x20\x20\x20\x20 NAND programs, clone materializes a writable zero-copy image)\n\
     \x20 sharectl crashsweep [--workload ftl|queued|queued-batch|stream|gcpipe|snapshot|all|<engine>|<engine>-<mode>]\n\
     \x20\x20\x20\x20 [--trace <file>] (engines innodb|couch|pg|sqlite; modes innodb-dwb|innodb-share|\n\
     \x20\x20\x20\x20 innodb-atomic|innodb-cached|innodb-16k|couch-original|couch-share|pg-on|pg-share|\n\
     \x20\x20\x20\x20 sqlite-rollback|sqlite-wal|sqlite-share; positive controls innodb-dwb-off|pg-off|sqlite-off)\n\
     \x20\x20\x20\x20 [--seed N] [--stride N] [--mode torn-half|dropped-write|after-program|all]\n\
     \x20\x20\x20\x20 [--index N]   (with a single --mode: replay exactly one crash case)\n"
        .to_string()
}

fn cfg_path(img: &str) -> String {
    format!("{img}.cfg")
}

fn save_cfg(img: &str, cfg: &FtlConfig) -> Result<()> {
    let text = format!(
        "logical_pages={}\nlog_blocks={}\nrevmap_capacity={}\n",
        cfg.logical_pages, cfg.log_blocks, cfg.revmap_capacity
    );
    fs::write(cfg_path(img), text)?;
    Ok(())
}

fn load_device(img: &str) -> Result<Ftl> {
    load_device_with(img, TelemetryConfig::default(), SloConfig::default())
}

fn load_device_with(img: &str, telemetry: TelemetryConfig, slo: SloConfig) -> Result<Ftl> {
    let cfg_text = fs::read_to_string(cfg_path(img))
        .map_err(|_| CliError(format!("missing sidecar {} — not a sharectl image?", cfg_path(img))))?;
    let field = |name: &str| -> Result<u64> {
        cfg_text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CliError(format!("sidecar missing {name}")))
    };
    let logical_pages = field("logical_pages")?;
    let log_blocks = field("log_blocks")? as u32;
    let revmap_capacity = field("revmap_capacity")? as usize;

    let bytes = fs::read(img)?;
    let nand = nand_sim::NandArray::load_image(&mut bytes.as_slice(), nand_sim::NandTiming::default())
        .map_err(|e| CliError(format!("bad image: {e}")))?;
    let g = nand.geometry();
    let mut cfg = FtlConfig::for_capacity_with(
        logical_pages * g.page_size as u64,
        0.10, // placeholder; the real geometry below overrides the layout
        g.page_size,
        g.pages_per_block,
        nand.timing(),
    );
    cfg.geometry = g;
    cfg.log_blocks = log_blocks;
    cfg.revmap_capacity = revmap_capacity;
    cfg.logical_pages = logical_pages;
    cfg.telemetry = telemetry;
    cfg.slo = slo;
    Ftl::open(cfg, nand).map_err(Into::into)
}

fn save_device(img: &str, mut dev: Ftl) -> Result<()> {
    dev.flush()?;
    let cfg = dev.config().clone();
    let nand = dev.into_nand();
    let mut bytes = Vec::new();
    nand.save_image(&mut bytes)?;
    fs::write(img, bytes)?;
    save_cfg(img, &cfg)
}

fn parse_u64(s: &str, what: &str) -> Result<u64> {
    s.parse().map_err(|_| CliError(format!("bad {what}: {s}")))
}

/// The one-line traffic summary `replay` and `trace` print for a window.
fn traffic_summary(d: &DeviceStats) -> String {
    format!(
        "host writes {}  reads {}  WAF {:.3}  GC events {}  copybacks {}\n",
        d.host_writes,
        d.host_reads,
        d.waf(),
        d.gc_events,
        d.copyback_pages
    )
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Execute one command line (without the program name); returns the output.
pub fn run(args: &[String]) -> Result<String> {
    let mut out = String::new();
    match args.first().map(String::as_str) {
        Some("create") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let mb = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "size")?;
            let op = args.get(3).map(|s| parse_u64(s, "op-percent")).transpose()?.unwrap_or(15);
            if Path::new(img).exists() {
                return Err(CliError(format!("{img} already exists")));
            }
            let cfg = FtlConfig::for_capacity(mb << 20, op as f64 / 100.0);
            let dev = Ftl::new(cfg);
            writeln!(
                out,
                "created {img}: {} MiB logical, {} physical blocks, {}% over-provisioning",
                mb,
                dev.config().geometry.blocks,
                op
            )
            .unwrap();
            save_device(img, dev)?;
        }
        Some("info") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let dev = load_device(img)?;
            let cfg = dev.config();
            let s = dev.stats();
            let w = dev.wear_stats();
            writeln!(out, "image:            {img}").unwrap();
            writeln!(
                out,
                "geometry:         {} pages x {} B ({} blocks x {} pages)",
                cfg.geometry.total_pages(),
                cfg.geometry.page_size,
                cfg.geometry.blocks,
                cfg.geometry.pages_per_block
            )
            .unwrap();
            writeln!(out, "logical capacity: {} pages ({} MiB)", cfg.logical_pages, cfg.logical_bytes() >> 20)
                .unwrap();
            writeln!(out, "share batch:      {} pairs", dev.share_batch_limit()).unwrap();
            writeln!(out, "nand programs:    {}", s.nand.page_programs).unwrap();
            writeln!(out, "nand erases:      {}", s.nand.block_erases).unwrap();
            writeln!(out, "wear (min..max):  {}..{}", w.min_erases, w.max_erases).unwrap();
        }
        Some("write") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let lpn = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "lpn")?;
            let byte = flag_value(args, "--byte")
                .map(|v| u8::from_str_radix(v, 16).map_err(|_| CliError(format!("bad byte: {v}"))))
                .transpose()?
                .unwrap_or(0xAB);
            let count = flag_value(args, "--count").map(|v| parse_u64(v, "count")).transpose()?.unwrap_or(1);
            let mut dev = load_device(img)?;
            let page = vec![byte; dev.page_size()];
            for i in 0..count {
                dev.write(Lpn(lpn + i), &page)?;
            }
            writeln!(out, "wrote {count} page(s) of 0x{byte:02x} at LPN {lpn}").unwrap();
            save_device(img, dev)?;
        }
        Some("read") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let lpn = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "lpn")?;
            let mut dev = load_device(img)?;
            let mut buf = vec![0u8; dev.page_size()];
            dev.read(Lpn(lpn), &mut buf)?;
            write!(out, "LPN {lpn}:").unwrap();
            for (i, b) in buf.iter().take(32).enumerate() {
                if i % 16 == 0 {
                    write!(out, "\n  {i:04x}:").unwrap();
                }
                write!(out, " {b:02x}").unwrap();
            }
            writeln!(out, "\n  ... ({} bytes/page)", buf.len()).unwrap();
        }
        Some("share") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let dest = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "dest-lpn")?;
            let src = parse_u64(args.get(3).ok_or_else(|| CliError(usage()))?, "src-lpn")?;
            let len = flag_value(args, "--len").map(|v| parse_u64(v, "len")).transpose()?.unwrap_or(1);
            let mut dev = load_device(img)?;
            dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?;
            writeln!(out, "shared {len} page(s): LPN {dest} <- LPN {src}").unwrap();
            save_device(img, dev)?;
        }
        Some("trim") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let lpn = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "lpn")?;
            let len = flag_value(args, "--len").map(|v| parse_u64(v, "len")).transpose()?.unwrap_or(1);
            let mut dev = load_device(img)?;
            dev.trim(Lpn(lpn), len)?;
            writeln!(out, "trimmed {len} page(s) at LPN {lpn}").unwrap();
            save_device(img, dev)?;
        }
        Some("replay") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let trace_file = args.get(2).ok_or_else(|| CliError(usage()))?;
            let text = fs::read_to_string(trace_file)?;
            let ops = parse_trace(&text);
            let mut dev = load_device(img)?;
            let before = dev.stats();
            let t0 = dev.clock().now_ns();
            let page = vec![0xCDu8; dev.page_size()];
            let mut buf = vec![0u8; dev.page_size()];
            for op in &ops {
                match *op {
                    TraceOp::Write { lpn } => dev.write(Lpn(lpn), &page)?,
                    TraceOp::Read { lpn } => dev.read(Lpn(lpn), &mut buf)?,
                    TraceOp::Trim { lpn, len } => dev.trim(Lpn(lpn), len)?,
                    TraceOp::Share { dest, src, len } => {
                        dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?
                    }
                    TraceOp::Flush => dev.flush()?,
                }
            }
            let d = dev.stats().delta_since(&before);
            let dt = dev.clock().now_ns() - t0;
            writeln!(out, "replayed {} ops in {:.3} simulated s", ops.len(), dt as f64 / 1e9).unwrap();
            out.push_str(&traffic_summary(&d));
            save_device(img, dev)?;
        }
        Some("metrics") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let format = flag_value(args, "--format").unwrap_or("prom");
            if format != "prom" && format != "json" {
                return Err(CliError(format!("bad --format: {format} (want prom|json)")));
            }
            // Full telemetry (histograms + command ring) for this invocation
            // only — the toggle never touches the image or its sidecar.
            let mut dev = load_device_with(img, TelemetryConfig::full(), SloConfig::default())?;
            if let Some(trace_file) = flag_value(args, "--trace") {
                let text = fs::read_to_string(trace_file)?;
                let page = vec![0xCDu8; dev.page_size()];
                let mut buf = vec![0u8; dev.page_size()];
                for op in &parse_trace(&text) {
                    match *op {
                        TraceOp::Write { lpn } => dev.write(Lpn(lpn), &page)?,
                        TraceOp::Read { lpn } => dev.read(Lpn(lpn), &mut buf)?,
                        TraceOp::Trim { lpn, len } => dev.trim(Lpn(lpn), len)?,
                        TraceOp::Share { dest, src, len } => {
                            dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?
                        }
                        TraceOp::Flush => dev.flush()?,
                    }
                }
            }
            let snap = dev.telemetry_snapshot().expect("FTL always exposes telemetry");
            if format == "json" {
                out.push_str(&snap.to_json().render());
                out.push('\n');
            } else {
                out.push_str(&snap.to_prometheus());
            }
            // Observation only: nothing is written back to the image.
        }
        Some("snapshot") => {
            snapshot_cmd(args, &mut out)?;
        }
        Some("trace") => {
            trace_cmd(args, &mut out)?;
        }
        Some("monitor") => {
            monitor_cmd(args, &mut out)?;
        }
        Some("doctor") => {
            doctor_cmd(args, &mut out)?;
        }
        Some("crashsweep") => {
            crashsweep_cmd(args, &mut out)?;
        }
        _ => return Err(CliError(usage())),
    }
    Ok(out)
}

/// Device-level snapshot management. Mutating verbs (`create`, `clone`,
/// `drop`) persist the snapshot table into the FTL checkpoint before the
/// image is written back, so the snapshot survives the next load.
fn snapshot_cmd(args: &[String], out: &mut String) -> Result<()> {
    let img = args.get(1).ok_or_else(|| CliError(usage()))?;
    let verb = args.get(2).map(String::as_str).ok_or_else(|| CliError(usage()))?;
    match verb {
        "create" => {
            let name = args.get(3).ok_or_else(|| CliError(usage()))?;
            let start = parse_u64(args.get(4).ok_or_else(|| CliError(usage()))?, "start-lpn")?;
            let len = parse_u64(args.get(5).ok_or_else(|| CliError(usage()))?, "len")?;
            let mut dev = load_device(img)?;
            let before = dev.stats();
            let id = dev.snapshot_create(name, Lpn(start), len)?;
            let spent = dev.stats().delta_since(&before);
            let mapped = dev
                .snapshot_list()?
                .iter()
                .find(|s| s.id == id)
                .map(|s| s.mapped_pages)
                .unwrap_or(0);
            writeln!(
                out,
                "snapshot {name} (id {id}): froze {len} page(s) at LPN {start}, \
                 {mapped} mapped, {} NAND program(s)",
                spent.nand.page_programs
            )
            .unwrap();
            dev.snapshot_persist()?;
            save_device(img, dev)?;
        }
        "clone" => {
            let name = args.get(3).ok_or_else(|| CliError(usage()))?;
            let dst = parse_u64(args.get(4).ok_or_else(|| CliError(usage()))?, "dst-lpn")?;
            let offset =
                flag_value(args, "--offset").map(|v| parse_u64(v, "offset")).transpose()?.unwrap_or(0);
            let mut dev = load_device(img)?;
            let total = dev
                .snapshot_list()?
                .iter()
                .find(|s| &s.name == name)
                .map(|s| s.len)
                .ok_or_else(|| CliError(format!("no snapshot named {name}")))?;
            let len = match flag_value(args, "--len") {
                Some(v) => parse_u64(v, "len")?,
                None => total.saturating_sub(offset),
            };
            let mapped = dev.snapshot_clone(name, offset, Lpn(dst), len)?;
            writeln!(
                out,
                "cloned {len} page(s) of snapshot {name} (offset {offset}) to LPN {dst}: \
                 {mapped} mapped, rest holes"
            )
            .unwrap();
            dev.snapshot_persist()?;
            save_device(img, dev)?;
        }
        "drop" => {
            let name = args.get(3).ok_or_else(|| CliError(usage()))?;
            let mut dev = load_device(img)?;
            dev.snapshot_drop(name)?;
            writeln!(out, "dropped snapshot {name}").unwrap();
            dev.snapshot_persist()?;
            save_device(img, dev)?;
        }
        "ls" => {
            let dev = load_device(img)?;
            let list = dev.snapshot_list()?;
            if list.is_empty() {
                writeln!(out, "no snapshots").unwrap();
            } else {
                writeln!(
                    out,
                    "{:<4} {:<24} {:>12} {:>8} {:>8}",
                    "id", "name", "start", "len", "mapped"
                )
                .unwrap();
                for s in &list {
                    writeln!(
                        out,
                        "{:<4} {:<24} {:>12} {:>8} {:>8}",
                        s.id, s.name, s.start.0, s.len, s.mapped_pages
                    )
                    .unwrap();
                }
            }
        }
        other => return Err(CliError(format!("bad snapshot verb: {other}\n{}", usage()))),
    }
    Ok(())
}

/// Causal span tracing: run a synthetic workload against the image with
/// tracing enabled, print the per-stream write-amplification ledger
/// (a Figure-6-style breakdown), and optionally export the span tree as
/// Chrome `trace_event` JSON (`--out`) or a text tree (`--tree N`).
/// Observation only — nothing is written back to the image.
fn trace_cmd(args: &[String], out: &mut String) -> Result<()> {
    let img = args.get(1).ok_or_else(|| CliError(usage()))?;
    let workload = flag_value(args, "--workload").unwrap_or("zipfian");
    let ops = flag_value(args, "--ops").map(|v| parse_u64(v, "ops")).transpose()?.unwrap_or(2_000);
    let seed = flag_value(args, "--seed").map(|v| parse_u64(v, "seed")).transpose()?.unwrap_or(42);
    let pattern = match workload {
        "sequential" => AccessPattern::Sequential,
        "uniform" => AccessPattern::Uniform,
        "zipfian" => AccessPattern::Zipfian { theta: 0.99 },
        "mixed" => AccessPattern::Mixed { seq_fraction: 0.5 },
        other => {
            return Err(CliError(format!(
                "bad --workload: {other} (want sequential|uniform|zipfian|mixed)"
            )))
        }
    };
    let mut dev = load_device_with(img, TelemetryConfig::full(), SloConfig::default())?;
    let logical = dev.config().logical_pages;
    // Two host streams split by address: the low 3/4 reads as table/data
    // traffic, the top 1/4 as journal traffic — enough structure for the
    // blame ledger to attribute GC against distinct foreground streams.
    let data = dev.stream_intern("data");
    let journal = dev.stream_intern("journal");
    let stream_of = |lpn: u64| if lpn * 4 >= logical * 3 { journal } else { data };
    let gen = TraceGen::new(TraceConfig {
        pattern,
        logical_pages: logical,
        ops,
        write_fraction: 0.7,
        trim_every: 97,
        flush_every: 64,
        seed,
    });
    let before = dev.stats();
    let t0 = dev.clock().now_ns();
    let page = vec![0xCDu8; dev.page_size()];
    let mut buf = vec![0u8; dev.page_size()];
    let mut replayed = 0u64;
    for op in gen {
        match op {
            TraceOp::Write { lpn } => {
                dev.set_stream(stream_of(lpn));
                dev.write(Lpn(lpn), &page)?
            }
            TraceOp::Read { lpn } => {
                dev.set_stream(stream_of(lpn));
                dev.read(Lpn(lpn), &mut buf)?
            }
            TraceOp::Trim { lpn, len } => {
                dev.set_stream(stream_of(lpn));
                dev.trim(Lpn(lpn), len)?
            }
            TraceOp::Share { dest, src, len } => {
                dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?
            }
            TraceOp::Flush => dev.flush()?,
        }
        replayed += 1;
    }
    let d = dev.stats().delta_since(&before);
    let dt = dev.clock().now_ns() - t0;
    let spans = dev.tracer().span_count();
    writeln!(
        out,
        "traced {replayed} {workload} op(s) in {:.3} simulated s: {spans} spans recorded",
        dt as f64 / 1e9
    )
    .unwrap();
    out.push_str(&traffic_summary(&d));
    let snap = dev.telemetry_snapshot().expect("FTL always exposes telemetry");
    writeln!(out, "\nper-stream write-amplification ledger:").unwrap();
    writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "stream", "fg_pages", "bg_gc", "bg_log", "bg_ckpt", "WA"
    )
    .unwrap();
    for w in &snap.wa {
        if w.fg_pages == 0 && w.bg_total() == 0 {
            continue;
        }
        let wa = match w.wa_factor() {
            Some(f) => format!("{f:.3}"),
            None => "-".into(),
        };
        writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8}",
            w.label, w.fg_pages, w.bg_gc, w.bg_log, w.bg_ckpt, wa
        )
        .unwrap();
    }
    if let Some(path) = flag_value(args, "--out") {
        let json = dev.tracer().chrome_json().expect("tracing was enabled");
        fs::write(path, json.render())?;
        writeln!(out, "\nchrome trace written to {path} (load in chrome://tracing or Perfetto)")
            .unwrap();
    }
    if let Some(n) = flag_value(args, "--tree") {
        let n = parse_u64(n, "tree")? as usize;
        writeln!(out, "\nspan tree (first {n} lines):").unwrap();
        for line in dev.tracer().text_tree().lines().take(n) {
            writeln!(out, "{line}").unwrap();
        }
    }
    // Observation only: nothing is written back to the image.
    Ok(())
}

fn parse_f64(s: &str, what: &str) -> Result<f64> {
    s.parse().map_err(|_| CliError(format!("bad {what}: {s}")))
}

fn parse_pattern(workload: &str) -> Result<AccessPattern> {
    Ok(match workload {
        "sequential" => AccessPattern::Sequential,
        "uniform" => AccessPattern::Uniform,
        "zipfian" => AccessPattern::Zipfian { theta: 0.99 },
        "mixed" => AccessPattern::Mixed { seq_fraction: 0.5 },
        other => {
            return Err(CliError(format!(
                "bad --workload: {other} (want sequential|uniform|zipfian|mixed)"
            )))
        }
    })
}

/// SLO threshold flags shared by `monitor` (defaults: no thresholds) and
/// `doctor` (defaults: conservative health floors).
fn slo_from_flags(args: &[String], defaults: SloConfig) -> Result<SloConfig> {
    let mut slo = defaults;
    if let Some(v) = flag_value(args, "--write-p99-us") {
        slo.write_p99_ceiling_ns = Some(parse_u64(v, "write-p99-us")? * 1_000);
    }
    if let Some(v) = flag_value(args, "--read-p99-us") {
        slo.read_p99_ceiling_ns = Some(parse_u64(v, "read-p99-us")? * 1_000);
    }
    if let Some(v) = flag_value(args, "--gc-stall-ms") {
        slo.gc_stall_budget_ns = Some(parse_u64(v, "gc-stall-ms")? * 1_000_000);
    }
    if let Some(v) = flag_value(args, "--free-floor") {
        slo.free_block_floor = Some(parse_u64(v, "free-floor")?);
    }
    if let Some(v) = flag_value(args, "--skew-max") {
        slo.wear_skew_max = Some(parse_f64(v, "skew-max")?);
    }
    if let Some(v) = flag_value(args, "--life-floor") {
        slo.remaining_life_floor = Some(parse_f64(v, "life-floor")?);
    }
    Ok(slo)
}

/// Longitudinal monitoring: run a synthetic workload with the flight
/// recorder sealing an epoch every `--epoch-ms` of *simulated* time, then
/// print one row of counter deltas per epoch plus any SLO alerts fired at
/// epoch boundaries. Observation only — nothing is written back.
fn monitor_cmd(args: &[String], out: &mut String) -> Result<()> {
    let img = args.get(1).ok_or_else(|| CliError(usage()))?;
    let workload = flag_value(args, "--workload").unwrap_or("zipfian");
    let pattern = parse_pattern(workload)?;
    let ops = flag_value(args, "--ops").map(|v| parse_u64(v, "ops")).transpose()?.unwrap_or(2_000);
    let seed = flag_value(args, "--seed").map(|v| parse_u64(v, "seed")).transpose()?.unwrap_or(42);
    let epoch_ms =
        flag_value(args, "--epoch-ms").map(|v| parse_u64(v, "epoch-ms")).transpose()?.unwrap_or(10);
    if epoch_ms == 0 {
        return Err(CliError("--epoch-ms must be at least 1".into()));
    }
    let format = flag_value(args, "--format").unwrap_or("table");
    if format != "table" && format != "json" {
        return Err(CliError(format!("bad --format: {format} (want table|json)")));
    }
    let slo = slo_from_flags(args, SloConfig::default())?;
    let mut telemetry = TelemetryConfig::monitoring(epoch_ms * 1_000_000);
    if let Some(v) = flag_value(args, "--ring") {
        telemetry.epoch_ring = parse_u64(v, "ring")? as usize;
    }

    let mut dev = load_device_with(img, telemetry, slo)?;
    let logical = dev.config().logical_pages;
    // Same two-stream address split as `trace`: low 3/4 data, top 1/4
    // journal, so the per-epoch WA rows attribute against real streams.
    let data = dev.stream_intern("data");
    let journal = dev.stream_intern("journal");
    let stream_of = |lpn: u64| if lpn * 4 >= logical * 3 { journal } else { data };
    let gen = TraceGen::new(TraceConfig {
        pattern,
        logical_pages: logical,
        ops,
        write_fraction: 0.7,
        trim_every: 97,
        flush_every: 64,
        seed,
    });
    let t0 = dev.clock().now_ns();
    let page = vec![0xCDu8; dev.page_size()];
    let mut buf = vec![0u8; dev.page_size()];
    let mut replayed = 0u64;
    for op in gen {
        match op {
            TraceOp::Write { lpn } => {
                dev.set_stream(stream_of(lpn));
                dev.write(Lpn(lpn), &page)?
            }
            TraceOp::Read { lpn } => {
                dev.set_stream(stream_of(lpn));
                dev.read(Lpn(lpn), &mut buf)?
            }
            TraceOp::Trim { lpn, len } => {
                dev.set_stream(stream_of(lpn));
                dev.trim(Lpn(lpn), len)?
            }
            TraceOp::Share { dest, src, len } => {
                dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?
            }
            TraceOp::Flush => dev.flush()?,
        }
        replayed += 1;
    }
    let snap = dev.monitor_snapshot().expect("monitoring telemetry is on");
    if format == "json" {
        out.push_str(&snap.to_json().render());
        out.push('\n');
        return Ok(());
    }

    let dt = dev.clock().now_ns() - t0;
    writeln!(
        out,
        "monitored {replayed} {workload} op(s) over {:.3} simulated s: \
         {} epoch(s) sealed ({} rolled off the {}-epoch ring)",
        dt as f64 / 1e9,
        snap.sealed,
        snap.dropped,
        snap.epochs.len().max(1)
    )
    .unwrap();
    writeln!(
        out,
        "{:>5} {:>9} {:>6} {:>6} {:>7} {:>7} {:>9} {:>5} {:>9} {:>9} {:>6}",
        "epoch", "t(ms)", "wr", "rd", "progs", "cb", "stall(us)", "free", "wp99(us)", "rp99(us)", "alert"
    )
    .unwrap();
    for e in &snap.epochs {
        let q = |h: &share_core::telemetry::Histogram| {
            if h.is_empty() { "-".to_string() } else { format!("{:.0}", h.quantile(0.99) as f64 / 1e3) }
        };
        writeln!(
            out,
            "{:>5} {:>9.1} {:>6} {:>6} {:>7} {:>7} {:>9.0} {:>5} {:>9} {:>9} {:>6}",
            e.epoch,
            e.end_ns as f64 / 1e6,
            e.stats.host_writes,
            e.stats.host_reads,
            e.stats.nand.page_programs,
            e.stats.copyback_pages,
            e.stats.gc_stall_ns as f64 / 1e3,
            e.free_blocks,
            q(&e.write_hist),
            q(&e.read_hist),
            e.alerts.len()
        )
        .unwrap();
    }
    // Per-unit busy-time shares over the retained window: the same series
    // the Chrome trace carries as `unit_epoch_busy_ns` metadata.
    let window_ns: u64 = snap.epochs.iter().map(|e| e.end_ns - e.start_ns).sum();
    if window_ns > 0 && !snap.unit_labels.is_empty() {
        write!(out, "unit busy: ").unwrap();
        for (i, label) in snap.unit_labels.iter().enumerate() {
            let busy: u64 = snap.epochs.iter().filter_map(|e| e.unit_busy_ns.get(i)).sum();
            write!(out, "{label} {:.0}%  ", busy as f64 * 100.0 / window_ns as f64).unwrap();
        }
        writeln!(out).unwrap();
    }
    let health = dev.health_report();
    writeln!(
        out,
        "health: wear {}..{} (skew {:.2}), free {}/{} blocks, WAF {:.3}, life {:.1}%",
        health.wear.min_erases,
        health.wear.max_erases,
        health.wear_skew,
        health.free_blocks,
        health.data_blocks,
        health.stats.waf(),
        health.remaining_life * 100.0
    )
    .unwrap();
    if snap.alerts.is_empty() {
        writeln!(out, "alerts: none").unwrap();
    } else {
        writeln!(out, "alerts ({}):", snap.alerts.len()).unwrap();
        for a in &snap.alerts {
            writeln!(
                out,
                "  {:>8} epoch {:>4} {}: {:.1} (threshold {:.1})",
                a.severity.name(),
                a.epoch,
                a.kind.name(),
                a.value,
                a.threshold
            )
            .unwrap();
        }
    }
    // Observation only: nothing is written back to the image.
    Ok(())
}

/// Read-only device health report ("SMART for the simulator"): wear
/// histogram and moments, free-block headroom, lifetime WA, and a
/// remaining-life estimate, checked against health floors. A critical
/// breach returns an error so the process exits non-zero.
fn doctor_cmd(args: &[String], out: &mut String) -> Result<()> {
    let img = args.get(1).ok_or_else(|| CliError(usage()))?;
    let endurance = flag_value(args, "--endurance")
        .map(|v| parse_u64(v, "endurance"))
        .transpose()?
        .unwrap_or(DEFAULT_ENDURANCE_CYCLES);
    let format = flag_value(args, "--format").unwrap_or("text");
    if format != "text" && format != "json" {
        return Err(CliError(format!("bad --format: {format} (want text|json)")));
    }
    // Health floors: free pool nearly exhausted, badly skewed wear, or
    // under 5 % life left. Each is overridable per invocation.
    let defaults = SloConfig {
        free_block_floor: Some(1),
        wear_skew_max: Some(8.0),
        remaining_life_floor: Some(0.05),
        ..SloConfig::default()
    };
    let slo = slo_from_flags(args, defaults)?;

    let dev = load_device(img)?;
    let report = dev.health_report_with(endurance);
    let obs = EpochObservation {
        epoch: 0,
        end_ns: dev.clock().now_ns(),
        write_p99_ns: None,
        read_p99_ns: None,
        gc_stall_delta_ns: 0,
        free_blocks: report.free_blocks,
        wear_skew: report.wear_skew,
        remaining_life: report.remaining_life,
    };
    let alerts = slo.evaluate(&obs);
    let critical = alerts.iter().filter(|a| a.severity == AlertSeverity::Critical).count();

    if format == "json" {
        let mut doc = report.to_json();
        if let share_core::telemetry::json::Json::Obj(fields) = &mut doc {
            fields.push((
                "alerts".into(),
                share_core::telemetry::json::Json::Arr(
                    alerts.iter().map(share_core::Alert::to_json).collect(),
                ),
            ));
        }
        out.push_str(&doc.render());
        out.push('\n');
    } else {
        writeln!(out, "device health: {img}").unwrap();
        writeln!(out, "  data blocks:    {} ({} free)", report.data_blocks, report.free_blocks)
            .unwrap();
        writeln!(
            out,
            "  host writes:    {} page(s), lifetime WAF {:.3}",
            report.stats.host_writes,
            report.stats.waf()
        )
        .unwrap();
        writeln!(
            out,
            "  background:     {} copyback page(s), {} meta page(s)",
            report.stats.copyback_pages, report.stats.meta_page_writes
        )
        .unwrap();
        writeln!(
            out,
            "  wear:           {}..{} erases (mean {:.1}, stddev {:.1}, skew {:.2})",
            report.wear.min_erases,
            report.wear.max_erases,
            report.wear.mean_erases,
            report.wear.stddev_erases,
            report.wear_skew
        )
        .unwrap();
        writeln!(
            out,
            "  remaining life: {:.1}% (assuming {} rated P/E cycles)",
            report.remaining_life * 100.0,
            report.endurance_cycles
        )
        .unwrap();
        writeln!(out, "  wear histogram:").unwrap();
        let peak = report.wear_hist.iter().map(|b| b.blocks).max().unwrap_or(0).max(1);
        for b in &report.wear_hist {
            let bar = "#".repeat(((b.blocks * 40).div_ceil(peak)) as usize);
            writeln!(out, "    [{:>5}..{:>5}] {:<40} {}", b.lo, b.hi, bar, b.blocks).unwrap();
        }
        if alerts.is_empty() {
            writeln!(out, "alerts: none").unwrap();
        } else {
            writeln!(out, "alerts ({}):", alerts.len()).unwrap();
            for a in &alerts {
                writeln!(
                    out,
                    "  {:>8} {}: {:.2} (threshold {:.2})",
                    a.severity.name(),
                    a.kind.name(),
                    a.value,
                    a.threshold
                )
                .unwrap();
            }
        }
    }
    if critical > 0 {
        // Returned as the error so the exit status is non-zero; the report
        // rides along in the message.
        return Err(CliError(format!("{out}doctor: CRITICAL — {critical} critical alert(s)")));
    }
    if format != "json" {
        writeln!(out, "doctor: OK").unwrap();
    }
    Ok(())
}

/// Power-loss recovery sweep (see `crates/crashsweep`). Builds fresh
/// in-memory devices — no image file involved — and reports every oracle
/// violation as a reproducible `(workload, mode, crash_index)` triple.
/// With `--index` and a single `--mode` it replays exactly one case.
fn crashsweep_cmd(args: &[String], out: &mut String) -> Result<()> {
    use share_crashsweep::{
        engine_workload, sweep, CrashWorkload, FtlGcPipelineWorkload, FtlMixedWorkload,
        FtlQueuedWorkload, FtlSnapshotWorkload, FtlStreamWorkload, ENGINE_WORKLOADS,
    };

    let which = flag_value(args, "--workload").unwrap_or("all");
    let seed = flag_value(args, "--seed").map(|v| parse_u64(v, "seed")).transpose()?.unwrap_or(42);
    let stride =
        flag_value(args, "--stride").map(|v| parse_u64(v, "stride")).transpose()?.unwrap_or(3);
    let mode_arg = flag_value(args, "--mode").unwrap_or("all");
    let modes: Vec<nand_sim::FaultMode> = if mode_arg == "all" {
        nand_sim::FaultMode::ALL.to_vec()
    } else {
        vec![nand_sim::FaultMode::from_label(mode_arg)
            .ok_or_else(|| CliError(format!("bad --mode: {mode_arg}")))?]
    };

    let mut workloads: Vec<Box<dyn CrashWorkload>> = Vec::new();
    if let Some(trace_file) = flag_value(args, "--trace") {
        let text = fs::read_to_string(trace_file)?;
        let ops = parse_trace(&text);
        let label = Path::new(trace_file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into());
        let max_lpn = ops
            .iter()
            .map(|op| match *op {
                TraceOp::Write { lpn } | TraceOp::Read { lpn } => lpn,
                TraceOp::Trim { lpn, len } => lpn + len.saturating_sub(1),
                TraceOp::Share { dest, src, len } => {
                    dest.max(src) + len.saturating_sub(1)
                }
                TraceOp::Flush => 0,
            })
            .max()
            .unwrap_or(0);
        workloads.push(Box::new(FtlMixedWorkload::trace(&label, &ops, (max_lpn + 1).max(16))));
    } else {
        match which {
            "ftl" => workloads.push(Box::new(FtlMixedWorkload::new(seed, 300))),
            "queued" => workloads.push(Box::new(FtlQueuedWorkload::new(seed, 300, 4))),
            "queued-batch" => workloads.push(Box::new(FtlQueuedWorkload::write_batches(60, 4))),
            "stream" => workloads.push(Box::new(FtlStreamWorkload::new(seed, 300))),
            "gcpipe" => workloads.push(Box::new(FtlGcPipelineWorkload::new(seed, 600))),
            "snapshot" => workloads.push(Box::new(FtlSnapshotWorkload::new(seed, 300))),
            "all" => {
                workloads.push(Box::new(FtlMixedWorkload::new(seed, 300)));
                workloads.push(Box::new(FtlQueuedWorkload::new(seed, 300, 4)));
                workloads.push(Box::new(FtlQueuedWorkload::write_batches(60, 4)));
                workloads.push(Box::new(FtlStreamWorkload::new(seed, 300)));
                workloads.push(Box::new(FtlGcPipelineWorkload::new(seed, 600)));
                workloads.push(Box::new(FtlSnapshotWorkload::new(seed, 300)));
                workloads.extend(ENGINE_WORKLOADS.iter().filter_map(|w| engine_workload(w, seed)));
            }
            name => {
                // One engine mode (`innodb-share`), a positive control, or
                // every mode of one engine (`innodb`).
                let group = format!("{name}-");
                let modes = ENGINE_WORKLOADS.iter().filter(|w| w.starts_with(&group));
                let names = std::iter::once(name).chain(modes.copied());
                workloads.extend(names.filter_map(|w| engine_workload(w, seed)));
                if workloads.is_empty() {
                    return Err(CliError(format!("bad --workload: {name}")));
                }
            }
        }
    }

    if let Some(index) = flag_value(args, "--index") {
        // Single-case reproduction of a reported triple.
        let index = parse_u64(index, "index")?;
        let [mode] = modes[..] else {
            return Err(CliError("--index needs a single --mode, not all".into()));
        };
        let [w] = &workloads[..] else {
            return Err(CliError("--index needs a single --workload".into()));
        };
        return match w.run_case(mode, index) {
            Ok(()) => {
                writeln!(
                    out,
                    "PASS (workload={}, mode={}, crash_index={index})",
                    w.name(),
                    mode.label()
                )
                .unwrap();
                Ok(())
            }
            Err(reason) => Err(CliError(format!(
                "FAIL (workload={}, mode={}, crash_index={index}): {reason}",
                w.name(),
                mode.label()
            ))),
        };
    }

    let mut violations = 0usize;
    for w in &workloads {
        let report = sweep(w.as_ref(), &modes, stride);
        writeln!(out, "{report}").unwrap();
        for f in &report.failures {
            writeln!(out, "  {f}").unwrap();
        }
        violations += report.failures.len();
    }
    if violations > 0 {
        // The reports carry the triples: an error must not drop them.
        return Err(CliError(format!(
            "{out}{violations} crash case(s) violated the recovery oracle (triples above)"
        )));
    }
    Ok(())
}
