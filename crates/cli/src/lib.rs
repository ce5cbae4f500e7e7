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
//! sharectl metrics disk.nand --trace trace.txt  # telemetry snapshot (JSON)
//! ```
//!
//! All logic lives in [`run`], which returns the output text — `main` is a
//! thin wrapper, so the whole tool is unit-testable.

use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig, Lpn, SharePair, TelemetryConfig};
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
     \x20 sharectl metrics <img> [--trace <file>]\n\
     \x20\x20\x20\x20 (telemetry snapshot as JSON; with --trace, replays first — observation\n\
     \x20\x20\x20\x20 only, nothing is written back to the image)\n\
     \x20 sharectl trace  <img> [--workload sequential|uniform|zipfian|mixed]\n\
     \x20\x20\x20\x20 [--ops N] [--seed N] [--out trace.json] [--tree N]\n\
     \x20\x20\x20\x20 (run a traced workload: optional Chrome trace_event JSON and\n\
     \x20\x20\x20\x20 span-tree dump — observation only, nothing is written back to\n\
     \x20\x20\x20\x20 the image)\n\
     \x20 sharectl snapshot <img> create <name> <start-lpn> <len>\n\
     \x20 sharectl snapshot <img> clone  <name> <dst-lpn> [--offset N] [--len N]\n\
     \x20 sharectl snapshot <img> drop   <name>\n\
     \x20 sharectl snapshot <img> ls\n\
     \x20\x20\x20\x20 (device-level snapshots: create freezes a page range with zero\n\
     \x20\x20\x20\x20 NAND programs, clone materializes a writable zero-copy image)\n\
     \x20 sharectl crashsweep [--workload ftl|queued|queued-batch|stream|gcpipe|snapshot|relocate|all|<engine>|<engine>-<mode>]\n\
     \x20\x20\x20\x20 [--trace <file>] (engines innodb|couch|pg|sqlite; modes innodb-dwb|innodb-share|\n\
     \x20\x20\x20\x20 innodb-atomic|innodb-cached|innodb-16k|couch-original|couch-share|couch-share-wide|\n\
     \x20\x20\x20\x20 pg-on|pg-share|sqlite-rollback|sqlite-wal|sqlite-share; positive controls\n\
     \x20\x20\x20\x20 innodb-dwb-off|pg-off|sqlite-off)\n\
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
    load_device_with(img, TelemetryConfig::default())
}

/// Open the device in `img` with `telemetry`.
fn load_device_with(img: &str, telemetry: TelemetryConfig) -> Result<Ftl> {
    let cfg_text = fs::read_to_string(cfg_path(img))
        .map_err(|_| CliError(format!("missing sidecar {} — not a sharectl image?", cfg_path(img))))?;
    let field = |name: &str| -> Result<u64> {
        let value = cfg_text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .ok_or_else(|| CliError(format!("sidecar missing {name}")))?;
        value.parse().map_err(|_| CliError(format!("sidecar {name} is not a count: {value}")))
    };
    let logical_pages = field("logical_pages")?;
    let log_blocks = field("log_blocks")?;
    let revmap_capacity = field("revmap_capacity")?;

    let bytes = fs::read(img)?;
    let nand = nand_sim::NandArray::load_image(&mut bytes.as_slice(), nand_sim::NandTiming::default())
        .map_err(|e| CliError(format!("bad image: {e}")))?;
    let g = nand.geometry();
    // The defaults supply the fields the sidecar does not hold; the image's
    // geometry and timing and the sidecar's fields replace the rest, and are
    // checked against each other before anything is sized from them (the
    // reverse map's capacity is a bound only: it sizes nothing).
    let mut cfg = FtlConfig::for_capacity(1 << 20, 0.10);
    cfg.geometry = g;
    cfg.timing = nand.timing();
    cfg.log_blocks = u32::try_from(log_blocks).unwrap_or(u32::MAX);
    cfg.revmap_capacity = usize::try_from(revmap_capacity).unwrap_or(usize::MAX);
    cfg.logical_pages = logical_pages;
    cfg.telemetry = telemetry;
    cfg.validate()
        .map_err(|e| CliError(format!("sidecar {} does not fit the image: {e}", cfg_path(img))))?;
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

/// `s` parsed as a count of `unit`s and scaled to the base unit, refusing
/// a value whose product does not fit.
fn parse_scaled(s: &str, what: &str, unit: u64) -> Result<u64> {
    parse_u64(s, what)?.checked_mul(unit).ok_or_else(|| CliError(format!("{what} too large: {s}")))
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

/// The values of the flags `names` in `args[from..]`, which must hold
/// nothing but `--flag value` pairs of those flags: an unknown flag, a
/// stray argument or a flag without its value is refused, not ignored.
fn flags<'a, const N: usize>(
    args: &'a [String],
    from: usize,
    names: [&str; N],
) -> Result<[Option<&'a str>; N]> {
    let bad = |why: String| CliError(format!("bad {} arguments: {why}", args[0]));
    let mut values = [None; N];
    let mut rest = args.iter().skip(from);
    while let Some(arg) = rest.next() {
        let Some(i) = names.iter().position(|n| n == arg) else {
            let known = if N == 0 { "none".to_string() } else { names.join(" ") };
            return Err(bad(format!("unexpected {arg} (flags: {known})")));
        };
        let value = rest.next().ok_or_else(|| bad(format!("{arg} needs a value")))?;
        values[i] = Some(value.as_str());
    }
    Ok(values)
}

/// Execute one command line (without the program name); returns the output.
pub fn run(args: &[String]) -> Result<String> {
    let mut out = String::new();
    match args.first().map(String::as_str) {
        Some("create") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let size = args.get(2).ok_or_else(|| CliError(usage()))?;
            let bytes = parse_scaled(size, "size", 1 << 20)?;
            let op = args.get(3).map(|s| parse_u64(s, "op-percent")).transpose()?.unwrap_or(15);
            flags(args, 4, [])?;
            if bytes == 0 {
                return Err(CliError("size must be at least 1 MiB".into()));
            }
            if op == 0 {
                return Err(CliError("op-percent must be at least 1".into()));
            }
            if Path::new(img).exists() {
                return Err(CliError(format!("{img} already exists")));
            }
            let cfg = FtlConfig::for_capacity(bytes, op as f64 / 100.0);
            let dev = Ftl::new(cfg);
            writeln!(
                out,
                "created {img}: {} MiB logical, {} physical blocks, {}% over-provisioning",
                bytes >> 20,
                dev.config().geometry.blocks,
                op
            )
            .unwrap();
            save_device(img, dev)?;
        }
        Some("info") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            flags(args, 2, [])?;
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
            let [byte, count] = flags(args, 3, ["--byte", "--count"])?;
            let byte = byte
                .map(|v| u8::from_str_radix(v, 16).map_err(|_| CliError(format!("bad byte: {v}"))))
                .transpose()?
                .unwrap_or(0xAB);
            let count = count.map(|v| parse_u64(v, "count")).transpose()?.unwrap_or(1);
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
            flags(args, 3, [])?;
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
            let [len] = flags(args, 4, ["--len"])?;
            let len = len.map(|v| parse_u64(v, "len")).transpose()?.unwrap_or(1);
            let mut dev = load_device(img)?;
            dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?;
            writeln!(out, "shared {len} page(s): LPN {dest} <- LPN {src}").unwrap();
            save_device(img, dev)?;
        }
        Some("trim") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let lpn = parse_u64(args.get(2).ok_or_else(|| CliError(usage()))?, "lpn")?;
            let [len] = flags(args, 3, ["--len"])?;
            let len = len.map(|v| parse_u64(v, "len")).transpose()?.unwrap_or(1);
            let mut dev = load_device(img)?;
            dev.trim(Lpn(lpn), len)?;
            writeln!(out, "trimmed {len} page(s) at LPN {lpn}").unwrap();
            save_device(img, dev)?;
        }
        Some("replay") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let trace_file = args.get(2).ok_or_else(|| CliError(usage()))?;
            flags(args, 3, [])?;
            let text = fs::read_to_string(trace_file)?;
            let ops = parse_trace(&text);
            let mut dev = load_device(img)?;
            let before = dev.stats();
            let t0 = dev.clock().now_ns();
            replay_ops(&mut dev, ops.iter().copied())?;
            let d = dev.stats().delta_since(&before);
            let dt = dev.clock().now_ns() - t0;
            writeln!(out, "replayed {} ops in {:.3} simulated s", ops.len(), dt as f64 / 1e9).unwrap();
            out.push_str(&traffic_summary(&d));
            save_device(img, dev)?;
        }
        Some("metrics") => {
            let img = args.get(1).ok_or_else(|| CliError(usage()))?;
            let [trace] = flags(args, 2, ["--trace"])?;
            let mut dev = load_device(img)?;
            if let Some(trace_file) = trace {
                let text = fs::read_to_string(trace_file)?;
                replay_ops(&mut dev, parse_trace(&text))?;
            }
            let snap = dev.telemetry_snapshot().expect("FTL always exposes telemetry");
            out.push_str(&snap.to_json().render());
            out.push('\n');
            // Observation only: nothing is written back to the image.
        }
        Some("snapshot") => {
            snapshot_cmd(args, &mut out)?;
        }
        Some("trace") => {
            trace_cmd(args, &mut out)?;
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
            flags(args, 6, [])?;
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
            let [offset, len] = flags(args, 5, ["--offset", "--len"])?;
            let offset = offset.map(|v| parse_u64(v, "offset")).transpose()?.unwrap_or(0);
            let mut dev = load_device(img)?;
            let total = dev
                .snapshot_list()?
                .iter()
                .find(|s| &s.name == name)
                .map(|s| s.len)
                .ok_or_else(|| CliError(format!("no snapshot named {name}")))?;
            let len = match len {
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
            flags(args, 4, [])?;
            let mut dev = load_device(img)?;
            dev.snapshot_drop(name)?;
            writeln!(out, "dropped snapshot {name}").unwrap();
            dev.snapshot_persist()?;
            save_device(img, dev)?;
        }
        "ls" => {
            flags(args, 3, [])?;
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

/// Causal span tracing: run a synthetic workload (`--workload` zipfian,
/// `--ops` 2 000 and `--seed` 42 unless given) against the image with
/// tracing enabled, print its traffic summary, and optionally export the
/// span tree as Chrome `trace_event` JSON (`--out`) or a text tree
/// (`--tree N`). Observation only — nothing is written back to the image.
fn trace_cmd(args: &[String], out: &mut String) -> Result<()> {
    let img = args.get(1).ok_or_else(|| CliError(usage()))?;
    let [workload, ops, seed, out_path, tree] =
        flags(args, 2, ["--workload", "--ops", "--seed", "--out", "--tree"])?;
    let workload = workload.unwrap_or("zipfian");
    let pattern = parse_pattern(workload)?;
    let ops = ops.map(|v| parse_u64(v, "ops")).transpose()?.unwrap_or(2_000);
    let seed = seed.map(|v| parse_u64(v, "seed")).transpose()?.unwrap_or(42);
    let mut dev = load_device_with(img, TelemetryConfig::tracing())?;
    let gen = TraceConfig {
        pattern,
        logical_pages: dev.config().logical_pages,
        ops,
        write_fraction: 0.7,
        trim_every: 97,
        flush_every: 64,
        seed,
    };
    let before = dev.stats();
    let t0 = dev.clock().now_ns();
    let replayed = replay_ops(&mut dev, TraceGen::new(gen))?;
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
    if let Some(path) = out_path {
        let json = dev.tracer().chrome_json().expect("tracing was enabled");
        fs::write(path, json.render())?;
        writeln!(out, "\nchrome trace written to {path} (load in chrome://tracing or Perfetto)")
            .unwrap();
    }
    if let Some(n) = tree {
        let n = parse_u64(n, "tree")? as usize;
        writeln!(out, "\nspan tree (first {n} lines):").unwrap();
        for line in dev.tracer().text_tree().lines().take(n) {
            writeln!(out, "{line}").unwrap();
        }
    }
    // Observation only: nothing is written back to the image.
    Ok(())
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

/// Replay block-trace `ops` against `dev` (writes carry 0xCD). Returns the
/// ops replayed.
fn replay_ops(dev: &mut Ftl, ops: impl IntoIterator<Item = TraceOp>) -> Result<u64> {
    let page = vec![0xCDu8; dev.page_size()];
    let mut buf = vec![0u8; dev.page_size()];
    let mut replayed = 0;
    for op in ops {
        match op {
            TraceOp::Write { lpn } => dev.write(Lpn(lpn), &page)?,
            TraceOp::Read { lpn } => dev.read(Lpn(lpn), &mut buf)?,
            TraceOp::Trim { lpn, len } => dev.trim(Lpn(lpn), len)?,
            TraceOp::Share { dest, src, len } => {
                dev.share(&SharePair::range(Lpn(dest), Lpn(src), len))?
            }
            TraceOp::Flush => dev.flush()?,
        }
        replayed += 1;
    }
    Ok(replayed)
}

/// Power-loss recovery sweep (see `crates/crashsweep`). Builds fresh
/// in-memory devices — no image file involved — and reports every oracle
/// violation as a reproducible `(workload, mode, crash_index)` triple.
/// With `--index` and a single `--mode` it replays exactly one case.
fn crashsweep_cmd(args: &[String], out: &mut String) -> Result<()> {
    use share_crashsweep::{
        engine_workload, ftl_workload, sweep, CrashWorkload, FtlWorkload, ENGINE_WORKLOADS,
        FTL_OPS, FTL_WORKLOADS,
    };

    let [which, seed, stride, mode_arg, trace, index] =
        flags(args, 1, ["--workload", "--seed", "--stride", "--mode", "--trace", "--index"])?;
    let which = which.unwrap_or("all");
    let seed = seed.map(|v| parse_u64(v, "seed")).transpose()?.unwrap_or(42);
    let stride = stride.map(|v| parse_u64(v, "stride")).transpose()?.unwrap_or(3);
    let mode_arg = mode_arg.unwrap_or("all");
    let modes: Vec<nand_sim::FaultMode> = if mode_arg == "all" {
        nand_sim::FaultMode::ALL.to_vec()
    } else {
        vec![nand_sim::FaultMode::from_label(mode_arg)
            .ok_or_else(|| CliError(format!("bad --mode: {mode_arg}")))?]
    };

    let mut workloads: Vec<Box<dyn CrashWorkload>> = Vec::new();
    if let Some(trace_file) = trace {
        let text = fs::read_to_string(trace_file)?;
        let label = Path::new(trace_file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".into());
        workloads.push(Box::new(FtlWorkload::trace(&label, &parse_trace(&text))));
    } else if which == "all" {
        workloads.extend(FTL_WORKLOADS.iter().filter_map(|w| ftl_workload(w, seed, FTL_OPS)));
        workloads.extend(ENGINE_WORKLOADS.iter().filter_map(|w| engine_workload(w, seed)));
    } else if let Some(w) =
        ftl_workload(which, seed, FTL_OPS).or_else(|| engine_workload(which, seed))
    {
        // One FTL workload, one engine mode (`innodb-share`) or a positive
        // control.
        workloads.push(w);
    } else {
        // Every mode of one engine (`innodb`).
        let group = format!("{which}-");
        let modes = ENGINE_WORKLOADS.iter().filter(|w| w.starts_with(&group));
        workloads.extend(modes.filter_map(|w| engine_workload(w, seed)));
        if workloads.is_empty() {
            return Err(CliError(format!("bad --workload: {which}")));
        }
    }

    if let Some(index) = index {
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
