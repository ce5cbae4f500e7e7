//! The artifacts that set up a bare FTL of their own: the ablations of
//! the FTL's design choices, recovery cost, trace replay, and the channel,
//! queue-depth device benches.

use super::Records;
use crate::{f, render_table};
use nand_sim::NandTiming;
use share_core::{
    BlockDevice, Ftl, FtlConfig, FtlError, GcPolicy, Lpn, OpClass, QueuedCmd, SharePair,
    Snapshot,
};
use share_rng::{Rng, StdRng};
use share_workloads::{AccessPattern, TraceConfig, TraceGen, TraceOp, Zipfian};

/// **Ablation** — batched vs one-by-one SHARE commands (§3.2).
///
/// The paper batches LPN pairs into one command to amortize the ioctl
/// round trip *and* the mapping-log writes ("this batch can reduce the
/// number of potential flash writes to persist the updated mapping").
/// This sweep remaps the same number of pages with different batch sizes.
pub(crate) fn ablation_batch_share(_: &Records) -> String {
    let pages: u64 = 8_192;
    let mut rows = Vec::new();
    for batch in [1usize, 8, 64, 254] {
        let cfg = FtlConfig::for_capacity(256 << 20, 0.2);
        let mut dev = Ftl::new(cfg);
        // Source region: freshly written pages (the journal copies).
        let img = vec![0xAAu8; dev.page_size()];
        for i in 0..pages {
            dev.write(Lpn(40_000 + i), &img).expect("write");
        }
        dev.flush().expect("flush");
        let s0 = dev.stats();
        let t0 = dev.clock().now_ns();
        let mut done = 0u64;
        while done < pages {
            let n = (pages - done).min(batch as u64);
            let pairs: Vec<SharePair> = (0..n)
                .map(|i| SharePair::new(Lpn(done + i), Lpn(40_000 + done + i)))
                .collect();
            dev.share(&pairs).expect("share");
            done += n;
        }
        let dt = dev.clock().now_ns() - t0;
        let d = dev.stats().delta_since(&s0);
        rows.push(vec![
            batch.to_string(),
            d.share_commands.to_string(),
            d.meta_page_writes.to_string(),
            f(dt as f64 / 1e6, 2),
            f(dt as f64 / pages as f64 / 1e3, 2),
        ]);
    }
    render_table(
        &format!("Ablation: SHARE batch size (remapping {pages} pages)"),
        &["batch", "commands", "meta page writes", "total ms", "us/page"],
        &rows,
    ) + "\nExpectation: batching divides both the command count and the mapping-log\n\
     page programs by the batch size — the paper's motivation for batch SHARE.\n"
}

/// **Ablation** — delta-log flush policy (§4.2.2).
///
/// The FTL persists mapping deltas in page-sized groups; a host that
/// fsyncs after every write forces a (mostly empty) delta page per
/// command, while group commit amortizes ~254 deltas per page. This sweep
/// quantifies the meta-write overhead of the flush cadence.
pub(crate) fn ablation_delta_log(_: &Records) -> String {
    let writes: u64 = 20_000;
    let logical_pages = 16_384u64;
    let mut rows = Vec::new();
    for flush_every in [1u64, 8, 64, 254, u64::MAX] {
        let cfg = FtlConfig::for_capacity(128 << 20, 0.2);
        let mut dev = Ftl::new(cfg);
        let img = vec![0x55u8; dev.page_size()];
        let t0 = dev.clock().now_ns();
        for i in 0..writes {
            dev.write(Lpn((i * 7919) % logical_pages), &img).expect("write");
            if flush_every != u64::MAX && i % flush_every == flush_every - 1 {
                dev.flush().expect("flush");
            }
        }
        dev.flush().expect("final flush");
        let dt = dev.clock().now_ns() - t0;
        let s = dev.stats();
        let label = if flush_every == u64::MAX { "buffer-full only".into() } else { format!("every {flush_every}") };
        rows.push(vec![
            label,
            s.meta_page_writes.to_string(),
            f(s.meta_page_writes as f64 / writes as f64, 3),
            f(s.waf(), 3),
            s.checkpoints.to_string(),
            f(dt as f64 / 1e9, 2),
        ]);
    }
    render_table(
        &format!("Ablation: delta-log flush cadence ({writes} random page writes)"),
        &["fsync cadence", "meta pages", "meta/write", "WAF", "checkpoints", "sim s"],
        &rows,
    ) + "\nExpectation: per-write fsync costs ~1 extra meta program per write (WAF ~2);\n\
     group commit pushes the mapping-persistence overhead toward 1/254 per write.\n"
}

fn churn(policy: GcPolicy, zipf: bool) -> Vec<String> {
    let mut cfg = FtlConfig::for_capacity(64 << 20, 0.12);
    cfg.gc_policy = policy;
    let mut dev = Ftl::new(cfg);
    let logical = dev.capacity_pages();
    let img = vec![0x77u8; dev.page_size()];
    // Fill once, then overwrite 4x the logical space.
    for i in 0..logical {
        dev.write(Lpn(i), &img).expect("fill");
    }
    let mut rng = StdRng::seed_from_u64(11);
    let z = Zipfian::new(logical);
    let s0 = dev.stats();
    let n = logical * 4;
    for _ in 0..n {
        let lpn = if zipf { z.next(&mut rng) } else { rng.random_range(0..logical) };
        dev.write(Lpn(lpn), &img).expect("overwrite");
    }
    let d = dev.stats().delta_since(&s0);
    vec![
        format!("{policy:?}"),
        if zipf { "zipfian" } else { "uniform" }.to_string(),
        d.gc_events.to_string(),
        d.copyback_pages.to_string(),
        f(d.copyback_pages as f64 / d.gc_events.max(1) as f64, 1),
        f(d.waf(), 3),
    ]
}

/// **Ablation** — GC victim selection: greedy (min-valid) vs FIFO.
///
/// The paper's Figure 6 analysis leans on greedy GC behaviour (blocks
/// survive longer under SHARE, so victims carry fewer valid pages). This
/// ablation shows how much of that effect the victim policy itself is
/// worth, under uniform and skewed overwrite churn.
pub(crate) fn ablation_gc_policy(_: &Records) -> String {
    let mut rows = Vec::new();
    for zipf in [false, true] {
        for policy in [GcPolicy::Greedy, GcPolicy::Fifo] {
            rows.push(churn(policy, zipf));
        }
    }
    render_table(
        "Ablation: GC victim policy under overwrite churn (4x logical space)",
        &["policy", "skew", "GC events", "copybacks", "copyback/GC", "WAF"],
        &rows,
    ) + "\nExpectation: greedy beats FIFO on copyback volume, most visibly under\n\
     skew, where min-valid victims are nearly empty.\n"
}

/// Pages written per run (in batches of `BATCH`).
const SWEEP_PAGES: u64 = 4096;
const BATCH: usize = 256;

struct SweepOut {
    write_mb_s: f64,
    read_mb_s: f64,
}

fn sweep(channels: u32) -> SweepOut {
    let cfg = FtlConfig::for_capacity_with(64 << 20, 0.25, PAGE, 128, NandTiming::default())
        .with_parallelism(channels, 1);
    let mut dev = Ftl::new(cfg);
    let clock = dev.clock().clone();
    let t0 = clock.now_ns();

    let mut buf = vec![0u8; PAGE * BATCH];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (i * 31 + channels as usize) as u8;
    }
    for base in (0..SWEEP_PAGES).step_by(BATCH) {
        let pages: Vec<(Lpn, &[u8])> = (0..BATCH as u64)
            .map(|i| (Lpn(base + i), &buf[i as usize * PAGE..(i as usize + 1) * PAGE]))
            .collect();
        dev.write_batch(&pages).expect("write_batch");
    }
    let t_write = clock.now_ns();

    let mut rbuf = vec![0u8; PAGE * BATCH];
    for base in (0..SWEEP_PAGES).step_by(BATCH) {
        let mut reqs: Vec<(Lpn, &mut [u8])> = rbuf
            .chunks_mut(PAGE)
            .enumerate()
            .map(|(i, c)| (Lpn(base + i as u64), c))
            .collect();
        dev.read_batch(&mut reqs).expect("read_batch");
    }
    for (i, b) in rbuf.iter().enumerate() {
        assert_eq!(*b, (i * 31 + channels as usize) as u8, "read-back mismatch");
    }
    let t_read = clock.now_ns();

    let bytes = SWEEP_PAGES as f64 * PAGE as f64;
    SweepOut {
        write_mb_s: bytes / (1 << 20) as f64 / ((t_write - t0) as f64 / 1e9),
        read_mb_s: bytes / (1 << 20) as f64 / ((t_read - t_write) as f64 / 1e9),
    }
}

/// Multi-channel device bench — a small, purely write-heavy device-level
/// scenario that must scale with NAND channels.
///
/// Sweeps channels in {1, 2, 4, 8}: each run streams batched writes (then a
/// batched read-back) through the FTL and measures simulated time. Sizes
/// are fixed; the report is gated byte for byte by `results/bench_channels.txt`.
pub(crate) fn bench_channels(_: &Records) -> String {
    let mut rows = Vec::new();
    let mut write1 = 0.0;
    for channels in [1u32, 2, 4, 8] {
        let r = sweep(channels);
        if channels == 1 {
            write1 = r.write_mb_s;
        }
        rows.push(vec![
            channels.to_string(),
            f(r.write_mb_s, 1),
            f(r.read_mb_s, 1),
            format!("{}x", f(r.write_mb_s / write1, 2)),
        ]);
    }
    render_table(
        "Channel smoke: batched 16 MiB write + read-back vs NAND channels",
        &["channels", "write MB/s", "read MB/s", "vs 1ch"],
        &rows,
    )
}

const PAGE: usize = 4096;
const CHANNELS: u32 = 4;

/// Pages written (and read back) per run.
const TOTAL_PAGES: u64 = 2048;
const WAYS: u32 = 1;

struct RunOut {
    write_mb_s: f64,
    mixed_mb_s: f64,
    write_p50_ns: u64,
    write_p99_ns: u64,
    read_p99_ns: u64,
    max_inflight: u64,
    device_bound: bool,
}

fn fill_of(lpn: u64, qd: usize) -> u8 {
    (lpn as usize * 31 + qd) as u8
}

/// Submit with reap-on-full backpressure; panics on any completed error.
fn submit_bp(dev: &mut Ftl, cmd: QueuedCmd) {
    loop {
        match dev.submit(cmd.clone()) {
            Ok(_) => return,
            Err(FtlError::QueueFull { .. }) => {
                for c in dev.reap() {
                    c.result.expect("queued command");
                }
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

fn run(qd: usize) -> RunOut {
    let cfg = FtlConfig::for_capacity_with(64 << 20, 0.25, PAGE, 128, NandTiming::default())
        .with_parallelism(CHANNELS, 1)
        .with_queue_depth(qd);
    let mut dev = Ftl::new(cfg);
    let clock = dev.clock().clone();
    let t0 = clock.now_ns();

    for lpn in 0..TOTAL_PAGES {
        submit_bp(&mut dev, QueuedCmd::Write {
            lpn: Lpn(lpn),
            data: vec![fill_of(lpn, qd); PAGE],
        });
    }
    for c in dev.drain() {
        c.result.expect("queued write");
    }
    let t_write = clock.now_ns();

    for lpn in 0..TOTAL_PAGES {
        submit_bp(&mut dev, QueuedCmd::Read { lpn: Lpn(lpn) });
    }
    for c in dev.drain() {
        let page = c.result.expect("queued read").into_pages().expect("read payload");
        assert!(
            page.iter().all(|&b| b == page[0]),
            "torn read-back at queue depth {qd}"
        );
    }
    let t_read = clock.now_ns();

    // Mixed phase: alternate read-backs with rewrites, as a real log-
    // structured workload interleaves them. Same backpressure discipline.
    for lpn in 0..TOTAL_PAGES {
        if lpn % 2 == 0 {
            submit_bp(&mut dev, QueuedCmd::Read { lpn: Lpn(lpn) });
        } else {
            submit_bp(&mut dev, QueuedCmd::Write {
                lpn: Lpn(lpn),
                data: vec![fill_of(lpn + 1, qd); PAGE],
            });
        }
    }
    for c in dev.drain() {
        c.result.expect("queued mixed op");
    }
    let t_mixed = clock.now_ns();

    let snap: Snapshot = dev.telemetry_snapshot().expect("an FTL has telemetry");
    let wh = &snap.op(OpClass::Write).hist;
    let rh = &snap.op(OpClass::Read).hist;
    let bytes = TOTAL_PAGES as f64 * PAGE as f64;
    RunOut {
        write_mb_s: bytes / (1 << 20) as f64 / ((t_write - t0) as f64 / 1e9),
        mixed_mb_s: bytes / (1 << 20) as f64 / ((t_mixed - t_read) as f64 / 1e9),
        write_p50_ns: wh.quantile(0.50),
        write_p99_ns: wh.quantile(0.99),
        read_p99_ns: rh.quantile(0.99),
        max_inflight: snap.queue.max_inflight,
        device_bound: snap.queue.max_inflight > (CHANNELS * WAYS) as u64,
    }
}

/// Queue-depth device bench — latency-under-load vs submission-queue
/// depth on a fixed multi-channel device.
///
/// Sweeps queue depth in {1, 4, 16}: each run streams queued single-page
/// writes, then queued read-backs, then a mixed phase interleaving reads
/// and rewrites, through the NVMe-style submission path with
/// reap-on-full backpressure, and reports the p50/p99 submit→complete
/// latency from the device telemetry histograms. `dev bound` is `yes`
/// when the observed `max_inflight` exceeded the device's
/// `channels * ways` service slots, i.e. commands were queueing behind
/// busy NAND units rather than the submission window (the queue-side
/// analogue of the channel sweep's `(sat)` mark). Deeper queues trade
/// per-command latency for throughput: if write p99 does not grow with
/// depth, the queue is not overlapping commands. Sizes are fixed; the
/// report is gated byte for byte by `results/bench_qd.txt`.
pub(crate) fn bench_qd(_: &Records) -> String {
    let mut rows = Vec::new();
    for qd in [1usize, 4, 16] {
        let r = run(qd);
        rows.push(vec![
            qd.to_string(),
            f(r.write_mb_s, 1),
            f(r.mixed_mb_s, 1),
            f(r.write_p50_ns as f64 / 1e3, 0),
            f(r.write_p99_ns as f64 / 1e3, 0),
            f(r.read_p99_ns as f64 / 1e3, 0),
            r.max_inflight.to_string(),
            if r.device_bound { "yes" } else { "no" }.to_string(),
        ]);
    }
    render_table(
        "QD smoke: queued 8 MiB write + read-back + mixed vs queue depth (4 channels)",
        &["qd", "write MB/s", "mixed MB/s", "w p50 us", "w p99 us", "r p99 us", "max inflight", "dev bound"],
        &rows,
    )
}

/// **Recovery-time bench** — cost of mounting the FTL after a crash.
///
/// §4.2.2 balances "update performance and recovery overhead": frequent
/// checkpoints cost meta writes at run time, rare ones lengthen the delta
/// replay at mount. This bench crashes a device at increasing distances
/// from its last checkpoint and reports the recovery work.
pub(crate) fn recovery_time(_: &Records) -> String {
    let mut rows = Vec::new();
    for writes_since_ckpt in [0u64, 5_000, 20_000, 60_000] {
        let cfg = FtlConfig::for_capacity(256 << 20, 0.2);
        let mut dev = Ftl::new(cfg.clone());
        let logical = dev.capacity_pages();
        let img = vec![0x42u8; dev.page_size()];
        // Base state, checkpointed.
        for i in 0..logical / 2 {
            dev.write(Lpn(i), &img).unwrap();
        }
        dev.checkpoint().unwrap();
        // Un-checkpointed churn: deltas accumulate in the log ring.
        for i in 0..writes_since_ckpt {
            dev.write(Lpn((i * 13) % logical), &img).unwrap();
            if i % 64 == 63 {
                dev.flush().unwrap();
            }
        }
        dev.flush().unwrap();
        let ckpts_before = dev.stats().checkpoints;

        // "Crash" (drop RAM state) and measure the remount.
        let nand = dev.into_nand();
        let clock = nand.clock().clone();
        let t_sim0 = clock.now_ns();
        let rec = Ftl::open(cfg, nand).unwrap();
        let sim_ms = (clock.now_ns() - t_sim0) as f64 / 1e6;
        rows.push(vec![
            writes_since_ckpt.to_string(),
            ckpts_before.to_string(),
            f(sim_ms, 1),
            rec.capacity_pages().to_string(),
        ]);
    }
    render_table(
        "FTL recovery cost vs. distance from the last checkpoint (256 MB device)",
        &["writes since ckpt", "ckpts taken", "recovery sim ms", "pages"],
        &rows,
    ) + "\nExpectation: replay grows with the un-checkpointed delta volume, bounded\n\
     by the log-ring capacity (the FTL checkpoints before the ring fills).\n"
}

fn replay(pattern: AccessPattern, label: &str, ops: u64) -> Vec<String> {
    let cfg = FtlConfig::for_capacity(64 << 20, 0.12);
    let mut dev = Ftl::new(cfg);
    let logical = dev.capacity_pages();
    let img = vec![0x99u8; dev.page_size()];
    // Pre-fill 85 % so GC is under pressure from the start.
    for i in 0..logical * 85 / 100 {
        dev.write(Lpn(i), &img).unwrap();
    }
    dev.flush().unwrap();
    let s0 = dev.stats();
    let t0 = dev.clock().now_ns();

    let tcfg = TraceConfig {
        pattern,
        logical_pages: logical * 85 / 100,
        ops,
        write_fraction: 0.7,
        trim_every: 0,
        flush_every: 64,
        seed: 17,
    };
    let mut buf = vec![0u8; dev.page_size()];
    for op in TraceGen::new(tcfg) {
        match op {
            TraceOp::Write { lpn } => dev.write(Lpn(lpn), &img).unwrap(),
            TraceOp::Read { lpn } => dev.read(Lpn(lpn), &mut buf).unwrap(),
            TraceOp::Trim { lpn, len } => dev.trim(Lpn(lpn), len).unwrap(),
            TraceOp::Share { dest, src, len } => {
                dev.share(&share_core::SharePair::range(Lpn(dest), Lpn(src), len)).unwrap()
            }
            TraceOp::Flush => dev.flush().unwrap(),
        }
    }
    let d = dev.stats().delta_since(&s0);
    let dt = (dev.clock().now_ns() - t0) as f64 / 1e9;
    let wear = dev.wear_stats();
    vec![
        label.to_string(),
        d.host_writes.to_string(),
        f(d.waf(), 3),
        d.gc_events.to_string(),
        d.copyback_pages.to_string(),
        f(dt, 2),
        format!("{}..{}", wear.min_erases, wear.max_erases),
    ]
}

/// **Trace replay** — drive the FTL with block-level traces, the way FTL
/// papers evaluate: WAF, GC behaviour and wear across access patterns.
///
/// Patterns: sequential (FTL heaven), uniform, Zipfian (hot set), and a
/// 70/30 mixed stream. All at 85 % logical fill so garbage collection
/// works for a living.
pub(crate) fn trace_replay(_: &Records) -> String {
    let ops = 200_000;
    let rows = vec![
        replay(AccessPattern::Sequential, "sequential", ops),
        replay(AccessPattern::Uniform, "uniform", ops),
        replay(AccessPattern::Zipfian { theta: 0.99 }, "zipfian(.99)", ops),
        replay(AccessPattern::Mixed { seq_fraction: 0.7 }, "mixed 70/30", ops),
    ];
    render_table(
        &format!("Block-trace replay on the SHARE FTL ({ops} ops, 85% fill, 12% OP)"),
        &["pattern", "writes", "WAF", "GC events", "copybacks", "sim s", "wear"],
        &rows,
    ) + "\nReading: sequential overwrites leave whole-dead blocks (WAF near 1);\n\
     random churn pays a heavy copyback tax. Note Zipfian slightly *exceeding*\n\
     uniform: with a single write point, hot-head pages share blocks with a\n\
     cold tail that gets copied over and over — the classic argument for\n\
     hot/cold data separation in FTL design.\n"
}
