//! Queue-depth device bench — latency-under-load vs submission-queue
//! depth on a fixed multi-channel device.
//!
//! Sweeps queue depth in {1, 4, 16}: each run streams queued single-page
//! writes, then queued read-backs, then a mixed phase interleaving reads
//! and rewrites, through the NVMe-style submission path with
//! reap-on-full backpressure, and reports the p50/p99 submit→complete
//! latency from the device telemetry histograms. `dev bound` is `yes`
//! when the observed `max_inflight` exceeded the device's
//! `channels * ways` service slots, i.e. commands were queueing behind
//! busy NAND units rather than the submission window (the queue-side
//! analogue of the channel sweep's `(sat)` mark). Deeper queues trade
//! per-command latency for throughput: if write p99 does not grow with
//! depth, the queue is not overlapping commands. Sizes are fixed (not
//! scaled by `SHARE_BENCH_SCALE`); the report is gated byte for byte by
//! `results/bench_qd.txt`.

use nand_sim::NandTiming;
use share_bench::{f, print_table};
use share_core::{
    BlockDevice, Ftl, FtlConfig, FtlError, Lpn, OpClass, QueuedCmd, Snapshot, TelemetryConfig,
};

/// Pages written (and read back) per run.
const TOTAL_PAGES: u64 = 2048;
const PAGE: usize = 4096;
const CHANNELS: u32 = 4;
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
        .with_queue_depth(qd)
        .with_telemetry(TelemetryConfig {
            histograms: true,
            ring_capacity: 0,
            ..TelemetryConfig::default()
        });
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
        let page = c.result.expect("queued read").into_page().expect("read payload");
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

    let snap: Snapshot = dev.telemetry_snapshot().expect("histograms enabled");
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

fn main() {
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
    print_table(
        "QD smoke: queued 8 MiB write + read-back + mixed vs queue depth (4 channels)",
        &["qd", "write MB/s", "mixed MB/s", "w p50 us", "w p99 us", "r p99 us", "max inflight", "dev bound"],
        &rows,
    );
}
