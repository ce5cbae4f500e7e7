//! Multi-channel device bench — a small, purely write-heavy device-level
//! scenario that must scale with NAND channels.
//!
//! Sweeps channels in {1, 2, 4, 8}: each run streams batched writes (then a
//! batched read-back) through the FTL and measures simulated time. Sizes
//! are fixed (not scaled by `SHARE_BENCH_SCALE`); the report is gated
//! byte for byte by `results/bench_channels.txt`.

use nand_sim::NandTiming;
use share_bench::{f, print_table};
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn};

/// Pages written per run (in batches of `BATCH`).
const TOTAL_PAGES: u64 = 4096;
const BATCH: usize = 256;
const PAGE: usize = 4096;

struct RunOut {
    write_mb_s: f64,
    read_mb_s: f64,
}

fn run(channels: u32) -> RunOut {
    let cfg = FtlConfig::for_capacity_with(64 << 20, 0.25, PAGE, 128, NandTiming::default())
        .with_parallelism(channels, 1);
    let mut dev = Ftl::new(cfg);
    let clock = dev.clock().clone();
    let t0 = clock.now_ns();

    let mut buf = vec![0u8; PAGE * BATCH];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = (i * 31 + channels as usize) as u8;
    }
    for base in (0..TOTAL_PAGES).step_by(BATCH) {
        let pages: Vec<(Lpn, &[u8])> = (0..BATCH as u64)
            .map(|i| (Lpn(base + i), &buf[i as usize * PAGE..(i as usize + 1) * PAGE]))
            .collect();
        dev.write_batch(&pages).expect("write_batch");
    }
    let t_write = clock.now_ns();

    let mut rbuf = vec![0u8; PAGE * BATCH];
    for base in (0..TOTAL_PAGES).step_by(BATCH) {
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

    let bytes = TOTAL_PAGES as f64 * PAGE as f64;
    RunOut {
        write_mb_s: bytes / (1 << 20) as f64 / ((t_write - t0) as f64 / 1e9),
        read_mb_s: bytes / (1 << 20) as f64 / ((t_read - t_write) as f64 / 1e9),
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut write1 = 0.0;
    for channels in [1u32, 2, 4, 8] {
        let r = run(channels);
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
    print_table(
        "Channel smoke: batched 16 MiB write + read-back vs NAND channels",
        &["channels", "write MB/s", "read MB/s", "vs 1ch"],
        &rows,
    );
}
