//! Flight-recorder acceptance: the recorder reads a device from outside,
//! ticked after every host command.
//!
//! 1. **Bit-identity off-path**: ticking a recorder must not change a
//!    single simulated outcome — same clock, same counters, same
//!    serialized flash image — because it only *reads* the device.
//! 2. **Exact-sum**: at any moment, the evicted + retained + partial-tail
//!    epoch deltas reproduce the cumulative [`DeviceStats`] exactly, and
//!    the deltas sealed between two observation points sum to precisely
//!    `DeviceStats::delta_since` of those points — no drift, ever, even
//!    with more epochs sealed than the recorder retains.
//! 3. **Windows in the right bucket**: each epoch's read and write
//!    percentiles sit in the log2 bucket of the exact nearest-rank latency
//!    of the commands that epoch holds.

use nand_sim::NandTiming;
use share_core::telemetry::hist::bucket_of;
use share_core::telemetry::percentile_sorted;
use share_core::{BlockDevice, FlightRecorder, Ftl, FtlConfig, Lpn, RETAINED_EPOCHS};

const PAGES: u64 = 1024;
const PAGE: usize = 4096;
const EPOCH_NS: u64 = 50_000_000;

fn gc_heavy_cfg() -> FtlConfig {
    // 12 % over-provisioning on realistic timing: victims always carry
    // live pages, so GC copyback, log flushes, and checkpoints all run
    // while epochs seal.
    FtlConfig::for_capacity_with(PAGES * PAGE as u64, 0.12, PAGE, 32, NandTiming::default())
}

/// Deterministic GC-heavy storm (mirrors the golden driver of
/// `gc_pipeline.rs`), running `tick` after every command.
fn drive(ftl: &mut Ftl, rounds: u64, mut tick: impl FnMut(&Ftl)) {
    for round in 0..rounds {
        for i in 0..PAGES {
            let lpn = (i * 173 + round * 311) % PAGES;
            if round % (1 + lpn % 4) == 0 {
                ftl.write(Lpn(lpn), &[((round * 67 + lpn * 31) % 255 + 1) as u8; PAGE]).unwrap();
                tick(ftl);
            }
        }
        if round % 3 == 2 {
            ftl.trim(Lpn((round * 7) % PAGES), 2).unwrap();
            tick(ftl);
        }
        ftl.flush().unwrap();
        tick(ftl);
    }
}

fn image_bytes(ftl: Ftl) -> Vec<u8> {
    let mut bytes = Vec::new();
    ftl.into_nand().save_image(&mut bytes).expect("image serializes");
    bytes
}

#[test]
fn monitored_run_is_bit_identical_to_unmonitored() {
    let mut plain = Ftl::new(gc_heavy_cfg());
    let mut monitored = Ftl::new(gc_heavy_cfg());
    let mut rec = FlightRecorder::new(EPOCH_NS, 0);
    drive(&mut plain, 6, |_| {});
    drive(&mut monitored, 6, |d| rec.tick(d));

    // The sampler must have actually run...
    let snap = rec.snapshot(&monitored);
    assert!(snap.sealed > 10, "only {} epochs sealed — sampler idle?", snap.sealed);
    assert!(monitored.monitor_snapshot().is_none(), "the device keeps no series of its own");

    // ...while changing nothing simulated: clock, counters, and the
    // entire serialized flash image (mapping meta included) match bit
    // for bit.
    assert_eq!(plain.clock().now_ns(), monitored.clock().now_ns(), "clock drifted");
    assert_eq!(plain.stats(), monitored.stats(), "counters drifted");
    plain.check_invariants();
    monitored.check_invariants();
    assert_eq!(image_bytes(plain), image_bytes(monitored), "flash image drifted");
}

#[test]
fn epoch_deltas_sum_exactly_to_cumulative_stats() {
    // A 100 µs epoch under a storm of ~0.8 ms writes seals at almost every
    // command — more epochs than the recorder retains, so eviction and the
    // fold-in accumulator are exercised for real.
    let mut ftl = Ftl::new(gc_heavy_cfg());
    let mut rec = FlightRecorder::new(100_000, 0);

    let mut last_stats = ftl.stats();
    let mut last_sealed_sum = ftl.stats();
    for round in 0..3 {
        drive(&mut ftl, 3, |d| rec.tick(d));
        let cum = ftl.stats();
        let snap = rec.snapshot(&ftl);

        // Exact-sum invariant at this instant, eviction and all.
        assert_eq!(snap.total_stats(), cum, "round {round}: deltas drifted from cumulative");

        // The sealed+tail deltas accrued since the previous observation
        // equal delta_since of the two cumulative readings exactly.
        let mut accrued = last_sealed_sum; // evicted+retained+tail at last look
        accrued.accumulate(&cum.delta_since(&last_stats));
        assert_eq!(snap.total_stats(), accrued, "round {round}: window mismatch");
        last_stats = cum;
        last_sealed_sum = snap.total_stats();
    }

    let snap = rec.snapshot(&ftl);
    assert!(snap.dropped > 0, "nothing evicted — eviction path untested");
    assert_eq!(snap.epochs.len(), RETAINED_EPOCHS, "retention should be full");
    // Epochs are contiguous: each starts where its predecessor ended.
    for w in snap.epochs.windows(2) {
        assert_eq!(w[0].end_ns, w[1].start_ns, "epoch gap");
        assert_eq!(w[0].epoch + 1, w[1].epoch, "epoch index gap");
    }
    assert_eq!(snap.epochs.last().unwrap().end_ns, snap.tail_start_ns);
}

/// The free-block gauge each epoch seals, as recorded: greedy GC on this
/// config gives up about two blocks an epoch over the first two rounds.
#[test]
fn epoch_gauges_match_the_recorded_free_block_series() {
    let mut ftl = Ftl::new(gc_heavy_cfg());
    let mut rec = FlightRecorder::new(EPOCH_NS, 0);
    drive(&mut ftl, 2, |d| rec.tick(d));

    let mon = rec.snapshot(&ftl);
    // (epoch, seal time, free blocks).
    let got: Vec<(u64, u64, u64)> =
        mon.epochs.iter().map(|e| (e.epoch, e.end_ns, e.free_blocks)).collect();
    let recorded = [
        (0, 50_800_000, 44), (1, 100_576_000, 42), (2, 150_352_000, 40), (3, 200_128_000, 38),
        (4, 250_720_000, 36), (5, 300_496_000, 35), (6, 350_272_000, 33), (7, 400_048_000, 31),
        (8, 450_640_000, 29), (9, 500_416_000, 27), (10, 550_192_000, 25), (11, 600_784_000, 23),
        (12, 650_560_000, 21), (13, 700_336_000, 19), (14, 750_112_000, 17), (15, 800_704_000, 15),
        (16, 850_480_000, 14), (17, 900_276_000, 12), (18, 950_052_000, 10), (19, 1_000_644_000, 8),
        (20, 1_050_420_000, 6),
    ];
    assert_eq!(got, recorded);
}

/// Every sealed epoch's read and write p50/p99 lie in the log2 bucket of
/// the exact nearest-rank latency of that epoch's own commands. The
/// window is a bucket-wise difference, so the clamp to its extremes may
/// move a printed value inside its bucket; the bucket must not move.
#[test]
fn epoch_windows_land_in_the_exact_latency_buckets() {
    let mut ftl = Ftl::new(gc_heavy_cfg());
    let mut rec = FlightRecorder::new(2_000_000, 0);
    let page = [0x5Au8; PAGE];
    let mut buf = vec![0u8; PAGE];
    let mut bufs = vec![0u8; 4 * PAGE];
    // (is a read, completion time, latency) of every host read and write.
    let mut done: Vec<(bool, u64, u64)> = Vec::new();
    for i in 0..3_000u64 {
        // The first 64 writes fill the pages the reads read.
        let lpn = if i < 64 { i } else { (i * 173) % PAGES };
        let t0 = ftl.clock().now_ns();
        let read = i >= 64 && i % 3 == 0;
        if read && i % 4 == 0 {
            let mut reqs: Vec<(Lpn, &mut [u8])> =
                bufs.chunks_mut(PAGE).enumerate().map(|(k, b)| (Lpn(k as u64 * 5), b)).collect();
            ftl.read_batch(&mut reqs).unwrap();
        } else if read {
            ftl.read(Lpn(lpn % 64), &mut buf).unwrap();
        } else if i % 7 == 0 {
            let pages: Vec<(Lpn, &[u8])> = (0..4).map(|k| (Lpn((lpn + k) % PAGES), &page[..])).collect();
            ftl.write_batch(&pages).unwrap();
        } else {
            ftl.write(Lpn(lpn), &page).unwrap();
        }
        let end = ftl.clock().now_ns();
        assert!(end > t0, "a zero-length command cannot be placed by its end time");
        done.push((read, end, end - t0));
        rec.tick(&ftl);
        if i % 50 == 49 {
            ftl.flush().unwrap();
            rec.tick(&ftl);
        }
    }

    let snap = rec.snapshot(&ftl);
    assert!(snap.sealed > 100, "only {} epochs sealed", snap.sealed);
    // A seal follows the command that ended at its `end_ns`, and every
    // command takes time, so an epoch holds the commands ending in
    // `(start_ns, end_ns]`.
    let mut checked = [0usize; 2];
    for e in &snap.epochs {
        for (is_read, hist) in [(true, &e.read_hist), (false, &e.write_hist)] {
            let mut exact: Vec<u64> = done
                .iter()
                .filter(|&&(r, end, _)| r == is_read && end > e.start_ns && end <= e.end_ns)
                .map(|&(_, _, ns)| ns)
                .collect();
            exact.sort_unstable();
            assert_eq!(hist.count, exact.len() as u64, "epoch {}: window count", e.epoch);
            if exact.is_empty() {
                continue;
            }
            for (q, p) in [(0.50, 50.0), (0.99, 99.0)] {
                let (est, want) = (hist.quantile(q), percentile_sorted(&exact, p));
                assert_eq!(
                    bucket_of(est),
                    bucket_of(want),
                    "epoch {} {} p{p}: window {est} ns, exact {want} ns",
                    e.epoch,
                    if is_read { "read" } else { "write" }
                );
            }
            checked[is_read as usize] += 1;
        }
    }
    assert!(checked[0] > 50 && checked[1] > 50, "windows checked (write, read): {checked:?}");
}
