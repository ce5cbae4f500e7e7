//! Flight-recorder acceptance: the two standing guarantees.
//!
//! 1. **Bit-identity off-path**: turning the epoch sampler on must not
//!    change a single simulated outcome — same clock, same counters, same
//!    serialized flash image — because the recorder only *reads* the
//!    clock and counters at command boundaries.
//! 2. **Exact-sum**: at any moment, the evicted + retained + partial-tail
//!    epoch deltas reproduce the cumulative [`DeviceStats`] exactly, and
//!    the deltas sealed between two observation points sum to precisely
//!    `DeviceStats::delta_since` of those points — no drift, ever, even
//!    with the ring overflowing on a GC-heavy workload.

use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, TelemetryConfig};

const PAGES: u64 = 1024;
const PAGE: usize = 4096;
const EPOCH_NS: u64 = 50_000_000;

fn gc_heavy_cfg() -> FtlConfig {
    // 12 % over-provisioning on realistic timing: victims always carry
    // live pages, so GC copyback, log flushes, and checkpoints all run
    // while epochs seal.
    FtlConfig::for_capacity_with(PAGES * PAGE as u64, 0.12, PAGE, 32, NandTiming::default())
}

/// Deterministic GC-heavy storm (mirrors the golden driver of `gc_pipeline.rs`).
fn drive(ftl: &mut Ftl, rounds: u64) {
    for round in 0..rounds {
        for i in 0..PAGES {
            let lpn = (i * 173 + round * 311) % PAGES;
            if round % (1 + lpn % 4) == 0 {
                ftl.write(Lpn(lpn), &[((round * 67 + lpn * 31) % 255 + 1) as u8; PAGE]).unwrap();
            }
        }
        if round % 3 == 2 {
            ftl.trim(Lpn((round * 7) % PAGES), 2).unwrap();
        }
        ftl.flush().unwrap();
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
    let mut monitored =
        Ftl::new(gc_heavy_cfg().with_telemetry(TelemetryConfig::monitoring(EPOCH_NS)));
    drive(&mut plain, 6);
    drive(&mut monitored, 6);

    // The sampler must have actually run...
    let snap = monitored.monitor_snapshot().expect("recorder is on");
    assert!(snap.sealed > 10, "only {} epochs sealed — sampler idle?", snap.sealed);
    assert!(plain.monitor_snapshot().is_none(), "recorder must be opt-in");

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
    // A 6-epoch ring under a storm that seals dozens: eviction and the
    // fold-in accumulator are exercised for real.
    let telemetry = TelemetryConfig { epoch_ring: 6, ..TelemetryConfig::monitoring(EPOCH_NS) };
    let mut ftl = Ftl::new(gc_heavy_cfg().with_telemetry(telemetry));

    let mut last_stats = ftl.stats();
    let mut last_sealed_sum = ftl.stats(); // zero at creation
    for round in 0..3 {
        drive(&mut ftl, 2);
        let cum = ftl.stats();
        let snap = ftl.monitor_snapshot().expect("recorder is on");

        // Exact-sum invariant at this instant, ring overflow and all.
        assert_eq!(snap.total_stats(), cum, "round {round}: deltas drifted from cumulative");

        // The sealed+tail deltas accrued since the previous observation
        // equal delta_since of the two cumulative readings exactly.
        let mut accrued = last_sealed_sum; // evicted+retained+tail at last look
        accrued.accumulate(&cum.delta_since(&last_stats));
        assert_eq!(snap.total_stats(), accrued, "round {round}: window mismatch");
        last_stats = cum;
        last_sealed_sum = snap.total_stats();
    }

    let snap = ftl.monitor_snapshot().unwrap();
    assert!(snap.dropped > 0, "ring never overflowed — eviction path untested");
    assert_eq!(snap.epochs.len(), 6, "ring should be full");
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
    let mut ftl = Ftl::new(gc_heavy_cfg().with_telemetry(TelemetryConfig::monitoring(EPOCH_NS)));
    drive(&mut ftl, 2);

    let mon = ftl.monitor_snapshot().expect("recorder is on");
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
