//! Device-health bench — the flight recorder and wear model watching a
//! 4-channel device age.
//!
//! One deterministic run fills the device, then drives uniform overwrite
//! rounds with the epoch sampler on, so GC churns while the recorder
//! seals per-epoch deltas and the SLO engine evaluates every boundary.
//! The end-of-run health report (wear histogram, skew, remaining life,
//! sealed epochs, alerts by severity) is printed and gated byte for byte
//! by `results/bench_health.txt`: greedy GC over uniform traffic must
//! spread erases evenly (skew near 1) and a healthy aging run fires no
//! critical alert (free-block floor, remaining-life floor). One thing the
//! report cannot show is asserted: the sealed epoch deltas sum exactly to
//! the cumulative device counters (the recorder's standing exactness
//! guarantee, re-checked here on a workload the unit tests don't run).

use nand_sim::NandTiming;
use share_bench::print_table;
use share_core::{
    AlertSeverity, BlockDevice, Ftl, FtlConfig, Lpn, SloConfig, TelemetryConfig,
};
use share_rng::{Rng, StdRng};

const PAGE: usize = 4096;
const CHANNELS: u32 = 4;
/// 16 MiB logical at 20 % over-provisioning: small enough to age in
/// seconds of wall clock, full enough that GC runs from round one.
const LOGICAL_PAGES: u64 = 4096;
const ROUNDS: u64 = 6;
const SEED: u64 = 77;
/// Epoch length of the sampler (simulated). ~14 s of simulated aging at
/// realistic NAND timing seals a few hundred epochs.
const EPOCH_NS: u64 = 50_000_000;
/// Wear-skew SLO rule: max/mean erase count. Greedy GC over uniform
/// overwrites measures ~1.05 on this config; 2.5 leaves room for drift
/// without letting real imbalance (one hot block soaking all erases)
/// pass without an alert.
const SKEW_BOUND: f64 = 2.5;

fn main() {
    let slo = SloConfig {
        free_block_floor: Some(1),
        remaining_life_floor: Some(0.05),
        wear_skew_max: Some(SKEW_BOUND),
        ..SloConfig::default()
    };
    let cfg = FtlConfig::for_capacity_with(
        LOGICAL_PAGES * PAGE as u64,
        0.20,
        PAGE,
        64,
        NandTiming::default(),
    )
    .with_parallelism(CHANNELS, 1)
    .with_telemetry(TelemetryConfig::monitoring(EPOCH_NS))
    .with_slo(slo);
    let mut dev = Ftl::new(cfg);
    let mut rng = StdRng::seed_from_u64(SEED);

    // Fill once, then age with uniform overwrites: every page is equally
    // hot, so a healthy device wears its blocks evenly.
    for lpn in 0..LOGICAL_PAGES {
        dev.write(Lpn(lpn), &vec![(lpn % 251 + 1) as u8; PAGE]).expect("fill write");
    }
    for round in 0..ROUNDS {
        for _ in 0..LOGICAL_PAGES {
            let lpn = rng.random_range(0..LOGICAL_PAGES);
            dev.write(Lpn(lpn), &vec![rng.random_range(1..256u32) as u8; PAGE])
                .expect("aging write");
        }
        dev.flush().expect("round flush");
        let _ = round;
    }

    let stats = dev.stats();
    let report = dev.health_report();
    let mon = dev.monitor_snapshot().expect("recorder on");

    // ---- console view ------------------------------------------------------
    let rows: Vec<Vec<String>> = report
        .wear_hist
        .iter()
        .map(|b| {
            vec![format!("{}..{}", b.lo, b.hi), b.blocks.to_string()]
        })
        .collect();
    print_table("Health: erase-count histogram after aging (4 channels)", &["erases", "blocks"], &rows);
    println!(
        "wear: min {} max {} mean {:.1} skew {:.2}  free {}  life {:.1}%  epochs {}",
        report.wear.min_erases,
        report.wear.max_erases,
        report.wear.mean_erases,
        report.wear_skew,
        report.free_blocks,
        report.remaining_life * 100.0,
        mon.sealed,
    );

    let critical =
        mon.alerts.iter().filter(|a| a.severity == AlertSeverity::Critical).count();
    println!("alerts: {} warning, {critical} critical", mon.alerts.len() - critical);

    assert_eq!(
        mon.total_stats(),
        stats,
        "epoch deltas do not sum to the cumulative device counters"
    );
}
