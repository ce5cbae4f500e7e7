//! Device-health smoke bench for `scripts/verify.sh` — the flight
//! recorder and wear model watching a 4-channel device age.
//!
//! One deterministic run fills the device, then drives uniform overwrite
//! rounds with the epoch sampler on, so GC churns while the recorder
//! seals per-epoch deltas and the SLO engine evaluates every boundary.
//! The end-of-run health report (wear histogram, skew, remaining life)
//! plus downsampled free-block / GC time series are recorded into
//! `BENCH_share.json` (`health_aging` scenario).
//!
//! The run fails (non-zero exit) unless:
//! * the device actually aged (GC ran, every block pool erased at least
//!   once on average) and the recorder sealed a real epoch series;
//! * the sealed epoch deltas sum exactly to the cumulative device
//!   counters (the recorder's standing exactness guarantee, re-checked
//!   here on a workload the unit tests don't run);
//! * wear skew (max/mean erases) stays under the pinned bound — greedy
//!   GC over uniform traffic must spread erases evenly;
//! * no critical SLO alert fired (free-block floor, remaining-life
//!   floor) during the whole aging run.

use nand_sim::NandTiming;
use share_bench::{count, device_json, f, num, print_table, record_scenario, Json};
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
/// Wear-skew acceptance bar: max/mean erase count after aging. Greedy
/// GC over uniform overwrites measures ~1.4 on this config; 2.5 leaves
/// room for drift without letting real imbalance (one hot block soaking
/// all erases) slip through.
const SKEW_BOUND: f64 = 2.5;
/// Series recorded into BENCH_share.json are downsampled to at most this
/// many points so the baseline file stays reviewable.
const SERIES_CAP: usize = 64;

fn downsample(series: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let step = series.len().div_ceil(SERIES_CAP).max(1);
    series.iter().copied().step_by(step).collect()
}

fn series_json(series: &[(u64, u64)]) -> Json {
    Json::Arr(
        series
            .iter()
            .map(|&(ns, v)| Json::Arr(vec![count(ns), count(v)]))
            .collect(),
    )
}

fn main() {
    let wall = std::time::Instant::now();
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

    // ---- record the scenario ----------------------------------------------
    let free_series = downsample(&mon.free_block_series());
    let gc_series: Vec<(u64, u64)> =
        mon.epochs.iter().map(|e| (e.end_ns, e.stats.gc_events)).collect();
    let copyback_series: Vec<(u64, u64)> =
        mon.epochs.iter().map(|e| (e.end_ns, e.stats.copyback_pages)).collect();
    let path = record_scenario(
        "health_aging",
        Json::obj(vec![
            ("logical_pages", count(LOGICAL_PAGES)),
            ("channels", count(CHANNELS as u64)),
            ("rounds", count(ROUNDS)),
            ("epoch_ms", count(EPOCH_NS / 1_000_000)),
            ("epochs_sealed", count(mon.sealed)),
            ("wall_secs", num(wall.elapsed().as_secs_f64())),
            ("health", report.to_json()),
            ("free_blocks_series", series_json(&free_series)),
            ("gc_events_series", series_json(&downsample(&gc_series))),
            ("copyback_series", series_json(&downsample(&copyback_series))),
            ("alerts", count(mon.alerts.len() as u64)),
            ("device", device_json(&stats)),
        ]),
    )
    .expect("record BENCH_share.json");
    println!("recorded health_aging -> {}", path.display());

    // ---- assertions --------------------------------------------------------
    if stats.gc_events == 0 || report.wear.mean_erases < 1.0 {
        eprintln!(
            "FAIL: device did not age (gc_events {}, mean erases {:.2})",
            stats.gc_events, report.wear.mean_erases
        );
        std::process::exit(1);
    }
    if mon.sealed < 20 {
        eprintln!("FAIL: only {} epochs sealed — sampler barely ran", mon.sealed);
        std::process::exit(1);
    }
    if mon.total_stats() != stats {
        eprintln!("FAIL: epoch deltas do not sum to the cumulative device counters");
        std::process::exit(1);
    }
    if report.wear_skew > SKEW_BOUND {
        eprintln!(
            "FAIL: wear skew {} exceeds the pinned bound {SKEW_BOUND} (max {} / mean {:.1})",
            f(report.wear_skew, 2),
            report.wear.max_erases,
            report.wear.mean_erases
        );
        std::process::exit(1);
    }
    let critical =
        mon.alerts.iter().filter(|a| a.severity == AlertSeverity::Critical).count();
    if critical > 0 {
        for a in mon.alerts.iter().filter(|a| a.severity == AlertSeverity::Critical) {
            eprintln!(
                "  critical {} at epoch {}: {} (threshold {})",
                a.kind.name(),
                a.epoch,
                f(a.value, 2),
                f(a.threshold, 2)
            );
        }
        eprintln!("FAIL: {critical} critical SLO alert(s) during a healthy aging run");
        std::process::exit(1);
    }
    println!(
        "bench_health: OK (skew {} <= {SKEW_BOUND}, {} epochs, {} warning alert(s), 0 critical)",
        f(report.wear_skew, 2),
        mon.sealed,
        mon.alerts.len()
    );
}
