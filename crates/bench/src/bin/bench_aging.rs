//! Aging bench — multi-streamed placement on vs off under a mixed
//! database-style workload.
//!
//! Four host streams age a 4-channel device: a wide `data` stream that is
//! written once and lightly rewritten, hot `wal` and `doublewrite`
//! streams that rewrite small windows round after round, and a cold
//! `compact` stream that periodically rewrites a settled region. The same
//! deterministic op sequence runs twice — placement off (everything in
//! one write point) and placement on (per-lifetime-class lanes) — and the
//! per-stream write-amplification ledgers of both runs are reported side
//! by side. The last line sums the GC copyback blamed on the short-lived
//! journal streams (`wal` + `doublewrite`) and gives each run's GC event
//! count: both runs must have aged the device for the comparison to mean
//! anything. The report is gated byte for byte by
//! `results/bench_aging.txt`.

use nand_sim::NandTiming;
use share_bench::{f, print_table};
use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig, Lpn, Snapshot};
use share_rng::{Rng, StdRng};

const PAGE: usize = 4096;
const CHANNELS: u32 = 4;
/// Logical pages: 64 MiB of 4 KiB pages. Large enough that the extra
/// open blocks and free-block watermark of 3 classes x 4 channels worth
/// of lanes stay small next to the spare area, so the two runs see
/// comparable effective over-provisioning.
const LOGICAL_PAGES: u64 = 16384;

/// LPN layout: wide data region, small hot journal windows, cold tail.
const DATA_PAGES: u64 = 16064;
const WAL_BASE: u64 = 16064;
const WAL_PAGES: u64 = 64;
const DW_BASE: u64 = 16128;
const DW_PAGES: u64 = 32;
const COLD_BASE: u64 = 16160;
const COLD_PAGES: u64 = LOGICAL_PAGES - COLD_BASE;

const ROUNDS: u64 = 80;
const SEED: u64 = 4242;

struct RunOut {
    device: DeviceStats,
    snap: Snapshot,
}

fn write_stream(dev: &mut Ftl, stream: u32, lpn: u64, fill: u8) {
    dev.set_stream(stream);
    dev.write(Lpn(lpn), &vec![fill; PAGE]).expect("aging write");
}

/// One full aging run; `placement` toggles the per-class lanes, nothing
/// else differs between the two runs.
fn run(placement: bool) -> RunOut {
    let cfg = FtlConfig::for_capacity_with(
        LOGICAL_PAGES * PAGE as u64,
        0.25,
        PAGE,
        64,
        NandTiming::zero(),
    )
    .with_parallelism(CHANNELS, 1)
    .with_placement(placement);
    let mut dev = Ftl::new(cfg);
    let data = dev.stream_intern("data");
    let wal = dev.stream_intern("wal");
    let dw = dev.stream_intern("doublewrite");
    let compact = dev.stream_intern("compact");
    let mut rng = StdRng::seed_from_u64(SEED);

    // Fill every region once so the device starts full and aging rounds
    // immediately push GC.
    for lpn in 0..DATA_PAGES {
        write_stream(&mut dev, data, lpn, (lpn % 251 + 1) as u8);
    }
    for lpn in WAL_BASE..DW_BASE {
        write_stream(&mut dev, wal, lpn, 1);
    }
    for lpn in DW_BASE..COLD_BASE {
        write_stream(&mut dev, dw, lpn, 2);
    }
    for lpn in COLD_BASE..LOGICAL_PAGES {
        write_stream(&mut dev, compact, lpn, 3);
    }
    dev.flush().expect("fill flush");

    // Aging rounds: hot journal windows cycle twice per round, the data
    // region sees a trickle of rewrites, the cold region is compacted
    // every tenth round.
    for round in 0..ROUNDS {
        for i in 0..2 * WAL_PAGES {
            write_stream(&mut dev, wal, WAL_BASE + i % WAL_PAGES, (round % 250 + 1) as u8);
        }
        for i in 0..2 * DW_PAGES {
            write_stream(&mut dev, dw, DW_BASE + i % DW_PAGES, (round % 250 + 2) as u8);
        }
        for _ in 0..16 {
            let lpn = rng.random_range(0..DATA_PAGES);
            write_stream(&mut dev, data, lpn, rng.random_range(1..256u32) as u8);
        }
        if round % 10 == 9 {
            for i in 0..128u64 {
                write_stream(&mut dev, compact, COLD_BASE + i % COLD_PAGES, (round % 250 + 3) as u8);
            }
        }
        dev.flush().expect("round flush");
    }

    let snap = dev.telemetry_snapshot().expect("telemetry on");
    RunOut { device: dev.stats(), snap }
}

fn wa_of<'a>(snap: &'a Snapshot, label: &str) -> &'a share_core::telemetry::WaStreamSnapshot {
    snap.wa
        .iter()
        .find(|w| w.label == label)
        .unwrap_or_else(|| panic!("stream {label} missing from WA table"))
}

fn main() {
    let off = run(false);
    let on = run(true);

    let streams = ["data", "wal", "doublewrite", "compact"];
    let rows: Vec<Vec<String>> = streams
        .iter()
        .map(|label| {
            let a = wa_of(&off.snap, label);
            let b = wa_of(&on.snap, label);
            vec![
                label.to_string(),
                a.fg_pages.to_string(),
                a.bg_gc.to_string(),
                b.bg_gc.to_string(),
                a.wa_factor().map(|x| f(x, 3)).unwrap_or_else(|| "-".into()),
                b.wa_factor().map(|x| f(x, 3)).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        "Aging: per-stream GC blame, unified vs multi-streamed placement (4 channels)",
        &["stream", "fg pages", "bg_gc off", "bg_gc on", "WA off", "WA on"],
        &rows,
    );

    let journal_gc = |r: &RunOut| wa_of(&r.snap, "wal").bg_gc + wa_of(&r.snap, "doublewrite").bg_gc;
    println!(
        "\njournal GC blame {} -> {} pages (gc events: {} unified, {} multi-streamed)",
        journal_gc(&off),
        journal_gc(&on),
        off.device.gc_events,
        on.device.gc_events
    );
}
