//! Two micro-probes of the layers the workload spans cannot separate on the
//! wall clock: share-vfs (between the engine and the device, no boundary to
//! wrap from outside) and nand-sim (inside the FTL).
//!
//! Each probe drives the layer directly through its public functions and
//! reports host ns per page, so `wall_share_est` figures can be formed from
//! the workload's counts.

use crate::timed::{BenchDevice, TimedDevice};
use crate::trace::{Probe, WallLayer};
use nand_sim::{BlockId, NandArray, NandGeometry, NandTiming, Ppn, SimClock};
use share_core::{Ftl, FtlConfig};
use share_vfs::{Vfs, VfsOptions};
use std::hint::black_box;
use std::time::Instant;

/// Host ns one page costs inside share-vfs itself: wall time of
/// `write_pages` / `read_pages` / `fsync` / `ioctl_share` on a
/// `Vfs<TimedDevice<Ftl>>`, minus the wall time inside the device calls.
pub fn vfs_wall_self_ns_per_page(channels: u32) -> f64 {
    const BATCH: u64 = 16;
    const ROUNDS: u64 = 400;
    let fcfg = FtlConfig::for_capacity_with(64 << 20, 0.3, 4096, 128, NandTiming::default())
        .with_parallelism(channels, 1);
    let probe = Probe::on();
    let mut fs = Vfs::format(
        TimedDevice::wrap(Ftl::new(fcfg), probe.clone()),
        VfsOptions::default(),
    )
    .expect("format probe fs");
    let data = fs.create("data").expect("create");
    let journal = fs.create("journal").expect("create");
    fs.fallocate(data, 2048).expect("fallocate");
    fs.fallocate(journal, BATCH).expect("fallocate");
    let page = vec![0xA5u8; 4096];
    let mut bufs = vec![vec![0u8; 4096]; BATCH as usize];
    probe.take();
    let mut pages = 0u64;
    probe.span(WallLayer::Engine, "vfs_probe", || {
        for r in 0..ROUNDS {
            let base = (r * BATCH) % 2048;
            let batch: Vec<(u64, &[u8])> = (0..BATCH).map(|i| (i, page.as_slice())).collect();
            fs.write_pages(journal, &batch).expect("write_pages");
            fs.fsync(journal).expect("fsync");
            fs.ioctl_share(data, base, journal, 0, BATCH)
                .expect("ioctl_share");
            let mut reqs: Vec<(u64, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (base + i as u64, b.as_mut_slice()))
                .collect();
            fs.read_pages(data, &mut reqs).expect("read_pages");
            pages += 3 * BATCH;
        }
    });
    black_box(&bufs);
    let t = probe.take().expect("probe is on");
    let total = t.layer_wall_ns(WallLayer::Engine);
    let device = t.layer_wall_ns(WallLayer::Ftl);
    total.saturating_sub(device) as f64 / pages as f64
}

/// Host ns per NAND operation on a bare array of the workload's geometry.
#[derive(Debug, Clone, Copy)]
pub struct NandProbe {
    pub program_ns: f64,
    pub read_ns: f64,
    pub erase_ns: f64,
}

pub fn nand_wall_ns(channels: u32) -> NandProbe {
    const BLOCKS: u32 = 256;
    const TIMED_PASSES: u32 = 2;
    let geo = NandGeometry::new(4096, 128, BLOCKS).with_parallelism(channels, 1);
    let mut nand = NandArray::with_timing(geo, NandTiming::default(), SimClock::new());
    let page = vec![0x5Au8; 4096];
    let mut buf = vec![0u8; 4096];
    let pages = geo.total_pages();
    // Program, read and erase the whole array; host ns of each phase.
    let mut pass = || {
        let t = Instant::now();
        for ppn in 0..pages {
            nand.program(Ppn(ppn), black_box(&page)).expect("program");
        }
        let program = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for ppn in 0..pages {
            nand.read(Ppn(ppn), &mut buf).expect("read");
            black_box(&buf);
        }
        let read = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        for b in 0..BLOCKS {
            nand.erase(BlockId(b)).expect("erase");
        }
        (program, read, t.elapsed().as_nanos() as f64)
    };
    // An untimed pass faults the page store in: a workload at steady state
    // programs into heap memory that an erase freed before.
    pass();
    let (mut program, mut read, mut erase) = (0.0, 0.0, 0.0);
    for _ in 0..TIMED_PASSES {
        let (p, r, e) = pass();
        program += p;
        read += r;
        erase += e;
    }
    let n = (TIMED_PASSES * pages) as f64;
    NandProbe {
        program_ns: program / n,
        read_ns: read / n,
        erase_ns: erase / (TIMED_PASSES * BLOCKS) as f64,
    }
}
