//! Micro-benchmarks of the FTL primitives (in-repo timing harness; see
//! `share_bench::timing`).
//!
//! These measure *implementation* cost (wall-clock per simulated command),
//! not simulated latency — a sanity check that the simulator itself is
//! fast enough to drive the full experiments, and a regression guard on
//! the hot paths (mapping update, share batch, GC-pressured write).

use nand_sim::NandTiming;
use share_bench::timing::Group;
use share_core::{crc32c, BlockDevice, Ftl, FtlConfig, Lpn, SharePair};
use std::hint::black_box;

fn small_dev() -> Ftl {
    let cfg = FtlConfig::for_capacity_with(32 << 20, 0.25, 4096, 128, NandTiming::zero());
    Ftl::new(cfg)
}

fn bench_write(g: &mut Group) {
    g.sample_size(30).throughput_elements(1);
    {
        let mut dev = small_dev();
        let img = vec![0xA5u8; dev.page_size()];
        let cap = dev.capacity_pages();
        let mut i = 0u64;
        g.bench_function("write_4k", || {
            dev.write(Lpn(i % cap), black_box(&img)).unwrap();
            i += 1;
        });
    }
    {
        let mut dev = small_dev();
        let img = vec![0x5Au8; dev.page_size()];
        for i in 0..1024u64 {
            dev.write(Lpn(i), &img).unwrap();
        }
        let mut buf = vec![0u8; dev.page_size()];
        let mut i = 0u64;
        g.bench_function("read_4k_hit", || {
            dev.read(Lpn(i % 1024), &mut buf).unwrap();
            i += 1;
        });
    }
    {
        let mut dev = small_dev();
        let img = vec![1u8; dev.page_size()];
        let cap = dev.capacity_pages();
        let mut i = 0u64;
        g.bench_function("trim", || {
            let l = i % cap;
            dev.write(Lpn(l), &img).unwrap();
            dev.trim(Lpn(l), 1).unwrap();
            i += 1;
        });
    }
}

fn bench_share(g: &mut Group) {
    g.sample_size(20);
    for batch in [1usize, 64, 254] {
        g.throughput_elements(batch as u64);
        g.bench_batched(
            format!("batch_{batch}"),
            || {
                let mut dev = small_dev();
                let img = vec![7u8; dev.page_size()];
                for i in 0..batch as u64 {
                    dev.write(Lpn(4096 + i), &img).unwrap();
                }
                let pairs: Vec<SharePair> =
                    (0..batch as u64).map(|i| SharePair::new(Lpn(i), Lpn(4096 + i))).collect();
                (dev, pairs)
            },
            |(mut dev, pairs)| dev.share(black_box(&pairs)).unwrap(),
        );
    }
}

fn bench_gc_pressure(g: &mut Group) {
    g.sample_size(10).throughput_elements(0);
    g.bench_batched(
        "overwrite_churn_2x",
        || {
            let cfg = FtlConfig::for_capacity_with(8 << 20, 0.15, 4096, 64, NandTiming::zero());
            Ftl::new(cfg)
        },
        |mut dev| {
            let img = vec![3u8; dev.page_size()];
            let cap = dev.capacity_pages();
            for round in 0..2u64 {
                for i in 0..cap {
                    dev.write(Lpn((i * 31 + round) % cap), &img).unwrap();
                }
            }
            black_box(dev.stats().gc_events)
        },
    );
}

/// The checksum every engine page, couch block, redo page, journal record
/// and meta page goes through, on each path of its kernel: a 16 KiB page
/// (four 4 032-byte two-lane blocks and a serial tail), a 4 KiB page body
/// (one such block), 1 KiB (the serial loop alone, as every buffer under
/// 4 032 bytes), and the 40 bytes a redo header checksums (the lanes must
/// not cost small inputs).
fn bench_crc32c(g: &mut Group) {
    g.sample_size(30).throughput_elements(1);
    let page: Vec<u8> = (0..16_384u32).map(|i| (i * 31 + 7) as u8).collect();
    g.bench_function("16k", || {
        black_box(crc32c(black_box(&page)));
    });
    g.bench_function("4k", || {
        black_box(crc32c(black_box(&page[..4096])));
    });
    g.bench_function("1k", || {
        black_box(crc32c(black_box(&page[..1024])));
    });
    g.bench_function("40B", || {
        black_box(crc32c(black_box(&page[..40])));
    });
}

fn main() {
    share_bench::timing::main_with(
        "ftl_ops",
        &mut [
            ("ftl", &mut bench_write),
            ("share", &mut bench_share),
            ("gc", &mut bench_gc_pressure),
            ("crc32c", &mut bench_crc32c),
        ],
    );
}
