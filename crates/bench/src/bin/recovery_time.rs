//! **Recovery-time bench** — cost of mounting the FTL after a crash.
//!
//! §4.2.2 balances "update performance and recovery overhead": frequent
//! checkpoints cost meta writes at run time, rare ones lengthen the delta
//! replay at mount. This bench crashes a device at increasing distances
//! from its last checkpoint and reports the recovery work.

use share_bench::{f, print_table};
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn};

fn main() {
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
    print_table(
        "FTL recovery cost vs. distance from the last checkpoint (256 MB device)",
        &["writes since ckpt", "ckpts taken", "recovery sim ms", "pages"],
        &rows,
    );
    println!("\nExpectation: replay grows with the un-checkpointed delta volume, bounded");
    println!("by the log-ring capacity (the FTL checkpoints before the ring fills).");
}
