//! **Figure 8** — YCSB workload-A (50 % read / 50 % update) on Couchbase:
//! throughput vs batch size, original vs SHARE.
//!
//! Paper's shape: SHARE wins 2.23x at batch 1 shrinking to 1.61x at 256 —
//! smaller gains than workload-F because half the ops are reads.

use mini_couch::CouchMode;
use share_bench::{f, mb, print_table, run_ycsb, scaled, YcsbRun};
use share_workloads::YcsbWorkload;

fn main() {
    let records = scaled(10_000, 1_000);
    let ops = scaled(10_000, 1_000);
    let mut rows = Vec::new();
    for batch in [1usize, 4, 16, 64, 256] {
        let orig = run_ycsb(&YcsbRun {
            mode: CouchMode::Original,
            workload: YcsbWorkload::A,
            batch_size: batch,
            records,
            ops,
            ..Default::default()
        });
        let share = run_ycsb(&YcsbRun {
            mode: CouchMode::Share,
            workload: YcsbWorkload::A,
            batch_size: batch,
            records,
            ops,
            ..Default::default()
        });
        rows.push(vec![
            batch.to_string(),
            f(orig.ops_per_sec, 0),
            f(share.ops_per_sec, 0),
            format!("{}x", f(share.ops_per_sec / orig.ops_per_sec, 2)),
            mb(orig.written_bytes),
            mb(share.written_bytes),
        ]);
    }
    print_table(
        "Figure 8: YCSB workload-A on Couchbase (ops/s vs batch size)",
        &["batch", "Orig OPS", "SHARE OPS", "speedup", "Orig MB", "SHARE MB"],
        &rows,
    );

    // ---- NAND channel sweep at batch 64, SHARE mode ------------------------
    // Multi-block documents (4 x 4 KiB) and 16 concurrent connections:
    // every round issues its reads through `get_many` and its writes
    // through `save_many`, so queued commands from independent
    // connections overlap across channels. A run whose elapsed time
    // exactly matches the previous channel count is marked `(sat)`
    // instead of silently printing an indistinguishable duplicate row.
    const CONNECTIONS: usize = 16;
    let mut rows = Vec::new();
    let mut ops1 = 0.0;
    let mut prev_elapsed = f64::NAN;
    for channels in [1u32, 2, 4, 8] {
        let r = run_ycsb(&YcsbRun {
            mode: CouchMode::Share,
            workload: YcsbWorkload::A,
            batch_size: 64,
            records,
            record_size: 4 * 4056,
            ops,
            channels,
            connections: CONNECTIONS,
            ..Default::default()
        });
        if channels == 1 {
            ops1 = r.ops_per_sec;
        }
        let saturated = r.elapsed_secs == prev_elapsed;
        prev_elapsed = r.elapsed_secs;
        rows.push(vec![
            channels.to_string(),
            f(r.ops_per_sec, 0),
            f(r.elapsed_secs, 2),
            format!("{}x{}", f(r.ops_per_sec / ops1, 2), if saturated { " (sat)" } else { "" }),
        ]);
    }
    print_table(
        "Figure 8 (channels): YCSB-A ops/s vs NAND channels (SHARE, batch 64)",
        &["channels", "OPS", "sim secs", "vs 1ch"],
        &rows,
    );
    println!("\nPaper shape: speedup 2.23x (batch 1) -> 1.61x (batch 256).");
}
