//! The Couchbase artifacts: Figures 7–8 and Table 2.

use super::{channel_rows, Records, Run, CHANNELS};
use crate::{f, mb, render_table, YcsbRun};
use mini_couch::{CompactionReport, CouchMode};
use share_workloads::YcsbWorkload;

const BATCHES: [usize; 5] = [1, 4, 16, 64, 256];
const MODES: [CouchMode; 2] = [CouchMode::Original, CouchMode::Share];

/// The paper's YCSB run: 10 000 one-block documents and operations.
fn batch_run(workload: YcsbWorkload, batch_size: usize, mode: CouchMode) -> YcsbRun {
    YcsbRun { mode, workload, batch_size, ..Default::default() }
}

/// Figure 8's channel sweep: SHARE, batch 64, 4-block documents, 16 clients.
fn channel_run(channels: u32) -> YcsbRun {
    YcsbRun {
        record_size: 4 * 4056,
        channels,
        connections: 16,
        ..batch_run(YcsbWorkload::A, 64, CouchMode::Share)
    }
}

fn batch_runs(workload: YcsbWorkload) -> impl Iterator<Item = Run> {
    BATCHES.into_iter().flat_map(move |b| MODES.map(|m| Run::Ycsb(batch_run(workload, b, m))))
}

/// A row per batch size: both modes' ops/s and written MB, and the ratios.
fn batch_rows(rec: &Records, workload: YcsbWorkload) -> Vec<Vec<String>> {
    BATCHES
        .into_iter()
        .map(|batch| {
            let [orig, share] = MODES.map(|m| rec.ycsb(batch_run(workload, batch, m)));
            let [ow, sw] = [orig, share].map(|r| r.device.host_write_bytes);
            vec![
                batch.to_string(),
                f(orig.ops_per_sec, 0),
                f(share.ops_per_sec, 0),
                format!("{}x", f(share.ops_per_sec / orig.ops_per_sec, 2)),
                mb(ow),
                mb(sw),
                format!("{}x", f(ow as f64 / sw as f64, 2)),
            ]
        })
        .collect()
}

pub(crate) fn fig7_runs() -> Vec<Run> {
    batch_runs(YcsbWorkload::F).collect()
}

/// **Figure 7** — YCSB workload-F on Couchbase: (a) throughput and
/// (b) written data vs batch size, original vs SHARE.
///
/// Paper's shape: SHARE wins 3.45x at batch 1 shrinking to 1.96x at 256;
/// written-data gap narrows from 7.86x to 1.64x while the SHARE line stays
/// flat (no wandering tree).
pub(crate) fn fig7(rec: &Records) -> String {
    render_table(
        "Figure 7: YCSB workload-F on Couchbase (ops/s and written MB vs batch size)",
        &["batch", "Orig OPS", "SHARE OPS", "speedup", "Orig MB", "SHARE MB", "write ratio"],
        &batch_rows(rec, YcsbWorkload::F),
    ) + "\nPaper shape: speedup 3.45x (batch 1) -> 1.96x (batch 256);\n\
     write ratio 7.86x -> 1.64x; SHARE written volume ~flat across batches.\n"
}

pub(crate) fn fig8_runs() -> Vec<Run> {
    batch_runs(YcsbWorkload::A).chain(CHANNELS.map(|c| Run::Ycsb(channel_run(c)))).collect()
}

/// **Figure 8** — YCSB workload-A (50 % read / 50 % update) on Couchbase:
/// throughput vs batch size, original vs SHARE.
///
/// Paper's shape: SHARE wins 2.23x at batch 1 shrinking to 1.61x at 256 —
/// smaller gains than workload-F because half the ops are reads.
pub(crate) fn fig8(rec: &Records) -> String {
    // Figure 8 prints no write-ratio column.
    let mut rows = batch_rows(rec, YcsbWorkload::A);
    rows.iter_mut().for_each(|row| row.truncate(6));
    let out = render_table(
        "Figure 8: YCSB workload-A on Couchbase (ops/s vs batch size)",
        &["batch", "Orig OPS", "SHARE OPS", "speedup", "Orig MB", "SHARE MB"],
        &rows,
    );

    // ---- NAND channel sweep at batch 64, SHARE mode ------------------------
    // Multi-block documents (4 x 4 KiB) and 16 concurrent connections:
    // every round issues its reads through `get_many` and its writes
    // through `save_many`, so queued commands from independent
    // connections overlap across channels.
    let runs = CHANNELS.map(|c| rec.ycsb(channel_run(c)));
    let rows = channel_rows(runs.map(|r| (r.ops_per_sec, r.elapsed_secs)), 0);
    out + &render_table(
        "Figure 8 (channels): YCSB-A ops/s vs NAND channels (SHARE, batch 64)",
        &["channels", "OPS", "sim secs", "vs 1ch"],
        &rows,
    ) + "\nPaper shape: speedup 2.23x (batch 1) -> 1.61x (batch 256).\n"
}

/// Table 2's database: 20 000 documents aged by three full update rounds.
const TABLE2_DOCS: u64 = 20_000;

pub(crate) fn table2_runs() -> Vec<Run> {
    MODES.map(|m| Run::Compaction(m, TABLE2_DOCS, 3)).into()
}

/// **Table 2** — effect of SHARE on Couchbase compaction: elapsed time and
/// written bytes, original (copy everything) vs SHARE (zero-copy remap).
///
/// Paper: 277.52 s / 1126.4 MB original vs 88.38 s / 150.6 MB SHARE —
/// 3.1x faster, 7.5x less written. The SHARE run still *reads* every
/// document's header block, which is why time does not shrink as much as
/// the written volume.
pub(crate) fn table2(rec: &Records) -> String {
    let [orig, share] = MODES.map(|m| rec.compaction(m, TABLE2_DOCS, 3));
    let ratio = |a: u64, b: u64| format!("{}x", f(a as f64 / b as f64, 2));
    let row = |mode: &str, r: &CompactionReport| {
        let secs = f(r.elapsed_ns as f64 / 1e9, 2);
        vec![mode.into(), secs, mb(r.bytes_written), mb(r.bytes_read), r.docs_moved.to_string()]
    };
    let rows = [
        row("Original", orig),
        row("SHARE", share),
        vec![
            "ratio".into(),
            ratio(orig.elapsed_ns, share.elapsed_ns),
            ratio(orig.bytes_written, share.bytes_written),
            ratio(orig.bytes_read, share.bytes_read),
            String::new(),
        ],
    ];
    assert!(share.zero_copy && !orig.zero_copy);
    render_table(
        "Table 2: effect of SHARE on compaction",
        &["mode", "elapsed (s)", "written MB", "read MB", "docs"],
        &rows,
    ) + "\nPaper: elapsed 277.52 -> 88.38 s (3.1x); written 1126.4 -> 150.6 MB (7.5x).\n\
     Shape: large write reduction; smaller time gain (doc headers are still read).\n"
}
