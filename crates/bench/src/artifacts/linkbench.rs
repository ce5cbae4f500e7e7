//! The LinkBench artifacts: Figures 5–6, Table 1, the lifespan projection,
//! the §6.1 comparison and two ablations.

use super::{channel_rows, Records, Run, CHANNELS};
use crate::{f, mb, render_table, LinkBenchRun};
use mini_couch::CouchMode;
use mini_innodb::FlushMode;
use share_workloads::{LatencySummary, LinkOpType};

/// The paper's LinkBench run in `mode`: 20 000 nodes, 40 000 warm-up and
/// 20 000 measured transactions, 4 KiB pages, buffer = DB/30, one channel.
fn paper(mode: FlushMode) -> LinkBenchRun {
    LinkBenchRun { mode, ..Default::default() }
}

const MODES: [FlushMode; 3] = [FlushMode::DwbOn, FlushMode::Share, FlushMode::DwbOff];
const PAGE_SIZES: [usize; 3] = [4096, 8192, 16384];
/// Figure 5(b)'s buffers as fractions of the database (the paper's
/// 50 / 100 / 150 MB of a 1.5 GB database).
const POOLS: [(&str, f64); 3] =
    [("50MB*", 1.0 / 30.0), ("100MB*", 1.0 / 15.0), ("150MB*", 1.0 / 10.0)];

pub(crate) fn page_run(page_bytes: usize, mode: FlushMode) -> LinkBenchRun {
    LinkBenchRun { page_bytes, ..paper(mode) }
}

pub(crate) fn pool_run(pool_fraction: f64, mode: FlushMode) -> LinkBenchRun {
    LinkBenchRun { pool_fraction, ..paper(mode) }
}

/// Figure 5(c): DWB-On, 16 KiB engine pages, 16 connections per round.
fn channel_run(channels: u32) -> LinkBenchRun {
    LinkBenchRun { page_bytes: 16384, channels, connections: 16, ..paper(FlushMode::DwbOn) }
}

fn runs(runs: impl IntoIterator<Item = LinkBenchRun>) -> Vec<Run> {
    runs.into_iter().map(Run::LinkBench).collect()
}

pub(crate) fn fig5_runs() -> Vec<Run> {
    let a = PAGE_SIZES.into_iter().flat_map(|p| MODES.map(|m| page_run(p, m)));
    let b = POOLS.into_iter().flat_map(|(_, fraction)| MODES.map(|m| pool_run(fraction, m)));
    runs(a.chain(b).chain(CHANNELS.map(channel_run)))
}

/// A Figure 5(a)/(b) row: tps per mode, SHARE/DWB-On, DWB-Off vs SHARE.
fn mode_row(label: String, tps: [f64; 3]) -> Vec<String> {
    vec![
        label,
        f(tps[0], 1),
        f(tps[1], 1),
        f(tps[2], 1),
        format!("{}x", f(tps[1] / tps[0], 2)),
        format!("{}%", f((tps[2] / tps[1] - 1.0) * 100.0, 1)),
    ]
}

/// **Figure 5** — LinkBench throughput on MySQL/InnoDB.
///
/// (a) throughput vs page size (4/8/16 KiB) at a fixed small buffer pool;
/// (b) throughput vs buffer-pool size at 4 KiB pages.
/// Paper's shape: SHARE beats DWB-On by >2x across every configuration,
/// and DWB-Off lands within ~1 % of SHARE.
pub(crate) fn fig5(rec: &Records) -> String {
    let row = |label, runs: [LinkBenchRun; 3]| mode_row(label, runs.map(|r| rec.linkbench(r).tps));
    // ---- (a) page-size sweep at the smallest pool --------------------------
    let rows = PAGE_SIZES.map(|p| row(format!("{} KB", p / 1024), MODES.map(|m| page_run(p, m))));
    let mut out = render_table(
        "Figure 5(a): LinkBench throughput vs page size (buffer = DB/30)",
        &["page", "DWB-On tps", "SHARE tps", "DWB-Off tps", "SHARE/DWB", "Off vs SHARE"],
        &rows,
    );

    // ---- (b) buffer-pool sweep at 4 KiB pages ------------------------------
    let rows = POOLS.map(|(label, fr)| row(label.into(), MODES.map(|m| pool_run(fr, m))));
    out += &render_table(
        "Figure 5(b): LinkBench throughput vs buffer size (4 KB pages; * = paper-equivalent ratio of DB size)",
        &["buffer", "DWB-On tps", "SHARE tps", "DWB-Off tps", "SHARE/DWB", "Off vs SHARE"],
        &rows,
    );

    // ---- (c) NAND channel sweep at DWB-On (the write-heaviest config) ------
    // 16 KiB engine pages over 4 KiB device pages: every page read or
    // flushed spans four device pages, so both the miss path and the DWB
    // flush batches overlap across channels; at DWB-On every dirty page
    // is programmed twice. The residual serial cost is the per-commit
    // redo-log fsync (a conventional single-queue log device).
    // 16 concurrent connections per round: prefetched B+tree reads and a
    // shared group-commit fsync let independent transactions overlap
    // across channels.
    let runs = CHANNELS.map(|c| rec.linkbench(channel_run(c)));
    let mut rows = channel_rows(runs.map(|r| (r.tps, r.elapsed_secs)), 1);
    for (row, r) in rows.iter_mut().zip(runs) {
        row.push(format!("{}ms", f(r.device.gc_stall_ns as f64 / 1e6, 1)));
    }
    out + &render_table(
        "Figure 5(c): LinkBench throughput vs NAND channels (DWB-On, 16 KB pages, buffer = DB/30)",
        &["channels", "tps", "sim secs", "vs 1ch", "gc stall"],
        &rows,
    ) + "\nPaper shape: SHARE > 2x DWB-On everywhere; DWB-Off within ~1% of SHARE.\n"
}

const DWB_SHARE: [FlushMode; 2] = [FlushMode::DwbOn, FlushMode::Share];

pub(crate) fn fig6_runs() -> Vec<Run> {
    runs(POOLS.into_iter().flat_map(|(_, fraction)| DWB_SHARE.map(|m| pool_run(fraction, m))))
}

/// **Figure 6** — I/O activities inside the SSD while running LinkBench.
///
/// (a) page writes requested by the host, (b) garbage-collection events,
/// (c) pages copied back by GC — DWB-On vs SHARE, per buffer size: Figure
/// 5(b)'s DWB-On and SHARE runs.
/// Paper's shape: SHARE cuts host writes ~45 %, GC events ~55 %, and
/// copyback pages ~75 %.
pub(crate) fn fig6(rec: &Records) -> String {
    let mut rows = Vec::new();
    for (label, fraction) in POOLS {
        let [dwb, share] = DWB_SHARE.map(|m| &rec.linkbench(pool_run(fraction, m)).device);
        let red = |a: u64, b: u64| -> String {
            if a == 0 {
                "-".into()
            } else {
                format!("-{}%", f((1.0 - b as f64 / a as f64) * 100.0, 0))
            }
        };
        rows.push(vec![
            label.to_string(),
            dwb.host_writes.to_string(),
            share.host_writes.to_string(),
            red(dwb.host_writes, share.host_writes),
            dwb.gc_events.to_string(),
            share.gc_events.to_string(),
            red(dwb.gc_events, share.gc_events),
            dwb.copyback_pages.to_string(),
            share.copyback_pages.to_string(),
            red(dwb.copyback_pages, share.copyback_pages),
        ]);
    }
    render_table(
        "Figure 6: IO activities inside the SSD (LinkBench, 4 KB pages)",
        &["buffer", "writes DWB", "writes SHARE", "Δw", "GC DWB", "GC SHARE", "Δgc",
          "copyback DWB", "copyback SHARE", "Δcb"],
        &rows,
    ) + "\nPaper shape: host writes -45%, GC events -55%, copyback pages -75%.\n"
}

/// Table 1 measures 40 000 transactions, twice Figure 5's window.
fn table1_run(mode: FlushMode) -> LinkBenchRun {
    LinkBenchRun { txns: 40_000, ..paper(mode) }
}

pub(crate) fn table1_runs() -> Vec<Run> {
    runs(DWB_SHARE.map(table1_run))
}

/// **Table 1** — distribution of LinkBench transaction latency (ms):
/// mean / P25 / P50 / P75 / P99 / max for the ten transaction types,
/// DWB-On vs SHARE (50 MB-equivalent buffer, 4 KB pages).
///
/// Paper's shape: SHARE reduces mean latency 2.1–4.2x, P99 2.0–8.3x, max
/// 1.2–3.4x — and read latencies improve too (reads queue behind writes).
pub(crate) fn table1(rec: &Records) -> String {
    let [dwb, share] = DWB_SHARE.map(|m| rec.linkbench(table1_run(m)));
    let ms = |ns: u64| f(LatencySummary::ms(ns), 3);
    let mut out = String::new();
    for (label, result) in [("DWB-On", dwb), ("SHARE", share)] {
        let mut rows = Vec::new();
        for op in LinkOpType::ALL {
            let Some(s) = result.latency.summary(op.name()) else {
                continue;
            };
            rows.push(vec![
                if op.is_write() { "Write" } else { "Read" }.to_string(),
                op.name().to_string(),
                f(s.mean_ns / 1e6, 3),
                ms(s.p25_ns),
                ms(s.p50_ns),
                ms(s.p75_ns),
                ms(s.p99_ns),
                ms(s.max_ns),
            ]);
        }
        out += &render_table(
            &format!("Table 1 ({label}): LinkBench transaction latency (ms)"),
            &["I/O", "Name", "Mean", "P25", "P50", "P75", "P99", "Max"],
            &rows,
        );
    }

    // Reduction factors, the numbers the paper quotes in the text.
    let mut rows = Vec::new();
    for op in LinkOpType::ALL {
        let (Some(a), Some(b)) = (dwb.latency.summary(op.name()), share.latency.summary(op.name()))
        else {
            continue;
        };
        let ratio = |x: f64, y: f64| if y > 0.0 { format!("{}x", f(x / y, 2)) } else { "-".into() };
        rows.push(vec![
            op.name().to_string(),
            ratio(a.mean_ns, b.mean_ns),
            ratio(a.p99_ns as f64, b.p99_ns as f64),
            ratio(a.max_ns as f64, b.max_ns as f64),
        ]);
    }
    out + &render_table(
        "Latency reduction, DWB-On / SHARE (paper: mean 2.1-4.2x, P99 2.0-8.3x, max 1.2-3.4x)",
        &["Name", "mean", "P99", "max"],
        &rows,
    )
}

pub(crate) fn lifespan_runs() -> Vec<Run> {
    runs(DWB_SHARE.map(paper))
}

/// MLC endurance assumed for the lifespan projection.
const PE_CYCLES: f64 = 3_000.0;

/// **Lifespan projection** — the paper's §5.3.1 closing claim: "the SHARE
/// interface can provide longer device lifespan."
///
/// NAND blocks endure a finite number of program/erase cycles (~3000 for
/// the OpenSSD's MLC parts). This reads Figure 5's DWB-On and SHARE runs
/// and projects device lifetime from the measured erase rate per committed
/// transaction, plus the wear-leveling spread.
pub(crate) fn lifespan(rec: &Records) -> String {
    let mut rows = Vec::new();
    let mut base_life = 0.0;
    for mode in DWB_SHARE {
        let result = rec.linkbench(paper(mode));
        let wear = &result.wear;
        let erases_per_txn = result.device.nand.block_erases as f64 / paper(mode).txns as f64;
        // Lifetime in transactions until the mean block hits its P/E budget.
        let txns_per_cycle_of_pool = 1.0 / erases_per_txn;
        let life_txns = txns_per_cycle_of_pool * PE_CYCLES * result.db_pages as f64 / 128.0;
        if mode == FlushMode::DwbOn {
            base_life = life_txns;
        }
        rows.push(vec![
            mode.label().to_string(),
            result.device.nand.block_erases.to_string(),
            f(erases_per_txn * 1000.0, 2),
            f(life_txns / 1e6, 1),
            format!("{}x", f(life_txns / base_life, 2)),
            format!("{}..{}", wear.min_erases, wear.max_erases),
        ]);
    }
    render_table(
        "Lifespan projection (LinkBench window, MLC endurance 3000 P/E)",
        &["mode", "erases", "erases/1k txns", "life (M txns)", "vs DWB-On", "wear spread"],
        &rows,
    ) + "\nPaper claim: fewer writes -> fewer erases -> a proportionally longer\n\
     device lifespan under the same workload. Expect ~2x for SHARE.\n"
}

const RELATED_MODES: [FlushMode; 3] = [FlushMode::DwbOn, FlushMode::AtomicWrite, FlushMode::Share];
/// Documents in the §6.1 compaction comparison (aged three rounds).
const RELATED_DOCS: u64 = 8_000;
const COUCH_MODES: [CouchMode; 2] = [CouchMode::Original, CouchMode::Share];

pub(crate) fn related_runs() -> Vec<Run> {
    let mut all = runs(RELATED_MODES.map(paper));
    all.extend(COUCH_MODES.map(|m| Run::Compaction(m, RELATED_DOCS, 3)));
    all
}

/// **Related-work comparison (§6.1)** — SHARE vs atomic-write FTLs.
///
/// The paper contrasts SHARE with the atomic multi-page write primitive of
/// Park et al. / FusionIO (Ouyang et al. showed it "can be used to replace
/// the double buffer area in MySQL/InnoDB"). Both eliminate the second
/// write; the differences the paper claims are flexibility: SHARE lets the
/// application write pages *at any time* and bind them later, and supports
/// zero-copy compaction, which update-in-place atomic writes cannot.
///
/// This quantifies the part that is measurable on LinkBench — throughput
/// and device traffic of DWB-On vs AtomicWrite vs SHARE — and demonstrates
/// the flexibility gap with the couch compaction numbers.
pub(crate) fn related(rec: &Records) -> String {
    let mut rows = Vec::new();
    let mut dwb_tps = 0.0;
    for mode in RELATED_MODES {
        let r = rec.linkbench(paper(mode));
        if mode == FlushMode::DwbOn {
            dwb_tps = r.tps;
        }
        rows.push(vec![
            mode.label().to_string(),
            f(r.tps, 1),
            format!("{}x", f(r.tps / dwb_tps, 2)),
            r.device.host_writes.to_string(),
            r.device.gc_events.to_string(),
            r.device.share_commands.to_string(),
        ]);
    }
    let out = render_table(
        "Related work (§6.1): double write vs atomic write vs SHARE (LinkBench)",
        &["mode", "tps", "vs DWB-On", "host writes", "GC events", "share cmds"],
        &rows,
    );

    // The flexibility gap: compaction is only expressible with SHARE.
    let [orig, share] = COUCH_MODES.map(|m| rec.compaction(m, RELATED_DOCS, 3));
    out + &format!(
        "\nCompaction ({RELATED_DOCS} docs): copy-based {} MB written vs SHARE {} MB —\n",
        mb(orig.bytes_written),
        mb(share.bytes_written)
    ) + "an atomic-write FTL can only do the copy-based variant (it has no way\n\
         to bind already-written pages to new addresses), which is the paper's\n\
         core flexibility argument for SHARE.\n"
}

fn neighbors_run(mode: FlushMode, flush_neighbors: bool) -> LinkBenchRun {
    LinkBenchRun { flush_neighbors, warmup_txns: 30_000, txns: 15_000, ..paper(mode) }
}

pub(crate) fn neighbors_runs() -> Vec<Run> {
    runs(DWB_SHARE.into_iter().flat_map(|m| [false, true].map(|on| neighbors_run(m, on))))
}

/// **Ablation** — InnoDB's `buffer_flush_neighbors` option.
///
/// The paper's §5.2 setup: "the buffer flush neighbors option, which
/// flushes any neighbor pages together for a dirty victim page, was turned
/// off to reduce unnecessary write overhead." This sweep quantifies that
/// choice on the flash device, in both DWB-On and SHARE modes.
pub(crate) fn neighbors(rec: &Records) -> String {
    let mut rows = Vec::new();
    for mode in DWB_SHARE {
        for neighbors in [false, true] {
            let r = rec.linkbench(neighbors_run(mode, neighbors));
            rows.push(vec![
                mode.label().to_string(),
                if neighbors { "on" } else { "off" }.to_string(),
                f(r.tps, 1),
                r.device.host_writes.to_string(),
                r.device.gc_events.to_string(),
                f(r.device.waf(), 2),
            ]);
        }
    }
    render_table(
        "Ablation: buffer_flush_neighbors (LinkBench, 4 KB pages)",
        &["mode", "neighbors", "tps", "host writes", "GC events", "WAF"],
        &rows,
    ) + "\nThe paper turned neighbor flushing off: on flash there is no seek to\n\
     amortize, so the extra page writes are pure overhead.\n"
}

const REVMAP_CAPACITIES: [(&str, usize); 4] =
    [("64", 64), ("250 (4KB)", 250), ("500 (8KB)", 500), ("unbounded", usize::MAX)];

fn revmap_run(revmap_capacity: usize) -> LinkBenchRun {
    LinkBenchRun { revmap_capacity, warmup_txns: 30_000, txns: 10_000, ..paper(FlushMode::Share) }
}

pub(crate) fn revmap_runs() -> Vec<Run> {
    runs(REVMAP_CAPACITIES.map(|(_, c)| revmap_run(c)))
}

/// **Ablation** — sizing the shared-page reverse-mapping table (§4.2.1).
///
/// The prototype kept only 250 (4 KB) or 500 (8 KB) entries of extra
/// P2L references. This sweep shows what the cap costs under the
/// LinkBench SHARE workload: a full table refuses the share, and the
/// engine falls back to the classic double write.
pub(crate) fn revmap(rec: &Records) -> String {
    let mut rows = Vec::new();
    for (label, capacity) in REVMAP_CAPACITIES {
        let r = rec.linkbench(revmap_run(capacity));
        rows.push(vec![
            label.to_string(),
            f(r.tps, 1),
            r.engine.share_fallbacks.to_string(),
            r.device.share_commands.to_string(),
            r.device.host_writes.to_string(),
            f(r.device.waf(), 2),
        ]);
    }
    render_table(
        "Ablation: reverse-map capacity (LinkBench, SHARE mode)",
        &["capacity", "tps", "fallbacks", "share cmds", "host writes", "WAF"],
        &rows,
    ) + "\nExpectation: a table that fills refuses shares, and every fallback writes\n\
     its pages twice; only a table that never fills keeps all of SHARE's savings.\n"
}
