//! What a SHARE compaction's simulated time is made of.
//!
//! `ycsb_a_couch`'s slowest 0.1 % of operations wait behind a compaction
//! (EXPERIMENTS.md "The queued write lends"), so the children of the
//! `compaction` root span are that tail's bill. This test builds the
//! benchmark's store shape — 2 000 four-block documents on a 4-channel
//! device — ages it to the driver's compaction threshold, traces one
//! compaction and groups the root's direct children by name. It asserts the
//! structure (which calls, how many, all inside the root) and prints the
//! table to read with `--nocapture`. Of the times only three bounds are
//! asserted, each with slack over what was measured and far under what it
//! replaced: a head read per lane, not per head (19.0 us a head; 76.0 when
//! every head sat on one lane), a delete that logs live blocks only, a
//! stripe of log pages per submission (8.13 ms; 29.34 when every log page
//! was programmed alone), the whole compaction (97.52 ms; 144.32, and
//! 321.15 before the heads were read per lane). The SHARE's log pages go
//! out a stripe at a time: one `log_flush` pass per stripe-wide group of
//! page-sized chunks. A fourth bound is exact, computed from the timing
//! model: the checkpoint the ring's filling trips programs its image a
//! stripe at a time too (12.16 ms; 31.74 when the whole image went to one
//! lane).

use mini_couch::{doc_blocks, CouchConfig, CouchMode, CouchStore};
use share_core::{checkpoint_pages, Ftl, FtlConfig};
use share_telemetry::{Layer, Span, TelemetryConfig};
use share_vfs::{Vfs, VfsOptions};

const BS: usize = 4096;
const DOCS: u64 = 2_000;
const DOC_LEN: usize = 16_000;
const BATCH: usize = 16;
/// Heads a SHARE compaction reads per `read_pages` (`compact.rs`).
const HEAD_BATCH: u64 = 256;
/// The benchmark driver compacts at this stale ratio.
const COMPACT_AT: f64 = 0.6;

fn payload(key: u64, version: u8) -> Vec<u8> {
    let mut v = vec![(key * 31) as u8 ^ version; DOC_LEN];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v
}

#[test]
fn a_share_compaction_is_head_reads_one_remap_and_an_index_rebuild() {
    let blocks = doc_blocks(DOC_LEN, BS);
    assert_eq!(blocks, 4);
    // The benchmark's device: 3.8x the live data, 15 % over-provisioning.
    let logical = (DOCS * blocks) as f64 * 3.8;
    let fcfg = FtlConfig::for_capacity_with(
        logical as u64 * BS as u64 + (8 << 20),
        0.15,
        BS,
        128,
        nand_sim::NandTiming::default(),
    )
    .with_parallelism(4, 1)
    .with_telemetry(TelemetryConfig::tracing());
    let fs = Vfs::format(Ftl::new(fcfg), VfsOptions::default()).unwrap();
    let cfg = CouchConfig { mode: CouchMode::Share, batch_size: BATCH, ..Default::default() };
    let mut s = CouchStore::create(fs, "profile.couch", cfg).unwrap();
    for key in 0..DOCS {
        s.save(key, &payload(key, 0)).unwrap();
    }
    s.commit().unwrap();
    // Same-size updates in a scattered order, a commit per batch, until the
    // driver would compact.
    let mut version = 0u8;
    'age: loop {
        version += 1;
        let docs: Vec<(u64, Vec<u8>)> =
            (0..DOCS).map(|i| (i * 37) % DOCS).map(|k| (k, payload(k, version))).collect();
        for group in docs.chunks(BATCH) {
            let lent: Vec<(u64, &[u8])> = group.iter().map(|(k, d)| (*k, &d[..])).collect();
            s.save_many(&lent).unwrap();
            if s.stale_ratio() >= COMPACT_AT {
                break 'age;
            }
        }
    }

    // What the old file still holds when the compaction starts: every
    // document's live copy and the index and header blocks of the load. The
    // appended copies are gone — each commit unmapped the ones it remapped,
    // which also left no physical page with a second reference.
    let before = s.stats();
    let fs = s.fs_mut();
    let old = fs.lookup("profile.couch").unwrap();
    let lpns: Vec<_> = (0..fs.allocated_pages(old).unwrap()).map(|p| fs.lpn_of(old, p).unwrap()).collect();
    let mapped = lpns.iter().filter(|&&l| fs.device().mapping_of(l).is_some()).count() as u64;
    assert_eq!(mapped, blocks * DOCS + before.node_blocks_appended + before.header_blocks_appended);
    assert!(lpns.iter().all(|&l| fs.device().refcount_of(l) <= 1));

    let tracer = s.fs_mut().tracer().clone();
    let (first, trims) = (tracer.span_count(), s.device_stats().trims);
    let report = s.compact().unwrap();
    assert!(report.zero_copy);
    assert_eq!((report.docs_moved, report.doc_blocks_moved), (DOCS, blocks * DOCS));
    let spans: Vec<Span> = tracer.spans().split_off(first);
    let root = spans
        .iter()
        .find(|sp| sp.layer == Layer::Engine && sp.name == "compaction")
        .expect("compaction root span");
    assert_eq!(root.end_ns - root.start_ns, report.elapsed_ns);

    // The root's direct children, grouped by name in order of first call;
    // under each, the FTL's own passes (a delta-log flush per log
    // submission, with the pages it programmed; a checkpoint when the log
    // ring fills) found through `owner`: the direct
    // child every later span descends from.
    #[derive(Default)]
    struct Row {
        name: String,
        calls: u64,
        pages: u64,
        ns: u64,
        log_flushes: u64,
        log_pages: u64,
        log_ns: u64,
        ckpt_ns: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; spans.len()];
    let mut checkpoints: Vec<u64> = Vec::new();
    for (i, c) in spans.iter().enumerate() {
        let took = c.end_ns - c.start_ns;
        if c.parent == root.id {
            assert!(
                root.start_ns <= c.start_ns && c.end_ns <= root.end_ns,
                "`{}` [{}, {}] lies outside the compaction [{}, {}]",
                c.name, c.start_ns, c.end_ns, root.start_ns, root.end_ns
            );
            let r = rows.iter().position(|r| r.name == c.name).unwrap_or_else(|| {
                rows.push(Row { name: c.name.clone(), ..Row::default() });
                rows.len() - 1
            });
            rows[r].calls += 1;
            rows[r].pages += c.pages;
            rows[r].ns += took;
            owner[i] = Some(r);
            continue;
        }
        // Spans are recorded parent first, so the parent's owner is known.
        let parent = (c.parent as usize).checked_sub(first);
        let Some(r) = parent.and_then(|p| *owner.get(p)?) else { continue };
        owner[i] = Some(r);
        match c.name.as_str() {
            "log_flush" => {
                rows[r].log_flushes += 1;
                rows[r].log_pages += c.pages;
                rows[r].log_ns += took;
            }
            "checkpoint" => {
                rows[r].ckpt_ns += took;
                checkpoints.push(took);
            }
            _ => {}
        }
    }
    let zero = Row::default();
    let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap_or(&zero);

    // Structure: heads read 256 at a time, every block remapped by one SHARE
    // ioctl, every rebuilt node of both indexes and then the header staged in
    // the head buffer and written as one submission per bufferful — index and
    // header blocks only, no document block (Table 2's "zero-copy") — two
    // fsyncs, the old file deleted, no single-page write left.
    let calls_pages = |name: &str| (row(name).calls, row(name).pages);
    let after = s.stats();
    let rebuilt = after.node_blocks_appended - before.node_blocks_appended + 1;
    assert_eq!(calls_pages("read_pages"), (DOCS.div_ceil(HEAD_BATCH), DOCS));
    assert_eq!(calls_pages("ioctl_share_pairs"), (1, blocks * DOCS));
    assert_eq!(row("write_page").calls, 0);
    assert_eq!(calls_pages("write_pages"), (rebuilt.div_ceil(HEAD_BATCH), rebuilt));
    assert_eq!(after.header_blocks_appended - before.header_blocks_appended, 1);
    assert_eq!(after.doc_blocks_appended, before.doc_blocks_appended, "a document copied");
    assert_eq!(row("write_pages_atomic").calls, 0);
    assert_eq!((row("fsync").calls, row("delete").calls, row("rename").calls), (2, 1, 1));
    // The delete walks the whole old file and logs a delta for what was
    // still mapped — `mapped` pages, not the file's length.
    assert!(s.device_stats().trims - trims > 2 * mapped);
    assert!(row("delete").log_pages <= 40, "{} log pages under the delete", row("delete").log_pages);
    // The remap's deltas go out a stripe of atomic pages per submission.
    let stripe = s.fs_mut().device().config().stripe_width() as u64;
    let chunks = (blocks * DOCS).div_ceil(s.fs_mut().device().config().deltas_per_page() as u64);
    assert_eq!(stripe, 4);
    assert_eq!(row("ioctl_share_pairs").log_flushes, chunks.div_ceil(stripe));
    // The children are the whole bill: the engine itself spends no
    // simulated time between them.
    assert_eq!(rows.iter().map(|r| r.ns).sum::<u64>(), report.elapsed_ns);
    let per_head_ns = row("read_pages").ns / DOCS;
    assert!(per_head_ns <= 25_000, "{per_head_ns} ns per head read: the heads share a lane again");
    let delete_ns = row("delete").ns;
    assert!(delete_ns <= 12_000_000, "{delete_ns} ns for the delete: its log pages went one by one");
    assert!(report.elapsed_ns <= 110_000_000, "{} ns for the compaction", report.elapsed_ns);
    // A checkpoint at most erases its slot's lanes side by side, programs
    // everything but the commit page a stripe at a time, then the commit
    // page, and erases the ring's lanes side by side.
    let dev = s.fs_mut().device().config();
    let (t, n) = (dev.timing, checkpoint_pages(dev) as u64);
    let program = t.program_ns + t.xfer_ns(BS);
    let ckpt_bound = t.erase_ns + (n - 1).div_ceil(stripe) * program + program + t.erase_ns;
    assert!(!checkpoints.is_empty(), "the compaction filled no log ring");
    for &ns in &checkpoints {
        assert!(ns <= ckpt_bound, "{ns} ns for a checkpoint over {ckpt_bound}: one lane took it");
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    println!("compaction of {DOCS} x {blocks}-block documents: {:.2} sim ms", ms(report.elapsed_ns));
    println!(
        "{:<18} {:>5} {:>6} {:>8} {:>6}   {:>16} {:>9} {:>10}",
        "child", "calls", "pages", "ms", "share", "log_flush ms (n)", "log pages", "checkpoint"
    );
    for r in &rows {
        println!(
            "{:<18} {:>5} {:>6} {:>8.2} {:>5.1}%   {:>10.2} ({:>3}) {:>9} {:>10.2}",
            r.name,
            r.calls,
            r.pages,
            ms(r.ns),
            r.ns as f64 * 100.0 / report.elapsed_ns as f64,
            ms(r.log_ns),
            r.log_flushes,
            r.log_pages,
            ms(r.ckpt_ns)
        );
    }
    println!("old file: {mapped} of {} pages still mapped when it is deleted", lpns.len());
    println!(
        "per head read: {:.1} us; per rebuilt node write: {:.0} us",
        row("read_pages").ns as f64 / 1e3 / DOCS as f64,
        row("write_pages").ns as f64 / 1e3 / row("write_pages").pages as f64
    );
}
