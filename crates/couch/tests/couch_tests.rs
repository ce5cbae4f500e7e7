//! Integration tests for the mini-Couchbase store over the SHARE FTL.

use mini_couch::{CouchConfig, CouchError, CouchMode, CouchStore, DocPtr};
use nand_sim::{FaultMode, NandTiming};
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_crashsweep::{couch_workload::workload, sweep};
use share_telemetry::{Layer, TelemetryConfig};
use share_vfs::{Vfs, VfsOptions};
use std::collections::BTreeMap;

fn ftl_cfg(mb: u64) -> FtlConfig {
    FtlConfig::for_capacity_with(mb << 20, 0.3, 4096, 32, NandTiming::zero())
}

fn store(mode: CouchMode, batch: usize) -> CouchStore<Ftl> {
    let fs = Vfs::format(Ftl::new(ftl_cfg(48)), VfsOptions::default()).unwrap();
    CouchStore::create(fs, "test.couch", CouchConfig { mode, batch_size: batch, node_max_entries: 16, ..Default::default() })
        .unwrap()
}

fn doc(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![0u8; 1000];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

#[test]
fn save_get_cycle_both_modes() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let mut s = store(mode, 1);
        for k in 0..100u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(s.get(k).unwrap(), Some(doc(k, 1)), "{mode:?} key {k}");
        }
        assert_eq!(s.get(999).unwrap(), None);
        assert_eq!(s.doc_count(), 100);
    }
}

#[test]
fn updates_return_latest_version() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let mut s = store(mode, 4);
        for k in 0..50u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for round in 2..6u64 {
            for k in 0..50u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        for k in 0..50u64 {
            assert_eq!(s.get(k).unwrap(), Some(doc(k, 5)), "{mode:?} key {k}");
        }
        assert_eq!(s.doc_count(), 50);
    }
}

#[test]
fn share_mode_remaps_updates_without_tree_writes() {
    let mut s = store(CouchMode::Share, 1);
    for k in 0..50u64 {
        s.save(k, &doc(k, 1)).unwrap(); // inserts: tree path
    }
    let nodes_after_load = s.stats().node_blocks_appended;
    for k in 0..50u64 {
        s.save(k, &doc(k, 2)).unwrap(); // same-size updates: share path
    }
    let st = s.stats();
    assert_eq!(st.node_blocks_appended, nodes_after_load, "updates must not touch the tree");
    assert_eq!(st.share_remaps, 50);
    for k in 0..50u64 {
        assert_eq!(s.get(k).unwrap(), Some(doc(k, 2)));
    }
}

#[test]
fn original_mode_pays_wandering_tree_per_commit() {
    let mut orig = store(CouchMode::Original, 1);
    let mut share = store(CouchMode::Share, 1);
    for s in [&mut orig, &mut share] {
        for k in 0..200u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
    }
    let o0 = orig.device_stats().host_write_bytes;
    let s0 = share.device_stats().host_write_bytes;
    for round in 2..6u64 {
        for k in 0..200u64 {
            orig.save(k, &doc(k, round)).unwrap();
            share.save(k, &doc(k, round)).unwrap();
        }
    }
    let o = orig.device_stats().host_write_bytes - o0;
    let s = share.device_stats().host_write_bytes - s0;
    let ratio = o as f64 / s as f64;
    assert!(
        ratio > 2.5,
        "wandering tree should amplify writes heavily at batch 1: ratio {ratio:.2}"
    );
}

#[test]
fn batch_size_amortizes_tree_writes() {
    let written = |batch: usize| {
        let mut s = store(CouchMode::Original, batch);
        for k in 0..200u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        let w0 = s.device_stats().host_write_bytes;
        for round in 2..6u64 {
            for k in 0..200u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        s.device_stats().host_write_bytes - w0
    };
    let w1 = written(1);
    let w64 = written(64);
    assert!(
        w1 as f64 > w64 as f64 * 1.8,
        "batching must amortize tree writes: batch1 {w1} vs batch64 {w64}"
    );
}

#[test]
fn size_changing_update_falls_back_to_tree() {
    let mut s = store(CouchMode::Share, 1);
    s.save(7, &doc(7, 1)).unwrap();
    // 5000-byte payload spans two blocks: cannot remap 1 -> 2 blocks.
    s.save(7, &vec![0xEE; 5000]).unwrap();
    assert!(s.stats().share_fallbacks > 0);
    assert_eq!(s.get(7).unwrap(), Some(vec![0xEE; 5000]));
    // Back to one block: the tree now points at the two-block doc, so the
    // next same-size(1000) update cannot remap either; after it commits the
    // store is consistent again.
    s.save(7, &doc(7, 3)).unwrap();
    assert_eq!(s.get(7).unwrap(), Some(doc(7, 3)));
}

#[test]
fn delete_removes_documents() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let mut s = store(mode, 1);
        for k in 0..20u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for k in (0..20u64).step_by(2) {
            s.delete(k).unwrap();
        }
        for k in 0..20u64 {
            let got = s.get(k).unwrap();
            if k % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(doc(k, 1)));
            }
        }
        assert_eq!(s.doc_count(), 10);
    }
}

#[test]
fn stale_ratio_grows_with_updates() {
    let mut s = store(CouchMode::Original, 1);
    for k in 0..50u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    let r0 = s.stale_ratio();
    for round in 2..8u64 {
        for k in 0..50u64 {
            s.save(k, &doc(k, round)).unwrap();
        }
    }
    assert!(s.stale_ratio() > r0);
    assert!(s.stale_ratio() > 0.4, "heavy updates should leave much garbage");
}

#[test]
fn compaction_preserves_data_and_reclaims_space() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let mut s = store(mode, 8);
        for k in 0..100u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for round in 2..6u64 {
            for k in 0..100u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        let before_blocks = s.file_blocks();
        let report = s.compact().unwrap();
        assert_eq!(report.docs_moved, 100);
        assert_eq!(report.zero_copy, mode == CouchMode::Share);
        assert!(s.file_blocks() < before_blocks, "{mode:?} compaction must shrink the file");
        assert!(s.stale_ratio() < 0.05);
        for k in 0..100u64 {
            assert_eq!(s.get(k).unwrap(), Some(doc(k, 5)), "{mode:?} key {k} after compaction");
        }
        // And the store keeps working after the swap.
        s.save(1000, &doc(1000, 1)).unwrap();
        s.commit().unwrap();
        assert_eq!(s.get(1000).unwrap(), Some(doc(1000, 1)));
    }
}

#[test]
fn zero_copy_compaction_writes_far_less() {
    // Realistic NAND timing: the elapsed-time comparison is meaningless on
    // a zero-latency medium.
    let run = |mode: CouchMode| {
        let cfg = FtlConfig::for_capacity_with(48 << 20, 0.3, 4096, 32, NandTiming::default());
        let fs = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap();
        let mut s = CouchStore::create(
            fs,
            "test.couch",
            CouchConfig { mode, batch_size: 8, node_max_entries: 16, ..Default::default() },
        )
        .unwrap();
        for k in 0..300u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for round in 2..5u64 {
            for k in 0..300u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        s.compact().unwrap()
    };
    let orig = run(CouchMode::Original);
    let share = run(CouchMode::Share);
    let wratio = orig.bytes_written as f64 / share.bytes_written as f64;
    assert!(wratio > 3.0, "zero-copy compaction write reduction only {wratio:.2}x");
    assert!(
        share.elapsed_ns < orig.elapsed_ns,
        "zero-copy compaction should also be faster"
    );
}

#[test]
fn by_seq_index_tracks_changes() {
    let mut s = store(CouchMode::Original, 4);
    for k in 0..30u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    s.commit().unwrap();
    // Sequences 1..=30 exist; read one back by sequence.
    let (key, payload) = s.get_by_seq(5).unwrap().expect("seq 5 exists");
    assert_eq!(key, 4);
    assert_eq!(payload, doc(4, 1));
    // Update two docs: their old seqs retire, new ones appear at the top.
    s.save(3, &doc(3, 2)).unwrap();
    s.save(9, &doc(9, 2)).unwrap();
    s.commit().unwrap();
    assert_eq!(s.get_by_seq(4).unwrap(), None, "old seq of doc 3 must be gone");
    let changes = s.changes_since(30).unwrap();
    assert_eq!(changes.len(), 2);
    assert_eq!(changes[0].1, 3);
    assert_eq!(changes[1].1, 9);
    // Deletes retire their sequence too.
    s.delete(9).unwrap();
    s.commit().unwrap();
    let last = s.changes_since(30).unwrap();
    assert_eq!(last.len(), 1);
    assert_eq!(last[0].1, 3);
}

#[test]
fn by_seq_index_survives_compaction_and_reopen() {
    let mut s = store(CouchMode::Original, 8);
    for k in 0..60u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    for k in 0..30u64 {
        s.save(k, &doc(k, 2)).unwrap();
    }
    s.commit().unwrap();
    let before: Vec<(u64, u64)> =
        s.changes_since(0).unwrap().into_iter().map(|(q, k, _)| (q, k)).collect();
    s.compact().unwrap();
    let after: Vec<(u64, u64)> =
        s.changes_since(0).unwrap().into_iter().map(|(q, k, _)| (q, k)).collect();
    assert_eq!(before, after, "compaction must preserve (seq, key) pairs");
    let fs = s.into_fs();
    let mut s2 = CouchStore::open(fs, "test.couch", CouchConfig::default()).unwrap();
    let reopened: Vec<(u64, u64)> =
        s2.changes_since(0).unwrap().into_iter().map(|(q, k, _)| (q, k)).collect();
    assert_eq!(before, reopened, "reopen must preserve the by-seq index");
    // And by-seq reads still resolve documents.
    let (k, payload) = s2.get_by_seq(reopened[0].0).unwrap().unwrap();
    assert_eq!(payload, doc(k, if k < 30 { 2 } else { 1 }));
}

#[test]
fn reopen_after_clean_commit() {
    let mut s = store(CouchMode::Original, 4);
    for k in 0..60u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    s.commit().unwrap();
    let fs = s.into_fs();
    let mut s2 = CouchStore::open(fs, "test.couch", CouchConfig::default()).unwrap();
    assert_eq!(s2.doc_count(), 60);
    for k in 0..60u64 {
        assert_eq!(s2.get(k).unwrap(), Some(doc(k, 1)));
    }
}

#[test]
fn uncommitted_tail_is_discarded_on_reopen() {
    let mut s = store(CouchMode::Original, 1000); // large batch: nothing commits
    for k in 0..10u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    s.commit().unwrap(); // first 10 are durable
    for k in 10..20u64 {
        s.save(k, &doc(k, 1)).unwrap(); // appended but never committed
    }
    let fs = s.into_fs();
    let mut s2 = CouchStore::open(fs, "test.couch", CouchConfig::default()).unwrap();
    for k in 0..10u64 {
        assert_eq!(s2.get(k).unwrap(), Some(doc(k, 1)));
    }
    for k in 10..20u64 {
        assert_eq!(s2.get(k).unwrap(), None, "uncommitted doc {k} must vanish");
    }
}

/// The FTL `trim` commands (pages each) among the spans recorded from `first` on.
fn trim_commands(fs: &Vfs<Ftl>, first: usize) -> Vec<u64> {
    let spans = fs.tracer().spans().split_off(first);
    spans.iter().filter(|s| s.layer == Layer::Ftl && s.name == "trim").map(|s| s.pages).collect()
}

#[test]
fn reopen_trims_the_uncommitted_tail_one_command_per_extent() {
    let cfg = ftl_cfg(48).with_telemetry(TelemetryConfig::tracing());
    let opts = VfsOptions { extent_chunk_pages: 8, ..Default::default() };
    let fs = Vfs::format(Ftl::new(cfg), opts).unwrap();
    let mut s = CouchStore::create(fs, "test.couch", CouchConfig { batch_size: 1000, ..Default::default() })
        .unwrap();
    for k in 0..10u64 {
        s.save(k, &doc(k, 1)).unwrap();
    }
    s.commit().unwrap();
    let committed_tail = s.file_blocks();
    for k in 10..50u64 {
        s.save(k, &doc(k, 1)).unwrap(); // appended, never committed
    }
    let fs = s.into_fs();
    let file = fs.lookup("test.couch").unwrap();
    let allocated = fs.allocated_pages(file).unwrap();
    let (tail_pages, extents_crossed) = (allocated - committed_tail, allocated / 8 - committed_tail / 8);
    assert!(tail_pages >= 40 && extents_crossed >= 5, "{tail_pages} pages in {extents_crossed} extents");

    let (first, trims) = (fs.tracer().span_count(), fs.device().stats().trims);
    let mut s2 = CouchStore::open(fs, "test.couch", CouchConfig::default()).unwrap();
    let cmds = trim_commands(s2.fs_mut(), first);
    assert!(
        !cmds.is_empty() && cmds.len() as u64 <= extents_crossed,
        "{} trim commands for {tail_pages} pages in {extents_crossed} extents",
        cmds.len()
    );
    assert_eq!(cmds.iter().sum::<u64>(), tail_pages);
    assert_eq!(s2.device_stats().trims - trims, tail_pages, "every page of the tail is still trimmed");
    for k in 0..50u64 {
        assert_eq!(s2.get(k).unwrap(), (k < 10).then(|| doc(k, 1)), "doc {k}");
    }
}

// ----- crash points ---------------------------------------------------------
//
// The couch workloads of `share-crashsweep` crash at *every* NAND program of
// their group commits and compactions under all three fault modes, on
// four-block documents over a four-channel device (see its `couch_workload`
// module): every document reads back whole, at its committed version or the
// one in flight, and the recovered store compacts and commits again.

#[test]
fn crash_during_workload_recovers_to_last_commit() {
    sweep(&workload(CouchMode::Share, 42), &FaultMode::ALL, 1).assert_clean();
}

#[test]
fn crash_during_compaction_keeps_old_file_usable() {
    // The same run without SHARE: every commit and compaction rewrites the
    // tree and header.
    sweep(&workload(CouchMode::Original, 42), &FaultMode::ALL, 3).assert_clean();
}

const CRASH_DOCS: u64 = 12;
const CRASH_GROUP: usize = 4;
const CRASH_BS: usize = 1024;

fn crash_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(4 << 20, 0.3, CRASH_BS, 16, NandTiming::zero()).with_parallelism(4, 1)
}

fn crash_couch_cfg() -> CouchConfig {
    CouchConfig {
        mode: CouchMode::Share,
        batch_size: CRASH_GROUP,
        node_max_entries: 4,
        ..Default::default()
    }
}

/// A four-block document, every byte of which names its key and version.
fn doc4(key: u64, version: u64) -> Vec<u8> {
    let len = 4 * mini_couch::doc_payload_per_block(CRASH_BS) - 100;
    let mut v = vec![(key * 16 + version) as u8; len];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// `CRASH_DOCS` documents at version 1, committed.
fn crash_store() -> CouchStore<Ftl> {
    let fs = Vfs::format(Ftl::new(crash_cfg()), VfsOptions::default()).unwrap();
    let mut s = CouchStore::create(fs, "crash.couch", crash_couch_cfg()).unwrap();
    for k in 0..CRASH_DOCS {
        s.save(k, &doc4(k, 1)).unwrap();
    }
    s.commit().unwrap();
    s
}

/// Every document reads `doc4` at its version in `versions`, through `get`
/// and `get_many`.
fn assert_docs(s: &mut CouchStore<Ftl>, versions: &[u64], when: &str) {
    let keys: Vec<u64> = (0..CRASH_DOCS).collect();
    let many = s.get_many(&keys).unwrap().to_vec();
    for (k, many) in keys.iter().zip(many) {
        let want = Some(doc4(*k, versions[*k as usize]));
        assert_eq!(s.get(*k).unwrap(), want, "{when}: doc {k}");
        assert_eq!(many, want, "{when}: get_many of doc {k}");
    }
}

/// A SHARE commit is the remap; the trim behind it only tidies up. The SHARE
/// command returns with its log durable, the trim's deltas wait in device RAM
/// for the next log page — so a power cut right after the commit loses the
/// trim and one after the next flush keeps it, and the committed copies must
/// read back on both sides.
#[test]
fn a_share_commit_survives_a_crash_on_either_side_of_its_trim() {
    for trim_durable in [false, true] {
        let mut s = crash_store();
        let appended = s.file_blocks()..s.file_blocks() + 4 * CRASH_GROUP as u64;
        let commits = s.stats().commits;
        let docs: Vec<Vec<u8>> = (0..CRASH_GROUP as u64).map(|k| doc4(k, 2)).collect();
        let lent: Vec<(u64, &[u8])> = docs.iter().zip(0..).map(|(d, k)| (k, &d[..])).collect();
        s.save_many(&lent).unwrap();
        assert_eq!((s.file_blocks(), s.stats().commits - commits), (appended.end, 1), "one remap-only commit");
        if trim_durable {
            s.fs_mut().device_mut().flush().unwrap();
        }
        let nand = s.into_fs().into_device().into_nand();
        let mut fs = Vfs::open(Ftl::open(crash_cfg(), nand).unwrap(), VfsOptions::default()).unwrap();
        // Which side of the trim the cut fell on, read off the appended copies.
        let file = fs.lookup("crash.couch").unwrap();
        let mut page = vec![0u8; CRASH_BS];
        let mut mapped = 0;
        for p in appended.clone() {
            fs.read_page(file, p, &mut page).unwrap();
            mapped += page.iter().any(|&b| b != 0) as u64;
        }
        assert_eq!(mapped, if trim_durable { 0 } else { 4 * CRASH_GROUP as u64 }, "durable: {trim_durable}");
        let mut s = CouchStore::open(fs, "crash.couch", crash_couch_cfg()).unwrap();
        let committed: Vec<u64> = (0..CRASH_DOCS).map(|k| if k < CRASH_GROUP as u64 { 2 } else { 1 }).collect();
        let when = format!("trim durable: {trim_durable}");
        assert_docs(&mut s, &committed, &when);
        // The recovered store carries on: one more round over every document.
        let docs: Vec<(u64, Vec<u8>)> = (0..CRASH_DOCS).map(|k| (k, doc4(k, 4))).collect();
        for group in docs.chunks(CRASH_GROUP) {
            s.save_many(&group.iter().map(|(k, d)| (*k, &d[..])).collect::<Vec<_>>()).unwrap();
        }
        assert_docs(&mut s, &[4; CRASH_DOCS as usize], &format!("{when}, next round"));
    }
}

/// The device commits a SHARE batch in log-page-sized atomic chunks, so a
/// commit cuts its remap into another command only where a document would
/// cross one: a 1 KiB log page holds 62 pairs, fifteen four-block documents
/// (60 pairs) go in one command and sixteen (64) in two, never splitting a
/// document. The `couch-share-wide` crash workload sweeps the same rule.
#[test]
fn a_share_commit_cuts_its_remap_on_document_boundaries() {
    let fs = Vfs::format(Ftl::new(crash_cfg()), VfsOptions::default()).unwrap();
    let cfg = CouchConfig { batch_size: usize::MAX, ..crash_couch_cfg() };
    let mut s = CouchStore::create(fs, "wide.couch", cfg).unwrap();
    assert_eq!(s.fs_mut().share_batch_limit(), 62);
    let commit = |s: &mut CouchStore<Ftl>, docs: u64, version: u64| {
        let saved: Vec<Vec<u8>> = (0..docs).map(|k| doc4(k, version)).collect();
        let lent: Vec<(u64, &[u8])> = saved.iter().zip(0..).map(|(d, k)| (k, &d[..])).collect();
        let before = s.device_stats();
        s.save_many(&lent).unwrap();
        s.commit().unwrap();
        let after = s.device_stats();
        (after.share_commands - before.share_commands, after.shared_pages - before.shared_pages)
    };
    commit(&mut s, 16, 1);
    assert_eq!(commit(&mut s, 15, 2), (1, 60));
    assert_eq!(commit(&mut s, 16, 3), (2, 64));
    for k in 0..16 {
        assert_eq!(s.get(k).unwrap(), Some(doc4(k, 3)), "doc {k}");
    }
}

/// A document wider than one SHARE log page (62 pairs at 1 KiB) takes the
/// tree path: the device would commit its remap in two atomic chunks, and a
/// crash between them would leave it half remapped. A crash at every program
/// of its update leaves it whole, at one version or the other.
#[test]
fn a_document_wider_than_a_share_log_page_is_never_remapped() {
    let wide = |version: u64| vec![version as u8; 70 * mini_couch::doc_payload_per_block(CRASH_BS) - 100];
    let cfg = CouchConfig { batch_size: usize::MAX, ..crash_couch_cfg() };
    let committed = || {
        let fs = Vfs::format(Ftl::new(crash_cfg()), VfsOptions::default()).unwrap();
        let mut s = CouchStore::create(fs, "wide.couch", cfg.clone()).unwrap();
        s.save(0, &wide(1)).unwrap();
        s.commit().unwrap();
        s
    };
    let mut s = committed();
    let (stats, shares) = (s.stats(), s.device_stats().share_commands);
    let handle = s.fs_mut().device_mut().fault_handle();
    let base = handle.programs_seen();
    s.save(0, &wide(2)).unwrap();
    s.commit().unwrap();
    let programs = handle.programs_seen() - base;
    assert_eq!(s.stats().share_remaps, stats.share_remaps);
    assert_eq!(s.stats().share_fallbacks, stats.share_fallbacks + 1);
    assert_eq!(s.device_stats().share_commands, shares);
    for mode in FaultMode::ALL {
        for index in 1..=programs {
            let mut s = committed();
            let handle = s.fs_mut().device_mut().fault_handle();
            handle.arm_after_programs(index, mode);
            let _ = s.save(0, &wide(2)).and_then(|()| s.commit());
            handle.disarm();
            assert_eq!(handle.faults_fired(), 1, "({mode:?}, {index}) never fired");
            let nand = s.into_fs().into_device().into_nand();
            let fs = Vfs::open(Ftl::open(crash_cfg(), nand).unwrap(), VfsOptions::default()).unwrap();
            let mut s = CouchStore::open(fs, "wide.couch", cfg.clone()).unwrap();
            let got = s.get(0).unwrap_or_else(|e| panic!("({mode:?}, {index}): {e}"));
            assert!(got == Some(wide(1)) || got == Some(wide(2)), "({mode:?}, {index}): torn");
        }
    }
}

#[test]
fn share_mode_written_volume_is_batch_independent() {
    // Figure 7(b)'s flat SHARE line: written volume per update is constant
    // regardless of batch size.
    let written = |batch: usize| {
        let mut s = store(CouchMode::Share, batch);
        for k in 0..200u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        s.commit().unwrap();
        let w0 = s.device_stats().host_write_bytes;
        for round in 2..6u64 {
            for k in 0..200u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        s.device_stats().host_write_bytes - w0
    };
    let w1 = written(1);
    let w64 = written(64);
    let ratio = w1 as f64 / w64 as f64;
    assert!(
        (0.8..1.3).contains(&ratio),
        "SHARE written volume should not depend on batch size: {w1} vs {w64}"
    );
}

#[test]
fn group_save_and_get_match_serial_semantics() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let cfg = FtlConfig::for_capacity_with(48 << 20, 0.3, 4096, 32, NandTiming::default())
            .with_parallelism(4, 1);
        let fs = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap();
        let mut s = CouchStore::create(
            fs,
            "group.couch",
            CouchConfig { mode, batch_size: 4, node_max_entries: 16, ..Default::default() },
        )
        .unwrap();
        // Seed, then group-save a concurrent batch of updates + inserts.
        for k in 0..32u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        s.commit().unwrap();
        let docs: Vec<(u64, Vec<u8>)> =
            (0..8u64).map(|k| (k * 3, doc(k * 3, 2))).collect();
        let batch: Vec<(u64, &[u8])> = docs.iter().map(|(k, d)| (*k, d.as_slice())).collect();
        s.save_many(&batch).unwrap();
        s.commit().unwrap();
        // Queued multiget sees the new versions; misses stay None.
        let keys: Vec<u64> = (0..8u64).map(|k| k * 3).chain([10_000]).collect();
        let got = s.get_many(&keys).unwrap();
        for (i, (k, d)) in docs.iter().enumerate() {
            assert_eq!(got[i].as_deref(), Some(d.as_slice()), "key {k} diverged under {mode:?}");
        }
        assert_eq!(got[8], None);
        // Serial gets agree.
        for (k, d) in &docs {
            assert_eq!(s.get(*k).unwrap().as_deref(), Some(d.as_slice()));
        }
    }
}

#[test]
fn group_save_overlaps_across_channels() {
    // The same 8-document group, on 1 channel vs 8: queued group appends
    // must get faster with channels (the serial save path did not).
    let elapsed_with = |channels: u32| -> u64 {
        let cfg = FtlConfig::for_capacity_with(48 << 20, 0.3, 4096, 32, NandTiming::default())
            .with_parallelism(channels, 1);
        let fs = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap();
        let mut s = CouchStore::create(
            fs,
            "ch.couch",
            CouchConfig {
                mode: CouchMode::Original,
                batch_size: 64,
                node_max_entries: 16,
                ..Default::default()
            },
        )
        .unwrap();
        let clock = s.clock();
        let t0 = clock.now_ns();
        let docs: Vec<(u64, Vec<u8>)> = (0..8u64).map(|k| (k, doc(k, 1))).collect();
        let batch: Vec<(u64, &[u8])> = docs.iter().map(|(k, d)| (*k, d.as_slice())).collect();
        s.save_many(&batch).unwrap();
        clock.now_ns() - t0
    };
    let serial = elapsed_with(1);
    let parallel = elapsed_with(8);
    assert!(
        parallel * 2 < serial,
        "8-doc group on 8 channels ({parallel} ns) should beat 1 channel ({serial} ns) by >2x"
    );
}

/// Blocks the store itself wrote, checksums intact, sitting where another
/// document's belong — the file a stale tail or a remap cut between two
/// commands leaves. A read must say `Corrupt` rather than splice them in,
/// and a SHARE compaction must not remap by a head that disagrees with the
/// index: a remap of the wrong length moves someone else's blocks.
#[test]
fn misplaced_doc_blocks_are_corrupt_not_spliced() {
    let three_blocks = |key: u64| vec![key as u8; 9_000];
    let mut s = store(CouchMode::Share, 1);
    s.save(1, &three_blocks(1)).unwrap();
    s.save(2, &three_blocks(2)).unwrap();
    s.save(3, &doc(3, 1)).unwrap();
    let at: BTreeMap<u64, DocPtr> =
        s.changes_since(0).unwrap().into_iter().map(|(_, key, ptr)| (key, ptr)).collect();
    assert_eq!((at[&1].nblocks, at[&2].nblocks, at[&3].nblocks), (3, 3, 1));
    let file = s.fs_mut().lookup("test.couch").unwrap();
    let copy_block = |s: &mut CouchStore<Ftl>, from: u64, to: u64| {
        let mut b = vec![0u8; 4096];
        s.fs_mut().read_page(file, from, &mut b).unwrap();
        s.fs_mut().write_page(file, to, &b).unwrap();
    };

    copy_block(&mut s, at[&2].block + 1, at[&1].block + 1);
    assert!(matches!(s.get(1), Err(CouchError::Corrupt(_))), "serial get spliced");
    assert!(matches!(s.get_many(&[2, 1]), Err(CouchError::Corrupt(_))), "queued get spliced");
    assert_eq!(s.get(2).unwrap(), Some(three_blocks(2)));

    copy_block(&mut s, at[&3].block, at[&2].block);
    assert!(matches!(s.compact(), Err(CouchError::Corrupt(_))), "compaction remapped by a wrong head");
}
