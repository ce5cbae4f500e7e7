//! Integration tests for the mini-Couchbase store over the SHARE FTL.

use mini_couch::{CouchConfig, CouchError, CouchMode, CouchStore, DocPtr};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig};
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
fn auto_compaction_triggers_at_the_stale_threshold() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let fs = Vfs::format(Ftl::new(ftl_cfg(48)), VfsOptions::default()).unwrap();
        let mut s = CouchStore::create(
            fs,
            "test.couch",
            CouchConfig {
                mode,
                batch_size: 8,
                node_max_entries: 16,
                auto_compact_ratio: Some(0.6),
                auto_compact_min_blocks: 64,
            },
        )
        .unwrap();
        for k in 0..100u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        // Update churn drives the stale ratio past the threshold several
        // times; the store must compact itself and stay correct.
        for round in 2..20u64 {
            for k in 0..100u64 {
                s.save(k, &doc(k, round)).unwrap();
            }
        }
        s.commit().unwrap();
        assert!(s.stats().compactions >= 1, "{mode:?}: expected auto-compactions");
        assert!(s.stale_ratio() < 0.8, "{mode:?}: ratio {}", s.stale_ratio());
        for k in 0..100u64 {
            assert_eq!(s.get(k).unwrap(), Some(doc(k, 19)), "{mode:?} key {k}");
        }
    }
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
// The two loops below crash at *every* NAND program of their armed phase
// (counted on a fault-free run) under all three fault modes, on four-block
// documents over a four-channel device. There a document's submission starts
// one block later than the previous one's, a compaction writes its rebuilt
// index as one submission and a SHARE commit trims the copies it remapped:
// three sets of crash points the sampled indices these tests used before
// ([200, 500, 900, 1400] and [50, 200, 400], one-block documents, one channel,
// `TornHalf` only) never named.
//
// The first full run of the compaction loop found what the samples had missed
// since PR 1: `compact()` deletes the old file — trimming it — before the
// rename that replaces it is durable, the trims reach the medium with the next
// full log page, and a power cut after that left the file system's last
// snapshot naming a trimmed old file beside a complete `.compact` that `open`
// then deleted ("bad node block"; TornHalf at program 15 of 16 here, where a
// log page is small enough to fill mid-delete — any store of benchmark size).
// `open` now finishes a compaction whose new file already holds its header.

const CRASH_DOCS: u64 = 12;
const CRASH_GROUP: usize = 4;
/// Small pages keep ~1 000 recoveries inside seconds: unoptimised, the tests
/// spend their time checksumming.
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

/// A four-block document, every byte of which names its key and version: a
/// read that splices blocks of two versions equals no `doc4`. Key 5 is a block
/// shorter at odd versions, so its updates change size and take the tree path
/// (new nodes, a new header) inside otherwise remap-only commits.
fn doc4(key: u64, version: u64) -> Vec<u8> {
    let blocks = if key == 5 && version % 2 == 1 { 3 } else { 4 };
    let len = blocks * mini_couch::doc_payload_per_block(CRASH_BS) - 100;
    let mut v = vec![(key * 16 + version) as u8; len];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// `CRASH_DOCS` documents at version 1, committed.
fn crash_store() -> CouchStore<Ftl> {
    assert_eq!(mini_couch::doc_blocks(doc4(0, 1).len(), CRASH_BS), 4);
    let fs = Vfs::format(Ftl::new(crash_cfg()), VfsOptions::default()).unwrap();
    let mut s = CouchStore::create(fs, "crash.couch", crash_couch_cfg()).unwrap();
    for k in 0..CRASH_DOCS {
        s.save(k, &doc4(k, 1)).unwrap();
    }
    s.commit().unwrap();
    s
}

/// Every document rewritten once per version in `versions`, in scattered
/// groups of `CRASH_GROUP` through the queued path, a commit per group (the
/// batch size). Stops at the first error. Returns each document's last
/// committed version and the last version a save was attempted with.
fn update_rounds(
    s: &mut CouchStore<Ftl>,
    versions: std::ops::RangeInclusive<u64>,
) -> (Vec<u64>, Vec<u64>) {
    let first = *versions.start() - 1;
    let mut committed = vec![first; CRASH_DOCS as usize];
    let mut attempted = committed.clone();
    for version in versions {
        let docs: Vec<(u64, Vec<u8>)> =
            (0..CRASH_DOCS).map(|i| (i * 5) % CRASH_DOCS).map(|k| (k, doc4(k, version))).collect();
        for group in docs.chunks(CRASH_GROUP) {
            let lent: Vec<(u64, &[u8])> = group.iter().map(|(k, d)| (*k, &d[..])).collect();
            group.iter().for_each(|(k, _)| attempted[*k as usize] = version);
            if s.save_many(&lent).is_err() {
                return (committed, attempted);
            }
            group.iter().for_each(|(k, _)| committed[*k as usize] = version);
        }
    }
    (committed, attempted)
}

/// Power-cycle the store's medium and recover the whole stack over it.
fn recover(mut s: CouchStore<Ftl>) -> CouchStore<Ftl> {
    s.fs_mut().device_mut().fault_handle().disarm();
    let nand = s.into_fs().into_device().into_nand();
    let fs = Vfs::open(Ftl::open(crash_cfg(), nand).unwrap(), VfsOptions::default()).unwrap();
    CouchStore::open(fs, "crash.couch", crash_couch_cfg()).unwrap()
}

/// Every document reads back whole, at its committed version or the one in
/// flight — never older, never a splice — through `get` and `get_many`.
fn assert_recovered(s: &mut CouchStore<Ftl>, committed: &[u64], attempted: &[u64], when: &str) {
    let keys: Vec<u64> = (0..CRASH_DOCS).collect();
    let many = s.get_many(&keys).unwrap();
    for (k, many) in keys.iter().zip(many) {
        let got = s.get(*k).unwrap().unwrap_or_else(|| panic!("{when}: doc {k} is gone"));
        let version = u64::from_le_bytes(got[8..16].try_into().unwrap());
        let (c, a) = (committed[*k as usize], attempted[*k as usize]);
        assert!(version == c || version == a, "{when}: doc {k} reads v{version}, committed v{c}, in flight v{a}");
        assert!(got == doc4(*k, version), "{when}: doc {k} is not v{version} throughout");
        assert!(many.as_ref() == Some(&got), "{when}: get_many disagrees with get on doc {k}");
    }
}

#[test]
fn crash_during_workload_recovers_to_last_commit() {
    // Fault-free: what the armed phase does, and how many programs it is.
    let mut s = crash_store();
    let fault = s.fs_mut().device_mut().fault_handle();
    let (programs, stats, trims) = (fault.programs_seen(), s.stats(), s.device_stats().trims);
    let (committed, attempted) = update_rounds(&mut s, 2..=3);
    assert_eq!(committed, attempted);
    let points = fault.programs_seen() - programs;
    let remaps = s.stats().share_remaps - stats.share_remaps;
    assert!(remaps >= 2 * (CRASH_DOCS - 1) && s.stats().share_fallbacks > stats.share_fallbacks);
    assert_eq!(s.device_stats().trims - trims, 4 * remaps, "every remapped copy trimmed at its commit");
    assert!(points > 8 * CRASH_DOCS, "two rounds of four-block documents: {points} programs");

    for mode in nand_sim::FaultMode::ALL {
        for crash_at in 1..=points {
            let mut s = crash_store();
            let fault = s.fs_mut().device_mut().fault_handle();
            fault.arm_after_programs(crash_at, mode);
            let (committed, attempted) = update_rounds(&mut s, 2..=3);
            assert_eq!(fault.faults_fired(), 1, "{mode:?} {crash_at}: the phase is {points} programs");
            let mut s = recover(s);
            let when = format!("{mode:?} crash at program {crash_at} of {points}");
            assert_recovered(&mut s, &committed, &attempted, &when);
            // The recovered store carries on: one more round over whatever the
            // crash left (remapped and trimmed, remapped only, or neither).
            let (next, _) = update_rounds(&mut s, 9..=9);
            assert_recovered(&mut s, &next, &next, &format!("{when}, next round"));
        }
    }
}

#[test]
fn crash_during_compaction_keeps_old_file_usable() {
    let aged_store = || {
        let mut s = crash_store();
        update_rounds(&mut s, 2..=4);
        s.commit().unwrap();
        s
    };
    let mut s = aged_store();
    let fault = s.fs_mut().device_mut().fault_handle();
    let programs = fault.programs_seen();
    let report = s.compact().unwrap();
    assert!(report.zero_copy && report.docs_moved == CRASH_DOCS);
    let points = fault.programs_seen() - programs;
    assert!(points >= 8, "index, header, remap log and metadata: {points} programs");

    let v4 = vec![4u64; CRASH_DOCS as usize];
    for mode in nand_sim::FaultMode::ALL {
        for crash_at in 1..=points {
            let mut s = aged_store();
            let fault = s.fs_mut().device_mut().fault_handle();
            fault.arm_after_programs(crash_at, mode);
            let crashed = s.compact().is_err();
            assert_eq!(fault.faults_fired(), 1, "{mode:?} {crash_at}: a compaction is {points} programs");
            let mut s = recover(s);
            let when = format!("{mode:?} crash at program {crash_at} of {points} (compact failed: {crashed})");
            assert_recovered(&mut s, &v4, &v4, &when);
            // Whichever file survived compacts (again) and takes updates.
            assert!(s.compact().unwrap().zero_copy, "{when}");
            let (next, _) = update_rounds(&mut s, 6..=6);
            assert_recovered(&mut s, &next, &next, &format!("{when}, next round"));
        }
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
        assert_recovered(&mut s, &committed, &committed, &when);
        let (next, _) = update_rounds(&mut s, 4..=4);
        assert_recovered(&mut s, &next, &next, &format!("{when}, next round"));
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

#[test]
fn online_backup_is_consistent_despite_foreground_writes() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        let mut s = store(mode, 8);
        assert!(s.supports_snapshot());
        for k in 0..120u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        s.commit().unwrap();
        let count_at_backup = s.doc_count();
        let before = s.device_stats();
        let frozen = s.begin_backup("nightly").unwrap();
        assert!(frozen > 0);
        // Snapshot creation itself writes no data pages (the commit above
        // already flushed; only the share-snapshot bookkeeping runs).
        let spent = s.device_stats().delta_since(&before);
        assert!(
            spent.nand.page_programs <= spent.meta_page_writes,
            "{mode:?}: backup copied data pages"
        );
        // Foreground keeps writing while the backup is held: updates,
        // inserts and deletes all land after the freeze point.
        for k in 0..120u64 {
            s.save(k, &doc(k, 2)).unwrap();
        }
        for k in 200..240u64 {
            s.save(k, &doc(k, 1)).unwrap();
        }
        for k in 0..10u64 {
            s.delete(k).unwrap();
        }
        s.commit().unwrap();
        s.finish_backup("nightly", "test.bak").unwrap();
        // The backup opens as a database frozen at begin_backup time.
        let fs = s.into_fs();
        let cfg = CouchConfig { mode, batch_size: 8, node_max_entries: 16, ..Default::default() };
        let mut bak = CouchStore::open(fs, "test.bak", cfg.clone()).unwrap();
        assert_eq!(bak.doc_count(), count_at_backup, "{mode:?}: backup count diverged");
        for k in 0..120u64 {
            assert_eq!(bak.get(k).unwrap(), Some(doc(k, 1)), "{mode:?}: backup key {k}");
        }
        assert_eq!(bak.get(200).unwrap(), None, "{mode:?}: post-backup insert leaked in");
        // The live database still has every post-backup change.
        let fs = bak.into_fs();
        let mut live = CouchStore::open(fs, "test.couch", cfg).unwrap();
        for k in 10..120u64 {
            assert_eq!(live.get(k).unwrap(), Some(doc(k, 2)), "{mode:?}: live key {k}");
        }
        assert_eq!(live.get(0).unwrap(), None, "{mode:?}: delete lost");
        for k in 200..240u64 {
            assert_eq!(live.get(k).unwrap(), Some(doc(k, 1)), "{mode:?}: insert lost");
        }
        live.fs_mut().device_mut().check_invariants();
    }
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
