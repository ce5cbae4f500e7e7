//! Model tests: the document store against a `BTreeMap` model, in both
//! modes, with interleaved commits and compactions. Deterministic seeded
//! op-sequence sweeps (see `share_rng::sweep`).

use mini_couch::{doc_payload_per_block, CouchConfig, CouchMode, CouchStore};
use share_core::{BlockDevice, DeviceStats, Ftl, FtlConfig, FtlError, Lpn, SharePair};
use share_rng::{sweep, Rng, StdRng};
use share_vfs::{Vfs, VfsOptions};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Save { key: u64, len: usize, fill: u8 },
    Delete { key: u64 },
    Get { key: u64 },
    Commit,
    Compact,
}

/// Weighted op choice matching the retired proptest strategy (6:2:3:1:1).
fn gen_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..13u32) {
        0..=5 => Op::Save {
            key: rng.random_range(0u64..100),
            len: rng.random_range(1usize..6000),
            fill: rng.random(),
        },
        6..=7 => Op::Delete { key: rng.random_range(0u64..100) },
        8..=10 => Op::Get { key: rng.random_range(0u64..100) },
        11 => Op::Commit,
        _ => Op::Compact,
    }
}

fn gen_ops(rng: &mut StdRng, min: usize, max: usize) -> Vec<Op> {
    let len = rng.random_range(min..max);
    (0..len).map(|_| gen_op(rng)).collect()
}

fn ftl() -> Ftl {
    Ftl::new(FtlConfig::for_capacity_with(96 << 20, 0.3, 4096, 64, nand_sim::NandTiming::zero()))
}

fn store(mode: CouchMode, batch: usize) -> CouchStore<Ftl> {
    let fs = Vfs::format(ftl(), VfsOptions::default()).unwrap();
    CouchStore::create(
        fs,
        "prop.couch",
        CouchConfig { mode, batch_size: batch, node_max_entries: 8, ..Default::default() },
    )
    .unwrap()
}

fn run_case(mode: CouchMode, batch: usize, ops: &[Op]) {
    let mut s = store(mode, batch);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Save { key, len, fill } => {
                let v = vec![*fill; *len];
                s.save(*key, &v).unwrap();
                model.insert(*key, v);
            }
            Op::Delete { key } => {
                s.delete(*key).unwrap();
                model.remove(key);
            }
            Op::Get { key } => {
                assert_eq!(s.get(*key).unwrap(), model.get(key).cloned(), "get({key}) diverged");
            }
            Op::Commit => s.commit().unwrap(),
            Op::Compact => {
                let r = s.compact().unwrap();
                assert_eq!(r.zero_copy, mode == CouchMode::Share);
            }
        }
    }
    s.commit().unwrap();
    for (key, want) in &model {
        assert_eq!(s.get(*key).unwrap().as_ref(), Some(want), "final get({key})");
    }
    assert_eq!(s.doc_count(), model.len() as u64, "doc_count diverged");

    // Reopen cycle preserves the committed state exactly.
    let fs = s.into_fs();
    let mut s2 = CouchStore::open(fs, "prop.couch", CouchConfig::default()).unwrap();
    for (key, want) in &model {
        assert_eq!(s2.get(*key).unwrap().as_ref(), Some(want), "reopen get({key})");
    }
}

fn sweep_mode(suite: &str, mode: CouchMode) {
    for (_case, mut rng) in sweep(suite, 20) {
        let ops = gen_ops(&mut rng, 1, 100);
        let batch = rng.random_range(1usize..10);
        run_case(mode, batch, &ops);
    }
}

#[test]
fn original_mode_matches_model() {
    sweep_mode("couch/original_mode_matches_model", CouchMode::Original);
}

#[test]
fn share_mode_matches_model() {
    sweep_mode("couch/share_mode_matches_model", CouchMode::Share);
}

// ----- read-your-writes -----------------------------------------------------

/// One store per mode, driven in lockstep; every read is checked against the
/// model in both, so the modes agree with it and with each other.
struct Twins {
    stores: [CouchStore<Ftl>; 2],
    model: BTreeMap<u64, Vec<u8>>,
}

impl Twins {
    fn save(&mut self, key: u64, doc: Vec<u8>) {
        for s in &mut self.stores {
            s.save(key, &doc).unwrap();
        }
        self.model.insert(key, doc);
    }

    fn delete(&mut self, key: u64) {
        for s in &mut self.stores {
            s.delete(key).unwrap();
        }
        self.model.remove(&key);
    }

    /// `get` of `key`, then one `get_many` over every key (and a missing one).
    fn assert_reads(&mut self, key: u64, when: &str) {
        let keys: Vec<u64> = (0..RYW_KEYS + 1).collect();
        for (s, mode) in self.stores.iter_mut().zip(MODES) {
            assert_eq!(s.get(key).unwrap().as_ref(), self.model.get(&key), "{when}: {mode:?} get({key})");
            for (k, got) in keys.iter().zip(s.get_many(&keys).unwrap()) {
                assert_eq!(got.as_ref(), self.model.get(k), "{when}: {mode:?} get_many key {k}");
            }
        }
    }
}

const RYW_KEYS: u64 = 12;
const MODES: [CouchMode; 2] = [CouchMode::Original, CouchMode::Share];

fn random_doc(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill(v.as_mut_slice());
    v
}

/// SHARE mode used to serve a same-size update from the old location until
/// its commit (`current_of` did not look at the updates awaiting a remap) while
/// `CouchMode::Original` served the new copy: a mode divergence above the
/// file, where SHARE is meant to be invisible. Reads are interleaved with
/// uncommitted same-size updates (a key updated twice in one batch included),
/// resizes, deletes and re-inserts; the batch size is never reached, so every
/// commit and compaction is one the sequence asks for.
///
/// The commit-time trim of the remapped copies cannot reach such a read: it
/// runs after the remap, when nothing is pending any more — which is also why
/// this fix moves no `ycsb_a_couch` row (the driver commits before it reads).
#[test]
fn uncommitted_updates_read_back_in_both_modes() {
    let per = doc_payload_per_block(4096);
    let len_of = |key: u64| [10, per, per + 1, 16_000][key as usize % 4];
    for (case, mut rng) in sweep("couch/read_your_writes", 12) {
        let mut steps = rng.clone();
        let mut doc = |key: u64, grow: usize| random_doc(&mut rng, len_of(key) + grow);
        let stores = MODES.map(|mode| store(mode, 1 << 20));
        let mut t = Twins { stores, model: BTreeMap::new() };
        for key in 0..RYW_KEYS {
            t.save(key, doc(key, 0));
        }
        t.stores.iter_mut().for_each(|s| s.commit().unwrap());

        // The pinned sequence: update, read, update the same key again, read,
        // commit, read.
        t.save(3, doc(3, 0));
        t.assert_reads(3, "updated once");
        t.save(3, doc(3, 0));
        t.assert_reads(3, "updated twice in one batch");
        t.stores.iter_mut().for_each(|s| s.commit().unwrap());
        t.assert_reads(3, "committed");

        for step in 0..60 {
            let key = steps.random_range(0..RYW_KEYS);
            let when = format!("case {case} step {step}");
            match steps.random_range(0..16u32) {
                0..=8 => t.save(key, doc(key, 0)),
                9..=10 => t.save(key, doc(key, 1 + key as usize)),
                11 => t.delete(key),
                12..=13 => t.stores.iter_mut().for_each(|s| s.commit().unwrap()),
                14 => t.stores.iter_mut().for_each(|s| s.compact().map(drop).unwrap()),
                _ => {}
            }
            t.assert_reads(key, &when);
        }
        let [original, share] = t.stores.each_ref().map(|s| s.stats());
        assert_eq!((original.share_remaps, original.share_fallbacks), (0, 0));
        assert!(share.share_remaps >= 10, "the sequence must take the remap path: {share:?}");
    }
}

// ----- reassembly ---------------------------------------------------------

/// The FTL with its submission queue hidden: `get_many` and `save_many` take
/// their serial paths, SHARE still works.
struct SyncOnly(Ftl);

impl BlockDevice for SyncOnly {
    fn page_size(&self) -> usize {
        self.0.page_size()
    }
    fn capacity_pages(&self) -> u64 {
        self.0.capacity_pages()
    }
    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.0.read(lpn, buf)
    }
    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.0.write(lpn, data)
    }
    fn flush(&mut self) -> Result<(), FtlError> {
        self.0.flush()
    }
    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.0.trim(lpn, len)
    }
    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        self.0.read_batch(reqs)
    }
    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.0.write_batch(pages)
    }
    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.0.share(pairs)
    }
    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.0.share_batch(pairs)
    }
    fn share_batch_limit(&self) -> usize {
        self.0.share_batch_limit()
    }
    fn stats(&self) -> DeviceStats {
        self.0.stats()
    }
    fn clock(&self) -> &nand_sim::SimClock {
        self.0.clock()
    }
}

/// Every committed document reads back as exactly the bytes last saved,
/// through each read path: `get`, `get_many` (a repeated and a missing key
/// in the batch) and `get_by_seq`.
fn assert_reads<D: BlockDevice>(s: &mut CouchStore<D>, model: &BTreeMap<u64, Vec<u8>>, when: &str) {
    for (key, want) in model {
        assert_eq!(s.get(*key).unwrap().as_ref(), Some(want), "{when}: get({key})");
    }
    let first = *model.keys().next().unwrap();
    let keys: Vec<u64> = model.keys().copied().chain([first, 1 << 40]).collect();
    let got = s.get_many(&keys).unwrap();
    assert_eq!(got.len(), keys.len());
    for (key, got) in keys.iter().zip(got) {
        assert_eq!(got.as_ref(), model.get(key), "{when}: get_many key {key}");
    }
    let changes = s.changes_since(0).unwrap();
    assert_eq!(changes.len(), model.len(), "{when}: by-seq index size");
    for (seq, key, _) in changes {
        let (k, doc) = s.get_by_seq(seq).unwrap().expect("listed sequence resolves");
        assert_eq!((k, &doc), (key, &model[&key]), "{when}: get_by_seq({seq})");
    }
}

/// Documents of every length around the block boundaries go in through
/// `save` and `save_many`, are updated in place (same size: the SHARE remap
/// in `CouchMode::Share`) and resized, and must come back byte for byte
/// before and after a compaction and after a reopen.
fn reassembly_case<D: BlockDevice>(dev: D, mode: CouchMode, rng: &mut StdRng) {
    let per = doc_payload_per_block(4096);
    let cfg = CouchConfig { mode, batch_size: 5, node_max_entries: 8, ..Default::default() };
    let fs = Vfs::format(dev, VfsOptions::default()).unwrap();
    let mut s = CouchStore::create(fs, "sweep.couch", cfg.clone()).unwrap();
    let mut lens = vec![0, 1, per - 1, per, per + 1, 2 * per, 16_000];
    lens.extend((0..5).map(|_| rng.random_range(0..=8 * per)));
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut doc = |len: usize| {
        let mut v = vec![0u8; len];
        rng.fill(v.as_mut_slice());
        v
    };
    for (key, &len) in lens.iter().enumerate() {
        model.insert(key as u64, doc(len));
    }
    let (serial, grouped): (Vec<_>, Vec<_>) = model.iter().partition(|(k, _)| *k % 2 == 0);
    for (key, d) in serial {
        s.save(*key, d).unwrap();
    }
    let batch: Vec<(u64, &[u8])> = grouped.iter().map(|(k, d)| (**k, d.as_slice())).collect();
    s.save_many(&batch).unwrap();
    s.commit().unwrap();
    assert_reads(&mut s, &model, "loaded");

    // Same-size rewrites of two thirds of the documents, a resize of the rest.
    for (key, d) in model.iter_mut() {
        *d = doc(if key % 3 == 0 { (d.len() + per / 2) % (8 * per) } else { d.len() });
    }
    let batch: Vec<(u64, &[u8])> = model.iter().map(|(k, d)| (*k, d.as_slice())).collect();
    s.save_many(&batch).unwrap();
    s.commit().unwrap();
    assert_eq!(s.stats().share_remaps > 0, mode == CouchMode::Share);
    assert_reads(&mut s, &model, "updated");

    let report = s.compact().unwrap();
    assert_eq!(report.docs_moved, model.len() as u64);
    assert_eq!(report.zero_copy, mode == CouchMode::Share);
    assert_reads(&mut s, &model, "compacted");

    let mut s = CouchStore::open(s.into_fs(), "sweep.couch", cfg).unwrap();
    assert_reads(&mut s, &model, "reopened");
}

#[test]
fn documents_reassemble_at_every_length_in_both_modes_with_and_without_a_queue() {
    for (_case, mut rng) in sweep("couch/reassembly", 6) {
        for mode in [CouchMode::Original, CouchMode::Share] {
            reassembly_case(ftl(), mode, &mut rng);
            reassembly_case(SyncOnly(ftl()), mode, &mut rng);
        }
    }
}

// ----- get_many's refilled slots --------------------------------------------

/// `get_many` refills one result vector, and its reads land in buffers that
/// an earlier call's documents gave back. Three consecutive calls of 16, 3
/// and 16 keys, with documents of one to six blocks, so a lent buffer is
/// longer or shorter than the read, a missing key, a repeated key, and keys
/// deleted or resized between calls: every slot of every call equals the
/// model, so no slot keeps an earlier call's document and no read shows a
/// lent buffer's old bytes.
fn refilled_slots_case<D: BlockDevice>(dev: D, mode: CouchMode) {
    let per = doc_payload_per_block(4096);
    let cfg = CouchConfig { mode, batch_size: 4, node_max_entries: 8 };
    let fs = Vfs::format(dev, VfsOptions::default()).unwrap();
    let mut s = CouchStore::create(fs, "slots.couch", cfg).unwrap();
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for key in 0..24u64 {
        let d = vec![0x5A ^ key as u8; 1 + (key as usize * 997) % (6 * per)];
        s.save(key, &d).unwrap();
        model.insert(key, d);
    }
    s.commit().unwrap();
    let check = |s: &mut CouchStore<D>, model: &BTreeMap<u64, Vec<u8>>, keys: &[u64]| {
        let got = s.get_many(keys).unwrap();
        assert_eq!(got.len(), keys.len(), "{mode:?}: slots for {keys:?}");
        for (i, (key, got)) in keys.iter().zip(got).enumerate() {
            assert_eq!(got.as_ref(), model.get(key), "{mode:?}: slot {i}, key {key} of {keys:?}");
        }
    };
    let first: Vec<u64> = (0..14).chain([1_000, 3]).collect();
    check(&mut s, &model, &first);
    // Deleted and not yet committed: the pending delete answers.
    s.delete(5).unwrap();
    model.remove(&5);
    check(&mut s, &model, &[5, 20, 20]);
    // A slot that held a document now names a deleted key, a resized one or
    // a missing one.
    s.delete(0).unwrap();
    model.remove(&0);
    let shorter = vec![0xC3; 3];
    s.save(1, &shorter).unwrap();
    model.insert(1, shorter);
    s.commit().unwrap();
    let third: Vec<u64> = [0, 1, 2_000, 5, 4, 4].into_iter().chain(14..24).collect();
    check(&mut s, &model, &third);
}

#[test]
fn get_many_slots_hold_only_their_own_call() {
    for mode in [CouchMode::Original, CouchMode::Share] {
        refilled_slots_case(ftl(), mode);
        refilled_slots_case(SyncOnly(ftl()), mode);
    }
}
