//! The range scan's read-ahead (`prefetch_keys`, `scan`) on a four-channel
//! `Ftl`, pinned with the engine's read counters: which leaves a link-list
//! scan reads, and whether it reads them one at a time
//! (`EngineStats::pages_read_serial`) or inside a batched submission
//! (`EngineStats::pages_read_batched`). Each case reads the tree's shape
//! back from the tablespace after a checkpoint, so it names the leaves and
//! parents it expects instead of guessing them. A seeded sweep then checks
//! that read-ahead never changes an answer: `get_link_list`, with and
//! without `prefetch_keys`, against a `BTreeMap` model.

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig, Key, NodePage};
use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig};
use share_rng::{sweep, Rng, StdRng};
use std::collections::{BTreeMap, BTreeSet};

/// Link rows by (id1, type, id2).
type Model = BTreeMap<(u64, u32, u64), Vec<u8>>;

/// Bytes of one link row in the shaped trees: a 4 KiB leaf holds about
/// five, so a list of a dozen rows covers several leaves.
const ROW: usize = 700;

/// Lists in the shaped tree.
const LISTS: u64 = 80;

fn create(page_bytes: usize, pool_pages: usize) -> InnoDb<Ftl> {
    let max_pages = 1_024;
    let logical = max_pages * page_bytes as u64 + (8 << 20);
    let fcfg = FtlConfig::for_capacity_with(logical, 0.3, 4096, 32, NandTiming::zero())
        .with_parallelism(4, 1);
    let dev = Ftl::new(fcfg);
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig {
        mode: FlushMode::Share,
        page_bytes,
        pool_pages,
        max_pages,
        ckpt_redo_bytes: 1 << 20,
        ..Default::default()
    };
    InnoDb::create(dev, log, cfg).unwrap()
}

/// The same database with an empty pool: shut down and reopen it.
fn reopen(mut db: InnoDb<Ftl>) -> InnoDb<Ftl> {
    db.shutdown().unwrap();
    let cfg = db.config().clone();
    let (data, log) = db.into_devices();
    InnoDb::open(data, log, cfg).unwrap()
}

/// `lists` link lists (id1 = 0.., type 0), list `i` holding `len(i)` rows
/// of [`ROW`] bytes, loaded in key order, and their model. Only link rows:
/// a split halves a leaf by entry count, so a leaf of count rows and long
/// link rows can split into a half with no room for the next long row.
fn load(lists: u64, len: impl Fn(u64) -> u64, pool_pages: usize) -> (InnoDb<Ftl>, Model) {
    let mut db = create(4096, pool_pages);
    let mut model = Model::new();
    for id1 in 0..lists {
        for id2 in 0..len(id1) {
            let row = vec![(id1 ^ id2) as u8; ROW];
            db.upsert_kv(Key::link(id1, 0, id2), row.clone()).unwrap();
            db.commit().unwrap();
            model.insert((id1, 0, id2), row);
        }
    }
    (db, model)
}

/// The model's rows of the (id1, type) list, as `get_link_list` returns them.
fn want(model: &Model, id1: u64, typ: u32) -> Vec<(u64, Vec<u8>)> {
    model.range((id1, typ, 0)..(id1, typ, u64::MAX)).map(|(k, v)| (k.2, v.clone())).collect()
}

/// The tree as the tablespace holds it after a checkpoint: its height and
/// the leaves' parents in key order, each as its (separator, leaf) entries.
struct Shape {
    height: u16,
    parents: Vec<Vec<(Key, u64)>>,
}

impl Shape {
    fn read(db: &mut InnoDb<Ftl>) -> Shape {
        db.checkpoint().unwrap();
        let (pages, page_bytes) = (db.page_count(), db.config().page_bytes);
        let fs = db.fs_mut();
        let (dps, ts) = (fs.page_size(), fs.lookup("ibdata").unwrap());
        let ppd = (page_bytes / dps) as u64;
        let mut img = vec![0u8; page_bytes];
        let (mut height, mut parents) = (0, Vec::new());
        for no in 0..pages {
            for (j, chunk) in img.chunks_mut(dps).enumerate() {
                fs.read_page(ts, no * ppd + j as u64, chunk).unwrap();
            }
            let p = NodePage::decode(&img).unwrap();
            height = height.max(p.level + 1);
            if p.level == 1 {
                let entries = (0..p.len()).map(|i| (p.key_at(i), p.child_at(i)));
                parents.push(entries.collect::<Vec<_>>());
            }
        }
        parents.sort_by_key(|entries: &Vec<(Key, u64)>| entries[0].0);
        Shape { height, parents }
    }

    /// The leaves `[lo, hi)` covers, in key order, grouped by parent: the
    /// leaf `lo` falls in, then every later leaf whose separator is below
    /// `hi`.
    fn groups(&self, lo: &Key, hi: &Key) -> Vec<Vec<u64>> {
        let flat: Vec<(usize, Key, u64)> = self
            .parents
            .iter()
            .enumerate()
            .flat_map(|(i, entries)| entries.iter().map(move |&(sep, leaf)| (i, sep, leaf)))
            .collect();
        let first = flat.iter().rposition(|&(_, sep, _)| sep <= *lo).unwrap();
        let mut groups: Vec<Vec<u64>> = Vec::new();
        let mut last_parent = usize::MAX;
        let covered = flat[first + 1..].iter().take_while(|&&(_, sep, _)| sep < *hi);
        for &(parent, _, leaf) in std::iter::once(&flat[first]).chain(covered) {
            if parent != last_parent {
                groups.push(Vec::new());
                last_parent = parent;
            }
            groups.last_mut().unwrap().push(leaf);
        }
        groups
    }

    /// The leaves of the (id1, 0) list, grouped by parent.
    fn list(&self, id1: u64) -> Vec<Vec<u64>> {
        self.groups(&Key::link_range_start(id1, 0), &Key::link_range_end(id1, 0))
    }

    /// The index of `leaf`'s parent.
    fn parent_of(&self, leaf: u64) -> usize {
        self.parents.iter().position(|entries| entries.iter().any(|e| e.1 == leaf)).unwrap()
    }

    /// Whether `leaf` is the last child of its parent.
    fn is_last_child(&self, leaf: u64) -> bool {
        self.parents.iter().any(|entries| entries.last().unwrap().1 == leaf)
    }
}

/// `f`'s result and the engine pages it read serially and batched.
fn reads<R>(db: &mut InnoDb<Ftl>, f: impl FnOnce(&mut InnoDb<Ftl>) -> R) -> (R, u64, u64) {
    let s0 = db.stats();
    let r = f(db);
    let s = db.stats();
    (r, s.pages_read_serial - s0.pages_read_serial, s.pages_read_batched - s0.pages_read_batched)
}

/// A tree three levels high: 80 lists of 4–14 rows, one to six leaves each,
/// under several parents.
fn shaped(pool_pages: usize) -> (InnoDb<Ftl>, Model, Shape) {
    let (mut db, model) = load(LISTS, |i| 4 + (i * 7) % 11, pool_pages);
    let shape = Shape::read(&mut db);
    assert_eq!(shape.height, 3, "the lists need leaves under more than one parent");
    (reopen(db), model, shape)
}

/// The first list whose covered leaves satisfy `pick`.
fn find_list(shape: &Shape, pick: impl Fn(&[Vec<u64>]) -> bool) -> (u64, Vec<Vec<u64>>) {
    (0..LISTS)
        .map(|id1| (id1, shape.list(id1)))
        .find(|(_, groups)| pick(groups))
        .expect("the shaped tree holds such a list")
}

#[test]
fn a_prefetched_list_reads_no_leaf_serially() {
    let (mut db, model, shape) = shaped(256);
    let (id1, groups) = find_list(&shape, |g| g.len() == 1 && g[0].len() >= 3);
    let k = groups[0].len() as u64;
    let ((), serial, batched) =
        reads(&mut db, |db| db.prefetch_keys(&[Key::link_range_start(id1, 0)]).unwrap());
    // One batched read per level: the root, the parent, then the list's leaves.
    assert_eq!((serial, batched), (0, 2 + k), "prefetch of list {id1} ({k} leaves)");
    let (rows, serial, batched) = reads(&mut db, |db| db.get_link_list(id1, 0).unwrap().to_vec());
    assert_eq!(rows, want(&model, id1, 0));
    assert_eq!((serial, batched), (0, 0), "list {id1} after its prefetch");
}

#[test]
fn an_unprefetched_list_reads_its_leaves_in_one_batch() {
    let (mut db, model, shape) = shaped(256);
    let (id1, groups) = find_list(&shape, |g| g.len() == 1 && g[0].len() >= 3);
    let k = groups[0].len() as u64;
    let (rows, serial, batched) = reads(&mut db, |db| db.get_link_list(id1, 0).unwrap().to_vec());
    assert_eq!(rows, want(&model, id1, 0));
    // The root and the parent on the way down, then the k leaves together:
    // the chain walk read them one by one.
    assert_eq!((serial, batched), (2, k), "list {id1} ({k} leaves) on a cold pool");
}

#[test]
fn a_list_ending_at_its_parents_last_child_reads_no_leaf_past_it() {
    let (mut db, model, shape) = shaped(256);
    let (id1, groups) = find_list(&shape, |g| {
        g.len() == 1 && g[0].len() >= 2 && shape.is_last_child(*g[0].last().unwrap())
    });
    let k = groups[0].len() as u64;
    for prefetch in [false, true] {
        db = reopen(db);
        let ((), s0, b0) = reads(&mut db, |db| {
            if prefetch {
                db.prefetch_keys(&[Key::link_range_start(id1, 0)]).unwrap();
            }
        });
        let (rows, serial, batched) =
            reads(&mut db, |db| db.get_link_list(id1, 0).unwrap().to_vec());
        assert_eq!(rows, want(&model, id1, 0));
        // The root, the parent and the list's k leaves: not the next parent,
        // not the first leaf under it (the chain walk read that leaf to find
        // its first key past the list).
        assert_eq!(s0 + serial + b0 + batched, 2 + k, "list {id1}, prefetch {prefetch}");
    }
}

#[test]
fn a_list_crossing_a_parent_boundary_reads_each_parents_leaves_in_one_batch() {
    let (mut db, model, shape) = shaped(256);
    let (id1, groups) = find_list(&shape, |g| g.len() == 2 && g.iter().all(|g| g.len() >= 2));
    let (k1, k2) = (groups[0].len() as u64, groups[1].len() as u64);
    let (rows, serial, batched) = reads(&mut db, |db| db.get_link_list(id1, 0).unwrap().to_vec());
    assert_eq!(rows, want(&model, id1, 0));
    // The root, then per parent: the parent alone and its leaves together.
    assert_eq!((serial, batched), (3, k1 + k2), "list {id1} over {k1} + {k2} leaves");
    // Prefetched, the round's batch holds the first parent's leaves; the
    // scan reads the second parent and its leaves.
    let mut db = reopen(db);
    let ((), serial, batched) =
        reads(&mut db, |db| db.prefetch_keys(&[Key::link_range_start(id1, 0)]).unwrap());
    assert_eq!((serial, batched), (0, 2 + k1));
    let (rows, serial, batched) = reads(&mut db, |db| db.get_link_list(id1, 0).unwrap().to_vec());
    assert_eq!(rows, want(&model, id1, 0));
    assert_eq!((serial, batched), (1, k2));
}

#[test]
fn a_link_to_node_zero_reads_its_list_like_a_list_start() {
    // Every list holds id2 = 0, so its key is the list's lowest key.
    let (mut db, model, shape) = shaped(256);
    let (id1, groups) = find_list(&shape, |g| g.len() == 1 && g[0].len() >= 3);
    let k = groups[0].len() as u64;
    let ((), serial, batched) =
        reads(&mut db, |db| db.prefetch_keys(&[Key::link(id1, 0, 0)]).unwrap());
    assert_eq!((serial, batched), (0, 2 + k), "the point key reads the whole list");
    let (row, serial, batched) = reads(&mut db, |db| db.get(&Key::link(id1, 0, 0)).unwrap());
    assert_eq!(row.as_ref(), model.get(&(id1, 0, 0)));
    assert_eq!((serial, batched), (0, 0));
    assert_eq!(db.get_link_list(id1, 0).unwrap(), want(&model, id1, 0));
    // Any other id2 reads its own leaf only.
    let mut db = reopen(db);
    let ((), _, batched) =
        reads(&mut db, |db| db.prefetch_keys(&[Key::link(id1, 0, 1)]).unwrap());
    assert_eq!(batched, 3, "root, parent, one leaf");
}

#[test]
fn a_prefetch_reads_at_most_a_quarter_of_the_pool() {
    // 64 frames: a leaf batch reads at most 16 pages. Lists of 120 rows
    // cover some fifty leaves each.
    let (mut db, model) = load(12, |_| 120, 64);
    let shape = Shape::read(&mut db);
    let mut db = reopen(db);
    let (id1, groups) = (0..12)
        .map(|id1| (id1, shape.list(id1)))
        .find(|(_, g)| g[0].len() > 16)
        .expect("a list with more than 16 leaves under its first parent");
    let levels = shape.height as u64 - 1;
    let ((), serial, batched) =
        reads(&mut db, |db| db.prefetch_keys(&[Key::link_range_start(id1, 0)]).unwrap());
    let first_parent = groups[0].len();
    assert_eq!((serial, batched), (0, levels + 16), "{first_parent} leaves under the first parent");
    assert_eq!(db.get_link_list(id1, 0).unwrap(), want(&model, id1, 0));
    // All twelve list starts at once: their first leaves take twelve of
    // the batch's sixteen pages, and the first list's later leaves the rest.
    let mut db = reopen(db);
    let starts: Vec<Key> = (0..12).map(|id1| Key::link_range_start(id1, 0)).collect();
    let firsts: Vec<u64> = (0..12).map(|id1| shape.list(id1)[0][0]).collect();
    let parents: BTreeSet<usize> = firsts.iter().map(|&leaf| shape.parent_of(leaf)).collect();
    assert_eq!(firsts.iter().collect::<BTreeSet<_>>().len(), 12);
    let ((), serial, batched) = reads(&mut db, |db| db.prefetch_keys(&starts).unwrap());
    assert_eq!((serial, batched), (0, 1 + parents.len() as u64 + 16));
    for id1 in 0..12 {
        assert_eq!(db.get_link_list(id1, 0).unwrap(), want(&model, id1, 0), "list {id1}");
    }
}

/// The lists of a sweep case: `ids` × `types` hold rows, and one more id1
/// and one more type stay empty.
struct Lists {
    ids: u64,
    types: u32,
}

impl Lists {
    fn all(&self) -> Vec<(u64, u32)> {
        (0..self.ids + 1).flat_map(|id1| (0..self.types + 1).map(move |typ| (id1, typ))).collect()
    }

    /// `n` random adds and deletes; one row in eight links to node 0, the
    /// key of its list's start. Rows hold 8 to page/32 bytes: a split
    /// halves a leaf by entry count, and with rows up to the engine's
    /// quarter-page limit beside 8-byte count rows one half can be left
    /// without room for the row that caused the split.
    fn change(&self, db: &mut InnoDb<Ftl>, model: &mut Model, n: usize, rng: &mut StdRng) {
        let max_value = db.config().page_bytes / 32;
        for _ in 0..n {
            let (id1, typ) = (rng.random_range(0..self.ids), rng.random_range(0..self.types));
            let id2 = if rng.random_bool(0.125) { 0 } else { rng.random_range(0..128u64) };
            if rng.random_bool(0.2) {
                let existed = db.delete_link(id1, typ, id2).unwrap();
                assert_eq!(existed, model.remove(&(id1, typ, id2)).is_some());
            } else {
                let row = vec![rng.random::<u8>(); rng.random_range(8..=max_value)];
                db.add_link(id1, typ, id2, &row).unwrap();
                model.insert((id1, typ, id2), row);
            }
        }
    }

    /// Every list after one prefetch of every list start (a small pool
    /// trims it) and of point keys that collide with list starts; then a
    /// few lists at a time, as a LinkBench round asks for them.
    fn check_prefetched(&self, db: &mut InnoDb<Ftl>, model: &Model, rng: &mut StdRng) {
        let all = self.all();
        let mut keys: Vec<Key> =
            all.iter().map(|&(id1, typ)| Key::link_range_start(id1, typ)).collect();
        keys.extend((0..4).map(|_| Key::link(rng.random_range(0..self.ids), 0, 0)));
        db.prefetch_keys(&keys).unwrap();
        self.check(db, model, &all);
        for _ in 0..4 {
            let some: Vec<(u64, u32)> =
                (0..3).map(|_| all[rng.random_range(0..all.len())]).collect();
            let keys: Vec<Key> =
                some.iter().map(|&(id1, typ)| Key::link_range_start(id1, typ)).collect();
            db.prefetch_keys(&keys).unwrap();
            self.check(db, model, &some);
        }
    }

    fn check(&self, db: &mut InnoDb<Ftl>, model: &Model, lists: &[(u64, u32)]) {
        for &(id1, typ) in lists {
            let rows = db.get_link_list(id1, typ).unwrap();
            assert_eq!(rows, want(model, id1, typ), "({id1}, {typ})");
        }
    }
}

/// One seeded case: a random tree of link lists over `page_bytes` pages in
/// a pool of `pool_pages` frames, read with prefetch, read cold without it,
/// changed, and read again. Returns the database's page count.
fn check_case(rng: &mut StdRng, page_bytes: usize, pool_pages: usize) -> u64 {
    let mut db = create(page_bytes, pool_pages);
    let mut model = Model::new();
    let lists = Lists { ids: rng.random_range(1..12u64), types: rng.random_range(1..4u32) };
    let rows = rng.random_range(0..400usize);
    lists.change(&mut db, &mut model, rows, rng);
    lists.check_prefetched(&mut db, &model, rng);
    let mut db = reopen(db);
    lists.check(&mut db, &model, &lists.all());
    lists.change(&mut db, &mut model, rows / 2, rng);
    lists.check_prefetched(&mut db, &model, rng);
    db.page_count()
}

#[test]
fn read_ahead_never_changes_a_link_list() {
    let (mut cases, mut few_frames, mut whole_db, mut big_pages) = (0, 0, 0, 0);
    for (case, mut rng) in sweep("innodb/read_ahead_never_changes_a_link_list", 200) {
        let page_bytes = if rng.random_bool(0.5) { 4096 } else { 16_384 };
        let pool_pages = match rng.random_range(0..3u32) {
            0 => rng.random_range(8..16usize),
            1 => rng.random_range(16..128usize),
            _ => 1_024,
        };
        let pages = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_case(&mut rng, page_bytes, pool_pages)
        }))
        .unwrap_or_else(|_| panic!("case {case}: {page_bytes}-byte pages, {pool_pages} frames"));
        cases += 1;
        few_frames += usize::from(pool_pages < 16);
        whole_db += usize::from(pool_pages as u64 >= pages);
        big_pages += usize::from(page_bytes == 16_384);
    }
    if cases >= 50 {
        assert!(few_frames > 0 && whole_db > 0 && big_pages > 0 && big_pages < cases);
    }
}
