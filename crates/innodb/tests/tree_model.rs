//! Model tests: the engine's clustered B+tree against a `BTreeMap`
//! model, across all three flush modes, with tiny pools so eviction and
//! the DWB/SHARE protocols run constantly. Deterministic seeded
//! op-sequence sweeps (see `share_rng::sweep`).

use mini_innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig, Key};
use share_core::{Ftl, FtlConfig};
use share_rng::{sweep, Rng, StdRng};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Upsert { id: u64, len: usize, fill: u8 },
    Delete { id: u64 },
    Scan { lo: u64, hi: u64 },
}

/// The engine's largest row at its default 4 KiB page: a quarter page.
const MAX_ROW: usize = 1024;

/// Weighted op choice matching the retired proptest strategy (5:2:1). A
/// third of the rows are tiny (LinkBench's 8-byte count rows), the rest
/// up to the quarter-page limit, so a leaf can hold many short rows beside
/// a few long ones: splitting it in half by count can leave the half that
/// takes the new row as full as before.
fn gen_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..8u32) {
        0..=4 => Op::Upsert {
            id: rng.random_range(0u64..500),
            len: if rng.random_bool(1.0 / 3.0) {
                rng.random_range(1usize..9)
            } else {
                rng.random_range(1usize..=MAX_ROW)
            },
            fill: rng.random(),
        },
        5..=6 => Op::Delete { id: rng.random_range(0u64..500) },
        _ => {
            let a = rng.random_range(0u64..500);
            let b = rng.random_range(0u64..500);
            Op::Scan { lo: a.min(b), hi: a.max(b) }
        }
    }
}

fn gen_ops(rng: &mut StdRng, min: usize, max: usize) -> Vec<Op> {
    let len = rng.random_range(min..max);
    (0..len).map(|_| gen_op(rng)).collect()
}

fn engine(mode: FlushMode) -> InnoDb<Ftl> {
    let fcfg =
        FtlConfig::for_capacity_with(16 << 20, 0.4, 4096, 16, nand_sim::NandTiming::zero());
    let dev = Ftl::new(fcfg);
    let log = standard_log_device(share_core::BlockDevice::clock(&dev).clone());
    let cfg = InnoDbConfig {
        mode,
        pool_pages: 12,
        flush_batch: 4,
        max_pages: 2_048,
        ckpt_redo_bytes: 128 << 10,
        ..Default::default()
    };
    InnoDb::create(dev, log, cfg).unwrap()
}

fn check_model(db: &mut InnoDb<Ftl>, model: &BTreeMap<u64, Vec<u8>>) {
    for (&id, want) in model {
        assert_eq!(db.get(&Key::node(id)).unwrap().as_ref(), Some(want), "id {id}");
    }
    let all = db.scan(&Key::MIN, &Key::MAX).unwrap();
    assert_eq!(all.len(), model.len(), "row count diverged");
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
}

fn run_case(mode: FlushMode, ops: &[Op]) {
    let mut db = engine(mode);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Upsert { id, len, fill } => {
                let v = vec![*fill; *len];
                db.upsert_kv(Key::node(*id), v.clone()).unwrap();
                db.commit().unwrap();
                model.insert(*id, v);
            }
            Op::Delete { id } => {
                let existed = db.delete_kv(&Key::node(*id)).unwrap();
                db.commit().unwrap();
                assert_eq!(existed, model.remove(id).is_some(), "delete presence diverged");
            }
            Op::Scan { lo, hi } => {
                let got = db.scan(&Key::node(*lo), &Key::node(*hi)).unwrap();
                let want: Vec<u64> = model.range(*lo..*hi).map(|(&k, _)| k).collect();
                let got_ids: Vec<u64> = got
                    .iter()
                    .map(|(k, _)| u64::from_be_bytes(k.0[1..9].try_into().unwrap()))
                    .collect();
                assert_eq!(got_ids, want, "range scan diverged");
            }
        }
    }
    check_model(&mut db, &model);
    // Clean shutdown + reopen must preserve everything.
    db.shutdown().unwrap();
    let (data, log) = db.into_devices();
    let cfg = InnoDbConfig {
        mode,
        pool_pages: 12,
        flush_batch: 4,
        max_pages: 2_048,
        ckpt_redo_bytes: 128 << 10,
        ..Default::default()
    };
    let mut db2 = InnoDb::open(data, log, cfg).unwrap();
    check_model(&mut db2, &model);
}

fn sweep_mode(suite: &str, mode: FlushMode) {
    for (_case, mut rng) in sweep(suite, 24) {
        let ops = gen_ops(&mut rng, 1, 120);
        run_case(mode, &ops);
    }
}

#[test]
fn dwb_on_matches_model() {
    sweep_mode("innodb/dwb_on_matches_model", FlushMode::DwbOn);
}

#[test]
fn share_matches_model() {
    sweep_mode("innodb/share_matches_model", FlushMode::Share);
}

#[test]
fn dwb_off_matches_model() {
    sweep_mode("innodb/dwb_off_matches_model", FlushMode::DwbOff);
}
