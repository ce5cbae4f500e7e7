//! Model test of the reverse side of `MappingTable`: seeded sequences of
//! `map_new_write` / `map_shared` / `unmap` / `relocate` /
//! `rebuild_reverse` (see `share_rng::sweep`) on tables of 0–4 rev-map
//! slots and on unbounded ones, against a model built from sets.
//!
//! After every op each live page's `referrers` must be the L2P scan's LPNs
//! as a set, with the primary first while it is still mapped to the page;
//! a share is refused exactly when the model has no slot for it; and the
//! refcounts, `revmap().len()` and `free()` must be the model's.

use nand_sim::{NandGeometry, Ppn};
use share_core::{FtlError, Lpn, MappingTable};
use share_rng::{sweep, Rng, StdRng};
use std::collections::{BTreeMap, BTreeSet};

const LOGICAL: u64 = 24;
const OPS: usize = 300;

fn geometry() -> NandGeometry {
    NandGeometry::new(512, 4, 16)
}

/// The reverse state in sets: who primarily owns each page and its
/// slotted extras.
struct Model {
    l2p: Vec<Option<Ppn>>,
    primary: BTreeMap<Ppn, Lpn>,
    extras: BTreeMap<Ppn, BTreeSet<Lpn>>,
    capacity: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self {
            l2p: vec![None; LOGICAL as usize],
            primary: BTreeMap::new(),
            extras: BTreeMap::new(),
            capacity,
        }
    }

    /// The L2P scan: every LPN mapped to `ppn`, ascending.
    fn scan(&self, ppn: Ppn) -> Vec<Lpn> {
        let holders = self.l2p.iter().enumerate().filter(|(_, p)| **p == Some(ppn));
        holders.map(|(i, _)| Lpn(i as u64)).collect()
    }

    fn refcount(&self, ppn: Ppn) -> usize {
        self.l2p.iter().filter(|p| **p == Some(ppn)).count()
    }

    fn live(&self) -> BTreeSet<Ppn> {
        self.l2p.iter().flatten().copied().collect()
    }

    fn len(&self) -> usize {
        self.extras.values().map(BTreeSet::len).sum()
    }

    fn free(&self) -> usize {
        self.capacity.saturating_sub(self.len())
    }

    fn is_primary(&self, ppn: Ppn, lpn: Lpn) -> bool {
        self.primary.get(&ppn) == Some(&lpn)
    }

    fn unmap(&mut self, lpn: Lpn) {
        let Some(old) = self.l2p[lpn.0 as usize].take() else { return };
        if let Some(set) = self.extras.get_mut(&old) {
            set.remove(&lpn);
            if set.is_empty() {
                self.extras.remove(&old);
            }
        }
        if self.refcount(old) == 0 {
            self.extras.remove(&old);
        }
    }

    fn new_write(&mut self, lpn: Lpn, ppn: Ppn) {
        self.unmap(lpn);
        self.l2p[lpn.0 as usize] = Some(ppn);
        self.primary.insert(ppn, lpn);
    }

    /// The SHARE remap: a secondary reference takes a slot, and with none
    /// left the share is refused. A remap that drops a secondary reference
    /// elsewhere hands its slot over.
    fn share(&mut self, lpn: Lpn, ppn: Ppn) -> Result<(), FtlError> {
        let old = self.l2p[lpn.0 as usize];
        let frees = old.is_some_and(|o| !self.is_primary(o, lpn));
        let need = usize::from(!self.is_primary(ppn, lpn)).saturating_sub(usize::from(frees));
        if need > self.free() {
            return Err(FtlError::RevMapFull { capacity: self.capacity });
        }
        self.unmap(lpn);
        self.l2p[lpn.0 as usize] = Some(ppn);
        if !self.is_primary(ppn, lpn) {
            self.extras.entry(ppn).or_default().insert(lpn);
        }
        Ok(())
    }

    /// Recovery: the lowest LPN of each page becomes its primary, the rest
    /// take slots, and the table grows to hold them all.
    fn rebuild(&mut self) {
        self.primary.clear();
        self.extras.clear();
        for (i, ppn) in self.l2p.iter().enumerate() {
            let Some(ppn) = *ppn else { continue };
            if self.primary.contains_key(&ppn) {
                self.extras.entry(ppn).or_default().insert(Lpn(i as u64));
            } else {
                self.primary.insert(ppn, Lpn(i as u64));
            }
        }
        self.capacity = self.capacity.max(self.len());
    }
}

fn check(t: &MappingTable, m: &Model, case: usize, step: usize) {
    let at = format!("case {case} step {step}");
    for ppn in m.live() {
        let got = t.referrers(ppn);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, m.scan(ppn), "{at}: referrers of {ppn}");
        let primary = m.primary[&ppn];
        if m.l2p[primary.0 as usize] == Some(ppn) {
            assert_eq!(got[0], primary, "{at}: the mapped primary of {ppn} comes first");
        }
    }
    for p in 0..geometry().total_pages() {
        let ppn = Ppn(p);
        assert_eq!(t.refcount(ppn) as usize, m.refcount(ppn), "{at}: refcount of {ppn}");
    }
    assert_eq!(t.revmap().len(), m.len(), "{at}: rev-map length");
    assert_eq!(t.revmap().free(), m.free(), "{at}: rev-map free slots");
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.random_range(0..items.len())])
}

/// What a case exercised: shares a full table refused, and relocations
/// of pages held by more than one LPN.
#[derive(Default)]
struct Seen {
    refused: usize,
    relocated_shared: usize,
}

/// Runs one case on a table of 0–4 slots or, one case in five, an
/// unbounded one.
fn run_case(case: usize, rng: &mut StdRng, seen: &mut Seen) {
    let slots = if rng.random_range(0..5u32) == 0 { usize::MAX } else { rng.random_range(0..5) };
    let mut t = MappingTable::new(geometry(), LOGICAL, slots);
    let mut m = Model::new(slots);
    let pages = geometry().total_pages();
    for step in 0..OPS {
        let live: Vec<Ppn> = m.live().into_iter().collect();
        let dead: Vec<Ppn> =
            (0..pages).map(Ppn).filter(|&p| m.refcount(p) == 0).collect();
        let lpn = Lpn(rng.random_range(0..LOGICAL));
        match rng.random_range(0..20u32) {
            0..=5 => {
                let ppn = pick(rng, &dead).expect("more pages than LPNs");
                t.map_new_write(lpn, ppn).unwrap();
                m.new_write(lpn, ppn);
            }
            // Shares onto a few pages, so small tables fill.
            6..=12 => {
                let Some(ppn) = pick(rng, &live[..live.len().min(3)]) else { continue };
                let want = m.share(lpn, ppn);
                seen.refused += usize::from(want.is_err());
                assert_eq!(t.map_shared(lpn, ppn).map(|_| ()), want, "case {case} step {step}");
            }
            13..=15 => {
                t.unmap(lpn);
                m.unmap(lpn);
            }
            16..=18 => {
                let Some(from) = pick(rng, &live) else { continue };
                let to = pick(rng, &dead).expect("more pages than LPNs");
                // Relocation moves the referrers in the table's order; a
                // full table still has room, as each moved extra hands its
                // slot over.
                let order = t.referrers(from);
                seen.relocated_shared += usize::from(order.len() > 1);
                let moved = t.relocate(from, to).unwrap().to_vec();
                assert_eq!(moved, order, "case {case} step {step}: relocation order");
                m.new_write(order[0], to);
                for &l in &order[1..] {
                    m.share(l, to).unwrap();
                }
            }
            _ => {
                t.rebuild_reverse();
                m.rebuild();
            }
        }
        check(&t, &m, case, step);
    }
    t.check_invariants();
}

/// The reverse side answers exactly as the model and the L2P scan do after
/// every op, on bounded and unbounded tables.
#[test]
fn reverse_map_matches_the_model_and_the_scan() {
    let mut seen = Seen::default();
    for (case, mut rng) in sweep("mapping/revmap_model", 64) {
        run_case(case, &mut rng, &mut seen);
    }
    assert!(seen.refused > 0, "no share was ever refused by a full table");
    assert!(seen.relocated_shared > 0, "the sweep never relocated a shared page");
}
