//! One crash harness for the four mini engines, each behind a small
//! [`KvEngine`] adapter (the `*_workload` modules). [`EngineWorkload`] writes
//! every key at version 1, then runs seeded transactions of one to four puts
//! (and deletes, where the engine has them), with a maintenance pass —
//! compaction, checkpoint — after every eighth. A case crashes at
//! one program after setup, recovers device and engine, and checks each key
//! at commit granularity: its last committed version, or the version the
//! crashed commit was writing, never a splice (`get` rejects a value no put
//! wrote); an atomic commit lands whole or not at all. The recovered store
//! then takes one more maintenance pass and commit. Unsafe modes run on
//! [`SimpleSsd`], which overwrites in place, as positive controls.

use crate::CrashWorkload;
use nand_sim::{FaultHandle, FaultMode, SimClock};
use share_core::{BlockDevice, Ftl, FtlConfig, SimpleSsd};
use share_rng::{Rng, StdRng};
use std::fmt::Display;

/// A device the harness can crash and bring back.
pub trait CrashDevice: BlockDevice + Sized {
    /// A fresh device with the page size and logical capacity of `cfg`.
    fn fresh(cfg: &FtlConfig) -> Self;
    /// The device's power-loss injection handle.
    fn fault(&self) -> FaultHandle;
    /// Bring the device back after a power loss.
    fn recover(self) -> Result<Self, String>;
}

impl CrashDevice for Ftl {
    fn fresh(cfg: &FtlConfig) -> Self {
        Ftl::new(cfg.clone())
    }
    fn fault(&self) -> FaultHandle {
        self.fault_handle()
    }
    fn recover(self) -> Result<Self, String> {
        let rec = Ftl::open(self.config().clone(), self.into_nand()).map_err(text)?;
        (rec.stats().recoveries == 1).then_some(rec).ok_or("the device reports no recovery".into())
    }
}

impl CrashDevice for SimpleSsd {
    fn fresh(cfg: &FtlConfig) -> Self {
        SimpleSsd::new(cfg.geometry.page_size, cfg.logical_pages, SimClock::new())
    }
    fn fault(&self) -> FaultHandle {
        self.fault_handle()
    }
    fn recover(mut self) -> Result<Self, String> {
        self.power_cycle();
        Ok(self)
    }
}

/// A key-value view of one engine: what the harness drives and reads back.
pub trait KvEngine: Sized {
    /// The device the engine's data lives on.
    type Dev: CrashDevice;
    /// The engine's own configuration, its mode among it.
    type Cfg: Clone;
    /// Whether the engine can delete a key.
    const DELETES: bool;
    /// Whether one commit's writes land all together or not at all.
    const ATOMIC_COMMIT: bool;
    /// A fresh, empty store on `dev`.
    fn create(dev: Self::Dev, cfg: &Self::Cfg) -> Result<Self, String>;
    /// Write `key` at `version` in the open transaction.
    fn put(&mut self, key: u64, version: u64) -> Result<(), String>;
    /// Delete `key` in the open transaction (called only when [`Self::DELETES`]).
    fn delete(&mut self, _key: u64) -> Result<(), String> {
        unreachable!("the engine has no delete")
    }
    /// Make the open transaction durable.
    fn commit(&mut self) -> Result<(), String>;
    /// The engine's background work: compaction or a full checkpoint.
    fn maintenance(&mut self) -> Result<(), String>;
    /// Power off, recover the device and open the engine on it.
    fn reopen(self) -> Result<Self, String>;
    /// The version `key` holds; `Err` for damage or a value no put wrote.
    fn get(&mut self, key: u64) -> Result<Option<u64>, String>;
    /// How many keys the store holds, where the engine can count them: a key
    /// no put wrote shows here and nowhere else.
    fn count(&mut self) -> Result<Option<u64>, String> {
        Ok(None)
    }
}

pub(crate) fn text(e: impl Display) -> String {
    e.to_string()
}

/// A `len`-byte value naming `key` and `version` in every byte.
pub(crate) fn value(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = vec![(key.wrapping_mul(31) ^ version) as u8; len];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

/// The version `got` names, if it is exactly `value(key, v, size(v))`.
pub(crate) fn version_of(key: u64, got: &[u8], size: impl Fn(u64) -> usize) -> Result<u64, String> {
    match got.get(8..16).map(|b| u64::from_le_bytes(b.try_into().unwrap())) {
        Some(v) if got == value(key, v, size(v)) => Ok(v),
        _ => Err(format!("key {key} reads {} bytes no put wrote", got.len())),
    }
}

/// A transaction's writes (`None` deletes); an empty one is a maintenance pass.
type Step = Vec<(u64, Option<u64>)>;

/// Each key's committed version, and the writes of the commit the crash hit.
pub(crate) struct Shadow(Vec<Option<u64>>, Step);

/// Seeded transactions through one engine adapter, crashed at every program
/// after setup (see the module docs).
pub struct EngineWorkload<E: KvEngine> {
    name: String,
    keys: u64,
    dev: FtlConfig,
    cfg: E::Cfg,
    steps: Vec<Step>,
}

impl<E: KvEngine> EngineWorkload<E> {
    /// `n` transactions over `keys` keys of an engine configured `cfg`, on a
    /// device shaped like `dev`: the same steps for the same seed, keys and
    /// `n`, whatever the mode.
    pub fn new(label: &str, dev: FtlConfig, cfg: E::Cfg, seed: u64, keys: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut next, mut live) = (vec![2u64; keys as usize], vec![true; keys as usize]);
        let mut steps = Vec::new();
        for t in 1..=n {
            let mut ops: Step = Vec::new();
            for _ in 0..rng.random_range(1..5usize) {
                let k = rng.random_range(0..keys) as usize;
                let del = E::DELETES && live[k] && rng.random_range(0..6u32) == 0;
                if !ops.iter().any(|op| op.0 == k as u64) {
                    live[k] = !del;
                    ops.push((k as u64, (!del).then_some(next[k])));
                    next[k] += 1;
                }
            }
            steps.push(ops);
            if t % 8 == 0 {
                steps.push(Vec::new());
            }
        }
        let name = format!("{label}-s{seed}-k{keys}-t{n}");
        Self { name, keys, dev, cfg, steps }
    }

    /// A fresh store holding every key at version 1 (eight keys a commit),
    /// fault disarmed.
    pub(crate) fn setup(&self) -> Result<(E, FaultHandle), String> {
        let dev = E::Dev::fresh(&self.dev);
        let fault = dev.fault();
        let mut e = E::create(dev, &self.cfg)?;
        for keys in (0..self.keys).collect::<Vec<_>>().chunks(8) {
            keys.iter().try_for_each(|&k| e.put(k, 1)).and_then(|()| e.commit())?;
        }
        Ok((e, fault))
    }

    /// Run the steps until the first failure, which must be the crash.
    pub(crate) fn drive(&self, e: &mut E, fault: &FaultHandle) -> Result<Shadow, String> {
        let mut s = Shadow(vec![Some(1); self.keys as usize], Vec::new());
        for ops in &self.steps {
            let done = match ops.is_empty() {
                true => e.maintenance(),
                false => ops
                    .iter()
                    .try_for_each(|&(k, v)| match v {
                        Some(v) => e.put(k, v),
                        None => e.delete(k),
                    })
                    .and_then(|()| {
                        s.1.clone_from(ops);
                        e.commit()
                    }),
            };
            match done {
                Ok(()) => ops.iter().for_each(|&(k, v)| s.0[k as usize] = v),
                Err(e) if !fault.is_down() => return Err(format!("failed without a crash: {e}")),
                Err(_) => return Ok(s),
            }
            s.1.clear();
        }
        Ok(s)
    }

    /// Every key against the shadow, then one more pass and commit.
    fn check(&self, e: &mut E, Shadow(committed, in_flight): &Shadow) -> Result<(), String> {
        // Whether keys of the crashed commit read their old and their new value.
        let mut landed = [false; 2];
        let mut live = 0;
        for k in 0..self.keys {
            let got = e.get(k).map_err(|err| format!("get({k}) after recovery: {err}"))?;
            live += u64::from(got.is_some());
            let was = committed[k as usize];
            match in_flight.iter().find(|op| op.0 == k).map(|op| op.1) {
                Some(new) if got == new || got == was => landed[usize::from(got == new)] = true,
                _ if got == was => {}
                n => return Err(format!("key {k}: {got:?}, committed {was:?}, in flight {n:?}")),
            }
        }
        if E::ATOMIC_COMMIT && landed == [true, true] {
            return Err(format!("the crashed commit {in_flight:?} landed in part"));
        }
        match e.count().map_err(|err| format!("count after recovery: {err}"))? {
            Some(n) if n != live => return Err(format!("{n} keys stored, {live} read back")),
            _ => {}
        }
        let carry = 1 << 40;
        let next = e.maintenance().and_then(|()| e.put(0, carry)).and_then(|()| e.commit());
        match next.map_err(|err| format!("after recovery: {err}")).and_then(|()| e.get(0))? {
            Some(v) if v == carry => Ok(()),
            got => Err(format!("key 0 reads {got:?} after a commit after recovery")),
        }
    }

    /// Crash at the `index`-th program after setup and recover.
    fn crash(&self, mode: FaultMode, index: u64) -> Result<(E, Shadow), String> {
        let (mut e, fault) = self.setup()?;
        fault.arm_after_programs(index, mode);
        let shadow = self.drive(&mut e, &fault)?;
        fault.disarm();
        if fault.faults_fired() != 1 {
            return Err(format!("the fault armed at program {index} never fired"));
        }
        Ok((e.reopen().map_err(|err| format!("recovery failed: {err}"))?, shadow))
    }

    /// The store as recovery leaves it after a crash at `index`.
    pub fn recovered(&self, mode: FaultMode, index: u64) -> Result<E, String> {
        self.crash(mode, index).map(|(e, _)| e)
    }

    /// Every key after a fault-free run, and after a reopen over the
    /// recovered device.
    pub fn contents(&self) -> Result<[Vec<Option<u64>>; 2], String> {
        let (mut e, fault) = self.setup()?;
        self.drive(&mut e, &fault)?;
        let before = (0..self.keys).map(|k| e.get(k)).collect::<Result<_, _>>()?;
        let mut e = e.reopen()?;
        Ok([before, (0..self.keys).map(|k| e.get(k)).collect::<Result<_, _>>()?])
    }
}

impl<E: KvEngine> CrashWorkload for EngineWorkload<E> {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn crash_points(&self) -> u64 {
        let (mut e, fault) = self.setup().expect("fault-free setup cannot fail");
        let base = fault.programs_seen();
        self.drive(&mut e, &fault).expect("fault-free run cannot fail");
        fault.programs_seen() - base
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        let (mut e, shadow) = self.crash(mode, index)?;
        self.check(&mut e, &shadow)
    }
}
