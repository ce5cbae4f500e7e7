//! FTL-level crash workloads and the prefix-consistency recovery oracle.
//!
//! Ops are applied to a shadow model as the run progresses; after a crash
//! and `Ftl::open`, the recovered logical state must equal the model
//! after exactly one prefix of the successfully applied ops. The lower
//! bound of the admissible prefix range is the last op with an explicit
//! durability guarantee (flush / share / atomic write / checkpoint); the
//! upper bound includes the crashed op itself, whose delta page may have
//! been programmed before the power loss (e.g. `AfterProgram` on the log
//! page). A torn `share` or `write_atomic` batch that applied only some
//! of its pairs equals *no* prefix and is caught by the same comparison.

use crate::CrashWorkload;
use nand_sim::{FaultHandle, FaultMode, NandTiming};
use share_core::{BlockDevice, Ftl, FtlConfig, FtlError, Lpn, SharePair};
use share_rng::{Rng, StdRng};
use share_workloads::TraceOp;
use std::collections::HashMap;

/// One operation of an FTL-level crash workload.
#[derive(Debug, Clone)]
pub enum FtlOp {
    /// Write one page filled with `fill` (fills are always nonzero, so a
    /// read of 0 unambiguously means "unmapped").
    Write { lpn: u64, fill: u8 },
    /// Read one page (no model effect; exercises crash-during-read paths).
    Read { lpn: u64 },
    /// Trim one page.
    Trim { lpn: u64 },
    /// SHARE-remap a batch of pairs atomically.
    Share { pairs: Vec<(u64, u64)> },
    /// Multi-page atomic write (same delta-page mechanism as SHARE).
    WriteAtomic { pages: Vec<(u64, u8)> },
    /// Multi-page ordinary write: prefix-durable, not atomic — the oracle
    /// counts a k-page batch as k single-page steps ([`push_applied`]). The
    /// seeded generators never emit it (their pinned sequences stay as
    /// they are); the fixed sequence of `FtlQueuedWorkload::write_batches`
    /// does.
    WriteBatch { pages: Vec<(u64, u8)> },
    /// Flush buffered mapping deltas (explicit durability point).
    Flush,
    /// Force a mapping-table checkpoint (explicit durability point).
    Checkpoint,
}

/// Shadow logical state: fill byte per LPN, `None` = unmapped.
pub(crate) type State = Vec<Option<u8>>;

pub(crate) fn apply(state: &mut State, op: &FtlOp) {
    match op {
        FtlOp::Write { lpn, fill } => state[*lpn as usize] = Some(*fill),
        FtlOp::Read { .. } => {}
        FtlOp::Trim { lpn } => state[*lpn as usize] = None,
        FtlOp::Share { pairs } => {
            // Validated batches never alias a dest as a src, so the
            // pre-batch snapshot semantics reduce to sequential copies.
            let pre = state.clone();
            for &(dest, src) in pairs {
                state[dest as usize] = pre[src as usize];
            }
        }
        FtlOp::WriteAtomic { pages } | FtlOp::WriteBatch { pages } => {
            for &(lpn, fill) in pages {
                state[lpn as usize] = Some(fill);
            }
        }
        FtlOp::Flush | FtlOp::Checkpoint => {}
    }
}

/// Append the model states `op` steps through: one per page of a
/// `WriteBatch` (any prefix of its pages may be what survives a crash),
/// one for every other op.
pub(crate) fn push_applied(states: &mut Vec<State>, op: &FtlOp) {
    let mut s = states.last().unwrap().clone();
    if let FtlOp::WriteBatch { pages } = op {
        for &(lpn, fill) in pages {
            s[lpn as usize] = Some(fill);
            states.push(s.clone());
        }
        return;
    }
    apply(&mut s, op);
    states.push(s);
}

/// Page buffers and the request borrowing them, as the sync and queued
/// multi-page writes both take it.
pub(crate) fn fill_pages(pages: &[(u64, u8)], ps: usize) -> Vec<Vec<u8>> {
    pages.iter().map(|&(_, f)| vec![f; ps]).collect()
}

pub(crate) fn lend_pages<'a>(
    pages: &[(u64, u8)],
    bufs: &'a [Vec<u8>],
) -> Vec<(Lpn, &'a [u8])> {
    pages.iter().zip(bufs).map(|(&(lpn, _), b)| (Lpn(lpn), b.as_slice())).collect()
}

/// Whether a *successful* `op` makes everything before it durable.
pub(crate) fn is_durability_point(op: &FtlOp) -> bool {
    matches!(
        op,
        FtlOp::Share { .. } | FtlOp::WriteAtomic { .. } | FtlOp::Flush | FtlOp::Checkpoint
    )
}

pub(crate) fn exec(ftl: &mut Ftl, op: &FtlOp) -> Result<(), FtlError> {
    let ps = ftl.page_size();
    match op {
        FtlOp::Write { lpn, fill } => ftl.write(Lpn(*lpn), &vec![*fill; ps]),
        FtlOp::Read { lpn } => {
            let mut buf = vec![0u8; ps];
            ftl.read(Lpn(*lpn), &mut buf)
        }
        FtlOp::Trim { lpn } => ftl.trim(Lpn(*lpn), 1),
        FtlOp::Share { pairs } => {
            let batch: Vec<SharePair> =
                pairs.iter().map(|&(d, s)| SharePair::new(Lpn(d), Lpn(s))).collect();
            ftl.share(&batch)
        }
        FtlOp::WriteAtomic { pages } => {
            let bufs = fill_pages(pages, ps);
            ftl.write_atomic(&lend_pages(pages, &bufs))
        }
        FtlOp::WriteBatch { pages } => {
            let bufs = fill_pages(pages, ps);
            ftl.write_batch(&lend_pages(pages, &bufs))
        }
        FtlOp::Flush => ftl.flush(),
        FtlOp::Checkpoint => ftl.checkpoint(),
    }
}

/// Drive `ops` against a fresh FTL with the fault handle already armed
/// (or not, for measurement). Returns the model snapshots after each
/// applied op, the admissible floor, and whether the run crashed.
pub(crate) struct RunTrace {
    pub(crate) states: Vec<State>,
    pub(crate) floor: usize,
    pub(crate) crashed: bool,
}

fn drive(ftl: &mut Ftl, handle: &FaultHandle, ops: &[FtlOp], pages: u64) -> Result<RunTrace, String> {
    let mut states: Vec<State> = vec![vec![None; pages as usize]];
    let mut floor = 0usize;
    let mut crashed = false;
    for op in ops {
        match exec(ftl, op) {
            Ok(()) => {
                push_applied(&mut states, op);
                if is_durability_point(op) {
                    floor = states.len() - 1;
                }
            }
            Err(FtlError::SrcUnmapped(_))
            | Err(FtlError::InvalidBatch(_))
            | Err(FtlError::LpnOutOfRange { .. })
                if !handle.is_down() =>
            {
                // Rejected by validation before any state change.
            }
            Err(e) => {
                if !handle.is_down() {
                    return Err(format!("unexpected non-crash error from {op:?}: {e}"));
                }
                // The crashed op's effect may have become durable before
                // the power loss; admit its post-state as well.
                push_applied(&mut states, op);
                crashed = true;
                break;
            }
        }
    }
    Ok(RunTrace { states, floor, crashed })
}

/// The full recovery oracle against a reopened device.
pub(crate) fn verify_recovered(rec: &mut Ftl, trace: &RunTrace, cfg: &FtlConfig) -> Result<(), String> {
    // 1. The FTL's own exhaustive invariant walk (refcounts vs L2P,
    //    per-block valid counts, referrer discoverability).
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rec.check_invariants()));
    if let Err(p) = ok {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        return Err(format!("mapping invariants violated after recovery: {msg}"));
    }

    // 2. Recovery cost bound: exactly one recovery, whose only programs
    //    are the closing checkpoint (header + table pages + snapshot
    //    section + commit page). The snapshot section is sized from the
    //    recovered table itself: zero pages for images that never used
    //    snapshots, so the historical `table_pages + 2` bound is intact.
    let snap_bytes = rec.snapshot_table().encode().len();
    let s = rec.stats();
    if s.recoveries != 1 {
        return Err(format!("expected 1 recovery in stats, found {}", s.recoveries));
    }
    let table_pages =
        (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64);
    let ckpt_pages = table_pages + 2 + share_core::snapshot_section_pages(cfg, snap_bytes) as u64;
    if s.recovery_page_writes != ckpt_pages {
        return Err(format!(
            "recovery wrote {} pages, expected exactly the closing checkpoint ({})",
            s.recovery_page_writes, ckpt_pages
        ));
    }

    // 3. Observed logical state: uniform fill per LPN, zeros if unmapped.
    let pages = cfg.logical_pages;
    let mut observed: State = Vec::with_capacity(pages as usize);
    let mut buf = vec![0u8; rec.page_size()];
    for lpn in 0..pages {
        rec.read(Lpn(lpn), &mut buf)
            .map_err(|e| format!("read of lpn {lpn} failed after recovery: {e}"))?;
        if !buf.iter().all(|&b| b == buf[0]) {
            return Err(format!("lpn {lpn} reads non-uniform content: torn data leaked"));
        }
        match rec.mapping_of(Lpn(lpn)) {
            Some(_) => observed.push(Some(buf[0])),
            None => {
                if buf[0] != 0 {
                    return Err(format!("unmapped lpn {lpn} reads nonzero {}", buf[0]));
                }
                observed.push(None);
            }
        }
    }

    // 4. Refcounts and revmap occupancy re-derived from the L2P.
    let mut per_ppn: HashMap<u64, u16> = HashMap::new();
    let mut mapped = 0usize;
    for lpn in 0..pages {
        if let Some(ppn) = rec.mapping_of(Lpn(lpn)) {
            *per_ppn.entry(ppn.0 as u64).or_insert(0) += 1;
            mapped += 1;
        }
    }
    for lpn in 0..pages {
        if let Some(ppn) = rec.mapping_of(Lpn(lpn)) {
            let want = per_ppn[&(ppn.0 as u64)];
            let got = rec.refcount_of(Lpn(lpn));
            if got != want {
                return Err(format!(
                    "lpn {lpn}: refcount {got} but {want} LPNs map to its page"
                ));
            }
        }
    }
    let extra_refs = mapped - per_ppn.len();
    if rec.revmap_len() != extra_refs {
        return Err(format!(
            "revmap holds {} entries, expected {} (mapped LPNs minus distinct PPNs)",
            rec.revmap_len(),
            extra_refs
        ));
    }

    // 5. Prefix consistency: one single p in [floor, last] must match.
    for p in trace.floor..trace.states.len() {
        if trace.states[p] == observed {
            return Ok(());
        }
    }
    let last = trace.states.last().unwrap();
    let diffs: Vec<String> = (0..pages as usize)
        .filter(|&i| observed[i] != last[i])
        .take(8)
        .map(|i| format!("lpn {i}: recovered {:?}, final model {:?}", observed[i], last[i]))
        .collect();
    Err(format!(
        "recovered state matches no applied-op prefix in [{}, {}] (crashed={}); e.g. {}",
        trace.floor,
        trace.states.len() - 1,
        trace.crashed,
        diffs.join("; ")
    ))
}

/// Shared runner for FTL-level workloads.
pub(crate) fn run_ftl_case(
    cfg: &FtlConfig,
    ops: &[FtlOp],
    mode: Option<FaultMode>,
    index: u64,
) -> Result<(u64, Option<String>), String> {
    let mut ftl = Ftl::new(cfg.clone());
    let handle = ftl.fault_handle();
    let base = handle.programs_seen();
    if let Some(mode) = mode {
        handle.arm_after_programs(index, mode);
    }
    let trace = drive(&mut ftl, &handle, ops, cfg.logical_pages)?;
    handle.disarm();
    let attempts = handle.programs_seen() - base;
    if mode.is_none() {
        return Ok((attempts, None));
    }
    let mut rec = Ftl::open(cfg.clone(), ftl.into_nand())
        .map_err(|e| format!("Ftl::open failed after crash: {e}"))?;
    let violation = verify_recovered(&mut rec, &trace, cfg).err();
    Ok((attempts, violation))
}

/// Mixed write/trim/share/atomic-write workload over a small logical
/// space, generated deterministically from a seed. Share and atomic
/// batches are pre-validated against the shadow model so every generated
/// op is accepted, keeping the generated sequence equal to the applied
/// one on any fault-free prefix.
#[derive(Debug, Clone)]
pub struct FtlMixedWorkload {
    pub(crate) seed: u64,
    pub(crate) ops: Vec<FtlOp>,
    pub(crate) cfg: FtlConfig,
}

/// Logical pages of the mixed workload: small, so GC, sharing and
/// checkpoints all trigger within a few hundred ops.
pub const MIXED_PAGES: u64 = 64;

impl FtlMixedWorkload {
    /// Generate `n_ops` ops from `seed`.
    pub fn new(seed: u64, n_ops: usize) -> Self {
        let cfg = FtlConfig::for_capacity_with(
            MIXED_PAGES * 4096,
            0.5,
            4096,
            16,
            NandTiming::zero(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model: State = vec![None; MIXED_PAGES as usize];
        let mut ops = Vec::with_capacity(n_ops);
        while ops.len() < n_ops {
            let op = Self::gen_op(&mut rng, &model);
            apply(&mut model, &op);
            ops.push(op);
        }
        Self { seed, ops, cfg }
    }

    fn gen_op(rng: &mut StdRng, model: &State) -> FtlOp {
        let lpn = |rng: &mut StdRng| rng.random_range(0..MIXED_PAGES);
        let fill = |rng: &mut StdRng| rng.random_range(1..256u32) as u8;
        let mapped: Vec<u64> = (0..MIXED_PAGES).filter(|&l| model[l as usize].is_some()).collect();
        match rng.random_range(0..16u32) {
            0..=6 => FtlOp::Write { lpn: lpn(rng), fill: fill(rng) },
            7 => FtlOp::Read { lpn: lpn(rng) },
            8 => FtlOp::Trim { lpn: lpn(rng) },
            9..=11 => {
                if mapped.is_empty() {
                    return FtlOp::Write { lpn: lpn(rng), fill: fill(rng) };
                }
                // A valid batch: distinct dests, no dest aliasing a src.
                let want = rng.random_range(1..4usize);
                let mut pairs: Vec<(u64, u64)> = Vec::new();
                for _ in 0..want * 3 {
                    if pairs.len() >= want {
                        break;
                    }
                    let src = mapped[rng.random_range(0..mapped.len())];
                    let dest = lpn(rng);
                    let clashes = dest == src
                        || pairs.iter().any(|&(d, s)| d == dest || s == dest || d == src);
                    if !clashes {
                        pairs.push((dest, src));
                    }
                }
                if pairs.is_empty() {
                    FtlOp::Flush
                } else {
                    FtlOp::Share { pairs }
                }
            }
            12..=13 => {
                let want = rng.random_range(1..4usize);
                let mut pages: Vec<(u64, u8)> = Vec::new();
                for _ in 0..want * 3 {
                    if pages.len() >= want {
                        break;
                    }
                    let l = lpn(rng);
                    if !pages.iter().any(|&(d, _)| d == l) {
                        pages.push((l, fill(rng)));
                    }
                }
                FtlOp::WriteAtomic { pages }
            }
            14 => FtlOp::Flush,
            _ => FtlOp::Checkpoint,
        }
    }
}

impl CrashWorkload for FtlMixedWorkload {
    fn name(&self) -> String {
        format!("ftl-mixed-s{}-n{}", self.seed, self.ops.len())
    }

    fn crash_points(&self) -> u64 {
        run_ftl_case(&self.cfg, &self.ops, None, 0).expect("fault-free run cannot fail").0
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        match run_ftl_case(&self.cfg, &self.ops, Some(mode), index)? {
            (_, None) => Ok(()),
            (_, Some(v)) => Err(v),
        }
    }
}

/// A crash workload replaying a block trace (`W/R/T/S/F` lines, see
/// `share_workloads::TraceOp`) through the same oracle. Write fills are
/// derived from the op index, so content checks stay exact.
#[derive(Debug, Clone)]
pub struct FtlTraceWorkload {
    label: String,
    ops: Vec<FtlOp>,
    cfg: FtlConfig,
}

impl FtlTraceWorkload {
    /// Wrap a parsed trace targeting `logical_pages`. Flushes are
    /// appended every `flush_every` trace ops if the trace has none, so
    /// arbitrary traces still contain durability points.
    pub fn new(label: &str, trace: &[TraceOp], logical_pages: u64) -> Self {
        let cfg = FtlConfig::for_capacity_with(
            logical_pages * 4096,
            0.5,
            4096,
            16,
            NandTiming::zero(),
        );
        let ops = trace
            .iter()
            .enumerate()
            .map(|(i, t)| match *t {
                TraceOp::Write { lpn } => {
                    FtlOp::Write { lpn, fill: (i % 255 + 1) as u8 }
                }
                TraceOp::Read { lpn } => FtlOp::Read { lpn },
                TraceOp::Trim { lpn, len } => {
                    // The oracle models single-page trims; clamp ranges.
                    let _ = len;
                    FtlOp::Trim { lpn }
                }
                TraceOp::Share { dest, src, len } => FtlOp::Share {
                    pairs: (0..len).map(|k| (dest + k, src + k)).collect(),
                },
                TraceOp::Flush => FtlOp::Flush,
            })
            .collect();
        Self { label: label.to_string(), ops, cfg }
    }
}

impl CrashWorkload for FtlTraceWorkload {
    fn name(&self) -> String {
        format!("ftl-trace-{}", self.label)
    }

    fn crash_points(&self) -> u64 {
        run_ftl_case(&self.cfg, &self.ops, None, 0).expect("fault-free run cannot fail").0
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        match run_ftl_case(&self.cfg, &self.ops, Some(mode), index)? {
            (_, None) => Ok(()),
            (_, Some(v)) => Err(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ops_are_deterministic() {
        let a = FtlMixedWorkload::new(7, 50);
        let b = FtlMixedWorkload::new(7, 50);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(a.crash_points(), b.crash_points());
    }

    #[test]
    fn fault_free_run_has_a_nonempty_crash_space() {
        let w = FtlMixedWorkload::new(1, 60);
        assert!(w.crash_points() > 30, "60 mixed ops should program > 30 pages");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = FtlMixedWorkload::new(3, 80);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }

    #[test]
    fn trace_workload_sweeps_share_lines() {
        let text = "W 0\nW 1\nF\nS 8 0 2\nW 2\nF\n";
        let ops = share_workloads::parse_trace(text);
        let w = FtlTraceWorkload::new("inline", &ops, 16);
        let total = w.crash_points();
        assert!(total > 4);
        for i in 1..=total {
            w.run_case(FaultMode::TornHalf, i).unwrap();
        }
    }
}
