//! The FTL crash harness: one op set, one shadow model, one drive loop and
//! one recovery oracle for every FTL-level workload.
//!
//! Ops are applied to a shadow model as the run progresses; after a crash
//! and `Ftl::open`, the recovered logical state must equal the model
//! after exactly one prefix of the successfully applied ops. The lower
//! bound of the admissible prefix range is the last op with an explicit
//! durability guarantee (flush / share / atomic write / checkpoint / a
//! clone that programmed); the upper bound includes the crashed op itself,
//! whose delta page may have been programmed before the power loss (e.g.
//! `AfterProgram` on the log page). A torn `share` or `write_atomic` batch
//! that applied only some of its pairs equals *no* prefix and is caught by
//! the same comparison.
//!
//! The model carries the snapshot table next to the page fills. Table
//! durability is weaker than page durability — creates are RAM-only until
//! a checkpoint, drops become durable at the next log flush — so each
//! recovered snapshot must match the shadow table at *some* applied-op
//! point (see [`verify_snapshots`]).
//!
//! A workload runs its ops synchronously or through the submission queue,
//! reaping every `round` submissions; an op with no queued form drains the
//! queue and runs synchronously, as the engines drain before an fsync.

use crate::CrashWorkload;
use nand_sim::{FaultHandle, FaultMode, NandTiming};
use share_core::{BlockDevice, Completion, Ftl, FtlConfig, FtlError, Lpn, QueuedCmd, SharePair};
use share_rng::{Rng, StdRng};
use share_workloads::TraceOp;
use std::collections::{BTreeMap, HashMap};

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
    /// they are); the fixed sequence of `FtlWorkload::write_batches` does.
    WriteBatch { pages: Vec<(u64, u8)> },
    /// Flush buffered mapping deltas (explicit durability point).
    Flush,
    /// Force a mapping-table checkpoint (explicit durability point; it
    /// persists the snapshot table too).
    Checkpoint,
    /// Freeze `[start, start+len)` under the slot's name (RAM-only).
    SnapCreate { slot: u32, start: u64, len: u64 },
    /// Materialize a window of the slot's snapshot at `dst` (atomic).
    SnapClone { slot: u32, src_offset: u64, dst: u64, len: u64 },
    /// Release the slot's snapshot (tombstone buffered, not yet durable).
    SnapDrop { slot: u32 },
    /// Point-in-time read (no model effect; exercises frozen lookups).
    SnapRead { slot: u32, offset: u64 },
}

impl FtlOp {
    fn is_snapshot(&self) -> bool {
        matches!(
            self,
            FtlOp::SnapCreate { .. }
                | FtlOp::SnapClone { .. }
                | FtlOp::SnapDrop { .. }
                | FtlOp::SnapRead { .. }
        )
    }

    /// Whether the op can go through the submission queue: a checkpoint
    /// and the snapshot ops cannot.
    fn has_queued_form(&self) -> bool {
        !matches!(self, FtlOp::Checkpoint) && !self.is_snapshot()
    }
}

/// One snapshot's shadow: the frozen range and per-offset fill at create
/// time (`None` = hole, which the device reads back as zeroes).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapShadow {
    start: u64,
    pub(crate) content: Vec<Option<u8>>,
}

/// The device name of snapshot slot `slot`.
fn slot_name(slot: u32) -> String {
    format!("s{slot}")
}

/// Shadow device state: fill byte per LPN (`None` = unmapped) and the
/// snapshot table by name slot.
#[derive(Debug, Clone)]
pub(crate) struct State {
    pub(crate) pages: Vec<Option<u8>>,
    pub(crate) snaps: BTreeMap<u32, SnapShadow>,
}

impl State {
    pub(crate) fn new(pages: u64) -> Self {
        Self { pages: vec![None; pages as usize], snaps: BTreeMap::new() }
    }
}

pub(crate) fn apply(state: &mut State, op: &FtlOp) {
    let pages = &mut state.pages;
    match op {
        FtlOp::Write { lpn, fill } => pages[*lpn as usize] = Some(*fill),
        FtlOp::Trim { lpn } => pages[*lpn as usize] = None,
        FtlOp::Share { pairs } => {
            // Validated batches never alias a dest as a src, so the
            // pre-batch snapshot semantics reduce to sequential copies.
            let pre = pages.clone();
            for &(dest, src) in pairs {
                pages[dest as usize] = pre[src as usize];
            }
        }
        FtlOp::WriteAtomic { pages: batch } | FtlOp::WriteBatch { pages: batch } => {
            for &(lpn, fill) in batch {
                pages[lpn as usize] = Some(fill);
            }
        }
        FtlOp::SnapCreate { slot, start, len } => {
            let content = pages[*start as usize..(*start + *len) as usize].to_vec();
            state.snaps.insert(*slot, SnapShadow { start: *start, content });
        }
        FtlOp::SnapClone { slot, src_offset, dst, len } => {
            // Guarded: on a crash-admitted apply the runtime may have
            // rejected the op (e.g. the slot raced a drop) before dying.
            if let Some(shadow) = state.snaps.get(slot) {
                for i in 0..*len {
                    pages[(*dst + i) as usize] = shadow.content[(*src_offset + i) as usize];
                }
            }
        }
        FtlOp::SnapDrop { slot } => {
            state.snaps.remove(slot);
        }
        FtlOp::Read { .. } | FtlOp::SnapRead { .. } | FtlOp::Flush | FtlOp::Checkpoint => {}
    }
}

/// Append the model states `op` steps through: one per page of a
/// `WriteBatch` (any prefix of its pages may be what survives a crash),
/// one for every other op.
pub(crate) fn push_applied(states: &mut Vec<State>, op: &FtlOp) {
    let mut s = states.last().unwrap().clone();
    if let FtlOp::WriteBatch { pages } = op {
        for &(lpn, fill) in pages {
            s.pages[lpn as usize] = Some(fill);
            states.push(s.clone());
        }
        return;
    }
    apply(&mut s, op);
    states.push(s);
}

/// Page buffers and the request borrowing them, as the sync and queued
/// multi-page writes both take it.
fn fill_pages(pages: &[(u64, u8)], ps: usize) -> Vec<Vec<u8>> {
    pages.iter().map(|&(_, f)| vec![f; ps]).collect()
}

fn lend_pages<'a>(pages: &[(u64, u8)], bufs: &'a [Vec<u8>]) -> Vec<(Lpn, &'a [u8])> {
    pages.iter().zip(bufs).map(|(&(lpn, _), b)| (Lpn(lpn), b.as_slice())).collect()
}

fn share_pairs(pairs: &[(u64, u64)]) -> Vec<SharePair> {
    pairs.iter().map(|&(d, s)| SharePair::new(Lpn(d), Lpn(s))).collect()
}

/// Whether a *successful* `op` makes everything before it durable. A
/// create is RAM-only until a checkpoint and a drop's tombstone sits in the
/// log buffer until the next flush. A clone is durable only when it
/// `programmed` a delta page — one whose whole window is holes landing on
/// already-unmapped pages emits no deltas and programs nothing.
fn is_durability_point(op: &FtlOp, programmed: bool) -> bool {
    match op {
        FtlOp::Share { .. } | FtlOp::WriteAtomic { .. } | FtlOp::Flush | FtlOp::Checkpoint => true,
        FtlOp::SnapClone { .. } => programmed,
        _ => false,
    }
}

pub(crate) fn exec(ftl: &mut Ftl, op: &FtlOp) -> Result<(), FtlError> {
    let ps = ftl.page_size();
    match op {
        FtlOp::Write { lpn, fill } => ftl.write(Lpn(*lpn), &vec![*fill; ps]),
        FtlOp::Read { lpn } => ftl.read(Lpn(*lpn), &mut vec![0u8; ps]),
        FtlOp::Trim { lpn } => ftl.trim(Lpn(*lpn), 1),
        FtlOp::Share { pairs } => ftl.share(&share_pairs(pairs)),
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
        FtlOp::SnapCreate { slot, start, len } => {
            ftl.snapshot_create(&slot_name(*slot), Lpn(*start), *len).map(drop)
        }
        FtlOp::SnapClone { slot, src_offset, dst, len } => {
            ftl.snapshot_clone(&slot_name(*slot), *src_offset, Lpn(*dst), *len).map(drop)
        }
        FtlOp::SnapDrop { slot } => ftl.snapshot_drop(&slot_name(*slot)),
        FtlOp::SnapRead { slot, offset } => {
            ftl.snapshot_read(&slot_name(*slot), *offset, &mut vec![0u8; ps])
        }
    }
}

/// Map an op that [has a queued form](FtlOp::has_queued_form) onto its
/// queued command, lending `pairs` and `pages`.
fn to_queued<'a>(
    op: &FtlOp,
    ps: usize,
    pairs: &'a [SharePair],
    pages: &'a [(Lpn, &'a [u8])],
) -> QueuedCmd<'a> {
    match op {
        FtlOp::Write { lpn, fill } => QueuedCmd::Write { lpn: Lpn(*lpn), data: vec![*fill; ps] },
        FtlOp::Read { lpn } => QueuedCmd::Read { lpn: Lpn(*lpn) },
        FtlOp::Trim { lpn } => QueuedCmd::Trim { lpn: Lpn(*lpn), len: 1 },
        FtlOp::Share { .. } => QueuedCmd::Share { pairs },
        FtlOp::WriteAtomic { .. } => QueuedCmd::WriteAtomic { pages },
        FtlOp::WriteBatch { .. } => QueuedCmd::WriteBatch { pages },
        FtlOp::Flush => QueuedCmd::Flush,
        _ => unreachable!("{op:?} has no queued form"),
    }
}

/// Submit `op`, which has a queued form; a full queue reaps (earliest
/// completion) and retries, mirroring the engine submission loops. Returns
/// whether it reaped.
fn submit(ftl: &mut Ftl, handle: &FaultHandle, op: &FtlOp) -> Result<bool, String> {
    // What the command borrows, owned here across `QueueFull` retries: the
    // device takes nothing with it past `submit`.
    let ps = ftl.page_size();
    let (spec, pairs): (&[(u64, u8)], Vec<SharePair>) = match op {
        FtlOp::WriteAtomic { pages } | FtlOp::WriteBatch { pages } => (pages, Vec::new()),
        FtlOp::Share { pairs } => (&[], share_pairs(pairs)),
        _ => (&[], Vec::new()),
    };
    let bufs = fill_pages(spec, ps);
    let pages = lend_pages(spec, &bufs);
    let mut reaped = false;
    loop {
        match ftl.submit(to_queued(op, ps, &pairs, &pages)) {
            Ok(_tag) => return Ok(reaped),
            Err(FtlError::QueueFull { .. }) => {
                check_reaped(ftl.reap(), handle)?;
                reaped = true;
            }
            Err(e) => return Err(format!("submit rejected {op:?}: {e}")),
        }
    }
}

/// Fail on a completion that failed while the device was up.
fn check_reaped(done: Vec<Completion>, handle: &FaultHandle) -> Result<(), String> {
    match done.into_iter().find_map(|c| c.result.err()) {
        Some(e) if !handle.is_down() => Err(format!("queued command failed un-crashed: {e}")),
        _ => Ok(()),
    }
}

/// The model states after each applied op, the admissible floor, whether
/// the run crashed, and how many other commands were submitted but not yet
/// reaped when it did (0 when the crash hit a synchronous op).
pub(crate) struct RunTrace {
    pub(crate) states: Vec<State>,
    pub(crate) floor: usize,
    pub(crate) crashed: bool,
    pub(crate) inflight_at_crash: usize,
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
    let mut observed = Vec::with_capacity(pages as usize);
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
    if !trace.states[trace.floor..].iter().any(|s| s.pages == observed) {
        let last = &trace.states.last().unwrap().pages;
        let diffs: Vec<String> = (0..pages as usize)
            .filter(|&i| observed[i] != last[i])
            .take(8)
            .map(|i| format!("lpn {i}: recovered {:?}, final model {:?}", observed[i], last[i]))
            .collect();
        return Err(format!(
            "recovered state matches no applied-op prefix in [{}, {}] (crashed={}); e.g. {}",
            trace.floor,
            trace.states.len() - 1,
            trace.crashed,
            diffs.join("; ")
        ));
    }

    // 6. Every recovered snapshot as the shadow table held it at some point.
    verify_snapshots(rec, &trace.states)
}

/// Snapshot-table oracle: every recovered snapshot must equal some
/// applied-op point's shadow for its name slot — same frozen range, same
/// per-offset content read through `snapshot_read` (fills are nonzero, so
/// a zero byte unambiguously reads a hole). Fabricated, torn, or
/// content-corrupted snapshots match no point and fail; a device that never
/// took a snapshot passes without a read.
fn verify_snapshots(rec: &mut Ftl, states: &[State]) -> Result<(), String> {
    let infos = rec.snapshot_list().map_err(|e| format!("snapshot_list failed: {e}"))?;
    let mut buf = vec![0u8; rec.page_size()];
    for info in infos {
        let slot: u32 = info
            .name
            .strip_prefix('s')
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("recovered snapshot has foreign name {:?}", info.name))?;
        let mut content: Vec<Option<u8>> = Vec::with_capacity(info.len as usize);
        for off in 0..info.len {
            rec.snapshot_read(&info.name, off, &mut buf)
                .map_err(|e| format!("snapshot_read({}, {off}) failed: {e}", info.name))?;
            if !buf.iter().all(|&b| b == buf[0]) {
                return Err(format!(
                    "snapshot {} offset {off} reads non-uniform content: torn frozen page",
                    info.name
                ));
            }
            content.push(if buf[0] == 0 { None } else { Some(buf[0]) });
        }
        let observed = SnapShadow { start: info.start.0, content };
        let matched = states.iter().any(|m| m.snaps.get(&slot) == Some(&observed));
        if !matched {
            return Err(format!(
                "recovered snapshot {} (start {}, len {}) matches its shadow at no \
                 applied-op point: fabricated or corrupted frozen state",
                info.name, info.start.0, info.len
            ));
        }
    }
    Ok(())
}

/// A deterministic FTL-level crash workload: the ops, the device they run
/// on, and how they are issued. Every FTL workload of the sweep is one.
#[derive(Debug, Clone)]
pub struct FtlWorkload {
    pub(crate) name: String,
    pub(crate) cfg: FtlConfig,
    pub(crate) ops: Vec<FtlOp>,
    /// Submissions between reaps when the ops go through the queue; `None`
    /// issues every op synchronously.
    pub(crate) round: Option<usize>,
}

/// Logical pages of the mixed workload: small, so GC, sharing and
/// checkpoints all trigger within a few hundred ops.
pub const MIXED_PAGES: u64 = 64;

/// Cold LPNs of the `relocate` workload: written once, then only shared.
const RELOCATE_COLD: u64 = 8;

/// A zero-latency one-channel device of `pages` 4 KiB logical pages, half
/// again as many spare, in 16-page blocks.
pub(crate) fn small_device(pages: u64) -> FtlConfig {
    FtlConfig::for_capacity_with(pages * 4096, 0.5, 4096, 16, NandTiming::zero())
}

/// The `mixed` and `relocate` device: [`MIXED_PAGES`] zero-latency 4 KiB
/// pages in four-page blocks with a tenth spare, so GC copies live pages
/// back within a few hundred ops and a crash can land inside a relocation.
fn tight_device() -> FtlConfig {
    FtlConfig::for_capacity_with(MIXED_PAGES * 4096, 0.1, 4096, 4, NandTiming::zero())
}

impl FtlWorkload {
    /// `ops`, issued synchronously on a device shaped `cfg`.
    pub(crate) fn new(name: String, cfg: FtlConfig, ops: Vec<FtlOp>) -> Self {
        Self { name, cfg, ops, round: None }
    }

    /// Mixed write/trim/share/atomic-write workload over a small logical
    /// space: `n_ops` ops generated deterministically from `seed`. Share
    /// and atomic batches are pre-validated against the shadow model so
    /// every generated op is accepted, keeping the generated sequence equal
    /// to the applied one on any fault-free prefix.
    pub fn mixed(seed: u64, n_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = State::new(MIXED_PAGES);
        let mut ops = Vec::with_capacity(n_ops);
        while ops.len() < n_ops {
            let op = gen_mixed(&mut rng, &model);
            apply(&mut model, &op);
            ops.push(op);
        }
        Self::new(format!("ftl-mixed-s{seed}-n{n_ops}"), tight_device(), ops)
    }

    /// A few cold pages, written once, are shared onto the hot pages that
    /// overwrites keep churning, so GC relocates cold pages together with
    /// every LPN that shares them — and a crash can land inside such a
    /// relocation.
    pub fn relocate(seed: u64, n_ops: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Every page written once, each cold page followed by seven hot
        // ones: once the overwrites hollow out the blocks of that first
        // pass, their cold pages are what collecting them relocates.
        let first = (0..RELOCATE_COLD).flat_map(|c| {
            let hot = (0..7).map(move |j| RELOCATE_COLD + 7 * c + j);
            std::iter::once(c).chain(hot)
        });
        let mut ops: Vec<FtlOp> =
            first.map(|lpn| FtlOp::Write { lpn, fill: lpn as u8 + 1 }).collect();
        while ops.len() < n_ops {
            ops.push(gen_relocate(&mut rng));
        }
        // Collection starts within the first hundred overwrites, and its
        // victims still hold cold pages.
        Self::new(format!("ftl-relocate-s{seed}-n{n_ops}"), tight_device(), ops)
    }

    /// The mixed workload replayed through the NVMe-style submission queue,
    /// reaped once every `round` submissions (round > 1 keeps commands in
    /// flight across crashes). The queue executes a command's state
    /// transitions eagerly at submission and defers only its timing, so
    /// the program sequence is the synchronous one: `TornHalf` and
    /// `DroppedWrite` crash *at submission* while other commands are in
    /// flight, `AfterProgram` *at completion*, before the host reaps it.
    /// Un-reaped completions vanish with the host, and the recovered state
    /// must still equal one prefix of the *submission* order.
    pub fn queued(seed: u64, n_ops: usize, round: usize) -> Self {
        let name = format!("ftl-queued-s{seed}-n{n_ops}-r{round}");
        Self { name, ..Self::mixed(seed, n_ops).with_round(round) }
    }

    /// The same ops through the submission queue, reaped every `round`.
    pub(crate) fn with_round(self, round: usize) -> Self {
        assert!(round >= 1, "round must be at least 1");
        Self { round: Some(round), ..self }
    }

    /// A parsed block trace (`W/R/T/S/F` lines, see `share_workloads::TraceOp`)
    /// over the logical pages it addresses (at least 16). Write fills derive
    /// from the op index, so content checks stay exact.
    pub fn trace(label: &str, trace: &[TraceOp]) -> Self {
        let max_lpn = trace
            .iter()
            .map(|op| match *op {
                TraceOp::Write { lpn } | TraceOp::Read { lpn } => lpn,
                TraceOp::Trim { lpn, len } => lpn + len.saturating_sub(1),
                TraceOp::Share { dest, src, len } => dest.max(src) + len.saturating_sub(1),
                TraceOp::Flush => 0,
            })
            .max()
            .unwrap_or(0);
        let ops = trace
            .iter()
            .enumerate()
            .map(|(i, t)| match *t {
                TraceOp::Write { lpn } => FtlOp::Write { lpn, fill: (i % 255 + 1) as u8 },
                TraceOp::Read { lpn } => FtlOp::Read { lpn },
                // The oracle models single-page trims; clamp ranges.
                TraceOp::Trim { lpn, .. } => FtlOp::Trim { lpn },
                TraceOp::Share { dest, src, len } => FtlOp::Share {
                    pairs: (0..len).map(|k| (dest + k, src + k)).collect(),
                },
                TraceOp::Flush => FtlOp::Flush,
            })
            .collect();
        Self::new(format!("ftl-trace-{label}"), small_device((max_lpn + 1).max(16)), ops)
    }

    /// Drive the ops against `ftl` with the fault handle already armed (or
    /// not, for measurement) until the first failure, which must be the
    /// crash or a rejection the workload tolerates: validation of a
    /// synchronous op, and the snapshot table's limits when the workload
    /// issues snapshot ops. A queued workload tolerates none.
    fn drive(&self, ftl: &mut Ftl, handle: &FaultHandle) -> Result<RunTrace, String> {
        let snapshots = self.ops.iter().any(FtlOp::is_snapshot);
        let tolerated = |e: &FtlError| {
            use FtlError::*;
            self.round.is_none()
                && (matches!(e, SrcUnmapped(_) | InvalidBatch(_) | LpnOutOfRange { .. })
                    || snapshots
                        && matches!(
                            e,
                            SnapshotNotFound
                                | SnapshotExists
                                | SnapshotTableFull
                                | RefOverflow
                                | RevMapFull { .. }
                        ))
        };
        let states = vec![State::new(self.cfg.logical_pages)];
        let mut t = RunTrace { states, floor: 0, crashed: false, inflight_at_crash: 0 };
        let mut since_reap = 0usize;
        for op in &self.ops {
            let before = handle.programs_seen();
            let queued = self.round.filter(|_| op.has_queued_form());
            if let Some(round) = queued {
                if submit(ftl, handle, op)? {
                    since_reap = 0;
                }
                // State executed eagerly at submission: the shadow model
                // advances now, in submission order.
                push_applied(&mut t.states, op);
                if handle.is_down() {
                    // The fault fired inside this submission's eager
                    // execution; its effect may or may not have landed.
                    t.inflight_at_crash = ftl.inflight().saturating_sub(1);
                    t.crashed = true;
                    break;
                }
                since_reap += 1;
                if since_reap >= round {
                    check_reaped(ftl.reap(), handle)?;
                    since_reap = 0;
                }
            } else {
                if self.round.is_some() {
                    // A synchronous ordering point: drain the queue first.
                    check_reaped(ftl.drain(), handle)?;
                    since_reap = 0;
                }
                match exec(ftl, op) {
                    Ok(()) => push_applied(&mut t.states, op),
                    // Rejected by validation before any state change.
                    Err(e) if !handle.is_down() && tolerated(&e) => continue,
                    Err(e) if !handle.is_down() => {
                        return Err(format!("unexpected non-crash error from {op:?}: {e}"))
                    }
                    Err(_) => {
                        // The crashed op's effect may have become durable
                        // before the power loss; admit its post-state too.
                        push_applied(&mut t.states, op);
                        t.crashed = true;
                        break;
                    }
                }
            }
            if is_durability_point(op, handle.programs_seen() > before) {
                t.floor = t.states.len() - 1;
            }
        }
        if self.round.is_some() && !t.crashed {
            check_reaped(ftl.drain(), handle)?;
        }
        Ok(t)
    }

    /// Run the ops once on a fresh device, with a fault armed at the
    /// `index`-th program after setup or with none: the device as the run
    /// left it, the run's trace and its program attempts.
    fn run(&self, fault: Option<(FaultMode, u64)>) -> Result<(Ftl, RunTrace, u64), String> {
        let mut ftl = Ftl::new(self.cfg.clone());
        let handle = ftl.fault_handle();
        let base = handle.programs_seen();
        if let Some((mode, index)) = fault {
            handle.arm_after_programs(index, mode);
        }
        let trace = self.drive(&mut ftl, &handle)?;
        handle.disarm();
        if let Some((_, index)) = fault.filter(|_| handle.faults_fired() != 1) {
            return Err(format!("the fault armed at program {index} never fired"));
        }
        Ok((ftl, trace, handle.programs_seen() - base))
    }

    /// Crash at the `index`-th program, recover and check the oracle; the
    /// crashed run's trace.
    pub(crate) fn crash(&self, mode: FaultMode, index: u64) -> Result<RunTrace, String> {
        let (ftl, trace, _) = self.run(Some((mode, index)))?;
        let mut rec = Ftl::open(self.cfg.clone(), ftl.into_nand())
            .map_err(|e| format!("Ftl::open failed after crash: {e}"))?;
        verify_recovered(&mut rec, &trace, &self.cfg)?;
        Ok(trace)
    }
}

/// The `relocate` workload's next op after its first writes: an overwrite
/// of a hot page, a share of a cold page onto a hot one, or a flush.
fn gen_relocate(rng: &mut StdRng) -> FtlOp {
    let hot = rng.random_range(RELOCATE_COLD..MIXED_PAGES);
    match rng.random_range(0..8u32) {
        0..=3 => FtlOp::Write { lpn: hot, fill: rng.random_range(1..256u32) as u8 },
        4..=6 => FtlOp::Share { pairs: vec![(hot, rng.random_range(0..RELOCATE_COLD))] },
        _ => FtlOp::Flush,
    }
}

fn gen_mixed(rng: &mut StdRng, model: &State) -> FtlOp {
    let lpn = |rng: &mut StdRng| rng.random_range(0..MIXED_PAGES);
    let fill = |rng: &mut StdRng| rng.random_range(1..256u32) as u8;
    let mapped: Vec<u64> =
        (0..MIXED_PAGES).filter(|&l| model.pages[l as usize].is_some()).collect();
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

impl CrashWorkload for FtlWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn crash_points(&self) -> u64 {
        self.run(None).expect("fault-free run cannot fail").2
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        self.crash(mode, index).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FTL_OPS;
    use nand_sim::Ppn;

    #[test]
    fn generated_ops_are_deterministic() {
        let a = FtlWorkload::mixed(7, 50);
        let b = FtlWorkload::mixed(7, 50);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_eq!(a.crash_points(), b.crash_points());
    }

    /// The `relocate` workload's fault-free run accepts every op, and GC
    /// relocates shared pages: every LPN of a page held by several, moved
    /// to one freshly programmed page by an op that copied back.
    #[test]
    fn relocate_run_moves_every_holder_of_shared_pages() {
        let w = FtlWorkload::relocate(42, FTL_OPS);
        let mut ftl = Ftl::new(w.cfg.clone());
        let holders = |ftl: &Ftl| {
            let mut by_ppn: HashMap<Ppn, Vec<u64>> = HashMap::new();
            for lpn in 0..MIXED_PAGES {
                if let Some(ppn) = ftl.mapping_of(Lpn(lpn)) {
                    by_ppn.entry(ppn).or_default().push(lpn);
                }
            }
            by_ppn
        };
        let mut relocated = 0;
        for op in &w.ops {
            let before = holders(&ftl);
            let copybacks = ftl.stats().copyback_pages;
            exec(&mut ftl, op).unwrap();
            let after = holders(&ftl);
            if ftl.stats().copyback_pages == copybacks {
                continue;
            }
            relocated += before
                .iter()
                .filter(|(ppn, lpns)| lpns.len() > 1 && !after.contains_key(ppn))
                .filter(|(_, lpns)| {
                    let dest = ftl.mapping_of(Lpn(lpns[0]));
                    dest.is_some_and(|d| !before.contains_key(&d) && after[&d] == **lpns)
                })
                .count();
        }
        assert!(relocated > 0, "GC never relocated a shared page");
        ftl.check_invariants();
    }

    /// The `ftl` and `queued` sweeps crash inside GC relocations: their
    /// fault-free runs copy live pages back.
    #[test]
    fn mixed_and_queued_runs_copy_back() {
        for w in [FtlWorkload::mixed(42, FTL_OPS), FtlWorkload::queued(42, FTL_OPS, 4)] {
            let (ftl, _, _) = w.run(None).unwrap();
            assert!(ftl.stats().copyback_pages > 0, "{}: GC never copied back", w.name);
        }
    }

    #[test]
    fn fault_free_run_has_a_nonempty_crash_space() {
        let w = FtlWorkload::mixed(1, 60);
        assert!(w.crash_points() > 30, "60 mixed ops should program > 30 pages");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = FtlWorkload::mixed(3, 80);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }

    #[test]
    fn trace_workload_sweeps_share_lines() {
        let text = "W 0\nW 1\nF\nS 8 0 2\nW 2\nF\n";
        let w = FtlWorkload::trace("inline", &share_workloads::parse_trace(text));
        assert_eq!(w.cfg.logical_pages, 16);
        let total = w.crash_points();
        assert!(total > 4);
        for i in 1..=total {
            w.run_case(FaultMode::TornHalf, i).unwrap();
        }
    }

    #[test]
    fn a_fault_that_never_fires_fails_the_case() {
        let w = FtlWorkload::mixed(3, 40);
        let past = w.crash_points() + 1;
        let e = w.run_case(FaultMode::TornHalf, past).unwrap_err();
        assert!(e.contains("never fired"), "{e}");
    }

    /// A fault-free run of `ops`, its trace and the device reopened over it;
    /// the oracle accepts the pair as it stands.
    fn reopened(ops: Vec<FtlOp>) -> (FtlWorkload, RunTrace, Ftl) {
        let w = FtlWorkload::new("control".into(), small_device(16), ops);
        let (ftl, trace, _) = w.run(None).unwrap();
        let mut rec = Ftl::open(w.cfg.clone(), ftl.into_nand()).unwrap();
        verify_recovered(&mut rec, &trace, &w.cfg).unwrap();
        (w, trace, rec)
    }

    #[test]
    fn the_oracle_rejects_a_page_rewritten_after_recovery() {
        let ops = vec![FtlOp::Write { lpn: 3, fill: 9 }, FtlOp::Flush];
        let (w, trace, mut rec) = reopened(ops);
        rec.write(Lpn(3), &vec![10; rec.page_size()]).unwrap();
        let e = verify_recovered(&mut rec, &trace, &w.cfg).unwrap_err();
        assert!(e.contains("matches no applied-op prefix") && e.contains("lpn 3"), "{e}");
    }

    #[test]
    fn the_oracle_rejects_a_trace_that_admits_only_a_split_share() {
        let (w, mut trace, mut rec) = reopened(vec![
            FtlOp::Write { lpn: 0, fill: 1 },
            FtlOp::Write { lpn: 1, fill: 2 },
            FtlOp::Share { pairs: vec![(8, 0), (9, 1)] },
        ]);
        // The share is a durability point: its post-state is the only
        // admissible one. Keep only its first pair there.
        assert_eq!(trace.floor, trace.states.len() - 1);
        trace.states.last_mut().unwrap().pages[9] = None;
        let e = verify_recovered(&mut rec, &trace, &w.cfg).unwrap_err();
        assert!(e.contains("matches no applied-op prefix") && e.contains("lpn 9"), "{e}");
    }

    #[test]
    fn the_oracle_rejects_a_snapshot_no_shadow_point_holds() {
        let (w, trace, mut rec) = reopened(vec![
            FtlOp::Write { lpn: 0, fill: 1 },
            FtlOp::SnapCreate { slot: 0, start: 0, len: 2 },
            FtlOp::Checkpoint,
        ]);
        // The same table shape under a name the shadow never had.
        rec.snapshot_drop("s0").unwrap();
        rec.snapshot_create("s1", Lpn(0), 2).unwrap();
        let e = verify_recovered(&mut rec, &trace, &w.cfg).unwrap_err();
        assert!(e.contains("recovered snapshot s1"), "{e}");
    }
}
