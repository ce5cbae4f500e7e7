//! Crash sweeping of the *queued* submission path.
//!
//! The async queue executes a command's state transitions eagerly at
//! submission (in submission order) and defers only its NAND timing, so
//! the medium and crash images are supposed to be identical to the
//! synchronous path. This workload proves that at every program boundary:
//! it drives the same deterministic op mix as [`FtlMixedWorkload`]
//! through `submit`/`reap`/`drain` with several commands in flight, and
//! sweeps all three [`FaultMode`]s over every NAND program attempt.
//!
//! The three modes cover both boundaries of a queued command's life on
//! the medium: `TornHalf` and `DroppedWrite` crash *at submission* (the
//! program issued by the eager execution is interrupted or lost while
//! other commands are still in flight), and `AfterProgram` crashes *at
//! completion* (power is lost the instant the program lands, before the
//! host ever reaps the completion). In every case the un-reaped
//! completions vanish with the host, and the recovered state must still
//! equal exactly one prefix of the *submission* order — the same
//! prefix-consistency oracle as the synchronous sweep.
//!
//! [`FtlMixedWorkload`]: crate::FtlMixedWorkload

use crate::ftl_workload::{
    fill_pages, is_durability_point, lend_pages, push_applied, verify_recovered, FtlOp, RunTrace,
    State, MIXED_PAGES,
};
use crate::{CrashWorkload, FtlMixedWorkload};
use nand_sim::FaultMode;
use share_core::{BlockDevice, Ftl, FtlConfig, FtlError, Lpn, QueuedCmd, SharePair};

/// How a swept case ended, for coverage assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedCaseOutcome {
    /// Commands submitted but not yet reaped when the fault fired
    /// (0 when the crash hit a synchronous durability op).
    pub inflight_at_crash: usize,
    /// Whether the armed fault actually brought the device down.
    pub crashed: bool,
}

/// The mixed workload of [`FtlMixedWorkload`], replayed through the
/// NVMe-style submission/completion queue with round-based reaping.
#[derive(Debug, Clone)]
pub struct FtlQueuedWorkload {
    name: String,
    inner: FtlMixedWorkload,
    /// Submissions between reaps; keeps several commands in flight so
    /// crashes land while the queue is busy.
    round: usize,
}

impl FtlQueuedWorkload {
    /// Generate `n_ops` ops from `seed`; reap once every `round`
    /// submissions (round > 1 keeps commands in flight across crashes).
    pub fn new(seed: u64, n_ops: usize, round: usize) -> Self {
        assert!(round >= 1, "round must be at least 1");
        let name = format!("ftl-queued-s{seed}-n{n_ops}-r{round}");
        Self { name, inner: FtlMixedWorkload::new(seed, n_ops), round }
    }

    /// The queued write every engine sends, which the seeded mix never
    /// issues: a fixed sequence of `rounds` 2–8-page `WriteBatch` commands
    /// over the mixed workload's device, each followed by a `Share` of two
    /// of its pages, a `Trim` of one or a `Flush`, reaped every `round`
    /// submissions. A batch is prefix-durable, so the oracle steps through
    /// it page by page.
    pub fn write_batches(rounds: u64, round: usize) -> Self {
        assert!(round >= 1, "round must be at least 1");
        let mut inner = FtlMixedWorkload::new(0, 0);
        for r in 0..rounds {
            // Stride 9 is coprime to the page count: a batch's LPNs are
            // distinct, and so are the two SHARE destinations half the
            // space away from its first two pages.
            let at = |j: u64| (r * 13 + j * 9) % MIXED_PAGES;
            let fill = |j: u64| ((r * 8 + j) % 255 + 1) as u8;
            let pages = (0..2 + r % 7).map(|j| (at(j), fill(j))).collect();
            inner.ops.push(FtlOp::WriteBatch { pages });
            inner.ops.push(match r % 3 {
                0 => {
                    let dest = |j: u64| (at(j) + MIXED_PAGES / 2) % MIXED_PAGES;
                    FtlOp::Share { pairs: vec![(dest(0), at(0)), (dest(1), at(1))] }
                }
                1 => FtlOp::Trim { lpn: at(1) },
                _ => FtlOp::Flush,
            });
        }
        Self { name: format!("ftl-queued-batch-n{rounds}-r{round}"), inner, round }
    }

    fn cfg(&self) -> &FtlConfig {
        &self.inner.cfg
    }

    /// One case with full outcome detail (the sweep trait uses this too).
    pub fn run_case_detailed(
        &self,
        mode: Option<FaultMode>,
        index: u64,
    ) -> Result<(u64, Option<String>, QueuedCaseOutcome), String> {
        let cfg = self.cfg();
        let mut ftl = Ftl::new(cfg.clone());
        let ps = ftl.page_size();
        let handle = ftl.fault_handle();
        let base = handle.programs_seen();
        if let Some(mode) = mode {
            handle.arm_after_programs(index, mode);
        }

        let mut states: Vec<State> = vec![vec![None; cfg.logical_pages as usize]];
        let mut floor = 0usize;
        let mut crashed = false;
        let mut inflight_at_crash = 0usize;
        let mut since_reap = 0usize;

        'ops: for op in &self.inner.ops {
            // What the command borrows, owned here across `QueueFull`
            // retries: the device takes nothing with it past `submit`.
            let (spec, pairs): (&[(u64, u8)], Vec<SharePair>) = match op {
                FtlOp::WriteAtomic { pages } | FtlOp::WriteBatch { pages } => (pages, Vec::new()),
                FtlOp::Share { pairs } => {
                    (&[], pairs.iter().map(|&(d, s)| SharePair::new(Lpn(d), Lpn(s))).collect())
                }
                _ => (&[], Vec::new()),
            };
            let bufs = fill_pages(spec, ps);
            let pages = lend_pages(spec, &bufs);
            let queued = match to_queued(op, ps, &pairs, &pages) {
                Some(cmd) => cmd,
                None => {
                    // Checkpoint: a synchronous ordering point — drain the
                    // queue first, exactly as the engines do before fsync.
                    for c in ftl.drain() {
                        if let Err(e) = c.result {
                            if handle.is_down() {
                                // A pre-crash submission whose reap raced the
                                // fault; the crash bookkeeping below handles it.
                                break;
                            }
                            return Err(format!("queued command failed un-crashed: {e}"));
                        }
                    }
                    since_reap = 0;
                    match ftl.checkpoint() {
                        Ok(()) => {
                            let s = states.last().unwrap().clone();
                            states.push(s);
                            floor = states.len() - 1;
                            continue 'ops;
                        }
                        Err(e) => {
                            if !handle.is_down() {
                                return Err(format!(
                                    "unexpected non-crash error from {op:?}: {e}"
                                ));
                            }
                            let s = states.last().unwrap().clone();
                            states.push(s);
                            crashed = true;
                            break 'ops;
                        }
                    }
                }
            };

            // Backpressure: a full queue reaps (earliest completion) and
            // retries, mirroring the engine submission loops.
            let mut cmd = queued;
            loop {
                match ftl.submit(cmd) {
                    Ok(_tag) => break,
                    Err(FtlError::QueueFull { .. }) => {
                        cmd = to_queued(op, ps, &pairs, &pages).expect("queued op");
                        for c in ftl.reap() {
                            if let Err(e) = c.result {
                                if !handle.is_down() {
                                    return Err(format!(
                                        "queued command failed un-crashed: {e}"
                                    ));
                                }
                            }
                        }
                        since_reap = 0;
                    }
                    Err(e) => return Err(format!("submit rejected {op:?}: {e}")),
                }
            }

            // State executed eagerly at submission: the shadow model
            // advances now, in submission order.
            push_applied(&mut states, op);
            if handle.is_down() {
                // The fault fired inside this submission's eager
                // execution; its effect may or may not have landed.
                inflight_at_crash = ftl.inflight().saturating_sub(1);
                crashed = true;
                break 'ops;
            }
            if is_durability_point(op) {
                floor = states.len() - 1;
            }
            since_reap += 1;
            if since_reap >= self.round {
                for c in ftl.reap() {
                    if let Err(e) = c.result {
                        return Err(format!("queued command failed un-crashed: {e}"));
                    }
                }
                since_reap = 0;
            }
        }

        if !crashed {
            for c in ftl.drain() {
                if let Err(e) = c.result {
                    if !handle.is_down() {
                        return Err(format!("queued command failed un-crashed: {e}"));
                    }
                }
            }
        }
        handle.disarm();
        let attempts = handle.programs_seen() - base;
        let outcome = QueuedCaseOutcome { inflight_at_crash, crashed };
        if mode.is_none() {
            return Ok((attempts, None, outcome));
        }

        // Recover: un-reaped completions die with the host; only the
        // medium survives into the reopened device.
        let trace = RunTrace { states, floor, crashed };
        let mut rec = Ftl::open(cfg.clone(), ftl.into_nand())
            .map_err(|e| format!("Ftl::open failed after crash: {e}"))?;
        let violation = verify_recovered(&mut rec, &trace, cfg).err();
        Ok((attempts, violation, outcome))
    }
}

/// Map an oracle op onto its queued command, lending `pairs` and `pages`;
/// `None` = checkpoint (the one op with no queued form — it is an explicit
/// synchronous ordering point).
fn to_queued<'a>(
    op: &FtlOp,
    ps: usize,
    pairs: &'a [SharePair],
    pages: &'a [(Lpn, &'a [u8])],
) -> Option<QueuedCmd<'a>> {
    Some(match op {
        FtlOp::Write { lpn, fill } => {
            QueuedCmd::Write { lpn: Lpn(*lpn), data: vec![*fill; ps] }
        }
        FtlOp::Read { lpn } => QueuedCmd::Read { lpn: Lpn(*lpn) },
        FtlOp::Trim { lpn } => QueuedCmd::Trim { lpn: Lpn(*lpn), len: 1 },
        FtlOp::Share { .. } => QueuedCmd::Share { pairs },
        FtlOp::WriteAtomic { .. } => QueuedCmd::WriteAtomic { pages },
        FtlOp::WriteBatch { .. } => QueuedCmd::WriteBatch { pages },
        FtlOp::Flush => QueuedCmd::Flush,
        FtlOp::Checkpoint => return None,
    })
}

impl CrashWorkload for FtlQueuedWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn crash_points(&self) -> u64 {
        self.run_case_detailed(None, 0).expect("fault-free run cannot fail").0
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        match self.run_case_detailed(Some(mode), index)? {
            (_, None, _) => Ok(()),
            (_, Some(v), _) => Err(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_and_sync_runs_program_the_same_pages() {
        // Eager execution at submit: the queued replay of the same op
        // sequence must issue exactly the sync path's program attempts.
        let sync = FtlMixedWorkload::new(11, 70);
        let queued = FtlQueuedWorkload::new(11, 70, 4);
        assert_eq!(sync.crash_points(), queued.crash_points());
    }

    #[test]
    fn crashes_land_while_commands_are_in_flight() {
        // The round-based reaping must actually keep the queue busy:
        // across the sweep, some crashes must fire with other commands
        // submitted-but-unreaped (the new state space this workload adds).
        let w = FtlQueuedWorkload::new(5, 60, 4);
        let total = w.crash_points();
        let mut with_inflight = 0u64;
        let mut crashes = 0u64;
        let mut idx = 1;
        while idx <= total {
            let (_, violation, out) =
                w.run_case_detailed(Some(FaultMode::TornHalf), idx).unwrap();
            assert!(violation.is_none(), "index {idx}: {violation:?}");
            if out.crashed {
                crashes += 1;
                if out.inflight_at_crash > 0 {
                    with_inflight += 1;
                }
            }
            idx += 7;
        }
        assert!(crashes > 0, "sweep never crashed");
        assert!(
            with_inflight > 0,
            "no crash fired with commands in flight ({crashes} crashes swept)"
        );
    }

    #[test]
    fn write_batches_survive_every_crash_point_as_page_prefixes() {
        // Exhaustive over a short sequence: a crash inside a queued k-page
        // batch must leave some prefix of its pages, never a later page
        // without an earlier one, and never a torn SHARE after it.
        let w = FtlQueuedWorkload::write_batches(12, 4);
        let ops = w.inner.ops.iter();
        let batches: Vec<usize> = ops
            .filter_map(|op| match op {
                FtlOp::WriteBatch { pages } => Some(pages.len()),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), 12);
        assert_eq!((batches.iter().min(), batches.iter().max()), (Some(&2), Some(&8)));
        let total = w.crash_points();
        assert!(total >= batches.iter().sum::<usize>() as u64);
        let mut with_inflight = 0;
        for mode in FaultMode::ALL {
            for idx in 1..=total {
                let (_, violation, out) = w.run_case_detailed(Some(mode), idx).unwrap();
                assert!(violation.is_none(), "{} index {idx}: {violation:?}", mode.label());
                with_inflight += u64::from(out.crashed && out.inflight_at_crash > 0);
            }
        }
        assert!(with_inflight > 0, "no crash fired with batches in flight");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = FtlQueuedWorkload::new(9, 80, 4);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }
}
