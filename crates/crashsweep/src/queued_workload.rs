//! The queued write every engine sends, which the seeded mixes never issue.
//!
//! `FtlWorkload::queued` replays the mixed op mix through the submission
//! queue; this module adds the fixed sequence of multi-page `WriteBatch`
//! commands and the coverage tests of the queued path: crashes that land
//! with commands in flight, and batches that survive as page prefixes.

use crate::ftl_workload::{small_device, FtlOp, FtlWorkload, MIXED_PAGES};

impl FtlWorkload {
    /// A fixed sequence of `rounds` 2–8-page `WriteBatch` commands over the
    /// mixed workload's device, each followed by a `Share` of two of its
    /// pages, a `Trim` of one or a `Flush`, reaped every `round`
    /// submissions. A batch is prefix-durable, so the oracle steps through
    /// it page by page.
    pub fn write_batches(rounds: u64, round: usize) -> Self {
        let mut ops = Vec::new();
        for r in 0..rounds {
            // Stride 9 is coprime to the page count: a batch's LPNs are
            // distinct, and so are the two SHARE destinations half the
            // space away from its first two pages.
            let at = |j: u64| (r * 13 + j * 9) % MIXED_PAGES;
            let fill = |j: u64| ((r * 8 + j) % 255 + 1) as u8;
            let pages = (0..2 + r % 7).map(|j| (at(j), fill(j))).collect();
            ops.push(FtlOp::WriteBatch { pages });
            ops.push(match r % 3 {
                0 => {
                    let dest = |j: u64| (at(j) + MIXED_PAGES / 2) % MIXED_PAGES;
                    FtlOp::Share { pairs: vec![(dest(0), at(0)), (dest(1), at(1))] }
                }
                1 => FtlOp::Trim { lpn: at(1) },
                _ => FtlOp::Flush,
            });
        }
        let name = format!("ftl-queued-batch-n{rounds}-r{round}");
        Self::new(name, small_device(MIXED_PAGES), ops).with_round(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashWorkload;
    use nand_sim::FaultMode;

    #[test]
    fn queued_and_sync_runs_program_the_same_pages() {
        // Eager execution at submit: the queued replay of the same op
        // sequence must issue exactly the sync path's program attempts.
        let sync = FtlWorkload::mixed(11, 70);
        let queued = FtlWorkload::queued(11, 70, 4);
        assert_eq!(sync.crash_points(), queued.crash_points());
    }

    #[test]
    fn crashes_land_while_commands_are_in_flight() {
        // The round-based reaping must actually keep the queue busy:
        // across the sweep, some crashes must fire with other commands
        // submitted-but-unreaped (the new state space this workload adds).
        let w = FtlWorkload::queued(5, 60, 4);
        let total = w.crash_points();
        let mut with_inflight = 0u64;
        let mut crashes = 0u64;
        let mut idx = 1;
        while idx <= total {
            let trace = w.crash(FaultMode::TornHalf, idx).unwrap_or_else(|v| panic!("{idx}: {v}"));
            if trace.crashed {
                crashes += 1;
                if trace.inflight_at_crash > 0 {
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
        let w = FtlWorkload::write_batches(12, 4);
        let batches: Vec<usize> = w
            .ops
            .iter()
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
                let trace = w.crash(mode, idx).unwrap_or_else(|v| {
                    panic!("{} index {idx}: {v}", mode.label())
                });
                with_inflight += u64::from(trace.crashed && trace.inflight_at_crash > 0);
            }
        }
        assert!(with_inflight > 0, "no crash fired with batches in flight");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        let w = FtlWorkload::queued(9, 80, 4);
        let mid = w.crash_points() / 2;
        for mode in FaultMode::ALL {
            w.run_case(mode, mid).unwrap();
        }
    }
}
