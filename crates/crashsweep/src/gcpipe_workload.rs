//! Crash sweeping with a half-collected GC victim in flight.
//!
//! Inside the soft band the FTL relocates a few valid pages per
//! foreground command and parks the half-collected victim in a job, so
//! copyback programs — and the crash boundaries around them — interleave
//! with host writes instead of clustering inside one drain. The mixed op
//! mix on its roomy device never leaves more live pages in a victim than
//! one step relocates, so this workload drives a mixed-lifetime overwrite
//! storm against a tight device instead: every victim carries several
//! steps' worth of live pages, and the sweep's program-attempt space
//! includes:
//!
//! * copyback *submission* boundaries: the fault interrupts the GC
//!   program itself (TornHalf / DroppedWrite) while the victim block is
//!   still half-relocated and its delta-log records are still buffered;
//! * copyback *completion* boundaries: power drops the instant a GC
//!   program lands (AfterProgram), before the job advances;
//! * host-write boundaries with a relocation job parked in flight from a
//!   previous command's budgeted step.
//!
//! The storm runs on one channel, then on four, where a relocation step
//! stripes one victim's survivors over four open GC frontiers; the crash
//! space is the two runs' spaces end to end.
//!
//! Both runs are [`FtlWorkload`]s: the recovery oracle is unchanged —
//! prefix consistency over the host ops. Relocation must be invisible to
//! it: a crashed GC step loses only unflushed deltas whose old physical
//! pages are, by construction, still intact (the victim is erased strictly
//! after `flush_log`), so recovery lands on the pre-relocation mapping and
//! the host state matches the same prefix it would have without GC.

use crate::ftl_workload::{FtlOp, FtlWorkload};
use crate::CrashWorkload;
use nand_sim::{FaultMode, NandTiming};
use share_core::FtlConfig;
use share_rng::{Rng, StdRng};

/// Logical pages of the storm: with 16-page blocks and 12 % spare a
/// victim carries six or seven live pages, more than one step relocates.
const STORM_PAGES: u64 = 256;

/// A mixed-lifetime overwrite storm on a tight device, on one channel and
/// on four.
#[derive(Debug, Clone)]
pub struct FtlGcPipelineWorkload {
    runs: [FtlWorkload; 2],
    /// Crash points of the one-channel run, which come first.
    split: u64,
}

impl FtlGcPipelineWorkload {
    /// Generate `n_ops` ops from `seed`. Page `lpn` is rewritten every
    /// `1 + lpn % 4` rounds in an order permuted per round, so every block
    /// mixes pages whose next overwrite is near with pages whose is far and
    /// no sealed block goes fully dead; each round ends with a flush, every
    /// third with a trim.
    pub fn new(seed: u64, n_ops: usize) -> Self {
        let cfg =
            FtlConfig::for_capacity_with(STORM_PAGES * 4096, 0.12, 4096, 16, NandTiming::zero());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(n_ops + STORM_PAGES as usize);
        let mut round = 0u64;
        while ops.len() < n_ops {
            // Odd stride: a permutation of the power-of-two page space.
            let stride = 2 * rng.random_range(0..STORM_PAGES / 2) + 1;
            let shift = rng.random_range(0..STORM_PAGES);
            for i in 0..STORM_PAGES {
                let lpn = (i * stride + shift) % STORM_PAGES;
                if round.is_multiple_of(1 + lpn % 4) {
                    ops.push(FtlOp::Write { lpn, fill: rng.random_range(1..256u32) as u8 });
                }
            }
            if round % 3 == 2 {
                ops.push(FtlOp::Trim { lpn: shift });
            }
            ops.push(FtlOp::Flush);
            round += 1;
        }
        ops.truncate(n_ops);
        let name = format!("ftl-gcpipe-s{seed}-n{n_ops}");
        let one = FtlWorkload::new(name.clone(), cfg.clone(), ops.clone());
        let split = one.crash_points();
        Self { runs: [one, FtlWorkload::new(name, cfg.with_parallelism(4, 1), ops)], split }
    }
}

impl CrashWorkload for FtlGcPipelineWorkload {
    fn name(&self) -> String {
        self.runs[0].name()
    }

    fn crash_points(&self) -> u64 {
        self.split + self.runs[1].crash_points()
    }

    fn run_case(&self, mode: FaultMode, index: u64) -> Result<(), String> {
        // Crash indices count from 1 in each run.
        if index <= self.split {
            self.runs[0].run_case(mode, index)
        } else {
            self.runs[1].run_case(mode, index - self.split)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl_workload::exec;
    use share_core::{BlockDevice, Ftl, Layer, TelemetryConfig, Track};
    use std::collections::BTreeSet;

    #[test]
    fn budgeted_steps_actually_leave_relocations_in_flight() {
        // The whole point of this workload: the GC job must stay parked
        // across foreground commands. The deferral counter settles exactly
        // when a budgeted step ends with pages still pending, so it proves
        // the in-flight state space is real — at both channel counts.
        let w = FtlGcPipelineWorkload::new(3, 600);
        for run in &w.runs {
            let mut ftl = Ftl::new(run.cfg.clone());
            for op in &run.ops {
                exec(&mut ftl, op).expect("fault-free op");
            }
            let stats = ftl.stats();
            assert!(stats.gc_events > 0, "workload never triggered GC");
            assert!(
                stats.gc_budget_deferrals > 0,
                "no budgeted GC step ever left a victim half-collected \
                 ({} GC events, {} copybacks)",
                stats.gc_events,
                stats.copyback_pages
            );
        }
    }

    #[test]
    fn four_channel_steps_spread_one_victim_over_several_gc_frontiers() {
        let w = FtlGcPipelineWorkload::new(3, 600);
        let run = &w.runs[1];
        let mut ftl = Ftl::new(run.cfg.clone().with_telemetry(TelemetryConfig::tracing()));
        for op in &run.ops {
            exec(&mut ftl, op).expect("fault-free op");
        }
        let spans = ftl.tracer().spans();
        let striped = spans.iter().filter(|s| s.layer == Layer::Ftl && s.name == "gc").any(|step| {
            let channels: BTreeSet<u32> = spans
                .iter()
                .filter(|l| l.parent == step.id && l.name == "program")
                .filter_map(|l| match l.track {
                    Track::Unit { channel, .. } => Some(channel),
                    _ => None,
                })
                .collect();
            channels.len() == 4
        });
        assert!(striped, "no relocation step programmed on all four channels");
    }

    #[test]
    fn one_case_of_each_mode_passes_the_oracle() {
        // Both ends and the middle of the one-channel run and of the
        // four-channel one.
        let w = FtlGcPipelineWorkload::new(9, 600);
        let total = w.crash_points();
        for index in [1, w.split / 2, w.split, w.split + 1, (w.split + total) / 2, total] {
            for mode in FaultMode::ALL {
                w.run_case(mode, index).unwrap();
            }
        }
    }
}
