//! The results table: one [`Artifact`] per `results/<stem>.txt`. Files
//! that quote one driver configuration declare equal [`Run`] values and
//! read one simulation of it. Every job is self-contained and
//! deterministic, so no text depends on which core ran what.

mod engines;
mod ftl;
pub(crate) mod linkbench;
mod ycsb;

use crate::{f, run_compaction, run_linkbench, run_ycsb};
use crate::{LinkBenchResult, LinkBenchRun, YcsbResult, YcsbRun};
use mini_couch::{CompactionReport, CouchMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One driver configuration. Equal values are one simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Run {
    LinkBench(LinkBenchRun),
    Ycsb(YcsbRun),
    /// [`run_compaction`]`(mode, records, update_rounds)`.
    Compaction(CouchMode, u64, u64),
}

/// What a [`Run`] yields (its namesake), or a self-contained artifact's text.
enum Outcome {
    LinkBench(Box<LinkBenchResult>),
    Ycsb(Box<YcsbResult>),
    Compaction(CompactionReport),
    Text(String),
}

impl Run {
    fn simulate(&self) -> Outcome {
        match *self {
            Run::LinkBench(ref run) => Outcome::LinkBench(Box::new(run_linkbench(run))),
            Run::Ycsb(ref run) => Outcome::Ycsb(Box::new(run_ycsb(run))),
            Run::Compaction(m, n, rounds) => Outcome::Compaction(run_compaction(m, n, rounds)),
        }
    }
}

/// The outcome of every distinct run the rendered artifacts declared.
pub struct Records(Vec<(Run, Outcome)>);

impl Records {
    fn get(&self, run: Run) -> &Outcome {
        let found = self.0.iter().find(|(r, _)| *r == run);
        &found.unwrap_or_else(|| panic!("an artifact reads {run:?} but does not declare it")).1
    }

    pub(crate) fn linkbench(&self, run: LinkBenchRun) -> &LinkBenchResult {
        let Outcome::LinkBench(r) = self.get(Run::LinkBench(run)) else { unreachable!() };
        r
    }

    pub(crate) fn ycsb(&self, run: YcsbRun) -> &YcsbResult {
        let Outcome::Ycsb(r) = self.get(Run::Ycsb(run)) else { unreachable!() };
        r
    }

    pub(crate) fn compaction(&self, mode: CouchMode, docs: u64, rounds: u64) -> &CompactionReport {
        let run = Run::Compaction(mode, docs, rounds);
        let Outcome::Compaction(r) = self.get(run) else { unreachable!() };
        r
    }
}

/// One `results/<stem>.txt`: the runs it reads (none: its own device), its text.
pub struct Artifact {
    pub stem: &'static str,
    pub(crate) runs: fn() -> Vec<Run>,
    pub(crate) render: fn(&Records) -> String,
}

const fn artifact(
    stem: &'static str,
    runs: fn() -> Vec<Run>,
    render: fn(&Records) -> String,
) -> Artifact {
    Artifact { stem, runs, render }
}

/// Every artifact, by stem.
pub static ARTIFACTS: &[Artifact] = &[
    artifact("ablation_batch_share", Vec::new, ftl::ablation_batch_share),
    artifact("ablation_delta_log", Vec::new, ftl::ablation_delta_log),
    artifact("ablation_flush_neighbors", linkbench::neighbors_runs, linkbench::neighbors),
    artifact("ablation_gc_policy", Vec::new, ftl::ablation_gc_policy),
    artifact("ablation_revmap", linkbench::revmap_runs, linkbench::revmap),
    artifact("bench_channels", Vec::new, ftl::bench_channels),
    artifact("bench_clone", Vec::new, engines::bench_clone),
    artifact("bench_qd", Vec::new, ftl::bench_qd),
    artifact("fig5_linkbench_throughput", linkbench::fig5_runs, linkbench::fig5),
    artifact("fig6_io_activities", linkbench::fig6_runs, linkbench::fig6),
    artifact("fig7_ycsb_f", ycsb::fig7_runs, ycsb::fig7),
    artifact("fig8_ycsb_a", ycsb::fig8_runs, ycsb::fig8),
    artifact("lifespan_erases", linkbench::lifespan_runs, linkbench::lifespan),
    artifact("pgbench_fpw", Vec::new, engines::pgbench_fpw),
    artifact("recovery_time", Vec::new, ftl::recovery_time),
    artifact("related_atomic_write", linkbench::related_runs, linkbench::related),
    artifact("sqlite_modes", Vec::new, engines::sqlite_modes),
    artifact("table1_latency", linkbench::table1_runs, linkbench::table1),
    artifact("table2_compaction", ycsb::table2_runs, ycsb::table2),
    artifact("trace_replay", Vec::new, ftl::trace_replay),
];

const CHANNELS: [u32; 4] = [1, 2, 4, 8];

/// A channel sweep's rows from each run's rate and simulated seconds. A
/// run whose elapsed time exactly repeats the previous one's is marked
/// `(sat)` instead of silently printing an indistinguishable row.
fn channel_rows(runs: [(f64, f64); 4], digits: usize) -> Vec<Vec<String>> {
    let mut prev = f64::NAN;
    let row = |(c, (rate, secs)): (u32, (f64, f64))| {
        let sat = if std::mem::replace(&mut prev, secs) == secs { " (sat)" } else { "" };
        let speedup = format!("{}x{sat}", f(rate / runs[0].0, 2));
        vec![c.to_string(), f(rate, digits), f(secs, 2), speedup]
    };
    CHANNELS.into_iter().zip(runs).map(row).collect()
}

/// The distinct runs of `selected`, in the order they are first declared.
pub(crate) fn distinct_runs(selected: &[&Artifact]) -> Vec<Run> {
    let mut runs = Vec::new();
    for run in selected.iter().flat_map(|a| (a.runs)()) {
        if !runs.contains(&run) {
            runs.push(run);
        }
    }
    runs
}

/// The text of each artifact in `selected`. Each distinct run is one job,
/// and so is each artifact that declares none and sets up its own device.
pub fn render(selected: &[&Artifact]) -> Vec<String> {
    let runs = distinct_runs(selected);
    // The self-contained artifacts go first: `sqlite_modes`, the longest
    // job, must not start last.
    let own: Vec<_> = selected.iter().filter(|a| (a.runs)().is_empty()).collect();
    let no_records = Records(Vec::new());
    let mut done = on_every_core(own.len() + runs.len(), |i| match own.get(i) {
        Some(a) => Outcome::Text((a.render)(&no_records)),
        None => runs[i - own.len()].simulate(),
    });
    let records = Records(runs.into_iter().zip(done.split_off(own.len())).collect());
    // A self-contained artifact takes the next text; the others render.
    let mut texts = done.into_iter().peekable();
    let text = |a: &&Artifact| match texts.next_if(|_| (a.runs)().is_empty()) {
        Some(Outcome::Text(text)) => text,
        _ => (a.render)(&records),
    };
    selected.iter().map(text).collect()
}

/// `f(0)`, …, `f(n - 1)`, computed on scoped worker threads, one per
/// available core, that each take the next unstarted index.
fn on_every_core<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let claimed = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed));
        claimed.take_while(|&i| i < n).map(|i| (i, f(i))).collect::<Vec<_>>()
    };
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    let mut done: Vec<(usize, R)> = thread::scope(|s| {
        let workers: Vec<_> = (0..cores).map(|_| s.spawn(work)).collect();
        workers.into_iter().flat_map(|w| w.join().expect("a simulation panicked")).collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}
