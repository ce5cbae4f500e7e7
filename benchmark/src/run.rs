//! Orchestration: repetitions, the exactness check between them, the
//! derivation of every metric from what a repetition measured, and the
//! per-workload result document.

use crate::host::{peak_rss_mb, HostCost};
use crate::rep::{ratio, RepCtx, RepOut};
use crate::spec::{self, Clock, WorkloadSpec, END_TO_END, PER_LAYER, REPS, RUN_SECONDS};
use crate::timed::TimedDevice;
use crate::trace::{CmdClass, Probe, WallLayer};
use crate::{churn, linkbench, probe, ycsb};
use share_core::Ftl;
use share_telemetry::json::{count, num, s, Json};
use share_telemetry::percentile_sorted;
use std::collections::BTreeMap;
use std::path::Path;

type Metrics = BTreeMap<&'static str, f64>;

/// Relative difference allowed between the allocation counts of two
/// repetitions. They would be exact but for `HashMap` iteration order
/// inside the program (a fresh `RandomState` per map): on `ftl_churn` one
/// allocation in ~2.8 million comes and goes with it, and on
/// `linkbench_cached` one 80 KiB allocation in ~700 MiB.
const ALLOC_TOLERANCE: f64 = 1e-3;

/// One metric of a finished run.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Value of each repetition (end-to-end metrics only).
    pub reps: Vec<f64>,
    /// What the number is (end-to-end), or its layer and the end-to-end
    /// metric it should move (per-layer); printed beside it.
    pub note: String,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub window_ops: u64,
    pub samples_per_rep: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty = correct.
    pub failures: Vec<String>,
    pub metrics: Vec<Reported>,
    /// Host cost of each op range of each repetition (untraced run), kept
    /// in the result file so host noise can be looked at after the fact.
    pub host_ranges: Vec<Vec<HostCost>>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The last line of standard output the driver reads.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", num(m.value)), ("unit", s(m.unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The document written to `<out>/<workload>.json` (and merged into
    /// `result.json` by the all-workloads commands).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", num(m.value)), ("unit", s(m.unit))];
                if !m.reps.is_empty() {
                    fields.push(("reps", Json::Arr(m.reps.iter().map(|&v| num(v)).collect())));
                }
                (m.name, Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", s(self.workload)),
            ("seed", count(self.seed)),
            ("seconds", count(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("window_ops", count(self.window_ops)),
            ("samples_per_rep", count(self.samples_per_rep)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| s(f)).collect()),
            ),
            ("metrics", Json::obj(metrics)),
            (
                "host_ranges",
                Json::Arr(
                    self.host_ranges
                        .iter()
                        .map(|rep| {
                            Json::Arr(
                                rep.iter()
                                    .map(|c| Json::Arr(vec![num(c.wall_s), count(c.user_cpu_us)]))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} ops/rep, {} latency samples/rep, {}) ==",
            self.workload,
            self.seed,
            self.window_ops,
            self.samples_per_rep,
            if self.traced {
                "traced run"
            } else {
                "untraced run"
            }
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.6} {:<12}  # {}",
                m.name, m.value, m.unit, m.note
            );
            if !m.reps.is_empty() {
                println!("  {:<34} reps {:?}", "", m.reps);
            }
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
    }
}

type Dev = TimedDevice<Ftl>;

fn run_rep(w: &WorkloadSpec, seed: u64, ctx: &RepCtx) -> RepOut {
    match w.name {
        "linkbench_share" => linkbench::run::<Dev>(&spec::linkbench_share(), seed, ctx),
        "linkbench_dwb" => linkbench::run::<Dev>(&spec::linkbench_dwb(), seed, ctx),
        "linkbench_cached" => linkbench::run::<Dev>(&spec::linkbench_cached(), seed, ctx),
        "ycsb_a_couch" => ycsb::run::<Dev>(&spec::ycsb_a_couch(), seed, ctx),
        "ftl_churn" => churn::run::<Dev>(&spec::ftl_churn(), seed, ctx),
        other => unreachable!("{other} is not in spec::WORKLOADS"),
    }
}

/// Op counts for `seconds`: the frozen counts scaled linearly, on round
/// boundaries (16 modelled connections).
fn sized(w: &WorkloadSpec, seconds: u64) -> (u64, u64) {
    let scale = |ops: u64| ((ops * seconds / RUN_SECONDS) / 16).max(1) * 16;
    let window = scale(w.window_ops);
    (window, scale(w.trace_ops).min(window))
}

/// Mean of the sorted samples whose rank lies in `[lo, hi)` of the sample
/// count. Nearest-rank percentiles of these simulated latencies jump
/// between the modes of a lumpy distribution from seed to seed; a mean over
/// a rank range moves smoothly with the share of ops in each mode.
fn rank_range_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let a = ((n as f64 * lo) as usize).min(n - 1);
    let b = ((n as f64 * hi) as usize).clamp(a + 1, n);
    sorted[a..b].iter().map(|&v| v as f64).sum::<f64>() / (b - a) as f64
}

/// End-to-end metrics of one repetition (`peak_rss_mb` is read by the caller).
fn end_to_end(out: &RepOut) -> Metrics {
    let w = &out.window;
    let ops = w.ops as f64;
    let sim_s = (w.end.sim_ns - w.start.sim_ns) as f64 / 1e9;
    let mut lat = w.lat_ns.clone();
    lat.sort_unstable();
    let data = w.end.stats.delta_since(&w.start.stats);
    let host_bytes = data.host_write_bytes + out.log.map_or(0, |l| l.host_write_bytes);
    BTreeMap::from([
        ("sim_ops_per_s", ratio(ops, sim_s)),
        ("sim_lat_mid_us", rank_range_mean(&lat, 0.25, 0.75) / 1e3),
        ("sim_lat_tail1_us", rank_range_mean(&lat, 0.99, 1.0) / 1e3),
        ("sim_lat_tail01_us", rank_range_mean(&lat, 0.999, 1.0) / 1e3),
        (
            "host_write_amp",
            ratio(host_bytes as f64, w.user_bytes as f64),
        ),
        (
            "device_waf",
            ratio(data.nand.page_programs as f64, data.host_writes as f64),
        ),
        ("erases_per_kop", data.nand.block_erases as f64 * 1e3 / ops),
        ("allocs_per_op", w.host.allocs as f64 / ops),
        ("alloc_kb_per_op", w.host.alloc_bytes as f64 / 1024.0 / ops),
        ("wall_ops_per_s", ratio(ops, w.host.wall_s)),
        ("user_cpu_us_per_op", w.host.user_cpu_us as f64 / ops),
        ("setup_s", out.setup_s),
    ])
}

/// Per-layer metrics that are plain counter ratios of the window.
fn counter_layers(out: &RepOut) -> Metrics {
    let w = &out.window;
    let ops = w.ops as f64;
    let sim_ns = (w.end.sim_ns - w.start.sim_ns) as f64;
    let d = w.end.stats.delta_since(&w.start.stats);
    let busy: Vec<f64> = w
        .end
        .busy_ns
        .iter()
        .zip(&w.start.busy_ns)
        .map(|(e, s)| (e - s) as f64)
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let mut m = out.layer.clone();
    m.extend([
        (
            "ftl.cmds_per_op",
            (w.end.counts.cmds - w.start.counts.cmds) as f64 / ops,
        ),
        ("ftl.share_cmds_per_op", d.share_commands as f64 / ops),
        ("ftl.share_pairs_per_op", d.shared_pages as f64 / ops),
        ("ftl.gc_events_per_kop", d.gc_events as f64 * 1e3 / ops),
        (
            "ftl.copyback_pages_per_host_write",
            ratio(d.copyback_pages as f64, d.host_writes as f64),
        ),
        (
            "ftl.meta_pages_per_host_write",
            ratio(d.meta_page_writes as f64, d.host_writes as f64),
        ),
        (
            "ftl.gc_stall_sim_share",
            ratio(d.gc_stall_ns as f64, sim_ns),
        ),
        ("ftl.gc_budget_deferrals", d.gc_budget_deferrals as f64),
        ("ftl.lane_steals", d.lane_steals as f64),
        ("ftl.revmap_len_end", out.revmap_len_end as f64),
        ("ftl.queue_max_inflight", out.queue_max_inflight as f64),
        (
            "ftl.queue_full_retries",
            (w.end.counts.queue_full - w.start.counts.queue_full) as f64,
        ),
        ("nand.programs_per_op", d.nand.page_programs as f64 / ops),
        ("nand.reads_per_op", d.nand.page_reads as f64 / ops),
        (
            "nand.erases_per_kop",
            d.nand.block_erases as f64 * 1e3 / ops,
        ),
        (
            "nand.lane_util",
            ratio(busy_sum, busy.len() as f64 * sim_ns),
        ),
        (
            "nand.lane_imbalance",
            ratio(busy_max * busy.len() as f64, busy_sum),
        ),
        ("recover.sim_ms", out.recover.sim_ms),
        ("recover.wall_ms", out.recover.wall_ms),
        ("recover.page_reads", out.recover.page_reads as f64),
        ("lat.samples_per_rep", w.lat_ns.len() as f64),
    ]);
    let mut lat = w.lat_ns.clone();
    lat.sort_unstable();
    for (p, name) in [
        (50.0, "lat.sim_p50_us"),
        (99.0, "lat.sim_p99_us"),
        (99.9, "lat.sim_p999_us"),
    ] {
        m.insert(name, percentile_sorted(&lat, p) as f64 / 1e3);
    }
    m
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The untraced run: `REPS` fresh set-ups of the same inputs. Simulated
/// metrics and allocation counts must repeat exactly; host metrics are
/// the median of the repetitions.
pub fn run_untraced(w: &'static WorkloadSpec, seed: u64, seconds: u64) -> RunResult {
    let (window_ops, prefix_ops) = sized(w, seconds);
    let ctx = RepCtx {
        probe: Probe::off(),
        window_ops,
        prefix_ops,
    };
    let mut reps: Vec<Metrics> = Vec::new();
    let mut chunks: Vec<Vec<HostCost>> = Vec::new();
    let mut failures = Vec::new();
    let (mut attempted, mut failed, mut samples) = (0, 0, 0);
    for rep in 0..REPS {
        let out = run_rep(w, seed, &ctx);
        attempted += out.window.ops;
        failed += out.window.failed;
        samples = out.window.lat_ns.len() as u64;
        failures.extend(out.failures.iter().map(|f| format!("rep {rep}: {f}")));
        let mut m = end_to_end(&out);
        m.insert("peak_rss_mb", peak_rss_mb());
        reps.push(m);
        chunks.push(out.window.chunks);
    }
    // Window host cost with per-range noise removed: each op range's cost
    // is the median over the repetitions, and the window is their sum.
    let ranges = chunks[0].len();
    let denoised = |cost: fn(&HostCost) -> f64| -> f64 {
        (0..ranges)
            .map(|i| median(&chunks.iter().map(|c| cost(&c[i])).collect::<Vec<_>>()))
            .sum()
    };
    let ops = window_ops as f64;
    let per_range = BTreeMap::from([
        ("wall_ops_per_s", ops / denoised(|c| c.wall_s)),
        (
            "user_cpu_us_per_op",
            denoised(|c| c.user_cpu_us as f64) / ops,
        ),
    ]);
    let mut metrics = Vec::new();
    for spec in &END_TO_END {
        let values: Vec<f64> = reps.iter().map(|m| m[spec.name]).collect();
        let value = match spec.clock {
            Clock::SimExact => {
                if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    failures.push(format!(
                        "{} differs between repetitions of the same inputs: {values:?}",
                        spec.name
                    ));
                }
                values[0]
            }
            Clock::HostCount => {
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                if hi - lo > ALLOC_TOLERANCE * hi {
                    failures.push(format!(
                        "{} differs between repetitions by more than {ALLOC_TOLERANCE}: {values:?}",
                        spec.name
                    ));
                }
                median(&values)
            }
            Clock::HostPerRange => per_range[spec.name],
            Clock::HostMedian => median(&values),
            Clock::HostMax => values.iter().copied().fold(0.0, f64::max),
        };
        metrics.push(Reported {
            name: spec.name,
            unit: spec.unit,
            value,
            reps: values,
            note: spec.what.to_string(),
        });
    }
    RunResult {
        workload: w.name,
        seed,
        seconds,
        traced: false,
        window_ops,
        samples_per_rep: samples,
        attempted,
        failed,
        failures,
        metrics,
        host_ranges: chunks,
    }
}

/// The traced run: one untraced repetition over the full window (counter
/// ratios, the prefix stamp), one traced repetition over the op prefix
/// (both span trees), and the two probes. Writes the wall spans to
/// `<out_dir>/trace_<workload>.json`.
pub fn run_traced(w: &'static WorkloadSpec, seed: u64, seconds: u64, out_dir: &Path) -> RunResult {
    let (window_ops, prefix_ops) = sized(w, seconds);
    // The probes go first: they also fault the heap in, so the untraced
    // repetition does not pay for first-touch pages the traced one reuses.
    let nand = probe::nand_wall_ns(spec::CHANNELS);
    let vfs_ns = probe::vfs_wall_self_ns_per_page(spec::CHANNELS);
    let plain = run_rep(
        w,
        seed,
        &RepCtx {
            probe: Probe::off(),
            window_ops,
            prefix_ops,
        },
    );
    let traced = run_rep(
        w,
        seed,
        &RepCtx {
            probe: Probe::on(),
            window_ops,
            prefix_ops,
        },
    );

    let mut failures = Vec::new();
    failures.extend(plain.failures.iter().map(|f| format!("untraced: {f}")));
    failures.extend(traced.failures.iter().map(|f| format!("traced: {f}")));
    if plain.window.prefix.simulated() != traced.window.prefix.simulated() {
        failures.push(format!(
            "traced prefix is not simulated-identical to the untraced one: {:?} vs {:?}",
            traced.window.prefix.simulated(),
            plain.window.prefix.simulated()
        ));
    }

    let mut m = counter_layers(&plain);
    let t = traced
        .window
        .wall_trace
        .as_ref()
        .expect("traced repetition carries its spans");
    let tw = &traced.window;
    let tops = tw.ops as f64;
    let dev_wall: u64 = t.class.iter().map(|c| c.wall_ns).sum();
    let engine_wall = t.layer_wall_ns(WallLayer::Engine);
    m.insert(
        "gen.wall_us_per_op",
        t.layer_wall_ns(WallLayer::Gen) as f64 / 1e3 / tops,
    );
    m.insert(
        "engine.calls_per_op",
        t.layer_calls(WallLayer::Engine) as f64 / tops,
    );
    m.insert(
        "engine.wall_self_us_per_op",
        engine_wall.saturating_sub(dev_wall) as f64 / 1e3 / tops,
    );
    m.insert("ftl.wall_share", dev_wall as f64 / 1e9 / tw.host.wall_s);
    for (class, name) in [
        (CmdClass::Read, "ftl.wall_us_per_cmd.read"),
        (CmdClass::Write, "ftl.wall_us_per_cmd.write"),
        (CmdClass::Share, "ftl.wall_us_per_cmd.share"),
        (CmdClass::Flush, "ftl.wall_us_per_cmd.flush"),
        (CmdClass::Trim, "ftl.wall_us_per_cmd.trim"),
        (CmdClass::Queued, "ftl.wall_us_per_cmd.queued"),
    ] {
        let c = t.class[class as usize];
        m.insert(name, ratio(c.wall_ns as f64 / 1e3, c.calls as f64));
    }
    for (samples, name) in [
        (&t.read_sim_ns, "ftl.cmd_sim_p99_us.read"),
        (&t.write_sim_ns, "ftl.cmd_sim_p99_us.write"),
    ] {
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        m.insert(name, percentile_sorted(&sorted, 99.0) as f64 / 1e3);
    }
    let sim_self = traced
        .sim_self
        .expect("traced repetition analysed its span tree");
    let mut shares = 0.0;
    for (name, ns) in [
        ("engine.sim_self_share", sim_self.engine_ns),
        ("vfs.sim_self_share", sim_self.vfs_ns),
        ("ftl.sim_self_share", sim_self.ftl_ns),
        ("nand.sim_self_share", sim_self.nand_ns),
    ] {
        m.insert(name, sim_self.share(ns));
        shares += sim_self.share(ns);
    }
    if (shares - 1.0).abs() > 1e-9 {
        failures.push(format!("per-layer simulated shares sum to {shares}, not 1"));
    }
    m.insert("telemetry.spans_per_op", sim_self.spans as f64 / tops);
    m.insert(
        "telemetry.trace_wall_overhead",
        ratio(tw.host.wall_s, plain.window.prefix.wall_s),
    );

    let pd = plain
        .window
        .end
        .stats
        .delta_since(&plain.window.start.stats)
        .nand;
    let plain_wall_ns = plain.window.host.wall_s * 1e9;
    m.insert("nand.probe_wall_ns_per_program", nand.program_ns);
    m.insert("nand.probe_wall_ns_per_read", nand.read_ns);
    m.insert("nand.probe_wall_ns_per_erase", nand.erase_ns);
    m.insert(
        "nand.wall_share_est",
        (pd.page_programs as f64 * nand.program_ns
            + pd.page_reads as f64 * nand.read_ns
            + pd.block_erases as f64 * nand.erase_ns)
            / plain_wall_ns,
    );
    m.insert(
        "sim.wall_ns_per_nand_op",
        ratio(
            plain_wall_ns,
            (pd.page_programs + pd.page_reads + pd.block_erases) as f64,
        ),
    );
    m.insert("vfs.probe_wall_self_ns_per_page", vfs_ns);

    let trace_doc = Json::obj(vec![
        ("workload", s(w.name)),
        ("seed", count(seed)),
        ("trace_ops", count(tw.ops)),
        ("window_wall_s", num(tw.host.wall_s)),
        ("wall", t.to_json()),
        (
            "sim_self_ns",
            Json::obj(vec![
                ("engine", count(sim_self.engine_ns)),
                ("vfs", count(sim_self.vfs_ns)),
                ("ftl", count(sim_self.ftl_ns)),
                ("nand", count(sim_self.nand_ns)),
            ]),
        ),
        (
            "probes",
            Json::obj(vec![
                ("nand_program_ns", num(nand.program_ns)),
                ("nand_read_ns", num(nand.read_ns)),
                ("nand_erase_ns", num(nand.erase_ns)),
                ("vfs_self_ns_per_page", num(vfs_ns)),
            ]),
        ),
    ]);
    let path = out_dir.join(format!("trace_{}.json", w.name));
    if let Err(e) = std::fs::write(&path, trace_doc.render()) {
        failures.push(format!("writing {}: {e}", path.display()));
    }

    // Every per-layer metric is printed for every workload; one that has no
    // meaning on a workload (couch.* on LinkBench) reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|spec| Reported {
            name: spec.name,
            unit: spec.unit,
            value: m.get(spec.name).copied().unwrap_or(0.0),
            reps: Vec::new(),
            note: format!("[{}] -> {}", spec.layer, spec.moves),
        })
        .collect();
    RunResult {
        workload: w.name,
        seed,
        seconds,
        traced: true,
        window_ops,
        samples_per_rep: plain.window.lat_ns.len() as u64,
        attempted: plain.window.ops + tw.ops,
        failed: plain.window.failed + tw.failed,
        failures,
        metrics,
        host_ranges: Vec::new(),
    }
}
