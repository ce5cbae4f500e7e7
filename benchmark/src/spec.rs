//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should move,
//! and the frozen sizes. `BENCHMARK.json` at the repository root is
//! generated from these tables (`share-benchmark spec`) and a test keeps
//! the two in step.

use crate::churn::ChurnParams;
use crate::linkbench::{LinkParams, Pool};
use crate::ycsb::YcsbParams;
use mini_innodb::FlushMode;
use share_telemetry::json::{count, num, s, Json};

/// `--seconds` the frozen op counts below correspond to; other values
/// scale the measured window's op count linearly (never its duration).
pub const RUN_SECONDS: u64 = 10;
/// Seed used while the benchmark was built, and the seed held out from it.
pub const DEFAULT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 1337;
/// Fresh set-ups per run; host metrics are the median over them.
pub const REPS: usize = 3;
/// NAND channels of every workload's data device, and of the probes.
pub const CHANNELS: u32 = 4;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Ops in the measured window of one repetition at [`RUN_SECONDS`].
    pub window_ops: u64,
    /// Op prefix the traced run covers.
    pub trace_ops: u64,
}

#[rustfmt::skip]
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "linkbench_share",
        why: "LinkBench on mini-innodb, FlushMode::Share, pool = DB/30: engine, VFS, FTL SHARE path, GC and NAND all work",
        window_ops: 96_000,
        trace_ops: 16_000,
    },
    WorkloadSpec {
        name: "linkbench_dwb",
        why: "same inputs with the double-write buffer: every flushed page written twice, no SHARE; the paper's baseline",
        window_ops: 96_000,
        trace_ops: 16_000,
    },
    WorkloadSpec {
        name: "linkbench_cached",
        why: "linkbench_share with the pool larger than the DB: engine CPU, redo and checkpoints work, the data device idles",
        window_ops: 96_000,
        trace_ops: 16_000,
    },
    WorkloadSpec {
        name: "ycsb_a_couch",
        why: "YCSB-A on mini-couch, CouchMode::Share, queued get_many/save_many, driver-run compaction cycles in the window",
        window_ops: 48_000,
        trace_ops: 8_000,
    },
    WorkloadSpec {
        name: "ftl_churn",
        why: "raw BlockDevice calls on an 85 % full FTL: overwrites, reads, share_commit, trims; no engine, no VFS",
        window_ops: 320_000,
        trace_ops: 48_000,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn linkbench(mode: FlushMode, pool: Pool) -> LinkParams {
    LinkParams {
        mode,
        pool,
        nodes: 24_000,
        links_per_node: 3,
        warmup_txns: 32_000,
        connections: 16,
        channels: CHANNELS,
        ckpt_redo_bytes: 128 << 10,
        verify_samples: 1_500,
    }
}

pub fn linkbench_share() -> LinkParams {
    linkbench(FlushMode::Share, Pool::FractionOfDb(1.0 / 30.0))
}

pub fn linkbench_dwb() -> LinkParams {
    linkbench(FlushMode::DwbOn, Pool::FractionOfDb(1.0 / 30.0))
}

pub fn linkbench_cached() -> LinkParams {
    linkbench(FlushMode::Share, Pool::TimesDb(1.5))
}

pub fn ycsb_a_couch() -> YcsbParams {
    YcsbParams {
        records: 2_000,
        record_size: 16_000,
        batch_size: 16,
        connections: 16,
        channels: CHANNELS,
        warmup_ops: 16_000,
        compact_at: 0.6,
        device_factor: 3.8,
        verify_samples: 500,
    }
}

pub fn ftl_churn() -> ChurnParams {
    ChurnParams {
        logical_pages: 16_384,
        fill: 0.85,
        over_provision: 0.15,
        channels: CHANNELS,
        warmup_capacities: 6.0,
        verify_samples: 2_000,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric is read from, and how its repetitions combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated clock and device counters: identical in every repetition.
    SimExact,
    /// Host-side count (heap allocations): repeats to within one part in
    /// ten thousand; median of the repetitions.
    HostCount,
    /// Host time of the window: each of its op ranges costs the median
    /// over the repetitions, and the window is their sum.
    HostPerRange,
    /// Host time: median of the repetitions.
    HostMedian,
    /// Host memory high-water mark: maximum of the repetitions.
    HostMax,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub clock: Clock,
    pub what: &'static str,
}

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd { name: "sim_ops_per_s", unit: "ops/sim_s", better: Higher, bound: 0.06, clock: Clock::SimExact, what: "ops per simulated second of the window" },
    EndToEnd { name: "sim_lat_mid_us", unit: "sim_us", better: Lower, bound: 0.08, clock: Clock::SimExact, what: "typical simulated op latency: mean of the middle half (ranks 25-75 %)" },
    EndToEnd { name: "sim_lat_tail1_us", unit: "sim_us", better: Lower, bound: 0.25, clock: Clock::SimExact, what: "mean simulated latency of the slowest 1 % of ops" },
    EndToEnd { name: "sim_lat_tail01_us", unit: "sim_us", better: Lower, bound: 0.20, clock: Clock::SimExact, what: "mean simulated latency of the slowest 0.1 % of ops" },
    EndToEnd { name: "host_write_amp", unit: "B/B", better: Lower, bound: 0.04, clock: Clock::SimExact, what: "bytes the host wrote to data + log devices per user payload byte" },
    EndToEnd { name: "device_waf", unit: "pages/page", better: Lower, bound: 0.04, clock: Clock::SimExact, what: "NAND page programs per host page write (data device)" },
    EndToEnd { name: "erases_per_kop", unit: "1/kop", better: Lower, bound: 0.05, clock: Clock::SimExact, what: "NAND block erases per 1000 ops" },
    EndToEnd { name: "allocs_per_op", unit: "1/op", better: Lower, bound: 0.10, clock: Clock::HostCount, what: "heap allocations per op in the window" },
    EndToEnd { name: "alloc_kb_per_op", unit: "KiB/op", better: Lower, bound: 0.10, clock: Clock::HostCount, what: "heap KiB requested per op in the window" },
    EndToEnd { name: "wall_ops_per_s", unit: "ops/s", better: Higher, bound: 0.25, clock: Clock::HostPerRange, what: "ops per host second of the window" },
    EndToEnd { name: "user_cpu_us_per_op", unit: "us/op", better: Lower, bound: 0.25, clock: Clock::HostPerRange, what: "user-mode CPU per op in the window" },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.05, clock: Clock::HostMax, what: "peak resident set of the process" },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, clock: Clock::HostMedian, what: "host seconds of load + aging before the window" },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate the number belongs to.
    pub layer: &'static str,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 69] = [
    pl("gen.wall_us_per_op", "us/op", Lower, "share-workloads", "wall_ops_per_s on linkbench_cached only"),
    pl("engine.calls_per_op", "1/op", Lower, "engine", "wall_ops_per_s on the engine workloads"),
    pl("engine.wall_self_us_per_op", "us/op", Lower, "engine", "wall_ops_per_s, user_cpu_us_per_op; most on linkbench_cached, absent on ftl_churn (includes share-vfs)"),
    pl("engine.sim_self_share", "share", Lower, "engine", "sim_ops_per_s on linkbench_cached"),
    pl("innodb.pool_hit_ratio", "ratio", Higher, "mini-innodb", "sim_ops_per_s, sim_lat_mid_us on linkbench_share/_dwb; ~1 on linkbench_cached"),
    pl("innodb.pool_evictions_per_op", "1/op", Lower, "mini-innodb", "sim_ops_per_s, sim_lat_mid_us on linkbench_share/_dwb; 0 on linkbench_cached"),
    pl("innodb.pages_flushed_per_op", "pages/op", Lower, "mini-innodb", "host_write_amp on the linkbench workloads"),
    pl("innodb.dwb_pages_per_op", "pages/op", Lower, "mini-innodb", "host_write_amp on linkbench_dwb"),
    pl("innodb.group_commit_size", "txns/group", Higher, "mini-innodb", "sim_lat_tail1_us, sim_ops_per_s on the linkbench workloads"),
    pl("innodb.share_fallbacks", "count", Lower, "mini-innodb", "host_write_amp on linkbench_share (wasted work)"),
    pl("innodb.checkpoints", "count", Lower, "mini-innodb", "sim_lat_tail01_us on linkbench_cached"),
    pl("logdev.flushes_per_op", "1/op", Lower, "mini-innodb", "sim_lat_mid_us on the linkbench workloads"),
    pl("logdev.write_kb_per_op", "KiB/op", Lower, "mini-innodb", "host_write_amp on the linkbench workloads"),
    pl("couch.doc_blocks_per_update", "blocks", Lower, "mini-couch", "host_write_amp on ycsb_a_couch"),
    pl("couch.node_blocks_per_update", "blocks", Lower, "mini-couch", "host_write_amp on ycsb_a_couch"),
    pl("couch.header_blocks_per_commit", "blocks", Lower, "mini-couch", "host_write_amp on ycsb_a_couch"),
    pl("couch.share_remaps_per_commit", "docs", Higher, "mini-couch", "host_write_amp, device_waf on ycsb_a_couch"),
    pl("couch.share_fallbacks", "count", Lower, "mini-couch", "host_write_amp, device_waf on ycsb_a_couch (wasted work)"),
    pl("couch.compactions", "count", Lower, "mini-couch", "sim_lat_tail01_us on ycsb_a_couch"),
    pl("couch.compact_sim_share", "share", Lower, "mini-couch", "sim_ops_per_s, sim_lat_tail01_us on ycsb_a_couch"),
    pl("couch.compact_wall_share", "share", Lower, "mini-couch", "wall_ops_per_s on ycsb_a_couch"),
    pl("couch.stale_ratio_peak", "ratio", Lower, "mini-couch", "space side of the compaction trade on ycsb_a_couch"),
    pl("couch.file_blocks_per_live_block", "blocks/block", Lower, "mini-couch", "space side of the compaction trade on ycsb_a_couch"),
    pl("vfs.sim_self_share", "share", Lower, "share-vfs", "sim_ops_per_s on the four engine workloads"),
    pl("vfs.journal_commits_per_op", "1/op", Lower, "share-vfs", "host_write_amp; most on ycsb_a_couch (file growth)"),
    pl("vfs.journal_pages_per_op", "pages/op", Lower, "share-vfs", "host_write_amp; most on ycsb_a_couch (file growth)"),
    pl("vfs.probe_wall_self_ns_per_page", "ns/page", Lower, "share-vfs", "wall_ops_per_s on the engine workloads"),
    pl("ftl.cmds_per_op", "1/op", Lower, "share-core", "wall_ops_per_s, sim_ops_per_s on every workload"),
    pl("ftl.wall_share", "share", Lower, "share-core", "cap on what an FTL/NAND speed-up saves of wall_ops_per_s; ~1 on ftl_churn, ~0.1 on the engine workloads"),
    pl("ftl.wall_us_per_cmd.read", "us/cmd", Lower, "share-core", "wall_ops_per_s where reads dominate"),
    pl("ftl.wall_us_per_cmd.write", "us/cmd", Lower, "share-core", "wall_ops_per_s on ftl_churn, linkbench_dwb"),
    pl("ftl.wall_us_per_cmd.share", "us/cmd", Lower, "share-core", "wall_ops_per_s on linkbench_share, ycsb_a_couch, ftl_churn"),
    pl("ftl.wall_us_per_cmd.flush", "us/cmd", Lower, "share-core", "wall_ops_per_s on the engine workloads"),
    pl("ftl.wall_us_per_cmd.trim", "us/cmd", Lower, "share-core", "wall_ops_per_s on ftl_churn, ycsb_a_couch"),
    pl("ftl.wall_us_per_cmd.queued", "us/cmd", Lower, "share-core", "wall_ops_per_s on ycsb_a_couch"),
    pl("ftl.sim_self_share", "share", Lower, "share-core", "sim_ops_per_s (command overhead, mapping log) on every workload"),
    pl("ftl.cmd_sim_p99_us.read", "sim_us", Lower, "share-core", "sim_lat_tail1_us on the engine workloads"),
    pl("ftl.cmd_sim_p99_us.write", "sim_us", Lower, "share-core", "sim_lat_tail1_us on ftl_churn, linkbench_dwb"),
    pl("ftl.share_cmds_per_op", "1/op", Lower, "share-core", "host_write_amp on linkbench_share, ycsb_a_couch, ftl_churn; 0 on linkbench_dwb"),
    pl("ftl.share_pairs_per_op", "pairs/op", Higher, "share-core", "host_write_amp on linkbench_share, ycsb_a_couch, ftl_churn; 0 on linkbench_dwb"),
    pl("ftl.gc_events_per_kop", "1/kop", Lower, "share-core", "device_waf, sim_ops_per_s, sim_lat_tail1_us; most on ftl_churn and linkbench_dwb, ~0 on linkbench_cached"),
    pl("ftl.copyback_pages_per_host_write", "pages/page", Lower, "share-core", "device_waf, sim_ops_per_s; most on ftl_churn and linkbench_dwb"),
    pl("ftl.meta_pages_per_host_write", "pages/page", Lower, "share-core", "device_waf on the SHARE-heavy workloads"),
    pl("ftl.gc_stall_sim_share", "share", Lower, "share-core", "sim_lat_tail1_us, sim_lat_tail01_us on ftl_churn"),
    pl("ftl.gc_budget_deferrals", "count", Lower, "share-core", "0 while the GC pipeline is off by default"),
    pl("ftl.lane_steals", "count", Lower, "share-core", "sim_ops_per_s on the 4-channel workloads"),
    pl("ftl.revmap_len_end", "entries", Lower, "share-core", "mapping metadata SHARE trades for host writes"),
    pl("ftl.queue_max_inflight", "cmds", Higher, "share-core", "sim_ops_per_s on ycsb_a_couch; 0 on sync-only workloads"),
    pl("ftl.queue_full_retries", "count", Lower, "share-core", "sim_ops_per_s on ycsb_a_couch (retried ops)"),
    pl("nand.programs_per_op", "pages/op", Lower, "nand-sim", "device_waf, wall_ops_per_s on every workload"),
    pl("nand.reads_per_op", "pages/op", Lower, "nand-sim", "sim_lat_mid_us where the cache misses"),
    pl("nand.erases_per_kop", "1/kop", Lower, "nand-sim", "erases_per_kop"),
    pl("nand.lane_util", "share", Higher, "nand-sim", "ceiling of sim_ops_per_s on the 4-channel queued workloads"),
    pl("nand.lane_imbalance", "max/mean", Lower, "nand-sim", "sim_lat_tail1_us on the 4-channel queued workloads"),
    pl("nand.probe_wall_ns_per_program", "ns", Lower, "nand-sim", "wall_ops_per_s, alloc_kb_per_op on ftl_churn"),
    pl("nand.probe_wall_ns_per_read", "ns", Lower, "nand-sim", "wall_ops_per_s on ftl_churn"),
    pl("nand.probe_wall_ns_per_erase", "ns", Lower, "nand-sim", "wall_ops_per_s on ftl_churn"),
    pl("nand.wall_share_est", "share", Lower, "nand-sim", "wall_ops_per_s on ftl_churn (counts x probe ns / window wall)"),
    pl("nand.sim_self_share", "share", Lower, "nand-sim", "sim_ops_per_s on every workload (media time)"),
    pl("sim.wall_ns_per_nand_op", "ns", Lower, "simulator", "host time per simulated event: tells model changes from simulator speed-ups"),
    pl("telemetry.trace_wall_overhead", "ratio", Lower, "share-telemetry", "traced / untraced wall per op over the same op prefix"),
    pl("telemetry.spans_per_op", "1/op", Lower, "share-telemetry", "span memory of a traced run"),
    pl("recover.sim_ms", "sim_ms", Lower, "recovery", "restart cost after a clean shutdown"),
    pl("recover.wall_ms", "ms", Lower, "recovery", "host cost of Ftl::open + engine open"),
    pl("recover.page_reads", "pages", Lower, "recovery", "NAND pages read by Ftl::open"),
    pl("lat.sim_p50_us", "sim_us", Lower, "benchmark", "nearest-rank median; jumps between modes of the distribution, so it carries no bound"),
    pl("lat.sim_p99_us", "sim_us", Lower, "benchmark", "nearest-rank 99th percentile, for reference beside sim_lat_tail1_us"),
    pl("lat.sim_p999_us", "sim_us", Lower, "benchmark", "nearest-rank 99.9th percentile, for reference beside sim_lat_tail01_us"),
    pl("lat.samples_per_rep", "count", Higher, "benchmark", "latency samples behind every latency figure"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.name())),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.name())),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", count(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ]);
    pretty(&doc, 0) + "\n"
}

/// Indented rendering: objects of scalars stay on one line.
fn pretty(j: &Json, depth: usize) -> String {
    let flat = |j: &Json| !matches!(j, Json::Arr(_) | Json::Obj(_));
    let pad = "  ".repeat(depth + 1);
    let end = "  ".repeat(depth);
    match j {
        Json::Obj(fields) if !fields.iter().all(|(_, v)| flat(v)) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", s(k).render(), pretty(v, depth + 1)))
                .collect();
            format!("{{\n{}\n{end}}}", body.join(",\n"))
        }
        Json::Arr(items) if !items.iter().all(flat) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{end}]", body.join(",\n"))
        }
        other => other.render(),
    }
}
