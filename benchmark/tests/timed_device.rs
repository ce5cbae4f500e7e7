//! `TimedDevice` must change nothing: the engines see the device only
//! through `BlockDevice`, so a trait method the wrapper forgot to forward
//! would fall back to the trait's default — and silently turn SHARE,
//! batching, queueing or snapshots off in every benchmark run.
//!
//! Two checks: every workload, run short on the wrapped and on the bare
//! device, must end in the same simulated state; and a script that calls
//! every trait method must produce the same transcript on both.

use mini_innodb::FlushMode;
use nand_sim::NandTiming;
use share_benchmark::churn::{self, ChurnParams};
use share_benchmark::linkbench::{self, LinkParams, Pool};
use share_benchmark::rep::{RepCtx, RepOut};
use share_benchmark::timed::{BenchDevice, TimedDevice};
use share_benchmark::trace::Probe;
use share_benchmark::ycsb::{self, YcsbParams};
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, QueuedCmd, SharePair};

fn ctx(window_ops: u64) -> RepCtx {
    RepCtx {
        probe: Probe::off(),
        window_ops,
        prefix_ops: window_ops / 2,
    }
}

fn assert_same_simulation(name: &str, bare: &RepOut, wrapped: &RepOut) {
    let (b, w) = (&bare.window, &wrapped.window);
    assert_eq!(b.end.stats, w.end.stats, "{name}: final DeviceStats");
    assert_eq!(b.end.sim_ns, w.end.sim_ns, "{name}: final SimClock");
    assert_eq!(b.end.busy_ns, w.end.busy_ns, "{name}: per-unit busy time");
    assert_eq!(
        b.prefix.simulated(),
        w.prefix.simulated(),
        "{name}: prefix stamp"
    );
    assert_eq!(b.lat_ns, w.lat_ns, "{name}: per-op latencies");
    assert_eq!(b.user_bytes, w.user_bytes, "{name}: payload bytes");
    assert_eq!(bare.log, wrapped.log, "{name}: log-device counters");
    // Everything in `layer` is a counter ratio except the one wall share.
    let counters = |out: &RepOut| {
        let mut m = out.layer.clone();
        m.remove("couch.compact_wall_share");
        m
    };
    assert_eq!(counters(bare), counters(wrapped), "{name}: engine counters");
    assert_eq!(
        bare.revmap_len_end, wrapped.revmap_len_end,
        "{name}: reverse map"
    );
    assert_eq!(
        bare.queue_max_inflight, wrapped.queue_max_inflight,
        "{name}: queue high-water"
    );
    assert_eq!(
        bare.recover.page_reads, wrapped.recover.page_reads,
        "{name}: recovery reads"
    );
    for out in [bare, wrapped] {
        assert_eq!(out.window.failed, 0, "{name}: no op may fail");
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
    }
    // The wrapper did see the traffic it forwarded.
    assert!(
        w.end.counts.cmds > w.start.counts.cmds,
        "{name}: wrapper counted no commands"
    );
}

fn small_linkbench(mode: FlushMode, pool: Pool) -> LinkParams {
    LinkParams {
        mode,
        pool,
        nodes: 1_500,
        links_per_node: 3,
        warmup_txns: 1_600,
        connections: 16,
        channels: 4,
        ckpt_redo_bytes: 128 << 10,
        verify_samples: 200,
    }
}

#[test]
fn linkbench_runs_identically_on_wrapped_and_bare_devices() {
    for (name, mode, pool) in [
        (
            "linkbench_share",
            FlushMode::Share,
            Pool::FractionOfDb(1.0 / 30.0),
        ),
        (
            "linkbench_dwb",
            FlushMode::DwbOn,
            Pool::FractionOfDb(1.0 / 30.0),
        ),
        ("linkbench_cached", FlushMode::Share, Pool::TimesDb(1.5)),
    ] {
        let p = small_linkbench(mode, pool);
        let bare = linkbench::run::<Ftl>(&p, 7, &ctx(1_600));
        let wrapped = linkbench::run::<TimedDevice<Ftl>>(&p, 7, &ctx(1_600));
        assert_same_simulation(name, &bare, &wrapped);
        let shares = wrapped.window.end.stats.share_commands;
        assert_eq!(
            shares > 0,
            mode == FlushMode::Share,
            "{name}: SHARE use follows the flush mode"
        );
    }
}

#[test]
fn ycsb_runs_identically_on_wrapped_and_bare_devices() {
    let p = YcsbParams {
        records: 200,
        record_size: 16_000,
        batch_size: 16,
        connections: 16,
        channels: 4,
        warmup_ops: 800,
        compact_at: 0.6,
        device_factor: 3.8,
        verify_samples: 100,
    };
    let bare = ycsb::run::<Ftl>(&p, 7, &ctx(3_200));
    let wrapped = ycsb::run::<TimedDevice<Ftl>>(&p, 7, &ctx(3_200));
    assert_same_simulation("ycsb_a_couch", &bare, &wrapped);
    assert!(
        wrapped.queue_max_inflight > 1,
        "the queued path must be in use"
    );
    assert!(
        wrapped.layer["couch.compactions"] >= 1.0,
        "the window must hold a compaction"
    );
    assert!(
        wrapped.layer["couch.share_remaps_per_commit"] > 0.0,
        "updates must go through SHARE"
    );
}

#[test]
fn ftl_churn_runs_identically_on_wrapped_and_bare_devices() {
    let p = ChurnParams {
        logical_pages: 4_096,
        fill: 0.85,
        over_provision: 0.15,
        channels: 4,
        warmup_capacities: 2.0,
        verify_samples: 500,
    };
    let bare = churn::run::<Ftl>(&p, 7, &ctx(8_000));
    let wrapped = churn::run::<TimedDevice<Ftl>>(&p, 7, &ctx(8_000));
    assert_same_simulation("ftl_churn", &bare, &wrapped);
    let d = wrapped
        .window
        .end
        .stats
        .delta_since(&wrapped.window.start.stats);
    assert!(
        d.share_commands > 0 && d.gc_events > 0,
        "SHARE and GC must both run: {d:?}"
    );
}

/// Call every `BlockDevice` method once and write down what came back.
fn transcript<D: BlockDevice>(dev: &mut D) -> Vec<String> {
    let ps = dev.page_size();
    let page = |b: u8| vec![b; ps];
    let mut buf = vec![0u8; ps];
    let mut log = Vec::new();
    let mut note = |what: &str, outcome: String| log.push(format!("{what}: {outcome}"));

    note("page_size", dev.page_size().to_string());
    note("capacity_pages", dev.capacity_pages().to_string());
    note("supports_share", dev.supports_share().to_string());
    note("share_batch_limit", dev.share_batch_limit().to_string());
    note("write_atomic_limit", dev.write_atomic_limit().to_string());
    note("supports_snapshot", dev.supports_snapshot().to_string());
    note("supports_queue", dev.supports_queue().to_string());
    note("queue_depth", dev.queue_depth().to_string());
    dev.set_queue_depth(8);
    note("queue_depth after set", dev.queue_depth().to_string());
    let stream = dev.stream_intern("wal");
    dev.set_stream(stream);
    note("stream_intern", stream.to_string());

    note("write", format!("{:?}", dev.write(Lpn(0), &page(1))));
    let (p2, p3) = (page(2), page(3));
    note(
        "write_batch",
        format!(
            "{:?}",
            dev.write_batch(&[(Lpn(1), &p2[..]), (Lpn(2), &p3[..])])
        ),
    );
    note(
        "write_atomic",
        format!(
            "{:?}",
            dev.write_atomic(&[(Lpn(3), &p2[..]), (Lpn(4), &p3[..])])
        ),
    );
    note(
        "share",
        format!("{:?}", dev.share(&[SharePair::new(Lpn(10), Lpn(0))])),
    );
    let pairs: Vec<SharePair> = (0..3)
        .map(|i| SharePair::new(Lpn(20 + i), Lpn(1 + i)))
        .collect();
    note("share_batch", format!("{:?}", dev.share_batch(&pairs)));
    note(
        "read",
        format!("{:?} {}", dev.read(Lpn(10), &mut buf), buf[0]),
    );
    let mut b2 = vec![0u8; ps];
    let r = dev.read_batch(&mut [(Lpn(20), &mut buf[..]), (Lpn(21), &mut b2[..])]);
    note("read_batch", format!("{r:?} {} {}", buf[0], b2[0]));
    note("trim", format!("{:?}", dev.trim(Lpn(4), 1)));
    note("flush", format!("{:?}", dev.flush()));

    note(
        "snapshot_create",
        format!("{:?}", dev.snapshot_create("s", Lpn(0), 8)),
    );
    note("snapshot_persist", format!("{:?}", dev.snapshot_persist()));
    note(
        "write over snapshot",
        format!("{:?}", dev.write(Lpn(0), &page(9))),
    );
    note(
        "snapshot_read",
        format!("{:?} {}", dev.snapshot_read("s", 0, &mut buf), buf[0]),
    );
    note(
        "snapshot_clone",
        format!("{:?}", dev.snapshot_clone("s", 0, Lpn(40), 4)),
    );
    note("snapshot_list", format!("{:?}", dev.snapshot_list()));
    note("snapshot_drop", format!("{:?}", dev.snapshot_drop("s")));

    note(
        "submit write",
        format!(
            "{:?}",
            dev.submit(QueuedCmd::Write {
                lpn: Lpn(5),
                data: page(5)
            })
        ),
    );
    note(
        "submit read",
        format!("{:?}", dev.submit(QueuedCmd::Read { lpn: Lpn(10) })),
    );
    note("inflight", dev.inflight().to_string());
    note("poll", format!("{:?}", dev.poll()));
    note("reap", format!("{:?}", dev.reap()));
    note("drain", format!("{:?}", dev.drain()));
    note("inflight after drain", dev.inflight().to_string());

    note("stats", format!("{:?}", dev.stats()));
    note("clock", dev.clock().now_ns().to_string());
    note(
        "telemetry_snapshot",
        format!("{:?}", dev.telemetry_snapshot().map(|s| s.queue)),
    );
    note(
        "monitor_snapshot",
        dev.monitor_snapshot().is_some().to_string(),
    );
    note("tracer", dev.tracer().is_enabled().to_string());
    log
}

#[test]
fn every_trait_method_is_forwarded() {
    let cfg = || {
        FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 32, NandTiming::default())
            .with_parallelism(2, 1)
    };
    let mut bare = Ftl::new(cfg());
    let mut wrapped = TimedDevice::wrap(Ftl::new(cfg()), Probe::off());
    let mut probed = TimedDevice::wrap(Ftl::new(cfg()), Probe::on());
    let want = transcript(&mut bare);
    // 36 trait methods; a few are called twice.
    assert!(
        want.len() >= 36,
        "the script covers every method: {}",
        want.len()
    );
    assert_eq!(want, transcript(&mut wrapped), "wrapper, probe off");
    assert_eq!(want, transcript(&mut probed), "wrapper, probe on");
    assert!(want.iter().any(|l| l == "supports_share: true"));
    assert!(want.iter().any(|l| l == "supports_queue: true"));
    assert!(want.iter().any(|l| l == "supports_snapshot: true"));
}
