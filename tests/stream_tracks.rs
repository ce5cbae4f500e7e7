//! A stream labels a trace track: the FTL command spans a file's traffic
//! issues sit on the track of the label its engine or the VFS gave it.
//! Labels are read back from the tracer's table (`Tracer::intern` returns
//! a known label's id).

use share_repro::core::{
    BlockDevice, Ftl, FtlConfig, Layer, Span, TelemetryConfig, Track, Tracer,
};
use share_repro::innodb::{standard_log_device, FlushMode, InnoDb, InnoDbConfig};
use share_repro::nand::NandTiming;
use share_repro::vfs::{Vfs, VfsOptions};

fn traced_ftl(mb: u64) -> Ftl {
    Ftl::new(
        FtlConfig::for_capacity_with(mb << 20, 0.3, 4096, 64, NandTiming::zero())
            .with_telemetry(TelemetryConfig::tracing()),
    )
}

/// The FTL command spans on `label`'s track.
fn commands_on(tracer: &Tracer, label: &str) -> Vec<Span> {
    let track = Track::Stream(tracer.intern(label));
    tracer.spans().into_iter().filter(|s| s.layer == Layer::Ftl && s.track == track).collect()
}

/// Pages the write commands on `label`'s track carried.
fn pages_written_on(tracer: &Tracer, label: &str) -> u64 {
    commands_on(tracer, label).iter().filter(|s| s.name.starts_with("write")).map(|s| s.pages).sum()
}

#[test]
fn dwb_batch_flush_events_carry_the_doublewrite_stream() {
    // Regression for batched-path attribution: the double-write buffer is
    // flushed with one `write_batch` command, and every sub-op of that
    // batch must inherit the file's stream — the command's span has to sit
    // on the `doublewrite` track, not on anonymous host traffic's.
    let dev = traced_ftl(24);
    let log = standard_log_device(dev.clock().clone());
    let cfg = InnoDbConfig {
        mode: FlushMode::DwbOn,
        pool_pages: 32,
        max_pages: 4_000,
        ..Default::default()
    };
    let mut db = InnoDb::create(dev, log, cfg).unwrap();
    for id in 0..200u64 {
        db.add_node(id, &[id as u8; 96]).unwrap();
    }
    db.checkpoint().unwrap();
    let dwb_pages = db.stats().dwb_pages_written;
    assert!(dwb_pages > 0, "checkpoint must flush through the DWB");

    let tracer = db.fs_mut().device().tracer();
    let dwb_batches: Vec<_> = commands_on(&tracer, "doublewrite")
        .into_iter()
        .filter(|s| s.name == "write_batch")
        .collect();
    assert!(
        !dwb_batches.is_empty(),
        "no write_batch command on the doublewrite track; commands and their tracks: {:?}",
        tracer
            .spans()
            .iter()
            .filter(|s| s.layer == Layer::Ftl)
            .map(|s| (s.name.as_str(), s.track))
            .collect::<Vec<_>>()
    );
    assert!(
        dwb_batches.iter().any(|s| s.pages > 1),
        "DWB flush should batch more than one page"
    );
    // Every page the engine wrote through the DWB went out on its track.
    assert!(pages_written_on(&tracer, "doublewrite") >= dwb_pages);
}

#[test]
fn per_file_streams_attribute_device_traffic() {
    let mut fs = Vfs::format(traced_ftl(8), VfsOptions::default()).unwrap();
    let a = fs.create("a.db").unwrap();
    let b = fs.create("b.log").unwrap();
    fs.set_stream_label(b, "wal").unwrap();
    let page = vec![1u8; fs.page_size()];
    for i in 0..4 {
        fs.write_page(a, i, &page).unwrap();
    }
    for i in 0..7 {
        fs.write_page(b, i, &page).unwrap();
    }
    fs.fsync(a).unwrap();
    let tracer = fs.device().tracer();
    assert_eq!(pages_written_on(&tracer, "a.db"), 4);
    assert_eq!(pages_written_on(&tracer, "wal"), 7);
    // The raw file name of the re-labelled file carries no command.
    assert!(commands_on(&tracer, "b.log").is_empty());
    // Metadata snapshots (format + fsync) land on the fs-meta track.
    assert!(pages_written_on(&tracer, "fs-meta") > 0);
}
