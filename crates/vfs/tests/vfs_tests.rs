//! Integration tests for the VFS over both device types (SHARE FTL and a
//! conventional SSD), including crash/remount behaviour.

use share_core::{BlockDevice, Ftl, FtlConfig, FtlError, SimpleSsd};
use share_telemetry::{Layer, TelemetryConfig};
use share_vfs::{Vfs, VfsError, VfsOptions};

fn ftl_fs() -> Vfs<Ftl> {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap()
}

fn page(fs: &Vfs<impl BlockDevice>, b: u8) -> Vec<u8> {
    vec![b; fs.page_size()]
}

fn read_byte(fs: &mut Vfs<impl BlockDevice>, f: share_vfs::FileId, p: u64) -> u8 {
    let mut buf = vec![0u8; fs.page_size()];
    fs.read_page(f, p, &mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == buf[0]));
    buf[0]
}

#[test]
fn create_write_read_cycle() {
    let mut fs = ftl_fs();
    let f = fs.create("a.db").unwrap();
    fs.write_page(f, 0, &page(&fs, 1)).unwrap();
    fs.write_page(f, 5, &page(&fs, 6)).unwrap();
    assert_eq!(read_byte(&mut fs, f, 0), 1);
    assert_eq!(read_byte(&mut fs, f, 5), 6);
    assert_eq!(read_byte(&mut fs, f, 3), 0); // allocated hole reads zero
    assert_eq!(fs.len_pages(f).unwrap(), 6);
}

#[test]
fn duplicate_create_rejected() {
    let mut fs = ftl_fs();
    fs.create("a").unwrap();
    assert_eq!(fs.create("a"), Err(VfsError::Exists("a".into())));
}

#[test]
fn lookup_list_delete() {
    let mut fs = ftl_fs();
    let f = fs.create("x").unwrap();
    fs.create("y").unwrap();
    assert_eq!(fs.lookup("x"), Some(f));
    assert_eq!(fs.list(), vec!["x".to_string(), "y".to_string()]);
    fs.delete("x").unwrap();
    assert_eq!(fs.lookup("x"), None);
    assert!(matches!(fs.delete("x"), Err(VfsError::NotFound(_))));
}

#[test]
fn delete_frees_space_for_reuse() {
    let mut fs = ftl_fs();
    let f = fs.create("big").unwrap();
    let total = fs.device().capacity_pages();
    // Fill most of the data area.
    fs.fallocate(f, total - fs.data_start() - 300).unwrap();
    assert!(matches!(
        fs.fallocate(f, total), // more than the device holds
        Err(VfsError::NoSpace { .. })
    ));
    fs.delete("big").unwrap();
    let g = fs.create("next").unwrap();
    fs.fallocate(g, 1000).unwrap();
}

#[test]
fn rename_moves_the_name_only() {
    let mut fs = ftl_fs();
    let f = fs.create("old").unwrap();
    fs.write_page(f, 0, &page(&fs, 9)).unwrap();
    fs.rename("old", "new").unwrap();
    assert_eq!(fs.lookup("new"), Some(f));
    assert_eq!(fs.lookup("old"), None);
    assert_eq!(read_byte(&mut fs, f, 0), 9);
    assert!(matches!(fs.rename("missing", "z"), Err(VfsError::NotFound(_))));
}

#[test]
fn rename_refuses_a_name_create_refuses() {
    // The file table stores a name's length in one byte: a long name taken
    // here would be written truncated and misparse at the next mount.
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), VfsOptions::default()).unwrap();
    let f = fs.create("old").unwrap();
    fs.write_page(f, 0, &page(&fs, 9)).unwrap();
    for bad in [String::new(), "n".repeat(65), "n".repeat(300)] {
        assert_eq!(fs.create(&bad), Err(VfsError::BadName(bad.clone())));
        assert_eq!(fs.rename("old", &bad), Err(VfsError::BadName(bad.clone())));
    }
    fs.rename("old", &"n".repeat(64)).unwrap();
    fs.fsync(f).unwrap();
    let dev = Ftl::open(cfg, fs.into_device().into_nand()).unwrap();
    let mut fs = Vfs::open(dev, VfsOptions::default()).unwrap();
    assert_eq!(fs.list(), ["n".repeat(64)]);
    assert_eq!(read_byte(&mut fs, f, 0), 9);
}

#[test]
fn files_grow_across_multiple_extents() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let opts = VfsOptions { extent_chunk_pages: 4, ..Default::default() };
    let mut fs = Vfs::format(Ftl::new(cfg), opts).unwrap();
    let f = fs.create("grow").unwrap();
    let g = fs.create("interleave").unwrap();
    // Interleaved growth forces non-contiguous extents.
    for i in 0..20u64 {
        fs.write_page(f, i, &page(&fs, i as u8)).unwrap();
        fs.write_page(g, i, &page(&fs, (100 + i) as u8)).unwrap();
    }
    for i in 0..20u64 {
        assert_eq!(read_byte(&mut fs, f, i), i as u8);
        assert_eq!(read_byte(&mut fs, g, i), (100 + i) as u8);
    }
}

#[test]
fn fsync_then_remount_preserves_everything() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), VfsOptions::default()).unwrap();
    let f = fs.create("persist.db").unwrap();
    for i in 0..10u64 {
        fs.write_page(f, i, &page(&fs, (i + 1) as u8)).unwrap();
    }
    fs.fsync(f).unwrap();
    let nand = fs.into_device().into_nand();
    let dev = Ftl::open(cfg, nand).unwrap();
    let mut fs2 = Vfs::open(dev, VfsOptions::default()).unwrap();
    let f2 = fs2.lookup("persist.db").unwrap();
    for i in 0..10u64 {
        assert_eq!(read_byte(&mut fs2, f2, i), (i + 1) as u8);
    }
    assert_eq!(fs2.len_pages(f2).unwrap(), 10);
}

/// `Vfs::fsync` has `fdatasync` semantics for the length: a write past the
/// end inside the allocation leaves the file table as it was, so a remount
/// reads the old length (and the written page, which is durable).
#[test]
fn fsync_after_a_write_past_the_end_keeps_the_old_length() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), VfsOptions::default()).unwrap();
    let f = fs.create("a").unwrap();
    fs.fallocate(f, 8).unwrap();
    fs.write_page(f, 0, &page(&fs, 1)).unwrap();
    fs.write_page(f, 1, &page(&fs, 2)).unwrap();
    fs.fsync(f).unwrap();
    fs.write_page(f, 5, &page(&fs, 6)).unwrap();
    assert_eq!(fs.len_pages(f).unwrap(), 6);
    fs.fsync(f).unwrap();
    let dev = Ftl::open(cfg, fs.into_device().into_nand()).unwrap();
    let mut fs2 = Vfs::open(dev, VfsOptions::default()).unwrap();
    let f2 = fs2.lookup("a").unwrap();
    assert_eq!(fs2.len_pages(f2).unwrap(), 2);
    assert_eq!(read_byte(&mut fs2, f2, 5), 6);
}

/// `fallocate` that allocates and `truncate` are metadata changes: the
/// fsync after either persists the length the file has in memory.
#[test]
fn fsync_after_fallocate_or_truncate_persists_the_length() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let opts = VfsOptions { extent_chunk_pages: 8, ..VfsOptions::default() };
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), opts.clone()).unwrap();
    let (a, b) = (fs.create("a").unwrap(), fs.create("b").unwrap());
    for f in [a, b] {
        fs.fallocate(f, 8).unwrap();
        fs.write_page(f, 0, &page(&fs, 1)).unwrap();
        fs.fsync(f).unwrap();
        fs.write_page(f, 5, &page(&fs, 6)).unwrap();
    }
    fs.fallocate(a, 16).unwrap();
    fs.fsync(a).unwrap();
    fs.truncate(b, 4).unwrap();
    fs.fsync(b).unwrap();
    let dev = Ftl::open(cfg, fs.into_device().into_nand()).unwrap();
    let fs2 = Vfs::open(dev, opts).unwrap();
    assert_eq!(fs2.len_pages(fs2.lookup("a").unwrap()).unwrap(), 6);
    assert_eq!(fs2.len_pages(fs2.lookup("b").unwrap()).unwrap(), 4);
}

#[test]
fn crash_after_fsync_preserves_file_table() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), VfsOptions::default()).unwrap();
    let f = fs.create("a").unwrap();
    fs.write_page(f, 0, &page(&fs, 3)).unwrap();
    fs.fsync(f).unwrap();
    // Crash on a later, unsynced write.
    fs.device_mut().fault_handle().arm_after_programs(1, nand_sim::FaultMode::TornHalf);
    let _ = fs.write_page(f, 1, &page(&fs, 4));
    let nand = fs.into_device().into_nand();
    let dev = Ftl::open(cfg, nand).unwrap();
    let mut fs2 = Vfs::open(dev, VfsOptions::default()).unwrap();
    let f2 = fs2.lookup("a").unwrap();
    assert_eq!(read_byte(&mut fs2, f2, 0), 3);
}

#[test]
fn ioctl_share_remaps_across_files() {
    let mut fs = ftl_fs();
    let a = fs.create("a").unwrap();
    let b = fs.create("b").unwrap();
    for i in 0..4u64 {
        fs.write_page(a, i, &page(&fs, 0x10 + i as u8)).unwrap();
        fs.write_page(b, i, &page(&fs, 0x20 + i as u8)).unwrap();
    }
    fs.fsync(a).unwrap();
    // a[0..4] := b[0..4] without copying.
    let w_before = fs.device().stats().host_writes;
    fs.ioctl_share(a, 0, b, 0, 4).unwrap();
    assert_eq!(fs.device().stats().host_writes, w_before);
    for i in 0..4u64 {
        assert_eq!(read_byte(&mut fs, a, i), 0x20 + i as u8);
    }
    assert_eq!(fs.device().stats().share_commands, 1);
    assert_eq!(fs.device().stats().shared_pages, 4);
}

#[test]
fn ioctl_share_pairs_chunks_large_sets() {
    let mut fs = ftl_fs();
    let a = fs.create("a").unwrap();
    let b = fs.create("b").unwrap();
    let n = fs.share_batch_limit() as u64 + 10; // spans two atomic sub-batches
    fs.fallocate(a, n).unwrap();
    for i in 0..n {
        fs.write_page(b, i, &page(&fs, (i % 251) as u8)).unwrap();
    }
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i, i)).collect();
    fs.ioctl_share_pairs(a, b, &pairs).unwrap();
    // One host command even though the device commits it as two
    // log-page-sized atomic sub-batches.
    assert_eq!(fs.device().stats().share_commands, 1);
    assert_eq!(fs.device().stats().shared_pages, n);
    for i in (0..n).step_by(37) {
        assert_eq!(read_byte(&mut fs, a, i), (i % 251) as u8);
    }
    assert_eq!(fs.len_pages(a).unwrap(), n);
}

#[test]
fn share_on_conventional_ssd_reports_unsupported() {
    let dev = SimpleSsd::new(4096, 4096, nand_sim::SimClock::new());
    let mut fs = Vfs::format(dev, VfsOptions::default()).unwrap();
    assert!(!fs.supports_share());
    let a = fs.create("a").unwrap();
    let b = fs.create("b").unwrap();
    fs.write_page(b, 0, &page(&fs, 1)).unwrap();
    fs.fallocate(a, 1).unwrap();
    assert_eq!(
        fs.ioctl_share(a, 0, b, 0, 1),
        Err(VfsError::Device(FtlError::Unsupported("share")))
    );
}

#[test]
fn journal_traffic_is_charged_when_enabled() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let opts = VfsOptions { journal_pages_per_commit: 2, ..Default::default() };
    let mut fs = Vfs::format(Ftl::new(cfg), opts).unwrap();
    let f = fs.create("a").unwrap();
    fs.write_page(f, 0, &page(&fs, 1)).unwrap();
    fs.fsync(f).unwrap();
    assert_eq!(fs.stats().journal_commits, 1);
    assert_eq!(fs.stats().journal_pages, 2);
    // fsync with no new data writes no journal.
    fs.fsync(f).unwrap();
    assert_eq!(fs.stats().journal_commits, 1);
}

#[test]
fn out_of_bounds_read_is_detected() {
    let mut fs = ftl_fs();
    let f = fs.create("a").unwrap();
    fs.write_page(f, 0, &page(&fs, 1)).unwrap();
    let mut buf = vec![0u8; fs.page_size()];
    let allocated = fs.allocated_pages(f).unwrap();
    assert!(matches!(
        fs.read_page(f, allocated, &mut buf),
        Err(VfsError::OutOfBounds { .. })
    ));
}

/// The device `trim` commands (LPN, pages) the spans from `first` on record.
fn trim_commands(fs: &Vfs<Ftl>, first: usize) -> Vec<u64> {
    let spans = fs.tracer().spans().split_off(first);
    spans.iter().filter(|s| s.layer == Layer::Ftl && s.name == "trim").map(|s| s.pages).collect()
}

#[test]
fn trim_range_is_one_device_command_per_run_of_lpns() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero())
        .with_telemetry(TelemetryConfig::tracing());
    let opts = VfsOptions { extent_chunk_pages: 4, ..Default::default() };
    let mut fs = Vfs::format(Ftl::new(cfg), opts).unwrap();
    let (f, g) = (fs.create("f").unwrap(), fs.create("g").unwrap());
    // Interleaved growth: `f` is five 4-page extents with `g`'s in between.
    for i in 0..20u64 {
        fs.write_page(f, i, &page(&fs, i as u8 + 1)).unwrap();
        fs.write_page(g, i, &page(&fs, 100)).unwrap();
    }
    assert_ne!(fs.lpn_of(f, 4).unwrap().0, fs.lpn_of(f, 3).unwrap().0 + 1, "extents must not abut");

    // Inside one extent: one command, whatever the length.
    let first = fs.tracer().span_count();
    fs.trim_range(f, 1, 4).unwrap();
    assert_eq!(trim_commands(&fs, first), [3]);
    // Across extents: a new command at each boundary, the ends partial.
    let first = fs.tracer().span_count();
    fs.trim_range(f, 6, 17).unwrap();
    assert_eq!(trim_commands(&fs, first), [2, 4, 4, 1]);
    for i in 0..20u64 {
        let trimmed = (1..4).contains(&i) || (6..17).contains(&i);
        assert_eq!(read_byte(&mut fs, f, i), if trimmed { 0 } else { i as u8 + 1 }, "page {i}");
        assert_eq!(read_byte(&mut fs, g, i), 100, "the neighbour's page {i}");
    }

    // An empty (or inverted) range is no command at all.
    let (first, trims) = (fs.tracer().span_count(), fs.device().stats().trims);
    fs.trim_range(f, 5, 5).unwrap();
    fs.trim_range(f, 9, 2).unwrap();
    assert_eq!((trim_commands(&fs, first).len(), fs.device().stats().trims), (0, trims));

    // A range that leaves the allocation fails before the first side effect,
    // however much of it lies inside.
    let allocated = fs.allocated_pages(f).unwrap();
    assert_eq!(allocated, 20);
    let r = fs.trim_range(f, 17, allocated + 1);
    assert!(matches!(r, Err(VfsError::OutOfBounds { page: 20, .. })), "{r:?}");
    assert_eq!((trim_commands(&fs, first).len(), fs.device().stats().trims), (0, trims));
    assert_eq!(read_byte(&mut fs, f, 19), 20);
}

#[test]
fn truncate_shrinks_logical_length_only() {
    let mut fs = ftl_fs();
    let f = fs.create("a").unwrap();
    for i in 0..8u64 {
        fs.write_page(f, i, &page(&fs, i as u8)).unwrap();
    }
    let allocated = fs.allocated_pages(f).unwrap();
    fs.truncate(f, 2).unwrap();
    assert_eq!(fs.len_pages(f).unwrap(), 2);
    assert_eq!(fs.allocated_pages(f).unwrap(), allocated);
    // Content past the logical length is still readable (allocation kept).
    assert_eq!(read_byte(&mut fs, f, 5), 5);
}

#[test]
fn queued_writes_round_trip_through_the_mount() {
    let cfg = share_core::FtlConfig::for_capacity_with(
        8 << 20,
        0.3,
        4096,
        16,
        nand_sim::NandTiming::default(),
    )
    .with_parallelism(4, 1);
    let mut fs = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap();
    assert!(fs.supports_queue());
    let f = fs.create("q.db").unwrap();
    let ps = fs.page_size();
    let pages: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; ps]).collect();
    let batch: Vec<(u64, &[u8])> =
        pages.iter().enumerate().map(|(i, p)| (i as u64, p.as_slice())).collect();
    let wt = fs.submit_write_pages_retry(f, &batch).unwrap();
    // Metadata grew eagerly; the command is still in flight.
    assert_eq!(fs.len_pages(f).unwrap(), 8);
    assert_eq!(fs.inflight(), 1);
    let done = fs.drain_queue();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tag, wt);
    assert!(done[0].is_ok());
    let mut reaped = Vec::new();
    let rt = fs.submit_read_pages(f, &[0, 3, 7], Vec::new(), &mut reaped).unwrap();
    assert!(reaped.is_empty(), "nothing was in flight to reap");
    let done = fs.drain_queue();
    assert_eq!(done[0].tag, rt);
    let flat = done[0].result.clone().unwrap().into_pages().unwrap();
    assert_eq!(flat.len(), 3 * ps);
    for (buf, want) in flat.chunks_exact(ps).zip([0u8, 3, 7]) {
        assert!(buf.iter().all(|&b| b == want));
    }
    assert_eq!(fs.inflight(), 0);
}

#[test]
fn queued_submission_unsupported_on_simple_ssd() {
    let dev = SimpleSsd::new(4096, 2048, nand_sim::SimClock::new());
    let mut fs = Vfs::format(dev, VfsOptions::default()).unwrap();
    assert!(!fs.supports_queue());
    let f = fs.create("q.db").unwrap();
    let data = vec![1u8; fs.page_size()];
    let batch: Vec<(u64, &[u8])> = vec![(0, data.as_slice())];
    assert_eq!(
        fs.submit_write_pages_retry(f, &batch),
        Err(VfsError::Device(FtlError::Unsupported("submit")))
    );
}

/// Pairs per `ioctl_share_pairs` command, from the spans after `first`.
fn share_commands(fs: &Vfs<Ftl>, first: usize) -> Vec<u64> {
    let spans = fs.tracer().spans().split_off(first);
    let cmds = spans.iter().filter(|s| s.layer == Layer::Vfs && s.name == "ioctl_share_pairs");
    cmds.map(|s| s.pages).collect()
}

#[test]
fn ioctl_share_units_cuts_only_between_units() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero())
        .with_telemetry(TelemetryConfig::tracing());
    let mut fs = Vfs::format(Ftl::new(cfg), VfsOptions::default()).unwrap();
    let (a, b) = (fs.create("a").unwrap(), fs.create("b").unwrap());
    let limit = fs.share_batch_limit();
    let n = 2 * limit as u64 + 2;
    fs.fallocate(a, n).unwrap();
    for i in 0..n {
        fs.write_page(b, i, &page(&fs, (i % 251) as u8 + 1)).unwrap();
    }
    let pairs: Vec<(u64, u64)> = (0..n).map(|i| (i, i)).collect();
    fn ends(widths: &[usize]) -> impl Iterator<Item = usize> + '_ {
        widths.iter().scan(0, |end, w| {
            *end += w;
            Some(*end)
        })
    }
    // Greedy runs of whole units: two halves fill one command, the 3-pair
    // unit does not fit beside the next one, the last unit rides along.
    let widths = [limit / 2, limit - limit / 2, 3, limit - 2, 1];
    let first = fs.tracer().span_count();
    fs.ioctl_share_units(a, b, &pairs, ends(&widths)).unwrap();
    assert_eq!(share_commands(&fs, first), [limit as u64, 3, limit as u64 - 1]);
    for i in (0..n).step_by(37) {
        assert_eq!(read_byte(&mut fs, a, i), (i % 251) as u8 + 1, "page {i}");
    }
    // A unit wider than the limit fails before any command carries it.
    let (first, shares) = (fs.tracer().span_count(), fs.device().stats().share_commands);
    let r = fs.ioctl_share_units(a, b, &pairs, ends(&[5, limit + 1]));
    assert_eq!(r, Err(VfsError::Device(FtlError::BatchTooLarge { got: limit + 1, max: limit })));
    assert!(share_commands(&fs, first).is_empty());
    assert_eq!(fs.device().stats().share_commands, shares);
}

// ----- zero-copy clones through SHARE ---------------------------------------

#[test]
fn clone_file_is_zero_copy_and_copy_on_write() {
    let mut fs = ftl_fs();
    let f = fs.create("live.db").unwrap();
    for p in 0..8 {
        fs.write_page(f, p, &page(&fs, 10 + p as u8)).unwrap();
    }
    let before = fs.device().stats();
    let c = fs.clone_file(f, 8, "clone.db").unwrap();
    let spent = fs.device().stats().delta_since(&before);
    assert_eq!((spent.host_writes, spent.share_commands, spent.shared_pages), (0, 1, 8));
    assert_eq!(fs.len_pages(c).unwrap(), 8);
    // Diverge the live file after the clone: the clone keeps its pages.
    for p in 0..8 {
        fs.write_page(f, p, &page(&fs, 99)).unwrap();
    }
    for p in 0..8 {
        assert_eq!(read_byte(&mut fs, c, p), 10 + p as u8, "clone page {p}");
    }
    // Writing the clone does not disturb the live file.
    fs.write_page(c, 0, &page(&fs, 55)).unwrap();
    assert_eq!(read_byte(&mut fs, c, 0), 55);
    assert_eq!(read_byte(&mut fs, f, 0), 99);
    fs.device_mut().check_invariants();
}

#[test]
fn clone_file_spans_multiple_extents() {
    // Tiny extents: the source is several discontiguous LPN runs.
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let opts = VfsOptions { extent_chunk_pages: 8, ..VfsOptions::default() };
    let mut fs = Vfs::format(Ftl::new(cfg), opts).unwrap();
    let f = fs.create("seg.db").unwrap();
    let other = fs.create("other.db").unwrap();
    for round in 0..4u64 {
        for p in 0..8u64 {
            let idx = round * 8 + p;
            fs.write_page(f, idx, &page(&fs, (idx % 251) as u8)).unwrap();
        }
        fs.write_page(other, round, &page(&fs, 7)).unwrap();
    }
    assert_ne!(fs.lpn_of(f, 8).unwrap().0, fs.lpn_of(f, 7).unwrap().0 + 1, "extents must not abut");
    let c = fs.clone_file(f, 32, "seg-clone.db").unwrap();
    assert_eq!(fs.len_pages(c).unwrap(), 32);
    // The clone outlives the source.
    fs.delete("seg.db").unwrap();
    for p in 0..32 {
        assert_eq!(read_byte(&mut fs, c, p), (p % 251) as u8, "clone page {p}");
    }
    fs.device_mut().check_invariants();
}

#[test]
fn clone_file_survives_remount() {
    let cfg = FtlConfig::for_capacity_with(8 << 20, 0.3, 4096, 16, nand_sim::NandTiming::zero());
    let mut fs = Vfs::format(Ftl::new(cfg.clone()), VfsOptions::default()).unwrap();
    let f = fs.create("db").unwrap();
    for p in 0..4 {
        fs.write_page(f, p, &page(&fs, 40 + p as u8)).unwrap();
    }
    let c = fs.clone_file(f, 4, "db2").unwrap();
    fs.fsync(c).unwrap();
    // The source moves on; the remounted clone still holds what it was given.
    for p in 0..4 {
        fs.write_page(f, p, &page(&fs, 77)).unwrap();
    }
    fs.fsync(f).unwrap();
    let dev = Ftl::open(cfg, fs.into_device().into_nand()).unwrap();
    let mut fs = Vfs::open(dev, VfsOptions::default()).unwrap();
    let c = fs.lookup("db2").unwrap();
    assert_eq!(fs.len_pages(c).unwrap(), 4);
    for p in 0..4 {
        assert_eq!(read_byte(&mut fs, c, p), 40 + p as u8);
    }
}

#[test]
fn clone_file_of_an_unwritten_page_leaves_no_file() {
    let mut fs = ftl_fs();
    let f = fs.create("a").unwrap();
    fs.fallocate(f, 4).unwrap();
    for p in [0, 1, 3] {
        fs.write_page(f, p, &page(&fs, 1)).unwrap();
    }
    // Page 2 was never written: the device refuses an unmapped source.
    let hole = fs.lpn_of(f, 2).unwrap();
    assert_eq!(fs.clone_file(f, 4, "b"), Err(VfsError::Device(FtlError::SrcUnmapped(hole))));
    assert_eq!(fs.lookup("b"), None);
    // A taken name fails before anything else, and leaves the file alone.
    assert_eq!(fs.clone_file(f, 2, "a"), Err(VfsError::Exists("a".into())));
    assert_eq!(read_byte(&mut fs, f, 3), 1);
    // The rolled-back name is free again: a clone of the written prefix works.
    let c = fs.clone_file(f, 2, "b").unwrap();
    assert_eq!(read_byte(&mut fs, c, 1), 1);
    fs.device_mut().check_invariants();
}

#[test]
fn clone_file_unsupported_on_simple_ssd() {
    let dev = SimpleSsd::new(4096, 2048, nand_sim::SimClock::new());
    let mut fs = Vfs::format(dev, VfsOptions::default()).unwrap();
    let f = fs.create("a").unwrap();
    fs.write_page(f, 0, &page(&fs, 1)).unwrap();
    assert_eq!(fs.clone_file(f, 1, "b"), Err(VfsError::Device(FtlError::Unsupported("share"))));
    assert_eq!(fs.lookup("b"), None);
}
