//! Internal passes must be timed on the timeline their NAND work runs on.
//!
//! `gc`, `log_flush` and `checkpoint` spans open in the FTL's internal-pass
//! frame. Under queued submission the pass runs inside the command's
//! deferred NAND window, where the shared clock stands still and only the
//! window frontier moves; a pass stamped with clock read-outs is then
//! zero-length, its NAND children end after it, and `OpClass::Gc` latency
//! reads 0 ns — which is what the sync collector did before it was folded
//! into the job collector. Every way of reaching a pass is held to the same
//! rule here: the pass encloses all of its children.

use nand_sim::NandTiming;
use share_core::{BlockDevice, Ftl, FtlConfig, Lpn, QueuedCmd};
use share_telemetry::{Layer, OpClass, TelemetryConfig};

const PAGES: u64 = 256;
const PAGE: usize = 4096;

/// A 4-channel device tight enough that the storm below collects dozens
/// of victims and fills the delta-log ring (one checkpoint at least).
fn traced_cfg() -> FtlConfig {
    FtlConfig::for_capacity_with(PAGES * PAGE as u64, 0.25, PAGE, 16, NandTiming::default())
        .with_parallelism(4, 1)
        .with_telemetry(TelemetryConfig::tracing())
        .with_queue_depth(8)
}

/// Overwrite storm in a permuted order with a flush every 8 writes, issued
/// by `write`/`flush` so the caller picks the submission path.
fn storm(
    ftl: &mut Ftl,
    mut write: impl FnMut(&mut Ftl, Lpn, Vec<u8>),
    mut flush: impl FnMut(&mut Ftl),
) {
    for round in 0..8u64 {
        for i in 0..PAGES {
            let lpn = (i * 173 + round * 311) % PAGES;
            if round == 0 || lpn % 4 != 0 {
                write(ftl, Lpn(lpn), vec![(round * 67 + lpn) as u8; PAGE]);
            }
            if i % 8 == 7 {
                flush(ftl);
            }
        }
    }
}

fn assert_passes_enclose_children(ftl: &Ftl, how: &str) {
    let spans = ftl.tracer().spans();
    for name in ["gc", "log_flush", "checkpoint"] {
        let passes: Vec<_> =
            spans.iter().filter(|s| s.layer == Layer::Ftl && s.name == name).collect();
        assert!(passes.len() > 1, "{how}: storm never ran a `{name}` pass");
        let mut with_children = 0;
        for pass in passes {
            let children: Vec<_> = spans.iter().filter(|c| c.parent == pass.id).collect();
            with_children += usize::from(!children.is_empty());
            for child in children {
                assert!(
                    pass.start_ns <= child.start_ns && child.end_ns <= pass.end_ns,
                    "{how}: `{name}` [{}, {}] does not enclose its child `{}` [{}, {}]",
                    pass.start_ns,
                    pass.end_ns,
                    child.name,
                    child.start_ns,
                    child.end_ns
                );
            }
        }
        assert!(with_children > 0, "{how}: no `{name}` pass had NAND work under it");
    }
    let stats = ftl.stats();
    assert!(stats.copyback_pages > 0, "{how}: GC never relocated a page");
    let snap = ftl.telemetry().snapshot();
    let gc = snap.ops.iter().find(|o| o.op == OpClass::Gc).expect("gc op class");
    assert!(gc.hist.sum > 0, "{how}: GC passes took no simulated time");
}

#[test]
fn sync_passes_enclose_their_children() {
    let mut ftl = Ftl::new(traced_cfg());
    storm(&mut ftl, |f, lpn, data| f.write(lpn, &data).unwrap(), |f| f.flush().unwrap());
    assert_passes_enclose_children(&ftl, "sync");
}

#[test]
fn queued_passes_enclose_their_children() {
    // Keep the queue as full as it goes: passes run under deferred
    // windows that start ahead of the shared clock.
    fn submit(ftl: &mut Ftl, cmd: QueuedCmd) {
        if ftl.inflight() == ftl.queue_depth() {
            assert!(ftl.reap().iter().all(|c| c.is_ok()));
        }
        ftl.submit(cmd).unwrap();
    }
    let mut ftl = Ftl::new(traced_cfg());
    storm(
        &mut ftl,
        |f, lpn, data| submit(f, QueuedCmd::Write { lpn, data }),
        |f| submit(f, QueuedCmd::Flush),
    );
    assert!(ftl.drain().iter().all(|c| c.is_ok()));
    assert_passes_enclose_children(&ftl, "queued qd=8");
}

#[test]
fn pipelined_passes_enclose_their_children() {
    // Budgeted background steps run under a background window opened at
    // the submission frontier, nested in whatever window the command holds.
    let mut ftl = Ftl::new(traced_cfg());
    storm(&mut ftl, |f, lpn, data| f.write(lpn, &data).unwrap(), |f| f.flush().unwrap());
    assert!(ftl.stats().gc_budget_deferrals > 0, "no step ever parked a victim");
    assert_passes_enclose_children(&ftl, "parked victims");
}
