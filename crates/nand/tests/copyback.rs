//! `copyback_batch` against its definition: a `read_batch` of the sources
//! into host buffers, then a `program_batch` of those buffers to the
//! destinations, run on a twin array. Page images, counters, unit busy
//! time, the clock, the window frontier and the trace leaves must agree —
//! synchronously, inside a deferred window and inside a background window
//! — and so must the medium after a fault armed at every program of the
//! batch, in every mode. The same twins hold the array's other identity: a
//! single `read`, `program` or `erase` is a one-element batch of it.

use nand_sim::{
    BlockId, FaultMode, NandArray, NandError, NandGeometry, NandTiming, PageState, Ppn, SimClock,
};
use share_telemetry::Tracer;

const PS: usize = 512;
const PPB: u32 = 4;
const BLOCKS: u32 = 16;

/// Four channels of two ways; blocks 0 and 1 hold programmed sources, on
/// two units, and block 2 starts with a torn page.
fn array() -> (NandArray, Tracer) {
    let g = NandGeometry::new(PS, PPB, BLOCKS).with_parallelism(4, 2);
    let mut a = NandArray::with_timing(g, NandTiming::default(), SimClock::new());
    let tracer = Tracer::enabled();
    a.set_tracer(tracer.clone());
    for p in 0..2 * PPB {
        a.program(Ppn(p), &vec![p as u8 + 1; PS]).unwrap();
    }
    // A source torn by a power loss still copies its torn image.
    a.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
    let _ = a.program(Ppn(2 * PPB), &vec![0xA7; PS]);
    a.power_cycle();
    (a, tracer)
}

/// Sources from both blocks and the torn page; destinations in blocks 3..7,
/// in each block's page order, three of them queueing on block 3's unit.
fn pairs() -> Vec<(Ppn, Ppn)> {
    let src = [0, 5, 1, 8, 6, 2, 7];
    let dst = [12, 16, 13, 20, 17, 24, 14];
    src.iter().zip(dst).map(|(&s, d)| (Ppn(s), Ppn(d))).collect()
}

fn read_then_program(a: &mut NandArray, pairs: &[(Ppn, Ppn)]) -> Result<(), NandError> {
    let mut bufs = vec![vec![0u8; PS]; pairs.len()];
    let reads = pairs.iter().zip(bufs.iter_mut()).map(|(&(s, _), b)| (s, b.as_mut_slice()));
    a.read_batch(reads)?;
    a.program_batch(pairs.iter().zip(bufs.iter()).map(|(&(_, d), b)| (d, b.as_slice())))
}

/// Everything observable about an array, read without touching it.
#[derive(Debug, PartialEq)]
struct Observed {
    states: Vec<PageState>,
    frontiers: Vec<u32>,
    stats: nand_sim::NandStats,
    busy: Vec<u64>,
    clock: u64,
    leaves: Vec<(String, u64, u64, bool)>,
}

fn observe(a: &NandArray, tracer: &Tracer) -> Observed {
    let g = a.geometry();
    Observed {
        states: (0..g.total_pages()).map(|p| a.page_state(Ppn(p))).collect(),
        frontiers: (0..g.blocks).map(|b| a.write_frontier(BlockId(b))).collect(),
        stats: a.stats(),
        busy: a.busy_ns().to_vec(),
        clock: a.now_ns(),
        leaves: tracer
            .spans()
            .into_iter()
            .map(|s| (format!("{}@{:?}", s.name, s.track), s.start_ns, s.end_ns, s.ok))
            .collect(),
    }
}

/// Every page's bytes (reads through the timed path, so call it last).
fn images(a: &mut NandArray) -> Vec<Vec<u8>> {
    let mut out = vec![vec![0u8; PS]; a.geometry().total_pages() as usize];
    for (p, buf) in out.iter_mut().enumerate() {
        a.read(Ppn(p as u32), buf).unwrap();
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Window {
    Sync,
    Deferred,
    Background,
}

/// Run `op` on `a` inside `window`, returning the window's end (the clock
/// when synchronous) and the outcome.
fn in_window(
    a: &mut NandArray,
    window: Window,
    op: impl FnOnce(&mut NandArray) -> Result<(), NandError>,
) -> (u64, Result<(), NandError>) {
    // The unit lanes are busy into the window's span, so it queues.
    a.charge(1_000);
    match window {
        Window::Sync => {
            let r = op(a);
            (a.now_ns(), r)
        }
        Window::Deferred => {
            a.begin_deferred();
            let r = op(a);
            (a.end_deferred(), r)
        }
        Window::Background => {
            a.begin_deferred();
            a.charge(300);
            let saved = a.begin_background(500);
            let r = op(a);
            let end = a.end_background(saved);
            (end.max(a.end_deferred()), r)
        }
    }
}

#[test]
fn copyback_matches_read_then_program_in_every_window() {
    for window in [Window::Sync, Window::Deferred, Window::Background] {
        let (mut a, ta) = array();
        let (mut b, tb) = array();
        let ea = in_window(&mut a, window, |a| a.copyback_batch(&pairs()));
        let eb = in_window(&mut b, window, |b| read_then_program(b, &pairs()));
        assert_eq!(ea, eb, "{window:?}: window end and outcome");
        assert_eq!(ea.1, Ok(()));
        assert_eq!(observe(&a, &ta), observe(&b, &tb), "{window:?}");
        assert_eq!(images(&mut a), images(&mut b), "{window:?}: page images");
        // The torn source copied its torn image.
        let mut buf = vec![0u8; PS];
        a.read(Ppn(20), &mut buf).unwrap();
        assert!(buf[..PS / 2].iter().all(|&x| x == 0xA7));
        assert!(buf[PS / 2..].iter().all(|&x| x == 0xFF));
    }
}

#[test]
fn a_fault_at_any_program_leaves_the_same_medium() {
    let n = pairs().len() as u64;
    for mode in FaultMode::ALL {
        for k in 1..=n {
            let (mut a, ta) = array();
            let (mut b, tb) = array();
            a.fault_handle().arm_after_programs(k, mode);
            b.fault_handle().arm_after_programs(k, mode);
            let ra = a.copyback_batch(&pairs());
            let rb = read_then_program(&mut b, &pairs());
            assert_eq!(ra, Err(NandError::PowerLoss), "{mode:?} at {k}");
            assert_eq!(ra, rb, "{mode:?} at {k}");
            assert_eq!(a.fault_handle().programs_seen(), b.fault_handle().programs_seen());
            a.power_cycle();
            b.power_cycle();
            assert_eq!(observe(&a, &ta), observe(&b, &tb), "{mode:?} at {k}");
            assert_eq!(images(&mut a), images(&mut b), "{mode:?} at {k}: page images");
        }
    }
}

#[test]
fn an_erased_source_is_refused_before_its_read() {
    let (mut a, tracer) = array();
    let before = observe(&a, &tracer);
    // The second source is past block 2's frontier: erased.
    let pairs = [(Ppn(0), Ppn(12)), (Ppn(9), Ppn(13))];
    assert_eq!(a.copyback_batch(&pairs), Err(NandError::CopybackFromErased(Ppn(9))));
    let after = observe(&a, &tracer);
    assert_eq!(after.stats.page_programs, before.stats.page_programs, "nothing programmed");
    assert_eq!(after.stats.page_reads, before.stats.page_reads + 1, "reads stop at it");
    assert_eq!(after.states, before.states);
    assert!(NandError::CopybackFromErased(Ppn(9)).to_string().contains("erased"));
}

/// A copyback torn by a power loss gets an image of its own: the source's
/// first half and an erased tail, while the source keeps its whole image
/// — also after the torn copy's block is erased and its slot reused.
#[test]
fn a_torn_copyback_gets_its_own_image_with_an_erased_tail() {
    let (mut a, _) = array();
    a.fault_handle().arm_after_programs(2, FaultMode::TornHalf);
    let pairs = [(Ppn(0), Ppn(12)), (Ppn(5), Ppn(13))];
    assert_eq!(a.copyback_batch(&pairs), Err(NandError::PowerLoss));
    a.power_cycle();
    assert_eq!(a.page_state(Ppn(13)), PageState::Torn);
    let mut buf = vec![0u8; PS];
    a.read(Ppn(13), &mut buf).unwrap();
    assert!(buf[..PS / 2].iter().all(|&x| x == 6), "the source's first half");
    assert!(buf[PS / 2..].iter().all(|&x| x == 0xFF), "an erased tail");
    a.read(Ppn(5), &mut buf).unwrap();
    assert_eq!(buf, vec![6; PS], "the source is whole");
    a.erase(BlockId(3)).unwrap();
    a.program(Ppn(12), &vec![0x5A; PS]).unwrap();
    a.read(Ppn(5), &mut buf).unwrap();
    assert_eq!(buf, vec![6; PS]);
    a.read(Ppn(0), &mut buf).unwrap();
    assert_eq!(buf, vec![1; PS]);
}

/// A page copied onto itself is below its block's frontier: refused as an
/// out-of-order program (a torn one as a program on a dirty page) before
/// its program is booked, with the medium as it was.
#[test]
fn a_copyback_onto_its_own_source_is_refused_untouched() {
    for p in [Ppn(0), Ppn(5), Ppn(2 * PPB)] {
        let (mut a, tracer) = array();
        let mut twin = array().0;
        let before = observe(&a, &tracer);
        let frontier = a.write_frontier(BlockId(p.0 / PPB));
        let want = match a.page_state(p) {
            PageState::Torn => NandError::ProgramOnDirtyPage(p),
            _ => NandError::OutOfOrderProgram { ppn: p, expected_index: frontier },
        };
        assert_eq!(a.copyback_batch(&[(p, p)]), Err(want), "{p:?}");
        let after = observe(&a, &tracer);
        assert_eq!(after.states, before.states, "{p:?}");
        assert_eq!(after.frontiers, before.frontiers);
        assert_eq!(after.stats.page_programs, before.stats.page_programs);
        assert_eq!(a.fault_handle().programs_seen(), twin.fault_handle().programs_seen());
        assert_eq!(images(&mut a), images(&mut twin), "{p:?}: page images");
    }
}

/// One single-page (or single-block) operation of [`steps`].
#[derive(Clone, Copy, Debug)]
enum Step {
    Read(u32),
    Program(u32, u8),
    Erase(u32),
}

/// Programs, reads of programmed, torn and erased pages, an erase and a
/// reprogram of the erased block, and one refusal of each kind.
const STEPS: [Step; 12] = [
    Step::Program(12, 0x31),
    Step::Read(5),
    Step::Program(13, 0x32),
    Step::Read(12),
    Step::Read(2 * PPB),
    Step::Read(40),
    Step::Erase(1),
    Step::Program(4, 0x33),
    Step::Program(16, 0x34),
    Step::Read(BLOCKS * PPB),
    Step::Program(0, 0x35),
    Step::Erase(BLOCKS),
];

/// Run [`STEPS`] through the single-op forms or as one-element batches,
/// returning each outcome with the first and last byte a read returned.
fn steps(a: &mut NandArray, batch: bool) -> Vec<(Result<(), NandError>, u8, u8)> {
    let mut buf = vec![0u8; PS];
    let mut out = Vec::new();
    for step in STEPS {
        buf.fill(0);
        let r = match (step, batch) {
            (Step::Read(p), false) => a.read(Ppn(p), &mut buf),
            (Step::Read(p), true) => a.read_batch([(Ppn(p), &mut buf[..])]),
            (Step::Program(p, b), false) => a.program(Ppn(p), &[b; PS]),
            (Step::Program(p, b), true) => a.program_batch([(Ppn(p), &[b; PS][..])]),
            (Step::Erase(b), false) => a.erase(BlockId(b)),
            (Step::Erase(b), true) => a.erase_batch(&[BlockId(b)]),
        };
        out.push((r, buf[0], buf[PS - 1]));
    }
    out
}

#[test]
fn a_single_op_is_a_one_element_batch_in_every_window() {
    for window in [Window::Sync, Window::Deferred, Window::Background] {
        let (mut a, ta) = array();
        let (mut b, tb) = array();
        let mut single = Vec::new();
        let mut batched = Vec::new();
        let ea = in_window(&mut a, window, |a| {
            single = steps(a, false);
            Ok(())
        });
        let eb = in_window(&mut b, window, |b| {
            batched = steps(b, true);
            Ok(())
        });
        assert_eq!(ea, eb, "{window:?}: window end");
        assert_eq!(single, batched, "{window:?}: outcomes and bytes read");
        assert_eq!(single.iter().filter(|s| s.0.is_err()).count(), 3, "{window:?}: refusals");
        assert_eq!(observe(&a, &ta), observe(&b, &tb), "{window:?}");
        assert_eq!(images(&mut a), images(&mut b), "{window:?}: page images");
    }
}

#[test]
fn a_fault_at_any_single_program_leaves_what_its_batch_of_one_leaves() {
    let programs = STEPS.iter().filter(|s| matches!(s, Step::Program(..))).count() as u64;
    // The last program is refused before it reaches the countdown.
    for mode in FaultMode::ALL {
        for k in 1..programs {
            let (mut a, ta) = array();
            let (mut b, tb) = array();
            a.fault_handle().arm_after_programs(k, mode);
            b.fault_handle().arm_after_programs(k, mode);
            let single = steps(&mut a, false);
            assert!(single.contains(&(Err(NandError::PowerLoss), 0, 0)), "{mode:?} at {k}");
            assert_eq!(single, steps(&mut b, true), "{mode:?} at {k}");
            assert_eq!(a.fault_handle().programs_seen(), b.fault_handle().programs_seen());
            a.power_cycle();
            b.power_cycle();
            assert_eq!(observe(&a, &ta), observe(&b, &tb), "{mode:?} at {k}");
            assert_eq!(images(&mut a), images(&mut b), "{mode:?} at {k}: page images");
        }
    }
}
