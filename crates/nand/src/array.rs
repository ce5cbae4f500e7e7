//! The NAND array itself: page storage, program/erase constraints, timing.

use crate::clock::SimClock;
use crate::error::NandError;
use crate::fault::{FaultHandle, FaultMode};
use crate::geometry::{BlockId, NandGeometry, NandTiming, Ppn};
use crate::stats::NandStats;
use crate::Result;
use share_telemetry::{Layer, Track, Tracer};

/// Lifecycle state of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased; reads return the erased pattern (0xFF).
    Free,
    /// Holds programmed data.
    Programmed,
    /// A program was interrupted by power loss; contents are a torn mix.
    Torn,
}

/// Byte value an erased NAND page reads as.
const ERASED_BYTE: u8 = 0xFF;

/// The slot of an erased page.
const NO_SLOT: u32 = u32::MAX;

/// The arena page images live in. A slot holds one image and the side
/// table `refs` counts the pages that hold it: a copyback points its
/// destination at its source's slot instead of copying the bytes, and an
/// erase frees a slot once no page holds it. A slot's bytes never change
/// while a page holds it — every program fills a slot of its own or
/// shares a finished one — so a shared image reads the same from every
/// page. Freed slots keep their memory for the next programs: once the
/// array has been written through, programming allocates nothing, and the
/// footprint stays the high-water count of distinct images. Never
/// persisted; an image file stores every page's bytes.
///
/// A count in a side table and not an `Arc` per image: an `Arc`'s count is
/// a locked read-modify-write on the image's cold header at every share
/// and every release.
#[derive(Debug)]
struct Slots {
    images: Vec<Box<[u8]>>,
    /// Pages holding each slot; 0 for a free slot.
    refs: Vec<u32>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl Slots {
    /// An empty arena whose vectors grow to `pages` slots without moving.
    fn with_capacity(pages: usize) -> Self {
        let (images, refs) = (Vec::with_capacity(pages), Vec::with_capacity(pages));
        Self { images, refs, free: Vec::with_capacity(pages) }
    }

    /// A slot, held once, holding `data[..intact]` followed by the erased
    /// pattern: a freed slot when there is one, a new allocation otherwise
    /// (while the array first fills).
    fn fill(&mut self, data: &[u8], intact: usize) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.images[slot as usize][..intact].copy_from_slice(&data[..intact]);
                slot
            }
            None => self.adopt(data.to_vec().into_boxed_slice()),
        };
        self.images[slot as usize][intact..].fill(ERASED_BYTE);
        self.refs[slot as usize] = 1;
        slot
    }

    /// A new slot, held once, holding `image`.
    fn adopt(&mut self, image: Box<[u8]>) -> u32 {
        self.images.push(image);
        self.refs.push(1);
        self.images.len() as u32 - 1
    }

    /// One more page holding `slot`.
    fn share(&mut self, slot: u32) -> u32 {
        self.refs[slot as usize] += 1;
        slot
    }

    /// One page fewer holding `slot`; the last frees it.
    fn release(&mut self, slot: u32) {
        let refs = &mut self.refs[slot as usize];
        *refs -= 1;
        if *refs == 0 {
            self.free.push(slot);
        }
    }

    fn image(&self, slot: u32) -> &[u8] {
        &self.images[slot as usize]
    }
}

/// What a program writes: bytes from the host, or (copyback) the image of
/// a programmed page of the array, which the destination shares.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Host(&'a [u8]),
    Page(Ppn),
}

/// An open deferred-submission window: while active, operations dispatch
/// onto their unit lanes starting from `frontier` but the shared clock is
/// *not* advanced — the caller (a queued-command executor) learns the
/// command's completion time from [`NandArray::end_deferred`] and decides
/// when the host observes it.
#[derive(Debug, Clone, Copy)]
struct DeferredWindow {
    /// Serial frontier inside the window: each sub-submission dispatches at
    /// this time and moves it to its max completion, so one command's
    /// internal phases (data program, log flush, GC) remain sequenced
    /// exactly as the synchronous path sequences them.
    frontier: u64,
}

/// A simulated NAND flash array.
///
/// Content is stored per page (in a shared slot; none while erased) so
/// upper layers can verify data integrity end to end, including after
/// injected crashes.
///
/// # Timing model
///
/// Each (channel, way) pair is an independently-busy *unit*; blocks are
/// interleaved across units by block number. Every operation is dispatched
/// to its unit at submission time `t0 = clock.now()`: it starts at
/// `max(t0, busy_until[unit])`, occupies the unit for its service time, and
/// the shared [`SimClock`] then jumps to the **max** completion time of the
/// submission (`advance_to`). A single `read`, `program` or `erase` is a
/// one-element submission and so costs exactly its service time (identical
/// to the pre-channel serial model), while a batch submission overlaps
/// pages that land on different units and queues pages that share one.
///
/// Queued command execution opens a *deferred window*
/// ([`Self::begin_deferred`]): operations still reserve their unit lanes at
/// submission time, but the shared clock stays put and the command's
/// completion time is reported to the caller instead. Commands queued from
/// different hosts thus overlap across units exactly like pages of one
/// batch do, while the host-visible clock only advances when completions
/// are reaped.
#[derive(Debug)]
pub struct NandArray {
    geometry: NandGeometry,
    timing: NandTiming,
    clock: SimClock,
    fault: FaultHandle,
    /// The slot each page's image is in; [`NO_SLOT`] while erased.
    pages: Vec<u32>,
    slots: Slots,
    torn: Vec<bool>,
    /// Next programmable in-block page index, per block.
    next_page: Vec<u32>,
    erase_counts: Vec<u32>,
    stats: NandStats,
    /// Per-unit (channel x way) time at which the unit next becomes idle.
    /// On the synchronous path `busy_until[u] <= clock.now()` holds between
    /// submissions, because each submission advances the clock to its max
    /// completion time. Queued (deferred-window) submissions relax this:
    /// lanes may be reserved past `clock.now()` until the host reaps the
    /// completions; `dispatch` already queues behind such reservations via
    /// `busy_until[unit].max(t0)`.
    busy_until: Vec<u64>,
    /// Active deferred-submission window, if any (queued command execution).
    deferred: Option<DeferredWindow>,
    /// Cumulative service time per unit — busy/idle utilization counters.
    /// Runtime-only (never persisted in images).
    busy_ns: Vec<u64>,
    /// Span tracer for per-unit leaf events (disabled by default; the FTL
    /// hands its handle down when tracing is configured).
    tracer: Tracer,
}

impl NandArray {
    /// Create an erased array with the given geometry and default timing.
    pub fn new(geometry: NandGeometry) -> Self {
        Self::with_timing(geometry, NandTiming::default(), SimClock::new())
    }

    /// Create an erased array with explicit timing and a shared clock.
    pub fn with_timing(geometry: NandGeometry, timing: NandTiming, clock: SimClock) -> Self {
        let total = geometry.total_pages() as usize;
        Self {
            geometry,
            timing,
            clock,
            fault: FaultHandle::new(),
            pages: vec![NO_SLOT; total],
            slots: Slots::with_capacity(total),
            torn: vec![false; total],
            next_page: vec![0; geometry.blocks as usize],
            erase_counts: vec![0; geometry.blocks as usize],
            stats: NandStats::default(),
            busy_until: vec![0; geometry.units() as usize],
            busy_ns: vec![0; geometry.units() as usize],
            deferred: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> NandGeometry {
        self.geometry
    }

    /// The timing model in force.
    pub fn timing(&self) -> NandTiming {
        self.timing
    }

    /// Shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current simulated time (ns) — a read-out, never an advance. The
    /// FTL brackets each command with this for telemetry timestamps.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Fault-injection handle for this array.
    pub fn fault_handle(&self) -> FaultHandle {
        self.fault.clone()
    }

    /// Attach a span tracer: subsequent operations emit per-unit leaf
    /// events carrying the dispatch-accurate start/end times.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Cumulative busy time per unit, indexed like `busy_until` (unit
    /// `u` is channel `u % channels`, way `u / channels`).
    pub fn busy_ns(&self) -> &[u64] {
        &self.busy_ns
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    /// Erase count of `block` (wear indicator).
    pub fn erase_count(&self, block: BlockId) -> u32 {
        self.erase_counts[block.0 as usize]
    }

    /// Current state of a physical page.
    pub fn page_state(&self, ppn: Ppn) -> PageState {
        let i = ppn.0 as usize;
        if self.torn[i] {
            PageState::Torn
        } else if self.pages[i] != NO_SLOT {
            PageState::Programmed
        } else {
            PageState::Free
        }
    }

    /// Next programmable in-block index of `block` (== pages_per_block when full).
    pub fn write_frontier(&self, block: BlockId) -> u32 {
        self.next_page[block.0 as usize]
    }

    fn check_up(&self) -> Result<()> {
        if self.fault.is_down() {
            Err(NandError::PowerLoss)
        } else {
            Ok(())
        }
    }

    fn check_ppn(&self, ppn: Ppn) -> Result<()> {
        if ppn.0 >= self.geometry.total_pages() {
            return Err(NandError::OutOfRange {
                what: "ppn",
                index: ppn.0 as u64,
                limit: self.geometry.total_pages() as u64,
            });
        }
        Ok(())
    }

    /// Open a deferred-submission window at the current simulated time.
    /// Until [`Self::end_deferred`], operations dispatch on their unit lanes
    /// (queueing behind earlier reservations, overlapping across units) but
    /// the shared clock stays put — the caller owns the completion time.
    ///
    /// Windows do not nest; a second `begin_deferred` before `end_deferred`
    /// is a logic error in the queued-command executor.
    pub fn begin_deferred(&mut self) {
        debug_assert!(self.deferred.is_none(), "deferred windows do not nest");
        self.deferred = Some(DeferredWindow { frontier: self.clock.now_ns() });
    }

    /// Close the deferred window and return the command's completion time
    /// (the window frontier after every sub-submission and charge). The
    /// shared clock has not moved; advancing it to (at least) the returned
    /// time when the host observes the completion is the caller's job.
    pub fn end_deferred(&mut self) -> u64 {
        self.deferred.take().expect("end_deferred without begin_deferred").frontier
    }

    /// Open a background-relocation window. Unlike [`Self::begin_deferred`]
    /// this nests inside a foreground window: the current window (if any)
    /// is saved and a fresh one opens at `at` — the submission time the
    /// foreground command captured before its own operations were booked —
    /// clamped to the current submission frontier, so background work
    /// reserves unit lanes from there on without charging the foreground
    /// command. Lanes the command already reserved are queued behind; idle
    /// ones run the work beside the command's own. Contention with
    /// foreground operations shows up as queueing on the shared per-unit
    /// `busy_until` reservations.
    ///
    /// Returns an opaque token (the saved frontier) that must be passed
    /// back to [`Self::end_background`].
    pub fn begin_background(&mut self, at: u64) -> Option<u64> {
        let frontier = at.min(self.submit_t0());
        let saved = self.deferred.replace(DeferredWindow { frontier });
        saved.map(|w| w.frontier)
    }

    /// Close a background window opened by [`Self::begin_background`],
    /// restoring the saved foreground window (if one was open), and return
    /// the background work's completion time. The shared clock has not
    /// moved and the restored foreground frontier is untouched: background
    /// time is only observable through lane contention.
    pub fn end_background(&mut self, saved: Option<u64>) -> u64 {
        let end =
            self.deferred.take().expect("end_background without begin_background").frontier;
        self.deferred = saved.map(|frontier| DeferredWindow { frontier });
        end
    }

    /// Current submission time: the deferred-window frontier when a window
    /// is open, the shared clock otherwise. This is the time the next
    /// operation would be submitted at — deltas of it across a stretch of
    /// synchronous work measure how long that work held up its caller.
    pub fn submission_now(&self) -> u64 {
        self.submit_t0()
    }

    /// Charge non-NAND command time (controller/command overhead, bus
    /// transfer for unmapped reads). Synchronous path: advances the shared
    /// clock, exactly like `clock().advance(ns)` always did. Inside a
    /// deferred window: extends the window frontier instead, so the charge
    /// lands in the queued command's completion time.
    pub fn charge(&mut self, ns: u64) {
        match self.deferred.as_mut() {
            Some(w) => w.frontier += ns,
            None => {
                self.clock.advance(ns);
            }
        }
    }

    /// Submission time for the next operation: the deferred-window frontier
    /// when a window is open, the shared clock otherwise.
    #[inline]
    fn submit_t0(&self) -> u64 {
        match self.deferred {
            Some(w) => w.frontier,
            None => self.clock.now_ns(),
        }
    }

    /// Complete a submission whose max completion time is `max_end`:
    /// synchronous path advances the shared clock; a deferred window only
    /// moves its frontier.
    #[inline]
    fn complete_submission(&mut self, max_end: u64) {
        match self.deferred.as_mut() {
            Some(w) => w.frontier = w.frontier.max(max_end),
            None => {
                self.clock.advance_to(max_end);
            }
        }
    }

    /// Reserve `unit` for `service_ns`, starting no earlier than submission
    /// time `t0`, and return the completion time. The caller is responsible
    /// for moving the shared clock to the submission's max completion time.
    #[inline]
    fn dispatch(&mut self, unit: usize, t0: u64, service_ns: u64) -> u64 {
        let start = self.busy_until[unit].max(t0);
        let end = start + service_ns;
        self.busy_until[unit] = end;
        self.busy_ns[unit] += service_ns;
        end
    }

    /// Emit a per-unit leaf span for an operation that occupied `unit`
    /// until `end` for `service_ns`. Reads times already computed by
    /// [`Self::dispatch`] — never touches the clock.
    fn trace_leaf(&self, name: &str, unit: usize, end: u64, service_ns: u64, pages: u64, ok: bool) {
        if !self.tracer.is_enabled() {
            return;
        }
        let channel = unit as u32 % self.geometry.channels;
        let way = unit as u32 / self.geometry.channels;
        self.tracer.leaf(
            Layer::Nand,
            name,
            Track::Unit { channel, way },
            end - service_ns,
            end,
            pages,
            ok,
        );
    }

    /// One page read, dispatched at `t0`. Returns the completion time (or
    /// `t0` when rejected before touching the unit) and the outcome.
    fn read_one(&mut self, ppn: Ppn, buf: &mut [u8], t0: u64) -> (u64, Result<()>) {
        if let Err(e) = self.check_ppn(ppn) {
            return (t0, Err(e));
        }
        if buf.len() != self.geometry.page_size {
            let e = NandError::BadBufferLength { got: buf.len(), want: self.geometry.page_size };
            return (t0, Err(e));
        }
        let end = self.sense(ppn, t0);
        match self.pages[ppn.0 as usize] {
            NO_SLOT => buf.fill(ERASED_BYTE),
            slot => buf.copy_from_slice(self.slots.image(slot)),
        }
        (end, Ok(()))
    }

    /// The array side of a page read of an in-range `ppn`, dispatched at
    /// `t0`: its unit time, trace leaf and counter. Returns the completion
    /// time.
    fn sense(&mut self, ppn: Ppn, t0: u64) -> u64 {
        let unit = self.geometry.unit_of(ppn) as usize;
        let service = self.timing.read_ns + self.timing.xfer_ns(self.geometry.page_size);
        let end = self.dispatch(unit, t0, service);
        self.trace_leaf("read", unit, end, service, 1, true);
        self.stats.page_reads += 1;
        end
    }

    /// The slot a program of `data` leaves in its page, holding
    /// `data[..intact]` followed by the erased pattern. A whole copyback
    /// shares its source's slot; anything else fills a slot of its own.
    fn store(&mut self, data: Source<'_>, intact: usize) -> u32 {
        match data {
            Source::Host(bytes) => self.slots.fill(bytes, intact),
            Source::Page(src) => {
                let slot = self.pages[src.0 as usize];
                if intact == self.geometry.page_size {
                    return self.slots.share(slot);
                }
                // A torn copy: lent out for the fill and put back.
                let image = std::mem::take(&mut self.slots.images[slot as usize]);
                let torn = self.slots.fill(&image, intact);
                self.slots.images[slot as usize] = image;
                torn
            }
        }
    }

    /// One page program, dispatched at `t0`. Enforces erase-before-program
    /// and in-order programming; runs the fault countdown exactly once per
    /// dispatched attempt. Returns the completion time and the outcome.
    fn program_one(&mut self, ppn: Ppn, data: Source<'_>, t0: u64) -> (u64, Result<()>) {
        if let Err(e) = self.check_ppn(ppn) {
            return (t0, Err(e));
        }
        let page_size = self.geometry.page_size;
        if let Source::Host(bytes) = data {
            if bytes.len() != page_size {
                let e = NandError::BadBufferLength { got: bytes.len(), want: page_size };
                return (t0, Err(e));
            }
        }
        let idx = ppn.0 as usize;
        // A copyback's source counts as lent out while its destination
        // programs: a destination equal to it passes this check and is
        // refused by the frontier below, with nothing touched.
        let lent = matches!(data, Source::Page(src) if src == ppn);
        if (self.pages[idx] != NO_SLOT && !lent) || self.torn[idx] {
            return (t0, Err(NandError::ProgramOnDirtyPage(ppn)));
        }
        let block = self.geometry.block_of(ppn);
        let in_block = self.geometry.page_in_block(ppn);
        let frontier = self.next_page[block.0 as usize];
        if in_block != frontier {
            return (t0, Err(NandError::OutOfOrderProgram { ppn, expected_index: frontier }));
        }

        let unit = self.geometry.unit_of(ppn) as usize;
        let service = self.timing.program_ns + self.timing.xfer_ns(page_size);
        let end = self.dispatch(unit, t0, service);

        if let Some(mode) = self.fault.on_program() {
            self.trace_leaf("program", unit, end, service, 1, false);
            match mode {
                FaultMode::TornHalf => {
                    self.pages[idx] = self.store(data, page_size / 2);
                    self.torn[idx] = true;
                    self.next_page[block.0 as usize] = in_block + 1;
                    self.stats.page_programs += 1;
                    self.stats.torn_programs += 1;
                }
                FaultMode::DroppedWrite => {
                    // Page stays erased; frontier does not advance, matching
                    // a program that never reached the cells.
                }
                FaultMode::AfterProgram => {
                    self.pages[idx] = self.store(data, page_size);
                    self.next_page[block.0 as usize] = in_block + 1;
                    self.stats.page_programs += 1;
                }
            }
            return (end, Err(NandError::PowerLoss));
        }

        self.pages[idx] = self.store(data, page_size);
        self.next_page[block.0 as usize] = in_block + 1;
        self.stats.page_programs += 1;
        self.trace_leaf("program", unit, end, service, 1, true);
        (end, Ok(()))
    }

    /// One block erase, dispatched at `t0`.
    fn erase_one(&mut self, block: BlockId, t0: u64) -> (u64, Result<()>) {
        if block.0 >= self.geometry.blocks {
            let e = NandError::OutOfRange {
                what: "block",
                index: block.0 as u64,
                limit: self.geometry.blocks as u64,
            };
            return (t0, Err(e));
        }
        let unit = self.geometry.unit_of_block(block) as usize;
        let end = self.dispatch(unit, t0, self.timing.erase_ns);
        self.trace_leaf("erase", unit, end, self.timing.erase_ns, 0, true);
        let start = self.geometry.first_ppn(block).0 as usize;
        let last = start + self.geometry.pages_per_block as usize;
        for i in start..last {
            let slot = std::mem::replace(&mut self.pages[i], NO_SLOT);
            if slot != NO_SLOT {
                self.slots.release(slot);
            }
            self.torn[i] = false;
        }
        self.next_page[block.0 as usize] = 0;
        self.erase_counts[block.0 as usize] += 1;
        self.stats.block_erases += 1;
        (end, Ok(()))
    }

    /// Run one submission: every item of `items` is dispatched through `op`
    /// at the same submission time `t0`, in iteration order, and the first
    /// failure stops it before later items touch the medium. The clock (or
    /// the open window's frontier) then moves once, to the latest
    /// completion. `op` returns its item's completion time (`t0` when it
    /// was refused before reaching its unit) and its outcome.
    fn submission<I>(
        &mut self,
        items: impl IntoIterator<Item = I>,
        mut op: impl FnMut(&mut Self, I, u64) -> (u64, Result<()>),
    ) -> Result<()> {
        self.check_up()?;
        let t0 = self.submit_t0();
        let mut max_end = t0;
        let mut res = Ok(());
        for item in items {
            let (end, r) = op(self, item, t0);
            max_end = max_end.max(end);
            if r.is_err() {
                res = r;
                break;
            }
        }
        self.complete_submission(max_end);
        res
    }

    /// Read one page into `buf`, as a one-page [`Self::read_batch`].
    /// Erased pages read as 0xFF.
    pub fn read(&mut self, ppn: Ppn, buf: &mut [u8]) -> Result<()> {
        self.read_batch([(ppn, buf)])
    }

    /// Read a vector of pages as one submission. All reads are dispatched
    /// at the same submission time, so pages on different channels overlap
    /// in simulated time while same-unit pages queue behind each other.
    pub fn read_batch<'a>(
        &mut self,
        reqs: impl IntoIterator<Item = (Ppn, &'a mut [u8])>,
    ) -> Result<()> {
        self.submission(reqs, |a, (ppn, buf), t0| a.read_one(ppn, buf, t0))
    }

    /// Program one page, as a one-page [`Self::program_batch`]. Enforces
    /// erase-before-program and in-order programming within the block. An
    /// armed fault can tear this program.
    pub fn program(&mut self, ppn: Ppn, data: &[u8]) -> Result<()> {
        self.program_batch([(ppn, data)])
    }

    /// Program a vector of pages as one submission, dispatched
    /// channel-parallel. Pages are *attempted strictly in iteration order* — the
    /// fault countdown ticks once per attempt and a fired fault (or any
    /// constraint violation) stops the batch before later pages touch the
    /// cells — so the medium state after a crash is identical to the state a
    /// per-page loop would have left. Only the timing differs: the clock
    /// moves once, to the max completion time across units.
    pub fn program_batch<'a>(
        &mut self,
        reqs: impl IntoIterator<Item = (Ppn, &'a [u8])>,
    ) -> Result<()> {
        self.submission(reqs, |a, (ppn, data), t0| a.program_one(ppn, Source::Host(data), t0))
    }

    /// Copy each `(src, dst)` page inside the array: the reads go out as
    /// one submission, then the programs as a second, so timing, counters,
    /// trace leaves and the fault countdown are exactly those of a
    /// [`Self::read_batch`] of the sources followed by a
    /// [`Self::program_batch`] of the destinations. No image is copied: a
    /// destination shares its source's slot (a torn destination gets a
    /// slot of its own), and nothing passes through the host. An erased
    /// source is refused before its read: copyback moves only programmed
    /// pages.
    pub fn copyback_batch(&mut self, pairs: &[(Ppn, Ppn)]) -> Result<()> {
        self.submission(pairs, |a, &(src, _), t0| {
            if let Err(e) = a.check_ppn(src) {
                return (t0, Err(e));
            }
            if a.pages[src.0 as usize] == NO_SLOT {
                return (t0, Err(NandError::CopybackFromErased(src)));
            }
            (a.sense(src, t0), Ok(()))
        })?;
        self.submission(pairs, |a, &(src, dst), t0| a.program_one(dst, Source::Page(src), t0))
    }

    /// Erase a whole block, freeing all its pages, as a one-block
    /// [`Self::erase_batch`].
    pub fn erase(&mut self, block: BlockId) -> Result<()> {
        self.erase_batch(&[block])
    }

    /// Erase a vector of blocks as one submission, channel-parallel.
    pub fn erase_batch(&mut self, blocks: &[BlockId]) -> Result<()> {
        self.submission(blocks, |a, &block, t0| a.erase_one(block, t0))
    }

    /// Bring the device back up after a power-loss fault. Contents (torn
    /// pages included) survive, as they do on real NAND.
    pub fn power_cycle(&mut self) {
        self.fault.clear_down();
    }

    /// Whether the device is down due to a fired fault.
    pub fn is_down(&self) -> bool {
        self.fault.is_down()
    }

    /// Raw content of a programmed (or torn) page, without timing or
    /// counters — used by image persistence.
    pub(crate) fn raw_page(&self, ppn: Ppn) -> Option<&[u8]> {
        match self.pages[ppn.0 as usize] {
            NO_SLOT => None,
            slot => Some(self.slots.image(slot)),
        }
    }

    /// Rebuild an array from persisted parts (image loading). Validates
    /// structural consistency; returns a message on mismatch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        geometry: NandGeometry,
        timing: NandTiming,
        clock: SimClock,
        pages: Vec<Option<Box<[u8]>>>,
        torn: Vec<bool>,
        next_page: Vec<u32>,
        erase_counts: Vec<u32>,
        stats: NandStats,
    ) -> std::result::Result<Self, &'static str> {
        let total = geometry.total_pages() as usize;
        if pages.len() != total || torn.len() != total {
            return Err("page vectors do not match geometry");
        }
        if next_page.len() != geometry.blocks as usize
            || erase_counts.len() != geometry.blocks as usize
        {
            return Err("block vectors do not match geometry");
        }
        if pages.iter().flatten().any(|content| content.len() != geometry.page_size) {
            return Err("page content length mismatch");
        }
        // Programming is in order and erase clears a whole block, so a
        // block's pages are written exactly below its frontier.
        let ppb = geometry.pages_per_block as usize;
        for (block, &frontier) in next_page.iter().enumerate() {
            let frontier = frontier as usize;
            let written = |i: usize| pages[block * ppb + i].is_some();
            if frontier > ppb || (0..ppb).any(|i| written(i) != (i < frontier)) {
                return Err("write frontier disagrees with the block's pages");
            }
        }
        let mut slots = Slots::with_capacity(total);
        let pages = pages.into_iter().map(|p| p.map_or(NO_SLOT, |image| slots.adopt(image)));
        let pages = pages.collect();
        Ok(Self {
            geometry,
            timing,
            clock,
            fault: FaultHandle::new(),
            pages,
            slots,
            torn,
            next_page,
            erase_counts,
            stats,
            busy_until: vec![0; geometry.units() as usize],
            busy_ns: vec![0; geometry.units() as usize],
            deferred: None,
            tracer: Tracer::disabled(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NandArray {
        NandArray::with_timing(NandGeometry::new(512, 4, 8), NandTiming::default(), SimClock::new())
    }

    fn page(b: u8, len: usize) -> Vec<u8> {
        vec![b; len]
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut a = small();
        let data = page(0xAB, 512);
        a.program(Ppn(0), &data).unwrap();
        let mut buf = vec![0u8; 512];
        a.read(Ppn(0), &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(a.page_state(Ppn(0)), PageState::Programmed);
    }

    #[test]
    fn erased_pages_read_as_ff() {
        let mut a = small();
        let mut buf = vec![0u8; 512];
        a.read(Ppn(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
        assert_eq!(a.page_state(Ppn(3)), PageState::Free);
    }

    #[test]
    fn rejects_program_on_programmed_page() {
        let mut a = small();
        a.program(Ppn(0), &page(1, 512)).unwrap();
        assert_eq!(
            a.program(Ppn(0), &page(2, 512)),
            Err(NandError::ProgramOnDirtyPage(Ppn(0)))
        );
    }

    #[test]
    fn enforces_in_order_programming() {
        let mut a = small();
        // Block 0 pages are PPN 0..4; programming PPN 2 first is illegal.
        assert_eq!(
            a.program(Ppn(2), &page(1, 512)),
            Err(NandError::OutOfOrderProgram { ppn: Ppn(2), expected_index: 0 })
        );
        a.program(Ppn(0), &page(1, 512)).unwrap();
        a.program(Ppn(1), &page(1, 512)).unwrap();
        a.program(Ppn(2), &page(1, 512)).unwrap();
    }

    #[test]
    fn erase_frees_whole_block_and_counts_wear() {
        let mut a = small();
        for i in 0..4 {
            a.program(Ppn(i), &page(i as u8, 512)).unwrap();
        }
        a.erase(BlockId(0)).unwrap();
        for i in 0..4 {
            assert_eq!(a.page_state(Ppn(i)), PageState::Free);
        }
        assert_eq!(a.erase_count(BlockId(0)), 1);
        assert_eq!(a.write_frontier(BlockId(0)), 0);
        // Re-program is legal after erase.
        a.program(Ppn(0), &page(9, 512)).unwrap();
    }

    #[test]
    fn buffer_length_is_validated() {
        let mut a = small();
        assert!(matches!(
            a.program(Ppn(0), &page(0, 100)),
            Err(NandError::BadBufferLength { got: 100, want: 512 })
        ));
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            a.read(Ppn(0), &mut buf),
            Err(NandError::BadBufferLength { got: 100, want: 512 })
        ));
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut a = small();
        let total = a.geometry().total_pages();
        assert!(matches!(a.program(Ppn(total), &page(0, 512)), Err(NandError::OutOfRange { .. })));
        assert!(matches!(a.erase(BlockId(8)), Err(NandError::OutOfRange { .. })));
    }

    #[test]
    fn clock_advances_per_operation() {
        let mut a = small();
        let t = a.timing();
        let c = a.clock().clone();
        a.program(Ppn(0), &page(0, 512)).unwrap();
        assert_eq!(c.now_ns(), t.program_ns + t.xfer_ns(512));
        let before = c.now_ns();
        let mut buf = vec![0u8; 512];
        a.read(Ppn(0), &mut buf).unwrap();
        assert_eq!(c.now_ns() - before, t.read_ns + t.xfer_ns(512));
        let before = c.now_ns();
        a.erase(BlockId(1)).unwrap();
        assert_eq!(c.now_ns() - before, t.erase_ns);
    }

    #[test]
    fn torn_fault_leaves_half_written_page_and_downs_device() {
        let mut a = small();
        let h = a.fault_handle();
        h.arm_after_programs(2, FaultMode::TornHalf);
        a.program(Ppn(0), &page(0x11, 512)).unwrap();
        let err = a.program(Ppn(1), &page(0x22, 512)).unwrap_err();
        assert_eq!(err, NandError::PowerLoss);
        assert!(a.is_down());
        // All ops fail while down.
        let mut buf = vec![0u8; 512];
        assert_eq!(a.read(Ppn(0), &mut buf), Err(NandError::PowerLoss));
        assert_eq!(a.erase(BlockId(1)), Err(NandError::PowerLoss));

        a.power_cycle();
        assert_eq!(a.page_state(Ppn(1)), PageState::Torn);
        a.read(Ppn(1), &mut buf).unwrap();
        assert!(buf[..256].iter().all(|&b| b == 0x22));
        assert!(buf[256..].iter().all(|&b| b == 0xFF));
        assert_eq!(a.stats().torn_programs, 1);
    }

    #[test]
    fn dropped_write_fault_leaves_page_erased() {
        let mut a = small();
        let h = a.fault_handle();
        h.arm_after_programs(1, FaultMode::DroppedWrite);
        assert_eq!(a.program(Ppn(0), &page(0x33, 512)), Err(NandError::PowerLoss));
        a.power_cycle();
        assert_eq!(a.page_state(Ppn(0)), PageState::Free);
        // Frontier did not advance, so the page can be programmed again.
        a.program(Ppn(0), &page(0x44, 512)).unwrap();
    }

    #[test]
    fn after_program_fault_persists_data_then_downs() {
        let mut a = small();
        let h = a.fault_handle();
        h.arm_after_programs(1, FaultMode::AfterProgram);
        assert_eq!(a.program(Ppn(0), &page(0x55, 512)), Err(NandError::PowerLoss));
        a.power_cycle();
        assert_eq!(a.page_state(Ppn(0)), PageState::Programmed);
        let mut buf = vec![0u8; 512];
        a.read(Ppn(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
    }

    #[test]
    fn torn_page_cannot_be_reprogrammed_until_erase() {
        let mut a = small();
        let h = a.fault_handle();
        h.arm_after_programs(1, FaultMode::TornHalf);
        let _ = a.program(Ppn(0), &page(0x66, 512));
        a.power_cycle();
        assert_eq!(a.program(Ppn(0), &page(0x77, 512)), Err(NandError::ProgramOnDirtyPage(Ppn(0))));
        a.erase(BlockId(0)).unwrap();
        a.program(Ppn(0), &page(0x77, 512)).unwrap();
        assert_eq!(a.page_state(Ppn(0)), PageState::Programmed);
    }

    /// 4 channels x 1 way over 8 blocks of 4 pages: blocks 0..4 land on
    /// distinct units, blocks b and b+4 share one.
    fn four_channel() -> NandArray {
        let g = NandGeometry::new(512, 4, 8).with_parallelism(4, 1);
        NandArray::with_timing(g, NandTiming::default(), SimClock::new())
    }

    #[test]
    fn batch_programs_on_distinct_channels_overlap() {
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0xAA, 512);
        // First page of blocks 0..4 — four distinct units, one submission.
        let reqs: Vec<(Ppn, &[u8])> = (0..4).map(|b| (Ppn(b * 4), data.as_slice())).collect();
        a.program_batch(reqs.iter().copied()).unwrap();
        assert_eq!(a.clock().now_ns(), t.program_ns + t.xfer_ns(512));
        assert_eq!(a.stats().page_programs, 4);
    }

    #[test]
    fn batch_programs_on_same_unit_queue() {
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0xBB, 512);
        // Two in-order pages of block 0 — same unit, so they serialize.
        let reqs: Vec<(Ppn, &[u8])> = vec![(Ppn(0), &data), (Ppn(1), &data)];
        a.program_batch(reqs.iter().copied()).unwrap();
        assert_eq!(a.clock().now_ns(), 2 * (t.program_ns + t.xfer_ns(512)));
    }

    #[test]
    fn mixed_batch_costs_max_per_unit_queue() {
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0xCC, 512);
        // Blocks 0 and 4 share unit 0 (2 queued programs); block 1 is alone.
        let reqs: Vec<(Ppn, &[u8])> =
            vec![(Ppn(0), &data), (Ppn(16), &data), (Ppn(4), &data)];
        a.program_batch(reqs.iter().copied()).unwrap();
        assert_eq!(a.clock().now_ns(), 2 * (t.program_ns + t.xfer_ns(512)));
    }

    #[test]
    fn single_ops_never_overlap_even_across_channels() {
        // Without a batch submission there is no queue depth: each command
        // is submitted after the previous one completed.
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0xDD, 512);
        a.program(Ppn(0), &data).unwrap();
        a.program(Ppn(4), &data).unwrap();
        assert_eq!(a.clock().now_ns(), 2 * (t.program_ns + t.xfer_ns(512)));
    }

    #[test]
    fn batch_reads_overlap_across_channels() {
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0x5A, 512);
        let reqs: Vec<(Ppn, &[u8])> = (0..4).map(|b| (Ppn(b * 4), data.as_slice())).collect();
        a.program_batch(reqs.iter().copied()).unwrap();
        let before = a.clock().now_ns();
        let mut bufs = vec![vec![0u8; 512]; 4];
        let rreqs: Vec<(Ppn, &mut [u8])> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| (Ppn(i as u32 * 4), b.as_mut_slice()))
            .collect();
        a.read_batch(rreqs).unwrap();
        assert_eq!(a.clock().now_ns() - before, t.read_ns + t.xfer_ns(512));
        for b in &bufs {
            assert_eq!(b, &data);
        }
    }

    #[test]
    fn erase_batch_overlaps_across_channels() {
        let mut a = four_channel();
        let t = a.timing();
        let before = a.clock().now_ns();
        a.erase_batch(&[BlockId(0), BlockId(1), BlockId(2), BlockId(3)]).unwrap();
        assert_eq!(a.clock().now_ns() - before, t.erase_ns);
        assert_eq!(a.stats().block_erases, 4);
    }

    #[test]
    fn batch_fault_stops_in_submission_order() {
        let mut a = four_channel();
        let h = a.fault_handle();
        h.arm_after_programs(2, FaultMode::DroppedWrite);
        let data = page(0x77, 512);
        let reqs: Vec<(Ppn, &[u8])> = (0..4).map(|b| (Ppn(b * 4), data.as_slice())).collect();
        assert_eq!(a.program_batch(reqs.iter().copied()), Err(NandError::PowerLoss));
        assert!(a.is_down());
        assert_eq!(h.programs_seen(), 2);
        a.power_cycle();
        // Exactly the pages before the crash point landed; the dropped page
        // and everything after it stayed erased — same medium state a
        // per-page loop would leave.
        assert_eq!(a.page_state(Ppn(0)), PageState::Programmed);
        assert_eq!(a.page_state(Ppn(4)), PageState::Free);
        assert_eq!(a.page_state(Ppn(8)), PageState::Free);
        assert_eq!(a.page_state(Ppn(12)), PageState::Free);
    }

    #[test]
    fn batch_timing_matches_serial_on_one_channel() {
        // On the default 1x1 geometry a batch costs exactly the serial sum,
        // so nothing about the pre-channel timing changes.
        let mut a = small();
        let t = a.timing();
        let data = page(0x42, 512);
        let reqs: Vec<(Ppn, &[u8])> = (0..4).map(|i| (Ppn(i), data.as_slice())).collect();
        a.program_batch(reqs.iter().copied()).unwrap();
        assert_eq!(a.clock().now_ns(), 4 * (t.program_ns + t.xfer_ns(512)));
    }

    #[test]
    fn busy_counters_track_per_unit_service_time() {
        let mut a = four_channel();
        let t = a.timing();
        let data = page(0xEE, 512);
        // Blocks 0 and 4 share unit 0; block 1 is unit 1 — one submission.
        let reqs: Vec<(Ppn, &[u8])> = vec![(Ppn(0), &data), (Ppn(16), &data), (Ppn(4), &data)];
        a.program_batch(reqs.iter().copied()).unwrap();
        let p = t.program_ns + t.xfer_ns(512);
        assert_eq!(a.busy_ns()[0], 2 * p);
        assert_eq!(a.busy_ns()[1], p);
        assert_eq!(a.busy_ns()[2], 0);
        a.erase(BlockId(2)).unwrap();
        assert_eq!(a.busy_ns()[2], t.erase_ns);
        // busy time never exceeds wall (sim) time per unit.
        for &b in a.busy_ns() {
            assert!(b <= a.now_ns());
        }
    }

    #[test]
    fn tracer_records_unit_accurate_leaf_windows() {
        use share_telemetry::Track;
        let mut a = four_channel();
        let tr = Tracer::enabled();
        a.set_tracer(tr.clone());
        let t = a.timing();
        let data = page(0x1F, 512);
        // Same-unit queueing: the second program's window starts where the
        // first ends, even though both were submitted at t0 = 0.
        a.program_batch([(Ppn(0), &data[..]), (Ppn(1), &data[..])]).unwrap();
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let p = t.program_ns + t.xfer_ns(512);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (0, p));
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (p, 2 * p));
        assert_eq!(spans[0].track, Track::Unit { channel: 0, way: 0 });
        assert_eq!(spans[0].name, "program");
        // Tracing never advanced the clock beyond the timing model.
        assert_eq!(a.now_ns(), 2 * p);
    }

    #[test]
    fn deferred_windows_overlap_across_channels_without_moving_clock() {
        let mut a = four_channel();
        let t = a.timing();
        let p = t.program_ns + t.xfer_ns(512);
        let data = page(0xA1, 512);

        // Two queued single-page programs on distinct channels: both windows
        // open at t=0, both complete at p, and the clock never moves.
        a.begin_deferred();
        a.program(Ppn(0), &data).unwrap();
        let end0 = a.end_deferred();
        a.begin_deferred();
        a.program(Ppn(4), &data).unwrap();
        let end1 = a.end_deferred();
        assert_eq!((end0, end1), (p, p));
        assert_eq!(a.clock().now_ns(), 0);

        // The host observes completions by advancing the clock itself.
        a.clock().advance_to(end0.max(end1));
        assert_eq!(a.clock().now_ns(), p);
    }

    #[test]
    fn deferred_windows_queue_on_a_shared_unit() {
        let mut a = four_channel();
        let t = a.timing();
        let p = t.program_ns + t.xfer_ns(512);
        let data = page(0xA2, 512);
        // Same block => same unit: the second queued command waits for the
        // lane even though both were submitted at t=0.
        a.begin_deferred();
        a.program(Ppn(0), &data).unwrap();
        assert_eq!(a.end_deferred(), p);
        a.begin_deferred();
        a.program(Ppn(1), &data).unwrap();
        assert_eq!(a.end_deferred(), 2 * p);
        assert_eq!(a.clock().now_ns(), 0);
    }

    #[test]
    fn deferred_window_matches_sync_timing_for_one_command() {
        // A single command executed in a window (NAND ops + a charge) must
        // complete exactly when the synchronous path would have: windows
        // serialize their internal sub-submissions on a frontier.
        let data = page(0xA3, 512);
        let mut sync = four_channel();
        sync.program(Ppn(0), &data).unwrap();
        sync.program(Ppn(4), &data).unwrap();
        sync.charge(1_000);
        let sync_end = sync.clock().now_ns();

        let mut q = four_channel();
        q.begin_deferred();
        q.program(Ppn(0), &data).unwrap();
        q.program(Ppn(4), &data).unwrap();
        q.charge(1_000);
        let end = q.end_deferred();
        assert_eq!(end, sync_end);
        assert_eq!(q.clock().now_ns(), 0);
    }

    #[test]
    fn background_window_nests_inside_a_foreground_window() {
        let mut a = four_channel();
        let t = a.timing();
        let p = t.program_ns + t.xfer_ns(512);
        let data = page(0xB1, 512);

        // Foreground queued command in flight on channel 0...
        a.begin_deferred();
        a.program(Ppn(0), &data).unwrap();
        a.charge(500);
        // ...background relocation cuts in on idle channel 1: a window asked
        // for later than the foreground frontier opens at the frontier
        // (p + 500), not past it.
        let saved = a.begin_background(u64::MAX);
        assert_eq!(a.submission_now(), p + 500, "a window is open: its frontier, not the clock");
        a.program(Ppn(4), &data).unwrap();
        let bg_end = a.end_background(saved);
        assert_eq!(bg_end, p + 500 + p, "background starts at the fg frontier");
        // The foreground window is restored with its frontier intact.
        a.program(Ppn(1), &data).unwrap();
        let fg_end = a.end_deferred();
        assert_eq!(fg_end, p + 500 + p);
        assert_eq!(a.clock().now_ns(), 0, "neither window moved the shared clock");
    }

    #[test]
    fn background_window_opened_at_submission_runs_beside_the_command() {
        let mut a = four_channel();
        let t = a.timing();
        let p = t.program_ns + t.xfer_ns(512);
        let data = page(0xB3, 512);
        // A command submitted at 0 programs on channel 0; the relocation it
        // pays for, opened at that submission time, runs on idle channel 1
        // beside it and queues behind it on channel 0.
        a.program(Ppn(0), &data).unwrap();
        let saved = a.begin_background(0);
        a.program(Ppn(4), &data).unwrap();
        assert_eq!(a.end_background(saved), p, "idle unit: beside the command");
        let saved = a.begin_background(0);
        a.program(Ppn(1), &data).unwrap();
        assert_eq!(a.end_background(saved), 2 * p, "busy unit: behind the command");
        assert_eq!(a.clock().now_ns(), p, "the command paid for its own program only");
    }

    #[test]
    fn background_work_queues_foreground_ops_on_a_shared_unit() {
        let mut a = four_channel();
        let t = a.timing();
        let p = t.program_ns + t.xfer_ns(512);
        let data = page(0xB2, 512);
        // Background reserves unit 0 for two pages.
        let saved = a.begin_background(0);
        a.program(Ppn(0), &data).unwrap();
        a.program(Ppn(1), &data).unwrap();
        assert_eq!(a.end_background(saved), 2 * p);
        assert_eq!(a.clock().now_ns(), 0);
        // No window is left open: a charge moves the shared clock.
        a.charge(1);
        assert_eq!((a.clock().now_ns(), a.submission_now()), (1, 1));
        // A synchronous foreground program on the same unit queues behind
        // the reservation; on an idle unit it starts immediately.
        a.program(Ppn(2), &data).unwrap();
        assert_eq!(a.clock().now_ns(), 3 * p, "fg op waited for the bg reservation");
        let mut b = four_channel();
        let saved = b.begin_background(0);
        b.program(Ppn(0), &data).unwrap();
        b.end_background(saved);
        b.program(Ppn(4), &data).unwrap(); // different channel: no contention
        assert_eq!(b.clock().now_ns(), p);
    }

    #[test]
    fn submission_now_tracks_window_frontier_and_clock() {
        let mut a = small();
        assert_eq!(a.submission_now(), 0);
        a.charge(100);
        assert_eq!(a.submission_now(), 100);
        a.begin_deferred();
        a.charge(50);
        assert_eq!(a.submission_now(), 150, "frontier, not the clock");
        assert_eq!(a.clock().now_ns(), 100);
        a.end_deferred();
        assert_eq!(a.submission_now(), 100);
    }

    #[test]
    fn charge_advances_clock_when_not_deferred() {
        let mut a = small();
        a.charge(123);
        assert_eq!(a.clock().now_ns(), 123);
        assert_eq!(a.submission_now(), 123, "no window frontier runs ahead of the clock");
    }

    #[test]
    fn stats_count_operations() {
        let mut a = small();
        a.program(Ppn(0), &page(1, 512)).unwrap();
        a.program(Ppn(1), &page(2, 512)).unwrap();
        let mut buf = vec![0u8; 512];
        a.read(Ppn(0), &mut buf).unwrap();
        a.erase(BlockId(1)).unwrap();
        let s = a.stats();
        assert_eq!(s.page_programs, 2);
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.block_erases, 1);
    }
}
