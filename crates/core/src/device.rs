//! The block-device abstraction and a conventional (non-SHARE) SSD model.
//!
//! [`BlockDevice`] is the command boundary the paper extends: read, write,
//! flush and TRIM exist on every SSD; [`BlockDevice::share`] is the new
//! vendor-unique command. A device that does not implement SHARE (like the
//! Samsung PM853T the paper uses as a log device) reports
//! [`FtlError::Unsupported`], letting engines fall back to their original
//! redundant-write protocols.

use crate::error::FtlError;
use crate::queue::{CmdTag, Completion, QueuedCmd};
use crate::snapshot::SnapshotInfo;
use crate::stats::DeviceStats;
use crate::types::{Lpn, SharePair};
use nand_sim::{FaultHandle, FaultMode, NandError, NandTiming, SimClock};

/// Inert and uninhabited, as `monitor_snapshot` is: goes with the benchmark's forwarder.
pub enum FlightSnapshot {}

/// A page-granular block device on the simulated timeline.
pub trait BlockDevice {
    /// Page size in bytes (the I/O and mapping unit).
    fn page_size(&self) -> usize;

    /// Exported logical capacity in pages.
    fn capacity_pages(&self) -> u64;

    /// Read one page into `buf` (`buf.len() == page_size`). Unwritten pages
    /// read as zeros.
    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError>;

    /// Write one page.
    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError>;

    /// Make all completed writes durable (fsync).
    fn flush(&mut self) -> Result<(), FtlError>;

    /// Invalidate `len` pages starting at `lpn`.
    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError>;

    /// Atomically remap each `pair.dest` to the physical page backing
    /// `pair.src` (the SHARE command). Default: unsupported.
    fn share(&mut self, _pairs: &[SharePair]) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("share"))
    }

    /// Read a vector of pages as one submission. A device with internal
    /// channel parallelism overrides this to dispatch the whole vector at
    /// one submission time; the default is a per-page loop (serial timing,
    /// identical semantics).
    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        for (lpn, buf) in reqs.iter_mut() {
            self.read(*lpn, buf)?;
        }
        Ok(())
    }

    /// Write a vector of pages as one submission. **Not** atomic: on error
    /// a prefix of the batch may be durable, exactly as with a per-page
    /// loop — use [`BlockDevice::write_atomic`] for all-or-nothing
    /// semantics. Default: per-page loop.
    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        for (lpn, data) in pages {
            self.write(*lpn, data)?;
        }
        Ok(())
    }

    /// SHARE an arbitrarily long pair list as one host command: the device
    /// splits it into [`share_batch_limit`](Self::share_batch_limit)-sized
    /// sub-batches, each of which remaps atomically. The paper's
    /// `SHARE(from, to, length)` batched form. Default: chunked
    /// [`share`](Self::share) calls (one command's overhead per chunk).
    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        if pairs.is_empty() {
            return Ok(());
        }
        let limit = self.share_batch_limit();
        if limit == 0 {
            return Err(FtlError::Unsupported("share"));
        }
        for chunk in pairs.chunks(limit) {
            self.share(chunk)?;
        }
        Ok(())
    }

    /// Write a batch of pages **atomically**: after a crash either every
    /// page reads its new content or none does. This is the related-work
    /// baseline the paper contrasts in §6.1 (Park et al. / FusionIO
    /// atomic writes, txFlash): update-in-place atomicity without a
    /// journal, but still a full data write per page. Default: unsupported.
    fn write_atomic(&mut self, _pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("write_atomic"))
    }

    /// Largest atomic-write batch (pages). 0 = unsupported.
    fn write_atomic_limit(&self) -> usize {
        0
    }

    /// Largest SHARE batch the device executes atomically (0 = none).
    fn share_batch_limit(&self) -> usize {
        0
    }

    /// Whether the device implements SHARE.
    fn supports_share(&self) -> bool {
        self.share_batch_limit() > 0
    }

    // ----- device-level snapshots (see crate::snapshot) -------------------

    /// Whether the device implements the snapshot command family.
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Freeze the current contents of `len` pages starting at `start`
    /// under `name`, returning the snapshot's device-assigned id. On a
    /// SHARE-capable FTL this is pure metadata (no data copy). Default:
    /// unsupported.
    fn snapshot_create(&mut self, _name: &str, _start: Lpn, _len: u64) -> Result<u32, FtlError> {
        Err(FtlError::Unsupported("snapshot_create"))
    }

    /// Delete the snapshot `name`, releasing its pins on physical pages.
    /// Default: unsupported.
    fn snapshot_drop(&mut self, _name: &str) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("snapshot_drop"))
    }

    /// Materialize a writable zero-copy clone of `len` pages of snapshot
    /// `name` (starting at `src_offset` within its range) at logical
    /// address `dst`. Returns the number of pages mapped; pages unmapped
    /// at freeze time become holes that read zeroes. Default: unsupported.
    fn snapshot_clone(
        &mut self,
        _name: &str,
        _src_offset: u64,
        _dst: Lpn,
        _len: u64,
    ) -> Result<u64, FtlError> {
        Err(FtlError::Unsupported("snapshot_clone"))
    }

    /// Point-in-time read of the page at `offset` within snapshot `name`,
    /// bypassing the live mapping. Default: unsupported.
    fn snapshot_read(&mut self, _name: &str, _offset: u64, _buf: &mut [u8]) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("snapshot_read"))
    }

    /// Enumerate live snapshots. Default: unsupported.
    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        Err(FtlError::Unsupported("snapshot_list"))
    }

    /// Make the snapshot table durable now instead of at the next natural
    /// checkpoint. Default: unsupported.
    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("snapshot_persist"))
    }

    // ----- submission/completion queues (see crate::queue) ----------------

    /// Whether the device implements queued submission ([`Self::submit`]).
    fn supports_queue(&self) -> bool {
        false
    }

    /// Configured submission-queue depth (0 = queueing unsupported).
    fn queue_depth(&self) -> usize {
        0
    }

    /// Change the submission-queue depth. Must only shrink below the
    /// current in-flight count once those commands are reaped; devices may
    /// clamp to at least 1. No-op on sync-only devices.
    fn set_queue_depth(&mut self, _depth: usize) {}

    /// Enqueue a tagged command. The device executes its state transitions
    /// immediately (in submission order) but the completion — and the
    /// simulated-time cost — is observed only when the host reaps it. What
    /// the command borrows is free again when `submit` returns.
    /// Returns [`FtlError::QueueFull`] at the configured depth and
    /// [`FtlError::Unsupported`] on sync-only devices.
    fn submit(&mut self, _cmd: QueuedCmd<'_>) -> Result<CmdTag, FtlError> {
        Err(FtlError::Unsupported("submit"))
    }

    /// Reap completions already due at the current simulated time, oldest
    /// completion first. Never advances the clock.
    fn poll(&mut self) -> Vec<Completion> {
        Vec::new()
    }

    /// Block until at least one outstanding command completes: advance the
    /// clock to the earliest outstanding completion time and reap
    /// everything due. Empty only when nothing is in flight.
    fn reap(&mut self) -> Vec<Completion> {
        Vec::new()
    }

    /// Wait for every outstanding command: advance the clock to the last
    /// completion time and reap them all.
    fn drain(&mut self) -> Vec<Completion> {
        Vec::new()
    }

    /// Commands submitted but not yet reaped.
    fn inflight(&self) -> usize {
        0
    }

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats;

    /// The simulated clock this device advances.
    fn clock(&self) -> &SimClock;

    /// Inert: every label is stream 0. No device overrides it and nothing
    /// in the workspace calls it; it stays only because the benchmark's
    /// `TimedDevice` forwarder (`benchmark/src/timed.rs`) still does, and
    /// goes with that forwarder.
    fn stream_intern(&mut self, _label: &str) -> u32 {
        0
    }

    /// Inert, as [`stream_intern`](Self::stream_intern): kept only for the
    /// benchmark's forwarder, and goes with it.
    fn set_stream(&mut self, _stream: u32) {}

    /// Point-in-time telemetry snapshot, if the device collects any.
    fn telemetry_snapshot(&self) -> Option<share_telemetry::Snapshot> {
        None
    }

    /// Inert, as [`stream_intern`](Self::stream_intern): no device returns
    /// a [`FlightSnapshot`], so this is always `None`. Kept only for the
    /// benchmark's forwarder, and goes with it.
    fn monitor_snapshot(&self) -> Option<FlightSnapshot> {
        None
    }

    /// The causal span tracer of this device. Layers above (VFS, engines)
    /// clone this handle to attach their spans to the same trace tree.
    /// Devices without tracing return a disabled (no-op) handle.
    fn tracer(&self) -> share_telemetry::Tracer {
        share_telemetry::Tracer::disabled()
    }
}

/// Check that the `len` pages from `start` all lie below `capacity`
/// (overflow included), naming the range's last page if not.
pub(crate) fn check_range(start: Lpn, len: u64, capacity: u64) -> Result<(), FtlError> {
    if start.0.checked_add(len).is_some_and(|end| end <= capacity) {
        return Ok(());
    }
    let last = Lpn(start.0.saturating_add(len.saturating_sub(1)));
    Err(FtlError::LpnOutOfRange { lpn: last, capacity })
}

/// A conventional SSD without the SHARE extension.
///
/// Models a fast drive with a large SLC cache (the paper's PM853T log
/// device): constant per-command service times, no visible GC. Used for
/// the InnoDB redo log and as a baseline device.
#[derive(Debug)]
pub struct SimpleSsd {
    page_size: usize,
    capacity_pages: u64,
    pages: Vec<Option<Box<[u8]>>>,
    clock: SimClock,
    read_ns: u64,
    write_ns: u64,
    flush_ns: u64,
    xfer_ns_per_kib: u64,
    fault: FaultHandle,
    stats: DeviceStats,
}

impl SimpleSsd {
    /// A device with `capacity_pages` pages of `page_size` bytes.
    pub fn new(page_size: usize, capacity_pages: u64, clock: SimClock) -> Self {
        Self {
            page_size,
            capacity_pages,
            pages: vec![None; capacity_pages as usize],
            clock,
            read_ns: 70_000,
            write_ns: 30_000,
            flush_ns: 50_000,
            xfer_ns_per_kib: NandTiming::default().xfer_ns_per_kib,
            fault: FaultHandle::new(),
            stats: DeviceStats::default(),
        }
    }

    /// Power-loss injection handle. Unlike the FTL, a conventional drive
    /// has no mapping indirection: a write torn by power loss leaves the
    /// sector half old pattern, half new — the torn-page hazard the
    /// paper's §2 describes.
    pub fn fault_handle(&self) -> FaultHandle {
        self.fault.clone()
    }

    /// Bring the device back up after an injected power loss.
    pub fn power_cycle(&mut self) {
        self.fault.clear_down();
    }

    fn check(&self, lpn: Lpn, len: usize) -> Result<(), FtlError> {
        if lpn.0 >= self.capacity_pages {
            return Err(FtlError::LpnOutOfRange { lpn, capacity: self.capacity_pages });
        }
        if len != self.page_size {
            return Err(FtlError::BadBufferLength { got: len, want: self.page_size });
        }
        Ok(())
    }
}

impl BlockDevice for SimpleSsd {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        if self.fault.is_down() {
            return Err(FtlError::Nand(NandError::PowerLoss));
        }
        self.check(lpn, buf.len())?;
        self.clock.advance(self.read_ns + (buf.len() as u64 * self.xfer_ns_per_kib) / 1024);
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        match &self.pages[lpn.0 as usize] {
            Some(p) => buf.copy_from_slice(p),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        if self.fault.is_down() {
            return Err(FtlError::Nand(NandError::PowerLoss));
        }
        self.check(lpn, data.len())?;
        self.clock.advance(self.write_ns + (data.len() as u64 * self.xfer_ns_per_kib) / 1024);
        self.stats.host_writes += 1;
        self.stats.host_write_bytes += data.len() as u64;
        if let Some(mode) = self.fault.on_program() {
            match mode {
                FaultMode::TornHalf => {
                    // Half the new content lands; the old tail remains —
                    // an in-place torn write, unlike NAND's erased tail.
                    let cut = data.len() / 2;
                    let mut torn = match self.pages[lpn.0 as usize].take() {
                        Some(old) => old.into_vec(),
                        None => vec![0u8; data.len()],
                    };
                    torn[..cut].copy_from_slice(&data[..cut]);
                    self.pages[lpn.0 as usize] = Some(torn.into_boxed_slice());
                }
                FaultMode::DroppedWrite => {}
                FaultMode::AfterProgram => {
                    self.pages[lpn.0 as usize] = Some(data.to_vec().into_boxed_slice());
                }
            }
            return Err(FtlError::Nand(NandError::PowerLoss));
        }
        // In-place medium: an overwrite reuses the page's memory.
        match &mut self.pages[lpn.0 as usize] {
            Some(page) => page.copy_from_slice(data),
            slot => *slot = Some(data.to_vec().into_boxed_slice()),
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        if self.fault.is_down() {
            return Err(FtlError::Nand(NandError::PowerLoss));
        }
        self.clock.advance(self.flush_ns);
        self.stats.flushes += 1;
        Ok(())
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        if self.fault.is_down() {
            return Err(FtlError::Nand(NandError::PowerLoss));
        }
        // Validate the whole range before the first side effect, as
        // `Ftl::trim` does.
        check_range(lpn, len, self.capacity_pages)?;
        self.pages[lpn.0 as usize..(lpn.0 + len) as usize].fill(None);
        self.stats.trims += len;
        Ok(())
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> SimpleSsd {
        SimpleSsd::new(512, 16, SimClock::new())
    }

    #[test]
    fn write_read_round_trip() {
        let mut d = dev();
        d.write(Lpn(3), &[7u8; 512]).unwrap();
        let mut buf = [0u8; 512];
        d.read(Lpn(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn unwritten_pages_read_zero() {
        let mut d = dev();
        let mut buf = [9u8; 512];
        d.read(Lpn(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn share_is_unsupported() {
        let mut d = dev();
        assert!(!d.supports_share());
        assert_eq!(d.share_batch_limit(), 0);
        assert_eq!(
            d.share(&[SharePair::new(Lpn(0), Lpn(1))]),
            Err(FtlError::Unsupported("share"))
        );
    }

    #[test]
    fn trim_clears_pages() {
        let mut d = dev();
        d.write(Lpn(1), &[1u8; 512]).unwrap();
        d.write(Lpn(2), &[2u8; 512]).unwrap();
        d.trim(Lpn(1), 2).unwrap();
        let mut buf = [9u8; 512];
        d.read(Lpn(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(d.stats().trims, 2);
    }

    #[test]
    fn bounds_and_lengths_validated() {
        let mut d = dev();
        assert!(matches!(d.write(Lpn(16), &[0u8; 512]), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(d.write(Lpn(0), &[0u8; 100]), Err(FtlError::BadBufferLength { .. })));
    }

    #[test]
    fn torn_write_mixes_old_and_new_content() {
        let mut d = dev();
        d.write(Lpn(0), &[0x11u8; 512]).unwrap();
        d.fault_handle().arm_after_programs(1, FaultMode::TornHalf);
        assert!(d.write(Lpn(0), &[0x22u8; 512]).is_err());
        // Down until power-cycled.
        let mut buf = [0u8; 512];
        assert!(d.read(Lpn(0), &mut buf).is_err());
        d.power_cycle();
        d.read(Lpn(0), &mut buf).unwrap();
        assert!(buf[..256].iter().all(|&b| b == 0x22));
        assert!(buf[256..].iter().all(|&b| b == 0x11), "old tail must survive a torn write");
    }

    #[test]
    fn trim_checks_power_and_the_whole_range_first() {
        let mut d = dev();
        d.write(Lpn(15), &[0x33u8; 512]).unwrap();
        // A range past the capacity (or overflowing) is rejected whole.
        for (lpn, len) in [(15, 2), (0, 17), (16, 1), (u64::MAX, 2), (1, u64::MAX)] {
            let err = d.trim(Lpn(lpn), len).unwrap_err();
            assert!(matches!(err, FtlError::LpnOutOfRange { .. }), "trim({lpn}, {len}): {err:?}");
        }
        // A downed device refuses trims like every other command.
        d.fault_handle().arm_after_programs(1, FaultMode::DroppedWrite);
        assert!(d.write(Lpn(0), &[0x44u8; 512]).is_err());
        assert_eq!(d.trim(Lpn(15), 1), Err(FtlError::Nand(NandError::PowerLoss)));
        d.power_cycle();
        assert_eq!(d.stats().trims, 0);
        let mut buf = [0u8; 512];
        d.read(Lpn(15), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x33), "a refused trim must not drop the page");
        d.trim(Lpn(15), 1).unwrap();
        assert_eq!(d.stats().trims, 1);
    }

    #[test]
    fn clock_advances_and_stats_count() {
        let mut d = dev();
        let c = d.clock().clone();
        d.write(Lpn(0), &[0u8; 512]).unwrap();
        d.flush().unwrap();
        let mut buf = [0u8; 512];
        d.read(Lpn(0), &mut buf).unwrap();
        assert!(c.now_ns() > 0);
        let s = d.stats();
        assert_eq!((s.host_writes, s.flushes, s.host_reads), (1, 1, 1));
        assert_eq!(s.host_write_bytes, 512);
    }
}
