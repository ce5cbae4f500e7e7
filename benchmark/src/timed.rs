//! [`TimedDevice`]: a [`BlockDevice`] wrapper that times every trait call
//! on both clocks, from outside the program.
//!
//! The engines are generic over `D: BlockDevice`, so wrapping the device
//! is the one place the benchmark can see the engine/VFS ↔ FTL boundary
//! without touching `crates/`. Every trait method is forwarded — a
//! defaulted method left unforwarded would silently turn SHARE, batching
//! or queueing off; `tests/timed_device.rs` checks the wrapped and bare
//! devices end in identical states.

use crate::trace::{CmdClass, Probe};
use nand_sim::SimClock;
use share_core::{
    BlockDevice, CmdTag, Completion, DeviceStats, FlightSnapshot, Ftl, FtlError, Lpn, QueuedCmd,
    SharePair, Snapshot, SnapshotInfo, Tracer,
};
use std::collections::HashMap;

/// Always-on call counters (plain integer adds; the wall/sim timers only
/// run when the probe is on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounts {
    /// Device commands of every class (one per trait call that does
    /// device work; `poll`/`reap`/`drain` count as one each).
    pub cmds: u64,
    /// `submit` calls refused with `QueueFull` (the caller retries).
    pub queue_full: u64,
}

/// The data device of a workload: the timed wrapper in every benchmark
/// run, the bare [`Ftl`] in the test that checks the wrapper changes
/// nothing.
pub trait BenchDevice: BlockDevice + Sized {
    fn wrap(ftl: Ftl, probe: Probe) -> Self;
    fn ftl(&self) -> &Ftl;
    fn into_ftl(self) -> Ftl;
    fn counts(&self) -> CallCounts;
}

impl BenchDevice for Ftl {
    fn wrap(ftl: Ftl, _probe: Probe) -> Self {
        ftl
    }

    fn ftl(&self) -> &Ftl {
        self
    }

    fn into_ftl(self) -> Ftl {
        self
    }

    fn counts(&self) -> CallCounts {
        CallCounts::default()
    }
}

impl BenchDevice for TimedDevice<Ftl> {
    fn wrap(ftl: Ftl, probe: Probe) -> Self {
        TimedDevice::new(ftl, probe)
    }

    fn ftl(&self) -> &Ftl {
        &self.inner
    }

    fn into_ftl(self) -> Ftl {
        self.inner
    }

    fn counts(&self) -> CallCounts {
        self.counts
    }
}

pub struct TimedDevice<D> {
    inner: D,
    probe: Probe,
    counts: CallCounts,
    /// Class of each in-flight queued command, so a completion's latency
    /// lands in the right histogram. Only filled while the probe is on.
    inflight_class: HashMap<CmdTag, CmdClass>,
}

impl<D: BlockDevice> TimedDevice<D> {
    pub fn new(inner: D, probe: Probe) -> Self {
        Self {
            inner,
            probe,
            counts: CallCounts::default(),
            inflight_class: HashMap::new(),
        }
    }

    fn call<R>(&mut self, class: CmdClass, name: &'static str, f: impl FnOnce(&mut D) -> R) -> R {
        self.counts.cmds += 1;
        if !self.probe.is_on() {
            return f(&mut self.inner);
        }
        let clock = self.inner.clock().clone();
        let Self { inner, probe, .. } = self;
        probe.device_call(class, name, || clock.now_ns(), || f(inner))
    }

    fn note_completions(&mut self, done: &[Completion]) {
        if !self.probe.is_on() {
            return;
        }
        for c in done {
            if let Some(class) = self.inflight_class.remove(&c.tag) {
                self.probe.command_latency(class, c.latency_ns());
            }
        }
    }
}

fn class_of(cmd: &QueuedCmd) -> CmdClass {
    match cmd {
        QueuedCmd::Read { .. } | QueuedCmd::ReadBatch { .. } => CmdClass::Read,
        QueuedCmd::Write { .. } | QueuedCmd::WriteBatch { .. } | QueuedCmd::WriteAtomic { .. } => {
            CmdClass::Write
        }
        QueuedCmd::Share { .. } | QueuedCmd::ShareBatch { .. } => CmdClass::Share,
        QueuedCmd::Trim { .. } => CmdClass::Trim,
        QueuedCmd::Flush => CmdClass::Flush,
    }
}

impl<D: BlockDevice> BlockDevice for TimedDevice<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.call(CmdClass::Read, "read", |d| d.read(lpn, buf))
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.call(CmdClass::Write, "write", |d| d.write(lpn, data))
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.call(CmdClass::Flush, "flush", |d| d.flush())
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.call(CmdClass::Trim, "trim", |d| d.trim(lpn, len))
    }

    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.call(CmdClass::Share, "share", |d| d.share(pairs))
    }

    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        self.call(CmdClass::Read, "read_batch", |d| d.read_batch(reqs))
    }

    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.call(CmdClass::Write, "write_batch", |d| d.write_batch(pages))
    }

    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.call(CmdClass::Share, "share_batch", |d| d.share_batch(pairs))
    }

    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.call(CmdClass::Write, "write_atomic", |d| d.write_atomic(pages))
    }

    fn write_atomic_limit(&self) -> usize {
        self.inner.write_atomic_limit()
    }

    fn share_batch_limit(&self) -> usize {
        self.inner.share_batch_limit()
    }

    fn supports_share(&self) -> bool {
        self.inner.supports_share()
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        self.call(CmdClass::Other, "snapshot_create", |d| {
            d.snapshot_create(name, start, len)
        })
    }

    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        self.call(CmdClass::Other, "snapshot_drop", |d| d.snapshot_drop(name))
    }

    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        self.call(CmdClass::Other, "snapshot_clone", |d| {
            d.snapshot_clone(name, src_offset, dst, len)
        })
    }

    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        self.call(CmdClass::Other, "snapshot_read", |d| {
            d.snapshot_read(name, offset, buf)
        })
    }

    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        self.inner.snapshot_list()
    }

    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        self.call(CmdClass::Other, "snapshot_persist", |d| {
            d.snapshot_persist()
        })
    }

    fn supports_queue(&self) -> bool {
        self.inner.supports_queue()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.inner.set_queue_depth(depth)
    }

    fn submit(&mut self, cmd: QueuedCmd) -> Result<CmdTag, FtlError> {
        let class = class_of(&cmd);
        let r = self.call(CmdClass::Queued, "submit", |d| d.submit(cmd));
        match &r {
            Ok(tag) if self.probe.is_on() => {
                self.inflight_class.insert(*tag, class);
            }
            Err(FtlError::QueueFull { .. }) => self.counts.queue_full += 1,
            _ => {}
        }
        r
    }

    fn poll(&mut self) -> Vec<Completion> {
        let done = self.call(CmdClass::Queued, "poll", |d| d.poll());
        self.note_completions(&done);
        done
    }

    fn reap(&mut self) -> Vec<Completion> {
        let done = self.call(CmdClass::Queued, "reap", |d| d.reap());
        self.note_completions(&done);
        done
    }

    fn drain(&mut self) -> Vec<Completion> {
        let done = self.call(CmdClass::Queued, "drain", |d| d.drain());
        self.note_completions(&done);
        done
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn stream_intern(&mut self, label: &str) -> u32 {
        self.inner.stream_intern(label)
    }

    fn set_stream(&mut self, stream: u32) {
        self.inner.set_stream(stream)
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        self.inner.telemetry_snapshot()
    }

    fn monitor_snapshot(&self) -> Option<FlightSnapshot> {
        self.inner.monitor_snapshot()
    }

    fn tracer(&self) -> Tracer {
        self.inner.tracer()
    }
}
