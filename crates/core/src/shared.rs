//! Thread-safe device front-end.
//!
//! A real SSD serializes commands at its submission queue; [`SharedDevice`]
//! models that boundary so several host threads (e.g. the 16 LinkBench
//! clients of the paper's setup) can drive one device. Commands execute
//! under a mutex — the simulated timeline stays coherent because every
//! command advances the shared [`nand_sim::SimClock`] atomically.

use crate::device::BlockDevice;
use crate::error::FtlError;
use crate::queue::{CmdTag, Completion, QueuedCmd};
use crate::stats::DeviceStats;
use crate::types::{Lpn, SharePair};
use nand_sim::SimClock;
use std::sync::{Arc, Mutex, MutexGuard};

/// A cloneable, `Send + Sync` handle to a shared block device.
#[derive(Debug)]
pub struct SharedDevice<D: BlockDevice> {
    inner: Arc<Mutex<D>>,
    clock: SimClock,
}

impl<D: BlockDevice> Clone for SharedDevice<D> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner), clock: self.clock.clone() }
    }
}

impl<D: BlockDevice> SharedDevice<D> {
    /// Wrap a device for shared use.
    pub fn new(device: D) -> Self {
        let clock = device.clock().clone();
        Self { inner: Arc::new(Mutex::new(device)), clock }
    }

    /// Lock the device, ignoring poison: a panicking host thread models a
    /// host crash, and crash-time device state is exactly what the
    /// recovery tests want to observe (parking_lot behaved the same way).
    fn lock(&self) -> MutexGuard<'_, D> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run `f` with exclusive access to the device (multi-command
    /// critical sections, statistics snapshots, fault injection).
    pub fn with<R>(&self, f: impl FnOnce(&mut D) -> R) -> R {
        f(&mut self.lock())
    }

    /// Unwrap the device (fails if other handles are alive).
    pub fn try_into_inner(self) -> Result<D, Self> {
        let clock = self.clock.clone();
        Arc::try_unwrap(self.inner)
            .map(|m| m.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner()))
            .map_err(|inner| Self { inner, clock })
    }
}

impl<D: BlockDevice> BlockDevice for SharedDevice<D> {
    fn page_size(&self) -> usize {
        self.lock().page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.lock().capacity_pages()
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.lock().read(lpn, buf)
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.lock().write(lpn, data)
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.lock().flush()
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.lock().trim(lpn, len)
    }

    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.lock().share(pairs)
    }

    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        self.lock().read_batch(reqs)
    }

    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.lock().write_batch(pages)
    }

    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.lock().share_batch(pairs)
    }

    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.lock().write_atomic(pages)
    }

    fn write_atomic_limit(&self) -> usize {
        self.lock().write_atomic_limit()
    }

    fn share_batch_limit(&self) -> usize {
        self.lock().share_batch_limit()
    }

    fn supports_snapshot(&self) -> bool {
        self.lock().supports_snapshot()
    }

    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        self.lock().snapshot_create(name, start, len)
    }

    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        self.lock().snapshot_drop(name)
    }

    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        self.lock().snapshot_clone(name, src_offset, dst, len)
    }

    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        self.lock().snapshot_read(name, offset, buf)
    }

    fn snapshot_list(&self) -> Result<Vec<crate::snapshot::SnapshotInfo>, FtlError> {
        self.lock().snapshot_list()
    }

    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        self.lock().snapshot_persist()
    }

    fn supports_queue(&self) -> bool {
        self.lock().supports_queue()
    }

    fn queue_depth(&self) -> usize {
        self.lock().queue_depth()
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.lock().set_queue_depth(depth)
    }

    fn submit(&mut self, cmd: QueuedCmd<'_>) -> Result<CmdTag, FtlError> {
        self.lock().submit(cmd)
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.lock().poll()
    }

    fn reap(&mut self) -> Vec<Completion> {
        self.lock().reap()
    }

    fn drain(&mut self) -> Vec<Completion> {
        self.lock().drain()
    }

    fn inflight(&self) -> usize {
        self.lock().inflight()
    }

    fn stats(&self) -> DeviceStats {
        self.lock().stats()
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn stream_intern(&mut self, label: &str) -> u32 {
        self.lock().stream_intern(label)
    }

    fn set_stream(&mut self, stream: u32) {
        self.lock().set_stream(stream)
    }

    fn telemetry_snapshot(&self) -> Option<share_telemetry::Snapshot> {
        self.lock().telemetry_snapshot()
    }

    fn monitor_snapshot(&self) -> Option<crate::monitor::FlightSnapshot> {
        self.lock().monitor_snapshot()
    }

    fn tracer(&self) -> share_telemetry::Tracer {
        self.lock().tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtlConfig;
    use crate::ftl::Ftl;
    use nand_sim::NandTiming;

    fn shared() -> SharedDevice<Ftl> {
        let cfg = FtlConfig::for_capacity_with(8 << 20, 0.4, 4096, 16, NandTiming::zero());
        SharedDevice::new(Ftl::new(cfg))
    }

    #[test]
    fn behaves_like_the_wrapped_device() {
        let mut d = shared();
        let page = vec![7u8; d.page_size()];
        d.write(Lpn(1), &page).unwrap();
        d.share(&[SharePair::new(Lpn(0), Lpn(1))]).unwrap();
        let mut buf = vec![0u8; d.page_size()];
        d.read(Lpn(0), &mut buf).unwrap();
        assert_eq!(buf, page);
        assert!(d.supports_share());
    }

    #[test]
    fn concurrent_writers_preserve_all_data() {
        let d = shared();
        let threads = 4;
        let per = 64u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let mut h = d.clone();
                s.spawn(move || {
                    let ps = h.page_size();
                    for i in 0..per {
                        let lpn = t * per + i;
                        h.write(Lpn(lpn), &vec![(lpn % 251) as u8; ps]).unwrap();
                    }
                });
            }
        });
        let mut h = d.clone();
        let mut buf = vec![0u8; h.page_size()];
        for lpn in 0..threads * per {
            h.read(Lpn(lpn), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == (lpn % 251) as u8), "lpn {lpn} diverged");
        }
        assert_eq!(h.stats().host_writes, threads * per);
        d.with(|dev| dev.check_invariants());
    }

    #[test]
    fn concurrent_sharers_do_not_corrupt_mapping() {
        let d = shared();
        // Seed source pages.
        d.clone().with(|dev| {
            let ps = dev.page_size();
            for i in 0..256u64 {
                dev.write(Lpn(1_000 + i), &vec![(i % 251) as u8; ps]).unwrap();
            }
        });
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mut h = d.clone();
                s.spawn(move || {
                    for i in 0..64u64 {
                        let k = t * 64 + i;
                        h.share(&[SharePair::new(Lpn(k), Lpn(1_000 + k))]).unwrap();
                    }
                });
            }
        });
        let mut h = d.clone();
        let mut buf = vec![0u8; h.page_size()];
        for k in 0..256u64 {
            h.read(Lpn(k), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == (k % 251) as u8), "share {k} diverged");
        }
        d.with(|dev| dev.check_invariants());
    }

    #[test]
    fn into_inner_round_trips() {
        let d = shared();
        let d2 = d.clone();
        assert!(d.try_into_inner().is_err(), "second handle alive");
        assert!(d2.try_into_inner().is_ok());
    }
}
