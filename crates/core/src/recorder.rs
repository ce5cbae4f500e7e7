//! The flight recorder: the sim-clock-driven epoch sampler a device owns.
//!
//! The FTL calls [`FlightRecorder::due`] with the simulated clock at every
//! command completion; when an epoch boundary has passed it hands the
//! recorder an [`EpochSample`] and the recorder seals one
//! [`EpochRecord`] of deltas since the previous seal. The newest records
//! stay in a bounded queue; evicted epochs fold into an accumulator, so a
//! [`FlightSnapshot`] of the series always sums exactly to the cumulative
//! counters.
//!
//! Epochs are clock-driven but sealed lazily at command boundaries: the
//! sampler never advances the simulated clock (it only reads values the
//! FTL passes in), so a monitored run is bit-identical to an unmonitored
//! one — same clock, same on-disk image. A quiet device crossing several
//! boundary multiples seals a single epoch spanning them rather than a
//! train of empty records.

use crate::monitor::{EpochRecord, FlightSnapshot};
use crate::stats::DeviceStats;
use share_telemetry::Histogram;
use std::collections::VecDeque;

/// What the FTL samples and hands to [`FlightRecorder::seal`] — all plain
/// read-outs of state the device already tracks.
#[derive(Debug, Clone)]
pub(crate) struct EpochSample {
    /// Simulated clock now.
    pub now_ns: u64,
    /// Cumulative device counters now.
    pub stats: DeviceStats,
    /// Cumulative per-unit busy time now.
    pub unit_busy_ns: Vec<u64>,
    /// Free data blocks (gauge).
    pub free_blocks: u64,
    /// Queued commands in flight (gauge).
    pub inflight: u64,
    /// Wear skew now (gauge).
    pub wear_skew: f64,
    /// This epoch's latency windows (`Telemetry::take_epoch_windows`).
    pub read_hist: Histogram,
    pub write_hist: Histogram,
}

/// The sim-clock-driven epoch sampler owned by one device.
#[derive(Debug, Clone)]
pub(crate) struct FlightRecorder {
    epoch_ns: u64,
    /// How many sealed records `epochs` retains.
    cap: usize,
    /// The newest sealed records, oldest first.
    epochs: VecDeque<EpochRecord>,
    /// First boundary not yet sealed past.
    next_boundary_ns: u64,
    /// Epochs sealed so far (index of the next epoch).
    sealed: u64,
    /// Read-outs at the previous seal (zeros at creation, so the sum of
    /// all epoch deltas equals the cumulative counters from zero).
    base_end_ns: u64,
    base_stats: DeviceStats,
    base_busy: Vec<u64>,
    /// Deltas of the epochs no longer retained, folded together.
    evicted_stats: DeviceStats,
}

impl FlightRecorder {
    /// A recorder sealing every `epoch_ns` of simulated time and retaining
    /// the newest `cap` records, starting its first epoch at `start_ns`.
    pub fn new(epoch_ns: u64, cap: usize, start_ns: u64) -> Self {
        debug_assert!(epoch_ns > 0);
        FlightRecorder {
            epoch_ns,
            cap,
            epochs: VecDeque::new(),
            next_boundary_ns: (start_ns / epoch_ns + 1) * epoch_ns,
            sealed: 0,
            base_end_ns: start_ns,
            base_stats: DeviceStats::default(),
            base_busy: Vec::new(),
            evicted_stats: DeviceStats::default(),
        }
    }

    /// Whether the clock has crossed the next epoch boundary (i.e. a
    /// `seal` is owed). Pure read — never advances anything.
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_boundary_ns
    }

    /// Seal the epoch ending now. The record's deltas cover everything
    /// since the previous seal; the next boundary is the first multiple of
    /// `epoch_ns` strictly after `sample.now_ns` (a long-idle device seals
    /// one spanning epoch, not a train of empty ones).
    pub fn seal(&mut self, sample: EpochSample) {
        let now = sample.now_ns;
        let record = EpochRecord {
            epoch: self.sealed,
            start_ns: self.base_end_ns,
            end_ns: now,
            stats: sample.stats.delta_since(&self.base_stats),
            free_blocks: sample.free_blocks,
            inflight: sample.inflight,
            wear_skew: sample.wear_skew,
            unit_busy_ns: sample
                .unit_busy_ns
                .iter()
                .enumerate()
                .map(|(i, &b)| b - self.base_busy.get(i).copied().unwrap_or(0))
                .collect(),
            read_hist: sample.read_hist,
            write_hist: sample.write_hist,
        };
        self.epochs.push_back(record);
        if self.epochs.len() > self.cap {
            let evicted = self.epochs.pop_front().expect("over capacity");
            self.evicted_stats.accumulate(&evicted.stats);
        }
        self.sealed += 1;
        self.base_end_ns = now;
        self.base_stats = sample.stats;
        self.base_busy = sample.unit_busy_ns;
        self.next_boundary_ns = (now / self.epoch_ns + 1) * self.epoch_ns;
    }

    /// A point-in-time copy of the series. `sample`-like read-outs of the
    /// *current* cumulative state close the books: `tail_stats` is the
    /// not-yet-sealed partial epoch, so `evicted + retained + tail` equals
    /// the cumulative counters exactly.
    pub fn snapshot(&self, now_ns: u64, stats: &DeviceStats) -> FlightSnapshot {
        FlightSnapshot {
            epoch_ns: self.epoch_ns,
            sealed: self.sealed,
            dropped: self.sealed - self.epochs.len() as u64,
            unit_labels: Vec::new(),
            epochs: self.epochs.iter().cloned().collect(),
            evicted_stats: self.evicted_stats,
            tail_start_ns: self.base_end_ns,
            tail_end_ns: now_ns,
            tail_stats: stats.delta_since(&self.base_stats),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample(now: u64, writes: u64, free: u64) -> EpochSample {
        EpochSample {
            now_ns: now,
            stats: DeviceStats { host_writes: writes, ..Default::default() },
            unit_busy_ns: vec![now / 2, now / 4],
            free_blocks: free,
            inflight: 0,
            wear_skew: 1.0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
        }
    }

    #[test]
    fn keeps_newest_cap_records() {
        let mut r = FlightRecorder::new(100, 3, 0);
        for i in 1..=5u64 {
            r.seal(sample(i * 100, i * 7, 50));
        }
        let snap = r.snapshot(500, &sample(500, 35, 50).stats);
        assert_eq!((snap.sealed, snap.dropped), (5, 2));
        let kept: Vec<_> = snap.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted in order");
        assert_eq!(snap.evicted_stats.host_writes, 14);
    }

    #[test]
    fn zero_capacity_evicts_everything() {
        let mut r = FlightRecorder::new(100, 0, 0);
        for i in 1..=3u64 {
            r.seal(sample(i * 100, i * 7, 50));
        }
        let snap = r.snapshot(300, &sample(300, 21, 50).stats);
        assert_eq!((snap.sealed, snap.dropped, snap.epochs.len()), (3, 3, 0));
        assert_eq!(snap.total_stats().host_writes, 21);
    }
}
