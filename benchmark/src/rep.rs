//! What one repetition of one workload hands back, and the pieces every
//! workload shares: device snapshots at window boundaries, the prefix
//! stamp, payload fingerprints.

use crate::host::{HostCost, Meter};
use crate::timed::{BenchDevice, CallCounts};
use crate::trace::{sim_self_by_layer, Probe, SimSelf, WallTrace};
use share_core::{BlockDevice, DeviceStats, TelemetryConfig};
use std::collections::BTreeMap;

/// How a repetition is to be run.
#[derive(Debug, Clone)]
pub struct RepCtx {
    /// On in the traced run only.
    pub probe: Probe,
    /// Ops in the measured window (the traced run stops at `prefix_ops`).
    pub window_ops: u64,
    /// Op count at which the window is stamped, so the traced and the
    /// untraced run can be compared over the same op prefix.
    pub prefix_ops: u64,
}

impl RepCtx {
    pub fn traced(&self) -> bool {
        self.probe.is_on()
    }

    /// Device telemetry level: the program's own span tree only when traced.
    pub fn telemetry(&self) -> TelemetryConfig {
        if self.traced() {
            TelemetryConfig::tracing()
        } else {
            TelemetryConfig::default()
        }
    }
}

/// Everything read from the data device at a window boundary.
#[derive(Debug, Clone)]
pub struct DevSnap {
    pub sim_ns: u64,
    pub stats: DeviceStats,
    /// Cumulative service time per NAND unit.
    pub busy_ns: Vec<u64>,
    pub counts: CallCounts,
}

impl DevSnap {
    pub fn take(dev: &impl BenchDevice) -> Self {
        Self {
            sim_ns: dev.clock().now_ns(),
            stats: dev.stats(),
            busy_ns: dev.ftl().nand().busy_ns().to_vec(),
            counts: dev.counts(),
        }
    }
}

/// State of the window after `prefix_ops` operations.
#[derive(Debug, Clone, PartialEq)]
pub struct Prefix {
    pub ops: u64,
    /// Simulated ns since the window start.
    pub sim_ns: u64,
    /// Data-device counters since the window start.
    pub data: DeviceStats,
    /// Host wall seconds since the window start (not compared).
    pub wall_s: f64,
}

impl Prefix {
    /// The simulated part, which must be identical with and without tracing.
    pub fn simulated(&self) -> (u64, u64, DeviceStats) {
        (self.ops, self.sim_ns, self.data)
    }
}

/// Cost of clean shutdown → reopen at the end of a repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recover {
    pub sim_ms: f64,
    pub wall_ms: f64,
    pub page_reads: u64,
}

/// A workload's system under test, as the window loop sees it.
pub trait Rig {
    type Dev: BenchDevice;

    /// The data device.
    fn device(&mut self) -> &Self::Dev;

    /// Run one round of `n` concurrent ops (1 for a serial workload).
    /// Appends one simulated latency per op to `lat` when given; returns
    /// (failed ops, user payload bytes written).
    fn round(&mut self, n: usize, probe: &Probe, lat: Option<&mut Vec<u64>>) -> (u64, u64);

    /// Sampled reads against the shadow model of last-acknowledged values;
    /// pushes one line onto `failures` if any differ.
    fn verify(&mut self, when: &str, failures: &mut Vec<String>);

    /// Clean shutdown, device recovery (`Ftl::open` on the NAND image) and
    /// engine recovery. `None` when a recovery failed (reported in
    /// `failures`).
    fn reopen(self, failures: &mut Vec<String>) -> (Option<Self>, Recover)
    where
        Self: Sized;
}

/// What the measured window of one repetition produced.
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    /// Simulated latency of every op of the window, unsorted.
    pub lat_ns: Vec<u64>,
    /// User payload bytes written by the window's ops.
    pub user_bytes: u64,
    /// Host cost of the window.
    pub host: HostCost,
    /// Host cost of each of the window's [`CHUNKS`] equal op ranges. The
    /// same range does the same work in every repetition, so the run takes
    /// the median per range before summing: a burst of host noise that hits
    /// one repetition's range is dropped instead of averaged in.
    pub chunks: Vec<HostCost>,
    pub start: DevSnap,
    pub end: DevSnap,
    pub prefix: Prefix,
    /// Traced run only.
    pub wall_trace: Option<WallTrace>,
}

/// Op ranges a window's host cost is recorded in.
pub const CHUNKS: u64 = 16;

/// Run the measured window: rounds of `round_size` ops until the op count
/// of `ctx` is reached, host meters around the loop and nothing else, a
/// stamp at `prefix_ops`.
pub fn measure<R: Rig>(rig: &mut R, ctx: &RepCtx, round_size: usize) -> Window {
    let window_ops = if ctx.traced() {
        ctx.prefix_ops
    } else {
        ctx.window_ops
    };
    assert!(
        ctx.prefix_ops.is_multiple_of(round_size as u64) && ctx.prefix_ops <= window_ops,
        "prefix must end on a round boundary inside the window"
    );
    let mut lat = Vec::with_capacity(window_ops as usize);
    let start = DevSnap::take(rig.device());
    // Discard whatever the probe saw during setup.
    ctx.probe.take();
    let mut chunks = Vec::with_capacity(CHUNKS as usize);
    let meter = Meter::start();
    let mut chunk_meter = Meter::start();
    let (mut ops, mut failed, mut user_bytes) = (0u64, 0u64, 0u64);
    let mut prefix = None;
    while ops < window_ops {
        let n = round_size.min((window_ops - ops) as usize);
        let (f, b) = rig.round(n, &ctx.probe, Some(&mut lat));
        failed += f;
        user_bytes += b;
        ops += n as u64;
        if ops >= (chunks.len() as u64 + 1) * window_ops / CHUNKS {
            chunks.push(std::mem::replace(&mut chunk_meter, Meter::start()).stop());
        }
        if ops == ctx.prefix_ops {
            let wall_s = meter.wall_s();
            let now = DevSnap::take(rig.device());
            prefix = Some(Prefix {
                ops,
                sim_ns: now.sim_ns - start.sim_ns,
                data: now.stats.delta_since(&start.stats),
                wall_s,
            });
        }
    }
    let host = meter.stop();
    let end = DevSnap::take(rig.device());
    Window {
        ops,
        failed,
        lat_ns: lat,
        user_bytes,
        host,
        chunks,
        start,
        end,
        prefix: prefix.expect("the loop passes prefix_ops exactly"),
        wall_trace: ctx.probe.take(),
    }
}

/// Result of one repetition.
pub struct RepOut {
    pub window: Window,
    /// Host seconds of load + aging before the window.
    pub setup_s: f64,
    /// Log-device counters of the window (engines with a separate redo device).
    pub log: Option<DeviceStats>,
    /// Engine-level counter metrics of the window, by per-layer name.
    pub layer: BTreeMap<&'static str, f64>,
    pub recover: Recover,
    /// Output checks that failed (empty = correct).
    pub failures: Vec<String>,
    /// `Ftl::revmap_len()` and the queue high-water mark at window end.
    pub revmap_len_end: u64,
    pub queue_max_inflight: u64,
    /// Per-layer simulated self time of the window (traced run only).
    pub sim_self: Option<SimSelf>,
}

/// Everything after the window: FTL gauges, in a traced run the per-layer
/// simulated self time of the program's span tree, then the output checks —
/// the shadow model at window end and again after shutdown → reopen.
pub fn finish<R: Rig>(
    mut rig: R,
    ctx: &RepCtx,
    window: Window,
    setup_s: f64,
    log: Option<DeviceStats>,
    layer: BTreeMap<&'static str, f64>,
) -> RepOut {
    let dev = rig.device();
    let queue_max_inflight = dev.telemetry_snapshot().map_or(0, |s| s.queue.max_inflight);
    let revmap_len_end = dev.ftl().revmap_len() as u64;
    let sim_self = ctx
        .traced()
        .then(|| sim_self_by_layer(&dev.tracer().spans(), window.start.sim_ns));

    let mut failures = Vec::new();
    rig.verify("window end", &mut failures);
    let (reopened, recover) = rig.reopen(&mut failures);
    if let Some(mut rig) = reopened {
        rig.verify("after reopen", &mut failures);
    }
    RepOut {
        window,
        setup_s,
        log,
        layer,
        recover,
        failures,
        revmap_len_end,
        queue_max_inflight,
        sim_self,
    }
}

/// `num / den`, 0 when the denominator is 0 (a metric with no events).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit fingerprint of a payload; the shadow models store this instead
/// of the bytes.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_sees_every_byte_and_the_length() {
        let a = vec![7u8; 100];
        for i in 0..a.len() {
            let mut b = a.clone();
            b[i] ^= 1;
            assert_ne!(fingerprint(&a), fingerprint(&b), "byte {i}");
        }
        assert_ne!(fingerprint(&a), fingerprint(&a[..99]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
    }
}
