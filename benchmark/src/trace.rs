//! The benchmark's own wall-clock spans, and the per-layer self-time
//! analysis of both clocks.
//!
//! Wall spans are recorded from outside the program, around the calls into
//! each layer: `gen` (workload generator + shadow model), `engine` (every
//! public engine call) and `ftl` (every [`BlockDevice`] call, recorded by
//! [`TimedDevice`]). share-vfs sits between engine and device with no
//! boundary the benchmark can wrap, so its wall time is part of the engine's
//! self time. Simulated self time comes from the program's own span tree
//! (`Tracer::spans()`), which does separate all four layers.
//!
//! [`BlockDevice`]: share_core::BlockDevice
//! [`TimedDevice`]: crate::timed::TimedDevice

use share_core::{Layer, Span};
use share_telemetry::json::{count, num, s, Json};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Layer of a wall-clock span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallLayer {
    Gen,
    Engine,
    Ftl,
}

impl WallLayer {
    pub fn name(self) -> &'static str {
        match self {
            WallLayer::Gen => "gen",
            WallLayer::Engine => "engine",
            WallLayer::Ftl => "ftl",
        }
    }
}

/// Command classes the device wall time is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdClass {
    Read,
    Write,
    Share,
    Flush,
    Trim,
    /// submit / poll / reap / drain.
    Queued,
    /// Snapshot family and anything else that does device work.
    Other,
}

impl CmdClass {
    pub const ALL: [CmdClass; 7] = [
        CmdClass::Read,
        CmdClass::Write,
        CmdClass::Share,
        CmdClass::Flush,
        CmdClass::Trim,
        CmdClass::Queued,
        CmdClass::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CmdClass::Read => "read",
            CmdClass::Write => "write",
            CmdClass::Share => "share",
            CmdClass::Flush => "flush",
            CmdClass::Trim => "trim",
            CmdClass::Queued => "queued",
            CmdClass::Other => "other",
        }
    }
}

/// One wall-clock span: name, start, duration and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct WallSpan {
    pub layer: WallLayer,
    pub name: &'static str,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// ns since the trace origin.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Wall and simulated time inside one class of device calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTime {
    pub calls: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
}

/// In-memory span store of one traced window.
#[derive(Debug)]
pub struct WallTrace {
    origin: Instant,
    pub spans: Vec<WallSpan>,
    stack: Vec<u32>,
    pub class: [ClassTime; CmdClass::ALL.len()],
    /// Simulated latency of every read-class / write-class command
    /// (sync call duration, or submit→complete of a queued one).
    pub read_sim_ns: Vec<u64>,
    pub write_sim_ns: Vec<u64>,
}

impl WallTrace {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            class: [ClassTime::default(); CmdClass::ALL.len()],
            read_sim_ns: Vec::new(),
            write_sim_ns: Vec::new(),
        }
    }

    fn begin(&mut self, layer: WallLayer, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.stack.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(WallSpan {
            layer,
            name,
            parent,
            start_ns,
            dur_ns: 0,
        });
        id
    }

    fn end(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.dur_ns = now - span.start_ns;
        let dur = span.dur_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "wall spans close in LIFO order");
        dur
    }

    /// Total wall ns of one layer's spans.
    pub fn layer_wall_ns(&self, layer: WallLayer) -> u64 {
        self.spans
            .iter()
            .filter(|sp| sp.layer == layer)
            .map(|sp| sp.dur_ns)
            .sum()
    }

    /// Number of spans of one layer.
    pub fn layer_calls(&self, layer: WallLayer) -> u64 {
        self.spans.iter().filter(|sp| sp.layer == layer).count() as u64
    }

    /// Compact JSON: the per-class device totals, a name table and one
    /// `[layer, name, parent, start_ns, dur_ns]` row per span.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|sp| {
                let idx = names.iter().position(|n| *n == sp.name).unwrap_or_else(|| {
                    names.push(sp.name);
                    names.len() - 1
                });
                let parent = if sp.parent == u32::MAX {
                    -1.0
                } else {
                    sp.parent as f64
                };
                Json::Arr(vec![
                    s(sp.layer.name()),
                    count(idx as u64),
                    num(parent),
                    count(sp.start_ns),
                    count(sp.dur_ns),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "columns",
                Json::Arr(
                    ["layer", "name", "parent", "start_ns", "dur_ns"]
                        .map(s)
                        .to_vec(),
                ),
            ),
            ("names", Json::Arr(names.iter().map(|n| s(n)).collect())),
            ("spans", Json::Arr(rows)),
            (
                "device_calls",
                Json::obj(
                    CmdClass::ALL
                        .iter()
                        .map(|&c| {
                            let t = self.class[c as usize];
                            let totals = Json::obj(vec![
                                ("calls", count(t.calls)),
                                ("wall_ns", count(t.wall_ns)),
                                ("sim_ns", count(t.sim_ns)),
                            ]);
                            (c.name(), totals)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Shared handle to the trace of the current window; `Probe::off()` makes
/// every call a plain call, which is what the untraced run uses.
#[derive(Debug, Clone, Default)]
pub struct Probe(Option<Rc<RefCell<WallTrace>>>);

impl Probe {
    pub fn off() -> Self {
        Probe(None)
    }

    pub fn on() -> Self {
        Probe(Some(Rc::new(RefCell::new(WallTrace::new()))))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: WallLayer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(t) = &self.0 else { return f() };
        let id = t.borrow_mut().begin(layer, name);
        let r = f();
        t.borrow_mut().end(id);
        r
    }

    /// Run one device call inside an `ftl` span, charging its wall and
    /// simulated duration to `class`. `sim_now` reads the device's clock.
    pub fn device_call<R>(
        &self,
        class: CmdClass,
        name: &'static str,
        sim_now: impl Fn() -> u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(t) = &self.0 else { return f() };
        let id = t.borrow_mut().begin(WallLayer::Ftl, name);
        let sim0 = sim_now();
        let r = f();
        let sim = sim_now() - sim0;
        let mut t = t.borrow_mut();
        let wall = t.end(id);
        let c = &mut t.class[class as usize];
        c.calls += 1;
        c.wall_ns += wall;
        c.sim_ns += sim;
        drop(t);
        self.command_latency(class, sim);
        r
    }

    /// Record the simulated latency of a read- or write-class command (a
    /// sync call's duration, or submit→complete of a reaped queued one).
    pub fn command_latency(&self, class: CmdClass, sim_ns: u64) {
        let Some(t) = &self.0 else { return };
        match class {
            CmdClass::Read => t.borrow_mut().read_sim_ns.push(sim_ns),
            CmdClass::Write => t.borrow_mut().write_sim_ns.push(sim_ns),
            _ => {}
        }
    }

    /// Take the recorded trace out (the probe must be the last handle's
    /// user; other clones see an empty trace afterwards).
    pub fn take(&self) -> Option<WallTrace> {
        self.0
            .as_ref()
            .map(|t| std::mem::replace(&mut *t.borrow_mut(), WallTrace::new()))
    }
}

/// Simulated self time per layer of the program's span tree, restricted to
/// spans that start at or after `from_ns`. A span's self time is its
/// duration minus the part of it its children cover (children of a queued
/// command may overlap each other and may end after the parent; both are
/// handled by clipping to the parent and taking the union).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimSelf {
    pub engine_ns: u64,
    pub vfs_ns: u64,
    pub ftl_ns: u64,
    pub nand_ns: u64,
    pub spans: u64,
}

impl SimSelf {
    pub fn total_ns(&self) -> u64 {
        self.engine_ns + self.vfs_ns + self.ftl_ns + self.nand_ns
    }

    pub fn share(&self, ns: u64) -> f64 {
        if self.total_ns() == 0 {
            0.0
        } else {
            ns as f64 / self.total_ns() as f64
        }
    }
}

pub fn sim_self_by_layer(spans: &[Span], from_ns: u64) -> SimSelf {
    // Children intervals per parent, clipped to the parent.
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if sp.start_ns < from_ns {
            continue;
        }
        if let Some(parent) = spans.get(sp.parent as usize) {
            let lo = sp.start_ns.max(parent.start_ns);
            let hi = sp.end_ns.min(parent.end_ns);
            if hi > lo {
                kids[parent.id as usize].push((lo, hi));
            }
        }
    }
    let mut out = SimSelf::default();
    for sp in spans {
        if sp.start_ns < from_ns {
            continue;
        }
        let iv = &mut kids[sp.id as usize];
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for &(lo, hi) in iv.iter() {
            match cur {
                Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                Some((clo, chi)) => {
                    covered += chi - clo;
                    cur = Some((lo, hi));
                }
                None => cur = Some((lo, hi)),
            }
        }
        if let Some((clo, chi)) = cur {
            covered += chi - clo;
        }
        let own = (sp.end_ns - sp.start_ns).saturating_sub(covered);
        match sp.layer {
            Layer::Engine => out.engine_ns += own,
            Layer::Vfs => out.vfs_ns += own,
            Layer::Ftl => out.ftl_ns += own,
            Layer::Nand => out.nand_ns += own,
        }
        out.spans += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use share_core::Track;

    fn span(id: u32, parent: u32, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: String::new(),
            track: Track::Engine,
            start_ns: start,
            end_ns: end,
            pages: 0,
            ok: true,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let none = u32::MAX;
        let spans = vec![
            span(0, none, Layer::Engine, 0, 100),
            span(1, 0, Layer::Vfs, 10, 60),
            // Two NAND leaves overlapping each other, one running past its parent.
            span(2, 1, Layer::Nand, 20, 50),
            span(3, 1, Layer::Nand, 40, 80),
        ];
        let got = sim_self_by_layer(&spans, 0);
        assert_eq!(got.engine_ns, 50);
        // Children cover [20, 60) of the 50 ns VFS span.
        assert_eq!(got.vfs_ns, 10);
        assert_eq!(got.nand_ns, 30 + 40);
        assert_eq!(got.spans, 4);
        let shares: f64 = [got.engine_ns, got.vfs_ns, got.ftl_ns, got.nand_ns]
            .iter()
            .map(|&n| got.share(n))
            .sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_before_the_window_are_ignored() {
        let spans = vec![
            span(0, u32::MAX, Layer::Ftl, 0, 10),
            span(1, u32::MAX, Layer::Ftl, 100, 130),
        ];
        let got = sim_self_by_layer(&spans, 50);
        assert_eq!((got.ftl_ns, got.spans), (30, 1));
    }

    #[test]
    fn probe_nests_device_calls_under_engine_spans() {
        let p = Probe::on();
        p.span(WallLayer::Engine, "get", || {
            p.device_call(CmdClass::Read, "read", || 7, || ());
        });
        let t = p.take().unwrap();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.class[CmdClass::Read as usize].calls, 1);
        assert_eq!(t.read_sim_ns, vec![0]);
        assert!(Probe::off().take().is_none());
    }
}
