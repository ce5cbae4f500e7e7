//! Causal span tracing: txn → VFS → FTL → NAND trace trees.
//!
//! A [`Tracer`] is a cheap cloneable handle to one shared trace buffer.
//! Every layer of the stack holds a clone: engines open a root span per
//! transaction/commit/compaction, the VFS opens a child span per file op,
//! the FTL opens a span per device command, and the NAND array attaches
//! per-channel/way leaf events carrying the *unit-accurate* busy-window
//! start/end times from its dispatch queue. Parent links come from a span
//! stack inside the buffer (the simulated drivers are single-threaded per
//! device). The buffer is behind a mutex because a handle outlives its
//! device and crosses threads: `share_bench`'s `YcsbResult::tracer` is
//! returned from `artifacts::on_every_core`'s worker threads, so `Tracer`
//! must be `Send`.
//!
//! Tracing is off by default: a [`Tracer::disabled`] handle is a no-op on
//! every path, and even an enabled tracer only ever *reads* clock values
//! its callers pass in — it never advances the simulated clock, so enabling
//! it cannot change any simulated result.
//!
//! Export formats:
//! * [`Tracer::chrome_json`] — Chrome `trace_event` JSON (`X` duration
//!   events on the `engine`, `vfs` and two FTL tracks of a `host` process
//!   and `ch:way` tracks of a `nand` process, with `M` metadata naming
//!   every pid/tid),
//!   loadable in `chrome://tracing` or Perfetto.
//! * [`Tracer::text_tree`] — a compact indented tree for tests and quick
//!   terminal inspection.

use crate::json::{count, num, s, Json};
use std::sync::{Arc, Mutex};

/// Stack layer a span was opened by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Database engine (transaction, commit, compaction, checkpoint).
    Engine,
    /// File system operation.
    Vfs,
    /// FTL device command or internal pass.
    Ftl,
    /// NAND array leaf operation (read/program/erase on one unit).
    Nand,
}

impl Layer {
    /// Stable export name (Chrome `cat` field, text-tree tag).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Vfs => "vfs",
            Layer::Ftl => "ftl",
            Layer::Nand => "nand",
        }
    }
}

/// The timeline track a span is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The `engine` thread of the host process.
    Engine,
    /// The `vfs` thread of the host process.
    Vfs,
    /// The `ftl:command` thread of the host process: the span of every
    /// host command the FTL runs.
    Command,
    /// The `ftl:internal` thread of the host process: the FTL's own passes
    /// (GC, log flush, checkpoint, recovery).
    Internal,
    /// One NAND unit's thread of the `nand` process.
    Unit {
        /// Channel index.
        channel: u32,
        /// Way index within the channel.
        way: u32,
    },
}

/// The host process's tracks, in tid order from 1.
const HOST_TRACKS: [Track; 4] = [Track::Engine, Track::Vfs, Track::Command, Track::Internal];

impl Track {
    /// Export name (Chrome thread name, text-tree tag).
    fn label(self) -> String {
        match self {
            Track::Engine => "engine".into(),
            Track::Vfs => "vfs".into(),
            Track::Command => "ftl:command".into(),
            Track::Internal => "ftl:internal".into(),
            Track::Unit { channel, way } => format!("ch{channel}:w{way}"),
        }
    }
}

/// Sentinel for "no parent" (root span).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One recorded span or leaf event.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dense id (index into the span vector).
    pub id: u32,
    /// Parent span id, or `u32::MAX` for roots.
    pub parent: u32,
    /// Which layer opened it.
    pub layer: Layer,
    /// Operation name (`commit`, `write_batch`, `program`, ...).
    pub name: String,
    /// Timeline track.
    pub track: Track,
    /// Simulated start time.
    pub start_ns: u64,
    /// Simulated end time (`== start_ns` until the span is ended).
    pub end_ns: u64,
    /// Pages touched (0 when not applicable).
    pub pages: u64,
    /// Whether the operation succeeded (leaf/command outcome).
    pub ok: bool,
}

/// Handle to an in-flight span; pass back to [`Tracer::end`].
///
/// A disabled tracer hands out [`SpanId::NONE`], which makes every
/// follow-up call a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The no-op span id handed out by disabled tracers.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<Span>,
    /// Open-span stack; the top is the parent of the next span.
    stack: Vec<u32>,
}

/// Cloneable tracing handle. `None` inside means tracing is disabled and
/// every method is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<TraceBuf>>>);

impl Tracer {
    /// An enabled tracer with a fresh buffer.
    pub fn enabled() -> Self {
        Tracer(Some(Arc::default()))
    }

    /// The no-op tracer.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, TraceBuf>> {
        self.0.as_ref().map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Open a span: it becomes the parent of everything recorded until the
    /// matching [`Tracer::end`].
    pub fn begin(&self, layer: Layer, name: &str, track: Track, start_ns: u64) -> SpanId {
        let Some(mut buf) = self.lock() else { return SpanId::NONE };
        let id = buf.spans.len() as u32;
        let parent = buf.stack.last().copied().unwrap_or(NO_PARENT);
        buf.spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            track,
            start_ns,
            end_ns: start_ns,
            pages: 0,
            ok: true,
        });
        buf.stack.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId, end_ns: u64, pages: u64, ok: bool) {
        if id == SpanId::NONE {
            return;
        }
        let Some(mut buf) = self.lock() else { return };
        if let Some(pos) = buf.stack.iter().rposition(|&x| x == id.0) {
            // Also drop anything opened above it that was never ended
            // (defensive: an error path that early-returned mid-span).
            buf.stack.truncate(pos);
        }
        if let Some(span) = buf.spans.get_mut(id.0 as usize) {
            span.end_ns = end_ns.max(span.start_ns);
            span.pages = pages;
            span.ok = ok;
        }
    }

    /// Attach a leaf event (no children) to the currently open span.
    /// Used by the NAND array for per-unit read/program/erase windows.
    pub fn leaf(
        &self,
        layer: Layer,
        name: &str,
        track: Track,
        start_ns: u64,
        end_ns: u64,
        pages: u64,
        ok: bool,
    ) {
        let Some(mut buf) = self.lock() else { return };
        let id = buf.spans.len() as u32;
        let parent = buf.stack.last().copied().unwrap_or(NO_PARENT);
        buf.spans.push(Span {
            id,
            parent,
            layer,
            name: name.to_string(),
            track,
            start_ns,
            end_ns: end_ns.max(start_ns),
            pages,
            ok,
        });
    }

    /// Copy of every span recorded so far (tests, custom exports).
    pub fn spans(&self) -> Vec<Span> {
        self.lock().map(|b| b.spans.clone()).unwrap_or_default()
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().map(|b| b.spans.len()).unwrap_or(0)
    }

    /// Export as a Chrome `trace_event` JSON document (`None` when
    /// disabled). Times are exported as fractional microseconds so the
    /// nanosecond sim clock loses nothing.
    pub fn chrome_json(&self) -> Option<Json> {
        let buf = self.lock()?;
        const PID_HOST: u64 = 1;
        const PID_NAND: u64 = 2;
        // tid layout inside the host process: the fixed tracks in
        // `HOST_TRACKS` order from 1. Inside the nand process: 1 + dense
        // index of each (channel, way) pair seen, sorted.
        let mut units: Vec<(u32, u32)> = Vec::new();
        for sp in &buf.spans {
            if let Track::Unit { channel, way } = sp.track {
                if !units.contains(&(channel, way)) {
                    units.push((channel, way));
                }
            }
        }
        units.sort_unstable();

        let tid_of = |track: Track| -> (u64, u64) {
            match track {
                Track::Unit { channel, way } => {
                    let idx =
                        units.iter().position(|&u| u == (channel, way)).unwrap_or(0) as u64;
                    (PID_NAND, 1 + idx)
                }
                host => {
                    let idx = HOST_TRACKS.iter().position(|&t| t == host);
                    (PID_HOST, 1 + idx.expect("every other track is a host track") as u64)
                }
            }
        };

        let mut events: Vec<Json> = Vec::new();
        let meta = |name: &str, pid: u64, tid: Option<u64>, label: &str| -> Json {
            let mut fields = vec![
                ("name".to_string(), s(name)),
                ("ph".to_string(), s("M")),
                ("pid".to_string(), count(pid)),
            ];
            if let Some(t) = tid {
                fields.push(("tid".to_string(), count(t)));
            }
            fields.push((
                "args".to_string(),
                Json::obj(vec![("name", s(label))]),
            ));
            Json::Obj(fields)
        };
        events.push(meta("process_name", PID_HOST, None, "host"));
        events.push(meta("process_name", PID_NAND, None, "nand"));
        for (tid, track) in (1..).zip(HOST_TRACKS) {
            events.push(meta("thread_name", PID_HOST, Some(tid), &track.label()));
        }
        for (i, &(ch, way)) in units.iter().enumerate() {
            events.push(meta(
                "thread_name",
                PID_NAND,
                Some(1 + i as u64),
                &format!("ch{ch}:w{way}"),
            ));
        }

        // X events sorted by start time (then id) so ts is monotonic.
        let mut order: Vec<usize> = (0..buf.spans.len()).collect();
        order.sort_by_key(|&i| (buf.spans[i].start_ns, buf.spans[i].id));
        for i in order {
            let sp = &buf.spans[i];
            let (pid, tid) = tid_of(sp.track);
            let mut args = vec![
                ("id", count(sp.id as u64)),
                ("pages", count(sp.pages)),
                ("ok", Json::Bool(sp.ok)),
            ];
            if sp.parent != NO_PARENT {
                args.push(("parent", count(sp.parent as u64)));
            }
            events.push(Json::obj(vec![
                ("name", s(&sp.name)),
                ("cat", s(sp.layer.name())),
                ("ph", s("X")),
                ("ts", num(sp.start_ns as f64 / 1000.0)),
                ("dur", num((sp.end_ns - sp.start_ns) as f64 / 1000.0)),
                ("pid", count(pid)),
                ("tid", count(tid)),
                ("args", Json::obj(args)),
            ]));
        }
        Some(Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", s("ns")),
        ]))
    }

    /// Export as a compact indented text tree (empty string when disabled).
    pub fn text_tree(&self) -> String {
        let Some(buf) = self.lock() else { return String::new() };
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); buf.spans.len()];
        let mut roots: Vec<u32> = Vec::new();
        for sp in &buf.spans {
            if sp.parent == NO_PARENT {
                roots.push(sp.id);
            } else {
                children[sp.parent as usize].push(sp.id);
            }
        }
        let mut out = String::new();
        let mut stack: Vec<(u32, usize)> = roots.iter().rev().map(|&r| (r, 0)).collect();
        while let Some((id, depth)) = stack.pop() {
            let sp = &buf.spans[id as usize];
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{} [{} {}] {}..{} pages={}{}\n",
                sp.name,
                sp.layer.name(),
                sp.track.label(),
                sp.start_ns,
                sp.end_ns,
                sp.pages,
                if sp.ok { "" } else { " ERR" },
            ));
            for &c in children[id as usize].iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.begin(Layer::Engine, "commit", Track::Engine, 0);
        assert_eq!(id, SpanId::NONE);
        t.end(id, 100, 1, true);
        t.leaf(Layer::Nand, "program", Track::Unit { channel: 0, way: 0 }, 0, 10, 1, true);
        assert_eq!(t.span_count(), 0);
        assert!(t.chrome_json().is_none());
        assert_eq!(t.text_tree(), "");
    }

    #[test]
    fn spans_nest_via_the_stack() {
        let t = Tracer::enabled();
        let root = t.begin(Layer::Engine, "commit", Track::Engine, 0);
        let vfs = t.begin(Layer::Vfs, "write_pages", Track::Vfs, 10);
        let ftl = t.begin(Layer::Ftl, "write_batch", Track::Command, 20);
        t.leaf(Layer::Nand, "program", Track::Unit { channel: 1, way: 0 }, 30, 40, 1, true);
        t.end(ftl, 50, 4, true);
        t.end(vfs, 60, 4, true);
        t.end(root, 70, 4, true);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 2); // leaf hangs off the ftl span
        assert_eq!(spans[3].layer, Layer::Nand);
        assert_eq!(spans[0].end_ns, 70);
        // A sibling after the root closes is itself a root.
        let next = t.begin(Layer::Engine, "commit", Track::Engine, 80);
        t.end(next, 90, 0, true);
        assert_eq!(t.spans()[4].parent, NO_PARENT);
    }

    #[test]
    fn end_unwinds_abandoned_children() {
        let t = Tracer::enabled();
        let root = t.begin(Layer::Ftl, "write", Track::Command, 0);
        let _orphan = t.begin(Layer::Nand, "program", Track::Unit { channel: 0, way: 0 }, 1);
        // The orphan is never ended (error path); ending the root must
        // still pop it so the next root has no bogus parent.
        t.end(root, 10, 1, false);
        let after = t.begin(Layer::Ftl, "read", Track::Command, 20);
        t.end(after, 30, 1, true);
        assert_eq!(t.spans()[2].parent, NO_PARENT);
        assert!(!t.spans()[0].ok);
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let t = Tracer::enabled();
        let root = t.begin(Layer::Ftl, "write", Track::Command, 1_500);
        t.leaf(Layer::Nand, "program", Track::Unit { channel: 0, way: 0 }, 2_000, 802_000, 1, true);
        t.end(root, 802_000, 1, true);
        let doc = t.chrome_json().unwrap();
        let text = doc.render();
        let back = crate::json::parse(&text).expect("chrome json parses");
        let events = match back.get("traceEvents") {
            Some(Json::Arr(evs)) => evs,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        // Metadata names both processes, the four fixed host threads (used
        // or not) and the used unit track.
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        let names: Vec<&str> = metas
            .iter()
            .filter_map(|m| m.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
            .collect();
        assert_eq!(
            names,
            ["host", "nand", "engine", "vfs", "ftl:command", "ftl:internal", "ch0:w0"]
        );
        // X events: monotonic ts, non-negative dur, fractional-µs precision.
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        let ts: Vec<f64> = xs.iter().filter_map(|e| e.get("ts").and_then(Json::as_f64)).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts[0], 1.5); // 1500 ns = 1.5 µs survives exactly
        // The leaf's parent arg points at the ftl span's id.
        assert_eq!(
            xs[1].get("args").and_then(|a| a.get("parent")).and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn text_tree_indents_children() {
        let t = Tracer::enabled();
        let root = t.begin(Layer::Engine, "commit", Track::Engine, 0);
        let child = t.begin(Layer::Ftl, "write", Track::Command, 5);
        t.end(child, 9, 1, true);
        t.end(root, 10, 1, true);
        let tree = t.text_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("commit [engine engine] 0..10"));
        assert!(lines[1].starts_with("  write [ftl ftl:command] 5..9"));
    }
}
