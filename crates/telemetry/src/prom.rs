//! Prometheus-style text exposition of a telemetry [`Snapshot`].
//!
//! Output follows the exposition format conventions (HELP/TYPE comments,
//! cumulative `_bucket{le=...}` histogram series) closely enough for a real
//! scraper, while staying a plain deterministic string for tests.

use crate::hist::{bucket_upper_bound, Histogram};
use crate::metric::{Kind, Value};
use crate::Snapshot;
use std::fmt::{Display, Write as _};

/// One open family: its `# HELP` / `# TYPE` header is written, `put`
/// writes its sample lines.
struct Family<'a> {
    out: &'a mut String,
    name: &'a str,
}

fn family<'a>(out: &'a mut String, name: &'a str, help: &str, kind: &str) -> Family<'a> {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    Family { out, name }
}

impl Family<'_> {
    fn put(&mut self, labels: &[(&str, &str)], value: &dyn Display) {
        sample(self.out, self.name, labels, value)
    }
}

/// One sample line, `name{key="value",…} value`. The only place a label is
/// rendered. Label values are op-class names, bucket bounds and
/// channel/way numbers, none of which holds a character the exposition
/// format escapes.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &dyn Display) {
    out.push_str(name);
    for (i, (key, val)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{key}=\"{val}\"");
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Render a snapshot as Prometheus exposition text.
pub fn render(snap: &Snapshot) -> String {
    let mut text = String::new();
    let out = &mut text;

    if snap.ops.iter().any(|o| !o.hist.is_empty()) {
        let help = "Simulated command latency per op class.";
        family(out, "share_op_latency_ns", help, "histogram");
        for o in &snap.ops {
            if !o.hist.is_empty() {
                render_hist(out, o.op.name(), &o.hist);
            }
        }
    }

    // Every device scalar: one loop over the rows the device declared.
    for m in &snap.metrics {
        let kind = if m.kind == Kind::Counter { "counter" } else { "gauge" };
        let mut f = family(out, m.name, m.help, kind);
        match &m.value {
            Value::U64(v) => f.put(&[], v),
            Value::F64(v) => f.put(&[], v),
        }
    }

    if !snap.units.is_empty() {
        let ids: Vec<(String, String)> =
            snap.units.iter().map(|u| (u.channel.to_string(), u.way.to_string())).collect();
        let help = "Simulated busy time per NAND channel/way.";
        let mut f = family(out, "share_unit_busy_ns_total", help, "counter");
        for (u, (ch, way)) in snap.units.iter().zip(&ids) {
            f.put(&[("channel", ch), ("way", way)], &u.busy_ns);
        }
        if snap.now_ns > 0 {
            let help = "Busy fraction of simulated time per NAND channel/way.";
            let mut f = family(out, "share_unit_utilization", help, "gauge");
            for (u, (ch, way)) in snap.units.iter().zip(&ids) {
                f.put(&[("channel", ch), ("way", way)], &(u.busy_ns as f64 / snap.now_ns as f64));
            }
        }
    }
    text
}

/// Why a exposition line could not be read back as a sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleParseError {
    /// The line is a comment (`# HELP` / `# TYPE`) or blank — no sample.
    NotASample,
    /// The line has no value field after its metric name.
    MissingValue,
    /// The value field is not an unsigned integer.
    BadValue(String),
}

impl std::fmt::Display for SampleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleParseError::NotASample => write!(f, "line is a comment or blank"),
            SampleParseError::MissingValue => write!(f, "line has no value field"),
            SampleParseError::BadValue(v) => write!(f, "value {v:?} is not an unsigned integer"),
        }
    }
}

impl std::error::Error for SampleParseError {}

/// Read the integer value off one exposition sample line, tolerating
/// leading/trailing whitespace and multiple spaces between fields.
///
/// `line.rsplit(' ').next().unwrap().parse().unwrap()` — the obvious
/// one-liner — panics on a line with a trailing space (the final split
/// field is empty) and on comment lines; scrapers and tests should use
/// this instead and handle the error.
pub fn parse_sample_value(line: &str) -> Result<u64, SampleParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Err(SampleParseError::NotASample);
    }
    // A sample is `name[{labels}] value`; labels may contain spaces inside
    // quotes, so take the last whitespace-separated field as the value.
    let mut fields = trimmed.split_ascii_whitespace();
    let value = fields.next_back().ok_or(SampleParseError::MissingValue)?;
    if fields.next().is_none() {
        // Only one field: a bare metric name with no value.
        return Err(SampleParseError::MissingValue);
    }
    value.parse().map_err(|_| SampleParseError::BadValue(value.to_string()))
}

fn render_hist(out: &mut String, op: &str, h: &Histogram) {
    let mut cum = 0u64;
    for (k, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cum += n;
        let le = bucket_upper_bound(k).to_string();
        sample(out, "share_op_latency_ns_bucket", &[("op", op), ("le", &le)], &cum);
    }
    sample(out, "share_op_latency_ns_bucket", &[("op", op), ("le", "+Inf")], &h.count);
    sample(out, "share_op_latency_ns_sum", &[("op", op)], &h.sum);
    sample(out, "share_op_latency_ns_count", &[("op", op)], &h.count);
}

#[cfg(test)]
mod tests {
    use crate::{OpClass, Telemetry};

    #[test]
    fn renders_counters_and_histogram_series() {
        let mut t = Telemetry::default();
        t.record(OpClass::Write, 0, 100);
        t.record(OpClass::Write, 100, 500);
        t.record(OpClass::Gc, 500, 900);
        let text = t.snapshot().to_prometheus();

        assert!(text.contains("share_op_latency_ns_bucket{op=\"write\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("share_op_latency_ns_sum{op=\"write\"} 500\n"));
        assert!(text.contains("share_op_latency_ns_count{op=\"write\"} 2\n"));
        assert!(text.contains("share_op_latency_ns_count{op=\"gc\"} 1\n"));
        // Cumulative bucket counts are non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("share_op_latency_ns_bucket{op=\"write\"")) {
            let v = super::parse_sample_value(line).expect("bucket line parses");
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn parse_sample_value_handles_malformed_and_padded_lines() {
        use super::{parse_sample_value, SampleParseError};
        // Well-formed, with and without labels.
        assert_eq!(parse_sample_value("share_host_writes_total 3"), Ok(3));
        assert_eq!(parse_sample_value("share_op_latency_ns_count{op=\"write\"} 17"), Ok(17));
        // Whitespace padding must not panic or mis-parse (the old
        // `rsplit(' ').next().unwrap().parse().unwrap()` path panicked on a
        // trailing space because the last split field was empty).
        assert_eq!(parse_sample_value("share_host_writes_total 3 "), Ok(3));
        assert_eq!(parse_sample_value("  share_host_writes_total   42\t"), Ok(42));
        // Comments and blanks are not samples.
        assert_eq!(
            parse_sample_value("# TYPE share_host_writes_total counter"),
            Err(SampleParseError::NotASample)
        );
        assert_eq!(parse_sample_value("   "), Err(SampleParseError::NotASample));
        // A bare name has no value field.
        assert_eq!(parse_sample_value("share_host_writes_total"), Err(SampleParseError::MissingValue));
        // Garbage values report what they saw instead of panicking.
        assert_eq!(
            parse_sample_value("share_host_writes_total NaN"),
            Err(SampleParseError::BadValue("NaN".into()))
        );
        assert_eq!(
            parse_sample_value("share_host_writes_total -1"),
            Err(SampleParseError::BadValue("-1".into()))
        );
    }

    #[test]
    fn renders_device_rows_once_per_family() {
        use crate::{Metric, QueueGauges};
        let mut snap = Telemetry::default().snapshot();
        // Bare snapshot: no device rows at all.
        assert!(!snap.to_prometheus().contains("share_queue_"));
        snap.metrics =
            QueueGauges { depth: 16, inflight: 3, max_inflight: 9, submitted: 120, reaped: 117 }
                .rows();
        snap.metrics.push(Metric::ratio("share_wear_skew", "Skew.", 2.0));
        snap.metrics.push(Metric::ratio("share_wear_erases_mean", "Mean.", 15.8125));
        let text = snap.to_prometheus();
        assert!(text.contains("share_queue_depth 16\n"));
        assert!(text.contains("share_queue_inflight 3\n"));
        assert!(text.contains("share_queue_inflight_max 9\n"));
        assert!(text.contains(
            "# TYPE share_queue_submitted_total counter\nshare_queue_submitted_total 120\n"
        ));
        assert!(text.contains("share_queue_reaped_total 117\n"));
        assert_eq!(text.matches("# HELP share_queue_depth ").count(), 1);
        assert!(text.contains("share_wear_skew 2\n"));
        assert!(text.contains("share_wear_erases_mean 15.8125\n"));
    }

    #[test]
    fn every_exported_sample_reads_back() {
        let mut t = Telemetry::default();
        t.record(OpClass::Write, 0, 10);
        let text = t.snapshot().to_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            super::parse_sample_value(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
    }

    #[test]
    fn renders_unit_utilization() {
        use crate::UnitUtilization;
        let mut snap = Telemetry::default().snapshot();
        snap.units = vec![
            UnitUtilization { channel: 0, way: 0, busy_ns: 500 },
            UnitUtilization { channel: 1, way: 0, busy_ns: 250 },
        ];
        snap.now_ns = 1_000;
        let text = snap.to_prometheus();
        assert!(text.contains("share_unit_busy_ns_total{channel=\"0\",way=\"0\"} 500\n"));
        assert!(text.contains("share_unit_utilization{channel=\"1\",way=\"0\"} 0.25\n"));
    }

    #[test]
    fn counters_only_snapshot_has_no_histogram_block() {
        // A snapshot that recorded no command has no histogram family; the
        // first command brings it.
        let mut t = Telemetry::default();
        assert!(!t.snapshot().to_prometheus().contains("share_op_latency_ns"));
        t.record(OpClass::Read, 0, 10);
        let text = t.snapshot().to_prometheus();
        assert!(text.contains("share_op_latency_ns_count{op=\"read\"} 1\n"));
        assert!(!text.contains("{op=\"write\""));
    }
}
