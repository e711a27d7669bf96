//! Hand-rolled exporters: JSON-lines for the trace and the metrics series,
//! and a chrome://tracing-compatible dump for span-shaped events.
//!
//! The code uses no serialisation crate, so serialisation is manual — the
//! same idiom `crates/bench/src/report.rs` uses for `BENCH_apparate.json`.
//! Files are grep-able on purpose: CI validates required event kinds with plain
//! substring matches.

use crate::event::EventKind;
use crate::recorder::{TelemetrySnapshot, HISTOGRAM_BOUNDS};
use std::fmt::Write;

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped_json(&mut out, s);
    out
}

/// Append [`escape_json`]`(s)` to `out`.
pub(crate) fn write_escaped_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append [`json_number`]`(x)` to `out`.
fn write_json_number(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Render an `f64` as a JSON number; non-finite values become `null` so the
/// file stays parseable.
pub fn json_number(x: f64) -> String {
    let mut out = String::new();
    write_json_number(&mut out, x);
    out
}

/// Render the event trace as JSON-lines: a schema header carrying the
/// capture/drop accounting, then one event object per line in time order.
pub fn render_trace_json_lines(snapshot: &TelemetrySnapshot) -> String {
    let mut out = format!(
        "{{\"schema\":\"apparate-trace/v1\",\"events\":{},\"events_dropped\":{}}}\n",
        snapshot.events.len(),
        snapshot.events_dropped,
    );
    for event in &snapshot.events {
        event.write_json_line(&mut out);
        out.push('\n');
    }
    out
}

/// Render the metrics registry as JSON-lines: a schema header, then one line
/// per series point, one per counter total, and one per histogram.
pub fn render_metrics_json_lines(snapshot: &TelemetrySnapshot) -> String {
    let points: usize = snapshot.series.iter().map(|s| s.points.len()).sum();
    let mut out = format!(
        concat!(
            "{{\"schema\":\"apparate-metrics/v1\",\"series\":{},\"points\":{},",
            "\"points_dropped\":{},\"counters\":{},\"histograms\":{}}}\n"
        ),
        snapshot.series.len(),
        points,
        snapshot.series_points_dropped(),
        snapshot.counters.len(),
        snapshot.histograms.len(),
    );
    // Writing into a `String` cannot fail.
    for series in &snapshot.series {
        // Everything before `at_us` is the same on every point of a series.
        let mut head = String::from("{\"series\":\"");
        write_escaped_json(&mut head, &series.name);
        let _ = write!(head, "\",\"replica\":{},\"at_us\":", series.replica);
        for (at_us, value) in &series.points {
            out.push_str(&head);
            let _ = write!(out, "{at_us},\"value\":");
            write_json_number(&mut out, *value);
            out.push_str("}\n");
        }
    }
    for counter in &snapshot.counters {
        out.push_str("{\"counter\":\"");
        write_escaped_json(&mut out, &counter.name);
        let _ = writeln!(
            out,
            "\",\"replica\":{},\"value\":{}}}",
            counter.replica, counter.value,
        );
    }
    for hist in &snapshot.histograms {
        out.push_str("{\"histogram\":\"");
        write_escaped_json(&mut out, &hist.name);
        let _ = write!(out, "\",\"replica\":{},\"bounds\":[", hist.replica);
        write_joined(&mut out, &HISTOGRAM_BOUNDS);
        out.push_str("],\"counts\":[");
        write_joined(&mut out, &hist.counts);
        let _ = write!(out, "],\"count\":{},\"sum\":", hist.count);
        write_json_number(&mut out, hist.sum);
        out.push_str("}\n");
    }
    out
}

/// Append `xs`, comma-separated, in their `Display` form.
fn write_joined<T: std::fmt::Display>(out: &mut String, xs: &[T]) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
}

/// Render the span-shaped events (batches and link messages carry durations;
/// everything else becomes an instant) as a chrome://tracing JSON array —
/// load it via `chrome://tracing` or Perfetto. Replicas map to `pid`s.
pub fn render_chrome_trace(snapshot: &TelemetrySnapshot) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(snapshot.events.len());
    for event in &snapshot.events {
        let name = event.kind.kind_name();
        let ts = event.at.as_micros();
        let pid = event.replica;
        let entry = match &event.kind {
            EventKind::BatchFormed { size, gpu_us, .. } => format!(
                concat!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                    "\"pid\":{},\"tid\":0,\"args\":{{\"size\":{}}}}}"
                ),
                name, ts, gpu_us, pid, size,
            ),
            EventKind::LinkMessage {
                direction,
                bytes,
                latency_us,
            } => format!(
                concat!(
                    "{{\"name\":\"link-{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                    "\"pid\":{},\"tid\":1,\"args\":{{\"bytes\":{}}}}}"
                ),
                direction.as_str(),
                ts,
                latency_us,
                pid,
                bytes,
            ),
            _ => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":0,\"s\":\"p\"}}",
                name, ts, pid,
            ),
        };
        entries.push(entry);
    }
    format!("[{}]\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkDirection;
    use crate::recorder::{Telemetry, TelemetryConfig};
    use apparate_sim::SimTime;

    /// Test-side inverse of [`escape_json`], covering every escape the writer
    /// emits.
    fn unescape_json(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("valid \\u escape");
                    out.push(char::from_u32(code).expect("valid code point"));
                }
                other => panic!("unexpected escape: {other:?}"),
            }
        }
        out
    }

    fn recorded() -> TelemetrySnapshot {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        telemetry.emit(SimTime::from_micros(10), || EventKind::BatchFormed {
            size: 8,
            queue_depth: 2,
            gpu_us: 900,
        });
        telemetry.emit(SimTime::from_micros(910), || EventKind::LinkMessage {
            direction: LinkDirection::Up,
            bytes: 1024,
            latency_us: 425,
        });
        telemetry.emit(SimTime::from_micros(2_000), || EventKind::RampSetChanged {
            activated: vec![3],
            deactivated: vec![],
            active_count: 2,
        });
        telemetry.gauge(SimTime::from_micros(10), "queue_depth", 2.0);
        telemetry.counter("link_up_messages", 1);
        telemetry.observe("batch_size", 8.0);
        telemetry.snapshot().unwrap()
    }

    #[test]
    fn escaping_round_trips_hostile_values() {
        let hostile = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode µs";
        let escaped = escape_json(hostile);
        assert!(!escaped.contains('\n'), "escaped text stays on one line");
        assert_eq!(unescape_json(&escaped), hostile);
    }

    #[test]
    fn trace_export_has_header_plus_one_line_per_event() {
        let text = render_trace_json_lines(&recorded());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"apparate-trace/v1\""));
        assert!(lines[0].contains("\"events\":3"));
        assert!(lines[0].contains("\"events_dropped\":0"));
        assert!(lines[1].contains("\"kind\":\"batch-formed\""));
        assert!(lines[2].contains("\"kind\":\"link-message\""));
        assert!(lines[3].contains("\"kind\":\"ramp-set-changed\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn metrics_export_carries_points_counters_and_histograms() {
        let text = render_metrics_json_lines(&recorded());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"schema\":\"apparate-metrics/v1\""));
        assert!(text.contains("\"series\":\"queue_depth\""));
        assert!(text.contains("\"counter\":\"link_up_messages\""));
        assert!(text.contains("\"histogram\":\"batch_size\""));
        assert!(text.contains("\"count\":1"));
    }

    #[test]
    fn metrics_lines_match_their_literal_bytes() {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        telemetry.gauge(SimTime::from_micros(5), "q\"d", 2.5);
        telemetry.gauge(SimTime::from_micros(60_000_000), "q\"d", f64::NAN);
        telemetry.counter("batches", 3);
        telemetry.observe("batch_size", 8.0);
        let text = render_metrics_json_lines(&telemetry.snapshot().unwrap());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"schema":"apparate-metrics/v1","series":1,"points":2,"points_dropped":0,"counters":1,"histograms":1}"#,
                r#"{"series":"q\"d","replica":0,"at_us":5,"value":2.5}"#,
                r#"{"series":"q\"d","replica":0,"at_us":60000000,"value":null}"#,
                r#"{"counter":"batches","replica":0,"value":3}"#,
                concat!(
                    r#"{"histogram":"batch_size","replica":0,"bounds":[1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384,32768,65536],"#,
                    r#""counts":[0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":1,"sum":8}"#
                ),
            ]
        );
    }

    #[test]
    fn non_finite_values_export_as_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(0.25), "0.25");
    }

    #[test]
    fn chrome_trace_is_a_json_array_with_spans() {
        let text = render_chrome_trace(&recorded());
        assert!(text.starts_with('[') && text.trim_end().ends_with(']'));
        assert!(text.contains("\"ph\":\"X\""), "batches export as spans");
        assert!(text.contains("\"dur\":900"));
        assert!(text.contains("\"name\":\"link-up\""));
        assert!(text.contains("\"ph\":\"i\""), "ramp changes are instants");
    }
}
