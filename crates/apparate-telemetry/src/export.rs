//! Hand-rolled exporters: JSON-lines for the trace and the metrics series,
//! and a chrome://tracing-compatible dump for span-shaped events.
//!
//! The code uses no serialisation crate, so serialisation is manual — the
//! same idiom `crates/bench/src/report.rs` uses for `BENCH_apparate.json`.
//! Files are grep-able on purpose: CI validates required event kinds with plain
//! substring matches.

use crate::event::EventKind;
use crate::recorder::{TelemetrySnapshot, HISTOGRAM_BOUNDS};

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number; non-finite values become `null` so the
/// file stays parseable.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
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
        out.push_str(&event.to_json_line());
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
    for series in &snapshot.series {
        for (at_us, value) in &series.points {
            out.push_str(&format!(
                "{{\"series\":\"{}\",\"replica\":{},\"at_us\":{},\"value\":{}}}\n",
                escape_json(&series.name),
                series.replica,
                at_us,
                json_number(*value),
            ));
        }
    }
    for counter in &snapshot.counters {
        out.push_str(&format!(
            "{{\"counter\":\"{}\",\"replica\":{},\"value\":{}}}\n",
            escape_json(&counter.name),
            counter.replica,
            counter.value,
        ));
    }
    for hist in &snapshot.histograms {
        let bounds = HISTOGRAM_BOUNDS
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let counts = hist
            .counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            concat!(
                "{{\"histogram\":\"{}\",\"replica\":{},\"bounds\":[{}],",
                "\"counts\":[{}],\"count\":{},\"sum\":{}}}\n"
            ),
            escape_json(&hist.name),
            hist.replica,
            bounds,
            counts,
            hist.count,
            json_number(hist.sum),
        ));
    }
    out
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
