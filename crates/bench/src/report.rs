//! Machine-readable bench reports and the hand-rolled JSON-lines writer.
//!
//! The code uses no serialisation crate, so serialisation here is manual:
//! one JSON object per line, written by [`BenchReport::to_json_line`] and
//! bundled into a `BENCH_*.json` file by [`render_json_lines`]. The format is grep-able on
//! purpose — CI checks suite coverage with a plain substring match.

use crate::stats;

/// Summary statistics of one benchmark, ready for the perf trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite the benchmark belongs to (one of the seven registered suites).
    pub suite: String,
    /// Benchmark name, unique within its suite.
    pub benchmark: String,
    /// Number of recorded samples kept after outlier rejection.
    pub samples: usize,
    /// Closure iterations batched into each sample.
    pub iters: u64,
    /// Median per-iteration wall time (µs) over the kept samples.
    pub median_us: f64,
    /// 95th-percentile per-iteration wall time (µs).
    pub p95_us: f64,
    /// 99th-percentile per-iteration wall time (µs).
    pub p99_us: f64,
    /// Mean per-iteration wall time (µs) over the kept samples.
    pub mean_us: f64,
    /// Samples rejected by the MAD filter (preemptions, page faults, …).
    pub outliers_dropped: usize,
}

impl BenchReport {
    /// Summarise raw per-iteration sample times (µs): reject outliers beyond
    /// `mad_k` MAD-derived standard deviations, then take robust quantiles
    /// over the kept samples.
    pub fn from_samples(
        suite: impl Into<String>,
        benchmark: impl Into<String>,
        per_iter_us: &[f64],
        iters: u64,
        mad_k: f64,
    ) -> BenchReport {
        let (kept, dropped) = stats::reject_outliers(per_iter_us, mad_k);
        let sorted = stats::sorted_copy(&kept);
        BenchReport {
            suite: suite.into(),
            benchmark: benchmark.into(),
            samples: kept.len(),
            iters,
            median_us: stats::quantile(&sorted, 0.5),
            p95_us: stats::quantile(&sorted, 0.95),
            p99_us: stats::quantile(&sorted, 0.99),
            mean_us: stats::mean(&kept),
            outliers_dropped: dropped,
        }
    }

    /// One JSON object, no trailing newline.
    pub fn to_json_line(&self) -> String {
        format!(
            concat!(
                "{{\"suite\":\"{}\",\"benchmark\":\"{}\",\"samples\":{},\"iters\":{},",
                "\"median_us\":{},\"p95_us\":{},\"p99_us\":{},\"mean_us\":{},",
                "\"outliers_dropped\":{}}}"
            ),
            escape_json(&self.suite),
            escape_json(&self.benchmark),
            self.samples,
            self.iters,
            json_number(self.median_us),
            json_number(self.p95_us),
            json_number(self.p99_us),
            json_number(self.mean_us),
            self.outliers_dropped,
        )
    }
}

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
/// file stays parseable (and so CI's finite-median check fails visibly).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Render the consolidated `BENCH_*.json`: a schema/seed header line followed
/// by one report per line.
pub fn render_json_lines(seed: u64, mode: &str, reports: &[BenchReport]) -> String {
    let mut suites: Vec<&str> = Vec::new();
    for report in reports {
        if !suites.contains(&report.suite.as_str()) {
            suites.push(&report.suite);
        }
    }
    let suite_list = suites
        .iter()
        .map(|s| format!("\"{}\"", escape_json(s)))
        .collect::<Vec<_>>()
        .join(",");
    let mut out = format!(
        "{{\"schema\":\"apparate-bench/v1\",\"seed\":{seed},\"mode\":\"{}\",\"suites\":[{suite_list}]}}\n",
        escape_json(mode),
    );
    for report in reports {
        out.push_str(&report.to_json_line());
        out.push('\n');
    }
    out
}

/// Render a human-readable summary table of the reports.
pub fn render_table(reports: &[BenchReport]) -> String {
    let mut out = format!(
        "{:<13} {:<40} {:>7} {:>8} {:>13} {:>13} {:>13} {:>8}\n",
        "suite", "benchmark", "iters", "samples", "median_us", "p95_us", "mean_us", "dropped"
    );
    for r in reports {
        out.push_str(&format!(
            "{:<13} {:<40} {:>7} {:>8} {:>13.3} {:>13.3} {:>13.3} {:>8}\n",
            r.suite,
            r.benchmark,
            r.iters,
            r.samples,
            r.median_us,
            r.p95_us,
            r.mean_us,
            r.outliers_dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn escaping_round_trips_hostile_field_values() {
        let hostile = "quote \" backslash \\ newline \n tab \t bell \u{7} unicode µs";
        let escaped = escape_json(hostile);
        assert!(!escaped.contains('\n'), "escaped text stays on one line");
        assert_eq!(unescape_json(&escaped), hostile);
    }

    #[test]
    fn json_line_contains_every_field_and_escapes_names() {
        let report = BenchReport {
            suite: "tun\"ing".to_string(),
            benchmark: "greedy\\tune".to_string(),
            samples: 31,
            iters: 4,
            median_us: 123.5,
            p95_us: 140.25,
            p99_us: 151.0,
            mean_us: 125.125,
            outliers_dropped: 2,
        };
        let line = report.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"suite\":\"tun\\\"ing\""));
        assert!(line.contains("\"benchmark\":\"greedy\\\\tune\""));
        assert!(line.contains("\"samples\":31"));
        assert!(line.contains("\"iters\":4"));
        assert!(line.contains("\"median_us\":123.5"));
        assert!(line.contains("\"p95_us\":140.25"));
        assert!(line.contains("\"p99_us\":151"));
        assert!(line.contains("\"mean_us\":125.125"));
        assert!(line.contains("\"outliers_dropped\":2"));
    }

    #[test]
    fn non_finite_stats_serialise_as_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(0.25), "0.25");
    }

    #[test]
    fn from_samples_summarises_and_drops_the_spike() {
        let mut samples: Vec<f64> = (0..30).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        samples.push(1_000.0);
        let report = BenchReport::from_samples("s", "b", &samples, 7, 5.0);
        assert_eq!(report.outliers_dropped, 1);
        assert_eq!(report.samples, 30);
        assert_eq!(report.iters, 7);
        assert!(report.median_us >= 10.0 && report.median_us <= 10.5);
        assert!(report.p95_us <= 10.5);
        assert!(report.mean_us < 11.0, "spike must not pollute the mean");
    }

    #[test]
    fn render_json_lines_has_header_plus_one_line_per_report() {
        let report = BenchReport::from_samples("tuning", "x", &[1.0, 2.0, 3.0], 1, 5.0);
        let text = render_json_lines(42, "quick", &[report.clone(), report]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"apparate-bench/v1\""));
        assert!(lines[0].contains("\"seed\":42"));
        assert!(lines[0].contains("\"suites\":[\"tuning\"]"));
        assert!(lines[1].contains("\"suite\":\"tuning\""));
    }
}
