//! In-run observability for the Apparate reproduction: a sim-time-stamped
//! structured event trace, a sampled metrics registry, and hand-rolled
//! JSON-lines / chrome://tracing exporters.
//!
//! Every number the repro prints elsewhere is an end-of-run aggregate; this
//! crate captures the *dynamics* the paper's figures are actually about —
//! when a ramp flipped, when a `ThresholdUpdate` landed, how a replica's
//! queue evolved over simulated time. Three pieces:
//!
//! - [`Telemetry`]: the cheap, cloneable handle the serving platform, the
//!   controller halves and the link senders hold. [`Telemetry::disabled`]
//!   is a zero-cost no-op (`Option`-dispatched, not boxed-dyn), so vanilla
//!   runs stay byte-identical; [`Telemetry::recording`] shares one bounded
//!   recorder between all clones.
//! - [`TraceEvent`] / [`EventKind`]: ramp activations and deactivations,
//!   `ThresholdUpdate` issues and deliveries, stale-epoch record drops,
//!   dispatch decisions, batch formations, SLO violations and link messages,
//!   held in a drop-oldest ring that reports its drop count (never a silent
//!   cap).
//! - The metrics registry: gauges sampled on a configurable sim-time
//!   interval into per-replica time series (queue depth, batch size, rolling
//!   exit rate, link in-flight, active ramp count), plus counters and
//!   power-of-two histograms.
//!
//! Exports are deliberately dependency-free: [`render_trace_json_lines`] and
//! [`render_metrics_json_lines`] write grep-able JSON-lines, and
//! [`render_chrome_trace`] dumps span-shaped events (batches, link
//! messages) in the chrome://tracing event format.
//!
//! ```
//! use apparate_sim::SimTime;
//! use apparate_telemetry::{EventKind, Telemetry, TelemetryConfig};
//!
//! let telemetry = Telemetry::recording(TelemetryConfig::default());
//! telemetry.emit(SimTime::from_millis(3), || EventKind::BatchFormed {
//!     size: 8,
//!     queue_depth: 2,
//!     gpu_us: 900,
//! });
//! telemetry.gauge(SimTime::from_millis(3), "queue_depth", 2.0);
//! let snapshot = telemetry.snapshot().unwrap();
//! assert_eq!(snapshot.count_kind("batch-formed"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod recorder;

pub use event::{EventKind, LinkDirection, TraceEvent};
pub use export::{
    escape_json, json_number, render_chrome_trace, render_metrics_json_lines,
    render_trace_json_lines,
};
pub use recorder::{
    CounterData, HistogramData, SeriesData, Telemetry, TelemetryConfig, TelemetrySnapshot,
    HISTOGRAM_BOUNDS,
};
