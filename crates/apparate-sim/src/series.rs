//! Time-series recording and chunked aggregation.
//!
//! Apparate's adaptation loops reason about fixed-size windows of requests: a
//! 16-sample accuracy window for threshold tuning and 128-sample periods for
//! ramp adjustment, while the paper's workload analysis uses 64-request chunks
//! (Figure 5, Table 1). [`ChunkSeries`] provides exactly that view, and
//! [`TimeSeries`] records `(time, value)` pairs for latency-over-time plots.

use crate::stats::{OnlineStats, Percentiles};
use crate::time::SimTime;

/// A `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point. Times should be non-decreasing; this is not enforced,
    /// but aggregation assumes it.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// All recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Just the values, in recording order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }

    /// Percentile summary of the values.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::from_samples(&self.values())
    }

    /// Mean of the values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

/// Aggregates a stream of scalar observations into fixed-size chunks.
///
/// Each completed chunk exposes its [`OnlineStats`]; the partially filled tail
/// chunk is reported separately.
#[derive(Debug, Clone)]
pub struct ChunkSeries {
    chunk_size: usize,
    completed: Vec<OnlineStats>,
    current: OnlineStats,
    current_len: usize,
}

impl ChunkSeries {
    /// Create a series that aggregates every `chunk_size` observations.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunkSeries {
            chunk_size,
            completed: Vec::new(),
            current: OnlineStats::new(),
            current_len: 0,
        }
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Record one observation.
    pub fn push(&mut self, value: f64) {
        self.current.push(value);
        self.current_len += 1;
        if self.current_len == self.chunk_size {
            let full = std::mem::replace(&mut self.current, OnlineStats::new());
            self.completed.push(full);
            self.current_len = 0;
        }
    }

    /// Statistics of every completed chunk, in order.
    pub fn completed_chunks(&self) -> &[OnlineStats] {
        &self.completed
    }

    /// Statistics of the partially filled tail chunk, if non-empty.
    pub fn partial_chunk(&self) -> Option<&OnlineStats> {
        (self.current_len > 0).then_some(&self.current)
    }

    /// Per-chunk means, completed chunks only.
    pub fn chunk_means(&self) -> Vec<f64> {
        self.completed.iter().map(|s| s.mean()).collect()
    }

    /// Total observations pushed so far.
    pub fn total_count(&self) -> usize {
        self.completed.len() * self.chunk_size + self.current_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_records_and_summarises() {
        let mut ts = TimeSeries::new();
        for i in 0..10u64 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        assert_eq!(ts.len(), 10);
        assert!((ts.mean() - 4.5).abs() < 1e-12);
        assert!((ts.percentiles().p50 - 4.5).abs() < 1e-12);
        assert_eq!(ts.values().len(), 10);
    }

    #[test]
    fn empty_time_series_is_safe() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.percentiles().count, 0);
    }

    #[test]
    fn chunk_series_splits_on_boundary() {
        let mut cs = ChunkSeries::new(4);
        for i in 0..10 {
            cs.push(i as f64);
        }
        assert_eq!(cs.completed_chunks().len(), 2);
        assert_eq!(cs.total_count(), 10);
        let means = cs.chunk_means();
        assert!((means[0] - 1.5).abs() < 1e-12);
        assert!((means[1] - 5.5).abs() < 1e-12);
        let partial = cs.partial_chunk().expect("partial chunk exists");
        assert_eq!(partial.count(), 2);
    }

    #[test]
    fn chunk_series_exact_multiple_has_no_partial() {
        let mut cs = ChunkSeries::new(2);
        cs.push(1.0);
        cs.push(3.0);
        assert_eq!(cs.completed_chunks().len(), 1);
        assert!(cs.partial_chunk().is_none());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = ChunkSeries::new(0);
    }
}
