//! Metric summaries and baseline comparisons.
//!
//! The paper's headline numbers are *latency wins*: the percentage reduction
//! in a latency percentile relative to vanilla serving, under unchanged
//! throughput and an accuracy constraint. This module turns raw
//! [`ServingOutcome`]s / [`GenerativeOutcome`]s into those summaries.

use crate::generative::GenerativeOutcome;
use crate::platform::ServingOutcome;
use apparate_sim::stats::percent_improvement;
use apparate_sim::{Cdf, Percentiles};

/// Latency + accuracy + throughput summary of one serving run.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Which policy produced it.
    pub policy: String,
    /// Latency percentiles in milliseconds.
    pub latency_ms: Percentiles,
    /// Accuracy relative to the original model.
    pub accuracy: f64,
    /// Throughput in requests (or tokens) per second.
    pub throughput: f64,
    /// Mean batch size.
    pub mean_batch_size: f64,
    /// SLO violation rate: response SLO for classification runs, TBT SLO for
    /// generative runs.
    pub slo_violation_rate: f64,
    /// Fraction of results that exited early.
    pub exit_rate: f64,
}

impl LatencySummary {
    /// Summarise a classification serving outcome.
    pub fn from_outcome(policy: impl Into<String>, outcome: &ServingOutcome) -> LatencySummary {
        LatencySummary {
            policy: policy.into(),
            latency_ms: Percentiles::from_samples(&outcome.latencies_ms()),
            accuracy: outcome.accuracy(),
            throughput: outcome.throughput_rps(),
            mean_batch_size: outcome.mean_batch_size(),
            slo_violation_rate: outcome.slo_violation_rate(),
            exit_rate: outcome.exit_rate(),
        }
    }

    /// Summarise a generative outcome (latencies are per-token).
    pub fn from_generative(
        policy: impl Into<String>,
        outcome: &GenerativeOutcome,
    ) -> LatencySummary {
        LatencySummary {
            policy: policy.into(),
            latency_ms: Percentiles::from_samples(&outcome.tpt_ms()),
            accuracy: outcome.sequence_accuracy(),
            throughput: outcome.tokens_per_second(),
            mean_batch_size: outcome.mean_batch_size(),
            slo_violation_rate: outcome.slo_violation_rate(),
            exit_rate: outcome.exit_rate(),
        }
    }
}

/// Percentage latency wins of a system against a baseline, at the percentiles
/// the paper reports.
#[derive(Debug, Clone, Copy)]
pub struct LatencyWins {
    /// Win at the 25th percentile (%).
    pub p25: f64,
    /// Win at the median (%).
    pub p50: f64,
    /// Win at the 95th percentile (%); negative values indicate added tail latency.
    pub p95: f64,
    /// Win on the mean (%).
    pub mean: f64,
}

impl LatencyWins {
    /// Compute wins of `system` over `baseline`.
    pub fn of(baseline: &LatencySummary, system: &LatencySummary) -> LatencyWins {
        LatencyWins {
            p25: percent_improvement(baseline.latency_ms.p25, system.latency_ms.p25),
            p50: percent_improvement(baseline.latency_ms.p50, system.latency_ms.p50),
            p95: percent_improvement(baseline.latency_ms.p95, system.latency_ms.p95),
            mean: percent_improvement(baseline.latency_ms.mean, system.latency_ms.mean),
        }
    }
}

/// Latency CDF of an outcome, for CDF-style figures (2, 4, 14, 16).
pub fn latency_cdf(outcome: &ServingOutcome) -> Cdf {
    Cdf::from_samples(&outcome.latencies_ms())
}

/// TPT CDF of a generative outcome.
pub fn tpt_cdf(outcome: &GenerativeOutcome) -> Cdf {
    Cdf::from_samples(&outcome.tpt_ms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::BatchingPolicy;
    use crate::platform::{ServingConfig, ServingSimulator, VanillaPolicy};
    use crate::traces::ArrivalTrace;
    use apparate_exec::SampleSemantics;
    use apparate_sim::SimDuration;

    fn exec_time(b: u32) -> SimDuration {
        SimDuration::from_millis(10 + 2 * b as u64)
    }

    fn run_once() -> ServingOutcome {
        let trace = ArrivalTrace::fixed_rate(50, 20.0);
        let samples: Vec<SampleSemantics> = (0..50).map(|i| SampleSemantics::new(i, 0.5)).collect();
        let sim = ServingSimulator::new(ServingConfig {
            policy: BatchingPolicy::Immediate,
            slo: None,
        });
        let mut policy = VanillaPolicy::new(exec_time);
        sim.run(&trace, &samples, &mut policy, &exec_time)
    }

    #[test]
    fn summary_reflects_outcome() {
        let outcome = run_once();
        let summary = LatencySummary::from_outcome("vanilla", &outcome);
        assert_eq!(summary.policy, "vanilla");
        assert!(summary.latency_ms.p50 > 0.0);
        assert!(summary.accuracy >= 1.0 - 1e-12);
        assert!(summary.throughput > 0.0);
        assert_eq!(summary.exit_rate, 0.0);
    }

    #[test]
    fn wins_are_zero_against_self_and_positive_against_slower() {
        let outcome = run_once();
        let summary = LatencySummary::from_outcome("vanilla", &outcome);
        let self_wins = LatencyWins::of(&summary, &summary);
        assert!(self_wins.p50.abs() < 1e-9);
        let mut slower = summary.clone();
        slower.latency_ms.p50 *= 2.0;
        slower.latency_ms.p25 *= 2.0;
        let wins = LatencyWins::of(&slower, &summary);
        assert!((wins.p50 - 50.0).abs() < 1e-9);
        assert!((wins.p25 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone() {
        let outcome = run_once();
        let cdf = latency_cdf(&outcome);
        let points = cdf.points();
        assert!(points
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
    }
}
