//! Workload streams: ordered sequences of semantic samples.
//!
//! A workload in the paper is an ordered stream of requests whose *difficulty*
//! evolves over time — video frames with strong spatiotemporal continuity,
//! review streams with weaker continuity and regime changes (§4.2 discusses
//! exactly this contrast). Apparate's adaptation loops only ever see the
//! stream through the ramp observations, so the stream itself just carries the
//! per-sample [`SampleSemantics`].

use apparate_exec::SampleSemantics;

/// Which domain a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Real-time video object classification.
    Cv,
    /// NLP text classification (sentiment analysis).
    Nlp,
    /// Auto-regressive generation (summarisation / question answering).
    Generative,
}

/// An ordered classification workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (e.g. `"video-urban-day"`, `"amazon-reviews"`).
    pub name: String,
    /// Domain.
    pub domain: Domain,
    samples: Vec<SampleSemantics>,
}

impl Workload {
    /// Wrap a sample stream.
    pub fn new(name: impl Into<String>, domain: Domain, samples: Vec<SampleSemantics>) -> Workload {
        Workload {
            name: name.into(),
            domain,
            samples,
        }
    }

    /// The full stream in arrival order.
    pub fn samples(&self) -> &[SampleSemantics] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the workload has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The bootstrap split used for ramp training: the first 10 % of the
    /// stream, split 1:9 into training and validation (§3.1).
    pub fn bootstrap_split(&self) -> BootstrapSplit<'_> {
        let boot = (self.samples.len() / 10).max(1).min(self.samples.len());
        let train_len = (boot / 10).max(1).min(boot);
        BootstrapSplit {
            train: &self.samples[..train_len],
            validation: &self.samples[train_len..boot],
            serving: &self.samples[boot..],
        }
    }

    /// Mean difficulty of the stream.
    pub fn mean_difficulty(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.difficulty).sum::<f64>() / self.samples.len() as f64
    }

    /// Lag-1 autocorrelation of the difficulty series — the quantitative
    /// handle on "CV workloads have far more continuity than NLP" (§4.2).
    pub fn difficulty_autocorrelation(&self) -> f64 {
        let n = self.samples.len();
        if n < 3 {
            return 0.0;
        }
        let mean = self.mean_difficulty();
        let var: f64 = self
            .samples
            .iter()
            .map(|s| (s.difficulty - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        if var <= 0.0 {
            return 0.0;
        }
        let cov: f64 = self
            .samples
            .windows(2)
            .map(|w| (w[0].difficulty - mean) * (w[1].difficulty - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        cov / var
    }

    /// A shortened copy with only the first `n` samples.
    pub fn truncated(&self, n: usize) -> Workload {
        Workload {
            name: self.name.clone(),
            domain: self.domain,
            samples: self.samples.iter().copied().take(n).collect(),
        }
    }
}

/// The three-way split of a workload stream.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapSplit<'a> {
    /// Ramp-training samples (first 1 % of the stream).
    pub train: &'a [SampleSemantics],
    /// Validation samples (next 9 %).
    pub validation: &'a [SampleSemantics],
    /// The live serving stream (remaining 90 %).
    pub serving: &'a [SampleSemantics],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(n: usize) -> Workload {
        let samples = (0..n)
            .map(|i| SampleSemantics::new(i as u64, (i as f64 / n as f64).min(1.0)))
            .collect();
        Workload::new("test", Domain::Cv, samples)
    }

    #[test]
    fn bootstrap_split_proportions() {
        let w = workload(1000);
        let split = w.bootstrap_split();
        assert_eq!(split.train.len(), 10);
        assert_eq!(split.validation.len(), 90);
        assert_eq!(split.serving.len(), 900);
        assert_eq!(
            split.train.len() + split.validation.len() + split.serving.len(),
            1000
        );
    }

    #[test]
    fn bootstrap_split_handles_tiny_workloads() {
        let w = workload(5);
        let split = w.bootstrap_split();
        assert!(!split.train.is_empty());
        assert_eq!(
            split.train.len() + split.validation.len() + split.serving.len(),
            5
        );
    }

    #[test]
    fn autocorrelation_of_smooth_ramp_is_high() {
        let w = workload(500);
        assert!(w.difficulty_autocorrelation() > 0.9);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let samples = (0..500)
            .map(|i| SampleSemantics::new(i as u64, if i % 2 == 0 { 0.1 } else { 0.9 }))
            .collect();
        let w = Workload::new("alt", Domain::Nlp, samples);
        assert!(w.difficulty_autocorrelation() < -0.5);
    }

    #[test]
    fn truncation_preserves_prefix() {
        let w = workload(100).truncated(10);
        assert_eq!(w.len(), 10);
        assert_eq!(w.samples()[9].seed, 9);
    }
}
