//! Synthetic generative workloads: text summarisation (CNN/DailyMail-like)
//! and question answering (SQuAD-like).
//!
//! Each request produces an output sequence; each *token* of that sequence is
//! a semantic sample for the ramp model. Two properties matter (§4.3):
//!
//! * auto-regressive generation has strong *within-sequence continuity*
//!   (shared state across tokens), so token difficulty is highly correlated
//!   inside a sequence — this is why Apparate tracks the optimal more closely
//!   here than for NLP classification;
//! * output lengths vary a lot (and are unpredictable), which is why
//!   generative serving uses continuous batching rather than SLOs.

use apparate_exec::SampleSemantics;
use apparate_sim::DeterministicRng;

/// The generative task being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenerativeTask {
    /// CNN/DailyMail-style abstractive summarisation: longer outputs.
    Summarization,
    /// SQuAD-style extractive question answering: short outputs.
    QuestionAnswering,
}

impl GenerativeTask {
    /// Canonical dataset name used in reports.
    pub fn dataset_name(self) -> &'static str {
        match self {
            GenerativeTask::Summarization => "cnn-dailymail",
            GenerativeTask::QuestionAnswering => "squad",
        }
    }
}

/// Configuration of a generative workload.
#[derive(Debug, Clone, Copy)]
pub struct GenerativeConfig {
    /// The task.
    pub task: GenerativeTask,
    /// Number of requests.
    pub requests: usize,
    /// Mean difficulty of the token stream (lower = more skippable tokens).
    pub mean_difficulty: f64,
    /// Within-sequence AR(1) coefficient for token difficulty.
    pub continuity: f64,
}

impl GenerativeConfig {
    /// Defaults for a task.
    pub fn for_task(task: GenerativeTask, requests: usize) -> GenerativeConfig {
        match task {
            GenerativeTask::Summarization => GenerativeConfig {
                task,
                requests,
                mean_difficulty: 0.30,
                continuity: 0.85,
            },
            GenerativeTask::QuestionAnswering => GenerativeConfig {
                task,
                requests,
                mean_difficulty: 0.35,
                continuity: 0.80,
            },
        }
    }
}

/// One generative request: its output length and the latent difficulty state
/// needed to derive per-token semantics lazily and deterministically.
#[derive(Debug, Clone, Copy)]
pub struct SequenceSpec {
    /// Request id (index in the workload).
    pub request_id: u64,
    /// Number of output tokens.
    pub output_tokens: u32,
    /// Sequence-level mean difficulty.
    pub sequence_mean: f64,
}

/// A generative workload: a set of sequences plus a deterministic per-token
/// difficulty model.
#[derive(Debug, Clone)]
pub struct GenerativeWorkload {
    /// The dataset this mimics.
    pub task: GenerativeTask,
    sequences: Vec<SequenceSpec>,
    continuity: f64,
    seed: u64,
    /// The semantics of every token of every sequence, sequence after
    /// sequence in request order.
    tokens: Vec<SampleSemantics>,
    /// `token_start[r]`: index in `tokens` of request `r`'s first token.
    token_start: Vec<usize>,
}

/// Innovations a token's AR(1) difficulty blends: the token's own and those
/// of the 7 before it. Covers > 99 % of the mass for continuity <= 0.9.
const AR_WINDOW: usize = 8;

/// Scale of one token's difficulty innovation.
const INNOVATION_SCALE: f64 = 0.12;

impl GenerativeWorkload {
    /// Build a workload.
    pub fn generate(config: GenerativeConfig, seed: u64) -> GenerativeWorkload {
        let rng = DeterministicRng::new(seed).child(0x6E6E_7A7A);
        let mut stream = rng.stream(&[config.task as u64]);
        let sequences = (0..config.requests)
            .map(|i| {
                let output_tokens = match config.task {
                    GenerativeTask::Summarization => {
                        stream.normal_with(60.0, 18.0).clamp(16.0, 128.0) as u32
                    }
                    GenerativeTask::QuestionAnswering => {
                        stream.normal_with(18.0, 8.0).clamp(3.0, 48.0) as u32
                    }
                };
                let sequence_mean =
                    (config.mean_difficulty + stream.normal_with(0.0, 0.12)).clamp(0.02, 0.95);
                SequenceSpec {
                    request_id: i as u64,
                    output_tokens,
                    sequence_mean,
                }
            })
            .collect::<Vec<SequenceSpec>>();
        let mut workload = GenerativeWorkload {
            task: config.task,
            continuity: config.continuity,
            seed,
            tokens: Vec::new(),
            token_start: Vec::with_capacity(sequences.len()),
            sequences,
        };
        workload.fill_token_table();
        workload
    }

    /// Build the token table: each token's innovation is drawn once, and each
    /// token's difficulty sums the innovations of its AR window in the order
    /// (and with the weights) the closed form uses, so every entry equals
    /// [`token_semantics_closed_form`](Self::token_semantics_closed_form) bit
    /// for bit.
    fn fill_token_table(&mut self) {
        let weights = self.ar_weights();
        let total = self.total_tokens() as usize;
        self.tokens.reserve_exact(total);
        let mut innovations = Vec::new();
        for spec in &self.sequences {
            self.token_start.push(self.tokens.len());
            let rng = self.sequence_rng(spec.request_id);
            innovations.clear();
            innovations.extend(
                (0..spec.output_tokens as u64).map(|i| rng.normal_draw(&[i]) * INNOVATION_SCALE),
            );
            for t in 0..innovations.len() {
                let mut deviation = 0.0f64;
                for (weight, innovation) in weights.iter().zip(innovations[..=t].iter().rev()) {
                    deviation += weight * innovation;
                }
                self.tokens.push(self.token_from(spec, t as u32, deviation));
            }
        }
    }

    /// The AR window's weights, most recent innovation first.
    fn ar_weights(&self) -> [f64; AR_WINDOW] {
        let mut weight = (1.0 - self.continuity * self.continuity).sqrt();
        std::array::from_fn(|_| {
            let w = weight;
            weight *= self.continuity;
            w
        })
    }

    /// The keyed root of one sequence's innovation draws.
    fn sequence_rng(&self, request_id: u64) -> DeterministicRng {
        DeterministicRng::new(self.seed).child(0x70CE4 + request_id)
    }

    /// A token's semantics from its sequence and its AR deviation.
    fn token_from(&self, spec: &SequenceSpec, token_index: u32, deviation: f64) -> SampleSemantics {
        let difficulty = (spec.sequence_mean + deviation).clamp(0.0, 1.0);
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(spec.request_id << 20)
            .wrapping_add(token_index as u64);
        SampleSemantics::new(seed, difficulty)
    }

    /// The sequences, in request order.
    pub fn sequences(&self) -> &[SequenceSpec] {
        &self.sequences
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True if the workload has no requests.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total number of tokens across all sequences.
    pub fn total_tokens(&self) -> u64 {
        self.sequences.iter().map(|s| s.output_tokens as u64).sum()
    }

    /// Deterministic semantics of token `token_index` of request `request_id`.
    ///
    /// Token difficulty follows a stationary AR(1) around the sequence mean
    /// (mean + decaying mixture of per-token innovations), so any token can be
    /// queried independently and repeatably. Tokens of the sequence are read
    /// from the table [`generate`](Self::generate) builds; indices past the
    /// sequence's length fall back to the closed form. Debug builds check
    /// every table read against the closed form bit for bit.
    pub fn token_semantics(&self, request_id: u64, token_index: u32) -> SampleSemantics {
        let spec = &self.sequences[request_id as usize];
        if token_index >= spec.output_tokens {
            return self.token_semantics_closed_form(request_id, token_index);
        }
        let token = self.tokens[self.token_start[request_id as usize] + token_index as usize];
        #[cfg(debug_assertions)]
        {
            let reference = self.token_semantics_closed_form(request_id, token_index);
            assert!(
                token.seed == reference.seed
                    && token.difficulty.to_bits() == reference.difficulty.to_bits(),
                "token table diverged from the closed form at request {request_id}, token {token_index}"
            );
        }
        token
    }

    /// The closed form of [`token_semantics`](Self::token_semantics), drawing
    /// the token's AR window anew: the reference the token table reproduces.
    fn token_semantics_closed_form(&self, request_id: u64, token_index: u32) -> SampleSemantics {
        let spec = &self.sequences[request_id as usize];
        let rng = self.sequence_rng(request_id);
        // Approximate AR(1): blend the previous few innovations with
        // geometrically decaying weights.
        let mut deviation = 0.0f64;
        for (lag, weight) in self.ar_weights().into_iter().enumerate() {
            let Some(idx) = token_index.checked_sub(lag as u32) else {
                break;
            };
            let innovation = rng.normal_draw(&[idx as u64]) * INNOVATION_SCALE;
            deviation += weight * innovation;
        }
        self.token_from(spec, token_index, deviation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(task: GenerativeTask) -> GenerativeWorkload {
        GenerativeWorkload::generate(GenerativeConfig::for_task(task, 200), 13)
    }

    #[test]
    fn summarization_outputs_are_longer_than_qa() {
        let summ = workload(GenerativeTask::Summarization);
        let qa = workload(GenerativeTask::QuestionAnswering);
        let mean_len = |w: &GenerativeWorkload| {
            w.sequences()
                .iter()
                .map(|s| s.output_tokens as f64)
                .sum::<f64>()
                / w.len() as f64
        };
        assert!(mean_len(&summ) > 2.0 * mean_len(&qa));
        assert_eq!(summ.task.dataset_name(), "cnn-dailymail");
        assert_eq!(qa.task.dataset_name(), "squad");
    }

    #[test]
    fn token_semantics_are_deterministic_and_bounded() {
        let w = workload(GenerativeTask::Summarization);
        let a = w.token_semantics(5, 10);
        let b = w.token_semantics(5, 10);
        assert_eq!(a.difficulty.to_bits(), b.difficulty.to_bits());
        assert_eq!(a.seed, b.seed);
        for r in 0..10u64 {
            for t in 0..20u32 {
                let s = w.token_semantics(r, t);
                assert!((0.0..=1.0).contains(&s.difficulty));
            }
        }
    }

    #[test]
    fn tokens_within_a_sequence_are_correlated() {
        let w = workload(GenerativeTask::Summarization);
        // Compare within-sequence variance to across-sequence variance of
        // difficulty: continuity should make within much smaller.
        let mut within = Vec::new();
        let mut means = Vec::new();
        for spec in w.sequences().iter().take(50) {
            let ds: Vec<f64> = (0..spec.output_tokens)
                .map(|t| w.token_semantics(spec.request_id, t).difficulty)
                .collect();
            let mean = ds.iter().sum::<f64>() / ds.len() as f64;
            let var = ds.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / ds.len() as f64;
            within.push(var);
            means.push(mean);
        }
        let mean_within = within.iter().sum::<f64>() / within.len() as f64;
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        let across = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / means.len() as f64;
        assert!(
            mean_within < across,
            "within-sequence variance {mean_within} should be below across-sequence {across}"
        );
    }

    #[test]
    fn unique_seeds_per_token() {
        let w = workload(GenerativeTask::QuestionAnswering);
        let a = w.token_semantics(1, 2).seed;
        let b = w.token_semantics(1, 3).seed;
        let c = w.token_semantics(2, 2).seed;
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn token_table_equals_the_closed_form_bit_for_bit() {
        for task in [
            GenerativeTask::Summarization,
            GenerativeTask::QuestionAnswering,
        ] {
            let w = workload(task);
            let mut table_reads = 0u64;
            for spec in w.sequences() {
                // Every token of the sequence, then a few past its end (the
                // closed-form fallback).
                for t in 0..spec.output_tokens + 3 {
                    let token = w.token_semantics(spec.request_id, t);
                    let reference = w.token_semantics_closed_form(spec.request_id, t);
                    assert_eq!(token.seed, reference.seed);
                    assert_eq!(
                        token.difficulty.to_bits(),
                        reference.difficulty.to_bits(),
                        "{task:?}, request {}, token {t}",
                        spec.request_id
                    );
                    table_reads += u64::from(t < spec.output_tokens);
                }
            }
            assert_eq!(table_reads, w.total_tokens());
            assert_eq!(w.tokens.len() as u64, w.total_tokens());
        }
    }

    #[test]
    fn total_tokens_adds_up() {
        let w = workload(GenerativeTask::QuestionAnswering);
        let sum: u64 = w.sequences().iter().map(|s| s.output_tokens as u64).sum();
        assert_eq!(w.total_tokens(), sum);
        assert!(!w.is_empty());
    }
}
