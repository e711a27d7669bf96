//! Synthetic NLP classification workloads (sentiment analysis).
//!
//! The paper streams two datasets (§4.1):
//!
//! * **Amazon product reviews** — ordered by product category and, within a
//!   category, by frequent user. The stream therefore has *block structure*
//!   (per-category and per-user difficulty regimes) but consecutive requests
//!   are otherwise weakly related ("back-to-back reviews are not constrained
//!   in semantic similarity", §4.2).
//! * **IMDB movie reviews** — each review streamed sentence by sentence, so
//!   short runs of related sentences alternate with jumps between reviews.
//!
//! Compared with video, difficulty here has much lower lag-1 autocorrelation
//! and more frequent regime changes, which is exactly what makes Apparate's
//! NLP adaptation harder (wider gap to optimal, Figure 15).

use crate::stream::{Domain, Workload};
use apparate_exec::SampleSemantics;
use apparate_sim::DeterministicRng;

/// Configuration of the Amazon-style review stream.
#[derive(Debug, Clone, Copy)]
pub struct AmazonConfig {
    /// Number of requests (250 k in the paper).
    pub requests: usize,
    /// Mean number of reviews per product category block.
    pub mean_category_len: usize,
    /// Mean number of consecutive reviews from the same frequent user.
    pub mean_user_run: usize,
}

impl Default for AmazonConfig {
    fn default() -> Self {
        AmazonConfig {
            requests: 20_000,
            mean_category_len: 2_500,
            mean_user_run: 40,
        }
    }
}

/// Generate the Amazon-reviews-style workload.
pub fn amazon_reviews(config: AmazonConfig, seed: u64) -> Workload {
    let rng = DeterministicRng::new(seed).child(0xA11A_5050);
    let mut stream = rng.stream(&[0]);
    let mut samples = Vec::with_capacity(config.requests);
    let mut category_mean = 0.40f64;
    let mut category_remaining = 0usize;
    let mut user_offset = 0.0f64;
    let mut user_remaining = 0usize;
    for i in 0..config.requests {
        if category_remaining == 0 {
            // Calibrated against the paper's BERT exit profile: most product
            // reviews are clear-cut sentiment that shallow ramps resolve
            // (median NLP latency wins of 40–90 %, Figure 13), with per-
            // category regimes spanning easy (books) to genuinely ambiguous
            // (electronics with mixed pros/cons).
            category_mean = stream.uniform(0.25, 0.55);
            category_remaining =
                (stream.uniform(0.5, 1.5) * config.mean_category_len as f64).max(50.0) as usize;
        }
        if user_remaining == 0 {
            // Frequent users have a persistent writing style; some write
            // consistently "easy" (clear-cut) reviews, others nuanced ones.
            user_offset = stream.normal_with(0.0, 0.10);
            user_remaining =
                (stream.uniform(0.5, 1.5) * config.mean_user_run as f64).max(3.0) as usize;
        }
        category_remaining -= 1;
        user_remaining -= 1;
        // Individual reviews vary a lot even for the same user: weak continuity.
        let noise = stream.normal_with(0.0, 0.16);
        let difficulty = (category_mean + user_offset + noise).clamp(0.0, 1.0);
        samples.push(SampleSemantics::new(
            seed.wrapping_mul(65_537).wrapping_add(i as u64),
            difficulty,
        ));
    }
    Workload::new("amazon-reviews", Domain::Nlp, samples)
}

/// Configuration of the IMDB sentence stream.
#[derive(Debug, Clone, Copy)]
pub struct ImdbConfig {
    /// Number of requests (sentences; 180 k in the paper).
    pub requests: usize,
    /// Mean sentences per review.
    pub mean_review_len: usize,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            requests: 18_000,
            mean_review_len: 12,
        }
    }
}

/// Generate the IMDB-style sentence-by-sentence workload.
pub fn imdb_reviews(config: ImdbConfig, seed: u64) -> Workload {
    let rng = DeterministicRng::new(seed).child(0x1111_DB00);
    let mut stream = rng.stream(&[0]);
    let mut samples = Vec::with_capacity(config.requests);
    let mut review_mean = 0.55f64;
    let mut review_remaining = 0usize;
    for i in 0..config.requests {
        if review_remaining == 0 {
            // A new movie review: sentiment clarity varies per review, and the
            // dataset drifts slowly across movies.
            let drift = 0.05 * ((i as f64 / config.requests as f64) * std::f64::consts::TAU).sin();
            review_mean = (stream.uniform(0.35, 0.75) + drift).clamp(0.0, 1.0);
            review_remaining =
                (stream.uniform(0.4, 2.0) * config.mean_review_len as f64).max(2.0) as usize;
        }
        review_remaining -= 1;
        // Individual sentences within a review swing between descriptive
        // (hard) and overtly opinionated (easy).
        let noise = stream.normal_with(0.0, 0.18);
        let difficulty = (review_mean + noise).clamp(0.0, 1.0);
        samples.push(SampleSemantics::new(
            seed.wrapping_mul(257)
                .wrapping_add(0xDB << 48)
                .wrapping_add(i as u64),
            difficulty,
        ));
    }
    Workload::new("imdb-reviews", Domain::Nlp, samples)
}

/// Both NLP classification workloads at their default sizes.
pub fn nlp_corpus(requests_each: usize, seed: u64) -> Vec<Workload> {
    vec![
        amazon_reviews(
            AmazonConfig {
                requests: requests_each,
                ..AmazonConfig::default()
            },
            seed,
        ),
        imdb_reviews(
            ImdbConfig {
                requests: requests_each,
                ..ImdbConfig::default()
            },
            seed.wrapping_add(1),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{video_workload, VideoConfig};

    #[test]
    fn amazon_shape_and_bounds() {
        let w = amazon_reviews(
            AmazonConfig {
                requests: 10_000,
                ..Default::default()
            },
            1,
        );
        assert_eq!(w.len(), 10_000);
        assert_eq!(w.domain, Domain::Nlp);
        assert!(w
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.difficulty)));
    }

    #[test]
    fn imdb_shape_and_bounds() {
        let w = imdb_reviews(
            ImdbConfig {
                requests: 8_000,
                ..Default::default()
            },
            2,
        );
        assert_eq!(w.len(), 8_000);
        assert!(w
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.difficulty)));
    }

    #[test]
    fn nlp_is_harder_than_cv_on_average() {
        let nlp = amazon_reviews(
            AmazonConfig {
                requests: 15_000,
                ..Default::default()
            },
            3,
        );
        let cv = video_workload(
            "v",
            VideoConfig {
                frames: 15_000,
                ..Default::default()
            },
            3,
        );
        assert!(
            nlp.mean_difficulty() > cv.mean_difficulty() + 0.1,
            "nlp {} cv {}",
            nlp.mean_difficulty(),
            cv.mean_difficulty()
        );
    }

    #[test]
    fn nlp_has_much_lower_continuity_than_cv() {
        let nlp = amazon_reviews(
            AmazonConfig {
                requests: 15_000,
                ..Default::default()
            },
            4,
        );
        let imdb = imdb_reviews(
            ImdbConfig {
                requests: 15_000,
                ..Default::default()
            },
            4,
        );
        let cv = video_workload(
            "v",
            VideoConfig {
                frames: 15_000,
                ..Default::default()
            },
            4,
        );
        let cv_ac = cv.difficulty_autocorrelation();
        assert!(nlp.difficulty_autocorrelation() < cv_ac - 0.3);
        assert!(imdb.difficulty_autocorrelation() < cv_ac - 0.3);
    }

    #[test]
    fn nlp_streams_still_have_block_structure() {
        // Category/user/review blocks should leave *some* positive
        // autocorrelation — the stream is not i.i.d.
        let nlp = amazon_reviews(
            AmazonConfig {
                requests: 20_000,
                ..Default::default()
            },
            5,
        );
        assert!(nlp.difficulty_autocorrelation() > 0.05);
    }

    #[test]
    fn corpus_contains_both_datasets() {
        let corpus = nlp_corpus(5_000, 7);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus[0].name, "amazon-reviews");
        assert_eq!(corpus[1].name, "imdb-reviews");
        assert_eq!(corpus[0].len(), 5_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = amazon_reviews(AmazonConfig::default(), 11);
        let b = amazon_reviews(AmazonConfig::default(), 11);
        assert_eq!(
            a.samples()[777].difficulty.to_bits(),
            b.samples()[777].difficulty.to_bits()
        );
    }
}
