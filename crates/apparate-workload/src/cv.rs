//! Synthetic video-analytics workloads.
//!
//! The paper uses eight one-hour videos (urban scenes, day and night) sampled
//! at 30 fps for real-time object classification. Two properties of those
//! workloads matter for Apparate:
//!
//! * **Strong spatiotemporal continuity** — consecutive frames show nearly the
//!   same scene, so difficulty is highly autocorrelated and recent history
//!   predicts the near future well (§4.2).
//! * **Regime changes** — scene cuts, lighting changes (day/night) and traffic
//!   density shifts move the difficulty distribution, which is what forces
//!   continual re-tuning (Figure 5, Table 1).
//!
//! Difficulty follows a per-scene AR(1) process whose mean jumps at scene
//! boundaries; night scenes are harder than day scenes.

use crate::stream::{Domain, Workload};
use apparate_exec::SampleSemantics;
use apparate_sim::DeterministicRng;

/// Configuration of a synthetic video.
#[derive(Debug, Clone, Copy)]
pub struct VideoConfig {
    /// Number of frames (the paper's hour-long 30 fps videos have 108 000; the
    /// experiments here default to a few tens of thousands for tractability).
    pub frames: usize,
    /// Frames per second (30 in the paper).
    pub fps: f64,
    /// Whether the video is a night scene (harder on average).
    pub night: bool,
    /// Mean scene length in frames before a regime change.
    pub mean_scene_len: usize,
    /// AR(1) coefficient of within-scene difficulty (close to 1 = very smooth).
    pub continuity: f64,
    /// Standard deviation of frame-to-frame innovation.
    pub innovation_std: f64,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            frames: 20_000,
            fps: 30.0,
            night: false,
            mean_scene_len: 900,
            continuity: 0.97,
            innovation_std: 0.03,
        }
    }
}

/// Generate one synthetic video difficulty stream.
pub fn video_workload(name: impl Into<String>, config: VideoConfig, seed: u64) -> Workload {
    let name = name.into();
    let rng = DeterministicRng::new(seed).child(0xC0FF_EE00);
    let mut stream = rng.stream(&[0]);
    let base_mean = if config.night { 0.38 } else { 0.22 };
    let mut scene_mean = base_mean;
    let mut scene_remaining = 0usize;
    let mut difficulty = scene_mean;
    let mut samples = Vec::with_capacity(config.frames);
    for i in 0..config.frames {
        if scene_remaining == 0 {
            // New scene: shift the difficulty regime.
            scene_mean = (base_mean + stream.normal_with(0.0, 0.10)).clamp(0.03, 0.85);
            let len = stream.uniform(0.5, 1.5) * config.mean_scene_len as f64;
            scene_remaining = len.max(30.0) as usize;
            // Occasional hard bursts: crowded intersection, occlusions.
            if stream.chance(0.12) {
                scene_mean = (scene_mean + 0.25).min(0.9);
            }
        }
        scene_remaining -= 1;
        let innovation = stream.normal_with(0.0, config.innovation_std);
        difficulty = scene_mean + config.continuity * (difficulty - scene_mean) + innovation;
        difficulty = difficulty.clamp(0.0, 1.0);
        samples.push(SampleSemantics::new(
            seed.wrapping_mul(1_000_003) + i as u64,
            difficulty,
        ));
    }
    Workload::new(name, Domain::Cv, samples)
}

/// The eight-video corpus used by the CV experiments: four day and four night
/// urban scenes with different continuity/scene-length characteristics.
pub fn video_corpus(frames_per_video: usize, seed: u64) -> Vec<Workload> {
    let configs = [
        ("urban-day-1", false, 900, 0.97),
        ("urban-day-2", false, 1_400, 0.98),
        ("suburb-day-1", false, 2_000, 0.985),
        ("highway-day-1", false, 700, 0.96),
        ("urban-night-1", true, 900, 0.97),
        ("urban-night-2", true, 1_200, 0.975),
        ("downtown-night-1", true, 600, 0.96),
        ("highway-night-1", true, 1_600, 0.98),
    ];
    configs
        .iter()
        .enumerate()
        .map(|(i, &(name, night, scene_len, continuity))| {
            video_workload(
                name,
                VideoConfig {
                    frames: frames_per_video,
                    night,
                    mean_scene_len: scene_len,
                    continuity,
                    ..VideoConfig::default()
                },
                seed.wrapping_add(i as u64 * 7919),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_has_requested_length_and_domain() {
        let w = video_workload(
            "v",
            VideoConfig {
                frames: 5_000,
                ..Default::default()
            },
            1,
        );
        assert_eq!(w.len(), 5_000);
        assert_eq!(w.domain, Domain::Cv);
    }

    #[test]
    fn difficulties_stay_in_unit_interval() {
        let w = video_workload(
            "v",
            VideoConfig {
                frames: 10_000,
                ..Default::default()
            },
            2,
        );
        assert!(w
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.difficulty)));
    }

    #[test]
    fn video_difficulty_is_highly_autocorrelated() {
        let w = video_workload(
            "v",
            VideoConfig {
                frames: 10_000,
                ..Default::default()
            },
            3,
        );
        assert!(
            w.difficulty_autocorrelation() > 0.8,
            "autocorrelation {}",
            w.difficulty_autocorrelation()
        );
    }

    #[test]
    fn night_videos_are_harder_than_day() {
        let day = video_workload(
            "day",
            VideoConfig {
                frames: 15_000,
                night: false,
                ..Default::default()
            },
            4,
        );
        let night = video_workload(
            "night",
            VideoConfig {
                frames: 15_000,
                night: true,
                ..Default::default()
            },
            4,
        );
        assert!(night.mean_difficulty() > day.mean_difficulty() + 0.05);
    }

    #[test]
    fn most_frames_are_easy() {
        // The EE premise: most video frames do not need the whole model.
        let w = video_workload(
            "v",
            VideoConfig {
                frames: 20_000,
                ..Default::default()
            },
            5,
        );
        let easy = w.samples().iter().filter(|s| s.difficulty < 0.5).count();
        assert!(
            easy as f64 / w.len() as f64 > 0.7,
            "easy fraction {}",
            easy as f64 / w.len() as f64
        );
    }

    #[test]
    fn corpus_has_eight_distinct_videos() {
        let corpus = video_corpus(2_000, 42);
        assert_eq!(corpus.len(), 8);
        let names: std::collections::BTreeSet<_> = corpus.iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 8);
        // Seeds differ, so the difficulty streams must differ.
        assert_ne!(
            corpus[0].samples()[100].difficulty.to_bits(),
            corpus[1].samples()[100].difficulty.to_bits()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = video_workload("v", VideoConfig::default(), 9);
        let b = video_workload("v", VideoConfig::default(), 9);
        assert_eq!(
            a.samples()[1234].difficulty.to_bits(),
            b.samples()[1234].difficulty.to_bits()
        );
    }
}
