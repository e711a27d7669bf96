//! The benchmark's workloads, built from the public generators and a seed.
//!
//! Each definition writes its parameters out in full instead of calling
//! `cv_scenario()`, `diurnal_scenario()` or `generative_scenario()`, so a
//! later recalibration of `repro` cannot silently move the benchmark. The
//! reason for every choice sits beside it.

use apparate_experiments::{ClassificationScenario, GenerativeScenario, TraceKind};
use apparate_model::zoo;
use apparate_serving::{ContinuousBatchingConfig, FleetDispatch, ServingConfig};
use apparate_sim::{DeterministicRng, SimDuration};
use apparate_workload::{
    video_workload, GenerativeConfig, GenerativeTask, GenerativeWorkload, VideoConfig,
};

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet-50 over the night-time urban video stream, one replica, the
    /// full policy family.
    CvVideo,
    /// Llama2-7B summarisation under continuous batching, one replica, the
    /// full token-policy family, telemetry recorded and exported.
    GenDecode,
    /// The bursty diurnal CV stream at 4x one replica's rate, served by a
    /// 4-replica fleet with and without streaming admission.
    FleetOverload,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::CvVideo,
        Workload::GenDecode,
        Workload::FleetOverload,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CvVideo => "cv-video",
            Workload::GenDecode => "gen-decode",
            Workload::FleetOverload => "fleet-overload",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Stream lengths. [`Sizes::BENCH`] is what the benchmark runs; the tests
/// use smaller streams with the same structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Frames in each CV stream (the serving split is 90 % of them).
    pub frames: usize,
    /// Requests in the generative stream.
    pub gen_requests: usize,
}

impl Sizes {
    /// The benchmark's sizes: `repro`'s full-size streams. At 9000 frames the
    /// CV serving split is 8100 requests, enough that the controller tunes and
    /// adjusts many times per pass; 150 summarisation requests keep the
    /// decode loop near the continuous-batching cap for most of the run.
    pub const BENCH: Sizes = Sizes {
        frames: 9_000,
        gen_requests: 150,
    };
}

/// Replicas in the fleet-overload fleet. Four replicas at four times one
/// replica's mean rate: the fleet is provisioned for the mean, so only the
/// MAF-like 2-4x bursts overload it, which is the regime admission control
/// is judged in.
pub const FLEET_REPLICAS: usize = 4;

/// Fleet dispatch: least-loaded, the front end `repro --sweep` uses.
pub const FLEET_DISPATCH: FleetDispatch = FleetDispatch::LeastLoaded;

/// Arrival-rate multiplier of the fleet-overload stream.
pub const FLEET_LOAD: f64 = 4.0;

/// cv-video: the paper's CV headline.
///
/// ResNet-50 over a night-time urban video (strong frame-to-frame continuity,
/// hard lighting, scene changes) at a fixed 30 fps. One replica with
/// Clockwork-style SLO-aware batching (max batch 8); at 30 fps every batch
/// has size 1 (8100 batches for 8100 requests), so the per-batch cost of the
/// platform loop, the baseline policies and the Apparate controller does
/// nearly all the work. Fleet, ingest and telemetry stay idle.
pub fn cv_video(seed: u64, sizes: Sizes) -> ClassificationScenario {
    let model = zoo::resnet(50);
    let workload = video_workload(
        "urban-night",
        VideoConfig {
            frames: sizes.frames,
            night: true,
            ..VideoConfig::default()
        },
        DeterministicRng::new(seed).child(0xC0).seed(),
    );
    let slo_ms = model.descriptor.default_slo_ms;
    ClassificationScenario {
        name: format!("cv/resnet50/{}", workload.name),
        model,
        workload,
        trace: TraceKind::FixedRate(30.0),
        serving: ServingConfig::clockwork(slo_ms, 8),
        // Savings are accounted at batch 4, the CV operating point.
        reference_batch: 4,
        seed,
    }
}

/// gen-decode: the only workload on the decode loop, the token policies and
/// telemetry.
///
/// Llama2-7B summarisation (CNN/DailyMail-style output lengths) with Poisson
/// arrivals at 1 request/s under continuous batching capped at 16 sequences,
/// every token held to the decoder's time-between-tokens SLO. Llama2's low
/// overparameterisation makes token exits depth-dependent, so the adaptive
/// policy has real decisions to make. Fleet and ingest stay idle.
pub fn gen_decode(seed: u64, sizes: Sizes) -> GenerativeScenario {
    let model = zoo::llama2_7b();
    let workload = GenerativeWorkload::generate(
        GenerativeConfig::for_task(GenerativeTask::Summarization, sizes.gen_requests),
        DeterministicRng::new(seed).child(0x6E).seed(),
    );
    let tbt_slo = SimDuration::from_micros_f64(model.descriptor.default_slo_ms * 1_000.0);
    GenerativeScenario {
        name: format!("generative/llama2-7b/{}", workload.task.dataset_name()),
        model,
        workload,
        arrival_rate: 1.0,
        batching: ContinuousBatchingConfig {
            max_batch_size: 16,
            tbt_slo: Some(tbt_slo),
        },
        reference_batch: 8,
        seed,
    }
}

/// fleet-overload: the only workload where sharding, parallel replicas,
/// per-replica warm starts and admission do work.
///
/// The cv-video model and video, but arriving as a bursty diurnal MAF-like
/// stream (slow sinusoidal baseline, 2-4x bursts) at 4x one replica's 30 Hz
/// mean rate, served by [`FLEET_REPLICAS`] replicas. The replay fleets admit
/// everything and queue through the bursts; the admission fleet sheds what
/// the SLO model says cannot finish in time (about a fifth of the arrivals
/// at seed 42), so a change that buys attainment with throughput shows on
/// `throughput_vs_vanilla`.
pub fn fleet_overload(seed: u64, sizes: Sizes) -> ClassificationScenario {
    let base_hz = 30.0;
    ClassificationScenario {
        name: format!("cv/resnet50/diurnal load×{FLEET_LOAD}"),
        trace: TraceKind::MafLike(base_hz * FLEET_LOAD),
        ..cv_video(seed, sizes)
    }
}
