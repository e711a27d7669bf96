//! Simulated ramp training.
//!
//! The real system trains each ramp's small FC head on automatically labelled
//! data (the submitted model's own outputs), with the original weights frozen
//! and all ramps trained independently and in parallel (§3.1). The
//! reproduction models the *outcome* of that training — the ramp's predictive
//! capacity — and the *cost* (a few minutes on one A6000), since those are
//! what the rest of the system consumes.
//!
//! Capacity grows with the amount of bootstrap data and saturates quickly;
//! heavier architectures start marginally higher (Figure 8 shows the gain is
//! small). Generative ramps reuse the existing decoder head and therefore
//! need no training at all (§3.1).

use crate::placement::RampSite;
use crate::ramp::RampArchitecture;
use apparate_exec::RampPlacement;
use apparate_model::{TaskKind, ZooModel};

/// A ramp whose weights have been "trained": placement plus achieved capacity.
#[derive(Debug, Clone, Copy)]
pub struct TrainedRamp {
    /// Where the ramp sits and what it costs.
    pub site: RampSite,
    /// Achieved predictive capacity in `[0, 1]`.
    pub capacity: f64,
}

impl TrainedRamp {
    /// Convert to the execution-engine representation.
    pub fn placement(&self) -> RampPlacement {
        RampPlacement {
            site: self.site.site,
            cost: self.site.spec.cost,
            capacity: self.capacity,
        }
    }
}

/// Summary of a training run, for reports and the preparation-phase
/// experiments.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Number of ramps trained.
    pub ramps: usize,
    /// Total ramp parameters.
    pub total_params: u64,
    /// Fraction of the original model's parameters the ramps add.
    pub param_fraction: f64,
    /// Training samples used.
    pub train_samples: usize,
    /// Estimated wall-clock training time in minutes on a single A6000
    /// ("on the order of a few minutes for our models", §3.1).
    pub estimated_minutes: f64,
    /// Whether training was skipped because existing heads are reused.
    pub reused_existing_head: bool,
}

/// Capacity achieved by an architecture after training on `train_samples`
/// automatically labelled samples.
pub fn trained_capacity(architecture: RampArchitecture, train_samples: usize) -> f64 {
    let base = architecture.base_capacity();
    // Saturating data term: with a few hundred samples the ramp reaches its
    // architectural ceiling; with almost none it is noticeably worse.
    let data_term = 1.0 - (-(train_samples as f64) / 150.0).exp();
    let floor = base - 0.08;
    (floor + (base - floor) * data_term).clamp(0.0, 1.0)
}

/// Train ramps for the given sites.
///
/// `train_samples` is the size of the bootstrap training split (the first 1 %
/// of the workload, §3.1). Returns the trained ramps plus a report.
pub fn train_ramps(
    model: &ZooModel,
    sites: &[RampSite],
    architecture: RampArchitecture,
    train_samples: usize,
) -> (Vec<TrainedRamp>, TrainingReport) {
    let reuse = matches!(model.descriptor.task, TaskKind::Generative);
    let capacity = if reuse {
        // The decoder head already exists and is reused directly — capacity is
        // the architectural ceiling regardless of bootstrap size.
        architecture.base_capacity()
    } else {
        trained_capacity(architecture, train_samples)
    };
    let ramps: Vec<TrainedRamp> = sites
        .iter()
        .map(|&site| TrainedRamp { site, capacity })
        .collect();
    let total_params: u64 = sites.iter().map(|s| s.spec.params).sum();
    let model_params = model.descriptor.params_millions * 1e6;
    // Cost model: forward+backward over the bootstrap split touches only ramp
    // parameters (original weights frozen, losses back-propagated in parallel
    // across ramps). Scale: ~2 minutes per 10k samples per 1M ramp params,
    // floored at half a minute; zero when heads are reused.
    let estimated_minutes = if reuse {
        0.0
    } else {
        (0.5 + train_samples as f64 / 10_000.0 * (total_params as f64 / 1e6) * 2.0).min(30.0)
    };
    let report = TrainingReport {
        ramps: ramps.len(),
        total_params,
        param_fraction: total_params as f64 / model_params,
        train_samples,
        estimated_minutes,
        reused_existing_head: reuse,
    };
    (ramps, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::feasible_sites;
    use apparate_model::zoo;

    #[test]
    fn capacity_grows_with_data_and_saturates() {
        let arch = RampArchitecture::Lightweight;
        let none = trained_capacity(arch, 0);
        let some = trained_capacity(arch, 100);
        let lots = trained_capacity(arch, 2_000);
        let more = trained_capacity(arch, 20_000);
        assert!(none < some && some < lots);
        assert!((more - lots).abs() < 0.01, "capacity should saturate");
        assert!(lots <= arch.base_capacity() + 1e-9);
    }

    #[test]
    fn classification_training_produces_report() {
        let model = zoo::bert_base();
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        let (ramps, report) = train_ramps(&model, &sites, RampArchitecture::Lightweight, 2_000);
        assert_eq!(ramps.len(), sites.len());
        assert!(!report.reused_existing_head);
        assert!(report.estimated_minutes > 0.0 && report.estimated_minutes <= 30.0);
        // §3.1: ramps comprise 0.01–3.50 % of model parameters; with every
        // feasible site ramped we should still stay in single-digit percent.
        assert!(
            report.param_fraction < 0.10,
            "fraction {}",
            report.param_fraction
        );
        for r in &ramps {
            assert!(r.capacity > 0.85 && r.capacity <= 1.0);
            let placement = r.placement();
            assert_eq!(placement.site, r.site.site);
        }
    }

    #[test]
    fn generative_models_reuse_heads_and_skip_training() {
        let model = zoo::t5_large();
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        let (ramps, report) = train_ramps(&model, &sites, RampArchitecture::Lightweight, 10);
        assert!(report.reused_existing_head);
        assert_eq!(report.estimated_minutes, 0.0);
        // Capacity does not depend on the (tiny) bootstrap size.
        assert!(ramps[0].capacity >= RampArchitecture::Lightweight.base_capacity() - 1e-9);
    }

    #[test]
    fn heavier_architectures_cost_more_to_train() {
        let model = zoo::resnet(50);
        let light_sites = feasible_sites(&model, RampArchitecture::Lightweight);
        let heavy_sites = feasible_sites(&model, RampArchitecture::ConvHeavy);
        let (_, light) = train_ramps(&model, &light_sites, RampArchitecture::Lightweight, 2_000);
        let (_, heavy) = train_ramps(&model, &heavy_sites, RampArchitecture::ConvHeavy, 2_000);
        assert!(heavy.total_params > light.total_params);
    }
}
