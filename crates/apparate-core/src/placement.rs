//! Ramp placement: feasible sites, budgeting, and initial spacing.
//!
//! §3.1: Apparate marks feasible ramp locations as cut vertices of the model
//! graph (delegated to `apparate-model`), bounds the number of active ramps by
//! the user's ramp budget (% impact on worst-case latency), and initially
//! spaces the allowed ramps evenly across the model, each starting with a
//! threshold of 0 (no exiting).

use crate::config::ApparateConfig;
use crate::ramp::{ramp_spec, RampArchitecture, RampSpec};
use apparate_model::{LayerId, Stage, TaskKind, ZooModel};

/// A candidate ramp position with its cost/capacity specification.
#[derive(Debug, Clone, Copy)]
pub struct RampSite {
    /// The layer whose output the ramp reads.
    pub site: LayerId,
    /// Index of this site within the ordered feasible-site list; adjustment
    /// algorithms reason in this index space.
    pub site_index: usize,
    /// The ramp specification at this site.
    pub spec: RampSpec,
}

/// All feasible ramp sites of a model, in topological order, with their specs.
pub fn feasible_sites(model: &ZooModel, architecture: RampArchitecture) -> Vec<RampSite> {
    let stage_filter = match model.descriptor.task {
        // Generative models only ramp the decoding phase (§3.1).
        TaskKind::Generative => Some(Stage::Decoder),
        TaskKind::Classification => None,
    };
    model
        .graph
        .feasible_ramp_sites(stage_filter)
        .into_iter()
        .enumerate()
        .map(|(site_index, site)| {
            let width = model.graph.layer(site).output_width;
            RampSite {
                site,
                site_index,
                spec: ramp_spec(&model.descriptor, width, architecture),
            }
        })
        .collect()
}

/// Maximum number of simultaneously active ramps allowed by the ramp budget:
/// the worst-case (non-exiting) request pays every active ramp's overhead, and
/// that total must stay below `budget × vanilla latency`.
pub fn max_ramps_under_budget(model: &ZooModel, sites: &[RampSite], budget: f64) -> usize {
    if sites.is_empty() || budget <= 0.0 {
        return 0;
    }
    let vanilla_us = model.latency.total_us(1);
    let allowance_us = vanilla_us * budget;
    // Sites share a spec cost (same architecture), but be conservative and use
    // the most expensive site when they differ.
    let per_ramp_us = sites
        .iter()
        .map(|s| s.spec.cost.latency_us(1))
        .fold(0.0f64, f64::max);
    if per_ramp_us <= 0.0 {
        return sites.len();
    }
    ((allowance_us / per_ramp_us).floor() as usize).min(sites.len())
}

/// Pick `count` evenly spaced sites from the ordered feasible list.
pub fn evenly_spaced(sites: &[RampSite], count: usize) -> Vec<RampSite> {
    if count == 0 || sites.is_empty() {
        return Vec::new();
    }
    let count = count.min(sites.len());
    if count == sites.len() {
        return sites.to_vec();
    }
    // Spread across (0, len): place ramps at the centres of `count` equal
    // segments so they cover the model without bunching at either end.
    (0..count)
        .map(|i| {
            let pos = (i as f64 + 0.5) / count as f64 * sites.len() as f64;
            sites[(pos.floor() as usize).min(sites.len() - 1)]
        })
        .collect()
}

/// The initial deployment configuration: evenly spaced ramps filling the
/// budget, thresholds all zero.
#[derive(Debug, Clone)]
pub struct InitialPlacement {
    /// Every feasible site (the adjustment search space).
    pub all_sites: Vec<RampSite>,
    /// Initially active sites (a subset of `all_sites`).
    pub active: Vec<RampSite>,
    /// Budgeted maximum number of simultaneously active ramps.
    pub max_active: usize,
}

/// Compute the initial placement for a model under a configuration.
pub fn initial_placement(
    model: &ZooModel,
    config: &ApparateConfig,
    architecture: RampArchitecture,
) -> InitialPlacement {
    let all_sites = feasible_sites(model, architecture);
    let max_active = max_ramps_under_budget(model, &all_sites, config.ramp_budget).max(1);
    let active = evenly_spaced(&all_sites, max_active);
    InitialPlacement {
        all_sites,
        active,
        max_active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_model::zoo;

    #[test]
    fn feasible_sites_cover_the_model() {
        let model = zoo::resnet(50);
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        assert!(sites.len() >= model.descriptor.num_blocks as usize / 2);
        // Site indices are dense and ordered.
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.site_index, i);
        }
        let positions: Vec<usize> = sites
            .iter()
            .map(|s| model.graph.topo_position(s.site))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generative_sites_are_decoder_only() {
        let model = zoo::t5_large();
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        assert!(!sites.is_empty());
        for s in &sites {
            assert_eq!(model.graph.layer(s.site).stage, Stage::Decoder);
        }
    }

    #[test]
    fn budget_caps_ramp_count() {
        let model = zoo::bert_base();
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        let small = max_ramps_under_budget(&model, &sites, 0.02);
        let large = max_ramps_under_budget(&model, &sites, 0.10);
        assert!(small >= 1);
        assert!(large >= small);
        assert_eq!(max_ramps_under_budget(&model, &sites, 0.0), 0);
        // Worst-case overhead of the admitted ramps stays within budget.
        let per_ramp = sites[0].spec.cost.latency_us(1);
        assert!(per_ramp * small as f64 <= model.latency.total_us(1) * 0.02 + 1e-9);
    }

    #[test]
    fn heavier_ramps_admit_fewer_under_same_budget() {
        let model = zoo::bert_base();
        let light = feasible_sites(&model, RampArchitecture::Lightweight);
        let heavy = feasible_sites(&model, RampArchitecture::DeeBertPooler);
        let n_light = max_ramps_under_budget(&model, &light, 0.02);
        let n_heavy = max_ramps_under_budget(&model, &heavy, 0.02);
        assert!(n_light > n_heavy, "light {n_light} vs heavy {n_heavy}");
    }

    #[test]
    fn evenly_spaced_spans_the_model() {
        let model = zoo::vgg(16);
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        let picked = evenly_spaced(&sites, 4);
        assert_eq!(picked.len(), 4);
        // The picks are distinct and ordered.
        let idx: Vec<usize> = picked.iter().map(|s| s.site_index).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        // First pick is in the first half, last pick in the second half.
        assert!(idx[0] < sites.len() / 2);
        assert!(idx[3] >= sites.len() / 2);
    }

    #[test]
    fn evenly_spaced_edge_cases() {
        let model = zoo::resnet(18);
        let sites = feasible_sites(&model, RampArchitecture::Lightweight);
        assert!(evenly_spaced(&sites, 0).is_empty());
        assert_eq!(evenly_spaced(&sites, sites.len() + 10).len(), sites.len());
        assert_eq!(evenly_spaced(&[], 3).len(), 0);
    }

    #[test]
    fn initial_placement_respects_budget_and_config() {
        let model = zoo::resnet(50);
        let config = ApparateConfig::default();
        let placement = initial_placement(&model, &config, RampArchitecture::Lightweight);
        assert!(placement.max_active >= 1);
        assert_eq!(
            placement.active.len(),
            placement.max_active.min(placement.all_sites.len())
        );
        let bigger = initial_placement(
            &model,
            &config.with_ramp_budget(0.10),
            RampArchitecture::Lightweight,
        );
        assert!(bigger.max_active >= placement.max_active);
    }
}
