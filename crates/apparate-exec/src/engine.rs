//! The execution engine: timing and observation scaffold for a served model
//! with (optional) early-exit ramps.
//!
//! The engine is deliberately *policy free*. It answers two questions:
//!
//! * **Timing** — how long does a batch take on the GPU, and at what offset
//!   within that batch does the computation reach each ramp / the model head?
//!   (Derived from the calibrated per-layer latency model plus per-ramp costs,
//!   summed once per batch size and memoised inside the plan.)
//! * **Observations** — what does each ramp report for each request?
//!   (Delegated to the [`SemanticsModel`].)
//!
//! The engine also owns the one release rule every threshold policy applies
//! to those observations ([`earliest_exit`] over a full row,
//! [`ExecutionPlan::first_exit`] lazily). Exiting *decisions* (thresholds,
//! which ramps are active, whether inputs truly exit or only results do)
//! belong to the policy layers: Apparate's controller in `apparate-core` and
//! the baselines in `apparate-baselines`.

use crate::semantics::{RampObservation, SampleSemantics, SemanticsModel};
use apparate_model::{LayerId, LayerLatency, ZooModel};
use std::sync::OnceLock;

/// Largest batch size whose timing table a plan memoises. Covers every
/// configured batching and continuous-batching cap; larger batches are timed
/// through the same code without a memo.
const MEMO_BATCHES: usize = 16;

/// A ramp as seen by the execution engine: where it sits, what it costs, and
/// how capable it is.
#[derive(Debug, Clone, Copy)]
pub struct RampPlacement {
    /// The layer whose output the ramp consumes. Must be a feasible site.
    pub site: LayerId,
    /// Latency cost of evaluating the ramp, added to every batch that carries it.
    pub cost: LayerLatency,
    /// Predictive capacity of the ramp architecture + training in `[0, 1]`.
    pub capacity: f64,
}

/// Execution plan: a model plus an ordered set of ramps, with cached
/// topological positions and a per-batch-size timing memo.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    model: ZooModel,
    semantics: SemanticsModel,
    ramps: Vec<RampPlacement>,
    /// Topological position of each ramp's site (parallel to `ramps`).
    ramp_positions: Vec<usize>,
    /// `timing[b - 1]`: the timing table of batch size `b`, built on first use.
    timing: [OnceLock<Timing>; MEMO_BATCHES],
}

/// Every timing value of a plan at one batch size.
///
/// Built with running sums in the order the per-layer reference sums use, so
/// each entry is bit-identical to summing the layers (and ramp costs) again.
#[derive(Debug, Clone)]
struct Timing {
    /// `layer_prefix[pos]`: model latency up to and including topological
    /// position `pos`.
    layer_prefix: Vec<f64>,
    /// `ramp_offset[i]`: offset at which ramp `i`'s result is available.
    ramp_offset: Vec<f64>,
    /// Latency of the original model.
    vanilla_total: f64,
    /// Sum of every active ramp's cost.
    ramp_overhead: f64,
}

/// One timing value a plan answers, read from a [`Timing`] table.
#[derive(Debug, Clone, Copy)]
enum TimingQuery {
    VanillaTotal,
    RampOverhead,
    RampOffset(usize),
    LayerPrefix(usize),
}

impl ExecutionPlan {
    /// Build a plan. Ramps are sorted by topological position; duplicate sites
    /// are rejected in debug builds.
    pub fn new(
        model: ZooModel,
        semantics: SemanticsModel,
        mut ramps: Vec<RampPlacement>,
    ) -> ExecutionPlan {
        ramps.sort_by_key(|r| model.graph.topo_position(r.site));
        let ramp_positions = ramps
            .iter()
            .map(|r| model.graph.topo_position(r.site))
            .collect::<Vec<_>>();
        debug_assert!(
            ramp_positions.windows(2).all(|w| w[0] < w[1]),
            "duplicate ramp sites in execution plan"
        );
        ExecutionPlan {
            model,
            semantics,
            ramps,
            ramp_positions,
            timing: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Build a plan with no ramps (vanilla serving).
    pub fn vanilla(model: ZooModel, semantics: SemanticsModel) -> ExecutionPlan {
        ExecutionPlan::new(model, semantics, Vec::new())
    }

    /// The served model.
    pub fn model(&self) -> &ZooModel {
        &self.model
    }

    /// The semantics model.
    pub fn semantics(&self) -> &SemanticsModel {
        &self.semantics
    }

    /// Active ramps in topological order.
    pub fn ramps(&self) -> &[RampPlacement] {
        &self.ramps
    }

    /// Number of active ramps.
    pub fn num_ramps(&self) -> usize {
        self.ramps.len()
    }

    /// Normalised depth of a ramp: fraction of the model's layers executed
    /// before its observation is available.
    pub fn depth_fraction(&self, ramp_idx: usize) -> f64 {
        let n = self.model.graph.len();
        if n <= 1 {
            return 1.0;
        }
        self.ramp_positions[ramp_idx] as f64 / (n - 1) as f64
    }

    /// Normalised depth of an arbitrary layer site.
    pub fn depth_fraction_of_site(&self, site: LayerId) -> f64 {
        let n = self.model.graph.len();
        if n <= 1 {
            return 1.0;
        }
        self.model.graph.topo_position(site) as f64 / (n - 1) as f64
    }

    /// Latency of the *original* model (no ramps) for a batch, in µs.
    pub fn vanilla_total_us(&self, batch: u32) -> f64 {
        self.timed(batch, TimingQuery::VanillaTotal)
    }

    /// Total GPU time of a batch when every input runs to the end of the model
    /// and every active ramp is evaluated (Apparate's execution mode), in µs.
    pub fn gpu_batch_time_us(&self, batch: u32) -> f64 {
        self.vanilla_total_us(batch) + self.total_ramp_overhead_us(batch)
    }

    /// Sum of all active ramps' costs for a batch, in µs.
    pub fn total_ramp_overhead_us(&self, batch: u32) -> f64 {
        self.timed(batch, TimingQuery::RampOverhead)
    }

    /// Offset (from batch start) at which ramp `ramp_idx`'s result is
    /// available: model prefix up to the ramp's site plus the cost of this and
    /// all earlier ramps, in µs.
    pub fn ramp_offset_us(&self, ramp_idx: usize, batch: u32) -> f64 {
        self.timed(batch, TimingQuery::RampOffset(ramp_idx))
    }

    /// Offset at which the original model's final result is available when all
    /// active ramps are evaluated along the way, in µs.
    pub fn final_offset_us(&self, batch: u32) -> f64 {
        self.gpu_batch_time_us(batch)
    }

    /// Offset of the model prefix up to an arbitrary site with no ramp costs;
    /// used for optimal-exiting oracles which assume zero ramp overhead (§2.2).
    pub fn site_prefix_us(&self, site: LayerId, batch: u32) -> f64 {
        let pos = self.model.graph.topo_position(site);
        self.timed(batch, TimingQuery::LayerPrefix(pos))
    }

    /// Answer a timing query from the batch size's memoised table (or a
    /// fresh one past [`MEMO_BATCHES`]). Debug builds re-derive every answer
    /// from the per-layer reference sums and panic on any bit difference.
    fn timed(&self, batch: u32, query: TimingQuery) -> f64 {
        let read = |t: &Timing| match query {
            TimingQuery::VanillaTotal => t.vanilla_total,
            TimingQuery::RampOverhead => t.ramp_overhead,
            TimingQuery::RampOffset(i) => t.ramp_offset[i],
            TimingQuery::LayerPrefix(pos) => t.layer_prefix[pos],
        };
        let us = match self.timing.get((batch as usize).wrapping_sub(1)) {
            Some(memo) => read(memo.get_or_init(|| self.timing_table(batch))),
            None => read(&self.timing_table(batch)),
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            us.to_bits(),
            reference::timed(self, batch, query).to_bits(),
            "memoised {query:?} at batch {batch} diverged from the per-layer sum"
        );
        us
    }

    /// Build the timing table of one batch size: one pass over the layers and
    /// one over the ramps. Running sums start from `-0.0`, the value an empty
    /// `f64` sum takes, so even an empty ramp set matches the reference bits.
    fn timing_table(&self, batch: u32) -> Timing {
        let mut layers = -0.0;
        let layer_prefix: Vec<f64> = self
            .model
            .latency
            .per_layer()
            .iter()
            .map(|l| {
                layers += l.latency_us(batch);
                layers
            })
            .collect();
        let mut ramps = -0.0;
        let ramp_offset = self
            .ramps
            .iter()
            .zip(&self.ramp_positions)
            .map(|(r, &pos)| {
                ramps += r.cost.latency_us(batch);
                layer_prefix[pos] + ramps
            })
            .collect();
        Timing {
            layer_prefix,
            ramp_offset,
            vanilla_total: layers,
            ramp_overhead: ramps,
        }
    }

    /// Observation of ramp `ramp_idx` for one request.
    pub fn observe(&self, sample: &SampleSemantics, ramp_idx: usize) -> RampObservation {
        let ramp = &self.ramps[ramp_idx];
        self.semantics.observe(
            sample,
            ramp.site.0 as u64,
            self.depth_fraction(ramp_idx),
            ramp.capacity,
        )
    }

    /// Observation a hypothetical ramp at `site` with `capacity` would produce.
    /// Used by oracles that consider every feasible site.
    pub fn observe_at_site(
        &self,
        sample: &SampleSemantics,
        site: LayerId,
        capacity: f64,
    ) -> RampObservation {
        self.semantics.observe(
            sample,
            site.0 as u64,
            self.depth_fraction_of_site(site),
            capacity,
        )
    }

    /// The earliest exit for one request, observing ramps lazily: in ramp
    /// order, skipping ramps whose threshold disables exiting, and stopping at
    /// the first exit. Equals [`earliest_exit`] over the request's full
    /// observation row, for policies that never read the rest of the row.
    pub fn first_exit(
        &self,
        sample: &SampleSemantics,
        thresholds: &[f64],
    ) -> Option<(usize, RampObservation)> {
        for (i, &thr) in thresholds.iter().enumerate().take(self.ramps.len()) {
            // A non-positive threshold never releases: skip the observation.
            if thr > 0.0 {
                let obs = self.observe(sample, i);
                if releases_at(&obs, thr) {
                    return Some((i, obs));
                }
            }
        }
        None
    }

    /// Replace the ramp set, keeping model and semantics (used when the
    /// controller adjusts ramps at runtime).
    pub fn with_ramps(&self, ramps: Vec<RampPlacement>) -> ExecutionPlan {
        ExecutionPlan::new(self.model.clone(), self.semantics.clone(), ramps)
    }
}

/// The universal release rule shared by Apparate and the static baselines: a
/// result is released at a ramp whose threshold is positive and whose entropy
/// is at or below it. A threshold of 0 therefore disables the ramp.
fn releases_at(observation: &RampObservation, threshold: f64) -> bool {
    threshold > 0.0 && observation.entropy <= threshold
}

/// Earliest ramp of a request's full observation row (one entry per active
/// ramp, in ramp order) whose observation clears its threshold, with that
/// observation. `None` means no exit.
pub fn earliest_exit(
    row: &[RampObservation],
    thresholds: &[f64],
) -> Option<(usize, RampObservation)> {
    row.iter()
        .zip(thresholds)
        .position(|(obs, &thr)| releases_at(obs, thr))
        .map(|i| (i, row[i]))
}

/// The per-layer sums the memoised timing tables must reproduce bit for bit.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::{ExecutionPlan, TimingQuery};

    fn ramp_costs(plan: &ExecutionPlan, through: usize, batch: u32) -> f64 {
        plan.ramps[..through]
            .iter()
            .map(|r| r.cost.latency_us(batch))
            .sum()
    }

    pub(super) fn timed(plan: &ExecutionPlan, batch: u32, query: TimingQuery) -> f64 {
        let latency = &plan.model.latency;
        match query {
            TimingQuery::VanillaTotal => latency.total_us(batch),
            TimingQuery::RampOverhead => ramp_costs(plan, plan.ramps.len(), batch),
            TimingQuery::RampOffset(i) => {
                latency.prefix_us(plan.ramp_positions[i], batch) + ramp_costs(plan, i + 1, batch)
            }
            TimingQuery::LayerPrefix(pos) => latency.prefix_us(pos, batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::SemanticsModel;
    use apparate_model::zoo;

    fn lightweight_cost() -> LayerLatency {
        LayerLatency {
            fixed_us: 30.0,
            per_item_us: 10.0,
            batch_alpha: 0.7,
        }
    }

    fn plan_with_ramps(n_ramps: usize) -> ExecutionPlan {
        let model = zoo::resnet(50);
        let semantics = SemanticsModel::new(7, model.descriptor.overparameterization);
        let sites = model.graph.feasible_ramp_sites(None);
        let step = sites.len() / (n_ramps + 1);
        let ramps = (1..=n_ramps)
            .map(|i| RampPlacement {
                site: sites[i * step],
                cost: lightweight_cost(),
                capacity: 0.97,
            })
            .collect();
        ExecutionPlan::new(model, semantics, ramps)
    }

    #[test]
    fn vanilla_plan_has_no_overhead() {
        let model = zoo::vgg(13);
        let sem = SemanticsModel::new(1, 0.9);
        let plan = ExecutionPlan::vanilla(model, sem);
        assert_eq!(plan.num_ramps(), 0);
        assert_eq!(plan.total_ramp_overhead_us(8), 0.0);
        assert!((plan.gpu_batch_time_us(4) - plan.vanilla_total_us(4)).abs() < 1e-9);
    }

    #[test]
    fn ramp_offsets_are_increasing_and_bounded_by_total() {
        let plan = plan_with_ramps(4);
        for batch in [1u32, 4, 16] {
            let mut prev = 0.0;
            for i in 0..plan.num_ramps() {
                let off = plan.ramp_offset_us(i, batch);
                assert!(off > prev, "offsets must increase along the model");
                assert!(off < plan.final_offset_us(batch));
                prev = off;
            }
        }
    }

    #[test]
    fn gpu_time_includes_all_ramp_costs() {
        let plan = plan_with_ramps(3);
        let batch = 8;
        let expected = plan.vanilla_total_us(batch) + 3.0 * lightweight_cost().latency_us(batch);
        assert!((plan.gpu_batch_time_us(batch) - expected).abs() < 1e-6);
    }

    #[test]
    fn depth_fractions_are_ordered() {
        let plan = plan_with_ramps(5);
        let fractions: Vec<f64> = (0..5).map(|i| plan.depth_fraction(i)).collect();
        assert!(fractions.windows(2).all(|w| w[0] < w[1]));
        assert!(fractions.iter().all(|&f| (0.0..1.0).contains(&f)));
    }

    #[test]
    fn earliest_exit_respects_thresholds() {
        let row = [
            RampObservation {
                entropy: 0.8,
                agrees: false,
            },
            RampObservation {
                entropy: 0.3,
                agrees: true,
            },
            RampObservation {
                entropy: 0.1,
                agrees: true,
            },
        ];
        let exit = |thresholds: &[f64]| earliest_exit(&row, thresholds).map(|(i, _)| i);
        assert_eq!(exit(&[0.0, 0.0, 0.0]), None);
        assert_eq!(exit(&[0.0, 0.4, 0.0]), Some(1));
        assert_eq!(exit(&[0.9, 0.4, 0.2]), Some(0));
        assert_eq!(exit(&[0.5, 0.0, 0.2]), Some(2));
        assert_eq!(earliest_exit(&row, &[0.5, 0.0, 0.2]), Some((2, row[2])));
    }

    #[test]
    fn with_ramps_swaps_ramp_set() {
        let plan = plan_with_ramps(2);
        let sites = plan.model().graph.feasible_ramp_sites(None);
        let new = plan.with_ramps(vec![RampPlacement {
            site: sites[0],
            cost: lightweight_cost(),
            capacity: 0.9,
        }]);
        assert_eq!(new.num_ramps(), 1);
        assert_eq!(plan.num_ramps(), 2);
    }

    #[test]
    fn easy_samples_agree_early_on_cv_model() {
        let plan = plan_with_ramps(4);
        let agreements = (0..200)
            .filter(|&i| plan.observe(&SampleSemantics::new(i, 0.05), 0).agrees)
            .count();
        assert!(
            agreements as f64 / 200.0 > 0.9,
            "easy inputs should agree at the first ramp of an overparameterised CV model"
        );
    }

    fn full_row(plan: &ExecutionPlan, sample: &SampleSemantics) -> Vec<RampObservation> {
        (0..plan.num_ramps())
            .map(|i| plan.observe(sample, i))
            .collect()
    }

    fn every_zoo_model() -> Vec<ZooModel> {
        let mut models = zoo::classification_models();
        models.extend(zoo::generative_models());
        models.extend([zoo::bert_base_int8(), zoo::bert_large_int8()]);
        models
    }

    /// No ramps, evenly spaced sites within a 2 % batch-1 ramp budget, and
    /// a ramp at every feasible site.
    fn ramp_sets(model: &ZooModel) -> [Vec<RampPlacement>; 3] {
        let place = |sites: &[LayerId]| {
            sites
                .iter()
                .map(|&site| RampPlacement {
                    site,
                    cost: lightweight_cost(),
                    capacity: 0.95,
                })
                .collect::<Vec<_>>()
        };
        let sites = model.graph.feasible_ramp_sites(None);
        let budget = (model.latency.total_us(1) * 0.02 / lightweight_cost().latency_us(1)) as usize;
        let step = sites.len().div_ceil(budget.clamp(1, sites.len()));
        let budget_sites: Vec<LayerId> = sites.iter().copied().step_by(step).collect();
        [Vec::new(), place(&budget_sites), place(&sites)]
    }

    #[test]
    fn memoised_timing_equals_the_per_layer_sums_bit_for_bit() {
        for model in every_zoo_model() {
            let semantics = SemanticsModel::new(3, model.descriptor.overparameterization);
            for ramps in ramp_sets(&model) {
                let plan = ExecutionPlan::new(model.clone(), semantics.clone(), ramps);
                let name = &model.descriptor.name;
                // Twice: the first pass fills the memo, the second reads it.
                for _ in 0..2 {
                    for batch in 1..=MEMO_BATCHES as u32 + 1 {
                        let check = |memo: f64, query: TimingQuery| {
                            let reference = reference::timed(&plan, batch, query);
                            assert_eq!(
                                memo.to_bits(),
                                reference.to_bits(),
                                "{name}, {} ramps, batch {batch}, {query:?}",
                                plan.num_ramps()
                            );
                        };
                        check(plan.vanilla_total_us(batch), TimingQuery::VanillaTotal);
                        check(
                            plan.total_ramp_overhead_us(batch),
                            TimingQuery::RampOverhead,
                        );
                        for i in 0..plan.num_ramps() {
                            check(plan.ramp_offset_us(i, batch), TimingQuery::RampOffset(i));
                        }
                        for &site in model.graph.topo_order() {
                            let pos = model.graph.topo_position(site);
                            check(
                                plan.site_prefix_us(site, batch),
                                TimingQuery::LayerPrefix(pos),
                            );
                        }
                        let expected = reference::timed(&plan, batch, TimingQuery::VanillaTotal)
                            + reference::timed(&plan, batch, TimingQuery::RampOverhead);
                        assert_eq!(plan.gpu_batch_time_us(batch).to_bits(), expected.to_bits());
                        assert_eq!(plan.final_offset_us(batch).to_bits(), expected.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn with_ramps_starts_an_empty_memo() {
        let plan = plan_with_ramps(2);
        let _ = plan.gpu_batch_time_us(4);
        assert!(plan.timing[3].get().is_some());
        let swapped = plan.with_ramps(Vec::new());
        assert!(swapped.timing.iter().all(|memo| memo.get().is_none()));
        assert_eq!(
            swapped.gpu_batch_time_us(4).to_bits(),
            plan.vanilla_total_us(4).to_bits()
        );
    }

    #[test]
    fn lazy_first_exit_equals_the_full_row_rule() {
        let plan = plan_with_ramps(6);
        let n = plan.num_ramps();
        let threshold_vectors = [
            vec![0.0; n],
            vec![1.0; n],
            vec![0.25; n],
            vec![0.0, 0.1, 1.0, 0.0, 0.3, 0.05],
            vec![1.0, 0.0, 0.0, 0.2, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.6],
            vec![-0.5, f64::NAN, 0.15, 0.0, 1.0, 0.4],
        ];
        for seed in [1u64, 7, 42, 1_234] {
            let model = plan.model().clone();
            let semantics = SemanticsModel::new(seed, model.descriptor.overparameterization);
            let plan = ExecutionPlan::new(model, semantics, plan.ramps().to_vec());
            for i in 0..300 {
                let sample = SampleSemantics::new(i * 31 + seed, (i % 11) as f64 / 10.0);
                let row = full_row(&plan, &sample);
                for thresholds in &threshold_vectors {
                    assert_eq!(
                        plan.first_exit(&sample, thresholds),
                        earliest_exit(&row, thresholds),
                        "seed {seed}, sample {i}, thresholds {thresholds:?}"
                    );
                }
            }
        }
    }
}
