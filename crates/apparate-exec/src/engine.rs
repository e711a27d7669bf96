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
//!   (Delegated to the [`SemanticsModel`]. The plan computes each ramp's
//!   predictive power once, and its observation kernels —
//!   [`ExecutionPlan::observe_row`], [`ExecutionPlan::first_exit`] and
//!   [`ExecutionPlan::first_agreeing_site`] — make each keyed draw once per
//!   sample or per ramp. [`ExecutionPlan::observe`] and
//!   [`ExecutionPlan::observe_at_site`] are the from-scratch references;
//!   debug builds check every kernel result against them bit for bit.)
//!
//! The engine also owns the one release rule every threshold policy applies
//! to those observations ([`earliest_exit`] over a full row,
//! [`ExecutionPlan::first_exit`] lazily). Exiting *decisions* (thresholds,
//! which ramps are active, whether inputs truly exit or only results do)
//! belong to the policy layers: Apparate's controller in `apparate-core` and
//! the baselines in `apparate-baselines`.

use crate::semantics::{RampObservation, SampleDraws, SampleSemantics, SemanticsModel};
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
    /// Predictive power of each ramp (parallel to `ramps`).
    ramp_powers: Vec<f64>,
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

/// A hypothetical ramp at one feasible site, with its predictive power
/// computed once: what the hindsight oracles test every input against.
#[derive(Debug, Clone, Copy)]
pub struct SiteRamp {
    site: LayerId,
    /// Read only by the debug builds' from-scratch reference check.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    capacity: f64,
    power: f64,
}

impl SiteRamp {
    /// The site the hypothetical ramp reads.
    pub fn site(&self) -> LayerId {
        self.site
    }
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
        let ramp_powers = ramps
            .iter()
            .zip(&ramp_positions)
            .map(|(r, &pos)| semantics.ramp_power(depth_fraction_at(&model, pos), r.capacity))
            .collect();
        ExecutionPlan {
            model,
            semantics,
            ramps,
            ramp_positions,
            ramp_powers,
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
        depth_fraction_at(&self.model, self.ramp_positions[ramp_idx])
    }

    /// Normalised depth of an arbitrary layer site.
    pub fn depth_fraction_of_site(&self, site: LayerId) -> f64 {
        depth_fraction_at(&self.model, self.model.graph.topo_position(site))
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

    /// Append one request's full observation row (one observation per active
    /// ramp, in ramp order) to `row`. The input-noise draw is made once for
    /// the row, and each ramp's draws share one key prefix; every entry equals
    /// [`observe`](Self::observe) at its ramp, bit for bit.
    pub fn observe_row(&self, sample: &SampleSemantics, row: &mut Vec<RampObservation>) {
        let draws = self.semantics.sample_draws(sample);
        #[cfg(debug_assertions)]
        let start = row.len();
        row.extend(
            self.ramps
                .iter()
                .zip(&self.ramp_powers)
                .map(|(ramp, &power)| {
                    let margin = self
                        .semantics
                        .ramp_margin(&draws, ramp.site.0 as u64, power);
                    RampObservation {
                        entropy: self.semantics.entropy(&margin),
                        agrees: self.semantics.agrees(&margin),
                    }
                }),
        );
        #[cfg(debug_assertions)]
        for (i, obs) in row[start..].iter().enumerate() {
            assert_same_observation(Some((i, *obs)), Some((i, self.observe(sample, i))), sample);
        }
    }

    /// The earliest exit for one request, observing ramps lazily: in ramp
    /// order, skipping ramps whose threshold disables exiting, stopping at the
    /// first exit, and drawing agreement only at that exit. Equals
    /// [`earliest_exit`] over the request's full observation row, for
    /// policies that never read the rest of the row.
    pub fn first_exit(
        &self,
        sample: &SampleSemantics,
        thresholds: &[f64],
    ) -> Option<(usize, RampObservation)> {
        let mut draws: Option<SampleDraws> = None;
        let mut exit = None;
        let ramps = self.ramps.iter().zip(&self.ramp_powers);
        for (i, (&thr, (ramp, &power))) in thresholds.iter().zip(ramps).enumerate() {
            // A non-positive threshold never releases: skip the observation.
            if thr > 0.0 {
                let draws = draws.get_or_insert_with(|| self.semantics.sample_draws(sample));
                let margin = self.semantics.ramp_margin(draws, ramp.site.0 as u64, power);
                let entropy = self.semantics.entropy(&margin);
                if entropy <= thr {
                    // Agreement is drawn only at the ramp that releases.
                    let agrees = self.semantics.agrees(&margin);
                    exit = Some((i, RampObservation { entropy, agrees }));
                    break;
                }
            }
        }
        #[cfg(debug_assertions)]
        assert_same_observation(
            exit,
            reference::first_exit(self, sample, thresholds),
            sample,
        );
        exit
    }

    /// Hypothetical ramps with `capacity` at each of `sites` (in the given
    /// order), their predictive power computed once, for
    /// [`first_agreeing_site`](Self::first_agreeing_site).
    pub fn site_ramps(&self, sites: &[LayerId], capacity: f64) -> Vec<SiteRamp> {
        sites
            .iter()
            .map(|&site| SiteRamp {
                site,
                capacity,
                power: self
                    .semantics
                    .ramp_power(self.depth_fraction_of_site(site), capacity),
            })
            .collect()
    }

    /// Index (into `ramps`) of the first hypothetical ramp that agrees with
    /// the full model for `sample`, if any: the first `i` whose
    /// [`observe_at_site`](Self::observe_at_site) agrees. Agreement needs only
    /// the margin and agreement draws, so no entropy is drawn.
    pub fn first_agreeing_site(
        &self,
        sample: &SampleSemantics,
        ramps: &[SiteRamp],
    ) -> Option<usize> {
        let draws = self.semantics.sample_draws(sample);
        let first = ramps.iter().position(|ramp| {
            let margin = self
                .semantics
                .ramp_margin(&draws, ramp.site.0 as u64, ramp.power);
            self.semantics.agrees(&margin)
        });
        #[cfg(debug_assertions)]
        assert_eq!(
            first,
            reference::first_agreeing_site(self, sample, ramps),
            "oracle agreement kernel diverged from observe_at_site for {sample:?}"
        );
        first
    }

    /// Replace the ramp set, keeping model and semantics (used when the
    /// controller adjusts ramps at runtime).
    pub fn with_ramps(&self, ramps: Vec<RampPlacement>) -> ExecutionPlan {
        ExecutionPlan::new(self.model.clone(), self.semantics.clone(), ramps)
    }
}

/// Normalised depth of topological position `pos`: the fraction of the
/// model's layers executed before it.
fn depth_fraction_at(model: &ZooModel, pos: usize) -> f64 {
    let n = model.graph.len();
    if n <= 1 {
        return 1.0;
    }
    pos as f64 / (n - 1) as f64
}

/// Panic unless a kernel's `(ramp, observation)` equals the reference's, with
/// the entropy compared bit for bit.
#[cfg(debug_assertions)]
fn assert_same_observation(
    kernel: Option<(usize, RampObservation)>,
    reference: Option<(usize, RampObservation)>,
    sample: &SampleSemantics,
) {
    let bits = |x: Option<(usize, RampObservation)>| {
        x.map(|(i, obs)| (i, obs.entropy.to_bits(), obs.agrees))
    };
    assert_eq!(
        bits(kernel),
        bits(reference),
        "observation kernel diverged from the from-scratch observation for {sample:?}"
    );
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

/// The from-scratch references the plan's memo and kernels must reproduce bit
/// for bit: per-layer timing sums, and observations that make every draw anew.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::{releases_at, ExecutionPlan, RampObservation, SiteRamp, TimingQuery};
    use crate::semantics::SampleSemantics;

    /// [`ExecutionPlan::first_exit`], observing each ramp from scratch.
    pub(super) fn first_exit(
        plan: &ExecutionPlan,
        sample: &SampleSemantics,
        thresholds: &[f64],
    ) -> Option<(usize, RampObservation)> {
        thresholds
            .iter()
            .take(plan.num_ramps())
            .enumerate()
            .filter(|&(_, &thr)| thr > 0.0)
            .map(|(i, &thr)| (i, plan.observe(sample, i), thr))
            .find(|(_, obs, thr)| releases_at(obs, *thr))
            .map(|(i, obs, _)| (i, obs))
    }

    /// [`ExecutionPlan::first_agreeing_site`], observing each site from scratch.
    pub(super) fn first_agreeing_site(
        plan: &ExecutionPlan,
        sample: &SampleSemantics,
        ramps: &[SiteRamp],
    ) -> Option<usize> {
        ramps
            .iter()
            .position(|r| plan.observe_at_site(sample, r.site, r.capacity).agrees)
    }

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
    fn observation_kernels_equal_the_from_scratch_observations_bit_for_bit() {
        let same = |a: &RampObservation, b: &RampObservation| {
            a.entropy.to_bits() == b.entropy.to_bits() && a.agrees == b.agrees
        };
        let mut observations = 0usize;
        for model in every_zoo_model() {
            let name = &model.descriptor.name;
            let sites = model.graph.feasible_ramp_sites(None);
            for seed in [1u64, 7, 42, 1_234] {
                let semantics = SemanticsModel::new(seed, model.descriptor.overparameterization);
                let vanilla = ExecutionPlan::vanilla(model.clone(), semantics.clone());
                // Two capacities, so the power memo cannot pass by chance.
                let oracle_ramps = [
                    vanilla.site_ramps(&sites, 0.95),
                    vanilla.site_ramps(&sites, 0.7),
                ];
                for ramps in ramp_sets(&model) {
                    let plan = ExecutionPlan::new(model.clone(), semantics.clone(), ramps);
                    let n = plan.num_ramps();
                    let threshold_vectors = [
                        vec![0.0; n],
                        vec![1.0; n],
                        vec![0.2; n],
                        (0..n).map(|i| [0.0, 0.1, 0.45, f64::NAN][i % 4]).collect(),
                    ];
                    let mut row = vec![RampObservation {
                        entropy: -1.0,
                        agrees: false,
                    }];
                    for i in 0..24u64 {
                        let sample = SampleSemantics::new(i * 97 + seed, (i % 12) as f64 / 11.0);
                        // The row is appended after what the vector holds.
                        row.truncate(1);
                        plan.observe_row(&sample, &mut row);
                        let reference = full_row(&plan, &sample);
                        assert_eq!(row.len(), n + 1);
                        assert!(
                            row[1..].iter().zip(&reference).all(|(a, b)| same(a, b)),
                            "{name}, seed {seed}, {n} ramps, sample {i}: observe_row"
                        );
                        observations += n;
                        for thresholds in &threshold_vectors {
                            let lazy = plan.first_exit(&sample, thresholds);
                            let full = earliest_exit(&reference, thresholds);
                            assert_eq!(lazy.map(|e| e.0), full.map(|e| e.0));
                            if let (Some((_, a)), Some((_, b))) = (lazy, full) {
                                assert!(
                                    same(&a, &b),
                                    "{name}, seed {seed}, sample {i}: first_exit"
                                );
                            }
                            assert_eq!(lazy, reference::first_exit(&plan, &sample, thresholds));
                        }
                    }
                }
                for (ramps, capacity) in oracle_ramps.iter().zip([0.95, 0.7]) {
                    for i in 0..24u64 {
                        let sample = SampleSemantics::new(i * 89 + seed, (i % 8) as f64 / 7.0);
                        let expected = sites.iter().position(|&site| {
                            vanilla.observe_at_site(&sample, site, capacity).agrees
                        });
                        assert_eq!(
                            vanilla.first_agreeing_site(&sample, ramps),
                            expected,
                            "{name}, seed {seed}, capacity {capacity}, sample {i}: oracle agreement"
                        );
                        assert_eq!(
                            expected,
                            reference::first_agreeing_site(&vanilla, &sample, ramps)
                        );
                    }
                }
            }
        }
        assert!(
            observations > 100_000,
            "{observations} observations checked"
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
