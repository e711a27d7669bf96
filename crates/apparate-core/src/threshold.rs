//! Accuracy-aware threshold tuning (§3.2, Algorithm 1).
//!
//! Because every input runs to the end of the model, the controller can
//! evaluate *any* candidate threshold configuration purely from recorded
//! observations: for each recorded request, find the earliest active ramp
//! whose entropy falls below its candidate threshold, check whether that
//! ramp's prediction agreed with the original model, and add up the latency
//! that exiting there would have saved. No extra inference is needed.
//!
//! The search itself is the paper's greedy hill climb: thresholds start at 0,
//! each round raises the single threshold that buys the most additional
//! latency savings per unit of additional accuracy loss, with
//! multiplicative-increase / multiplicative-decrease step sizing.
//!
//! Every tune — the controller's online rounds, the offline warm starts, the
//! oneshot-tuned baseline and the sweep grids — runs [`IncrementalTuner`]
//! over the columnar [`TuningWindow`], evaluating each candidate as a delta
//! against the committed configuration. [`ThresholdEvaluator`] and
//! [`greedy_tune`] walk the same hill climb with a full re-evaluation per
//! candidate; they are the reference oracle, and in debug builds every
//! [`IncrementalTuner::tune`] re-runs [`greedy_tune`] on its input and
//! asserts the outcomes are identical. [`grid_tune`] is the exhaustive
//! Figure 10 comparison.

use crate::monitor::TuningWindow;

/// Evaluation of one threshold configuration over a window of records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigEvaluation {
    /// Fraction of requests whose released result matches the original model.
    pub accuracy: f64,
    /// Mean latency saved per request, in µs (0 for non-exiting requests).
    pub mean_savings_us: f64,
    /// Fraction of requests that exit at some ramp.
    pub exit_rate: f64,
}

/// The evaluation of the all-zero configuration: nothing exits, every
/// request counts correct. Also what any configuration evaluates to over an
/// empty window.
const NO_EXITS: ConfigEvaluation = ConfigEvaluation {
    accuracy: 1.0,
    mean_savings_us: 0.0,
    exit_rate: 0.0,
};

/// Full evaluator over a tuning window: every configuration is scored by a
/// pass over every held request (the reference oracle).
pub struct ThresholdEvaluator<'a> {
    window: &'a TuningWindow,
    /// Latency saved when a request exits at ramp `i` instead of running to the
    /// end (µs), including the ramp overheads it still pays.
    savings_us: &'a [f64],
}

impl<'a> ThresholdEvaluator<'a> {
    /// Create an evaluator. `savings_us[i]` must correspond to ramp `i` of the
    /// window.
    pub fn new(window: &'a TuningWindow, savings_us: &'a [f64]) -> Self {
        debug_assert_eq!(window.num_ramps(), savings_us.len());
        ThresholdEvaluator { window, savings_us }
    }

    /// Number of ramps being tuned.
    pub fn num_ramps(&self) -> usize {
        self.savings_us.len()
    }

    /// Evaluate a threshold configuration. Slots are visited in physical
    /// order, not arrival order; the result does not depend on the order
    /// because it only sums integer counts and folds savings by ramp.
    pub fn evaluate(&self, thresholds: &[f64]) -> ConfigEvaluation {
        debug_assert_eq!(thresholds.len(), self.savings_us.len());
        let len = self.window.len();
        if len == 0 {
            return NO_EXITS;
        }
        let mut correct = 0usize;
        let mut exit_counts = vec![0u64; self.savings_us.len()];
        let mut exits = 0usize;
        for slot in 0..len {
            let exit = (0..thresholds.len())
                .find(|&r| thresholds[r] > 0.0 && self.window.entropy(slot, r) <= thresholds[r]);
            match exit {
                Some(r) => {
                    exits += 1;
                    if self.window.agrees(slot, r) {
                        correct += 1;
                    }
                    exit_counts[r] += 1;
                }
                None => correct += 1,
            }
        }
        let n = len as f64;
        ConfigEvaluation {
            accuracy: correct as f64 / n,
            mean_savings_us: mean_savings_from_counts(&exit_counts, self.savings_us, n),
            exit_rate: exits as f64 / n,
        }
    }
}

/// Fold per-ramp exit counts into a mean-savings figure. Summing in ramp
/// index order (not request order) makes the result independent of how the
/// window was traversed, so the incremental tuner reproduces the full
/// evaluator bit for bit.
fn mean_savings_from_counts(exit_counts: &[u64], savings_us: &[f64], n: f64) -> f64 {
    let mut savings = 0.0f64;
    for (count, per_exit) in exit_counts.iter().zip(savings_us.iter()) {
        if *count > 0 {
            savings += *count as f64 * per_exit;
        }
    }
    savings / n
}

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// The selected thresholds.
    pub thresholds: Vec<f64>,
    /// Evaluation of the selected configuration on the tuning window.
    pub evaluation: ConfigEvaluation,
    /// Number of configuration evaluations performed.
    pub evaluations: usize,
}

/// Parameters of the greedy search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyParams {
    /// Maximum tolerated accuracy loss (e.g. 0.01).
    pub accuracy_loss_budget: f64,
    /// Initial per-ramp step size (0.1).
    pub initial_step: f64,
    /// Smallest step size (0.01).
    pub smallest_step: f64,
    /// Upper bound on any tuned threshold (1.0 = unconstrained). A cap below
    /// 1.0 guards against window censoring: when the recent window contains no
    /// hard inputs at a deep ramp, an unconstrained search saturates that
    /// ramp's threshold ("exit everything that reaches it") with zero
    /// in-window errors but unbounded exposure to workload drift.
    pub max_threshold: f64,
}

impl Default for GreedyParams {
    fn default() -> Self {
        GreedyParams {
            accuracy_loss_budget: 0.01,
            initial_step: 0.1,
            smallest_step: 0.01,
            max_threshold: 1.0,
        }
    }
}

/// The one step in which the two Algorithm 1 implementations differ: how a
/// single-ramp raise is evaluated, and what committing it updates.
trait RaiseStep {
    /// Evaluate the committed `thresholds` with ramp `ramp` raised to
    /// `proposed`; `current` is the committed configuration's evaluation.
    fn evaluate_raise(
        &mut self,
        thresholds: &[f64],
        ramp: usize,
        proposed: f64,
        current: ConfigEvaluation,
    ) -> ConfigEvaluation;

    /// Commit raising ramp `ramp` from `thresholds[ramp]` to `raised`.
    fn commit_raise(&mut self, thresholds: &[f64], ramp: usize, raised: f64);
}

/// Algorithm 1's hill climb over `num_ramps` thresholds, starting from the
/// all-zero configuration (evaluated as `start`).
fn hill_climb(
    num_ramps: usize,
    params: GreedyParams,
    start: ConfigEvaluation,
    mut step: impl RaiseStep,
) -> TuningOutcome {
    let mut thresholds = vec![0.0f64; num_ramps];
    let mut steps = vec![params.initial_step; num_ramps];
    let mut evaluations = 1usize;
    let accuracy_floor = 1.0 - params.accuracy_loss_budget;
    let threshold_cap = params.max_threshold.clamp(0.0, 1.0);
    let mut current = start;
    // Safety bound far above anything the algorithm needs; prevents a
    // pathological window from spinning forever.
    let max_rounds = 10_000usize;
    for _ in 0..max_rounds {
        let mut best: Option<(usize, f64, ConfigEvaluation)> = None;
        let mut overstepped: Vec<usize> = Vec::new();
        let mut any_candidate = false;
        for ramp in 0..num_ramps {
            let proposed = (thresholds[ramp] + steps[ramp]).min(threshold_cap);
            if proposed <= thresholds[ramp] {
                continue; // already saturated at the cap
            }
            any_candidate = true;
            let eval = step.evaluate_raise(&thresholds, ramp, proposed, current);
            evaluations += 1;
            if eval.accuracy + 1e-12 < accuracy_floor {
                overstepped.push(ramp);
                continue;
            }
            let extra_savings = eval.mean_savings_us - current.mean_savings_us;
            let extra_loss = (current.accuracy - eval.accuracy).max(1e-6);
            let score = extra_savings / extra_loss;
            let better = match &best {
                None => true,
                Some((_, best_score, _)) => score > *best_score,
            };
            if better {
                best = Some((ramp, score, eval));
            }
        }
        if !any_candidate {
            break; // every threshold is saturated
        }
        match best {
            Some((ramp, _, eval)) => {
                let raised = (thresholds[ramp] + steps[ramp]).min(threshold_cap);
                step.commit_raise(&thresholds, ramp, raised);
                thresholds[ramp] = raised;
                steps[ramp] *= 2.0; // multiplicative increase on a promising path
                current = eval;
            }
            None => {
                if steps.iter().all(|&s| s <= params.smallest_step) {
                    break;
                }
                for &ramp in &overstepped {
                    steps[ramp] /= 2.0; // multiplicative decrease to hone the boundary
                }
                if overstepped.is_empty() {
                    break;
                }
            }
        }
    }
    TuningOutcome {
        thresholds,
        evaluation: current,
        evaluations,
    }
}

/// The reference raise: re-evaluate the whole candidate configuration.
impl RaiseStep for &ThresholdEvaluator<'_> {
    fn evaluate_raise(
        &mut self,
        thresholds: &[f64],
        ramp: usize,
        proposed: f64,
        _current: ConfigEvaluation,
    ) -> ConfigEvaluation {
        let mut candidate = thresholds.to_vec();
        candidate[ramp] = proposed;
        self.evaluate(&candidate)
    }

    fn commit_raise(&mut self, _thresholds: &[f64], _ramp: usize, _raised: f64) {}
}

/// Algorithm 1: greedy hill-climbing threshold tuning with a full
/// re-evaluation per candidate — the reference oracle for
/// [`IncrementalTuner::tune`].
pub fn greedy_tune(evaluator: &ThresholdEvaluator<'_>, params: GreedyParams) -> TuningOutcome {
    let n = evaluator.num_ramps();
    let start = evaluator.evaluate(&vec![0.0; n]);
    hill_climb(n, params, start, evaluator)
}

/// A per-ramp slot column sorted by entropy, cached across tunes.
#[derive(Debug, Clone, Default)]
struct ColumnCache {
    /// Window instance and ramp-version the column was derived at.
    window_id: u64,
    version: u64,
    /// Window length the column was derived at.
    len: usize,
    built: bool,
    /// Physical slot indices, ascending by this ramp's entropy.
    slots: Vec<u32>,
}

/// The most recent tune, for whole-outcome reuse when nothing changed.
#[derive(Debug, Clone)]
struct CachedTune {
    window_id: u64,
    window_version: u64,
    params: GreedyParams,
    savings_us: Vec<f64>,
    outcome: TuningOutcome,
}

/// Incremental Algorithm 1: the same greedy hill climb as [`greedy_tune`],
/// restated over the columnar [`TuningWindow`] so each candidate is evaluated
/// as a *delta* against the current configuration instead of a full pass over
/// the window.
///
/// The trick: the greedy search only ever proposes raising a single ramp `r`
/// from threshold `t` to `p`. The only requests whose outcome can change are
/// those with `entropy_r ∈ (t, p]` that do not already exit at an earlier
/// ramp — found by two binary searches on a per-ramp entropy-sorted slot
/// column. The tuner keeps integer exit counts per ramp and per-slot exit
/// assignments for the configuration it has committed so far, applies the
/// delta to a scratch copy, and folds savings with the same ramp-index-order
/// sum as [`ThresholdEvaluator::evaluate`] — so every candidate evaluation is
/// **bit-identical** to the full evaluator's, and the search walks the exact
/// trajectory [`greedy_tune`] walks (including counting the same number of
/// `evaluations`). Debug builds assert this on every tune.
///
/// Incrementality across tunes:
/// * the sorted columns are cached keyed on the window's per-ramp versions —
///   only ramps whose recorded observations changed since the last tune are
///   re-sorted;
/// * the window's pre-aggregated per-ramp entropy histograms prove most
///   candidate ranges empty, skipping their scans outright (the evaluation
///   then *is* the current one — exactly what the full evaluator returns);
/// * a whole-outcome cache returns the previous result when the window,
///   savings, and parameters are unchanged (re-tune triggered by an accuracy
///   blip with no new records).
#[derive(Debug, Clone, Default)]
pub struct IncrementalTuner {
    columns: Vec<ColumnCache>,
    /// Per-slot exit assignment under the committed thresholds.
    current_exit: Vec<Option<usize>>,
    /// Per-ramp exit counts under the committed thresholds.
    exit_counts: Vec<u64>,
    /// Candidate scratch: `exit_counts` plus the candidate's delta.
    scratch_counts: Vec<u64>,
    last: Option<CachedTune>,
}

impl IncrementalTuner {
    /// Create a tuner with empty caches.
    pub fn new() -> IncrementalTuner {
        IncrementalTuner::default()
    }

    /// Re-derive the sorted slot columns for ramps whose window content
    /// changed since they were last built.
    fn ensure_columns(&mut self, window: &TuningWindow) {
        let n = window.num_ramps();
        self.columns.truncate(n);
        self.columns.resize_with(n, ColumnCache::default);
        for (r, col) in self.columns.iter_mut().enumerate() {
            if col.built
                && col.window_id == window.id()
                && col.version == window.ramp_version(r)
                && col.len == window.len()
            {
                continue;
            }
            col.slots.clear();
            col.slots.extend(0..window.len() as u32);
            col.slots.sort_unstable_by(|&a, &b| {
                window
                    .entropy(a as usize, r)
                    .total_cmp(&window.entropy(b as usize, r))
            });
            col.window_id = window.id();
            col.version = window.ramp_version(r);
            col.len = window.len();
            col.built = true;
        }
    }

    /// The sub-slice of ramp `r`'s sorted column affected by raising its
    /// threshold from `t` to `p`: slots with `entropy ∈ (t, p]`, or
    /// `entropy ∈ [0, p]` when `t == 0` (a zero threshold means the ramp was
    /// inactive, so even zero-entropy slots change outcome).
    fn affected_range(&self, window: &TuningWindow, r: usize, t: f64, p: f64) -> (usize, usize) {
        let col = &self.columns[r].slots;
        let lo = if t == 0.0 {
            0
        } else {
            col.partition_point(|&s| window.entropy(s as usize, r) <= t)
        };
        let hi = col.partition_point(|&s| window.entropy(s as usize, r) <= p);
        (lo, hi)
    }

    /// Move every slot in ramp `r`'s column range `lo..hi` that does not
    /// already exit at an earlier ramp to exit at `r`. With `commit` the
    /// move updates the committed exit counts and assignments; without it,
    /// a scratch copy of the counts. Returns the change in correct releases
    /// and in exits.
    fn shift_exits(
        &mut self,
        window: &TuningWindow,
        r: usize,
        (lo, hi): (usize, usize),
        commit: bool,
    ) -> (i64, i64) {
        let IncrementalTuner {
            columns,
            current_exit,
            exit_counts,
            scratch_counts,
            ..
        } = self;
        let counts = if commit {
            exit_counts
        } else {
            scratch_counts.clear();
            scratch_counts.extend_from_slice(exit_counts);
            scratch_counts
        };
        let mut d_correct = 0i64;
        let mut d_exits = 0i64;
        for &s32 in &columns[r].slots[lo..hi] {
            let s = s32 as usize;
            match current_exit[s] {
                // Exits at an earlier ramp already; ramp r never sees it.
                Some(j) if j < r => continue,
                // `j == r` is impossible (its entropy was above `t`), so the
                // request moves its exit from a later ramp `j` up to `r`.
                Some(j) => {
                    counts[j] -= 1;
                    d_correct -= window.agrees(s, j) as i64;
                }
                // Previously ran to completion (counted correct by
                // definition); now exits at `r`.
                None => {
                    d_exits += 1;
                    d_correct -= 1;
                }
            }
            counts[r] += 1;
            d_correct += window.agrees(s, r) as i64;
            if commit {
                current_exit[s] = Some(r);
            }
        }
        (d_correct, d_exits)
    }

    /// Run Algorithm 1 over the window. Produces the same [`TuningOutcome`]
    /// (thresholds, evaluation, evaluation count) as
    /// `greedy_tune(&ThresholdEvaluator::new(window, savings_us), params)`,
    /// exactly; debug builds run that oracle on every call, cache hits
    /// included, and panic on any difference.
    pub fn tune(
        &mut self,
        window: &TuningWindow,
        savings_us: &[f64],
        params: GreedyParams,
    ) -> TuningOutcome {
        let outcome = match &self.last {
            Some(cache)
                if cache.window_id == window.id()
                    && cache.window_version == window.version()
                    && cache.params == params
                    && cache.savings_us == savings_us =>
            {
                cache.outcome.clone()
            }
            _ => {
                let outcome = self.climb(window, savings_us, params);
                self.last = Some(CachedTune {
                    window_id: window.id(),
                    window_version: window.version(),
                    params,
                    savings_us: savings_us.to_vec(),
                    outcome: outcome.clone(),
                });
                outcome
            }
        };
        #[cfg(debug_assertions)]
        {
            let oracle = greedy_tune(&ThresholdEvaluator::new(window, savings_us), params);
            assert_eq!(
                outcome, oracle,
                "IncrementalTuner::tune diverged from the greedy_tune oracle"
            );
        }
        outcome
    }

    /// The uncached tune: reset the committed state to the all-zero
    /// configuration and hill-climb with delta evaluation.
    fn climb(
        &mut self,
        window: &TuningWindow,
        savings_us: &[f64],
        params: GreedyParams,
    ) -> TuningOutcome {
        let n = window.num_ramps();
        debug_assert_eq!(savings_us.len(), n);
        self.ensure_columns(window);
        self.current_exit.clear();
        self.current_exit.resize(window.len(), None);
        self.exit_counts.clear();
        self.exit_counts.resize(n, 0);
        let delta = DeltaStep {
            tuner: self,
            window,
            savings_us,
            correct: window.len() as u64,
            exits: 0,
        };
        hill_climb(n, params, NO_EXITS, delta)
    }
}

/// The incremental raise: evaluate a candidate as a delta against the
/// tuner's committed state, and replay the winner's delta into it.
struct DeltaStep<'a> {
    tuner: &'a mut IncrementalTuner,
    window: &'a TuningWindow,
    savings_us: &'a [f64],
    /// Correct releases under the committed thresholds.
    correct: u64,
    /// Exiting requests under the committed thresholds.
    exits: u64,
}

impl RaiseStep for DeltaStep<'_> {
    fn evaluate_raise(
        &mut self,
        thresholds: &[f64],
        ramp: usize,
        proposed: f64,
        current: ConfigEvaluation,
    ) -> ConfigEvaluation {
        let t = thresholds[ramp];
        // The histogram precheck: no recorded entropy in the raised range
        // (always so in an empty window) means no request changes outcome —
        // the candidate evaluates to the committed evaluation, floats and all.
        if self.window.range_provably_empty(ramp, t, proposed) {
            return current;
        }
        let range = self.tuner.affected_range(self.window, ramp, t, proposed);
        if range.0 == range.1 {
            return current;
        }
        let (d_correct, d_exits) = self.tuner.shift_exits(self.window, ramp, range, false);
        let n = self.window.len() as f64;
        ConfigEvaluation {
            accuracy: (self.correct as i64 + d_correct) as f64 / n,
            mean_savings_us: mean_savings_from_counts(
                &self.tuner.scratch_counts,
                self.savings_us,
                n,
            ),
            exit_rate: (self.exits as i64 + d_exits) as f64 / n,
        }
    }

    fn commit_raise(&mut self, thresholds: &[f64], ramp: usize, raised: f64) {
        let range = self
            .tuner
            .affected_range(self.window, ramp, thresholds[ramp], raised);
        let (d_correct, d_exits) = self.tuner.shift_exits(self.window, ramp, range, true);
        self.correct = (self.correct as i64 + d_correct) as u64;
        self.exits = (self.exits as i64 + d_exits) as u64;
    }
}

/// Exhaustive grid search over thresholds in `{0, step, 2·step, …, 1}` per
/// ramp; the Figure 10 baseline. Cost is `O((⌈1/step⌉ + 1)^R)` evaluations.
///
/// # Panics
/// If `step` is not a positive finite number.
pub fn grid_tune(
    evaluator: &ThresholdEvaluator<'_>,
    accuracy_loss_budget: f64,
    step: f64,
) -> TuningOutcome {
    assert!(
        step > 0.0 && step.is_finite(),
        "grid_tune step must be positive and finite, got {step}"
    );
    let n = evaluator.num_ramps();
    // Level `i` is computed as `i·step` (no accumulated float error), capped
    // so the lattice ends at exactly 1.0.
    let mut levels = Vec::new();
    for i in 0.. {
        let level = (i as f64 * step).min(1.0);
        levels.push(level);
        if level == 1.0 {
            break;
        }
    }
    let accuracy_floor = 1.0 - accuracy_loss_budget;
    let mut best_thresholds = vec![0.0f64; n];
    let mut best_eval = evaluator.evaluate(&best_thresholds);
    let mut evaluations = 1usize;
    let mut indices = vec![0usize; n];
    loop {
        // Advance the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == n {
                return TuningOutcome {
                    thresholds: best_thresholds,
                    evaluation: best_eval,
                    evaluations,
                };
            }
            indices[pos] += 1;
            if indices[pos] < levels.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
        let candidate: Vec<f64> = indices.iter().map(|&i| levels[i]).collect();
        let eval = evaluator.evaluate(&candidate);
        evaluations += 1;
        if eval.accuracy + 1e-12 >= accuracy_floor
            && eval.mean_savings_us > best_eval.mean_savings_us
        {
            best_eval = eval;
            best_thresholds = candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_exec::RampObservation;
    use apparate_sim::DeterministicRng;

    /// Per-request observations at `k` ramps at staggered depths whose
    /// entropies fall with difficulty: ramp `r` is deeper (more accurate,
    /// lower entropy) than ramp `r - 1`.
    fn observations_k(n: usize, seed: u64, k: usize) -> Vec<Vec<RampObservation>> {
        let rng = DeterministicRng::new(seed);
        (0..n)
            .map(|i| {
                let difficulty = rng.unit_draw(&[i as u64, 1]);
                let noise = rng.normal_draw(&[i as u64, 2]) * 0.05;
                (0..k)
                    .map(|r| {
                        let margin = 0.45 + 0.12 * r as f64 - difficulty + noise;
                        RampObservation {
                            entropy: (1.0 / (1.0 + (margin / 0.1).exp())).clamp(0.0, 1.0),
                            agrees: margin > 0.0,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Two-ramp observations: a shallow ramp and a much deeper one.
    fn observations(n: usize, seed: u64) -> Vec<Vec<RampObservation>> {
        let rng = DeterministicRng::new(seed);
        (0..n)
            .map(|i| {
                let difficulty = rng.unit_draw(&[i as u64, 1]);
                let noise = rng.normal_draw(&[i as u64, 2]) * 0.05;
                let obs = |margin: f64| RampObservation {
                    entropy: (1.0 / (1.0 + (margin / 0.1).exp())).clamp(0.0, 1.0),
                    agrees: margin > 0.0,
                };
                vec![
                    obs(0.55 - difficulty + noise),
                    obs(0.85 - difficulty + noise),
                ]
            })
            .collect()
    }

    /// Load observations into a `num_ramps`-wide window sized to hold them
    /// all.
    fn window_of(rows: &[Vec<RampObservation>], num_ramps: usize) -> TuningWindow {
        let mut w = TuningWindow::new(num_ramps, rows.len().max(1));
        for row in rows {
            w.push(row);
        }
        w
    }

    /// A two-ramp window of `n` synthetic requests.
    fn window(n: usize, seed: u64) -> TuningWindow {
        window_of(&observations(n, seed), 2)
    }

    const SAVINGS: [f64; 2] = [10_000.0, 4_000.0];

    #[test]
    fn zero_thresholds_never_exit() {
        let w = window(200, 1);
        let eval = ThresholdEvaluator::new(&w, &SAVINGS).evaluate(&[0.0, 0.0]);
        assert_eq!(eval.exit_rate, 0.0);
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(eval.mean_savings_us, 0.0);
    }

    #[test]
    fn evaluation_is_monotone_in_thresholds() {
        let w = window(400, 2);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let mut last_exit = 0.0;
        let mut last_acc = 1.0;
        for thr in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let eval = evaluator.evaluate(&[thr, thr]);
            assert!(eval.exit_rate >= last_exit - 1e-9);
            assert!(eval.accuracy <= last_acc + 1e-9);
            last_exit = eval.exit_rate;
            last_acc = eval.accuracy;
        }
    }

    #[test]
    fn greedy_respects_accuracy_budget() {
        let w = window(500, 3);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let outcome = greedy_tune(&evaluator, GreedyParams::default());
        assert!(outcome.evaluation.accuracy >= 0.99 - 1e-9);
        assert!(
            outcome.evaluation.mean_savings_us > 0.0,
            "greedy should find some savings"
        );
        assert!(outcome.thresholds.iter().all(|&t| (0.0..=1.0).contains(&t)));
    }

    #[test]
    fn greedy_matches_grid_closely_but_much_cheaper() {
        let w = window(300, 4);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let greedy = greedy_tune(&evaluator, GreedyParams::default());
        let grid = grid_tune(&evaluator, 0.01, 0.1);
        assert!(grid.evaluation.accuracy >= 0.99 - 1e-9);
        // §3.2: greedy is within 0–3.8 % of the optimal latency savings.
        assert!(
            greedy.evaluation.mean_savings_us >= grid.evaluation.mean_savings_us * 0.9,
            "greedy {} vs grid {}",
            greedy.evaluation.mean_savings_us,
            grid.evaluation.mean_savings_us
        );
        assert!(
            greedy.evaluations * 2 < grid.evaluations,
            "greedy {} evals vs grid {}",
            greedy.evaluations,
            grid.evaluations
        );
    }

    #[test]
    fn tighter_budget_gives_fewer_savings() {
        let w = window(400, 5);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let loose = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.05,
                ..Default::default()
            },
        );
        let tight = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.005,
                ..Default::default()
            },
        );
        assert!(loose.evaluation.mean_savings_us >= tight.evaluation.mean_savings_us);
        assert!(tight.evaluation.accuracy >= 0.995 - 1e-9);
    }

    #[test]
    fn empty_window_is_benign() {
        let w = window(0, 0);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let outcome = greedy_tune(&evaluator, GreedyParams::default());
        assert_eq!(outcome.evaluation.accuracy, 1.0);
        assert_eq!(outcome.evaluation.mean_savings_us, 0.0);
    }

    #[test]
    fn grid_search_explores_the_full_lattice() {
        let w = window(50, 6);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let grid = grid_tune(&evaluator, 0.01, 0.25);
        // 5 levels per ramp (0, .25, .5, .75, 1.0) over 2 ramps = 25 configs.
        assert_eq!(grid.evaluations, 25);
    }

    #[test]
    fn grid_lattice_ends_at_exactly_one() {
        // One ramp, a budget nothing can violate (every exit agrees) and
        // savings that grow with the threshold: the best configuration is the
        // top level, so it reports the lattice's last value.
        let rows: Vec<Vec<RampObservation>> = (0..=20)
            .map(|i| {
                vec![RampObservation {
                    entropy: i as f64 / 20.0,
                    agrees: true,
                }]
            })
            .collect();
        let w = window_of(&rows, 1);
        let evaluator = ThresholdEvaluator::new(&w, &[1_000.0]);
        for (step, levels) in [(0.1, 11), (0.3, 5), (0.25, 5)] {
            let grid = grid_tune(&evaluator, 0.0, step);
            assert_eq!(grid.evaluations, levels, "step {step}");
            assert_eq!(grid.thresholds, vec![1.0], "step {step}");
            assert_eq!(grid.evaluation.exit_rate, 1.0, "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn grid_rejects_a_non_positive_step() {
        let w = window(10, 6);
        grid_tune(&ThresholdEvaluator::new(&w, &SAVINGS), 0.01, 0.0);
    }

    /// The incremental tuner must reproduce the full-evaluation oracle
    /// *exactly*: same thresholds, same (bit-identical) evaluation, same
    /// evaluation count. Release builds compile the tuner's own fence out,
    /// so the tests assert it explicitly.
    fn assert_matches_oracle(
        tuner: &mut IncrementalTuner,
        w: &TuningWindow,
        savings: &[f64],
        params: GreedyParams,
    ) {
        let fast = tuner.tune(w, savings, params);
        let oracle = greedy_tune(&ThresholdEvaluator::new(w, savings), params);
        assert_eq!(fast, oracle);
    }

    #[test]
    fn incremental_matches_oracle_on_every_fixture() {
        let mut tuner = IncrementalTuner::new();
        for seed in [1, 2, 3, 4, 5, 7, 11] {
            for n in [1, 17, 200, 500] {
                let w = window(n, seed);
                for budget in [0.005, 0.01, 0.05] {
                    for cap in [0.2, 0.35, 1.0] {
                        let params = GreedyParams {
                            accuracy_loss_budget: budget,
                            max_threshold: cap,
                            ..Default::default()
                        };
                        assert_matches_oracle(&mut tuner, &w, &SAVINGS, params);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_oracle_with_many_ramps() {
        let savings = [20_000.0, 14_000.0, 9_000.0, 5_000.0, 2_000.0];
        let mut tuner = IncrementalTuner::new();
        for seed in [3, 8, 21] {
            let w = window_of(&observations_k(400, seed, savings.len()), savings.len());
            assert_matches_oracle(&mut tuner, &w, &savings, GreedyParams::default());
        }
    }

    #[test]
    fn incremental_matches_oracle_on_empty_window() {
        let mut tuner = IncrementalTuner::new();
        assert_matches_oracle(&mut tuner, &window(0, 0), &SAVINGS, GreedyParams::default());
    }

    #[test]
    fn incremental_tuner_caches_unchanged_windows() {
        let w = window(300, 9);
        let mut tuner = IncrementalTuner::new();
        let first = tuner.tune(&w, &SAVINGS, GreedyParams::default());
        let again = tuner.tune(&w, &SAVINGS, GreedyParams::default());
        assert_eq!(first, again);
        // Changing the parameters must bypass the cache and still match the
        // oracle.
        let tight = GreedyParams {
            accuracy_loss_budget: 0.002,
            ..Default::default()
        };
        assert_matches_oracle(&mut tuner, &w, &SAVINGS, tight);
    }

    #[test]
    fn incremental_tuner_tracks_a_sliding_window() {
        // One tuner, one ring: keep pushing past capacity and re-tune after
        // each eviction burst — every tune must match a fresh oracle over the
        // ring's current contents.
        let mut w = TuningWindow::new(2, 128);
        let mut tuner = IncrementalTuner::new();
        for (i, row) in observations(600, 13).iter().enumerate() {
            w.push(row);
            if i % 150 == 149 {
                assert_matches_oracle(&mut tuner, &w, &SAVINGS, GreedyParams::default());
            }
        }
    }

    #[test]
    fn wrapped_ring_evaluates_like_a_fresh_window() {
        // Once the ring wraps, slot order is no longer arrival order. The
        // evaluator must not care: a ring that has evicted requests scores
        // every configuration exactly as a fresh window holding only the
        // surviving requests, in arrival order.
        let rows = observations(600, 17);
        let mut ring = TuningWindow::new(2, 128);
        for row in &rows {
            ring.push(row);
        }
        let fresh = window_of(&rows[rows.len() - 128..], 2);
        let on_ring = ThresholdEvaluator::new(&ring, &SAVINGS);
        let on_fresh = ThresholdEvaluator::new(&fresh, &SAVINGS);
        for a in [0.0, 0.05, 0.2, 0.45, 0.8, 1.0] {
            for b in [0.0, 0.1, 0.3, 0.6, 1.0] {
                assert_eq!(on_ring.evaluate(&[a, b]), on_fresh.evaluate(&[a, b]));
            }
        }
        let params = GreedyParams::default();
        assert_eq!(
            greedy_tune(&on_ring, params),
            greedy_tune(&on_fresh, params)
        );
        assert_eq!(
            IncrementalTuner::new().tune(&ring, &SAVINGS, params),
            greedy_tune(&on_fresh, params)
        );
    }

    #[test]
    fn incremental_tuner_survives_ramp_set_changes() {
        // Re-using one tuner across windows of different widths (a ramp-set
        // change clears the window) must not leave stale columns behind.
        let mut tuner = IncrementalTuner::new();
        let savings4 = [12_000.0, 8_000.0, 5_000.0, 2_500.0];
        let wide = window_of(&observations_k(200, 5, 4), 4);
        assert_matches_oracle(&mut tuner, &wide, &savings4, GreedyParams::default());
        assert_matches_oracle(
            &mut tuner,
            &window(200, 5),
            &SAVINGS,
            GreedyParams::default(),
        );
    }

    #[test]
    fn greedy_prefers_the_more_valuable_ramp() {
        // Savings strongly favour ramp 0; with both ramps equally accurate the
        // search should raise ramp 0's threshold at least as far as ramp 1's.
        let w = window(400, 7);
        let evaluator = ThresholdEvaluator::new(&w, &SAVINGS);
        let outcome = greedy_tune(
            &evaluator,
            GreedyParams {
                accuracy_loss_budget: 0.02,
                ..Default::default()
            },
        );
        assert!(outcome.thresholds[0] >= outcome.thresholds[1] * 0.5);
    }
}
