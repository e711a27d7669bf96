//! Latency-focused ramp adjustment (§3.3, Algorithm 2, Figure 11).
//!
//! Periodically (every 128 samples by default) Apparate re-evaluates the set
//! of active ramps:
//!
//! * each active ramp gets a **utility** = latency saved by the inputs that
//!   exited there − latency it added to inputs it could not exit;
//! * negative-utility ramps are deactivated (after the controller has given a
//!   fast threshold-tuning round a chance to rescue them), and a replacement
//!   is trialled from the region after the latest positive ramp, chosen by an
//!   **upper-bound utility** derived from the deactivated ramps' profiled exit
//!   rates (a candidate cannot exit more than the inputs that would have gone
//!   on to exit at the deactivated ramps downstream of it);
//! * if every ramp is positive, a **low-risk probe** either adds a ramp just
//!   before the best ramp (budget permitting) or shifts the worst ramp one
//!   feasible position earlier.

/// Per-ramp utility over the last adjustment window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampUtility {
    /// Total latency saved by requests that exited at this ramp (µs).
    pub savings_us: f64,
    /// Total latency this ramp added to requests it could not exit (µs).
    pub overhead_us: f64,
}

impl RampUtility {
    /// Net utility (savings − overhead).
    pub fn net_us(&self) -> f64 {
        self.savings_us - self.overhead_us
    }
}

/// Compute per-active-ramp utilities from windowed exit statistics.
///
/// * `exit_counts[i]` — requests that exited at active ramp `i` in the window.
/// * `window_requests` — total requests in the window.
/// * `per_exit_saving_us[i]` — latency saved when one request exits at ramp `i`.
/// * `per_request_overhead_us[i]` — latency ramp `i` adds to one request that
///   passes it without exiting there (its own evaluation cost).
///
/// A request "passes" ramp `i` without exiting if it exited at a strictly
/// later ramp or not at all; requests that exited earlier already had their
/// results released, so ramp `i` adds nothing to their response latency.
pub fn ramp_utilities(
    exit_counts: &[u64],
    window_requests: u64,
    per_exit_saving_us: &[f64],
    per_request_overhead_us: &[f64],
) -> Vec<RampUtility> {
    let n = exit_counts.len();
    debug_assert_eq!(per_exit_saving_us.len(), n);
    debug_assert_eq!(per_request_overhead_us.len(), n);
    let mut utilities = Vec::with_capacity(n);
    // Requests that exited at or before ramp i.
    let mut exited_up_to = 0u64;
    for i in 0..n {
        let exits_here = exit_counts[i];
        let savings = exits_here as f64 * per_exit_saving_us[i];
        exited_up_to += exits_here;
        let passed_without_exit = window_requests.saturating_sub(exited_up_to);
        let overhead = passed_without_exit as f64 * per_request_overhead_us[i];
        utilities.push(RampUtility {
            savings_us: savings,
            overhead_us: overhead,
        });
    }
    utilities
}

/// What the adjustment round decided, for reporting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdjustAction {
    /// Negative ramps were removed and (optionally) a candidate was added.
    ReplacedNegative {
        /// Site indices that were deactivated.
        deactivated: Vec<usize>,
        /// Site index of the trial ramp added, if any had positive upper-bound utility.
        added: Option<usize>,
    },
    /// All ramps were positive and spare budget allowed adding an earlier ramp.
    ProbedEarlier {
        /// Site index of the added ramp.
        added: usize,
    },
    /// All ramps were positive, no budget: the lowest-utility ramp moved one
    /// position earlier.
    ShiftedEarlier {
        /// Site index vacated.
        from: usize,
        /// Site index now occupied.
        to: usize,
    },
    /// Nothing changed.
    NoChange,
}

/// Outcome of one adjustment round.
#[derive(Debug, Clone, PartialEq)]
pub struct AdjustDecision {
    /// The new active set, as sorted feasible-site indices.
    pub new_active: Vec<usize>,
    /// Site indices newly added this round (their thresholds must start at 0).
    pub newly_added: Vec<usize>,
    /// What happened.
    pub action: AdjustAction,
}

/// Inputs to one adjustment round.
#[derive(Debug, Clone)]
pub struct AdjustInput<'a> {
    /// Number of feasible sites (site indices are `0..num_sites`).
    pub num_sites: usize,
    /// Currently active site indices, sorted ascending.
    pub active_sites: &'a [usize],
    /// Net utility (µs) of each active ramp, parallel to `active_sites`.
    pub utilities_us: &'a [f64],
    /// Windowed exit rate of each active ramp, parallel to `active_sites`.
    pub exit_rates: &'a [f64],
    /// Requests in the adjustment window.
    pub window_requests: u64,
    /// Latency saved by one exit at a given site index (µs).
    pub per_exit_saving_us: &'a [f64],
    /// Per-request overhead of a ramp (µs); identical across sites for a given
    /// architecture, so a single scalar.
    pub per_request_overhead_us: f64,
    /// Maximum simultaneously active ramps (the budget).
    pub max_active: usize,
}

/// Run one ramp-adjustment round (Algorithm 2).
pub fn adjust_ramps(input: &AdjustInput<'_>) -> AdjustDecision {
    let n = input.active_sites.len();
    debug_assert_eq!(input.utilities_us.len(), n);
    debug_assert_eq!(input.exit_rates.len(), n);
    debug_assert_eq!(input.per_exit_saving_us.len(), input.num_sites);
    if n == 0 {
        return AdjustDecision {
            new_active: Vec::new(),
            newly_added: Vec::new(),
            action: AdjustAction::NoChange,
        };
    }
    let negative: Vec<usize> = (0..n).filter(|&i| input.utilities_us[i] < 0.0).collect();
    if !negative.is_empty() {
        return replace_negative(input, &negative);
    }
    probe_earlier(input)
}

/// Handle the negative-utility branch: deactivate, pick a trial candidate from
/// the intervals after the latest positive ramp using upper-bound exit rates.
fn replace_negative(input: &AdjustInput<'_>, negative: &[usize]) -> AdjustDecision {
    let deactivated_sites: Vec<usize> = negative.iter().map(|&i| input.active_sites[i]).collect();
    let retained: Vec<usize> = (0..input.active_sites.len())
        .filter(|i| !negative.contains(i))
        .map(|i| input.active_sites[i])
        .collect();
    // Latest positive ramp P (by site index). If everything was negative, fall
    // back to "before the first feasible site".
    let latest_positive: Option<usize> = retained.iter().copied().max();
    let start = latest_positive.map(|p| p + 1).unwrap_or(0);

    // Deactivated ramps after P partition (start..num_sites) into intervals.
    let mut boundaries: Vec<usize> = deactivated_sites
        .iter()
        .copied()
        .filter(|&s| s >= start)
        .collect();
    boundaries.sort_unstable();
    // Exit rates of deactivated ramps, keyed by site index, for the bound.
    let deactivated_rate = |site: usize| -> f64 {
        input
            .active_sites
            .iter()
            .position(|&s| s == site)
            .map(|i| input.exit_rates[i])
            .unwrap_or(0.0)
    };

    // Build the intervals [start, b0), [b0+1, b1), ..., [b_last+1, num_sites)
    // together with the deactivated ramp that closes each interval (if any).
    // The upper-bound exit rate of candidates inside an interval is the
    // profiled exit rate of that closing ramp plus all earlier deactivations —
    // inputs that would have reached the closing ramp and might have exited
    // there (Figure 11).
    let mut intervals: Vec<(usize, usize)> = Vec::new();
    let mut interval_bounds: Vec<f64> = Vec::new();
    let mut cumulative_rate = 0.0f64;
    let mut lo = start;
    for &b in &boundaries {
        if b > lo {
            intervals.push((lo, b));
            interval_bounds.push(cumulative_rate + deactivated_rate(b));
        }
        cumulative_rate += deactivated_rate(b);
        lo = b + 1;
    }
    if lo < input.num_sites {
        intervals.push((lo, input.num_sites));
        interval_bounds.push(cumulative_rate);
    }

    // Search rounds: midpoints first, then successively later points of each
    // interval, as the paper does for all-negative projected utilities.
    let occupied: Vec<usize> = retained.clone();
    let mut added: Option<usize> = None;
    'rounds: for round in 0..4 {
        let mut best: Option<(usize, f64)> = None;
        for (k, &(lo, hi)) in intervals.iter().enumerate() {
            if hi <= lo {
                continue;
            }
            // Candidate position for this round: 1/2, then 3/4, 7/8, ... of the
            // interval (progressively later).
            let frac = 1.0 - 1.0 / (2u32.pow(round + 1) as f64);
            let pos = lo + ((hi - lo - 1) as f64 * frac).round() as usize;
            let candidate = pos.min(hi - 1);
            if occupied.contains(&candidate) || deactivated_sites.contains(&candidate) {
                continue;
            }
            let ub_rate = interval_bounds[k];
            let savings =
                ub_rate * input.window_requests as f64 * input.per_exit_saving_us[candidate];
            let overhead = (1.0 - ub_rate).max(0.0)
                * input.window_requests as f64
                * input.per_request_overhead_us;
            let utility = savings - overhead;
            if utility > 0.0 && best.map(|(_, u)| utility > u).unwrap_or(true) {
                best = Some((candidate, utility));
            }
        }
        if let Some((candidate, _)) = best {
            added = Some(candidate);
            break 'rounds;
        }
    }

    let mut new_active = retained;
    let mut newly_added = Vec::new();
    if let Some(site) = added {
        new_active.push(site);
        newly_added.push(site);
    }
    new_active.sort_unstable();
    AdjustDecision {
        new_active,
        newly_added,
        action: AdjustAction::ReplacedNegative {
            deactivated: deactivated_sites,
            added,
        },
    }
}

/// Handle the all-positive branch: add an earlier ramp if budget remains,
/// otherwise shift the lowest-utility ramp one feasible position earlier.
fn probe_earlier(input: &AdjustInput<'_>) -> AdjustDecision {
    let n = input.active_sites.len();
    let best_idx = (0..n)
        .max_by(|&a, &b| input.utilities_us[a].total_cmp(&input.utilities_us[b]))
        .expect("non-empty active set");
    let worst_idx = (0..n)
        .min_by(|&a, &b| input.utilities_us[a].total_cmp(&input.utilities_us[b]))
        .expect("non-empty active set");
    let occupied: Vec<usize> = input.active_sites.to_vec();
    if n < input.max_active {
        // Add a ramp immediately before the highest-utility ramp.
        let best_site = input.active_sites[best_idx];
        let target = (0..best_site).rev().find(|site| !occupied.contains(site));
        if let Some(site) = target {
            let mut new_active = occupied;
            new_active.push(site);
            new_active.sort_unstable();
            return AdjustDecision {
                new_active,
                newly_added: vec![site],
                action: AdjustAction::ProbedEarlier { added: site },
            };
        }
    } else if worst_idx != best_idx {
        // Shift the lowest-utility ramp one position earlier, leaving the most
        // positive ramp untouched.
        let from = input.active_sites[worst_idx];
        if from > 0 {
            let to = from - 1;
            if !occupied.contains(&to) {
                let mut new_active: Vec<usize> =
                    occupied.into_iter().filter(|&s| s != from).collect();
                new_active.push(to);
                new_active.sort_unstable();
                return AdjustDecision {
                    new_active,
                    newly_added: vec![to],
                    action: AdjustAction::ShiftedEarlier { from, to },
                };
            }
        }
    }
    AdjustDecision {
        new_active: input.active_sites.to_vec(),
        newly_added: Vec::new(),
        action: AdjustAction::NoChange,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilities_account_for_savings_and_overheads() {
        // 100 requests; ramp 0 exits 60 of them saving 10 ms each, ramp 1 exits
        // 10 more saving 4 ms each; ramp overhead is 50 µs per pass.
        let utilities = ramp_utilities(&[60, 10], 100, &[10_000.0, 4_000.0], &[50.0, 50.0]);
        assert!((utilities[0].savings_us - 600_000.0).abs() < 1e-6);
        // 40 requests pass ramp 0 without exiting there.
        assert!((utilities[0].overhead_us - 2_000.0).abs() < 1e-6);
        assert!(utilities[0].net_us() > 0.0);
        // 30 requests pass ramp 1 without exiting (100 - 60 - 10).
        assert!((utilities[1].overhead_us - 1_500.0).abs() < 1e-6);
    }

    #[test]
    fn useless_ramp_has_negative_utility() {
        let utilities = ramp_utilities(&[0, 50], 100, &[10_000.0, 4_000.0], &[50.0, 50.0]);
        assert!(utilities[0].net_us() < 0.0);
        assert!(utilities[1].net_us() > 0.0);
    }

    fn savings_by_site(num_sites: usize, total_us: f64) -> Vec<f64> {
        // Earlier sites save more (the rest of the model is longer).
        (0..num_sites)
            .map(|i| total_us * (1.0 - (i as f64 + 0.5) / num_sites as f64))
            .collect()
    }

    #[test]
    fn negative_ramp_is_deactivated_and_replaced_downstream() {
        let num_sites = 20;
        let savings = savings_by_site(num_sites, 20_000.0);
        // Active ramps at sites 4 (positive) and 10 (negative).
        let input = AdjustInput {
            num_sites,
            active_sites: &[4, 10],
            utilities_us: &[50_000.0, -2_000.0],
            exit_rates: &[0.5, 0.2],
            window_requests: 128,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 30.0,
            max_active: 4,
        };
        let decision = adjust_ramps(&input);
        match &decision.action {
            AdjustAction::ReplacedNegative { deactivated, added } => {
                assert_eq!(deactivated, &vec![10]);
                let added = added.expect("a positive-upper-bound candidate exists");
                // The candidate must lie after the latest positive ramp (site 4)
                // and must not be the deactivated site itself.
                assert!(added > 4 && added != 10);
                assert!(decision.new_active.contains(&added));
                assert!(!decision.new_active.contains(&10));
                assert!(decision.new_active.contains(&4));
                assert_eq!(decision.newly_added, vec![added]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn all_negative_ramps_are_removed() {
        let num_sites = 12;
        let savings = savings_by_site(num_sites, 1_000.0);
        // Tiny savings and an enormous overhead: no candidate can be positive.
        let input = AdjustInput {
            num_sites,
            active_sites: &[2, 6],
            utilities_us: &[-500.0, -800.0],
            exit_rates: &[0.01, 0.01],
            window_requests: 128,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 10_000.0,
            max_active: 4,
        };
        let decision = adjust_ramps(&input);
        match &decision.action {
            AdjustAction::ReplacedNegative { deactivated, added } => {
                assert_eq!(deactivated.len(), 2);
                assert!(added.is_none(), "no candidate should look profitable");
                assert!(decision.new_active.is_empty());
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn all_positive_with_budget_adds_before_best() {
        let num_sites = 20;
        let savings = savings_by_site(num_sites, 20_000.0);
        let input = AdjustInput {
            num_sites,
            active_sites: &[8, 14],
            utilities_us: &[90_000.0, 20_000.0],
            exit_rates: &[0.6, 0.2],
            window_requests: 128,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 30.0,
            max_active: 4,
        };
        let decision = adjust_ramps(&input);
        match decision.action {
            AdjustAction::ProbedEarlier { added } => {
                assert_eq!(
                    added, 7,
                    "should add immediately before the best ramp (site 8)"
                );
                assert_eq!(decision.new_active, vec![7, 8, 14]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn all_positive_without_budget_shifts_worst_earlier() {
        let num_sites = 20;
        let savings = savings_by_site(num_sites, 20_000.0);
        let input = AdjustInput {
            num_sites,
            active_sites: &[8, 14],
            utilities_us: &[90_000.0, 20_000.0],
            exit_rates: &[0.6, 0.2],
            window_requests: 128,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 30.0,
            max_active: 2,
        };
        let decision = adjust_ramps(&input);
        match decision.action {
            AdjustAction::ShiftedEarlier { from, to } => {
                assert_eq!(from, 14);
                assert_eq!(to, 13);
                assert_eq!(decision.new_active, vec![8, 13]);
                assert_eq!(decision.newly_added, vec![13]);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn shift_is_blocked_when_previous_site_is_occupied() {
        let num_sites = 10;
        let savings = savings_by_site(num_sites, 20_000.0);
        let input = AdjustInput {
            num_sites,
            active_sites: &[4, 5],
            utilities_us: &[90_000.0, 10_000.0],
            exit_rates: &[0.5, 0.1],
            window_requests: 128,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 30.0,
            max_active: 2,
        };
        let decision = adjust_ramps(&input);
        assert_eq!(decision.action, AdjustAction::NoChange);
        assert_eq!(decision.new_active, vec![4, 5]);
    }

    #[test]
    fn empty_active_set_is_a_no_op() {
        let savings = savings_by_site(5, 1_000.0);
        let input = AdjustInput {
            num_sites: 5,
            active_sites: &[],
            utilities_us: &[],
            exit_rates: &[],
            window_requests: 0,
            per_exit_saving_us: &savings,
            per_request_overhead_us: 10.0,
            max_active: 2,
        };
        let decision = adjust_ramps(&input);
        assert_eq!(decision.action, AdjustAction::NoChange);
        assert!(decision.new_active.is_empty());
    }
}
