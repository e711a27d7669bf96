//! Shared release rule of the hindsight oracles.
//!
//! Both the classification and the token oracle apply the same §2.2 optimum:
//! exit at the earliest feasible site whose hypothetical ramp agrees with the
//! full model, pay no ramp overhead, and hold the GPU only until the slowest
//! member of the batch/step has released. Keeping the rule in one place means
//! the two oracles cannot drift apart.
//!
//! Each oracle builds its hypothetical ramps once, with
//! [`ExecutionPlan::site_ramps`], and then tests agreement only.

use apparate_exec::{ExecutionPlan, SampleSemantics, SiteRamp};

/// Offset (µs from batch start) at which one input's result is released by a
/// hindsight oracle over `sites`, plus the index of the exit site (into
/// `sites`), if any. `None` means the input runs the whole model.
pub(crate) fn release_us(
    plan: &ExecutionPlan,
    sites: &[SiteRamp],
    sample: &SampleSemantics,
    batch: u32,
) -> (f64, Option<usize>) {
    match plan.first_agreeing_site(sample, sites) {
        Some(idx) => (plan.site_prefix_us(sites[idx].site(), batch), Some(idx)),
        None => (plan.vanilla_total_us(batch), None),
    }
}

/// Release offsets for a whole batch plus the GPU occupancy: the batch frees
/// the GPU when its slowest member exits, which with zero ramp cost is at most
/// the vanilla batch time.
pub(crate) fn batch_releases(
    plan: &ExecutionPlan,
    sites: &[SiteRamp],
    samples: impl Iterator<Item = SampleSemantics>,
    batch: u32,
) -> (f64, Vec<(f64, Option<usize>)>) {
    let releases: Vec<(f64, Option<usize>)> = samples
        .map(|sample| release_us(plan, sites, &sample, batch))
        .collect();
    let gpu_us = releases.iter().map(|(us, _)| *us).fold(0.0f64, f64::max);
    (gpu_us, releases)
}
