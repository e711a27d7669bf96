//! End-to-end benchmark of the Apparate reproduction.
//!
//! One command runs one of three named workloads (see [`workloads`]) for a
//! wall-clock budget and prints its metrics as a JSON object on the last line
//! of standard output:
//!
//! * the untraced run reports the end-to-end metrics (wall-clock set-up and
//!   serving rate, peak memory, and the simulated-serving headline numbers)
//!   and checks that the outputs are correct;
//! * the traced run reports the per-layer metrics, measured from outside the
//!   program with spans around public calls and delegating policy wrappers
//!   (see [`probe`]), plus a reconciliation of the layers against the
//!   end-to-end wall time.
//!
//! Every workload pass is composed from the crates' public calls
//! ([`pipeline`]); [`checks`] holds each composition byte-identical to the
//! program's own runner for that workload.

#![forbid(unsafe_code)]

pub mod checks;
pub mod metrics;
pub mod pipeline;
pub mod probe;
pub mod workloads;

/// The seed of pass `index` of a run seeded with `seed`. Pass 0 uses the
/// run's seed itself; later passes step through well-separated seeds.
pub fn pass_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
