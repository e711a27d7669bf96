//! Statistical benchmark harness for the Apparate reproduction.
//!
//! The build container has no registry access, so criterion cannot be
//! vendored (see ROADMAP.md); this crate provides the same measurement shape
//! offline:
//!
//! * [`harness`] — warmup, iteration calibration against a wall-clock budget,
//!   per-sample recording ([`run_bench`] / [`BenchConfig`]).
//! * [`stats`] — interpolated quantiles and MAD-based outlier rejection.
//! * [`report`] — the [`BenchReport`] record and the hand-rolled JSON-lines
//!   writer behind `BENCH_*.json` (the code uses no serialisation crate, so
//!   serialisation is manual).
//! * [`suites`] — the nine suites measuring the workspace's hot paths (from
//!   Algorithm 1 micro-benchmarks up to multi-replica fleet runs);
//!   `benches/bench_*.rs` and the `bench` binary both dispatch into them.
//! * [`compare`] — the baseline parser and per-suite regression gate behind
//!   CI's `bench-regression` job (`bench --baseline BENCH_apparate.json`).
//!
//! Run everything and write the consolidated perf-trajectory file with:
//!
//! ```text
//! cargo run --release -p apparate-bench --bin bench -- --quick --out BENCH_apparate.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod report;
pub mod stats;
pub mod suites;

pub use compare::{parse_baseline, BaselineEntry, GateError, RegressionReport, REQUIRED_SUITES};
pub use harness::{run_bench, BenchConfig};
pub use report::{escape_json, json_number, render_json_lines, render_table, BenchReport};
pub use suites::{run_all, run_suite, suite_names, BenchContext, SUITES};

use std::time::Instant;

/// Run `f` `iters` times and return the mean wall-clock duration per
/// iteration in microseconds.
///
/// The closure's return value is routed through [`std::hint::black_box`] so
/// the optimiser cannot delete trivial measured bodies; prefer returning the
/// computed value over black-boxing inside the closure.
pub fn time_it<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "at least one iteration is required");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Entry point shared by the seven `benches/bench_*.rs` harnesses
/// (`harness = false`): parse `--quick`/`--smoke`/`--seed N`, run one suite,
/// print its table. Flags cargo itself forwards (e.g. `--bench`) are ignored.
pub fn bench_main(suite: &str) {
    let mut config = BenchConfig::full();
    let mut seed = 42u64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = BenchConfig::quick(),
            "--smoke" => config = BenchConfig::smoke(),
            "--seed" => {
                let value = it.next().unwrap_or_default();
                match value.parse() {
                    Ok(parsed) => seed = parsed,
                    Err(_) => {
                        eprintln!("{suite}: invalid --seed value: {value}");
                        std::process::exit(2);
                    }
                }
            }
            _ => {} // cargo bench forwards its own flags; ignore them
        }
    }
    let ctx = BenchContext { seed, config };
    let reports = run_suite(&ctx, suite)
        .unwrap_or_else(|| panic!("suite {suite:?} is not registered in suites::SUITES"));
    print!("{}", render_table(&reports));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_reports_a_meaningful_per_iteration_mean() {
        let small = time_it(20, || (0..2_000u64).sum::<u64>());
        let large = time_it(20, || {
            (0..200_000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(small > 0.0, "real work takes measurable time");
        assert!(
            large > small,
            "100x the work must report a larger mean ({large} vs {small} µs)"
        );
    }

    #[test]
    fn time_it_supports_stateful_closures_and_discards_results() {
        let mut calls = 0u32;
        let mean = time_it(5, || {
            calls += 1;
            vec![calls; 8] // non-Copy return value is fine; black_box eats it
        });
        assert_eq!(calls, 5);
        assert!(mean >= 0.0);
    }
}
