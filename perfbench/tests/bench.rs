//! The benchmark's own tests: metric naming, metric coverage per workload,
//! determinism of the simulated metrics, and that the correctness checks
//! catch a corrupted result. Run with
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use apparate_perfbench::checks;
use apparate_perfbench::metrics::{self, END_TO_END, PER_LAYER};
use apparate_perfbench::pass_seed;
use apparate_perfbench::pipeline::{run_pass, PassOutput, PassSpec};
use apparate_perfbench::workloads::{Sizes, Workload};

/// Reduced streams with the benchmark's structure, so the tests stay fast.
const SMALL: Sizes = Sizes {
    frames: 1_200,
    gen_requests: 24,
};

fn pass(workload: Workload, seed: u64, traced: bool) -> PassOutput {
    run_pass(PassSpec {
        workload,
        seed,
        sizes: SMALL,
        traced,
        out_dir: None,
    })
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Every `"name": "…"` value in `text` after `section`'s key, up to the
/// section's closing bracket.
fn names_in(text: &str, section: &str) -> Vec<String> {
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(seen.insert(def.name), "duplicate metric name {}", def.name);
        assert!(
            !def.unit.is_empty()
                && def.unit.len() <= 16
                && def
                    .unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} for {}",
            def.unit,
            def.name
        );
    }
    for workload in Workload::ALL {
        assert!(valid_name(workload.name()));
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
}

#[test]
fn benchmark_json_matches_the_metric_definitions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&text, "workloads"), workloads);
    for (section, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let names: Vec<String> = defs.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(names_in(&text, section), names, "{section} names");
        for def in defs {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name,
                def.unit,
                def.better.as_str()
            );
            assert!(text.contains(&entry), "{section} entry {entry}");
        }
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_for_every_workload() {
    for workload in Workload::ALL {
        let passes: Vec<PassOutput> = (0..2)
            .map(|i| pass(workload, pass_seed(7, i), false))
            .collect();
        let headlines: Vec<_> = passes.iter().map(|p| &p.headline).collect();
        let sim = metrics::pool(&headlines);
        let setups: Vec<_> = passes.iter().map(|p| p.setup).collect();
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.served as f64 / p.serving.as_secs_f64())
            .collect();
        let values = metrics::end_to_end(&setups, &rates, 1.0, &sim, passes.len());
        let json = metrics::result_json(true, 2, 0, &END_TO_END, &values);
        for def in END_TO_END {
            let value = values
                .iter()
                .find(|v| v.name == def.name)
                .unwrap_or_else(|| panic!("{} missing on {}", def.name, workload.name()));
            assert!(
                value.value.is_finite(),
                "{} = {} on {}",
                def.name,
                value.value,
                workload.name()
            );
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", def.name)));
        }
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {")
        );
    }
}

#[test]
fn every_per_layer_metric_is_emitted_for_every_workload() {
    for workload in Workload::ALL {
        let plain = pass(workload, 11, false);
        let traced = pass(workload, 11, true);
        checks::same_simulation(&plain, &traced).expect("tracing changes nothing simulated");
        let walls = [(plain.setup + plain.serving).as_secs_f64()];
        let runs = [traced];
        let (values, idle) = metrics::per_layer(&runs, 1, &walls);
        for def in PER_LAYER {
            let v = values
                .iter()
                .find(|v| v.name == def.name)
                .unwrap_or_else(|| panic!("{} missing on {}", def.name, workload.name()));
            assert!(v.value.is_finite(), "{} on {}", def.name, workload.name());
        }
        // Each workload leaves exactly the layers its definition says idle,
        // except that reduced streams may end before the controller tunes or
        // adjusts.
        let expect_idle: &[&str] = match workload {
            Workload::CvVideo => &["ingest.", "fleet.", "telemetry."],
            Workload::GenDecode => &["ingest.", "fleet.", "platform.queue_wait"],
            Workload::FleetOverload => &[
                "tuning.oneshot",
                "policy.uniform-ee",
                "policy.oneshot-tuned",
                "policy.oracle",
                "telemetry.",
            ],
        };
        for name in &idle {
            assert!(
                expect_idle.iter().any(|p| name.starts_with(p))
                    || name.starts_with("controller.tune_step")
                    || name.starts_with("controller.adjust_step"),
                "{name} unexpectedly idle on {}",
                workload.name()
            );
        }
        for prefix in expect_idle {
            assert!(
                idle.iter().any(|n| n.starts_with(prefix)),
                "{prefix} should be idle on {}",
                workload.name()
            );
        }
    }
}

#[test]
fn simulated_metrics_are_identical_across_two_runs_for_a_seed() {
    for workload in Workload::ALL {
        let a: Vec<PassOutput> = (0..2)
            .map(|i| pass(workload, pass_seed(3, i), false))
            .collect();
        let b: Vec<PassOutput> = (0..2)
            .map(|i| pass(workload, pass_seed(3, i), false))
            .collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.headline, y.headline, "{}", workload.name());
            assert_eq!(x.evidence, y.evidence, "{}", workload.name());
        }
        let pooled = |runs: &[PassOutput]| {
            metrics::pool(&runs.iter().map(|p| &p.headline).collect::<Vec<_>>())
        };
        assert_eq!(pooled(&a), pooled(&b), "{}", workload.name());
    }
}

#[test]
fn composed_passes_match_the_program_runners() {
    for workload in Workload::ALL {
        let ours = pass(workload, 5, false);
        let runner = checks::runner_evidence(workload, 5, SMALL);
        checks::same_as_runner(&ours.evidence, &runner)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        checks::pass_checks(&ours).expect("ingest balances");
    }
}

#[test]
fn checks_fail_on_a_corrupted_table() {
    let ours = pass(Workload::CvVideo, 5, false);
    let runner = checks::runner_evidence(Workload::CvVideo, 5, SMALL);
    let mut corrupted = ours.evidence.clone();
    // Flip one digit of the apparate row.
    let row = corrupted.table.find("apparate").expect("apparate row");
    let digit = row
        + corrupted.table[row..]
            .find(|c: char| c.is_ascii_digit())
            .expect("a digit");
    let old = corrupted.table.as_bytes()[digit];
    let new = if old == b'9' { "0" } else { "9" };
    corrupted.table.replace_range(digit..digit + 1, new);
    let error = checks::same_as_runner(&corrupted, &runner).expect_err("corruption caught");
    assert!(error.contains("comparison table"), "{error}");

    let mut traced = pass(Workload::CvVideo, 5, true);
    traced.evidence.table = corrupted.table.clone();
    assert!(checks::same_simulation(&ours, &traced).is_err());
    traced.evidence = ours.evidence.clone();
    traced.headline.apparate_correct += 1;
    assert!(checks::same_simulation(&ours, &traced).is_err());

    let mut fleet = pass(Workload::FleetOverload, 5, false);
    let stats = fleet
        .evidence
        .ingest
        .as_mut()
        .expect("fleet ingest counters");
    stats.shed += 1;
    assert!(checks::pass_checks(&fleet).is_err());

    assert!(checks::accuracy_within(1.5, checks::accuracy_constraint_pct()).is_err());
    assert!(checks::accuracy_within(0.2, checks::accuracy_constraint_pct()).is_ok());
}

#[test]
fn the_command_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_apparate-perfbench");
    for args in [
        &[][..],
        &[
            "--workload",
            "nlp",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cv-video",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cv-video",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn mid_quantile_interpolates_across_ties() {
    // Without ties it is the Hazen quantile: rank q * n + 0.5.
    let distinct = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(metrics::mid_quantile(&distinct, 0.5), 2.5);
    assert_eq!(metrics::mid_quantile(&distinct, 0.125), 1.0);
    assert_eq!(metrics::mid_quantile(&distinct, 0.99), 4.0);
    // With ties it moves continuously as mass shifts between values, where
    // the ordinary median jumps from one value to the other.
    let mostly_low = [1.0, 1.0, 1.0, 5.0];
    let evenly = [1.0, 1.0, 5.0, 5.0];
    let mostly_high = [1.0, 5.0, 5.0, 5.0];
    let (a, b, c) = (
        metrics::mid_quantile(&mostly_low, 0.5),
        metrics::mid_quantile(&evenly, 0.5),
        metrics::mid_quantile(&mostly_high, 0.5),
    );
    assert!(1.0 < a && a < b && b < c && c < 5.0, "{a} {b} {c}");
    assert_eq!(b, 3.0);
    assert_eq!(metrics::mid_quantile(&[], 0.5), 0.0);
}
