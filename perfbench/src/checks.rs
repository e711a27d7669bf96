//! Correctness checks. They run outside the timed passes; a run that fails
//! any of them reports `correct: false` and exits nonzero.

use apparate_experiments::{
    run_admission_fleet, run_classification_full, run_generative_traced, scenario_config,
};
use apparate_serving::{available_threads, IngestStats};
use apparate_telemetry::{
    render_metrics_json_lines, render_trace_json_lines, Telemetry, TelemetryConfig,
};

use crate::pipeline::{Evidence, PassOutput};
use crate::workloads::{self, Sizes, Workload, FLEET_DISPATCH, FLEET_REPLICAS};

/// The same outputs, produced by the program's own runner for the workload:
/// `run_classification_full`, `run_generative_traced` (with a recording
/// telemetry handle, exported as `repro --trace-out/--metrics-out` does) or
/// `run_admission_fleet`.
pub fn runner_evidence(workload: Workload, seed: u64, sizes: Sizes) -> Evidence {
    match workload {
        Workload::CvVideo => Evidence {
            table: run_classification_full(&workloads::cv_video(seed, sizes))
                .table
                .render(),
            exports: None,
            ingest: None,
            attainment: None,
        },
        Workload::GenDecode => {
            let telemetry = Telemetry::recording(TelemetryConfig::default());
            let run = run_generative_traced(&workloads::gen_decode(seed, sizes), &telemetry);
            let snapshot = telemetry.snapshot().expect("a recording handle snapshots");
            Evidence {
                table: run.table.render(),
                exports: Some((
                    render_trace_json_lines(&snapshot),
                    render_metrics_json_lines(&snapshot),
                )),
                ingest: None,
                attainment: None,
            }
        }
        Workload::FleetOverload => {
            let run = run_admission_fleet(
                &workloads::fleet_overload(seed, sizes),
                FLEET_REPLICAS,
                FLEET_DISPATCH,
                available_threads(),
            );
            Evidence {
                table: run.table.render(),
                exports: None,
                ingest: Some(run.ingest),
                attainment: Some((run.attainment_without, run.attainment_with)),
            }
        }
    }
}

/// Byte-compare two texts, naming the first line that differs.
pub fn identical(what: &str, ours: &str, theirs: &str) -> Result<(), String> {
    if ours == theirs {
        return Ok(());
    }
    let line = ours
        .lines()
        .zip(theirs.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| ours.lines().count().min(theirs.lines().count()));
    Err(format!(
        "{what} differs from the runner's at line {}: {:?} vs {:?}",
        line + 1,
        ours.lines().nth(line).unwrap_or("<end>"),
        theirs.lines().nth(line).unwrap_or("<end>"),
    ))
}

/// The composed pass's outputs equal the runner's, byte for byte.
pub fn same_as_runner(ours: &Evidence, runner: &Evidence) -> Result<(), String> {
    identical("comparison table", &ours.table, &runner.table)?;
    match (&ours.exports, &runner.exports) {
        (Some((trace, metrics)), Some((runner_trace, runner_metrics))) => {
            identical("trace export", trace, runner_trace)?;
            identical("metrics export", metrics, runner_metrics)?;
        }
        (None, None) => {}
        _ => return Err("telemetry exports present on one side only".to_string()),
    }
    if ours.ingest != runner.ingest {
        return Err(format!(
            "ingest counters differ: {:?} vs {:?}",
            ours.ingest, runner.ingest
        ));
    }
    if ours.attainment != runner.attainment {
        return Err(format!(
            "attainment differs: {:?} vs {:?}",
            ours.attainment, runner.attainment
        ));
    }
    Ok(())
}

/// Every offered arrival is either admitted or shed.
pub fn ingest_balances(stats: &IngestStats) -> Result<(), String> {
    if stats.admitted + stats.shed == stats.offered {
        Ok(())
    } else {
        Err(format!(
            "admitted {} + shed {} != offered {}",
            stats.admitted, stats.shed, stats.offered
        ))
    }
}

/// The accuracy constraint the controller is configured with, in percent.
pub fn accuracy_constraint_pct() -> f64 {
    scenario_config().accuracy_constraint * 100.0
}

/// Apparate's accuracy loss stays within its configured constraint.
pub fn accuracy_within(loss_pct: f64, constraint_pct: f64) -> Result<(), String> {
    if loss_pct <= constraint_pct {
        Ok(())
    } else {
        Err(format!(
            "accuracy loss {loss_pct:.4} % exceeds the {constraint_pct} % constraint"
        ))
    }
}

/// A traced pass computed exactly what its untraced twin did.
pub fn same_simulation(untraced: &PassOutput, traced: &PassOutput) -> Result<(), String> {
    identical(
        "traced comparison table",
        &traced.evidence.table,
        &untraced.evidence.table,
    )?;
    if traced.evidence != untraced.evidence {
        return Err("traced exports or counters differ from the untraced pass".to_string());
    }
    if traced.headline != untraced.headline {
        return Err("traced simulated metrics differ from the untraced pass".to_string());
    }
    if traced.served != untraced.served {
        return Err("traced pass served a different number of units".to_string());
    }
    Ok(())
}

/// Checks every pass gets, whichever run it belongs to.
pub fn pass_checks(out: &PassOutput) -> Result<(), String> {
    match &out.evidence.ingest {
        Some(stats) => ingest_balances(stats),
        None => Ok(()),
    }
}
