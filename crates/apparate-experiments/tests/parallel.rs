//! Parallelism determinism suite: the fleet worker-thread count must never
//! leak into any observable output. Same seed + any `threads` value ⇒
//! byte-identical win tables, byte-identical telemetry exports (event trace
//! and metrics JSON-lines), identical coordination bills — for both the
//! classification fleet and the generative (decode-loop) fleet.
//!
//! This is the acceptance contract of the `--threads` knob: parallel fleet
//! execution buys wall-clock time only.

use apparate_experiments::{
    cv_scenario, generative_scenario, run_classification_fleet, run_generative_fleet, FleetRun,
};
use apparate_serving::FleetDispatch;
use apparate_telemetry::{
    render_metrics_json_lines, render_trace_json_lines, Telemetry, TelemetryConfig,
};

/// One of the two fleets below, at a thread count and with a sink.
type FleetRunner = fn(usize, &Telemetry) -> FleetRun;

/// The classification fleet every test here runs: 4 least-loaded replicas
/// over a 1 500-frame CV stream.
fn classification_fleet(threads: usize, telemetry: &Telemetry) -> FleetRun {
    run_classification_fleet(
        &cv_scenario(42, 1_500),
        4,
        FleetDispatch::LeastLoaded,
        threads,
        telemetry,
    )
}

/// The generative counterpart: 4 least-loaded replicas over 48 sequences.
fn generative_fleet(threads: usize, telemetry: &Telemetry) -> FleetRun {
    run_generative_fleet(
        &generative_scenario(42, 48),
        4,
        FleetDispatch::LeastLoaded,
        threads,
        telemetry,
    )
}

/// Render everything observable about one traced fleet run at the given
/// thread count: the win table plus both JSON-lines exports.
fn artifacts(fleet: FleetRunner, threads: usize) -> (String, String, String) {
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let run = fleet(threads, &telemetry);
    let snapshot = telemetry.snapshot().expect("recording sink");
    (
        run.table.render(),
        render_trace_json_lines(&snapshot),
        render_metrics_json_lines(&snapshot),
    )
}

/// The fleet's table and both exports at 2 and 8 threads equal the
/// sequential run's, byte for byte.
fn assert_artifacts_match_sequential(fleet: FleetRunner) {
    let (table1, trace1, metrics1) = artifacts(fleet, 1);
    assert!(!trace1.is_empty(), "the traced run must record events");
    for threads in [2, 8] {
        let (table, trace, metrics) = artifacts(fleet, threads);
        assert_eq!(
            table1, table,
            "win table diverged from sequential at {threads} threads"
        );
        assert_eq!(
            trace1, trace,
            "event-trace export diverged from sequential at {threads} threads"
        );
        assert_eq!(
            metrics1, metrics,
            "metrics export diverged from sequential at {threads} threads"
        );
    }
}

#[test]
fn classification_artifacts_are_byte_identical_across_thread_counts() {
    assert_artifacts_match_sequential(classification_fleet);
}

#[test]
fn generative_artifacts_are_byte_identical_across_thread_counts() {
    assert_artifacts_match_sequential(generative_fleet);
}

#[test]
fn traced_fleet_run_renders_the_same_table_as_untraced_at_another_thread_count() {
    // Turning telemetry on must not perturb the simulation, whatever the
    // thread count: a traced run on 2 workers and an untraced run on 8
    // render the same table, for both fleet kinds.
    let fleets: [(&str, FleetRunner); 2] = [
        ("classification", classification_fleet),
        ("generative", generative_fleet),
    ];
    for (kind, fleet) in fleets {
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        let traced = fleet(2, &telemetry).table.render();
        let snapshot = telemetry.snapshot().expect("recording sink");
        assert!(
            !snapshot.events.is_empty(),
            "{kind}: the traced run must record events"
        );
        let untraced = fleet(8, &Telemetry::disabled()).table.render();
        assert_eq!(
            traced, untraced,
            "{kind}: traced table diverged from the untraced run"
        );
    }
}

#[test]
fn coordination_bill_is_thread_count_invariant() {
    // The §4.5 overhead bill sums per-replica link charges; a thread-count
    // dependence here would mean controllers observed different profiling
    // streams under parallel execution.
    let run = |threads: usize| classification_fleet(threads, &Telemetry::disabled());
    let sequential = run(1);
    let parallel = run(8);
    assert_eq!(sequential.shard_sizes, parallel.shard_sizes);
    assert_eq!(
        sequential.overhead.report.uplink.messages,
        parallel.overhead.report.uplink.messages
    );
    assert_eq!(
        sequential.overhead.report.uplink.bytes,
        parallel.overhead.report.uplink.bytes
    );
    assert_eq!(
        sequential.overhead.report.downlink.messages,
        parallel.overhead.report.downlink.messages
    );
    assert_eq!(
        sequential.overhead.report.total_latency(),
        parallel.overhead.report.total_latency()
    );
}
