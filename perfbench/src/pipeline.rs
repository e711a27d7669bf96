//! One pass of a workload, composed from the crates' public calls.
//!
//! Each pass mirrors the program's own runner for that workload
//! (`run_classification_full`, `run_generative_traced`,
//! `run_admission_fleet`) call for call, so its comparison table must come
//! out byte-identical to the runner's; `checks` holds it to that. The one
//! reordering is that every set-up step (input and trace generation, ramp
//! deployment, one-shot tuning, every Apparate warm start) runs before the
//! first arrival is served, which splits a pass into a set-up phase and a
//! serving phase without changing anything a policy computes.

use std::path::Path;
use std::time::Duration;

use apparate_baselines::{
    batch_time_fn, deploy_all_sites, deploy_budget_sites, offline_tuned_thresholds, vanilla_policy,
    OracleExitPolicy, OracleTokenPolicy, RampDeployment, StaticExitPolicy, StaticTokenPolicy,
};
use apparate_core::{ApparateConfig, GreedyParams, RampArchitecture};
use apparate_exec::{
    ExecutionPlan, FeedbackSender, OverheadReport, ProfileRecord, SampleSemantics, SemanticsModel,
};
use apparate_experiments::{
    generative_calibration, generative_requests, scenario_config, ApparatePolicy,
    ApparateTokenPolicy, ClassificationScenario, ComparisonTable, ControllerStats, TraceKind,
    WorkloadTokens, STATIC_THRESHOLD,
};
use apparate_model::LayerId;
use apparate_serving::{
    available_threads, shard_arrivals, stream_arrivals, AdmissionConfig, ArrivalTrace, ExitPolicy,
    FleetOutcome, FleetOutcomeView, GenerativeSimulator, IngestStats, LatencySummary, ReplicaFleet,
    ReplicaOutcome, ReplicaUnit, ServingOutcome, ServingSimulator, TokenPolicy, TraceShard,
    VanillaTokenPolicy,
};
use apparate_sim::{DeterministicRng, Percentiles, SimDuration};
use apparate_telemetry::{
    render_metrics_json_lines, render_trace_json_lines, Telemetry, TelemetryConfig,
};

use crate::probe::{exit_stats, now, token_stats, Span, Step, Timed, Tracer};
use crate::workloads::{self, Sizes, Workload, FLEET_DISPATCH, FLEET_REPLICAS};

/// How to run one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec<'a> {
    /// The workload.
    pub workload: Workload,
    /// The pass's input seed.
    pub seed: u64,
    /// Stream lengths.
    pub sizes: Sizes,
    /// Record spans and time policy calls.
    pub traced: bool,
    /// Where gen-decode writes its telemetry exports (`None`: render only).
    pub out_dir: Option<&'a Path>,
}

/// The simulated quantities the end-to-end metrics are computed from. A
/// pure function of the pass's seed and sizes, never of the wall clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Headline {
    /// Apparate's latency samples (ms; per token on gen-decode; from the
    /// original arrival for the admission row on fleet-overload).
    pub apparate_ms: Vec<f64>,
    /// Vanilla's latency samples on the same arrivals.
    pub vanilla_ms: Vec<f64>,
    /// Apparate units whose result matched the original model.
    pub apparate_correct: u64,
    /// Apparate units released.
    pub apparate_units: u64,
    /// Vanilla units whose result matched the original model.
    pub vanilla_correct: u64,
    /// Vanilla units released.
    pub vanilla_units: u64,
    /// Units released within the SLO.
    pub on_time: u64,
    /// Units offered (shed requests included).
    pub offered: u64,
    /// Apparate's simulated makespan, seconds.
    pub apparate_makespan_s: f64,
    /// Vanilla's simulated makespan, seconds.
    pub vanilla_makespan_s: f64,
}

/// One policy pass through a serving loop (single replica, or every
/// replica of one fleet run).
#[derive(Debug, Clone)]
pub struct LoopProbe {
    /// Policy row name.
    pub policy: &'static str,
    /// Whether replicas ran on fleet worker threads.
    pub fleet: bool,
    /// Loop wall time: the serving call's span on one replica; the sum of
    /// per-replica first-to-last-call spans in a fleet.
    pub wall: Duration,
    /// Wall time inside policy calls (summed over replicas).
    pub busy: Duration,
    /// Batches (decode steps on gen-decode) launched.
    pub batches: u64,
    /// Units carried by those batches.
    pub items: u64,
    /// Per-call samples of a controller loop.
    pub steps: Vec<Step>,
}

/// Gen-decode's telemetry accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryProbe {
    /// Events captured.
    pub events: u64,
    /// Events dropped by the bounded ring.
    pub dropped: u64,
    /// Bytes in the two exported files.
    pub bytes: u64,
}

/// What a traced pass measured, besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Every span, in opening order; span 0 is the whole pass.
    pub spans: Vec<Span>,
    /// Requests (frames or sequences) generated.
    pub items: u64,
    /// Ramps deployed across every deployment.
    pub ramps: u64,
    /// Apparate warm starts.
    pub warm_starts: u64,
    /// One entry per policy pass.
    pub loops: Vec<LoopProbe>,
    /// Queueing delay of every request in the Apparate pass (ms).
    pub queue_wait_ms: Vec<f64>,
    /// Controller counters, summed over every Apparate controller.
    pub controller: ControllerStats,
    /// Link charges, summed over every Apparate controller.
    pub link: OverheadReport,
    /// Front-end counters (fleet-overload).
    pub ingest: Option<IngestStats>,
    /// Shard sizes of the replay fleets (fleet-overload).
    pub shard_sizes: Vec<usize>,
    /// Telemetry accounting (gen-decode).
    pub telemetry: Option<TelemetryProbe>,
}

/// The outputs the correctness checks compare against the program's runner.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The rendered comparison table.
    pub table: String,
    /// The two telemetry exports (trace, metrics) on gen-decode.
    pub exports: Option<(String, String)>,
    /// Front-end counters on fleet-overload.
    pub ingest: Option<IngestStats>,
    /// SLO attainment without and with admission on fleet-overload.
    pub attainment: Option<(f64, f64)>,
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Inputs for the correctness checks.
    pub evidence: Evidence,
    /// Inputs for the simulated end-to-end metrics.
    pub headline: Headline,
    /// Wall time from the pass's start to its first served arrival.
    pub setup: Duration,
    /// Wall time of the serving phase (every policy pass, fleet sharding and
    /// ingest, result tables, telemetry export).
    pub serving: Duration,
    /// Simulated units served across every policy pass.
    pub served: u64,
    /// Per-layer measurements (meaningful on traced passes).
    pub layers: Layers,
}

/// Run one pass of a workload.
pub fn run_pass(spec: PassSpec<'_>) -> PassOutput {
    match spec.workload {
        Workload::CvVideo => cv_video(spec),
        Workload::GenDecode => gen_decode(spec),
        Workload::FleetOverload => fleet_overload(spec),
    }
}

fn greedy_params(config: &ApparateConfig) -> GreedyParams {
    GreedyParams {
        accuracy_loss_budget: config.accuracy_constraint,
        initial_step: config.initial_step,
        smallest_step: config.smallest_step,
        max_threshold: 1.0,
    }
}

/// The seeded semantics model every deployment of a scenario shares.
fn semantics(seed: u64, overparameterization: f64) -> SemanticsModel {
    SemanticsModel::new(
        DeterministicRng::new(seed).child(0x5E).seed(),
        overparameterization,
    )
}

/// The arrival trace over a classification scenario's serving split.
fn arrival_trace(scenario: &ClassificationScenario) -> ArrivalTrace {
    let n = scenario.workload.bootstrap_split().serving.len();
    match scenario.trace {
        TraceKind::FixedRate(hz) => ArrivalTrace::fixed_rate(n, hz),
        TraceKind::MafLike(hz) => ArrivalTrace::maf_like(
            n,
            hz,
            DeterministicRng::new(scenario.seed).child(0x7A).seed(),
        ),
    }
}

/// Apparate's platform estimator: the vanilla batch time padded by the ramp
/// budget, which the controller never exceeds whatever ramps it activates.
fn padded_estimate(
    vanilla_plan: &ExecutionPlan,
    config: ApparateConfig,
) -> impl Fn(u32) -> SimDuration + Sync + '_ {
    move |b| {
        SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b) * (1.0 + config.ramp_budget))
    }
}

fn oracle_sites(dep: &RampDeployment) -> Vec<LayerId> {
    dep.all_sites.iter().map(|s| s.site).collect()
}

fn add_stats(total: &mut ControllerStats, part: ControllerStats) {
    total.tuning_rounds += part.tuning_rounds;
    total.adjustment_rounds += part.adjustment_rounds;
    total.ramp_changes += part.ramp_changes;
    total.updates_sent += part.updates_sent;
    total.records_ingested += part.records_ingested;
    total.records_dropped += part.records_dropped;
}

fn add_link(total: &mut OverheadReport, part: &OverheadReport) {
    for (sum, one) in [
        (&mut total.uplink, &part.uplink),
        (&mut total.downlink, &part.downlink),
    ] {
        sum.messages += one.messages;
        sum.bytes += one.bytes;
        sum.total_latency += one.total_latency;
    }
}

/// The uplink handle an Apparate policy's platform publishes on.
type Uplink = FeedbackSender<ProfileRecord>;

/// A pass's measurements: the span recorder and one [`LoopProbe`] per
/// policy pass, in serving order (which is also the table's row order).
struct Probe {
    tracer: Tracer,
    loops: Vec<LoopProbe>,
}

impl Probe {
    fn new(traced: bool) -> Probe {
        Probe {
            tracer: Tracer::new(traced),
            loops: Vec::new(),
        }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.time(name, f)
    }

    /// One single-replica policy pass: `run` serves every arrival through
    /// the timed policy.
    fn serve<P, O: ReplicaOutcome>(
        &mut self,
        label: &'static str,
        policy: &mut P,
        stats: Option<fn(&P) -> ControllerStats>,
        run: impl FnOnce(&mut Timed<'_, P>) -> O,
    ) -> O {
        let mut timed = Timed::new(policy, self.tracer.is_on(), stats);
        let (out, wall) = self.tracer.measure("platform.serve", || run(&mut timed));
        self.record(label, false, wall, &[timed], &[out.batch_sizes()]);
        out
    }

    /// One fleet policy pass, one policy per replica: `run` serves every
    /// shard through the timed policies.
    fn serve_fleet<P>(
        &mut self,
        label: &'static str,
        policies: &mut [P],
        stats: Option<fn(&P) -> ControllerStats>,
        run: impl FnOnce(&mut [Timed<'_, P>]) -> FleetOutcome<ServingOutcome>,
    ) -> FleetOutcome<ServingOutcome> {
        let on = self.tracer.is_on();
        let mut timed: Vec<Timed<'_, P>> = policies
            .iter_mut()
            .map(|p| Timed::new(p, on, stats))
            .collect();
        let (out, _) = self.tracer.measure("fleet.run", || run(&mut timed));
        let sizes: Vec<&[u32]> = out.per_replica.iter().map(|o| o.batch_sizes()).collect();
        let wall = timed.iter().map(Timed::span).sum();
        self.record(label, true, wall, &timed, &sizes);
        out
    }

    fn record<P>(
        &mut self,
        policy: &'static str,
        fleet: bool,
        wall: Duration,
        timed: &[Timed<'_, P>],
        batch_sizes: &[&[u32]],
    ) {
        self.loops.push(LoopProbe {
            policy,
            fleet,
            wall,
            busy: timed.iter().map(|t| t.busy).sum(),
            batches: batch_sizes.iter().map(|b| b.len() as u64).sum(),
            items: batch_sizes
                .iter()
                .flat_map(|b| b.iter().map(|&s| s as u64))
                .sum(),
            steps: timed.iter().flat_map(|t| t.steps.iter().copied()).collect(),
        });
    }

    /// Close the pass span and hand over the spans.
    fn finish(mut self) -> (Vec<Span>, Vec<LoopProbe>) {
        self.tracer.close();
        (self.tracer.into_spans(), self.loops)
    }
}

/// The table rows of single-replica passes, labelled as they were served.
fn summaries<O>(
    loops: &[LoopProbe],
    outs: &[O],
    summarise: fn(&'static str, &O) -> LatencySummary,
) -> Vec<LatencySummary> {
    loops
        .iter()
        .zip(outs)
        .map(|(l, o)| summarise(l.policy, o))
        .collect()
}

/// The headline quantities of a single-replica Apparate pass against vanilla.
fn headline<O: ReplicaOutcome>(vanilla: &O, apparate: &O) -> Headline {
    Headline {
        apparate_ms: apparate.unit_samples_ms(),
        vanilla_ms: vanilla.unit_samples_ms(),
        apparate_correct: apparate.correct_units() as u64,
        apparate_units: apparate.unit_count() as u64,
        vanilla_correct: vanilla.correct_units() as u64,
        vanilla_units: vanilla.unit_count() as u64,
        on_time: (apparate.unit_count() - apparate.violated_units()) as u64,
        offered: apparate.unit_count() as u64,
        apparate_makespan_s: apparate.replica_makespan().as_secs_f64(),
        vanilla_makespan_s: vanilla.replica_makespan().as_secs_f64(),
    }
}

fn queue_waits(out: &ServingOutcome) -> Vec<f64> {
    out.records
        .iter()
        .map(|r| r.queue_delay().as_millis_f64())
        .collect()
}

fn cv_video(spec: PassSpec<'_>) -> PassOutput {
    let config = scenario_config();
    let mut probe = Probe::new(spec.traced);
    let start = now();
    probe.tracer.open("pass");

    // Set-up: inputs, ramps, one-shot tuning, the warm start.
    let (scenario, trace) = probe.time("workload.gen", || {
        let scenario = workloads::cv_video(spec.seed, spec.sizes);
        let trace = arrival_trace(&scenario);
        (scenario, trace)
    });
    let split = scenario.workload.bootstrap_split();
    let (dep_budget, dep_all) = probe.time("prep.deploy", || {
        let semantics = semantics(
            scenario.seed,
            scenario.model.descriptor.overparameterization,
        );
        let arch = RampArchitecture::Lightweight;
        let train = split.train.len();
        (
            deploy_budget_sites(&scenario.model, &semantics, &config, arch, train),
            deploy_all_sites(&scenario.model, &semantics, arch, train),
        )
    });
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = &dep_budget.plan;
    let tuned = probe.time("tuning.oneshot", || {
        offline_tuned_thresholds(
            budget_plan,
            split.validation,
            greedy_params(&config),
            scenario.reference_batch,
        )
    });
    let mut apparate = probe.time("tuning.warm_start", || {
        ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            split.validation,
        )
    });
    let uplink = apparate.feedback_sender();
    let setup = now() - start;

    // Serving: the policy family over identical arrivals.
    let sim = ServingSimulator::new(scenario.serving.clone());
    let serve = |policy: &mut dyn ExitPolicy,
                 estimate: &dyn Fn(u32) -> SimDuration,
                 uplink: Option<&Uplink>| {
        sim.run_with_feedback(&trace, split.serving, policy, estimate, uplink)
    };
    let mut outs = Vec::new();
    let mut vanilla = vanilla_policy(&vanilla_plan);
    outs.push(probe.serve("vanilla", &mut vanilla, None, |p| {
        serve(p, &batch_time_fn(&vanilla_plan), None)
    }));
    for (plan, thresholds, name) in [
        (
            budget_plan,
            vec![STATIC_THRESHOLD; budget_plan.num_ramps()],
            "static-ee",
        ),
        (
            &dep_all.plan,
            vec![STATIC_THRESHOLD; dep_all.plan.num_ramps()],
            "uniform-ee",
        ),
        (budget_plan, tuned.thresholds.clone(), "oneshot-tuned"),
    ] {
        let mut policy = StaticExitPolicy::new(plan.clone(), thresholds, name);
        outs.push(probe.serve(name, &mut policy, None, |p| {
            serve(p, &batch_time_fn(plan), None)
        }));
    }
    let estimate = padded_estimate(&vanilla_plan, config);
    outs.push(
        probe.serve("apparate", &mut apparate, Some(exit_stats), |p| {
            serve(p, &estimate, Some(&uplink))
        }),
    );
    let mut oracle = OracleExitPolicy::new(
        vanilla_plan.clone(),
        oracle_sites(&dep_budget),
        dep_budget.capacity,
        "oracle",
    );
    outs.push(probe.serve("oracle", &mut oracle, None, |p| {
        serve(p, &batch_time_fn(&vanilla_plan), None)
    }));
    let rows = summaries(&probe.loops, &outs, |name, out| {
        LatencySummary::from_outcome(name, out)
    });
    let table = ComparisonTable::new(scenario.name.clone(), "latency", rows);
    let serving_time = now() - start - setup;

    let (spans, loops) = probe.finish();
    let layers = Layers {
        spans,
        items: split.serving.len() as u64,
        ramps: (dep_budget.plan.num_ramps() + dep_all.plan.num_ramps()) as u64,
        warm_starts: 1,
        loops,
        queue_wait_ms: queue_waits(&outs[4]),
        controller: apparate.stats(),
        link: apparate.overhead_report(),
        ..Layers::default()
    };
    PassOutput {
        evidence: Evidence {
            table: table.render(),
            exports: None,
            ingest: None,
            attainment: None,
        },
        headline: headline(&outs[0], &outs[4]),
        setup,
        serving: serving_time,
        served: outs.iter().map(|o| o.unit_count() as u64).sum(),
        layers,
    }
}

fn gen_decode(spec: PassSpec<'_>) -> PassOutput {
    let config = scenario_config();
    let mut probe = Probe::new(spec.traced);
    let start = now();
    probe.tracer.open("pass");

    // Set-up: inputs, ramps, calibration, one-shot tuning, the warm start.
    let (scenario, requests, calibration) = probe.time("workload.gen", || {
        let scenario = workloads::gen_decode(spec.seed, spec.sizes);
        let requests = generative_requests(&scenario);
        let calibration = generative_calibration(&scenario.workload);
        (scenario, requests, calibration)
    });
    let (dep_budget, dep_all) = probe.time("prep.deploy", || {
        let semantics = semantics(
            scenario.seed,
            scenario.model.descriptor.overparameterization,
        );
        let arch = RampArchitecture::Lightweight;
        (
            deploy_budget_sites(&scenario.model, &semantics, &config, arch, 0),
            deploy_all_sites(&scenario.model, &semantics, arch, 0),
        )
    });
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = &dep_budget.plan;
    let tuned = probe.time("tuning.oneshot", || {
        offline_tuned_thresholds(
            budget_plan,
            &calibration,
            greedy_params(&config),
            scenario.reference_batch,
        )
    });
    let telemetry = Telemetry::recording(TelemetryConfig::default());
    let mut apparate = probe.time("tuning.warm_start", || {
        ApparateTokenPolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            &calibration,
        )
    });
    apparate.set_telemetry(telemetry.clone());
    let uplink = apparate.feedback_sender();
    let setup = now() - start;

    // Serving: the token-policy family over identical requests; only the
    // Apparate pass records telemetry.
    let tokens = WorkloadTokens(&scenario.workload);
    let sim = GenerativeSimulator::new(scenario.batching);
    let traced_sim = GenerativeSimulator::new(scenario.batching).with_telemetry(telemetry.clone());
    let serve = |sim: &GenerativeSimulator, policy: &mut dyn TokenPolicy, uplink| {
        sim.run_with_feedback(&requests, &tokens, policy, uplink)
    };
    let mut outs = Vec::new();
    let mut vanilla =
        VanillaTokenPolicy::new(|b| SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(b)));
    outs.push(probe.serve("vanilla", &mut vanilla, None, |p| serve(&sim, p, None)));
    for (plan, thresholds, name) in [
        (
            budget_plan,
            vec![STATIC_THRESHOLD; budget_plan.num_ramps()],
            "static-ee",
        ),
        (
            &dep_all.plan,
            vec![STATIC_THRESHOLD; dep_all.plan.num_ramps()],
            "uniform-ee",
        ),
        (budget_plan, tuned.thresholds.clone(), "oneshot-tuned"),
    ] {
        let mut policy = StaticTokenPolicy::new(plan.clone(), thresholds, name);
        outs.push(probe.serve(name, &mut policy, None, |p| serve(&sim, p, None)));
    }
    outs.push(
        probe.serve("apparate", &mut apparate, Some(token_stats), |p| {
            serve(&traced_sim, p, Some(&uplink))
        }),
    );
    let mut oracle = OracleTokenPolicy::new(
        vanilla_plan.clone(),
        oracle_sites(&dep_budget),
        dep_budget.capacity,
        "oracle",
    );
    outs.push(probe.serve("oracle", &mut oracle, None, |p| serve(&sim, p, None)));
    let rows = summaries(&probe.loops, &outs, |name, out| {
        LatencySummary::from_generative(name, out)
    });
    let table = ComparisonTable::new(scenario.name.clone(), "tpt", rows);
    let (exports, telemetry_probe) = probe.time("telemetry.export", || {
        let snapshot = telemetry.snapshot().expect("a recording handle snapshots");
        let trace = render_trace_json_lines(&snapshot);
        let metrics = render_metrics_json_lines(&snapshot);
        if let Some(dir) = spec.out_dir {
            write_export(&dir.join("gen-decode.trace.jsonl"), &trace);
            write_export(&dir.join("gen-decode.metrics.jsonl"), &metrics);
        }
        let probe = TelemetryProbe {
            events: snapshot.events.len() as u64,
            dropped: snapshot.events_dropped,
            bytes: (trace.len() + metrics.len()) as u64,
        };
        ((trace, metrics), probe)
    });
    let serving_time = now() - start - setup;

    let (spans, loops) = probe.finish();
    let layers = Layers {
        spans,
        items: requests.len() as u64,
        ramps: (dep_budget.plan.num_ramps() + dep_all.plan.num_ramps()) as u64,
        warm_starts: 1,
        loops,
        controller: apparate.stats(),
        link: apparate.overhead_report(),
        telemetry: Some(telemetry_probe),
        ..Layers::default()
    };
    PassOutput {
        evidence: Evidence {
            table: table.render(),
            exports: Some(exports),
            ingest: None,
            attainment: None,
        },
        headline: headline(&outs[0], &outs[4]),
        setup,
        serving: serving_time,
        served: outs.iter().map(|o| o.unit_count() as u64).sum(),
        layers,
    }
}

/// Write one telemetry export, or die: a benchmark that silently lost an
/// export would under-count the work it claims to measure.
fn write_export(path: &Path, contents: &str) {
    if let Err(error) = std::fs::write(path, contents) {
        eprintln!("perfbench: cannot write {}: {error}", path.display());
        std::process::exit(1);
    }
}

/// Serve shards with one timed policy per replica on the fleet's worker
/// threads, attaching each Apparate replica's uplink.
fn run_fleet<P: ExitPolicy + Send>(
    fleet: &ReplicaFleet,
    shards: &[TraceShard],
    samples: &[SampleSemantics],
    label: &str,
    timed: &mut [Timed<'_, P>],
    estimate: &(dyn Fn(u32) -> SimDuration + Sync),
    uplinks: Option<&[Uplink]>,
) -> FleetOutcome<ServingOutcome> {
    fleet
        .serve(shards, samples)
        .units(timed.iter_mut().enumerate().map(|(r, t)| {
            let unit = ReplicaUnit::new(format!("{label}-{r}"), t, estimate);
            match uplinks {
                Some(uplinks) => unit.with_feedback(uplinks[r].clone()),
                None => unit,
            }
        }))
        .threads(available_threads())
        .run()
}

fn fleet_overload(spec: PassSpec<'_>) -> PassOutput {
    let config = scenario_config();
    let (replicas, dispatch) = (FLEET_REPLICAS, FLEET_DISPATCH);
    let mut probe = Probe::new(spec.traced);
    let start = now();
    probe.tracer.open("pass");

    // Set-up: inputs, ramps, and a warm start per replica of both Apparate
    // fleets.
    let (scenario, trace) = probe.time("workload.gen", || {
        let scenario = workloads::fleet_overload(spec.seed, spec.sizes);
        let trace = arrival_trace(&scenario);
        (scenario, trace)
    });
    let split = scenario.workload.bootstrap_split();
    let slo = scenario
        .serving
        .slo
        .expect("admission control needs a response SLO");
    let dep_budget = probe.time("prep.deploy", || {
        let semantics = semantics(
            scenario.seed,
            scenario.model.descriptor.overparameterization,
        );
        deploy_budget_sites(
            &scenario.model,
            &semantics,
            &config,
            RampArchitecture::Lightweight,
            split.train.len(),
        )
    });
    let vanilla_plan = dep_budget.plan.with_ramps(Vec::new());
    let budget_plan = &dep_budget.plan;
    let warm_start = || {
        ApparatePolicy::warm_started(
            dep_budget.clone(),
            config,
            scenario.reference_batch,
            split.validation,
        )
    };
    let mut replay_apparate: Vec<ApparatePolicy> = (0..replicas)
        .map(|_| probe.time("tuning.warm_start", warm_start))
        .collect();
    let mut admitted_apparate: Vec<ApparatePolicy> = (0..replicas)
        .map(|_| probe.time("tuning.warm_start", warm_start))
        .collect();
    let uplinks = |policies: &[ApparatePolicy]| -> Vec<Uplink> {
        policies
            .iter()
            .map(ApparatePolicy::feedback_sender)
            .collect()
    };
    let (replay_uplinks, admitted_uplinks) =
        (uplinks(&replay_apparate), uplinks(&admitted_apparate));
    let setup = now() - start;

    // Serving: replay fleets over shared shards, then the admission fleet.
    let serving = split.serving;
    let fleet = ReplicaFleet::new(replicas, dispatch, scenario.serving.clone());
    let service_estimate = SimDuration::from_micros_f64(vanilla_plan.vanilla_total_us(1));
    let replay_shards = probe.time("fleet.shard", || {
        shard_arrivals(&trace, replicas, dispatch, service_estimate)
    });
    let mut vanillas: Vec<_> = (0..replicas)
        .map(|_| vanilla_policy(&vanilla_plan))
        .collect();
    let estimate = batch_time_fn(&vanilla_plan);
    let vanilla_out = probe.serve_fleet("vanilla", &mut vanillas, None, |t| {
        run_fleet(
            &fleet,
            &replay_shards,
            serving,
            "vanilla",
            t,
            &estimate,
            None,
        )
    });
    let mut statics: Vec<_> = (0..replicas)
        .map(|_| StaticExitPolicy::uniform(budget_plan.clone(), STATIC_THRESHOLD, "static-ee"))
        .collect();
    let estimate = batch_time_fn(budget_plan);
    let static_out = probe.serve_fleet("static-ee", &mut statics, None, |t| {
        run_fleet(
            &fleet,
            &replay_shards,
            serving,
            "static-ee",
            t,
            &estimate,
            None,
        )
    });
    let estimate = padded_estimate(&vanilla_plan, config);
    let replay_out = probe.serve_fleet("apparate", &mut replay_apparate, Some(exit_stats), |t| {
        let uplinks = Some(replay_uplinks.as_slice());
        run_fleet(
            &fleet,
            &replay_shards,
            serving,
            "apparate",
            t,
            &estimate,
            uplinks,
        )
    });
    let vanilla_summary = vanilla_out.summary("vanilla");
    let apparate_summary = replay_out.summary("apparate");
    let attainment_without = 1.0 - apparate_summary.slo_violation_rate;

    // Admission: the queue bound is the number of batch-1 service slots that
    // fit in one SLO.
    let service_us = service_estimate.as_micros().max(1);
    let queue_bound = ((slo.as_micros() / service_us) as usize).max(1);
    let streamed = probe.time("ingest.stream", || {
        stream_arrivals(
            &trace,
            replicas,
            dispatch,
            service_estimate,
            Some(AdmissionConfig::for_slo(slo, queue_bound)),
            &Telemetry::disabled(),
        )
    });
    let admitted_out = probe.serve_fleet(
        "apparate+admission",
        &mut admitted_apparate,
        Some(exit_stats),
        |t| {
            let uplinks = Some(admitted_uplinks.as_slice());
            run_fleet(
                &fleet,
                &streamed.shards,
                serving,
                "apparate",
                t,
                &estimate,
                uplinks,
            )
        },
    );

    // Honest accounting: latency and the SLO are judged from each request's
    // original arrival, and shed requests count as misses.
    let mut adjusted_ms = Vec::new();
    let mut on_time = 0u64;
    for (replica, outcome) in admitted_out.per_replica.iter().enumerate() {
        let shard = &streamed.shards[replica];
        for record in &outcome.records {
            let original = trace.times()[shard.indices[record.id as usize]];
            adjusted_ms.push(record.released.saturating_since(original).as_millis_f64());
            if record.released <= original + slo {
                on_time += 1;
            }
        }
    }
    let served_admitted = adjusted_ms.len();
    let mut admission_summary = admitted_out.summary("apparate+admission");
    admission_summary.latency_ms = Percentiles::from_samples(&adjusted_ms);
    admission_summary.slo_violation_rate = if served_admitted == 0 {
        0.0
    } else {
        (served_admitted as u64 - on_time) as f64 / served_admitted as f64
    };
    let offered = streamed.stats.offered as u64;
    let attainment_with = on_time as f64 / offered.max(1) as f64;
    let table = ComparisonTable::new(
        format!("{} ×{replicas} ({dispatch}) admission", scenario.name),
        "latency",
        vec![vanilla_summary, apparate_summary, admission_summary],
    );
    let serving_time = now() - start - setup;

    let correct = |o: &FleetOutcome<ServingOutcome>| {
        o.per_replica
            .iter()
            .map(|r| r.correct_units() as u64)
            .sum::<u64>()
    };
    let headline = Headline {
        apparate_ms: adjusted_ms,
        vanilla_ms: vanilla_out.latencies_ms(),
        apparate_correct: correct(&admitted_out),
        apparate_units: admitted_out.total_requests() as u64,
        vanilla_correct: correct(&vanilla_out),
        vanilla_units: vanilla_out.total_requests() as u64,
        on_time,
        offered,
        apparate_makespan_s: admitted_out.makespan().as_secs_f64(),
        vanilla_makespan_s: vanilla_out.makespan().as_secs_f64(),
    };
    let mut controller = ControllerStats::default();
    let mut link = OverheadReport::default();
    for policy in replay_apparate.iter().chain(&admitted_apparate) {
        add_stats(&mut controller, policy.stats());
        add_link(&mut link, &policy.overhead_report());
    }
    let (spans, loops) = probe.finish();
    let layers = Layers {
        spans,
        items: serving.len() as u64,
        ramps: dep_budget.plan.num_ramps() as u64,
        warm_starts: 2 * replicas as u64,
        loops,
        queue_wait_ms: admitted_out
            .per_replica
            .iter()
            .flat_map(queue_waits)
            .collect(),
        controller,
        link,
        ingest: Some(streamed.stats),
        shard_sizes: replay_shards.iter().map(|s| s.indices.len()).collect(),
        telemetry: None,
    };
    PassOutput {
        evidence: Evidence {
            table: table.render(),
            exports: None,
            ingest: Some(streamed.stats),
            attainment: Some((attainment_without, attainment_with)),
        },
        headline,
        setup,
        serving: serving_time,
        served: [&vanilla_out, &static_out, &replay_out, &admitted_out]
            .iter()
            .map(|o| o.total_requests() as u64)
            .sum(),
        layers,
    }
}
