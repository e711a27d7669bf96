//! Metric definitions and their computation from pass outputs.
//!
//! Two families:
//!
//! * **wall-clock** metrics (`setup_s`, `served_per_s`, `peak_rss_mb`, and
//!   every per-layer time) are taken over the passes of a run (medians,
//!   except the upper quartile for `served_per_s`), so a performance change
//!   moves them;
//! * **simulated-serving** metrics are computed from the first `pool` passes
//!   of a run, whose seeds are fixed by the run's seed, so they are exact for
//!   a seed and any change to what the program computes moves them.

use std::time::Duration;

use apparate_sim::Percentiles;

use crate::pipeline::{Headline, LoopProbe, PassOutput};
use crate::probe::{Span, StepKind};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports all of them in the untraced
/// run.
pub const END_TO_END: [MetricDef; 9] = [
    def("setup_s", "s", Lower),
    def("served_per_s", "items/s", Higher),
    def("peak_rss_mb", "MiB", Lower),
    def("latency_p50_ms", "ms", Lower),
    def("latency_p99_ms", "ms", Lower),
    def("win_p50_pct", "%", Higher),
    def("accuracy_loss_pct", "%", Lower),
    def("slo_attainment", "ratio", Higher),
    def("throughput_vs_vanilla", "ratio", Higher),
];

/// Per-layer metrics: the traced run reports them.
pub const PER_LAYER: [MetricDef; 50] = [
    def("workload.gen_s", "s", Lower),
    def("workload.items", "count", Higher),
    def("prep.deploy_s", "s", Lower),
    def("prep.ramps", "count", Lower),
    def("tuning.oneshot_s", "s", Lower),
    def("tuning.warm_start_s", "s", Lower),
    def("tuning.warm_starts", "count", Lower),
    def("platform.self_s", "s", Lower),
    def("platform.batches", "count", Lower),
    def("platform.mean_batch", "items", Higher),
    def("platform.queue_wait_ms_p50", "ms", Lower),
    def("platform.queue_wait_ms_p99", "ms", Lower),
    def("policy.vanilla.busy_s", "s", Lower),
    def("policy.static-ee.busy_s", "s", Lower),
    def("policy.uniform-ee.busy_s", "s", Lower),
    def("policy.oneshot-tuned.busy_s", "s", Lower),
    def("policy.oracle.busy_s", "s", Lower),
    def("controller.busy_s", "s", Lower),
    def("controller.step_us_p50", "us", Lower),
    def("controller.step_us_p99", "us", Lower),
    def("controller.tune_step_us_p50", "us", Lower),
    def("controller.adjust_step_us_p50", "us", Lower),
    def("controller.tuning_rounds", "count", Lower),
    def("controller.adjustment_rounds", "count", Lower),
    def("controller.ramp_changes", "count", Lower),
    def("controller.updates_sent", "count", Lower),
    def("controller.records_ingested", "count", Higher),
    def("controller.records_dropped", "count", Lower),
    def("controller.record_use_ratio", "ratio", Higher),
    def("link.up_msgs", "count", Lower),
    def("link.up_bytes", "bytes", Lower),
    def("link.down_msgs", "count", Lower),
    def("link.down_bytes", "bytes", Lower),
    def("link.mean_ms", "ms", Lower),
    def("ingest.busy_s", "s", Lower),
    def("ingest.offered", "count", Higher),
    def("ingest.admitted", "count", Higher),
    def("ingest.shed", "count", Lower),
    def("ingest.admit_ratio", "ratio", Higher),
    def("ingest.max_depth", "count", Lower),
    def("fleet.run_s", "s", Lower),
    def("fleet.parallelism", "ratio", Higher),
    def("fleet.shard_imbalance", "ratio", Lower),
    def("telemetry.events", "count", Lower),
    def("telemetry.dropped", "count", Lower),
    def("telemetry.export_s", "s", Lower),
    def("telemetry.export_bytes", "bytes", Lower),
    def("bench.tracing_overhead_pct", "%", Lower),
    def("bench.residual_pct", "%", Lower),
    def("bench.pass_s", "s", Lower),
];

/// One reported value, with a note on its basis for the human-readable
/// report.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Basis: sample counts, ratio denominators, or why the layer is idle.
    pub note: String,
}

fn value(name: &'static str, value: f64, note: impl Into<String>) -> Value {
    Value {
        name,
        // An empty f64 sum is -0.0; report it as 0.
        value: value + 0.0,
        note: note.into(),
    }
}

/// Median of a non-empty sample (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated headline numbers, pooled over a run's first passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulated {
    /// Median Apparate latency (ms), as a [`mid_quantile`].
    pub p50_ms: f64,
    /// Tail Apparate latency (ms) at [`Simulated::tail_q`], as a
    /// [`mid_quantile`].
    pub tail_ms: f64,
    /// The tail percentile: 0.99, or lower when fewer than 1000 samples
    /// leave fewer than 10 beyond the 99th.
    pub tail_q: f64,
    /// Latency samples pooled.
    pub samples: usize,
    /// p50 reduction against vanilla, percent.
    pub win_p50_pct: f64,
    /// Accuracy loss relative to vanilla, percent.
    pub accuracy_loss_pct: f64,
    /// On-time units over offered units.
    pub slo_attainment: f64,
    /// Apparate's served rate over vanilla's.
    pub throughput_vs_vanilla: f64,
    /// Vanilla's pooled median latency (ms), the base of the win.
    pub vanilla_p50_ms: f64,
    /// Units offered across the pooled passes.
    pub offered: u64,
}

/// The mid-distribution quantile of sorted samples (Parzen's mid-quantile).
///
/// Each distinct value `v` sits at cumulative probability
/// `F(v-) + p(v) / 2`, and the quantile interpolates linearly between
/// distinct values. Without ties this is the Hazen quantile, rank
/// `q * n + 0.5`. Across ties it moves continuously with the tie masses
/// instead of jumping from one tied value to the next, which matters here:
/// simulated latencies take few distinct values (one per exit ramp and batch
/// size), so an ordinary sample median sits on one of them and flips to
/// another when a few percent of requests change ramp.
pub fn mid_quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(&first) = sorted.first() else {
        return 0.0;
    };
    let n = sorted.len() as f64;
    let (mut below, mut prev) = (0usize, (first, f64::NEG_INFINITY));
    while below < sorted.len() {
        let value = sorted[below];
        let ties = sorted[below..].iter().take_while(|&&v| v == value).count();
        let mid = (below as f64 + ties as f64 / 2.0) / n;
        if q <= mid {
            if prev.1 == f64::NEG_INFINITY {
                return value;
            }
            let t = (q - prev.1) / (mid - prev.1);
            return prev.0 + t * (value - prev.0);
        }
        prev = (value, mid);
        below += ties;
    }
    prev.0
}

/// The highest percentile (at most the 99th) with at least 10 samples
/// beyond it.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.99)
}

/// Pool the headline quantities of several passes.
pub fn pool(headlines: &[&Headline]) -> Simulated {
    let apparate: Vec<f64> = headlines
        .iter()
        .flat_map(|h| h.apparate_ms.iter().copied())
        .collect();
    let vanilla: Vec<f64> = headlines
        .iter()
        .flat_map(|h| h.vanilla_ms.iter().copied())
        .collect();
    let sum = |f: fn(&Headline) -> u64| headlines.iter().map(|h| f(h)).sum::<u64>() as f64;
    let sum_f = |f: fn(&Headline) -> f64| headlines.iter().map(|h| f(h)).sum::<f64>();
    let tail_q = tail_quantile(apparate.len());
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        v
    };
    let (apparate, vanilla) = (sorted(apparate), sorted(vanilla));
    let tail_ms = mid_quantile(&apparate, tail_q);
    let p50_ms = mid_quantile(&apparate, 0.5);
    let vanilla_p50_ms = mid_quantile(&vanilla, 0.5);
    let apparate_acc = ratio(sum(|h| h.apparate_correct), sum(|h| h.apparate_units));
    let vanilla_acc = ratio(sum(|h| h.vanilla_correct), sum(|h| h.vanilla_units));
    let apparate_rate = ratio(sum(|h| h.apparate_units), sum_f(|h| h.apparate_makespan_s));
    let vanilla_rate = ratio(sum(|h| h.vanilla_units), sum_f(|h| h.vanilla_makespan_s));
    Simulated {
        p50_ms,
        tail_ms,
        tail_q,
        samples: apparate.len(),
        win_p50_pct: 100.0 * (1.0 - ratio(p50_ms, vanilla_p50_ms)),
        accuracy_loss_pct: 100.0 * (1.0 - ratio(apparate_acc, vanilla_acc)),
        slo_attainment: ratio(sum(|h| h.on_time), sum(|h| h.offered)),
        throughput_vs_vanilla: ratio(apparate_rate, vanilla_rate),
        vanilla_p50_ms,
        offered: sum(|h| h.offered) as u64,
    }
}

/// The upper quartile of per-pass rates. On a shared host, other load slows
/// whole stretches of passes by up to a quarter, for tens of seconds, and
/// only ever slows them; the rate a quarter of the passes reach drifts less
/// with those stretches than the median does.
pub fn upper_quartile(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    apparate_sim::stats::quantile_sorted(&sorted, 0.75)
}

/// The end-to-end metrics of an untraced run: wall-clock figures over every
/// pass, simulated numbers pooled over the first passes.
pub fn end_to_end(
    setups: &[Duration],
    rates: &[f64],
    peak_rss_mb: f64,
    sim: &Simulated,
    pooled: usize,
) -> Vec<Value> {
    let passes = setups.len();
    let secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        value(
            "setup_s",
            median(&secs),
            format!("median of {passes} passes"),
        ),
        value(
            "served_per_s",
            upper_quartile(rates),
            format!("upper quartile of {passes} passes; simulated units over serving wall time"),
        ),
        value(
            "peak_rss_mb",
            peak_rss_mb,
            "VmHWM of the benchmark process after its first pass",
        ),
        value(
            "latency_p50_ms",
            sim.p50_ms,
            format!("{} samples pooled over {pooled} seeds", sim.samples),
        ),
        value(
            "latency_p99_ms",
            sim.tail_ms,
            format!(
                "p{:.1} of {} samples, {:.0} beyond",
                sim.tail_q * 100.0,
                sim.samples,
                (1.0 - sim.tail_q) * sim.samples as f64
            ),
        ),
        value(
            "win_p50_pct",
            sim.win_p50_pct,
            format!("against vanilla p50 {:.4} ms", sim.vanilla_p50_ms),
        ),
        value(
            "accuracy_loss_pct",
            sim.accuracy_loss_pct,
            "1 - apparate accuracy / vanilla accuracy",
        ),
        value(
            "slo_attainment",
            sim.slo_attainment,
            format!("on-time over {} offered", sim.offered),
        ),
        value(
            "throughput_vs_vanilla",
            sim.throughput_vs_vanilla,
            "simulated served rate ratio",
        ),
    ]
}

fn span_total(spans: &[Span], name: &str) -> Duration {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// A traced pass's wall time split into layers. Single-replica serving
/// loops split into platform, policy and controller time; fleet runs count
/// as one wall-clock layer, since their replicas overlap on worker threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reconciliation {
    /// The pass span: the end-to-end wall time.
    pub pass: f64,
    /// Input and trace generation.
    pub workload: f64,
    /// Ramp deployment.
    pub prep: f64,
    /// One-shot tuning and warm starts.
    pub tuning: f64,
    /// Serving-loop time outside policy calls (single-replica loops).
    pub platform: f64,
    /// Baseline policy calls (single-replica loops).
    pub policy: f64,
    /// Apparate controller calls (single-replica loops).
    pub controller: f64,
    /// Fleet sharding and fleet runs.
    pub fleet: f64,
    /// Streaming ingest with admission.
    pub ingest: f64,
    /// Telemetry snapshot, rendering and export.
    pub telemetry: f64,
}

impl Reconciliation {
    /// The layers in report order, without the pass itself.
    pub fn layers(&self) -> [(&'static str, f64); 9] {
        [
            ("workload", self.workload),
            ("prep", self.prep),
            ("tuning", self.tuning),
            ("platform", self.platform),
            ("policy", self.policy),
            ("controller", self.controller),
            ("fleet", self.fleet),
            ("ingest", self.ingest),
            ("telemetry", self.telemetry),
        ]
    }

    /// Wall time no layer accounts for (result tables, summaries, glue).
    pub fn residual(&self) -> f64 {
        self.pass - self.layers().iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Split one traced pass.
    pub fn of(out: &PassOutput) -> Reconciliation {
        let spans = &out.layers.spans;
        let secs = |name: &str| span_total(spans, name).as_secs_f64();
        let single = |pick: fn(&LoopProbe) -> f64| {
            out.layers
                .loops
                .iter()
                .filter(|l| !l.fleet)
                .map(pick)
                .fold(0.0, |sum, v| sum + v)
        };
        Reconciliation {
            pass: secs("pass"),
            workload: secs("workload.gen"),
            prep: secs("prep.deploy"),
            tuning: secs("tuning.oneshot") + secs("tuning.warm_start"),
            platform: single(|l| (l.wall.saturating_sub(l.busy)).as_secs_f64()),
            policy: single(|l| {
                if is_controller(l) {
                    0.0
                } else {
                    l.busy.as_secs_f64()
                }
            }),
            controller: single(|l| {
                if is_controller(l) {
                    l.busy.as_secs_f64()
                } else {
                    0.0
                }
            }),
            fleet: secs("fleet.run") + secs("fleet.shard"),
            ingest: secs("ingest.stream"),
            telemetry: secs("telemetry.export"),
        }
    }
}

fn is_controller(l: &LoopProbe) -> bool {
    l.policy.starts_with("apparate")
}

fn steps_us(passes: &[&PassOutput], kind: Option<StepKind>) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.layers.loops.iter())
        .flat_map(|l| l.steps.iter())
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.us)
        .collect()
}

/// The per-layer metrics of a traced run, plus the names of metrics the
/// workload does not exercise (reported as 0). The first `pooled` traced
/// passes carry the run's seeds; `untraced_walls` holds the wall time (set-up
/// plus serving) of each traced pass's untraced twin, in the same order.
pub fn per_layer(
    traced: &[PassOutput],
    pooled: usize,
    untraced_walls: &[f64],
) -> (Vec<Value>, Vec<&'static str>) {
    let all: Vec<&PassOutput> = traced.iter().collect();
    let pooled: Vec<&PassOutput> = all.iter().take(pooled).copied().collect();
    let n_all = all.len();
    let n_pooled = pooled.len();
    let wall =
        |f: &dyn Fn(&PassOutput) -> f64| median(&all.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mean =
        |f: &dyn Fn(&PassOutput) -> f64| pooled.iter().map(|p| f(p)).sum::<f64>() / n_pooled as f64;
    let span =
        |name: &'static str| move |p: &PassOutput| span_total(&p.layers.spans, name).as_secs_f64();
    let busy_of = |policy: &'static str| {
        move |p: &PassOutput| {
            p.layers
                .loops
                .iter()
                .filter(|l| l.policy == policy)
                .map(|l| l.busy.as_secs_f64())
                .sum::<f64>()
        }
    };
    let wall_note = format!("median of {n_all} traced passes");
    let sim_note = format!("mean over {n_pooled} pooled seeds");
    let mut out = Vec::new();
    let mut idle = Vec::new();
    let mut push = |v: Value, exercised: bool| {
        if !exercised {
            idle.push(v.name);
        }
        out.push(v);
    };
    let first = all[0];
    let has_span = |name: &str| first.layers.spans.iter().any(|s| s.name == name);

    // workload, prep, tuning
    push(
        value("workload.gen_s", wall(&span("workload.gen")), &wall_note),
        true,
    );
    push(
        value(
            "workload.items",
            mean(&|p| p.layers.items as f64),
            "requests in the serving split (sequences on gen-decode)",
        ),
        true,
    );
    push(
        value("prep.deploy_s", wall(&span("prep.deploy")), &wall_note),
        true,
    );
    push(
        value(
            "prep.ramps",
            mean(&|p| p.layers.ramps as f64),
            "ramps across every deployment",
        ),
        true,
    );
    push(
        value(
            "tuning.oneshot_s",
            wall(&span("tuning.oneshot")),
            &wall_note,
        ),
        has_span("tuning.oneshot"),
    );
    push(
        value(
            "tuning.warm_start_s",
            wall(&span("tuning.warm_start")),
            &wall_note,
        ),
        true,
    );
    push(
        value(
            "tuning.warm_starts",
            mean(&|p| p.layers.warm_starts as f64),
            "Apparate controllers warm-started per pass",
        ),
        true,
    );

    // platform
    push(
        value(
            "platform.self_s",
            wall(&|p| {
                p.layers
                    .loops
                    .iter()
                    .map(|l| l.wall.saturating_sub(l.busy).as_secs_f64())
                    .sum()
            }),
            format!("{wall_note}; loop wall minus policy calls, summed over every policy pass (thread-seconds in fleets)"),
        ),
        true,
    );
    let batches = |p: &PassOutput| p.layers.loops.iter().map(|l| l.batches).sum::<u64>() as f64;
    let items = |p: &PassOutput| p.layers.loops.iter().map(|l| l.items).sum::<u64>() as f64;
    push(
        value(
            "platform.batches",
            mean(&batches),
            format!("{sim_note}; batches (decode steps) over every policy pass"),
        ),
        true,
    );
    push(
        value(
            "platform.mean_batch",
            ratio(
                pooled.iter().map(|p| items(p)).sum(),
                pooled.iter().map(|p| batches(p)).sum(),
            ),
            "units over batches, every policy pass",
        ),
        true,
    );
    let waits: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.layers.queue_wait_ms.iter().copied())
        .collect();
    let wait_pct = Percentiles::from_samples(&waits);
    let wait_note = format!("Apparate pass, {} requests pooled", waits.len());
    push(
        value("platform.queue_wait_ms_p50", wait_pct.p50, &wait_note),
        !waits.is_empty(),
    );
    push(
        value("platform.queue_wait_ms_p99", wait_pct.p99, &wait_note),
        !waits.is_empty(),
    );

    // policies
    for (name, policy) in [
        ("policy.vanilla.busy_s", "vanilla"),
        ("policy.static-ee.busy_s", "static-ee"),
        ("policy.uniform-ee.busy_s", "uniform-ee"),
        ("policy.oneshot-tuned.busy_s", "oneshot-tuned"),
        ("policy.oracle.busy_s", "oracle"),
    ] {
        let ran = first.layers.loops.iter().any(|l| l.policy == policy);
        push(value(name, wall(&busy_of(policy)), &wall_note), ran);
    }

    // controller
    let controller_busy = |p: &PassOutput| {
        p.layers
            .loops
            .iter()
            .filter(|l| is_controller(l))
            .map(|l| l.busy.as_secs_f64())
            .sum::<f64>()
    };
    push(
        value("controller.busy_s", wall(&controller_busy), &wall_note),
        true,
    );
    let all_steps = steps_us(&all, None);
    let step_pct = Percentiles::from_samples(&all_steps);
    let tune = steps_us(&all, Some(StepKind::Tune));
    let adjust = steps_us(&all, Some(StepKind::Adjust));
    push(
        value(
            "controller.step_us_p50",
            step_pct.p50,
            format!("{} calls", all_steps.len()),
        ),
        true,
    );
    push(
        value(
            "controller.step_us_p99",
            step_pct.p99,
            format!(
                "{} calls, {:.0} beyond",
                all_steps.len(),
                all_steps.len() as f64 * 0.01
            ),
        ),
        true,
    );
    push(
        value(
            "controller.tune_step_us_p50",
            Percentiles::from_samples(&tune).p50,
            format!("{} tune calls", tune.len()),
        ),
        !tune.is_empty(),
    );
    push(
        value(
            "controller.adjust_step_us_p50",
            Percentiles::from_samples(&adjust).p50,
            format!("{} adjust calls", adjust.len()),
        ),
        !adjust.is_empty(),
    );
    let stats = |f: fn(&PassOutput) -> usize| move |p: &PassOutput| f(p) as f64;
    for (name, f) in [
        (
            "controller.tuning_rounds",
            stats(|p| p.layers.controller.tuning_rounds),
        ),
        (
            "controller.adjustment_rounds",
            stats(|p| p.layers.controller.adjustment_rounds),
        ),
        (
            "controller.ramp_changes",
            stats(|p| p.layers.controller.ramp_changes),
        ),
        (
            "controller.updates_sent",
            stats(|p| p.layers.controller.updates_sent),
        ),
        (
            "controller.records_ingested",
            stats(|p| p.layers.controller.records_ingested),
        ),
        (
            "controller.records_dropped",
            stats(|p| p.layers.controller.records_dropped),
        ),
    ] {
        push(value(name, mean(&f), &sim_note), true);
    }
    let ingested: f64 = pooled
        .iter()
        .map(|p| p.layers.controller.records_ingested as f64)
        .sum();
    let dropped: f64 = pooled
        .iter()
        .map(|p| p.layers.controller.records_dropped as f64)
        .sum();
    push(
        value(
            "controller.record_use_ratio",
            ratio(ingested, ingested + dropped),
            format!("{ingested} ingested of {} delivered", ingested + dropped),
        ),
        true,
    );

    // link
    for (name, f) in [
        (
            "link.up_msgs",
            (|p: &PassOutput| p.layers.link.uplink.messages as f64) as fn(&PassOutput) -> f64,
        ),
        ("link.up_bytes", |p| p.layers.link.uplink.bytes as f64),
        ("link.down_msgs", |p| p.layers.link.downlink.messages as f64),
        ("link.down_bytes", |p| p.layers.link.downlink.bytes as f64),
    ] {
        push(value(name, mean(&f), &sim_note), true);
    }
    let messages: f64 = pooled
        .iter()
        .map(|p| p.layers.link.total_messages() as f64)
        .sum();
    let latency: f64 = pooled
        .iter()
        .map(|p| p.layers.link.total_latency().as_millis_f64())
        .sum();
    push(
        value(
            "link.mean_ms",
            ratio(latency, messages),
            format!("simulated, over {messages} messages"),
        ),
        true,
    );

    // ingest
    let fleet_ran = first.layers.ingest.is_some();
    let ingest = |f: fn(&apparate_serving::IngestStats) -> usize| {
        move |p: &PassOutput| p.layers.ingest.as_ref().map_or(0.0, |s| f(s) as f64)
    };
    push(
        value("ingest.busy_s", wall(&span("ingest.stream")), &wall_note),
        fleet_ran,
    );
    push(
        value("ingest.offered", mean(&ingest(|s| s.offered)), &sim_note),
        fleet_ran,
    );
    push(
        value("ingest.admitted", mean(&ingest(|s| s.admitted)), &sim_note),
        fleet_ran,
    );
    push(
        value("ingest.shed", mean(&ingest(|s| s.shed)), &sim_note),
        fleet_ran,
    );
    let offered: f64 = pooled.iter().map(|p| ingest(|s| s.offered)(p)).sum();
    let admitted: f64 = pooled.iter().map(|p| ingest(|s| s.admitted)(p)).sum();
    push(
        value(
            "ingest.admit_ratio",
            ratio(admitted, offered),
            format!("{admitted} admitted of {offered} offered"),
        ),
        fleet_ran,
    );
    push(
        value(
            "ingest.max_depth",
            mean(&ingest(|s| s.max_depth)),
            &sim_note,
        ),
        fleet_ran,
    );

    // fleet
    let fleet_run = span("fleet.run");
    let replica_spans = |p: &PassOutput| {
        p.layers
            .loops
            .iter()
            .filter(|l| l.fleet)
            .map(|l| l.wall.as_secs_f64())
            .sum::<f64>()
    };
    push(
        value("fleet.run_s", wall(&fleet_run), &wall_note),
        fleet_ran,
    );
    push(
        value(
            "fleet.parallelism",
            wall(&|p| ratio(replica_spans(p), fleet_run(p))),
            "sum of per-replica first-to-last-call spans over fleet.run_s",
        ),
        fleet_ran,
    );
    push(
        value(
            "fleet.shard_imbalance",
            mean(&|p| {
                let sizes = &p.layers.shard_sizes;
                let max = sizes.iter().copied().max().unwrap_or(0) as f64;
                ratio(
                    max,
                    sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
                )
            }),
            "max over mean replay-shard size",
        ),
        fleet_ran,
    );

    // telemetry
    let recorded = first.layers.telemetry.is_some();
    let tel = |f: fn(&crate::pipeline::TelemetryProbe) -> u64| {
        move |p: &PassOutput| p.layers.telemetry.as_ref().map_or(0.0, |t| f(t) as f64)
    };
    push(
        value("telemetry.events", mean(&tel(|t| t.events)), &sim_note),
        recorded,
    );
    push(
        value("telemetry.dropped", mean(&tel(|t| t.dropped)), &sim_note),
        recorded,
    );
    push(
        value(
            "telemetry.export_s",
            wall(&span("telemetry.export")),
            &wall_note,
        ),
        recorded,
    );
    push(
        value("telemetry.export_bytes", mean(&tel(|t| t.bytes)), &sim_note),
        recorded,
    );

    // bench
    // Each traced pass runs right after its untraced twin on the same seed,
    // so the per-pair ratio cancels the machine's slow drift in speed.
    let ratios: Vec<f64> = all
        .iter()
        .zip(untraced_walls)
        .map(|(p, untraced)| (p.setup + p.serving).as_secs_f64() / untraced)
        .collect();
    push(
        value(
            "bench.tracing_overhead_pct",
            100.0 * (median(&ratios) - 1.0),
            format!("median over {} traced/untraced pass pairs", ratios.len()),
        ),
        true,
    );
    let residuals: Vec<f64> = all
        .iter()
        .map(|p| {
            let r = Reconciliation::of(p);
            100.0 * ratio(r.residual(), r.pass)
        })
        .collect();
    push(
        value(
            "bench.residual_pct",
            median(&residuals),
            "wall time outside every layer, share of the pass",
        ),
        true,
    );
    push(value("bench.pass_s", wall(&span("pass")), &wall_note), true);

    (out, idle)
}

/// Render the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[Value],
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|v| v.name == d.name)
                .unwrap_or_else(|| panic!("metric {} not computed", d.name));
            assert!(v.value.is_finite(), "metric {} is not finite", d.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v.value, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
