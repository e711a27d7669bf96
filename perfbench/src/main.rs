//! `apparate-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload pass after pass until `--seconds` of pass wall time
//! have been measured (and at least one pass per pooled seed has run), checks the
//! outputs, prints a human-readable report and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs every pass twice, untraced and traced, and reports the per-layer
//! metrics. A failed check exits 1; bad arguments exit 2.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use apparate_perfbench::checks;
use apparate_perfbench::metrics::{self, Reconciliation, Value, END_TO_END, PER_LAYER};
use apparate_perfbench::pass_seed;
use apparate_perfbench::pipeline::{run_pass, PassOutput, PassSpec};
use apparate_perfbench::workloads::{Sizes, Workload};

const USAGE: &str = "usage: apparate-perfbench --workload <cv-video|gen-decode|fleet-overload> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Seeds pooled into an untraced run's simulated metrics: the first `POOL`
/// passes run seeds derived from the run's seed, and later passes repeat
/// them. One seed's video or request stream is a handful of scenes, so its
/// accuracy loss and tail latency swing by a third from seed to seed;
/// pooling 32 seeds keeps them steady from one run seed to the next.
const POOL: usize = 32;

/// Seeds in a traced run. Its per-layer counts are means over these, and
/// every traced pass also runs untraced, so fewer seeds keep it short.
const TRACED_POOL: usize = 4;

/// Passes per run whose outputs are compared with the program's runner.
/// The runner costs as much as a pass, so only the first few seeds are
/// compared; every pass still gets the in-pass checks, and a repeated seed
/// must reproduce its first pass exactly.
const CHECKED: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pool: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let trace = trace.ok_or("--trace is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        pool: if trace { TRACED_POOL } else { POOL },
    })
}

/// Where exports and spans go: beside the benchmark binary, inside the
/// build directory.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the binary has no parent directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// The result of one run.
struct Outcome {
    values: Vec<Value>,
    attempted: u64,
    failures: Vec<String>,
}

/// Check a pass: in-pass invariants always, the runner's outputs on the
/// first [`CHECKED`] seeds, and the first pass of its seed on a repeat. Drop
/// its telemetry exports afterwards so they do not inflate peak memory.
fn check_pass(
    args: &Args,
    index: usize,
    seed: u64,
    out: &mut PassOutput,
    first: &[PassOutput],
) -> Result<(), String> {
    checks::pass_checks(out)?;
    if index < CHECKED.min(args.pool) {
        let runner = checks::runner_evidence(args.workload, seed, Sizes::BENCH);
        checks::same_as_runner(&out.evidence, &runner)?;
    } else if index >= args.pool {
        let base = &first[index % args.pool];
        if out.evidence.table != base.evidence.table || out.headline != base.headline {
            return Err("a repeated seed produced different results".to_string());
        }
    }
    out.evidence.exports = None;
    Ok(())
}

fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut first: Vec<PassOutput> = Vec::new();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut peak_rss = 0.0;
    let mut index = 0;
    while index < args.pool || measured < budget {
        let seed = pass_seed(args.seed, index % args.pool);
        let mut out = run_pass(PassSpec {
            workload: args.workload,
            seed,
            sizes: Sizes::BENCH,
            traced: false,
            out_dir: Some(dir),
        });
        if index == 0 {
            // Before the runner check and before results accumulate: the
            // peak of one workload pass.
            peak_rss = peak_rss_mb()?;
        }
        measured += out.setup + out.serving;
        setups.push(out.setup);
        rates.push(out.served as f64 / out.serving.as_secs_f64());
        if let Err(e) = check_pass(args, index, seed, &mut out, &first) {
            failures.push(format!("pass {index} (seed {seed}): {e}"));
        }
        if index < args.pool {
            first.push(out);
        }
        index += 1;
    }
    let headlines: Vec<_> = first.iter().map(|p| &p.headline).collect();
    let sim = metrics::pool(&headlines);
    if let Err(e) =
        checks::accuracy_within(sim.accuracy_loss_pct, checks::accuracy_constraint_pct())
    {
        failures.push(e);
    }
    Ok(Outcome {
        values: metrics::end_to_end(&setups, &rates, peak_rss, &sim, first.len()),
        attempted: index as u64,
        failures,
    })
}

fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut traced: Vec<PassOutput> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut failures = Vec::new();
    let mut index = 0;
    while index < args.pool || measured < budget {
        let seed = pass_seed(args.seed, index % args.pool);
        let spec = |traced| PassSpec {
            workload: args.workload,
            seed,
            sizes: Sizes::BENCH,
            traced,
            out_dir: Some(dir),
        };
        // Alternate which twin runs first: the heap a pass inherits from the
        // one before it moves a cv-video pass by up to a tenth, and
        // alternating keeps that out of the tracing overhead.
        let (plain, mut out) = if index % 2 == 0 {
            let plain = run_pass(spec(false));
            (plain, run_pass(spec(true)))
        } else {
            let out = run_pass(spec(true));
            (run_pass(spec(false)), out)
        };
        let (plain_wall, wall) = (plain.setup + plain.serving, out.setup + out.serving);
        measured += plain_wall + wall;
        untraced_walls.push(plain_wall.as_secs_f64());
        let result = checks::same_simulation(&plain, &out)
            .and_then(|()| check_pass(args, index, seed, &mut out, &traced));
        if let Err(e) = result {
            failures.push(format!("pass {index} (seed {seed}): {e}"));
        }
        traced.push(out);
        index += 1;
    }
    write_spans(
        &dir.join(format!("{}.spans.jsonl", args.workload.name())),
        &traced,
    )?;
    print_reconciliation(&traced);
    let (values, idle) = metrics::per_layer(&traced, args.pool, &untraced_walls);
    if !idle.is_empty() {
        println!(
            "not exercised by {} (reported as 0): {}",
            args.workload.name(),
            idle.join(", ")
        );
    }
    Ok(Outcome {
        values,
        attempted: 2 * index as u64,
        failures,
    })
}

/// Spans stay in memory during the run and are written out at the end, one
/// JSON object per line.
fn write_spans(path: &Path, passes: &[PassOutput]) -> Result<(), String> {
    let mut text = String::new();
    for (pass, out) in passes.iter().enumerate() {
        for (id, span) in out.layers.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"pass\": {pass}, \"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}\n",
                span.name,
                span.start.as_secs_f64(),
                span.end.as_secs_f64(),
            ));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: written to {}", path.display());
    Ok(())
}

/// Print each layer's self time next to the end-to-end wall time, and the
/// residual between the two (medians over the traced passes).
fn print_reconciliation(passes: &[PassOutput]) {
    let splits: Vec<Reconciliation> = passes.iter().map(Reconciliation::of).collect();
    let med = |f: &dyn Fn(&Reconciliation) -> f64| {
        metrics::median(&splits.iter().map(f).collect::<Vec<_>>())
    };
    let pass = med(&|r| r.pass);
    println!(
        "reconciliation, medians over {} traced passes:",
        passes.len()
    );
    println!("  {:<12} {:>10} {:>7}", "layer", "self s", "share");
    for (i, (name, _)) in splits[0].layers().iter().enumerate() {
        let v = med(&|r| r.layers()[i].1);
        println!("  {name:<12} {v:>10.5} {:>6.1}%", 100.0 * v / pass);
    }
    let residual = med(&|r| r.residual());
    println!(
        "  {:<12} {:>10.5} {:>6.1}%",
        "residual",
        residual,
        100.0 * residual / pass
    );
    println!("  {:<12} {:>10.5}", "end-to-end", pass);
    let fleet = |pick: fn(&apparate_perfbench::pipeline::LoopProbe) -> f64| {
        metrics::median(
            &passes
                .iter()
                .map(|p| {
                    p.layers
                        .loops
                        .iter()
                        .filter(|l| l.fleet)
                        .map(pick)
                        .sum::<f64>()
                })
                .collect::<Vec<_>>(),
        )
    };
    let replicas = fleet(|l| l.wall.as_secs_f64());
    if replicas > 0.0 {
        println!(
            "  inside the fleet runs, in thread-seconds (replicas overlap on worker threads): \
             replica spans {replicas:.5} = platform {:.5} + policy and controller calls {:.5}",
            fleet(|l| l.wall.saturating_sub(l.busy).as_secs_f64()),
            fleet(|l| l.busy.as_secs_f64()),
        );
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let run = out_dir().and_then(|dir| {
        if args.trace {
            traced(&args, &dir)
        } else {
            untraced(&args, &dir)
        }
    });
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    let defs: &[metrics::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{} seed {} ({}): {} passes",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.attempted
    );
    for def in defs {
        if let Some(v) = outcome.values.iter().find(|v| v.name == def.name) {
            println!(
                "  {:<32} {:>16.6} {:<8} {}",
                def.name, v.value, def.unit, v.note
            );
        }
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    let failed = (outcome.failures.len() as u64).min(outcome.attempted);
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, outcome.attempted, failed, defs, &outcome.values)
    );
    if !correct {
        std::process::exit(1);
    }
}
