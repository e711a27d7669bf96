//! Measurement from outside the program: the wall clock, the span recorder
//! and the delegating policy wrappers.
//!
//! Nothing here changes what the simulator computes. Spans bracket the
//! public calls a workload makes; [`Timed`] wraps an [`ExitPolicy`] or
//! [`TokenPolicy`] and forwards every call unchanged, timing it on the way.
//! A disabled recorder or wrapper forwards without reading the clock, which
//! is what the untraced run uses.

use std::time::{Duration, Instant};

use apparate_experiments::{ApparatePolicy, ApparateTokenPolicy, ControllerStats};
use apparate_serving::{BatchOutcome, ExitPolicy, Request, StepOutcome, TokenPolicy, TokenSlot};
use apparate_sim::SimTime;

/// The benchmark's one wall-clock read.
pub fn now() -> Instant {
    // lint:allow(D001, reason = "benchmark measurement: wall time is the reported quantity and never feeds a simulated decision")
    Instant::now()
}

/// One recorded span: a named interval, relative to the recorder's origin,
/// with the index of its enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `layer.call` (e.g. `prep.deploy`).
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. Spans nest: a span opened while another is open
/// becomes its child.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing and never reads the clock.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = now() - self.origin;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("close without a matching open");
        self.spans[index].end = now() - self.origin;
    }

    /// Record `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.measure(name, f).0
    }

    /// Record `f` as one span and return its wall time (zero when off).
    pub fn measure<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.on {
            return (f(), Duration::ZERO);
        }
        self.open(name);
        let out = f();
        self.close();
        // `f` cannot reach the recorder, so the span just closed is the last.
        let took = self.spans.last().expect("span recorded").duration();
        (out, took)
    }

    /// Every recorded span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// What kind of work one controller call did, read from the controller's
/// public counters before and after the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Neither a tuning nor an adjustment round ran.
    Plain,
    /// A threshold-tuning round ran.
    Tune,
    /// A ramp-adjustment round ran.
    Adjust,
}

/// One timed controller call.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time of the call, in microseconds.
    pub us: f64,
    /// Its classification.
    pub kind: StepKind,
}

/// A delegating policy wrapper that times every call it forwards.
pub struct Timed<'a, P> {
    inner: &'a mut P,
    on: bool,
    stats: Option<fn(&P) -> ControllerStats>,
    /// Wall time spent inside the wrapped policy.
    pub busy: Duration,
    /// Start of the first timed call.
    pub first: Option<Instant>,
    /// End of the last timed call.
    pub last: Option<Instant>,
    /// Per-call samples (controllers only).
    pub steps: Vec<Step>,
}

impl<'a, P> Timed<'a, P> {
    /// Wrap a policy; `on == false` forwards without reading the clock. A
    /// policy with a controller passes its counter reader as `stats`, which
    /// classifies each call and records it as a [`Step`].
    pub fn new(
        inner: &'a mut P,
        on: bool,
        stats: Option<fn(&P) -> ControllerStats>,
    ) -> Timed<'a, P> {
        Timed {
            inner,
            on,
            stats,
            busy: Duration::ZERO,
            first: None,
            last: None,
            steps: Vec::new(),
        }
    }

    /// Wall time from the start of the first call to the end of the last.
    pub fn span(&self) -> Duration {
        match (self.first, self.last) {
            (Some(first), Some(last)) => last - first,
            _ => Duration::ZERO,
        }
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        if !self.on {
            return f(self.inner);
        }
        let before = self.stats.map(|stats| stats(self.inner));
        let start = now();
        let out = f(self.inner);
        let end = now();
        let took = end - start;
        self.busy += took;
        self.first.get_or_insert(start);
        self.last = Some(end);
        if let (Some(stats), Some(before)) = (self.stats, before) {
            let after = stats(self.inner);
            let kind = if after.adjustment_rounds > before.adjustment_rounds {
                StepKind::Adjust
            } else if after.tuning_rounds > before.tuning_rounds {
                StepKind::Tune
            } else {
                StepKind::Plain
            };
            self.steps.push(Step {
                us: took.as_secs_f64() * 1e6,
                kind,
            });
        }
        out
    }
}

impl<P: ExitPolicy> ExitPolicy for Timed<'_, P> {
    fn process_batch(&mut self, batch: &[Request], batch_start: SimTime) -> BatchOutcome {
        self.call(|p| p.process_batch(batch, batch_start))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: TokenPolicy> TokenPolicy for Timed<'_, P> {
    fn process_step(&mut self, slots: &[TokenSlot], step_start: SimTime) -> StepOutcome {
        self.call(|p| p.process_step(slots, step_start))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Counter reader for [`Timed::new`].
pub fn exit_stats(policy: &ApparatePolicy) -> ControllerStats {
    policy.stats()
}

/// Counter reader for [`Timed::new`].
pub fn token_stats(policy: &ApparateTokenPolicy) -> ControllerStats {
    policy.stats()
}
