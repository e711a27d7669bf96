//! Runtime monitoring: the feedback Apparate gets "for free" because every
//! input still runs to the end of the model.
//!
//! For every request and every active ramp the controller records the ramp's
//! highest-confidence result and error score — *irrespective of upstream
//! exiting decisions* (§3.2). The monitor maintains:
//!
//! * a short accuracy window (16 samples) whose violation triggers threshold
//!   tuning,
//! * a longer tuning window of full per-ramp observations used to evaluate
//!   counterfactual threshold configurations without extra inference,
//! * per-ramp exit counters since the last ramp-adjustment round, used for
//!   utility scores and candidate exit-rate bounds (§3.3).
//!
//! The tuning window is columnar ([`TuningWindow`]) and is the only form in
//! which observations are kept: entropies and agreement flags live in flat
//! per-ramp-strided arrays with per-ramp entropy histograms maintained at
//! ingest time. Every threshold tune — online, offline and the reference
//! evaluator alike — reads it directly. Whole delivered [`ProfileRecord`]s
//! are ingested with [`Monitor::record_batch`] — slice copies, no
//! per-request allocation.

use apparate_exec::{ProfileRecord, RampObservation};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique [`TuningWindow`] instance ids: the tuner's caches key on
/// `(id, version)`, so two *different* windows that happen to agree on a
/// version counter can never alias each other's cached state. Never read for
/// anything observable — a collision-free label only, so the allocation order
/// being scheduling-dependent is fine.
static WINDOW_IDS: AtomicU64 = AtomicU64::new(1);

fn next_window_id() -> u64 {
    WINDOW_IDS.fetch_add(1, Ordering::Relaxed)
}

/// Buckets per ramp in the [`TuningWindow`]'s entropy histograms.
const HIST_BUCKETS: usize = 64;

#[inline]
fn hist_bucket(entropy: f64) -> usize {
    // Entropies are clamped to [0, 1] upstream; the min guards 1.0 exactly.
    ((entropy.max(0.0) * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1)
}

/// The bounded tuning window in columnar form: a ring of request slots whose
/// per-ramp entropies/agreements live in flat stride-`num_ramps` arrays,
/// with per-ramp entropy histograms kept in sync on every push/evict.
///
/// The histograms are the pre-aggregated per-ramp summaries the incremental
/// tuner consults to skip candidate threshold ranges with no recorded mass;
/// the version counters let it key its sorted-column caches so only ramps
/// whose window content changed since the last tune are re-derived.
#[derive(Debug)]
pub struct TuningWindow {
    /// Process-unique instance label (see [`WINDOW_IDS`]).
    id: u64,
    num_ramps: usize,
    capacity: usize,
    /// Slot-major entropies: slot `s`, ramp `r` at `s * num_ramps + r`.
    entropies: Vec<f64>,
    /// Slot-major agreement flags, same layout as `entropies`.
    agrees: Vec<bool>,
    /// Physical index of the oldest slot (0 until the ring first wraps).
    head: usize,
    len: usize,
    /// Bumped on every mutation; cache key for whole-window consumers.
    version: u64,
    /// Per-ramp mutation counters; cache keys for per-ramp derived state.
    ramp_versions: Vec<u64>,
    /// Per-ramp entropy histograms: ramp `r` bucket `b` at
    /// `r * HIST_BUCKETS + b`.
    hist: Vec<u32>,
}

impl Clone for TuningWindow {
    fn clone(&self) -> TuningWindow {
        // A clone may diverge from its source while both keep counting
        // versions from the same point, so it must not share the source's
        // cache identity.
        TuningWindow {
            id: next_window_id(),
            num_ramps: self.num_ramps,
            capacity: self.capacity,
            entropies: self.entropies.clone(),
            agrees: self.agrees.clone(),
            head: self.head,
            len: self.len,
            version: self.version,
            ramp_versions: self.ramp_versions.clone(),
            hist: self.hist.clone(),
        }
    }
}

impl TuningWindow {
    /// Create an empty window for `num_ramps` ramps holding up to `capacity`
    /// requests.
    pub fn new(num_ramps: usize, capacity: usize) -> TuningWindow {
        assert!(capacity > 0);
        TuningWindow {
            id: next_window_id(),
            num_ramps,
            capacity,
            entropies: vec![0.0; capacity * num_ramps],
            agrees: vec![false; capacity * num_ramps],
            head: 0,
            len: 0,
            version: 0,
            ramp_versions: vec![0; num_ramps],
            hist: vec![0; num_ramps * HIST_BUCKETS],
        }
    }

    /// Number of requests currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no requests are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of requests held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ramps per request.
    pub fn num_ramps(&self) -> usize {
        self.num_ramps
    }

    /// Process-unique instance id; combined with [`TuningWindow::version`]
    /// it identifies window *content* for caching.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Monotone counter bumped on every mutation: equal `(id, version)`
    /// pairs guarantee identical window content.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-ramp mutation counter: unchanged between two tunes means ramp
    /// `ramp`'s column (and anything derived from it) is still valid.
    pub fn ramp_version(&self, ramp: usize) -> u64 {
        self.ramp_versions[ramp]
    }

    /// Entropy observed at `ramp` for the request in physical slot `slot`.
    ///
    /// Physical slots `0..len()` are always valid; the ring only moves its
    /// head once full, at which point every slot is occupied. Slot order is
    /// *not* arrival order — evaluation over the window is order-independent.
    #[inline]
    pub fn entropy(&self, slot: usize, ramp: usize) -> f64 {
        self.entropies[slot * self.num_ramps + ramp]
    }

    /// Whether `ramp`'s prediction agreed with the original model for the
    /// request in physical slot `slot`.
    #[inline]
    pub fn agrees(&self, slot: usize, ramp: usize) -> bool {
        self.agrees[slot * self.num_ramps + ramp]
    }

    /// True when the per-ramp histogram proves no recorded entropy at `ramp`
    /// lies in `(lo, hi]`. A `false` answer is conservative: the bucket
    /// resolution may include neighbouring mass.
    pub fn range_provably_empty(&self, ramp: usize, lo: f64, hi: f64) -> bool {
        let base = ramp * HIST_BUCKETS;
        let from = hist_bucket(lo);
        let to = hist_bucket(hi);
        self.hist[base + from..=base + to].iter().all(|&c| c == 0)
    }

    /// Append one request's observations, evicting the oldest once full.
    pub fn push(&mut self, observations: &[RampObservation]) {
        debug_assert_eq!(observations.len(), self.num_ramps);
        let slot = if self.len == self.capacity {
            let evicted = self.head;
            // Retire the evicted slot's entropies from the histograms before
            // overwriting them.
            for r in 0..self.num_ramps {
                let bucket = hist_bucket(self.entropies[evicted * self.num_ramps + r]);
                self.hist[r * HIST_BUCKETS + bucket] -= 1;
            }
            self.head = (self.head + 1) % self.capacity;
            evicted
        } else {
            // Invariant: the head stays at 0 until the ring first fills, so
            // physical slots 0..len are exactly the occupied ones.
            let slot = (self.head + self.len) % self.capacity;
            self.len += 1;
            slot
        };
        let base = slot * self.num_ramps;
        for (r, obs) in observations.iter().enumerate() {
            self.entropies[base + r] = obs.entropy;
            self.agrees[base + r] = obs.agrees;
            self.hist[r * HIST_BUCKETS + hist_bucket(obs.entropy)] += 1;
            self.ramp_versions[r] += 1;
        }
        self.version += 1;
    }

    /// Clear the window for a new ramp set of `num_ramps` ramps.
    pub fn clear_for_ramps(&mut self, num_ramps: usize) {
        self.num_ramps = num_ramps;
        self.entropies = vec![0.0; self.capacity * num_ramps];
        self.agrees = vec![false; self.capacity * num_ramps];
        self.head = 0;
        self.len = 0;
        self.version += 1;
        self.ramp_versions = vec![0; num_ramps];
        for v in &mut self.ramp_versions {
            *v = self.version;
        }
        self.hist = vec![0; num_ramps * HIST_BUCKETS];
    }
}

/// The controller's monitoring state.
#[derive(Debug, Clone)]
pub struct Monitor {
    num_ramps: usize,
    accuracy_capacity: usize,
    accuracy_window: VecDeque<bool>,
    tuning_window: TuningWindow,
    ramp_exits: Vec<u64>,
    requests_since_adjust: u64,
    total_requests: u64,
    total_correct: u64,
}

impl Monitor {
    /// Create a monitor for `num_ramps` active ramps.
    pub fn new(num_ramps: usize, accuracy_capacity: usize, tuning_capacity: usize) -> Monitor {
        assert!(accuracy_capacity > 0 && tuning_capacity > 0);
        Monitor {
            num_ramps,
            accuracy_capacity,
            accuracy_window: VecDeque::with_capacity(accuracy_capacity),
            tuning_window: TuningWindow::new(num_ramps, tuning_capacity),
            ramp_exits: vec![0; num_ramps],
            requests_since_adjust: 0,
            total_requests: 0,
            total_correct: 0,
        }
    }

    /// Number of ramps currently monitored.
    pub fn num_ramps(&self) -> usize {
        self.num_ramps
    }

    /// Ingest one delivered [`ProfileRecord`] wholesale: every request in the
    /// batch enters the accuracy and tuning windows via slice copies into the
    /// columnar window — no per-request `Vec` is built.
    pub fn record_batch(&mut self, record: &ProfileRecord) {
        debug_assert_eq!(record.num_ramps, self.num_ramps);
        debug_assert_eq!(
            record.observations.len(),
            record.releases.len() * record.num_ramps
        );
        for (i, release) in record.releases.iter().enumerate() {
            if self.accuracy_window.len() == self.accuracy_capacity {
                self.accuracy_window.pop_front();
            }
            self.accuracy_window.push_back(release.correct);
            if let Some(idx) = release.exit {
                if idx < self.num_ramps {
                    self.ramp_exits[idx] += 1;
                }
            }
            self.requests_since_adjust += 1;
            self.total_requests += 1;
            if release.correct {
                self.total_correct += 1;
            }
            self.tuning_window.push(record.request_observations(i));
        }
    }

    /// Accuracy over the short trigger window (1.0 when empty).
    pub fn windowed_accuracy(&self) -> f64 {
        if self.accuracy_window.is_empty() {
            return 1.0;
        }
        self.accuracy_window.iter().filter(|&&c| c).count() as f64
            / self.accuracy_window.len() as f64
    }

    /// True once the trigger window has filled at least once.
    pub fn accuracy_window_full(&self) -> bool {
        self.accuracy_window.len() == self.accuracy_capacity
    }

    /// Cumulative accuracy since the monitor was created.
    pub fn cumulative_accuracy(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        self.total_correct as f64 / self.total_requests as f64
    }

    /// The columnar tuning window (the incremental tuner's input).
    pub fn window(&self) -> &TuningWindow {
        &self.tuning_window
    }

    /// Number of records currently in the tuning window.
    pub fn tuning_window_len(&self) -> usize {
        self.tuning_window.len()
    }

    /// Per-ramp exit rates since the last ramp adjustment.
    pub fn exit_rates(&self) -> Vec<f64> {
        if self.requests_since_adjust == 0 {
            return vec![0.0; self.num_ramps];
        }
        self.ramp_exits
            .iter()
            .map(|&e| e as f64 / self.requests_since_adjust as f64)
            .collect()
    }

    /// Raw per-ramp exit counts since the last ramp adjustment.
    pub fn exit_counts(&self) -> &[u64] {
        &self.ramp_exits
    }

    /// Requests observed since the last ramp adjustment.
    pub fn requests_since_adjust(&self) -> u64 {
        self.requests_since_adjust
    }

    /// Total requests observed.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Reset ramp-aligned state after the active ramp set changed; previous
    /// observations no longer line up with the new ramp indices.
    pub fn reset_for_new_ramps(&mut self, num_ramps: usize) {
        self.num_ramps = num_ramps;
        self.ramp_exits = vec![0; num_ramps];
        self.requests_since_adjust = 0;
        self.tuning_window.clear_for_ramps(num_ramps);
        // The accuracy trigger window deliberately survives: accuracy is a
        // property of released results, not of any particular ramp set.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_exec::RequestRelease;
    use apparate_sim::SimTime;

    /// A delivered batch in which request `i` observed `rows[i].0` at every
    /// ramp, exited at `rows[i].1` and was released correct iff `rows[i].2`
    /// (every ramp's agreement flag follows correctness).
    fn batch(rows: &[(&[f64], Option<usize>, bool)]) -> ProfileRecord {
        ProfileRecord {
            completed_at: SimTime::ZERO,
            batch_size: rows.len() as u32,
            num_ramps: rows.first().map(|r| r.0.len()).unwrap_or(0),
            observations: rows
                .iter()
                .flat_map(|&(entropies, _, correct)| {
                    entropies.iter().map(move |&entropy| RampObservation {
                        entropy,
                        agrees: correct,
                    })
                })
                .collect(),
            releases: rows
                .iter()
                .enumerate()
                .map(|(i, &(_, exit, correct))| RequestRelease {
                    id: i as u64,
                    exit,
                    correct,
                })
                .collect(),
            config_epoch: 0,
        }
    }

    /// Ingest one request as a single-request batch.
    fn record(m: &mut Monitor, entropies: &[f64], exited: Option<usize>, correct: bool) {
        m.record_batch(&batch(&[(entropies, exited, correct)]));
    }

    /// The entropies ramp `ramp` holds across the window's occupied slots,
    /// ascending (slot order is not arrival order once the ring wraps).
    fn held_entropies(w: &TuningWindow, ramp: usize) -> Vec<f64> {
        let mut held: Vec<f64> = (0..w.len()).map(|s| w.entropy(s, ramp)).collect();
        held.sort_by(f64::total_cmp);
        held
    }

    #[test]
    fn accuracy_window_tracks_recent_results() {
        let mut m = Monitor::new(2, 4, 16);
        assert_eq!(m.windowed_accuracy(), 1.0);
        for _ in 0..4 {
            record(&mut m, &[0.1, 0.1], Some(0), true);
        }
        assert!(m.accuracy_window_full());
        assert_eq!(m.windowed_accuracy(), 1.0);
        m.record_batch(&batch(&[
            (&[0.1, 0.1], Some(0), false),
            (&[0.1, 0.1], Some(0), false),
        ]));
        assert!((m.windowed_accuracy() - 0.5).abs() < 1e-9);
        // The window slides: four more correct results push the errors out.
        for _ in 0..4 {
            record(&mut m, &[0.1, 0.1], None, true);
        }
        assert_eq!(m.windowed_accuracy(), 1.0);
        assert!(m.cumulative_accuracy() < 1.0);
    }

    #[test]
    fn exit_rates_count_per_ramp() {
        let mut m = Monitor::new(3, 16, 64);
        for i in 0..10 {
            let exited = match i % 3 {
                0 => Some(0),
                1 => Some(2),
                _ => None,
            };
            record(&mut m, &[0.5, 0.5, 0.5], exited, true);
        }
        let rates = m.exit_rates();
        assert!((rates[0] - 0.4).abs() < 1e-9);
        assert_eq!(rates[1], 0.0);
        assert!((rates[2] - 0.3).abs() < 1e-9);
        assert_eq!(m.requests_since_adjust(), 10);
        assert_eq!(m.exit_counts(), &[4, 0, 3]);
    }

    #[test]
    fn tuning_window_is_bounded() {
        let mut m = Monitor::new(1, 16, 8);
        for i in 0..20 {
            record(&mut m, &[i as f64 / 20.0], None, true);
        }
        assert_eq!(m.tuning_window_len(), 8);
        // Requests 12..20 (entropies 0.6..0.95) survive; 0..12 were evicted.
        let expected: Vec<f64> = (12..20).map(|i| i as f64 / 20.0).collect();
        assert_eq!(held_entropies(m.window(), 0), expected);
    }

    #[test]
    fn reset_clears_ramp_state_but_keeps_accuracy() {
        let mut m = Monitor::new(2, 4, 8);
        for _ in 0..4 {
            record(&mut m, &[0.1, 0.1], Some(1), false);
        }
        assert!(m.windowed_accuracy() < 1.0);
        m.reset_for_new_ramps(3);
        assert_eq!(m.num_ramps(), 3);
        assert_eq!(m.exit_counts(), &[0, 0, 0]);
        assert_eq!(m.requests_since_adjust(), 0);
        assert_eq!(m.tuning_window_len(), 0);
        // Accuracy history survives, so a violation can still trigger tuning
        // right after an adjustment.
        assert!(m.windowed_accuracy() < 1.0);
        assert_eq!(m.total_requests(), 4);
    }

    #[test]
    fn empty_exit_rates_are_zero() {
        let m = Monitor::new(2, 16, 64);
        assert_eq!(m.exit_rates(), vec![0.0, 0.0]);
        assert_eq!(m.cumulative_accuracy(), 1.0);
    }

    #[test]
    fn window_histograms_track_pushes_and_evictions() {
        let mut w = TuningWindow::new(1, 4);
        for i in 0..4 {
            w.push(&[RampObservation {
                entropy: 0.1 + 0.2 * i as f64,
                agrees: true,
            }]);
        }
        // Mass at 0.1, 0.3, 0.5, 0.7; nothing above 0.8.
        assert!(!w.range_provably_empty(0, 0.0, 1.0));
        assert!(w.range_provably_empty(0, 0.8, 1.0));
        // Evict 0.1 (oldest) by pushing 0.9: low range empties, high fills.
        w.push(&[RampObservation {
            entropy: 0.9,
            agrees: true,
        }]);
        assert!(w.range_provably_empty(0, 0.0, 0.05));
        assert!(!w.range_provably_empty(0, 0.8, 1.0));
        assert_eq!(w.len(), 4);
        // The evicted observation is gone from the slots too.
        let held = held_entropies(&w, 0);
        for (got, want) in held.iter().zip([0.3, 0.5, 0.7, 0.9]) {
            assert!((got - want).abs() < 1e-12, "{held:?}");
        }
    }

    #[test]
    fn window_versions_advance_on_every_mutation() {
        let mut w = TuningWindow::new(2, 4);
        let v0 = w.version();
        w.push(&[
            RampObservation {
                entropy: 0.2,
                agrees: true,
            },
            RampObservation {
                entropy: 0.4,
                agrees: false,
            },
        ]);
        assert!(w.version() > v0);
        assert!(w.ramp_version(0) > 0 && w.ramp_version(1) > 0);
        let v1 = w.version();
        w.clear_for_ramps(3);
        assert!(w.version() > v1);
        assert_eq!(w.num_ramps(), 3);
        assert_eq!(w.len(), 0);
        assert!(w.range_provably_empty(2, 0.0, 1.0));
    }
}
