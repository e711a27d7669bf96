//! Structured, sim-time-stamped trace events.
//!
//! Every event carries the simulated time it happened at, the replica it
//! happened on (0 for single-replica runs), and a kind-specific payload. The
//! kind names are stable lowercase strings so exported traces stay grep-able
//! (CI validates required kinds with plain substring matches, the same way it
//! checks `BENCH_apparate.json` suite coverage).

use crate::export::write_escaped_json;
use apparate_sim::SimTime;
use std::fmt::Write;

/// Which direction of the GPU ↔ controller link a message travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// GPU → controller profiling stream.
    Up,
    /// Controller → GPU threshold/ramp updates.
    Down,
}

impl LinkDirection {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkDirection::Up => "up",
            LinkDirection::Down => "down",
        }
    }
}

/// What happened, with the fields that matter for that kind of event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The Algorithm 2 loop changed the active ramp set.
    RampSetChanged {
        /// Ramp sites newly activated.
        activated: Vec<usize>,
        /// Ramp sites deactivated.
        deactivated: Vec<usize>,
        /// Active ramp count after the change.
        active_count: usize,
    },
    /// The controller issued a `ThresholdUpdate` onto the downlink.
    UpdateIssued {
        /// Configuration epoch the update establishes.
        epoch: u64,
        /// Whether the update ships replacement ramp definitions.
        ramps_changed: bool,
    },
    /// A `ThresholdUpdate` landed on the GPU half and was applied.
    UpdateDelivered {
        /// Configuration epoch now in force on the GPU.
        epoch: u64,
        /// Whether the update shipped replacement ramp definitions.
        ramps_changed: bool,
    },
    /// The controller discarded a profiling record from a stale epoch.
    StaleRecordDropped {
        /// Epoch the record was produced under.
        record_epoch: u64,
        /// Minimum epoch the controller currently accepts.
        min_epoch: u64,
    },
    /// The fleet dispatcher routed a request to a replica.
    Dispatch {
        /// Request identifier.
        request_id: u64,
        /// Replica the request was routed to.
        replica: u32,
    },
    /// The batching platform launched a batch (or the generative loop ran a
    /// decode step). Span-shaped: `gpu_us` is the simulated GPU occupancy.
    BatchFormed {
        /// Requests (or token slots) in the batch.
        size: u32,
        /// Queue depth left behind after the batch drained.
        queue_depth: usize,
        /// Simulated GPU time the batch occupied, µs.
        gpu_us: u64,
    },
    /// A request (or token) was released after its SLO deadline.
    SloViolation {
        /// Request identifier.
        request_id: u64,
        /// Observed latency (classification) or inter-token time
        /// (generative), µs.
        latency_us: u64,
        /// The SLO it was held against, µs.
        slo_us: u64,
    },
    /// One message crossed the GPU ↔ controller link. Span-shaped:
    /// `latency_us` is the charged transfer latency.
    LinkMessage {
        /// Link direction.
        direction: LinkDirection,
        /// Wire bytes charged.
        bytes: u64,
        /// Charged transfer latency, µs.
        latency_us: u64,
    },
    /// The controller completed a threshold-tuning round (Algorithm 1).
    TuningRound {
        /// Configuration epoch published by the round.
        epoch: u64,
        /// Whether the round changed any threshold.
        thresholds_changed: bool,
    },
    /// The streaming ingest front end decided an arrival's fate: admitted to
    /// a replica's bounded queue, or shed at the queue bound.
    Admission {
        /// Offered-stream position of the arrival.
        request_id: u64,
        /// Replica the dispatcher selected.
        replica: u32,
        /// Selected replica's admission-queue depth before the decision.
        queue_depth: usize,
        /// Whether the arrival was admitted (false = shed).
        admitted: bool,
        /// Pacing rate in force after the decision, ppm of the offered rate.
        pace_ppm: u64,
    },
}

impl EventKind {
    /// Stable lowercase kind name used in exports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::RampSetChanged { .. } => "ramp-set-changed",
            EventKind::UpdateIssued { .. } => "update-issued",
            EventKind::UpdateDelivered { .. } => "update-delivered",
            EventKind::StaleRecordDropped { .. } => "stale-record-dropped",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::BatchFormed { .. } => "batch-formed",
            EventKind::SloViolation { .. } => "slo-violation",
            EventKind::LinkMessage { .. } => "link-message",
            EventKind::TuningRound { .. } => "tuning-round",
            EventKind::Admission { .. } => "admission",
        }
    }
}

/// One trace event: when, where, what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time the event happened at.
    pub at: SimTime,
    /// Replica the event happened on (0 outside fleet runs).
    pub replica: u32,
    /// Kind-specific payload.
    pub kind: EventKind,
}

/// Append `xs` as a JSON array of integers.
fn write_usize_list(out: &mut String, xs: &[usize]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
}

impl TraceEvent {
    /// One JSON object, no trailing newline. Common fields first
    /// (`at_us`, `replica`, `kind`), then the kind-specific payload.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }

    /// Append [`to_json_line`](Self::to_json_line)'s object to `out`, with
    /// no intermediate allocation.
    pub fn write_json_line(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"at_us\":{},\"replica\":{},\"kind\":\"",
            self.at.as_micros(),
            self.replica,
        );
        write_escaped_json(out, self.kind.kind_name());
        out.push('"');
        let _ = match &self.kind {
            EventKind::RampSetChanged {
                activated,
                deactivated,
                active_count,
            } => {
                out.push_str(",\"activated\":");
                write_usize_list(out, activated);
                out.push_str(",\"deactivated\":");
                write_usize_list(out, deactivated);
                write!(out, ",\"active_count\":{active_count}}}")
            }
            EventKind::UpdateIssued {
                epoch,
                ramps_changed,
            }
            | EventKind::UpdateDelivered {
                epoch,
                ramps_changed,
            } => write!(out, ",\"epoch\":{epoch},\"ramps_changed\":{ramps_changed}}}"),
            EventKind::StaleRecordDropped {
                record_epoch,
                min_epoch,
            } => write!(
                out,
                ",\"record_epoch\":{record_epoch},\"min_epoch\":{min_epoch}}}"
            ),
            EventKind::Dispatch {
                request_id,
                replica,
            } => write!(out, ",\"request_id\":{request_id},\"to_replica\":{replica}}}"),
            EventKind::BatchFormed {
                size,
                queue_depth,
                gpu_us,
            } => write!(
                out,
                ",\"size\":{size},\"queue_depth\":{queue_depth},\"gpu_us\":{gpu_us}}}"
            ),
            EventKind::SloViolation {
                request_id,
                latency_us,
                slo_us,
            } => write!(
                out,
                ",\"request_id\":{request_id},\"latency_us\":{latency_us},\"slo_us\":{slo_us}}}"
            ),
            EventKind::LinkMessage {
                direction,
                bytes,
                latency_us,
            } => write!(
                out,
                ",\"direction\":\"{}\",\"bytes\":{bytes},\"latency_us\":{latency_us}}}",
                direction.as_str(),
            ),
            EventKind::TuningRound {
                epoch,
                thresholds_changed,
            } => write!(
                out,
                ",\"epoch\":{epoch},\"thresholds_changed\":{thresholds_changed}}}"
            ),
            EventKind::Admission {
                request_id,
                replica,
                queue_depth,
                admitted,
                pace_ppm,
            } => write!(
                out,
                ",\"request_id\":{request_id},\"to_replica\":{replica},\"queue_depth\":{queue_depth},\"admitted\":{admitted},\"pace_ppm\":{pace_ppm}}}"
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        let kinds = [
            (
                EventKind::RampSetChanged {
                    activated: vec![1],
                    deactivated: vec![],
                    active_count: 3,
                },
                "ramp-set-changed",
            ),
            (
                EventKind::UpdateIssued {
                    epoch: 1,
                    ramps_changed: false,
                },
                "update-issued",
            ),
            (
                EventKind::UpdateDelivered {
                    epoch: 1,
                    ramps_changed: true,
                },
                "update-delivered",
            ),
            (
                EventKind::StaleRecordDropped {
                    record_epoch: 0,
                    min_epoch: 1,
                },
                "stale-record-dropped",
            ),
            (
                EventKind::Dispatch {
                    request_id: 7,
                    replica: 2,
                },
                "dispatch",
            ),
            (
                EventKind::BatchFormed {
                    size: 8,
                    queue_depth: 1,
                    gpu_us: 900,
                },
                "batch-formed",
            ),
            (
                EventKind::SloViolation {
                    request_id: 7,
                    latency_us: 12_000,
                    slo_us: 10_000,
                },
                "slo-violation",
            ),
            (
                EventKind::LinkMessage {
                    direction: LinkDirection::Up,
                    bytes: 1024,
                    latency_us: 425,
                },
                "link-message",
            ),
            (
                EventKind::TuningRound {
                    epoch: 2,
                    thresholds_changed: true,
                },
                "tuning-round",
            ),
            (
                EventKind::Admission {
                    request_id: 7,
                    replica: 1,
                    queue_depth: 3,
                    admitted: true,
                    pace_ppm: 995_000,
                },
                "admission",
            ),
        ];
        for (kind, name) in kinds {
            assert_eq!(kind.kind_name(), name);
        }
    }

    #[test]
    fn json_lines_match_their_literal_bytes() {
        // One line per kind pins the export format byte for byte.
        let expected = [
            (
                EventKind::RampSetChanged {
                    activated: vec![2, 5],
                    deactivated: vec![],
                    active_count: 4,
                },
                r#"{"at_us":1234,"replica":3,"kind":"ramp-set-changed","activated":[2,5],"deactivated":[],"active_count":4}"#,
            ),
            (
                EventKind::UpdateIssued {
                    epoch: 7,
                    ramps_changed: false,
                },
                r#"{"at_us":1234,"replica":3,"kind":"update-issued","epoch":7,"ramps_changed":false}"#,
            ),
            (
                EventKind::UpdateDelivered {
                    epoch: 7,
                    ramps_changed: true,
                },
                r#"{"at_us":1234,"replica":3,"kind":"update-delivered","epoch":7,"ramps_changed":true}"#,
            ),
            (
                EventKind::StaleRecordDropped {
                    record_epoch: 2,
                    min_epoch: 3,
                },
                r#"{"at_us":1234,"replica":3,"kind":"stale-record-dropped","record_epoch":2,"min_epoch":3}"#,
            ),
            (
                EventKind::Dispatch {
                    request_id: 99,
                    replica: 1,
                },
                r#"{"at_us":1234,"replica":3,"kind":"dispatch","request_id":99,"to_replica":1}"#,
            ),
            (
                EventKind::BatchFormed {
                    size: 8,
                    queue_depth: 0,
                    gpu_us: 900,
                },
                r#"{"at_us":1234,"replica":3,"kind":"batch-formed","size":8,"queue_depth":0,"gpu_us":900}"#,
            ),
            (
                EventKind::SloViolation {
                    request_id: 99,
                    latency_us: 12_000,
                    slo_us: 10_000,
                },
                r#"{"at_us":1234,"replica":3,"kind":"slo-violation","request_id":99,"latency_us":12000,"slo_us":10000}"#,
            ),
            (
                EventKind::LinkMessage {
                    direction: LinkDirection::Up,
                    bytes: 1024,
                    latency_us: 425,
                },
                r#"{"at_us":1234,"replica":3,"kind":"link-message","direction":"up","bytes":1024,"latency_us":425}"#,
            ),
            (
                EventKind::TuningRound {
                    epoch: 2,
                    thresholds_changed: true,
                },
                r#"{"at_us":1234,"replica":3,"kind":"tuning-round","epoch":2,"thresholds_changed":true}"#,
            ),
            (
                EventKind::Admission {
                    request_id: 99,
                    replica: 1,
                    queue_depth: 3,
                    admitted: false,
                    pace_ppm: 995_000,
                },
                r#"{"at_us":1234,"replica":3,"kind":"admission","request_id":99,"to_replica":1,"queue_depth":3,"admitted":false,"pace_ppm":995000}"#,
            ),
        ];
        for (kind, line) in expected {
            let event = TraceEvent {
                at: SimTime::from_micros(1234),
                replica: 3,
                kind,
            };
            assert_eq!(event.to_json_line(), line);
            // Appending writes the same bytes after what the buffer holds.
            let mut out = String::from("x");
            event.write_json_line(&mut out);
            assert_eq!(out, format!("x{line}"));
        }
    }

    #[test]
    fn json_line_carries_common_and_payload_fields() {
        let event = TraceEvent {
            at: SimTime::from_micros(1234),
            replica: 3,
            kind: EventKind::RampSetChanged {
                activated: vec![2, 5],
                deactivated: vec![1],
                active_count: 4,
            },
        };
        let line = event.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"at_us\":1234"));
        assert!(line.contains("\"replica\":3"));
        assert!(line.contains("\"kind\":\"ramp-set-changed\""));
        assert!(line.contains("\"activated\":[2,5]"));
        assert!(line.contains("\"deactivated\":[1]"));
        assert!(line.contains("\"active_count\":4"));
    }

    #[test]
    fn link_message_names_its_direction() {
        let event = TraceEvent {
            at: SimTime::ZERO,
            replica: 0,
            kind: EventKind::LinkMessage {
                direction: LinkDirection::Down,
                bytes: 10_240,
                latency_us: 650,
            },
        };
        let line = event.to_json_line();
        assert!(line.contains("\"direction\":\"down\""));
        assert!(line.contains("\"bytes\":10240"));
        assert!(line.contains("\"latency_us\":650"));
    }
}
