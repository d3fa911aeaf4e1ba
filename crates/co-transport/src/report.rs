//! Per-node measurement reports.
//!
//! The simulated counterparts mirror this shape: `co-experiments`'
//! `NodeOutcome` for the §5 experiments and `co-check`'s `RunReport` for
//! the adversarial checker, so a run is summarized the same way whether
//! it executed on threads or inside `mc-net`.

use bytes::Bytes;
use causal_order::EntityId;
use co_observe::{LatencyTracker, RecorderDump, TraceLine};
use co_protocol::Metrics;
use std::time::Duration;

/// Everything one node measured during a run.
#[derive(Debug)]
pub struct NodeReport {
    /// The reporting entity.
    pub id: EntityId,
    /// Messages delivered to the application, in delivery order:
    /// `(origin, origin_seq, payload)`.
    pub delivered: Vec<(EntityId, u64, Bytes)>,
    /// Per-PDU protocol processing times (the paper's **Tco**), one sample
    /// per received PDU.
    pub tco_samples: Vec<Duration>,
    /// Application-to-application delays (the paper's **Tap**), one sample
    /// per delivered *remote* message.
    pub tap_samples: Vec<Duration>,
    /// PDUs dropped at this node's full inbox (buffer overrun).
    pub overrun_drops: u64,
    /// Frames the wire decoder dropped as corrupt, like a bad checksum.
    pub corrupt_frames: u64,
    /// Well-formed PDUs the entity's validation refused (wrong cluster,
    /// looped back, malformed vectors).
    pub rejected_pdus: u64,
    /// The protocol engine's own counters.
    pub metrics: Metrics,
    /// Per-stage latency histograms folded live from the entity's event
    /// stream (submit→accept, accept→pre-ack, accept→deliver, RET
    /// round-trip).
    pub latency: LatencyTracker,
    /// The structured event trace, time-sorted, including host-measured
    /// Tco records. Empty unless tracing was enabled in the options.
    pub trace: Vec<TraceLine>,
    /// Cross-node span analysis of the whole run, computed once from the
    /// merged trace at shutdown and shared by every node's report (the
    /// spans are cluster-wide objects, so each node carries the same
    /// view). `None` unless tracing was enabled.
    pub span_report: Option<co_trace::SpanReport>,
    /// The node's always-on black box: the last `recorder_depth` protocol
    /// events, captured at shutdown — or at panic, so a crashed node's
    /// final transitions survive even when no trace was recorded.
    pub flight_recorder: RecorderDump,
    /// Findings of the node's [`co_trace::LiveDetector`], whose scope is
    /// the node's *own* event stream: the four rules defined there (RET
    /// storm, loss burst, flow saturation, stuck-at-pre-ack with the
    /// local stages as evidence). The cluster-wide rule,
    /// never-acknowledged, needs the merged trace and is judged — with
    /// the other four over all nodes — in [`NodeReport::span_report`].
    pub live_findings: Vec<co_trace::Finding>,
    /// Set when the node thread panicked mid-run: the payload message.
    /// The report then carries everything measured up to the panic,
    /// including the flight recorder — partial data, flagged as such.
    pub panicked: Option<String>,
}

impl NodeReport {
    /// Summary statistics over the Tco samples.
    pub fn tco(&self) -> TimingSummary {
        TimingSummary::of(&self.tco_samples)
    }

    /// Summary statistics over the Tap samples.
    pub fn tap(&self) -> TimingSummary {
        TimingSummary::of(&self.tap_samples)
    }
}

/// Merges the per-node traces of a run into one time-sorted stream — the
/// cluster-wide trace the JSONL exporter writes and the offline Tco/Tap
/// analysis (`co_observe::jsonl`) consumes. Nodes share the cluster
/// epoch, so timestamps are directly comparable.
pub fn merged_trace(reports: &[NodeReport]) -> Vec<TraceLine> {
    let mut lines: Vec<TraceLine> = reports
        .iter()
        .flat_map(|r| r.trace.iter().copied())
        .collect();
    lines.sort_by_key(TraceLine::t_us);
    lines
}

/// Mean / median / p95 / max over a set of duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// 50th percentile.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Maximum.
    pub max: Duration,
}

impl TimingSummary {
    /// Computes the summary; all-zero for an empty sample set.
    pub fn of(samples: &[Duration]) -> TimingSummary {
        if samples.is_empty() {
            return TimingSummary {
                count: 0,
                mean: Duration::ZERO,
                p50: Duration::ZERO,
                p95: Duration::ZERO,
                max: Duration::ZERO,
            };
        }
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        // Nearest-rank percentile: the smallest sample with at least p of
        // the distribution at or below it.
        let pct = |p: f64| {
            let rank = (sorted.len() as f64 * p).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        TimingSummary {
            count: sorted.len(),
            mean: total / sorted.len() as u32,
            p50: pct(0.50),
            p95: pct(0.95),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for TimingSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:?} p50={:?} p95={:?} max={:?}",
            self.count, self.mean, self.p50, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = TimingSummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }

    #[test]
    fn summary_statistics() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = TimingSummary::of(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.max, Duration::from_micros(100));
        assert_eq!(s.p50, Duration::from_micros(50));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!(s.mean, Duration::from_nanos(50_500));
    }

    #[test]
    fn display_contains_fields() {
        let s = TimingSummary::of(&[Duration::from_micros(5)]);
        let text = s.to_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("mean"));
    }
}
