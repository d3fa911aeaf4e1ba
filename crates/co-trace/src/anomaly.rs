//! The anomaly rules' thresholds and findings (the rules themselves are
//! the fold in [`crate::StreamingDetectors`]).

use crate::span::BroadcastSpan;

/// Thresholds of the anomaly rules. The defaults are tuned so a clean,
/// quiesced schedule produces zero findings; `co-cli trace analyze`
/// exposes each as a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyConfig {
    /// A PDU pre-acked but not delivered for longer than this (measured
    /// against the trace's last timestamp) is stuck. The same staleness
    /// gate is applied to never-acknowledged PDUs, so a broadcast still
    /// legitimately in flight at the end of the trace is not flagged.
    pub stuck_preack_us: u64,
    /// At least this many `RET` requests for one source within
    /// [`AnomalyConfig::ret_storm_window_us`] is a retransmission storm.
    pub ret_storm_requests: usize,
    /// Sliding window for the RET-storm rule, µs.
    pub ret_storm_window_us: u64,
    /// F1/F2 detections closer together than this gap belong to the same
    /// loss burst.
    pub loss_cluster_gap_us: u64,
    /// Minimum detections for a cluster to be reported as a loss burst.
    pub loss_cluster_min: usize,
    /// Minimum `flow_blocked` gauge events at one node to report flow
    /// saturation.
    pub flow_blocked_min: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            stuck_preack_us: 100_000,
            ret_storm_requests: 6,
            ret_storm_window_us: 20_000,
            loss_cluster_gap_us: 10_000,
            loss_cluster_min: 3,
            flow_blocked_min: 32,
        }
    }
}

impl AnomalyConfig {
    /// How long something that happened at `since_us` has waited by
    /// `end_us`, if that is past the staleness gate of the span rules.
    pub(crate) fn stale(&self, end_us: u64, since_us: u64) -> Option<u64> {
        let waited_us = end_us.saturating_sub(since_us);
        (waited_us > self.stuck_preack_us).then_some(waited_us)
    }
}

/// One detected protocol anomaly, with the evidence that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A PDU reached the `PRL` at `node` but never the `ARL`: the
    /// stability frontier stalled underneath it.
    StuckAtPreAck {
        /// The node where the PDU is stuck.
        node: u32,
        /// The PDU's source.
        src: u32,
        /// The PDU's sequence number.
        seq: u64,
        /// Time from pre-ack to the end of the trace, µs.
        waited_us: u64,
        /// The span, as evidence: every node's stages on a merged trace,
        /// the local ones from a node's live detector.
        span: BroadcastSpan,
    },
    /// A broadcast old enough to have quiesced was never delivered by
    /// every destination.
    NeverAcknowledged {
        /// The PDU's source.
        src: u32,
        /// The PDU's sequence number.
        seq: u64,
        /// Destinations that never delivered it.
        missing: Vec<u32>,
        /// The full span, as evidence.
        span: BroadcastSpan,
    },
    /// A burst of `RET` requests for one source — its PDUs are being
    /// lost (or its retransmissions are) faster than repair converges.
    RetStorm {
        /// The source whose PDUs keep being re-requested.
        src: u32,
        /// Requests inside the densest window.
        requests: usize,
        /// The configured window width, µs.
        window_us: u64,
        /// Start of the densest window, µs.
        from_us: u64,
        /// End of the densest window, µs.
        to_us: u64,
        /// The nodes that issued the requests, ascending.
        requesters: Vec<u32>,
    },
    /// A cluster of F1/F2 loss detections tight enough in time to be one
    /// loss event (e.g. an outage window, not independent drops).
    LossBurst {
        /// Total detections in the cluster.
        detections: usize,
        /// How many were F1 (sequence gap on receipt).
        f1: usize,
        /// How many were F2 (exposed by a peer's ACK vector).
        f2: usize,
        /// First detection, µs.
        from_us: u64,
        /// Last detection, µs.
        to_us: u64,
        /// Sources whose PDUs were detected missing, ascending.
        sources: Vec<u32>,
    },
    /// The §4.2 flow condition repeatedly blocked submits at one node.
    FlowSaturation {
        /// The blocked node.
        node: u32,
        /// Number of blocked submits.
        blocked: usize,
        /// Largest outstanding-PDU count observed while blocked.
        max_outstanding: u64,
        /// Smallest effective window limit observed while blocked.
        min_limit: u64,
        /// Whether the limit ever hit zero (buffer starvation, not mere
        /// window exhaustion).
        starved: bool,
        /// First blocked submit, µs.
        from_us: u64,
        /// Last blocked submit, µs.
        to_us: u64,
    },
}

impl Finding {
    /// Every rule kind name, in the order findings are reported — the
    /// stable enumeration exporters (Prometheus findings gauge, watch
    /// mode) iterate so zero-count kinds are still visible.
    pub const KINDS: [&'static str; 5] = [
        "ret_storm",
        "loss_burst",
        "flow_saturation",
        "stuck_at_pre_ack",
        "never_acknowledged",
    ];

    /// Short stable name of the rule that fired (used in text and JSON
    /// renderings).
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::StuckAtPreAck { .. } => "stuck_at_pre_ack",
            Finding::NeverAcknowledged { .. } => "never_acknowledged",
            Finding::RetStorm { .. } => "ret_storm",
            Finding::LossBurst { .. } => "loss_burst",
            Finding::FlowSaturation { .. } => "flow_saturation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::testkit::{accepted, complete_broadcast, ev, id, pre_acked, sent, tick};
    use causal_order::Seq;
    use co_observe::ProtocolEvent;

    #[test]
    fn clean_complete_trace_has_no_findings() {
        let lines = complete_broadcast(2, 0, 1, 10);
        assert!(analyze(&lines, &AnomalyConfig::default())
            .findings
            .is_empty());
    }

    #[test]
    fn ret_storm_uses_the_densest_window() {
        let cfg = AnomalyConfig {
            ret_storm_requests: 3,
            ret_storm_window_us: 100,
            ..AnomalyConfig::default()
        };
        let ret = |node: u32, src: u32, now_us: u64| {
            ev(
                node,
                ProtocolEvent::RetSent {
                    src: id(src),
                    lseq: Seq::new(9),
                    now_us,
                },
            )
        };
        // Source 0: requests at 0, 50, 90, 500 — densest window holds 3.
        // Source 1: only 2 requests — below threshold.
        let lines = vec![
            ret(1, 0, 0),
            ret(2, 0, 50),
            ret(1, 0, 90),
            ret(2, 0, 500),
            ret(1, 1, 0),
            ret(1, 1, 10),
        ];
        let findings = analyze(&lines, &cfg).findings;
        assert_eq!(findings.len(), 1);
        match &findings[0] {
            Finding::RetStorm {
                src,
                requests,
                from_us,
                to_us,
                requesters,
                ..
            } => {
                assert_eq!(*src, 0);
                assert_eq!(*requests, 3);
                assert_eq!((*from_us, *to_us), (0, 90));
                assert_eq!(requesters, &[1, 2]);
            }
            other => panic!("expected RetStorm, got {other:?}"),
        }
    }

    #[test]
    fn loss_detections_cluster_by_gap() {
        let cfg = AnomalyConfig {
            loss_cluster_gap_us: 100,
            loss_cluster_min: 2,
            ..AnomalyConfig::default()
        };
        let f1 = |now_us: u64, src: u32| {
            ev(
                0,
                ProtocolEvent::F1Detected {
                    src: id(src),
                    expected: Seq::new(1),
                    got: Seq::new(3),
                    now_us,
                },
            )
        };
        let f2 = |now_us: u64, src: u32| {
            ev(
                1,
                ProtocolEvent::F2Detected {
                    src: id(src),
                    confirmed: Seq::new(2),
                    via: id(0),
                    now_us,
                },
            )
        };
        // Cluster A: 3 detections at 0/40/120. A lone one at 5000.
        // Cluster B: 2 detections at 9000/9050.
        let lines = vec![
            f1(0, 2),
            f2(40, 2),
            f1(120, 1),
            f1(5000, 1),
            f2(9000, 0),
            f1(9050, 0),
        ];
        let findings = analyze(&lines, &cfg).findings;
        let bursts: Vec<_> = findings
            .iter()
            .filter(|f| matches!(f, Finding::LossBurst { .. }))
            .collect();
        assert_eq!(bursts.len(), 2);
        match bursts[0] {
            Finding::LossBurst {
                detections,
                f1,
                f2,
                from_us,
                to_us,
                sources,
            } => {
                assert_eq!((*detections, *f1, *f2), (3, 2, 1));
                assert_eq!((*from_us, *to_us), (0, 120));
                assert_eq!(sources, &[1, 2]);
            }
            other => panic!("expected LossBurst, got {other:?}"),
        }
    }

    #[test]
    fn flow_saturation_aggregates_gauges() {
        let cfg = AnomalyConfig {
            flow_blocked_min: 2,
            ..AnomalyConfig::default()
        };
        let blocked = |node: u32, outstanding: u64, limit: u64, now_us: u64| {
            ev(
                node,
                ProtocolEvent::FlowBlocked {
                    outstanding,
                    limit,
                    now_us,
                },
            )
        };
        let lines = vec![
            blocked(0, 8, 8, 100),
            blocked(0, 12, 0, 200),
            blocked(1, 4, 4, 150),
        ];
        let findings = analyze(&lines, &cfg).findings;
        assert_eq!(findings.len(), 1);
        match &findings[0] {
            Finding::FlowSaturation {
                node,
                blocked,
                max_outstanding,
                min_limit,
                starved,
                from_us,
                to_us,
            } => {
                assert_eq!(*node, 0);
                assert_eq!(*blocked, 2);
                assert_eq!(*max_outstanding, 12);
                assert_eq!(*min_limit, 0);
                assert!(*starved);
                assert_eq!((*from_us, *to_us), (100, 200));
            }
            other => panic!("expected FlowSaturation, got {other:?}"),
        }
    }

    #[test]
    fn stuck_and_never_acked_respect_the_staleness_gate() {
        let mut lines = vec![
            sent(0, 1, 10),
            accepted(1, 0, 1, 20),
            pre_acked(1, 0, 1, 30),
        ];
        // Trace ends shortly after: still in flight, no findings.
        lines.push(tick(0, 50));
        let cfg = AnomalyConfig {
            stuck_preack_us: 1_000,
            ..AnomalyConfig::default()
        };
        assert!(analyze(&lines, &cfg).findings.is_empty());

        // Trace ends much later: both rules fire.
        lines.push(tick(0, 10_000));
        let findings = analyze(&lines, &cfg).findings;
        let kinds: Vec<_> = findings.iter().map(Finding::kind).collect();
        assert!(kinds.contains(&"stuck_at_pre_ack"), "{kinds:?}");
        assert!(kinds.contains(&"never_acknowledged"), "{kinds:?}");
        match findings.iter().find(|f| f.kind() == "never_acknowledged") {
            Some(Finding::NeverAcknowledged { missing, .. }) => {
                assert_eq!(missing, &[0, 1]);
            }
            other => panic!("expected NeverAcknowledged, got {other:?}"),
        }
    }
}
