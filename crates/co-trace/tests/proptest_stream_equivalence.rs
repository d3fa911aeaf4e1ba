//! Property tests of the anomaly fold on arbitrary lossy, reordering,
//! duplicating schedules.
//!
//! The generator draws arbitrary mixes of span stages (including missing
//! stages — loss — and repeated stages — duplication), RET requests,
//! F1/F2 detections, flow-blocked gauges, and host Tco annotations, over
//! colliding `(src, seq)` pairs. For every such trace and every
//! configuration drawn:
//!
//! * [`analyze`] over the per-node dumps, concatenated, reports exactly
//!   what it reports over the time-sorted merge — same findings, same
//!   evidence, same order (the input contract: any line order);
//! * a [`LiveDetector`] fed one node's lines agrees with the merged
//!   report on that node's flow saturation, never reports
//!   `never_acknowledged`, and counts what it reports.

use causal_order::{EntityId, Seq};
use co_observe::{Observer, ProtocolEvent, TraceLine};
use co_trace::{analyze, AnomalyConfig, Finding, LiveDetector};
use proptest::prelude::*;

const N: u32 = 4;

fn line() -> impl Strategy<Value = TraceLine> {
    let t = 0u64..200_000;
    let node = 0u32..N;
    let src = 0u32..N;
    let seq = 1u64..5;
    prop_oneof![
        (node.clone(), src.clone(), seq.clone(), t.clone()).prop_map(|(node, src, seq, now_us)| {
            TraceLine::Event {
                node,
                event: ProtocolEvent::DataSent {
                    src: EntityId::new(src),
                    seq: Seq::new(seq),
                    now_us,
                },
            }
        }),
        (
            node.clone(),
            src.clone(),
            seq.clone(),
            proptest::bool::ANY,
            t.clone()
        )
            .prop_map(|(node, src, seq, from_reorder, now_us)| {
                TraceLine::Event {
                    node,
                    event: ProtocolEvent::Accepted {
                        src: EntityId::new(src),
                        seq: Seq::new(seq),
                        from_reorder,
                        now_us,
                    },
                }
            }),
        (node.clone(), src.clone(), seq.clone(), t.clone()).prop_map(|(node, src, seq, now_us)| {
            TraceLine::Event {
                node,
                event: ProtocolEvent::PreAcked {
                    src: EntityId::new(src),
                    seq: Seq::new(seq),
                    now_us,
                },
            }
        }),
        (node.clone(), src.clone(), seq.clone(), t.clone()).prop_map(|(node, src, seq, now_us)| {
            TraceLine::Event {
                node,
                event: ProtocolEvent::Delivered {
                    src: EntityId::new(src),
                    seq: Seq::new(seq),
                    now_us,
                },
            }
        }),
        (node.clone(), src.clone(), 1u64..8, t.clone()).prop_map(|(node, src, lseq, now_us)| {
            TraceLine::Event {
                node,
                event: ProtocolEvent::RetSent {
                    src: EntityId::new(src),
                    lseq: Seq::new(lseq),
                    now_us,
                },
            }
        }),
        (node.clone(), src.clone(), 1u64..8, 1u64..8, t.clone()).prop_map(
            |(node, src, expected, got, now_us)| {
                TraceLine::Event {
                    node,
                    event: ProtocolEvent::F1Detected {
                        src: EntityId::new(src),
                        expected: Seq::new(expected),
                        got: Seq::new(got),
                        now_us,
                    },
                }
            }
        ),
        (node.clone(), src.clone(), 1u64..8, 0u32..N, t.clone()).prop_map(
            |(node, src, confirmed, via, now_us)| {
                TraceLine::Event {
                    node,
                    event: ProtocolEvent::F2Detected {
                        src: EntityId::new(src),
                        confirmed: Seq::new(confirmed),
                        via: EntityId::new(via),
                        now_us,
                    },
                }
            }
        ),
        (node.clone(), 0u64..64, 1u64..64, t.clone()).prop_map(
            |(node, outstanding, limit, now_us)| {
                TraceLine::Event {
                    node,
                    event: ProtocolEvent::FlowBlocked {
                        outstanding,
                        limit,
                        now_us,
                    },
                }
            }
        ),
        (node.clone(), t.clone()).prop_map(|(node, now_us)| {
            TraceLine::Event {
                node,
                event: ProtocolEvent::AckOnlySent { now_us },
            }
        }),
        (node, t.clone(), 0u64..5_000).prop_map(|(node, at_us, dur_us)| TraceLine::HostTco {
            node,
            at_us,
            dur_us,
        }),
    ]
}

fn config() -> impl Strategy<Value = AnomalyConfig> {
    (
        1u64..50_000,
        1usize..6,
        1u64..50_000,
        1u64..20_000,
        1usize..5,
        1u64..8,
    )
        .prop_map(
            |(stuck, storm_req, storm_win, gap, cluster_min, flow_min)| AnomalyConfig {
                stuck_preack_us: stuck,
                ret_storm_requests: storm_req,
                ret_storm_window_us: storm_win,
                loss_cluster_gap_us: gap,
                loss_cluster_min: cluster_min,
                flow_blocked_min: flow_min,
            },
        )
}

fn node_of(line: &TraceLine) -> u32 {
    match *line {
        TraceLine::Event { node, .. } | TraceLine::HostTco { node, .. } => node,
    }
}

proptest! {
    #[test]
    fn line_order_does_not_change_a_finding_on_arbitrary_traces(
        mut lines in proptest::collection::vec(line(), 0..120),
        cfg in config(),
    ) {
        // Stable sort by timestamp: the canonical merged-trace order.
        // Everything else about the stream stays adversarial — missing
        // stages, duplicates, colliding (src, seq), interleaved nodes.
        lines.sort_by_key(TraceLine::t_us);
        // The same lines as per-node dumps, last node first: lines of
        // equal timestamp from different nodes change places.
        let dumps: Vec<TraceLine> = (0..N)
            .rev()
            .flat_map(|node| lines.iter().copied().filter(move |l| node_of(l) == node))
            .collect();
        prop_assert_eq!(analyze(&dumps, &cfg).findings, analyze(&lines, &cfg).findings);
    }

    #[test]
    fn node_scope_agrees_with_the_merged_report_on_arbitrary_traces(
        mut lines in proptest::collection::vec(line(), 0..120),
        cfg in config(),
    ) {
        lines.sort_by_key(TraceLine::t_us);
        let merged = analyze(&lines, &cfg).findings;
        for node in 0..N {
            let mut live = LiveDetector::new(node, cfg);
            for line in &lines {
                if let TraceLine::Event { node: at, event } = *line {
                    if at == node {
                        live.on_event(event);
                    }
                }
            }
            let saturation = |findings: &[Finding]| -> Vec<Finding> {
                findings
                    .iter()
                    .filter(|f| matches!(f, Finding::FlowSaturation { node: at, .. } if *at == node))
                    .cloned()
                    .collect()
            };
            let findings = live.findings();
            prop_assert_eq!(saturation(&findings), saturation(&merged), "node {}", node);
            for (kind, count) in live.kind_counts() {
                let reported = findings.iter().filter(|f| f.kind() == kind).count() as u64;
                prop_assert_eq!(count, reported, "node {}: kind {}", node, kind);
                prop_assert!(kind != "never_acknowledged" || count == 0, "node {}", node);
            }
        }
    }
}
