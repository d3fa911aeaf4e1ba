//! The anomaly fold over seeded schedule exploration. There is one
//! implementation of the rules ([`co_trace::StreamingDetectors`]); what is
//! still two-sided, and checked here on every adversarial run, is
//!
//! * **order-insensitivity** — [`co_trace::analyze`] over the per-node
//!   streams concatenated (the shape recorder dumps arrive in) reports
//!   exactly the findings of the canonical time-sorted merge: same kinds,
//!   same evidence, same order;
//! * **scope consistency** — a [`co_trace::LiveDetector`] fed one node's
//!   stream agrees with the merged report on the rule both can judge for
//!   that node, and never judges the rule only the merged trace can;
//! * **boundedness** — once a run has quiesced, on every delivery core,
//!   no node's live detector or latency tracker holds a PDU record;
//! * **report order** — whatever a live detector finds stuck while the
//!   run is under way comes out in `(src, seq)` order, although its table
//!   is unordered.

use co_check::{run_scenario_observed, FaultEvent, Scenario, CORE_NAMES};
use co_observe::{LatencyTracker, Observer, ProtocolEvent, TraceLine};
use co_trace::{analyze, AnomalyConfig, Finding, LiveDetector, StreamingDetectors};

/// Every node's event stream, node after node: an order no merged trace
/// has, and the one concatenated recorder dumps come in.
fn concatenated_lines(traces: &[Vec<ProtocolEvent>]) -> Vec<TraceLine> {
    traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.iter().map(move |&event| TraceLine::Event {
                node: i as u32,
                event,
            })
        })
        .collect()
}

/// The canonical merged trace: every node's event stream interleaved by
/// timestamp, ties kept in node order — the same ordering `co-check
/// --trace-out` writes and `co-cli trace analyze` consumes.
fn merged_lines(traces: &[Vec<ProtocolEvent>]) -> Vec<TraceLine> {
    let mut lines = concatenated_lines(traces);
    lines.sort_by_key(TraceLine::t_us);
    lines
}

/// Thresholds tight enough that real schedules actually trip every rule —
/// agreement on all-empty findings would prove nothing.
fn tight() -> AnomalyConfig {
    AnomalyConfig {
        stuck_preack_us: 2_000,
        ret_storm_requests: 2,
        ret_storm_window_us: 30_000,
        loss_cluster_min: 1,
        flow_blocked_min: 1,
        ..AnomalyConfig::default()
    }
}

/// The 200-schedule corpus: a quarter of it gets the explorer's forced
/// blackout, so the loss-burst and RET-storm rules see real recovery
/// traffic, not just quiet runs.
fn corpus() -> impl Iterator<Item = (u64, Scenario)> {
    (0..200u64).map(|index| {
        let mut sc = Scenario::random(index, 3, false);
        if index % 4 == 0 {
            sc.faults.push(FaultEvent::LossBurst {
                from_us: 500,
                to_us: 12_000,
            });
        }
        (index, sc)
    })
}

fn live_over(node: u32, stream: &[ProtocolEvent], cfg: AnomalyConfig) -> LiveDetector {
    let mut live = LiveDetector::new(node, cfg);
    for &event in stream {
        live.on_event(event);
    }
    live
}

/// The `(src, seq)` of the stuck PDUs among `findings`, as reported.
fn stuck_pdus(findings: &[Finding]) -> Vec<(u32, u64)> {
    findings
        .iter()
        .filter_map(|f| match f {
            Finding::StuckAtPreAck { src, seq, .. } => Some((*src, *seq)),
            _ => None,
        })
        .collect()
}

#[test]
fn line_order_does_not_change_a_finding_on_200_seeded_schedules() {
    let mut total_findings = 0usize;
    for (index, sc) in corpus() {
        let (_, traces) = run_scenario_observed(&sc, true, 0);
        let merged = merged_lines(&traces);
        let concatenated = concatenated_lines(&traces);
        for cfg in [AnomalyConfig::default(), tight()] {
            let findings = analyze(&merged, &cfg).findings;
            assert_eq!(
                analyze(&concatenated, &cfg).findings,
                findings,
                "schedule {index}: the order of the input lines changed the verdict"
            );
            total_findings += findings.len();
        }
    }
    assert!(
        total_findings > 0,
        "the corpus must provoke real findings — agreement on empty sets proves nothing"
    );
}

#[test]
fn node_scope_agrees_with_the_merged_report_and_is_empty_at_quiescence() {
    let mut saturated_nodes = 0usize;
    for (index, sc) in corpus() {
        let (report, traces) = run_scenario_observed(&sc, true, 0);
        assert!(
            report.violations.is_empty(),
            "schedule {index} must quiesce cleanly: {:?}",
            report.violations
        );
        let merged = analyze(&merged_lines(&traces), &tight()).findings;
        for (node, stream) in traces.iter().enumerate() {
            let node = node as u32;
            let live = live_over(node, stream, tight());
            let saturation = |findings: &[Finding]| -> Vec<Finding> {
                findings
                    .iter()
                    .filter(
                        |f| matches!(f, Finding::FlowSaturation { node: at, .. } if *at == node),
                    )
                    .cloned()
                    .collect()
            };
            let findings = live.findings();
            assert_eq!(
                saturation(&findings),
                saturation(&merged),
                "schedule {index}, node {node}: flow saturation is judged per node"
            );
            saturated_nodes += saturation(&findings).len();
            assert!(
                findings.iter().all(|f| f.kind() != "never_acknowledged"),
                "schedule {index}, node {node}: one node's stream cannot judge other nodes' deliveries"
            );
            assert_eq!(
                live.held(),
                0,
                "schedule {index}, node {node}: every PDU was delivered here, none may stay resident"
            );
        }
    }
    assert!(
        saturated_nodes > 0,
        "the corpus must block some submits — agreement on empty sets proves nothing"
    );
}

#[test]
fn live_tables_drain_on_every_core_and_report_in_pdu_order() {
    // Any PDU pre-acked a microsecond ago counts as stuck, so snapshots
    // taken while a run is under way have something to order.
    let eager = AnomalyConfig {
        stuck_preack_us: 0,
        ..tight()
    };
    let mut most_stuck_at_once = 0usize;
    for (index, mut sc) in corpus() {
        for core in CORE_NAMES {
            sc.core = core.to_string();
            let (report, traces) = run_scenario_observed(&sc, true, 0);
            assert!(
                report.violations.is_empty(),
                "schedule {index} on {core} must quiesce cleanly: {:?}",
                report.violations
            );
            for (node, stream) in traces.iter().enumerate() {
                let mut live = LiveDetector::new(node as u32, eager);
                let mut latency = LatencyTracker::default();
                for (at, &event) in stream.iter().enumerate() {
                    live.on_event(event);
                    latency.on_event(event);
                    if at % 16 == 0 {
                        let stuck = stuck_pdus(&live.findings());
                        assert!(
                            stuck.is_sorted(),
                            "schedule {index} on {core}, node {node}: {stuck:?}"
                        );
                        most_stuck_at_once = most_stuck_at_once.max(stuck.len());
                    }
                }
                assert_eq!(
                    (live.held(), latency.in_flight()),
                    (0, 0),
                    "schedule {index} on {core}, node {node}: delivered everywhere, held nowhere"
                );
            }
        }
    }
    assert!(
        most_stuck_at_once >= 4,
        "snapshots of {most_stuck_at_once} stuck PDUs at most cannot show an order"
    );
}

#[test]
fn streaming_kind_counts_match_findings_on_live_schedules() {
    // The Prometheus surface (`co_anomaly_findings`) is fed by
    // `kind_counts`; it must agree with the findings snapshot it
    // summarizes, including explicit zeros for kinds that never fired.
    for index in 0..20u64 {
        let sc = Scenario::random(index, 5, false);
        let (_, traces) = run_scenario_observed(&sc, true, 0);
        let lines = merged_lines(&traces);
        let mut streaming = StreamingDetectors::new(tight());
        for line in &lines {
            streaming.observe_line(line);
        }
        let live = live_over(0, &traces[0], tight());
        for (findings, counts) in [
            (streaming.findings(), streaming.kind_counts()),
            (live.findings(), live.kind_counts()),
        ] {
            assert_eq!(counts.len(), 5, "every kind is always present");
            for (kind, count) in counts {
                let actual = findings.iter().filter(|f| f.kind() == kind).count() as u64;
                assert_eq!(count, actual, "schedule {index}: kind {kind}");
            }
        }
    }
}
