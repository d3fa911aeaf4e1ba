//! The span-consistency oracle over seeded schedule exploration: on every
//! quiesced adversarial run, each delivered PDU must have a complete,
//! stage-ordered cross-node span — verified by stitching the per-node
//! protocol event streams through `co-trace`.

use causal_order::{EntityId, Seq};
use co_check::{check_spans, run_scenario_traced, Scenario};
use co_observe::{ProtocolEvent, TraceLine};

#[test]
fn span_oracle_holds_on_200_seeded_schedules() {
    let mut stitched_spans = 0usize;
    for index in 0..200 {
        let sc = Scenario::random(index, 1, false);
        let (report, traces) = run_scenario_traced(&sc);
        assert!(
            report.violations.is_empty(),
            "schedule {index}: {:?}",
            report.violations
        );
        // Cross-check directly (the runner already folded check_spans
        // into the report): every delivered PDU's span is complete.
        let lines: Vec<TraceLine> = traces
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.iter().map(move |&event| TraceLine::Event {
                    node: i as u32,
                    event,
                })
            })
            .collect();
        let set = co_trace::stitch(&lines);
        for span in set.spans.values() {
            if span.delivered_anywhere() {
                assert!(
                    span.complete(traces.len()),
                    "schedule {index}: E{}#{} delivered but incomplete",
                    span.src + 1,
                    span.seq
                );
            }
        }
        stitched_spans += set.spans.len();
    }
    assert!(stitched_spans > 200, "exploration must exercise real spans");
}

fn chain(node: u32, src: u32, seq: u64, base_us: u64) -> Vec<ProtocolEvent> {
    let (src_id, seq_id) = (EntityId::new(src), Seq::new(seq));
    let mut events = Vec::new();
    if node == src {
        events.push(ProtocolEvent::DataSent {
            src: src_id,
            seq: seq_id,
            now_us: base_us,
        });
    } else {
        events.push(ProtocolEvent::Accepted {
            src: src_id,
            seq: seq_id,
            from_reorder: false,
            now_us: base_us + 10,
        });
    }
    events.push(ProtocolEvent::PreAcked {
        src: src_id,
        seq: seq_id,
        now_us: base_us + 20,
    });
    events.push(ProtocolEvent::Delivered {
        src: src_id,
        seq: seq_id,
        now_us: base_us + 30,
    });
    events
}

#[test]
fn span_oracle_flags_a_node_that_never_heard_of_a_delivered_pdu() {
    // Node 0 originates and fully delivers E1#1; node 1 records nothing.
    // The per-node stage-order oracle passes node 1 trivially — the span
    // oracle is exactly the cross-reference that catches it.
    let traces = vec![chain(0, 0, 1, 100), vec![]];
    for (i, t) in traces.iter().enumerate() {
        assert!(
            co_check::check_stage_order(i as u32, t).is_empty(),
            "per-node oracle must be blind to the cross-node hole"
        );
    }
    let violations = check_spans(&traces);
    assert!(
        violations
            .iter()
            .any(|v| v.detail.contains("never closed") && v.detail.contains("E2")),
        "{violations:?}"
    );
}

#[test]
fn span_oracle_flags_disordered_stage_times() {
    // Node 1's pre-ack is timestamped before its accept: each transition
    // is individually legal (the per-node oracle counts transitions, not
    // clocks), but the span's stage times are not monotone.
    let mut remote = chain(1, 0, 1, 100);
    if let ProtocolEvent::PreAcked { now_us, .. } = &mut remote[1] {
        *now_us = 50;
    }
    let traces = vec![chain(0, 0, 1, 100), remote];
    let violations = check_spans(&traces);
    assert!(
        violations.iter().any(|v| v.detail.contains("timed before")),
        "{violations:?}"
    );
}

#[test]
fn span_oracle_flags_duplicate_stage_records() {
    let mut own = chain(0, 0, 1, 100);
    own.push(ProtocolEvent::Delivered {
        src: EntityId::new(0),
        seq: Seq::new(1),
        now_us: 140,
    });
    let violations = check_spans(&[own]);
    assert!(
        violations.iter().any(|v| v.detail.contains("twice")),
        "{violations:?}"
    );
}

#[test]
fn span_oracle_ignores_undelivered_pdus() {
    // A send that never went anywhere: liveness/atomicity territory, not
    // a span hole.
    let traces = vec![
        vec![ProtocolEvent::DataSent {
            src: EntityId::new(0),
            seq: Seq::new(1),
            now_us: 5,
        }],
        vec![],
    ];
    assert!(check_spans(&traces).is_empty());
}

#[test]
fn forced_loss_burst_is_survivable_and_detectable() {
    // The explorer's --force-loss-burst fault: a cluster-wide blackout
    // over the early workload. The protocol must still produce a clean,
    // complete run — and the recovery traffic it provokes must be
    // visible to the co-trace anomaly rules with tight thresholds.
    use co_check::FaultEvent;
    let mut storms = 0usize;
    for index in 0..10u64 {
        let mut sc = Scenario::random(index, 1, false);
        sc.faults.push(FaultEvent::LossBurst {
            from_us: 500,
            to_us: 12_000,
        });
        let (report, traces) = run_scenario_traced(&sc);
        assert!(
            report.violations.is_empty(),
            "schedule {index}: {:?}",
            report.violations
        );
        let lines: Vec<TraceLine> = traces
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.iter().map(move |&event| TraceLine::Event {
                    node: i as u32,
                    event,
                })
            })
            .collect();
        let cfg = co_trace::AnomalyConfig {
            ret_storm_requests: 2,
            ret_storm_window_us: 30_000,
            ..co_trace::AnomalyConfig::default()
        };
        storms += co_trace::analyze(&lines, &cfg)
            .findings
            .iter()
            .filter(|f| f.kind() == "ret_storm")
            .count();
    }
    assert!(
        storms > 0,
        "a forced blackout must provoke detectable RET traffic"
    );
}
