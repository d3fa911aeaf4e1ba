//! The anomaly rules, as incremental folds.
//!
//! [`StreamingDetectors`] consumes the lines of a *merged trace* one at a
//! time and can be asked for its [`findings`](StreamingDetectors::findings)
//! at any point; [`LiveDetector`] is the always-on [`Observer`] of one
//! entity's *own event stream*. Both expect time-nondecreasing input — a
//! merged trace is time sorted, a node's live stream is monotonic by
//! construction, and [`crate::analyze`] sorts whatever it is given first.
//! How lines with equal timestamps are ordered does not change a finding.
//!
//! The three rules that are local to a node are written once
//! ([`LocalRules`]) and folded by both:
//!
//! * RET storm — one sliding window of requests per source, pruned to
//!   the configured width, plus the best window seen so far. The best
//!   window is order-independent for equal timestamps because the
//!   window count strictly increases across an equal-time group, so the
//!   maximum is always achieved at a group boundary, whose membership
//!   depends on times alone.
//! * Loss burst — one open cluster aggregate plus already-closed
//!   findings; cluster boundaries depend only on timestamps.
//! * Flow saturation — one gauge aggregate per node (fully
//!   order-independent).
//!
//! The span rules differ in what they keep (DESIGN.md, "Cross-node
//! spans", tabulates rule × scope):
//!
//! * [`StreamingDetectors`] stitches a [`SpanSet`] as the lines arrive and
//!   holds every span, which is the set [`crate::analyze`] reports anyway.
//!   Its keys come from a file, so it is an ordered map behind the trace
//!   parser's checks.
//! * [`LiveDetector`] keeps one flat [`Held`] record per PDU the entity
//!   itself still holds (the paper's ≈ 2nW) in a
//!   [`co_observe::InFlight`] table: made at the node's `data_sent` /
//!   `accepted`, stamped at `pre_acked`, dropped at its own `delivered` —
//!   the last thing that node will ever say about the PDU. Nothing is
//!   allocated per PDU; the [`BroadcastSpan`] evidence of a stuck PDU is
//!   built when findings are asked for. Never-acknowledged asks about
//!   *other* nodes' deliveries, which this state cannot express, so it is
//!   not judged.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use co_observe::{InFlight, Observer, ProtocolEvent, TraceLine};

use crate::anomaly::{AnomalyConfig, Finding};
use crate::span::{stage_of, BroadcastSpan, SpanSet, Stage, StageTimes};

/// The densest request window seen so far for one source.
#[derive(Debug, Clone)]
struct BestWindow {
    count: usize,
    from_us: u64,
    to_us: u64,
    requesters: Vec<u32>,
}

/// Streaming state of the RET-storm rule for one source.
#[derive(Debug, Clone, Default)]
struct RetState {
    /// `(time, requester)` requests inside the current window.
    window: VecDeque<(u64, u32)>,
    best: Option<BestWindow>,
}

/// The open (not yet gap-closed) loss cluster.
#[derive(Debug, Clone)]
struct LossCluster {
    detections: usize,
    f2: usize,
    from_us: u64,
    to_us: u64,
    sources: BTreeSet<u32>,
}

impl LossCluster {
    fn finding(&self) -> Finding {
        Finding::LossBurst {
            detections: self.detections,
            f1: self.detections - self.f2,
            f2: self.f2,
            from_us: self.from_us,
            to_us: self.to_us,
            sources: self.sources.iter().copied().collect(),
        }
    }
}

/// Flow-condition aggregate for one node (order-independent).
#[derive(Debug, Clone)]
struct FlowState {
    blocked: usize,
    max_outstanding: u64,
    min_limit: u64,
    from_us: u64,
    to_us: u64,
}

/// The rules that need no span: RET storm, loss burst and flow
/// saturation, folded over the events of one node or of all of them.
#[derive(Debug, Clone)]
struct LocalRules {
    cfg: AnomalyConfig,
    ret: BTreeMap<u32, RetState>,
    loss_closed: Vec<Finding>,
    loss_open: Option<LossCluster>,
    flow: BTreeMap<u32, FlowState>,
}

impl LocalRules {
    fn new(cfg: AnomalyConfig) -> LocalRules {
        LocalRules {
            cfg,
            ret: BTreeMap::new(),
            loss_closed: Vec::new(),
            loss_open: None,
            flow: BTreeMap::new(),
        }
    }

    /// Feeds one protocol event observed at `node`.
    fn observe(&mut self, node: u32, event: &ProtocolEvent) {
        match *event {
            ProtocolEvent::RetSent { src, now_us, .. } => {
                self.observe_ret(src.index() as u32, node, now_us);
            }
            ProtocolEvent::F1Detected { src, now_us, .. } => {
                self.observe_loss(src.index() as u32, false, now_us);
            }
            ProtocolEvent::F2Detected { src, now_us, .. } => {
                self.observe_loss(src.index() as u32, true, now_us);
            }
            ProtocolEvent::FlowBlocked {
                outstanding,
                limit,
                now_us,
            } => {
                self.observe_flow(node, outstanding, limit, now_us);
            }
            _ => {}
        }
    }

    fn observe_ret(&mut self, src: u32, requester: u32, now_us: u64) {
        let window_us = self.cfg.ret_storm_window_us;
        let st = self.ret.entry(src).or_default();
        st.window.push_back((now_us, requester));
        while let Some(&(front_us, _)) = st.window.front() {
            if now_us.saturating_sub(front_us) > window_us {
                st.window.pop_front();
            } else {
                break;
            }
        }
        let count = st.window.len();
        // Strictly greater wins: the earliest window to reach the final
        // maximum is the one reported.
        if st.best.as_ref().is_none_or(|b| count > b.count) {
            let mut requesters: Vec<u32> = st.window.iter().map(|&(_, n)| n).collect();
            requesters.sort_unstable();
            requesters.dedup();
            st.best = Some(BestWindow {
                count,
                from_us: st.window.front().map_or(now_us, |&(t, _)| t),
                to_us: now_us,
                requesters,
            });
        }
    }

    fn observe_loss(&mut self, src: u32, is_f2: bool, now_us: u64) {
        let gap_us = self.cfg.loss_cluster_gap_us;
        let min = self.cfg.loss_cluster_min;
        if let Some(open) = &mut self.loss_open {
            if now_us.saturating_sub(open.to_us) > gap_us {
                if open.detections >= min {
                    self.loss_closed.push(open.finding());
                }
                self.loss_open = None;
            }
        }
        let open = self.loss_open.get_or_insert_with(|| LossCluster {
            detections: 0,
            f2: 0,
            from_us: now_us,
            to_us: now_us,
            sources: BTreeSet::new(),
        });
        open.detections += 1;
        open.f2 += usize::from(is_f2);
        open.from_us = open.from_us.min(now_us);
        open.to_us = open.to_us.max(now_us);
        open.sources.insert(src);
    }

    fn observe_flow(&mut self, node: u32, outstanding: u64, limit: u64, now_us: u64) {
        let g = self.flow.entry(node).or_insert(FlowState {
            blocked: 0,
            max_outstanding: 0,
            min_limit: u64::MAX,
            from_us: now_us,
            to_us: now_us,
        });
        g.blocked += 1;
        g.max_outstanding = g.max_outstanding.max(outstanding);
        g.min_limit = g.min_limit.min(limit);
        g.from_us = g.from_us.min(now_us);
        g.to_us = g.to_us.max(now_us);
    }

    /// RET storms that reached the threshold, source ascending.
    fn ret_storms(&self) -> impl Iterator<Item = (u32, &BestWindow)> {
        let min = self.cfg.ret_storm_requests;
        self.ret.iter().filter_map(move |(src, st)| {
            let best = st.best.as_ref().filter(|b| b.count >= min)?;
            Some((*src, best))
        })
    }

    /// The open loss cluster, once it is large enough to report.
    fn open_burst(&self) -> Option<&LossCluster> {
        let min = self.cfg.loss_cluster_min;
        self.loss_open.as_ref().filter(|o| o.detections >= min)
    }

    /// Nodes whose blocked submits reached the threshold, ascending.
    fn saturated(&self) -> impl Iterator<Item = (u32, &FlowState)> {
        let min = self.cfg.flow_blocked_min;
        self.flow
            .iter()
            .filter(move |(_, g)| g.blocked >= min)
            .map(|(node, g)| (*node, g))
    }

    /// Current findings in report order: RET storms (source ascending),
    /// loss bursts (time order), flow saturation (node ascending).
    fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for (src, best) in self.ret_storms() {
            out.push(Finding::RetStorm {
                src,
                requests: best.count,
                window_us: self.cfg.ret_storm_window_us,
                from_us: best.from_us,
                to_us: best.to_us,
                requesters: best.requesters.clone(),
            });
        }
        out.extend(self.loss_closed.iter().cloned());
        out.extend(self.open_burst().map(LossCluster::finding));
        for (node, g) in self.saturated() {
            out.push(Finding::FlowSaturation {
                node,
                blocked: g.blocked,
                max_outstanding: g.max_outstanding,
                min_limit: g.min_limit,
                starved: g.min_limit == 0,
                from_us: g.from_us,
                to_us: g.to_us,
            });
        }
        out
    }

    /// `(kind, count)` for every rule kind in [`Finding::KINDS`] order:
    /// what [`LocalRules::findings`] would report, then the two span
    /// rules as the caller counted them.
    fn kind_counts(&self, stuck: usize, unacknowledged: usize) -> Vec<(&'static str, u64)> {
        let counts = [
            self.ret_storms().count(),
            self.loss_closed.len() + usize::from(self.open_burst().is_some()),
            self.saturated().count(),
            stuck,
            unacknowledged,
        ];
        Finding::KINDS
            .into_iter()
            .zip(counts.map(|count| count as u64))
            .collect()
    }
}

/// All five anomaly rules as an incremental fold over a merged trace,
/// every span kept. See the module docs for the input contract and the
/// state each rule keeps.
#[derive(Debug, Clone)]
pub struct StreamingDetectors {
    rules: LocalRules,
    set: SpanSet,
}

impl StreamingDetectors {
    /// Detectors for a merged trace.
    pub fn new(cfg: AnomalyConfig) -> StreamingDetectors {
        StreamingDetectors {
            rules: LocalRules::new(cfg),
            set: SpanSet::default(),
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> &AnomalyConfig {
        &self.rules.cfg
    }

    /// The spans stitched so far.
    pub fn spans(&self) -> &SpanSet {
        &self.set
    }

    /// Gives up the stitched spans (what [`crate::analyze`] reports).
    pub fn into_spans(self) -> SpanSet {
        self.set
    }

    /// Feeds one protocol event observed at `node`.
    pub fn observe(&mut self, node: u32, event: ProtocolEvent) {
        self.observe_line(&TraceLine::Event { node, event });
    }

    /// Feeds one trace line. Lines must arrive with nondecreasing
    /// timestamps.
    pub fn observe_line(&mut self, line: &TraceLine) {
        self.set.observe(line);
        if let TraceLine::Event { node, event } = line {
            self.rules.observe(*node, event);
        }
    }

    /// `(node, waited_us)` wherever `span` is pre-acked, undelivered and
    /// stale.
    fn stuck<'a>(&'a self, span: &'a BroadcastSpan) -> impl Iterator<Item = (u32, u64)> + 'a {
        span.stages.iter().filter_map(move |&(node, stage)| {
            let (Some(preack), None) = (stage.pre_ack_us, stage.deliver_us) else {
                return None;
            };
            Some((node, self.rules.cfg.stale(self.set.end_us, preack)?))
        })
    }

    /// The destinations that never delivered `span`, if it is stale and
    /// there are any.
    fn unacknowledged(&self, span: &BroadcastSpan) -> Option<Vec<u32>> {
        self.rules.cfg.stale(self.set.end_us, span.sent_us?)?;
        Some(span.missing_deliveries(self.set.n)).filter(|missing| !missing.is_empty())
    }

    /// Snapshot of every rule's current findings, in report order: RET
    /// storms (source ascending), loss bursts (time order), flow
    /// saturation (node ascending), then the span rules in `(src, seq)`
    /// order.
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = self.rules.findings();
        for span in self.set.spans.values() {
            for (node, waited_us) in self.stuck(span) {
                out.push(Finding::StuckAtPreAck {
                    node,
                    src: span.src,
                    seq: span.seq,
                    waited_us,
                    span: span.clone(),
                });
            }
            if let Some(missing) = self.unacknowledged(span) {
                out.push(Finding::NeverAcknowledged {
                    src: span.src,
                    seq: span.seq,
                    missing,
                    span: span.clone(),
                });
            }
        }
        out
    }

    /// `(kind, count)` for every rule kind, including zeros — the shape
    /// the Prometheus findings gauge wants. Counts what
    /// [`findings`](StreamingDetectors::findings) would report without
    /// building the evidence.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let spans = || self.set.spans.values();
        self.rules.kind_counts(
            spans().map(|span| self.stuck(span).count()).sum(),
            spans()
                .filter(|span| self.unacknowledged(span).is_some())
                .count(),
        )
    }
}

/// What a [`LiveDetector`] remembers of a PDU its entity holds: the local
/// stage times, flat and `Copy` — no span, no per-destination list.
#[derive(Debug, Clone, Copy)]
struct Held {
    /// The node's `data_sent` (own PDU) or `accepted`.
    accept_us: u64,
    /// The node's `pre_acked`, once `pre_acked` is set.
    pre_ack_us: u64,
    pre_acked: bool,
    /// The record was made by `data_sent`: the PDU is the node's own and
    /// `accept_us` is also its send time.
    sent: bool,
    from_reorder: bool,
}

/// An [`Observer`] running the anomaly rules in-process over one node's
/// live event stream: always-on detection with no trace file in the loop.
///
/// It reports the four rules that are defined on a single node's stream
/// — RET storm, loss burst, flow saturation, stuck-at-pre-ack — and keeps
/// a record only while the node itself holds the PDU (module docs).
/// Never-acknowledged needs the merged trace; its kind count is an
/// explicit zero here.
#[derive(Debug, Clone)]
pub struct LiveDetector {
    node: u32,
    rules: LocalRules,
    held: InFlight<Held>,
    /// The stream's last timestamp, µs — "now" for the staleness gate.
    end_us: u64,
}

impl LiveDetector {
    /// Live detection for `node`'s event stream under `cfg`.
    pub fn new(node: u32, cfg: AnomalyConfig) -> LiveDetector {
        LiveDetector {
            node,
            rules: LocalRules::new(cfg),
            held: InFlight::default(),
            end_us: 0,
        }
    }

    /// PDUs the node has sent or accepted and not yet delivered — the
    /// records resident here.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// `((src, seq), record, waited_us)` of every held PDU that is
    /// pre-acked and stale, in table order.
    fn stuck(&self) -> impl Iterator<Item = ((u32, u64), &Held, u64)> {
        let pre_acked = self.held.iter().filter(|(_, held)| held.pre_acked);
        pre_acked.filter_map(|(pdu, held)| {
            let waited_us = self.rules.cfg.stale(self.end_us, held.pre_ack_us)?;
            Some((pdu, held, waited_us))
        })
    }

    /// Current findings snapshot, in report order: the node-local rules,
    /// then the stuck PDUs in `(src, seq)` order, each with the span this
    /// node saw of it.
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = self.rules.findings();
        let mut stuck: Vec<_> = self.stuck().collect();
        stuck.sort_unstable_by_key(|&(pdu, ..)| pdu);
        for ((src, seq), held, waited_us) in stuck {
            let times = StageTimes {
                accept_us: Some(held.accept_us),
                pre_ack_us: Some(held.pre_ack_us),
                deliver_us: None,
                from_reorder: held.from_reorder,
            };
            out.push(Finding::StuckAtPreAck {
                node: self.node,
                src,
                seq,
                waited_us,
                span: BroadcastSpan {
                    src,
                    seq,
                    sent_us: held.sent.then_some(held.accept_us),
                    stages: vec![(self.node, times)],
                },
            });
        }
        out
    }

    /// `(kind, count)` for every rule kind, including zeros.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.rules.kind_counts(self.stuck().count(), 0)
    }
}

impl Observer for LiveDetector {
    fn on_event(&mut self, event: ProtocolEvent) {
        let now_us = event.now_us();
        self.end_us = self.end_us.max(now_us);
        let Some((src, seq, stage, from_reorder)) = stage_of(&event) else {
            self.rules.observe(self.node, &event);
            return;
        };
        match stage {
            // An entity emits one of the two per PDU it comes to hold.
            Stage::Send | Stage::Accept => {
                let held = Held {
                    accept_us: now_us,
                    pre_ack_us: 0,
                    pre_acked: false,
                    sent: stage == Stage::Send,
                    from_reorder,
                };
                self.held.insert(src, seq, held);
            }
            Stage::PreAck => {
                if let Some(held) = self.held.get_mut(src, seq) {
                    held.pre_ack_us = now_us;
                    held.pre_acked = true;
                }
            }
            // Delivered here: this node has nothing more to say about the
            // PDU, and no rule judged on its stream can fire for it again.
            Stage::Deliver => {
                self.held.remove(src, seq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::testkit::{
        accepted, complete_broadcast, completes_at, delivered, ev, id, pre_acked, sent, tick,
    };
    use causal_order::Seq;

    fn time_sorted(mut lines: Vec<TraceLine>) -> Vec<TraceLine> {
        lines.sort_by_key(TraceLine::t_us);
        lines
    }

    /// `lines` in an order no writer would produce: reversed, then every
    /// other line moved to the front.
    fn shuffled(lines: &[TraceLine]) -> Vec<TraceLine> {
        let reversed: Vec<TraceLine> = lines.iter().rev().copied().collect();
        let (even, odd): (Vec<_>, Vec<_>) = reversed
            .into_iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        odd.into_iter().chain(even).map(|(_, line)| line).collect()
    }

    fn streamed(lines: &[TraceLine], cfg: &AnomalyConfig) -> Vec<Finding> {
        let mut s = StreamingDetectors::new(*cfg);
        for line in lines {
            s.observe_line(line);
        }
        s.findings()
    }

    /// Feeds a node's detector the events of `lines` (all its own).
    fn feed(live: &mut LiveDetector, lines: &[TraceLine]) {
        for line in lines {
            if let TraceLine::Event { event, .. } = *line {
                live.on_event(event);
            }
        }
    }

    fn ret_sent(node: u32, src: u32, now_us: u64) -> TraceLine {
        let (src, lseq) = (id(src), Seq::new(3));
        ev(node, ProtocolEvent::RetSent { src, lseq, now_us })
    }

    fn f1(node: u32, src: u32, now_us: u64) -> TraceLine {
        let event = ProtocolEvent::F1Detected {
            src: id(src),
            expected: Seq::new(1),
            got: Seq::new(3),
            now_us,
        };
        ev(node, event)
    }

    fn flow_blocked(node: u32, limit: u64, now_us: u64) -> TraceLine {
        let event = ProtocolEvent::FlowBlocked {
            outstanding: 8,
            limit,
            now_us,
        };
        ev(node, event)
    }

    /// A deliberately anomalous little trace exercising every rule.
    fn stormy_trace() -> Vec<TraceLine> {
        let mut lines = Vec::new();
        // RET storm on source 0: five requests in 80µs from two nodes.
        for (i, t) in [0u64, 20, 40, 60, 80].into_iter().enumerate() {
            lines.push(ret_sent(1 + (i as u32 % 2), 0, t));
        }
        // Loss burst: three detections inside the gap, one stray later.
        lines.push(f1(1, 0, 100));
        lines.push(ev(
            2,
            ProtocolEvent::F2Detected {
                src: id(0),
                confirmed: Seq::new(2),
                via: id(1),
                now_us: 130,
            },
        ));
        lines.push(f1(1, 2, 160));
        lines.push(f1(1, 2, 9_000));
        // Flow saturation at node 2.
        for t in [200u64, 220, 240] {
            lines.push(flow_blocked(2, if t == 240 { 0 } else { 4 }, t));
        }
        // A broadcast that pre-acks at node 1 but never delivers, and is
        // never delivered anywhere else either.
        lines.extend([
            sent(0, 9, 300),
            accepted(1, 0, 9, 320),
            pre_acked(1, 0, 9, 340),
        ]);
        // Late activity stretches end_us past the staleness gate.
        lines.push(tick(0, 40_000));
        time_sorted(lines)
    }

    fn lowered() -> AnomalyConfig {
        AnomalyConfig {
            stuck_preack_us: 10_000,
            ret_storm_requests: 4,
            ret_storm_window_us: 100,
            loss_cluster_gap_us: 1_000,
            loss_cluster_min: 3,
            flow_blocked_min: 3,
        }
    }

    #[test]
    fn line_order_does_not_matter_on_a_trace_with_every_rule_firing() {
        let lines = stormy_trace();
        let cfg = lowered();
        let sorted = analyze(&lines, &cfg).findings;
        let kinds: Vec<_> = sorted.iter().map(Finding::kind).collect();
        for expected in Finding::KINDS {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
        assert_eq!(analyze(&shuffled(&lines), &cfg).findings, sorted);
        // A sorted trace goes through the fold as given.
        assert_eq!(streamed(&lines, &cfg), sorted);
    }

    #[test]
    fn line_order_does_not_matter_under_default_thresholds_either() {
        let lines = stormy_trace();
        let cfg = AnomalyConfig::default();
        assert_eq!(
            analyze(&shuffled(&lines), &cfg).findings,
            analyze(&lines, &cfg).findings
        );
    }

    #[test]
    fn clean_and_empty_traces_have_no_findings_in_any_order() {
        let cfg = lowered();
        assert!(analyze(&[], &cfg).findings.is_empty());
        let lines = complete_broadcast(2, 0, 1, 10);
        assert!(analyze(&lines, &cfg).findings.is_empty());
        assert!(analyze(&shuffled(&lines), &cfg).findings.is_empty());
    }

    #[test]
    fn equal_timestamp_ties_do_not_change_the_snapshot() {
        let cfg = AnomalyConfig {
            ret_storm_requests: 3,
            ret_storm_window_us: 100,
            ..AnomalyConfig::default()
        };
        // Three requests at the same instant, arriving in two different
        // (but both time-nondecreasing) orders.
        let reqs = |order: [u32; 3]| order.map(|node| ret_sent(node, 0, 50));
        let found = streamed(&reqs([3, 1, 2]), &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(streamed(&reqs([2, 3, 1]), &cfg), found);
    }

    #[test]
    fn ret_storm_reports_the_densest_window_seen_so_far() {
        let cfg = AnomalyConfig {
            ret_storm_requests: 3,
            ret_storm_window_us: 100,
            ..AnomalyConfig::default()
        };
        let requests = [(1u32, 0u64), (2, 50), (1, 90), (2, 500)];
        let findings = streamed(&requests.map(|(node, t)| ret_sent(node, 0, t)), &cfg);
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
    fn live_detector_holds_a_pdu_only_until_its_local_delivery() {
        for node in 0..3u32 {
            let mut live = LiveDetector::new(node, lowered());
            for k in 0..100u64 {
                let [first, pre_ack, delivery] = completes_at(node, 0, 100 + k, 1_000 + k * 10);
                feed(&mut live, &[first, pre_ack]);
                assert_eq!(live.held(), 1, "held: in flight");
                feed(&mut live, &[delivery]);
                assert_eq!(live.held(), 0, "node {node}");
            }
            // Long after: nothing is held, so nothing is stale — and a
            // node never judges other nodes' deliveries.
            feed(&mut live, &[tick(node, 900_000)]);
            assert_eq!(live.findings(), vec![], "node {node}");
        }
    }

    #[test]
    fn live_detector_reports_the_local_stages_of_a_stuck_pdu() {
        let mut live = LiveDetector::new(1, lowered());
        // Three PDUs stuck here, fed out of `(src, seq)` order: one
        // repaired out of the reorder buffer, the node's own, and one
        // straight off the wire. A fourth is delivered, a fifth never
        // pre-acked.
        let repaired = ProtocolEvent::Accepted {
            src: id(2),
            seq: Seq::new(4),
            from_reorder: true,
            now_us: 310,
        };
        let [_, _, delivery] = completes_at(1, 0, 8, 300);
        feed(
            &mut live,
            &[
                ev(1, repaired),
                pre_acked(1, 2, 4, 330),
                sent(1, 7, 300),
                pre_acked(1, 1, 7, 320),
                accepted(1, 0, 9, 310),
                pre_acked(1, 0, 9, 340),
                accepted(1, 0, 8, 305),
                pre_acked(1, 0, 8, 315),
                delivery,
                accepted(1, 0, 10, 350),
                tick(1, 40_000),
            ],
        );
        let evidence = |sent_us, accept_us, pre_ack_us, from_reorder| {
            let times = StageTimes {
                accept_us: Some(accept_us),
                pre_ack_us: Some(pre_ack_us),
                deliver_us: None,
                from_reorder,
            };
            (sent_us, vec![(1, times)])
        };
        let found: Vec<_> = live
            .findings()
            .into_iter()
            .map(|finding| match finding {
                Finding::StuckAtPreAck {
                    node: 1,
                    src,
                    seq,
                    waited_us,
                    span,
                } => {
                    assert_eq!((span.src, span.seq), (src, seq));
                    (src, seq, waited_us, (span.sent_us, span.stages))
                }
                other => panic!("expected a stuck PDU, got {other:?}"),
            })
            .collect();
        assert_eq!(
            found,
            [
                (0, 9, 39_660, evidence(None, 310, 340, false)),
                (1, 7, 39_680, evidence(Some(300), 300, 320, false)),
                (2, 4, 39_670, evidence(None, 310, 330, true)),
            ]
        );
        assert!(live.kind_counts().contains(&("stuck_at_pre_ack", 3)));
        assert_eq!(live.held(), 4);
    }

    #[test]
    fn own_stale_broadcasts_are_not_never_acknowledged_on_a_node_stream() {
        // 200 own broadcasts the node sent long ago and has not delivered:
        // each would be `never_acknowledged` to a detector that mistook
        // this stream for the whole cluster's.
        let mut live = LiveDetector::new(0, AnomalyConfig::default());
        for k in 1..=200u64 {
            feed(&mut live, &[sent(0, k, k)]);
        }
        feed(&mut live, &[tick(0, 10_000_000)]);
        assert_eq!(live.findings(), vec![]);
        let mut rendered = String::new();
        co_observe::prom::render_findings(
            &co_observe::SeriesLabels::node(0),
            &live.kind_counts(),
            &mut rendered,
        );
        assert!(
            rendered.contains("kind=\"never_acknowledged\"} 0\n"),
            "{rendered}"
        );
    }

    #[test]
    fn live_detector_observes_one_nodes_stream() {
        let cfg = AnomalyConfig {
            flow_blocked_min: 2,
            ..AnomalyConfig::default()
        };
        let mut live = LiveDetector::new(2, cfg);
        assert!(live.findings().is_empty());
        feed(&mut live, &[flow_blocked(2, 3, 10), flow_blocked(2, 3, 20)]);
        let findings = live.findings();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind(), "flow_saturation");
        match &findings[0] {
            Finding::FlowSaturation { node, blocked, .. } => {
                assert_eq!((*node, *blocked), (2, 2));
            }
            other => panic!("expected FlowSaturation, got {other:?}"),
        }
        let counts = live.kind_counts();
        assert_eq!(counts.len(), Finding::KINDS.len());
        assert!(counts.contains(&("flow_saturation", 1)));
        assert!(counts.contains(&("ret_storm", 0)));
    }

    #[test]
    fn snapshots_are_monotone_in_information_not_in_count() {
        // A pre-acked-but-undelivered span fires once end_us passes the
        // gate, then clears when the delivery finally lands.
        let cfg = AnomalyConfig {
            stuck_preack_us: 1_000,
            ..AnomalyConfig::default()
        };
        let lines = [
            sent(0, 1, 10),
            accepted(1, 0, 1, 20),
            pre_acked(1, 0, 1, 30),
            tick(0, 5_000),
            delivered(1, 0, 1, 5_100),
            delivered(0, 0, 1, 5_100),
        ];
        let mut s = StreamingDetectors::new(cfg);
        let mut kinds_after = |upto: std::ops::Range<usize>| -> Vec<&'static str> {
            for line in &lines[upto] {
                s.observe_line(line);
            }
            s.findings().iter().map(Finding::kind).collect()
        };
        let kinds = kinds_after(0..4);
        assert!(kinds.contains(&"stuck_at_pre_ack"), "{kinds:?}");
        let kinds = kinds_after(4..6);
        assert!(!kinds.contains(&"stuck_at_pre_ack"), "{kinds:?}");
        // The snapshot is what a fresh pass over the same history reports.
        assert_eq!(s.findings(), analyze(&lines, &cfg).findings);
    }

    #[test]
    fn host_tco_lines_advance_the_staleness_clock() {
        let cfg = AnomalyConfig {
            stuck_preack_us: 1_000,
            ..AnomalyConfig::default()
        };
        let lines = [
            sent(0, 1, 10),
            TraceLine::HostTco {
                node: 1,
                at_us: 9_000,
                dur_us: 50,
            },
        ];
        let found = streamed(&lines, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind(), "never_acknowledged");
    }
}
