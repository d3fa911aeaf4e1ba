//! Span model and the trace stitcher ([`SpanSet::observe`]).
//!
//! A [`SpanSet`] is what is built from a trace *file* (`trace analyze`,
//! `trace watch`, recorder dumps): keyed by whatever `(src, seq)` the lines
//! name, so it stays an ordered map and every span owns its sparse
//! per-destination stages. An entity's own live stream does not go through
//! it — [`crate::LiveDetector`] keeps a flat record per held PDU and builds
//! a [`BroadcastSpan`] only as the evidence of a finding; the two share
//! [`stage_of`], the event → [`Stage`] mapping.

use std::collections::BTreeMap;

use causal_order::{EntityId, Seq};
use co_observe::{Histogram, ProtocolEvent, TraceLine};

/// A receipt-level stage of one broadcast at one destination (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Transmission at the origin (`data_sent`).
    Send,
    /// Acceptance into the `RRL` (`accepted`; at the origin the send is
    /// its own acceptance).
    Accept,
    /// Pre-acknowledgment, `RRL → PRL` (`pre_acked`).
    PreAck,
    /// Acknowledgment and application hand-off (`delivered` — the two
    /// coincide in this engine).
    Deliver,
}

impl Stage {
    /// Short stable name, used in reports and oracle messages.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Send => "send",
            Stage::Accept => "accept",
            Stage::PreAck => "pre_ack",
            Stage::Deliver => "deliver",
        }
    }
}

/// Stage timestamps of one broadcast at one destination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// When the PDU entered this node's `RRL` (shared-epoch µs). At the
    /// origin this equals the send time (self-acceptance).
    pub accept_us: Option<u64>,
    /// When it moved `RRL → PRL`.
    pub pre_ack_us: Option<u64>,
    /// When it reached the `ARL` and the application.
    pub deliver_us: Option<u64>,
    /// Whether acceptance drained the reorder buffer (gap repair) rather
    /// than coming straight off the wire.
    pub from_reorder: bool,
}

impl StageTimes {
    /// All three stages present.
    pub fn complete(&self) -> bool {
        self.accept_us.is_some() && self.pre_ack_us.is_some() && self.deliver_us.is_some()
    }

    /// The stages present, in receipt-level order, violate monotonicity?
    /// Returns the offending pair if so.
    pub fn order_violation(&self) -> Option<(Stage, Stage)> {
        if let (Some(a), Some(p)) = (self.accept_us, self.pre_ack_us) {
            if p < a {
                return Some((Stage::Accept, Stage::PreAck));
            }
        }
        if let (Some(p), Some(d)) = (self.pre_ack_us, self.deliver_us) {
            if d < p {
                return Some((Stage::PreAck, Stage::Deliver));
            }
        }
        if let (Some(a), Some(d)) = (self.accept_us, self.deliver_us) {
            if d < a {
                return Some((Stage::Accept, Stage::Deliver));
            }
        }
        None
    }
}

/// The cluster-wide lifecycle of one `(source, seq)` broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastSpan {
    /// Originating entity index.
    pub src: u32,
    /// Origin sequence number.
    pub seq: u64,
    /// Send time at the origin (`data_sent`), shared-epoch µs.
    pub sent_us: Option<u64>,
    /// `(node, stage times)` of every destination that recorded a stage,
    /// ascending by node; includes the origin (whose acceptance coincides
    /// with the send). Sparse, so a span costs what was observed of it —
    /// one entry on a single node's stream, `n` on a merged trace.
    pub stages: Vec<(u32, StageTimes)>,
}

impl BroadcastSpan {
    /// The stage times recorded at `node`, if it recorded any.
    pub fn at(&self, node: u32) -> Option<&StageTimes> {
        let i = self
            .stages
            .binary_search_by_key(&node, |&(at, _)| at)
            .ok()?;
        Some(&self.stages[i].1)
    }

    fn at_mut(&mut self, node: u32) -> &mut StageTimes {
        let i = match self.stages.binary_search_by_key(&node, |&(at, _)| at) {
            Ok(i) => i,
            Err(i) => {
                self.stages.insert(i, (node, StageTimes::default()));
                i
            }
        };
        &mut self.stages[i].1
    }

    /// The span is complete: the send was recorded and every one of the
    /// `n` destinations accepted, pre-acked, and delivered.
    pub fn complete(&self, n: usize) -> bool {
        self.sent_us.is_some()
            && (0..n as u32).all(|i| self.at(i).is_some_and(StageTimes::complete))
    }

    /// Nodes (indices) that never delivered this PDU.
    pub fn missing_deliveries(&self, n: usize) -> Vec<u32> {
        (0..n as u32)
            .filter(|&i| self.at(i).is_none_or(|s| s.deliver_us.is_none()))
            .collect()
    }

    /// Delivered at one or more nodes.
    pub fn delivered_anywhere(&self) -> bool {
        self.stages.iter().any(|(_, s)| s.deliver_us.is_some())
    }
}

/// A stage that was recorded twice for the same `(src, seq)` at the same
/// node — a protocol invariant violation the stitcher surfaces rather
/// than silently overwriting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateStage {
    /// The node that double-recorded.
    pub node: u32,
    /// The span's source.
    pub src: u32,
    /// The span's sequence number.
    pub seq: u64,
    /// Which stage repeated.
    pub stage: Stage,
}

/// Receipt-level latency breakdown, folded into the same fixed-bucket
/// histograms the live `LatencyTracker` uses.
///
/// The paper's pre-ack→ack and ack→deliver stages coincide in this
/// engine (`delivered` is both), so they appear merged as
/// [`Breakdown::preack_to_deliver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Send → acceptance at a *remote* destination (time-to-accept).
    pub send_to_accept: Histogram,
    /// Acceptance → pre-acknowledgment, every destination.
    pub accept_to_preack: Histogram,
    /// Pre-acknowledgment → delivery (= the paper's pre-ack→ack plus
    /// ack→deliver), every destination.
    pub preack_to_deliver: Histogram,
    /// Send → delivery at a *remote* destination — the paper's **Tap**.
    pub send_to_deliver: Histogram,
}

impl Breakdown {
    /// `(stage name, histogram)` rows in pipeline order.
    pub fn stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("send_to_accept", &self.send_to_accept),
            ("accept_to_preack", &self.accept_to_preack),
            ("preack_to_deliver", &self.preack_to_deliver),
            ("send_to_deliver", &self.send_to_deliver),
        ]
    }

    /// Merges another breakdown into this one, stage by stage.
    pub fn merge(&mut self, other: &Breakdown) {
        self.send_to_accept.merge(&other.send_to_accept);
        self.accept_to_preack.merge(&other.accept_to_preack);
        self.preack_to_deliver.merge(&other.preack_to_deliver);
        self.send_to_deliver.merge(&other.send_to_deliver);
    }

    fn record_dest(&mut self, sent_us: Option<u64>, dest: u32, src: u32, s: &StageTimes) {
        let remote = dest != src;
        if let (Some(sent), Some(accept), true) = (sent_us, s.accept_us, remote) {
            self.send_to_accept.record(accept.saturating_sub(sent));
        }
        if let (Some(accept), Some(preack)) = (s.accept_us, s.pre_ack_us) {
            self.accept_to_preack.record(preack.saturating_sub(accept));
        }
        if let (Some(preack), Some(deliver)) = (s.pre_ack_us, s.deliver_us) {
            self.preack_to_deliver
                .record(deliver.saturating_sub(preack));
        }
        if let (Some(sent), Some(deliver), true) = (sent_us, s.deliver_us, remote) {
            self.send_to_deliver.record(deliver.saturating_sub(sent));
        }
    }
}

/// `(source, seq, stage, from_reorder)` of a stage event — the one place
/// protocol events become [`Stage`]s, for the stitcher and for the
/// node-scope detector alike.
pub(crate) fn stage_of(event: &ProtocolEvent) -> Option<(EntityId, Seq, Stage, bool)> {
    Some(match *event {
        ProtocolEvent::DataSent { src, seq, .. } => (src, seq, Stage::Send, false),
        ProtocolEvent::Accepted {
            src,
            seq,
            from_reorder,
            ..
        } => (src, seq, Stage::Accept, from_reorder),
        ProtocolEvent::PreAcked { src, seq, .. } => (src, seq, Stage::PreAck, false),
        ProtocolEvent::Delivered { src, seq, .. } => (src, seq, Stage::Deliver, false),
        _ => return None,
    })
}

/// All spans reconstructed from one trace, built line by line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSet {
    /// Number of nodes inferred from the trace (highest node or source
    /// index + 1).
    pub n: usize,
    /// Spans keyed by `(source, seq)`, iteration-ordered.
    pub spans: BTreeMap<(u32, u64), BroadcastSpan>,
    /// Stages recorded twice (invariant violations, not overwritten).
    pub duplicates: Vec<DuplicateStage>,
    /// The trace's last timestamp, µs — "now" for staleness thresholds.
    pub end_us: u64,
}

impl SpanSet {
    /// Spans complete across all `n` destinations.
    pub fn complete_count(&self) -> usize {
        self.spans.values().filter(|s| s.complete(self.n)).count()
    }

    /// Aggregated receipt-level breakdown over every destination.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for span in self.spans.values() {
            for (dest, stage) in &span.stages {
                b.record_dest(span.sent_us, *dest, span.src, stage);
            }
        }
        b
    }

    /// Receipt-level breakdown of one destination node.
    pub fn breakdown_for(&self, node: u32) -> Breakdown {
        let mut b = Breakdown::default();
        for span in self.spans.values() {
            if let Some(stage) = span.at(node) {
                b.record_dest(span.sent_us, node, span.src, stage);
            }
        }
        b
    }

    /// Folds one trace line in. Lines may come in any order; of a stage
    /// recorded twice the first line wins and the repeat lands in
    /// [`SpanSet::duplicates`].
    pub fn observe(&mut self, line: &TraceLine) {
        let node = match *line {
            TraceLine::HostTco { node, .. } | TraceLine::Event { node, .. } => node,
        };
        let at_us = line.t_us();
        self.n = self.n.max(node as usize + 1);
        self.end_us = self.end_us.max(at_us);
        let TraceLine::Event { event, .. } = line else {
            return;
        };
        let Some((src, seq, stage, from_reorder)) = stage_of(event) else {
            return;
        };
        let (src, seq) = (src.index() as u32, seq.get());
        self.n = self.n.max(src as usize + 1);
        self.set_stage(node, src, seq, stage, at_us, from_reorder);
    }

    fn set_stage(
        &mut self,
        node: u32,
        src: u32,
        seq: u64,
        stage: Stage,
        at_us: u64,
        from_reorder: bool,
    ) {
        let span = self
            .spans
            .entry((src, seq))
            .or_insert_with(|| BroadcastSpan {
                src,
                seq,
                sent_us: None,
                stages: Vec::new(),
            });
        let duplicate = DuplicateStage {
            node,
            src,
            seq,
            stage,
        };
        if stage == Stage::Send {
            if span.sent_us.is_some() {
                self.duplicates.push(duplicate);
            } else {
                span.sent_us = Some(at_us);
            }
            // The send is also the origin's acceptance; fall through so the
            // origin's StageTimes carries it too.
        }
        let times = span.at_mut(node);
        let slot = match stage {
            Stage::Send | Stage::Accept => &mut times.accept_us,
            Stage::PreAck => &mut times.pre_ack_us,
            Stage::Deliver => &mut times.deliver_us,
        };
        if slot.is_some() {
            if stage != Stage::Send {
                // A duplicate send was already recorded above.
                self.duplicates.push(duplicate);
            }
        } else {
            *slot = Some(at_us);
            if stage == Stage::Accept {
                times.from_reorder = from_reorder;
            }
        }
    }
}

/// Reconstructs every broadcast's lifecycle span from a merged,
/// shared-epoch trace (any line order; the stitcher does not require
/// time sorting): [`SpanSet::observe`] folded over `lines`.
pub fn stitch(lines: &[TraceLine]) -> SpanSet {
    let mut set = SpanSet::default();
    for line in lines {
        set.observe(line);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{accepted, delivered, ev, id, pre_acked, sent};

    /// One broadcast from node 0, fully received by nodes 0..3.
    fn full_span_trace() -> Vec<TraceLine> {
        let mut lines = vec![sent(0, 1, 100)];
        for node in 1..3u32 {
            lines.push(accepted(node, 0, 1, 150 + u64::from(node)));
        }
        for node in 0..3u32 {
            lines.push(pre_acked(node, 0, 1, 300 + u64::from(node)));
            lines.push(delivered(node, 0, 1, 400 + u64::from(node)));
        }
        lines
    }

    #[test]
    fn stitches_a_complete_span() {
        let set = stitch(&full_span_trace());
        assert_eq!(set.n, 3);
        assert_eq!(set.spans.len(), 1);
        assert_eq!(set.complete_count(), 1);
        assert!(set.duplicates.is_empty());
        let span = &set.spans[&(0, 1)];
        assert_eq!(span.sent_us, Some(100));
        assert!(span.complete(3));
        assert_eq!(
            span.at(0).unwrap().accept_us,
            Some(100),
            "origin self-accepts"
        );
        assert_eq!(span.at(2).unwrap().accept_us, Some(152));
        assert_eq!(span.missing_deliveries(3), Vec::<u32>::new());
        assert!(span
            .stages
            .iter()
            .all(|(_, s)| s.order_violation().is_none()));
        assert_eq!(set.end_us, 402);
    }

    #[test]
    fn breakdown_matches_hand_computation() {
        let set = stitch(&full_span_trace());
        let b = set.breakdown();
        // Two remote destinations: accepts at 151/152 for a send at 100.
        assert_eq!(b.send_to_accept.count(), 2);
        assert_eq!(b.send_to_accept.min_us(), 51);
        assert_eq!(b.send_to_accept.max_us(), 52);
        // Every node runs accept→pre-ack and pre-ack→deliver.
        assert_eq!(b.accept_to_preack.count(), 3);
        assert_eq!(b.preack_to_deliver.count(), 3);
        assert_eq!(b.preack_to_deliver.min_us(), 100);
        // Tap: remote deliveries at 401/402 minus send at 100.
        assert_eq!(b.send_to_deliver.count(), 2);
        assert_eq!(b.send_to_deliver.max_us(), 302);
        // Per-destination view: node 1 only.
        let d1 = set.breakdown_for(1);
        assert_eq!(d1.send_to_deliver.count(), 1);
        assert_eq!(d1.send_to_deliver.max_us(), 301);
    }

    #[test]
    fn incomplete_and_unordered_spans_are_visible() {
        let lines = vec![
            sent(1, 4, 10),
            ev(
                0,
                ProtocolEvent::Accepted {
                    src: id(1),
                    seq: Seq::new(4),
                    from_reorder: true,
                    now_us: 20,
                },
            ),
            // Pre-ack before accept: order violation at node 0.
            pre_acked(0, 1, 4, 15),
        ];
        let set = stitch(&lines);
        assert_eq!(set.n, 2);
        let span = &set.spans[&(1, 4)];
        assert!(!span.complete(2));
        assert_eq!(span.missing_deliveries(2), vec![0, 1]);
        assert_eq!(
            span.at(0).unwrap().order_violation(),
            Some((Stage::Accept, Stage::PreAck))
        );
        assert!(span.at(0).unwrap().from_reorder);
    }

    #[test]
    fn duplicate_stages_are_reported_not_overwritten() {
        let lines = vec![sent(0, 2, 5), delivered(1, 0, 2, 9), delivered(1, 0, 2, 11)];
        let set = stitch(&lines);
        assert_eq!(set.duplicates.len(), 1);
        assert_eq!(set.duplicates[0].stage, Stage::Deliver);
        assert_eq!(set.duplicates[0].node, 1);
        // First timestamp wins.
        assert_eq!(set.spans[&(0, 2)].at(1).unwrap().deliver_us, Some(9));
    }

    #[test]
    fn empty_trace_yields_empty_set() {
        let set = stitch(&[]);
        assert_eq!(set.n, 0);
        assert!(set.spans.is_empty());
        assert_eq!(set.complete_count(), 0);
    }
}
