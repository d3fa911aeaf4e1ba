//! A **TO (totally ordering broadcast)** baseline with go-back-n
//! retransmission, in the style of the cluster protocols [14, 15] the paper
//! builds on.
//!
//! Entity `E_1` acts as the sequencer: submitters unicast their payloads to
//! it; it assigns a global sequence number and broadcasts. Every receiver
//! delivers strictly in global order — a PDU arriving out of order is
//! **discarded** and the receiver sends a NACK, upon which the sequencer
//! resends *everything* from the requested number (go-back-n, §5: "all PDUs
//! preceding the lost PDU are retransmitted"). The `retransmission`
//! experiment measures the resulting overhead against the CO protocol's
//! selective scheme.

use bytes::Bytes;
use causal_order::EntityId;

use crate::traits::{AppDelivery, Broadcaster, Out};

/// Messages of the sequencer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToMsg {
    /// A payload on its way to the sequencer.
    Submit {
        /// Original sender.
        origin: EntityId,
        /// The sender's local sequence number (for app-level identity).
        origin_seq: u64,
        /// Payload.
        data: Bytes,
    },
    /// A globally ordered broadcast from the sequencer.
    Ordered {
        /// Global sequence number, starting at 1.
        gseq: u64,
        /// Original sender.
        origin: EntityId,
        /// The sender's local sequence number.
        origin_seq: u64,
        /// Payload.
        data: Bytes,
    },
    /// A go-back-n retransmission request: "resend everything from `from`".
    Nack {
        /// First global sequence number the receiver is missing.
        from: u64,
    },
    /// Sequencer heartbeat announcing the highest assigned global number,
    /// so receivers can detect tail loss (a lost final PDU would otherwise
    /// go unnoticed: NACKs are only triggered by later arrivals).
    Heartbeat {
        /// One past the last assigned global sequence number.
        next_gseq: u64,
    },
}

/// One entity of the TO baseline. Entity 0 doubles as the sequencer.
#[derive(Debug)]
pub struct SequencerEntity {
    me: EntityId,
    /// Next local sequence number for own submissions.
    local_seq: u64,
    /// Next global sequence number this entity expects to deliver.
    next_gseq: u64,
    /// Sequencer-only: next global number to assign.
    assign_gseq: u64,
    /// Sequencer-only: full ordered history for go-back-n resends.
    history: Vec<ToMsg>,
    /// Submissions sent but not yet seen back in the global order (for
    /// quiescence tracking).
    outstanding: u64,
    /// Count of ordered PDUs this entity retransmitted (sequencer only).
    pub retransmissions_sent: u64,
    /// Count of out-of-order PDUs discarded (go-back-n has no reorder
    /// buffer).
    pub discarded: u64,
    /// Minimum µs between NACKs for the same gap.
    nack_interval_us: u64,
    last_nack: Option<(u64, u64)>,
    /// Sequencer: remaining heartbeats to emit after the last new order.
    heartbeats_left: u32,
    /// Sequencer: when the next heartbeat is due.
    next_heartbeat_us: u64,
    /// Interval between heartbeats, µs.
    heartbeat_interval_us: u64,
}

/// The sequencer's entity id.
pub const SEQUENCER: EntityId = EntityId::new(0);

impl SequencerEntity {
    /// Creates entity `me` of a cluster of `n`; entity 0 is the sequencer.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `me` is out of range.
    pub fn new(me: EntityId, n: usize) -> Self {
        assert!(n >= 2 && me.index() < n, "invalid cluster");
        SequencerEntity {
            me,
            local_seq: 0,
            next_gseq: 1,
            assign_gseq: 1,
            history: Vec::new(),
            outstanding: 0,
            retransmissions_sent: 0,
            discarded: 0,
            nack_interval_us: 10_000,
            last_nack: None,
            heartbeats_left: 0,
            next_heartbeat_us: 0,
            heartbeat_interval_us: 20_000,
        }
    }

    fn is_sequencer(&self) -> bool {
        self.me == SEQUENCER
    }

    /// Sequencer: assign and broadcast (and deliver locally).
    fn order(
        &mut self,
        origin: EntityId,
        origin_seq: u64,
        data: Bytes,
        now_us: u64,
        outs: &mut Vec<Out<ToMsg>>,
    ) {
        let msg = ToMsg::Ordered {
            gseq: self.assign_gseq,
            origin,
            origin_seq,
            data: data.clone(),
        };
        self.assign_gseq += 1;
        self.history.push(msg.clone());
        // Arm a few heartbeats so a lost tail PDU is eventually detected.
        self.heartbeats_left = 5;
        self.next_heartbeat_us = now_us + self.heartbeat_interval_us;
        outs.push(Out::Broadcast(msg));
        // The sequencer delivers immediately — it defines the order.
        self.next_gseq = self.assign_gseq;
        if origin == self.me {
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        outs.push(Out::Deliver(AppDelivery {
            origin,
            origin_seq,
            data,
        }));
    }

    fn send_nack(&mut self, now_us: u64, outs: &mut Vec<Out<ToMsg>>) {
        if let Some((from, when)) = self.last_nack {
            if from == self.next_gseq && now_us.saturating_sub(when) < self.nack_interval_us {
                return;
            }
        }
        self.last_nack = Some((self.next_gseq, now_us));
        outs.push(Out::Send(
            SEQUENCER,
            ToMsg::Nack {
                from: self.next_gseq,
            },
        ));
    }
}

impl Broadcaster for SequencerEntity {
    type Msg = ToMsg;

    fn on_app(&mut self, data: Bytes, now_us: u64) -> Vec<Out<ToMsg>> {
        self.local_seq += 1;
        let mut outs = Vec::new();
        if self.is_sequencer() {
            let (origin, origin_seq) = (self.me, self.local_seq);
            self.order(origin, origin_seq, data, now_us, &mut outs);
        } else {
            self.outstanding += 1;
            outs.push(Out::Send(
                SEQUENCER,
                ToMsg::Submit {
                    origin: self.me,
                    origin_seq: self.local_seq,
                    data,
                },
            ));
        }
        outs
    }

    fn on_msg(&mut self, from: EntityId, msg: ToMsg, now_us: u64) -> Vec<Out<ToMsg>> {
        let mut outs = Vec::new();
        match msg {
            ToMsg::Submit {
                origin,
                origin_seq,
                data,
            } => {
                if self.is_sequencer() {
                    self.order(origin, origin_seq, data, now_us, &mut outs);
                }
                // Non-sequencers ignore stray submits.
            }
            ToMsg::Ordered {
                gseq,
                origin,
                origin_seq,
                data,
            } => {
                if self.is_sequencer() {
                    return outs; // own resends echoed back — ignore
                }
                if gseq < self.next_gseq {
                    return outs; // duplicate
                }
                if gseq > self.next_gseq {
                    // Go-back-n: discard and request everything again.
                    self.discarded += 1;
                    self.send_nack(now_us, &mut outs);
                    return outs;
                }
                self.next_gseq += 1;
                self.last_nack = None;
                if origin == self.me {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
                outs.push(Out::Deliver(AppDelivery {
                    origin,
                    origin_seq,
                    data,
                }));
            }
            ToMsg::Nack { from: first } => {
                if self.is_sequencer() {
                    // Resend the whole suffix to the requester (go-back-n).
                    let start = (first.saturating_sub(1)) as usize;
                    for m in self.history.iter().skip(start).cloned().collect::<Vec<_>>() {
                        self.retransmissions_sent += 1;
                        outs.push(Out::Send(from, m));
                    }
                }
            }
            ToMsg::Heartbeat { next_gseq } => {
                if !self.is_sequencer() && next_gseq > self.next_gseq {
                    // Tail loss: PDUs exist that we never saw.
                    self.send_nack(now_us, &mut outs);
                }
            }
        }
        outs
    }

    fn on_tick(&mut self, now_us: u64) -> Vec<Out<ToMsg>> {
        let mut outs = Vec::new();
        if self.is_sequencer() && self.heartbeats_left > 0 && now_us >= self.next_heartbeat_us {
            self.heartbeats_left -= 1;
            self.next_heartbeat_us = now_us + self.heartbeat_interval_us;
            outs.push(Out::Broadcast(ToMsg::Heartbeat {
                next_gseq: self.assign_gseq,
            }));
        }
        outs
    }

    fn next_deadline(&self, _now_us: u64) -> Option<u64> {
        if self.is_sequencer() && self.heartbeats_left > 0 {
            Some(self.next_heartbeat_us)
        } else {
            None
        }
    }

    fn is_quiescent(&self) -> bool {
        self.outstanding == 0
            && (self.is_sequencer() || self.next_gseq >= 1)
            && self.last_nack.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn deliveries(outs: &[Out<ToMsg>]) -> Vec<(u32, u64)> {
        outs.iter()
            .filter_map(|o| match o {
                Out::Deliver(d) => Some((d.origin.raw(), d.origin_seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequencer_orders_own_submissions() {
        let mut s = SequencerEntity::new(e(0), 2);
        let outs = s.on_app(Bytes::from_static(b"a"), 0);
        assert_eq!(deliveries(&outs), vec![(0, 1)]);
        assert!(matches!(
            outs[0],
            Out::Broadcast(ToMsg::Ordered { gseq: 1, .. })
        ));
    }

    #[test]
    fn non_sequencer_routes_via_sequencer() {
        let mut s = SequencerEntity::new(e(0), 3);
        let mut b = SequencerEntity::new(e(1), 3);
        let mut c = SequencerEntity::new(e(2), 3);
        let outs = b.on_app(Bytes::from_static(b"m"), 0);
        let Out::Send(to, submit) = &outs[0] else {
            panic!("expected unicast submit");
        };
        assert_eq!(*to, SEQUENCER);
        assert!(!b.is_quiescent(), "submission outstanding");
        let ordered_outs = s.on_msg(e(1), submit.clone(), 0);
        let Out::Broadcast(ordered) = &ordered_outs[0] else {
            panic!("expected ordered broadcast");
        };
        assert_eq!(
            deliveries(&b.on_msg(e(0), ordered.clone(), 0)),
            vec![(1, 1)]
        );
        assert_eq!(
            deliveries(&c.on_msg(e(0), ordered.clone(), 0)),
            vec![(1, 1)]
        );
        assert!(b.is_quiescent());
    }

    #[test]
    fn out_of_order_discarded_and_nacked() {
        let mut s = SequencerEntity::new(e(0), 2);
        let mut b = SequencerEntity::new(e(1), 2);
        let o1 = s.on_app(Bytes::from_static(b"1"), 0);
        let o2 = s.on_app(Bytes::from_static(b"2"), 0);
        let m2 = match &o2[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        // m1 lost; m2 arrives → discarded + NACK from 1.
        let outs = b.on_msg(e(0), m2, 0);
        assert!(deliveries(&outs).is_empty());
        assert_eq!(b.discarded, 1);
        let Out::Send(to, ToMsg::Nack { from }) = &outs[0] else {
            panic!("expected nack, got {outs:?}");
        };
        assert_eq!((*to, *from), (SEQUENCER, 1));
        // Sequencer resends gseq 1 AND 2 (go-back-n).
        let resent = s.on_msg(e(1), ToMsg::Nack { from: 1 }, 0);
        assert_eq!(resent.len(), 2);
        assert_eq!(s.retransmissions_sent, 2);
        // Receiver now delivers both, in order.
        let mut got = Vec::new();
        for out in resent {
            if let Out::Send(_, m) = out {
                got.extend(deliveries(&b.on_msg(e(0), m, 1)));
            }
        }
        assert_eq!(got, vec![(0, 1), (0, 2)]);
        let _ = o1;
    }

    #[test]
    fn duplicates_ignored() {
        let mut s = SequencerEntity::new(e(0), 2);
        let mut b = SequencerEntity::new(e(1), 2);
        let outs = s.on_app(Bytes::from_static(b"1"), 0);
        let m1 = match &outs[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        assert_eq!(deliveries(&b.on_msg(e(0), m1.clone(), 0)).len(), 1);
        assert!(deliveries(&b.on_msg(e(0), m1, 0)).is_empty());
    }

    #[test]
    fn nacks_are_rate_limited() {
        let mut s = SequencerEntity::new(e(0), 2);
        let mut b = SequencerEntity::new(e(1), 2);
        let _ = s.on_app(Bytes::from_static(b"1"), 0);
        let m2 = match &s.on_app(Bytes::from_static(b"2"), 0)[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        let m3 = match &s.on_app(Bytes::from_static(b"3"), 0)[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        let o1 = b.on_msg(e(0), m2, 0);
        let o2 = b.on_msg(e(0), m3, 10); // same gap, 10µs later
        assert_eq!(o1.len(), 1, "first detection nacks");
        assert!(o2.is_empty(), "second detection suppressed");
    }

    #[test]
    fn heartbeat_reveals_tail_loss() {
        let mut s = SequencerEntity::new(e(0), 2);
        let mut b = SequencerEntity::new(e(1), 2);
        // The only ordered PDU is lost entirely; without heartbeats B could
        // never know it existed.
        let _lost = s.on_app(Bytes::from_static(b"tail"), 0);
        // Sequencer heartbeat machinery is armed.
        let deadline = s.next_deadline(0).expect("heartbeat armed");
        let outs = s.on_tick(deadline);
        let hb = match &outs[..] {
            [Out::Broadcast(hb @ ToMsg::Heartbeat { next_gseq: 2 })] => hb.clone(),
            other => panic!("expected heartbeat, got {other:?}"),
        };
        // B reacts with a NACK from gseq 1.
        let reaction = b.on_msg(e(0), hb, deadline);
        assert_eq!(
            reaction,
            vec![Out::Send(SEQUENCER, ToMsg::Nack { from: 1 })]
        );
        // The NACK recovers the lost PDU.
        let resent = s.on_msg(e(1), ToMsg::Nack { from: 1 }, deadline);
        assert_eq!(resent.len(), 1);
        if let Out::Send(_, m) = &resent[0] {
            assert_eq!(
                deliveries(&b.on_msg(e(0), m.clone(), deadline)),
                vec![(0, 1)]
            );
        }
    }

    #[test]
    fn heartbeats_are_finite() {
        let mut s = SequencerEntity::new(e(0), 2);
        let _ = s.on_app(Bytes::from_static(b"x"), 0);
        let mut count = 0;
        let mut now = 0;
        while let Some(deadline) = s.next_deadline(now) {
            now = deadline;
            if !s.on_tick(now).is_empty() {
                count += 1;
            }
            assert!(count <= 5, "heartbeats must stop");
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn receivers_ignore_current_heartbeats() {
        let mut s = SequencerEntity::new(e(0), 2);
        let mut b = SequencerEntity::new(e(1), 2);
        let outs = s.on_app(Bytes::from_static(b"1"), 0);
        let m = match &outs[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        b.on_msg(e(0), m, 0);
        // B is caught up; a heartbeat announcing next_gseq = 2 is a no-op.
        assert!(b
            .on_msg(e(0), ToMsg::Heartbeat { next_gseq: 2 }, 1)
            .is_empty());
    }

    #[test]
    fn total_order_equals_global_seq() {
        // Two submitters; all receivers see the sequencer's single order.
        let mut s = SequencerEntity::new(e(0), 3);
        let mut b = SequencerEntity::new(e(1), 3);
        let mut c = SequencerEntity::new(e(2), 3);
        let sub_b = match &b.on_app(Bytes::from_static(b"b"), 0)[0] {
            Out::Send(_, m) => m.clone(),
            _ => panic!(),
        };
        let sub_c = match &c.on_app(Bytes::from_static(b"c"), 0)[0] {
            Out::Send(_, m) => m.clone(),
            _ => panic!(),
        };
        // Sequencer happens to order c's first.
        let o1 = match &s.on_msg(e(2), sub_c, 0)[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        let o2 = match &s.on_msg(e(1), sub_b, 0)[0] {
            Out::Broadcast(m) => m.clone(),
            _ => panic!(),
        };
        let log_b = [
            deliveries(&b.on_msg(e(0), o1.clone(), 0)),
            deliveries(&b.on_msg(e(0), o2.clone(), 0)),
        ]
        .concat();
        let log_c = [
            deliveries(&c.on_msg(e(0), o1, 0)),
            deliveries(&c.on_msg(e(0), o2, 0)),
        ]
        .concat();
        assert_eq!(log_b, log_c, "identical total order everywhere");
        assert_eq!(log_b, vec![(2, 1), (1, 1)]);
    }
}
