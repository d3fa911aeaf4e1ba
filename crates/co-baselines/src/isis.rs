//! ISIS **CBCAST** (Birman–Schiper–Stephenson): causal broadcast by vector
//! clocks over reliable FIFO channels — the system §1 and §5 compare the CO
//! protocol against.
//!
//! Per the classic delivery rule, a message `m` from `E_j` carrying vector
//! timestamp `VT(m)` is delivered at `E_i` when
//!
//! * `VT(m)[j] == VT_i[j] + 1` (next from the sender), and
//! * `VT(m)[k] <= VT_i[k]` for every `k ≠ j` (all of `m`'s causal
//!   predecessors have been delivered).
//!
//! Unlike the CO protocol, CBCAST **assumes the transport is reliable**
//! ("The CBCAST protocol is implemented on the reliable transport service
//! where every PDU is guaranteed to be delivered", §1). Vector clocks alone
//! cannot distinguish "lost" from "not yet sent": on loss this entity
//! simply holds messages forever — exactly the behaviour the `vs_isis`
//! experiment demonstrates.

use bytes::Bytes;
use causal_order::{EntityId, VectorClock};

use crate::traits::{AppDelivery, Broadcaster, Out};

/// A CBCAST message: payload plus vector timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbcastMsg {
    /// Originating entity.
    pub src: EntityId,
    /// Vector timestamp at the send event.
    pub vt: VectorClock,
    /// Application payload.
    pub data: Bytes,
}

/// One CBCAST entity.
#[derive(Debug)]
pub struct CbcastEntity {
    me: EntityId,
    n: usize,
    /// Delivered-message vector clock (`VT_i`).
    vt: VectorClock,
    /// Messages received but not yet deliverable.
    held: Vec<CbcastMsg>,
    /// Count of vector-clock comparisons performed (the "more computation"
    /// cost §5 attributes to virtual clocks; read by the experiments).
    pub comparisons: u64,
}

impl CbcastEntity {
    /// Creates entity `me` of a cluster of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `me` is out of range.
    pub fn new(me: EntityId, n: usize) -> Self {
        assert!(n >= 2 && me.index() < n, "invalid cluster");
        CbcastEntity {
            me,
            n,
            vt: VectorClock::new(n),
            held: Vec::new(),
            comparisons: 0,
        }
    }

    /// Number of messages stuck in the hold queue.
    pub fn held_messages(&self) -> usize {
        self.held.len()
    }

    /// The current delivered-message vector clock.
    pub fn vt(&self) -> &VectorClock {
        &self.vt
    }

    fn deliverable(&mut self, msg: &CbcastMsg) -> bool {
        let j = msg.src;
        self.comparisons += self.n as u64;
        if msg.vt.get(j) != self.vt.get(j) + 1 {
            return false;
        }
        (0..self.n).all(|k| {
            let k = EntityId::new(k as u32);
            k == j || msg.vt.get(k) <= self.vt.get(k)
        })
    }

    fn deliver(&mut self, msg: CbcastMsg, outs: &mut Vec<Out<CbcastMsg>>) {
        self.vt.set(msg.src, msg.vt.get(msg.src));
        outs.push(Out::Deliver(AppDelivery {
            origin: msg.src,
            origin_seq: msg.vt.get(msg.src),
            data: msg.data,
        }));
    }

    /// Repeatedly sweeps the hold queue until nothing more is deliverable.
    fn drain_held(&mut self, outs: &mut Vec<Out<CbcastMsg>>) {
        loop {
            let idx = (0..self.held.len()).find(|&i| {
                let msg = self.held[i].clone();
                self.deliverable(&msg)
            });
            match idx {
                Some(i) => {
                    let msg = self.held.remove(i);
                    self.deliver(msg, outs);
                }
                None => break,
            }
        }
    }
}

impl Broadcaster for CbcastEntity {
    type Msg = CbcastMsg;

    fn on_app(&mut self, data: Bytes, _now_us: u64) -> Vec<Out<CbcastMsg>> {
        self.vt.tick(self.me);
        let msg = CbcastMsg {
            src: self.me,
            vt: self.vt.clone(),
            data,
        };
        // CBCAST delivers locally at once (the send event precedes
        // everything that follows at this site).
        vec![
            Out::Broadcast(msg.clone()),
            Out::Deliver(AppDelivery {
                origin: self.me,
                origin_seq: msg.vt.get(self.me),
                data: msg.data,
            }),
        ]
    }

    fn on_msg(&mut self, _from: EntityId, msg: CbcastMsg, _now_us: u64) -> Vec<Out<CbcastMsg>> {
        let mut outs = Vec::new();
        if self.deliverable(&msg.clone()) {
            self.deliver(msg, &mut outs);
            self.drain_held(&mut outs);
        } else {
            self.held.push(msg);
        }
        outs
    }

    fn is_quiescent(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    fn broadcast_of(outs: &[Out<CbcastMsg>]) -> CbcastMsg {
        outs.iter()
            .find_map(|o| match o {
                Out::Broadcast(m) => Some(m.clone()),
                _ => None,
            })
            .expect("broadcast present")
    }

    fn deliveries(outs: &[Out<CbcastMsg>]) -> Vec<(u32, u64)> {
        outs.iter()
            .filter_map(|o| match o {
                Out::Deliver(d) => Some((d.origin.raw(), d.origin_seq)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_message_delivered_immediately() {
        let mut a = CbcastEntity::new(e(0), 2);
        let mut b = CbcastEntity::new(e(1), 2);
        let outs = a.on_app(Bytes::from_static(b"m"), 0);
        assert_eq!(deliveries(&outs), vec![(0, 1)], "self-delivery");
        let m = broadcast_of(&outs);
        let outs_b = b.on_msg(e(0), m, 0);
        assert_eq!(deliveries(&outs_b), vec![(0, 1)]);
        assert!(b.is_quiescent());
    }

    #[test]
    fn causally_early_message_held_back() {
        // E1 sends m1; E2 delivers m1 then sends m2. E3 receives m2 BEFORE
        // m1: CBCAST must hold m2 until m1 arrives.
        let mut e1 = CbcastEntity::new(e(0), 3);
        let mut e2 = CbcastEntity::new(e(1), 3);
        let mut e3 = CbcastEntity::new(e(2), 3);
        let m1 = broadcast_of(&e1.on_app(Bytes::from_static(b"m1"), 0));
        e2.on_msg(e(0), m1.clone(), 0);
        let m2 = broadcast_of(&e2.on_app(Bytes::from_static(b"m2"), 0));
        // m2 first: held.
        let outs = e3.on_msg(e(1), m2, 0);
        assert!(deliveries(&outs).is_empty());
        assert_eq!(e3.held_messages(), 1);
        assert!(!e3.is_quiescent());
        // m1 arrives: both deliver, in causal order.
        let outs = e3.on_msg(e(0), m1, 0);
        assert_eq!(deliveries(&outs), vec![(0, 1), (1, 1)]);
        assert!(e3.is_quiescent());
    }

    #[test]
    fn concurrent_messages_deliver_in_arrival_order() {
        let mut e1 = CbcastEntity::new(e(0), 3);
        let mut e2 = CbcastEntity::new(e(1), 3);
        let mut e3 = CbcastEntity::new(e(2), 3);
        let m1 = broadcast_of(&e1.on_app(Bytes::from_static(b"a"), 0));
        let m2 = broadcast_of(&e2.on_app(Bytes::from_static(b"b"), 0));
        let o1 = e3.on_msg(e(1), m2, 0);
        let o2 = e3.on_msg(e(0), m1, 0);
        assert_eq!(deliveries(&o1), vec![(1, 1)]);
        assert_eq!(deliveries(&o2), vec![(0, 1)]);
    }

    #[test]
    fn loss_stalls_forever() {
        // The paper's point: vector clocks cannot *detect* loss. Drop m1;
        // everything causally after it from that sender stays held, with no
        // retransmission mechanism to ask for it.
        let mut e1 = CbcastEntity::new(e(0), 2);
        let mut e2 = CbcastEntity::new(e(1), 2);
        let _m1_lost = broadcast_of(&e1.on_app(Bytes::from_static(b"lost"), 0));
        let m2 = broadcast_of(&e1.on_app(Bytes::from_static(b"after"), 0));
        let outs = e2.on_msg(e(0), m2, 0);
        assert!(deliveries(&outs).is_empty());
        assert_eq!(e2.held_messages(), 1);
        // No tick/deadline machinery exists to recover.
        assert_eq!(e2.next_deadline(0), None);
        assert!(e2.on_tick(1_000_000).is_empty());
        assert!(!e2.is_quiescent());
    }

    #[test]
    fn fifo_per_sender_enforced_by_clock_rule() {
        let mut e1 = CbcastEntity::new(e(0), 2);
        let mut e2 = CbcastEntity::new(e(1), 2);
        let m1 = broadcast_of(&e1.on_app(Bytes::from_static(b"1"), 0));
        let m2 = broadcast_of(&e1.on_app(Bytes::from_static(b"2"), 0));
        // Reversed arrival: m2 held, then both delivered in order.
        assert!(deliveries(&e2.on_msg(e(0), m2, 0)).is_empty());
        assert_eq!(deliveries(&e2.on_msg(e(0), m1, 0)), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn comparison_counter_grows() {
        let mut e1 = CbcastEntity::new(e(0), 4);
        let mut e2 = CbcastEntity::new(e(1), 4);
        let m = broadcast_of(&e1.on_app(Bytes::from_static(b"x"), 0));
        e2.on_msg(e(0), m, 0);
        assert!(e2.comparisons >= 4, "one O(n) clock comparison at least");
    }

    #[test]
    #[should_panic(expected = "invalid cluster")]
    fn invalid_cluster_rejected() {
        let _ = CbcastEntity::new(e(5), 3);
    }
}
