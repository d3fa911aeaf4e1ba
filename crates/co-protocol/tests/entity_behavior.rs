//! Behavioral tests of the CO protocol engine over a hand-wired,
//! synchronous test network (no simulator): every paper mechanism —
//! acceptance, F1/F2 loss detection, selective retransmission, PACK/ACK
//! staging, CPI ordering, flow control, deferred confirmation — exercised
//! in isolation with full control over message interleaving and loss.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{
    Action, Config, DeferralPolicy, Delivery, Entity, Pdu, ProtocolError, RetPdu,
    RetransmissionPolicy, SubmitOutcome,
};
use std::collections::VecDeque;

/// Decides whether a transmission (from, to, pdu) is dropped.
type DropFn = Box<dyn FnMut(EntityId, EntityId, &Pdu) -> bool>;

/// A synchronous fan-out network: broadcasts become per-receiver queue
/// entries; `run` drains until quiescent, ticking entities when stuck.
struct TestNet {
    entities: Vec<Entity>,
    queue: VecDeque<(EntityId, Pdu)>,
    delivered: Vec<Vec<Delivery>>,
    now: u64,
    /// Returning `true` drops the transmission (from, to, pdu).
    drop_fn: DropFn,
}

impl TestNet {
    fn new(n: usize, configure: impl Fn(usize) -> Config) -> Self {
        let entities: Vec<Entity> = (0..n)
            .map(|i| Entity::new(configure(i)).expect("valid config"))
            .collect();
        TestNet {
            delivered: vec![Vec::new(); n],
            entities,
            queue: VecDeque::new(),
            now: 0,
            drop_fn: Box::new(|_, _, _| false),
        }
    }

    fn immediate(n: usize) -> Self {
        TestNet::new(n, |i| {
            Config::builder(0, n, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Immediate)
                .build()
                .unwrap()
        })
    }

    fn entity(&self, i: usize) -> &Entity {
        &self.entities[i]
    }

    fn apply(&mut self, from: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(pdu) => {
                    for to in 0..self.entities.len() {
                        if to == from {
                            continue;
                        }
                        let drop = (self.drop_fn)(
                            EntityId::new(from as u32),
                            EntityId::new(to as u32),
                            &pdu,
                        );
                        if !drop {
                            self.queue
                                .push_back((EntityId::new(to as u32), pdu.clone()));
                        }
                    }
                }
                Action::Deliver(d) => self.delivered[from].push(d),
                // `Action` is #[non_exhaustive].
                _ => {}
            }
        }
    }

    fn submit(&mut self, i: usize, data: &[u8]) -> SubmitOutcome {
        self.now += 1;
        let (outcome, actions) = self.entities[i]
            .submit(Bytes::copy_from_slice(data), self.now)
            .expect("submit");
        self.apply(i, actions);
        outcome
    }

    /// Drains the network queue (FIFO per insertion order).
    fn drain(&mut self) {
        let mut steps = 0;
        while let Some((to, pdu)) = self.queue.pop_front() {
            self.now += 1;
            let mut actions = Vec::new();
            self.entities[to.index()]
                .on_pdu(pdu, self.now, &mut actions)
                .expect("on_pdu");
            self.apply(to.index(), actions);
            steps += 1;
            assert!(steps < 1_000_000, "network did not quiesce");
        }
    }

    /// Drains, then repeatedly fires timers until everything is quiescent.
    fn run(&mut self) {
        self.drain();
        for _ in 0..10_000 {
            if self.entities.iter().all(Entity::is_quiescent) && self.queue.is_empty() {
                return;
            }
            // Jump past every entity's next deadline.
            let next = self
                .entities
                .iter()
                .filter_map(|e| e.next_deadline(self.now))
                .min()
                .unwrap_or(self.now + 100_000);
            self.now = self.now.max(next) + 1;
            for i in 0..self.entities.len() {
                let actions = self.entities[i].on_tick(self.now);
                self.apply(i, actions);
            }
            self.drain();
        }
        panic!("network never became quiescent");
    }

    fn log(&self, i: usize) -> Vec<(u32, u64)> {
        self.delivered[i]
            .iter()
            .map(|d| (d.src.raw(), d.seq.get()))
            .collect()
    }

    fn payloads(&self, i: usize) -> Vec<Vec<u8>> {
        self.delivered[i].iter().map(|d| d.data.to_vec()).collect()
    }
}

#[test]
fn single_message_reaches_every_application() {
    let mut net = TestNet::immediate(2);
    assert_eq!(net.submit(0, b"hello"), SubmitOutcome::Sent(Seq::FIRST));
    net.run();
    assert_eq!(net.payloads(0), vec![b"hello".to_vec()]);
    assert_eq!(net.payloads(1), vec![b"hello".to_vec()]);
}

#[test]
fn sender_delivers_its_own_message() {
    let mut net = TestNet::immediate(3);
    net.submit(1, b"mine");
    net.run();
    assert_eq!(net.log(1), vec![(1, 1)]);
}

#[test]
fn fifo_order_from_one_sender() {
    let mut net = TestNet::immediate(3);
    for k in 0..5 {
        net.submit(0, &[k]);
    }
    net.run();
    for i in 0..3 {
        assert_eq!(
            net.log(i),
            vec![(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
            "entity {i}"
        );
        assert_eq!(
            net.payloads(i),
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
    }
}

#[test]
fn figure_2_causal_chain_ordered_everywhere() {
    // E1 sends g then p; E2 sends q after receiving both; every entity must
    // deliver q after p after g.
    let mut net = TestNet::immediate(3);
    net.submit(0, b"g");
    net.submit(0, b"p");
    net.drain();
    net.submit(1, b"q");
    net.run();
    for i in 0..3 {
        let log = net.log(i);
        let pos = |m: (u32, u64)| log.iter().position(|&x| x == m).unwrap();
        assert!(pos((0, 1)) < pos((0, 2)), "entity {i}: g before p");
        assert!(pos((0, 2)) < pos((1, 1)), "entity {i}: p before q");
    }
}

#[test]
fn concurrent_messages_all_delivered() {
    // Two entities broadcast without having seen each other's message:
    // causally concurrent, so relative order may differ but both must be
    // delivered exactly once everywhere.
    let mut net = TestNet::immediate(3);
    {
        // Submit at both before any drain → truly concurrent.
        net.submit(0, b"x");
        net.submit(1, b"y");
    }
    net.run();
    for i in 0..3 {
        let mut log = net.log(i);
        log.sort_unstable();
        assert_eq!(log, vec![(0, 1), (1, 1)], "entity {i}");
    }
}

#[test]
fn delivery_is_causal_not_necessarily_total() {
    // A longer mixed run: each entity interleaves sends; afterwards every
    // pair (p, q) with p ⇒ q must be ordered p-then-q in every log.
    let mut net = TestNet::immediate(3);
    for round in 0..4 {
        for i in 0..3 {
            net.submit(i, &[round as u8, i as u8]);
            net.drain();
        }
    }
    net.run();
    // With full drains between submits everything is causally chained, so
    // all three logs must be identical.
    assert_eq!(net.log(0), net.log(1));
    assert_eq!(net.log(1), net.log(2));
    assert_eq!(net.log(0).len(), 12);
}

#[test]
fn f1_detection_and_selective_recovery() {
    let mut net = TestNet::immediate(2);
    // Drop E1's first DATA transmission to E2 only.
    let mut dropped = false;
    net.drop_fn = Box::new(move |from, _to, pdu| {
        if !dropped
            && from == EntityId::new(0)
            && matches!(pdu, Pdu::Data(d) if d.seq == Seq::FIRST)
        {
            dropped = true;
            return true;
        }
        false
    });
    net.submit(0, b"lost");
    net.submit(0, b"later");
    net.run();
    assert_eq!(net.log(1), vec![(0, 1), (0, 2)], "gap repaired in order");
    let m = net.entity(1).metrics();
    assert!(m.f1_detections() >= 1, "gap must be detected via F1");
    assert!(m.ret_sent() >= 1, "a RET must have been broadcast");
    assert_eq!(
        m.accepted_from_reorder(),
        1,
        "the buffered PDU is accepted after repair"
    );
    let m0 = net.entity(0).metrics();
    assert!(m0.retransmissions_sent() >= 1, "source must rebroadcast");
}

#[test]
fn f2_detection_via_third_party_ack() {
    // E1 broadcasts p; the copy to E3 is lost. E2's confirmation (carrying
    // ACK_1 = 2) reaches E3 first and triggers failure condition F2.
    let mut net = TestNet::immediate(3);
    let mut dropped = false;
    net.drop_fn = Box::new(move |from, to, pdu| {
        if !dropped
            && from == EntityId::new(0)
            && to == EntityId::new(2)
            && matches!(pdu, Pdu::Data(_))
        {
            dropped = true;
            return true;
        }
        false
    });
    net.submit(0, b"p");
    net.run();
    assert_eq!(net.log(2), vec![(0, 1)]);
    assert!(
        net.entity(2).metrics().f2_detections() >= 1,
        "loss must be detected from a third party's ack vector"
    );
}

#[test]
fn duplicates_are_ignored() {
    let mut net = TestNet::immediate(2);
    net.submit(0, b"a");
    net.drain();
    // Manually re-inject the same DATA PDU.
    let dup = {
        let mut e = Entity::new(
            Config::builder(0, 2, EntityId::new(0))
                .deferral(DeferralPolicy::Immediate)
                .build()
                .unwrap(),
        )
        .unwrap();
        let (_, actions) = e.submit(Bytes::from_static(b"a"), 0).unwrap();
        actions
            .into_iter()
            .find_map(|a| match a {
                Action::Broadcast(p @ Pdu::Data(_)) => Some(p),
                _ => None,
            })
            .unwrap()
    };
    let before = net.entity(1).metrics().duplicates();
    let mut actions = Vec::new();
    net.entities[1].on_pdu(dup, 99, &mut actions).unwrap();
    net.apply(1, actions);
    net.run();
    assert_eq!(net.entity(1).metrics().duplicates(), before + 1);
    assert_eq!(net.log(1), vec![(0, 1)], "no double delivery");
}

#[test]
fn flow_control_queues_and_flushes() {
    let n = 2;
    let mut net = TestNet::new(n, |i| {
        Config::builder(0, n, EntityId::new(i as u32))
            .deferral(DeferralPolicy::Immediate)
            .window(2)
            .build()
            .unwrap()
    });
    // Window of 2: the 3rd..5th submits must queue.
    let outcomes: Vec<SubmitOutcome> = (0..5u8).map(|k| net.submit(0, &[k])).collect();
    assert_eq!(outcomes[0], SubmitOutcome::Sent(Seq::new(1)));
    assert_eq!(outcomes[1], SubmitOutcome::Sent(Seq::new(2)));
    assert_eq!(outcomes[2..], vec![SubmitOutcome::Queued; 3][..]);
    assert!(net.entity(0).metrics().flow_blocked() >= 3);
    net.run();
    assert_eq!(
        net.log(1).len(),
        5,
        "queued payloads flushed as window opens"
    );
    assert_eq!(net.log(0).len(), 5);
}

#[test]
fn go_back_n_mode_recovers_too() {
    let n = 2;
    let mut net = TestNet::new(n, |i| {
        Config::builder(0, n, EntityId::new(i as u32))
            .deferral(DeferralPolicy::Immediate)
            .retransmission(RetransmissionPolicy::GoBackN)
            .build()
            .unwrap()
    });
    let mut dropped = false;
    net.drop_fn = Box::new(move |from, _, pdu| {
        if !dropped
            && from == EntityId::new(0)
            && matches!(pdu, Pdu::Data(d) if d.seq == Seq::FIRST)
        {
            dropped = true;
            return true;
        }
        false
    });
    net.submit(0, b"one");
    net.submit(0, b"two");
    net.submit(0, b"three");
    net.run();
    assert_eq!(net.log(1), vec![(0, 1), (0, 2), (0, 3)]);
    let m = net.entity(1).metrics();
    assert!(
        m.discarded_out_of_order() >= 1,
        "go-back-n discards out-of-order PDUs"
    );
    assert_eq!(m.buffered_out_of_order(), 0, "go-back-n never buffers");
    // Go-back-n resends more than was lost (1 lost, ≥2 resent).
    assert!(net.entity(0).metrics().retransmissions_sent() >= 2);
}

#[test]
fn selective_resends_only_the_gap() {
    let n = 2;
    let mut net = TestNet::new(n, |i| {
        Config::builder(0, n, EntityId::new(i as u32))
            .deferral(DeferralPolicy::Immediate)
            .build()
            .unwrap()
    });
    let mut dropped = false;
    net.drop_fn = Box::new(move |from, _, pdu| {
        if !dropped
            && from == EntityId::new(0)
            && matches!(pdu, Pdu::Data(d) if d.seq == Seq::new(2))
        {
            dropped = true;
            return true;
        }
        false
    });
    for k in 0..5u8 {
        net.submit(0, &[k]);
    }
    net.run();
    assert_eq!(net.log(1).len(), 5);
    assert_eq!(
        net.entity(0).metrics().retransmissions_sent(),
        1,
        "selective retransmission resends exactly the lost PDU"
    );
}

#[test]
fn forged_ret_lseq_is_clamped_to_what_was_sent() {
    let mut sender = Entity::new(
        Config::builder(0, 2, EntityId::new(0))
            .deferral(DeferralPolicy::Immediate)
            .build()
            .unwrap(),
    )
    .unwrap();
    for k in 0..3u8 {
        sender.submit(Bytes::copy_from_slice(&[k]), 0).unwrap();
    }
    // Claims to hold seq 1 and asks for everything up to u64::MAX.
    let forged = Pdu::Ret(RetPdu {
        cid: 0,
        src: EntityId::new(1),
        lsrc: EntityId::new(0),
        lseq: Seq::new(u64::MAX),
        ack: vec![Seq::new(2), Seq::FIRST],
        buf: 64,
    });
    let mut out = Vec::new();
    sender.on_pdu(forged, 10, &mut out).unwrap();
    assert_eq!(
        resent(&out),
        [Seq::new(2), Seq::new(3)],
        "the send log's tail"
    );
    assert_eq!(sender.metrics().retransmissions_sent(), 2);
    assert_eq!(
        sender.metrics().ret_unservable(),
        0,
        "sequence numbers never sent are not an unservable span"
    );
}

/// The data PDUs a batch of actions rebroadcasts.
fn resent(actions: &[Action]) -> Vec<Seq> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Broadcast(Pdu::Data(d)) => Some(d.seq),
            _ => None,
        })
        .collect()
}

#[test]
fn forged_ret_start_counts_a_flow_window_of_the_pruned_span_at_most() {
    const W: u64 = 2;
    let mut net = TestNet::new(2, |i| {
        Config::builder(0, 2, EntityId::new(i as u32))
            .deferral(DeferralPolicy::Immediate)
            .window(W)
            .build()
            .unwrap()
    });
    // Four broadcasts run to stability: acknowledged everywhere, pruned.
    for k in 0..4u8 {
        net.submit(0, &[k]);
        net.run();
    }
    assert!(net.entity(0).export_state().fifo.send_log.is_empty());
    // A fifth stays in the log: its only receiver never sees it.
    net.drop_fn = Box::new(|_, _, _| true);
    net.submit(0, &[4]);
    let ret = |from: u64| {
        Pdu::Ret(RetPdu {
            cid: 0,
            src: EntityId::new(1),
            lsrc: EntityId::new(0),
            lseq: Seq::new(6),
            ack: vec![Seq::new(from), Seq::FIRST],
            buf: 64,
        })
    };
    // Claims to hold nothing of E_0's and asks for all five.
    let mut out = Vec::new();
    net.entities[0].on_pdu(ret(1), 1_000, &mut out).unwrap();
    assert_eq!(resent(&out), [], "sequence numbers 1 and 2 are long gone");
    assert_eq!(
        net.entity(0).metrics().ret_unservable(),
        W,
        "a window's worth of the pruned span, not all four"
    );
    // The request an honest E_1 would send is served as before.
    net.entities[0].on_pdu(ret(5), 1_001, &mut out).unwrap();
    assert_eq!(resent(&out), [Seq::new(5)]);
    assert_eq!(net.entity(0).metrics().ret_unservable(), W);
}

#[test]
fn one_ret_is_served_a_flow_window_at_most() {
    const W: u64 = 2;
    let mut sender = Entity::new(
        Config::builder(0, 2, EntityId::new(0))
            .deferral(DeferralPolicy::Immediate)
            .window(W)
            .build()
            .unwrap(),
    )
    .unwrap();
    // E_1 confirms acceptance (so the window keeps opening) but never a
    // pre-acknowledgment (so nothing is pruned): the log outgrows W.
    let mut sent = 0u64;
    for round in 0..3u64 {
        for _ in 0..W {
            sent += 1;
            let (outcome, _) = sender.submit(Bytes::from_static(b"x"), round).unwrap();
            assert_eq!(outcome, SubmitOutcome::Sent(Seq::new(sent)));
        }
        let accepted = Pdu::AckOnly(co_protocol::AckOnlyPdu {
            cid: 0,
            src: EntityId::new(1),
            ack: vec![Seq::new(sent + 1), Seq::FIRST],
            packed: vec![Seq::FIRST, Seq::FIRST],
            acked: vec![Seq::FIRST, Seq::FIRST],
            buf: 64,
        });
        sender.on_pdu(accepted, round, &mut Vec::new()).unwrap();
    }
    assert_eq!(sender.export_state().fifo.send_log.len() as u64, 3 * W);
    // Asks for the whole log at once.
    let forged = Pdu::Ret(RetPdu {
        cid: 0,
        src: EntityId::new(1),
        lsrc: EntityId::new(0),
        lseq: Seq::new(u64::MAX),
        ack: vec![Seq::FIRST, Seq::FIRST],
        buf: 64,
    });
    let mut out = Vec::new();
    sender.on_pdu(forged, 10, &mut out).unwrap();
    assert_eq!(
        resent(&out),
        [Seq::new(1), Seq::new(2)],
        "W PDUs, oldest first"
    );
    assert_eq!(sender.metrics().retransmissions_sent(), W);
    assert_eq!(sender.metrics().ret_unservable(), 0);
}

#[test]
fn deferred_mode_delivers_with_timers() {
    let n = 3;
    let mut net = TestNet::new(n, |i| {
        Config::builder(0, n, EntityId::new(i as u32))
            .deferral(DeferralPolicy::Deferred { timeout_us: 1_000 })
            .build()
            .unwrap()
    });
    net.submit(0, b"deferred");
    net.run();
    for i in 0..3 {
        assert_eq!(net.log(i), vec![(0, 1)], "entity {i}");
    }
}

#[test]
fn deferred_mode_batches_confirmations() {
    let n = 3;
    let burst = 20u8;
    let run = |policy: DeferralPolicy| {
        let mut net = TestNet::new(n, |i| {
            Config::builder(0, n, EntityId::new(i as u32))
                .deferral(policy)
                .window(64)
                .build()
                .unwrap()
        });
        for k in 0..burst {
            net.submit(0, &[k]);
        }
        net.run();
        assert_eq!(net.log(1).len(), burst as usize);
        net.entities
            .iter()
            .map(|e| e.metrics().ack_only_sent())
            .sum::<u64>()
    };
    let immediate = run(DeferralPolicy::Immediate);
    let deferred = run(DeferralPolicy::Deferred { timeout_us: 1_000 });
    assert!(
        deferred * 2 < immediate,
        "deferred confirmation must send far fewer ack-only PDUs \
         (deferred {deferred} vs immediate {immediate})"
    );
}

#[test]
fn pack_before_ack_stages() {
    // After E2 merely *accepts* p it must not deliver: delivery requires
    // the full acknowledgment round.
    let mut net = TestNet::immediate(2);
    let (_, actions) = net.entities[0].submit(Bytes::from_static(b"p"), 1).unwrap();
    let pdu = actions
        .iter()
        .find_map(|a| match a {
            Action::Broadcast(p) => Some(p.clone()),
            _ => None,
        })
        .unwrap();
    let mut actions2 = Vec::new();
    net.entities[1].on_pdu(pdu, 2, &mut actions2).unwrap();
    let delivered_immediately = actions2.iter().any(|a| matches!(a, Action::Deliver(_)));
    assert!(
        !delivered_immediately,
        "acceptance alone must not deliver (atomic-receipt staging)"
    );
    // min_al for E1 at E2 is 2 (self-inference) but min_pal is not.
    assert_eq!(net.entity(1).min_al(EntityId::new(0)), Seq::new(2));
    assert_eq!(net.entity(1).min_pal(EntityId::new(0)), Seq::new(1));
}

#[test]
fn wrong_cluster_rejected() {
    let mut e = Entity::new(Config::builder(7, 2, EntityId::new(0)).build().unwrap()).unwrap();
    let pdu = Pdu::AckOnly(co_protocol::AckOnlyPdu {
        cid: 8,
        src: EntityId::new(1),
        ack: vec![Seq::FIRST; 2],
        packed: vec![Seq::FIRST; 2],
        acked: vec![Seq::FIRST; 2],
        buf: 0,
    });
    assert_eq!(
        e.on_pdu(pdu, 0, &mut Vec::new()),
        Err(ProtocolError::WrongCluster {
            expected: 7,
            found: 8
        })
    );
}

#[test]
fn looped_back_pdu_rejected() {
    let mut e = Entity::new(Config::builder(0, 2, EntityId::new(0)).build().unwrap()).unwrap();
    let pdu = Pdu::AckOnly(co_protocol::AckOnlyPdu {
        cid: 0,
        src: EntityId::new(0),
        ack: vec![Seq::FIRST; 2],
        packed: vec![Seq::FIRST; 2],
        acked: vec![Seq::FIRST; 2],
        buf: 0,
    });
    assert_eq!(
        e.on_pdu(pdu, 0, &mut Vec::new()),
        Err(ProtocolError::LoopedBack)
    );
}

#[test]
fn bad_ack_length_rejected() {
    let mut e = Entity::new(Config::builder(0, 3, EntityId::new(0)).build().unwrap()).unwrap();
    let pdu = Pdu::AckOnly(co_protocol::AckOnlyPdu {
        cid: 0,
        src: EntityId::new(1),
        ack: vec![Seq::FIRST; 2],
        packed: vec![Seq::FIRST; 3],
        acked: vec![Seq::FIRST; 3],
        buf: 0,
    });
    assert_eq!(
        e.on_pdu(pdu, 0, &mut Vec::new()),
        Err(ProtocolError::BadAckLength {
            expected: 3,
            found: 2
        })
    );
}

#[test]
fn oversized_payload_rejected() {
    let mut e = Entity::new(
        Config::builder(0, 2, EntityId::new(0))
            .max_payload(4)
            .build()
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        e.submit(Bytes::from_static(b"too long"), 0).unwrap_err(),
        ProtocolError::PayloadTooLarge { size: 8, max: 4 }
    );
}

#[test]
fn quiescence_and_buffer_accounting() {
    let mut net = TestNet::immediate(3);
    assert!(net.entity(0).is_quiescent());
    net.submit(0, b"z");
    assert!(
        !net.entity(0).is_quiescent(),
        "own PDU sits in RRL until pre-acked"
    );
    net.run();
    for i in 0..3 {
        assert!(net.entity(i).is_quiescent(), "entity {i} must drain");
        assert!(net.entity(i).peak_held_pdus() >= 1);
        assert_eq!(
            net.entity(i).free_buffer_units(),
            net.entity(i).config().buffer_units
        );
    }
}

#[test]
fn metrics_add_up_on_clean_run() {
    let mut net = TestNet::immediate(3);
    for k in 0..4u8 {
        net.submit(0, &[k]);
        net.submit(1, &[100 + k]);
    }
    net.run();
    for i in 0..3 {
        let m = net.entity(i).metrics();
        assert_eq!(m.delivered(), 8, "entity {i}");
        assert_eq!(
            m.loss_detections(),
            0,
            "no loss on a clean run (entity {i})"
        );
        assert_eq!(m.retransmissions_sent(), 0);
    }
    assert_eq!(net.entity(0).metrics().data_sent(), 4);
    assert_eq!(net.entity(2).metrics().data_sent(), 0);
    // Every data PDU is accepted at both remote entities plus self.
    assert_eq!(net.entity(2).metrics().accepted(), 8);
}

#[test]
fn ret_suppression_limits_duplicate_requests() {
    let mut net = TestNet::immediate(2);
    // Drop the first transmission of each of seqs 1..=3 so many
    // F-condition hits target the same gap.
    let mut dropped = std::collections::HashSet::new();
    net.drop_fn = Box::new(move |from, _, pdu| {
        if from == EntityId::new(0) {
            if let Pdu::Data(d) = pdu {
                if d.seq <= Seq::new(3) && dropped.insert(d.seq) {
                    return true;
                }
            }
        }
        false
    });
    for k in 0..6u8 {
        net.submit(0, &[k]);
    }
    net.run();
    assert_eq!(net.log(1).len(), 6);
    let m = net.entity(1).metrics();
    assert!(
        m.ret_suppressed() > 0,
        "repeated detections of one gap must be suppressed"
    );
}

#[test]
fn min_al_advances_with_confirmations() {
    let mut net = TestNet::immediate(2);
    net.submit(0, b"p");
    assert_eq!(net.entity(0).min_al(EntityId::new(0)), Seq::new(1));
    net.run();
    // After the run everyone knows everyone accepted p.
    assert_eq!(net.entity(0).min_al(EntityId::new(0)), Seq::new(2));
    assert_eq!(net.entity(1).min_al(EntityId::new(0)), Seq::new(2));
    assert_eq!(net.entity(0).min_pal(EntityId::new(0)), Seq::new(2));
    assert_eq!(net.entity(1).min_pal(EntityId::new(0)), Seq::new(2));
}

#[test]
fn req_vector_tracks_acceptance() {
    let mut net = TestNet::immediate(2);
    net.submit(0, b"a");
    net.submit(0, b"b");
    net.run();
    assert_eq!(net.entity(1).req()[0], Seq::new(3));
    assert_eq!(net.entity(1).req()[1], Seq::new(1), "nothing sent by E2");
    assert_eq!(
        net.entity(0).req()[0],
        Seq::new(3),
        "self-acceptance counted"
    );
}
