//! The three service levels of §1, demonstrated side by side:
//!
//! * the PO/FIFO baseline provides only the **LO** service and *does*
//!   violate causality in Figure 2's scenario;
//! * the CO protocol provides the **CO** service there;
//! * the TO baseline provides a total order (which implies CO only because
//!   the sequencer serializes; its cost profile differs);
//! * ISIS CBCAST matches CO on a reliable network but strands messages
//!   under loss.

use bytes::Bytes;
use causal_order::properties::RunTrace;
use causal_order::{EntityId, MsgId};
use co_baselines::{BroadcasterNode, CbcastEntity, FifoCore, SequencerEntity};
use co_protocol::{
    Action, CoCore, Config, DeferralPolicy, DeliveryCore, Entity, NoopObserver, Pdu,
};
use mc_net::{LossModel, SimConfig, SimTime, Simulator};

fn e(i: u32) -> EntityId {
    EntityId::new(i)
}

/// Figure 2 with adversarial arrival order at E3, on delivery core `C`:
/// E1 broadcasts m1, E2 delivers it and answers with m2, and E3 receives
/// m2 (the effect) *before* m1 (its cause). Returns what E3's application
/// saw, in order.
fn figure2_at_e3<C: DeliveryCore>() -> Vec<(EntityId, u64)> {
    const LATER: u64 = 1_000_000;
    let mut entities: Vec<Entity<C>> = (0..3)
        .map(|i| {
            let config = Config::builder(0, 3, e(i))
                .deferral(DeferralPolicy::Immediate)
                .build()
                .unwrap();
            Entity::with_observer(config, NoopObserver).unwrap()
        })
        .collect();
    let data_pdu = |actions: &[Action]| {
        let data = actions.iter().find_map(|a| match a {
            Action::Broadcast(pdu @ Pdu::Data(_)) => Some(pdu.clone()),
            _ => None,
        });
        data.expect("a data PDU")
    };
    let (_, out1) = entities[0].submit(Bytes::from_static(b"m1"), 0).unwrap();
    let m1 = data_pdu(&out1);
    // E2 receives m1, then replies with m2 (its confirmations ride along).
    let mut out2 = Vec::new();
    entities[1].on_pdu(m1.clone(), 1, &mut out2).unwrap();
    entities[1]
        .submit_with(Bytes::from_static(b"m2"), 2, &mut out2)
        .unwrap();
    let m2 = data_pdu(&out2);

    // Feeds `pdu` to entity `to`: what it broadcasts goes in flight, what
    // E3 delivers goes in the log.
    let mut log = Vec::new();
    let mut inflight: Vec<(usize, Pdu)> = Vec::new();
    let mut feed = |entity: &mut Entity<C>, to: usize, pdu: Pdu, inflight: &mut Vec<_>| {
        let mut out = Vec::new();
        entity.on_pdu(pdu, LATER, &mut out).unwrap();
        for action in out {
            match action {
                Action::Broadcast(p) => inflight.push((to, p)),
                Action::Deliver(d) if to == 2 => log.push((d.src, d.seq.get())),
                _ => {}
            }
        }
    };
    // The adversarial order at E3: the effect, then its cause.
    feed(&mut entities[2], 2, m2, &mut inflight);
    feed(&mut entities[2], 2, m1, &mut inflight);
    // Then let confirmations flow until the cluster is quiet (bounded).
    for _ in 0..30 {
        for (i, entity) in entities.iter_mut().enumerate() {
            for action in entity.on_tick(LATER) {
                if let Action::Broadcast(p) = action {
                    inflight.push((i, p));
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        for (from, pdu) in std::mem::take(&mut inflight) {
            for to in (0..3).filter(|&to| to != from) {
                feed(&mut entities[to], to, pdu.clone(), &mut inflight);
            }
        }
    }
    log
}

/// The PO/FIFO comparator provides only the LO service and delivers m2
/// before its cause; the CO protocol, fed the identical arrival order
/// through the identical driver, holds the effect back.
#[test]
fn fifo_baseline_violates_causality_where_co_does_not() {
    assert_eq!(
        figure2_at_e3::<FifoCore>(),
        vec![(e(1), 1), (e(0), 1)],
        "FIFO delivers the effect first"
    );
    assert_eq!(
        figure2_at_e3::<CoCore>(),
        vec![(e(0), 1), (e(1), 1)],
        "CO must deliver the cause before the effect"
    );
}

#[test]
fn to_baseline_produces_a_total_order() {
    let n = 3;
    let nodes: Vec<BroadcasterNode<SequencerEntity>> = (0..n)
        .map(|i| BroadcasterNode::new(SequencerEntity::new(e(i as u32), n)))
        .collect();
    let mut sim = Simulator::new(SimConfig::default(), nodes);
    for k in 0..10u64 {
        for s in 0..n {
            sim.schedule_command(
                SimTime::from_micros(k * 100 + s as u64),
                e(s as u32),
                Bytes::from(vec![s as u8]),
            );
        }
    }
    sim.run_until_idle();
    let mut trace = RunTrace::new(n);
    // Record sends then deliveries per node (send interleaving is enough
    // for the total-order check, which only compares delivery logs).
    for (id, node) in sim.nodes() {
        for (k, _) in node.submitted().iter().enumerate() {
            trace.record_broadcast(id, MsgId(id.index() as u64 * 1000 + k as u64 + 1));
        }
    }
    for (id, node) in sim.nodes() {
        for d in node.delivered() {
            trace.record_delivery(id, MsgId(d.origin.index() as u64 * 1000 + d.origin_seq));
        }
    }
    trace
        .check_total_order()
        .expect("sequencer must produce one total order");
    trace
        .check_information_preserved()
        .expect("every message delivered everywhere");
}

#[test]
fn isis_strands_messages_under_loss_while_co_recovers() {
    let n = 3;
    let messages = 15;
    // ISIS over a lossy network.
    let nodes: Vec<BroadcasterNode<CbcastEntity>> = (0..n)
        .map(|i| BroadcasterNode::new(CbcastEntity::new(e(i as u32), n)))
        .collect();
    let mut sim = Simulator::new(
        SimConfig {
            loss: LossModel::Iid { p: 0.10 },
            seed: 3,
            ..SimConfig::default()
        },
        nodes,
    );
    for k in 0..messages {
        for s in 0..n {
            sim.schedule_command(
                SimTime::from_micros(k as u64 * 300),
                e(s as u32),
                Bytes::from(vec![s as u8]),
            );
        }
    }
    sim.run_until_idle();
    let isis_delivered: usize = sim.nodes().map(|(_, node)| node.delivered().len()).sum();
    assert!(
        isis_delivered < messages * n * n,
        "with 10% loss CBCAST must lose deliveries (got {isis_delivered})"
    );

    // The CO protocol over the *same* network parameters recovers fully.
    let result = co_experiments::run_co(&co_experiments::CoRunParams {
        n,
        messages_per_sender: messages,
        submit_interval_us: 300,
        sim: SimConfig {
            loss: LossModel::Iid { p: 0.10 },
            seed: 3,
            ..SimConfig::default()
        },
        ..co_experiments::CoRunParams::default()
    });
    assert!(result.all_delivered(), "CO must deliver everything");
}

#[test]
fn cbcast_matches_co_ordering_on_reliable_network() {
    // On a clean network both protocols preserve causality; verify CBCAST
    // with the oracle too.
    let n = 3;
    let nodes: Vec<BroadcasterNode<CbcastEntity>> = (0..n)
        .map(|i| BroadcasterNode::new(CbcastEntity::new(e(i as u32), n)))
        .collect();
    let mut sim = Simulator::new(SimConfig::default(), nodes);
    for k in 0..10u64 {
        for s in 0..n {
            sim.schedule_command(
                SimTime::from_micros(k * 2_000 + s as u64 * 100),
                e(s as u32),
                Bytes::from(vec![s as u8]),
            );
        }
    }
    sim.run_until_idle();
    let mut trace = RunTrace::new(n);
    for (id, node) in sim.nodes() {
        // CBCAST delivers own messages at submit time; the recorded
        // delivery log already interleaves correctly by construction.
        let mut submits = node.submitted().iter().peekable();
        let mut k = 0u64;
        for d in node.delivered() {
            // Emit any sends that happened before this delivery.
            while let Some(&&t) = submits.peek() {
                if t <= d.at {
                    k += 1;
                    trace.record_broadcast(id, MsgId(id.index() as u64 * 1000 + k));
                    submits.next();
                } else {
                    break;
                }
            }
            trace.record_delivery(id, MsgId(d.origin.index() as u64 * 1000 + d.origin_seq));
        }
        while submits.next().is_some() {
            k += 1;
            trace.record_broadcast(id, MsgId(id.index() as u64 * 1000 + k));
        }
    }
    trace
        .check_co_service()
        .expect("CBCAST is causally ordered on a reliable net");
}
