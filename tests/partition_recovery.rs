//! Partition and pause/recovery scenarios: the CO protocol's selective
//! retransmission plus stability heartbeats must repair arbitrarily long
//! receive outages, as long as the entity comes back (the paper's model
//! has no permanent crashes — §2.1's failure is PDU loss).

use bytes::Bytes;
use causal_order::EntityId;
use co_baselines::{EntityNode, NodeCmd};
use co_protocol::{Config, DeferralPolicy};
use mc_net::{LossModel, SimConfig, SimTime, Simulator, TimedRule};

fn cluster(n: usize, loss: LossModel) -> Simulator<EntityNode> {
    let nodes = (0..n)
        .map(|i| {
            let cfg = Config::builder(1, n, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Deferred { timeout_us: 2_000 })
                .build()
                .unwrap();
            EntityNode::new(cfg).unwrap()
        })
        .collect();
    Simulator::new(
        SimConfig {
            loss,
            ..SimConfig::default()
        },
        nodes,
    )
}

#[test]
fn paused_entity_catches_up_after_recovery() {
    // E3 hears nothing between 5ms and 60ms while the others broadcast
    // through the outage; afterwards it must recover the entire backlog.
    let n = 3;
    let victim = EntityId::new(2);
    let mut sim = cluster(
        n,
        LossModel::Timed {
            rules: vec![TimedRule::pause_receiver(victim, 5_000, 60_000)],
        },
    );
    for k in 0..30u64 {
        sim.schedule_command(
            SimTime::from_micros(k * 1_500),
            EntityId::new((k % 2) as u32), // senders E1 and E2 only
            NodeCmd::Submit(Bytes::from(format!("m{k}").into_bytes())),
        );
    }
    sim.run_until_idle();
    for (id, node) in sim.nodes() {
        assert_eq!(node.delivered().count(), 30, "at {id}");
    }
    let victim_metrics = sim.node(victim).entity().metrics();
    assert!(
        victim_metrics.loss_detections() > 0,
        "the outage must be detected as loss"
    );
    // The victim's deliveries are still in per-sender FIFO order.
    let log = sim.node(victim).delivery_log();
    for src in 0..2u32 {
        let seqs: Vec<u64> = log
            .iter()
            .filter(|(o, _)| *o == EntityId::new(src))
            .map(|&(_, s)| s)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }
}

#[test]
fn one_way_link_cut_is_repaired_via_third_parties() {
    // The E1→E2 link is dead for 40ms: E2 must learn of E1's PDUs through
    // E3's confirmations (failure condition F2) and recover them by RET —
    // retransmissions travel over the same dead link, so recovery completes
    // only after the cut heals; deliveries must still be complete and
    // ordered.
    let n = 3;
    let mut sim = cluster(
        n,
        LossModel::Timed {
            rules: vec![TimedRule::cut_link(
                EntityId::new(0),
                EntityId::new(1),
                0,
                40_000,
            )],
        },
    );
    for k in 0..10u64 {
        sim.schedule_command(
            SimTime::from_micros(k * 1_000),
            EntityId::new(0),
            NodeCmd::Submit(Bytes::from(format!("m{k}").into_bytes())),
        );
    }
    sim.run_until_idle();
    for (id, node) in sim.nodes() {
        assert_eq!(node.delivered().count(), 10, "at {id}");
    }
    assert!(
        sim.node(EntityId::new(1))
            .entity()
            .metrics()
            .f2_detections()
            > 0,
        "E2 must have learned about E1's PDUs from E3"
    );
}

#[test]
fn symmetric_partition_heals() {
    // Full bidirectional partition between {E1} and {E2, E3} for 30ms,
    // with traffic on both sides; afterwards all three converge.
    let n = 3;
    let rules = vec![
        TimedRule::cut_link(EntityId::new(0), EntityId::new(1), 0, 30_000),
        TimedRule::cut_link(EntityId::new(0), EntityId::new(2), 0, 30_000),
        TimedRule::cut_link(EntityId::new(1), EntityId::new(0), 0, 30_000),
        TimedRule::cut_link(EntityId::new(2), EntityId::new(0), 0, 30_000),
    ];
    let mut sim = cluster(n, LossModel::Timed { rules });
    for k in 0..12u64 {
        for s in 0..n {
            sim.schedule_command(
                SimTime::from_micros(k * 2_000),
                EntityId::new(s as u32),
                NodeCmd::Submit(Bytes::from(vec![s as u8, k as u8])),
            );
        }
    }
    sim.run_until_idle();
    for (id, node) in sim.nodes() {
        assert_eq!(node.delivered().count(), 36, "at {id}");
    }
    // Note: delivery is impossible *during* the partition (global
    // stability needs all entities), so everything arrives after healing —
    // the price of the atomic-receipt guarantee.
    let first_delivery = sim
        .nodes()
        .flat_map(|(_, node)| node.delivered().map(|(_, at)| at))
        .min()
        .unwrap();
    assert!(
        first_delivery >= SimTime::from_micros(30_000),
        "no delivery can complete while an entity is unreachable \
         (first at {first_delivery})"
    );
}
