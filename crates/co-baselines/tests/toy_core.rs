//! The fourth delivery core proves the substrate/policy seam: per-source
//! FIFO delivery and nothing else above [`co_protocol::ReliableFifo`]. This
//! is the only test that drives the substrate without any causal policy
//! above it — under burst loss, in both retransmission modes, and through
//! a state round-trip.

use bytes::Bytes;
use causal_order::EntityId;
use co_baselines::{EntityNode, FifoCore, NodeCmd};
use co_protocol::{Config, ConfigError, DeferralPolicy, Entity, RetransmissionPolicy};
use mc_net::{LossModel, SimConfig, SimTime, Simulator};

type Node = EntityNode<FifoCore>;

const N: usize = 4;
const PER_SENDER: u64 = 40;

fn run(retransmission: RetransmissionPolicy) -> Simulator<Node> {
    let nodes = (0..N)
        .map(|i| {
            let config = Config::builder(0, N, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Deferred { timeout_us: 2_000 })
                .retransmission(retransmission)
                .build()
                .expect("valid config");
            Node::new(config).expect("valid config")
        })
        .collect();
    let mut sim = Simulator::new(
        SimConfig {
            loss: LossModel::Burst {
                p_good: 0.01,
                p_bad: 0.6,
                to_bad: 0.05,
                to_good: 0.3,
            },
            seed: 7,
            ..SimConfig::default()
        },
        nodes,
    );
    for k in 0..PER_SENDER {
        for i in 0..N {
            sim.schedule_command(
                SimTime::from_micros(100 + k * 400 + i as u64 * 37),
                EntityId::new(i as u32),
                NodeCmd::Submit(Bytes::from(format!("{i}:{k}").into_bytes())),
            );
        }
    }
    sim.run_until_idle();
    sim
}

fn assert_fifo_service(sim: &Simulator<Node>) {
    for (id, node) in sim.nodes() {
        for src in (0..N).map(|s| EntityId::new(s as u32)) {
            let seqs: Vec<u64> = node
                .delivered()
                .filter(|(d, _)| d.src == src)
                .map(|(d, _)| d.seq.get())
                .collect();
            let expected: Vec<u64> = (1..=PER_SENDER).collect();
            assert_eq!(
                seqs, expected,
                "{id} must deliver every message of {src} exactly once, in order"
            );
        }
        assert!(
            node.entity().is_fully_stable(),
            "{id} must quiesce fully stable"
        );
        assert_eq!(node.entity().pending_submits(), 0);
    }
}

fn total(sim: &Simulator<Node>, counter: impl Fn(&co_protocol::Metrics) -> u64) -> u64 {
    sim.nodes()
        .map(|(_, n)| counter(n.entity().metrics()))
        .sum()
}

#[test]
fn fifo_core_over_the_substrate_selective() {
    let sim = run(RetransmissionPolicy::Selective);
    assert_fifo_service(&sim);
    assert!(sim.stats().link_drops > 0, "the burst model must drop PDUs");
    assert!(
        total(&sim, |m| m.ret_sent()) > 0,
        "losses must be requested"
    );
    assert!(
        total(&sim, |m| m.accepted_from_reorder()) > 0,
        "selective repair must release buffered PDUs"
    );
}

#[test]
fn fifo_core_over_the_substrate_go_back_n() {
    let sim = run(RetransmissionPolicy::GoBackN);
    assert_fifo_service(&sim);
    assert!(
        total(&sim, |m| m.ret_sent()) > 0,
        "losses must be requested"
    );
    assert_eq!(
        total(&sim, |m| m.accepted_from_reorder()),
        0,
        "go-back-n never buffers out of order"
    );
}

#[test]
fn fifo_core_state_round_trips() {
    let sim = run(RetransmissionPolicy::Selective);
    let (_, node) = sim.nodes().next().expect("n > 0");
    let state = node.entity().export_state();
    let restored: Entity<FifoCore> = Entity::restore_with(
        node.entity().config().clone(),
        state.clone(),
        co_protocol::NoopObserver,
    )
    .expect("own state restores");
    assert_eq!(restored.export_state(), state);
    let mut short = state;
    short.core.pop();
    assert!(matches!(
        Entity::<FifoCore>::restore_with(
            node.entity().config().clone(),
            short,
            co_protocol::NoopObserver
        ),
        Err(ConfigError::StateMismatch {
            field: "peer_ack_of_me",
            ..
        })
    ));
}
