//! CSCW scenario from the paper's introduction: a shared whiteboard /
//! group-editing session where replies must never appear before the
//! message they answer.
//!
//! Three users collaborate: Alice posts a question, Bob answers it (a
//! *causally dependent* message), and Carol posts an unrelated note
//! concurrently. The CO service guarantees every participant sees the
//! answer after the question; the concurrent note may interleave anywhere.
//!
//! ```sh
//! cargo run --example collaborative_editor
//! ```

use bytes::Bytes;
use causal_order::EntityId;
use co_broadcast::baselines::{EntityNode, NodeCmd};
use co_broadcast::net::{DelayModel, SimConfig, SimDuration, SimTime, Simulator};
use co_broadcast::protocol::{Config, DeferralPolicy};

const USERS: [&str; 3] = ["alice", "bob", "carol"];

fn main() {
    let n = USERS.len();
    let nodes: Vec<EntityNode> = (0..n)
        .map(|i| {
            let config = Config::builder(7, n, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Immediate)
                .build()
                .expect("valid configuration");
            EntityNode::new(config).expect("valid entity")
        })
        .collect();
    // Uneven link delays: carol is "far away", so raw arrival order would
    // differ between participants — exactly when causal ordering matters.
    let ms = |v: u64| SimDuration::from_millis(v);
    let delays = vec![
        vec![ms(0), ms(1), ms(9)],
        vec![ms(1), ms(0), ms(9)],
        vec![ms(9), ms(9), ms(0)],
    ];
    let mut sim = Simulator::new(
        SimConfig {
            network: DelayModel::PerPair(delays).into(),
            ..SimConfig::default()
        },
        nodes,
    );

    // Alice asks; Bob replies after *seeing* the question; Carol posts a
    // concurrent note at the same instant as Alice.
    sim.schedule_command(
        SimTime::ZERO,
        EntityId::new(0),
        NodeCmd::Submit(Bytes::from_static(b"alice: where shall we put the title?")),
    );
    sim.schedule_command(
        SimTime::ZERO,
        EntityId::new(2),
        NodeCmd::Submit(Bytes::from_static(b"carol: uploaded the logo assets")),
    );
    // Bob's reply is submitted once Alice's question has reached him and
    // been delivered (simulated "user read it, then typed").
    sim.schedule_command(
        SimTime::from_millis(40),
        EntityId::new(1),
        NodeCmd::Submit(Bytes::from_static(b"bob: top-left, above the fold")),
    );
    sim.run_until_idle();

    for (id, node) in sim.nodes() {
        println!("view of {}:", USERS[id.index()]);
        for (d, _) in node.delivered() {
            println!("  {}", String::from_utf8_lossy(&d.data));
        }
        println!();
    }

    // Invariant: everyone sees bob's answer after alice's question.
    for (id, node) in sim.nodes() {
        let log = node.delivery_log();
        let q = log
            .iter()
            .position(|&(o, _)| o == EntityId::new(0))
            .unwrap();
        let a = log
            .iter()
            .position(|&(o, _)| o == EntityId::new(1))
            .unwrap();
        assert!(q < a, "{}: answer before question!", USERS[id.index()]);
    }
    println!("causal invariant holds: no participant ever sees the answer before the question ✓");
}
