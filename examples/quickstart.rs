//! Quickstart: a three-entity cluster on the deterministic simulator.
//!
//! Builds the cluster, broadcasts a causal chain of messages, and shows
//! that every application delivers them in the same causality-preserving
//! order.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use causal_order::EntityId;
use co_broadcast::baselines::{EntityNode, NodeCmd};
use co_broadcast::net::{SimConfig, SimTime, Simulator};
use co_broadcast::protocol::{Config, DeferralPolicy};

fn main() {
    let n = 3;

    // One CO-protocol entity per cluster member, each hosted by an
    // `EntityNode` on the simulated MC network (FIFO links, bounded
    // receive buffers). The node logs what its application saw.
    let nodes: Vec<EntityNode> = (0..n)
        .map(|i| {
            let config = Config::builder(1, n, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Deferred { timeout_us: 2_000 })
                .build()
                .expect("valid configuration");
            EntityNode::new(config).expect("valid entity")
        })
        .collect();
    let mut sim = Simulator::new(SimConfig::default(), nodes);

    // A causal chain: each message is submitted well after the previous
    // one has been delivered cluster-wide, so m1 ⇒ m2 ⇒ m3.
    sim.schedule_command(
        SimTime::ZERO,
        EntityId::new(0),
        NodeCmd::Submit(Bytes::from_static(b"m1: hello")),
    );
    sim.schedule_command(
        SimTime::from_millis(50),
        EntityId::new(1),
        NodeCmd::Submit(Bytes::from_static(b"m2: hello back")),
    );
    sim.schedule_command(
        SimTime::from_millis(100),
        EntityId::new(2),
        NodeCmd::Submit(Bytes::from_static(b"m3: hello both")),
    );
    sim.run_until_idle();

    for (id, node) in sim.nodes() {
        println!("{id} delivered:");
        for (d, at) in node.delivered() {
            println!(
                "  [{:>6}µs] {}#{}: {}",
                at.as_micros(),
                d.src,
                d.seq.get(),
                String::from_utf8_lossy(&d.data)
            );
        }
    }

    // Every entity delivered the chain in the same causal order.
    let logs: Vec<Vec<(EntityId, u64)>> = sim.nodes().map(|(_, n)| n.delivery_log()).collect();
    assert!(logs.windows(2).all(|w| w[0] == w[1]));
    println!("\nall {n} entities delivered the causal chain in the same order ✓");
}
