//! Fault-tolerant replicated state — the paper's other motivating
//! application ("the same events have to occur in the same order in each
//! entity").
//!
//! Each entity hosts a replica of a tiny key-value store and broadcasts
//! its writes through the CO protocol. Because every replica applies the
//! *acknowledged* (globally stable, causally ordered) stream, causally
//! related writes apply in the same order everywhere. Writes that are
//! causally concurrent commute here (distinct keys per writer), so all
//! replicas converge to the same state even over a lossy network.
//!
//! ```sh
//! cargo run --example replicated_log
//! ```

use bytes::Bytes;
use causal_order::EntityId;
use co_broadcast::baselines::{EntityNode, NodeCmd};
use co_broadcast::net::{LossModel, SimConfig, SimTime, Simulator};
use co_broadcast::protocol::{Config, DeferralPolicy};
use std::collections::BTreeMap;

/// A write operation: `key = value`.
fn encode_op(key: &str, value: u64) -> Bytes {
    Bytes::from(format!("{key}={value}").into_bytes())
}

fn apply_op(state: &mut BTreeMap<String, u64>, data: &[u8]) {
    let text = String::from_utf8_lossy(data);
    let (key, value) = text.split_once('=').expect("well-formed op");
    // Last-writer-wins within the causally ordered stream.
    state.insert(key.to_string(), value.parse().expect("numeric value"));
}

fn main() {
    let n = 3;
    let nodes: Vec<EntityNode> = (0..n)
        .map(|i| {
            let config = Config::builder(1, n, EntityId::new(i as u32))
                .deferral(DeferralPolicy::Deferred { timeout_us: 2_000 })
                .build()
                .expect("valid configuration");
            EntityNode::new(config).expect("valid entity")
        })
        .collect();
    let mut sim = Simulator::new(
        SimConfig {
            loss: LossModel::Iid { p: 0.05 },
            seed: 11,
            ..SimConfig::default()
        },
        nodes,
    );

    // Each replica increments its own counter key; rounds are causally
    // chained by waiting for cluster-wide delivery between rounds.
    for round in 0..10u64 {
        for replica in 0..n {
            sim.schedule_command(
                SimTime::from_millis(round * 20 + replica as u64),
                EntityId::new(replica as u32),
                NodeCmd::Submit(encode_op(&format!("counter.e{}", replica + 1), round + 1)),
            );
        }
    }
    sim.run_until_idle();

    // Rebuild each replica's state from its delivered stream.
    let mut states: Vec<BTreeMap<String, u64>> = Vec::new();
    for (id, node) in sim.nodes() {
        let mut state = BTreeMap::new();
        for (d, _) in node.delivered() {
            apply_op(&mut state, &d.data);
        }
        println!("replica {id}: {state:?}");
        states.push(state);
    }

    assert!(
        states.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged!"
    );
    println!(
        "\nall {n} replicas converged to identical state over a lossy network \
         ({} in-flight drops recovered) ✓",
        sim.stats().link_drops
    );
}
