//! Loss detection and selective recovery — the paper's headline mechanism.
//!
//! Runs a burst of broadcasts over a network that loses 10% of all
//! transmissions (plus buffer overruns from a deliberately tiny NIC
//! buffer), then prints the failure-detection and retransmission counters
//! and verifies that *every* entity still delivered *every* message in
//! causal order.
//!
//! ```sh
//! cargo run --example lossy_network
//! ```

use bytes::Bytes;
use causal_order::EntityId;
use co_broadcast::baselines::{EntityNode, NodeCmd};
use co_broadcast::net::{LossModel, SimConfig, SimTime, Simulator};
use co_broadcast::protocol::{Config, DeferralPolicy};

fn main() {
    let n = 4;
    let messages_per_sender = 25;

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
            loss: LossModel::Iid { p: 0.10 },
            inbox_capacity: 24, // small NIC buffer: overruns under bursts
            seed: 2024,
            ..SimConfig::default()
        },
        nodes,
    );

    for k in 0..messages_per_sender {
        for s in 0..n {
            sim.schedule_command(
                SimTime::from_micros(k as u64 * 300),
                EntityId::new(s as u32),
                NodeCmd::Submit(Bytes::from(format!("msg {k} from E{}", s + 1).into_bytes())),
            );
        }
    }
    sim.run_until_idle();

    let stats = sim.stats();
    println!(
        "network: {} transmissions, {} lost in flight, {} lost to buffer overrun",
        stats.link_sends, stats.link_drops, stats.overrun_drops
    );
    println!("effective loss rate: {:.1}%\n", stats.loss_rate() * 100.0);

    let total = n * messages_per_sender;
    for (id, node) in sim.nodes() {
        let m = node.entity().metrics();
        println!(
            "{id}: delivered {}/{total}  (F1 gaps {}, F2 gaps {}, RETs sent {}, \
             retransmitted {}, repaired out-of-order {})",
            node.delivered().count(),
            m.f1_detections(),
            m.f2_detections(),
            m.ret_sent(),
            m.retransmissions_sent(),
            m.accepted_from_reorder(),
        );
        assert_eq!(node.delivered().count(), total, "lost deliveries at {id}");
    }
    println!("\ndespite the loss, every entity delivered every message, causally ordered ✓");
}
