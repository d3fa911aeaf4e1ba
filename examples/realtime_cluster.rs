//! The paper's testbed, live: one protocol entity per OS thread, bounded
//! channels as NIC buffers, wall-clock Tco/Tap measurement (Figure 8's
//! quantities on your machine).
//!
//! ```sh
//! cargo run --release --example realtime_cluster
//! ```

use bytes::Bytes;
use co_broadcast::transport::{Cluster, ClusterOptions};

fn main() {
    let n = 4;
    let messages = 100;

    let cluster = Cluster::start(n, ClusterOptions::default()).expect("cluster start");
    println!("started {n} entity threads; broadcasting {messages} messages from each…\n");
    for k in 0..messages {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("payload-{k}").into_bytes()))
                .expect("submit");
        }
    }
    let reports = cluster.shutdown();

    let total = n * messages;
    for r in &reports {
        println!(
            "{}: delivered {:>4}/{total}   Tco {{{}}}   Tap {{{}}}",
            r.id,
            r.delivered.len(),
            r.tco(),
            r.tap(),
        );
        assert_eq!(r.delivered.len(), total);
    }

    let all_tco: Vec<std::time::Duration> = reports
        .iter()
        .flat_map(|r| r.tco_samples.iter().copied())
        .collect();
    let all_tap: Vec<std::time::Duration> = reports
        .iter()
        .flat_map(|r| r.tap_samples.iter().copied())
        .collect();
    println!(
        "\ncluster-wide: Tco {}  |  Tap {}",
        co_broadcast::transport::TimingSummary::of(&all_tco),
        co_broadcast::transport::TimingSummary::of(&all_tap),
    );
    println!("(the fig8 experiment sweeps this over n — see EXPERIMENTS.md)");
}
