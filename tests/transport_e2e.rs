//! End-to-end runs on the real-time threaded transport: same engine, real
//! concurrency, wall clocks and bounded channels.

use bytes::Bytes;
use causal_order::EntityId;
use co_transport::{Cluster, ClusterOptions};
use std::time::Duration;

#[test]
fn threaded_cluster_delivers_everything_in_fifo_order() {
    let n = 4;
    let messages = 30;
    let cluster = Cluster::start(n, ClusterOptions::default()).expect("start");
    for k in 0..messages {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("{i}:{k}").into_bytes()))
                .expect("submit");
        }
    }
    let reports = cluster.shutdown();
    for r in &reports {
        assert_eq!(r.delivered.len(), n * messages, "at {}", r.id);
        for src in 0..n as u32 {
            let seqs: Vec<u64> = r
                .delivered
                .iter()
                .filter(|(s, _, _)| *s == EntityId::new(src))
                .map(|&(_, seq, _)| seq)
                .collect();
            let expected: Vec<u64> = (1..=messages as u64).collect();
            assert_eq!(seqs, expected, "FIFO from E{} at {}", src + 1, r.id);
        }
    }
}

#[test]
fn threaded_cluster_preserves_a_causal_chain() {
    // Chain: each message submitted only after the previous one was
    // delivered locally (polling the previous round's payloads).
    let n = 3;
    let rounds = 6;
    let cluster = Cluster::start(n, ClusterOptions::default()).expect("start");
    for round in 0..rounds {
        let sender = round % n;
        cluster
            .submit(sender, Bytes::from(format!("round-{round}").into_bytes()))
            .expect("submit");
        // Give the round ample time to reach global delivery before the
        // next (causally dependent) submission.
        std::thread::sleep(Duration::from_millis(30));
    }
    let reports = cluster.shutdown();
    for r in &reports {
        let payloads: Vec<String> = r
            .delivered
            .iter()
            .map(|(_, _, d)| String::from_utf8_lossy(d).into_owned())
            .collect();
        let expected: Vec<String> = (0..rounds).map(|k| format!("round-{k}")).collect();
        assert_eq!(payloads, expected, "causal chain broken at {}", r.id);
    }
}

#[test]
fn threaded_cluster_survives_tiny_inboxes() {
    // Tiny bounded channels: overruns happen, the protocol recovers.
    let n = 3;
    let messages = 40;
    let options = ClusterOptions {
        inbox_capacity: 8,
        ..ClusterOptions::default()
    };
    let cluster = Cluster::start(n, options).expect("start");
    for k in 0..messages {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("{i}:{k}").into_bytes()))
                .expect("submit");
        }
    }
    let reports = cluster.shutdown();
    for r in &reports {
        assert_eq!(
            r.delivered.len(),
            n * messages,
            "at {} (overruns observed: {})",
            r.id,
            r.overrun_drops
        );
    }
}

#[test]
fn tco_and_tap_are_measured() {
    let cluster = Cluster::start(2, ClusterOptions::default()).expect("start");
    for _ in 0..10 {
        cluster.submit(0, Bytes::from_static(b"x")).expect("submit");
    }
    let reports = cluster.shutdown();
    let receiver = &reports[1];
    assert!(
        receiver.tco_samples.len() >= 10,
        "Tco sampled per received PDU"
    );
    assert_eq!(
        receiver.tap_samples.len(),
        10,
        "Tap sampled per remote delivery"
    );
    assert!(receiver.tap().mean > Duration::ZERO);
}
