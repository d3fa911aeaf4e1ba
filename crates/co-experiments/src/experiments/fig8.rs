//! **Figure 8**: per-PDU processing time (Tco) and application-to-
//! application transmission delay (Tap) versus the number of entities.
//!
//! The paper ran one CO entity per SPARC2 workstation over Ethernet, with
//! every application entity submitting DT requests "continuously like the
//! file transfer", and reported both times growing roughly linearly in `n`
//! (the O(n) per-entity overhead). We run one entity per OS thread over
//! bounded channels and measure the same two quantities with a monotonic
//! clock.

use bytes::Bytes;
use co_transport::{Cluster, ClusterOptions, NodeReport, UdpCluster, UdpOptions};
use std::time::Duration;

use crate::table::Table;

/// Runs the sweep. `quick` shrinks the cluster sizes and message count.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: Vec<usize> = if quick {
        vec![2, 4]
    } else {
        vec![2, 3, 4, 5, 6, 8, 10, 12]
    };
    let messages = if quick { 40 } else { 200 };
    let headers = [
        "n",
        "Tco mean [µs]",
        "Tco p95 [µs]",
        "Tap mean [ms]",
        "Tap p95 [ms]",
        "pdus processed",
    ];
    let mut table = Table::new(
        "Figure 8: processing time (Tco) and delay (Tap) vs number of entities",
        &headers,
    );
    for &n in &sizes {
        let (tco_mean, tco_p95, tap_mean, tap_p95, processed) = measure(n, messages);
        table.push(vec![
            n.to_string(),
            format!("{:.1}", tco_mean.as_secs_f64() * 1e6),
            format!("{:.1}", tco_p95.as_secs_f64() * 1e6),
            format!("{:.3}", tap_mean.as_secs_f64() * 1e3),
            format!("{:.3}", tap_p95.as_secs_f64() * 1e3),
            processed.to_string(),
        ]);
    }

    // Same sweep over real UDP loopback sockets (smaller sizes: each
    // entity is a socket + thread).
    let udp_sizes: Vec<usize> = if quick { vec![2] } else { vec![2, 3, 4, 6, 8] };
    let udp_messages = if quick { 20 } else { 100 };
    let mut udp_table = Table::new("Figure 8 over UDP loopback (real datagrams)", &headers);
    for &n in &udp_sizes {
        let (tco_mean, tco_p95, tap_mean, tap_p95, processed) = measure_udp(n, udp_messages);
        udp_table.push(vec![
            n.to_string(),
            format!("{:.1}", tco_mean.as_secs_f64() * 1e6),
            format!("{:.1}", tco_p95.as_secs_f64() * 1e6),
            format!("{:.3}", tap_mean.as_secs_f64() * 1e3),
            format!("{:.3}", tap_p95.as_secs_f64() * 1e3),
            processed.to_string(),
        ]);
    }
    vec![table, udp_table]
}

fn summarize(reports: &[NodeReport]) -> (Duration, Duration, Duration, Duration, usize) {
    let mut tco: Vec<Duration> = Vec::new();
    let mut tap: Vec<Duration> = Vec::new();
    for r in reports {
        tco.extend_from_slice(&r.tco_samples);
        tap.extend_from_slice(&r.tap_samples);
    }
    let tco_summary = co_transport::TimingSummary::of(&tco);
    let tap_summary = co_transport::TimingSummary::of(&tap);
    (
        tco_summary.mean,
        tco_summary.p95,
        tap_summary.mean,
        tap_summary.p95,
        tco.len(),
    )
}

/// Wall-clock measurement over real UDP loopback sockets.
pub fn measure_udp(n: usize, messages: usize) -> (Duration, Duration, Duration, Duration, usize) {
    let cluster = UdpCluster::start(n, UdpOptions::default()).expect("udp cluster start");
    for k in 0..messages {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("m{k}").into_bytes()))
                .expect("submit");
        }
        if k % 16 == 15 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    summarize(&cluster.shutdown())
}

/// One wall-clock measurement at cluster size `n`; every entity submits
/// `messages` payloads ("file transfer" workload).
pub fn measure(n: usize, messages: usize) -> (Duration, Duration, Duration, Duration, usize) {
    let cluster = Cluster::start(n, ClusterOptions::default()).expect("cluster start");
    for k in 0..messages {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("m{k}").into_bytes()))
                .expect("submit");
        }
        // Pace submissions so the run is not a single burst.
        if k % 16 == 15 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    summarize(&cluster.shutdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_rows() {
        let tables = run(true);
        assert_eq!(tables.len(), 2, "threaded + udp tables");
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[1].len(), 1);
        // Sanity: Tco mean is positive in both transports.
        let tco: f64 = tables[0].cell(0, 1).parse().unwrap();
        assert!(tco > 0.0);
        let udp_tco: f64 = tables[1].cell(0, 1).parse().unwrap();
        assert!(udp_tco > 0.0);
    }
}
