//! **Figure 8**: per-PDU processing time (Tco) and application-to-
//! application transmission delay (Tap) versus the number of entities.
//!
//! The paper ran one CO entity per SPARC2 workstation over Ethernet, with
//! every application entity submitting DT requests "continuously like the
//! file transfer", and reported both times growing roughly linearly in `n`
//! (the O(n) per-entity overhead). We run one entity per OS thread — over
//! bounded channels, and over UDP loopback sockets — and measure the same
//! two quantities with a monotonic clock.

use bytes::Bytes;
use co_protocol::CoCore;
use co_transport::{Cluster, ClusterOptions, TimingSummary, TransportError};
use std::time::Duration;

use crate::table::Table;

/// Runs the sweep. `quick` shrinks the cluster sizes and message count.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[2, 4]
    } else {
        &[2, 3, 4, 5, 6, 8, 10, 12]
    };
    let table = sweep(
        "Figure 8: processing time (Tco) and delay (Tap) vs number of entities",
        sizes,
        if quick { 40 } else { 200 },
        Cluster::start,
    );
    // The same stack over real UDP loopback sockets (smaller sizes: each
    // entity is a socket and two threads).
    let udp_sizes: &[usize] = if quick { &[2] } else { &[2, 3, 4, 6, 8] };
    let udp_table = sweep(
        "Figure 8 over UDP loopback (real datagrams)",
        udp_sizes,
        if quick { 20 } else { 100 },
        Cluster::start_udp::<CoCore>,
    );
    vec![table, udp_table]
}

/// One row per cluster size: every entity submits `messages` payloads
/// ("file transfer" workload) to a cluster `start` brings up, and Tco/Tap
/// are summarized over all nodes.
fn sweep(
    title: &str,
    sizes: &[usize],
    messages: usize,
    start: fn(usize, ClusterOptions) -> Result<Cluster, TransportError>,
) -> Table {
    let headers = [
        "n",
        "Tco mean [µs]",
        "Tco p95 [µs]",
        "Tap mean [ms]",
        "Tap p95 [ms]",
        "pdus processed",
    ];
    let mut table = Table::new(title, &headers);
    for &n in sizes {
        let cluster = start(n, ClusterOptions::default()).expect("cluster start");
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
        let reports = cluster.shutdown();
        let tco: Vec<Duration> = reports.iter().flat_map(|r| r.tco_samples.clone()).collect();
        let tap: Vec<Duration> = reports.iter().flat_map(|r| r.tap_samples.clone()).collect();
        let (tco, tap) = (TimingSummary::of(&tco), TimingSummary::of(&tap));
        table.push(vec![
            n.to_string(),
            format!("{:.1}", tco.mean.as_secs_f64() * 1e6),
            format!("{:.1}", tco.p95.as_secs_f64() * 1e6),
            format!("{:.3}", tap.mean.as_secs_f64() * 1e3),
            format!("{:.3}", tap.p95.as_secs_f64() * 1e3),
            tco.count.to_string(),
        ]);
    }
    table
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
