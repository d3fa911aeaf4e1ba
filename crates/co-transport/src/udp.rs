//! UDP transport: the closest runnable analogue of the paper's testbed —
//! one protocol entity per thread, PDUs as real datagrams over UDP
//! sockets. UDP gives exactly the MC service's semantics on a LAN:
//! per-path FIFO is *not* guaranteed in general but holds on loopback,
//! datagrams are dropped when socket buffers overrun, and there is no
//! delivery guarantee — all recovered by the protocol itself.

use bytes::Bytes;
use causal_order::EntityId;
use co_protocol::{Action, Config, DeferralPolicy, Entity, Pdu};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::TransportError;
use crate::node::{frame_payload, unframe_payload};
use crate::report::NodeReport;

/// Options for a UDP cluster run.
#[derive(Debug, Clone)]
pub struct UdpOptions {
    /// Confirmation policy for all entities.
    pub deferral: DeferralPolicy,
    /// Flow-condition window `W`.
    pub window: u64,
    /// Socket read timeout, doubling as the engine tick interval.
    pub tick_interval: Duration,
    /// How long nodes keep draining after shutdown before reporting.
    pub drain_idle: Duration,
    /// Cluster id stamped on PDUs.
    pub cid: u32,
}

impl Default for UdpOptions {
    fn default() -> Self {
        UdpOptions {
            deferral: DeferralPolicy::Deferred { timeout_us: 2_000 },
            window: 64,
            tick_interval: Duration::from_micros(500),
            drain_idle: Duration::from_millis(40),
            cid: 1,
        }
    }
}

enum UdpCmd {
    Submit(Bytes),
    Shutdown,
}

/// A running cluster of entities communicating over UDP loopback sockets.
#[derive(Debug)]
pub struct UdpCluster {
    cmd_txs: Vec<crossbeam::channel::Sender<UdpCmd>>,
    threads: Vec<std::thread::JoinHandle<NodeReport>>,
    n: usize,
    epoch: Instant,
}

impl std::fmt::Debug for UdpCmd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdpCmd::Submit(b) => write!(f, "Submit({}B)", b.len()),
            UdpCmd::Shutdown => write!(f, "Shutdown"),
        }
    }
}

impl UdpCluster {
    /// Binds `n` UDP sockets on 127.0.0.1 (OS-assigned ports) and spawns
    /// one entity thread per socket.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadConfig`] for invalid engine configurations;
    /// panics on socket errors (environmental, not recoverable in-process).
    pub fn start(n: usize, options: UdpOptions) -> Result<UdpCluster, TransportError> {
        let epoch = Instant::now();
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind udp socket"))
            .collect();
        let addrs: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr().expect("local addr"))
            .collect();
        let mut cmd_txs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, socket) in sockets.into_iter().enumerate() {
            let me = EntityId::new(i as u32);
            let config = Config::builder(options.cid, n, me)
                .deferral(options.deferral)
                .window(options.window)
                .build()
                .map_err(TransportError::BadConfig)?;
            let entity = Entity::new(config).map_err(TransportError::BadConfig)?;
            let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded::<UdpCmd>();
            cmd_txs.push(cmd_tx);
            let peers: Vec<Option<SocketAddr>> = addrs
                .iter()
                .enumerate()
                .map(|(j, &a)| if j == i { None } else { Some(a) })
                .collect();
            socket
                .set_read_timeout(Some(options.tick_interval))
                .expect("set read timeout");
            let opts = options.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("co-udp-{i}"))
                    .spawn(move || run_node(entity, me, socket, peers, cmd_rx, epoch, opts))
                    .expect("spawn udp entity thread"),
            );
        }
        Ok(UdpCluster {
            cmd_txs,
            threads,
            n,
            epoch,
        })
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Submits a payload for broadcast at entity `index`.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoSuchEntity`] / [`TransportError::NodeGone`].
    pub fn submit(&self, index: usize, payload: Bytes) -> Result<(), TransportError> {
        let tx = self
            .cmd_txs
            .get(index)
            .ok_or(TransportError::NoSuchEntity { index, n: self.n })?;
        let framed = frame_payload(self.epoch, &payload);
        tx.send(UdpCmd::Submit(framed))
            .map_err(|_| TransportError::NodeGone { index })
    }

    /// Shuts down and collects per-node reports.
    pub fn shutdown(self) -> Vec<NodeReport> {
        for tx in &self.cmd_txs {
            let _ = tx.send(UdpCmd::Shutdown);
        }
        self.threads
            .into_iter()
            .map(|t| t.join().expect("udp entity thread panicked"))
            .collect()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_node(
    mut entity: Entity,
    me: EntityId,
    socket: UdpSocket,
    peers: Vec<Option<SocketAddr>>,
    cmd_rx: crossbeam::channel::Receiver<UdpCmd>,
    epoch: Instant,
    options: UdpOptions,
) -> NodeReport {
    let mut report = NodeReport {
        id: me,
        delivered: Vec::new(),
        tco_samples: Vec::new(),
        tap_samples: Vec::new(),
        overrun_drops: 0,
        metrics: co_protocol::Metrics::default(),
        latency: co_observe::LatencyTracker::default(),
        trace: Vec::new(),
        span_report: None,
        // The UDP transport runs a bare entity (no observer stack): its
        // reports carry an empty black box, not a missing one, and empty
        // `live_findings` because no node-scope detector ran — not because
        // the node-local rules were judged clean. (The cluster-wide rules
        // live in `span_report`, which needs a trace this transport does
        // not record.)
        flight_recorder: co_observe::RecorderDump::capture(
            &co_observe::FlightRecorder::default(),
            me.raw(),
            "co",
            "udp",
        ),
        live_findings: Vec::new(),
        panicked: None,
    };
    let shutting_down = Arc::new(AtomicBool::new(false));
    let mut last_activity = Instant::now();
    let mut buf = vec![0u8; 64 * 1024];

    let now_us = |epoch: Instant| epoch.elapsed().as_micros() as u64;

    let dispatch = |actions: Vec<Action>,
                    report: &mut NodeReport,
                    socket: &UdpSocket,
                    peers: &[Option<SocketAddr>]| {
        for action in actions {
            match action {
                Action::Broadcast(pdu) => {
                    let encoded = pdu.encode();
                    for addr in peers.iter().flatten() {
                        // A full receive buffer at the peer silently drops
                        // the datagram — UDP gives us MC-service loss for
                        // free. Send errors are treated the same way.
                        let _ = socket.send_to(&encoded, addr);
                    }
                }
                Action::Deliver(d) => {
                    let now = epoch.elapsed().as_micros() as u64;
                    if let Some((sent_us, payload)) = unframe_payload(&d.data) {
                        if d.src != me {
                            report
                                .tap_samples
                                .push(Duration::from_micros(now.saturating_sub(sent_us)));
                        }
                        report.delivered.push((d.src, d.seq.get(), payload));
                    } else {
                        report.delivered.push((d.src, d.seq.get(), d.data));
                    }
                }
                // `Action` is #[non_exhaustive].
                _ => {}
            }
        }
    };

    loop {
        // Network first (bounded by the read timeout = tick interval).
        match socket.recv_from(&mut buf) {
            Ok((len, _addr)) => {
                let started = Instant::now();
                if let Ok(pdu) = Pdu::decode(&buf[..len]) {
                    let mut actions = Vec::new();
                    if entity.on_pdu(pdu, now_us(epoch), &mut actions).is_ok() {
                        dispatch(actions, &mut report, &socket, &peers);
                    }
                }
                report.tco_samples.push(started.elapsed());
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Tick on idle.
                let actions = entity.on_tick(now_us(epoch));
                if !actions.is_empty() {
                    last_activity = Instant::now();
                }
                dispatch(actions, &mut report, &socket, &peers);
            }
            Err(_) => {}
        }
        // Commands.
        while let Ok(cmd) = cmd_rx.try_recv() {
            match cmd {
                UdpCmd::Submit(framed) => {
                    if let Ok((_, actions)) = entity.submit(framed, now_us(epoch)) {
                        dispatch(actions, &mut report, &socket, &peers);
                    }
                    last_activity = Instant::now();
                }
                UdpCmd::Shutdown => shutting_down.store(true, Ordering::Relaxed),
            }
        }
        if shutting_down.load(Ordering::Relaxed) {
            let idle = last_activity.elapsed();
            if (entity.is_quiescent() && idle >= options.drain_idle)
                || idle >= options.drain_idle * 20
            {
                break;
            }
        }
    }
    report.metrics = *entity.metrics();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_cluster_delivers_broadcasts() {
        let cluster = UdpCluster::start(3, UdpOptions::default()).expect("start");
        for k in 0..5 {
            for i in 0..3 {
                cluster
                    .submit(i, Bytes::from(format!("u{i}-{k}")))
                    .expect("submit");
            }
        }
        let reports = cluster.shutdown();
        for r in &reports {
            assert_eq!(r.delivered.len(), 15, "at {}", r.id);
        }
        // Remote deliveries have Tap samples.
        assert!(!reports[0].tap_samples.is_empty());
    }

    #[test]
    fn udp_cluster_fifo_per_sender() {
        let cluster = UdpCluster::start(2, UdpOptions::default()).expect("start");
        for k in 0..20 {
            cluster
                .submit(0, Bytes::from(format!("{k}")))
                .expect("submit");
        }
        let reports = cluster.shutdown();
        let seqs: Vec<u64> = reports[1]
            .delivered
            .iter()
            .filter(|(s, _, _)| *s == EntityId::new(0))
            .map(|&(_, seq, _)| seq)
            .collect();
        let expected: Vec<u64> = (1..=20).collect();
        assert_eq!(seqs, expected);
    }

    #[test]
    fn udp_out_of_range_submit_rejected() {
        let cluster = UdpCluster::start(2, UdpOptions::default()).expect("start");
        assert!(cluster.submit(9, Bytes::new()).is_err());
        cluster.shutdown();
    }
}
