//! Cluster lifecycle: spawn one node thread per entity on a channel mesh
//! or on UDP loopback sockets, submit payloads, collect reports.

use bytes::{BufMut, Bytes, BytesMut};
use causal_order::EntityId;
use co_observe::{
    EventLog, FlightRecorder, LatencyTracker, RecorderDump, Tee, TraceLine, DEFAULT_RECORDER_DEPTH,
};
use co_protocol::{CoCore, Config, ConfigError, DeferralPolicy, Delivery, DeliveryCore, Entity};
use co_trace::LiveDetector;
use std::net::{SocketAddr, UdpSocket};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::node::{Commands, Host, Inbox, Link, Node};
use crate::report::NodeReport;

/// Options for a real-time cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Bounded inbox capacity per node (the NIC buffer, in PDUs).
    pub inbox_capacity: usize,
    /// Deferred-confirmation policy for all entities.
    pub deferral: DeferralPolicy,
    /// Flow-condition window `W`.
    pub window: u64,
    /// Cluster id stamped on PDUs.
    pub cid: u32,
    /// Record the full structured event trace (plus host-Tco lines) in
    /// each [`NodeReport`]. Latency histograms are always collected; the
    /// trace is opt-in because it grows with the run.
    pub trace: bool,
    /// Maximum PDUs a node accepts per inbox drain (clamped to ≥ 1).
    /// When a node thread wakes with several PDUs queued, they are
    /// decoded through one warm pool and fed to the engine as a single
    /// batch ([`co_protocol::Entity::on_pdus_into`]), amortizing the
    /// confirmation traffic; `1` reproduces strict per-PDU processing.
    pub drain_batch: usize,
    /// Flight-recorder depth per node: each entity keeps a ring of this
    /// many most-recent protocol events (allocation-free after startup),
    /// dumped into its [`NodeReport`] at shutdown — and to stderr when a
    /// node panics. `0` disables retention.
    pub recorder_depth: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            inbox_capacity: 4096,
            deferral: DeferralPolicy::Deferred { timeout_us: 2_000 },
            window: 64,
            cid: 1,
            trace: false,
            drain_batch: 32,
            recorder_depth: DEFAULT_RECORDER_DEPTH,
        }
    }
}

impl ClusterOptions {
    /// The engine configuration these options give entity `me` of `n`.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the combination is invalid (e.g. `n < 2`).
    pub fn config(&self, n: usize, me: EntityId) -> Result<Config, ConfigError> {
        Config::builder(self.cid, n, me)
            .deferral(self.deferral)
            .window(self.window)
            .build()
    }
}

/// Errors from driving a [`Cluster`].
#[derive(Debug)]
pub enum TransportError {
    /// The target entity index is out of range.
    NoSuchEntity {
        /// The rejected index.
        index: usize,
        /// Cluster size.
        n: usize,
    },
    /// A node thread disconnected (panicked) before the command was sent.
    NodeGone {
        /// The unreachable entity index.
        index: usize,
    },
    /// Configuration was rejected by the protocol engine.
    BadConfig(ConfigError),
    /// A loopback socket could not be bound or prepared.
    Socket(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::NoSuchEntity { index, n } => {
                write!(f, "entity index {index} out of range for cluster of {n}")
            }
            TransportError::NodeGone { index } => {
                write!(f, "node thread {index} is no longer running")
            }
            TransportError::BadConfig(e) => write!(f, "bad configuration: {e}"),
            TransportError::Socket(e) => write!(f, "socket setup failed: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::BadConfig(e) => Some(e),
            TransportError::Socket(e) => Some(e),
            _ => None,
        }
    }
}

/// The observer every cluster entity runs with: latency histograms always
/// (cheap, bounded state), a flight-recorder ring of the most recent
/// events plus the node-scope anomaly detectors (both bounded: the ring by
/// its depth, the detectors by the PDUs the entity itself holds), and a
/// full event log only when tracing is on.
type NodeObserver = Tee<LatencyTracker, Tee<Option<EventLog>, Tee<FlightRecorder, LiveDetector>>>;

/// Frames `payload` with the submit timestamp (µs since epoch) so the
/// delivering node can compute Tap.
fn frame_payload(epoch: Instant, payload: &[u8]) -> Bytes {
    let mut framed = BytesMut::with_capacity(8 + payload.len());
    framed.put_u64(epoch.elapsed().as_micros() as u64);
    framed.put_slice(payload);
    framed.freeze()
}

/// Splits a framed payload back into (submit-µs, payload).
fn unframe_payload(data: &Bytes) -> Option<(u64, Bytes)> {
    let ts = data.get(..8)?.try_into().ok()?;
    Some((u64::from_be_bytes(ts), data.slice(8..)))
}

/// What a cluster node keeps of its outputs: the measurement half of a
/// [`NodeReport`].
struct Recording {
    me: EntityId,
    /// Whether to record a host-Tco trace line per frame.
    trace: bool,
    delivered: Vec<(EntityId, u64, Bytes)>,
    tco_samples: Vec<Duration>,
    tap_samples: Vec<Duration>,
    host_tco: Vec<TraceLine>,
}

impl<C: DeliveryCore> Host<C, NodeObserver> for Recording {
    fn deliver(&mut self, d: Delivery, now_us: u64) {
        let payload = match unframe_payload(&d.data) {
            Some((sent_us, payload)) => {
                if d.src != self.me {
                    self.tap_samples
                        .push(Duration::from_micros(now_us.saturating_sub(sent_us)));
                }
                payload
            }
            None => d.data,
        };
        self.delivered.push((d.src, d.seq.get(), payload));
    }

    /// Tco stays a *per-PDU* cost distribution (the paper's per-PDU host
    /// cost, and what the offline trace analysis reconstructs): the
    /// drain's duration is attributed evenly to the frames it covered, one
    /// sample — and, when tracing, one `HostTco` record, because a host
    /// measurement cannot be reconstructed from event timestamps — each.
    fn drained(&mut self, frames: usize, took: Duration, now_us: u64) {
        let per_frame = took / frames as u32;
        for _ in 0..frames {
            self.tco_samples.push(per_frame);
            if self.trace {
                self.host_tco.push(TraceLine::HostTco {
                    node: self.me.raw(),
                    at_us: now_us,
                    dur_us: per_frame.as_micros() as u64,
                });
            }
        }
    }
}

/// A node thread's body: run the loop, then fold what the node, its
/// observers and its host hold into the report — also after a panic, so a
/// crashed node surrenders its black box instead of taking it down with
/// the thread.
fn run_node<C: DeliveryCore>(
    mut node: Node<C, NodeObserver>,
    trace: bool,
    network: &'static str,
) -> NodeReport {
    let me = node.entity.id();
    let mut host = Recording {
        me,
        trace,
        delivered: Vec::new(),
        tco_samples: Vec::new(),
        tap_samples: Vec::new(),
        host_tco: Vec::new(),
    };
    let panicked = node.run(&mut host).err();
    let (overrun_drops, metrics) = (node.overrun_drops(), *node.entity.metrics());
    let Tee(latency, Tee(log, Tee(recorder, live))) = node.entity.into_observer();
    let mut trace = host.host_tco;
    if let Some(log) = log {
        let node = me.raw();
        let events = log.into_events().into_iter();
        trace.extend(events.map(|event| TraceLine::Event { node, event }));
        // Events were appended after the HostTco lines; restore time
        // order (stable within equal timestamps).
        trace.sort_by_key(TraceLine::t_us);
    }
    NodeReport {
        id: me,
        delivered: host.delivered,
        tco_samples: host.tco_samples,
        tap_samples: host.tap_samples,
        overrun_drops,
        corrupt_frames: node.corrupt_frames,
        rejected_pdus: node.rejected_pdus,
        metrics,
        latency,
        trace,
        span_report: None,
        flight_recorder: RecorderDump::capture(&recorder, me.raw(), C::NAME, network),
        live_findings: live.findings(),
        panicked,
    }
}

/// A running cluster of entity threads.
#[derive(Debug)]
pub struct Cluster {
    commands: Vec<Commands>,
    threads: Vec<JoinHandle<NodeReport>>,
    /// The nodes' socket addresses; empty on the channel mesh.
    addrs: Vec<SocketAddr>,
    epoch: Instant,
    trace: bool,
}

impl Cluster {
    /// Spawns `n` entity threads fully meshed with bounded channels, all
    /// running the reference [`CoCore`] delivery engine.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadConfig`] if the derived engine configuration is
    /// invalid (e.g. `n < 2`).
    pub fn start(n: usize, options: ClusterOptions) -> Result<Cluster, TransportError> {
        Cluster::start_with_core::<CoCore>(n, options)
    }

    /// Spawns a cluster whose entities run the delivery core `C` —
    /// [`CoCore`], [`co_protocol::HybridCore`], [`co_protocol::SenderCore`]
    /// or any other [`DeliveryCore`] — and exchange encoded PDUs over
    /// bounded channels. All nodes share the core type; the returned
    /// handle is core-erased (reports carry the core's name in their
    /// flight-recorder dump, not in their type).
    ///
    /// # Errors
    ///
    /// As [`Cluster::start`].
    pub fn start_with_core<C: DeliveryCore>(
        n: usize,
        options: ClusterOptions,
    ) -> Result<Cluster, TransportError> {
        let inboxes: Vec<_> = (0..n).map(|_| Inbox::new(options.inbox_capacity)).collect();
        let senders: Vec<Inbox> = inboxes.iter().map(|(tx, _)| tx.clone()).collect();
        let epoch = Instant::now();
        let nodes = inboxes.into_iter().enumerate().map(|(i, inbox)| {
            let mut peers = senders.clone();
            peers.remove(i);
            let entity = cluster_entity::<C>(n, i, &options)?;
            Ok(Node::new(entity, inbox, Link::Mesh(peers), epoch, &options))
        });
        let nodes = nodes.collect::<Result<_, _>>()?;
        let mesh = Vec::new();
        Ok(Cluster::spawn(
            nodes,
            mesh,
            epoch,
            options.trace,
            "threaded",
        ))
    }

    /// Like [`Cluster::start_with_core`], but every node owns a UDP socket
    /// on 127.0.0.1 (OS-assigned port, see [`Cluster::local_addrs`]) and
    /// PDUs travel as real datagrams.
    ///
    /// # Errors
    ///
    /// As [`Cluster::start`], plus [`TransportError::Socket`].
    pub fn start_udp<C: DeliveryCore>(
        n: usize,
        options: ClusterOptions,
    ) -> Result<Cluster, TransportError> {
        let sockets = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(TransportError::Socket)?;
        let addrs = sockets
            .iter()
            .map(UdpSocket::local_addr)
            .collect::<Result<Vec<_>, _>>()
            .map_err(TransportError::Socket)?;
        let epoch = Instant::now();
        let nodes = sockets.into_iter().enumerate().map(|(i, socket)| {
            let mut peers = addrs.clone();
            peers.remove(i);
            let entity = cluster_entity::<C>(n, i, &options)?;
            let reader = format!("co-udp-reader-{i}");
            Node::udp(entity, socket, peers, epoch, &options, reader)
                .map_err(TransportError::Socket)
        });
        let nodes = nodes.collect::<Result<_, _>>()?;
        Ok(Cluster::spawn(nodes, addrs, epoch, options.trace, "udp"))
    }

    /// Starts one thread per node, once every node could be built.
    /// `network` labels the recorder dumps: these transports run on real
    /// channels or sockets, not an `mc-net` preset.
    fn spawn<C: DeliveryCore>(
        nodes: Vec<(Node<C, NodeObserver>, Commands)>,
        addrs: Vec<SocketAddr>,
        epoch: Instant,
        trace: bool,
        network: &'static str,
    ) -> Cluster {
        let mut commands = Vec::new();
        let mut threads = Vec::new();
        for (i, (node, handle)) in nodes.into_iter().enumerate() {
            commands.push(handle);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("co-entity-{i}"))
                    .spawn(move || run_node(node, trace, network))
                    .expect("spawn entity thread"),
            );
        }
        Cluster {
            commands,
            threads,
            addrs,
            epoch,
            trace,
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.commands.len()
    }

    /// The UDP address of each node, indexed by entity; empty for a
    /// cluster on the channel mesh.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Submits a payload for causally ordered broadcast at entity `index`.
    /// The submit timestamp is framed in for Tap measurement.
    ///
    /// # Errors
    ///
    /// [`TransportError::NoSuchEntity`] / [`TransportError::NodeGone`].
    pub fn submit(&self, index: usize, payload: Bytes) -> Result<(), TransportError> {
        let n = self.n();
        let node = self
            .commands
            .get(index)
            .ok_or(TransportError::NoSuchEntity { index, n })?;
        if node.submit(frame_payload(self.epoch, &payload)) {
            Ok(())
        } else {
            Err(TransportError::NodeGone { index })
        }
    }

    /// Requests shutdown, waits for every node to drain, and returns the
    /// per-node reports (indexed by entity). When tracing was enabled the
    /// per-node traces are merged and analyzed once ([`co_trace::analyze`]
    /// with default thresholds), and the resulting cluster-wide
    /// [`co_trace::SpanReport`] is attached to every report.
    ///
    /// # Panics
    ///
    /// If a node panicked mid-run, after dumping every node's flight
    /// recorder to stderr.
    pub fn shutdown(self) -> Vec<NodeReport> {
        drop(self.commands);
        let mut reports: Vec<NodeReport> = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("entity thread panicked outside its guard"))
            .collect();
        if let Some(victim) = reports.iter().find(|r| r.panicked.is_some()) {
            // A node crashed mid-run. Dump every node's black box to
            // stderr first — the recorder rings are the only record of
            // the cluster's final transitions — then propagate the
            // failure so callers see the panic, not a quiet partial run.
            for r in &reports {
                eprintln!("{}", r.flight_recorder.to_json().to_compact());
            }
            panic!(
                "entity thread {} panicked: {}",
                victim.id,
                victim.panicked.as_deref().unwrap_or("unknown")
            );
        }
        if self.trace {
            let trace = crate::report::merged_trace(&reports);
            let analysis = co_trace::analyze(&trace, &co_trace::AnomalyConfig::default());
            for report in &mut reports {
                report.span_report = Some(analysis.clone());
            }
        }
        reports
    }
}

/// Entity `index` of `n` with the cluster's observer stack.
fn cluster_entity<C: DeliveryCore>(
    n: usize,
    index: usize,
    options: &ClusterOptions,
) -> Result<Entity<C, NodeObserver>, TransportError> {
    let me = EntityId::new(index as u32);
    let observer = Tee(
        LatencyTracker::default(),
        Tee(
            options.trace.then(EventLog::default),
            Tee(
                FlightRecorder::new(options.recorder_depth),
                LiveDetector::new(me.raw(), co_trace::AnomalyConfig::default()),
            ),
        ),
    );
    options
        .config(n, me)
        .and_then(|config| Entity::with_observer(config, observer))
        .map_err(TransportError::BadConfig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_message_reaches_all_threads() {
        let cluster = Cluster::start(3, ClusterOptions::default()).unwrap();
        cluster.submit(0, Bytes::from_static(b"hello")).unwrap();
        let reports = cluster.shutdown();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert_eq!(r.delivered.len(), 1, "at {}", r.id);
            assert_eq!(&r.delivered[0].2[..], b"hello");
            assert_eq!(r.delivered[0].0, EntityId::new(0));
        }
        // Remote nodes measured a Tap sample; the sender did not (own
        // message).
        assert!(reports[1].tap_samples.len() == 1);
        assert!(reports[0].tap_samples.is_empty());
    }

    #[test]
    fn concurrent_senders_converge() {
        let cluster = Cluster::start(4, ClusterOptions::default()).unwrap();
        for round in 0..5 {
            for i in 0..4 {
                cluster
                    .submit(i, Bytes::from(format!("m-{round}-{i}").into_bytes()))
                    .unwrap();
            }
        }
        let reports = cluster.shutdown();
        for r in &reports {
            assert_eq!(r.delivered.len(), 20, "all 20 messages at {}", r.id);
            // Per-sender FIFO:
            for src in 0..4u32 {
                let seqs: Vec<u64> = r
                    .delivered
                    .iter()
                    .filter(|(s, _, _)| *s == EntityId::new(src))
                    .map(|&(_, seq, _)| seq)
                    .collect();
                let mut sorted = seqs.clone();
                sorted.sort_unstable();
                assert_eq!(seqs, sorted, "FIFO from E{src} at {}", r.id);
            }
        }
        // Tco was measured on every received PDU.
        assert!(reports.iter().all(|r| !r.tco_samples.is_empty()));
    }

    #[test]
    fn out_of_range_submit_rejected() {
        let cluster = Cluster::start(2, ClusterOptions::default()).unwrap();
        assert!(matches!(
            cluster.submit(5, Bytes::new()),
            Err(TransportError::NoSuchEntity { index: 5, n: 2 })
        ));
        cluster.shutdown();
    }

    #[test]
    fn empty_run_shuts_down_cleanly() {
        let cluster = Cluster::start(2, ClusterOptions::default()).unwrap();
        let reports = cluster.shutdown();
        assert!(reports.iter().all(|r| r.delivered.is_empty()));
    }
    #[test]
    fn udp_cluster_delivers_broadcasts() {
        let cluster = Cluster::start_udp::<CoCore>(3, ClusterOptions::default()).expect("start");
        for k in 0..5 {
            for i in 0..3 {
                cluster
                    .submit(i, Bytes::from(format!("u{i}-{k}").into_bytes()))
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
        let cluster = Cluster::start_udp::<CoCore>(2, ClusterOptions::default()).expect("start");
        for k in 0..20 {
            cluster
                .submit(0, Bytes::from(format!("{k}").into_bytes()))
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
        let cluster = Cluster::start_udp::<CoCore>(2, ClusterOptions::default()).expect("start");
        assert!(cluster.submit(9, Bytes::new()).is_err());
        cluster.shutdown();
    }

    #[test]
    fn frame_roundtrip() {
        let framed = frame_payload(Instant::now(), b"payload");
        let (ts, payload) = unframe_payload(&framed).unwrap();
        assert_eq!(&payload[..], b"payload");
        assert!(ts < 1_000_000, "timestamp is fresh");
        let (_, empty) = unframe_payload(&frame_payload(Instant::now(), b"")).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn unframe_rejects_short_buffers() {
        assert!(unframe_payload(&Bytes::from_static(b"short")).is_none());
    }
}
