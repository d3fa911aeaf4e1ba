//! Cluster lifecycle: spawn threads, submit payloads, collect reports.

use bytes::Bytes;
use causal_order::EntityId;
use co_observe::{EventLog, FlightRecorder, LatencyTracker, Tee, DEFAULT_RECORDER_DEPTH};
use co_protocol::{CoCore, Config, DeferralPolicy, DeliveryCore, Entity};
use co_trace::LiveDetector;
use crossbeam::channel::{bounded, unbounded, Sender};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::node::{frame_payload, Cmd, NodeRuntime};
use crate::report::NodeReport;

/// Options for a real-time cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Bounded inbound-channel capacity per node (the NIC buffer, in PDUs).
    pub inbox_capacity: usize,
    /// Deferred-confirmation policy for all entities.
    pub deferral: DeferralPolicy,
    /// Flow-condition window `W`.
    pub window: u64,
    /// Interval between engine ticks on each node thread.
    pub tick_interval: Duration,
    /// Artificial extra per-PDU processing cost (zero = none).
    pub proc_delay: Duration,
    /// Artificial per-copy egress serialization cost (zero = none). The
    /// real-time parity knob for `mc-net`'s `BandwidthModel::Shared`: a
    /// broadcast of `k` copies holds the sender's thread for `k × pace`,
    /// so checker findings under the `contended` preset can be reproduced
    /// on the threaded transport. E.g. a 64-byte PDU on a 2 MB/s NIC is
    /// ~32µs of pace.
    pub egress_pace: Duration,
    /// How long nodes keep draining after shutdown before reporting.
    pub drain_idle: Duration,
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
            tick_interval: Duration::from_micros(500),
            proc_delay: Duration::ZERO,
            egress_pace: Duration::ZERO,
            drain_idle: Duration::from_millis(30),
            cid: 1,
            trace: false,
            drain_batch: 32,
            recorder_depth: DEFAULT_RECORDER_DEPTH,
        }
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
    BadConfig(co_protocol::ConfigError),
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
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::BadConfig(e) => Some(e),
            _ => None,
        }
    }
}

/// A running cluster of entity threads.
#[derive(Debug)]
pub struct Cluster {
    cmd_txs: Vec<Sender<Cmd>>,
    threads: Vec<JoinHandle<NodeReport>>,
    epoch: Instant,
    n: usize,
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
    /// or any other [`DeliveryCore`]. All nodes share the core type; the
    /// returned handle is core-erased (reports carry the core's name via
    /// its metrics, not its type).
    pub fn start_with_core<C: DeliveryCore>(
        n: usize,
        options: ClusterOptions,
    ) -> Result<Cluster, TransportError> {
        let epoch = Instant::now();
        // Wire the full mesh.
        let mut pdu_txs = Vec::with_capacity(n);
        let mut pdu_rxs = Vec::with_capacity(n);
        let mut overruns = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = bounded::<Bytes>(options.inbox_capacity);
            pdu_txs.push(tx);
            pdu_rxs.push(rx);
            overruns.push(Arc::new(AtomicU64::new(0)));
        }
        let mut cmd_txs = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for (i, pdu_rx) in pdu_rxs.into_iter().enumerate() {
            let me = EntityId::new(i as u32);
            let config = Config::builder(options.cid, n, me)
                .deferral(options.deferral)
                .window(options.window)
                .build()
                .map_err(TransportError::BadConfig)?;
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
            let entity = Entity::<C, _>::with_observer(config, observer)
                .map_err(TransportError::BadConfig)?;
            let (cmd_tx, cmd_rx) = unbounded::<Cmd>();
            cmd_txs.push(cmd_tx);
            let peers: Vec<Option<Sender<Bytes>>> = pdu_txs
                .iter()
                .enumerate()
                .map(|(j, tx)| if j == i { None } else { Some(tx.clone()) })
                .collect();
            let peer_overruns: Vec<Option<Arc<AtomicU64>>> = overruns
                .iter()
                .enumerate()
                .map(|(j, c)| if j == i { None } else { Some(Arc::clone(c)) })
                .collect();
            let runtime = NodeRuntime {
                entity,
                me,
                trace: options.trace,
                peers,
                peer_overruns,
                pdu_rx,
                cmd_rx,
                overruns: Arc::clone(&overruns[i]),
                epoch,
                tick_interval: options.tick_interval,
                proc_delay: options.proc_delay,
                egress_pace: options.egress_pace,
                drain_idle: options.drain_idle,
                drain_batch: options.drain_batch.max(1),
                ack_pool: co_wire::AckBufPool::new(),
                frame_scratch: Vec::new(),
                pdu_scratch: Vec::new(),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("co-entity-{i}"))
                    .spawn(move || runtime.run())
                    .expect("spawn entity thread"),
            );
        }
        Ok(Cluster {
            cmd_txs,
            threads,
            epoch,
            n,
            trace: options.trace,
        })
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Submits a payload for causally ordered broadcast at entity `index`.
    /// The submit timestamp is framed in for Tap measurement.
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
        tx.send(Cmd::Submit(framed))
            .map_err(|_| TransportError::NodeGone { index })
    }

    /// Requests shutdown, waits for every node to drain, and returns the
    /// per-node reports (indexed by entity). When tracing was enabled the
    /// per-node traces are merged and analyzed once ([`co_trace::analyze`]
    /// with default thresholds), and the resulting cluster-wide
    /// [`co_trace::SpanReport`] is attached to every report.
    pub fn shutdown(self) -> Vec<NodeReport> {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        let mut reports: Vec<NodeReport> = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("entity thread panicked"))
            .collect();
        if reports.iter().any(|r| r.panicked.is_some()) {
            // A node crashed mid-run. Dump every node's black box to
            // stderr first — the recorder rings are the only record of
            // the cluster's final transitions — then propagate the
            // failure so callers see the panic, not a quiet partial run.
            for r in &reports {
                eprintln!("{}", r.flight_recorder.to_json().to_compact());
            }
            let victim = reports
                .iter()
                .find(|r| r.panicked.is_some())
                .expect("checked above");
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
    fn egress_pacing_delays_but_delivers_everything() {
        // A paced sender serializes its broadcast copies instead of
        // blasting them: throughput drops, the service does not.
        let cluster = Cluster::start(
            3,
            ClusterOptions {
                egress_pace: Duration::from_micros(50),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        for k in 0..6 {
            cluster
                .submit(0, Bytes::from(format!("paced-{k}").into_bytes()))
                .unwrap();
        }
        let reports = cluster.shutdown();
        for r in &reports {
            assert_eq!(r.delivered.len(), 6, "at {}", r.id);
        }
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
}
