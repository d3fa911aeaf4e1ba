//! One entity on one UDP socket with line-oriented IO, on the shared
//! real-time loop ([`co_transport::Node`]).
//!
//! Observability rides on the entity's observer hook: `--trace` streams
//! every [`ProtocolEvent`] to a JSONL file as it happens, and `--metrics`
//! serves the node's counters and per-stage latency histograms as
//! Prometheus-style text over plain HTTP. Neither costs anything when
//! off: the trace writer is a no-op without a file, and the histograms
//! are a fixed handful of bucket increments per event.

use bytes::Bytes;
use causal_order::EntityId;
use co_observe::jsonl::{self, TraceLine};
use co_observe::{prom, FlowGauge, LatencyTracker, Observer, ProtocolEvent, Tee};
use co_protocol::{CoCore, Delivery, DeliveryCore, Entity};
use co_trace::LiveDetector;
use co_transport::{ClusterOptions, Host, Node};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::args::NodeArgs;

/// Streams protocol events to a JSONL trace file; a no-op when disabled.
pub(crate) struct TraceWriter {
    node: u32,
    out: Option<std::io::BufWriter<std::fs::File>>,
}

impl TraceWriter {
    fn open(node: u32, path: Option<&str>) -> std::io::Result<TraceWriter> {
        let out = match path {
            Some(path) => Some(std::io::BufWriter::new(std::fs::File::create(path)?)),
            None => None,
        };
        Ok(TraceWriter { node, out })
    }

    fn flush(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

impl Observer for TraceWriter {
    fn on_event(&mut self, event: ProtocolEvent) {
        if let Some(out) = &mut self.out {
            let line = TraceLine::Event {
                node: self.node,
                event,
            };
            let _ = writeln!(out, "{}", jsonl::encode_line(&line));
        }
    }
}

/// The observer a CLI node runs with: always-on latency histograms,
/// flow-condition gauges and streaming anomaly detectors (all bounded
/// state), plus the optional trace stream.
type CliObserver = Tee<LatencyTracker, Tee<FlowGauge, Tee<TraceWriter, LiveDetector>>>;

/// Serves `text` (refreshed by the node thread) as an HTTP metrics
/// endpoint. One connection at a time is plenty for a scrape target.
fn serve_metrics(listener: TcpListener, text: Arc<Mutex<String>>) {
    use std::io::Read;
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        // Drain the request headers before responding: closing with
        // unread bytes in the socket would RST the scrape mid-read.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut req = [0u8; 1024];
        let mut seen = 0usize;
        while seen < req.len() {
            match stream.read(&mut req[seen..]) {
                Ok(0) | Err(_) => break,
                Ok(k) => {
                    seen += k;
                    if req[..seen].windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        let body = text.lock().map(|t| t.clone()).unwrap_or_default();
        let _ = write!(
            stream,
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\n\
             content-length: {}\r\nconnection: close\r\n\r\n{}",
            body.len(),
            body
        );
    }
}

/// Events the node reports to its frontend (stdout in the binary, a
/// channel in tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// The node is bound and running.
    Ready {
        /// The local address actually bound.
        local: SocketAddr,
        /// Cluster size.
        n: usize,
    },
    /// A message reached the application, in causal order.
    Delivered {
        /// Originating entity.
        origin: EntityId,
        /// Origin sequence number.
        seq: u64,
        /// The message text.
        text: String,
    },
    /// The node drained and stopped.
    Stopped,
}

/// Control handle returned to the frontend.
#[derive(Debug)]
pub struct NodeHandle {
    /// Send lines to broadcast; drop (or send `None`) to shut down.
    pub input: Sender<Option<String>>,
    /// Receive node events.
    pub events: Receiver<NodeEvent>,
    /// Join handle of the node thread; an `Err` means the node panicked
    /// (after flushing its trace).
    pub thread: std::thread::JoinHandle<()>,
}

/// How often the node refreshes the metrics endpoint's text.
const PUBLISH_INTERVAL: Duration = Duration::from_millis(250);

/// What a CLI node does with the loop's outputs. It runs for as long as
/// its operator likes, so it keeps nothing per delivery or per drain:
/// deliveries go to the frontend, counters to the metrics text.
struct Frontend {
    events: Sender<NodeEvent>,
    /// The text the metrics endpoint serves, and when it was last rendered.
    metrics: Option<(Arc<Mutex<String>>, Option<Instant>)>,
    labels: prom::SeriesLabels,
}

impl Host<CoCore, CliObserver> for Frontend {
    fn deliver(&mut self, d: Delivery, _now_us: u64) {
        let _ = self.events.send(NodeEvent::Delivered {
            origin: d.src,
            seq: d.seq.get(),
            text: String::from_utf8_lossy(&d.data).into_owned(),
        });
    }

    fn turn(&mut self, entity: &Entity<CoCore, CliObserver>) {
        let Some((text, published)) = &mut self.metrics else {
            return;
        };
        if published.is_some_and(|t| t.elapsed() < PUBLISH_INTERVAL) {
            return;
        }
        let Tee(latency, Tee(flow, Tee(_, live))) = entity.observer();
        let snapshot = entity.metrics().snapshot();
        let mut rendered = prom::render_with_flow(&self.labels, &snapshot, latency, flow);
        // The live anomaly pipeline rides the same endpoint: one gauge per
        // finding kind, explicit zeros included.
        prom::render_findings(&self.labels, &live.kind_counts(), &mut rendered);
        if let Ok(mut slot) = text.lock() {
            *slot = rendered;
        }
        *published = Some(Instant::now());
    }
}

/// Spawns the node on its own thread.
///
/// # Errors
///
/// Returns an IO error if the socket cannot be bound, or a config error
/// (as `std::io::Error::other`) for invalid cluster parameters.
pub fn run_node(args: NodeArgs) -> std::io::Result<NodeHandle> {
    let n = args.peers.len() + 1;
    let me = EntityId::new(args.me);
    let options = ClusterOptions {
        cid: args.cid,
        window: args.window,
        ..ClusterOptions::default()
    };
    let config = options.config(n, me).map_err(std::io::Error::other)?;
    let observer = Tee(
        LatencyTracker::default(),
        Tee(
            FlowGauge::default(),
            Tee(
                TraceWriter::open(args.me, args.trace.as_deref())?,
                LiveDetector::new(args.me, co_trace::AnomalyConfig::default()),
            ),
        ),
    );
    let entity = Entity::with_observer(config, observer).map_err(std::io::Error::other)?;

    // The metrics endpoint serves whatever the node last rendered.
    let metrics = match args.metrics {
        Some(addr) => {
            let listener = TcpListener::bind(addr)?;
            let text = Arc::new(Mutex::new(String::new()));
            let served = Arc::clone(&text);
            std::thread::Builder::new()
                .name(format!("co-node-{}-metrics", args.me))
                .spawn(move || serve_metrics(listener, served))
                .expect("spawn metrics thread");
            Some((text, None))
        }
        None => None,
    };
    // Every exported series names the node, the delivery core it runs
    // (the CLI always runs the reference engine), and — when the deployer
    // said so — the network profile.
    let mut labels = prom::SeriesLabels::node(args.me).with_core(CoCore::NAME);
    if let Some(network) = &args.network_label {
        labels = labels.with_network(network);
    }

    let socket = UdpSocket::bind(args.bind)?;
    let local = socket.local_addr()?;
    // Every peer gets every frame, so the order of `--peer` flags is only
    // documentation.
    let reader = format!("co-node-{}-reader", args.me);
    let (mut node, commands) =
        Node::udp(entity, socket, args.peers, Instant::now(), &options, reader)?;

    let (input, lines) = channel::<Option<String>>();
    let (event_tx, events) = channel::<NodeEvent>();
    let _ = event_tx.send(NodeEvent::Ready { local, n });
    // Lines become submits; `None`, or the frontend hanging up, drops the
    // command handle, which is the shutdown request.
    let forwarder = std::thread::Builder::new()
        .name(format!("co-node-{}-input", args.me))
        .spawn(move || {
            while let Ok(Some(line)) = lines.recv() {
                commands.submit(Bytes::from(line.into_bytes()));
            }
        })
        .expect("spawn input thread");

    let mut frontend = Frontend {
        events: event_tx,
        metrics,
        labels,
    };
    let thread = std::thread::Builder::new()
        .name(format!("co-node-{}", args.me))
        .spawn(move || {
            let outcome = node.run(&mut frontend);
            node.entity.observer_mut().1 .1 .0.flush();
            let _ = frontend.events.send(NodeEvent::Stopped);
            match outcome {
                // The loop returns because the forwarder let go of the
                // command handle, which is the last thing it does.
                Ok(()) => forwarder.join().expect("input thread does not panic"),
                Err(message) => panic!("node {} panicked: {message}", args.me),
            }
        })
        .expect("spawn node thread");

    Ok(NodeHandle {
        input,
        events,
        thread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn argvec(s: String) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Binds throwaway sockets to find free ports, then releases them.
    fn free_ports(k: usize) -> Vec<u16> {
        let sockets: Vec<UdpSocket> = (0..k)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        sockets
            .iter()
            .map(|s| s.local_addr().unwrap().port())
            .collect()
    }

    #[test]
    fn two_node_chat_session() {
        let ports = free_ports(2);
        let a = run_node(
            parse_args(argvec(format!(
                "--me 0 --bind 127.0.0.1:{} --peer 127.0.0.1:{}",
                ports[0], ports[1]
            )))
            .unwrap(),
        )
        .unwrap();
        let b = run_node(
            parse_args(argvec(format!(
                "--me 1 --bind 127.0.0.1:{} --peer 127.0.0.1:{}",
                ports[1], ports[0]
            )))
            .unwrap(),
        )
        .unwrap();

        assert!(matches!(
            a.events.recv().unwrap(),
            NodeEvent::Ready { n: 2, .. }
        ));
        assert!(matches!(
            b.events.recv().unwrap(),
            NodeEvent::Ready { n: 2, .. }
        ));

        a.input.send(Some("hello from a".into())).unwrap();
        b.input.send(Some("hello from b".into())).unwrap();

        // Each side must deliver both messages (own + remote).
        let collect = |events: &Receiver<NodeEvent>| -> Vec<String> {
            let mut out = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while out.len() < 2 && Instant::now() < deadline {
                if let Ok(NodeEvent::Delivered { text, .. }) =
                    events.recv_timeout(Duration::from_millis(200))
                {
                    out.push(text);
                }
            }
            out.sort();
            out
        };
        let got_a = collect(&a.events);
        let got_b = collect(&b.events);
        assert_eq!(
            got_a,
            vec!["hello from a".to_string(), "hello from b".to_string()]
        );
        assert_eq!(got_a, got_b);

        a.input.send(None).unwrap();
        b.input.send(None).unwrap();
        a.thread.join().unwrap();
        b.thread.join().unwrap();
    }

    #[test]
    fn trace_and_metrics_observability() {
        let ports = free_ports(3);
        let trace_path = std::env::temp_dir().join(format!("co-node-trace-{}.jsonl", ports[0]));
        let trace_str = trace_path.to_string_lossy().into_owned();

        let a = run_node(
            parse_args(argvec(format!(
                "--me 0 --bind 127.0.0.1:{} --peer 127.0.0.1:{} \
                 --trace {} --metrics 127.0.0.1:{} --network-label lan",
                ports[0], ports[1], trace_str, ports[2]
            )))
            .unwrap(),
        )
        .unwrap();
        let b = run_node(
            parse_args(argvec(format!(
                "--me 1 --bind 127.0.0.1:{} --peer 127.0.0.1:{}",
                ports[1], ports[0]
            )))
            .unwrap(),
        )
        .unwrap();

        a.input.send(Some("traced message".into())).unwrap();
        b.input.send(Some("reply".into())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered = 0;
        while delivered < 2 && Instant::now() < deadline {
            if let Ok(NodeEvent::Delivered { .. }) =
                a.events.recv_timeout(Duration::from_millis(200))
            {
                delivered += 1;
            }
        }
        assert_eq!(
            delivered, 2,
            "node A delivers its own message and the reply"
        );

        // Scrape the metrics endpoint while the node is live.
        let scrape = {
            use std::io::Read;
            let mut stream =
                std::net::TcpStream::connect(("127.0.0.1", ports[2])).expect("metrics reachable");
            stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
            let mut text = String::new();
            stream.read_to_string(&mut text).unwrap();
            text
        };
        assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
        // Every series carries the node, core, and (opted-in) network
        // labels.
        let labels = "node=\"0\",core=\"co\",network=\"lan\"";
        assert!(
            scrape.contains(&format!("co_delivered_total{{{labels}}}")),
            "{scrape}"
        );
        assert!(scrape.contains("co_latency_us_count"), "{scrape}");
        // The flow-condition gauges ride the same endpoint.
        assert!(
            scrape.contains(&format!("co_flow_blocked{{{labels}}}")),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!("co_flow_blocked_events_total{{{labels}}}")),
            "{scrape}"
        );
        // So do the live anomaly-finding gauges, zeros included.
        assert!(
            scrape.contains(&format!(
                "co_anomaly_findings{{{labels},kind=\"ret_storm\"}}"
            )),
            "{scrape}"
        );
        assert!(
            scrape.contains(&format!(
                "co_anomaly_findings{{{labels},kind=\"never_acknowledged\"}}"
            )),
            "{scrape}"
        );

        a.input.send(None).unwrap();
        b.input.send(None).unwrap();
        a.thread.join().unwrap();
        b.thread.join().unwrap();

        // The trace file must hold a parseable event stream covering the
        // node's own broadcast and both deliveries.
        let text = std::fs::read_to_string(&trace_path).expect("trace file written");
        let lines = jsonl::parse_trace(&text);
        assert_eq!(
            lines.len(),
            text.lines().count(),
            "every line must parse back"
        );
        let delivered_events = lines
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    TraceLine::Event {
                        node: 0,
                        event: ProtocolEvent::Delivered { .. }
                    }
                )
            })
            .count();
        assert_eq!(delivered_events, 2, "both deliveries are in the trace");
        assert!(lines.iter().any(|l| matches!(
            l,
            TraceLine::Event {
                event: ProtocolEvent::DataSent { .. },
                ..
            }
        )));
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn node_stops_cleanly_without_traffic() {
        let ports = free_ports(2);
        let a = run_node(
            parse_args(argvec(format!(
                "--me 0 --bind 127.0.0.1:{} --peer 127.0.0.1:{}",
                ports[0], ports[1]
            )))
            .unwrap(),
        )
        .unwrap();
        let _ready = a.events.recv().unwrap();
        a.input.send(None).unwrap();
        a.thread.join().unwrap();
        // The final event is Stopped.
        let mut last = None;
        while let Ok(e) = a.events.try_recv() {
            last = Some(e);
        }
        assert_eq!(last, Some(NodeEvent::Stopped));
    }
}
