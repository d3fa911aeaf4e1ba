//! Shared simulation runner: build a CO cluster on `mc-net`, drive a
//! workload, collect per-node outcomes.

use bytes::Bytes;
use causal_order::EntityId;
use co_baselines::{EntityNode, NodeCmd};
use co_protocol::{Config, DeferralPolicy, Metrics, RetransmissionPolicy};
use mc_net::{NetStats, SimConfig, SimTime, Simulator};

/// Which entities generate application traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Senders {
    /// Every entity submits (the paper's file-transfer-like workload).
    All,
    /// Only `E_1` submits (stresses the confirmation machinery).
    One,
}

/// Parameters of one simulated CO run.
#[derive(Debug, Clone)]
pub struct CoRunParams {
    /// Cluster size.
    pub n: usize,
    /// Flow-condition window `W`.
    pub window: u64,
    /// Confirmation policy.
    pub deferral: DeferralPolicy,
    /// Retransmission policy.
    pub retransmission: RetransmissionPolicy,
    /// Network configuration.
    pub sim: SimConfig,
    /// Messages submitted per sending entity.
    pub messages_per_sender: usize,
    /// Microseconds between consecutive submissions at one entity.
    pub submit_interval_us: u64,
    /// Which entities send.
    pub senders: Senders,
    /// Payload size in bytes.
    pub payload: usize,
}

impl Default for CoRunParams {
    fn default() -> Self {
        CoRunParams {
            n: 3,
            window: 32,
            deferral: DeferralPolicy::Deferred { timeout_us: 2_000 },
            retransmission: RetransmissionPolicy::Selective,
            sim: SimConfig::default(),
            messages_per_sender: 20,
            submit_interval_us: 500,
            senders: Senders::All,
            payload: 64,
        }
    }
}

/// What one node saw during the run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The entity.
    pub id: EntityId,
    /// Deliveries in order: `(origin, origin_seq, when)`.
    pub delivered: Vec<(EntityId, u64, SimTime)>,
    /// When this entity submitted its k-th payload (k-th entry; the
    /// payload carries `origin_seq = k+1`).
    pub submitted: Vec<SimTime>,
    /// Engine counters.
    pub metrics: Metrics,
    /// Peak protocol-buffer occupancy in PDUs.
    pub peak_held: usize,
    /// Whether the entity ended the run fully stable: nothing held or
    /// queued, and everything accepted known globally pre-acked — the
    /// liveness oracle `co-check` also asserts.
    pub fully_stable: bool,
}

/// Aggregate result of one run.
#[derive(Debug, Clone)]
pub struct CoRunResult {
    /// Cluster size.
    pub n: usize,
    /// Per-node outcomes, indexed by entity.
    pub nodes: Vec<NodeOutcome>,
    /// Network statistics.
    pub net: NetStats,
    /// Simulated time when the run went idle.
    pub makespan: SimTime,
    /// Total messages submitted across the cluster.
    pub total_messages: usize,
}

impl CoRunResult {
    /// Every entity delivered every message exactly once.
    pub fn all_delivered(&self) -> bool {
        self.nodes
            .iter()
            .all(|node| node.delivered.len() == self.total_messages)
    }

    /// Submit→deliver latencies (µs) for all `(origin, seq)` pairs at all
    /// *receiving* entities.
    pub fn delivery_latencies_us(&self) -> Vec<u64> {
        let mut latencies = Vec::new();
        for node in &self.nodes {
            for &(origin, seq, at) in &node.delivered {
                if origin == node.id {
                    continue;
                }
                let submit = self.nodes[origin.index()]
                    .submitted
                    .get((seq - 1) as usize)
                    .copied();
                if let Some(t0) = submit {
                    latencies.push(at.since(t0).as_micros());
                }
            }
        }
        latencies
    }

    /// Total PDUs broadcast by all entities (each counted once, not per
    /// link copy), split by class: `(data, retransmissions, ret, ack_only)`.
    pub fn pdu_breakdown(&self) -> (u64, u64, u64, u64) {
        let mut out = (0, 0, 0, 0);
        for node in &self.nodes {
            out.0 += node.metrics.data_sent();
            out.1 += node.metrics.retransmissions_sent();
            out.2 += node.metrics.ret_sent();
            out.3 += node.metrics.ack_only_sent();
        }
        out
    }

    /// All PDUs broadcast (sum of the breakdown).
    pub fn total_pdus(&self) -> u64 {
        let (a, b, c, d) = self.pdu_breakdown();
        a + b + c + d
    }

    /// Rebuilds the application-level event trace for the §2.2 property
    /// oracles: per entity, broadcast and delivery events merged in
    /// timestamp order (ties resolved broadcast-first, which only weakens
    /// the causal requirements — conservative for checking).
    pub fn run_trace(&self) -> causal_order::properties::RunTrace {
        use causal_order::MsgId;
        let mut trace = causal_order::properties::RunTrace::new(self.n);
        let msg_id = |origin: EntityId, seq: u64| MsgId(origin.index() as u64 * 1_000_000 + seq);
        for node in &self.nodes {
            #[derive(Clone, Copy)]
            enum Ev {
                Broadcast(u64),
                Deliver(EntityId, u64),
            }
            let mut events: Vec<(SimTime, u8, Ev)> = Vec::new();
            for (k, &at) in node.submitted.iter().enumerate() {
                events.push((at, 0, Ev::Broadcast(k as u64 + 1)));
            }
            for &(origin, seq, at) in &node.delivered {
                events.push((at, 1, Ev::Deliver(origin, seq)));
            }
            events.sort_by_key(|&(at, kind, _)| (at, kind));
            for (_, _, ev) in events {
                match ev {
                    Ev::Broadcast(seq) => trace.record_broadcast(node.id, msg_id(node.id, seq)),
                    Ev::Deliver(origin, seq) => trace.record_delivery(node.id, msg_id(origin, seq)),
                }
            }
        }
        trace
    }
}

/// Extra engine switches for ablation runs.
#[derive(Debug, Clone, Copy)]
pub struct AblationSwitches {
    /// `Config::control_updates_al`: whether `RET`/`AckOnly` PDUs update
    /// the knowledge matrices. `false` = paper-strict (only data PDUs
    /// carry knowledge).
    pub control_updates_al: bool,
}

impl Default for AblationSwitches {
    fn default() -> Self {
        AblationSwitches {
            control_updates_al: true,
        }
    }
}

type CoSim = Simulator<EntityNode>;

/// Like [`run_co`] but stops at simulated `deadline` instead of waiting
/// for quiescence — required for ablations that disable the liveness
/// extensions (a paper-strict run may never quiesce after the last data
/// PDU, exactly the gap the extensions close).
pub fn run_co_for(
    params: &CoRunParams,
    switches: AblationSwitches,
    deadline: SimTime,
) -> CoRunResult {
    let (mut sim, total_messages) = build_sim(params, switches);
    sim.run_until(deadline);
    collect(params, sim, total_messages)
}

/// Runs one simulated CO workload to quiescence.
///
/// # Panics
///
/// Panics on invalid parameters (`n < 2`) or if the run exceeds the
/// simulator's event budget (livelock).
pub fn run_co(params: &CoRunParams) -> CoRunResult {
    let (mut sim, total_messages) = build_sim(params, AblationSwitches::default());
    sim.run_until_idle();
    collect(params, sim, total_messages)
}

fn build_sim(params: &CoRunParams, switches: AblationSwitches) -> (CoSim, usize) {
    let n = params.n;
    let nodes: Vec<EntityNode> = (0..n)
        .map(|i| {
            let cfg = Config::builder(1, n, EntityId::new(i as u32))
                .window(params.window)
                .deferral(params.deferral)
                .retransmission(params.retransmission)
                .control_updates_al(switches.control_updates_al)
                .build()
                .expect("valid config");
            EntityNode::new(cfg).expect("valid entity")
        })
        .collect();
    let mut sim = Simulator::new(params.sim.clone(), nodes);

    let senders: Vec<usize> = match params.senders {
        Senders::All => (0..n).collect(),
        Senders::One => vec![0],
    };
    for k in 0..params.messages_per_sender {
        for &s in &senders {
            // Stagger entities slightly so submissions are not simultaneous.
            let at =
                SimTime::from_micros(k as u64 * params.submit_interval_us + (s as u64 * 7) % 97);
            let payload = Bytes::from(vec![s as u8; params.payload.max(1)]);
            sim.schedule_command(at, EntityId::new(s as u32), NodeCmd::Submit(payload));
        }
    }
    let total_messages = senders.len() * params.messages_per_sender;
    (sim, total_messages)
}

fn collect(params: &CoRunParams, sim: CoSim, total_messages: usize) -> CoRunResult {
    let n = params.n;
    let nodes = sim
        .nodes()
        .map(|(id, node)| NodeOutcome {
            id,
            delivered: node
                .delivered()
                .map(|(d, at)| (d.src, d.seq.get(), at))
                .collect(),
            submitted: node.submitted().collect(),
            metrics: *node.entity().metrics(),
            peak_held: node.entity().peak_held_pdus(),
            fully_stable: node.entity().is_fully_stable(),
        })
        .collect();
    CoRunResult {
        n,
        nodes,
        net: sim.stats(),
        makespan: sim.now(),
        total_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_delivers_everything() {
        let result = run_co(&CoRunParams::default());
        assert_eq!(result.total_messages, 60);
        assert!(
            result.all_delivered(),
            "per-node: {:?}",
            result
                .nodes
                .iter()
                .map(|o| o.delivered.len())
                .collect::<Vec<_>>()
        );
        assert!(result.makespan > SimTime::ZERO);
        assert!(!result.delivery_latencies_us().is_empty());
    }

    #[test]
    fn single_sender_run() {
        let result = run_co(&CoRunParams {
            senders: Senders::One,
            messages_per_sender: 10,
            ..CoRunParams::default()
        });
        assert_eq!(result.total_messages, 10);
        assert!(result.all_delivered());
        let (data, _, _, _) = result.pdu_breakdown();
        assert_eq!(data, 10);
    }

    #[test]
    fn latencies_reference_submit_times() {
        let result = run_co(&CoRunParams {
            messages_per_sender: 5,
            ..CoRunParams::default()
        });
        let lats = result.delivery_latencies_us();
        // 15 messages, each delivered at 2 remote nodes.
        assert_eq!(lats.len(), 30);
        assert!(lats.iter().all(|&l| l > 0));
    }
}
