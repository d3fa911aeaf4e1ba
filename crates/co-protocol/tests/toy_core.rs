//! A fourth delivery core, to prove the substrate/policy seam: per-source
//! FIFO delivery and nothing else — deliver on in-order acceptance, no
//! send gate, no causal buffer. Everything hard (F1/F2 detection, `RET`
//! repair, reorder buffering, flow control, confirmation pacing) is the
//! [`ReliableFifo`] substrate's; this is also the only test that drives
//! the substrate without any shipped policy above it.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{
    Action, ActionSink, Config, ConfigError, DataPdu, DeferralPolicy, DeliveryCore, Entity,
    Observer, Out, Pdu, ReliableFifo, RetransmissionPolicy,
};
use mc_net::{Context, LossModel, SimConfig, SimDuration, SimNode, SimTime, Simulator, TimerId};

/// FIFO-only ordering policy. Its whole knowledge is what each peer has
/// confirmed of *our* PDUs: the flow-window base, the send-log prune
/// bound and the stability test.
#[derive(Debug)]
struct FifoCore {
    me: usize,
    /// Highest `ack[me]` seen from each peer (own entry unused).
    peer_ack_of_me: Vec<Seq>,
}

impl FifoCore {
    fn min_ack_of_me(&self, fifo: &ReliableFifo) -> Seq {
        (0..self.peer_ack_of_me.len())
            .map(|j| {
                if j == self.me {
                    fifo.frontier()[j]
                } else {
                    self.peer_ack_of_me[j]
                }
            })
            .min()
            .expect("n >= 2")
    }
}

impl DeliveryCore for FifoCore {
    type State = Vec<Seq>;

    const NAME: &'static str = "fifo";

    fn new(config: &Config) -> Self {
        FifoCore {
            me: config.me.index(),
            peer_ack_of_me: vec![Seq::FIRST; config.n()],
        }
    }

    fn restore(config: &Config, state: Vec<Seq>) -> Result<Self, ConfigError> {
        ConfigError::check_len("peer_ack_of_me", state.len(), config.n())?;
        Ok(FifoCore {
            me: config.me.index(),
            peer_ack_of_me: state,
        })
    }

    fn export_state(&self) -> Vec<Seq> {
        self.peer_ack_of_me.clone()
    }

    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool {
        let confirmed = pdu.ack()[self.me];
        let slot = &mut self.peer_ack_of_me[pdu.src().index()];
        if confirmed > *slot {
            *slot = confirmed;
            let everywhere = self.min_ack_of_me(fifo);
            fifo.prune_send_log(everywhere);
        }
        // A confirmation whose sender misses data we hold, or whose view
        // of our confirmations (`acked`) is stale, is owed a refresher.
        let Pdu::AckOnly(a) = pdu else { return false };
        let next = fifo.frontier();
        (0..next.len()).any(|j| a.ack[j] < next[j] || a.acked[j] < next[j])
    }

    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.deliver(p, out);
    }

    fn sent<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.note_accepted(p.src, p.seq, false, out);
        fifo.deliver(p, out);
    }

    fn confirmed_of_me(&self, fifo: &ReliableFifo) -> Seq {
        self.min_ack_of_me(fifo)
    }

    fn confirmation(&mut self, fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>) {
        let mut acked = fifo.frontier().to_vec();
        acked[self.me] = self.min_ack_of_me(fifo);
        (fifo.frontier().to_vec(), acked)
    }

    fn held(&self) -> usize {
        0
    }

    fn state_bytes(&self, n: usize) -> usize {
        n * std::mem::size_of::<Seq>()
    }

    fn is_stable(&self, fifo: &ReliableFifo) -> bool {
        self.min_ack_of_me(fifo) >= fifo.frontier()[self.me]
    }
}

/// Hosts one toy-core entity on the simulator and records what the
/// application saw.
struct Node {
    entity: Entity<FifoCore>,
    delivered: Vec<(EntityId, Seq)>,
    armed: Option<u64>,
}

impl Node {
    fn apply(&mut self, actions: Vec<Action>, ctx: &mut Context<'_, Pdu>) {
        for action in actions {
            match action {
                Action::Broadcast(pdu) => ctx.broadcast(pdu),
                Action::Deliver(d) => self.delivered.push((d.src, d.seq)),
                _ => {}
            }
        }
        let now = ctx.now().as_micros();
        if let Some(deadline) = self.entity.next_deadline(now) {
            let fire_at = deadline.max(now);
            if self.armed.is_none_or(|armed| fire_at < armed) {
                ctx.set_timer(SimDuration::from_micros(fire_at - now));
                self.armed = Some(fire_at);
            }
        }
    }
}

impl SimNode for Node {
    type Msg = Pdu;
    type Cmd = Bytes;

    fn on_message(&mut self, _from: EntityId, msg: Pdu, ctx: &mut Context<'_, Pdu>) {
        let mut actions = Vec::new();
        self.entity
            .on_pdu(msg, ctx.now().as_micros(), &mut actions)
            .expect("wire PDUs are well-formed in simulation");
        self.apply(actions, ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Pdu>) {
        self.armed = None;
        let actions = self.entity.on_tick(ctx.now().as_micros());
        self.apply(actions, ctx);
    }

    fn on_command(&mut self, payload: Bytes, ctx: &mut Context<'_, Pdu>) {
        let (_, actions) = self
            .entity
            .submit(payload, ctx.now().as_micros())
            .expect("payload fits");
        self.apply(actions, ctx);
    }
}

const N: usize = 4;
const PER_SENDER: u64 = 40;

fn run(retransmission: RetransmissionPolicy) -> Simulator<Node> {
    let nodes = (0..N)
        .map(|i| Node {
            entity: Entity::with_observer(
                Config::builder(0, N, EntityId::new(i as u32))
                    .deferral(DeferralPolicy::Deferred { timeout_us: 2_000 })
                    .retransmission(retransmission)
                    .build()
                    .expect("valid config"),
                co_protocol::NoopObserver,
            )
            .expect("valid config"),
            delivered: Vec::new(),
            armed: None,
        })
        .collect();
    let mut sim = Simulator::new(
        SimConfig {
            loss: LossModel::Burst {
                p_good: 0.01,
                p_bad: 0.6,
                to_bad: 0.05,
                to_good: 0.3,
            },
            seed: 7,
            ..SimConfig::default()
        },
        nodes,
    );
    for k in 0..PER_SENDER {
        for i in 0..N {
            sim.schedule_command(
                SimTime::from_micros(100 + k * 400 + i as u64 * 37),
                EntityId::new(i as u32),
                Bytes::from(format!("{i}:{k}").into_bytes()),
            );
        }
    }
    sim.run_until_idle();
    sim
}

fn assert_fifo_service(sim: &Simulator<Node>) {
    for (id, node) in sim.nodes() {
        for src in (0..N).map(|s| EntityId::new(s as u32)) {
            let seqs: Vec<u64> = node
                .delivered
                .iter()
                .filter(|(s, _)| *s == src)
                .map(|(_, seq)| seq.get())
                .collect();
            let expected: Vec<u64> = (1..=PER_SENDER).collect();
            assert_eq!(
                seqs, expected,
                "{id} must deliver every message of {src} exactly once, in order"
            );
        }
        assert!(
            node.entity.is_fully_stable(),
            "{id} must quiesce fully stable"
        );
        assert_eq!(node.entity.pending_submits(), 0);
    }
}

fn total(sim: &Simulator<Node>, counter: impl Fn(&co_protocol::Metrics) -> u64) -> u64 {
    sim.nodes().map(|(_, n)| counter(n.entity.metrics())).sum()
}

#[test]
fn fifo_core_over_the_substrate_selective() {
    let sim = run(RetransmissionPolicy::Selective);
    assert_fifo_service(&sim);
    assert!(sim.stats().link_drops > 0, "the burst model must drop PDUs");
    assert!(
        total(&sim, |m| m.ret_sent()) > 0,
        "losses must be requested"
    );
    assert!(
        total(&sim, |m| m.accepted_from_reorder()) > 0,
        "selective repair must release buffered PDUs"
    );
}

#[test]
fn fifo_core_over_the_substrate_go_back_n() {
    let sim = run(RetransmissionPolicy::GoBackN);
    assert_fifo_service(&sim);
    assert!(
        total(&sim, |m| m.ret_sent()) > 0,
        "losses must be requested"
    );
    assert_eq!(
        total(&sim, |m| m.accepted_from_reorder()),
        0,
        "go-back-n never buffers out of order"
    );
}

#[test]
fn fifo_core_state_round_trips() {
    let sim = run(RetransmissionPolicy::Selective);
    let (_, node) = sim.nodes().next().expect("n > 0");
    let state = node.entity.export_state();
    let restored: Entity<FifoCore> = Entity::restore_with(
        node.entity.config().clone(),
        state.clone(),
        co_protocol::NoopObserver,
    )
    .expect("own state restores");
    assert_eq!(restored.export_state(), state);
    let mut short = state;
    short.core.pop();
    assert!(matches!(
        Entity::<FifoCore>::restore_with(
            node.entity.config().clone(),
            short,
            co_protocol::NoopObserver
        ),
        Err(ConfigError::StateMismatch {
            field: "peer_ack_of_me",
            ..
        })
    ));
}
