//! The one way to put an [`Entity`] on the `mc-net` simulator.
//!
//! [`EntityNode`] hosts an entity running any [`DeliveryCore`] under any
//! [`Observer`], keeps its timers armed from the entity's own deadlines,
//! and records one ordered application log ([`AppEvent`]). The checker,
//! the experiment harness, the examples and the root tests all drive the
//! protocol through this node, so a difference between two of their
//! verdicts is a difference between cores or schedules, never between
//! harnesses.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{
    Action, ActionSink, CoCore, Config, ConfigError, Delivery, DeliveryCore, Entity, NoopObserver,
    Observer, Pdu,
};
use mc_net::{Context, SimDuration, SimNode, SimTime, TimerId};

/// A command a schedule injects into an [`EntityNode`].
#[derive(Debug, Clone)]
pub enum NodeCmd {
    /// The application submits a payload for broadcast.
    Submit(Bytes),
    /// Crash the entity and restart it from a full protocol-state snapshot.
    /// Pair it with a `ClearInbox` control so volatile receive state is
    /// lost while protocol state survives — the paper's failure model
    /// (§2.1) is PDU loss, not amnesia.
    Crash,
}

impl From<Bytes> for NodeCmd {
    fn from(payload: Bytes) -> Self {
        NodeCmd::Submit(payload)
    }
}

/// One application-level event at a node, in local order.
///
/// `Submit` and `Broadcast` are distinct on purpose: under a closed flow
/// window a submitted payload is queued and goes out later. Latency as the
/// application sees it starts at the `Submit`; what the protocol's oracles
/// reason about (happened-before, §5's `R` / `2R` bounds) starts at the
/// `Broadcast`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// The application handed a payload to the entity. The k-th `Submit`
    /// becomes the message with sequence number k.
    Submit {
        /// When.
        at: SimTime,
    },
    /// The entity broadcast a *new* message (retransmissions are not
    /// recorded: Lemma 4.2 makes them bit-identical copies).
    Broadcast {
        /// The per-source sequence number of the new message.
        seq: Seq,
        /// When.
        at: SimTime,
    },
    /// The protocol delivered a message to this node's application.
    Deliver {
        /// What was delivered, as the entity produced it — including the
        /// ACK vector the origin piggybacked (§4.1), identical at every
        /// entity by Lemma 4.2.
        delivery: Delivery,
        /// When.
        at: SimTime,
    },
}

/// A protocol entity wired into the simulator, recording every
/// application-level event.
#[derive(Debug)]
pub struct EntityNode<C: DeliveryCore = CoCore, O: Observer = NoopObserver> {
    entity: Entity<C, O>,
    events: Vec<AppEvent>,
    /// Sequence number the next *fresh* broadcast will carry; tells new
    /// broadcasts apart from retransmissions (both surface as
    /// [`Action::Broadcast`] with `src == me`).
    next_broadcast_seq: Seq,
    armed_deadline: Option<u64>,
}

/// Carries out an entity call's actions as they are produced: PDUs go to
/// the simulator, fresh broadcasts and deliveries into the log.
struct Apply<'a, 'c> {
    events: &'a mut Vec<AppEvent>,
    next_broadcast_seq: &'a mut Seq,
    ctx: &'a mut Context<'c, Pdu>,
}

impl ActionSink for Apply<'_, '_> {
    fn accept(&mut self, action: Action) {
        let at = self.ctx.now();
        match action {
            Action::Broadcast(pdu) => {
                if let Pdu::Data(p) = &pdu {
                    if p.src == self.ctx.me() && p.seq == *self.next_broadcast_seq {
                        self.events.push(AppEvent::Broadcast { seq: p.seq, at });
                        *self.next_broadcast_seq = p.seq.next();
                    }
                }
                self.ctx.broadcast(pdu);
            }
            Action::Deliver(delivery) => self.events.push(AppEvent::Deliver { delivery, at }),
            // `Action` is #[non_exhaustive].
            _ => {}
        }
    }
}

impl<C: DeliveryCore> EntityNode<C> {
    /// Hosts a fresh, unobserved entity built from `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`Entity::with_observer`].
    pub fn new(config: Config) -> Result<Self, ConfigError> {
        Self::with_observer(config, NoopObserver)
    }
}

impl<C: DeliveryCore, O: Observer> EntityNode<C, O> {
    /// Hosts a fresh entity built from `config`, reporting to `observer`.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`Entity::with_observer`].
    pub fn with_observer(config: Config, observer: O) -> Result<Self, ConfigError> {
        Ok(EntityNode {
            entity: Entity::with_observer(config, observer)?,
            events: Vec::new(),
            next_broadcast_seq: Seq::FIRST,
            armed_deadline: None,
        })
    }

    /// The hosted entity (metrics, core state, observer).
    pub fn entity(&self) -> &Entity<C, O> {
        &self.entity
    }

    /// The recorded application-level events, in local order.
    pub fn events(&self) -> &[AppEvent] {
        &self.events
    }

    /// Every delivery with the time the application received it, in
    /// delivery order.
    pub fn delivered(&self) -> impl Iterator<Item = (&Delivery, SimTime)> {
        self.events.iter().filter_map(|event| match event {
            AppEvent::Deliver { delivery, at } => Some((delivery, *at)),
            _ => None,
        })
    }

    /// The delivery log as `(origin, origin_seq)` pairs.
    pub fn delivery_log(&self) -> Vec<(EntityId, u64)> {
        self.delivered()
            .map(|(d, _)| (d.src, d.seq.get()))
            .collect()
    }

    /// When the application submitted its k-th payload here (k-th item).
    pub fn submitted(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.events.iter().filter_map(|event| match event {
            AppEvent::Submit { at } => Some(*at),
            _ => None,
        })
    }

    /// Splits the node into the entity and the sink its next call feeds.
    fn drive<'a, 'c>(
        &'a mut self,
        ctx: &'a mut Context<'c, Pdu>,
    ) -> (&'a mut Entity<C, O>, Apply<'a, 'c>) {
        let sink = Apply {
            events: &mut self.events,
            next_broadcast_seq: &mut self.next_broadcast_seq,
            ctx,
        };
        (&mut self.entity, sink)
    }

    fn rearm(&mut self, ctx: &mut Context<'_, Pdu>) {
        let now = ctx.now().as_micros();
        if let Some(deadline) = self.entity.next_deadline(now) {
            let fire_at = deadline.max(now);
            if self.armed_deadline.is_none_or(|armed| fire_at < armed) {
                ctx.set_timer(SimDuration::from_micros(fire_at - now));
                self.armed_deadline = Some(fire_at);
            }
        }
    }
}

impl<C: DeliveryCore, O: Observer + Default> SimNode for EntityNode<C, O> {
    type Msg = Pdu;
    type Cmd = NodeCmd;

    fn msg_bytes(msg: &Pdu) -> u64 {
        // Real wire size, so bandwidth-constrained networks charge DATA
        // frames by payload and control frames (ACK/RET) stay cheap.
        msg.encoded_len() as u64
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Pdu>) {
        self.rearm(ctx);
    }

    fn on_message(&mut self, _from: EntityId, msg: Pdu, ctx: &mut Context<'_, Pdu>) {
        let now = ctx.now().as_micros();
        let (entity, mut sink) = self.drive(ctx);
        entity
            .on_pdu(msg, now, &mut sink)
            .expect("wire PDUs are well-formed in simulation");
        self.rearm(ctx);
    }

    fn on_batch(&mut self, batch: &mut Vec<(EntityId, Pdu)>, ctx: &mut Context<'_, Pdu>) {
        // Runs with `drain_batch > 1` push whole inbox drains through the
        // engine's batched acceptance, so whatever judges the log covers
        // the amortized PACK/ACK path too.
        let now = ctx.now().as_micros();
        let (entity, mut sink) = self.drive(ctx);
        let outcome = entity.on_pdus_into(batch.drain(..).map(|(_, msg)| msg), now, &mut sink);
        assert_eq!(
            outcome.rejected, 0,
            "wire PDUs are well-formed in simulation"
        );
        self.rearm(ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Pdu>) {
        self.armed_deadline = None;
        let now = ctx.now().as_micros();
        let (entity, mut sink) = self.drive(ctx);
        entity.on_tick_with(now, &mut sink);
        self.rearm(ctx);
    }

    fn on_command(&mut self, cmd: NodeCmd, ctx: &mut Context<'_, Pdu>) {
        match cmd {
            NodeCmd::Submit(data) => {
                let at = ctx.now();
                self.events.push(AppEvent::Submit { at });
                let (entity, mut sink) = self.drive(ctx);
                // Oversize payloads and a full submit queue are driver
                // bugs in a simulated run; surface them loudly.
                entity
                    .submit_with(data, at.as_micros(), &mut sink)
                    .expect("schedule payloads fit the configured maximum");
            }
            NodeCmd::Crash => {
                // Protocol state survives (export → restore); armed timers
                // belong to the dead incarnation, so forget them and re-arm
                // from the restored entity's own deadlines. The observer is
                // external instrumentation, not protocol state: it outlives
                // the incarnation, as does the application log.
                let state = self.entity.export_state();
                let config = self.entity.config().clone();
                let observer = std::mem::take(self.entity.observer_mut());
                self.entity = Entity::restore_with(config, state, observer)
                    .expect("own exported state always restores");
                self.armed_deadline = None;
            }
        }
        self.rearm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FifoCore;
    use co_protocol::{DeferralPolicy, EventLog, HybridCore, ProtocolEvent, SenderCore};
    use mc_net::{ControlEvent, LossModel, SimConfig, Simulator};

    /// Runs a test function once per delivery core.
    macro_rules! on_every_core {
        ($test:ident) => {{
            $test::<CoCore>();
            $test::<HybridCore>();
            $test::<SenderCore>();
            $test::<FifoCore>();
        }};
    }

    fn e(i: usize) -> EntityId {
        EntityId::new(i as u32)
    }

    fn config(i: usize, n: usize, window: u64, deferral: DeferralPolicy) -> Config {
        Config::builder(0, n, e(i))
            .window(window)
            .deferral(deferral)
            .build()
            .unwrap()
    }

    fn cluster<C: DeliveryCore, O: Observer + Default>(
        n: usize,
        window: u64,
        sim: SimConfig,
    ) -> Simulator<EntityNode<C, O>> {
        let deferral = DeferralPolicy::Deferred { timeout_us: 2_000 };
        let nodes = (0..n)
            .map(|i| EntityNode::with_observer(config(i, n, window, deferral), O::default()))
            .collect::<Result<_, _>>()
            .unwrap();
        Simulator::new(sim, nodes)
    }

    fn submit<N: SimNode<Cmd = NodeCmd>>(
        sim: &mut Simulator<N>,
        at_us: u64,
        from: usize,
        payload: &'static [u8],
    ) {
        let at = SimTime::from_micros(at_us);
        sim.schedule_command(at, e(from), Bytes::from_static(payload).into());
    }

    fn assert_fully_stable<C: DeliveryCore, O: Observer + Default>(
        sim: &Simulator<EntityNode<C, O>>,
    ) {
        for (id, node) in sim.nodes() {
            assert!(
                node.entity().is_fully_stable(),
                "core {}: {id} did not quiesce fully stable",
                C::NAME
            );
        }
    }

    #[test]
    fn every_core_delivers_everywhere_with_timestamps() {
        fn check<C: DeliveryCore>() {
            let mut sim = cluster::<C, NoopObserver>(3, 16, SimConfig::default());
            submit(&mut sim, 0, 0, b"hello");
            sim.run_until_idle();
            for (id, node) in sim.nodes() {
                assert_eq!(node.delivery_log(), vec![(e(0), 1)], "{} at {id}", C::NAME);
                let (delivery, at) = node.delivered().next().unwrap();
                assert_eq!(delivery.data, Bytes::from_static(b"hello"));
                assert_eq!(delivery.ack.len(), 3, "the origin's ACK vector rides along");
                if id != e(0) {
                    assert!(at > SimTime::ZERO, "{}: a link delay passed", C::NAME);
                    assert_eq!(node.submitted().count(), 0);
                }
            }
            let sender = sim.node(e(0));
            assert_eq!(sender.submitted().collect::<Vec<_>>(), vec![SimTime::ZERO]);
            assert_eq!(
                sender.events()[..2],
                [
                    AppEvent::Submit { at: SimTime::ZERO },
                    AppEvent::Broadcast {
                        seq: Seq::FIRST,
                        at: SimTime::ZERO
                    }
                ],
                "core {}",
                C::NAME
            );
            assert_fully_stable(&sim);
        }
        on_every_core!(check);
    }

    #[test]
    fn every_core_keeps_a_causal_chain_in_order() {
        fn check<C: DeliveryCore>() {
            let mut sim = cluster::<C, NoopObserver>(3, 16, SimConfig::default());
            // Each message is submitted well after the previous one was
            // delivered everywhere, so a ⇒ b ⇒ c.
            submit(&mut sim, 0, 0, b"a");
            submit(&mut sim, 50_000, 1, b"b");
            submit(&mut sim, 100_000, 2, b"c");
            sim.run_until_idle();
            for (id, node) in sim.nodes() {
                assert_eq!(
                    node.delivery_log(),
                    vec![(e(0), 1), (e(1), 1), (e(2), 1)],
                    "{} at {id}",
                    C::NAME
                );
            }
        }
        on_every_core!(check);
    }

    #[test]
    fn every_pdu_every_core_emits_survives_the_wire() {
        // The node hands PDUs to the simulator as typed values; the only
        // codec in the workspace is co-wire. Pin encode∘decode as the
        // identity on everything a two-entity exchange puts in flight, so
        // a datagram transport can interpose without a second codec.
        fn check<C: DeliveryCore>() {
            let mut pair: Vec<Entity<C>> = (0..2)
                .map(|i| config(i, 2, 16, DeferralPolicy::Immediate))
                .map(|cfg| Entity::with_observer(cfg, NoopObserver).unwrap())
                .collect();
            let (_, first) = pair[0].submit(Bytes::from_static(b"payload"), 0).unwrap();
            let mut inflight: Vec<(usize, Action)> = first.into_iter().map(|a| (1, a)).collect();
            let (mut checked, mut delivered_at_peer) = (0, false);
            for now in 1..20 {
                for (to, action) in std::mem::take(&mut inflight) {
                    let Action::Broadcast(pdu) = action else {
                        continue;
                    };
                    let decoded = Pdu::decode(&pdu.encode()).expect("decodes");
                    assert_eq!(decoded, pdu, "core {} wire round-trip", C::NAME);
                    checked += 1;
                    let mut out = Vec::new();
                    pair[to].on_pdu(decoded, now, &mut out).unwrap();
                    let delivers = |a: &Action| matches!(a, Action::Deliver(d) if d.src == e(0));
                    delivered_at_peer |= to == 1 && out.iter().any(delivers);
                    inflight.extend(out.into_iter().map(|a| (1 - to, a)));
                }
            }
            assert!(checked > 1, "core {}: {checked} PDUs in flight", C::NAME);
            assert!(delivered_at_peer, "core {} never delivered", C::NAME);
            assert!(
                pair.iter().all(Entity::is_quiescent),
                "core {} did not quiesce",
                C::NAME
            );
        }
        on_every_core!(check);
    }

    #[test]
    fn a_closed_window_separates_submit_from_broadcast() {
        // W = 1 and two submits in one instant: the second payload is
        // queued until the first is confirmed. The log must say so —
        // application latency starts at the Submit, the protocol's at the
        // Broadcast.
        fn check<C: DeliveryCore>() {
            let mut sim = cluster::<C, NoopObserver>(3, 1, SimConfig::default());
            submit(&mut sim, 1_000, 0, b"first");
            submit(&mut sim, 1_000, 0, b"second");
            sim.run_until_idle();
            let t0 = SimTime::from_micros(1_000);
            let node = sim.node(e(0));
            assert_eq!(node.submitted().collect::<Vec<_>>(), vec![t0, t0]);
            let broadcasts: Vec<(Seq, SimTime)> = node
                .events()
                .iter()
                .filter_map(|event| match event {
                    AppEvent::Broadcast { seq, at } => Some((*seq, *at)),
                    _ => None,
                })
                .collect();
            assert_eq!(broadcasts.len(), 2, "core {}", C::NAME);
            assert_eq!(broadcasts[0], (Seq::FIRST, t0), "core {}", C::NAME);
            assert_eq!(broadcasts[1].0, Seq::new(2));
            assert!(
                broadcasts[1].1 > t0,
                "core {}: the queued payload went out at {}",
                C::NAME,
                broadcasts[1].1
            );
            assert_eq!(node.entity().metrics().flow_blocked(), 1);
            for (id, node) in sim.nodes() {
                assert_eq!(node.delivered().count(), 2, "{} at {id}", C::NAME);
            }
        }
        on_every_core!(check);
    }

    #[test]
    fn crash_restart_keeps_the_log_and_the_observer() {
        fn check<C: DeliveryCore>() {
            let mut sim = cluster::<C, EventLog>(3, 16, SimConfig::default());
            let crash_at = SimTime::from_micros(20_000);
            submit(&mut sim, 0, 0, b"before");
            sim.schedule_control(crash_at, e(1), ControlEvent::ClearInbox);
            sim.schedule_command(crash_at, e(1), NodeCmd::Crash);
            submit(&mut sim, 40_000, 1, b"after");
            sim.run_until_idle();
            for (id, node) in sim.nodes() {
                assert_eq!(
                    node.delivery_log(),
                    vec![(e(0), 1), (e(1), 1)],
                    "{} at {id}",
                    C::NAME
                );
            }
            assert_fully_stable(&sim);
            let restarted = sim.node(e(1));
            let (_, first_delivery) = restarted.delivered().next().unwrap();
            assert!(first_delivery < crash_at, "the log predates the crash");
            let observed = restarted.entity().observer().events();
            let delivered = |event: &&ProtocolEvent| event.kind() == "delivered";
            let seen = observed.iter().find(delivered).expect("observed");
            assert!(seen.now_us() < crash_at.as_micros());
            assert!(
                observed.last().unwrap().now_us() > crash_at.as_micros(),
                "core {}: one observer spans both incarnations",
                C::NAME
            );
        }
        on_every_core!(check);
    }

    #[test]
    fn batched_drains_deliver_the_same_sets() {
        // A lossy, bursty schedule at drain_batch 1 and 8: `on_batch` may
        // coalesce confirmations, but what each node delivers — as a set —
        // cannot depend on how its inbox was drained.
        fn run<C: DeliveryCore>(drain_batch: usize) -> Vec<Vec<(EntityId, u64)>> {
            let n = 4;
            let sim_config = SimConfig {
                loss: LossModel::Iid { p: 0.05 },
                seed: 5,
                drain_batch,
                ..SimConfig::default()
            };
            let mut sim = cluster::<C, NoopObserver>(n, 16, sim_config);
            for k in 0..12u64 {
                for s in 0..n {
                    submit(&mut sim, k * 300, s, b"x");
                }
            }
            sim.run_until_idle();
            assert_fully_stable(&sim);
            let sets = sim.nodes().map(|(_, node)| {
                let mut set = node.delivery_log();
                set.sort_unstable();
                set
            });
            sets.collect()
        }
        fn check<C: DeliveryCore>() {
            let per_pdu = run::<C>(1);
            assert_eq!(per_pdu, run::<C>(8), "core {}", C::NAME);
            let everything: Vec<_> = (0..4)
                .flat_map(|s| (1..=12).map(move |k| (e(s), k)))
                .collect();
            assert!(per_pdu.iter().all(|set| *set == everything));
        }
        on_every_core!(check);
    }
}
