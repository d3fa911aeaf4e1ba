//! The real-time node loop: the one place in the repo where a sans-IO
//! [`Entity`] is driven on a wall clock.
//!
//! A [`Node`] is an entity, a bounded inbox of encoded frames (its NIC
//! receive buffer), a command channel and a [`Link`]. [`Node::run`]
//! sleeps until a frame, a command or the entity's own next deadline,
//! whichever comes first — the rule the simulator hosts follow when they
//! arm a timer at [`Entity::next_deadline`] — so the deferred-confirmation
//! fallback, heartbeats and `RET` retries fire when they fall due even
//! while the inbox never runs dry. What the loop cannot decide for its
//! caller is a [`Host`]: what a delivery and a drain's timing are for.

use bytes::Bytes;
use co_observe::Observer;
use co_protocol::{Action, Delivery, DeliveryCore, Entity, Pdu};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cluster::ClusterOptions;
use crate::udp::UdpReader;

/// After a shutdown request a node keeps serving its peers until it is
/// quiescent and has seen no activity for this long. Also the longest the
/// loop sleeps, so [`Host::turn`] runs at least this often.
pub(crate) const DRAIN_IDLE: Duration = Duration::from_millis(30);

/// A node that cannot quiesce after a shutdown request (a partitioned
/// peer, say) exits anyway once nothing it was given has moved it for
/// this many drain windows ([`Node::progress`] says what moving is).
///
/// The trade-off: frames that leave those counters alone — a heartbeat
/// repeating what is known, a confirmation that only lets the send log be
/// pruned — do not extend the wait, or the survivors of a dead peer would
/// keep each other running for ever. So a node still holding PDUs also
/// gives up on a peer that is alive but moves nothing here for the whole
/// 600 ms, and is then no longer there to serve that peer's later `RET`.
const HARD_EXIT_IDLE_WINDOWS: u32 = 20;

#[derive(Debug)]
enum Cmd {
    Submit(Bytes),
    Shutdown,
}

/// The control plane of one running [`Node`]; sending wakes its loop.
/// Dropping the handle asks the node to finish outstanding work and
/// return from [`Node::run`].
#[derive(Debug)]
pub struct Commands(Sender<Cmd>);

impl Commands {
    /// Asks the node to broadcast `payload`; `false` if the node is gone.
    pub fn submit(&self, payload: Bytes) -> bool {
        self.0.send(Cmd::Submit(payload)).is_ok()
    }
}

impl Drop for Commands {
    fn drop(&mut self) {
        let _ = self.0.send(Cmd::Shutdown);
    }
}

/// The producer side of a node's bounded inbox. A full inbox drops the
/// frame — the MC service's buffer-overrun loss, which the protocol
/// repairs — and counts it, whichever link the frame arrived on.
#[derive(Debug, Clone)]
pub(crate) struct Inbox {
    tx: Sender<Bytes>,
    overruns: Arc<AtomicU64>,
}

impl Inbox {
    pub(crate) fn new(capacity: usize) -> (Inbox, Receiver<Bytes>) {
        let (tx, rx) = bounded(capacity);
        let overruns = Arc::new(AtomicU64::new(0));
        (Inbox { tx, overruns }, rx)
    }

    pub(crate) fn push(&self, frame: Bytes) {
        if let Err(TrySendError::Full(_)) = self.tx.try_send(frame) {
            self.overruns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// How a node's encoded frames reach its peers.
#[derive(Debug)]
pub(crate) enum Link {
    /// Straight into every peer's inbox.
    Mesh(Vec<Inbox>),
    /// One datagram per peer. A full socket buffer at the peer drops the
    /// datagram silently, and send errors are treated the same way. The
    /// other direction is `_reader`, which feeds the node's own inbox
    /// from the socket until the node drops.
    Udp {
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
        _reader: UdpReader,
    },
}

/// What a node's surroundings do with its outputs.
pub trait Host<C: DeliveryCore, O: Observer> {
    /// A message reached the application, in causal order.
    fn deliver(&mut self, delivery: Delivery, now_us: u64);

    /// One inbox drain of `frames` frames spent `took` in decode → engine
    /// → encode → send (the paper's Tco, summed over the drain).
    fn drained(&mut self, _frames: usize, _took: Duration, _now_us: u64) {}

    /// Once per turn of the loop, at least every 30 ms.
    fn turn(&mut self, _entity: &Entity<C, O>) {}
}

/// One entity and the loop that drives it.
#[derive(Debug)]
pub struct Node<C: DeliveryCore, O: Observer> {
    /// The entity, for the host to read once [`Node::run`] has returned.
    pub entity: Entity<C, O>,
    /// Frames the wire decoder dropped as corrupt.
    pub corrupt_frames: u64,
    /// Well-formed PDUs the entity refused (wrong cluster, looped back,
    /// malformed vectors).
    pub rejected_pdus: u64,
    link: Link,
    /// Both channels keep a sender here, so neither `select!` arm can turn
    /// permanently ready through disconnection.
    own_inbox: Inbox,
    inbox: Receiver<Bytes>,
    _own_cmds: Sender<Cmd>,
    cmds: Receiver<Cmd>,
    epoch: Instant,
    /// Frames accepted per inbox drain (≥ 1): everything queued when the
    /// thread wakes is decoded with one warm pool and fed to the engine as
    /// one batch, so the confirmation `AckOnly` is paid once per drain.
    drain_batch: usize,
    ack_pool: co_wire::AckBufPool,
    frames: Vec<Bytes>,
    pdus: Vec<Pdu>,
    actions: Vec<Action>,
}

impl<C: DeliveryCore, O: Observer> Node<C, O> {
    pub(crate) fn new(
        entity: Entity<C, O>,
        (own_inbox, inbox): (Inbox, Receiver<Bytes>),
        link: Link,
        epoch: Instant,
        options: &ClusterOptions,
    ) -> (Node<C, O>, Commands) {
        let (cmd_tx, cmds) = unbounded();
        let node = Node {
            entity,
            corrupt_frames: 0,
            rejected_pdus: 0,
            link,
            own_inbox,
            inbox,
            _own_cmds: cmd_tx.clone(),
            cmds,
            epoch,
            drain_batch: options.drain_batch.max(1),
            ack_pool: co_wire::AckBufPool::new(),
            frames: Vec::new(),
            pdus: Vec::new(),
            actions: Vec::new(),
        };
        (node, Commands(cmd_tx))
    }

    /// A node on a UDP socket: `peers` receive its frames, and a reader
    /// thread (named `name`) moves arriving datagrams into an inbox of
    /// `options.inbox_capacity` frames until the node is dropped.
    ///
    /// # Errors
    ///
    /// Socket errors while preparing `socket` for the reader.
    pub fn udp(
        entity: Entity<C, O>,
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
        epoch: Instant,
        options: &ClusterOptions,
        name: String,
    ) -> std::io::Result<(Node<C, O>, Commands)> {
        let inbox = Inbox::new(options.inbox_capacity);
        let link = Link::Udp {
            _reader: UdpReader::spawn(&socket, inbox.0.clone(), name)?,
            socket,
            peers,
        };
        Ok(Node::new(entity, inbox, link, epoch, options))
    }

    /// PDUs dropped at this node's full inbox so far.
    pub fn overrun_drops(&self) -> u64 {
        self.own_inbox.overruns.load(Ordering::Relaxed)
    }

    /// Carries out what the engine just asked for; `true` if anything.
    fn dispatch(&mut self, host: &mut impl Host<C, O>) -> bool {
        let acted = !self.actions.is_empty();
        for action in self.actions.drain(..) {
            match action {
                Action::Broadcast(pdu) => {
                    let encoded = pdu.encode();
                    match &self.link {
                        Link::Mesh(peers) => {
                            for peer in peers {
                                peer.push(encoded.clone());
                            }
                        }
                        Link::Udp { socket, peers, .. } => {
                            for addr in peers {
                                let _ = socket.send_to(&encoded, addr);
                            }
                        }
                    }
                }
                Action::Deliver(d) => host.deliver(d, now_us(self.epoch)),
                // `Action` is #[non_exhaustive].
                _ => {}
            }
        }
        acted
    }

    /// What a drain has to move to count as progress: a PDU accepted,
    /// taken a stage further (pre-acknowledged, delivered), a queued
    /// payload let through the send gate, or a peer's `RET` served. Each
    /// is bounded by what was ever submitted, so peers that only repeat
    /// themselves cannot keep it moving.
    fn progress(&self) -> [u64; 5] {
        let m = self.entity.metrics();
        [
            m.accepted(),
            m.pre_acknowledged(),
            m.delivered(),
            m.data_sent(),
            m.retransmissions_sent(),
        ]
    }

    /// One inbox drain: `first` plus everything already queued, up to the
    /// batch cap, through the engine's batched acceptance. Corrupt frames
    /// drop like a bad checksum and mis-addressed PDUs drop inside the
    /// batch without poisoning it; both are counted. `true` if the drain
    /// made [progress](Node::progress).
    fn drain(&mut self, first: Bytes, host: &mut impl Host<C, O>) -> bool {
        let started = Instant::now();
        let before = self.progress();
        self.frames.push(first);
        while self.frames.len() < self.drain_batch {
            match self.inbox.try_recv() {
                Ok(raw) => self.frames.push(raw),
                Err(_) => break,
            }
        }
        let drained = self.frames.len();
        self.corrupt_frames += Pdu::decode_batch_into(
            self.frames.iter().map(|b| &b[..]),
            &mut self.ack_pool,
            &mut self.pdus,
        ) as u64;
        self.frames.clear();
        let now = now_us(self.epoch);
        let outcome = self
            .entity
            .on_pdus_into(self.pdus.drain(..), now, &mut self.actions);
        self.rejected_pdus += outcome.rejected as u64;
        self.dispatch(host);
        host.drained(drained, started.elapsed(), now);
        self.progress() != before
    }

    /// Drives the entity until a shutdown request has been served: the
    /// node is quiescent and neither received nor sent anything for the
    /// drain window (30 ms) — or, if it cannot quiesce (a dead peer, say),
    /// was given nothing that moved it for twenty of them: no submit, and
    /// no frame that had it accept, pre-acknowledge, deliver, send a
    /// queued payload or retransmit. The heartbeats of peers stuck the
    /// same way change nothing and do not count.
    ///
    /// # Errors
    ///
    /// The panic message, if the loop panicked: the node and its host keep
    /// everything recorded up to that point, so a crashed node still
    /// surrenders its black box.
    pub fn run(&mut self, host: &mut impl Host<C, O>) -> Result<(), String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drive(host)))
            .map_err(|payload| panic_message(payload.as_ref()))
    }

    fn drive(&mut self, host: &mut impl Host<C, O>) {
        let mut shutting_down = false;
        // Progress is a submit or a drain that moved the entity; activity
        // is any frame, a submit, or a timer that had something to send.
        let mut last_progress = Instant::now();
        let mut last_activity = last_progress;
        loop {
            let now = now_us(self.epoch);
            let mut deadline = self.entity.next_deadline(now);
            if deadline.is_some_and(|due| due <= now) {
                // Due whichever arm woke the loop, not only after a quiet
                // interval: traffic must not starve the timers.
                self.entity.on_tick_with(now, &mut self.actions);
                if self.dispatch(host) {
                    last_activity = Instant::now();
                }
                deadline = self.entity.next_deadline(now);
            }
            host.turn(&self.entity);
            let mut wait = DRAIN_IDLE;
            if shutting_down {
                // A node that cannot quiesce keeps its heartbeat up, and so
                // do its peers in the same state: that is activity at both
                // ends for ever, so it is given up on by lack of progress.
                let left = if self.entity.is_quiescent() {
                    DRAIN_IDLE.checked_sub(last_activity.elapsed())
                } else {
                    (DRAIN_IDLE * HARD_EXIT_IDLE_WINDOWS).checked_sub(last_progress.elapsed())
                };
                match left {
                    Some(left) if !left.is_zero() => wait = left,
                    _ => break,
                }
            }
            if let Some(due) = deadline {
                wait = wait.min(Duration::from_micros(due.saturating_sub(now)));
            }
            // `Some(progress)` for a frame or a submit.
            let input = crossbeam::channel::select! {
                recv(self.inbox) -> raw => {
                    raw.ok().map(|raw| self.drain(raw, host))
                }
                recv(self.cmds) -> cmd => {
                    match cmd {
                        Ok(Cmd::Submit(payload)) => {
                            let now = now_us(self.epoch);
                            // A refused payload (oversized, queue full) is
                            // counted in the entity's metrics.
                            let _ = self.entity.submit_with(payload, now, &mut self.actions);
                            self.dispatch(host);
                            Some(true)
                        }
                        Ok(Cmd::Shutdown) | Err(_) => {
                            shutting_down = true;
                            None
                        }
                    }
                }
                default(wait) => { None }
            };
            if let Some(progress) = input {
                last_activity = Instant::now();
                if progress {
                    last_progress = last_activity;
                }
            }
        }
    }
}

fn now_us(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// Best-effort rendering of a panic payload (the common `&str` / `String`
/// shapes; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_order::{EntityId, Seq};
    use co_observe::NoopObserver;
    use co_protocol::{AckOnlyPdu, CoCore, DataPdu};
    use std::sync::atomic::AtomicBool;

    /// Publishes the two counters the test watches, once per loop turn.
    struct Probe {
        confirmations: Arc<AtomicU64>,
        rets: Arc<AtomicU64>,
    }

    impl Host<CoCore, NoopObserver> for Probe {
        fn deliver(&mut self, _: Delivery, _: u64) {}

        fn turn(&mut self, entity: &Entity<CoCore, NoopObserver>) {
            let m = entity.metrics();
            self.confirmations
                .store(m.ack_only_sent(), Ordering::Relaxed);
            self.rets.store(m.ret_sent(), Ordering::Relaxed);
        }
    }

    fn data(src: u32, seq: u64, n: usize) -> Bytes {
        let mut ack = vec![Seq::FIRST; n];
        ack[src as usize] = Seq::new(seq);
        Pdu::Data(DataPdu {
            cid: 1,
            src: EntityId::new(src),
            seq: Seq::new(seq),
            ack,
            buf: 1 << 20,
            data: Bytes::from_static(b"x"),
        })
        .encode()
    }

    /// The timers must fire while the inbox never runs dry. E0 of four
    /// hears a steady in-order stream from E1; E2 never speaks, so "heard
    /// from everyone" cannot confirm and every confirmation has to come
    /// from the deferral timeout; E3 leaves a gap once and falls silent,
    /// so its `RET` can only be repeated by the retry timer. Then the feed
    /// stops with E0 unable to quiesce, and it must still return.
    #[test]
    fn traffic_does_not_starve_the_timers() {
        const N: usize = 4;
        let options = ClusterOptions::default();
        let config = options.config(N, EntityId::new(0)).unwrap();
        let (timeout_us, retry_us) = (config.deferral.timeout_us(), config.ret_retry_us);
        let entity = Entity::<CoCore, _>::with_observer(config, NoopObserver).unwrap();
        let (own, rx) = Inbox::new(options.inbox_capacity);
        // The peers' inboxes are never read: E0's frames overrun there.
        let peers: Vec<_> = (1..N).map(|_| Inbox::new(1)).collect();
        let link = Link::Mesh(peers.iter().map(|(tx, _)| tx.clone()).collect());
        let (mut node, commands) =
            Node::new(entity, (own.clone(), rx), link, Instant::now(), &options);
        let probe = || Arc::new(AtomicU64::new(0));
        let (confirmations, rets) = (probe(), probe());
        let mut host = Probe {
            confirmations: Arc::clone(&confirmations),
            rets: Arc::clone(&rets),
        };
        let returned = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&returned);
        let thread = std::thread::spawn(move || {
            let outcome = node.run(&mut host);
            done.store(true, Ordering::Relaxed);
            (outcome, node.entity.is_quiescent())
        });

        own.push(data(3, 1, N));
        own.push(data(3, 3, N));
        let started = Instant::now();
        let mut seq = 0;
        while started.elapsed() < Duration::from_millis(80) {
            seq += 1;
            own.push(data(1, seq, N));
            std::thread::sleep(Duration::from_micros(250));
        }
        let fed_us = started.elapsed().as_micros() as u64;
        let (confirmations, rets) = (
            confirmations.load(Ordering::Relaxed),
            rets.load(Ordering::Relaxed),
        );
        assert!(
            confirmations >= fed_us / (4 * timeout_us),
            "{confirmations} confirmations in {fed_us} µs of traffic, timeout {timeout_us} µs"
        );
        assert!(
            rets > fed_us / (4 * retry_us),
            "{rets} RETs in {fed_us} µs of traffic, retry {retry_us} µs"
        );

        assert!(!returned.load(Ordering::Relaxed), "no shutdown request yet");
        drop(commands);
        let (outcome, quiescent) = thread.join().unwrap();
        assert_eq!(outcome, Ok(()));
        assert!(!quiescent, "E0 still holds what E2 never confirmed");
    }

    /// Hears nothing and keeps nothing.
    struct Deaf;

    impl Host<CoCore, NoopObserver> for Deaf {
        fn deliver(&mut self, _: Delivery, _: u64) {}
    }

    /// What keeps a node that cannot quiesce waiting: a confirmation from
    /// a slow but live peer that takes a held PDU a stage further counts
    /// although nothing is accepted or delivered by it; the same frame
    /// again tells the node nothing and does not.
    #[test]
    fn a_confirmation_is_progress_only_while_it_moves_a_held_pdu() {
        const N: usize = 3;
        let options = ClusterOptions::default();
        let config = options.config(N, EntityId::new(0)).unwrap();
        let entity = Entity::<CoCore, _>::with_observer(config, NoopObserver).unwrap();
        let (own, rx) = Inbox::new(options.inbox_capacity);
        let peers: Vec<_> = (1..N).map(|_| Inbox::new(1)).collect();
        let link = Link::Mesh(peers.iter().map(|(tx, _)| tx.clone()).collect());
        let (mut node, _commands) = Node::new(entity, (own, rx), link, Instant::now(), &options);

        assert!(node.drain(data(1, 1, N), &mut Deaf), "accepted");
        let received_by_e2 = Pdu::AckOnly(AckOnlyPdu {
            cid: 1,
            src: EntityId::new(2),
            ack: vec![Seq::FIRST, Seq::new(2), Seq::FIRST],
            packed: vec![Seq::FIRST; N],
            acked: vec![Seq::FIRST; N],
            buf: 1 << 20,
        })
        .encode();
        let before = *node.entity.metrics();
        assert!(node.drain(received_by_e2.clone(), &mut Deaf));
        let after = *node.entity.metrics();
        assert_eq!(after.pre_acknowledged(), before.pre_acknowledged() + 1);
        assert_eq!(
            (after.accepted(), after.delivered()),
            (before.accepted(), before.delivered())
        );
        assert!(!node.entity.is_quiescent());
        assert!(!node.drain(received_by_e2, &mut Deaf), "nothing new");
    }

    /// Two survivors of three must not keep each other alive. E2 never
    /// starts, so after E0's one broadcast neither E0 nor E1 can quiesce;
    /// both keep their heartbeats up, and each hears the other's for as
    /// long as it runs. Those frames change nothing, so both still take
    /// the hard exit.
    #[test]
    fn survivors_of_a_dead_peer_do_not_keep_each_other_from_the_hard_exit() {
        const N: usize = 3;
        let options = ClusterOptions::default();
        let epoch = Instant::now();
        let (inboxes, mut receivers): (Vec<_>, Vec<_>) =
            (0..N).map(|_| Inbox::new(options.inbox_capacity)).unzip();
        let dead_inbox = receivers.pop().unwrap();
        let (returned_tx, returned) = std::sync::mpsc::channel();
        let (mut commands, mut threads) = (Vec::new(), Vec::new());
        for (me, rx) in receivers.into_iter().enumerate() {
            let config = options.config(N, EntityId::new(me as u32)).unwrap();
            let entity = Entity::<CoCore, _>::with_observer(config, NoopObserver).unwrap();
            let peers = (0..N).filter(|&i| i != me);
            let link = Link::Mesh(peers.map(|i| inboxes[i].clone()).collect());
            let inbox = (inboxes[me].clone(), rx);
            let (mut node, cmds) = Node::new(entity, inbox, link, epoch, &options);
            commands.push(cmds);
            let returned_tx = returned_tx.clone();
            threads.push(std::thread::spawn(move || {
                let outcome = node.run(&mut Deaf);
                let _ = returned_tx.send(());
                (outcome, node.entity.is_quiescent(), *node.entity.metrics())
            }));
        }
        // E0's commands are served in order, and its frame reaches E1 well
        // inside the drain window E1 would otherwise leave after.
        assert!(commands[0].submit(Bytes::from_static(b"once")));
        drop(commands);

        // The watchdog: a survivor that never returns must fail the test,
        // not hang it.
        let allowed = 2 * DRAIN_IDLE * HARD_EXIT_IDLE_WINDOWS;
        let deadline = Instant::now() + allowed;
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                returned.recv_timeout(left).is_ok(),
                "a survivor was still running {allowed:?} after the shutdown request"
            );
        }
        for (me, thread) in threads.into_iter().enumerate() {
            let (outcome, quiescent, metrics) = thread.join().unwrap();
            assert_eq!(outcome, Ok(()), "E{me}");
            assert!(!quiescent, "E{me} still holds what E2 never confirmed");
            assert!(metrics.ack_only_sent() > 0, "E{me} kept its heartbeat up");
        }
        assert!(dead_inbox.try_recv().is_ok(), "E2 was sent to all along");
    }
}
