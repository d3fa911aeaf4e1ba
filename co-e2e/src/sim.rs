//! The *sim* driver: an `mc_net::Simulator` of [`BenchNode`]s.
//!
//! A [`BenchNode`] has the shape of `co-transport`'s `handle_batch`: frames
//! are encoded once per broadcast, travel as `Bytes`, and are decoded per
//! receiver through an `AckBufPool` before `Entity::on_pdus_into` sees them.
//! One tick timer per node is armed from `Entity::next_deadline`.
//! Everything runs on one thread under one seeded scheduler, so every count
//! and every simulated latency repeats exactly; the wall clock around
//! `run_until_idle` measures what the run cost in CPU.
//!
//! Injected network: `DelayModel::Uniform(1 ms)` one way, 10 µs of host
//! time per inbox drain, a 1024-PDU inbox (64 on the lossy workload),
//! drains of up to 32 PDUs.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use causal_order::EntityId;
use co_observe::{EventLog, FlightRecorder, LatencyTracker, Tee};
use co_protocol::{Action, CoCore, Config, DeliveryCore, Entity, HybridCore, Pdu};
use co_trace::{AnomalyConfig, Finding, LiveDetector};
use co_transport::ClusterOptions;
use co_wire::AckBufPool;
use mc_net::{
    Context, DelayModel, LossModel, NetStats, SimConfig, SimDuration, SimNode, SimTime, Simulator,
    TimerId,
};

use crate::check::DeliveryRecord;
use crate::procfs;
use crate::trace::{Op, SpanId, TimedObserver, Tracer, SAMPLE_EVERY};
use crate::workload::{Core, Schedule, Workload};

/// Simulator events one repetition may process before it is declared
/// livelocked (the frozen sizes need a few million).
const EVENT_BUDGET: u64 = 200_000_000;

/// Simulator events per slice of the timed part. Bounds the delivered
/// payloads held for checking (a few thousand, ≤ 32 KiB each) while
/// keeping the stopwatch's stops to a few hundred per repetition.
const SLICE_EVENTS: u64 = 16_384;

/// One-way propagation delay injected between every pair (the paper's R).
pub const ONE_WAY_DELAY_US: u64 = 1_000;

/// The observer stack `co_transport::Cluster` gives every entity (its
/// event log is off outside traced cluster runs), under the benchmark's
/// timing wrapper.
pub type NodeObserver =
    TimedObserver<Tee<LatencyTracker, Tee<Option<EventLog>, Tee<FlightRecorder, LiveDetector>>>>;

/// Whether a live finding is one of the node-local rules (RET storm, loss
/// burst, flow saturation). A node's own detector sees only its own event
/// stream, so its two cross-node span rules report every message whose
/// remote stages it cannot see; only the cluster-wide analysis of a merged
/// trace can judge those.
pub fn is_node_local(finding: &Finding) -> bool {
    matches!(
        finding.kind(),
        "ret_storm" | "loss_burst" | "flow_saturation"
    )
}

/// Builds the entity configuration and observer stack that
/// `ClusterOptions::default()` implies, from their public parts.
fn production_entity<C: DeliveryCore>(
    n: usize,
    me: EntityId,
    epoch: Instant,
) -> Entity<C, NodeObserver> {
    let opts = ClusterOptions::default();
    let config = Config::builder(opts.cid, n, me)
        .deferral(opts.deferral)
        .window(opts.window)
        .build()
        .expect("workload table holds valid cluster sizes");
    let stack = Tee(
        LatencyTracker::default(),
        Tee(
            None::<EventLog>,
            Tee(
                FlightRecorder::new(opts.recorder_depth),
                LiveDetector::new(me.raw(), AnomalyConfig::default()),
            ),
        ),
    );
    Entity::with_observer(config, TimedObserver::new(stack, epoch))
        .expect("valid config constructs")
}

/// What the harness counted at one node. Plain integers, always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// `submit_with` calls.
    pub submits: u64,
    /// Submits the entity refused (`SubmitQueueFull` and the like).
    pub submit_refused: u64,
    /// Messages handed to the application.
    pub deliveries: u64,
    /// `Pdu::encode` calls (one per broadcast).
    pub frames_encoded: u64,
    /// Encoded bytes put on the wire: frame length × copies sent.
    pub wire_bytes: u64,
    /// PDUs that came out of `decode_batch_into`.
    pub pdus_decoded: u64,
    /// Frames `decode_batch_into` dropped as corrupt.
    pub decode_corrupt: u64,
    /// PDUs `on_pdus_into` rejected in validation.
    pub rejected_pdus: u64,
    /// Inbox drains (`on_pdus_into` calls).
    pub drains: u64,
    /// Timer callbacks (`on_tick_with` calls).
    pub ticks: u64,
    /// Timer callbacks that produced at least one action.
    pub ticks_useful: u64,
}

impl NodeCounts {
    fn fields(&self) -> [u64; 11] {
        [
            self.submits,
            self.submit_refused,
            self.deliveries,
            self.frames_encoded,
            self.wire_bytes,
            self.pdus_decoded,
            self.decode_corrupt,
            self.rejected_pdus,
            self.drains,
            self.ticks,
            self.ticks_useful,
        ]
    }

    fn from_fields(f: [u64; 11]) -> NodeCounts {
        NodeCounts {
            submits: f[0],
            submit_refused: f[1],
            deliveries: f[2],
            frames_encoded: f[3],
            wire_bytes: f[4],
            pdus_decoded: f[5],
            decode_corrupt: f[6],
            rejected_pdus: f[7],
            drains: f[8],
            ticks: f[9],
            ticks_useful: f[10],
        }
    }

    /// Field-wise `self + other`.
    pub fn plus(&self, other: &NodeCounts) -> NodeCounts {
        let (a, b) = (self.fields(), other.fields());
        NodeCounts::from_fields(std::array::from_fn(|i| a[i] + b[i]))
    }

    /// Field-wise `self − earlier`.
    pub fn minus(&self, earlier: &NodeCounts) -> NodeCounts {
        let (a, b) = (self.fields(), earlier.fields());
        NodeCounts::from_fields(std::array::from_fn(|i| a[i] - b[i]))
    }
}

/// A command the schedule injects: submit this node's k-th message.
#[derive(Debug, Clone, Copy)]
pub struct SubmitCmd(pub u32);

/// A protocol entity wired into the simulator the way `co-transport`
/// wires one onto a thread.
#[derive(Debug)]
pub struct BenchNode<C: DeliveryCore> {
    entity: Entity<C, NodeObserver>,
    schedule: Rc<Schedule>,
    me: usize,
    ack_pool: AckBufPool,
    pdu_scratch: Vec<Pdu>,
    actions: Vec<Action>,
    /// The one pending tick timer and the deadline it was armed for.
    armed: Option<(TimerId, u64)>,
    tracer: Tracer,
    counts: NodeCounts,
    delivered: Vec<DeliveryRecord>,
    /// Delivered payloads not yet compared with what was submitted; the
    /// run loop does that between slices of simulation, off the stopwatch.
    unverified: Vec<Bytes>,
    /// Submit-due → deliver, simulated µs, one per timed remote delivery.
    lat_us: Vec<u32>,
    peak_state_bytes: usize,
    peak_pending: usize,
}

impl<C: DeliveryCore> BenchNode<C> {
    fn new(schedule: Rc<Schedule>, me: usize, epoch: Instant) -> BenchNode<C> {
        let n = schedule.n();
        BenchNode {
            entity: production_entity(n, EntityId::new(me as u32), epoch),
            schedule,
            me,
            ack_pool: AckBufPool::new(),
            pdu_scratch: Vec::new(),
            actions: Vec::new(),
            armed: None,
            tracer: Tracer::new(me as u32, epoch),
            counts: NodeCounts::default(),
            delivered: Vec::new(),
            unverified: Vec::new(),
            lat_us: Vec::new(),
            peak_state_bytes: 0,
            peak_pending: 0,
        }
    }

    /// Fills in the payload hash of every delivery recorded since the last
    /// call. Reading a 32 KiB payload back costs more than decoding it
    /// did, so this runs outside the callbacks and outside the stopwatch.
    fn verify_payloads(&mut self) {
        let first = self.delivered.len() - self.unverified.len();
        for (record, data) in self.delivered[first..]
            .iter_mut()
            .zip(self.unverified.drain(..))
        {
            let k = (record.seq as usize).wrapping_sub(1);
            record.payload_hash = self.schedule.delivered_hash(record.src as usize, k, &data);
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        self.entity.observer_mut().set_enabled(on);
    }

    /// Runs one protocol call under a span, with the observer callbacks it
    /// makes accounted (and, when sampled, recorded) as its children.
    fn protocol_call(
        &mut self,
        op: Op,
        parent: u32,
        call: impl FnOnce(&mut Entity<C, NodeObserver>, &mut Vec<Action>),
    ) {
        let span = self.tracer.reserve();
        let observer = self.entity.observer_mut();
        observer.keep = self.tracer.sampling();
        let (events_before, busy_before) = (observer.events, observer.busy_ns);
        let start = self.tracer.now();
        call(&mut self.entity, &mut self.actions);
        let end = self.tracer.now();
        self.tracer.record(op, span, parent, start, end);
        let observer = self.entity.observer_mut();
        self.tracer.account_observer(
            op,
            observer.events - events_before,
            observer.busy_ns - busy_before,
        );
        for (s, e) in observer.kept.drain(..) {
            self.tracer.keep_span(Op::Observer, 0, span, s, e);
        }
    }

    /// Carries out the actions the last protocol call produced: encode and
    /// broadcast, or record the delivery; then re-arm the tick timer.
    fn apply(&mut self, parent: u32, ctx: &mut Context<'_, Bytes>) {
        let now_us = ctx.now().as_micros();
        let copies = (ctx.n() - 1) as u64;
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Broadcast(pdu) => {
                    let start = self.tracer.now();
                    let frame = pdu.encode();
                    let end = self.tracer.now();
                    self.tracer.record(Op::Encode, 0, parent, start, end);
                    self.counts.frames_encoded += 1;
                    self.counts.wire_bytes += frame.len() as u64 * copies;
                    ctx.broadcast(frame);
                }
                Action::Deliver(d) => {
                    let (src, seq) = (d.src.index(), d.seq.get());
                    let k = (seq as usize).wrapping_sub(1);
                    self.counts.deliveries += 1;
                    self.delivered.push(DeliveryRecord {
                        src: src as u32,
                        seq,
                        payload_hash: 0,
                    });
                    self.unverified.push(d.data);
                    let due = self.schedule.due_us.get(src).and_then(|due| due.get(k));
                    if let Some(&due) = due {
                        if src != self.me && due >= self.schedule.warm_until_us {
                            self.lat_us.push(now_us.saturating_sub(due) as u32);
                        }
                    }
                }
                // `Action` is #[non_exhaustive].
                _ => {}
            }
        }
        self.actions = actions;
        // One pending timer at most: a deadline that moved earlier replaces
        // it; one that moved later lets it fire, tick idly and re-arm.
        // (`co-check`'s node never cancels, so its superseded timers keep
        // firing and re-arming; here that would bury the layers under
        // simulator events.)
        if let Some(deadline) = self.entity.next_deadline(now_us) {
            let fire_at = deadline.max(now_us);
            if self.armed.is_none_or(|(_, armed_for)| fire_at < armed_for) {
                if let Some((stale, _)) = self.armed {
                    ctx.cancel_timer(stale);
                }
                let timer = ctx.set_timer(SimDuration::from_micros(fire_at - now_us));
                self.armed = Some((timer, fire_at));
            }
        }
    }

    /// One inbox drain, in `handle_batch`'s shape: decode every frame
    /// through the pool, feed the batch to the engine, dispatch.
    fn drain<'a>(&mut self, frames: impl Iterator<Item = &'a [u8]>, ctx: &mut Context<'_, Bytes>) {
        let ordinal = self.counts.drains;
        self.counts.drains += 1;
        self.tracer.begin_callback(SpanId::Drain(ordinal), ordinal);
        let root = self.tracer.reserve();
        let t0 = self.tracer.now();
        let mut pdus = std::mem::take(&mut self.pdu_scratch);
        pdus.clear();
        let corrupt = Pdu::decode_batch_into(frames, &mut self.ack_pool, &mut pdus);
        let t1 = self.tracer.now();
        self.tracer.record(Op::Decode, 0, root, t0, t1);
        self.counts.pdus_decoded += pdus.len() as u64;
        self.counts.decode_corrupt += corrupt as u64;
        let now_us = ctx.now().as_micros();
        let mut rejected = 0;
        self.protocol_call(Op::OnPdus, root, |entity, actions| {
            rejected = entity
                .on_pdus_into(pdus.drain(..), now_us, actions)
                .rejected;
        });
        self.counts.rejected_pdus += rejected as u64;
        self.pdu_scratch = pdus;
        self.apply(root, ctx);
        if self.tracer.enabled() && ordinal.is_multiple_of(SAMPLE_EVERY) {
            // `state_bytes` walks the held PDUs, so it is sampled, and
            // only in traced runs.
            self.peak_state_bytes = self.peak_state_bytes.max(self.entity.state_bytes());
        }
        self.peak_pending = self.peak_pending.max(self.entity.pending_submits());
        let t2 = self.tracer.now();
        self.tracer.record(Op::Callback, root, 0, t0, t2);
    }
}

impl<C: DeliveryCore> SimNode for BenchNode<C> {
    type Msg = Bytes;
    type Cmd = SubmitCmd;

    fn msg_bytes(msg: &Bytes) -> u64 {
        msg.len() as u64
    }

    fn on_message(&mut self, _from: EntityId, msg: Bytes, ctx: &mut Context<'_, Bytes>) {
        self.drain(std::iter::once(&msg[..]), ctx);
    }

    fn on_batch(&mut self, batch: &mut Vec<(EntityId, Bytes)>, ctx: &mut Context<'_, Bytes>) {
        self.drain(batch.iter().map(|(_, frame)| &frame[..]), ctx);
        batch.clear();
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, Bytes>) {
        self.armed = None;
        let ordinal = self.counts.ticks;
        self.counts.ticks += 1;
        self.tracer.begin_callback(SpanId::Tick(ordinal), ordinal);
        let root = self.tracer.reserve();
        let t0 = self.tracer.now();
        let now_us = ctx.now().as_micros();
        self.protocol_call(Op::OnTick, root, |entity, actions| {
            entity.on_tick_with(now_us, actions);
        });
        self.counts.ticks_useful += u64::from(!self.actions.is_empty());
        self.apply(root, ctx);
        let t1 = self.tracer.now();
        self.tracer.record(Op::Callback, root, 0, t0, t1);
    }

    fn on_command(&mut self, SubmitCmd(k): SubmitCmd, ctx: &mut Context<'_, Bytes>) {
        let id = SpanId::Msg {
            src: self.me as u32,
            seq: u64::from(k) + 1,
        };
        self.tracer.begin_callback(id, u64::from(k));
        let root = self.tracer.reserve();
        let t0 = self.tracer.now();
        let payload = self.schedule.payload(self.me, k as usize);
        let now_us = ctx.now().as_micros();
        self.counts.submits += 1;
        let mut refused = false;
        self.protocol_call(Op::Submit, root, |entity, actions| {
            refused = entity.submit_with(payload, now_us, actions).is_err();
        });
        self.counts.submit_refused += u64::from(refused);
        self.apply(root, ctx);
        let t1 = self.tracer.now();
        self.tracer.record(Op::Callback, root, 0, t0, t1);
    }
}

/// Product counters (`Entity::metrics()`) summed over nodes, in
/// `co_observe::Counters::entries()` order.
pub type ProductCounts = [u64; 16];

/// Latency-stage histograms merged over nodes, in
/// `LatencyTracker::stages()` order.
pub type Stages = [co_observe::Histogram; 4];

/// Everything one repetition measured.
#[derive(Debug)]
pub struct SimRep {
    /// The schedule the repetition ran.
    pub schedule: Rc<Schedule>,
    /// Build + schedule + warm-up, wall seconds.
    pub setup_s: f64,
    /// Wall seconds of the timed part (`run_until_idle` after warm-up).
    pub wall_s: f64,
    /// Process CPU seconds over the timed part.
    pub cpu_s: f64,
    /// Harness counts over the timed part, summed over nodes.
    pub timed: NodeCounts,
    /// Harness counts over the whole repetition, summed over nodes.
    pub total: NodeCounts,
    /// Product counters over the timed part.
    pub product: ProductCounts,
    /// Simulator events processed in the timed part.
    pub events: u64,
    /// Simulator statistics at the end of the run.
    pub net: NetStats,
    /// Simulator statistics at the end of warm-up.
    pub net_warm: NetStats,
    /// Largest inbox occupancy at any node.
    pub inbox_peak: usize,
    /// Simulated µs at which the run went idle.
    pub sim_end_us: u64,
    /// Latency samples of the timed part, all nodes.
    pub lat_us: Vec<u32>,
    /// Per-node delivery sequences, for the correctness check.
    pub delivered: Vec<Vec<DeliveryRecord>>,
    /// Latency-stage histograms merged over nodes (whole repetition).
    pub stages: Stages,
    /// Largest `peak_held_pdus` at any node.
    pub peak_held_pdus: usize,
    /// Largest sampled `state_bytes` at any node (traced runs only).
    pub peak_state_bytes: usize,
    /// Largest `pending_submits` seen at any node.
    pub peak_pending: usize,
    /// Findings of the nodes' live anomaly detectors.
    pub live_findings: usize,
    /// Span totals and samples (all zero in an untraced repetition).
    pub tracer: Tracer,
}

fn product_counts<C: DeliveryCore>(sim: &Simulator<BenchNode<C>>) -> ProductCounts {
    let mut sum = [0u64; 16];
    for (_, node) in sim.nodes() {
        for (slot, (_, v)) in sum
            .iter_mut()
            .zip(node.entity.metrics().snapshot().entries())
        {
            *slot += v;
        }
    }
    sum
}

fn harness_counts<C: DeliveryCore>(sim: &Simulator<BenchNode<C>>) -> NodeCounts {
    sim.nodes().fold(NodeCounts::default(), |acc, (_, node)| {
        acc.plus(&node.counts)
    })
}

fn run_rep_with<C: DeliveryCore>(
    wl: &Workload,
    msgs_per_sender: u32,
    seed: u64,
    traced: bool,
) -> SimRep {
    let setup_started = Instant::now();
    let epoch = setup_started;
    let n = wl.n;
    let schedule = Rc::new(Schedule::generate(
        seed,
        n,
        wl.payload,
        wl.rate,
        msgs_per_sender,
    ));
    let nodes: Vec<BenchNode<C>> = (0..n)
        .map(|i| BenchNode::new(schedule.clone(), i, epoch))
        .collect();
    let config = SimConfig {
        network: DelayModel::Uniform(SimDuration::from_micros(ONE_WAY_DELAY_US)).into(),
        loss: if wl.lossy {
            LossModel::Burst {
                p_good: 0.005,
                p_bad: 0.3,
                to_bad: 0.01,
                to_good: 0.2,
            }
        } else {
            LossModel::None
        },
        inbox_capacity: if wl.lossy { 64 } else { 1024 },
        proc_time: SimDuration::from_micros(10),
        seed,
        trace: false,
        drain_batch: ClusterOptions::default().drain_batch,
    };
    let mut sim = Simulator::new(config, nodes);
    for (due, sender, k) in schedule.merged() {
        sim.schedule_command(
            SimTime::from_micros(due),
            EntityId::new(sender),
            SubmitCmd(k),
        );
    }
    // Warm-up: everything due before the boundary runs untimed, so pools,
    // scratch vectors and lazily built state are warm when timing starts.
    sim.run_until(SimTime::from_micros(
        schedule.warm_until_us.saturating_sub(1),
    ));
    let warm_counts = harness_counts(&sim);
    let warm_product = product_counts(&sim);
    let net_warm = sim.stats();
    if traced {
        for i in 0..n {
            sim.node_mut(EntityId::new(i as u32)).set_tracing(true);
        }
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    // The timed part runs in slices; between slices, with the stopwatch
    // stopped, the delivered payloads are checked against the schedule.
    let verify = |sim: &mut Simulator<BenchNode<C>>| {
        for i in 0..n {
            sim.node_mut(EntityId::new(i as u32)).verify_payloads();
        }
    };
    verify(&mut sim);
    let (mut wall_s, mut cpu_s, mut events) = (0.0, 0.0, 0u64);
    loop {
        let cpu_before = procfs::process_cpu_s();
        let started = Instant::now();
        let done = sim.run_until_idle_capped(SLICE_EVENTS);
        wall_s += started.elapsed().as_secs_f64();
        cpu_s += procfs::process_cpu_s() - cpu_before;
        events += done;
        verify(&mut sim);
        if done < SLICE_EVENTS {
            break;
        }
        assert!(
            events < EVENT_BUDGET,
            "simulation did not go idle — livelock?"
        );
    }

    let total = harness_counts(&sim);
    let mut product = product_counts(&sim);
    for (slot, warm) in product.iter_mut().zip(warm_product) {
        *slot -= warm;
    }
    let net = sim.stats();
    let sim_end_us = sim.now().as_micros();
    let inbox_peak = (0..n)
        .map(|i| sim.inbox_peak(EntityId::new(i as u32)))
        .max()
        .unwrap_or(0);

    let mut rep = SimRep {
        schedule,
        setup_s,
        wall_s,
        cpu_s,
        timed: total.minus(&warm_counts),
        total,
        product,
        events,
        net,
        net_warm,
        inbox_peak,
        sim_end_us,
        lat_us: Vec::new(),
        delivered: Vec::with_capacity(n),
        stages: [co_observe::Histogram::new(); 4],
        peak_held_pdus: 0,
        peak_state_bytes: 0,
        peak_pending: 0,
        live_findings: 0,
        tracer: Tracer::new(0, epoch),
    };
    for i in 0..n {
        let node = sim.node_mut(EntityId::new(i as u32));
        rep.lat_us.append(&mut node.lat_us);
        rep.delivered.push(std::mem::take(&mut node.delivered));
        rep.peak_held_pdus = rep.peak_held_pdus.max(node.entity.peak_held_pdus());
        rep.peak_state_bytes = rep.peak_state_bytes.max(node.peak_state_bytes);
        rep.peak_pending = rep.peak_pending.max(node.peak_pending);
        let Tee(latency, Tee(_, Tee(_, live))) = &node.entity.observer().inner;
        for (merged, (_, stage)) in rep.stages.iter_mut().zip(latency.stages()) {
            merged.merge(stage);
        }
        rep.live_findings += live.findings().iter().filter(|f| is_node_local(f)).count();
        let tracer = std::mem::replace(&mut node.tracer, Tracer::new(i as u32, epoch));
        rep.tracer.absorb(tracer);
    }
    rep
}

/// Runs one repetition of a sim workload: a fresh cluster and a schedule
/// generated from `seed`, which also seeds the network's loss draws.
pub fn run_rep(wl: &Workload, msgs_per_sender: u32, seed: u64, traced: bool) -> SimRep {
    match wl.core {
        Core::Co => run_rep_with::<CoCore>(wl, msgs_per_sender, seed, traced),
        Core::Hybrid => run_rep_with::<HybridCore>(wl, msgs_per_sender, seed, traced),
    }
}
