//! Headless hot-path regression runner.
//!
//! Measures the same quantities as `benches/hotpath.rs` with plain
//! `std::time` (no harness dependency, CI-friendly) and appends a
//! timestamped run entry to `BENCH_hotpath.json` — a JSON **array** of
//! runs, newest last, so the file accumulates a perf trajectory across
//! commits instead of overwriting itself (schema in
//! `results/README.md`; a legacy single-object artifact is absorbed as
//! the trajectory's first entry). Each entry records **both** sides of
//! the optimization PR: the `baseline` block holds the pre-change
//! tree's numbers (measured on the same machine, same runner logic,
//! before the cached-minima/zero-alloc work landed) and the `current`
//! block is re-measured on every run.
//!
//! The `entity/accept_*` family also measures the observability layer:
//! `accept_in_order` is the default [`NoopObserver`] path (must stay
//! free), `accept_latency` adds the always-on histogram tracker,
//! `accept_traced` additionally records every event, `accept_recorder`
//! swaps the unbounded log for the fixed-depth [`FlightRecorder`] ring
//! (the always-on black box, behind `Box<dyn Observer>` — paired with
//! the layout-identical `accept_dyn_noop` baseline row the guard
//! divides by), and `accept_live` prices the full
//! `co-transport` cluster stack — histograms + flight recorder +
//! streaming anomaly detectors ([`LiveDetector`]) — on PDUs that are
//! accepted and never delivered, so its tables only grow; the stack's
//! steady state is priced by `core_matrix/co/deliver_live/*` below. The
//! `batch_throughput/*` family measures the wire-level receive pipeline
//! both ways: `per_pdu` decodes each frame standalone and feeds
//! [`Entity::on_pdu`] (the pre-batching transport loop), `batched`
//! decodes a whole inbox drain through the shared ack-buffer pool and
//! feeds it to [`Entity::on_pdus_into`]. Both legs pay the transport's
//! send half for everything the engine emits — encode plus per-peer
//! fan-out ([`FanOut`]) — so the per-PDU `AckOnly` storm is priced at
//! its real O(n²) cost.
//!
//! The `core_matrix/{core}/{accept,deliver,mem}/{n}` family races the
//! pluggable delivery cores (`co`, `hybrid`, `sender` — see
//! [`co_protocol::DeliveryCore`]) head-to-head on identical inputs at
//! n ∈ {4, 16, 64, 256}: `accept` prices the dependency-free in-order
//! receive path, `deliver` prices real ordering work under an
//! all-to-all round workload (ns per *delivered* message), and `mem`
//! snapshots each engine's resident state bytes at steady state —
//! O(n²) knowledge structures on the reference and sender cores versus
//! the hybrid core's O(n) vectors. `core_matrix/co/deliver_live/{64,256}`
//! is the `deliver` workload again under the default observer stack, so
//! all four events of a delivered message (`accepted`, `pre_acked`,
//! `cpi_inserted`, `delivered`) are priced with the observers' tables at
//! their bounded working size, and `deliver_paired` beside it is the
//! unwatched `deliver` leg of the same three passes (fastest kept), the
//! denominator `deliver_live` is judged against; `deliver` itself stays a
//! single pass like `accept`. These rows are informational, with two
//! exceptions listed below: the reference core's deliver ÷ accept ratio
//! at n = 256 and its deliver_live ÷ deliver_paired ratio at n = 64.
//!
//! The `codec/ack_only/{encode,decode}_{lag,w1,w8}/{n}` rows price the
//! wire codec alone on the PDU that dominates the wire at scale (three
//! vectors): `lag` is the steady state (`ack` at one byte per entity,
//! `packed` and `acked` at most 15 behind it, half a byte each), `w1`
//! spreads the lags past 15 so all three vectors take the one-byte arm
//! (wire v2's steady state), `w8` forces the eight-byte fallback arm,
//! which does what wire v1 did for every vector and must not cost more
//! than v1's bulk path did. Informational.
//!
//! `--guard` exits non-zero when the run it just appended breaks one of
//! four ratios, each between two rows measured *in the same run*, so
//! machine speed and load cancel and the exit status means the same thing
//! on every box. Nothing is compared with an earlier trajectory entry and
//! no row has an absolute ceiling: on a shared machine unchanged code
//! moved `accept_in_order/*` by 1.4× and `batch_throughput/batched/*` by
//! 1.9× between runs. What guards the accept path *across* commits is
//! `BENCHMARK.json` (`cpu_us_per_deliver` / `deliver_per_s` on
//! interleaved pairs of runs).
//!
//! * `batch_throughput/batched/256` must beat the per-PDU leg by at
//!   least [`BATCH_256_MIN_SPEEDUP`]× in PDUs/s;
//! * `entity/accept_recorder/256` must stay within
//!   [`RECORDER_GUARD_TOLERANCE`] of `entity/accept_dyn_noop/256`
//!   measured *in the same run* — the flight recorder's "always-on"
//!   claim, priced against the no-op observer. Both legs of the pair run
//!   behind `Box<dyn Observer>` so they share one monomorphized accept
//!   loop: two statically dispatched instantiations differ in code
//!   layout, which alone swings these rows ±15% across process restarts
//!   of the *same binary* — far more than the ring write costs. The
//!   ratio is pinned at n = 256: the smaller rows sit at 100–400 ns
//!   where timer jitter dominates (their ratios are printed for the
//!   record, without a verdict);
//! * `core_matrix/co/deliver/256` must cost at most
//!   [`DELIVER_256_MAX_ACCEPTS`] × `core_matrix/co/accept/256` of the
//!   same run — a return to per-event matrix rescans shows as a ratio,
//!   on any machine;
//! * `core_matrix/co/deliver_live/64` must cost at most
//!   [`DELIVER_LIVE_64_CEILING`] × `core_matrix/co/deliver_paired/64`,
//!   the two measured in the same round-robin passes — what watching a
//!   delivery may cost in units of performing it.
//!
//! Usage: `cargo run --release -p co-bench --bin hotpath [--guard] [out.json]`

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_observe::{EventLog, FlightRecorder, LatencyTracker, Observer, Tee, DEFAULT_RECORDER_DEPTH};
use co_protocol::{
    Action, CoCore, Config, DeferralPolicy, DeliveryCore, Entity, HybridCore, KnowledgeMatrix,
    NoopObserver, Pdu, SenderCore,
};
use co_trace::{AnomalyConfig, LiveDetector};
use co_wire::{AckBufPool, AckOnlyPdu, DataPdu};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 4] = [4, 16, 64, 256];

/// Inbox-drain width for the `batch_throughput` rows — the
/// `co-transport` default (`ClusterOptions::drain_batch`).
const BATCH_WIDTH: usize = 32;

/// `--guard`: `entity/accept_recorder/256` may cost at most this factor
/// of the same-run `entity/accept_dyn_noop/256` row. Both rows share one
/// boxed accept loop
/// (see the module docs), so the ratio isolates the recorder's
/// ring-write overhead from machine drift and code-layout luck.
const RECORDER_GUARD_TOLERANCE: f64 = 1.10;

/// `--guard`: minimum `batch_throughput` speedup (batched over per-PDU
/// PDUs/s) at n = 256.
const BATCH_256_MIN_SPEEDUP: f64 = 3.0;

/// `--guard`: `core_matrix/co/deliver/256` may cost at most this many
/// same-run `core_matrix/co/accept/256`. Delivering a message on the
/// reference core is a handful of O(n) vector touches, like accepting
/// one; rescanning the matrices per event instead of per minimum move
/// put the ratio at 54 (53.7 µs / 0.99 µs), counting lanes at the
/// minimum puts it near 3.
const DELIVER_256_MAX_ACCEPTS: f64 = 5.0;

/// `--guard`: `core_matrix/co/deliver_live/64` may cost at most this
/// factor of `core_matrix/co/deliver_paired/64` from the same
/// round-robin passes. Three runs each on one box (results/README.md, "Default stack
/// over a delivery"): 1.50–1.68 with a B-tree of heap-backed spans and
/// SipHash maps under the observers, 1.13–1.17 with the `InFlight`
/// tables, which leaves the ceiling 21 % above the slowest of those.
const DELIVER_LIVE_64_CEILING: f64 = 1.42;

/// Pre-change numbers (seed tree, this machine, release profile): the
/// denominator of the PR's speedup claim. `(id, n, ns_per_op)`.
const BASELINE_PRE_CHANGE: &[(&str, usize, f64)] = &[
    ("matrix/fold_column/4", 4, 6.5),
    ("matrix/fold_column/16", 16, 17.3),
    ("matrix/fold_column/64", 64, 58.3),
    ("matrix/fold_column/256", 256, 731.5),
    ("matrix/row_min/4", 4, 3.1),
    ("matrix/row_min/16", 16, 15.1),
    ("matrix/row_min/64", 64, 48.3),
    ("matrix/row_min/256", 256, 233.5),
    ("matrix/row_mins/4", 4, 28.3),
    ("matrix/row_mins/16", 16, 279.9),
    ("matrix/row_mins/64", 64, 3370.2),
    ("matrix/row_mins/256", 256, 53872.0),
    ("entity/accept_in_order/4", 4, 588.6),
    ("entity/accept_in_order/16", 16, 896.5),
    ("entity/accept_in_order/64", 64, 6516.8),
    ("entity/accept_in_order/256", 256, 73091.2),
];

fn steady_config(me: u32, n: usize) -> Config {
    Config::builder(1, n, EntityId::new(me))
        .deferral(DeferralPolicy::Deferred {
            timeout_us: 1 << 40,
        })
        .window(1 << 20)
        .buffer_units(1 << 30)
        .build()
        .expect("valid config")
}

fn steady_entity(me: u32, n: usize) -> Entity {
    Entity::new(steady_config(me, n)).expect("valid entity")
}

/// [`steady_entity`], generic over the delivery core under test — the
/// `core_matrix/*` rows race every engine on identical inputs.
fn steady_core_entity<C: DeliveryCore>(me: u32, n: usize) -> Entity<C, NoopObserver> {
    Entity::<C, _>::with_observer(steady_config(me, n), NoopObserver).expect("valid entity")
}

/// ns/op for `f` run `iters` times.
fn time<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// `(fold_column, row_min, row_mins)` ns/op for the production matrix.
/// The fold input raises every cell of its lane on every op and moves
/// about one row minimum per op, so `fold_column` includes that rescan.
fn bench_matrix(n: usize) -> (f64, f64, f64) {
    let mut m = KnowledgeMatrix::new(n);
    let mut vec = vec![Seq::new(5); n];
    let iters = 2_000_000u64.min(200_000_000 / n as u64);
    let mut tick = 0u64;
    let fold = time(iters, || {
        tick += 1;
        vec[(tick % n as u64) as usize] = Seq::new(5 + tick / n as u64);
        black_box(m.fold_column(EntityId::new((tick % n as u64) as u32), &vec));
    });
    let row_min = time(iters, || {
        black_box(m.row_min(EntityId::new(0)));
    });
    let row_mins = time(iters, || {
        black_box(m.row_mins());
    });
    (fold, row_min, row_mins)
}

/// Steady-state in-order acceptance ns/PDU: entity 0 receives a long
/// in-order stream from entity 1 (quiet F2, reused action vector).
fn drive_acceptance<C: DeliveryCore, O: Observer>(
    e: &mut Entity<C, O>,
    n: usize,
    msgs: u64,
) -> f64 {
    let payload = Bytes::from_static(&[0u8; 64]);
    let mut actions: Vec<Action> = Vec::new();
    let mut now = 0u64;
    let start = Instant::now();
    for seq in 1..=msgs {
        let mut ack = vec![Seq::FIRST; n];
        ack[1] = Seq::new(seq);
        let pdu = Pdu::Data(DataPdu {
            cid: 1,
            src: EntityId::new(1),
            seq: Seq::new(seq),
            ack,
            buf: 1 << 20,
            data: payload.clone(),
        });
        now += 10;
        actions.clear();
        e.on_pdu(pdu, now, &mut actions).expect("accepted");
        black_box(actions.len());
    }
    start.elapsed().as_nanos() as f64 / msgs as f64
}

fn bench_acceptance(n: usize, msgs: u64) -> f64 {
    let mut e = steady_entity(0, n);
    drive_acceptance(&mut e, n, msgs)
}

/// Acceptance with the always-on latency histograms (the co-transport
/// default observer).
fn bench_acceptance_latency(n: usize, msgs: u64) -> f64 {
    let mut e = Entity::<CoCore, _>::with_observer(steady_config(0, n), LatencyTracker::default())
        .expect("valid entity");
    drive_acceptance(&mut e, n, msgs)
}

/// Acceptance with histograms plus a full in-memory event trace (the
/// `trace: true` cluster configuration).
fn bench_acceptance_traced(n: usize, msgs: u64) -> f64 {
    let observer = Tee(LatencyTracker::default(), EventLog::default());
    let mut e =
        Entity::<CoCore, _>::with_observer(steady_config(0, n), observer).expect("valid entity");
    let ns = drive_acceptance(&mut e, n, msgs);
    black_box(e.observer().1.len());
    ns
}

/// Baseline leg of the recorder-overhead pair: the no-op observer behind
/// the same `Box<dyn Observer>` indirection [`bench_acceptance_recorder`]
/// uses. Boxing both legs makes them share one monomorphized accept loop,
/// so their ratio isolates the observer callee's cost — two *statically*
/// dispatched loops differ in code layout, which alone swings
/// sub-microsecond rows by more than the recorder costs (±15% observed
/// across process restarts of an identical binary).
fn bench_acceptance_dyn_noop(n: usize, msgs: u64) -> f64 {
    let observer: Box<dyn Observer> = Box::new(NoopObserver);
    let mut e =
        Entity::<CoCore, _>::with_observer(steady_config(0, n), observer).expect("valid entity");
    let ns = drive_acceptance(&mut e, n, msgs);
    black_box(e.observer());
    ns
}

/// Acceptance with the fixed-depth flight recorder alone — the always-on
/// black box every `co-transport` node now carries. Unlike
/// [`bench_acceptance_traced`]'s unbounded log this is a ring overwrite:
/// cost must stay flat no matter how long the run. Dispatched through
/// `Box<dyn Observer>` (the `co-cli` runtime-chosen configuration) so the
/// guard can compare it against [`bench_acceptance_dyn_noop`]'s
/// layout-identical loop.
fn bench_acceptance_recorder(n: usize, msgs: u64) -> f64 {
    let observer: Box<dyn Observer> = Box::new(FlightRecorder::new(DEFAULT_RECORDER_DEPTH));
    let mut e =
        Entity::<CoCore, _>::with_observer(steady_config(0, n), observer).expect("valid entity");
    let ns = drive_acceptance(&mut e, n, msgs);
    black_box(e.observer());
    ns
}

/// The default cluster observer stack: latency histograms + flight
/// recorder + streaming anomaly detectors — what a `co-transport` node
/// runs out of the box.
type LiveStack = Tee<LatencyTracker, Tee<FlightRecorder, LiveDetector>>;

fn live_stack() -> LiveStack {
    Tee(
        LatencyTracker::default(),
        Tee(
            FlightRecorder::new(DEFAULT_RECORDER_DEPTH),
            LiveDetector::new(0, AnomalyConfig::default()),
        ),
    )
}

/// Acceptance under the [`LiveStack`]. Informational (no guard): the
/// stream accepts every PDU and delivers none, so this prices the
/// observers' in-flight tables growing to the length of the run, not
/// their steady state — `core_matrix/co/deliver_live/*` prices that, and
/// carries the guard.
fn bench_acceptance_live(n: usize, msgs: u64) -> f64 {
    let mut e = Entity::<CoCore, _>::with_observer(steady_config(0, n), live_stack())
        .expect("valid entity");
    let ns = drive_acceptance(&mut e, n, msgs);
    black_box(e.observer().1 .1.findings().len());
    ns
}

/// In-order acceptance ns/PDU on an arbitrary delivery core — the same
/// stream [`drive_acceptance`] prices on the reference engine, re-run
/// per core for the `core_matrix/{core}/accept/*` rows. On the hybrid
/// and sender cores this stream also *delivers* on arrival (the
/// sender's own column is exempt from their dependency tests), so the
/// row prices each engine's full receive path for dependency-free
/// traffic.
fn bench_core_accept<C: DeliveryCore>(n: usize, msgs: u64) -> f64 {
    let mut e = steady_core_entity::<C>(0, n);
    drive_acceptance(&mut e, n, msgs)
}

/// Steady-state delivery pricing for the `core_matrix/{core}/deliver/*`
/// and `/mem/*` rows: entity 0 observes `rounds` all-to-all rounds —
/// every peer broadcasts once per round, acks carrying the previous
/// round's full frontier — so every engine must do real ordering work
/// to deliver (knowledge folds + CPI on the reference core, causal
/// buffer sweeps on the hybrid core, FIFO acceptance on the sender
/// core). Returns `(ns_per_delivery, state_bytes)`: the footprint is
/// snapshotted at steady state, when a core holds only its resident
/// ordering structures plus whatever delivery tail it has not yet
/// released — the space axis of the core comparison. `observer` is what
/// watches: nothing for the `deliver` rows, the [`LiveStack`] for
/// `deliver_live`.
fn bench_core_deliver<C: DeliveryCore, O: Observer>(
    n: usize,
    rounds: u64,
    observer: O,
) -> (f64, usize) {
    let payload = Bytes::from_static(&[0u8; 64]);
    let mut e = Entity::<C, O>::with_observer(steady_config(0, n), observer).expect("valid entity");
    let mut actions: Vec<Action> = Vec::new();
    let mut delivered = 0u64;
    let mut now = 0u64;
    let start = Instant::now();
    for round in 1..=rounds {
        for src in 1..n {
            let mut ack = vec![Seq::FIRST; n];
            for slot in ack.iter_mut().skip(1) {
                *slot = Seq::new(round);
            }
            let pdu = Pdu::Data(DataPdu {
                cid: 1,
                src: EntityId::new(src as u32),
                seq: Seq::new(round),
                ack,
                buf: 1 << 20,
                data: payload.clone(),
            });
            now += 10;
            actions.clear();
            e.on_pdu(pdu, now, &mut actions).expect("accepted");
            delivered += actions
                .iter()
                .filter(|a| matches!(a, Action::Deliver(_)))
                .count() as u64;
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    assert!(
        delivered > 0,
        "{}: delivery never unlocked under the all-to-all round workload",
        C::NAME
    );
    black_box(e.observer());
    (elapsed / delivered as f64, e.state_bytes())
}

/// Emits the `core_matrix/{core}/{accept,deliver,mem}/{n}` rows for one
/// engine, and the `deliver_paired` / `deliver_live` pair at the sizes in
/// `live_sizes`. `deliver` is the first pass alone, as at every other
/// size, so it stays comparable with `accept` and with earlier trajectory
/// entries; the pair takes three round-robin passes (the first shared with
/// `deliver`) and keeps each leg's fastest, so a slow stretch of the
/// machine hits both and the guard can divide one by the other.
fn core_matrix_rows<C: DeliveryCore>(current: &mut Vec<Entry>, live_sizes: &[usize]) {
    for n in SIZES {
        let msgs = 20_000u64.min(2_000_000 / n as u64);
        let accept = bench_core_accept::<C>(n, msgs);
        current.push(Entry {
            id: format!("core_matrix/{}/accept/{n}", C::NAME),
            n,
            ns_per_op: accept,
            throughput_per_s: Some(1e9 / accept),
            bytes: None,
        });
        eprintln!("core_matrix/{}/accept/{n}: {accept:.1} ns/PDU", C::NAME);

        let rounds = (30_000u64.min(4_000_000 / n as u64) / (n as u64 - 1)).max(2);
        let (deliver, bytes) = bench_core_deliver::<C, _>(n, rounds, NoopObserver);
        let mut legs = vec![("deliver", deliver)];
        if live_sizes.contains(&n) {
            let (mut paired, mut live) = (deliver, f64::INFINITY);
            for pass in 0..3 {
                if pass > 0 {
                    paired = paired.min(bench_core_deliver::<C, _>(n, rounds, NoopObserver).0);
                }
                live = live.min(bench_core_deliver::<C, _>(n, rounds, live_stack()).0);
            }
            legs.extend([("deliver_paired", paired), ("deliver_live", live)]);
        }
        for (leg, ns) in legs {
            current.push(Entry {
                id: format!("core_matrix/{}/{leg}/{n}", C::NAME),
                n,
                ns_per_op: ns,
                throughput_per_s: Some(1e9 / ns),
                bytes: None,
            });
            eprintln!("core_matrix/{}/{leg}/{n}: {ns:.1} ns/delivery", C::NAME);
        }
        current.push(Entry {
            id: format!("core_matrix/{}/mem/{n}", C::NAME),
            n,
            ns_per_op: 0.0,
            throughput_per_s: None,
            bytes: Some(bytes),
        });
        eprintln!("core_matrix/{}/mem/{n}: {bytes} bytes", C::NAME);
    }
}

/// Entity tuned for the wire-level pipeline rows: *immediate*
/// confirmations, so every accepted PDU costs a freshly built O(n)
/// `AckOnly` on the per-PDU path — the cost the batch path coalesces to
/// one per drain. This is the shape the paper's steady state pays
/// without the deferral optimization, and the worst case for per-PDU
/// processing.
fn immediate_entity(me: u32, n: usize) -> Entity {
    let config = Config::builder(1, n, EntityId::new(me))
        .deferral(DeferralPolicy::Immediate)
        .window(1 << 20)
        .buffer_units(1 << 30)
        .build()
        .expect("valid config");
    Entity::new(config).expect("valid entity")
}

/// `total` in-order DATA frames from entity 1, pre-encoded to wire form
/// so both pipeline legs start from identical bytes.
fn in_order_frames(n: usize, total: u64) -> Vec<Bytes> {
    let payload = Bytes::from_static(&[0u8; 64]);
    (1..=total)
        .map(|seq| {
            let mut ack = vec![Seq::FIRST; n];
            ack[1] = Seq::new(seq);
            Pdu::Data(DataPdu {
                cid: 1,
                src: EntityId::new(1),
                seq: Seq::new(seq),
                ack,
                buf: 1 << 20,
                data: payload.clone(),
            })
            .encode()
        })
        .collect()
}

/// The transport's send half for outbound emissions: one encode per
/// `Broadcast`, then a per-peer enqueue of a refcounted clone — exactly
/// what `co-transport` does (`try_send(encoded.clone())` per peer, or
/// one `send_to` per peer over UDP) and what `mc-net` does with its
/// per-peer inbox pushes. The ring is bounded like a NIC queue, so the
/// bench prices the enqueue, not unbounded growth. This is where the
/// per-PDU `AckOnly` storm hurts at scale: every inbound PDU answered
/// immediately costs an (n-1)-peer fan-out — O(n²) per round — which
/// the batched drain coalesces.
struct FanOut {
    ring: std::collections::VecDeque<Bytes>,
    peers: usize,
}

impl FanOut {
    const CAP: usize = 1024;

    fn new(peers: usize) -> Self {
        Self {
            ring: std::collections::VecDeque::with_capacity(Self::CAP),
            peers,
        }
    }

    fn dispatch(&mut self, actions: &[Action]) {
        for action in actions {
            if let Action::Broadcast(pdu) = action {
                let encoded = pdu.encode();
                for _ in 0..self.peers {
                    if self.ring.len() == Self::CAP {
                        self.ring.pop_front();
                    }
                    self.ring.push_back(encoded.clone());
                }
            }
        }
        black_box(self.ring.len());
    }
}

/// Wire-level receive pipeline throughput in PDUs/s, both ways:
/// `(per_pdu, batched)`. Frames arrive in drains of [`BATCH_WIDTH`]; the
/// per-PDU leg decodes each frame standalone and feeds `on_pdu`, the
/// batched leg decodes through the shared ack-buffer pool and feeds the
/// whole drain to `on_pdus_into`. Both legs pay the same per-emission
/// send cost ([`FanOut`]). Each leg runs three times and keeps the
/// fastest pass: the first pass faults in the frame set and warms the
/// allocator, and keeping the best (rather than the second) measurement
/// makes the guarded speedup robust to a scheduler hiccup landing on
/// any one pass.
fn bench_batch_throughput(n: usize, total: u64) -> (f64, f64) {
    let frames = in_order_frames(n, total);

    let per_pdu_leg = |frames: &[Bytes]| {
        let mut e = immediate_entity(0, n);
        let mut actions: Vec<Action> = Vec::new();
        let mut fan = FanOut::new(n - 1);
        let mut now = 0u64;
        let start = Instant::now();
        for drain in frames.chunks(BATCH_WIDTH) {
            now += 10;
            for frame in drain {
                actions.clear();
                let pdu = Pdu::decode(frame).expect("well-formed frame");
                e.on_pdu(pdu, now, &mut actions).expect("accepted");
                fan.dispatch(&actions);
            }
        }
        total as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };

    let batched_leg = |frames: &[Bytes]| {
        let mut e = immediate_entity(0, n);
        let mut actions: Vec<Action> = Vec::new();
        let mut fan = FanOut::new(n - 1);
        let mut pool = AckBufPool::new();
        let mut pdus: Vec<Pdu> = Vec::new();
        let mut now = 0u64;
        let start = Instant::now();
        for drain in frames.chunks(BATCH_WIDTH) {
            now += 10;
            actions.clear();
            pdus.clear();
            Pdu::decode_batch_into(drain.iter().map(|f| f.as_ref()), &mut pool, &mut pdus);
            let outcome = e.on_pdus_into(pdus.drain(..), now, &mut actions);
            assert_eq!(outcome.rejected, 0, "well-formed frames");
            fan.dispatch(&actions);
        }
        total as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };

    let per_pdu = (0..3).map(|_| per_pdu_leg(&frames)).fold(0.0, f64::max);
    let batched = (0..3).map(|_| batched_leg(&frames)).fold(0.0, f64::max);
    (per_pdu, batched)
}

/// `(encode, decode)` ns/PDU for an `AckOnly` at cluster size `n` in one
/// of three shapes: `"lag"`, the steady state (`ack` spread under 256,
/// `packed` / `acked` at most 15 behind it: one byte and twice half a
/// byte per entity), `"w1"` (lags spread past 15, so all three vectors
/// take the one-byte arm) and `"w8"` (all three forced into the
/// eight-byte fallback). Encode is [`Pdu::encode`] as the transports call
/// it (one allocation per frame); decode draws from a warm, recycled
/// pool, so it is the codec alone. Fastest of three passes, like the
/// other rows.
fn bench_codec_ack_only(n: usize, shape: &str) -> (f64, f64) {
    let mut ack: Vec<Seq> = (0..n as u64)
        .map(|i| Seq::new(1_000 + i * 37 % 256))
        .collect();
    let lag_cap = if shape == "lag" { 16 } else { 200 };
    let behind = |ack: &[Seq], step: u64| -> Vec<Seq> {
        let lags = (0..n as u64).map(|i| i * step % lag_cap);
        ack.iter()
            .zip(lags)
            .map(|(a, lag)| Seq::new(a.get() - lag))
            .collect()
    };
    let (mut packed, mut acked) = (behind(&ack, 7), behind(&ack, 11));
    if shape == "w8" {
        ack[n - 1] = Seq::new(u64::MAX);
        packed[n - 1] = Seq::new(u64::MAX >> 1);
        acked[n - 1] = Seq::new(u64::MAX >> 2);
    }
    let pdu = Pdu::AckOnly(AckOnlyPdu {
        cid: 1,
        src: EntityId::new(1),
        ack,
        packed,
        acked,
        buf: 4096,
    });
    let raw = pdu.encode();
    let vectors = match shape {
        "lag" => n + 2 * n.div_ceil(2),
        "w1" => 3 * n,
        _ => 3 * 8 * n,
    };
    assert_eq!(raw.len(), 16 + 3 * 11 + vectors, "{shape} arm");
    let iters = 40_000_000 / n as u64;
    let mut pool = AckBufPool::with_buffers(3, n);
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _pass in 0..3 {
        let encode = time(iters, || {
            black_box(black_box(&pdu).encode());
        });
        let decode = time(iters, || {
            let decoded = Pdu::decode_with(black_box(&raw), &mut pool).expect("valid");
            pool.recycle(black_box(decoded));
        });
        best = (best.0.min(encode), best.1.min(decode));
    }
    best
}

struct Entry {
    id: String,
    n: usize,
    ns_per_op: f64,
    throughput_per_s: Option<f64>,
    /// Memory-footprint rows (`core_matrix/*/mem/*`) report resident
    /// bytes instead of a timing; `Some` switches the JSON field.
    bytes: Option<usize>,
}

/// Appends one run entry to the trajectory artifact. The file is a JSON
/// array of run objects, newest last; an empty/missing file starts a
/// fresh array, and a legacy single-object (`hotpath-v1` pre-trajectory)
/// artifact is absorbed as the first entry rather than discarded.
fn append_run(existing: &str, run: &str) -> String {
    let trimmed = existing.trim();
    if trimmed.is_empty() {
        return format!("[\n{run}\n]\n");
    }
    if let Some(body) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let body = body.trim();
        if body.is_empty() {
            return format!("[\n{run}\n]\n");
        }
        return format!("[\n{body},\n{run}\n]\n");
    }
    // Legacy single-object artifact: keep it as the trajectory's origin.
    format!("[\n{trimmed},\n{run}\n]\n")
}

/// glibc hands a freed heap top back to the kernel once it passes
/// `M_TRIM_THRESHOLD`. Every accept row frees tens of MB when its entity
/// drops, so whether the *next* row runs on mapped pages or faults each
/// one in again (+80% at n = 64, on rows that share no code with the row
/// before) comes down to what the previous teardown happened to leave on
/// top of the heap: a change to one row's allocations moved every other
/// row (results/README.md has the fault counts). The rows price steady
/// state, so the heap stays mapped.
fn keep_freed_heap_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        // SAFETY: `mallopt` only stores a tunable inside glibc's allocator;
        // this runs once, first thing in `main`, before another thread
        // exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

fn main() {
    keep_freed_heap_mapped();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let guard = if let Some(i) = args.iter().position(|a| a == "--guard") {
        args.remove(i);
        true
    } else {
        false
    };
    let out_path = args
        .into_iter()
        .next()
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let mut current: Vec<Entry> = Vec::new();

    for n in SIZES {
        let (fold, row_min, row_mins) = bench_matrix(n);
        for (op, ns) in [
            ("fold_column", fold),
            ("row_min", row_min),
            ("row_mins", row_mins),
        ] {
            current.push(Entry {
                id: format!("matrix/{op}/{n}"),
                n,
                ns_per_op: ns,
                throughput_per_s: None,
                bytes: None,
            });
            eprintln!("matrix/{op}/{n}: {ns:.1} ns/op");
        }
    }

    for n in SIZES {
        let msgs = 60_000u64.min(8_000_000 / n as u64);
        type AcceptBench = fn(usize, u64) -> f64;
        let ops: [(&str, AcceptBench); 6] = [
            ("accept_in_order", bench_acceptance),
            ("accept_latency", bench_acceptance_latency),
            ("accept_traced", bench_acceptance_traced),
            ("accept_dyn_noop", bench_acceptance_dyn_noop),
            ("accept_recorder", bench_acceptance_recorder),
            ("accept_live", bench_acceptance_live),
        ];
        // Round-robin passes, keep each op's fastest: pass one faults in
        // code and warms the allocator, and interleaving means a slow
        // stretch of the machine hits every op instead of biasing
        // whichever op it happened to land on — the recorder guard
        // compares two of these rows at 10% tolerance, which
        // block-sequential measurement cannot support. Three passes so a
        // transient load spike has to span the whole schedule to skew a
        // row's minimum.
        let mut mins = [f64::INFINITY; 6];
        for _pass in 0..3 {
            for (slot, (_, bench)) in ops.iter().enumerate() {
                mins[slot] = mins[slot].min(bench(n, msgs));
            }
        }
        for ((op, _), ns) in ops.iter().zip(mins) {
            current.push(Entry {
                id: format!("entity/{op}/{n}"),
                n,
                ns_per_op: ns,
                throughput_per_s: Some(1e9 / ns),
                bytes: None,
            });
            eprintln!("entity/{op}/{n}: {ns:.1} ns/PDU");
        }
    }

    core_matrix_rows::<CoCore>(&mut current, &[64, 256]);
    core_matrix_rows::<HybridCore>(&mut current, &[]);
    core_matrix_rows::<SenderCore>(&mut current, &[]);

    for n in SIZES {
        let total = 40_000u64.min(6_000_000 / n as u64);
        let (per_pdu, batched) = bench_batch_throughput(n, total);
        for (leg, per_s) in [("per_pdu", per_pdu), ("batched", batched)] {
            current.push(Entry {
                id: format!("batch_throughput/{leg}/{n}"),
                n,
                ns_per_op: 1e9 / per_s,
                throughput_per_s: Some(per_s),
                bytes: None,
            });
            eprintln!("batch_throughput/{leg}/{n}: {per_s:.0} PDUs/s");
        }
        eprintln!("batch_throughput/speedup/{n}: {:.2}x", batched / per_pdu);
    }

    for n in [64usize, 256] {
        for shape in ["lag", "w1", "w8"] {
            let (encode, decode) = bench_codec_ack_only(n, shape);
            for (op, ns) in [("encode", encode), ("decode", decode)] {
                current.push(Entry {
                    id: format!("codec/ack_only/{op}_{shape}/{n}"),
                    n,
                    ns_per_op: ns,
                    throughput_per_s: None,
                    bytes: None,
                });
                eprintln!("codec/ack_only/{op}_{shape}/{n}: {ns:.1} ns/PDU");
            }
        }
    }

    let at_epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut json = String::new();
    writeln!(
        json,
        "{{\n  \"schema\": \"hotpath-v1\",\n  \"at_epoch_secs\": {at_epoch_secs},"
    )
    .expect("write to string");
    json.push_str("  \"baseline\": {\n");
    for (i, (id, n, ns)) in BASELINE_PRE_CHANGE.iter().enumerate() {
        let comma = if i + 1 == BASELINE_PRE_CHANGE.len() {
            ""
        } else {
            ","
        };
        writeln!(
            json,
            "    \"{id}\": {{\"n\": {n}, \"ns_per_op\": {ns:.1}}}{comma}"
        )
        .expect("write to string");
    }
    json.push_str("  },\n  \"current\": {\n");
    for (i, e) in current.iter().enumerate() {
        let comma = if i + 1 == current.len() { "" } else { "," };
        if let Some(b) = e.bytes {
            writeln!(
                json,
                "    \"{}\": {{\"n\": {}, \"bytes\": {b}}}{comma}",
                e.id, e.n
            )
            .expect("write to string");
            continue;
        }
        match e.throughput_per_s {
            Some(t) => writeln!(
                json,
                "    \"{}\": {{\"n\": {}, \"ns_per_op\": {:.1}, \"throughput_per_s\": {:.0}}}{comma}",
                e.id, e.n, e.ns_per_op, t
            )
            .expect("write to string"),
            None => writeln!(
                json,
                "    \"{}\": {{\"n\": {}, \"ns_per_op\": {:.1}}}{comma}",
                e.id, e.n, e.ns_per_op
            )
            .expect("write to string"),
        }
    }
    json.push_str("  },\n  \"speedup_vs_baseline\": {\n");
    let speedups: Vec<(String, f64)> = BASELINE_PRE_CHANGE
        .iter()
        .filter_map(|(id, _, base)| {
            current
                .iter()
                .find(|e| e.id == *id)
                .map(|e| (id.to_string(), base / e.ns_per_op))
        })
        .collect();
    for (i, (id, ratio)) in speedups.iter().enumerate() {
        let comma = if i + 1 == speedups.len() { "" } else { "," };
        writeln!(json, "    \"{id}\": {ratio:.2}{comma}").expect("write to string");
    }
    json.push_str("  }\n}");

    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let trajectory = append_run(&existing, &json);
    std::fs::write(&out_path, &trajectory).expect("write BENCH_hotpath.json");
    eprintln!("appended run to {out_path}");

    if guard {
        if !run_guard(&current) {
            eprintln!("guard: FAIL — a within-run ratio is out of bounds");
            std::process::exit(1);
        }
        eprintln!("guard: PASS");
    }
}

/// The guard: four ratios between rows of the run just measured (see
/// the module docs). Returns `false` if any is out of bounds; all
/// verdicts are printed either way.
fn run_guard(current: &[Entry]) -> bool {
    let mut ok = true;

    // Within-run recorder overhead: the always-on black box against the
    // no-op observer, both measured through the same boxed accept loop in
    // the same process, so the ratio is callee cost and nothing else.
    for n in SIZES {
        let row = |op: &str| {
            current
                .iter()
                .find(|e| e.id == format!("entity/{op}/{n}"))
                .map(|e| e.ns_per_op)
        };
        let (Some(base), Some(recorder)) = (row("accept_dyn_noop"), row("accept_recorder")) else {
            continue;
        };
        let ratio = recorder / base;
        // Only the n = 256 ratio carries a verdict: the smaller rows are
        // dominated by timer and scheduler jitter, not recorder cost
        // (see module docs).
        let verdict = if n != 256 {
            "(informational)"
        } else if ratio <= RECORDER_GUARD_TOLERANCE {
            "ok"
        } else {
            ok = false;
            "REGRESSED"
        };
        eprintln!(
            "guard entity/accept_recorder/{n}: {recorder:.1} ns vs same-run dyn-noop baseline \
             {base:.1} ns ({ratio:.2}x, tolerance {RECORDER_GUARD_TOLERANCE:.2}x) {verdict}"
        );
    }

    // Within-run ordering cost on the reference core: one delivery in
    // units of one acceptance, so machine speed cancels.
    let co_row = |op: &str| {
        current
            .iter()
            .find(|e| e.id == format!("core_matrix/co/{op}"))
            .map(|e| e.ns_per_op)
    };
    if let (Some(accept), Some(deliver)) = (co_row("accept/256"), co_row("deliver/256")) {
        let ratio = deliver / accept;
        let verdict = if ratio <= DELIVER_256_MAX_ACCEPTS {
            "ok"
        } else {
            ok = false;
            "REGRESSED"
        };
        eprintln!(
            "guard core_matrix/co/deliver/256: {deliver:.1} ns vs same-run accept \
             {accept:.1} ns ({ratio:.2}x, ceiling {DELIVER_256_MAX_ACCEPTS:.1}x) {verdict}"
        );
    }
    // Within-run cost of the default observer stack over a delivery, in
    // units of the delivery itself; both legs share their passes.
    for n in [64, 256] {
        let legs = (
            co_row(&format!("deliver_paired/{n}")),
            co_row(&format!("deliver_live/{n}")),
        );
        let (Some(deliver), Some(live)) = legs else {
            continue;
        };
        let ratio = live / deliver;
        let verdict = if n != 64 {
            "(informational)"
        } else if ratio <= DELIVER_LIVE_64_CEILING {
            "ok"
        } else {
            ok = false;
            "REGRESSED"
        };
        eprintln!(
            "guard core_matrix/co/deliver_live/{n}: {live:.1} ns vs same-pass deliver_paired \
             {deliver:.1} ns ({ratio:.2}x, ceiling {DELIVER_LIVE_64_CEILING:.2}x) {verdict}"
        );
    }

    let per_pdu = current
        .iter()
        .find(|e| e.id == "batch_throughput/per_pdu/256")
        .and_then(|e| e.throughput_per_s);
    let batched = current
        .iter()
        .find(|e| e.id == "batch_throughput/batched/256")
        .and_then(|e| e.throughput_per_s);
    if let (Some(per_pdu), Some(batched)) = (per_pdu, batched) {
        let speedup = batched / per_pdu;
        let verdict = if speedup >= BATCH_256_MIN_SPEEDUP {
            "ok"
        } else {
            ok = false;
            "REGRESSED"
        };
        eprintln!(
            "guard batch_throughput/256: {speedup:.2}x batched over per-PDU \
             (floor {BATCH_256_MIN_SPEEDUP:.1}x) {verdict}"
        );
    }

    ok
}

#[cfg(test)]
mod tests {
    use super::append_run;

    #[test]
    fn first_run_starts_an_array() {
        assert_eq!(append_run("", "{\"a\": 1}"), "[\n{\"a\": 1}\n]\n");
        assert_eq!(append_run("  \n", "{\"a\": 1}"), "[\n{\"a\": 1}\n]\n");
        assert_eq!(append_run("[]", "{\"a\": 1}"), "[\n{\"a\": 1}\n]\n");
    }

    #[test]
    fn later_runs_append_newest_last() {
        let one = append_run("", "{\"a\": 1}");
        let two = append_run(&one, "{\"b\": 2}");
        assert_eq!(two, "[\n{\"a\": 1},\n{\"b\": 2}\n]\n");
        let three = append_run(&two, "{\"c\": 3}");
        assert_eq!(three, "[\n{\"a\": 1},\n{\"b\": 2},\n{\"c\": 3}\n]\n");
    }

    #[test]
    fn legacy_object_becomes_the_first_entry() {
        let legacy = "{\n  \"schema\": \"hotpath-v1\",\n  \"current\": {}\n}\n";
        let out = append_run(legacy, "{\"d\": 4}");
        assert!(out.starts_with("[\n{\n  \"schema\": \"hotpath-v1\""));
        assert!(out.ends_with("},\n{\"d\": 4}\n]\n"));
    }
}
