//! Hot-path regression suite: the benches whose numbers land in
//! `BENCH_hotpath.json` (see `results/README.md` for the schema and
//! `src/bin/hotpath.rs` for the headless runner that writes the file).
//!
//! Three families are measured:
//!
//! * `matrix/*` — incrementally maintained row minima: `fold_column`
//!   pays for the minima it moves, `row_mins` is an O(1) borrow;
//! * `entity/accept_in_order` — steady-state acceptance of an in-order
//!   data stream through the sink-based `on_pdu` with a reused action
//!   vector, the
//!   path the allocation-regression test pins at zero allocs;
//! * `batch_throughput` — the wire-level receive pipeline (decode +
//!   accept + per-peer fan-out of emissions) per-PDU versus through the
//!   batched drain (`Pdu::decode_batch_into` + `Entity::on_pdus_into`),
//!   under immediate confirmations so the per-PDU `AckOnly` storm is
//!   priced at its real O(n²) fan-out cost.
//!
//! A regression anywhere in the engine over a full simulated round is
//! what the `sim-*` workloads of `BENCHMARK.json` catch.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{Action, Config, DeferralPolicy, Entity, KnowledgeMatrix, Pdu};
use co_wire::{AckBufPool, DataPdu};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SIZES: [usize; 4] = [4, 16, 64, 256];

/// Entity tuned for a long steady-state run: deferred confirmations with
/// an effectively-infinite timeout, so the receive path is measured
/// without timer-driven sends.
fn steady_entity(me: u32, n: usize) -> Entity {
    let config = Config::builder(1, n, EntityId::new(me))
        .deferral(DeferralPolicy::Deferred {
            timeout_us: 1 << 40,
        })
        .window(1 << 20)
        .buffer_units(1 << 30)
        .build()
        .expect("valid config");
    Entity::new(config).expect("valid entity")
}

/// In-order data PDU from entity 1 whose ack vector never runs ahead of
/// the receiver (quiet F2 scan — the steady-state shape).
fn in_order_pdu(seq: u64, n: usize) -> Pdu {
    let mut ack = vec![Seq::FIRST; n];
    ack[1] = Seq::new(seq);
    Pdu::Data(DataPdu {
        cid: 1,
        src: EntityId::new(1),
        seq: Seq::new(seq),
        ack,
        buf: 1 << 20,
        data: Bytes::from_static(&[0u8; 64]),
    })
}

fn bench_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix/fold_column");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            let mut m = KnowledgeMatrix::new(n);
            let mut vec = vec![Seq::new(5); n];
            let mut tick = 0u64;
            b.iter(|| {
                tick += 1;
                vec[(tick % n as u64) as usize] = Seq::new(5 + tick / n as u64);
                m.fold_column(EntityId::new((tick % n as u64) as u32), &vec);
                black_box(m.row_min(EntityId::new(0)));
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("matrix/row_mins");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            let m = KnowledgeMatrix::new(n);
            b.iter(|| black_box(m.row_mins().len()));
        });
    }
    group.finish();
}

fn bench_accept_in_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("entity/accept_in_order");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    const BATCH: u64 = 256;
    for n in SIZES {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let pdus: Vec<Pdu> = (1..=BATCH).map(|s| in_order_pdu(s, n)).collect();
                    (steady_entity(0, n), pdus, Vec::<Action>::new())
                },
                |(mut entity, pdus, mut actions)| {
                    let mut now = 0u64;
                    for pdu in pdus {
                        actions.clear();
                        now += 10;
                        entity.on_pdu(pdu, now, &mut actions).expect("accepted");
                    }
                    black_box(entity.metrics().accepted())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// The transport's send half: one encode per `Broadcast`, one
/// refcounted clone enqueued per peer (a bounded NIC-like ring) — the
/// same shape as `co-transport`'s per-peer `try_send(encoded.clone())`.
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

/// Entity with *immediate* confirmations: every accepted PDU answers
/// with a freshly built O(n) `AckOnly` on the per-PDU path — the cost
/// the batched drain coalesces to one per batch.
fn immediate_entity(me: u32, n: usize) -> Entity {
    let config = Config::builder(1, n, EntityId::new(me))
        .deferral(DeferralPolicy::Immediate)
        .window(1 << 20)
        .buffer_units(1 << 30)
        .build()
        .expect("valid config");
    Entity::new(config).expect("valid entity")
}

fn bench_batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));
    const TOTAL: u64 = 256;
    const WIDTH: usize = 32; // co-transport's default drain width
    for n in SIZES {
        let frames: Vec<Bytes> = (1..=TOTAL).map(|s| in_order_pdu(s, n).encode()).collect();
        group.bench_with_input(BenchmarkId::new("per_pdu", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    (
                        immediate_entity(0, n),
                        Vec::<Action>::new(),
                        FanOut::new(n - 1),
                    )
                },
                |(mut entity, mut actions, mut fan)| {
                    let mut now = 0u64;
                    for drain in frames.chunks(WIDTH) {
                        now += 10;
                        for frame in drain {
                            actions.clear();
                            let pdu = Pdu::decode(frame).expect("well-formed");
                            entity.on_pdu(pdu, now, &mut actions).expect("accepted");
                            fan.dispatch(&actions);
                        }
                    }
                    black_box(entity.metrics().accepted())
                },
                criterion::BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    (
                        immediate_entity(0, n),
                        Vec::<Action>::new(),
                        FanOut::new(n - 1),
                        AckBufPool::new(),
                        Vec::<Pdu>::new(),
                    )
                },
                |(mut entity, mut actions, mut fan, mut pool, mut pdus)| {
                    let mut now = 0u64;
                    for drain in frames.chunks(WIDTH) {
                        now += 10;
                        actions.clear();
                        pdus.clear();
                        Pdu::decode_batch_into(
                            drain.iter().map(|f| f.as_ref()),
                            &mut pool,
                            &mut pdus,
                        );
                        entity.on_pdus_into(pdus.drain(..), now, &mut actions);
                        fan.dispatch(&actions);
                    }
                    black_box(entity.metrics().accepted())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matrix,
    bench_accept_in_order,
    bench_batch_throughput
);
criterion_main!(benches);
