//! Shared helpers for the Criterion benches (see `benches/`).
//!
//! Each bench maps to an evaluation claim:
//!
//! * `codec` — PDU encode/decode cost vs `n` (O(n) PDU length, §5);
//! * `ordering_cost` — sequence-number causality test (Theorem 4.1) vs
//!   vector-clock comparison (the ISIS "more computation" claim, §5);
//! * `acceptance_path` — one `on_pdu` acceptance through the engine vs `n`
//!   (the O(n) per-PDU processing of Figure 8, as a microbench);
//! * `hotpath` — the regression suite behind `BENCH_hotpath.json`
//!   (matrix minima, steady-state acceptance, batched receive; see
//!   `results/README.md` for the schema).
//!
//! A complete simulated broadcast round is not benchmarked here: that is
//! what `BENCHMARK.json`'s `sim-*` workloads (`co-e2e/`) measure.

#![forbid(unsafe_code)]

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{Config, DataPdu, DeferralPolicy, Entity};

/// Builds an entity `E_{me+1}` of an `n`-cluster with immediate
/// confirmations (benchmark-friendly: no timers needed).
pub fn bench_entity(me: u32, n: usize) -> Entity {
    let config = Config::builder(1, n, EntityId::new(me))
        .deferral(DeferralPolicy::Immediate)
        .window(1 << 20)
        .buffer_units(1 << 20)
        .build()
        .expect("valid config");
    Entity::new(config).expect("valid entity")
}

/// Builds the `seq`-th data PDU from `src` in an `n`-cluster (consistent
/// acks: the sender has seen nothing from anyone else).
pub fn data_pdu(src: u32, seq: u64, n: usize, payload: usize) -> DataPdu {
    let mut ack = vec![Seq::FIRST; n];
    ack[src as usize] = Seq::new(seq);
    DataPdu {
        cid: 1,
        src: EntityId::new(src),
        seq: Seq::new(seq),
        ack,
        buf: 1 << 20,
        data: Bytes::from(vec![0u8; payload]),
    }
}
