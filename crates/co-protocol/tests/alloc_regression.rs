//! Allocation-regression guard for the steady-state receive path.
//!
//! A counting global allocator measures heap allocations while an entity
//! accepts a run of in-order data PDUs through the sink-based
//! [`Entity::on_pdu`]
//! with a reused action vector. After a warm-up that grows every internal
//! buffer to its working size, the steady phase must perform **zero**
//! allocations per PDU — the tentpole claim of the O(1)-amortized
//! acceptance path. Confirmation-boundary PDUs (which pack, deliver and
//! emit an `AckOnly`) may allocate that PDU's vectors and nothing per
//! drained PDU.
//!
//! This file holds a single test on purpose: the global allocator is
//! per-binary, and a lone test keeps the counting window free of
//! concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_protocol::{Action, Config, DeferralPolicy, Entity};
use co_wire::{AckOnlyPdu, DataPdu, Pdu};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::SeqCst))
}

fn seqs(v: &[u64]) -> Vec<Seq> {
    v.iter().copied().map(Seq::new).collect()
}

fn data(src: u32, seq: u64) -> Pdu {
    Pdu::Data(DataPdu {
        cid: 1,
        src: EntityId::new(src),
        seq: Seq::new(seq),
        // All-FIRST confirmations: never ahead of the receiver, so the
        // F2 scan stays quiet (the AL fold is monotonic; stale is fine).
        ack: seqs(&[1, 1, 1]),
        buf: 1 << 20,
        data: Bytes::new(),
    })
}

/// A full-knowledge confirmation from entity 2: `ack`/`packed`/`acked`
/// all equal the receiver's own frontier, so nothing is lagging
/// (`peer_needs_update` stays false) and the whole RRL→PRL→deliver
/// pipeline drains in this one call.
fn boundary_ack(next_from_1: u64) -> Pdu {
    Pdu::AckOnly(AckOnlyPdu {
        cid: 1,
        src: EntityId::new(2),
        ack: seqs(&[1, next_from_1, 1]),
        packed: seqs(&[1, next_from_1, 1]),
        acked: seqs(&[1, next_from_1, 1]),
        buf: 1 << 20,
    })
}

/// Runs warm-up plus measured cycles of `steady` in-order data PDUs and
/// one confirmation boundary each; asserts the steady phase never
/// allocates and returns the worst boundary allocation count.
fn worst_boundary_allocs(steady: u64) -> u64 {
    const WARMUP_CYCLES: u64 = 4;
    const MEASURED_CYCLES: u64 = 4;

    let config = Config::builder(1, 3, EntityId::new(0))
        .buffer_units(1 << 20)
        .window(1 << 20)
        // Effectively disable timer-driven confirmations; only the
        // heard-from-all-peers trigger at cycle boundaries fires.
        .deferral(DeferralPolicy::Deferred {
            timeout_us: u64::MAX / 2,
        })
        .build()
        .expect("valid config");
    let mut e = Entity::new(config).expect("entity");
    let mut actions: Vec<Action> = Vec::new();
    let mut now = 0u64;
    let mut next_seq = 1u64;

    let cycle = |e: &mut Entity,
                 actions: &mut Vec<Action>,
                 next_seq: &mut u64,
                 now: &mut u64|
     -> (u64, u64) {
        // Pre-build the whole cycle's PDUs so their own Vec/Bytes
        // construction never lands inside the counting window.
        let steady_pdus: Vec<Pdu> = (*next_seq..*next_seq + steady)
            .map(|s| data(1, s))
            .collect();
        *next_seq += steady;
        let boundary = boundary_ack(*next_seq);

        let (_, steady_allocs) = counted(|| {
            for pdu in steady_pdus {
                actions.clear();
                *now += 10;
                e.on_pdu(pdu, *now, actions).expect("steady PDU accepted");
                assert!(actions.is_empty(), "steady phase must emit no actions");
            }
        });

        actions.clear();
        *now += 10;
        let (_, boundary_allocs) = counted(|| {
            e.on_pdu(boundary, *now, actions)
                .expect("boundary accepted");
        });
        // The boundary delivers the whole cycle and emits one AckOnly.
        let delivered = actions
            .iter()
            .filter(|a| matches!(a, Action::Deliver(_)))
            .count() as u64;
        assert_eq!(delivered, steady, "boundary drains the cycle");
        (steady_allocs, boundary_allocs)
    };

    for _ in 0..WARMUP_CYCLES {
        cycle(&mut e, &mut actions, &mut next_seq, &mut now);
    }

    let mut boundary_worst = 0u64;
    for round in 0..MEASURED_CYCLES {
        let (steady_allocs, boundary_allocs) = cycle(&mut e, &mut actions, &mut next_seq, &mut now);
        assert_eq!(
            steady_allocs, 0,
            "round {round}: steady-state acceptance of {steady} in-order data \
             PDUs must not allocate"
        );
        boundary_worst = boundary_worst.max(boundary_allocs);
    }
    assert_eq!(
        e.metrics().delivered(),
        steady * (WARMUP_CYCLES + MEASURED_CYCLES)
    );
    boundary_worst
}

#[test]
fn steady_state_receive_path_does_not_allocate() {
    const STEADY: u64 = 32; // in-order data PDUs per cycle

    // The confirmation boundary allocates exactly the three vectors of the
    // AckOnly it emits. Pre-acknowledging and delivering the cycle's PDUs
    // moves them between logs without touching the heap, so the count
    // must not depend on how many PDUs the boundary drains.
    let boundary = worst_boundary_allocs(STEADY);
    assert!(boundary <= 3, "boundary allocations ballooned: {boundary}");
    let doubled = worst_boundary_allocs(2 * STEADY);
    assert!(
        doubled <= boundary,
        "boundary allocations grow with the PDUs drained: {boundary} for \
         {STEADY}, {doubled} for {}",
        2 * STEADY
    );
}
