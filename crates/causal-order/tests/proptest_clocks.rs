//! Property-based tests of the clock and oracle substrates: vector-clock
//! algebra, and agreement between the explicit happened-before graph and
//! vector-clock causality on simulated runs.

use causal_order::{ClockOrdering, EntityId, EventGraph, MsgId, VectorClock};
use proptest::prelude::*;

fn arb_clock(n: usize) -> impl Strategy<Value = VectorClock> {
    prop::collection::vec(0u64..50, n).prop_map(VectorClock::from_entries)
}

proptest! {
    #[test]
    fn merge_is_commutative_associative_idempotent(
        a in arb_clock(4),
        b in arb_clock(4),
        c in arb_clock(4),
    ) {
        // Commutative.
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_bc = a.clone();
        a_bc.merge(&bc).unwrap();
        prop_assert_eq!(&ab_c, &a_bc);
        // Idempotent.
        let mut aa = a.clone();
        aa.merge(&a).unwrap();
        prop_assert_eq!(&aa, &a);
    }

    #[test]
    fn compare_is_antisymmetric_and_consistent(a in arb_clock(4), b in arb_clock(4)) {
        match a.compare(&b) {
            ClockOrdering::Equal => prop_assert_eq!(b.compare(&a), ClockOrdering::Equal),
            ClockOrdering::Before => prop_assert_eq!(b.compare(&a), ClockOrdering::After),
            ClockOrdering::After => prop_assert_eq!(b.compare(&a), ClockOrdering::Before),
            ClockOrdering::Concurrent => {
                prop_assert_eq!(b.compare(&a), ClockOrdering::Concurrent)
            }
        }
        // Merge dominates both inputs.
        let mut m = a.clone();
        m.merge(&b).unwrap();
        prop_assert!(matches!(
            a.compare(&m),
            ClockOrdering::Before | ClockOrdering::Equal
        ));
        prop_assert!(matches!(
            b.compare(&m),
            ClockOrdering::Before | ClockOrdering::Equal
        ));
    }

    #[test]
    fn tick_strictly_advances(mut a in arb_clock(4), who in 0u32..4) {
        let before = a.clone();
        a.tick(EntityId::new(who));
        prop_assert_eq!(before.compare(&a), ClockOrdering::Before);
    }
}

/// A tiny random execution: events are (entity, kind) where kind is either
/// a fresh broadcast or the receipt of a previously sent message.
#[derive(Debug, Clone)]
enum Step {
    Send(u32),
    /// Receive the k-th previously-sent message (mod available).
    Recv(u32, usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..3).prop_map(Step::Send),
            (0u32..3, 0usize..8).prop_map(|(e, k)| Step::Recv(e, k)),
        ],
        1..40,
    )
}

proptest! {
    /// The explicit happened-before graph and vector clocks must agree on
    /// message causality for every random execution.
    #[test]
    fn event_graph_matches_vector_clocks(steps in arb_steps()) {
        let n = 3;
        let mut graph = EventGraph::new();
        let mut clocks: Vec<VectorClock> = (0..n).map(|_| VectorClock::new(n)).collect();
        // (msg, sender, vc at send)
        let mut sent: Vec<(MsgId, u32, VectorClock)> = Vec::new();
        let mut next_msg = 0u64;
        for step in steps {
            match step {
                Step::Send(e) => {
                    let msg = MsgId(next_msg);
                    next_msg += 1;
                    clocks[e as usize].tick(EntityId::new(e));
                    graph.record_send(EntityId::new(e), msg);
                    sent.push((msg, e, clocks[e as usize].clone()));
                }
                Step::Recv(e, k) => {
                    if sent.is_empty() {
                        continue;
                    }
                    let (msg, sender, vc) = sent[k % sent.len()].clone();
                    if sender == e {
                        continue; // no self-receipt in this model
                    }
                    graph.record_receive(EntityId::new(e), msg);
                    clocks[e as usize].merge(&vc).unwrap();
                    clocks[e as usize].tick(EntityId::new(e));
                }
            }
        }
        // Graph ⇒ and VC-before must coincide on every message pair.
        for (p, _, vp) in &sent {
            for (q, _, vq) in &sent {
                if p == q {
                    continue;
                }
                let graph_says = graph.msg_causally_precedes(*p, *q);
                let vc_says = vp.precedes(vq);
                prop_assert_eq!(
                    graph_says, vc_says,
                    "disagree on {} ⇒ {} (vc {} vs {})", p, q, vp, vq
                );
            }
        }
    }
}
