//! Property-based tests of the protocol's internal invariants:
//! the CPI operation, the knowledge matrices, and the flow condition.

use bytes::Bytes;
use causal_order::{causally_precedes, EntityId, Seq};
use co_protocol::{flow_limit, CausalLog, DataPdu, KnowledgeMatrix};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// CPI: generate PDU sets from *valid protocol histories* and insert them
// in arbitrary orders.
// ---------------------------------------------------------------------

/// Builds the PDUs of a synthetic but causally consistent history: `n`
/// entities take turns broadcasting; each broadcast's ACK vector reflects
/// some prefix of what its sender could have accepted by then.
fn history(n: usize, sends: &[(usize, u64)]) -> Vec<DataPdu> {
    // req[i][j]: what entity i has "accepted" from j so far (simulated
    // instantaneous delivery of a prefix — always a valid knowledge state).
    let mut req = vec![vec![1u64; n]; n];
    let mut seq = vec![1u64; n];
    let mut pdus = Vec::new();
    for &(sender, accept_mask) in sends {
        let sender = sender % n;
        // Before sending, the sender "accepts" everything already sent by
        // entities selected by the mask (a prefix of each's stream).
        for j in 0..n {
            if j != sender && (accept_mask >> j) & 1 == 1 {
                req[sender][j] = seq[j];
            }
        }
        let pdu = DataPdu {
            cid: 0,
            src: EntityId::new(sender as u32),
            seq: Seq::new(seq[sender]),
            ack: req[sender].iter().copied().map(Seq::new).collect(),
            buf: 0,
            data: Bytes::new(),
        };
        seq[sender] += 1;
        req[sender][sender] = seq[sender];
        pdus.push(pdu);
    }
    pdus
}

fn arb_history() -> impl Strategy<Value = (usize, Vec<DataPdu>)> {
    (2usize..=4)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((0usize..n, any::<u64>()), 1..24),
            )
        })
        .prop_map(|(n, sends)| (n, history(n, &sends)))
}

/// Scrambles `pdus` into an arbitrary order, then repairs it into a valid
/// *linear extension* of the Theorem 4.1 relation — the only insertion
/// orders the protocol can produce (Proposition 4.3: pre-acknowledgment
/// respects `⇒`). Within that constraint the scramble is preserved.
fn protocol_valid_order(pdus: &[DataPdu], rot: usize) -> Vec<DataPdu> {
    let mut pool: Vec<DataPdu> = pdus.to_vec();
    let len = pool.len().max(1);
    pool.rotate_left(rot % len);
    let mut out: Vec<DataPdu> = Vec::with_capacity(pool.len());
    while !pool.is_empty() {
        // Take the first pool element whose ⇒-predecessors are all placed.
        let idx = pool
            .iter()
            .position(|cand| {
                let cm = cand.seq_meta();
                pool.iter().all(|other| {
                    std::ptr::eq(other, cand) || !causally_precedes(&other.seq_meta(), &cm)
                })
            })
            .expect("⇒ is acyclic on valid histories");
        out.push(pool.remove(idx));
    }
    out
}

proptest! {
    #[test]
    fn cpi_preserves_causality_for_protocol_valid_arrival_orders(
        (n, pdus) in arb_history(),
        order in any::<prop::sample::Index>(),
    ) {
        let _ = n;
        let arrival = protocol_valid_order(&pdus, order.index(pdus.len().max(1)));
        let mut log = CausalLog::new();
        for pdu in arrival {
            log.insert(pdu);
        }
        prop_assert!(log.is_causality_preserved());
        prop_assert_eq!(log.len(), pdus.len());
    }

    #[test]
    fn cpi_dequeue_never_leaves_an_unsatisfied_predecessor(
        (_n, pdus) in arb_history(),
    ) {
        // After inserting everything, repeatedly dequeue the top: no
        // remaining element may causally precede an already-dequeued one.
        let mut log = CausalLog::new();
        for pdu in pdus {
            log.insert(pdu);
        }
        let mut dequeued: Vec<DataPdu> = Vec::new();
        while let Some(p) = log.dequeue() {
            for rest in log.iter() {
                prop_assert!(
                    !causally_precedes(&rest.seq_meta(), &p.seq_meta()),
                    "dequeued {} {} before its cause {} {}",
                    p.src, p.seq, rest.src, rest.seq,
                );
            }
            dequeued.push(p);
        }
    }
}

// ---------------------------------------------------------------------
// Knowledge matrix invariants
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn matrix_folds_are_monotone_and_commutative(
        n in 2usize..=5,
        vectors in prop::collection::vec(
            (0u32..5, prop::collection::vec(1u64..100, 5)),
            1..20,
        ),
    ) {
        let mut forward = KnowledgeMatrix::new(n);
        let mut backward = KnowledgeMatrix::new(n);
        let prepared: Vec<(EntityId, Vec<Seq>)> = vectors
            .iter()
            .map(|(obs, v)| {
                (
                    EntityId::new(obs % n as u32),
                    v[..n].iter().copied().map(Seq::new).collect(),
                )
            })
            .collect();
        for (obs, v) in &prepared {
            forward.fold_column(*obs, v);
        }
        for (obs, v) in prepared.iter().rev() {
            backward.fold_column(*obs, v);
        }
        // Max-folds commute: any application order gives the same matrix.
        prop_assert_eq!(&forward, &backward);
        // Row minima never exceed any single observer's entry.
        for k in 0..n {
            let source = EntityId::new(k as u32);
            for j in 0..n {
                prop_assert!(
                    forward.row_min(source) <= forward.get(source, EntityId::new(j as u32))
                );
            }
        }
    }

    #[test]
    fn matrix_row_min_is_monotone_over_time(
        n in 2usize..=4,
        updates in prop::collection::vec((0u32..4, 0u32..4, 1u64..50), 1..30),
    ) {
        let mut m = KnowledgeMatrix::new(n);
        let mut last_mins = m.row_mins().to_vec();
        for (src, obs, val) in updates {
            m.raise(
                EntityId::new(src % n as u32),
                EntityId::new(obs % n as u32),
                Seq::new(val),
            );
            let mins = m.row_mins().to_vec();
            for (new, old) in mins.iter().zip(&last_mins) {
                prop_assert!(new >= old, "row minimum regressed");
            }
            last_mins = mins;
        }
    }

    /// The matrix invariant: `row_min` and the `row_mins` slice must equal
    /// a fresh recompute over the cells after every mutation, for
    /// arbitrary interleavings of `raise`, `fold_column`, `raise_row` and
    /// `raise_rows`.
    #[test]
    fn cached_row_minima_match_fresh_recompute(
        n in 2usize..=6,
        ops in prop::collection::vec(
            (0u8..4, 0u32..6, 0u32..6, prop::collection::vec(1u64..60, 6)),
            1..40,
        ),
    ) {
        let fresh_min = |m: &KnowledgeMatrix, k: usize| -> Seq {
            (0..n)
                .map(|j| m.get(EntityId::new(k as u32), EntityId::new(j as u32)))
                .min()
                .expect("n >= 2")
        };
        let mut m = KnowledgeMatrix::new(n);
        for (kind, src, obs, vals) in ops {
            let source = EntityId::new(src % n as u32);
            match kind {
                0 => {
                    m.raise(source, EntityId::new(obs % n as u32), Seq::new(vals[0]));
                }
                1 => {
                    let column: Vec<Seq> =
                        vals[..n].iter().copied().map(Seq::new).collect();
                    m.fold_column(EntityId::new(obs % n as u32), &column);
                }
                2 => {
                    m.raise_row(source, Seq::new(vals[0]));
                }
                _ => {
                    let frontier: Vec<Seq> =
                        vals[..n].iter().copied().map(Seq::new).collect();
                    m.raise_rows(&frontier);
                }
            }
            for k in 0..n {
                let expect = fresh_min(&m, k);
                prop_assert_eq!(
                    m.row_min(EntityId::new(k as u32)),
                    expect,
                    "min of row {} diverged from cells",
                    k
                );
                prop_assert_eq!(m.row_mins()[k], expect);
            }
        }
    }
}

// ---------------------------------------------------------------------
// CausalLog (VecDeque-backed) vs. the original Vec-backed reference
// ---------------------------------------------------------------------

/// The pre-ring-buffer `CausalLog`, verbatim: `Vec` storage, `remove(0)`
/// dequeue. Kept here as the observational-equivalence oracle.
#[derive(Default)]
struct VecCausalLog {
    pdus: Vec<DataPdu>,
    metas: Vec<causal_order::SeqMeta>,
}

impl VecCausalLog {
    fn insert(&mut self, pdu: DataPdu) -> usize {
        let meta = pdu.seq_meta();
        let pos = self
            .metas
            .iter()
            .position(|q| causally_precedes(&meta, q))
            .unwrap_or(self.pdus.len());
        self.pdus.insert(pos, pdu);
        self.metas.insert(pos, meta);
        pos
    }

    fn dequeue(&mut self) -> Option<DataPdu> {
        if self.pdus.is_empty() {
            None
        } else {
            self.metas.remove(0);
            Some(self.pdus.remove(0))
        }
    }
}

proptest! {
    /// The VecDeque-backed log is observationally equivalent to the old
    /// Vec-backed implementation: same insertion positions, same dequeue
    /// order, under arbitrary interleavings of inserts and dequeues drawn
    /// from valid protocol histories.
    #[test]
    fn ring_buffer_causal_log_matches_vec_reference(
        (_n, pdus) in arb_history(),
        order in any::<prop::sample::Index>(),
        deq_before in prop::collection::vec(any::<bool>(), 24),
    ) {
        let arrival = protocol_valid_order(&pdus, order.index(pdus.len().max(1)));
        let mut ring = CausalLog::new();
        let mut reference = VecCausalLog::default();
        for (i, pdu) in arrival.into_iter().enumerate() {
            if deq_before[i % deq_before.len()] {
                prop_assert_eq!(ring.dequeue(), reference.dequeue());
            }
            let ring_pos = ring.insert(pdu.clone());
            let ref_pos = reference.insert(pdu);
            prop_assert_eq!(ring_pos, ref_pos, "insertion position diverged");
            prop_assert_eq!(ring.len(), reference.pdus.len());
        }
        loop {
            let (a, b) = (ring.dequeue(), reference.dequeue());
            prop_assert_eq!(&a, &b, "dequeue order diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Flow condition
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn flow_limit_never_exceeds_window_or_buffer_share(
        window in 1u64..1000,
        min_buf in 0u32..100_000,
        h in 1u32..64,
        n in 2usize..64,
    ) {
        let limit = flow_limit(window, min_buf, h, n);
        prop_assert!(limit <= window);
        prop_assert!(limit <= u64::from(min_buf) / (u64::from(h) * 2 * n as u64));
    }

    #[test]
    fn flow_limit_monotone_in_buffer(
        window in 1u64..100,
        h in 1u32..8,
        n in 2usize..16,
        buf_lo in 0u32..10_000,
        extra in 0u32..10_000,
    ) {
        let lo = flow_limit(window, buf_lo, h, n);
        let hi = flow_limit(window, buf_lo + extra, h, n);
        prop_assert!(hi >= lo, "more buffer must never shrink the window");
    }
}
