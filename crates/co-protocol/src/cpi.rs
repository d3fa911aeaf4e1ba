//! The pre-acknowledged receipt sublog `PRL` and the **CPI operation**
//! (causality-preserved insertion, §4.4).
//!
//! `PRL_i` holds pre-acknowledged PDUs *in causality-precedence order*. The
//! paper's `L < p` operation inserts `p` while keeping `L`
//! causality-preserved, deciding `p ⇒ q` purely from sequence numbers
//! (Theorem 4.1):
//!
//! * (2-1) `p` precedes everything → insert at the top;
//! * (2-2)/(2-3) something precedes `p`, or `p` is coincident with
//!   everything → append;
//! * (3) otherwise insert between `q1 ⇒ p ⇒ q2`.
//!
//! All four cases collapse to: *insert `p` after the last element already
//! known to precede `p`, immediately before the first element past that
//! point that `p` causally precedes; append if there is none.* When the
//! `⇒`-evidence among the elements is consistent (a partial order whose
//! restriction to the log is transitively closed), the predecessor bound
//! is redundant and this is exactly the paper's "before the first causal
//! successor" rule: a successor of `p` sitting before a predecessor `r`
//! of `p` would need `r ⇒ q` by transitivity, contradicting the log being
//! causality-preserved with `q` in front of `r`.
//!
//! **Why the predecessor bound exists.** The sequence-number relation of
//! Theorem 4.1 captures *direct* acceptance dependencies and is not
//! transitively closed: over three senders, `A ∥ B`, `B ⇒ C`, `C ⇒ A` can
//! hold simultaneously (the `⇒`-evidence for `B ⇒ A` is not carried by
//! any field), and a log already containing `⟨A B⟩` then admits *no*
//! position for `C` that satisfies both remaining edges — a limitation
//! inherent to the paper's data structures, not to this implementation.
//! Such triads really occur: one PACK round can pre-acknowledge several
//! sources at once (a single `AckOnly` fold, or a batched drain, can move
//! many `minAL` rows together), so `A` and `B` can enter the `PRL` in
//! earlier rounds than `C`. The naive successor scan would then insert
//! `C` *in front of its own predecessor* `B` — and a later same-source
//! `B' > B` with `B' ⇒ C` evidence would land before `B`, breaking FIFO
//! delivery (found by `co-check` schedule exploration over batched
//! drains; regressions: `cpi-triad-fifo-inversion.json` in
//! `tests/regressions/fixed/`, and `batch_fifo_triad` below).
//!
//! The predecessor bound resolves every triad in favor of the edges that
//! can carry application-level causality: elements already known to
//! precede `p` stay in front of it, unconditionally — in particular
//! same-source sequence order (FIFO) always holds. What it sacrifices is
//! `p`'s successor-evidence toward elements *ahead of* `p`'s last
//! predecessor — edges that in a consistent execution cannot be
//! delivery-real for that log order (a delivery-based dependency `p ⇒ q`
//! means `q`'s sender delivered `p` before sending `q`, which forces the
//! transitive evidence the triad lacks). The guarantee that matters to
//! applications — deliveries respect happened-before over *application*
//! events, the same level ISIS CBCAST provides — only requires ordering
//! pairs whose dependency went through a delivery.
//!
//! The end-to-end oracle tests (`tests/co_service_properties.rs`,
//! `tests/proptest_random_runs.rs`) verify delivery-level causality on
//! full runs, and `co-check`'s ground-truth happened-before oracles
//! verify it across adversarial fault schedules on both the per-PDU and
//! batched acceptance paths; the property tests in
//! `tests/proptest_protocol.rs` verify the insertion rule over
//! ⇒-respecting arrival orders and Example 4.1's batch.

use co_wire::DataPdu;
use std::collections::VecDeque;

/// Theorem 4.1's `p ⇒ q`, read off the PDUs' own headers (the same test as
/// [`causal_order::causally_precedes`], without cloning `ACK` vectors into
/// [`causal_order::SeqMeta`] views).
fn precedes(p: &DataPdu, q: &DataPdu) -> bool {
    if p.src == q.src {
        p.seq < q.seq
    } else {
        p.seq < q.ack_for(p.src)
    }
}

/// A causally ordered log of pre-acknowledged PDUs.
///
/// Backed by a ring buffer so the two operations the delivery path performs
/// per PDU are cheap: [`dequeue`](CausalLog::dequeue) is O(1) (the old
/// `Vec::remove(0)` memmoved the whole log per delivery), and
/// [`insert`](CausalLog::insert) shifts only from the insertion point —
/// which the CPI rule places at or near the tail for in-order traffic —
/// instead of everything behind it.
#[derive(Debug, Clone, Default)]
pub struct CausalLog {
    pdus: VecDeque<DataPdu>,
}

impl CausalLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        CausalLog::default()
    }

    /// The CPI operation `L < p`: inserts `pdu` keeping the log
    /// causality-preserved. Returns the insertion index.
    ///
    /// Implements the predecessor-dominant rule from the module docs:
    /// `pdu` goes after every element already known to precede it, then
    /// before the first causal successor past that point.
    pub fn insert(&mut self, pdu: DataPdu) -> usize {
        let start = self
            .pdus
            .iter()
            .rposition(|q| precedes(q, &pdu))
            .map_or(0, |last_pred| last_pred + 1);
        let pos = self
            .pdus
            .iter()
            .skip(start)
            .position(|q| precedes(&pdu, q))
            .map_or(self.pdus.len(), |offset| start + offset);
        self.pdus.insert(pos, pdu);
        pos
    }

    /// The oldest (top) element.
    pub fn top(&self) -> Option<&DataPdu> {
        self.pdus.front()
    }

    /// Removes and returns the top element. O(1).
    pub fn dequeue(&mut self) -> Option<DataPdu> {
        self.pdus.pop_front()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.pdus.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.pdus.is_empty()
    }

    /// Iterates top → last.
    pub fn iter(&self) -> impl Iterator<Item = &DataPdu> {
        self.pdus.iter()
    }

    /// Checks the causality-preservation invariant (test/debug helper):
    /// no element causally precedes an earlier one.
    pub fn is_causality_preserved(&self) -> bool {
        for (i, later) in self.pdus.iter().enumerate() {
            for earlier in self.pdus.iter().take(i) {
                if precedes(later, earlier) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use causal_order::{EntityId, Seq};

    fn pdu(src: u32, seq: u64, ack: &[u64]) -> DataPdu {
        DataPdu {
            cid: 0,
            src: EntityId::new(src),
            seq: Seq::new(seq),
            ack: ack.iter().copied().map(Seq::new).collect(),
            buf: 0,
            data: Bytes::new(),
        }
    }

    /// Example 4.1's PDUs (Table 1).
    fn a() -> DataPdu {
        pdu(0, 1, &[1, 1, 1])
    }
    fn b() -> DataPdu {
        pdu(2, 1, &[2, 1, 1])
    }
    fn c() -> DataPdu {
        pdu(0, 2, &[2, 1, 1])
    }
    fn d() -> DataPdu {
        pdu(1, 1, &[3, 1, 2])
    }
    fn e_() -> DataPdu {
        pdu(0, 3, &[3, 2, 2])
    }

    fn order(log: &CausalLog) -> Vec<(u32, u64)> {
        log.iter().map(|p| (p.src.raw(), p.seq.get())).collect()
    }

    #[test]
    fn precedes_is_theorem_4_1() {
        let pdus = [a(), b(), c(), d(), e_()];
        for p in &pdus {
            for q in &pdus {
                assert_eq!(
                    precedes(p, q),
                    causal_order::causally_precedes(&p.seq_meta(), &q.seq_meta()),
                    "{p:?} vs {q:?}"
                );
            }
        }
    }

    #[test]
    fn empty_log_append() {
        let mut log = CausalLog::new();
        assert_eq!(log.insert(a()), 0);
        assert_eq!(log.len(), 1);
        assert!(log.is_causality_preserved());
    }

    #[test]
    fn same_source_appends_in_seq_order() {
        let mut log = CausalLog::new();
        log.insert(a());
        log.insert(c());
        log.insert(e_());
        assert_eq!(order(&log), vec![(0, 1), (0, 2), (0, 3)]);
        assert!(log.is_causality_preserved());
    }

    #[test]
    fn example_4_1_insertion_sequence() {
        // Paper: PRL becomes ⟨a c e], then d is inserted between c and e,
        // then b between c and d → ⟨a c b d e].
        let mut log = CausalLog::new();
        log.insert(a());
        log.insert(c());
        log.insert(e_());
        let pos_d = log.insert(d());
        assert_eq!(pos_d, 2, "d goes between c and e");
        assert_eq!(order(&log), vec![(0, 1), (0, 2), (1, 1), (0, 3)]);
        let pos_b = log.insert(b());
        assert_eq!(pos_b, 2, "b goes between c and d");
        assert_eq!(
            order(&log),
            vec![(0, 1), (0, 2), (2, 1), (1, 1), (0, 3)],
            "final PRL is ⟨a c b d e]"
        );
        assert!(log.is_causality_preserved());
    }

    #[test]
    fn predecessor_inserted_late_lands_before_successor() {
        // Insert d first, then a (a ⇒ d via d.ACK_1 = 3 > 1): a must end up
        // before d even though it arrives later.
        let mut log = CausalLog::new();
        log.insert(d());
        let pos = log.insert(a());
        assert_eq!(pos, 0);
        assert_eq!(order(&log), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn coincident_appends_at_tail() {
        // b and c are causality-coincident (paper: c ∥ b).
        let mut log = CausalLog::new();
        log.insert(c());
        let pos = log.insert(b());
        assert_eq!(pos, 1, "rule (2-3): coincident appends at the tail");
    }

    #[test]
    fn dequeue_is_top_first() {
        let mut log = CausalLog::new();
        log.insert(a());
        log.insert(c());
        assert_eq!(log.dequeue().unwrap().seq, Seq::new(1));
        assert_eq!(log.top().unwrap().seq, Seq::new(2));
        assert_eq!(log.dequeue().unwrap().seq, Seq::new(2));
        assert!(log.dequeue().is_none());
        assert!(log.is_empty());
    }

    #[test]
    fn invariant_detects_corruption() {
        // Build a deliberately wrong order by inserting via a fresh log and
        // checking the invariant catches a ⇒ violation: e before a.
        let mut log = CausalLog::new();
        log.insert(e_());
        // Force-check: inserting a via CPI repairs the order...
        log.insert(a());
        assert!(log.is_causality_preserved());
        assert_eq!(order(&log)[0], (0, 1));
    }

    /// The inconsistent triad from the module docs, in the shape
    /// `co-check` found it over batched drains (n = 5, entities E1..E5):
    /// the log holds `⟨A B⟩` with `A = E4#5 ∥ B = E1#2`; then `C = E5#3`
    /// arrives carrying `B ⇒ C` and `C ⇒ A` — no position satisfies both
    /// edges. The predecessor bound must keep `C` behind `B`, so that the
    /// same-source follow-up `B' = E1#3` (with `B' ⇒ C` evidence) cannot
    /// be pulled in front of `B` and break FIFO delivery.
    #[test]
    fn batch_fifo_triad() {
        let a = pdu(3, 5, &[1, 1, 1, 6, 4]); // accepted E5#1..3, not E1#2
        let b = pdu(0, 2, &[3, 1, 1, 1, 1]); // predates A's source entirely
        let c = pdu(4, 3, &[4, 1, 1, 1, 4]); // accepted E1#1..3 → B ⇒ C
        let b2 = pdu(0, 3, &[4, 1, 1, 1, 1]);

        let mut log = CausalLog::new();
        assert_eq!(log.insert(a), 0);
        assert_eq!(log.insert(b), 1, "A ∥ B appends");
        // Naive first-successor placement would put C at 0 (before its
        // own predecessor B, via C ⇒ A); the predecessor bound forces it
        // after B, sacrificing only the C ⇒ A edge the triad cannot keep.
        assert_eq!(log.insert(c), 2, "C stays behind its predecessor B");
        assert_eq!(
            log.insert(b2),
            2,
            "same-source B' lands between B and its successor C"
        );
        assert_eq!(order(&log), vec![(3, 5), (0, 2), (0, 3), (4, 3)]);
        let positions: Vec<u64> = log
            .iter()
            .filter(|p| p.src.raw() == 0)
            .map(|p| p.seq.get())
            .collect();
        assert_eq!(positions, vec![2, 3], "FIFO preserved for E1");
    }

    #[test]
    fn random_insertion_orders_converge_to_causal_order() {
        // All 5! arrival permutations of Example 4.1's PDUs must yield a
        // causality-preserved log with a,c,e in positions respecting
        // a ⇒ c ⇒ e, c ⇒ d ⇒ e, a ⇒ b ⇒ d.
        let pdus = [a(), b(), c(), d(), e_()];
        let mut perms = Vec::new();
        permutations(&mut [0, 1, 2, 3, 4], 0, &mut perms);
        for perm in perms {
            let mut log = CausalLog::new();
            for &i in &perm {
                log.insert(pdus[i].clone());
            }
            assert!(
                log.is_causality_preserved(),
                "violated for arrival order {perm:?}: {:?}",
                order(&log)
            );
        }
    }

    fn permutations(items: &mut [usize; 5], k: usize, out: &mut Vec<[usize; 5]>) {
        if k == items.len() {
            out.push(*items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permutations(items, k + 1, out);
            items.swap(k, i);
        }
    }
}
