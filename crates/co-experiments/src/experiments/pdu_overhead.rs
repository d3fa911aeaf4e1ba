//! §5 claim: "Since each PDU carries n receipt confirmations in the ACK
//! field …, the length of PDU is O(n)."
//!
//! We encode each PDU kind for growing cluster sizes and report exact wire
//! sizes plus the per-entity increment. Wire v2 writes every vector as a
//! base and fixed-width offsets, so the constant depends on how far apart
//! a vector's entries are: each kind is sized at a *steady* spread (under
//! 256 — one byte per entity per vector) and at the *worst* (≥ 2³² — eight,
//! what v1 always paid). Either way the growth is exactly linear in n.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_wire::{AckOnlyPdu, DataPdu, Pdu, RetPdu};

use crate::table::Table;

/// How far apart the entries of a sampled vector are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spread {
    /// Every frontier within 255 of the lowest: one-byte offsets.
    Steady,
    /// One frontier 2³² ahead of the rest: eight-byte offsets.
    Worst,
}

/// A vector of `n` frontiers around sequence number 100.
fn vector(n: usize, spread: Spread) -> Vec<Seq> {
    let mut v = vec![Seq::new(100); n];
    if let (Spread::Worst, Some(last)) = (spread, v.last_mut()) {
        *last = Seq::new(100 + (1 << 32));
    }
    v
}

/// Builds a representative data PDU for a cluster of `n`.
pub fn sample_data(n: usize, payload: usize, spread: Spread) -> Pdu {
    Pdu::Data(DataPdu {
        cid: 1,
        src: EntityId::new(0),
        seq: Seq::new(100),
        ack: vector(n, spread),
        buf: 4096,
        data: Bytes::from(vec![0u8; payload]),
    })
}

/// Builds a representative RET PDU for a cluster of `n`.
pub fn sample_ret(n: usize, spread: Spread) -> Pdu {
    Pdu::Ret(RetPdu {
        cid: 1,
        src: EntityId::new(0),
        lsrc: EntityId::new(1),
        lseq: Seq::new(100),
        ack: vector(n, spread),
        buf: 4096,
    })
}

/// Builds a representative confirmation-only PDU for a cluster of `n`.
pub fn sample_ack_only(n: usize, spread: Spread) -> Pdu {
    Pdu::AckOnly(AckOnlyPdu {
        cid: 1,
        src: EntityId::new(0),
        ack: vector(n, spread),
        packed: vector(n, spread),
        acked: vector(n, spread),
        buf: 4096,
    })
}

/// Encoded length at `[steady, worst]` spread.
fn encoded_lens(sample: impl Fn(Spread) -> Pdu) -> [usize; 2] {
    [Spread::Steady, Spread::Worst].map(|spread| sample(spread).encoded_len())
}

/// Runs the size sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: Vec<usize> = if quick {
        vec![2, 8]
    } else {
        vec![2, 3, 4, 8, 16, 32, 64, 128, 256]
    };
    let mut table = Table::new(
        "PDU wire size [B] vs n at steady / worst vector spread (paper: O(n) from the ACK field)",
        &[
            "n",
            "DATA+64B",
            "DATA worst",
            "RET",
            "RET worst",
            "ACKONLY",
            "ACKONLY worst",
            "B/entity (DATA)",
            "B/entity worst",
        ],
    );
    let mut prev: Option<(usize, [usize; 2])> = None;
    for &n in &sizes {
        let data = encoded_lens(|spread| sample_data(n, 64, spread));
        let ret = encoded_lens(|spread| sample_ret(n, spread));
        let ack = encoded_lens(|spread| sample_ack_only(n, spread));
        let per_entity = |i: usize| match prev {
            None => "-".to_string(),
            Some((pn, pd)) => format!("{:.1}", (data[i] - pd[i]) as f64 / (n - pn) as f64),
        };
        let mut row = vec![n.to_string()];
        row.extend([data, ret, ack].iter().flatten().map(usize::to_string));
        row.extend([per_entity(0), per_entity(1)]);
        table.push(row);
        prev = Some((n, data));
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_is_exactly_linear() {
        // One byte per extra entity per vector at a steady spread, eight
        // (one whole u64) at the worst; no other term depends on n.
        for (spread, per_entity) in [(Spread::Steady, 1), (Spread::Worst, 8)] {
            let d2 = sample_data(2, 64, spread).encoded_len();
            let d3 = sample_data(3, 64, spread).encoded_len();
            let d100 = sample_data(100, 64, spread).encoded_len();
            assert_eq!(d3 - d2, per_entity, "{spread:?}");
            assert_eq!(d100 - d2, 98 * per_entity, "{spread:?}");
        }
    }

    #[test]
    fn ack_only_grows_three_vectors_per_entity() {
        // AckOnly carries three vectors (ack + packed + acked).
        for (spread, per_entity) in [(Spread::Steady, 3), (Spread::Worst, 24)] {
            let a2 = sample_ack_only(2, spread).encoded_len();
            let a3 = sample_ack_only(3, spread).encoded_len();
            let a100 = sample_ack_only(100, spread).encoded_len();
            assert_eq!(a3 - a2, per_entity, "{spread:?}");
            assert_eq!(a100 - a2, 98 * per_entity, "{spread:?}");
        }
    }

    #[test]
    fn table_has_expected_columns() {
        let tables = run(true);
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[0].cell(0, 0), "2");
        assert_eq!(tables[0].cell(0, 5), "55", "ACKONLY at n = 2, steady");
        assert_eq!(tables[0].cell(0, 6), "97", "ACKONLY at n = 2, worst");
    }
}
