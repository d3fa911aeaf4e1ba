//! §5 claim: "Since each PDU carries n receipt confirmations in the ACK
//! field …, the length of PDU is O(n)."
//!
//! We encode each PDU kind for growing cluster sizes and report exact wire
//! sizes plus the per-entity increment. Wire v3 writes every vector as a
//! base and fixed-width offsets, so the constant depends on how far apart
//! a vector's entries are: each kind is sized at a *steady* spread (under
//! 256 — one byte per entity per vector) and at the *worst* (≥ 2³² — eight,
//! what v1 always paid). An `AckOnly`'s `packed` and `acked` go out as
//! their lags behind `ack`, so it is sized by what is in flight as well:
//! *caught up* (no lag: `ack` alone grows with n) and *lagging by ≤ 15*
//! (half a byte per entity for each of the two) beside steady (a lag of
//! up to 255) and worst. Either way the growth is exactly linear in n.

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

impl Spread {
    /// How far the one frontier that is ahead is ahead.
    fn ahead(self) -> u64 {
        match self {
            Spread::Steady => 200,
            Spread::Worst => 1 << 32,
        }
    }
}

/// A vector of `n` frontiers at sequence number 1000, the last one ahead
/// of the rest by `ahead`.
fn vector(n: usize, ahead: u64) -> Vec<Seq> {
    let mut v = vec![Seq::new(1000); n];
    if let Some(last) = v.last_mut() {
        *last = Seq::new(1000 + ahead);
    }
    v
}

/// How far an `AckOnly`'s `packed` and `acked` trail its `ack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lag {
    /// Nowhere: everything accepted is acknowledged. No offset bytes.
    CaughtUp,
    /// By at most 15 per source (what a flow window of 16 allows): half a
    /// byte per entity.
    Window,
    /// By up to 255 behind one source: one-byte offsets.
    Steady,
    /// By 2³² behind one source: eight-byte offsets.
    Worst,
}

impl Lag {
    /// The lag behind the one source that is ahead; none behind the rest.
    fn behind_last(self) -> u64 {
        match self {
            Lag::CaughtUp => 0,
            Lag::Window => 15,
            Lag::Steady => Spread::Steady.ahead(),
            Lag::Worst => Spread::Worst.ahead(),
        }
    }
}

/// Builds a representative data PDU for a cluster of `n`.
pub fn sample_data(n: usize, payload: usize, spread: Spread) -> Pdu {
    Pdu::Data(DataPdu {
        cid: 1,
        src: EntityId::new(0),
        seq: Seq::new(100),
        ack: vector(n, spread.ahead()),
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
        ack: vector(n, spread.ahead()),
        buf: 4096,
    })
}

/// Builds a representative confirmation-only PDU for a cluster of `n`:
/// `ack` at the spread that goes with `lag`, `packed` and `acked` behind
/// it by `lag`.
pub fn sample_ack_only(n: usize, lag: Lag) -> Pdu {
    let spread = match lag {
        Lag::Worst => Spread::Worst,
        _ => Spread::Steady,
    };
    let ack = vector(n, spread.ahead());
    let behind = vector(n, spread.ahead() - lag.behind_last());
    Pdu::AckOnly(AckOnlyPdu {
        cid: 1,
        src: EntityId::new(0),
        ack,
        packed: behind.clone(),
        acked: behind,
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
        "PDU wire size [B] vs n at steady / worst vector spread, ACKONLY also by how far packed / acked trail ack (paper: O(n) from the ACK field)",
        &[
            "n",
            "DATA+64B",
            "DATA worst",
            "RET",
            "RET worst",
            "ACKONLY caught up",
            "ACKONLY lag <= 15",
            "ACKONLY steady",
            "ACKONLY worst",
            "B/entity (DATA)",
            "B/entity worst",
        ],
    );
    let mut prev: Option<(usize, [usize; 2])> = None;
    for &n in &sizes {
        let data = encoded_lens(|spread| sample_data(n, 64, spread));
        let ret = encoded_lens(|spread| sample_ret(n, spread));
        let ack = [Lag::CaughtUp, Lag::Window, Lag::Steady, Lag::Worst]
            .map(|lag| sample_ack_only(n, lag).encoded_len());
        let per_entity = |i: usize| match prev {
            None => "-".to_string(),
            Some((pn, pd)) => format!("{:.1}", (data[i] - pd[i]) as f64 / (n - pn) as f64),
        };
        let mut row = vec![n.to_string()];
        row.extend([data, ret].iter().flatten().map(usize::to_string));
        row.extend(ack.iter().map(usize::to_string));
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
    fn ack_only_grows_by_what_is_in_flight_per_entity() {
        // AckOnly carries three vectors: `ack`, and `packed` / `acked` as
        // lags behind it. Per two entities: two bytes of `ack` alone when
        // caught up, one more for each lag vector at half a byte, two
        // more at a byte; 16 each at the worst.
        let per_pair = [
            (Lag::CaughtUp, 2),
            (Lag::Window, 2 + 2),
            (Lag::Steady, 2 + 4),
            (Lag::Worst, 16 + 32),
        ];
        for (lag, per_pair) in per_pair {
            let a2 = sample_ack_only(2, lag).encoded_len();
            let a4 = sample_ack_only(4, lag).encoded_len();
            let a100 = sample_ack_only(100, lag).encoded_len();
            assert_eq!(a4 - a2, per_pair, "{lag:?}");
            assert_eq!(a100 - a2, 49 * per_pair, "{lag:?}");
        }
    }

    #[test]
    fn table_has_expected_columns() {
        let tables = run(true);
        assert_eq!(tables[0].len(), 2);
        assert_eq!(tables[0].cell(0, 0), "2");
        assert_eq!(tables[0].cell(0, 5), "51", "ACKONLY at n = 2, caught up");
        assert_eq!(tables[0].cell(0, 6), "53", "ACKONLY at n = 2, lag <= 15");
        assert_eq!(tables[0].cell(0, 7), "55", "ACKONLY at n = 2, steady");
        assert_eq!(tables[0].cell(0, 8), "97", "ACKONLY at n = 2, worst");
    }
}
