//! Causality primitives for the CO-protocol reproduction.
//!
//! This crate is the bottom substrate of the workspace. It provides:
//!
//! * [`EntityId`] and [`Seq`] — the identifiers the whole system is built on
//!   (a *cluster* `C = ⟨E_1, …, E_n⟩` of system entities, each numbering its
//!   own PDUs with per-source sequence numbers starting at 1, exactly as in
//!   Example 4.1 of the paper);
//! * [`VectorClock`] — the "virtual clock" machinery the paper contrasts
//!   against (ISIS CBCAST orders PDUs with vector clocks; the CO protocol
//!   orders them with sequence numbers alone);
//! * [`EventGraph`] — an explicit happened-before graph used as a *test
//!   oracle*: integration tests replay a trace of send/receive events and ask
//!   the graph whether Lamport's `→` relation holds between any two events;
//! * [`properties`] — executable versions of the paper's §2.2 receipt-log
//!   definitions (*information-preserved*, *local-order-preserved*,
//!   *causality-preserved*), used to check that a protocol run actually
//!   provided the CO service;
//! * [`seq_causality`] — Theorem 4.1's sequence-number causality test, shared
//!   by the protocol engine and the oracles.
//!
//! # Example
//!
//! ```
//! use causal_order::{EntityId, Seq, VectorClock};
//!
//! let a = EntityId::new(0);
//! let mut vc = VectorClock::new(3);
//! vc.tick(a);
//! assert_eq!(vc.get(a), 1);
//! assert_eq!(Seq::FIRST.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entity_id;
mod event_graph;
pub mod properties;
pub mod seq_causality;
mod vector_clock;

pub use entity_id::{ClusterSpec, EntityId, EntityIdError};
pub use event_graph::{Event, EventGraph, EventId, MsgId};
pub use seq_causality::{causally_precedes, CausalRelation, SeqMeta};
pub use vector_clock::{ClockOrdering, VectorClock, VectorClockError};

/// A per-source PDU sequence number.
///
/// The paper numbers each entity's PDUs `1, 2, 3, …` (`SEQ` is "the sequence
/// number of a PDU which `E_i` expects to broadcast next" and Example 4.1
/// starts every `REQ` at 1). `Seq` is a newtype over `u64` so sequence
/// numbers cannot be confused with buffer sizes, entity indices, etc.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Seq(u64);

impl Seq {
    /// The first sequence number an entity assigns (the paper starts at 1).
    pub const FIRST: Seq = Seq(1);

    /// Creates a sequence number from a raw value.
    ///
    /// `0` is permitted and means "before the first PDU"; it is what `ACK`
    /// entries compare against before anything has been accepted.
    pub const fn new(raw: u64) -> Self {
        Seq(raw)
    }

    /// Returns the raw value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The sequence number after this one.
    #[must_use]
    pub const fn next(self) -> Seq {
        Seq(self.0 + 1)
    }

    /// The sequence number before this one, saturating at zero.
    #[must_use]
    pub const fn prev(self) -> Seq {
        Seq(self.0.saturating_sub(1))
    }

    /// Iterates over the half-open range `[self, end)`.
    pub fn range_to(self, end: Seq) -> impl Iterator<Item = Seq> {
        (self.0..end.0).map(Seq)
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for Seq {
    fn from(raw: u64) -> Self {
        Seq(raw)
    }
}

impl From<Seq> for u64 {
    fn from(seq: Seq) -> Self {
        seq.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_first_is_one() {
        assert_eq!(Seq::FIRST.get(), 1);
    }

    #[test]
    fn seq_next_increments() {
        assert_eq!(Seq::new(4).next(), Seq::new(5));
    }

    #[test]
    fn seq_prev_saturates() {
        assert_eq!(Seq::new(0).prev(), Seq::new(0));
        assert_eq!(Seq::new(3).prev(), Seq::new(2));
    }

    #[test]
    fn seq_range_to_is_half_open() {
        let range: Vec<Seq> = Seq::new(2).range_to(Seq::new(5)).collect();
        assert_eq!(range, vec![Seq::new(2), Seq::new(3), Seq::new(4)]);
    }

    #[test]
    fn seq_range_to_empty_when_end_not_after_start() {
        assert_eq!(Seq::new(5).range_to(Seq::new(5)).count(), 0);
        assert_eq!(Seq::new(5).range_to(Seq::new(3)).count(), 0);
    }

    #[test]
    fn seq_display() {
        assert_eq!(Seq::new(7).to_string(), "#7");
    }

    #[test]
    fn seq_conversions_roundtrip() {
        let s = Seq::from(42u64);
        assert_eq!(u64::from(s), 42);
    }

    #[test]
    fn seq_ordering_matches_raw() {
        assert!(Seq::new(1) < Seq::new(2));
        assert!(Seq::new(2) <= Seq::new(2));
    }
}
