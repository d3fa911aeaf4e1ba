//! Per-stage latency tracking over the event stream.
//!
//! The tracker is in every production observer stack, so what it does per
//! delivered message is three probes of one [`InFlight`] table (insert at
//! acceptance, lookup at pre-acknowledgment, removal at delivery) and one
//! indexed load for the `RET` clock; nothing is allocated per PDU.

use std::collections::VecDeque;

use crate::event::ProtocolEvent;
use crate::histogram::Histogram;
use crate::inflight::InFlight;
use crate::observer::Observer;

/// Derives per-PDU stage latencies from one entity's event stream and
/// accumulates them into fixed-bucket [`Histogram`]s:
///
/// * **submit → accept**: from `Submitted` to the payload's `DataSent`
///   (an entity self-accepts at broadcast, so this is the flow-condition
///   queueing delay; ~0 when the window is open).
/// * **accept → pre-ack**: from `Accepted`/`DataSent` to `PreAcked` —
///   how long until every entity is known to have the PDU.
/// * **accept → deliver**: from `Accepted`/`DataSent` to `Delivered` —
///   the full buffering latency until the ACK stage hands the message to
///   the application (in this engine the ACK transition and delivery
///   coincide, so this is also accept → ack).
/// * **RET round-trip**: from the first `RetSent` for a source to the
///   next PDU accepted from it — how long gap repair takes.
///
/// All state is bounded by the number of in-flight PDUs (entries are
/// removed at delivery), matching the engine's own O(n) buffer claim.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    submit_to_accept: Histogram,
    accept_to_preack: Histogram,
    accept_to_deliver: Histogram,
    ret_round_trip: Histogram,
    /// Admission timestamps of not-yet-sent submissions (FIFO — the
    /// engine's pending queue preserves order).
    submit_queue: VecDeque<u64>,
    /// Acceptance timestamp per in-flight PDU.
    accept_ts: InFlight<u64>,
    /// Earliest outstanding `RET` timestamp, indexed by source; grown by
    /// the first `RetSent` that needs the slot, so it stays empty on a
    /// loss-free run.
    ret_ts: Vec<Option<u64>>,
}

impl LatencyTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        LatencyTracker::default()
    }

    /// Flow-condition queueing delay (submit → accept).
    pub fn submit_to_accept(&self) -> &Histogram {
        &self.submit_to_accept
    }

    /// Accept → pre-ack latency.
    pub fn accept_to_preack(&self) -> &Histogram {
        &self.accept_to_preack
    }

    /// Accept → deliver (= accept → ack) latency.
    pub fn accept_to_deliver(&self) -> &Histogram {
        &self.accept_to_deliver
    }

    /// RET round-trip latency.
    pub fn ret_round_trip(&self) -> &Histogram {
        &self.ret_round_trip
    }

    /// `(stage_name, histogram)` for every stage, in a fixed order.
    pub fn stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("submit_to_accept", &self.submit_to_accept),
            ("accept_to_preack", &self.accept_to_preack),
            ("accept_to_deliver", &self.accept_to_deliver),
            ("ret_round_trip", &self.ret_round_trip),
        ]
    }

    /// PDUs accepted here and not yet delivered — what the tracker holds
    /// a timestamp for.
    pub fn in_flight(&self) -> usize {
        self.accept_ts.len()
    }
}

impl Observer for LatencyTracker {
    fn on_event(&mut self, event: ProtocolEvent) {
        match event {
            ProtocolEvent::Submitted { now_us } => self.submit_queue.push_back(now_us),
            ProtocolEvent::DataSent { src, seq, now_us } => {
                if let Some(at) = self.submit_queue.pop_front() {
                    self.submit_to_accept.record(now_us.saturating_sub(at));
                }
                // Broadcast is self-acceptance: start the buffering clock
                // for the entity's own PDU too.
                self.accept_ts.insert(src, seq, now_us);
            }
            ProtocolEvent::Accepted {
                src, seq, now_us, ..
            } => {
                if let Some(at) = self.ret_ts.get_mut(src.index()).and_then(Option::take) {
                    self.ret_round_trip.record(now_us.saturating_sub(at));
                }
                self.accept_ts.insert(src, seq, now_us);
            }
            ProtocolEvent::PreAcked { src, seq, now_us } => {
                if let Some(&at) = self.accept_ts.get(src, seq) {
                    self.accept_to_preack.record(now_us.saturating_sub(at));
                }
            }
            ProtocolEvent::Delivered { src, seq, now_us } => {
                if let Some(at) = self.accept_ts.remove(src, seq) {
                    self.accept_to_deliver.record(now_us.saturating_sub(at));
                }
            }
            ProtocolEvent::RetSent { src, now_us, .. } => {
                if self.ret_ts.len() <= src.index() {
                    self.ret_ts.resize(src.index() + 1, None);
                }
                // Keep the *first* outstanding request: retries are part of
                // the same repair round-trip.
                self.ret_ts[src.index()].get_or_insert(now_us);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_order::{EntityId, Seq};

    fn id(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn tracks_accept_to_deliver() {
        let mut t = LatencyTracker::new();
        t.on_event(ProtocolEvent::Accepted {
            src: id(1),
            seq: Seq::new(1),
            from_reorder: false,
            now_us: 100,
        });
        t.on_event(ProtocolEvent::PreAcked {
            src: id(1),
            seq: Seq::new(1),
            now_us: 250,
        });
        t.on_event(ProtocolEvent::Delivered {
            src: id(1),
            seq: Seq::new(1),
            now_us: 400,
        });
        assert_eq!(t.accept_to_preack().count(), 1);
        assert_eq!(t.accept_to_preack().sum_us(), 150);
        assert_eq!(t.accept_to_deliver().count(), 1);
        assert_eq!(t.accept_to_deliver().sum_us(), 300);
        // Delivery removed the in-flight entry.
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn tracks_submit_queueing_delay() {
        let mut t = LatencyTracker::new();
        t.on_event(ProtocolEvent::Submitted { now_us: 10 });
        t.on_event(ProtocolEvent::Submitted { now_us: 20 });
        t.on_event(ProtocolEvent::DataSent {
            src: id(0),
            seq: Seq::new(1),
            now_us: 10,
        });
        t.on_event(ProtocolEvent::DataSent {
            src: id(0),
            seq: Seq::new(2),
            now_us: 90,
        });
        assert_eq!(t.submit_to_accept().count(), 2);
        assert_eq!(t.submit_to_accept().sum_us(), 70);
    }

    #[test]
    fn ret_round_trip_spans_first_request_to_repair() {
        let mut t = LatencyTracker::new();
        t.on_event(ProtocolEvent::RetSent {
            src: id(2),
            lseq: Seq::new(5),
            now_us: 1000,
        });
        // A retry must not reset the clock.
        t.on_event(ProtocolEvent::RetSent {
            src: id(2),
            lseq: Seq::new(5),
            now_us: 2000,
        });
        t.on_event(ProtocolEvent::Accepted {
            src: id(2),
            seq: Seq::new(3),
            from_reorder: false,
            now_us: 2500,
        });
        assert_eq!(t.ret_round_trip().count(), 1);
        assert_eq!(t.ret_round_trip().sum_us(), 1500);
    }

    #[test]
    fn own_pdus_measured_from_broadcast() {
        let mut t = LatencyTracker::new();
        t.on_event(ProtocolEvent::Submitted { now_us: 0 });
        t.on_event(ProtocolEvent::DataSent {
            src: id(0),
            seq: Seq::new(1),
            now_us: 0,
        });
        t.on_event(ProtocolEvent::Delivered {
            src: id(0),
            seq: Seq::new(1),
            now_us: 640,
        });
        assert_eq!(t.accept_to_deliver().count(), 1);
        assert_eq!(t.accept_to_deliver().sum_us(), 640);
    }
}
