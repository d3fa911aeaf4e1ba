//! Cross-node causal span reconstruction for the CO protocol.
//!
//! `co-observe` gives each entity a local event stream; the paper's
//! central objects — atomic receipt of one broadcast across *all*
//! destinations (§4.1 acceptance → pre-acknowledgment → acknowledgment)
//! and the Tap/Tco delays of Figure 8 — are inherently cluster-wide.
//! This crate stitches the merged per-node JSONL trace back into those
//! objects:
//!
//! * [`SpanSet::observe`] (folded over a whole trace: [`stitch`]) joins
//!   `data_sent` / `accepted` / `pre_acked` / `delivered` lines on
//!   `(source, seq)` into one [`BroadcastSpan`] per PDU, with
//!   per-destination [`StageTimes`];
//! * [`SpanSet::breakdown`] folds spans into the receipt-level latency
//!   [`Breakdown`] (send→accept, accept→pre-ack, pre-ack→deliver,
//!   send→deliver), per destination or aggregated, using the same
//!   fixed-bucket [`co_observe::Histogram`]s as the live trackers —
//!   `send→deliver` over remote destinations is exactly the paper's Tap;
//! * [`StreamingDetectors`] is the anomaly rules ([`Finding`]) as one
//!   incremental fold over a merged trace: stuck-at-pre-ack, RET storms,
//!   F1/F2 loss-burst clusters, flow-condition saturation, and
//!   never-acknowledged PDUs — each carrying the evidence that produced
//!   it;
//! * [`LiveDetector`] is the observer of one node's own event stream. It
//!   shares the three node-local rule folds with [`StreamingDetectors`]
//!   and judges stuck-at-pre-ack over one flat record per PDU that node
//!   still holds (a `co_observe::InFlight` table, nothing on the heap
//!   per PDU; a span is built only as a finding's evidence), so drivers
//!   get always-on anomaly detection without a trace file in the loop;
//! * [`analyze`] runs a whole trace through that fold and bundles spans,
//!   breakdown and findings into a [`SpanReport`] with
//!   text and JSON renderings (`co-cli trace analyze`, the
//!   `co-transport` post-run report, and the `co-check` span oracle all
//!   consume it).
//!
//! In this engine the ACK transition and the application hand-off
//! coincide (one `delivered` event), so the paper's pre-ack→ack and
//! ack→deliver stages appear merged as `pre-ack→deliver`; DESIGN.md
//! ("Observability") tabulates the exact mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod report;
mod span;
mod stream;
#[cfg(test)]
mod testkit;

pub use anomaly::{AnomalyConfig, Finding};
pub use report::{analyze, describe_finding, finding_to_json, SpanReport};
pub use span::{stitch, Breakdown, BroadcastSpan, DuplicateStage, SpanSet, Stage, StageTimes};
pub use stream::{LiveDetector, StreamingDetectors};
