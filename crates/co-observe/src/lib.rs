//! Observability layer for the CO protocol: a structured
//! [`ProtocolEvent`] stream emitted by the engine through a pluggable
//! [`Observer`], with fold-based [`Counters`], fixed-bucket latency
//! [`Histogram`]s, a periodic [`SnapshotAggregator`], two exporters
//! (JSONL event traces in [`jsonl`], Prometheus text format in [`prom`])
//! and the workspace's one JSON codec ([`Json`]).
//!
//! # Design
//!
//! The engine (`co-protocol`) is generic over an observer it calls at
//! every instrumented transition. Observers compose:
//!
//! * [`NoopObserver`] (the default) — compiles to nothing; the
//!   instrumented engine is bit-identical in cost to the uninstrumented
//!   one (`co-bench`'s guard bench enforces the claim).
//! * [`EventLog`] — records the stream for trace assertions and the JSONL
//!   exporter.
//! * [`DigestObserver`] — folds the stream into an order-sensitive 64-bit
//!   digest, the cheap determinism check used by `co-check`.
//! * [`CounterFold`] — reconstructs the engine's counters from events
//!   alone (property-tested to match `Metrics::snapshot()` exactly).
//! * [`LatencyTracker`] — per-stage latency histograms (submit→accept,
//!   accept→pre-ack, accept→deliver, RET round-trip), over an
//!   [`InFlight`] table of the PDUs accepted and not yet delivered.
//! * [`Tee`] / `Option<O>` / `Box<dyn Observer>` — composition,
//!   optionality, and runtime selection.
//!
//! Events carry the entity-local monotonic timestamp the engine was
//! driven with; drivers that share an epoch across nodes (`co-transport`)
//! can join streams cross-node to reproduce the paper's §5 Tap/Tco
//! measurements from a trace file alone — see EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
mod flow;
mod histogram;
mod inflight;
mod json;
pub mod jsonl;
mod latency;
mod observer;
pub mod prom;
mod recorder;
mod snapshot;

pub use counters::{CounterFold, Counters};
pub use event::ProtocolEvent;
pub use flow::FlowGauge;
pub use histogram::{Histogram, BUCKETS};
pub use inflight::InFlight;
pub use json::Json;
pub use jsonl::TraceLine;
pub use latency::LatencyTracker;
pub use observer::{DigestObserver, EventLog, NoopObserver, Observer, Tee};
pub use prom::SeriesLabels;
pub use recorder::{FlightRecorder, RecorderDump, DEFAULT_RECORDER_DEPTH};
pub use snapshot::{ObservabilitySnapshot, SnapshotAggregator};
