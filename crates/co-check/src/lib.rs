//! **co-check** — a deterministic fault-injection checker for the CO
//! protocol.
//!
//! The tier-1 tests prove the protocol correct on handpicked schedules;
//! `co-check` hunts for the schedules nobody picked. It drives the real
//! [`co_protocol::Entity`] — running any pluggable
//! [`co_protocol::DeliveryCore`] engine a scenario names
//! ([`Scenario::core`] / `--core`, see
//! [`CORE_NAMES`](crate::runner::CORE_NAMES)), hosted by the same
//! [`co_baselines::EntityNode`] the experiments and examples use
//! ([`CheckNode`] is that node under the checker's observer stack) —
//! through thousands of seeded adversarial schedules on the `mc-net`
//! simulator — timed loss bursts, link cuts,
//! two-sided partitions that heal, PDU duplication, host pauses that
//! overrun the receive buffer (§2.1's loss model) and crash-restarts from
//! a full protocol-state snapshot — and judges every run with protocol
//! oracles derived from the paper:
//!
//! * safety: atomicity, no-duplication, no-creation, per-source FIFO and
//!   causal delivery order (§2.2/§2.3, via `causal-order`'s ground-truth
//!   [`RunTrace`](causal_order::properties::RunTrace));
//! * ack integrity: identical piggybacked ACK vectors at every entity
//!   (Lemma 4.2);
//! * liveness: quiescence and global stability once the fault windows
//!   close;
//! * stage order (traced runs, reference core only): every message walks
//!   §3's receipt levels
//!   *accept → pre-ack → deliver* in order, exactly once per node, judged
//!   from the engine's structured event stream
//!   ([`run_scenario_traced`](crate::runner::run_scenario_traced));
//! * span consistency (traced runs, reference core only): the per-node
//!   streams are stitched
//!   into cross-node `co-trace` spans, and every *delivered* PDU must
//!   have a complete, stage-ordered span at **every** node
//!   ([`check_spans`](crate::oracles::check_spans)) — strictly stronger
//!   than the per-node stage-order oracle.
//!
//! Every run also folds its protocol event stream into an order-sensitive
//! [`event_digest`](crate::runner::RunReport::event_digest) — a
//! determinism witness one layer below the wire-schedule digest.
//!
//! On a violation, the greedy [`shrink`](crate::shrink::shrink) minimizer
//! strips the scenario down to the smallest fault plan + workload that
//! still reproduces it, and the binary writes a JSON reproducer that
//! replays byte-for-byte (same seed → same
//! [`trace_digest`](mc_net::Simulator::trace_digest)) from a plain
//! `#[test]` — see `tests/regressions/` at the repository root.
//!
//! Run the explorer with `cargo run -p co-check -- --schedules 1000`;
//! `--break-delivery` injects a known delivery bug to validate the oracle
//! and shrinking pipeline end-to-end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod oracles;
pub mod plan;
pub mod runner;
pub mod shrink;

pub use co_baselines::{AppEvent, NodeCmd};
pub use co_observe::Json;
pub use node::{CheckNode, CheckObserver};
pub use oracles::{
    check, check_spans, check_stage_order, Category, CheckViolation, RunObservation,
};
pub use plan::{FaultEvent, NetworkSpec, Reproducer, Scenario, Submit, NETWORK_PRESETS};
pub use runner::{
    fold_digests, run_scenario, run_scenario_observed, run_scenario_traced, LatencyStats,
    RunReport, CORE_NAMES, EVENT_BUDGET,
};
pub use shrink::{shrink, ShrinkOutcome, MAX_SHRINK_RUNS};
