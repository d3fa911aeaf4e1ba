//! The **causally ordering broadcast (CO) protocol** engine — the paper's
//! contribution (§4), implemented as a sans-IO state machine.
//!
//! Each [`Entity`] is one `E_i` of a cluster `C = ⟨E_1, …, E_n⟩`. It is
//! driven by three inputs —
//!
//! * [`Entity::submit`]: the application hands over a payload (the paper's
//!   *DT request* at the system SAP),
//! * [`Entity::on_pdu`]: a PDU received from the MC network,
//! * [`Entity::on_tick`]: the passage of time (deferred-confirmation and
//!   retransmission-retry timers) —
//!
//! and responds with [`Action`]s: PDUs to broadcast and messages to deliver
//! to the application, streamed into a caller-supplied [`ActionSink`]
//! (a plain `Vec<Action>` works; the `*_actions` wrappers collect into a
//! fresh one). No IO, no clocks, no threads inside; the same engine runs
//! on the `mc-net` simulator and the `co-transport` real-time runtime.
//!
//! # Observability
//!
//! Every protocol transition — acceptance, pre-acknowledgment, delivery,
//! F1/F2 loss detection, retransmission request and service, flow-window
//! transitions, CPI insertions — is also emitted as a structured
//! [`ProtocolEvent`] through the entity's [`Observer`] (the `co-observe`
//! crate, re-exported here). The default [`NoopObserver`] compiles the
//! whole event stream away; plug in an [`EventLog`], [`DigestObserver`],
//! latency tracker or custom sink with [`Entity::with_observer`].
//!
//! # Protocol walk-through
//!
//! A data PDU `p` from `E_j` moves through three stages at every entity
//! (§3's atomic-receipt levels):
//!
//! 1. **Acceptance** — `p.SEQ == REQ_j` (else it is buffered out-of-order
//!    and the gap is reclaimed by a selective `RET` request, §4.3). Accepted
//!    PDUs sit in the receipt log `RRL_j` and the piggybacked `p.ACK` vector
//!    updates the `AL` matrix.
//! 2. **Pre-acknowledgment** — once `p.SEQ < minAL_j` (every entity is known
//!    to have accepted `p`), `p` moves to the `PRL`, inserted in causal
//!    order by the CPI operation using Theorem 4.1's sequence-number test.
//! 3. **Acknowledgment** — once `p.SEQ < minPAL_j` (every entity is known to
//!    have *pre-acknowledged* `p`), `p` moves to the `ARL` and is delivered
//!    to the application ([`Action::Deliver`]).
//!
//! Because the CPI keeps the `PRL` causality-preserved and Propositions
//! 4.3/4.4 order the stage transitions, every application sees all messages
//! in a causality-preserving order — the **CO service** of §2.3.
//!
//! # Example
//!
//! Receiving a data PDU *accepts* it but does not deliver it — delivery
//! waits for the acknowledgment rounds (stage 3 above). Drive the
//! confirmation exchange to completion and the message reaches both
//! applications:
//!
//! ```
//! use bytes::Bytes;
//! use causal_order::EntityId;
//! use co_protocol::{Action, Config, DeferralPolicy, Entity};
//!
//! // A 2-entity cluster, wired by hand.
//! let config = |i| {
//!     Config::builder(0, 2, EntityId::new(i))
//!         .deferral(DeferralPolicy::Immediate)
//!         .build()
//! };
//! let mut e1 = Entity::new(config(0)?)?;
//! let mut e2 = Entity::new(config(1)?)?;
//!
//! let (_, actions) = e1.submit(Bytes::from_static(b"hi"), 0)?;
//! let mut queue: Vec<(u32, _)> = actions
//!     .into_iter()
//!     .filter_map(|a| match a {
//!         Action::Broadcast(p) => Some((1, p)), // (destination, pdu)
//!         _ => None,
//!     })
//!     .collect();
//! let mut deliveries = 0;
//! while let Some((to, pdu)) = queue.pop() {
//!     let (entity, other) = if to == 1 { (&mut e2, 0) } else { (&mut e1, 1) };
//!     let mut actions = Vec::new();
//!     entity.on_pdu(pdu, 1_000, &mut actions)?;
//!     for a in actions {
//!         match a {
//!             Action::Broadcast(p) => queue.push((other, p)),
//!             Action::Deliver(d) => {
//!                 assert_eq!(&d.data[..], b"hi");
//!                 deliveries += 1;
//!             }
//!             _ => {} // Action is #[non_exhaustive]
//!         }
//!     }
//! }
//! assert_eq!(deliveries, 2, "delivered at the receiver and the sender");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod co_core;
mod config;
mod core;
mod cpi;
mod entity;
mod error;
mod fifo;
mod flow;
mod hybrid;
mod logs;
mod matrix;
mod metrics;
mod mux;
mod reorder;
mod sender;
mod snapshot;

pub use actions::{Action, ActionSink, Delivery, FnSink, SubmitOutcome};
pub use co_core::CoCore;
pub use config::{Config, ConfigBuilder, ConfigError, DeferralPolicy, RetransmissionPolicy};
pub use core::{DeliveryCore, Out, MAX_QUEUED_SUBMITS};
pub use cpi::CausalLog;
pub use entity::{BatchOutcome, Entity};
pub use error::ProtocolError;
pub use fifo::{FifoState, ReliableFifo};
pub use flow::{flow_limit, FlowDecision};
pub use hybrid::{HybridCore, HybridState};
pub use logs::{ReceiptLogs, SendLog};
pub use matrix::KnowledgeMatrix;
pub use metrics::Metrics;
pub use mux::ClusterMux;
pub use reorder::ReorderBuffer;
pub use sender::{SenderCore, SenderState};
pub use snapshot::{CoState, EntitySnapshot, EntityState};

/// Re-export of the wire-level PDU types the engine consumes and produces.
pub use co_wire::{AckOnlyPdu, DataPdu, Pdu, PduKind, RetPdu};

/// Re-export of the observability layer: the structured event stream the
/// engine emits and the observers that consume it.
pub use co_observe::{DigestObserver, EventLog, NoopObserver, Observer, ProtocolEvent, Tee};
