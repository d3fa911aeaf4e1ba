//! The simulator side of the paper's evaluation (§1, §5): the one node
//! that hosts a protocol entity on `mc-net`, and the comparator protocols
//! the CO protocol is raced against.
//!
//! * [`EntityNode`] — hosts an [`co_protocol::Entity`] running any
//!   [`co_protocol::DeliveryCore`] under any observer on the simulator and
//!   keeps one ordered application log ([`AppEvent`]). The checker, the
//!   experiments, the examples and the root tests all go through it.
//! * [`FifoCore`] — the **PO/LO** protocol [16] as the fourth delivery
//!   core: per-source FIFO only, the weakest of the three services of §1,
//!   over the same `ReliableFifo` substrate as the causal cores.
//!
//! Two comparators keep their own reliability substrate, because that
//! substrate *is* the comparison; they sit behind [`Broadcaster`] and run
//! on the simulator through [`BroadcasterNode`]:
//!
//! * [`CbcastEntity`] — the **ISIS CBCAST** causal broadcast: virtual
//!   (vector) clocks over a transport *assumed* reliable. More per-PDU
//!   computation, and — the paper's key point — virtual clocks cannot
//!   detect PDU loss: under loss this entity silently stalls.
//! * [`SequencerEntity`] — a **TO (totally ordering)** protocol in the style
//!   of [14, 15]: a fixed sequencer assigns a global sequence; receivers use
//!   **go-back-n** retransmission (§5 contrasts this with the CO protocol's
//!   selective scheme).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod fifo;
mod isis;
mod node;
mod to_seq;
mod traits;

pub use adapter::{BroadcasterNode, RecordedDelivery};
pub use fifo::FifoCore;
pub use isis::{CbcastEntity, CbcastMsg};
pub use node::{AppEvent, EntityNode, NodeCmd};
pub use to_seq::{SequencerEntity, ToMsg};
pub use traits::{AppDelivery, Broadcaster, Out};
