//! PDU types and wire codec for the CO protocol.
//!
//! Figure 4 of the paper gives the data-PDU layout
//! `CID | SRC | SEQ | ACK = ⟨ACK_1 … ACK_n⟩ | BUF | DATA` and Figure 5 the
//! retransmission-request (`RET`) layout
//! `CID | SRC | LSRC | LSEQ | ACK | BUF`. This crate defines those PDUs as
//! typed structs plus a third, *unsequenced* [`AckOnlyPdu`]
//! (`CID | SRC | ACK | BUF`) used by the deferred-confirmation timer when an
//! entity has no data to piggyback confirmations on — a liveness extension
//! documented in `DESIGN.md`.
//!
//! The `ACK` field is the sender's whole `REQ` vector, so every PDU is
//! **O(n)** bytes long — the cost the paper reports in §5 ("the length of
//! PDU is O(n)") and that the `pdu_overhead` experiment measures. The
//! codec (wire version 3) writes each vector as a base plus fixed-width
//! offsets, which makes the constant one byte per entity while the
//! vector's entries stay within 255 of each other, and an `AckOnly`'s
//! `packed` / `acked` as their lags behind its `ack` — half a byte per
//! entity while at most 15 PDUs per source are in flight, none once the
//! sender has caught up.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use causal_order::{EntityId, Seq};
//! use co_wire::{DataPdu, Pdu};
//!
//! let pdu = Pdu::Data(DataPdu {
//!     cid: 1,
//!     src: EntityId::new(0),
//!     seq: Seq::FIRST,
//!     ack: vec![Seq::FIRST, Seq::FIRST],
//!     buf: 64,
//!     data: Bytes::from_static(b"hello"),
//! });
//! let encoded = pdu.encode();
//! let decoded = Pdu::decode(&encoded)?;
//! assert_eq!(pdu, decoded);
//! # Ok::<(), co_wire::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod pdu;

pub use codec::{AckBufPool, MAGIC, VERSION};
pub use error::DecodeError;
pub use pdu::{AckOnlyPdu, DataPdu, Pdu, PduKind, RetPdu};
