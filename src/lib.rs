//! # co-broadcast — Causally Ordering Broadcast (CO) Protocol
//!
//! Facade crate for a reproduction of *Nakamura & Takizawa, "Causally
//! Ordering Broadcast Protocol", ICDCS 1994*. Re-exports the workspace
//! crates under one roof; see the README for the architecture and the
//! `examples/` directory for runnable scenarios.
//!
//! # Example
//!
//! A two-entity cluster wired by hand — note that delivery requires the
//! full acknowledgment exchange, not just receipt (the paper's
//! atomic-receipt staging). The simulator and the threaded/UDP transports
//! run this loop for you — see [`net`] and [`transport`].
//!
//! ```
//! use bytes::Bytes;
//! use causal_order::EntityId;
//! use co_broadcast::protocol::{Action, Config, DeferralPolicy, Entity};
//!
//! let build = |i| {
//!     Entity::new(
//!         Config::builder(0, 2, EntityId::new(i))
//!             .deferral(DeferralPolicy::Immediate)
//!             .build()?,
//!     )
//! };
//! let mut e1 = build(0)?;
//! let mut e2 = build(1)?;
//!
//! let (_, actions) = e1.submit(Bytes::from_static(b"hello"), 0)?;
//! let mut delivered_at = Vec::new();
//!
//! // Ferry PDUs between the two entities until the exchange quiesces.
//! let mut to_e2: Vec<_> = actions
//!     .into_iter()
//!     .filter_map(|a| match a {
//!         Action::Broadcast(p) => Some(p),
//!         _ => None,
//!     })
//!     .collect();
//! let mut to_e1 = Vec::new();
//! let mut actions = Vec::new();
//! for now in 1..20u64 {
//!     for pdu in std::mem::take(&mut to_e2) {
//!         e2.on_pdu(pdu, now, &mut actions)?;
//!         for a in actions.drain(..) {
//!             match a {
//!                 Action::Broadcast(p) => to_e1.push(p),
//!                 Action::Deliver(d) => delivered_at.push((2, d.data.clone())),
//!                 _ => {}
//!             }
//!         }
//!     }
//!     for pdu in std::mem::take(&mut to_e1) {
//!         e1.on_pdu(pdu, now, &mut actions)?;
//!         for a in actions.drain(..) {
//!             match a {
//!                 Action::Broadcast(p) => to_e2.push(p),
//!                 Action::Deliver(d) => delivered_at.push((1, d.data.clone())),
//!                 _ => {}
//!             }
//!         }
//!     }
//!     if to_e1.is_empty() && to_e2.is_empty() {
//!         break;
//!     }
//! }
//! // Both applications (including the sender's own) got the message.
//! assert_eq!(delivered_at.len(), 2);
//! assert!(delivered_at.iter().all(|(_, d)| &d[..] == b"hello"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use causal_order as order;
pub use co_baselines as baselines;
pub use co_protocol as protocol;
pub use co_transport as transport;
pub use co_wire as wire;
pub use mc_net as net;
