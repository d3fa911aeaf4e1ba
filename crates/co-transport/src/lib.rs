//! Real-time runtime for the CO protocol — the reproduction of the
//! paper's §5 testbed ("The CO protocol is implemented in a user process of
//! the Sun SPARC2 workstation", one entity per workstation on an Ethernet).
//!
//! Each entity runs on its own OS thread, in the one wall-clock loop of
//! the repo ([`Node::run`]). Peers exchange **encoded** PDUs (through
//! `co-wire`, so the measured processing cost includes codec work, as the
//! paper's did) into each other's bounded inbox — directly over crossbeam
//! channels ([`Cluster::start_with_core`]) or as UDP datagrams
//! ([`Cluster::start_udp`], and one process per entity in `co-node`). The
//! inbox plays the NIC receive buffer, and a full inbox drops the PDU — the
//! MC service's buffer-overrun loss, on real threads.
//!
//! Instrumentation matches Figure 8:
//!
//! * **Tco** — per-PDU protocol processing time (decode → engine → encode),
//!   measured with a monotonic clock around each receive;
//! * **Tap** — application-to-application delay, measured by embedding the
//!   submit timestamp in each payload and reading it back at delivery.
//!
//! # Example
//!
//! ```
//! use co_transport::{Cluster, ClusterOptions};
//! use bytes::Bytes;
//!
//! let cluster = Cluster::start(3, ClusterOptions::default())?;
//! cluster.submit(0, Bytes::from_static(b"hello"))?;
//! let reports = cluster.shutdown();
//! assert!(reports.iter().all(|r| r.delivered.len() == 1));
//! # Ok::<(), co_transport::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod node;
mod report;
mod udp;

pub use cluster::{Cluster, ClusterOptions, TransportError};
pub use node::{Commands, Host, Node};
pub use report::{merged_trace, NodeReport, TimingSummary};
