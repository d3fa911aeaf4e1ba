//! Offline stand-in for `serde`: the derive macros only, as no-ops.
//!
//! The crates the benchmark links (`causal-order`, `mc-net`, `co-wire`,
//! `co-protocol`) name `serde::Serialize` / `serde::Deserialize` only in
//! `#[derive(...)]` lists; no code path bounds on or calls the traits.

pub use serde_derive::{Deserialize, Serialize};
