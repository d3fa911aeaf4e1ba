//! `co-e2e`: the repo's end-to-end benchmark.
//!
//! One command runs every workload, checks the outputs are correct and
//! prints every metric by name with its unit. Two drivers, both owned by
//! the benchmark, carry the same node — the protocol configuration and
//! observer stack `ClusterOptions::default()` implies — over a simulated
//! network ([`sim`]) and over real threads ([`thr`]); the product is
//! driven through public APIs only and each layer is measured from
//! outside, by timing those calls ([`trace`]). See README.md for the
//! metric and workload definitions.

pub mod check;
pub mod cli;
pub mod manifest;
pub mod procfs;
pub mod run;
pub mod sim;
pub mod stats;
pub mod thr;
pub mod trace;
pub mod workload;
