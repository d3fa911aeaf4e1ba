//! Differential racing of the delivery cores across network models.
//!
//! The cross-product companion of `tests/core_differential.rs`: the same
//! seeded `co-check` schedules run on every delivery core under every
//! named network preset (`uniform`, `contended`, `asymmetric`, `wan`).
//! Realistic networks reshape *when* PDUs arrive — serialization queueing
//! under bandwidth contention, direction-skewed propagation, heavy-tailed
//! WAN delays — but the MC service keeps per-link FIFO, so the protocol's
//! obligations are unchanged: within one (schedule, preset) cell, every
//! core must satisfy its oracles and deliver **the same per-node message
//! sets**. A core whose buffering logic only works on the benign uniform
//! network (e.g. a dependency test that assumes near-symmetric delays)
//! fails tier-1 here instead of surviving until a long explorer run.
//!
//! The second test pins replayability per cell: the network models draw
//! from seeded streams (WAN sampling from its own dedicated stream), so
//! same seed + same network ⇒ identical wire and event digests.

use co_check::{run_scenario_traced, NetworkSpec, Scenario, NETWORK_PRESETS};
use co_observe::ProtocolEvent;

/// Schedules raced per (core, preset) cell. Small enough for tier-1 wall
/// clock; the CI smoke job and the nightly core×network matrix cover the
/// thousands.
const SCHEDULES: u64 = 25;

const CORES: [&str; 3] = ["co", "hybrid", "sender"];

/// Per-node sets of `(src, seq)` pairs delivered during a run.
fn delivered_per_node(traces: &[Vec<ProtocolEvent>]) -> Vec<Vec<(u32, u64)>> {
    traces
        .iter()
        .map(|events| {
            events
                .iter()
                .filter_map(|e| match e {
                    ProtocolEvent::Delivered { src, seq, .. } => {
                        Some((src.index() as u32, seq.get()))
                    }
                    _ => None,
                })
                .collect()
        })
        .collect()
}

#[test]
fn all_cores_agree_under_every_network_preset() {
    for index in 0..SCHEDULES {
        let base = Scenario::random(index, 0, false);
        for preset in NETWORK_PRESETS {
            let network = NetworkSpec::preset(preset).expect("named preset exists");
            let mut reference: Option<Vec<Vec<(u32, u64)>>> = None;
            for core in CORES {
                let mut sc = base.clone();
                sc.core = core.to_string();
                sc.network = network;
                let (report, traces) = run_scenario_traced(&sc);
                assert!(
                    report.violations.is_empty(),
                    "schedule {index} on core `{core}` under `{preset}`: {:?}",
                    report.violations
                );
                let mut delivered = delivered_per_node(&traces);
                // Compare as sets: cores legitimately deliver in different
                // orders (each causally consistent); the
                // per-core ordering oracles already ran above.
                for node in &mut delivered {
                    node.sort_unstable();
                }
                match &reference {
                    None => reference = Some(delivered),
                    Some(expected) => assert_eq!(
                        &delivered, expected,
                        "schedule {index} under `{preset}`: core `{core}` \
                         delivered a different message set than the reference"
                    ),
                }
            }
        }
    }
}

#[test]
fn per_seed_determinism_holds_in_every_cell() {
    // Same scenario, same core, same network ⇒ identical wire digest and
    // identical engine-internal event digest. This is the replayability
    // contract reproducer JSON relies on, extended to the network
    // dimension: WAN sampling must stay on its dedicated seeded stream
    // and bandwidth queueing must stay RNG-free.
    let base = Scenario::random(3, 7, false);
    for preset in NETWORK_PRESETS {
        for core in CORES {
            let mut sc = base.clone();
            sc.core = core.to_string();
            sc.network = NetworkSpec::preset(preset).expect("named preset exists");
            let (a, _) = run_scenario_traced(&sc);
            let (b, _) = run_scenario_traced(&sc);
            assert_eq!(
                a.digest, b.digest,
                "core `{core}` under `{preset}`: wire digest drifted"
            );
            assert_eq!(
                a.event_digest, b.event_digest,
                "core `{core}` under `{preset}`: event digest drifted"
            );
        }
    }
}
