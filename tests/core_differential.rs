//! Differential racing of the pluggable delivery cores.
//!
//! The same seeded `co-check` schedules are run on every
//! [`co_protocol::DeliveryCore`] engine (`co`, `hybrid`, `sender`), and
//! each run must (a) satisfy every oracle and (b) produce **the same
//! per-node delivered message sets** as the reference engine. The cores
//! differ in *when* and *with how much buffered state* they deliver —
//! never in *what*: a clean run delivers every broadcast exactly once at
//! every node, in an order consistent with the causal precedence the
//! workload induced.
//!
//! This is the cross-engine analogue of `tests/check_regressions.rs`:
//! where that file pins known counterexamples, this one pins agreement
//! on fresh adversarial schedules, so a core whose ordering logic
//! drifts (e.g. a hybrid dependency-test edit that starts dropping
//! messages) fails tier-1 instead of surviving until the next long
//! explorer run.

use co_check::{run_scenario_traced, Scenario};
use co_observe::ProtocolEvent;

/// Schedules raced per core. Small enough for tier-1 wall clock; the CI
/// `co-check` smoke job and the long-run explorer cover the thousands.
const SCHEDULES: u64 = 25;

const CORES: [&str; 3] = ["co", "hybrid", "sender"];

/// Per-node sets of `(src, seq)` pairs delivered during a run, in
/// delivery order.
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
fn all_cores_agree_on_what_is_delivered() {
    for index in 0..SCHEDULES {
        let base = Scenario::random(index, 0, false);

        let mut reference: Option<Vec<Vec<(u32, u64)>>> = None;
        for core in CORES {
            let mut sc = base.clone();
            sc.core = core.to_string();
            let (report, traces) = run_scenario_traced(&sc);
            assert!(
                report.violations.is_empty(),
                "schedule {index} on core `{core}`: {:?}",
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
                    "schedule {index}: core `{core}` delivered a different \
                     message set than the reference core"
                ),
            }
        }
    }
}

#[test]
fn per_seed_determinism_holds_on_every_core() {
    // Same scenario, same core → identical wire digest and identical
    // engine-internal event digest. Guards against any core sneaking
    // nondeterminism (hash-map iteration, time-dependent branches) into
    // the deterministic checker stack.
    let base = Scenario::random(3, 7, false);
    for core in CORES {
        let mut sc = base.clone();
        sc.core = core.to_string();
        let (a, _) = run_scenario_traced(&sc);
        let (b, _) = run_scenario_traced(&sc);
        assert_eq!(a.digest, b.digest, "core `{core}`: wire digest drifted");
        assert_eq!(
            a.event_digest, b.event_digest,
            "core `{core}`: event digest drifted"
        );
    }
}
