//! Executes one [`Scenario`] on the `mc-net` simulator and judges it.

use bytes::Bytes;
use causal_order::EntityId;
use co_baselines::{AppEvent, NodeCmd};
use co_observe::{ProtocolEvent, RecorderDump, DEFAULT_RECORDER_DEPTH};
use co_protocol::{
    CoCore, Config, DeferralPolicy, DeliveryCore, HybridCore, RetransmissionPolicy, SenderCore,
};
use mc_net::{
    BandwidthModel, ControlEvent, DelayModel, LossModel, NetStats, NetworkModel, SimConfig,
    SimDuration, SimTime, Simulator, TimedRule, WanDelay,
};

use crate::node::{self, CheckNode};
use crate::oracles::{check, CheckViolation, RunObservation};
use crate::plan::{FaultEvent, NetworkSpec, Scenario};

/// Hard event budget per run; a scenario that exceeds it is reported as a
/// liveness violation (livelock), not an error.
pub const EVENT_BUDGET: u64 = 2_000_000;

/// The delivery cores a scenario may name in [`Scenario::core`], in the
/// order `co-check --core` documents them: the reference matrix/CPI
/// engine, the hybrid-buffering engine, and the sender-side engine.
pub const CORE_NAMES: [&str; 3] = [
    co_protocol::CoCore::NAME,
    co_protocol::HybridCore::NAME,
    co_protocol::SenderCore::NAME,
];

/// Broadcast-to-delivery latency aggregates for one run, measured from
/// each fresh broadcast's [`AppEvent::Broadcast`] (not the
/// [`AppEvent::Submit`] before it: flow-control queueing is excluded) to every
/// [`AppEvent::Deliver`] of that `(src, seq)` across the cluster. This is
/// the application-visible cost the paper's §5 bounds (`R` to pre-ack,
/// `2R` to full ack) — the number that moves when the network model does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Deliveries measured (each delivery of each message counts once).
    pub samples: usize,
    /// Mean broadcast→delivery latency, µs (0 when no samples).
    pub mean_us: u64,
    /// Worst broadcast→delivery latency, µs.
    pub max_us: u64,
}

impl LatencyStats {
    fn from_events(events: &[&[AppEvent]]) -> LatencyStats {
        let mut sent = std::collections::HashMap::new();
        for (node, stream) in events.iter().enumerate() {
            for event in *stream {
                if let AppEvent::Broadcast { seq, at } = event {
                    sent.insert((node, *seq), *at);
                }
            }
        }
        let mut stats = LatencyStats::default();
        let mut total = 0u64;
        for stream in events {
            for event in *stream {
                let AppEvent::Deliver { delivery: d, at } = event else {
                    continue;
                };
                let Some(&sent_at) = sent.get(&(d.src.index(), d.seq)) else {
                    continue;
                };
                let lat = at.as_micros().saturating_sub(sent_at.as_micros());
                stats.samples += 1;
                total += lat;
                stats.max_us = stats.max_us.max(lat);
            }
        }
        if stats.samples > 0 {
            stats.mean_us = total / stats.samples as u64;
        }
        stats
    }
}

/// Lowers a scenario's [`NetworkSpec`] to the simulator's network model.
///
/// `Uniform` reproduces the historical configuration bit-identically:
/// constant delay when the band is degenerate, jitter otherwise, unlimited
/// bandwidth.
///
/// # Panics
///
/// Panics if the spec encodes an invalid model (generated scenarios and
/// named presets never do; a hand-edited reproducer might).
fn network_model(sc: &Scenario) -> NetworkModel {
    let band = if sc.delay_min_us == sc.delay_max_us {
        DelayModel::Uniform(SimDuration::from_micros(sc.delay_min_us))
    } else {
        DelayModel::Jitter {
            min: SimDuration::from_micros(sc.delay_min_us),
            max: SimDuration::from_micros(sc.delay_max_us),
        }
    };
    match sc.network {
        NetworkSpec::Uniform => band.into(),
        NetworkSpec::Contended {
            egress_bytes_per_ms,
            ingress_bytes_per_ms,
        } => NetworkModel {
            delay: band,
            bandwidth: BandwidthModel::shared(egress_bytes_per_ms, ingress_bytes_per_ms)
                .expect("scenario encodes valid bandwidth rates"),
        },
        NetworkSpec::Asymmetric { skew_x10 } => {
            // Deterministic per-pair matrix, no RNG: low-index → high-index
            // links run at the scenario minimum, the reverse direction at
            // `delay_max × skew`.
            let fwd = SimDuration::from_micros(sc.delay_min_us.max(1));
            let rev = SimDuration::from_micros((sc.delay_max_us.max(1) * skew_x10 / 10).max(1));
            let matrix = (0..sc.n)
                .map(|from| {
                    (0..sc.n)
                        .map(|to| match from.cmp(&to) {
                            std::cmp::Ordering::Less => fwd,
                            std::cmp::Ordering::Equal => SimDuration::ZERO,
                            std::cmp::Ordering::Greater => rev,
                        })
                        .collect()
                })
                .collect();
            DelayModel::per_pair(matrix)
                .expect("constructed matrix is square")
                .into()
        }
        NetworkSpec::Wan {
            median_us,
            octaves,
            tail_per_mille,
            spike_us,
            spike_per_mille,
        } => DelayModel::Wan(
            WanDelay::new(
                SimDuration::from_micros(sc.delay_min_us),
                SimDuration::from_micros(median_us.max(1)),
                octaves,
                tail_per_mille,
                SimDuration::from_micros(spike_us),
                spike_per_mille,
            )
            .expect("scenario encodes a valid WAN shape"),
        )
        .into(),
    }
}

/// Everything observed about one executed scenario.
///
/// The checker's analogue of `co-transport`'s `NodeReport` / run summary:
/// the same run-level accounting (deliveries, drops, makespan), plus the
/// oracle verdicts only the simulated environment can produce.
#[derive(Debug)]
pub struct RunReport {
    /// Oracle violations, most severe category first; empty = clean run.
    pub violations: Vec<CheckViolation>,
    /// [`Simulator::trace_digest`] of the run — same scenario, same digest.
    pub digest: u64,
    /// FNV fold of every node's protocol-event-stream digest, in entity
    /// order. A second determinism witness one layer below [`Self::digest`]:
    /// it covers the engine's internal receipt transitions (accept,
    /// pre-ack, CPI, deliver, F1/F2, RET), not just the wire schedule.
    pub event_digest: u64,
    /// Network-level counters.
    pub stats: NetStats,
    /// Simulated time at quiescence, µs.
    pub makespan_us: u64,
    /// Fresh broadcasts recorded across all nodes.
    pub broadcasts: usize,
    /// Deliveries recorded across all nodes.
    pub deliveries: usize,
    /// Worst held-PDU high-water mark across all entities — the §4 buffer
    /// bound under pressure, and the number that diverges between cores
    /// when the network model turns hostile.
    pub peak_held: usize,
    /// RET (retransmission-request) PDUs sent across all entities.
    pub ret_pdus: u64,
    /// Data PDUs retransmitted across all entities.
    pub retransmissions: u64,
    /// Broadcast→delivery latency breakdown.
    pub latency: LatencyStats,
    /// Each node's flight-recorder dump (entity order): the last
    /// `recorder_depth` protocol events, labeled with the scenario's core
    /// and network. Events are empty when the recorder depth was 0.
    pub recorders: Vec<RecorderDump>,
}

/// Builds the per-entity protocol configuration for a scenario.
///
/// # Panics
///
/// Panics if the scenario encodes an invalid configuration (generated
/// scenarios never do; a hand-edited reproducer might).
fn protocol_config(sc: &Scenario, index: u32) -> Config {
    let mut b = Config::builder(0, sc.n, EntityId::new(index));
    b.window(sc.window)
        .retransmission(if sc.selective {
            RetransmissionPolicy::Selective
        } else {
            RetransmissionPolicy::GoBackN
        })
        .deferral(if sc.deferral_us == 0 {
            DeferralPolicy::Immediate
        } else {
            DeferralPolicy::Deferred {
                timeout_us: sc.deferral_us,
            }
        });
    b.build().expect("scenario encodes a valid protocol config")
}

/// Translates the wire-level faults into [`TimedRule`]s.
fn loss_rules(sc: &Scenario) -> Vec<TimedRule> {
    let mut rules = Vec::new();
    for fault in &sc.faults {
        match fault {
            FaultEvent::CutLink {
                from,
                to,
                from_us,
                to_us,
            } => rules.push(TimedRule::cut_link(
                EntityId::new(*from),
                EntityId::new(*to),
                *from_us,
                *to_us,
            )),
            FaultEvent::PauseReceiver {
                node,
                from_us,
                to_us,
            } => rules.push(TimedRule::pause_receiver(
                EntityId::new(*node),
                *from_us,
                *to_us,
            )),
            FaultEvent::Partition {
                group,
                from_us,
                to_us,
            } => {
                let side: Vec<EntityId> = group.iter().map(|&g| EntityId::new(g)).collect();
                let rest: Vec<EntityId> = (0..sc.n as u32)
                    .filter(|i| !group.contains(i))
                    .map(EntityId::new)
                    .collect();
                rules.extend(TimedRule::partition(&side, &rest, *from_us, *to_us));
            }
            FaultEvent::Duplicate {
                from,
                to,
                from_us,
                to_us,
                extra,
            } => rules.push(TimedRule::duplicate_link(
                EntityId::new(*from),
                EntityId::new(*to),
                *from_us,
                *to_us,
                *extra,
            )),
            FaultEvent::LossBurst { from_us, to_us } => {
                rules.push(TimedRule::loss_burst(*from_us, *to_us));
            }
            // Host-level faults are scheduled as simulator controls, not
            // wire rules.
            FaultEvent::PauseNode { .. } | FaultEvent::CrashRestart { .. } => {}
        }
    }
    rules
}

/// A deterministic, per-submit payload of exactly `sc.payload` bytes.
fn payload(sc: &Scenario, submit_index: usize, node: u32) -> Bytes {
    let tag = format!("m{node}-{submit_index};");
    let mut data = tag.into_bytes();
    data.resize(sc.payload.max(1), b'.');
    Bytes::from(data)
}

/// FNV-1a fold of a sequence of digests into one: the per-node event
/// digests (entity order) of a run, or — in the binary's final report —
/// the per-schedule digests (exploration order) of a whole exploration,
/// which is what `scripts/digest-diff.sh` compares between two commits.
pub fn fold_digests(digests: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for byte in d.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs a scenario to quiescence and checks every applicable oracle,
/// on the delivery core the scenario names ([`Scenario::core`]).
///
/// # Panics
///
/// Panics if the scenario names a core outside [`CORE_NAMES`] (generated
/// scenarios never do; a hand-edited reproducer might).
pub fn run_scenario(sc: &Scenario) -> RunReport {
    run_scenario_impl(sc, false, DEFAULT_RECORDER_DEPTH).0
}

/// Like [`run_scenario`], but additionally retains and returns every
/// node's full protocol event stream (indexed by entity), after checking
/// the trace-level stage-order oracle on each (reference core only: the
/// other engines have no §3 pre-ack stage to judge).
pub fn run_scenario_traced(sc: &Scenario) -> (RunReport, Vec<Vec<ProtocolEvent>>) {
    run_scenario_impl(sc, true, DEFAULT_RECORDER_DEPTH)
}

/// [`run_scenario`] with explicit observability knobs: `trace` retains
/// the full event streams (arming the trace-level oracles), and
/// `recorder_depth` sizes each node's flight-recorder ring (0 disables
/// retention — the dumps in the report come back empty).
pub fn run_scenario_observed(
    sc: &Scenario,
    trace: bool,
    recorder_depth: usize,
) -> (RunReport, Vec<Vec<ProtocolEvent>>) {
    run_scenario_impl(sc, trace, recorder_depth)
}

/// Monomorphizes the run on the core the scenario names.
fn run_scenario_impl(
    sc: &Scenario,
    trace: bool,
    recorder_depth: usize,
) -> (RunReport, Vec<Vec<ProtocolEvent>>) {
    match sc.core.as_str() {
        "co" => run_scenario_with::<CoCore>(sc, trace, recorder_depth),
        "hybrid" => run_scenario_with::<HybridCore>(sc, trace, recorder_depth),
        "sender" => run_scenario_with::<SenderCore>(sc, trace, recorder_depth),
        other => panic!("scenario names unknown delivery core `{other}` (known: {CORE_NAMES:?})"),
    }
}

fn run_scenario_with<C: DeliveryCore>(
    sc: &Scenario,
    trace: bool,
    recorder_depth: usize,
) -> (RunReport, Vec<Vec<ProtocolEvent>>) {
    let sim_config = SimConfig {
        network: network_model(sc),
        loss: LossModel::Timed {
            rules: loss_rules(sc),
        },
        inbox_capacity: sc.inbox_capacity,
        proc_time: SimDuration::from_micros(sc.proc_time_us),
        seed: sc.seed,
        trace: true,
        drain_batch: sc.drain_batch.max(1),
    };
    let nodes: Vec<CheckNode<C>> = (0..sc.n as u32)
        .map(|i| node::check_node(protocol_config(sc, i), trace, recorder_depth))
        .collect();
    let mut sim = Simulator::new(sim_config, nodes);

    for (k, submit) in sc.workload.iter().enumerate() {
        sim.schedule_command(
            SimTime::from_micros(submit.at_us),
            EntityId::new(submit.node),
            NodeCmd::Submit(payload(sc, k, submit.node)),
        );
    }
    for fault in &sc.faults {
        match fault {
            FaultEvent::PauseNode {
                node,
                from_us,
                to_us,
            } => {
                let entity = EntityId::new(*node);
                sim.schedule_control(SimTime::from_micros(*from_us), entity, ControlEvent::Pause);
                sim.schedule_control(SimTime::from_micros(*to_us), entity, ControlEvent::Resume);
            }
            FaultEvent::CrashRestart { node, at_us } => {
                let entity = EntityId::new(*node);
                // ClearInbox is queued before the Crash command at the same
                // timestamp (insertion order breaks the tie), so the
                // restored entity wakes to an empty NIC.
                sim.schedule_control(
                    SimTime::from_micros(*at_us),
                    entity,
                    ControlEvent::ClearInbox,
                );
                sim.schedule_command(SimTime::from_micros(*at_us), entity, NodeCmd::Crash);
            }
            _ => {}
        }
    }

    let processed = sim.run_until_idle_capped(EVENT_BUDGET);
    let quiesced = processed < EVENT_BUDGET;
    let all_stable = sim.nodes().all(|(_, node)| node.entity().is_fully_stable());
    let mut events: Vec<&[AppEvent]> = sim.nodes().map(|(_, n)| n.events()).collect();
    // `--break-delivery`: an injected delivery bug the oracles must catch —
    // E2's log loses its first delivery record on the way to them.
    let broken: Vec<AppEvent>;
    if sc.break_delivery {
        let mut log = events[1].to_vec();
        if let Some(first) = log
            .iter()
            .position(|e| matches!(e, AppEvent::Deliver { .. }))
        {
            log.remove(first);
        }
        broken = log;
        events[1] = &broken;
    }
    let mut violations = check(&RunObservation {
        events: &events,
        quiesced,
        all_stable,
    });
    let traces: Vec<Vec<ProtocolEvent>> =
        sim.nodes().map(|(_, n)| node::trace(n).to_vec()).collect();
    if trace && quiesced && C::NAME == CoCore::NAME {
        // The receipt-stage oracle needs a finished run: on a livelocked
        // one, "never delivered" is the liveness oracle's verdict, not a
        // stage violation. It also only applies to the reference engine —
        // §3's accept → pre-ack → deliver levels are the matrix/CPI
        // pipeline's structure; the other cores never emit a pre-ack.
        for (i, node_trace) in traces.iter().enumerate() {
            violations.extend(crate::oracles::check_stage_order(i as u32, node_trace));
        }
        // And the strictly stronger cross-node view: every delivered
        // PDU's stitched span must be complete and stage-ordered at
        // every node.
        violations.extend(crate::oracles::check_spans(&traces));
        violations.sort_by(|a, b| a.category.cmp(&b.category).then(a.detail.cmp(&b.detail)));
    }
    let peak_held = sim
        .nodes()
        .map(|(_, n)| n.entity().peak_held_pdus())
        .max()
        .unwrap_or(0);
    let ret_pdus = sim
        .nodes()
        .map(|(_, n)| n.entity().metrics().ret_sent())
        .sum();
    let retransmissions = sim
        .nodes()
        .map(|(_, n)| n.entity().metrics().retransmissions_sent())
        .sum();
    let network = sc.network.kind();
    let recorders = sim
        .nodes()
        .enumerate()
        .map(|(i, (_, n))| RecorderDump::capture(node::recorder(n), i as u32, C::NAME, network))
        .collect();
    let report = RunReport {
        violations,
        digest: sim.trace_digest(),
        event_digest: fold_digests(sim.nodes().map(|(_, n)| node::event_digest(n))),
        stats: sim.stats(),
        makespan_us: sim.now().as_micros(),
        peak_held,
        ret_pdus,
        retransmissions,
        latency: LatencyStats::from_events(&events),
        recorders,
        broadcasts: events
            .iter()
            .copied()
            .flatten()
            .filter(|e| matches!(e, AppEvent::Broadcast { .. }))
            .count(),
        deliveries: events
            .iter()
            .copied()
            .flatten()
            .filter(|e| matches!(e, AppEvent::Deliver { .. }))
            .count(),
    };
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Submit;

    fn tiny_scenario() -> Scenario {
        Scenario {
            core: "co".to_string(),
            n: 3,
            seed: 11,
            window: 4,
            deferral_us: 1_000,
            selective: true,
            inbox_capacity: 64,
            proc_time_us: 10,
            drain_batch: 1,
            delay_min_us: 200,
            delay_max_us: 400,
            payload: 16,
            workload: vec![
                Submit { at_us: 0, node: 0 },
                Submit {
                    at_us: 500,
                    node: 1,
                },
                Submit {
                    at_us: 900,
                    node: 2,
                },
            ],
            faults: vec![],
            break_delivery: false,
            network: NetworkSpec::Uniform,
        }
    }

    #[test]
    fn fault_free_scenario_is_clean() {
        let report = run_scenario(&tiny_scenario());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.broadcasts, 3);
        assert_eq!(report.deliveries, 9, "3 messages × 3 entities");
        assert!(report.makespan_us > 0);
    }

    #[test]
    fn cut_link_delays_but_does_not_break_the_service() {
        let mut sc = tiny_scenario();
        sc.faults = vec![FaultEvent::CutLink {
            from: 0,
            to: 1,
            from_us: 0,
            to_us: 5_000,
        }];
        let report = run_scenario(&sc);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.stats.link_drops > 0, "the cut must actually bite");
    }

    #[test]
    fn crash_restart_preserves_the_service() {
        let mut sc = tiny_scenario();
        sc.faults = vec![FaultEvent::CrashRestart {
            node: 1,
            at_us: 700,
        }];
        let report = run_scenario(&sc);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.deliveries, 9);
    }

    #[test]
    fn pause_node_with_tiny_inbox_forces_overrun_recovery() {
        let mut sc = tiny_scenario();
        sc.inbox_capacity = 2;
        sc.workload = (0..8)
            .map(|k| Submit {
                at_us: k * 100,
                node: 0,
            })
            .collect();
        sc.faults = vec![FaultEvent::PauseNode {
            node: 1,
            from_us: 50,
            to_us: 10_000,
        }];
        let report = run_scenario(&sc);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.stats.overrun_drops > 0,
            "the pause must overflow the 2-PDU inbox"
        );
    }

    #[test]
    fn same_seed_same_event_digest() {
        let mut sc = tiny_scenario();
        // A lossy schedule so the digest covers recovery events too.
        sc.faults = vec![FaultEvent::LossBurst {
            from_us: 100,
            to_us: 1_500,
        }];
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.digest, b.digest, "wire schedule must replay");
        assert_eq!(a.event_digest, b.event_digest, "event stream must replay");
        assert_ne!(a.event_digest, 0, "digest must cover a non-empty stream");
    }

    #[test]
    fn event_digest_is_trace_independent() {
        // Retaining the full log must not perturb the digest: it is the
        // same stream either way.
        let sc = tiny_scenario();
        let untraced = run_scenario(&sc);
        let (traced, traces) = run_scenario_traced(&sc);
        assert_eq!(untraced.event_digest, traced.event_digest);
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn traced_run_passes_stage_order_oracle() {
        // Crash-restart included: the observer survives the incarnation
        // change, so the stage chains must still close afterwards.
        let mut sc = tiny_scenario();
        sc.faults = vec![FaultEvent::CrashRestart {
            node: 1,
            at_us: 700,
        }];
        let (report, traces) = run_scenario_traced(&sc);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let delivered = traces
            .iter()
            .flatten()
            .filter(|e| matches!(e, ProtocolEvent::Delivered { .. }))
            .count();
        assert_eq!(delivered, 9, "3 messages × 3 entities, in the trace");
    }

    #[test]
    fn break_delivery_is_caught_as_atomicity() {
        let mut sc = tiny_scenario();
        sc.break_delivery = true;
        let report = run_scenario(&sc);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.category == crate::oracles::Category::Atomicity),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn every_core_runs_the_tiny_scenario_clean() {
        for core in CORE_NAMES {
            let mut sc = tiny_scenario();
            sc.core = core.to_string();
            let report = run_scenario(&sc);
            assert!(
                report.violations.is_empty(),
                "core {core}: {:?}",
                report.violations
            );
            assert_eq!(report.broadcasts, 3, "core {core}");
            assert_eq!(report.deliveries, 9, "core {core}: 3 messages × 3 entities");
        }
    }

    #[test]
    fn every_core_is_deterministic_per_seed() {
        for core in CORE_NAMES {
            let mut sc = tiny_scenario();
            sc.core = core.to_string();
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(a.digest, b.digest, "core {core}: wire schedule");
            assert_eq!(a.event_digest, b.event_digest, "core {core}: event stream");
        }
    }

    #[test]
    fn break_delivery_is_caught_on_every_core() {
        // The injected bug lives in the harness node, not the engine, so
        // the oracles must convict it identically no matter which core is
        // underneath.
        for core in CORE_NAMES {
            let mut sc = tiny_scenario();
            sc.core = core.to_string();
            sc.break_delivery = true;
            let report = run_scenario(&sc);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.category == crate::oracles::Category::Atomicity),
                "core {core}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn traced_runs_skip_stage_oracles_off_the_reference_core() {
        // Hybrid and sender cores never pre-ack, so arming the trace must
        // not convict them of stage-order violations.
        for core in ["hybrid", "sender"] {
            let mut sc = tiny_scenario();
            sc.core = core.to_string();
            let (report, _traces) = run_scenario_traced(&sc);
            assert!(
                report.violations.is_empty(),
                "core {core}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown delivery core")]
    fn unknown_core_panics_with_the_known_list() {
        let mut sc = tiny_scenario();
        sc.core = "quantum".to_string();
        run_scenario(&sc);
    }

    #[test]
    fn every_network_preset_runs_clean_on_every_core() {
        for preset in crate::plan::NETWORK_PRESETS {
            for core in CORE_NAMES {
                let mut sc = tiny_scenario();
                sc.core = core.to_string();
                sc.network = NetworkSpec::preset(preset).unwrap();
                let report = run_scenario(&sc);
                assert!(
                    report.violations.is_empty(),
                    "core {core} × network {preset}: {:?}",
                    report.violations
                );
                assert_eq!(report.deliveries, 9, "core {core} × network {preset}");
                assert!(
                    report.latency.samples == 9 && report.latency.max_us >= report.latency.mean_us,
                    "core {core} × network {preset}: latency {:?}",
                    report.latency
                );
            }
        }
    }

    #[test]
    fn every_network_preset_is_deterministic_per_seed() {
        for preset in crate::plan::NETWORK_PRESETS {
            let mut sc = tiny_scenario();
            sc.network = NetworkSpec::preset(preset).unwrap();
            let a = run_scenario(&sc);
            let b = run_scenario(&sc);
            assert_eq!(a.digest, b.digest, "network {preset}: wire schedule");
            assert_eq!(a.event_digest, b.event_digest, "network {preset}: events");
            assert_eq!(a.makespan_us, b.makespan_us, "network {preset}: makespan");
        }
    }

    #[test]
    fn uniform_network_spec_matches_the_legacy_configuration() {
        // `NetworkSpec::Uniform` must lower to exactly what the checker
        // built before the network dimension existed: the committed
        // reproducer corpus replays through this path.
        let sc = tiny_scenario();
        let model = network_model(&sc);
        assert_eq!(model.bandwidth, BandwidthModel::Unlimited);
        assert_eq!(
            model.delay,
            DelayModel::Jitter {
                min: SimDuration::from_micros(200),
                max: SimDuration::from_micros(400),
            }
        );
        let mut flat = sc.clone();
        flat.delay_max_us = flat.delay_min_us;
        assert_eq!(
            network_model(&flat).delay,
            DelayModel::Uniform(SimDuration::from_micros(200))
        );
    }

    #[test]
    fn network_models_change_the_schedule_but_not_the_outcome() {
        // Same scenario, different network: the wire schedule must move
        // (the model is real) while the service stays intact (checked
        // above); broadcast counts are workload-determined and identical.
        let base = run_scenario(&tiny_scenario());
        for preset in ["contended", "asymmetric", "wan"] {
            let mut sc = tiny_scenario();
            sc.network = NetworkSpec::preset(preset).unwrap();
            let report = run_scenario(&sc);
            assert_eq!(report.broadcasts, base.broadcasts, "network {preset}");
            assert_ne!(
                report.digest, base.digest,
                "network {preset} must perturb the wire schedule"
            );
        }
    }

    #[test]
    fn contended_preset_accrues_serialization_wait() {
        // A burst of back-to-back submits through a 2 MB/s NIC must queue:
        // the serialization-wait gauge is the witness that bandwidth
        // contention actually engaged.
        let mut sc = tiny_scenario();
        sc.network = NetworkSpec::preset("contended").unwrap();
        sc.workload = (0..12)
            .map(|k| Submit {
                at_us: k * 10,
                node: 0,
            })
            .collect();
        let report = run_scenario(&sc);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(
            report.stats.ser_wait_us > 0,
            "burst through a shared link must queue ({:?})",
            report.stats
        );
    }
}
