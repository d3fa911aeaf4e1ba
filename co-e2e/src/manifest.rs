//! The benchmark's contract: every metric by name, unit, direction and
//! regression bound, and the `BENCHMARK.json` rendered from them.
//!
//! These tables are the single source of truth. `co-e2e manifest` prints
//! the file; a test fails when the committed `BENCHMARK.json` drifts from
//! it; `co-e2e repeat` reads its bounds from here.

use crate::workload::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// The directory holding the benchmark, relative to the repo root.
pub const BENCH_DIR: &str = "co-e2e";

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload.
///
/// The issue's eighth metric, `undelivered_frac`, is the failed-operations
/// share and is 0 on every accepted run, which the benchmark contract does
/// not allow of an end-to-end metric; it travels as `failed` / `attempted`
/// in the result line and as `harness.undelivered_frac` instead.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "deliver_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_deliver",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "wire_bytes_per_deliver",
        unit: "B",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// One per-layer metric: `(name, unit, better)`. Names are `layer.metric`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics, printed by a traced run. A layer that does not
/// exist under a driver (`mc-net` on threads, `co-transport` on the
/// simulator) reports 0 there.
pub const PER_LAYER: [PerLayer; 73] = [
    // co-wire: the codec, timed around Pdu::encode / decode_batch_into.
    ("co-wire.encode_calls", "count", Lower),
    ("co-wire.encode_busy_s", "s", Lower),
    ("co-wire.encode_ns_per_pdu", "ns", Lower),
    ("co-wire.decode_pdus", "count", Lower),
    ("co-wire.decode_busy_s", "s", Lower),
    ("co-wire.decode_ns_per_pdu", "ns", Lower),
    ("co-wire.decode_rejected", "count", Lower),
    ("co-wire.bytes_sent", "B", Lower),
    ("co-wire.bytes_per_pdu", "B", Lower),
    // co-protocol, time: the three entry points, observer time taken out.
    ("co-protocol.submit_calls", "count", Lower),
    ("co-protocol.submit_busy_s", "s", Lower),
    ("co-protocol.on_pdus_calls", "count", Lower),
    ("co-protocol.on_pdus_pdus", "count", Lower),
    ("co-protocol.on_pdus_busy_s", "s", Lower),
    ("co-protocol.on_pdus_ns_per_pdu", "ns", Lower),
    ("co-protocol.pdus_per_batch", "ratio", Higher),
    ("co-protocol.on_tick_calls", "count", Lower),
    ("co-protocol.on_tick_busy_s", "s", Lower),
    ("co-protocol.on_tick_useful_ratio", "ratio", Higher),
    ("co-protocol.rejected_pdus", "count", Lower),
    // co-protocol, counts: Entity::metrics() summed over nodes.
    ("co-protocol.data_sent", "count", Lower),
    ("co-protocol.ack_only_sent", "count", Lower),
    ("co-protocol.ret_sent", "count", Lower),
    ("co-protocol.retransmissions_sent", "count", Lower),
    ("co-protocol.accepted", "count", Higher),
    ("co-protocol.accepted_from_reorder", "count", Lower),
    ("co-protocol.duplicates", "count", Lower),
    ("co-protocol.buffered_out_of_order", "count", Lower),
    ("co-protocol.f1_detections", "count", Lower),
    ("co-protocol.f2_detections", "count", Lower),
    ("co-protocol.flow_blocked", "count", Lower),
    ("co-protocol.ret_unservable", "count", Lower),
    ("co-protocol.delivered", "count", Higher),
    ("co-protocol.pdus_per_broadcast", "ratio", Lower),
    ("co-protocol.dup_ratio", "ratio", Lower),
    ("co-protocol.slow_path_ratio", "ratio", Lower),
    // co-protocol, waiting: LatencyTracker::stages() merged over nodes.
    ("co-protocol.submit_to_accept_p50_us", "us", Lower),
    ("co-protocol.submit_to_accept_p99_us", "us", Lower),
    ("co-protocol.accept_to_preack_p50_us", "us", Lower),
    ("co-protocol.accept_to_preack_p99_us", "us", Lower),
    ("co-protocol.accept_to_deliver_p50_us", "us", Lower),
    ("co-protocol.accept_to_deliver_p99_us", "us", Lower),
    ("co-protocol.ret_rtt_p50_us", "us", Lower),
    ("co-protocol.ret_rtt_p99_us", "us", Lower),
    // co-protocol, memory.
    ("co-protocol.peak_held_pdus", "count", Lower),
    ("co-protocol.state_bytes_max", "B", Lower),
    ("co-protocol.pending_submits_max", "count", Lower),
    // co-observe (with co-trace's LiveDetector): the observer stack.
    ("co-observe.events", "count", Lower),
    ("co-observe.on_event_busy_s", "s", Lower),
    ("co-observe.ns_per_event", "ns", Lower),
    ("co-observe.live_findings", "count", Lower),
    // mc-net (sim-* only): the harness floor.
    ("mc-net.events", "count", Lower),
    ("mc-net.self_busy_s", "s", Lower),
    ("mc-net.ns_per_event", "ns", Lower),
    ("mc-net.link_sends", "count", Lower),
    ("mc-net.link_drops", "count", Lower),
    ("mc-net.overrun_drops", "count", Lower),
    ("mc-net.inbox_peak", "count", Lower),
    ("mc-net.timers_fired", "count", Lower),
    // co-transport (thr-* only), from NodeReport.
    ("co-transport.pdus_processed", "count", Lower),
    ("co-transport.tco_p50_ns", "ns", Lower),
    ("co-transport.tco_p99_ns", "ns", Lower),
    ("co-transport.tco_busy_s", "s", Lower),
    ("co-transport.runtime_overhead_s", "s", Lower),
    ("co-transport.overrun_drops", "count", Lower),
    ("co-transport.shutdown_s", "s", Lower),
    // harness: validity of the run, not performance of the product.
    ("harness.self_busy_s", "s", Lower),
    ("harness.gen_late_p99_us", "us", Lower),
    ("harness.lat_samples", "count", Higher),
    ("harness.rep_spread", "ratio", Lower),
    ("harness.trace_overhead_ratio", "ratio", Lower),
    ("harness.layer_coverage", "ratio", Higher),
    ("harness.undelivered_frac", "ratio", Lower),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"{BENCH_DIR}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{BENCH_DIR}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let guarded: Vec<_> = WORKLOADS.iter().filter(|w| w.guarded).collect();
    for (i, w) in guarded.iter().enumerate() {
        let comma = if i + 1 < guarded.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better_str(m.better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better_str(*better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(well_formed_name(name), "bad name {name}");
            assert_eq!(
                names.iter().filter(|n| n == &name).count(),
                1,
                "{name} reused"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16, "unit {unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.guarded).count()));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `co-e2e manifest > BENCHMARK.json`"
        );
    }
}
