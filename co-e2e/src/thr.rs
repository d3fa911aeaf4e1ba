//! The *threads* driver: `co_transport::Cluster` (one OS thread per
//! entity, bounded channels, default `ClusterOptions`) fed by a single
//! open-loop generator thread on the wall clock.
//!
//! The generator sleeps until shortly before each submission falls due and
//! spins the rest of the way; latency is charged from the *due* time, so
//! a generator stall shows up in the latencies of the submissions it
//! delayed and in `harness.gen_late_p99_us`, not as reduced load.

use std::time::{Duration, Instant};

use co_observe::Histogram;
use co_protocol::{AckOnlyPdu, CoCore, DataPdu, Pdu, RetPdu};
use co_transport::{Cluster, ClusterOptions, NodeReport};

use crate::check::DeliveryRecord;
use crate::procfs;
use crate::sim::{is_node_local, ProductCounts, Stages};
use crate::workload::{hash64, Schedule, Workload};

/// The generator sleeps while the next submission is further away than
/// this, and spins once it is closer. Short, so the generator is asleep
/// most of the time: a thread that spins all the time is the scheduler's
/// first candidate for preemption on a small box, and then runs
/// milliseconds late.
const SPIN_WINDOW: Duration = Duration::from_micros(100);

/// Timer slack the generator thread asks for, ns. The default 50 µs slack
/// lets every sleep overshoot by that much, which the spin window could
/// not absorb.
const TIMER_SLACK_NS: &str = "1000";

/// After the last submission, how long the nodes get to finish delivering
/// before CPU is read and shutdown requested (≫ the ~2–3 ms latency).
const SETTLE: Duration = Duration::from_millis(50);

/// Name prefix `Cluster` gives its entity threads.
const NODE_THREAD_PREFIX: &str = "co-entity-";

/// Everything one repetition measured.
#[derive(Debug)]
pub struct ThrRep {
    /// The schedule the repetition ran.
    pub schedule: Schedule,
    /// Cluster start + schedule + warm-up (which runs in real time), s.
    pub setup_s: f64,
    /// Last timed delivery − first timed due time, s.
    pub wall_s: f64,
    /// CPU seconds the entity threads used over the timed part.
    pub node_cpu_s: f64,
    /// CPU seconds the whole process used over the timed part (entity
    /// threads + generator).
    pub process_cpu_s: f64,
    /// Timed deliveries, all nodes (own messages included).
    pub deliveries_timed: u64,
    /// Submit-due → deliver, wall µs, one per timed remote delivery.
    pub lat_us: Vec<u32>,
    /// How late each timed submission was made, µs after its due time.
    pub gen_late_us: Vec<u32>,
    /// Per-node delivery sequences, for the correctness check.
    pub delivered: Vec<Vec<DeliveryRecord>>,
    /// Product counters summed over nodes (whole repetition).
    pub product: ProductCounts,
    /// Encoded bytes put on the wire over the whole repetition, from the
    /// product counters and representative PDU sizes.
    pub wire_bytes: u64,
    /// Deliveries over the whole repetition, all nodes.
    pub deliveries_total: u64,
    /// Latency-stage histograms merged over nodes.
    pub stages: Stages,
    /// Per-PDU Tco samples of every node, ns.
    pub tco_ns: Vec<u64>,
    /// PDUs dropped at full inboxes, all nodes.
    pub overrun_drops: u64,
    /// Findings of the nodes' live detectors plus, in a traced run, of the
    /// cluster-wide span analysis.
    pub findings: usize,
    /// Protocol events in the merged trace (traced runs only).
    pub trace_events: u64,
    /// How long `Cluster::shutdown` took, s.
    pub shutdown_s: f64,
}

/// Encoded length of each PDU kind for a cluster of `n` carrying
/// `payload` application bytes (plus `Cluster`'s 8-byte timestamp frame).
fn representative_lens(n: usize, payload: usize) -> (u64, u64, u64) {
    let ack = vec![causal_order::Seq::FIRST; n];
    let src = causal_order::EntityId::new(0);
    let data = Pdu::Data(DataPdu {
        cid: 1,
        src,
        seq: causal_order::Seq::FIRST,
        ack: ack.clone(),
        buf: 0,
        data: bytes::Bytes::from(vec![0u8; payload + 8]),
    });
    let ret = Pdu::Ret(RetPdu {
        cid: 1,
        src,
        lsrc: src,
        lseq: causal_order::Seq::FIRST,
        ack: ack.clone(),
        buf: 0,
    });
    let ack_only = Pdu::AckOnly(AckOnlyPdu {
        cid: 1,
        src,
        ack: ack.clone(),
        packed: ack.clone(),
        acked: ack,
        buf: 0,
    });
    (
        data.encoded_len() as u64,
        ret.encoded_len() as u64,
        ack_only.encoded_len() as u64,
    )
}

/// Blocks until `deadline`: sleep while it is far, spin when it is near.
fn wait_until(deadline: Instant) {
    loop {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            return;
        };
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one repetition: a fresh cluster, `msgs_per_sender` submissions per
/// sender at the workload's rate, shutdown, reports.
///
/// # Panics
///
/// Panics if the cluster cannot start or a node thread dies — the
/// benchmark has nothing to report then.
pub fn run_rep(wl: &Workload, msgs_per_sender: u32, seed: u64, traced: bool) -> ThrRep {
    let setup_started = Instant::now();
    let n = wl.n;
    let schedule = Schedule::generate(seed, n, wl.payload, wl.rate, msgs_per_sender);
    let merged = schedule.merged();
    let options = ClusterOptions {
        trace: traced,
        ..ClusterOptions::default()
    };
    // Best effort: without it sleeps overshoot and lateness grows, which the
    // run reports (and fails on) through `gen_late_p99_us`.
    let _ = std::fs::write("/proc/self/timerslack_ns", TIMER_SLACK_NS);
    let cluster = Cluster::start_with_core::<CoCore>(n, options).expect("cluster starts");
    let epoch = Instant::now();

    // When each submission was actually made, µs after the epoch.
    let mut submitted_us: Vec<Vec<u64>> =
        schedule.due_us.iter().map(|d| vec![0; d.len()]).collect();
    let mut gen_late_us = Vec::with_capacity(merged.len());
    let mut setup_s = 0.0;
    let mut cpu_at_boundary = None;
    for &(due, sender, k) in &merged {
        if cpu_at_boundary.is_none() && due >= schedule.warm_until_us {
            // First timed submission: warm-up (and with it set-up) ends.
            setup_s = setup_started.elapsed().as_secs_f64();
            cpu_at_boundary = Some((
                procfs::thread_cpu_s(NODE_THREAD_PREFIX),
                procfs::process_cpu_s(),
            ));
        }
        wait_until(epoch + Duration::from_micros(due));
        let at = epoch.elapsed().as_micros() as u64;
        cluster
            .submit(
                sender as usize,
                schedule.payload(sender as usize, k as usize),
            )
            .expect("entity thread alive");
        submitted_us[sender as usize][k as usize] = at;
        if due >= schedule.warm_until_us {
            gen_late_us.push(at.saturating_sub(due) as u32);
        }
    }
    std::thread::sleep(SETTLE);
    let (node_cpu_before, process_cpu_before) =
        cpu_at_boundary.expect("schedule has timed messages");
    let node_cpu_s = procfs::thread_cpu_s(NODE_THREAD_PREFIX) - node_cpu_before;
    let process_cpu_s = procfs::process_cpu_s() - process_cpu_before;
    let shutdown_started = Instant::now();
    let reports: Vec<NodeReport> = cluster.shutdown();
    let shutdown_s = shutdown_started.elapsed().as_secs_f64();

    let mut rep = ThrRep {
        setup_s,
        wall_s: 0.0,
        node_cpu_s,
        process_cpu_s,
        deliveries_timed: 0,
        lat_us: Vec::new(),
        gen_late_us,
        delivered: Vec::with_capacity(n),
        product: [0; 16],
        wire_bytes: 0,
        deliveries_total: 0,
        stages: [Histogram::new(); 4],
        tco_ns: Vec::new(),
        overrun_drops: 0,
        findings: 0,
        trace_events: 0,
        shutdown_s,
        schedule,
    };
    let schedule = &rep.schedule;
    let first_timed_due = schedule.warm_until_us;
    let mut last_delivery_us = first_timed_due;
    for (node, report) in reports.iter().enumerate() {
        // `tap_samples` holds one entry per *remote* delivery, in delivery
        // order: zip them back onto the remote entries of `delivered`.
        let mut taps = report.tap_samples.iter();
        let mut records = Vec::with_capacity(report.delivered.len());
        for (src, seq, payload) in &report.delivered {
            let (src, seq) = (src.index(), *seq);
            records.push(DeliveryRecord {
                src: src as u32,
                seq,
                payload_hash: hash64(payload),
            });
            let tap_us = if src == node {
                None
            } else {
                taps.next().map(|t| t.as_micros() as u64)
            };
            let k = (seq as usize).wrapping_sub(1);
            let Some(&due) = schedule.due_us.get(src).and_then(|d| d.get(k)) else {
                continue; // the correctness check reports it
            };
            if due < first_timed_due {
                continue;
            }
            rep.deliveries_timed += 1;
            if let Some(tap_us) = tap_us {
                let made = submitted_us[src][k];
                rep.lat_us.push((made.saturating_sub(due) + tap_us) as u32);
                last_delivery_us = last_delivery_us.max(made + tap_us);
            }
        }
        rep.deliveries_total += records.len() as u64;
        rep.delivered.push(records);
        for (slot, (_, v)) in rep
            .product
            .iter_mut()
            .zip(report.metrics.snapshot().entries())
        {
            *slot += v;
        }
        for (merged, (_, stage)) in rep.stages.iter_mut().zip(report.latency.stages()) {
            merged.merge(stage);
        }
        rep.tco_ns
            .extend(report.tco_samples.iter().map(|d| d.as_nanos() as u64));
        rep.overrun_drops += report.overrun_drops;
        rep.findings += report
            .live_findings
            .iter()
            .filter(|f| is_node_local(f))
            .count();
        rep.trace_events += report
            .trace
            .iter()
            .filter(|l| matches!(l, co_observe::TraceLine::Event { .. }))
            .count() as u64;
    }
    if let Some(spans) = reports.first().and_then(|r| r.span_report.as_ref()) {
        rep.findings += spans.findings.len();
    }
    rep.wall_s = (last_delivery_us - first_timed_due) as f64 / 1e6;
    let (data_len, ret_len, ack_only_len) = representative_lens(n, wl.payload);
    let metrics: u64 = reports
        .iter()
        .map(|r| {
            let m = &r.metrics;
            (m.data_sent() + m.retransmissions_sent()) * data_len
                + m.ret_sent() * ret_len
                + m.ack_only_sent() * ack_only_len
        })
        .sum();
    rep.wire_bytes = metrics * (n as u64 - 1);
    rep
}
