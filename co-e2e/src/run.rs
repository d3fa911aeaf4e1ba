//! Runs one workload: repetitions, correctness check, metrics.
//!
//! A run is a series of repetitions — fresh cluster, same seed — so that
//! wall-clock metrics can be reported as the median repetition and set-up
//! is measured several times. Sim repetitions are fixed work and must
//! agree on every count; `thr-*` repetitions are fixed duration and their
//! latency samples are pooled. A traced run spends its last repetition
//! with spans on and reports the per-layer metrics from it.

use std::path::PathBuf;
use std::time::Instant;

use crate::check::{self, CheckReport, DeliveryRecord};
use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::sim::{self, ProductCounts, SimRep, Stages};
use crate::stats::{median, p50_p99, quantile, rel_spread};
use crate::thr::{self, ThrRep};
use crate::trace::{self, Op};
use crate::workload::{Driver, Layer, Scale, Workload, WORKLOADS};

/// Sim repetitions an untraced run makes at least.
const MIN_SIM_REPS: usize = 3;

/// `thr-*` repetitions an untraced run makes at least; each lasts this
/// share of `--seconds`.
const THR_REPS: usize = 16;

/// A `thr-*` run goes on past [`THR_REPS`] repetitions, up to this many
/// times as long, while its calmest repetitions still disagree (see
/// [`calm_floor`]).
const MAX_THR_STRETCH: usize = 2;

/// How far apart, relative to the lowest, the calmest quarter of the p99
/// readings may lie for the run to stop.
const CALM_AGREEMENT: f64 = 0.20;

/// Untraced repetitions a traced run makes before the traced one; they
/// give `harness.rep_spread` and the base of `trace_overhead_ratio`.
const TRACED_RUN_PLAIN_REPS: usize = 2;

/// A run is invalid if the generator's median lateness exceeds this share
/// of the median latency (see README.md, "Open-loop hygiene", for why the
/// median and not the issue's p99).
const MAX_LATE_SHARE: f64 = 0.10;

/// The traced run fails below this `harness.layer_coverage`.
const MIN_COVERAGE: f64 = 0.90;

/// `co-protocol.slow_path_ratio` the lossy workload must reach.
const MIN_LOSSY_SLOW_PATH: f64 = 0.02;

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed of the schedule and the simulated network.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Full or smoke sizes.
    pub scale: Scale,
    /// Where the traced run writes `<workload>.spans.jsonl`.
    pub out_dir: PathBuf,
}

/// Why a run produced no valid result.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The correctness check rejected a repetition.
    Incorrect {
        rep: usize,
        why: String,
        missing: u64,
        attempted: u64,
    },
    /// Sim repetitions of one seed disagreed on a count.
    Nondeterministic { rep: usize, what: &'static str },
    /// The open-loop generator ran too late for the latencies to mean much.
    LateGenerator {
        late_p50_us: f64,
        late_p99_us: f64,
        lat_p50_us: f64,
    },
    /// Too few latency samples for p99 to have 10³ samples beyond it.
    TooFewSamples { samples: usize },
    /// The traced layers explain too little of the traced wall time.
    LowCoverage { coverage: f64 },
    /// The traced run contradicts what the workload exists to stress.
    IntentFailed { why: String },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Incorrect { rep, why, missing, attempted } => write!(
                f,
                "repetition {rep} failed the correctness check: {why} ({missing} of {attempted} deliveries missing)"
            ),
            RunError::Nondeterministic { rep, what } => {
                write!(f, "repetition {rep} disagrees with repetition 0 on {what} under the same seed")
            }
            RunError::LateGenerator { late_p50_us, late_p99_us, lat_p50_us } => write!(
                f,
                "invalid run: the generator's median lateness, {late_p50_us:.1} us (p99 {late_p99_us:.1} us), exceeds {:.0} % of lat_p50_us {lat_p50_us:.1}",
                MAX_LATE_SHARE * 100.0
            ),
            RunError::TooFewSamples { samples } => {
                write!(f, "only {samples} latency samples; p99 needs at least 100000")
            }
            RunError::LowCoverage { coverage } => write!(
                f,
                "harness.layer_coverage {coverage:.3} is below {MIN_COVERAGE}: the layer table does not reconcile with the traced wall time"
            ),
            RunError::IntentFailed { why } => write!(f, "workload intent not met: {why}"),
        }
    }
}

/// A valid run's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Deliveries expected, summed over repetitions. None is missing: a
    /// run with a missing delivery is an error, not a result.
    pub attempted: u64,
    /// `(name, value)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable extras (sample counts, digest, layer shares).
    pub notes: Vec<String>,
    /// Set when the run measured but is not a valid measurement (late
    /// generator, layer table that does not reconcile, workload that does
    /// not stress its layer): the metrics are printed for diagnosis, no
    /// result line is, and the exit code is non-zero.
    pub invalid: Option<RunError>,
}

impl RunResult {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// What every repetition of a sim workload must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    harness: sim::NodeCounts,
    product: ProductCounts,
    link_sends: u64,
    link_drops: u64,
    overrun_drops: u64,
    timers_fired: u64,
    sim_end_us: u64,
    lat_sum: u64,
    lat_count: usize,
    delivered_digest: u64,
}

impl Fingerprint {
    fn of(rep: &SimRep, check: &CheckReport) -> Fingerprint {
        Fingerprint {
            harness: rep.total,
            product: rep.product,
            link_sends: rep.net.link_sends,
            link_drops: rep.net.link_drops,
            overrun_drops: rep.net.overrun_drops,
            timers_fired: rep.net.timers_fired,
            sim_end_us: rep.sim_end_us,
            lat_sum: rep.lat_us.iter().map(|&v| u64::from(v)).sum(),
            lat_count: rep.lat_us.len(),
            delivered_digest: check.digest,
        }
    }

    fn first_difference(&self, other: &Fingerprint) -> Option<&'static str> {
        [
            (self.harness != other.harness, "the harness counts"),
            (self.product != other.product, "the product counters"),
            (
                (
                    self.link_sends,
                    self.link_drops,
                    self.overrun_drops,
                    self.timers_fired,
                ) != (
                    other.link_sends,
                    other.link_drops,
                    other.overrun_drops,
                    other.timers_fired,
                ),
                "the simulator statistics",
            ),
            (
                self.sim_end_us != other.sim_end_us,
                "the simulated end time",
            ),
            (
                (self.lat_sum, self.lat_count) != (other.lat_sum, other.lat_count),
                "the simulated latencies",
            ),
            (
                self.delivered_digest != other.delivered_digest,
                "the delivered digest",
            ),
        ]
        .into_iter()
        .find_map(|(differs, what)| differs.then_some(what))
    }
}

fn verify_rep(
    rep: usize,
    expected_hash: &[Vec<u64>],
    delivered: &[Vec<DeliveryRecord>],
) -> Result<CheckReport, RunError> {
    check::verify(expected_hash, delivered).map_err(|e| {
        let per_node: u64 = expected_hash.iter().map(|m| m.len() as u64).sum();
        RunError::Incorrect {
            rep,
            why: e.to_string(),
            missing: check::count_missing(expected_hash, delivered),
            attempted: per_node * delivered.len() as u64,
        }
    })
}

/// Repetition-level numbers both drivers produce.
#[derive(Debug, Default)]
struct Series {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    deliver_per_s: Vec<f64>,
    cpu_us_per_deliver: Vec<f64>,
    wire_bytes_per_deliver: Vec<f64>,
}

/// The end-to-end metrics from the repetitions' numbers, in table order.
/// `pick` reduces the two rates measured against the clock to one value:
/// the median for `thr-*`, the best repetition for `sim-*`.
fn end_to_end(
    series: &Series,
    pick: fn(&[f64], Better) -> f64,
    (p50, p99): (f64, f64),
) -> Vec<(&'static str, f64)> {
    let values = [
        median(&series.setup_s),
        pick(&series.deliver_per_s, Better::Higher),
        pick(&series.cpu_us_per_deliver, Better::Lower),
        p50,
        p99,
        median(&series.wire_bytes_per_deliver),
        procfs::peak_rss_mib(),
    ];
    END_TO_END.iter().map(|m| m.name).zip(values).collect()
}

/// The per-layer table of one traced repetition, keyed by metric name.
#[derive(Debug, Default)]
struct LayerTable(Vec<(&'static str, f64)>);

impl LayerTable {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unknown metric {name}"
        );
        self.0.push((name, value));
    }

    /// Every per-layer metric in table order; unset ones are 0 (a layer
    /// that does not exist under this driver).
    fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value)
            })
            .collect()
    }
}

/// The best of `values`. A sim repetition does exactly the same work every
/// time, and everything that disturbs it (the host taking the CPU away, a
/// neighbour on the same core, first touch of fresh memory) only ever adds
/// time, so the fastest repetition is the one closest to what the work
/// costs; on the builder VM the median of a run's repetitions moved by up
/// to 35 % between runs of unchanged code, the best by a few percent.
fn best(values: &[f64], better: Better) -> f64 {
    let fold = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(fold).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counts from `Entity::metrics()` and the ratios derived from them.
fn set_product_counts(t: &mut LayerTable, product: &ProductCounts, broadcasts: u64) {
    // Order of `co_observe::Counters::entries()`.
    let [data_sent, retransmissions_sent, ret_sent, ack_only_sent, accepted, accepted_from_reorder, delivered, _pre_acknowledged, f1, f2, duplicates, buffered_out_of_order, _discarded, flow_blocked, _ret_suppressed, ret_unservable] =
        product.map(|v| v as f64);
    t.set("co-protocol.data_sent", data_sent);
    t.set("co-protocol.ack_only_sent", ack_only_sent);
    t.set("co-protocol.ret_sent", ret_sent);
    t.set("co-protocol.retransmissions_sent", retransmissions_sent);
    t.set("co-protocol.accepted", accepted);
    t.set("co-protocol.accepted_from_reorder", accepted_from_reorder);
    t.set("co-protocol.duplicates", duplicates);
    t.set("co-protocol.buffered_out_of_order", buffered_out_of_order);
    t.set("co-protocol.f1_detections", f1);
    t.set("co-protocol.f2_detections", f2);
    t.set("co-protocol.flow_blocked", flow_blocked);
    t.set("co-protocol.ret_unservable", ret_unservable);
    t.set("co-protocol.delivered", delivered);
    let pdus_sent = data_sent + retransmissions_sent + ret_sent + ack_only_sent;
    t.set(
        "co-protocol.pdus_per_broadcast",
        ratio(pdus_sent, broadcasts as f64),
    );
    // Data PDUs a node received and looked at: accepted in order, accepted
    // later out of the reorder buffer, or dropped as duplicates.
    let data_received = accepted + duplicates + buffered_out_of_order;
    t.set("co-protocol.dup_ratio", ratio(duplicates, data_received));
    t.set(
        "co-protocol.slow_path_ratio",
        ratio(
            buffered_out_of_order + duplicates + retransmissions_sent,
            data_received,
        ),
    );
}

fn set_stages(t: &mut LayerTable, stages: &Stages) {
    const NAMES: [(&str, &str); 4] = [
        (
            "co-protocol.submit_to_accept_p50_us",
            "co-protocol.submit_to_accept_p99_us",
        ),
        (
            "co-protocol.accept_to_preack_p50_us",
            "co-protocol.accept_to_preack_p99_us",
        ),
        (
            "co-protocol.accept_to_deliver_p50_us",
            "co-protocol.accept_to_deliver_p99_us",
        ),
        ("co-protocol.ret_rtt_p50_us", "co-protocol.ret_rtt_p99_us"),
    ];
    for ((p50, p99), h) in NAMES.into_iter().zip(stages) {
        t.set(p50, h.quantile_us(0.50) as f64);
        t.set(p99, h.quantile_us(0.99) as f64);
    }
}

/// Self time of the three product layers in a traced sim repetition, s.
fn product_layer_self_s(rep: &SimRep) -> [(Layer, f64); 3] {
    let tr = &rep.tracer;
    [
        (
            Layer::Wire,
            tr.stat(Op::Encode).busy_s() + tr.stat(Op::Decode).busy_s(),
        ),
        (
            Layer::Protocol,
            tr.self_s(Op::Submit) + tr.self_s(Op::OnPdus) + tr.self_s(Op::OnTick),
        ),
        (Layer::Observe, tr.stat(Op::Observer).busy_s()),
    ]
}

fn sim_layer_table(rep: &SimRep, plain_walls: &[f64], lat_samples: usize) -> LayerTable {
    let mut t = LayerTable::default();
    let tr = &rep.tracer;
    let (enc, dec) = (tr.stat(Op::Encode), tr.stat(Op::Decode));
    t.set("co-wire.encode_calls", enc.calls as f64);
    t.set("co-wire.encode_busy_s", enc.busy_s());
    t.set(
        "co-wire.encode_ns_per_pdu",
        ratio(enc.busy_ns as f64, enc.calls as f64),
    );
    t.set("co-wire.decode_pdus", rep.timed.pdus_decoded as f64);
    t.set("co-wire.decode_busy_s", dec.busy_s());
    t.set(
        "co-wire.decode_ns_per_pdu",
        ratio(dec.busy_ns as f64, rep.timed.pdus_decoded as f64),
    );
    t.set("co-wire.decode_rejected", rep.timed.decode_corrupt as f64);
    t.set("co-wire.bytes_sent", rep.timed.wire_bytes as f64);
    let copies = (rep.delivered.len() - 1) as f64;
    t.set(
        "co-wire.bytes_per_pdu",
        ratio(
            rep.timed.wire_bytes as f64,
            rep.timed.frames_encoded as f64 * copies,
        ),
    );

    let (submit, on_pdus, on_tick) = (
        tr.stat(Op::Submit),
        tr.stat(Op::OnPdus),
        tr.stat(Op::OnTick),
    );
    t.set("co-protocol.submit_calls", submit.calls as f64);
    t.set("co-protocol.submit_busy_s", tr.self_s(Op::Submit));
    t.set("co-protocol.on_pdus_calls", on_pdus.calls as f64);
    t.set("co-protocol.on_pdus_pdus", rep.timed.pdus_decoded as f64);
    t.set("co-protocol.on_pdus_busy_s", tr.self_s(Op::OnPdus));
    t.set(
        "co-protocol.on_pdus_ns_per_pdu",
        ratio(tr.self_s(Op::OnPdus) * 1e9, rep.timed.pdus_decoded as f64),
    );
    t.set(
        "co-protocol.pdus_per_batch",
        ratio(rep.timed.pdus_decoded as f64, on_pdus.calls as f64),
    );
    t.set("co-protocol.on_tick_calls", on_tick.calls as f64);
    t.set("co-protocol.on_tick_busy_s", tr.self_s(Op::OnTick));
    t.set(
        "co-protocol.on_tick_useful_ratio",
        ratio(rep.timed.ticks_useful as f64, rep.timed.ticks as f64),
    );
    t.set("co-protocol.rejected_pdus", rep.timed.rejected_pdus as f64);
    set_product_counts(
        &mut t,
        &rep.product,
        rep.timed.submits - rep.timed.submit_refused,
    );
    set_stages(&mut t, &rep.stages);
    t.set("co-protocol.peak_held_pdus", rep.peak_held_pdus as f64);
    t.set("co-protocol.state_bytes_max", rep.peak_state_bytes as f64);
    t.set("co-protocol.pending_submits_max", rep.peak_pending as f64);

    let obs = tr.stat(Op::Observer);
    t.set("co-observe.events", obs.calls as f64);
    t.set("co-observe.on_event_busy_s", obs.busy_s());
    t.set(
        "co-observe.ns_per_event",
        ratio(obs.busy_ns as f64, obs.calls as f64),
    );
    t.set("co-observe.live_findings", rep.live_findings as f64);

    // Whatever of the run's wall time was not spent inside a node callback
    // was spent in the simulator: event queue, frame fan-out, loss draws.
    let callbacks_s = tr.stat(Op::Callback).busy_s();
    let net_self_s = (rep.wall_s - callbacks_s).max(0.0);
    t.set("mc-net.events", rep.events as f64);
    t.set("mc-net.self_busy_s", net_self_s);
    t.set(
        "mc-net.ns_per_event",
        ratio(net_self_s * 1e9, rep.events as f64),
    );
    t.set(
        "mc-net.link_sends",
        (rep.net.link_sends - rep.net_warm.link_sends) as f64,
    );
    t.set(
        "mc-net.link_drops",
        (rep.net.link_drops - rep.net_warm.link_drops) as f64,
    );
    t.set(
        "mc-net.overrun_drops",
        (rep.net.overrun_drops - rep.net_warm.overrun_drops) as f64,
    );
    t.set("mc-net.inbox_peak", rep.inbox_peak as f64);
    t.set(
        "mc-net.timers_fired",
        (rep.net.timers_fired - rep.net_warm.timers_fired) as f64,
    );

    // What the callbacks spent outside any product call is the harness's
    // own glue: action dispatch, payload hashing, records, clock reads.
    let product_s: f64 = product_layer_self_s(rep).iter().map(|&(_, s)| s).sum();
    let harness_s = (callbacks_s - product_s).max(0.0);
    t.set("harness.self_busy_s", harness_s);
    t.set("harness.lat_samples", lat_samples as f64);
    t.set("harness.rep_spread", rel_spread(plain_walls));
    t.set(
        "harness.trace_overhead_ratio",
        ratio(rep.wall_s, best(plain_walls, Better::Lower)),
    );
    t.set(
        "harness.layer_coverage",
        ratio(product_s + net_self_s, rep.wall_s),
    );
    t
}

fn check_sim_intent(
    wl: &Workload,
    rep: &SimRep,
    table: &LayerTable,
    notes: &mut Vec<String>,
) -> Result<(), RunError> {
    let layers = product_layer_self_s(rep);
    let total: f64 = layers.iter().map(|&(_, s)| s).sum();
    let mut ranked = layers;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "layer self time: {}",
        ranked
            .iter()
            .map(|(l, s)| format!(
                "{} {:.3} s ({:.0} %)",
                l.name(),
                s,
                100.0 * ratio(*s, total)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if let Some(want) = wl.top_layer {
        if ranked[0].0 != want {
            return Err(RunError::IntentFailed {
                why: format!(
                    "top product layer is {}, not {}",
                    ranked[0].0.name(),
                    want.name()
                ),
            });
        }
    }
    let slow = table
        .0
        .iter()
        .find(|(n, _)| *n == "co-protocol.slow_path_ratio")
        .map_or(0.0, |&(_, v)| v);
    if wl.lossy && slow < MIN_LOSSY_SLOW_PATH {
        return Err(RunError::IntentFailed {
            why: format!(
                "slow_path_ratio {slow:.4} below {MIN_LOSSY_SLOW_PATH} on the lossy workload"
            ),
        });
    }
    if !wl.lossy && slow != 0.0 {
        return Err(RunError::IntentFailed {
            why: format!("slow_path_ratio {slow:.6} is not 0 on a lossless workload"),
        });
    }
    if !wl.lossy && rep.live_findings != 0 {
        return Err(RunError::IntentFailed {
            why: format!("{} live findings on a lossless workload", rep.live_findings),
        });
    }
    Ok(())
}

fn check_coverage(metrics: &[(&'static str, f64)]) -> Option<RunError> {
    let coverage = metrics
        .iter()
        .find(|(n, _)| *n == "harness.layer_coverage")
        .map_or(0.0, |&(_, v)| v);
    (coverage < MIN_COVERAGE).then_some(RunError::LowCoverage { coverage })
}

fn run_sim(wl: &Workload, opts: &RunOptions) -> Result<RunResult, RunError> {
    let msgs = wl.msgs_for(opts.scale, 0.0);
    let started = Instant::now();
    let mut series = Series::default();
    let mut first: Option<(Fingerprint, Vec<u32>)> = None;
    let mut attempted = 0;
    let mut notes = Vec::new();
    let mut rep_no = 0;
    // An untraced run repeats until the time is up; a traced run makes a
    // fixed number of plain repetitions, then the traced one.
    let more_plain = |done: usize| {
        if opts.trace {
            done < TRACED_RUN_PLAIN_REPS
        } else {
            done < MIN_SIM_REPS || started.elapsed().as_secs_f64() < opts.seconds
        }
    };
    while more_plain(rep_no) {
        let mut rep = sim::run_rep(wl, msgs, opts.seed, false);
        let check = verify_rep(rep_no, &rep.schedule.payload_hash, &rep.delivered)?;
        if rep.total.decode_corrupt + rep.total.rejected_pdus + rep.total.submit_refused != 0 {
            return Err(RunError::Incorrect {
                rep: rep_no,
                why: format!(
                    "{} corrupt frames, {} rejected PDUs, {} refused submits",
                    rep.total.decode_corrupt, rep.total.rejected_pdus, rep.total.submit_refused
                ),
                missing: 0,
                attempted: check.expected,
            });
        }
        attempted += check.expected;
        let print = Fingerprint::of(&rep, &check);
        let deliveries = rep.timed.deliveries as f64;
        series.setup_s.push(rep.setup_s);
        series.wall_s.push(rep.wall_s);
        series.deliver_per_s.push(deliveries / rep.wall_s);
        series.cpu_us_per_deliver.push(rep.cpu_s * 1e6 / deliveries);
        series
            .wire_bytes_per_deliver
            .push(rep.timed.wire_bytes as f64 / deliveries);
        match &first {
            None => {
                notes.push(format!(
                    "per repetition: {} messages, {} deliveries ({} timed), digest {:016x}",
                    rep.schedule.total_msgs(),
                    check.delivered,
                    rep.timed.deliveries,
                    check.digest
                ));
                first = Some((print, std::mem::take(&mut rep.lat_us)));
            }
            Some((base, _)) => {
                if let Some(what) = base.first_difference(&print) {
                    return Err(RunError::Nondeterministic { rep: rep_no, what });
                }
            }
        }
        rep_no += 1;
    }
    let (base, mut lat_us) = first.expect("at least one repetition ran");
    if opts.scale == Scale::Full && lat_us.len() < 100_000 {
        return Err(RunError::TooFewSamples {
            samples: lat_us.len(),
        });
    }
    notes.push(format!(
        "{} repetitions, {} latency samples each; timed wall s: {}",
        rep_no,
        lat_us.len(),
        series
            .wall_s
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !opts.trace {
        return Ok(RunResult {
            attempted,
            metrics: end_to_end(&series, best, p50_p99(&mut lat_us)),
            notes,
            invalid: None,
        });
    }

    let rep = sim::run_rep(wl, msgs, opts.seed, true);
    let check = verify_rep(rep_no, &rep.schedule.payload_hash, &rep.delivered)?;
    attempted += check.expected;
    // Spans must not change what the product does, only how long it takes.
    if let Some(what) = base.first_difference(&Fingerprint::of(&rep, &check)) {
        return Err(RunError::Nondeterministic { rep: rep_no, what });
    }
    let mut table = sim_layer_table(&rep, &series.wall_s, lat_us.len());
    table.set("harness.undelivered_frac", 0.0);
    let spans_path = opts.out_dir.join(format!("{}.spans.jsonl", wl.name));
    match trace::write_spans(&spans_path, wl.name, rep.tracer.spans()) {
        Ok(()) => notes.push(format!(
            "{} sampled spans in {}",
            rep.tracer.spans().len(),
            spans_path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", spans_path.display())),
    }
    let intent = check_sim_intent(wl, &rep, &table, &mut notes);
    let metrics = table.into_metrics();
    let invalid = intent.err().or_else(|| check_coverage(&metrics));
    Ok(RunResult {
        attempted,
        metrics,
        notes,
        invalid,
    })
}

fn thr_layer_table(
    wl: &Workload,
    rep: &ThrRep,
    plain_walls: &[f64],
    plain_cpu_per_deliver: f64,
    lat_samples: usize,
    late_p99: f64,
) -> LayerTable {
    let mut t = LayerTable::default();
    let pdus_sent = rep.product[0] + rep.product[1] + rep.product[2] + rep.product[3];
    let copies = (wl.n - 1) as f64;
    let pdus_processed = rep.tco_ns.len() as f64;
    // From outside the node threads only counts are visible for the codec
    // and the engine; their time is inside Tco.
    t.set("co-wire.encode_calls", pdus_sent as f64);
    t.set("co-wire.decode_pdus", pdus_processed);
    t.set("co-wire.bytes_sent", rep.wire_bytes as f64);
    t.set(
        "co-wire.bytes_per_pdu",
        ratio(rep.wire_bytes as f64, pdus_sent as f64 * copies),
    );
    t.set("co-protocol.submit_calls", rep.schedule.total_msgs() as f64);
    t.set("co-protocol.on_pdus_pdus", pdus_processed);
    set_product_counts(&mut t, &rep.product, rep.schedule.total_msgs());
    set_stages(&mut t, &rep.stages);
    t.set("co-observe.events", rep.trace_events as f64);
    t.set("co-observe.live_findings", rep.findings as f64);

    let mut tco: Vec<f64> = rep.tco_ns.iter().map(|&v| v as f64).collect();
    tco.sort_by(f64::total_cmp);
    let tco_busy_s = tco.iter().sum::<f64>() / 1e9;
    t.set("co-transport.pdus_processed", pdus_processed);
    t.set("co-transport.tco_p50_ns", quantile(&tco, 0.50));
    t.set("co-transport.tco_p99_ns", quantile(&tco, 0.99));
    t.set("co-transport.tco_busy_s", tco_busy_s);
    // Tco covers the whole repetition and node CPU only its timed part, so
    // scale Tco to the timed share before taking the remainder.
    let timed_share = ratio(rep.deliveries_timed as f64, rep.deliveries_total as f64);
    let runtime_overhead_s = rep.node_cpu_s - tco_busy_s * timed_share;
    t.set("co-transport.runtime_overhead_s", runtime_overhead_s);
    t.set("co-transport.overrun_drops", rep.overrun_drops as f64);
    t.set("co-transport.shutdown_s", rep.shutdown_s);

    // The generator thread is the harness; what the process burned beyond
    // the entity threads is its sleep-then-spin loop.
    let generator_s = (rep.process_cpu_s - rep.node_cpu_s).max(0.0);
    t.set("harness.self_busy_s", generator_s);
    t.set("harness.gen_late_p99_us", late_p99);
    t.set("harness.lat_samples", lat_samples as f64);
    t.set("harness.rep_spread", rel_spread(plain_walls));
    let traced_cpu_per_deliver = rep.node_cpu_s * 1e6 / rep.deliveries_timed as f64;
    t.set(
        "harness.trace_overhead_ratio",
        ratio(traced_cpu_per_deliver, plain_cpu_per_deliver),
    );
    // Per-thread CPU read from /proc must add up to the process figure:
    // entity threads (Tco + runtime overhead) plus the generator.
    t.set(
        "harness.layer_coverage",
        ratio(rep.node_cpu_s + generator_s, rep.process_cpu_s),
    );
    t
}

/// A `thr-*` repetition boiled down to what the run reports.
struct ThrSummary {
    setup_s: f64,
    wall_s: f64,
    deliver_per_s: f64,
    cpu_us_per_deliver: f64,
    wire_bytes_per_deliver: f64,
    /// (p50, p99) of submit-due → deliver, µs.
    lat: (f64, f64),
    /// (p50, p99) of how late the generator made its submissions, µs.
    late: (f64, f64),
    samples: usize,
}

impl ThrSummary {
    fn of(rep: &mut ThrRep) -> ThrSummary {
        let deliveries = rep.deliveries_timed as f64;
        ThrSummary {
            setup_s: rep.setup_s,
            wall_s: rep.wall_s,
            deliver_per_s: deliveries / rep.wall_s,
            cpu_us_per_deliver: rep.node_cpu_s * 1e6 / deliveries,
            wire_bytes_per_deliver: rep.wire_bytes as f64 / rep.deliveries_total as f64,
            lat: p50_p99(&mut rep.lat_us),
            late: p50_p99(&mut rep.gen_late_us),
            samples: rep.lat_us.len(),
        }
    }
}

/// The mean of the lowest quarter of `readings`, and whether that quarter
/// agrees within [`CALM_AGREEMENT`].
///
/// On a shared box the host delays thread wake-ups in bursts (the p99
/// wake-up delay of an *idle* thread moved between 0.1 ms and 50 ms
/// within a minute on the builder VM), and the delays sit right at the
/// 99th percentile: one run's repetitions read 680 to 2500 µs, and a run
/// that fell wholly into a burst read 3 ms throughout. A delay only ever
/// adds latency, so the lowest readings are the ones closest to the
/// product's own; the calmest quarter, not the single lowest, so that one
/// lucky repetition does not set the figure.
fn calm_floor(readings: &[f64]) -> (f64, bool) {
    let mut sorted = readings.to_vec();
    sorted.sort_by(f64::total_cmp);
    let calmest = &sorted[..sorted.len().div_ceil(4)];
    let (lowest, highest) = (calmest[0], calmest[calmest.len() - 1]);
    let floor = calmest.iter().sum::<f64>() / calmest.len() as f64;
    (floor, highest - lowest <= CALM_AGREEMENT * lowest)
}

fn run_thr(wl: &Workload, opts: &RunOptions) -> Result<RunResult, RunError> {
    let plain_reps = match (opts.scale, opts.trace) {
        (Scale::Smoke, _) => 2,
        (Scale::Full, true) => THR_REPS / 2,
        (Scale::Full, false) => THR_REPS,
    };
    let rep_seconds = opts.seconds / (plain_reps + usize::from(opts.trace)) as f64;
    let msgs = wl.msgs_for(opts.scale, rep_seconds);
    let mut attempted = 0;
    let mut notes = Vec::new();
    let mut reps: Vec<ThrSummary> = Vec::with_capacity(plain_reps);
    // Stop once the calmest repetitions agree on the tail latency; until
    // then a burst may still be covering the whole run.
    let settled =
        |reps: &[ThrSummary]| calm_floor(&reps.iter().map(|r| r.lat.1).collect::<Vec<_>>()).1;
    for rep_no in 0..MAX_THR_STRETCH * plain_reps {
        if rep_no >= plain_reps && settled(&reps) {
            break;
        }
        // Each repetition gets its own schedule (seed + repetition): the
        // samples add up, so repeating one schedule would add nothing.
        let mut rep = thr::run_rep(wl, msgs, opts.seed.wrapping_add(rep_no as u64), false);
        let check = verify_rep(rep_no, &rep.schedule.payload_hash, &rep.delivered)?;
        attempted += check.expected;
        if rep_no == 0 {
            notes.push(format!(
                "per repetition: {} messages over {:.2} s, digest {:016x}",
                rep.schedule.total_msgs(),
                rep_seconds,
                check.digest
            ));
        }
        reps.push(ThrSummary::of(&mut rep));
    }
    notes.push(format!(
        "latency p50/p99 per repetition, us: {}",
        reps.iter()
            .map(|r| format!("{:.0}/{:.0}", r.lat.0, r.lat.1))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let across = |pick: fn(&ThrSummary) -> f64| reps.iter().map(pick).collect::<Vec<f64>>();
    let series = Series {
        setup_s: across(|r| r.setup_s),
        wall_s: across(|r| r.wall_s),
        deliver_per_s: across(|r| r.deliver_per_s),
        cpu_us_per_deliver: across(|r| r.cpu_us_per_deliver),
        wire_bytes_per_deliver: across(|r| r.wire_bytes_per_deliver),
    };
    // Latency is reported from the calmest repetitions (see `calm_floor`).
    // The two rates stay medians: a disturbed repetition batches more and
    // so burns *less* CPU per delivery, and the best would select for
    // disturbance.
    let lat = (
        calm_floor(&across(|r| r.lat.0)).0,
        calm_floor(&across(|r| r.lat.1)).0,
    );
    let late = (median(&across(|r| r.late.0)), median(&across(|r| r.late.1)));
    let samples_all: usize = reps.iter().map(|r| r.samples).sum();
    notes.push(format!(
        "{} repetitions, {samples_all} latency samples; generator lateness p50 {:.1} us, p99 {:.1} us (median repetition)",
        reps.len(),
        late.0,
        late.1
    ));
    // The typical submission must be on time, or the run offered another
    // load than the schedule says and its latencies measure the generator.
    let late_generator = (late.0 > MAX_LATE_SHARE * lat.0).then_some(RunError::LateGenerator {
        late_p50_us: late.0,
        late_p99_us: late.1,
        lat_p50_us: lat.0,
    });
    if !opts.trace {
        let full_run =
            opts.scale == Scale::Full && opts.seconds >= f64::from(crate::manifest::RUN_SECONDS);
        let too_few = (full_run && samples_all < 100_000).then_some(RunError::TooFewSamples {
            samples: samples_all,
        });
        return Ok(RunResult {
            attempted,
            metrics: end_to_end(&series, |v, _| median(v), lat),
            notes,
            invalid: late_generator.or(too_few),
        });
    }

    let rep = thr::run_rep(wl, msgs, opts.seed.wrapping_add(reps.len() as u64), true);
    let check = verify_rep(reps.len(), &rep.schedule.payload_hash, &rep.delivered)?;
    attempted += check.expected;
    let mut table = thr_layer_table(
        wl,
        &rep,
        &series.wall_s,
        median(&series.cpu_us_per_deliver),
        samples_all,
        late.1,
    );
    table.set("harness.undelivered_frac", 0.0);
    if rep.findings != 0 {
        // Not an error here as it is on the simulator: a thread the host
        // stalls for milliseconds looks exactly like loss to its peers.
        notes.push(format!(
            "{} anomaly findings in the traced repetition (reported as co-observe.live_findings)",
            rep.findings
        ));
    }
    let metrics = table.into_metrics();
    let invalid = late_generator.or_else(|| check_coverage(&metrics));
    Ok(RunResult {
        attempted,
        metrics,
        notes,
        invalid,
    })
}

/// Runs `wl` as `opts` says.
///
/// # Errors
///
/// A [`RunError`] when the run produced no valid result.
pub fn run_workload(wl: &Workload, opts: &RunOptions) -> Result<RunResult, RunError> {
    let steal_before = procfs::host_steal_s();
    let mut result = match wl.driver {
        Driver::Sim => run_sim(wl, opts),
        Driver::Threads => run_thr(wl, opts),
    }?;
    result.notes.push(format!(
        "the host took {:.2} s of CPU away from this machine during the run",
        procfs::host_steal_s() - steal_before
    ));
    Ok(result)
}

/// `co-protocol`'s self time in a traced run's metrics, s; `get` looks a
/// per-layer metric up by name.
pub fn protocol_self_s(get: impl Fn(&str) -> Option<f64>) -> f64 {
    [
        "co-protocol.submit_busy_s",
        "co-protocol.on_pdus_busy_s",
        "co-protocol.on_tick_busy_s",
    ]
    .iter()
    .filter_map(|m| get(m))
    .sum()
}

/// The cross-workload intent of the n=64 pair, checked by `all --trace`
/// once both traced runs are in: the thin policy's `co-protocol` self time
/// is at most half the reference core's.
///
/// # Errors
///
/// [`RunError::IntentFailed`] when the gap is not there.
pub fn check_pair_intent(co_s: f64, hybrid_s: f64) -> Result<String, RunError> {
    if hybrid_s > 0.5 * co_s {
        return Err(RunError::IntentFailed {
            why: format!(
                "co-protocol self time on {} ({hybrid_s:.3} s) is more than half of {}'s ({co_s:.3} s)",
                WORKLOADS[1].name, WORKLOADS[0].name
            ),
        });
    }
    Ok(format!(
        "co-protocol self time: {} {co_s:.3} s, {} {hybrid_s:.3} s ({:.2}x)",
        WORKLOADS[0].name,
        WORKLOADS[1].name,
        ratio(co_s, hybrid_s)
    ))
}
