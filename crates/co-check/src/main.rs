//! The `co-check` explorer binary.
//!
//! ```text
//! co-check [--schedules N] [--seed S] [--core NAME] [--network NAME]
//!          [--break-delivery] [--out DIR] [--budget-secs T]
//!          [--replay FILE] [--trace-out FILE] [--force-loss-burst]
//!          [--batch K]
//! ```
//!
//! Explores `N` seeded adversarial schedules; on the first oracle
//! violation it shrinks the scenario and writes a JSON reproducer to
//! `DIR`, then exits with status 1. `--replay FILE` instead re-runs one
//! committed reproducer and verifies it still violates what it claims.
//!
//! `--trace-out FILE` runs each schedule traced (which also arms the
//! stage-order and span-consistency oracles) and writes the merged
//! cluster-wide JSONL trace of the *last* explored schedule to `FILE` —
//! feed it to `co-cli trace analyze`. `--force-loss-burst` appends a
//! cluster-wide loss burst over the early workload window to every
//! schedule, to provoke the recovery machinery (RET storms, F1/F2
//! clusters) on demand.
//!
//! `--batch K` forces every schedule's inbox-drain width to `K` instead
//! of the per-scenario random draw: `--batch 8` pushes all traffic
//! through the engine's batched acceptance (`Entity::on_pdus_into`),
//! `--batch 1` pins the strict per-PDU path.
//!
//! `--core NAME` runs every schedule on that delivery core (`co`,
//! `hybrid` or `sender`) instead of the default reference engine; the
//! same seeds generate the same schedules for every core, so core runs
//! race head-to-head on identical adversarial inputs.
//!
//! `--flight-recorder DEPTH` sizes the per-node flight recorder (default
//! 256 events, 0 disables retention). The recorder is always-on black-box
//! telemetry: when an oracle trips, the shrunken reproducer embeds every
//! node's last `DEPTH` protocol transitions under `flight_recorders`, and
//! per-node `recorder-*.jsonl` dumps land next to the reproducer — enough
//! to see the failing transition without re-running under `--trace-out`.
//!
//! `--json` prints the final report as one JSON object on stdout (clean
//! runs and violations alike) instead of the human-readable text, so CI
//! and scripts can consume the latency / peak-held / RET aggregates
//! directly.
//!
//! Both report forms (and `--replay`) end with `digest` and
//! `event_digest`: the FNV fold of every explored schedule's wire-trace
//! and protocol-event digests. Two builds that resolved the same `rand`
//! and print the same pair behaved bit-identically on every schedule —
//! `scripts/digest-diff.sh` automates that comparison between commits.
//!
//! `--network NAME` pins every schedule's network model to a named preset
//! (`uniform`, `contended`, `asymmetric` or `wan`) instead of the
//! per-scenario random draw. Like `--core`, the override happens *after*
//! generation, so a (core, network) matrix runs every cell on identical
//! workloads and fault plans — the held-PDU / RET / latency aggregates in
//! the final report are then directly comparable across cells.

use std::process::ExitCode;
use std::time::Instant;

use co_check::{
    fold_digests, run_scenario, run_scenario_observed, shrink, Category, FaultEvent, Json,
    NetworkSpec, Reproducer, Scenario, CORE_NAMES, NETWORK_PRESETS,
};
use co_observe::{jsonl, ProtocolEvent, TraceLine, DEFAULT_RECORDER_DEPTH};

/// The `--force-loss-burst` fault: a cluster-wide blackout across the
/// early workload window. Enough traffic lands inside it to exercise
/// F1/F2 detection and the RET machinery, and the quiet tail after the
/// fault horizon still lets the run quiesce cleanly.
const FORCED_LOSS_BURST: FaultEvent = FaultEvent::LossBurst {
    from_us: 500,
    to_us: 12_000,
};

struct Args {
    schedules: u64,
    seed: u64,
    core: Option<String>,
    network: Option<String>,
    break_delivery: bool,
    out: String,
    budget_secs: Option<u64>,
    replay: Option<String>,
    trace_out: Option<String>,
    force_loss_burst: bool,
    batch: Option<usize>,
    flight_recorder: usize,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        schedules: 100,
        seed: 0,
        core: None,
        network: None,
        break_delivery: false,
        out: ".".to_string(),
        budget_secs: None,
        replay: None,
        trace_out: None,
        force_loss_burst: false,
        batch: None,
        flight_recorder: DEFAULT_RECORDER_DEPTH,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--schedules" => {
                args.schedules = value("--schedules")?
                    .parse()
                    .map_err(|e| format!("--schedules: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--core" => {
                let core = value("--core")?;
                if !CORE_NAMES.contains(&core.as_str()) {
                    return Err(format!(
                        "--core: unknown delivery core `{core}` (known: {})",
                        CORE_NAMES.join(", ")
                    ));
                }
                args.core = Some(core);
            }
            "--network" => {
                let network = value("--network")?;
                if !NETWORK_PRESETS.contains(&network.as_str()) {
                    return Err(format!(
                        "--network: unknown preset `{network}` (known: {})",
                        NETWORK_PRESETS.join(", ")
                    ));
                }
                args.network = Some(network);
            }
            "--break-delivery" => args.break_delivery = true,
            "--out" => args.out = value("--out")?,
            "--budget-secs" => {
                args.budget_secs = Some(
                    value("--budget-secs")?
                        .parse()
                        .map_err(|e| format!("--budget-secs: {e}"))?,
                );
            }
            "--replay" => args.replay = Some(value("--replay")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--force-loss-burst" => args.force_loss_burst = true,
            "--batch" => {
                args.batch = Some(
                    value("--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?,
                );
            }
            "--flight-recorder" => {
                args.flight_recorder = value("--flight-recorder")?
                    .parse()
                    .map_err(|e| format!("--flight-recorder: {e}"))?;
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                return Err("usage: co-check [--schedules N] [--seed S] [--core NAME] \
                            [--network NAME] [--break-delivery] [--out DIR] \
                            [--budget-secs T] [--replay FILE] [--trace-out FILE] \
                            [--force-loss-burst] [--batch K] \
                            [--flight-recorder DEPTH] [--json]"
                    .to_string())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("co-check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match Reproducer::from_json_text(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("co-check: {path} is not a valid reproducer: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run_scenario(&rep.scenario);
    println!("replay of {path} ({})", rep.note);
    println!(
        "  digest {:#018x}  event digest {:#018x}",
        report.digest, report.event_digest
    );
    for v in &report.violations {
        println!("  {v}");
    }
    let missing: Vec<&String> = rep
        .expect
        .iter()
        .filter(|name| {
            !report
                .violations
                .iter()
                .any(|v| v.category.name() == name.as_str())
        })
        .collect();
    if missing.is_empty() {
        println!(
            "reproduced: all expected categories present ({})",
            rep.expect.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED to reproduce: missing categories {:?} (digest {:#018x})",
            missing, report.digest
        );
        ExitCode::FAILURE
    }
}

/// Merges the per-node event streams into one time-sorted, shared-epoch
/// JSONL trace — the same shape `co-transport` produces, so
/// `co-cli trace analyze` consumes either.
fn write_merged_trace(path: &str, traces: &[Vec<ProtocolEvent>]) -> std::io::Result<()> {
    let mut lines: Vec<TraceLine> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.iter().map(move |&event| TraceLine::Event {
                node: i as u32,
                event,
            })
        })
        .collect();
    lines.sort_by_key(TraceLine::t_us);
    let text: String = lines.iter().map(|l| jsonl::encode_line(l) + "\n").collect();
    std::fs::write(path, text)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.replay {
        return replay(path);
    }

    let started = Instant::now();
    let mut explored = 0u64;
    let mut total_broadcasts = 0u64;
    let mut total_deliveries = 0u64;
    let mut total_drops = 0u64;
    let mut peak_held = 0usize;
    let mut total_ret_pdus = 0u64;
    let mut total_retransmissions = 0u64;
    let mut latency_samples = 0u64;
    let mut latency_total_us = 0u64;
    let mut latency_max_us = 0u64;
    let mut digests = Vec::new();
    let mut event_digests = Vec::new();

    println!(
        "co-check: exploring {} schedules (base seed {}, core {}, network {}{})",
        args.schedules,
        args.seed,
        args.core.as_deref().unwrap_or("co"),
        args.network.as_deref().unwrap_or("per-scenario"),
        if args.break_delivery {
            ", delivery bug injected"
        } else {
            ""
        }
    );

    for index in 0..args.schedules {
        if let Some(budget) = args.budget_secs {
            if started.elapsed().as_secs() >= budget {
                println!(
                    "time budget of {budget}s reached after {explored} schedules — stopping clean"
                );
                break;
            }
        }
        let mut scenario = Scenario::random(index, args.seed, args.break_delivery);
        if let Some(core) = &args.core {
            // Generation always pins the reference core so the schedule
            // itself is core-independent; the flag only swaps the engine,
            // keeping every core racing on identical adversarial inputs.
            scenario.core = core.clone();
        }
        if let Some(network) = &args.network {
            // Same post-generation override discipline as `--core`: the
            // workload and fault plan are already drawn, so every cell of
            // a (core, network) matrix replays identical schedules.
            scenario.network =
                NetworkSpec::preset(network).expect("parse_args validated the preset name");
        }
        if let Some(batch) = args.batch {
            // Force every schedule through one drain width (e.g. the
            // batched acceptance path with `--batch 8`, or strict per-PDU
            // with `--batch 1`) instead of the per-scenario random draw.
            scenario.drain_batch = batch.max(1);
        }
        if args.force_loss_burst {
            scenario.faults.push(FORCED_LOSS_BURST);
        }
        let (report, traces) =
            run_scenario_observed(&scenario, args.trace_out.is_some(), args.flight_recorder);
        if let Some(path) = &args.trace_out {
            if let Err(e) = write_merged_trace(path, &traces) {
                eprintln!("co-check: cannot write trace to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        explored += 1;
        total_broadcasts += report.broadcasts as u64;
        total_deliveries += report.deliveries as u64;
        total_drops += report.stats.link_drops + report.stats.overrun_drops;
        peak_held = peak_held.max(report.peak_held);
        total_ret_pdus += report.ret_pdus;
        total_retransmissions += report.retransmissions;
        latency_samples += report.latency.samples as u64;
        latency_total_us += report.latency.mean_us * report.latency.samples as u64;
        latency_max_us = latency_max_us.max(report.latency.max_us);
        digests.push(report.digest);
        event_digests.push(report.event_digest);

        if !report.violations.is_empty() {
            println!("\nVIOLATION at schedule {index} (seed {}):", args.seed);
            for v in &report.violations {
                println!("  {v}");
            }
            let target: Vec<Category> = {
                let mut t: Vec<Category> = report.violations.iter().map(|v| v.category).collect();
                t.dedup();
                t
            };
            println!("shrinking (target: {:?})…", target);
            let outcome = shrink(&scenario, &target);
            let mut shrunk = outcome.scenario;
            if args.force_loss_burst && !shrunk.faults.contains(&FORCED_LOSS_BURST) {
                // A forced burst is requested environment, not searchable
                // structure: if the violation reproduces regardless of the
                // burst the shrinker rightly drops it, but the reproducer
                // (and its flight recorders) should still show the recovery
                // machinery the flag was meant to provoke. Pin it back —
                // only if the target violation survives the re-addition.
                let mut pinned = shrunk.clone();
                pinned.faults.push(FORCED_LOSS_BURST);
                let rerun = run_scenario(&pinned);
                if target
                    .iter()
                    .all(|t| rerun.violations.iter().any(|v| v.category == *t))
                {
                    shrunk = pinned;
                    println!("pinned the forced loss burst back into the shrunken scenario");
                }
            }
            println!(
                "shrunk to {} submits / {} faults in {} runs",
                shrunk.workload.len(),
                shrunk.faults.len(),
                outcome.runs
            );
            let mut invocation = format!(
                "co-check --schedules {} --seed {}",
                args.schedules, args.seed
            );
            if let Some(core) = &args.core {
                invocation.push_str(&format!(" --core {core}"));
            }
            if let Some(network) = &args.network {
                invocation.push_str(&format!(" --network {network}"));
            }
            if args.break_delivery {
                invocation.push_str(" --break-delivery");
            }
            // The black box: one execution of the shrunken scenario under
            // the same recorder depth captures every node's final
            // transitions, so the artifact shows the failing window
            // without a `--trace-out` re-run.
            let flight_recorders = if args.flight_recorder == 0 {
                Vec::new()
            } else {
                run_scenario_observed(&shrunk, false, args.flight_recorder)
                    .0
                    .recorders
            };
            let out_dir = args.out.trim_end_matches('/');
            for dump in &flight_recorders {
                let dump_path = format!(
                    "{out_dir}/recorder-seed{}-s{index}-node{}.jsonl",
                    args.seed, dump.node
                );
                let text: String = dump
                    .event_lines()
                    .iter()
                    .map(|l| l.clone() + "\n")
                    .collect();
                if let Err(e) = std::fs::write(&dump_path, text) {
                    eprintln!("cannot write {dump_path}: {e}");
                } else {
                    println!(
                        "flight recorder for node {} ({} events, {} evicted) written to {dump_path}",
                        dump.node,
                        dump.events.len(),
                        dump.evicted
                    );
                }
            }
            let reproducer = Reproducer {
                expect: target.iter().map(|c| c.name().to_string()).collect(),
                note: format!("found by `{invocation}` at schedule {index}"),
                scenario: shrunk,
                flight_recorders,
            };
            let path = format!("{out_dir}/reproducer-seed{}-s{index}.json", args.seed);
            let doc = format!("{}\n", reproducer.to_json());
            match std::fs::write(&path, &doc) {
                Ok(()) => println!("reproducer written to {path}"),
                Err(e) => eprintln!("cannot write {path}: {e} — dumping inline:\n{doc}"),
            }
            if args.json {
                let summary = Json::Obj(vec![
                    ("schedules_explored".to_string(), Json::Num(explored)),
                    (
                        "violations".to_string(),
                        Json::Num(report.violations.len() as u64),
                    ),
                    ("failing_schedule".to_string(), Json::Num(index)),
                    ("seed".to_string(), Json::Num(args.seed)),
                    (
                        "expect".to_string(),
                        Json::Arr(
                            reproducer
                                .expect
                                .iter()
                                .map(|e| Json::Str(e.clone()))
                                .collect(),
                        ),
                    ),
                    ("reproducer".to_string(), Json::Str(path)),
                ]);
                println!("{summary}");
            }
            return ExitCode::FAILURE;
        }

        if (index + 1) % 100 == 0 {
            println!(
                "  {:>6}/{} clean ({} broadcasts, {} deliveries, {} PDUs lost, {:.1}s)",
                index + 1,
                args.schedules,
                total_broadcasts,
                total_deliveries,
                total_drops,
                started.elapsed().as_secs_f64()
            );
        }
    }

    let latency_mean_us = latency_total_us / latency_samples.max(1);
    // Hex strings, not numbers: a u64 does not survive a double.
    let digest = format!("{:#018x}", fold_digests(digests.into_iter()));
    let event_digest = format!("{:#018x}", fold_digests(event_digests.into_iter()));
    if args.json {
        // One machine-readable object surfacing the RunReport aggregates
        // (latency, peak-held, RET traffic) CI dashboards scrape.
        let summary = Json::Obj(vec![
            ("schedules_explored".to_string(), Json::Num(explored)),
            ("violations".to_string(), Json::Num(0)),
            ("broadcasts".to_string(), Json::Num(total_broadcasts)),
            ("deliveries".to_string(), Json::Num(total_deliveries)),
            ("pdus_lost".to_string(), Json::Num(total_drops)),
            ("peak_held".to_string(), Json::Num(peak_held as u64)),
            ("ret_pdus".to_string(), Json::Num(total_ret_pdus)),
            (
                "retransmissions".to_string(),
                Json::Num(total_retransmissions),
            ),
            (
                "latency".to_string(),
                Json::Obj(vec![
                    ("samples".to_string(), Json::Num(latency_samples)),
                    ("mean_us".to_string(), Json::Num(latency_mean_us)),
                    ("max_us".to_string(), Json::Num(latency_max_us)),
                ]),
            ),
            ("digest".to_string(), Json::Str(digest)),
            ("event_digest".to_string(), Json::Str(event_digest)),
            (
                "wall_ms".to_string(),
                Json::Num(started.elapsed().as_millis() as u64),
            ),
        ]);
        println!("{summary}");
    } else {
        println!(
            "\nco-check report\n  schedules explored : {explored}\n  broadcasts         : {total_broadcasts}\n  deliveries         : {total_deliveries}\n  PDUs lost          : {total_drops}\n  peak held PDUs     : {peak_held}\n  RET PDUs sent      : {total_ret_pdus}\n  retransmissions    : {total_retransmissions}\n  delivery latency   : mean {latency_mean_us}µs, max {latency_max_us}µs\n  violations         : 0\n  digest             : {digest}\n  event digest       : {event_digest}\n  wall clock         : {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
