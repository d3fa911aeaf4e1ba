//! Command line: one workload (the form the benchmark driver calls), `all`,
//! `repeat`, and `manifest`.
//!
//! ```text
//! co-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! co-e2e all    [--seed <n>] [--seconds <s>] [--trace] [--smoke]
//! co-e2e repeat [--seed <n>] [--seconds <s>] [--smoke]
//! co-e2e manifest
//! ```
//!
//! A single-workload run prints every metric by name with its unit, then,
//! as the last line of standard output, one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. `all` and `repeat`
//! re-execute this binary once per workload so `peak_rss_mib` is per
//! workload.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::manifest::{self, Better, END_TO_END, RUN_SECONDS};
use crate::procfs;
use crate::run::{self, RunOptions, RunResult};
use crate::workload::{self, Scale, WORKLOADS};

const USAGE: &str = "usage:
  co-e2e --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  co-e2e all    [--seed <n>] [--seconds <s>] [--trace] [--smoke]
  co-e2e repeat [--seed <n>] [--seconds <s>] [--smoke]
  co-e2e manifest";

/// Exit code for a run that completed but is not a valid measurement.
const EXIT_INVALID: u8 = 1;
/// Exit code for a malformed command line.
const EXIT_USAGE: u8 = 2;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(String),
    All,
    Repeat,
    Manifest,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut parsed = Args {
        mode: Mode::All,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "all" => mode = Some(Mode::All),
            "repeat" => mode = Some(Mode::Repeat),
            "manifest" => mode = Some(Mode::Manifest),
            "--workload" => mode = Some(Mode::One(value("--workload")?.clone())),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, bare `--trace` for people.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.mode = mode.ok_or("name a workload (--workload) or a mode (all, repeat, manifest)")?;
    Ok(parsed)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = manifest::unit_of(name).expect("metric is in the tables");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        result.attempted,
        metrics.join(", ")
    )
}

/// Reads metric `name` back out of a [`result_line`].
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn out_dir() -> PathBuf {
    // Beside the benchmark's sources when run from a checkout (the driver
    // and `cargo run` both start at the repo root), else the working dir.
    let in_repo = PathBuf::from(manifest::BENCH_DIR);
    if in_repo.is_dir() {
        in_repo.join("out")
    } else {
        PathBuf::from("out")
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(wl) = workload::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload `{name}`; workloads: {}", names.join(", "));
        return ExitCode::from(EXIT_USAGE);
    };
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        out_dir: out_dir(),
    };
    println!(
        "{} seed {} seconds {} {}{}",
        wl.name,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        if args.smoke { " (smoke scale)" } else { "" }
    );
    match run::run_workload(wl, &opts) {
        Ok(result) => {
            for note in &result.notes {
                println!("  # {note}");
            }
            for (name, value) in &result.metrics {
                let unit = manifest::unit_of(name).expect("metric is in the tables");
                println!("  {name:<40} {value:>16.4} {unit}");
            }
            if let Some(why) = &result.invalid {
                eprintln!("{}: {why}", wl.name);
                return ExitCode::from(EXIT_INVALID);
            }
            println!("{}", result_line(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", wl.name);
            ExitCode::from(EXIT_INVALID)
        }
    }
}

/// Runs one workload in a child process; returns its result line.
fn spawn_one(name: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    stdout
        .lines()
        .last()
        .filter(|l| l.starts_with("{\"correct\": true"))
        .map(str::to_string)
        .ok_or(format!("{name} printed no result line"))
}

fn run_all(args: &Args) -> ExitCode {
    // `co-protocol` self time of each traced workload, by name.
    let mut protocol_self_s: Vec<(&str, f64)> = Vec::new();
    let outcome = WORKLOADS.iter().try_for_each(|wl| {
        spawn_one(wl.name, args, false)?;
        if args.trace {
            let line = spawn_one(wl.name, args, true)?;
            protocol_self_s.push((wl.name, run::protocol_self_s(|m| metric_in(&line, m))));
        }
        Ok::<(), String>(())
    });
    let outcome = outcome.and_then(|()| {
        if !args.trace {
            return Ok(());
        }
        let of = |name: &str| {
            protocol_self_s
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, s)| s)
        };
        let (co, hybrid) = of("sim-n64-co")
            .zip(of("sim-n64-hybrid"))
            .ok_or("the n=64 pair is missing from the traced runs")?;
        let note = run::check_pair_intent(co, hybrid).map_err(|e| e.to_string())?;
        println!("# {note}");
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(EXIT_INVALID)
        }
    }
}

fn run_repeat(args: &Args) -> ExitCode {
    let one_set = || -> Result<Vec<String>, String> {
        WORKLOADS
            .iter()
            .map(|wl| spawn_one(wl.name, args, false))
            .collect()
    };
    let sets = match one_set().and_then(|first| Ok([first, one_set()?])) {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_INVALID);
        }
    };
    println!();
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut worst_over = 0usize;
    for (i, wl) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                metric_in(&sets[0][i], m.name),
                metric_in(&sets[1][i], m.name),
            ) else {
                eprintln!("{}: {} missing from a result line", wl.name, m.name);
                return ExitCode::from(EXIT_INVALID);
            };
            // Signed so that positive means the second set is worse.
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let over = worse.abs() > m.bound;
            // Only the workloads BENCHMARK.json lists are held to the
            // bounds; the rest are shown for the record.
            worst_over += usize::from(over && wl.guarded);
            println!(
                "{:<16} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%{}",
                wl.name,
                m.name,
                a,
                b,
                worse * 100.0,
                m.bound * 100.0,
                match (over, wl.guarded) {
                    (true, true) => "  OVER",
                    (true, false) => "  over (unguarded)",
                    (false, _) => "",
                }
            );
        }
    }
    if worst_over > 0 {
        eprintln!("{worst_over} guarded (workload, metric) pairs differ by more than their bound");
        return ExitCode::from(EXIT_INVALID);
    }
    println!("every guarded (workload, metric) pair agrees within its bound");
    ExitCode::SUCCESS
}

/// Entry point of the `co-e2e` binary.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Best effort; a kernel without the option only makes runs noisier.
    procfs::disable_transparent_huge_pages();
    match &args.mode {
        Mode::One(name) => run_one(name, &args),
        Mode::All => run_all(&args),
        Mode::Repeat => run_repeat(&args),
        Mode::Manifest => {
            print!("{}", manifest::benchmark_json());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_form_and_the_human_forms() {
        let a = parse(&argv("--workload sim-n4-8k --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(a.mode, Mode::One("sim-n4-8k".into()));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 3.0, false, false)
        );
        let a = parse(&argv("all --trace --smoke")).unwrap();
        assert_eq!(
            (a.mode, a.trace, a.smoke, a.seed),
            (Mode::All, true, true, 1)
        );
        let a = parse(&argv("--workload x --trace 1")).unwrap();
        assert!(a.trace);
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("all --seconds -2")).is_err());
        assert!(parse(&argv("all --bogus")).is_err());
    }

    #[test]
    fn result_line_round_trips_through_metric_in() {
        let result = RunResult {
            attempted: 1000,
            metrics: vec![
                ("setup_s", 0.8127),
                ("lat_p99_us", 2345.5),
                ("deliver_per_s", f64::NAN),
            ],
            notes: vec![],
            invalid: None,
        };
        let line = result_line(&result);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(metric_in(&line, "lat_p99_us"), Some(2345.5));
        assert_eq!(metric_in(&line, "deliver_per_s"), Some(0.0));
        assert_eq!(metric_in(&line, "absent"), None);
    }
}
