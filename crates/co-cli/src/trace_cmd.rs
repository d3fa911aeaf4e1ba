//! The `co-cli trace analyze` and `co-cli trace watch` subcommands:
//! offline span analysis of a merged JSONL trace (from `co-node --trace`,
//! a traced `co-transport` run, or `co-check --trace-out`), and a live
//! tail of the same file through the streaming detectors — findings
//! surface while the run is still producing the trace.

use co_observe::Json;
use co_trace::{AnomalyConfig, Finding, StreamingDetectors};

use crate::args::ArgError;

/// Parsed `trace analyze` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArgs {
    /// The JSONL trace file to analyze.
    pub path: String,
    /// Emit the machine-readable JSON report instead of text.
    pub json: bool,
    /// Anomaly thresholds (each has a flag; defaults are the library's).
    pub config: AnomalyConfig,
}

/// Parses the arguments following `trace analyze`.
///
/// # Errors
///
/// [`ArgError`] naming the offending flag or value.
pub fn parse_trace_args<I: IntoIterator<Item = String>>(args: I) -> Result<TraceArgs, ArgError> {
    let mut path: Option<String> = None;
    let mut json = false;
    let mut config = AnomalyConfig::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| ArgError(format!("{name} needs a value")))
        };
        let mut num = |name: &str| -> Result<u64, ArgError> {
            value(name)?
                .parse()
                .map_err(|e| ArgError(format!("{name}: {e}")))
        };
        match flag.as_str() {
            "--json" => json = true,
            "--stuck-preack-us" => config.stuck_preack_us = num("--stuck-preack-us")?,
            "--ret-storm-requests" => {
                config.ret_storm_requests = num("--ret-storm-requests")? as usize;
            }
            "--ret-storm-window-us" => config.ret_storm_window_us = num("--ret-storm-window-us")?,
            "--loss-cluster-gap-us" => config.loss_cluster_gap_us = num("--loss-cluster-gap-us")?,
            "--loss-cluster-min" => config.loss_cluster_min = num("--loss-cluster-min")? as usize,
            "--flow-blocked-min" => config.flow_blocked_min = num("--flow-blocked-min")? as usize,
            other if other.starts_with("--") => {
                return Err(ArgError(format!("unknown flag {other}")));
            }
            file => {
                if path.replace(file.to_string()).is_some() {
                    return Err(ArgError("more than one trace file given".into()));
                }
            }
        }
    }
    let path = path.ok_or_else(|| ArgError("a trace file is required".into()))?;
    Ok(TraceArgs { path, json, config })
}

/// Reads, parses (strictly — malformed lines are errors with their line
/// number, not silent skips), and analyzes the trace; returns the
/// rendered report.
///
/// # Errors
///
/// A human-readable message: unreadable file, or a malformed trace line.
pub fn analyze_file(args: &TraceArgs) -> Result<String, String> {
    let text = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    let lines =
        co_observe::jsonl::parse_trace_strict(&text).map_err(|e| format!("{}: {e}", args.path))?;
    let report = co_trace::analyze(&lines, &args.config);
    Ok(if args.json {
        report.to_json()
    } else {
        report.render_text()
    })
}

/// Parsed `trace watch` invocation: the analyze arguments (file, output
/// format, thresholds) plus tailing controls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchArgs {
    /// File, output format, and anomaly thresholds (shared with analyze).
    pub trace: TraceArgs,
    /// Do a single pass over the file's current contents and exit,
    /// instead of tailing forever.
    pub once: bool,
    /// Poll interval between tail reads, milliseconds.
    pub interval_ms: u64,
}

/// Parses the arguments following `trace watch`: the `trace analyze`
/// flags plus `--once` and `--interval-ms N`.
///
/// # Errors
///
/// [`ArgError`] naming the offending flag or value.
pub fn parse_watch_args<I: IntoIterator<Item = String>>(args: I) -> Result<WatchArgs, ArgError> {
    let mut once = false;
    let mut interval_ms = 250u64;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .ok_or_else(|| ArgError("--interval-ms needs a value".into()))?
                    .parse()
                    .map_err(|e| ArgError(format!("--interval-ms: {e}")))?;
            }
            _ => rest.push(arg),
        }
    }
    Ok(WatchArgs {
        trace: parse_trace_args(rest)?,
        once,
        interval_ms,
    })
}

/// Incremental tail over a growing JSONL trace file, feeding every
/// complete new line through the streaming detectors. Only lines ending
/// in `\n` are consumed — a writer caught mid-line keeps its partial
/// tail buffered here until the newline lands. A truncated (rotated)
/// file resets the watcher to a fresh pass.
#[derive(Debug)]
pub struct TraceWatcher {
    offset: u64,
    carry: String,
    line_no: usize,
    detectors: StreamingDetectors,
    known: Vec<Finding>,
}

impl TraceWatcher {
    /// A fresh watcher with the given anomaly thresholds.
    pub fn new(cfg: AnomalyConfig) -> TraceWatcher {
        TraceWatcher {
            offset: 0,
            carry: String::new(),
            line_no: 0,
            detectors: StreamingDetectors::new(cfg),
            known: Vec::new(),
        }
    }

    /// The streaming detectors' current state (for snapshots beyond the
    /// per-poll delta).
    pub fn detectors(&self) -> &StreamingDetectors {
        &self.detectors
    }

    /// Reads any new complete lines from `path` and returns the findings
    /// that *newly* surfaced since the previous poll (span findings can
    /// also clear — the full current set is [`TraceWatcher::detectors`]).
    ///
    /// # Errors
    ///
    /// A human-readable message: unreadable file, or a malformed trace
    /// line (strict, with its line number — same contract as analyze).
    pub fn poll(&mut self, path: &str) -> Result<Vec<Finding>, String> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let len = file
            .metadata()
            .map_err(|e| format!("cannot stat {path}: {e}"))?
            .len();
        if len < self.offset {
            // The file shrank under us (rotation): start a fresh pass.
            *self = TraceWatcher::new(*self.detectors.config());
        }
        file.seek(SeekFrom::Start(self.offset))
            .map_err(|e| format!("cannot seek {path}: {e}"))?;
        let mut fresh = String::new();
        file.read_to_string(&mut fresh)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        self.offset += fresh.len() as u64;
        self.carry.push_str(&fresh);
        while let Some(nl) = self.carry.find('\n') {
            let line: String = self.carry.drain(..=nl).collect();
            self.line_no += 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let parsed = co_observe::jsonl::parse_line_strict(line)
                .map_err(|e| format!("{path}: line {}: {e}", self.line_no))?;
            self.detectors.observe_line(&parsed);
        }
        let snapshot = self.detectors.findings();
        let surfaced = snapshot
            .iter()
            .filter(|f| !self.known.contains(f))
            .cloned()
            .collect();
        self.known = snapshot;
        Ok(surfaced)
    }
}

/// One-line kind-count summary as JSON (insertion order fixed by
/// [`Finding::KINDS`]), used by `watch --once --json`.
fn kind_counts_json(detectors: &StreamingDetectors) -> String {
    let counts = detectors.kind_counts();
    let total = counts.iter().map(|&(_, count)| count).sum();
    let counts = counts
        .into_iter()
        .map(|(kind, count)| (kind, Json::Num(count)));
    Json::obj([
        ("kind_counts", Json::obj(counts)),
        ("total", Json::Num(total)),
    ])
    .to_compact()
}

/// Runs the watch loop: polls the trace file, printing each finding as
/// it surfaces (text via [`co_trace::describe_finding`], or one JSON
/// object per line with `--json`). With `--once`, a single pass over the
/// file's current contents, a final summary line, and exit; otherwise it
/// tails forever (interrupt to stop).
///
/// # Errors
///
/// A human-readable message: unreadable file, or a malformed trace line.
pub fn watch_file(args: &WatchArgs) -> Result<(), String> {
    let mut watcher = TraceWatcher::new(args.trace.config);
    loop {
        for finding in watcher.poll(&args.trace.path)? {
            if args.trace.json {
                println!("{}", co_trace::finding_to_json(&finding).to_compact());
            } else {
                println!("{}", co_trace::describe_finding(&finding));
            }
        }
        if args.once {
            if args.trace.json {
                println!("{}", kind_counts_json(watcher.detectors()));
            } else {
                let total: u64 = watcher
                    .detectors()
                    .kind_counts()
                    .iter()
                    .map(|&(_, c)| c)
                    .sum();
                println!("{total} finding(s)");
            }
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_and_flags_parse() {
        let args = parse_trace_args(argv("run.jsonl")).unwrap();
        assert_eq!(args.path, "run.jsonl");
        assert!(!args.json);
        assert_eq!(args.config, AnomalyConfig::default());

        let args = parse_trace_args(argv(
            "--json run.jsonl --ret-storm-requests 2 --ret-storm-window-us 30000 \
             --stuck-preack-us 5000 --loss-cluster-gap-us 9 --loss-cluster-min 4 \
             --flow-blocked-min 1",
        ))
        .unwrap();
        assert!(args.json);
        assert_eq!(args.config.ret_storm_requests, 2);
        assert_eq!(args.config.ret_storm_window_us, 30_000);
        assert_eq!(args.config.stuck_preack_us, 5_000);
        assert_eq!(args.config.loss_cluster_gap_us, 9);
        assert_eq!(args.config.loss_cluster_min, 4);
        assert_eq!(args.config.flow_blocked_min, 1);
    }

    #[test]
    fn bad_invocations_are_rejected() {
        assert!(parse_trace_args(argv("")).is_err());
        assert!(parse_trace_args(argv("a.jsonl b.jsonl")).is_err());
        assert!(parse_trace_args(argv("a.jsonl --bogus")).is_err());
        assert!(parse_trace_args(argv("a.jsonl --ret-storm-requests nope")).is_err());
    }

    #[test]
    fn analyze_renders_text_and_json() {
        let dir = std::env::temp_dir();
        let path = dir.join("co-cli-trace-analyze-test.jsonl");
        let trace = "\
{\"node\":0,\"kind\":\"data_sent\",\"t_us\":10,\"src\":0,\"seq\":1}\n\
{\"node\":1,\"kind\":\"accepted\",\"t_us\":20,\"src\":0,\"seq\":1,\"from_reorder\":false}\n\
{\"node\":0,\"kind\":\"pre_acked\",\"t_us\":30,\"src\":0,\"seq\":1}\n\
{\"node\":1,\"kind\":\"pre_acked\",\"t_us\":31,\"src\":0,\"seq\":1}\n\
{\"node\":0,\"kind\":\"delivered\",\"t_us\":40,\"src\":0,\"seq\":1}\n\
{\"node\":1,\"kind\":\"delivered\",\"t_us\":41,\"src\":0,\"seq\":1}\n";
        std::fs::write(&path, trace).unwrap();
        let mut args = parse_trace_args(vec![path.to_string_lossy().into_owned()]).unwrap();

        let text = analyze_file(&args).unwrap();
        assert!(text.contains("1 complete"), "{text}");
        assert!(text.contains("anomalies: none"), "{text}");

        args.json = true;
        let json = analyze_file(&args).unwrap();
        assert!(json.contains("\"complete_spans\":1"), "{json}");
        assert!(json.contains("\"anomalies\":0"), "{json}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_traces_fail_with_the_line_number() {
        let dir = std::env::temp_dir();
        let path = dir.join("co-cli-trace-analyze-bad.jsonl");
        std::fs::write(
            &path,
            "{\"node\":0,\"kind\":\"submitted\",\"t_us\":1}\nnot json\n",
        )
        .unwrap();
        let args = parse_trace_args(vec![path.to_string_lossy().into_owned()]).unwrap();
        let err = analyze_file(&args).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hostile_index_is_a_typed_error_not_an_allocation() {
        // Analysis keeps per-node state; this line used to size it by the
        // index it names (224 GB) and abort the process.
        let path = std::env::temp_dir().join("co-cli-trace-hostile-index.jsonl");
        std::fs::write(
            &path,
            "{\"node\":0,\"kind\":\"submitted\",\"t_us\":1}\n\
             {\"node\":4000000000,\"kind\":\"pre_acked\",\"t_us\":1,\"src\":0,\"seq\":1}\n",
        )
        .unwrap();
        let path_str = path.to_string_lossy().into_owned();
        let err = analyze_file(&parse_trace_args(vec![path_str.clone()]).unwrap()).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("`node`=4000000000"),
            "{err}"
        );
        let err = TraceWatcher::new(AnomalyConfig::default())
            .poll(&path_str)
            .unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("`node`=4000000000"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_error() {
        let args = parse_trace_args(argv("/nonexistent/nope.jsonl")).unwrap();
        assert!(analyze_file(&args).unwrap_err().contains("cannot read"));
    }

    #[test]
    fn watch_args_parse_with_tail_controls() {
        let args = parse_watch_args(argv(
            "run.jsonl --once --json --interval-ms 50 --flow-blocked-min 1",
        ))
        .unwrap();
        assert!(args.once);
        assert!(args.trace.json);
        assert_eq!(args.interval_ms, 50);
        assert_eq!(args.trace.path, "run.jsonl");
        assert_eq!(args.trace.config.flow_blocked_min, 1);

        let args = parse_watch_args(argv("run.jsonl")).unwrap();
        assert!(!args.once);
        assert_eq!(args.interval_ms, 250);
        assert!(parse_watch_args(argv("run.jsonl --interval-ms nope")).is_err());
        assert!(parse_watch_args(argv("--once")).is_err());
    }

    #[test]
    fn watcher_tails_incrementally_and_handles_partial_lines() {
        use std::io::Write;
        let path = std::env::temp_dir().join("co-cli-trace-watch-test.jsonl");
        let path_str = path.to_string_lossy().into_owned();
        let cfg = AnomalyConfig {
            flow_blocked_min: 2,
            ..AnomalyConfig::default()
        };
        let line1 =
            "{\"node\":0,\"kind\":\"flow_blocked\",\"t_us\":10,\"outstanding\":64,\"limit\":64}\n";
        let line2 =
            "{\"node\":0,\"kind\":\"flow_blocked\",\"t_us\":20,\"outstanding\":64,\"limit\":64}\n";

        let mut file = std::fs::File::create(&path).unwrap();
        file.write_all(line1.as_bytes()).unwrap();
        // A partial second line: the watcher must not consume it yet.
        file.write_all(&line2.as_bytes()[..20]).unwrap();
        file.flush().unwrap();

        let mut watcher = TraceWatcher::new(cfg);
        assert!(
            watcher.poll(&path_str).unwrap().is_empty(),
            "one gauge event is below the threshold; the half line waits"
        );

        // Complete the second line: the rule trips and surfaces exactly
        // once.
        file.write_all(&line2.as_bytes()[20..]).unwrap();
        file.flush().unwrap();
        let surfaced = watcher.poll(&path_str).unwrap();
        assert_eq!(surfaced.len(), 1, "{surfaced:?}");
        assert_eq!(surfaced[0].kind(), "flow_saturation");
        assert!(
            watcher.poll(&path_str).unwrap().is_empty(),
            "an unchanged file surfaces nothing new"
        );

        // The watcher's end state equals `trace analyze` over the file.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = co_observe::jsonl::parse_trace_strict(&text).unwrap();
        let analyzed = co_trace::analyze(&lines, &cfg).findings;
        assert_eq!(watcher.detectors().findings(), analyzed);

        // Truncation resets to a fresh pass.
        std::fs::write(&path, line1).unwrap();
        assert!(watcher.poll(&path_str).unwrap().is_empty());
        assert_eq!(watcher.detectors().findings(), vec![]);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn watcher_reports_malformed_lines_with_their_number() {
        let path = std::env::temp_dir().join("co-cli-trace-watch-bad.jsonl");
        std::fs::write(
            &path,
            "{\"node\":0,\"kind\":\"submitted\",\"t_us\":1}\nnot json\n",
        )
        .unwrap();
        let mut watcher = TraceWatcher::new(AnomalyConfig::default());
        let err = watcher.poll(&path.to_string_lossy()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kind_counts_json_is_stable() {
        let watcher = TraceWatcher::new(AnomalyConfig::default());
        let json = kind_counts_json(watcher.detectors());
        assert!(
            json.starts_with("{\"kind_counts\":{\"ret_storm\":0,"),
            "{json}"
        );
        assert!(json.ends_with(",\"total\":0}"), "{json}");
    }
}
