//! JSONL trace exporter, parser, and offline Tco/Tap analysis.
//!
//! One JSON object per line, flat; read back through the workspace codec
//! ([`crate::Json`]). Two record kinds share the stream:
//!
//! * protocol events, tagged by [`ProtocolEvent::kind`], with the fields
//!   of the variant (`{"node":0,"kind":"accepted","t_us":812,"src":1,
//!   "seq":5,"from_reorder":false}`);
//! * host-measured protocol-processing samples
//!   (`{"node":0,"kind":"host_tco","t_us":812,"dur_us":14}`) — Tco is a
//!   *host* measurement (CPU time spent inside the engine) and cannot be
//!   reconstructed from event timestamps alone, so the driver records it
//!   as its own line.
//!
//! When every node derives its event timestamps from one shared epoch (as
//! `co-transport` does), [`tap_samples_us`] joins `data_sent` lines
//! against remote `delivered` lines to reproduce the paper's Tap
//! (application-to-application delay, §5 Figure 8); [`tco_samples_us`]
//! collects the Tco samples. EXPERIMENTS.md shows the full recipe.

use std::collections::HashMap;

use causal_order::{EntityId, Seq};

use crate::event::ProtocolEvent;
use crate::json::Json;

/// Node, source and peer indices a trace line may name: co-wire's
/// `MAX_ACK_LEN`, the largest cluster a PDU can describe. Analysis keeps
/// per-index state (node count, per-destination breakdowns), so a line
/// naming a larger index is rejected where it enters, not allocated for.
pub const MAX_ENTITIES: u64 = 4096;

/// One line of a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLine {
    /// A protocol event emitted by `node`'s entity.
    Event {
        /// The emitting node (entity index).
        node: u32,
        /// The event.
        event: ProtocolEvent,
    },
    /// Host-measured time spent processing one input inside the engine.
    HostTco {
        /// The measuring node.
        node: u32,
        /// Shared-epoch time of the measurement, µs.
        at_us: u64,
        /// Engine processing duration, µs.
        dur_us: u64,
    },
}

impl TraceLine {
    /// The line's shared-epoch timestamp, µs — the merge key of traces.
    pub fn t_us(&self) -> u64 {
        match self {
            TraceLine::Event { event, .. } => event.now_us(),
            TraceLine::HostTco { at_us, .. } => *at_us,
        }
    }
}

fn push_field(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

/// Encodes one record as a JSON line (no trailing newline).
pub fn encode_line(line: &TraceLine) -> String {
    let mut out = String::with_capacity(96);
    match *line {
        TraceLine::HostTco {
            node,
            at_us,
            dur_us,
        } => {
            out.push_str(&format!(
                "{{\"node\":{node},\"kind\":\"host_tco\",\"t_us\":{at_us}"
            ));
            push_field(&mut out, "dur_us", dur_us);
        }
        TraceLine::Event { node, event } => {
            out.push_str(&format!(
                "{{\"node\":{node},\"kind\":\"{}\",\"t_us\":{}",
                event.kind(),
                event.now_us()
            ));
            let id = |e: EntityId| e.index() as u64;
            match event {
                ProtocolEvent::Submitted { .. }
                | ProtocolEvent::FlowClosed { .. }
                | ProtocolEvent::FlowOpened { .. }
                | ProtocolEvent::AckOnlySent { .. } => {}
                ProtocolEvent::DataSent { src, seq, .. }
                | ProtocolEvent::PreAcked { src, seq, .. }
                | ProtocolEvent::Delivered { src, seq, .. }
                | ProtocolEvent::Duplicate { src, seq, .. }
                | ProtocolEvent::ReorderEnter { src, seq, .. }
                | ProtocolEvent::ReorderExit { src, seq, .. }
                | ProtocolEvent::OutOfOrderDiscarded { src, seq, .. } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "seq", seq.get());
                }
                ProtocolEvent::Accepted {
                    src,
                    seq,
                    from_reorder,
                    ..
                } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "seq", seq.get());
                    out.push_str(",\"from_reorder\":");
                    out.push_str(if from_reorder { "true" } else { "false" });
                }
                ProtocolEvent::CpiInserted {
                    src, seq, position, ..
                } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "seq", seq.get());
                    push_field(&mut out, "pos", position);
                }
                ProtocolEvent::F1Detected {
                    src, expected, got, ..
                } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "expected", expected.get());
                    push_field(&mut out, "got", got.get());
                }
                ProtocolEvent::F2Detected {
                    src,
                    confirmed,
                    via,
                    ..
                } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "confirmed", confirmed.get());
                    push_field(&mut out, "via", id(via));
                }
                ProtocolEvent::FlowBlocked {
                    outstanding, limit, ..
                } => {
                    push_field(&mut out, "outstanding", outstanding);
                    push_field(&mut out, "limit", limit);
                }
                ProtocolEvent::RetSent { src, lseq, .. }
                | ProtocolEvent::RetSuppressed { src, lseq, .. } => {
                    push_field(&mut out, "src", id(src));
                    push_field(&mut out, "lseq", lseq.get());
                }
                ProtocolEvent::RetServed { to, seq, .. } => {
                    push_field(&mut out, "to", id(to));
                    push_field(&mut out, "seq", seq.get());
                }
                ProtocolEvent::RetUnservable { amount, .. } => {
                    push_field(&mut out, "amount", amount);
                }
            }
        }
    }
    out.push('}');
    out
}

/// Why one trace line failed to parse strictly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// Not a flat JSON object: bad syntax, a truncated line, or a nested
    /// value the flat format does not allow.
    Malformed,
    /// A required field is absent (or present with the wrong type).
    MissingField(&'static str),
    /// The `kind` tag names no record this decoder knows.
    UnknownKind(String),
    /// A node, source or peer index is not below [`MAX_ENTITIES`].
    EntityOutOfRange {
        /// The offending field key.
        field: &'static str,
        /// The out-of-range value as written.
        value: u64,
    },
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::Malformed => write!(f, "malformed flat-JSON object"),
            LineError::MissingField(key) => write!(f, "missing field `{key}`"),
            LineError::UnknownKind(kind) => write!(f, "unknown event kind `{kind}`"),
            LineError::EntityOutOfRange { field, value } => {
                write!(
                    f,
                    "entity index `{field}`={value} is not below {MAX_ENTITIES}"
                )
            }
        }
    }
}

impl std::error::Error for LineError {}

/// A strict-parse failure, locating the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number within the trace text.
    pub line: usize,
    /// What was wrong with it.
    pub error: LineError,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for TraceError {}

/// Parses one trace line, reporting exactly why it failed. Unknown kinds
/// are an error here — use [`parse_line`]/[`parse_trace`] when forward
/// compatibility with newer writers matters more than diagnostics.
pub fn parse_line_strict(line: &str) -> Result<TraceLine, LineError> {
    let nested = |v: &Json| matches!(v, Json::Null | Json::Arr(_) | Json::Obj(_));
    let obj = match Json::parse(line) {
        Ok(Json::Obj(fields)) if !fields.iter().any(|(_, v)| nested(v)) => Json::Obj(fields),
        _ => return Err(LineError::Malformed),
    };
    let num = |key: &'static str| {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or(LineError::MissingField(key))
    };
    let boolean = |key: &'static str| {
        obj.get(key)
            .and_then(Json::as_bool)
            .ok_or(LineError::MissingField(key))
    };
    let index = |key: &'static str| match num(key)? {
        raw if raw < MAX_ENTITIES => Ok(raw as u32),
        raw => Err(LineError::EntityOutOfRange {
            field: key,
            value: raw,
        }),
    };
    let ent = |key: &'static str| index(key).map(EntityId::new);
    let kind = obj
        .get("kind")
        .and_then(Json::as_str)
        .ok_or(LineError::MissingField("kind"))?;
    let node = index("node")?;
    let t = num("t_us")?;
    let seq = || num("seq").map(Seq::new);
    let event = match kind {
        "host_tco" => {
            return Ok(TraceLine::HostTco {
                node,
                at_us: t,
                dur_us: num("dur_us")?,
            })
        }
        "submitted" => ProtocolEvent::Submitted { now_us: t },
        "flow_closed" => ProtocolEvent::FlowClosed { now_us: t },
        "flow_opened" => ProtocolEvent::FlowOpened { now_us: t },
        "flow_blocked" => ProtocolEvent::FlowBlocked {
            outstanding: num("outstanding")?,
            limit: num("limit")?,
            now_us: t,
        },
        "ack_only_sent" => ProtocolEvent::AckOnlySent { now_us: t },
        "data_sent" => ProtocolEvent::DataSent {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "accepted" => ProtocolEvent::Accepted {
            src: ent("src")?,
            seq: seq()?,
            from_reorder: boolean("from_reorder")?,
            now_us: t,
        },
        "pre_acked" => ProtocolEvent::PreAcked {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "cpi_inserted" => ProtocolEvent::CpiInserted {
            src: ent("src")?,
            seq: seq()?,
            position: num("pos")?,
            now_us: t,
        },
        "delivered" => ProtocolEvent::Delivered {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "f1_detected" => ProtocolEvent::F1Detected {
            src: ent("src")?,
            expected: Seq::new(num("expected")?),
            got: Seq::new(num("got")?),
            now_us: t,
        },
        "f2_detected" => ProtocolEvent::F2Detected {
            src: ent("src")?,
            confirmed: Seq::new(num("confirmed")?),
            via: ent("via")?,
            now_us: t,
        },
        "duplicate" => ProtocolEvent::Duplicate {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "reorder_enter" => ProtocolEvent::ReorderEnter {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "reorder_exit" => ProtocolEvent::ReorderExit {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "ooo_discarded" => ProtocolEvent::OutOfOrderDiscarded {
            src: ent("src")?,
            seq: seq()?,
            now_us: t,
        },
        "ret_sent" => ProtocolEvent::RetSent {
            src: ent("src")?,
            lseq: Seq::new(num("lseq")?),
            now_us: t,
        },
        "ret_suppressed" => ProtocolEvent::RetSuppressed {
            src: ent("src")?,
            lseq: Seq::new(num("lseq")?),
            now_us: t,
        },
        "ret_served" => ProtocolEvent::RetServed {
            to: ent("to")?,
            seq: seq()?,
            now_us: t,
        },
        "ret_unservable" => ProtocolEvent::RetUnservable {
            amount: num("amount")?,
            now_us: t,
        },
        other => return Err(LineError::UnknownKind(other.to_string())),
    };
    Ok(TraceLine::Event { node, event })
}

/// Parses one trace line. Returns `None` for malformed lines or unknown
/// kinds (forward compatibility: newer writers may add kinds).
pub fn parse_line(line: &str) -> Option<TraceLine> {
    parse_line_strict(line).ok()
}

/// Parses a whole trace, skipping malformed/unknown lines.
pub fn parse_trace(text: &str) -> Vec<TraceLine> {
    text.lines().filter_map(parse_line).collect()
}

/// Parses a whole trace strictly: the first bad line aborts with a
/// [`TraceError`] naming the 1-based line number. Blank lines are
/// allowed (trailing newlines are common in JSONL files).
pub fn parse_trace_strict(text: &str) -> Result<Vec<TraceLine>, TraceError> {
    let mut lines = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse_line_strict(line).map_err(|error| TraceError {
            line: idx + 1,
            error,
        })?;
        lines.push(parsed);
    }
    Ok(lines)
}

/// Application-to-application delays (the paper's Tap, §5): for every
/// `data_sent` on the source node, the delta to each `delivered` of that
/// `(src, seq)` on a *different* node. Requires all nodes to share a
/// timestamp epoch.
pub fn tap_samples_us(lines: &[TraceLine]) -> Vec<u64> {
    let mut sent: HashMap<(u64, u64), u64> = HashMap::new();
    for line in lines {
        if let TraceLine::Event {
            event: ProtocolEvent::DataSent { src, seq, now_us },
            ..
        } = line
        {
            sent.entry((src.index() as u64, seq.get()))
                .or_insert(*now_us);
        }
    }
    let mut samples = Vec::new();
    for line in lines {
        if let TraceLine::Event {
            node,
            event: ProtocolEvent::Delivered { src, seq, now_us },
        } = line
        {
            if u64::from(*node) == src.index() as u64 {
                continue; // self-delivery is not app-to-app
            }
            if let Some(&at) = sent.get(&(src.index() as u64, seq.get())) {
                samples.push(now_us.saturating_sub(at));
            }
        }
    }
    samples
}

/// Host-measured protocol-processing times (the paper's Tco, §5).
pub fn tco_samples_us(lines: &[TraceLine]) -> Vec<u64> {
    lines
        .iter()
        .filter_map(|l| match l {
            TraceLine::HostTco { dur_us, .. } => Some(*dur_us),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn round_trips_every_kind() {
        let lines = [
            TraceLine::Event {
                node: 0,
                event: ProtocolEvent::Submitted { now_us: 1 },
            },
            TraceLine::Event {
                node: 0,
                event: ProtocolEvent::DataSent {
                    src: id(0),
                    seq: Seq::new(1),
                    now_us: 2,
                },
            },
            TraceLine::Event {
                node: 1,
                event: ProtocolEvent::Accepted {
                    src: id(0),
                    seq: Seq::new(1),
                    from_reorder: true,
                    now_us: 3,
                },
            },
            TraceLine::Event {
                node: 1,
                event: ProtocolEvent::CpiInserted {
                    src: id(0),
                    seq: Seq::new(1),
                    position: 4,
                    now_us: 5,
                },
            },
            TraceLine::Event {
                node: 1,
                event: ProtocolEvent::F1Detected {
                    src: id(0),
                    expected: Seq::new(2),
                    got: Seq::new(4),
                    now_us: 6,
                },
            },
            TraceLine::Event {
                node: 1,
                event: ProtocolEvent::RetServed {
                    to: id(2),
                    seq: Seq::new(9),
                    now_us: 7,
                },
            },
            TraceLine::HostTco {
                node: 2,
                at_us: 8,
                dur_us: 14,
            },
        ];
        for line in &lines {
            let text = encode_line(line);
            assert_eq!(parse_line(&text), Some(*line), "round trip of {text}");
        }
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let trace = "garbage\n{\"node\":0,\"kind\":\"submitted\",\"t_us\":5}\n{\"kind\":9}";
        let parsed = parse_trace(trace);
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn round_trips_span_correlation_fields() {
        let lines = [
            TraceLine::Event {
                node: 2,
                event: ProtocolEvent::F2Detected {
                    src: id(0),
                    confirmed: Seq::new(5),
                    via: id(1),
                    now_us: 10,
                },
            },
            TraceLine::Event {
                node: 0,
                event: ProtocolEvent::FlowBlocked {
                    outstanding: 8,
                    limit: 8,
                    now_us: 11,
                },
            },
        ];
        for line in &lines {
            let text = encode_line(line);
            assert_eq!(parse_line_strict(&text), Ok(*line), "round trip of {text}");
        }
    }

    #[test]
    fn truncated_line_is_malformed() {
        let full = encode_line(&TraceLine::Event {
            node: 0,
            event: ProtocolEvent::Delivered {
                src: id(1),
                seq: Seq::new(3),
                now_us: 7,
            },
        });
        let truncated = &full[..full.len() - 1];
        assert_eq!(parse_line_strict(truncated), Err(LineError::Malformed));
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let line = "{\"node\":0,\"kind\":\"wormhole\",\"t_us\":5}";
        assert_eq!(
            parse_line_strict(line),
            Err(LineError::UnknownKind("wormhole".to_string()))
        );
        // The lenient parser still skips it (forward compatibility).
        assert_eq!(parse_line(line), None);
    }

    #[test]
    fn out_of_range_entity_id_is_a_typed_error() {
        let line = "{\"node\":0,\"kind\":\"delivered\",\"t_us\":5,\"src\":4294967296,\"seq\":1}";
        assert_eq!(
            parse_line_strict(line),
            Err(LineError::EntityOutOfRange {
                field: "src",
                value: 4_294_967_296,
            })
        );
        let line = "{\"node\":4294967296,\"kind\":\"submitted\",\"t_us\":5}";
        assert!(matches!(
            parse_line_strict(line),
            Err(LineError::EntityOutOfRange { field: "node", .. })
        ));
    }

    #[test]
    fn indices_beyond_the_largest_cluster_are_a_typed_error() {
        // Analysis sizes state by the indices a trace names; a hostile line
        // must be refused here, before anything is sized by it.
        for (field, line) in [
            ("node", "{\"node\":4000000000,\"kind\":\"pre_acked\",\"t_us\":1,\"src\":0,\"seq\":1}"),
            ("src", "{\"node\":0,\"kind\":\"pre_acked\",\"t_us\":1,\"src\":4096,\"seq\":1}"),
            ("via", "{\"node\":0,\"kind\":\"f2_detected\",\"t_us\":1,\"src\":0,\"confirmed\":1,\"via\":4096}"),
        ] {
            assert!(
                matches!(
                    parse_line_strict(line),
                    Err(LineError::EntityOutOfRange { field: f, .. }) if f == field
                ),
                "{line}"
            );
            assert_eq!(parse_line(line), None, "lenient parsing skips it");
        }
        let largest = "{\"node\":4095,\"kind\":\"submitted\",\"t_us\":1}";
        assert!(parse_line_strict(largest).is_ok());
    }

    #[test]
    fn nested_values_are_malformed() {
        let line = "{\"node\":0,\"kind\":\"submitted\",\"t_us\":5,\"extra\":[1]}";
        assert_eq!(parse_line_strict(line), Err(LineError::Malformed));
    }

    #[test]
    fn missing_field_is_a_typed_error() {
        let line = "{\"node\":0,\"kind\":\"delivered\",\"t_us\":5,\"seq\":1}";
        assert_eq!(parse_line_strict(line), Err(LineError::MissingField("src")));
    }

    #[test]
    fn strict_trace_parse_reports_the_line_number() {
        let trace =
            "{\"node\":0,\"kind\":\"submitted\",\"t_us\":5}\n\n{\"node\":0,\"kind\":\"submitted\"";
        let err = parse_trace_strict(trace).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.error, LineError::Malformed);
        assert!(err.to_string().contains("line 3"));
        let ok = parse_trace_strict("{\"node\":0,\"kind\":\"submitted\",\"t_us\":5}\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn tap_joins_across_nodes() {
        let lines = vec![
            TraceLine::Event {
                node: 0,
                event: ProtocolEvent::DataSent {
                    src: id(0),
                    seq: Seq::new(1),
                    now_us: 100,
                },
            },
            TraceLine::Event {
                node: 0,
                event: ProtocolEvent::Delivered {
                    src: id(0),
                    seq: Seq::new(1),
                    now_us: 900, // self-delivery: excluded
                },
            },
            TraceLine::Event {
                node: 1,
                event: ProtocolEvent::Delivered {
                    src: id(0),
                    seq: Seq::new(1),
                    now_us: 350,
                },
            },
            TraceLine::Event {
                node: 2,
                event: ProtocolEvent::Delivered {
                    src: id(0),
                    seq: Seq::new(1),
                    now_us: 400,
                },
            },
        ];
        let mut tap = tap_samples_us(&lines);
        tap.sort_unstable();
        assert_eq!(tap, vec![250, 300]);
    }

    #[test]
    fn tco_collects_host_samples() {
        let lines = vec![
            TraceLine::HostTco {
                node: 0,
                at_us: 1,
                dur_us: 10,
            },
            TraceLine::HostTco {
                node: 1,
                at_us: 2,
                dur_us: 20,
            },
        ];
        assert_eq!(tco_samples_us(&lines), vec![10, 20]);
    }
}
