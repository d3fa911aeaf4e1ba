//! The bundled analysis report, with text and JSON renderings.

use std::fmt::Write as _;

use co_observe::{Histogram, Json, TraceLine};

use crate::anomaly::{AnomalyConfig, Finding};
use crate::span::{Breakdown, SpanSet};
use crate::stream::StreamingDetectors;

/// Everything `analyze` extracts from one merged trace: the stitched
/// spans, the receipt-level latency breakdown (aggregate and per
/// destination), the host-measured Tco histogram, and the anomaly
/// findings.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// The stitched spans (kept so callers can drill into evidence).
    pub spans: SpanSet,
    /// Spans complete across every destination.
    pub complete_spans: usize,
    /// Aggregated receipt-level breakdown over all destinations.
    pub breakdown: Breakdown,
    /// Per-destination breakdowns, indexed by node.
    pub per_dest: Vec<Breakdown>,
    /// Host-measured protocol-processing time (the paper's Tco).
    pub tco: Histogram,
    /// Anomaly findings, in [`StreamingDetectors::findings`]' order.
    pub findings: Vec<Finding>,
}

/// Stitches, folds, and scans one merged trace: the lines, oldest first,
/// through [`StreamingDetectors`]. `lines` may be in any order (per-node
/// dumps concatenated, say); they are sorted by timestamp first, lines
/// with equal timestamps keeping their given order.
pub fn analyze(lines: &[TraceLine], cfg: &AnomalyConfig) -> SpanReport {
    let sorted;
    let lines = if lines.is_sorted_by_key(TraceLine::t_us) {
        lines
    } else {
        sorted = {
            let mut copy = lines.to_vec();
            copy.sort_by_key(TraceLine::t_us);
            copy
        };
        &sorted
    };
    let mut fold = StreamingDetectors::new(*cfg);
    let mut tco = Histogram::new();
    for line in lines {
        fold.observe_line(line);
        if let TraceLine::HostTco { dur_us, .. } = line {
            tco.record(*dur_us);
        }
    }
    let findings = fold.findings();
    let spans = fold.into_spans();
    let breakdown = spans.breakdown();
    let per_dest = (0..spans.n)
        .map(|node| spans.breakdown_for(node as u32))
        .collect();
    SpanReport {
        complete_spans: spans.complete_count(),
        breakdown,
        per_dest,
        tco,
        findings,
        spans,
    }
}

fn histogram_row(name: &str, h: &Histogram, out: &mut String) {
    let _ = writeln!(
        out,
        "  {name:<18} n={:<6} min={}us p50={}us p90={}us p99={}us max={}us",
        h.count(),
        h.min_us(),
        h.quantile_us(0.5),
        h.quantile_us(0.9),
        h.quantile_us(0.99),
        h.max_us(),
    );
}

fn count(v: usize) -> Json {
    Json::Num(v as u64)
}

/// One finding as a JSON object (shared by the JSON report and
/// `co-cli trace watch --json`, which prints its compact form).
pub fn finding_to_json(finding: &Finding) -> Json {
    let mut fields = vec![("kind", Json::Str(finding.kind().to_string()))];
    match finding {
        Finding::StuckAtPreAck {
            node,
            src,
            seq,
            waited_us,
            ..
        } => fields.extend([
            ("node", Json::Num(u64::from(*node))),
            ("src", Json::Num(u64::from(*src))),
            ("seq", Json::Num(*seq)),
            ("waited_us", Json::Num(*waited_us)),
        ]),
        Finding::NeverAcknowledged {
            src, seq, missing, ..
        } => fields.extend([
            ("src", Json::Num(u64::from(*src))),
            ("seq", Json::Num(*seq)),
            ("missing", Json::nums(missing.iter().copied())),
        ]),
        Finding::RetStorm {
            src,
            requests,
            window_us,
            from_us,
            to_us,
            requesters,
        } => fields.extend([
            ("src", Json::Num(u64::from(*src))),
            ("requests", count(*requests)),
            ("window_us", Json::Num(*window_us)),
            ("from_us", Json::Num(*from_us)),
            ("to_us", Json::Num(*to_us)),
            ("requesters", Json::nums(requesters.iter().copied())),
        ]),
        Finding::LossBurst {
            detections,
            f1,
            f2,
            from_us,
            to_us,
            sources,
        } => fields.extend([
            ("detections", count(*detections)),
            ("f1", count(*f1)),
            ("f2", count(*f2)),
            ("from_us", Json::Num(*from_us)),
            ("to_us", Json::Num(*to_us)),
            ("sources", Json::nums(sources.iter().copied())),
        ]),
        Finding::FlowSaturation {
            node,
            blocked,
            max_outstanding,
            min_limit,
            starved,
            from_us,
            to_us,
        } => fields.extend([
            ("node", Json::Num(u64::from(*node))),
            ("blocked", count(*blocked)),
            ("max_outstanding", Json::Num(*max_outstanding)),
            ("min_limit", Json::Num(*min_limit)),
            ("starved", Json::Bool(*starved)),
            ("from_us", Json::Num(*from_us)),
            ("to_us", Json::Num(*to_us)),
        ]),
    }
    Json::obj(fields)
}

/// One-line human description of a finding (shared by the text report
/// and `co-cli trace watch`).
pub fn describe_finding(finding: &Finding) -> String {
    match finding {
        Finding::StuckAtPreAck {
            node,
            src,
            seq,
            waited_us,
            ..
        } => format!("pdu {src}:{seq} stuck at pre-ack on node {node} for {waited_us}us"),
        Finding::NeverAcknowledged {
            src, seq, missing, ..
        } => format!("pdu {src}:{seq} never delivered by nodes {missing:?}"),
        Finding::RetStorm {
            src,
            requests,
            window_us,
            from_us,
            to_us,
            requesters,
        } => format!(
            "ret storm: {requests} requests for source {src} within {window_us}us \
             ([{from_us}us, {to_us}us], requesters {requesters:?})"
        ),
        Finding::LossBurst {
            detections,
            f1,
            f2,
            from_us,
            to_us,
            sources,
        } => format!(
            "loss burst: {detections} detections ({f1} F1, {f2} F2) in \
             [{from_us}us, {to_us}us], sources {sources:?}"
        ),
        Finding::FlowSaturation {
            node,
            blocked,
            max_outstanding,
            min_limit,
            starved,
            from_us,
            to_us,
        } => format!(
            "flow saturation: node {node} blocked {blocked} submits in \
             [{from_us}us, {to_us}us] (outstanding<={max_outstanding}, \
             limit>={min_limit}{})",
            if *starved { ", starved" } else { "" }
        ),
    }
}

fn histogram_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::Num(h.count())),
        ("min_us", Json::Num(h.min_us())),
        ("p50_us", Json::Num(h.quantile_us(0.5))),
        ("p90_us", Json::Num(h.quantile_us(0.9))),
        ("p99_us", Json::Num(h.quantile_us(0.99))),
        ("max_us", Json::Num(h.max_us())),
        ("mean_us", Json::Num(h.mean_us())),
    ])
}

fn breakdown_json(b: &Breakdown) -> Json {
    Json::obj(b.stages().map(|(name, h)| (name, histogram_json(h))))
}

impl SpanReport {
    /// Human-readable rendering (the default `co-cli trace analyze`
    /// output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spans: {} broadcasts across {} nodes, {} complete, {} duplicate stage records",
            self.spans.spans.len(),
            self.spans.n,
            self.complete_spans,
            self.spans.duplicates.len(),
        );
        out.push_str("receipt-level breakdown (all destinations):\n");
        for (name, h) in self.breakdown.stages() {
            histogram_row(name, h, &mut out);
        }
        if self.tco.count() > 0 {
            out.push_str("host tco:\n");
            histogram_row("tco", &self.tco, &mut out);
        }
        if self.findings.is_empty() {
            out.push_str("anomalies: none\n");
        } else {
            let _ = writeln!(out, "anomalies: {}", self.findings.len());
            for f in &self.findings {
                let _ = writeln!(out, "  [{}] {}", f.kind(), describe_finding(f));
            }
        }
        out
    }

    /// Machine-readable rendering (`co-cli trace analyze --json`): one
    /// JSON object on one line.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("nodes", count(self.spans.n)),
            ("spans", count(self.spans.spans.len())),
            ("complete_spans", count(self.complete_spans)),
            ("duplicates", count(self.spans.duplicates.len())),
            ("end_us", Json::Num(self.spans.end_us)),
            ("breakdown", breakdown_json(&self.breakdown)),
            (
                "per_dest",
                Json::Arr(self.per_dest.iter().map(breakdown_json).collect()),
            ),
            ("tco", histogram_json(&self.tco)),
            ("anomalies", count(self.findings.len())),
            (
                "findings",
                Json::Arr(self.findings.iter().map(finding_to_json).collect()),
            ),
        ])
        .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{complete_broadcast, ev, id};
    use causal_order::Seq;
    use co_observe::ProtocolEvent;

    fn clean_trace() -> Vec<TraceLine> {
        let mut lines = complete_broadcast(2, 0, 1, 10);
        lines.push(TraceLine::HostTco {
            node: 1,
            at_us: 41,
            dur_us: 6,
        });
        lines
    }

    #[test]
    fn analyze_bundles_spans_breakdown_tco_and_findings() {
        let report = analyze(&clean_trace(), &AnomalyConfig::default());
        assert_eq!(report.spans.n, 2);
        assert_eq!(report.complete_spans, 1);
        assert_eq!(report.per_dest.len(), 2);
        assert_eq!(report.breakdown.send_to_deliver.count(), 1);
        assert_eq!(report.tco.count(), 1);
        assert_eq!(report.tco.max_us(), 6);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn text_report_mentions_spans_and_anomalies() {
        let report = analyze(&clean_trace(), &AnomalyConfig::default());
        let text = report.render_text();
        assert!(text.contains("1 complete"), "{text}");
        assert!(text.contains("send_to_deliver"), "{text}");
        assert!(text.contains("anomalies: none"), "{text}");
    }

    #[test]
    fn json_report_is_parsable_and_counts_findings() {
        // A storm-only config so a finding appears.
        let mut lines = clean_trace();
        lines.push(ev(
            1,
            ProtocolEvent::RetSent {
                src: id(0),
                lseq: Seq::new(5),
                now_us: 45,
            },
        ));
        let cfg = AnomalyConfig {
            ret_storm_requests: 1,
            ..AnomalyConfig::default()
        };
        let report = analyze(&lines, &cfg);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"anomalies\":1"), "{json}");
        assert!(json.contains("\"kind\":\"ret_storm\""), "{json}");
        assert!(json.contains("\"complete_spans\":1"), "{json}");
        assert!(json.contains("\"requesters\":[1]"), "{json}");
        // Balanced braces/brackets — cheap well-formedness check.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }
}
