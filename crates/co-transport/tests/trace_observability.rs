//! End-to-end observability over the threaded transport: a traced cluster
//! run must yield a JSONL trace that round-trips losslessly and
//! reproduces the host-measured Tco/Tap figures — the paper's Figure-8
//! quantities recovered *offline* from the event stream instead of from
//! the live `NodeReport` instrumentation.

use bytes::Bytes;
use co_observe::jsonl::{self, TraceLine};
use co_transport::{merged_trace, Cluster, ClusterOptions};

fn traced_run(n: usize, rounds: usize) -> Vec<co_transport::NodeReport> {
    let options = ClusterOptions {
        trace: true,
        ..ClusterOptions::default()
    };
    let cluster = Cluster::start(n, options).expect("cluster starts");
    for round in 0..rounds {
        for i in 0..n {
            cluster
                .submit(i, Bytes::from(format!("m-{round}-{i}").into_bytes()))
                .expect("submit");
        }
    }
    cluster.shutdown()
}

#[test]
fn trace_round_trips_through_jsonl() {
    let reports = traced_run(3, 4);
    let trace = merged_trace(&reports);
    assert!(!trace.is_empty(), "traced run must record events");
    let text: String = trace.iter().map(|l| jsonl::encode_line(l) + "\n").collect();
    let parsed = jsonl::parse_trace(&text);
    assert_eq!(parsed, trace, "JSONL encode/parse must be lossless");
}

#[test]
fn trace_reproduces_tap_sample_count() {
    let reports = traced_run(3, 4);
    let trace = merged_trace(&reports);
    let from_trace = jsonl::tap_samples_us(&trace);
    let from_reports: usize = reports.iter().map(|r| r.tap_samples.len()).sum();
    // Every remote delivery contributes exactly one Tap sample in both
    // views: the live report (submit timestamp framed in the payload) and
    // the offline join of DataSent → remote Delivered events.
    assert_eq!(from_trace.len(), from_reports);
    assert_eq!(
        from_trace.len(),
        4 * 3 * 2,
        "4 rounds × 3 senders × 2 remotes"
    );
}

#[test]
fn trace_reproduces_tco_samples() {
    let reports = traced_run(3, 2);
    let trace = merged_trace(&reports);
    let mut from_trace = jsonl::tco_samples_us(&trace);
    // The HostTco record stores whole microseconds; truncate the live
    // samples the same way before comparing the multisets.
    let mut from_reports: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.tco_samples.iter().map(|d| d.as_micros() as u64))
        .collect();
    from_trace.sort_unstable();
    from_reports.sort_unstable();
    assert_eq!(from_trace, from_reports);
}

#[test]
fn latency_histograms_populated_without_tracing() {
    // Histograms are always-on (bounded state); the trace stays empty
    // unless requested.
    let cluster = Cluster::start(3, ClusterOptions::default()).expect("cluster starts");
    cluster
        .submit(0, Bytes::from_static(b"hello"))
        .expect("submit");
    let reports = cluster.shutdown();
    for r in &reports {
        assert!(r.trace.is_empty(), "tracing is opt-in");
        assert!(
            r.latency.accept_to_deliver().count() >= 1,
            "at {}: every node delivers and must time the accept→deliver stage",
            r.id
        );
    }
    // The sender timed submit→accept; remotes did not submit.
    assert!(reports[0].latency.submit_to_accept().count() >= 1);
}

#[test]
fn span_report_matches_live_instrumentation() {
    let reports = traced_run(3, 4);
    let trace = merged_trace(&reports);

    // Every report carries the same cluster-wide analysis.
    let span_report = reports[0].span_report.as_ref().expect("traced run");
    for r in &reports {
        assert_eq!(r.span_report.as_ref(), Some(span_report), "shared view");
    }

    // Every broadcast quiesced, so every span is complete.
    assert_eq!(span_report.spans.spans.len(), 4 * 3);
    assert_eq!(span_report.complete_spans, 4 * 3);
    assert!(span_report.spans.duplicates.is_empty());
    assert!(
        span_report.findings.is_empty(),
        "{:?}",
        span_report.findings
    );

    // Offline send→deliver is the event-join Tap: identical, sample for
    // sample, to the jsonl helper folding the same events.
    let mut tap_hist = co_observe::Histogram::new();
    for v in jsonl::tap_samples_us(&trace) {
        tap_hist.record(v);
    }
    assert_eq!(span_report.breakdown.send_to_deliver, tap_hist);

    // And the offline Tco histogram folds exactly the HostTco records,
    // which mirror the live tco_samples (whole-µs truncation).
    let mut tco_hist = co_observe::Histogram::new();
    for v in jsonl::tco_samples_us(&trace) {
        tco_hist.record(v);
    }
    assert_eq!(span_report.tco, tco_hist);
    let live_tco: usize = reports.iter().map(|r| r.tco_samples.len()).sum();
    assert_eq!(span_report.tco.count() as usize, live_tco);

    // Live Tap embeds the submit timestamp, which precedes the DataSent
    // event by the submit-processing time — so live samples are a hair
    // larger than the offline join. Same count, and the medians agree
    // within the histogram's bucket resolution (a factor of two) plus
    // that sub-millisecond framing skew.
    let live_tap: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.tap_samples.iter().map(|d| d.as_micros() as u64))
        .collect();
    assert_eq!(
        span_report.breakdown.send_to_deliver.count() as usize,
        live_tap.len()
    );
    let mut live_hist = co_observe::Histogram::new();
    for v in &live_tap {
        live_hist.record(*v);
    }
    let (live_p50, off_p50) = (
        live_hist.quantile_us(0.5),
        span_report.breakdown.send_to_deliver.quantile_us(0.5),
    );
    assert!(
        off_p50 <= live_p50.saturating_mul(2) + 1_000
            && live_p50 <= off_p50.saturating_mul(2) + 1_000,
        "offline p50 {off_p50}us vs live p50 {live_p50}us"
    );

    // Per-destination views partition the aggregate.
    let merged: u64 = span_report
        .per_dest
        .iter()
        .map(|b| b.send_to_deliver.count())
        .sum();
    assert_eq!(merged, span_report.breakdown.send_to_deliver.count());
}

#[test]
fn span_report_absent_without_tracing() {
    let cluster = Cluster::start(2, ClusterOptions::default()).expect("cluster starts");
    cluster
        .submit(0, Bytes::from_static(b"hi"))
        .expect("submit");
    let reports = cluster.shutdown();
    assert!(reports.iter().all(|r| r.span_report.is_none()));
}

#[test]
fn merged_trace_is_time_sorted() {
    let reports = traced_run(3, 3);
    let trace = merged_trace(&reports);
    let times: Vec<u64> = trace.iter().map(TraceLine::t_us).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "trace must be time-sorted"
    );
}

#[test]
fn flight_recorder_dumps_ride_every_report() {
    // The black box is always on: even an untraced run surrenders each
    // node's most recent protocol events, labelled with the core and the
    // transport it ran on, and the dump lines are analyzable JSONL.
    let cluster = Cluster::start(3, ClusterOptions::default()).expect("cluster starts");
    for round in 0..4 {
        for i in 0..3 {
            cluster
                .submit(i, Bytes::from(format!("r-{round}-{i}").into_bytes()))
                .expect("submit");
        }
    }
    let reports = cluster.shutdown();
    for (i, r) in reports.iter().enumerate() {
        assert!(r.panicked.is_none());
        let dump = &r.flight_recorder;
        assert_eq!(dump.node, i as u32);
        assert_eq!(dump.core, "co");
        assert_eq!(dump.network, "threaded");
        assert!(!dump.events.is_empty(), "traffic flowed at node {i}");
        for line in dump.event_lines() {
            let parsed = jsonl::parse_line_strict(&line).expect("dump lines are valid JSONL");
            assert!(matches!(parsed, TraceLine::Event { .. }));
        }
    }
}

#[test]
fn recorder_depth_zero_disables_retention() {
    let options = ClusterOptions {
        recorder_depth: 0,
        ..ClusterOptions::default()
    };
    let cluster = Cluster::start(2, options).expect("cluster starts");
    cluster.submit(0, Bytes::from_static(b"x")).expect("submit");
    let reports = cluster.shutdown();
    for r in &reports {
        assert!(r.flight_recorder.events.is_empty());
        assert_eq!(r.flight_recorder.capacity, 0);
        assert!(
            r.flight_recorder.evicted > 0,
            "events still flowed past the zero-depth ring"
        );
    }
}

#[test]
fn clean_traced_run_has_no_findings_in_either_scope() {
    // The node-scope detectors (`live_findings`: each node's own stream)
    // and the merged-trace pass (`span_report`: all five rules over the
    // cluster) both judge a healthy run healthy — in particular no node
    // mistakes peers' deliveries it cannot see for missing ones.
    let reports = traced_run(3, 4);
    for r in &reports {
        assert_eq!(r.live_findings, vec![], "node {}", r.id);
        let spans = r.span_report.as_ref().expect("traced run is analyzed");
        assert_eq!(spans.findings, vec![], "node {}", r.id);
        assert_eq!(spans.complete_spans, 4 * 3, "4 rounds × 3 senders");
    }
}
