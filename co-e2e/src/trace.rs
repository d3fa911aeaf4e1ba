//! Spans around the benchmark's calls into each layer.
//!
//! Tracing lives entirely in the benchmark: `BenchNode` brackets every
//! public call it makes (`submit`, `encode`, `decode_batch`, `on_pdus`,
//! `on_tick`) and [`TimedObserver`] brackets every observer callback the
//! protocol makes while inside one of those calls. Busy time and call
//! counts are summed per operation for every call; full span records
//! (name, start, end, parent, id) are kept for a 1-in-[`SAMPLE_EVERY`]
//! sample of submits, drains and ticks and written out when the run ends.
//! A layer's self time is its spans' duration minus its child spans'.

use std::io::Write;
use std::time::Instant;

use co_observe::{Observer, ProtocolEvent};

/// One submit / drain / tick in this many keeps its full span tree.
pub const SAMPLE_EVERY: u64 = 64;

/// A traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// A whole simulator callback into the node (parent of the rest).
    Callback,
    /// `Entity::submit_with`.
    Submit,
    /// `Entity::on_pdus_into`.
    OnPdus,
    /// `Entity::on_tick_with`.
    OnTick,
    /// `Pdu::encode`.
    Encode,
    /// `Pdu::decode_batch_into`.
    Decode,
    /// `Observer::on_event`, a child of the three protocol calls.
    Observer,
}

const OPS: usize = 7;

impl Op {
    /// `layer.op`, as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Callback => "harness.callback",
            Op::Submit => "co-protocol.submit",
            Op::OnPdus => "co-protocol.on_pdus",
            Op::OnTick => "co-protocol.on_tick",
            Op::Encode => "co-wire.encode",
            Op::Decode => "co-wire.decode_batch",
            Op::Observer => "co-observe.on_event",
        }
    }
}

/// Calls and busy time of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Completed calls.
    pub calls: u64,
    /// Σ (end − start), ns — children included.
    pub busy_ns: u64,
}

impl OpStat {
    /// Busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }
}

/// What a sampled span tree hangs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// The submit of message `(src, seq)`.
    Msg { src: u32, seq: u64 },
    /// A node's n-th inbox drain.
    Drain(u64),
    /// A node's n-th timer callback.
    Tick(u64),
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// The node that made the call.
    pub node: u32,
    /// What the span tree belongs to.
    pub id: SpanId,
    /// This span's number, unique within the node (1-based).
    pub span: u32,
    /// The enclosing span's number; 0 for a root.
    pub parent: u32,
    /// The operation.
    pub op: Op,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// Per-node span accounting. With tracing off every method is a branch
/// and nothing else: no clock is read.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    node: u32,
    stats: [OpStat; OPS],
    /// Per operation, Σ duration of the observer callbacks made inside it.
    observer_ns: [u64; OPS],
    spans: Vec<SpanRec>,
    next_span: u32,
    /// Set while the current callback is one of the sampled ones.
    sampling: Option<SpanId>,
}

impl Tracer {
    /// A tracer for `node`; `epoch` is shared by every node of the run so
    /// span times are comparable.
    pub fn new(node: u32, epoch: Instant) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            node,
            stats: [OpStat::default(); OPS],
            observer_ns: [0; OPS],
            spans: Vec::new(),
            next_span: 0,
            sampling: None,
        }
    }

    /// Turns timing on or off (off during warm-up and in untraced runs).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Now, ns since the epoch — or 0 with tracing off.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a callback: decides whether its span tree is kept.
    pub fn begin_callback(&mut self, id: SpanId, ordinal: u64) {
        self.sampling = (self.enabled && ordinal.is_multiple_of(SAMPLE_EVERY)).then_some(id);
    }

    /// Whether the current callback keeps full spans.
    pub fn sampling(&self) -> bool {
        self.sampling.is_some()
    }

    /// Adds `calls` finished calls of `op` totalling `busy_ns`.
    #[inline]
    pub fn account(&mut self, op: Op, calls: u64, busy_ns: u64) {
        if self.enabled {
            let stat = &mut self.stats[op as usize];
            stat.calls += calls;
            stat.busy_ns += busy_ns;
        }
    }

    /// Accounts the observer callbacks made inside one call of `parent`:
    /// they are `parent`'s child spans, and `Op::Observer`'s own calls.
    #[inline]
    pub fn account_observer(&mut self, parent: Op, calls: u64, busy_ns: u64) {
        if self.enabled {
            self.observer_ns[parent as usize] += busy_ns;
            self.account(Op::Observer, calls, busy_ns);
        }
    }

    /// Reserves the number a span will get when it is recorded *after* its
    /// children (a parent is only complete once they are); 0 when the
    /// current callback is not sampled.
    pub fn reserve(&mut self) -> u32 {
        if self.sampling.is_some() {
            self.next_span += 1;
            self.next_span
        } else {
            0
        }
    }

    /// Keeps the span `[start_ns, end_ns]` of `op` under `parent` if the
    /// current callback is sampled, numbering it `span` (reserved earlier)
    /// or freshly when `span` is 0. Returns its number, 0 if not kept.
    pub fn keep_span(&mut self, op: Op, span: u32, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let Some(id) = self.sampling else { return 0 };
        let span = if span == 0 { self.reserve() } else { span };
        self.spans.push(SpanRec {
            node: self.node,
            id,
            span,
            parent,
            op,
            start_ns,
            end_ns,
        });
        span
    }

    /// Accounts one finished call of `op` over `[start_ns, end_ns]` and
    /// keeps its span (numbered `span`, or freshly when 0) if sampled.
    #[inline]
    pub fn record(&mut self, op: Op, span: u32, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.account(op, 1, end_ns.saturating_sub(start_ns));
        self.keep_span(op, span, parent, start_ns, end_ns)
    }

    /// Totals for `op`.
    pub fn stat(&self, op: Op) -> OpStat {
        self.stats[op as usize]
    }

    /// Self time of a protocol operation, s: its busy time minus the
    /// observer callbacks made inside it.
    pub fn self_s(&self, op: Op) -> f64 {
        (self.stats[op as usize].busy_ns - self.observer_ns[op as usize]) as f64 / 1e9
    }

    /// Folds another node's totals and spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats) {
            mine.calls += theirs.calls;
            mine.busy_ns += theirs.busy_ns;
        }
        for (mine, theirs) in self.observer_ns.iter_mut().zip(other.observer_ns) {
            *mine += theirs;
        }
        self.spans.extend(other.spans);
    }

    /// The sampled spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Writes `spans` as JSON lines, one span each.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    spans: &[SpanRec],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let id = match s.id {
            SpanId::Msg { src, seq } => format!("msg:{src}:{seq}"),
            SpanId::Drain(k) => format!("drain:{k}"),
            SpanId::Tick(k) => format!("tick:{k}"),
        };
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"node\":{},\"id\":\"{id}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.node,
            s.span,
            s.parent,
            s.op.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Wraps the production observer stack and, when enabled, times every
/// callback into it — the `observer` child span of the protocol calls.
#[derive(Debug)]
pub struct TimedObserver<O> {
    /// The wrapped stack.
    pub inner: O,
    enabled: bool,
    epoch: Instant,
    /// Callbacks timed so far.
    pub events: u64,
    /// Σ callback duration, ns.
    pub busy_ns: u64,
    /// When set, each callback's `(start, end)` is also kept for the
    /// sampled span tree; the node drains it after the protocol call.
    pub keep: bool,
    /// The kept `(start_ns, end_ns)` pairs.
    pub kept: Vec<(u64, u64)>,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`, timing off.
    pub fn new(inner: O, epoch: Instant) -> TimedObserver<O> {
        TimedObserver {
            inner,
            enabled: false,
            epoch,
            events: 0,
            busy_ns: 0,
            keep: false,
            kept: Vec::new(),
        }
    }

    /// Turns timing on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    #[inline]
    fn on_event(&mut self, event: ProtocolEvent) {
        if !self.enabled {
            self.inner.on_event(event);
            return;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.inner.on_event(event);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.events += 1;
        self.busy_ns += end - start;
        if self.keep {
            self.kept.push((start, end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_reads_no_clock_and_records_nothing() {
        let mut t = Tracer::new(0, Instant::now());
        assert_eq!(t.now(), 0);
        t.begin_callback(SpanId::Drain(0), 0);
        assert_eq!(t.record(Op::Encode, 0, 0, 5, 9), 0);
        assert_eq!(t.stat(Op::Encode), OpStat::default());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn sampled_callback_keeps_a_parented_tree_others_only_totals() {
        let mut t = Tracer::new(3, Instant::now());
        t.set_enabled(true);
        t.begin_callback(SpanId::Drain(64), 64);
        let root = t.reserve();
        let child = t.record(Op::Decode, 0, root, 10, 30);
        assert_eq!(t.record(Op::Callback, root, 0, 5, 50), root);
        assert_eq!((root, child), (1, 2));
        t.begin_callback(SpanId::Drain(65), 65);
        assert_eq!(t.record(Op::Decode, 0, 0, 60, 70), 0);
        assert_eq!(
            t.stat(Op::Decode),
            OpStat {
                calls: 2,
                busy_ns: 30
            }
        );
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, 1);
        assert_eq!(t.spans()[1].op, Op::Callback);
    }
}
