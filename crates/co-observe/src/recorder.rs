//! The flight recorder: a fixed-capacity, allocation-free ring buffer of
//! the most recent [`ProtocolEvent`]s.
//!
//! Every production driver keeps one per entity (composed into the
//! observer stack via [`crate::Tee`]) so that a failure — an oracle
//! violation in `co-check`, a panicked node thread in `co-transport` —
//! yields the last `capacity` protocol transitions *without* the cost or
//! foresight of full tracing. The recorder allocates once at
//! construction and never again: `on_event` is a bounds-checked store
//! plus a wrap branch, cheap enough to stay always-on (the `co-bench`
//! `entity/accept_recorder/*` rows price it per size, and the guard pins
//! the n = 256 row at ≤110% of the [`crate::NoopObserver`] baseline).
//!
//! [`RecorderDump`] is the serialized form: the retained events as
//! standard JSONL trace lines (each parseable by
//! [`crate::jsonl::parse_line_strict`], so `co-cli trace analyze` works
//! on a dump directly) plus the labels that identify the cell the entity
//! ran in — node id, delivery-core name, network preset.

use crate::event::ProtocolEvent;
use crate::json::Json;
use crate::jsonl::{self, TraceLine};
use crate::observer::Observer;

/// Default ring depth drivers use when no explicit depth is configured.
pub const DEFAULT_RECORDER_DEPTH: usize = 256;

/// A fixed-capacity ring buffer of the most recent events.
///
/// `Default` yields a zero-capacity recorder that retains nothing (it
/// only exists so observer stacks containing a recorder can be
/// `std::mem::take`n across an entity crash-restart; the taken original
/// keeps its state and capacity).
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// Event storage; grows by push until `capacity`, then wraps.
    buf: Vec<ProtocolEvent>,
    capacity: usize,
    /// When the buffer is full: index of the oldest retained event (and
    /// the next overwrite slot).
    head: usize,
    /// Events dropped to make room (or dropped outright at capacity 0).
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events. The single
    /// allocation happens here.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            evicted: 0,
        }
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nothing retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total events observed over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.evicted + self.buf.len() as u64
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ProtocolEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The retained events, oldest first, as an owned vector.
    pub fn events(&self) -> Vec<ProtocolEvent> {
        self.iter().copied().collect()
    }

    /// Forgets everything retained (capacity and the eviction counter
    /// are kept — the counter is lifetime telemetry).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn on_event(&mut self, event: ProtocolEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else if self.capacity == 0 {
            self.evicted += 1;
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.evicted += 1;
        }
    }
}

/// A serialized flight recorder: the retained events plus the labels
/// identifying where they were recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderDump {
    /// The recording entity's index.
    pub node: u32,
    /// Delivery-core name the entity ran (`"co"`, `"hybrid"`, ...).
    pub core: String,
    /// Network preset label the run used (`"uniform"`, ..., or a
    /// driver-specific label like `"inproc"`).
    pub network: String,
    /// The recorder's ring capacity.
    pub capacity: usize,
    /// Events evicted before the dump (how much history was lost).
    pub evicted: u64,
    /// The retained events, oldest first.
    pub events: Vec<ProtocolEvent>,
}

impl RecorderDump {
    /// Captures a recorder's current state under the given labels.
    pub fn capture(
        recorder: &FlightRecorder,
        node: u32,
        core: &str,
        network: &str,
    ) -> RecorderDump {
        RecorderDump {
            node,
            core: core.to_string(),
            network: network.to_string(),
            capacity: recorder.capacity(),
            evicted: recorder.evicted(),
            events: recorder.events(),
        }
    }

    /// The retained events as standard JSONL trace lines (no trailing
    /// newlines). Concatenating the lines of every node's dump yields a
    /// file `co-cli trace analyze` accepts as-is.
    pub fn event_lines(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|&event| {
                jsonl::encode_line(&TraceLine::Event {
                    node: self.node,
                    event,
                })
            })
            .collect()
    }

    /// The dump as one JSON object: the labels, the loss accounting, and
    /// the events as an array of JSONL line strings. `co-check` embeds it
    /// under `flight_recorders` in a reproducer artifact; `co-transport`
    /// prints its compact form when a node panics.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("node", Json::Num(u64::from(self.node))),
            ("core", Json::Str(self.core.clone())),
            ("network", Json::Str(self.network.clone())),
            ("capacity", Json::Num(self.capacity as u64)),
            ("evicted", Json::Num(self.evicted)),
            (
                "events",
                Json::Arr(self.event_lines().into_iter().map(Json::Str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_order::{EntityId, Seq};

    fn sample(now_us: u64) -> ProtocolEvent {
        ProtocolEvent::Delivered {
            src: EntityId::new(0),
            seq: Seq::new(now_us.max(1)),
            now_us,
        }
    }

    #[test]
    fn records_until_capacity_then_wraps() {
        let mut r = FlightRecorder::new(3);
        for t in 0..3 {
            r.on_event(sample(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 0);
        assert_eq!(
            r.events()
                .iter()
                .map(ProtocolEvent::now_us)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Two more: the two oldest fall out.
        r.on_event(sample(3));
        r.on_event(sample(4));
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(
            r.events()
                .iter()
                .map(ProtocolEvent::now_us)
                .collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn capacity_zero_retains_nothing_but_counts() {
        let mut r = FlightRecorder::new(0);
        for t in 0..5 {
            r.on_event(sample(t));
        }
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 5);
        assert_eq!(r.recorded(), 5);
        assert!(r.events().is_empty());
    }

    #[test]
    fn capacity_one_keeps_the_latest() {
        let mut r = FlightRecorder::new(1);
        r.on_event(sample(7));
        assert_eq!(r.events()[0].now_us(), 7);
        r.on_event(sample(8));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].now_us(), 8);
        assert_eq!(r.evicted(), 1);
    }

    #[test]
    fn exact_fill_does_not_evict() {
        let mut r = FlightRecorder::new(4);
        for t in 0..4 {
            r.on_event(sample(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 0);
        assert_eq!(
            r.events()
                .iter()
                .map(ProtocolEvent::now_us)
                .collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn wraps_many_times_and_stays_ordered() {
        let mut r = FlightRecorder::new(5);
        for t in 0..1_000 {
            r.on_event(sample(t));
        }
        assert_eq!(
            r.events()
                .iter()
                .map(ProtocolEvent::now_us)
                .collect::<Vec<_>>(),
            vec![995, 996, 997, 998, 999]
        );
        assert_eq!(r.evicted(), 995);
    }

    #[test]
    fn survives_mem_take_restore_cycle() {
        // co-check's crash-restart takes the observer out of the dying
        // entity and moves it into the restored one: the *taken* value
        // keeps recording with its original capacity and history.
        let mut r = FlightRecorder::new(2);
        r.on_event(sample(1));
        let mut taken = std::mem::take(&mut r);
        assert_eq!(r.capacity(), 0, "the placeholder retains nothing");
        taken.on_event(sample(2));
        taken.on_event(sample(3));
        assert_eq!(
            taken
                .events()
                .iter()
                .map(ProtocolEvent::now_us)
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(taken.capacity(), 2);
    }

    #[test]
    fn clear_keeps_capacity_and_eviction_count() {
        let mut r = FlightRecorder::new(2);
        for t in 0..4 {
            r.on_event(sample(t));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 2);
        assert_eq!(r.evicted(), 2);
        r.on_event(sample(9));
        assert_eq!(r.events()[0].now_us(), 9);
    }

    #[test]
    fn dump_lines_parse_back_as_trace_lines() {
        let mut r = FlightRecorder::new(8);
        r.on_event(sample(10));
        r.on_event(ProtocolEvent::FlowBlocked {
            outstanding: 4,
            limit: 2,
            now_us: 11,
        });
        let dump = RecorderDump::capture(&r, 3, "hybrid", "wan");
        assert_eq!(dump.node, 3);
        assert_eq!(dump.capacity, 8);
        assert_eq!(dump.evicted, 0);
        let lines = dump.event_lines();
        assert_eq!(lines.len(), 2);
        for (line, &event) in lines.iter().zip(dump.events.iter()) {
            match jsonl::parse_line_strict(line).expect("dump line parses") {
                TraceLine::Event { node, event: back } => {
                    assert_eq!(node, 3);
                    assert_eq!(back, event);
                }
                other => panic!("expected event line, got {other:?}"),
            }
        }
    }

    #[test]
    fn dump_json_carries_labels_and_escaped_lines() {
        let mut r = FlightRecorder::new(2);
        r.on_event(sample(1));
        let dump = RecorderDump::capture(&r, 0, "co", "uniform");
        let json = dump.to_json().to_compact();
        assert!(
            json.starts_with("{\"node\":0,\"core\":\"co\",\"network\":\"uniform\""),
            "{json}"
        );
        assert!(json.contains("\"capacity\":2"), "{json}");
        assert!(json.contains("\\\"kind\\\":\\\"delivered\\\""), "{json}");
    }
}
