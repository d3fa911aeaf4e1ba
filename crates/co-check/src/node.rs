//! The simulator node under test: `co-baselines`' [`EntityNode`] — the
//! same node the experiments, examples and root tests host entities in,
//! so "a verdict difference is a core difference, never a harness one"
//! holds across all of them — running the checker's observer stack.
//!
//! Every entity runs with a [`CheckObserver`]: an order-sensitive FNV
//! digest of the protocol event stream (the determinism witness — same
//! scenario, same digest), a [`FlightRecorder`] ring of the most recent
//! events (the black box a reproducer embeds when an oracle trips), plus
//! an opt-in full event log for the trace-level oracles. The node carries
//! the observer *across crash-restart*: the digest and the recorder span
//! the node's whole life, both incarnations.

use co_baselines::EntityNode;
use co_observe::{DigestObserver, EventLog, FlightRecorder, ProtocolEvent, Tee};
use co_protocol::{CoCore, Config, DeliveryCore};

/// The observer a [`CheckNode`] entity runs with: event-stream digest
/// always, flight recorder always (depth 0 disables retention), full
/// event log only when the runner asks for a trace.
pub type CheckObserver = Tee<DigestObserver, Tee<Option<EventLog>, FlightRecorder>>;

/// A protocol entity wired into the simulator under a [`CheckObserver`].
pub type CheckNode<C = CoCore> = EntityNode<C, CheckObserver>;

/// Hosts a fresh entity for `config`. With `trace` set, the full protocol
/// event stream is retained (see [`trace`]); the event digest is always
/// computed, and a flight recorder keeps the last `recorder_depth` events
/// (0 retains nothing).
///
/// # Panics
///
/// Panics if the configuration is rejected (checker scenarios only
/// generate valid configurations).
pub fn check_node<C: DeliveryCore>(
    config: Config,
    trace: bool,
    recorder_depth: usize,
) -> CheckNode<C> {
    let observer = Tee(
        DigestObserver::new(),
        Tee(
            trace.then(EventLog::default),
            FlightRecorder::new(recorder_depth),
        ),
    );
    EntityNode::with_observer(config, observer).expect("valid scenario config")
}

/// Order-sensitive digest of every protocol event `node` emitted, across
/// crash-restarts. Identical digests ⇒ identical event streams.
pub fn event_digest<C: DeliveryCore>(node: &CheckNode<C>) -> u64 {
    node.entity().observer().0.digest()
}

/// The retained protocol event stream; empty unless the node was created
/// with `trace` set.
pub fn trace<C: DeliveryCore>(node: &CheckNode<C>) -> &[ProtocolEvent] {
    let log = &node.entity().observer().1 .0;
    log.as_ref().map_or(&[], |log| log.events())
}

/// The always-on flight recorder (the last `recorder_depth` events, across
/// crash-restarts).
pub fn recorder<C: DeliveryCore>(node: &CheckNode<C>) -> &FlightRecorder {
    &node.entity().observer().1 .1
}
