//! Protocol oracles: what a correct CO-protocol run must look like.
//!
//! The oracles judge a run purely from the application-level events the
//! [`crate::node::CheckNode`]s logged — never from the engine's own
//! bookkeeping — so an engine bug cannot hide itself. They are:
//!
//! * **Safety** (§2.2/§2.3, via `causal_order::properties::RunTrace`):
//!   atomicity (every broadcast delivered everywhere),
//!   no-duplication/no-creation, per-source FIFO and causal delivery
//!   order.
//! * **Ack integrity** (Lemma 4.2): retransmissions are bit-identical, so
//!   every entity must observe the *same* piggybacked ACK vector for a
//!   given `(src, seq)` — a cheap cross-node check that loss recovery
//!   never forges causality metadata.
//! * **Liveness** (Theorem §4.3 territory): once the fault plan's windows
//!   close and the workload stops, the run must quiesce with every entity
//!   fully stable (everything accepted is known globally pre-acked).
//! * **Stage order** (§3's three receipt levels), traced runs only: judged
//!   from the structured protocol event stream instead of the app-level
//!   events — every message must walk
//!   *accept → pre-acknowledge → deliver* in order, each stage exactly
//!   once per `(src, seq)` at each node.
//!
//! Deliberately *not* an oracle: per-delivery dependency closure derived
//! from the ACK vectors. The CPI's inconsistent-triad scope (see
//! `co-protocol::cpi`) means a direct `⇒` edge inside one PACK batch can be
//! legitimately unsatisfiable, so that check would reject correct runs.
//! The ground-truth happened-before graph built from the recorded events
//! (what `RunTrace` uses) has no such ambiguity.

use std::collections::HashMap;

use causal_order::properties::{RunTrace, Violation as TraceViolation};
use causal_order::{EntityId, MsgId, Seq};
use co_baselines::AppEvent;
use co_observe::ProtocolEvent;

/// Multiplier folding `(src, seq)` into a [`MsgId`]: `src * SRC_STRIDE +
/// seq`. Sequence numbers stay far below this in any bounded run.
pub const SRC_STRIDE: u64 = 1_000_000;

/// The oracle family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// A broadcast message was never delivered at some entity.
    Atomicity,
    /// A message was delivered more than once at some entity.
    Duplication,
    /// A message was delivered that nobody broadcast.
    Creation,
    /// Two messages from one source were delivered out of sending order.
    Fifo,
    /// A message was delivered before a causal predecessor.
    Causality,
    /// A message skipped or repeated a receipt stage
    /// (accept → pre-ack → deliver) in the protocol event stream.
    StageOrder,
    /// A delivered message's cross-node span was incomplete or
    /// stage-disordered somewhere in the cluster (the stitched-trace
    /// oracle, strictly stronger than [`Category::StageOrder`]).
    SpanConsistency,
    /// Entities observed different ACK vectors for the same message.
    AckIntegrity,
    /// The run failed to quiesce, or quiesced without global stability.
    Liveness,
}

impl Category {
    /// All categories, in severity order.
    pub const ALL: [Category; 9] = [
        Category::Atomicity,
        Category::Duplication,
        Category::Creation,
        Category::Fifo,
        Category::Causality,
        Category::StageOrder,
        Category::SpanConsistency,
        Category::AckIntegrity,
        Category::Liveness,
    ];

    /// The stable name used in reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            Category::Atomicity => "atomicity",
            Category::Duplication => "duplication",
            Category::Creation => "creation",
            Category::Fifo => "fifo",
            Category::Causality => "causality",
            Category::StageOrder => "stage-order",
            Category::SpanConsistency => "span-consistency",
            Category::AckIntegrity => "ack-integrity",
            Category::Liveness => "liveness",
        }
    }

    /// Parses a stable name back into a category.
    pub fn parse(name: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One oracle violation found in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckViolation {
    /// Which oracle family failed.
    pub category: Category,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.category, self.detail)
    }
}

/// Folds `(src, seq)` into the [`MsgId`] space shared with `causal-order`.
pub fn msg_id(src: u32, seq: u64) -> MsgId {
    MsgId(u64::from(src) * SRC_STRIDE + seq)
}

/// Renders a [`MsgId`] back as `E<i>#<seq>` for diagnostics.
fn msg_label(m: MsgId) -> String {
    format!("E{}#{}", m.0 / SRC_STRIDE + 1, m.0 % SRC_STRIDE)
}

/// What the runner observed, handed to [`check`].
#[derive(Debug)]
pub struct RunObservation<'a> {
    /// Per-node logged events, in each node's local order.
    pub events: &'a [&'a [AppEvent]],
    /// Whether the simulator drained its queue within the event budget.
    pub quiesced: bool,
    /// Whether every entity reported `is_fully_stable()` at the end.
    pub all_stable: bool,
}

/// Runs every oracle over one observed run; returns all violations,
/// most severe category first.
pub fn check(obs: &RunObservation<'_>) -> Vec<CheckViolation> {
    let mut violations = Vec::new();
    check_safety(obs.events, &mut violations);
    check_ack_integrity(obs.events, &mut violations);
    if !obs.quiesced {
        violations.push(CheckViolation {
            category: Category::Liveness,
            detail: "run did not quiesce within the event budget (livelock?)".to_string(),
        });
    } else if !obs.all_stable {
        violations.push(CheckViolation {
            category: Category::Liveness,
            detail: "run quiesced but some entity is not fully stable \
                     (held PDUs, queued submits, or unacknowledged state remain)"
                .to_string(),
        });
    }
    violations.sort_by(|a, b| a.category.cmp(&b.category).then(a.detail.cmp(&b.detail)));
    violations
}

/// Checks one node's protocol event stream against the paper's three
/// receipt levels (§3): per `(src, seq)` the stages must appear in order
/// and exactly once — `DataSent` (the origin's transmission doubles as its
/// self-acceptance) or `Accepted` (remote), then `PreAcked`, then
/// `Delivered`.
///
/// `node` is the entity index the stream belongs to, used in diagnostics
/// and to tell own messages (which must start with `DataSent`) from remote
/// ones (which must start with `Accepted`).
pub fn check_stage_order(node: u32, trace: &[ProtocolEvent]) -> Vec<CheckViolation> {
    // Receipt level reached so far: 1 = accepted, 2 = pre-acked,
    // 3 = delivered.
    let mut stage: HashMap<(u32, u64), u8> = HashMap::new();
    let mut violations = Vec::new();
    let mut fail = |detail: String| {
        violations.push(CheckViolation {
            category: Category::StageOrder,
            detail,
        });
    };
    for event in trace {
        let (src, seq, expect_own, from, to) = match *event {
            ProtocolEvent::DataSent { src, seq, .. } => (src, seq, Some(true), 0u8, 1u8),
            ProtocolEvent::Accepted { src, seq, .. } => (src, seq, Some(false), 0, 1),
            ProtocolEvent::PreAcked { src, seq, .. } => (src, seq, None, 1, 2),
            ProtocolEvent::Delivered { src, seq, .. } => (src, seq, None, 2, 3),
            _ => continue,
        };
        // Diagnostics print one-based, matching `EntityId`'s Display.
        let label = format!("at E{}: {}#{}", node + 1, src, seq.get());
        if let Some(own) = expect_own {
            if own != (src.raw() == node) {
                fail(format!(
                    "{label} {} at a node that is {}the origin",
                    if own { "DataSent" } else { "Accepted" },
                    if src.raw() == node { "" } else { "not " },
                ));
                continue;
            }
        }
        let level = stage.entry((src.raw(), seq.get())).or_insert(0);
        if *level == from {
            *level = to;
        } else {
            fail(format!(
                "{label} reached receipt level {to} from level {level}, expected from {from}"
            ));
        }
    }
    for (&(src, seq), &level) in &stage {
        if level != 3 {
            fail(format!(
                "at E{}: E{}#{seq} stalled at receipt level {level}, never delivered",
                node + 1,
                src + 1,
            ));
        }
    }
    violations.sort_by(|a, b| a.detail.cmp(&b.detail));
    violations
}

/// The span-consistency oracle, judged from the *stitched* cross-node
/// trace (`co-trace`) instead of per-node streams: on a quiesced run,
/// every PDU that was delivered anywhere must have a complete
/// [`co_trace::BroadcastSpan`] — a recorded send plus accept, pre-ack and
/// deliver at **every** node — with monotonically ordered stage times at
/// each of them, and no stage recorded twice.
///
/// Strictly stronger than [`check_stage_order`]: that oracle validates
/// each node's chain in isolation, so a PDU that one node never even
/// heard of passes it trivially there; the span view cross-references the
/// nodes and catches exactly that hole (and clock-order violations the
/// per-node transition counter cannot see).
pub fn check_spans(traces: &[Vec<ProtocolEvent>]) -> Vec<CheckViolation> {
    let lines: Vec<co_observe::TraceLine> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.iter().map(move |&event| co_observe::TraceLine::Event {
                node: i as u32,
                event,
            })
        })
        .collect();
    let set = co_trace::stitch(&lines);
    let n = traces.len();
    let mut violations = Vec::new();
    let mut fail = |detail: String| {
        violations.push(CheckViolation {
            category: Category::SpanConsistency,
            detail,
        });
    };
    for dup in &set.duplicates {
        fail(format!(
            "E{}#{} recorded stage `{}` twice at E{}",
            dup.src + 1,
            dup.seq,
            dup.stage.name(),
            dup.node + 1,
        ));
    }
    for ((src, seq), span) in &set.spans {
        let label = format!("E{}#{seq}", src + 1);
        if !span.delivered_anywhere() {
            // Never delivered at all: the liveness/atomicity oracles own
            // that verdict; the span oracle only judges delivered PDUs.
            continue;
        }
        if span.sent_us.is_none() {
            fail(format!(
                "{label} was delivered but its send was never traced"
            ));
        }
        for missing in span.missing_deliveries(n) {
            fail(format!(
                "{label} was delivered elsewhere but its span at E{} never closed",
                missing + 1,
            ));
        }
        for (node, stage) in &span.stages {
            if stage.deliver_us.is_some() && !stage.complete() {
                fail(format!(
                    "{label} delivered at E{} with a gap in its span \
                     (accept {:?}, pre-ack {:?})",
                    node + 1,
                    stage.accept_us,
                    stage.pre_ack_us,
                ));
            }
            if let Some((a, b)) = stage.order_violation() {
                fail(format!(
                    "{label} at E{}: stage `{}` timed before `{}`",
                    node + 1,
                    b.name(),
                    a.name(),
                ));
            }
        }
    }
    violations.sort_by(|a, b| a.detail.cmp(&b.detail));
    violations
}

/// §2.2/§2.3 safety via the ground-truth [`RunTrace`] oracle.
fn check_safety(events: &[&[AppEvent]], out: &mut Vec<CheckViolation>) {
    let mut trace = RunTrace::new(events.len());
    for (i, node_events) in events.iter().enumerate() {
        let entity = EntityId::new(i as u32);
        for event in *node_events {
            match event {
                AppEvent::Broadcast { seq, .. } => {
                    trace.record_broadcast(entity, msg_id(i as u32, seq.get()));
                }
                AppEvent::Deliver { delivery: d, .. } => {
                    trace.record_delivery(entity, msg_id(d.src.raw(), d.seq.get()));
                }
                // What the oracles order is the broadcast, not the request.
                AppEvent::Submit { .. } => {}
            }
        }
    }
    if let Err(found) = trace.check_co_service() {
        out.extend(found.into_iter().map(classify_trace_violation));
    }
}

fn classify_trace_violation(v: TraceViolation) -> CheckViolation {
    match v {
        TraceViolation::MissingDelivery { entity, msg } => CheckViolation {
            category: Category::Atomicity,
            detail: format!("{entity} never delivered {}", msg_label(msg)),
        },
        TraceViolation::DuplicateDelivery { entity, msg } => CheckViolation {
            category: Category::Duplication,
            detail: format!("{entity} delivered {} more than once", msg_label(msg)),
        },
        TraceViolation::PhantomDelivery { entity, msg } => CheckViolation {
            category: Category::Creation,
            detail: format!(
                "{entity} delivered {} which nobody broadcast",
                msg_label(msg)
            ),
        },
        TraceViolation::LocalOrder {
            entity,
            first,
            second,
        } => CheckViolation {
            category: Category::Fifo,
            detail: format!(
                "{entity} delivered {} before same-source {}",
                msg_label(second),
                msg_label(first)
            ),
        },
        TraceViolation::Causality {
            entity,
            first,
            second,
        } => CheckViolation {
            category: Category::Causality,
            detail: format!(
                "{entity} delivered {} before causally earlier {}",
                msg_label(second),
                msg_label(first)
            ),
        },
        TraceViolation::TotalOrder { left, right, msg } => CheckViolation {
            // RunTrace::check_co_service never emits this, but stay total.
            category: Category::Causality,
            detail: format!("{left}/{right} ordered {} differently", msg_label(msg)),
        },
    }
}

/// Lemma 4.2: every entity observes the identical ACK vector per message.
fn check_ack_integrity(events: &[&[AppEvent]], out: &mut Vec<CheckViolation>) {
    let mut first_seen: HashMap<MsgId, (usize, &[Seq])> = HashMap::new();
    let mut flagged: Vec<MsgId> = Vec::new();
    let raw = |ack: &[Seq]| ack.iter().map(|a| a.get()).collect::<Vec<u64>>();
    for (i, node_events) in events.iter().enumerate() {
        for event in *node_events {
            let AppEvent::Deliver { delivery: d, .. } = event else {
                continue;
            };
            let m = msg_id(d.src.raw(), d.seq.get());
            let (first_node, first_ack) = *first_seen.entry(m).or_insert((i, &d.ack));
            if first_ack != d.ack && !flagged.contains(&m) {
                flagged.push(m);
                out.push(CheckViolation {
                    category: Category::AckIntegrity,
                    detail: format!(
                        "{} carried ack {:?} at E{} but {:?} at E{} \
                         (Lemma 4.2: retransmissions must be bit-identical)",
                        msg_label(m),
                        raw(first_ack),
                        first_node + 1,
                        raw(&d.ack),
                        i + 1
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_net::SimTime;

    fn deliver(src: u32, seq: u64, ack: Vec<u64>) -> AppEvent {
        AppEvent::Deliver {
            delivery: co_protocol::Delivery {
                src: EntityId::new(src),
                seq: Seq::new(seq),
                ack: ack.into_iter().map(Seq::new).collect(),
                data: bytes::Bytes::new(),
            },
            at: SimTime::ZERO,
        }
    }

    fn broadcast(seq: u64) -> AppEvent {
        AppEvent::Broadcast {
            seq: Seq::new(seq),
            at: SimTime::ZERO,
        }
    }

    fn judge(events: &[Vec<AppEvent>], quiesced: bool, all_stable: bool) -> Vec<CheckViolation> {
        let events: Vec<&[AppEvent]> = events.iter().map(Vec::as_slice).collect();
        check(&RunObservation {
            events: &events,
            quiesced,
            all_stable,
        })
    }

    fn obs(events: &[Vec<AppEvent>]) -> Vec<CheckViolation> {
        judge(events, true, true)
    }

    #[test]
    fn clean_run_passes_every_oracle() {
        let events = vec![
            vec![broadcast(1), deliver(0, 1, vec![1, 1])],
            vec![deliver(0, 1, vec![1, 1])],
        ];
        assert!(obs(&events).is_empty());
    }

    #[test]
    fn missing_delivery_is_atomicity() {
        let events = vec![vec![broadcast(1), deliver(0, 1, vec![1, 1])], vec![]];
        let v = obs(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].category, Category::Atomicity);
        assert!(v[0].detail.contains("E1#1"));
    }

    #[test]
    fn double_delivery_is_duplication_and_phantom_is_creation() {
        let events = vec![
            vec![
                broadcast(1),
                deliver(0, 1, vec![1, 1]),
                deliver(0, 1, vec![1, 1]),
                deliver(1, 9, vec![1, 1]),
            ],
            vec![deliver(0, 1, vec![1, 1])],
        ];
        let v = obs(&events);
        assert!(v.iter().any(|x| x.category == Category::Duplication));
        assert!(v.iter().any(|x| x.category == Category::Creation));
    }

    #[test]
    fn out_of_order_same_source_is_fifo_and_causality() {
        let events = vec![
            vec![
                broadcast(1),
                broadcast(2),
                deliver(0, 1, vec![1, 1]),
                deliver(0, 2, vec![1, 1]),
            ],
            vec![deliver(0, 2, vec![1, 1]), deliver(0, 1, vec![1, 1])],
        ];
        let v = obs(&events);
        assert!(v.iter().any(|x| x.category == Category::Fifo));
        assert!(v.iter().any(|x| x.category == Category::Causality));
    }

    #[test]
    fn mismatched_ack_vectors_are_flagged_once() {
        let events = vec![
            vec![broadcast(1), deliver(0, 1, vec![1, 1])],
            vec![deliver(0, 1, vec![2, 1])],
        ];
        let v = obs(&events);
        let acks: Vec<_> = v
            .iter()
            .filter(|x| x.category == Category::AckIntegrity)
            .collect();
        assert_eq!(acks.len(), 1);
        assert!(acks[0].detail.contains("Lemma 4.2"));
    }

    #[test]
    fn liveness_failures_are_reported() {
        let events: Vec<Vec<AppEvent>> = vec![vec![], vec![]];
        let v = judge(&events, false, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].category, Category::Liveness);
        let v = judge(&events, true, false);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("fully stable"));
    }

    #[test]
    fn cross_source_inversion_is_a_causality_violation() {
        // E3 delivers E2's message (causally after E1#1 at its origin)
        // before E1#1: a causality violation between *different* sources,
        // so per-source FIFO is clean.
        let ack = vec![1u64, 1, 1];
        let events = vec![
            vec![
                broadcast(1),
                deliver(0, 1, ack.clone()),
                deliver(1, 1, ack.clone()),
            ],
            vec![
                deliver(0, 1, ack.clone()),
                broadcast(1),
                deliver(1, 1, ack.clone()),
            ],
            vec![deliver(1, 1, ack.clone()), deliver(0, 1, ack)],
        ];
        let causal = obs(&events);
        assert!(
            causal.iter().any(|v| v.category == Category::Causality),
            "{causal:?}"
        );
    }

    #[test]
    fn category_names_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.name()), Some(c));
        }
        assert_eq!(Category::parse("nonsense"), None);
    }

    fn stage_events(own: bool) -> Vec<ProtocolEvent> {
        use causal_order::Seq;
        let src = EntityId::new(if own { 0 } else { 1 });
        let seq = Seq::FIRST;
        let first = if own {
            ProtocolEvent::DataSent {
                src,
                seq,
                now_us: 10,
            }
        } else {
            ProtocolEvent::Accepted {
                src,
                seq,
                from_reorder: false,
                now_us: 10,
            }
        };
        vec![
            first,
            ProtocolEvent::PreAcked {
                src,
                seq,
                now_us: 20,
            },
            ProtocolEvent::Delivered {
                src,
                seq,
                now_us: 30,
            },
        ]
    }

    #[test]
    fn stage_order_accepts_complete_chains() {
        assert!(check_stage_order(0, &stage_events(true)).is_empty());
        assert!(check_stage_order(0, &stage_events(false)).is_empty());
    }

    #[test]
    fn stage_order_flags_skipped_and_stalled_stages() {
        // Delivered without ever being pre-acked: skip flagged.
        let mut trace = stage_events(false);
        trace.remove(1);
        let v = check_stage_order(0, &trace);
        assert!(
            v.iter().any(|x| x.detail.contains("receipt level 3")),
            "{v:?}"
        );

        // Accepted but never delivered: stall flagged.
        let trace = &stage_events(false)[..1];
        let v = check_stage_order(0, trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].detail.contains("stalled"), "{v:?}");

        // Double delivery: repeat flagged.
        let mut trace = stage_events(true);
        trace.push(trace[2]);
        let v = check_stage_order(0, &trace);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].category, Category::StageOrder);
    }

    #[test]
    fn stage_order_flags_wrong_origin() {
        // A DataSent for a message this node did not originate.
        let trace = stage_events(true);
        let v = check_stage_order(2, &trace);
        assert!(
            v.iter().any(|x| x.detail.contains("not the origin")),
            "{v:?}"
        );
    }
}
