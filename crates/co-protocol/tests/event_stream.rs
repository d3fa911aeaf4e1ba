//! The event stream is a faithful, lossless view of the engine.
//!
//! Two properties pin it down:
//!
//! * **Counter reconstruction** — folding the emitted [`ProtocolEvent`]s
//!   through [`CounterFold`] must rebuild [`Metrics::snapshot`] *exactly*,
//!   on any schedule (in-order, lossy, duplicated, reordered). An event
//!   the engine forgets to emit, or emits twice, breaks this equality.
//! * **Digest determinism** — the same schedule replayed against fresh
//!   entities produces bit-identical event streams, witnessed by the
//!   order-sensitive FNV digest.

use bytes::Bytes;
use causal_order::EntityId;
use co_observe::{CounterFold, DigestObserver, EventLog, Tee};
use co_protocol::{Action, CoCore, Config, Entity, Pdu};
use proptest::prelude::*;

type TestObserver = Tee<DigestObserver, EventLog>;

/// A 3-entity cluster with explicit in-flight PDU queues, driven by an
/// opcode script: the proptest-shrunk schedule decides who submits, which
/// queued PDU arrives where (possibly out of order), what gets lost, and
/// when ticks fire.
struct Net {
    entities: Vec<Entity<CoCore, TestObserver>>,
    /// Per-destination inbox of undelivered PDUs.
    inflight: Vec<Vec<Pdu>>,
    now: u64,
}

const N: usize = 3;

impl Net {
    fn new() -> Net {
        let entities = (0..N)
            .map(|i| {
                let config = Config::builder(7, N, EntityId::new(i as u32))
                    .window(8)
                    .build()
                    .expect("valid config");
                Entity::with_observer(config, TestObserver::default()).expect("valid config")
            })
            .collect();
        Net {
            entities,
            inflight: vec![Vec::new(); N],
            now: 0,
        }
    }

    fn apply(&mut self, from: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Broadcast(pdu) => {
                    for dst in 0..N {
                        if dst != from {
                            self.inflight[dst].push(pdu.clone());
                        }
                    }
                }
                Action::Deliver(_) => {}
                _ => {}
            }
        }
    }

    /// One scripted step; opcodes wrap around so any byte is valid.
    fn step(&mut self, op: u8, arg: u8) {
        self.now += 50;
        let i = usize::from(arg) % N;
        match op % 4 {
            // Submit a payload at entity `i`.
            0 => {
                if let Ok((_, actions)) =
                    self.entities[i].submit(Bytes::from_static(b"m"), self.now)
                {
                    self.apply(i, actions);
                }
            }
            // Deliver a queued PDU to `i` — front half of the arg range
            // takes the oldest (in-order), the rest the newest (reorder).
            1 => {
                if self.inflight[i].is_empty() {
                    return;
                }
                let pdu = if arg < 128 {
                    self.inflight[i].remove(0)
                } else {
                    self.inflight[i].pop().expect("non-empty")
                };
                let mut actions = Vec::new();
                self.entities[i]
                    .on_pdu(pdu, self.now, &mut actions)
                    .expect("well-addressed PDU");
                self.apply(i, actions);
            }
            // Lose the oldest queued PDU for `i` (buffer overrun).
            2 => {
                if !self.inflight[i].is_empty() {
                    self.inflight[i].remove(0);
                }
            }
            // Tick entity `i` (RET retries, deferred confirmation).
            _ => {
                let actions = self.entities[i].on_tick(self.now);
                self.apply(i, actions);
            }
        }
    }

    /// Runs a packed script: high byte = opcode, low byte = argument.
    fn run(script: &[u16]) -> Net {
        let mut net = Net::new();
        for &word in script {
            net.step((word >> 8) as u8, word as u8);
        }
        // Settle: ticks with idle time let RETs fire and deferred
        // confirmations flush, exercising the recovery events too.
        for _ in 0..40 {
            net.now += 2_000;
            for i in 0..N {
                let actions = net.entities[i].on_tick(net.now);
                net.apply(i, actions);
            }
            for i in 0..N {
                while let Some(pdu) = {
                    let inbox = &mut net.inflight[i];
                    if inbox.is_empty() {
                        None
                    } else {
                        Some(inbox.remove(0))
                    }
                } {
                    let mut actions = Vec::new();
                    net.entities[i]
                        .on_pdu(pdu, net.now, &mut actions)
                        .expect("well-addressed PDU");
                    net.apply(i, actions);
                }
            }
        }
        net
    }
}

proptest! {
    /// Folding the event stream reconstructs the engine's own counters
    /// exactly, under arbitrary loss/reorder/duplication-free schedules.
    #[test]
    fn counter_fold_reconstructs_metrics(script in proptest::collection::vec(any::<u16>(), 0..120)) {
        let net = Net::run(&script);
        for entity in &net.entities {
            let folded = CounterFold::fold(entity.observer().1.events());
            prop_assert_eq!(folded, entity.metrics().snapshot());
        }
    }

    /// The same schedule against fresh entities yields the same event
    /// stream, bit for bit.
    #[test]
    fn same_schedule_same_event_digest(script in proptest::collection::vec(any::<u16>(), 0..120)) {
        let a = Net::run(&script);
        let b = Net::run(&script);
        for (x, y) in a.entities.iter().zip(&b.entities) {
            prop_assert_eq!(x.observer().0.digest(), y.observer().0.digest());
            prop_assert_eq!(x.observer().1.events(), y.observer().1.events());
        }
    }
}

/// A deterministic smoke check that the stream is non-trivial: a lossy
/// schedule must produce loss-detection events, not just the happy path.
#[test]
fn lossy_schedule_emits_recovery_events() {
    // E1 submits twice; E2 loses the first PDU, receives the second →
    // F1 gap, reorder buffering, RET, retransmission, recovery.
    // Script words: high byte = opcode, low byte = argument.
    let script: Vec<u16> = vec![
        0x0000, // submit at E1
        0x0000, // submit at E1
        0x0201, // E2 loses the oldest queued PDU
        0x0101, // E2 receives the next one: sequence gap
    ];
    let net = Net::run(&script);
    let counters = CounterFold::fold(net.entities[1].observer().1.events());
    assert!(counters.f1_detections >= 1, "gap must trigger F1");
    assert_eq!(counters, net.entities[1].metrics().snapshot());
    assert_eq!(counters.delivered, 2, "recovery must complete");
}
