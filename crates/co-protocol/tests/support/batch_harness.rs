//! Shared harness for the batch-acceptance equivalence tests: runs a
//! lossy, reordering, duplicating multi-entity simulation, records the
//! exact event stream entity 0 observed, then replays that stream into
//! fresh entities through the per-PDU path and the batched path and
//! compares everything the batch is not allowed to change.
//!
//! Included (via `#[path]`) by both the deterministic seed-driven test
//! and the proptest, so the equivalence definition lives in one place.
#![allow(dead_code)]

use bytes::Bytes;
use causal_order::EntityId;
use co_protocol::{
    Action, Config, DeferralPolicy, Delivery, Entity, EntityState, Metrics, Pdu,
    RetransmissionPolicy,
};
use std::collections::VecDeque;

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// One event as observed by entity 0, with the microsecond timestamp it
/// happened at. Consecutive `Recv`s sharing a timestamp model one inbox
/// drain and are what the batched replay groups together.
pub enum Ev {
    Recv(Pdu),
    Submit(Bytes),
    Tick,
}

pub fn config(n: usize, me: usize, deferral: DeferralPolicy) -> Config {
    Config::builder(0, n, EntityId::new(me as u32))
        .deferral(deferral)
        .retransmission(RetransmissionPolicy::Selective)
        .build()
        .expect("valid config")
}

/// Runs `steps` scheduler steps of an `n`-entity cluster over a faulty
/// network (drop/duplicate/reorder driven by `rng`), then drains to
/// quiescence. Returns the timestamped event stream entity 0 saw,
/// including occasional *invalid* PDUs (wrong cluster id) to check that
/// both replay paths drop them identically.
pub fn record_schedule(n: usize, steps: usize, rng: &mut Rng) -> Vec<(u64, Ev)> {
    let mut entities: Vec<Entity> = (0..n)
        .map(|i| Entity::new(config(n, i, DeferralPolicy::Immediate)).expect("valid config"))
        .collect();
    let mut inbox: Vec<VecDeque<Pdu>> = vec![VecDeque::new(); n];
    let mut schedule: Vec<(u64, Ev)> = Vec::new();
    let mut now = 0u64;
    let mut payload = 0u64;

    // Fan a broadcast out to every peer of `from`, with loss and
    // duplication.
    let fan_out =
        |from: usize, actions: Vec<Action>, inbox: &mut Vec<VecDeque<Pdu>>, rng: &mut Rng| {
            for action in actions {
                let Action::Broadcast(pdu) = action else {
                    continue;
                };
                for (to, queue) in inbox.iter_mut().enumerate() {
                    if to == from || rng.chance(12) {
                        continue; // dropped in the MC service
                    }
                    queue.push_back(pdu.clone());
                    if rng.chance(6) {
                        queue.push_back(pdu.clone()); // duplicated
                    }
                }
            }
        };

    let step = |entities: &mut Vec<Entity>,
                inbox: &mut Vec<VecDeque<Pdu>>,
                schedule: &mut Vec<(u64, Ev)>,
                now: &mut u64,
                payload: &mut u64,
                rng: &mut Rng,
                submits_allowed: bool| {
        *now += 40 + rng.below(80);
        match rng.below(if submits_allowed { 10 } else { 8 }) {
            8 | 9 => {
                // A random entity submits a payload.
                let who = rng.below(n as u64) as usize;
                let data = Bytes::from(format!("m{payload}").into_bytes());
                *payload += 1;
                if who == 0 {
                    schedule.push((*now, Ev::Submit(data.clone())));
                }
                let (_, actions) = entities[who].submit(data, *now).expect("payload fits");
                fan_out(who, actions, inbox, rng);
            }
            7 => {
                // A random entity's clock fires.
                let who = rng.below(n as u64) as usize;
                if who == 0 {
                    schedule.push((*now, Ev::Tick));
                }
                let actions = entities[who].on_tick(*now);
                fan_out(who, actions, inbox, rng);
            }
            _ => {
                // A random entity drains a burst from its inbox: several
                // PDUs observed at the *same* timestamp, possibly out of
                // order — exactly what a transport's batched drain sees.
                let who = rng.below(n as u64) as usize;
                let burst = 1 + rng.below(4) as usize;
                for _ in 0..burst {
                    if inbox[who].is_empty() {
                        break;
                    }
                    // Reorder within the queue.
                    let pick = rng.below(inbox[who].len().min(4) as u64) as usize;
                    let pdu = inbox[who].remove(pick).expect("picked in range");
                    if who == 0 {
                        schedule.push((*now, Ev::Recv(pdu.clone())));
                    }
                    let mut actions = Vec::new();
                    if entities[who].on_pdu(pdu, *now, &mut actions).is_ok() {
                        fan_out(who, actions, inbox, rng);
                    }
                }
                // Occasionally a mis-addressed frame reaches entity 0.
                if who == 0 && rng.chance(5) {
                    if let Some(sample) = inbox[0].front() {
                        let mut bad = sample.clone();
                        if let Pdu::Data(p) = &mut bad {
                            p.cid = 999;
                        }
                        if bad.cid() == 999 {
                            schedule.push((*now, Ev::Recv(bad)));
                        }
                    }
                }
            }
        }
    };

    for _ in 0..steps {
        step(
            &mut entities,
            &mut inbox,
            &mut schedule,
            &mut now,
            &mut payload,
            rng,
            true,
        );
    }
    // Drain phase: no new submits, just delivery bursts and ticks. A
    // fixed step budget keeps the recording deterministic and bounded;
    // the equivalence contract does not require reaching quiescence.
    for _ in 0..300 {
        step(
            &mut entities,
            &mut inbox,
            &mut schedule,
            &mut now,
            &mut payload,
            rng,
            false,
        );
    }
    schedule
}

/// What replaying a schedule produced: the terminal (normalized) state
/// plus the action streams the batch path must reproduce exactly.
pub struct Replay {
    pub state: EntityState,
    pub delivered: Vec<Delivery>,
    /// `Data` and `Ret` broadcasts, in emission order (`AckOnly`s are
    /// excluded: the batch path coalesces those by design).
    pub data_ret_broadcasts: Vec<Pdu>,
    pub ack_only_count: usize,
}

fn split(actions: Vec<Action>, out: &mut Replay) {
    for action in actions {
        match action {
            Action::Deliver(d) => out.delivered.push(d),
            Action::Broadcast(pdu) => match pdu {
                Pdu::AckOnly(_) => out.ack_only_count += 1,
                other => out.data_ret_broadcasts.push(other),
            },
            _ => {}
        }
    }
}

/// Normalizes the fields the batch path is *allowed* to change: pure
/// timing/bookkeeping (advertisement cadence, heard-flags, gauges,
/// counters) that never affect matrices, logs, ordering, or `REQ`.
fn normalized(e: &Entity) -> EntityState {
    let mut s = e.export_state();
    s.fifo.heard_since_send.clear();
    s.fifo.peer_needs_update = false;
    s.fifo.last_send_us = 0;
    s.fifo.peak_held_pdus = 0;
    s.fifo.metrics = Metrics::default();
    s
}

/// Replays the schedule one PDU at a time (the reference path).
pub fn replay_per_pdu(n: usize, deferral: DeferralPolicy, schedule: &[(u64, Ev)]) -> Replay {
    let mut e = Entity::new(config(n, 0, deferral)).expect("valid config");
    let mut out = Replay {
        state: e.export_state(),
        delivered: Vec::new(),
        data_ret_broadcasts: Vec::new(),
        ack_only_count: 0,
    };
    for (now, ev) in schedule {
        let actions = match ev {
            Ev::Recv(pdu) => {
                let mut actions = Vec::new();
                let _ = e.on_pdu(pdu.clone(), *now, &mut actions);
                actions
            }
            Ev::Submit(data) => {
                let (_, actions) = e.submit(data.clone(), *now).expect("payload fits");
                actions
            }
            Ev::Tick => e.on_tick(*now),
        };
        split(actions, &mut out);
    }
    out.state = normalized(&e);
    out
}

/// Replays the schedule through [`Entity::on_pdus_into`], grouping
/// same-timestamp `Recv` runs into batches whose sizes are drawn from
/// `rng` (so partial drains are exercised too).
pub fn replay_batched(
    n: usize,
    deferral: DeferralPolicy,
    schedule: &[(u64, Ev)],
    rng: &mut Rng,
) -> Replay {
    let mut e = Entity::new(config(n, 0, deferral)).expect("valid config");
    let mut out = Replay {
        state: e.export_state(),
        delivered: Vec::new(),
        data_ret_broadcasts: Vec::new(),
        ack_only_count: 0,
    };
    let mut actions: Vec<Action> = Vec::new();
    let mut batch: Vec<Pdu> = Vec::new();
    let mut batch_now = 0u64;
    let mut i = 0;
    while i < schedule.len() {
        match &schedule[i] {
            (now, Ev::Recv(pdu)) => {
                // Open (or continue) a batch of same-timestamp receives.
                if batch.is_empty() {
                    batch_now = *now;
                }
                batch.push(pdu.clone());
                let cap = 1 + rng.below(5) as usize;
                let run_continues =
                    matches!(schedule.get(i + 1), Some((next, Ev::Recv(_))) if *next == batch_now);
                if batch.len() >= cap || !run_continues {
                    e.on_pdus_into(batch.drain(..), batch_now, &mut actions);
                    split(std::mem::take(&mut actions), &mut out);
                }
            }
            (now, Ev::Submit(data)) => {
                let (_, acts) = e.submit(data.clone(), *now).expect("payload fits");
                split(acts, &mut out);
            }
            (now, Ev::Tick) => {
                split(e.on_tick(*now), &mut out);
            }
        }
        i += 1;
    }
    debug_assert!(batch.is_empty(), "trailing batch must have been flushed");
    out.state = normalized(&e);
    out
}

/// The equivalence contract: identical normalized terminal state,
/// identical delivery sequence, identical `Data`/`Ret` broadcasts, and
/// no *more* `AckOnly` traffic than the per-PDU path.
pub fn assert_equivalent(reference: &Replay, batched: &Replay) {
    assert_eq!(
        reference.state, batched.state,
        "batched acceptance diverged from the per-PDU protocol state"
    );
    assert_eq!(
        reference.delivered.len(),
        batched.delivered.len(),
        "delivery counts diverged"
    );
    for (i, (a, b)) in reference
        .delivered
        .iter()
        .zip(&batched.delivered)
        .enumerate()
    {
        assert_eq!(a, b, "delivery #{i} diverged");
    }
    assert_eq!(
        reference.data_ret_broadcasts, batched.data_ret_broadcasts,
        "Data/Ret broadcasts diverged"
    );
    assert!(
        batched.ack_only_count <= reference.ack_only_count,
        "batching must coalesce AckOnly traffic, not amplify it \
         (per-PDU {} < batched {})",
        reference.ack_only_count,
        batched.ack_only_count,
    );
}
