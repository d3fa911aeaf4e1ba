//! Glue between a [`Broadcaster`] comparator and the `mc-net` simulator
//! (an [`co_protocol::Entity`] is hosted by [`crate::EntityNode`] instead).

use bytes::Bytes;
use causal_order::EntityId;
use mc_net::{Context, SimNode, SimTime, TimerId};

use crate::traits::{Broadcaster, Out};

/// A delivery recorded with its simulation timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedDelivery {
    /// When the application received it.
    pub at: SimTime,
    /// Original broadcaster.
    pub origin: EntityId,
    /// Origin's sequence number.
    pub origin_seq: u64,
    /// Payload.
    pub data: Bytes,
}

/// Simulator node wrapping a [`Broadcaster`]; records all deliveries and
/// keeps the protocol's timers armed.
#[derive(Debug)]
pub struct BroadcasterNode<B> {
    inner: B,
    delivered: Vec<RecordedDelivery>,
    submitted: Vec<SimTime>,
    armed_deadline: Option<u64>,
}

impl<B: Broadcaster> BroadcasterNode<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        BroadcasterNode {
            inner,
            delivered: Vec::new(),
            submitted: Vec::new(),
            armed_deadline: None,
        }
    }

    /// The wrapped protocol entity.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// All recorded deliveries, in delivery order.
    pub fn delivered(&self) -> &[RecordedDelivery] {
        &self.delivered
    }

    /// Times at which the application submitted payloads here.
    pub fn submitted(&self) -> &[SimTime] {
        &self.submitted
    }

    /// Convenience: the delivery log as `(origin, origin_seq)` pairs.
    pub fn delivery_log(&self) -> Vec<(EntityId, u64)> {
        self.delivered
            .iter()
            .map(|d| (d.origin, d.origin_seq))
            .collect()
    }

    fn apply(&mut self, outs: Vec<Out<B::Msg>>, ctx: &mut Context<'_, B::Msg>) {
        for out in outs {
            match out {
                Out::Broadcast(m) => ctx.broadcast(m),
                Out::Send(to, m) => ctx.send(to, m),
                Out::Deliver(d) => self.delivered.push(RecordedDelivery {
                    at: ctx.now(),
                    origin: d.origin,
                    origin_seq: d.origin_seq,
                    data: d.data,
                }),
            }
        }
        self.rearm(ctx);
    }

    fn rearm(&mut self, ctx: &mut Context<'_, B::Msg>) {
        let now = ctx.now().as_micros();
        if let Some(deadline) = self.inner.next_deadline(now) {
            let fire_at = deadline.max(now);
            if self.armed_deadline.is_none_or(|armed| fire_at < armed) {
                ctx.set_timer(mc_net::SimDuration::from_micros(fire_at - now));
                self.armed_deadline = Some(fire_at);
            }
        }
    }
}

impl<B: Broadcaster> SimNode for BroadcasterNode<B> {
    type Msg = B::Msg;
    type Cmd = Bytes;

    fn on_message(&mut self, from: EntityId, msg: B::Msg, ctx: &mut Context<'_, B::Msg>) {
        let outs = self.inner.on_msg(from, msg, ctx.now().as_micros());
        self.apply(outs, ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut Context<'_, B::Msg>) {
        self.armed_deadline = None;
        let outs = self.inner.on_tick(ctx.now().as_micros());
        self.apply(outs, ctx);
    }

    fn on_command(&mut self, cmd: Bytes, ctx: &mut Context<'_, B::Msg>) {
        self.submitted.push(ctx.now());
        let outs = self.inner.on_app(cmd, ctx.now().as_micros());
        self.apply(outs, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isis::CbcastEntity;
    use mc_net::{SimConfig, Simulator};

    #[test]
    fn isis_over_simulator_reliable_network() {
        let n = 3;
        let nodes = (0..n)
            .map(|i| BroadcasterNode::new(CbcastEntity::new(EntityId::new(i as u32), n)))
            .collect();
        let mut sim = Simulator::new(SimConfig::default(), nodes);
        sim.schedule_command(SimTime::ZERO, EntityId::new(0), Bytes::from_static(b"m1"));
        sim.schedule_command(
            SimTime::from_millis(10),
            EntityId::new(1),
            Bytes::from_static(b"m2"),
        );
        sim.run_until_idle();
        for (id, node) in sim.nodes() {
            assert_eq!(node.delivered().len(), 2, "at {id}");
        }
    }
}
