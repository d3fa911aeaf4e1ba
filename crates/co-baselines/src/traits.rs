//! The driving interface of the comparators that bring their own
//! reliability substrate.

use bytes::Bytes;
use causal_order::EntityId;

/// A message delivered to the application by any broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppDelivery {
    /// The entity that originally broadcast the message.
    pub origin: EntityId,
    /// The origin's per-source sequence number (1-based), identifying the
    /// message uniquely together with `origin`.
    pub origin_seq: u64,
    /// Application payload.
    pub data: Bytes,
}

/// An effect requested by a [`Broadcaster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out<M> {
    /// Broadcast `M` to every other entity.
    Broadcast(M),
    /// Send `M` to one entity (used by the sequencer-based baseline).
    Send(EntityId, M),
    /// Deliver a message to the local application.
    Deliver(AppDelivery),
}

/// A comparator protocol entity, sans-IO: the same shape as the CO engine's
/// native interface, generalized over the message type. Only protocols
/// whose *reliability substrate* is the comparison live behind it (CBCAST
/// has none, the TO sequencer's is go-back-n); an ordering policy over the
/// shared substrate is a [`co_protocol::DeliveryCore`] instead.
pub trait Broadcaster {
    /// The protocol's wire message type.
    type Msg: Clone;

    /// The application submits a payload for broadcast.
    fn on_app(&mut self, data: Bytes, now_us: u64) -> Vec<Out<Self::Msg>>;

    /// A message arrived from the network.
    fn on_msg(&mut self, from: EntityId, msg: Self::Msg, now_us: u64) -> Vec<Out<Self::Msg>>;

    /// Time passed; fire any internal timers.
    fn on_tick(&mut self, now_us: u64) -> Vec<Out<Self::Msg>> {
        let _ = now_us;
        Vec::new()
    }

    /// When [`Broadcaster::on_tick`] next has work to do, if ever.
    fn next_deadline(&self, now_us: u64) -> Option<u64> {
        let _ = now_us;
        None
    }

    /// `true` when the entity holds no undelivered or unsent state (used by
    /// tests to decide a run has converged).
    fn is_quiescent(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_delivery_equality() {
        let d1 = AppDelivery {
            origin: EntityId::new(0),
            origin_seq: 1,
            data: Bytes::from_static(b"x"),
        };
        assert_eq!(d1, d1.clone());
    }

    #[test]
    fn out_variants() {
        let o: Out<u32> = Out::Broadcast(5);
        assert_eq!(o, Out::Broadcast(5));
        assert_ne!(Out::<u32>::Send(EntityId::new(0), 5), Out::Broadcast(5));
    }
}
