//! Trace-line builders shared by this crate's unit tests.

use causal_order::{EntityId, Seq};
use co_observe::{ProtocolEvent, TraceLine};

pub(crate) fn id(i: u32) -> EntityId {
    EntityId::new(i)
}

pub(crate) fn ev(node: u32, event: ProtocolEvent) -> TraceLine {
    TraceLine::Event { node, event }
}

/// `data_sent` of `(src, seq)`, at its origin.
pub(crate) fn sent(src: u32, seq: u64, now_us: u64) -> TraceLine {
    let (src, seq) = (id(src), Seq::new(seq));
    ev(src.raw(), ProtocolEvent::DataSent { src, seq, now_us })
}

/// `accepted` at `node`, straight off the wire.
pub(crate) fn accepted(node: u32, src: u32, seq: u64, now_us: u64) -> TraceLine {
    let event = ProtocolEvent::Accepted {
        src: id(src),
        seq: Seq::new(seq),
        from_reorder: false,
        now_us,
    };
    ev(node, event)
}

pub(crate) fn pre_acked(node: u32, src: u32, seq: u64, now_us: u64) -> TraceLine {
    let (src, seq) = (id(src), Seq::new(seq));
    ev(node, ProtocolEvent::PreAcked { src, seq, now_us })
}

pub(crate) fn delivered(node: u32, src: u32, seq: u64, now_us: u64) -> TraceLine {
    let (src, seq) = (id(src), Seq::new(seq));
    ev(node, ProtocolEvent::Delivered { src, seq, now_us })
}

/// A line that carries no stage and trips no rule: it only moves the
/// trace's clock.
pub(crate) fn tick(node: u32, now_us: u64) -> TraceLine {
    ev(node, ProtocolEvent::AckOnlySent { now_us })
}

/// Everything node `node` of the cluster records of broadcast `(src,
/// seq)` completing: the send at `t` (at the origin) or the acceptance at
/// `t + 10` (elsewhere), then pre-ack at `t + 20` and delivery at `t + 30`.
pub(crate) fn completes_at(node: u32, src: u32, seq: u64, t: u64) -> [TraceLine; 3] {
    let first = if node == src {
        sent(src, seq, t)
    } else {
        accepted(node, src, seq, t + 10)
    };
    [
        first,
        pre_acked(node, src, seq, t + 20),
        delivered(node, src, seq, t + 30),
    ]
}

/// One broadcast completing at every node of an `n`-node cluster
/// ([`completes_at`], node by node — not time-sorted).
pub(crate) fn complete_broadcast(n: u32, src: u32, seq: u64, t: u64) -> Vec<TraceLine> {
    (0..n)
        .flat_map(|node| completes_at(node, src, seq, t))
        .collect()
}
