//! [`SenderCore`]: sender-side causal enforcement over the
//! [`ReliableFifo`] substrate.
//!
//! Follows Tong, Liittschwager and Kuper's observation (PAPERS.md) that
//! causal ordering can be enforced entirely on the *sending* side: a
//! sender delays each broadcast until every message it has delivered is
//! known **received by all peers**, so a receiver can deliver on (FIFO)
//! arrival — no causal buffer, no delivery-side vector test at all.
//!
//! Correctness sketch: in this core a receiver's contiguous-received
//! frontier *is* its delivery frontier (messages deliver the moment they
//! are FIFO-accepted). The send gate ensures every causal dependency of
//! an outgoing message `m` was received — hence delivered — at every
//! peer before `m` was even transmitted, so `m` can never arrive ahead of
//! its dependencies. The sender's *own* previous messages are exempt from
//! the gate: per-source FIFO acceptance at the receivers already orders
//! them, which keeps a window of own messages in flight instead of
//! serializing to one.
//!
//! Compared with [`crate::CoCore`] and [`crate::HybridCore`]:
//!
//! * receivers are trivial — accept-on-arrival, zero delivery buffering;
//! * the cost moves to the sender: **latency** (a broadcast after a
//!   foreign delivery waits one confirmation round-trip) and **O(n²)
//!   receipt knowledge** (`peer_recv[j][k]`: what `E_j` is known to have
//!   received of `E_k`);
//! * delivery is FIFO-fast but, as in the hybrid core, not globally
//!   stable when it happens.
//!
//! Loss handling is the substrate's — the channel that already repairs
//! loss, which sender-side enforcement assumes: out-of-order PDUs wait in
//! its reorder buffer and are *not* delivered until the gap closes,
//! preserving FIFO = causal order.

use causal_order::Seq;
use co_wire::{DataPdu, Pdu};

use crate::actions::ActionSink;
use crate::config::{Config, ConfigError};
use crate::core::{DeliveryCore, Out};
use crate::fifo::ReliableFifo;
use co_observe::Observer;

/// Exported [`SenderCore`] state (crash-restart; see
/// [`DeliveryCore::export_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderState {
    /// Row-major `peer_recv[j][k]`: highest `ack[k]` seen from `E_j`
    /// (row `me` unused).
    pub peer_recv: Vec<Seq>,
}

/// Sender-side causal core: receivers deliver on FIFO arrival.
///
/// See the [module docs](self) for the algorithm and trade-offs. In this
/// core the substrate's received frontier is also the delivery frontier.
#[derive(Debug)]
pub struct SenderCore {
    me: usize,
    n: usize,
    /// Row-major receipt knowledge: `peer_recv[j * n + k]` = highest
    /// `ack[k]` seen on any PDU from `E_j`. The send gate reads it; the
    /// own row is unused.
    peer_recv: Vec<Seq>,
}

impl SenderCore {
    /// Lowest receipt knowledge of `source` across peers (the `acked`
    /// aggregation advertised on `AckOnly`; for `source == me`, the lowest
    /// confirmation of *our* PDUs). The own row substitutes our frontier.
    fn min_recv_of(&self, source: usize, fifo: &ReliableFifo) -> Seq {
        (0..self.n)
            .map(|j| {
                if j == self.me {
                    fifo.frontier()[source]
                } else {
                    self.peer_recv[j * self.n + source]
                }
            })
            .min()
            // `Config` validation rejects clusters below two entities.
            .expect("n >= 2")
    }

    /// Whether every peer is known to have received, of every source but
    /// those in `exempt`, all that we have.
    fn peers_cover_frontier(&self, fifo: &ReliableFifo, exempt: Option<usize>) -> bool {
        let next = fifo.frontier();
        (0..self.n).filter(|&j| j != self.me).all(|j| {
            (0..self.n)
                .filter(|&k| Some(k) != exempt)
                .all(|k| self.peer_recv[j * self.n + k] >= next[k])
        })
    }
}

impl DeliveryCore for SenderCore {
    type State = SenderState;

    const NAME: &'static str = "sender";

    /// The gate can open from a tick alone only via state restored or
    /// timers; re-check so queued submissions never stall on a missed
    /// edge.
    const FLUSH_ON_TICK: bool = true;

    fn new(config: &Config) -> Self {
        let n = config.n();
        SenderCore {
            me: config.me.index(),
            n,
            peer_recv: vec![Seq::FIRST; n * n],
        }
    }

    fn restore(config: &Config, state: SenderState) -> Result<Self, ConfigError> {
        let n = config.n();
        ConfigError::check_len("peer_recv", state.peer_recv.len(), n * n)?;
        Ok(SenderCore {
            peer_recv: state.peer_recv,
            ..SenderCore::new(config)
        })
    }

    fn export_state(&self) -> SenderState {
        SenderState {
            peer_recv: self.peer_recv.clone(),
        }
    }

    /// Monotonic fold of a peer's receipt frontier into its `peer_recv`
    /// row, pruning the send log below what everyone has when it moves.
    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool {
        let row = pdu.src().index() * self.n;
        let mut moved = false;
        for (k, &a) in pdu.ack().iter().enumerate().take(self.n) {
            let slot = &mut self.peer_recv[row + k];
            if a > *slot {
                *slot = a;
                moved = true;
            }
        }
        if moved {
            fifo.prune_send_log(self.min_recv_of(self.me, fifo));
        }
        // Lag detection (same two-half rule as the hybrid core): the
        // sender misses data we have, or its aggregated receipt knowledge
        // (`acked`) trails our frontier — the latter is how a sender whose
        // causal gate wedged on lost confirmations gets its refresher.
        let Pdu::AckOnly(a) = pdu else { return false };
        let next = fifo.frontier();
        (0..self.n).any(|j| a.ack[j] < next[j] || a.acked[j] < next[j])
    }

    /// Acceptance *is* delivery in this core: the sender already
    /// guaranteed every causal dependency was delivered here before this
    /// PDU was transmitted (see the [module docs](self)).
    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.deliver(p, out);
    }

    /// Self-delivery on send: our own message's dependencies are, by
    /// definition, already delivered locally.
    fn sent<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.note_accepted(p.src, p.seq, false, out);
        fifo.deliver(p, out);
    }

    fn confirmed_of_me(&self, fifo: &ReliableFifo) -> Seq {
        self.min_recv_of(self.me, fifo)
    }

    /// The causal send gate: every foreign message this entity has
    /// delivered must be known received by *all* peers. The own column is
    /// exempt (per-source FIFO at the receivers orders own messages), so
    /// a window of own broadcasts stays in flight.
    fn gate_open(&self, fifo: &ReliableFifo) -> bool {
        self.peers_cover_frontier(fifo, Some(self.me))
    }

    /// Wire mapping: `ack` and `packed` are the received(= delivery)
    /// frontier; `acked[k]` is the lowest receipt knowledge of `E_k`
    /// across peers — peers use it to spot that our gate is wedged on
    /// confirmations we never got, and reply with a refresher.
    fn confirmation(&self, fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>) {
        let acked = (0..self.n).map(|k| self.min_recv_of(k, fifo)).collect();
        (fifo.frontier().to_vec(), acked)
    }

    fn held(&self) -> usize {
        0
    }

    fn state_bytes(&self, n: usize) -> usize {
        // One O(n²) receipt-knowledge matrix; nothing is ever buffered.
        n * n * std::mem::size_of::<Seq>()
    }

    fn is_stable(&self, fifo: &ReliableFifo) -> bool {
        self.peers_cover_frontier(fifo, None)
    }
}
