//! [`HybridCore`]: hybrid-buffering causal delivery over the
//! [`ReliableFifo`] substrate.
//!
//! Follows the hybrid approach of Almeida's causal-delivery work
//! (PAPERS.md): per-source FIFO links carry the bulk of the ordering, and
//! a *small causal buffer* holds the few messages whose cross-source
//! dependencies have not yet been delivered. Each data PDU piggybacks its
//! sender's **received frontier** (the same wire `ACK` vector the CO
//! engine uses) as its dependency vector: receipt-before-send is a
//! happens-before relation, so delivering a message only after everything
//! below its vector is causally consistent — and strictly cheaper to
//! check than the paper's two-round matrix stability.
//!
//! Compared with [`crate::CoCore`]:
//!
//! * knowledge state is **O(n)** (two frontier vectors and one ack-of-me
//!   vector) instead of two O(n²) matrices;
//! * a message is delivered as soon as its dependencies are — **one
//!   one-way latency** in the loss-free case, no pre-ack/ack rounds;
//! * the price: delivery is *not* globally stable when it happens (a
//!   receiver may deliver a message other entities have not yet seen),
//!   and delivery orders may legitimately differ across receivers for
//!   concurrent messages.
//!
//! Loss handling is the substrate's: this file is the thin causal buffer
//! over FIFO links the hybrid design is by construction.

use causal_order::{EntityId, Seq};
use co_wire::{DataPdu, Pdu};
use std::collections::VecDeque;

use crate::actions::ActionSink;
use crate::config::{Config, ConfigError};
use crate::core::{DeliveryCore, Out};
use crate::fifo::{pdu_bytes, ReliableFifo};
use co_observe::Observer;

/// Exported [`HybridCore`] state (crash-restart; see
/// [`DeliveryCore::export_state`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridState {
    /// Delivery frontier per source.
    pub delivered_next: Vec<Seq>,
    /// FIFO-accepted PDUs whose causal dependencies are still undelivered,
    /// in acceptance order.
    pub causal_buf: Vec<DataPdu>,
    /// Highest `ack[me]` seen from each peer (own entry unused).
    pub peer_ack_of_me: Vec<Seq>,
}

/// Hybrid-buffering causal core: FIFO links + a small causal buffer.
///
/// See the [module docs](self) for the algorithm and trade-offs. The
/// substrate's frontier plays the role the `REQ` vector plays in
/// [`crate::CoCore`], including on the wire.
#[derive(Debug)]
pub struct HybridCore {
    me: EntityId,
    /// Delivery frontier per source (`delivered_next[j]` = next seq from
    /// `E_j` to deliver). Always `<=` the substrate's frontier pointwise.
    delivered_next: Vec<Seq>,
    /// FIFO-accepted PDUs waiting for cross-source dependencies.
    causal_buf: VecDeque<DataPdu>,
    /// Highest `ack[me]` seen from each peer — drives flow control,
    /// send-log pruning and stability.
    peer_ack_of_me: Vec<Seq>,
}

impl HybridCore {
    /// Lowest `ack[me]` across peers (own entry substitutes our frontier):
    /// everything below is known received everywhere.
    fn min_ack_of_me(&self, fifo: &ReliableFifo) -> Seq {
        let me = self.me.index();
        self.peer_ack_of_me
            .iter()
            .enumerate()
            .map(|(j, &a)| if j == me { fifo.frontier()[me] } else { a })
            .min()
            // `Config` validation rejects clusters below two entities.
            .expect("n >= 2")
    }

    /// `m` is deliverable when it is next from its source and everything
    /// its sender had received when it sent `m` has been delivered here.
    /// The sender's own column is exempt: per-source FIFO (the
    /// `delivered_next[src] == m.seq` half) already orders it.
    fn deliverable(&self, m: &DataPdu) -> bool {
        let src = m.src.index();
        if self.delivered_next[src] != m.seq {
            return false;
        }
        m.ack
            .iter()
            .enumerate()
            .all(|(k, &dep)| k == src || self.delivered_next[k] >= dep)
    }
}

impl DeliveryCore for HybridCore {
    type State = HybridState;

    const NAME: &'static str = "hybrid";

    fn new(config: &Config) -> Self {
        let n = config.n();
        HybridCore {
            me: config.me,
            delivered_next: vec![Seq::FIRST; n],
            causal_buf: VecDeque::new(),
            peer_ack_of_me: vec![Seq::FIRST; n],
        }
    }

    fn restore(config: &Config, state: HybridState) -> Result<Self, ConfigError> {
        let n = config.n();
        ConfigError::check_len("delivered_next", state.delivered_next.len(), n)?;
        ConfigError::check_len("peer_ack_of_me", state.peer_ack_of_me.len(), n)?;
        Ok(HybridCore {
            me: config.me,
            delivered_next: state.delivered_next,
            causal_buf: state.causal_buf.into(),
            peer_ack_of_me: state.peer_ack_of_me,
        })
    }

    fn export_state(&self) -> HybridState {
        HybridState {
            delivered_next: self.delivered_next.clone(),
            causal_buf: self.causal_buf.iter().cloned().collect(),
            peer_ack_of_me: self.peer_ack_of_me.clone(),
        }
    }

    /// Monotonic fold of a peer's confirmation of *our* PDUs, pruning the
    /// send log below what everyone is known to have when it moves.
    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool {
        let ack = pdu.ack();
        let slot = &mut self.peer_ack_of_me[pdu.src().index()];
        if ack[self.me.index()] > *slot {
            *slot = ack[self.me.index()];
            fifo.prune_send_log(self.min_ack_of_me(fifo));
        }
        // Lag detection, two halves sharing one loop (see `confirmation`
        // for what `acked` carries here): the sender misses data we have
        // (`ack` behind our frontier), or the sender's aggregated receipt
        // knowledge is behind what we hold (`acked` behind our frontier —
        // typically *our* confirmations to it were lost, leaving its flow
        // window wedged). Either way a paced `AckOnly` reply carries
        // exactly the refresher it needs.
        let Pdu::AckOnly(a) = pdu else { return false };
        let next = fifo.frontier();
        (0..next.len()).any(|j| a.ack[j] < next[j] || a.acked[j] < next[j])
    }

    /// FIFO acceptance parks the PDU in the causal buffer until
    /// [`HybridCore::sweep`] finds its dependencies satisfied.
    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        _fifo: &mut ReliableFifo,
        _out: &mut Out<'_, O, S>,
    ) {
        self.causal_buf.push_back(p);
    }

    /// Self-acceptance: our own PDU enters the causal buffer so the local
    /// application receives it in causal position.
    fn sent<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.note_accepted(p.src, p.seq, false, out);
        self.causal_buf.push_back(p);
    }

    /// Causal delivery sweep: deliver every buffered PDU whose source is
    /// next in per-source order *and* whose dependency vector is covered
    /// by the delivery frontier, repeating until a full pass makes no
    /// progress (one delivery can unblock others).
    fn sweep<O: Observer, S: ActionSink>(
        &mut self,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.causal_buf.len() {
                if self.deliverable(&self.causal_buf[i]) {
                    let p = self.causal_buf.remove(i).expect("index checked");
                    self.delivered_next[p.src.index()] = p.seq.next();
                    fifo.deliver(p, out);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    fn confirmed_of_me(&self, fifo: &ReliableFifo) -> Seq {
        self.min_ack_of_me(fifo)
    }

    /// Wire mapping for the hybrid core: `ack` is the received frontier
    /// (as on data PDUs); `packed` is the delivery frontier; `acked` is the
    /// *aggregated receipt knowledge* — our frontier, except the own
    /// entry, which carries the lowest peer confirmation of our PDUs.
    /// Peers use `acked` to detect that our view of their confirmations is
    /// stale (lost `AckOnly`s) and owe us a refresher — without it, a
    /// sender whose flow window wedged on lost confirmations would stay
    /// wedged forever.
    fn confirmation(&self, fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>) {
        let mut acked = fifo.frontier().to_vec();
        acked[self.me.index()] = self.min_ack_of_me(fifo);
        (self.delivered_next.clone(), acked)
    }

    fn held(&self) -> usize {
        self.causal_buf.len()
    }

    fn state_bytes(&self, n: usize) -> usize {
        // Two O(n) Seq vectors beside the substrate's frontier — no
        // matrices.
        let knowledge = 2 * n * std::mem::size_of::<Seq>();
        let buffered: usize = self
            .causal_buf
            .iter()
            .map(|p| pdu_bytes(n, p.data.len()))
            .sum();
        knowledge + buffered
    }

    fn is_stable(&self, fifo: &ReliableFifo) -> bool {
        self.min_ack_of_me(fifo) >= fifo.frontier()[self.me.index()]
    }
}
