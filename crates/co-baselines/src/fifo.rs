//! The **PO/LO** comparator [16] as a delivery core: per-source FIFO
//! delivery and nothing else — deliver on in-order acceptance, no send
//! gate, no causal buffer. This is the paper's LO service (§1), the
//! weakest of the three, and the "how much does causal ordering cost over
//! plain FIFO" comparison point. Everything hard (F1/F2 detection, `RET`
//! repair, reorder buffering, flow control, confirmation pacing) is the
//! [`ReliableFifo`] substrate's, shared with the causal cores, so what a
//! race against them measures is the ordering policy alone.

use causal_order::Seq;
use co_protocol::{
    ActionSink, Config, ConfigError, DataPdu, DeliveryCore, Observer, Out, Pdu, ReliableFifo,
};

/// FIFO-only ordering policy. Its whole knowledge is what each peer has
/// confirmed of *our* PDUs: the flow-window base, the send-log prune
/// bound and the stability test.
#[derive(Debug)]
pub struct FifoCore {
    me: usize,
    /// Highest `ack[me]` seen from each peer (own entry unused).
    peer_ack_of_me: Vec<Seq>,
}

impl FifoCore {
    fn min_ack_of_me(&self, fifo: &ReliableFifo) -> Seq {
        (0..self.peer_ack_of_me.len())
            .map(|j| {
                if j == self.me {
                    fifo.frontier()[j]
                } else {
                    self.peer_ack_of_me[j]
                }
            })
            .min()
            .expect("n >= 2")
    }
}

impl DeliveryCore for FifoCore {
    type State = Vec<Seq>;

    const NAME: &'static str = "fifo";

    fn new(config: &Config) -> Self {
        FifoCore {
            me: config.me.index(),
            peer_ack_of_me: vec![Seq::FIRST; config.n()],
        }
    }

    fn restore(config: &Config, state: Vec<Seq>) -> Result<Self, ConfigError> {
        ConfigError::check_len("peer_ack_of_me", state.len(), config.n())?;
        Ok(FifoCore {
            me: config.me.index(),
            peer_ack_of_me: state,
        })
    }

    fn export_state(&self) -> Vec<Seq> {
        self.peer_ack_of_me.clone()
    }

    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool {
        let confirmed = pdu.ack()[self.me];
        let slot = &mut self.peer_ack_of_me[pdu.src().index()];
        if confirmed > *slot {
            *slot = confirmed;
            let everywhere = self.min_ack_of_me(fifo);
            fifo.prune_send_log(everywhere);
        }
        // A confirmation whose sender misses data we hold, or whose view
        // of our confirmations (`acked`) is stale, is owed a refresher.
        let Pdu::AckOnly(a) = pdu else { return false };
        let next = fifo.frontier();
        (0..next.len()).any(|j| a.ack[j] < next[j] || a.acked[j] < next[j])
    }

    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        fifo.deliver(p, out);
    }

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
        self.min_ack_of_me(fifo)
    }

    fn confirmation(&self, fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>) {
        let mut acked = fifo.frontier().to_vec();
        acked[self.me] = self.min_ack_of_me(fifo);
        (fifo.frontier().to_vec(), acked)
    }

    fn held(&self) -> usize {
        0
    }

    fn state_bytes(&self, n: usize) -> usize {
        n * std::mem::size_of::<Seq>()
    }

    fn is_stable(&self, fifo: &ReliableFifo) -> bool {
        self.min_ack_of_me(fifo) >= fifo.frontier()[self.me]
    }
}
