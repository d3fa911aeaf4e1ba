//! [`CoCore`]: the paper's matrix/CPI ordering policy (§4.4–4.5) over the
//! [`ReliableFifo`] substrate — the reference implementation.
//!
//! This is the ordering half of the original monolithic entity: AL/PAL
//! knowledge matrices and the three receipt stages (accept → pre-ack →
//! deliver). Loss detection, retransmission, the flow condition and
//! confirmation pacing live below it, shared with the other cores;
//! `crates/co-protocol/tests/batch_equivalence.rs` and the regression
//! corpus pin that the factoring is bit-identical to the monolithic
//! entity.

use causal_order::{EntityId, Seq};
use co_wire::{DataPdu, Pdu};
use std::cell::Cell;

use crate::actions::ActionSink;
use crate::config::{Config, ConfigError};
use crate::core::{DeliveryCore, Out};
use crate::cpi::CausalLog;
use crate::fifo::{pdu_bytes, ReliableFifo};
use crate::logs::ReceiptLogs;
use crate::matrix::KnowledgeMatrix;
use crate::snapshot::{CoState, EntitySnapshot};
use co_observe::{Observer, ProtocolEvent};

/// The CO protocol's delivery core: AL/PAL matrices + CPI causal log.
///
/// Messages deliver once *acknowledged* — known pre-acknowledged
/// everywhere — so delivery is globally stable but waits two confirmation
/// rounds. Knowledge state is O(n²) (two n×n matrices).
#[derive(Debug)]
pub struct CoCore {
    me: EntityId,
    /// [`Config::control_updates_al`]: whether `RET`/`AckOnly` vectors are
    /// folded into the matrices (`ablation_strict` turns it off).
    control_updates_al: bool,
    /// Acceptance knowledge (`AL`, §4.4). Our own column mirrors the
    /// substrate's `REQ` frontier.
    al: KnowledgeMatrix,
    /// Pre-acknowledgment knowledge (`PAL`, §4.5).
    pal: KnowledgeMatrix,
    /// Accepted, not yet pre-acknowledged PDUs, per source.
    rrl: ReceiptLogs,
    /// Pre-acknowledged PDUs in causal order.
    prl: CausalLog,
    /// Scratch for draining the AL/PAL dirty-source sets (reused across
    /// events; never allocates past construction).
    pack_scratch: Vec<u32>,
    /// Memoized "`minPAL_j >= REQ_j` for every `j`" result, keyed by
    /// `(fifo.version(), pal.version())`, so idle stability checks are
    /// O(1).
    stable_cache: Cell<(u64, u64, bool)>,
}

impl CoCore {
    /// `minAL_j` — everything from `E_j` below this is known accepted
    /// everywhere.
    pub fn min_al(&self, source: EntityId) -> Seq {
        self.al.row_min(source)
    }

    /// `minPAL_j` — everything from `E_j` below this is known
    /// pre-acknowledged everywhere.
    pub fn min_pal(&self, source: EntityId) -> Seq {
        self.pal.row_min(source)
    }

    /// Captures a serializable summary of the protocol state (see
    /// [`crate::EntitySnapshot`]).
    pub fn snapshot(&self, fifo: &ReliableFifo) -> EntitySnapshot {
        let n = self.al.n();
        let seqs = |f: &dyn Fn(EntityId) -> Seq| -> Vec<u64> {
            (0..n).map(|j| f(EntityId::new(j as u32)).get()).collect()
        };
        EntitySnapshot {
            id: self.me,
            n,
            req: fifo.frontier().iter().map(|s| s.get()).collect(),
            min_al: seqs(&|j| self.al.row_min(j)),
            min_pal: seqs(&|j| self.pal.row_min(j)),
            rrl_pdus: self.rrl.total_len(),
            prl_pdus: self.prl.len(),
            reorder_pdus: fifo.reorder_len(),
            send_log_pdus: fifo.send_log_len(),
            pending_submits: fifo.pending_submits(),
            free_buffer_units: fifo.free_buffer_units(self),
            quiescent: fifo.is_quiescent(self),
            fully_stable: fifo.is_fully_stable(self),
            metrics: *fifo.metrics(),
        }
    }
}

impl DeliveryCore for CoCore {
    type State = CoState;

    const NAME: &'static str = "co";

    fn new(config: &Config) -> Self {
        let n = config.n();
        CoCore {
            me: config.me,
            control_updates_al: config.control_updates_al,
            al: KnowledgeMatrix::new(n),
            pal: KnowledgeMatrix::new(n),
            rrl: ReceiptLogs::new(n),
            prl: CausalLog::new(),
            pack_scratch: Vec::with_capacity(n),
            stable_cache: Cell::new((u64::MAX, u64::MAX, false)),
        }
    }

    fn restore(config: &Config, state: CoState) -> Result<Self, ConfigError> {
        let n = config.n();
        ConfigError::check_len("al", state.al.len(), n * n)?;
        ConfigError::check_len("pal", state.pal.len(), n * n)?;
        ConfigError::check_len("rrl", state.rrl.len(), n)?;
        let mut e = CoCore::new(config);
        // Source-major, so each row's minimum moves (and the row is
        // rescanned) at most once, when its last cell is raised: O(n²).
        for s in 0..n {
            let source = EntityId::new(s as u32);
            for o in 0..n {
                let observer = EntityId::new(o as u32);
                e.al.raise(source, observer, state.al[s * n + o]);
                e.pal.raise(source, observer, state.pal[s * n + o]);
            }
        }
        for pdu in state.rrl.into_iter().flatten() {
            e.rrl.accept(pdu);
        }
        // Re-inserting in exported (top-first) order reproduces the PRL
        // exactly: the stored log is causality-preserved, so no element
        // causally precedes an earlier one and every CPI insert appends.
        for pdu in state.prl {
            e.prl.insert(pdu);
        }
        Ok(e)
    }

    fn export_state(&self) -> CoState {
        let n = self.al.n();
        let mut al = Vec::with_capacity(n * n);
        let mut pal = Vec::with_capacity(n * n);
        for s in 0..n {
            let source = EntityId::new(s as u32);
            for o in 0..n {
                let observer = EntityId::new(o as u32);
                al.push(self.al.get(source, observer));
                pal.push(self.pal.get(source, observer));
            }
        }
        CoState {
            al,
            pal,
            rrl: (0..n)
                .map(|j| {
                    self.rrl
                        .iter_source(EntityId::new(j as u32))
                        .cloned()
                        .collect()
                })
                .collect(),
            prl: self.prl.iter().cloned().collect(),
        }
    }

    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool {
        match pdu {
            Pdu::Data(p) => {
                self.al.fold_column(p.src, &p.ack);
                // A sender trivially holds its own PDUs: anyone receiving
                // `p` knows `src` has everything of its own up to `p.SEQ`
                // (inference rule, DESIGN.md).
                self.al.raise(p.src, p.src, p.seq.next());
                false
            }
            Pdu::Ret(r) => {
                if self.control_updates_al {
                    self.al.fold_column(r.src, &r.ack);
                }
                false
            }
            Pdu::AckOnly(a) => {
                if self.control_updates_al {
                    self.al.fold_column(a.src, &a.ack);
                    // `packed` is the sender's own pre-ack frontier —
                    // exactly the semantics of a PAL column (see co-wire
                    // docs and DESIGN.md).
                    self.pal.fold_column(a.src, &a.packed);
                    // `acked[j]` asserts the sender *knows* every entity
                    // has pre-acknowledged `E_j`'s PDUs below it; adopt
                    // that knowledge for every PAL column (same
                    // honest-piggyback trust model as the paper's own PAL
                    // mechanism). The batched raise short-circuits when
                    // the row minima already cover the whole frontier (the
                    // steady state), and otherwise lifts every row in one
                    // sequential pass over the matrix instead of n strided
                    // row walks.
                    self.pal.raise_rows(&a.acked);
                }
                // The sender lags if any of its three vectors trails what
                // we hold.
                let req = fifo.frontier();
                (0..req.len()).any(|j| {
                    let source = EntityId::new(j as u32);
                    a.ack[j] < req[j]
                        || a.packed[j] < self.al.row_min(source)
                        || a.acked[j] < self.pal.row_min(source)
                })
            }
        }
    }

    /// `p`'s ACK vector and the sender's self-knowledge were already
    /// folded into `AL` by [`CoCore::observe`] when the PDU arrived (that
    /// fold is valid for *every* arriving PDU, buffered or accepted), so
    /// only the acceptance itself — our own AL column mirroring `REQ` — is
    /// recorded here.
    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        _fifo: &mut ReliableFifo,
        _out: &mut Out<'_, O, S>,
    ) {
        // Own column of AL mirrors REQ (`AL[k][me] = REQ_k`).
        self.al.raise(p.src, self.me, p.seq.next());
        self.rrl.accept(p);
    }

    /// The own PDU enters the receipt log like any other; it is *not*
    /// announced as accepted (the event stream of the monolithic entity
    /// never did).
    fn sent<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        self.accept(p, fifo, out);
    }

    /// Pre-acknowledgment and acknowledgment (§4.4, §4.5).
    fn sweep<O: Observer, S: ActionSink>(
        &mut self,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    ) {
        let now_us = out.now_us;
        // PACK action: move everything below minAL from RRL to PRL.
        //
        // Only sources whose `minAL` moved since the last run can have
        // become packable: the PACK condition is `top.SEQ < minAL_k`, our
        // own AL column mirrors `REQ_k`, and `top.SEQ >= REQ_k` held at
        // acceptance time — so a previously unpackable top needs a *new*
        // row minimum. The AL dirty set records exactly those rows, making
        // this scan O(dirty) instead of O(n) per event. The drained rows
        // are sorted so coincident PDUs from different sources enter the
        // PRL in the same (index) order the full scan used.
        let mut scratch = std::mem::take(&mut self.pack_scratch);
        scratch.clear();
        self.al.drain_dirty_into(&mut scratch);
        scratch.sort_unstable();
        for &k in &scratch {
            let source = EntityId::new(k);
            let min_al = self.al.row_min(source);
            while matches!(self.rrl.top(source), Some(p) if p.seq < min_al) {
                let p = self.rrl.dequeue(source).expect("top checked");
                // PAL update: p's confirmations, recorded at pre-ack time
                // (§4.5), plus our own pre-ack frontier for this source.
                self.pal.fold_column(source, &p.ack);
                self.pal.raise(source, self.me, p.seq.next());
                fifo.metrics.pre_acknowledged += 1;
                let seq = p.seq;
                out.event(ProtocolEvent::PreAcked {
                    src: source,
                    seq,
                    now_us,
                });
                let position = self.prl.insert(p);
                out.event(ProtocolEvent::CpiInserted {
                    src: source,
                    seq,
                    position: position as u64,
                    now_us,
                });
            }
        }
        scratch.clear();
        self.pack_scratch = scratch;
        // Safety net for the dirty-set reasoning above: in debug builds
        // (the test profile keeps debug assertions on) verify no source
        // still has a packable RRL top.
        #[cfg(debug_assertions)]
        for j in 0..self.al.n() {
            let source = EntityId::new(j as u32);
            let min_al = self.al.row_min(source);
            debug_assert!(
                !matches!(self.rrl.top(source), Some(p) if p.seq < min_al),
                "dirty-set PACK missed a packable PDU from source {j}"
            );
        }
        // ACK action: deliver the PRL prefix that is acknowledged.
        while matches!(self.prl.top(), Some(top) if top.seq < self.pal.row_min(top.src)) {
            let p = self.prl.dequeue().expect("top checked");
            fifo.deliver(p, out);
        }
        // Our own acknowledged PDUs can never be RET-requested again.
        fifo.prune_send_log(self.pal.row_min(self.me));
    }

    fn confirmed_of_me(&self, _fifo: &ReliableFifo) -> Seq {
        self.al.row_min(self.me)
    }

    /// `packed` is the pre-ack frontier `minAL`, `acked` the
    /// acknowledgment frontier `minPAL`.
    fn confirmation(&self, _fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>) {
        (self.al.row_mins().to_vec(), self.pal.row_mins().to_vec())
    }

    /// The pre-ack frontier is advertised too.
    fn knowledge_version(&self) -> u64 {
        self.al.version()
    }

    fn held(&self) -> usize {
        self.rrl.total_len() + self.prl.len()
    }

    fn state_bytes(&self, n: usize) -> usize {
        // Two n×n matrices, each with its n row minima and n
        // counts-at-minimum (accounted at one word per row).
        let knowledge = 2 * (n * n + 2 * n) * std::mem::size_of::<Seq>();
        let buffered: usize = (0..n)
            .flat_map(|j| self.rrl.iter_source(EntityId::new(j as u32)))
            .chain(self.prl.iter())
            .map(|p| pdu_bytes(n, p.data.len()))
            .sum();
        knowledge + buffered
    }

    /// Memoized `∀j: minPAL_j >= REQ_j` (both sides are monotonic, so a
    /// version match proves the inputs are unchanged): O(1) on idle ticks,
    /// recomputed only after either moved.
    fn is_stable(&self, fifo: &ReliableFifo) -> bool {
        let key = (fifo.version(), self.pal.version());
        let (k0, k1, cached) = self.stable_cache.get();
        if (k0, k1) == key {
            return cached;
        }
        let covered = fifo
            .frontier()
            .iter()
            .enumerate()
            .all(|(j, &req)| self.pal.row_min(EntityId::new(j as u32)) >= req);
        self.stable_cache.set((key.0, key.1, covered));
        covered
    }
}
