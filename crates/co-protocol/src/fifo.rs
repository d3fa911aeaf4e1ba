//! [`ReliableFifo`]: the reliability substrate under every
//! [`DeliveryCore`] — a loss-repaired per-source FIFO stream plus
//! everything needed to keep it flowing.
//!
//! This is §4.2–4.3 of the paper with the ordering decision taken out:
//! the ACC condition and the next-expected frontier (`REQ`), failure
//! conditions F1 (sequence gap) and F2 (ack-vector evidence), selective /
//! go-back-n `RET` service over the send log, the flow condition,
//! deferred confirmation (`AckOnly`), lag replies and stability
//! heartbeats. It hands the core in-order data PDUs and asks it the few
//! things only a policy knows (see the hook list on [`DeliveryCore`]);
//! the [`crate::Entity`] shell feeds it validated PDUs.

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_wire::{AckOnlyPdu, DataPdu, Pdu, RetPdu};
use std::collections::VecDeque;

use crate::actions::{Action, ActionSink, Delivery, SubmitOutcome};
use crate::config::{Config, ConfigError, DeferralPolicy, RetransmissionPolicy};
use crate::core::{DeliveryCore, Out, MAX_QUEUED_SUBMITS};
use crate::error::ProtocolError;
use crate::flow::{flow_decision, flow_limit, FlowDecision};
use crate::logs::SendLog;
use crate::metrics::Metrics;
use crate::reorder::ReorderBuffer;
use co_observe::{Observer, ProtocolEvent};

/// The substrate's share of an entity's exported state (see
/// [`crate::EntityState`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoState {
    /// Next sequence number expected from every source — the paper's
    /// `REQ_j`; the own entry is the next sequence number to assign.
    pub next: Vec<Seq>,
    /// Out-of-order PDUs awaiting gap repair, grouped per source,
    /// ascending by sequence.
    pub reorder: Vec<Vec<DataPdu>>,
    /// The sending log, in sequence order.
    pub send_log: Vec<DataPdu>,
    /// Latest advertised free buffer units per entity.
    pub buf_known: Vec<u32>,
    /// Payloads queued behind the send gate, oldest first.
    pub pending: Vec<Bytes>,
    /// Which peers were heard from since the last own transmission.
    pub heard_since_send: Vec<bool>,
    /// Outstanding `RET` per source: `(lseq, when_sent_us)`.
    pub ret_outstanding: Vec<Option<(Seq, u64)>>,
    /// Whether a paced lag reply is owed to a peer.
    pub peer_needs_update: bool,
    /// Last transmission time, µs.
    pub last_send_us: u64,
    /// High-water mark of protocol-buffer occupancy.
    pub peak_held_pdus: usize,
    /// Cumulative counters.
    pub metrics: Metrics,
}

/// Approximate heap footprint of one buffered [`DataPdu`] in a cluster of
/// `n`: the struct, its ack vector and its payload.
pub(crate) fn pdu_bytes(n: usize, payload: usize) -> usize {
    std::mem::size_of::<DataPdu>() + n * std::mem::size_of::<Seq>() + payload
}

/// The reliability substrate. See the [module docs](self).
#[derive(Debug)]
pub struct ReliableFifo {
    config: Config,
    /// `REQ_j`: next sequence number expected from `E_j`; `REQ_me` is the
    /// next sequence number this entity will assign (the paper's `SEQ`).
    /// On the wire it is the `ACK` vector of every PDU.
    next: Vec<Seq>,
    /// Bumped whenever `next` changes. Entries are monotonic, so two
    /// equal versions imply equal vectors — the O(1) advertisement check.
    version: u64,
    /// Out-of-order PDUs awaiting gap repair (selective mode only).
    reorder: ReorderBuffer,
    /// Sending log for retransmission.
    sl: SendLog,
    /// Latest advertised free buffer units per entity (`BUF`, §4.1).
    buf_known: Vec<u32>,
    /// Payloads waiting for the send gate to open.
    pending: VecDeque<Bytes>,
    /// Which peers we have heard from since our last own transmission
    /// (drives deferred confirmation).
    heard_since_send: Vec<bool>,
    /// `(version, core.knowledge_version())` as of our last
    /// confirmation-bearing transmission (replaces storing the advertised
    /// vectors themselves).
    advertised: (u64, u64),
    /// Outstanding `RET` per source: `(lseq, when_sent_us)`.
    ret_outstanding: Vec<Option<(Seq, u64)>>,
    /// Set when a peer's confirmation shows it lags our knowledge — we owe
    /// it an `AckOnly` reply (stability convergence; see DESIGN.md).
    peer_needs_update: bool,
    /// Last time this entity transmitted anything, in µs.
    last_send_us: u64,
    /// High-water mark of protocol-buffer occupancy, in PDUs.
    peak_held_pdus: usize,
    pub(crate) metrics: Metrics,
}

impl ReliableFifo {
    /// Creates the substrate in its initial state (all sequence numbers at
    /// 1, empty logs — Example 4.1's starting point).
    pub(crate) fn new(config: Config) -> Self {
        let n = config.n();
        ReliableFifo {
            next: vec![Seq::FIRST; n],
            version: 0,
            reorder: ReorderBuffer::new(n),
            sl: SendLog::new(),
            buf_known: vec![config.buffer_units; n],
            pending: VecDeque::new(),
            heard_since_send: vec![false; n],
            advertised: (0, 0),
            ret_outstanding: vec![None; n],
            peer_needs_update: false,
            last_send_us: 0,
            peak_held_pdus: 0,
            metrics: Metrics::default(),
            config,
        }
    }

    /// Rebuilds the substrate from exported state.
    ///
    /// # Errors
    ///
    /// [`ConfigError::StateMismatch`] if a per-entity vector does not have
    /// `config`'s cluster size.
    pub(crate) fn restore(config: Config, state: FifoState) -> Result<Self, ConfigError> {
        let n = config.n();
        ConfigError::check_len("next", state.next.len(), n)?;
        ConfigError::check_len("reorder", state.reorder.len(), n)?;
        ConfigError::check_len("buf_known", state.buf_known.len(), n)?;
        ConfigError::check_len("heard_since_send", state.heard_since_send.len(), n)?;
        ConfigError::check_len("ret_outstanding", state.ret_outstanding.len(), n)?;
        let mut f = ReliableFifo::new(config);
        f.next = state.next;
        for pdu in state.reorder.into_iter().flatten() {
            f.reorder.store(pdu);
        }
        for pdu in state.send_log {
            f.sl.record(pdu);
        }
        f.buf_known = state.buf_known;
        f.pending = state.pending.into();
        f.heard_since_send = state.heard_since_send;
        f.ret_outstanding = state.ret_outstanding;
        f.peer_needs_update = state.peer_needs_update;
        f.last_send_us = state.last_send_us;
        f.peak_held_pdus = state.peak_held_pdus;
        f.metrics = state.metrics;
        // The restored entity owes the cluster a fresh advertisement:
        // a moved version against a watermark no real
        // `(version, knowledge_version)` pair ever equals.
        f.version = 1;
        f.advertised = (u64::MAX, u64::MAX);
        Ok(f)
    }

    /// Captures the substrate's complete state (lossless; see
    /// [`ReliableFifo::restore`]).
    pub(crate) fn export_state(&self) -> FifoState {
        FifoState {
            next: self.next.clone(),
            reorder: (0..self.config.n())
                .map(|j| {
                    self.reorder
                        .pdus(EntityId::new(j as u32))
                        .cloned()
                        .collect()
                })
                .collect(),
            send_log: self.sl.iter().cloned().collect(),
            buf_known: self.buf_known.clone(),
            pending: self.pending.iter().cloned().collect(),
            heard_since_send: self.heard_since_send.clone(),
            ret_outstanding: self.ret_outstanding.clone(),
            peer_needs_update: self.peer_needs_update,
            last_send_us: self.last_send_us,
            peak_held_pdus: self.peak_held_pdus,
            metrics: self.metrics,
        }
    }

    // ------------------------------------------------------------------
    // What a policy may read and do
    // ------------------------------------------------------------------

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The next-expected frontier (`REQ`): `frontier()[j]` is the next
    /// sequence number expected from `E_j`, the own entry the next one to
    /// assign. Everything below has been handed to the core in order.
    pub fn frontier(&self) -> &[Seq] {
        &self.next
    }

    /// Bumped on every frontier move (frontier entries are monotonic, so
    /// version equality is value equality).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counts and announces the acceptance of `(src, seq)`. The substrate
    /// calls it for every PDU it accepts; a core calls it from
    /// [`DeliveryCore::sent`] if its own PDUs count as accepted on send.
    pub fn note_accepted<O: Observer, S: ActionSink>(
        &mut self,
        src: EntityId,
        seq: Seq,
        from_reorder: bool,
        out: &mut Out<'_, O, S>,
    ) {
        let now_us = out.now_us;
        self.metrics.accepted += 1;
        if from_reorder {
            self.metrics.accepted_from_reorder += 1;
            out.event(ProtocolEvent::ReorderExit { src, seq, now_us });
        }
        out.event(ProtocolEvent::Accepted {
            src,
            seq,
            from_reorder,
            now_us,
        });
    }

    /// Hands `p` to the local application.
    pub fn deliver<O: Observer, S: ActionSink>(&mut self, p: DataPdu, out: &mut Out<'_, O, S>) {
        self.metrics.delivered += 1;
        out.event(ProtocolEvent::Delivered {
            src: p.src,
            seq: p.seq,
            now_us: out.now_us,
        });
        out.sink.accept(Action::Deliver(Delivery {
            src: p.src,
            seq: p.seq,
            ack: p.ack,
            data: p.data,
        }));
    }

    /// Drops own PDUs below `confirmed` from the send log: they are known
    /// received everywhere and can never be `RET`-requested again.
    pub fn prune_send_log(&mut self, confirmed: Seq) {
        self.sl.prune_below(confirmed);
    }

    // ------------------------------------------------------------------
    // Introspection (surfaced by `Entity`)
    // ------------------------------------------------------------------

    /// PDUs held in the reorder buffer and the core's ordering buffers.
    pub(crate) fn held_pdus<C: DeliveryCore>(&self, core: &C) -> usize {
        core.held() + self.reorder.total_len()
    }

    /// High-water mark of [`ReliableFifo::held_pdus`].
    pub(crate) fn peak_held_pdus(&self) -> usize {
        self.peak_held_pdus
    }

    /// Payloads queued behind the send gate.
    pub(crate) fn pending_submits(&self) -> usize {
        self.pending.len()
    }

    /// Own PDUs retained for retransmission.
    pub(crate) fn send_log_len(&self) -> usize {
        self.sl.len()
    }

    /// PDUs in the reorder buffer.
    pub(crate) fn reorder_len(&self) -> usize {
        self.reorder.total_len()
    }

    /// `true` when nothing is buffered or queued anywhere.
    pub(crate) fn is_quiescent<C: DeliveryCore>(&self, core: &C) -> bool {
        self.held_pdus(core) == 0 && self.pending.is_empty()
    }

    /// Quiescent, and the core reports its knowledge stable.
    pub(crate) fn is_fully_stable<C: DeliveryCore>(&self, core: &C) -> bool {
        self.is_quiescent(core) && core.is_stable(self)
    }

    /// Free protocol-buffer units (advertised as `BUF` on the wire).
    pub(crate) fn free_buffer_units<C: DeliveryCore>(&self, core: &C) -> u32 {
        let held = self.held_pdus(core) as u64 * u64::from(self.config.pdu_buf_units);
        u32::try_from(u64::from(self.config.buffer_units).saturating_sub(held)).unwrap_or(0)
    }

    /// Approximate resident bytes: the substrate's vectors and buffered
    /// PDUs plus the core's [`DeliveryCore::state_bytes`].
    pub(crate) fn state_bytes<C: DeliveryCore>(&self, core: &C) -> usize {
        let n = self.config.n();
        let vectors = n * std::mem::size_of::<Seq>()     // next
            + n * std::mem::size_of::<u32>()             // buf_known
            + n                                          // heard_since_send
            + n * std::mem::size_of::<Option<(Seq, u64)>>(); // ret_outstanding
        let buffered: usize = self
            .sl
            .iter()
            .chain((0..n).flat_map(|j| self.reorder.pdus(EntityId::new(j as u32))))
            .map(|p| pdu_bytes(n, p.data.len()))
            .sum();
        vectors + buffered + core.state_bytes(n)
    }

    fn min_buf<C: DeliveryCore>(&self, core: &C) -> u32 {
        let me = self.config.me.index();
        self.buf_known
            .iter()
            .enumerate()
            .map(|(j, &b)| {
                if j == me {
                    self.free_buffer_units(core)
                } else {
                    b
                }
            })
            .min()
            // `Config` validation rejects clusters below two entities.
            .expect("n >= 2")
    }

    /// Interval for stability heartbeats: the coarser of the deferral
    /// timeout and the RET retry interval, never zero.
    fn heartbeat_interval(&self) -> u64 {
        let deferral = self.config.deferral.timeout_us();
        deferral.max(self.config.ret_retry_us).max(1)
    }

    /// Pacing for lag replies and stability heartbeats: without it, two
    /// mutually lagging entities would answer each other's answers forever.
    fn reply_pace_us(&self) -> u64 {
        self.heartbeat_interval() / 2 + 1
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Integrates one already-validated PDU: the per-element half of the
    /// receive pipeline ([`ReliableFifo::end_batch`] is the other).
    pub(crate) fn on_pdu<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        pdu: Pdu,
        out: &mut Out<'_, O, S>,
    ) {
        let from = pdu.src();
        self.heard_since_send[from.index()] = true;
        self.buf_known[from.index()] = pdu.buf();
        // The piggybacked ACK vector is first-hand receipt information from
        // `from`, valid whether or not the PDU itself is acceptable
        // (monotonic fold, so retransmissions with old vectors are
        // harmless).
        if core.observe(&pdu, self) {
            // The sender lags our knowledge; owe it a refresher: this is
            // the reply half of the stability-heartbeat convergence.
            self.peer_needs_update = true;
        }
        // Failure condition F2 over the ack vector.
        let control = !matches!(pdu, Pdu::Data(_));
        self.scan_f2(core, from, pdu.ack(), control, out);
        match pdu {
            Pdu::Data(p) => self.on_data(core, p, out),
            Pdu::Ret(r) => self.on_ret(r, out),
            Pdu::AckOnly(_) => {}
        }
        core.sweep(self, out);
        self.try_flush_pending(core, out);
    }

    fn on_data<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        p: DataPdu,
        out: &mut Out<'_, O, S>,
    ) {
        let (src, seq, now_us) = (p.src, p.seq, out.now_us);
        let expected = self.next[src.index()];
        if seq < expected {
            self.metrics.duplicates += 1;
            out.event(ProtocolEvent::Duplicate { src, seq, now_us });
            return;
        }
        if seq > expected {
            // Failure condition F1: gap [REQ_src, p.SEQ) lost.
            self.metrics.f1_detections += 1;
            out.event(ProtocolEvent::F1Detected {
                src,
                expected,
                got: seq,
                now_us,
            });
            match self.config.retransmission {
                RetransmissionPolicy::Selective => {
                    if self.reorder.store(p) {
                        self.metrics.buffered_out_of_order += 1;
                        out.event(ProtocolEvent::ReorderEnter { src, seq, now_us });
                    } else {
                        self.metrics.duplicates += 1;
                        out.event(ProtocolEvent::Duplicate { src, seq, now_us });
                    }
                }
                RetransmissionPolicy::GoBackN => {
                    self.metrics.discarded_out_of_order += 1;
                    out.event(ProtocolEvent::OutOfOrderDiscarded { src, seq, now_us });
                }
            }
            self.send_ret(core, src, seq, out);
            return;
        }
        // ACC condition holds.
        self.accept_data(core, p, false, out);
        // Drain any consecutive run repaired by retransmissions.
        while let Some(q) = self.reorder.take_exact(src, self.next[src.index()]) {
            self.accept_data(core, q, true, out);
        }
        // The gap (or part of it) closed; drop a satisfied RET record.
        if let Some((lseq, _)) = self.ret_outstanding[src.index()] {
            if self.next[src.index()] >= lseq {
                self.ret_outstanding[src.index()] = None;
            }
        }
        self.reorder.drop_below(src, self.next[src.index()]);
    }

    /// The acceptance (ACC) action of §4.2: advance the frontier and hand
    /// the PDU to the core.
    fn accept_data<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        p: DataPdu,
        from_reorder: bool,
        out: &mut Out<'_, O, S>,
    ) {
        let (src, seq) = (p.src, p.seq);
        debug_assert_eq!(seq, self.next[src.index()], "ACC condition");
        self.next[src.index()] = seq.next();
        self.version += 1;
        self.note_accepted(src, seq, from_reorder, out);
        core.accept(p, self, out);
    }

    /// Retransmission action (§4.3): rebroadcast the requested range
    /// (selective) or everything from the first loss (go-back-n).
    fn on_ret<O: Observer, S: ActionSink>(&mut self, r: RetPdu, out: &mut Out<'_, O, S>) {
        if r.lsrc != self.config.me {
            return;
        }
        let me = self.config.me.index();
        let from = r.ack[me];
        // Nothing at or past our own next sequence number was ever sent:
        // a forged `lseq` must not count as an unservable span.
        let next = self.next[me];
        let to = match self.config.retransmission {
            RetransmissionPolicy::Selective => r.lseq.min(next),
            RetransmissionPolicy::GoBackN => next,
        };
        // Nor can an honest requester be missing more than the flow
        // window lets us have outstanding, so that is the most one `RET`
        // is served — or counted as unservable where the send log was
        // pruned: a forged `ack[me]` must neither rebroadcast the whole
        // log nor inflate the count by everything ever acknowledged.
        let to = to.min(Seq::new(from.get().saturating_add(self.config.window)));
        let mut served = 0u64;
        for pdu in self.sl.range(from, to) {
            out.event(ProtocolEvent::RetServed {
                to: r.src,
                seq: pdu.seq,
                now_us: out.now_us,
            });
            out.broadcast(Pdu::Data(pdu.clone()));
            served += 1;
        }
        self.metrics.retransmissions_sent += served;
        let requested = to.get().saturating_sub(from.get());
        if served < requested {
            let amount = requested - served;
            self.metrics.ret_unservable += amount;
            out.event(ProtocolEvent::RetUnservable {
                amount,
                now_us: out.now_us,
            });
        }
    }

    /// Failure condition F2 (§4.3): `q.ACK_j > REQ_j` proves PDUs from
    /// `E_j` exist that we never received.
    ///
    /// For **data** PDUs the sender's own column is excluded as in the
    /// paper (`j ≠ k`): there `ack[src] == p.SEQ` and condition F1 already
    /// covers it. For **control** PDUs (`RET`, `AckOnly`) the sender's own
    /// column must be included: `ack[src]` is the sender's next own
    /// sequence number, and it is the *only* evidence of loss when a tail
    /// of data PDUs was dropped at every receiver (no later data PDU to
    /// trigger F1, no third-party acceptance to trigger classic F2).
    fn scan_f2<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &C,
        from: EntityId,
        ack: &[Seq],
        include_sender_column: bool,
        out: &mut Out<'_, O, S>,
    ) {
        for (j, &confirmed) in ack.iter().enumerate().take(self.config.n()) {
            let source = EntityId::new(j as u32);
            // The frontier test first: it fails for every entry in the
            // loss-free steady state, so the loop stays one compare wide.
            if confirmed > self.next[j]
                && source != self.config.me
                && (source != from || include_sender_column)
            {
                self.metrics.f2_detections += 1;
                out.event(ProtocolEvent::F2Detected {
                    src: source,
                    confirmed,
                    via: from,
                    now_us: out.now_us,
                });
                self.send_ret(core, source, confirmed, out);
            }
        }
    }

    /// Broadcasts a `RET` for the gap `[REQ_source, lseq)`, with
    /// deduplication: while a request covering the gap is outstanding and
    /// fresh, new detections are suppressed. The range is clamped at the
    /// first *buffered* sequence number — PDUs sitting in the reorder
    /// buffer were received, so only the missing prefix needs resending
    /// (the point of selective retransmission).
    fn send_ret<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &C,
        source: EntityId,
        lseq: Seq,
        out: &mut Out<'_, O, S>,
    ) {
        debug_assert_ne!(source, self.config.me);
        let now_us = out.now_us;
        let lseq = match self.reorder.buffered(source).next() {
            Some(first_buffered) => lseq.min(first_buffered),
            None => lseq,
        };
        if lseq <= self.next[source.index()] {
            return; // nothing actually missing
        }
        let slot = &mut self.ret_outstanding[source.index()];
        if let Some((prev_lseq, when)) = *slot {
            let fresh = now_us.saturating_sub(when) < self.config.ret_retry_us;
            if fresh && lseq <= prev_lseq {
                self.metrics.ret_suppressed += 1;
                out.event(ProtocolEvent::RetSuppressed {
                    src: source,
                    lseq,
                    now_us,
                });
                return;
            }
        }
        *slot = Some((lseq, now_us));
        let ret = RetPdu {
            cid: self.config.cluster.cid,
            src: self.config.me,
            lsrc: source,
            lseq,
            ack: self.next.clone(),
            buf: self.free_buffer_units(core),
        };
        self.metrics.ret_sent += 1;
        out.event(ProtocolEvent::RetSent {
            src: source,
            lseq,
            now_us,
        });
        out.broadcast(Pdu::Ret(ret));
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// The flow condition of §4.2.
    fn flow_open<C: DeliveryCore>(&self, core: &C) -> bool {
        matches!(
            flow_decision(
                self.next[self.config.me.index()],
                core.confirmed_of_me(self),
                self.config.window,
                self.min_buf(core),
                self.config.pdu_buf_units,
                self.config.n(),
            ),
            FlowDecision::Open
        )
    }

    /// Whether a payload may go out now: the core's own gate and the flow
    /// condition.
    fn gate_open<C: DeliveryCore>(&self, core: &C) -> bool {
        core.gate_open(self) && self.flow_open(core)
    }

    /// The application submits a payload for causally ordered broadcast.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::PayloadTooLarge`] for oversized payloads;
    /// * [`ProtocolError::SubmitQueueFull`] when [`MAX_QUEUED_SUBMITS`]
    ///   payloads are already queued behind the send gate.
    pub(crate) fn submit<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        data: Bytes,
        out: &mut Out<'_, O, S>,
    ) -> Result<SubmitOutcome, ProtocolError> {
        let now_us = out.now_us;
        if data.len() > self.config.max_payload {
            return Err(ProtocolError::PayloadTooLarge {
                size: data.len(),
                max: self.config.max_payload,
            });
        }
        if self.pending.is_empty() && self.gate_open(core) {
            out.event(ProtocolEvent::Submitted { now_us });
            let seq = self.broadcast_data(core, data, out);
            core.sweep(self, out);
            Ok(SubmitOutcome::Sent(seq))
        } else {
            if self.pending.len() >= MAX_QUEUED_SUBMITS {
                return Err(ProtocolError::SubmitQueueFull {
                    limit: MAX_QUEUED_SUBMITS,
                });
            }
            out.event(ProtocolEvent::Submitted { now_us });
            out.event(ProtocolEvent::FlowClosed { now_us });
            let me = self.config.me.index();
            out.event(ProtocolEvent::FlowBlocked {
                outstanding: self.next[me].get() - core.confirmed_of_me(self).get(),
                limit: flow_limit(
                    self.config.window,
                    self.min_buf(core),
                    self.config.pdu_buf_units,
                    self.config.n(),
                ),
                now_us,
            });
            self.pending.push_back(data);
            self.metrics.flow_blocked += 1;
            Ok(SubmitOutcome::Queued)
        }
    }

    /// The transmission action of §4.2. Returns the assigned sequence
    /// number.
    fn broadcast_data<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        data: Bytes,
        out: &mut Out<'_, O, S>,
    ) -> Seq {
        let me = self.config.me;
        let seq = self.next[me.index()];
        let pdu = DataPdu {
            cid: self.config.cluster.cid,
            src: me,
            seq,
            ack: self.next.clone(),
            buf: self.free_buffer_units(core),
            data,
        };
        self.next[me.index()] = seq.next();
        self.version += 1;
        self.sl.record(pdu.clone());
        self.metrics.data_sent += 1;
        out.event(ProtocolEvent::DataSent {
            src: me,
            seq,
            now_us: out.now_us,
        });
        out.broadcast(Pdu::Data(pdu.clone()));
        // Self-acceptance: the entity's own PDU enters the core's receipt
        // path so it is delivered to the local application in causal
        // position.
        core.sent(pdu, self, out);
        // A data PDU carries our frontier (and, through the core's
        // knowledge, eventually the rest of our confirmation state): count
        // it as an advertisement.
        self.mark_advertised(core, out.now_us);
        seq
    }

    fn try_flush_pending<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        out: &mut Out<'_, O, S>,
    ) {
        if self.pending.is_empty() || !self.gate_open(core) {
            return;
        }
        out.event(ProtocolEvent::FlowOpened { now_us: out.now_us });
        while !self.pending.is_empty() && self.gate_open(core) {
            let data = self.pending.pop_front().expect("checked non-empty");
            self.broadcast_data(core, data, out);
        }
        // Once, after the burst: a core that delivers its own PDUs from
        // the sweep (hybrid) announces them after all the burst's sends.
        core.sweep(self, out);
    }

    // ------------------------------------------------------------------
    // Confirmation (§4.2's deferred confirmation, lag replies, heartbeats)
    // ------------------------------------------------------------------

    /// Whether the frontier or the core's knowledge moved since our last
    /// confirmation-bearing transmission. O(1): both quantities are
    /// monotonic, so version equality is value equality.
    fn unadvertised<C: DeliveryCore>(&self, core: &C) -> bool {
        self.advertised != (self.version, core.knowledge_version())
    }

    fn mark_advertised<C: DeliveryCore>(&mut self, core: &C, now_us: u64) {
        self.advertised = (self.version, core.knowledge_version());
        self.heard_since_send.fill(false);
        self.last_send_us = now_us;
    }

    /// The per-batch receive epilogue: at most one confirmation for
    /// everything the batch accepted, and the held-PDU gauge.
    pub(crate) fn end_batch<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &C,
        out: &mut Out<'_, O, S>,
    ) {
        self.maybe_confirm(core, out);
        self.note_peak(core);
    }

    fn maybe_confirm<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &C,
        out: &mut Out<'_, O, S>,
    ) {
        if self.peer_needs_update
            && out.now_us.saturating_sub(self.last_send_us) >= self.reply_pace_us()
        {
            self.peer_needs_update = false;
            self.send_ack_only(core, out);
            return;
        }
        if !self.unadvertised(core) {
            return;
        }
        let should = match self.config.deferral {
            DeferralPolicy::Immediate => true,
            DeferralPolicy::Deferred { .. } => {
                // The paper's trigger: heard from every other entity since
                // our last transmission.
                self.config
                    .cluster
                    .peers(self.config.me)
                    .all(|p| self.heard_since_send[p.index()])
            }
        };
        if should {
            self.send_ack_only(core, out);
        }
    }

    fn send_ack_only<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &C,
        out: &mut Out<'_, O, S>,
    ) {
        let (packed, acked) = core.confirmation(self);
        // What every core keeps, and what keeps the lags the wire writes
        // (`ack ⊖ packed`, `ack ⊖ acked`) half a byte wide. `acked ≤ packed`
        // does NOT hold (DESIGN.md, wire format).
        for (j, ack) in self.next.iter().enumerate() {
            debug_assert!(
                packed[j] <= *ack && acked[j] <= *ack,
                "column {j}: packed {:?} / acked {:?} exceed ack {ack:?}",
                packed[j],
                acked[j]
            );
        }
        let pdu = AckOnlyPdu {
            cid: self.config.cluster.cid,
            src: self.config.me,
            ack: self.next.clone(),
            packed,
            acked,
            buf: self.free_buffer_units(core),
        };
        self.metrics.ack_only_sent += 1;
        out.event(ProtocolEvent::AckOnlySent { now_us: out.now_us });
        out.broadcast(Pdu::AckOnly(pdu));
        self.mark_advertised(core, out.now_us);
    }

    fn note_peak<C: DeliveryCore>(&mut self, core: &C) {
        self.peak_held_pdus = self.peak_held_pdus.max(self.held_pdus(core));
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances the notion of time: deferred confirmations, lag replies,
    /// stability heartbeats, RET retries. Idempotent for the same `now_us`.
    pub(crate) fn on_tick<C: DeliveryCore, O: Observer, S: ActionSink>(
        &mut self,
        core: &mut C,
        out: &mut Out<'_, O, S>,
    ) {
        let now_us = out.now_us;
        let since_send = now_us.saturating_sub(self.last_send_us);
        if self.peer_needs_update && since_send >= self.reply_pace_us() {
            // Deferred lag reply (paced; see maybe_confirm).
            self.peer_needs_update = false;
            self.send_ack_only(core, out);
        } else if self.unadvertised(core) && since_send >= self.config.deferral.timeout_us() {
            // Deferred-confirmation fallback ("or after some time units").
            self.send_ack_only(core, out);
        } else if !self.is_fully_stable(core) && since_send >= self.heartbeat_interval() {
            // Stability heartbeat: something is still in flight (ours or a
            // peer's); keep re-advertising so tail losses surface via F2.
            self.send_ack_only(core, out);
        }
        // RET retry for gaps that persist (the RET or the retransmission
        // itself may have been lost).
        for j in 0..self.config.n() {
            let Some((lseq, when)) = self.ret_outstanding[j] else {
                continue;
            };
            if self.next[j] >= lseq {
                self.ret_outstanding[j] = None;
                continue;
            }
            if now_us.saturating_sub(when) >= self.config.ret_retry_us {
                self.ret_outstanding[j] = None; // force re-send
                self.send_ret(core, EntityId::new(j as u32), lseq, out);
            }
        }
        if C::FLUSH_ON_TICK {
            self.try_flush_pending(core, out);
        }
        self.note_peak(core);
    }

    /// The next time at which [`ReliableFifo::on_tick`] has work, if any.
    pub(crate) fn next_deadline<C: DeliveryCore>(&self, core: &C) -> Option<u64> {
        let mut deadline: Option<u64> = None;
        let mut consider = |t: u64| {
            deadline = Some(deadline.map_or(t, |d: u64| d.min(t)));
        };
        if self.peer_needs_update {
            consider(self.last_send_us.saturating_add(self.reply_pace_us()));
        }
        if self.unadvertised(core) {
            let timeout = self.config.deferral.timeout_us();
            consider(self.last_send_us.saturating_add(timeout));
        } else if !self.is_fully_stable(core) {
            consider(self.last_send_us.saturating_add(self.heartbeat_interval()));
        }
        for j in 0..self.config.n() {
            if let Some((lseq, when)) = self.ret_outstanding[j] {
                if self.next[j] < lseq {
                    consider(when.saturating_add(self.config.ret_retry_us));
                }
            }
        }
        deadline
    }
}
