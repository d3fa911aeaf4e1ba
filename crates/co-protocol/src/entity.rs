//! The protocol entity `E_i` (§4): a thin sans-IO shell around the
//! [`ReliableFifo`] substrate and a pluggable [`DeliveryCore`].
//!
//! The shell owns what is neither reliability nor ordering — input
//! validation, the observer, and the batching loop. The substrate repairs
//! loss and paces confirmations; the core makes every ordering decision.
//! See [`crate::core`] for the hook contract and the cores that ship with
//! this crate.

use bytes::Bytes;
use causal_order::EntityId;
use co_wire::Pdu;

use crate::actions::{Action, ActionSink, SubmitOutcome};
use crate::co_core::CoCore;
use crate::config::{Config, ConfigError};
use crate::core::{DeliveryCore, Out};
use crate::error::ProtocolError;
use crate::fifo::ReliableFifo;
use crate::metrics::Metrics;
use crate::snapshot::EntityState;
use co_observe::{NoopObserver, Observer};

/// Per-batch summary returned by [`Entity::on_pdus_into`]: how many PDUs
/// entered the receive pipeline and how many failed validation and were
/// dropped (the same drop-and-continue treatment transports give per-PDU
/// errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// PDUs that passed validation and were processed.
    pub accepted: usize,
    /// PDUs rejected by validation (wrong cluster, looped back,
    /// malformed vectors) and dropped.
    pub rejected: usize,
}

/// One entity of the cluster: wire-facing shell + reliability substrate +
/// delivery core.
///
/// Drive it with [`Entity::submit`], [`Entity::on_pdu`] and
/// [`Entity::on_tick`]; the resulting [`Action`]s stream into a
/// caller-supplied [`ActionSink`] (a `Vec<Action>` works, and
/// [`crate::FnSink`] handles actions in place). Time is a caller-supplied
/// monotonic microsecond counter — the engine never reads a clock.
///
/// The `C` parameter selects the [`DeliveryCore`] — the ordering engine
/// between "validated PDU in" and "ordered delivery + protocol actions
/// out". The default [`CoCore`] is the paper's matrix/CPI engine;
/// [`crate::HybridCore`] and [`crate::SenderCore`] trade its O(n²)
/// knowledge state for other points in the design space. The `O`
/// parameter is the [`Observer`] receiving the structured
/// [`co_observe::ProtocolEvent`] stream; the default
/// [`NoopObserver`] compiles the whole instrumentation away. Construct
/// instrumented entities with [`Entity::with_observer`].
///
/// See the crate docs for a walk-through and an example.
#[derive(Debug)]
pub struct Entity<C: DeliveryCore = CoCore, O: Observer = NoopObserver> {
    fifo: ReliableFifo,
    core: C,
    /// Receives the [`co_observe::ProtocolEvent`] stream (zero-cost by
    /// default). Owned by the shell, not the core, so it survives
    /// crash-restart core replacement.
    observer: O,
}

impl Entity {
    /// Creates a [`CoCore`] entity in its initial state (all sequence
    /// numbers at 1, empty logs — Example 4.1's starting point), with the
    /// zero-cost [`NoopObserver`].
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid [`Config`] (which is itself
    /// validated at construction); the `Result` keeps room for stateful
    /// initialization failures without a breaking change.
    pub fn new(config: Config) -> Result<Self, ConfigError> {
        Entity::with_observer(config, NoopObserver)
    }

    /// Rebuilds a [`CoCore`] entity from a [`crate::EntityState`] with the
    /// zero-cost [`NoopObserver`]; see [`Entity::restore_with`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::StateMismatch`] if the state's dimensions do not
    /// match `config`'s cluster size (see [`Entity::restore_with`]).
    pub fn restore(config: Config, state: EntityState) -> Result<Self, ConfigError> {
        Entity::restore_with(config, state, NoopObserver)
    }
}

impl<C: DeliveryCore, O: Observer> Entity<C, O> {
    /// Creates the entity in its initial state with `observer` plugged in
    /// as the sink for the structured [`co_observe::ProtocolEvent`]
    /// stream.
    ///
    /// The core type is inferred from context (a typed binding or field),
    /// or selected explicitly: `Entity::<HybridCore, _>::with_observer(…)`.
    ///
    /// # Errors
    ///
    /// See [`Entity::new`].
    pub fn with_observer(config: Config, observer: O) -> Result<Self, ConfigError> {
        Ok(Entity {
            core: C::new(&config),
            fifo: ReliableFifo::new(config),
            observer,
        })
    }

    /// Rebuilds an entity from exported core state — the crash-restart
    /// path: the paper's failure model is PDU loss, not state amnesia, so
    /// a restarting entity resumes from its full protocol state (only the
    /// volatile NIC inbox is lost, which the simulator models
    /// separately). `observer` receives the restarted entity's event
    /// stream; the restore itself emits nothing.
    ///
    /// The restored entity considers its state unadvertised, so it
    /// re-announces its frontiers on the next tick — letting peers detect
    /// anything lost while it was down.
    ///
    /// # Errors
    ///
    /// [`ConfigError::StateMismatch`] if the state's dimensions do not
    /// match `config`'s cluster size (a driver bug: state must be restored
    /// under the same config it was exported under).
    pub fn restore_with(
        config: Config,
        state: EntityState<C::State>,
        observer: O,
    ) -> Result<Self, ConfigError> {
        let fifo = ReliableFifo::restore(config, state.fifo)?;
        let core = C::restore(fifo.config(), state.core)?;
        Ok(Entity {
            fifo,
            core,
            observer,
        })
    }

    /// This entity's id.
    pub fn id(&self) -> EntityId {
        self.fifo.config().me
    }

    /// The delivery core's stable name (`"co"`, `"hybrid"`, `"sender"`).
    pub fn core_name(&self) -> &'static str {
        C::NAME
    }

    /// The delivery core (e.g. for core-specific introspection).
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The plugged-in observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (e.g. to cut a snapshot or drain a
    /// trace mid-run).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the entity, returning the observer (e.g. to extract a
    /// recorded trace at the end of a run).
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        self.fifo.config()
    }

    /// Cumulative counters.
    pub fn metrics(&self) -> &Metrics {
        self.fifo.metrics()
    }

    /// PDUs currently held in the reorder buffer and the core's ordering
    /// buffers.
    pub fn held_pdus(&self) -> usize {
        self.fifo.held_pdus(&self.core)
    }

    /// High-water mark of [`Entity::held_pdus`] over the entity's lifetime
    /// (§5's O(n)-buffer claim is measured against this).
    pub fn peak_held_pdus(&self) -> usize {
        self.fifo.peak_held_pdus()
    }

    /// Payloads queued behind the send gate (flow condition, sender-side
    /// causal delay, …).
    pub fn pending_submits(&self) -> usize {
        self.fifo.pending_submits()
    }

    /// Approximate resident bytes of protocol state: knowledge
    /// vectors/matrices plus buffered PDUs (headers, ack vectors and
    /// payloads). This is the space-cost axis of the core comparison —
    /// `co-bench`'s `core_matrix/mem` rows report it after a fixed
    /// workload, exposing the O(n²)-matrix vs O(n)-vector trade.
    pub fn state_bytes(&self) -> usize {
        self.fifo.state_bytes(&self.core)
    }

    /// `true` when nothing is buffered or queued anywhere — every accepted
    /// PDU has been delivered and no payload awaits transmission.
    pub fn is_quiescent(&self) -> bool {
        self.fifo.is_quiescent(&self.core)
    }

    /// `true` when, additionally, everything this entity has sent (and,
    /// where the core tracks it, accepted) is — to its knowledge — seen
    /// everywhere. An entity that is not fully stable keeps emitting
    /// heartbeat confirmations so that tail losses (a PDU or confirmation
    /// lost with no later traffic to reveal the gap) are eventually
    /// detected and repaired.
    pub fn is_fully_stable(&self) -> bool {
        self.fifo.is_fully_stable(&self.core)
    }

    /// Free protocol-buffer units (advertised as `BUF`).
    pub fn free_buffer_units(&self) -> u32 {
        self.fifo.free_buffer_units(&self.core)
    }

    /// The application submits a payload for causally ordered broadcast
    /// (the paper's DT request).
    ///
    /// Convenience wrapper over [`Entity::submit_with`] that collects the
    /// actions into a fresh vector.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::PayloadTooLarge`] for oversized payloads;
    /// * [`ProtocolError::SubmitQueueFull`] when
    ///   [`crate::MAX_QUEUED_SUBMITS`] payloads are already waiting.
    pub fn submit(
        &mut self,
        data: Bytes,
        now_us: u64,
    ) -> Result<(SubmitOutcome, Vec<Action>), ProtocolError> {
        let mut actions = Vec::new();
        let outcome = self.submit_with(data, now_us, &mut actions)?;
        Ok((outcome, actions))
    }

    /// The application submits a payload for causally ordered broadcast,
    /// streaming the resulting actions into `sink`.
    ///
    /// Returns the outcome. If the send gate (the flow condition of §4.2,
    /// plus the causal send delay for [`crate::SenderCore`]) is closed the
    /// payload is queued and flushed automatically as the gate opens.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::PayloadTooLarge`] for oversized payloads;
    /// * [`ProtocolError::SubmitQueueFull`] when
    ///   [`crate::MAX_QUEUED_SUBMITS`] payloads are already waiting.
    pub fn submit_with(
        &mut self,
        data: Bytes,
        now_us: u64,
        sink: &mut impl ActionSink,
    ) -> Result<SubmitOutcome, ProtocolError> {
        let out = &mut Out::new(now_us, &mut self.observer, sink);
        self.fifo.submit(&mut self.core, data, out)
    }

    /// Feeds a PDU received from the network, streaming the resulting
    /// actions into `sink` — the engine's single receive entry point. Pass
    /// a reused `Vec<Action>` for an allocation-free receive path, or a
    /// [`crate::FnSink`] to handle actions in place.
    ///
    /// # Per-PDU cost
    ///
    /// Shell-side work is O(1) plus one validation pass over the PDU's
    /// vectors; everything else is the core's. For [`CoCore`] an in-order
    /// data PDU with no losses and nothing newly packable or deliverable
    /// costs **O(n) with zero heap allocations**: the ACK fold touches one
    /// matrix column, every `minAL`/`minPAL` consultation is an O(1) load
    /// of an exact, incrementally maintained row minimum, the PACK scan
    /// visits only sources whose `minAL` actually moved (the dirty set),
    /// and the stability/advertisement checks are O(1) version
    /// comparisons. Work beyond that is proportional to what actually
    /// moved, not to the structures' sizes: one O(n) row scan per row
    /// minimum the PDU moves, insertion into the causal log,
    /// retransmission service and reorder buffering per PDU handled.
    ///
    /// # Errors
    ///
    /// Hard validation failures only ([`ProtocolError`]); duplicates,
    /// gaps and stale information are handled internally.
    pub fn on_pdu(
        &mut self,
        pdu: Pdu,
        now_us: u64,
        sink: &mut impl ActionSink,
    ) -> Result<(), ProtocolError> {
        Self::validate(self.fifo.config(), &pdu)?;
        let out = &mut Out::new(now_us, &mut self.observer, sink);
        self.fifo.on_pdu(&mut self.core, pdu, out);
        self.fifo.end_batch(&self.core, out);
        Ok(())
    }

    /// Feeds a *batch* of PDUs received from the network in arrival order,
    /// streaming the resulting actions into `sink`.
    ///
    /// Each PDU individually goes through the same receive pipeline as
    /// [`Entity::on_pdu`] — validation, then the substrate's per-element
    /// processing: knowledge folds ([`DeliveryCore::observe`]), loss
    /// detection, the delivery sweep ([`DeliveryCore::sweep`]), and the
    /// gated-submission flush.
    /// All of these stay per-PDU deliberately: the delivery sweep because
    /// the delivery interleaving must be *identical* to feeding the PDUs
    /// one at a time, and the pending flush because a queued submission
    /// must go out at the exact point the send gate opens, with the same
    /// `ACK` vector the per-PDU path would stamp (it is O(1) when nothing
    /// is pending — the steady state — so there is nothing to amortize
    /// anyway).
    ///
    /// What the batch amortizes is the substrate's epilogue, run once at
    /// the end instead of once per PDU:
    ///
    /// * **advertisement**: under
    ///   [`crate::DeferralPolicy::Immediate`] the per-PDU path emits one
    ///   `AckOnly` confirmation per accepted PDU; the batch path coalesces
    ///   them into a single `AckOnly` carrying the batch-final frontier —
    ///   the dominant saving (three O(n) vector clones per PDU become
    ///   three per batch). The paper explicitly allows deferring
    ///   confirmations ("or after some time units"), and peers fold the
    ///   final frontier identically;
    /// * the held-PDU peak gauge, which consequently may not observe
    ///   transient within-batch peaks.
    ///
    /// Protocol *state* — frontiers, logs, matrices where the core keeps
    /// them — and the `Deliver`, `Data` and `RET` action streams end
    /// identical to the per-PDU path; only `AckOnly` emissions differ, in
    /// timing and count (never more than per-PDU).
    /// `crates/co-protocol/tests/batch_equivalence.rs` and its proptest
    /// twin pin exactly this contract.
    ///
    /// Invalid PDUs (wrong cluster, looped back, malformed vectors) are
    /// dropped and counted, mirroring how transports treat per-PDU errors;
    /// one bad PDU does not poison the rest of the batch.
    pub fn on_pdus_into(
        &mut self,
        pdus: impl IntoIterator<Item = Pdu>,
        now_us: u64,
        sink: &mut impl ActionSink,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        let out = &mut Out::new(now_us, &mut self.observer, sink);
        for pdu in pdus {
            if Self::validate(self.fifo.config(), &pdu).is_err() {
                outcome.rejected += 1;
                continue;
            }
            outcome.accepted += 1;
            self.fifo.on_pdu(&mut self.core, pdu, out);
        }
        if outcome.accepted > 0 {
            self.fifo.end_batch(&self.core, out);
        }
        outcome
    }

    /// Advances the entity's notion of time: fires the deferred-
    /// confirmation fallback and retries outstanding `RET` requests.
    ///
    /// Convenience wrapper over [`Entity::on_tick_with`] that collects the
    /// actions into a fresh vector.
    pub fn on_tick(&mut self, now_us: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        self.on_tick_with(now_us, &mut actions);
        actions
    }

    /// Advances the entity's notion of time, streaming the resulting
    /// actions into `sink`.
    pub fn on_tick_with(&mut self, now_us: u64, sink: &mut impl ActionSink) {
        let out = &mut Out::new(now_us, &mut self.observer, sink);
        self.fifo.on_tick(&mut self.core, out);
    }

    /// The next time at which [`Entity::on_tick`] has work to do, if any.
    pub fn next_deadline(&self, _now_us: u64) -> Option<u64> {
        self.fifo.next_deadline(&self.core)
    }

    /// Captures the *complete* protocol state for crash-restart
    /// simulation. [`Entity::restore_with`] rebuilds an entity that is
    /// behaviorally identical to this one.
    pub fn export_state(&self) -> EntityState<C::State> {
        EntityState {
            fifo: self.fifo.export_state(),
            core: self.core.export_state(),
        }
    }

    // ------------------------------------------------------------------
    // Input validation (wire-facing, core-agnostic)
    // ------------------------------------------------------------------

    fn validate(config: &Config, pdu: &Pdu) -> Result<(), ProtocolError> {
        let n = config.n();
        if pdu.cid() != config.cluster.cid {
            return Err(ProtocolError::WrongCluster {
                expected: config.cluster.cid,
                found: pdu.cid(),
            });
        }
        if pdu.src() == config.me {
            return Err(ProtocolError::LoopedBack);
        }
        if pdu.src().index() >= n {
            return Err(ProtocolError::UnknownSource { src: pdu.src(), n });
        }
        if pdu.ack().len() != n {
            return Err(ProtocolError::BadAckLength {
                expected: n,
                found: pdu.ack().len(),
            });
        }
        if let Pdu::AckOnly(a) = pdu {
            for vector in [&a.packed, &a.acked] {
                if vector.len() != n {
                    return Err(ProtocolError::BadAckLength {
                        expected: n,
                        found: vector.len(),
                    });
                }
            }
        }
        if let Pdu::Ret(r) = pdu {
            if r.lsrc.index() >= n {
                return Err(ProtocolError::UnknownSource { src: r.lsrc, n });
            }
        }
        Ok(())
    }
}

/// [`CoCore`]-specific introspection, kept on the entity for source
/// compatibility with the pre-redesign API (these concepts — `REQ`,
/// `minAL`, `minPAL` — are the matrix engine's).
impl<O: Observer> Entity<CoCore, O> {
    /// The current `REQ` vector.
    pub fn req(&self) -> &[causal_order::Seq] {
        self.fifo.frontier()
    }

    /// `minAL_j` — everything from `E_j` below this is known accepted
    /// everywhere.
    pub fn min_al(&self, source: EntityId) -> causal_order::Seq {
        self.core.min_al(source)
    }

    /// `minPAL_j` — everything from `E_j` below this is known
    /// pre-acknowledged everywhere.
    pub fn min_pal(&self, source: EntityId) -> causal_order::Seq {
        self.core.min_pal(source)
    }

    /// Captures a serializable summary of the protocol state (see
    /// [`crate::EntitySnapshot`]).
    pub fn snapshot(&self) -> crate::snapshot::EntitySnapshot {
        self.core.snapshot(&self.fifo)
    }
}
