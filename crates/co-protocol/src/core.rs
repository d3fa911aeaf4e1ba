//! The pluggable ordering-policy abstraction.
//!
//! The paper's §4 is two separable things, and this crate keeps them
//! apart:
//!
//! * **below the seam** — a loss-repaired per-source FIFO stream: the ACC
//!   condition, failure conditions F1/F2, the `RET` service, the flow
//!   condition and deferred confirmation (§4.2–4.3). One implementation,
//!   [`ReliableFifo`], shared by every core;
//! * **above the seam** — the ordering decision over that stream and the
//!   knowledge state it needs (§4.4–4.5 for the reference core). This is
//!   what a [`DeliveryCore`] implements, through the narrow hook set
//!   below.
//!
//! The [`crate::Entity`] shell owns what is neither: input validation and
//! observer plumbing.
//!
//! Three cores ship with this crate:
//!
//! * [`crate::CoCore`] — the paper's AL/PAL matrix + CPI engine (§4), the
//!   reference implementation. O(n²) knowledge state; messages wait two
//!   confirmation rounds and deliver globally stable.
//! * [`crate::HybridCore`] — hybrid buffering in the style of Almeida's
//!   causal-delivery work (PAPERS.md): FIFO links plus a small causal
//!   buffer keyed on the piggybacked dependency vector. O(n) knowledge
//!   state; messages deliver as soon as their dependencies have, with no
//!   stability rounds.
//! * [`crate::SenderCore`] — sender-side enforcement in the style of Tong,
//!   Liittschwager and Kuper (PAPERS.md): the *sender* delays a broadcast
//!   until its causal dependencies are known received everywhere, so
//!   receivers deliver on (FIFO) arrival.
//!
//! All three speak the same `co-wire` PDU vocabulary (DATA / RET /
//! AckOnly) because the substrate does the speaking — so `co-check` can
//! race them under identical schedules and oracles, and `co-bench`'s
//! `core_matrix` suite can price them head-to-head.
//!
//! # Contract
//!
//! A core is a deterministic sans-IO state machine: no clocks, no IO, no
//! randomness. For a fixed sequence of hook calls a core must make the
//! identical decisions and emit the identical event and action streams on
//! every run — that is what makes `co-check`'s digest-determinism oracle
//! meaningful.
//!
//! When the substrate calls which hook, for one validated PDU:
//!
//! 1. [`DeliveryCore::observe`] — fold the PDU's vectors into knowledge
//!    (valid for *every* arriving PDU, acceptable or not);
//! 2. F2 detection, then — for a data PDU — duplicate/F1 handling or, if
//!    the ACC condition holds, [`DeliveryCore::accept`] for it and for
//!    every PDU the reorder buffer releases behind it;
//! 3. [`DeliveryCore::sweep`] — promote and deliver what became ready;
//! 4. queued submissions go out while the flow condition and
//!    [`DeliveryCore::gate_open`] hold, each through
//!    [`DeliveryCore::sent`]; one more `sweep` follows the last.
//!
//! Steps 1–4 run per PDU even inside a batch, deliberately: the delivery
//! interleaving must be identical to feeding the PDUs one at a time. What
//! a batch amortizes is the substrate's epilogue (one confirmation per
//! batch instead of one per PDU, built from
//! [`DeliveryCore::confirmation`]). A submit is step 4 for one payload; a
//! tick only asks the core for a `confirmation` (and re-tries step 4 under
//! [`DeliveryCore::FLUSH_ON_TICK`]).
//!
//! State ownership: the core owns its knowledge and its ordering buffers
//! and exports them losslessly through [`DeliveryCore::export_state`] /
//! [`DeliveryCore::restore`]; the substrate exports the rest (the
//! crash-restart path — the paper's failure model is PDU loss, not
//! amnesia).

use causal_order::Seq;
use co_wire::{DataPdu, Pdu};

use crate::actions::{Action, ActionSink};
use crate::config::{Config, ConfigError};
use crate::fifo::ReliableFifo;
use co_observe::{Observer, ProtocolEvent};

/// Upper bound on payloads queued while the send gate is closed (flow
/// condition, sender-side causal delay, …).
pub const MAX_QUEUED_SUBMITS: usize = 1 << 16;

/// Where one engine step's outputs go: the caller's clock reading, the
/// observer receiving the [`ProtocolEvent`] stream and the sink receiving
/// the [`Action`]s.
///
/// Both are threaded in per call (rather than owned by the engine) so the
/// shell can keep a single observer across core generations
/// (crash-restart replaces the core, not the observer) and so the whole
/// engine monomorphizes against the zero-cost [`co_observe::NoopObserver`]
/// — the bench trajectory guard holds the shell to that.
#[derive(Debug)]
pub struct Out<'a, O: Observer, S: ActionSink> {
    /// The step's timestamp, µs on the caller's monotonic clock.
    pub now_us: u64,
    /// Receives every protocol transition.
    pub observer: &'a mut O,
    /// Receives broadcasts and deliveries, in protocol order.
    pub sink: &'a mut S,
}

impl<'a, O: Observer, S: ActionSink> Out<'a, O, S> {
    /// Bundles one step's clock reading, observer and sink.
    pub fn new(now_us: u64, observer: &'a mut O, sink: &'a mut S) -> Self {
        Out {
            now_us,
            observer,
            sink,
        }
    }

    /// Emits one protocol event.
    #[inline]
    pub fn event(&mut self, event: ProtocolEvent) {
        self.observer.on_event(event);
    }

    /// Emits one PDU for broadcast.
    #[inline]
    pub fn broadcast(&mut self, pdu: Pdu) {
        self.sink.accept(Action::Broadcast(pdu));
    }
}

/// A pluggable ordering policy: the half of an [`crate::Entity`] above
/// the [`ReliableFifo`] substrate.
///
/// See the [module docs](self) for the contract. Implementations in this
/// crate: [`crate::CoCore`], [`crate::HybridCore`], [`crate::SenderCore`];
/// `co_baselines::FifoCore` is a fourth (FIFO-only) one.
///
/// Every hook receives the substrate: read the next-expected frontier
/// with [`ReliableFifo::frontier`], hand a message to the application
/// with [`ReliableFifo::deliver`], release acknowledged own PDUs with
/// [`ReliableFifo::prune_send_log`].
pub trait DeliveryCore: Sized + Send + std::fmt::Debug + 'static {
    /// The core's exported knowledge and buffers (crash-restart).
    type State: Clone + Send + std::fmt::Debug;

    /// Stable lowercase identifier (`"co"`, `"hybrid"`, `"sender"`) used
    /// by `co-check --core`, scenario plans and bench row ids.
    const NAME: &'static str;

    /// Whether a tick re-tries the flush of queued submissions. Only a
    /// core whose [`Self::gate_open`] can open without a PDU arriving
    /// needs it.
    const FLUSH_ON_TICK: bool = false;

    /// Creates the core in its initial state.
    fn new(config: &Config) -> Self;

    /// Rebuilds a core from exported state (crash-restart).
    ///
    /// # Errors
    ///
    /// [`ConfigError::StateMismatch`] if the state's dimensions do not
    /// match `config`'s cluster size.
    fn restore(config: &Config, state: Self::State) -> Result<Self, ConfigError>;

    /// Captures the core's complete state (lossless; see
    /// [`DeliveryCore::restore`]).
    fn export_state(&self) -> Self::State;

    /// Folds the vectors of an arriving, validated PDU into knowledge.
    /// Called for every PDU before anything else looks at it. For an
    /// `AckOnly`, returns whether its sender lags this entity's knowledge
    /// (it missed confirmations — possibly because ours were lost) and is
    /// owed a paced refresher; `false` for the other kinds.
    fn observe(&mut self, pdu: &Pdu, fifo: &mut ReliableFifo) -> bool;

    /// Takes ownership of a data PDU the substrate just accepted in
    /// per-source order (the frontier already points past it).
    fn accept<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    );

    /// Records this entity's own broadcast `p` (already in the send log
    /// and on the wire), so it reaches the local application in causal
    /// position.
    fn sent<O: Observer, S: ActionSink>(
        &mut self,
        p: DataPdu,
        fifo: &mut ReliableFifo,
        out: &mut Out<'_, O, S>,
    );

    /// Promotes and delivers everything that became ready. Cores that
    /// deliver inside [`Self::accept`] keep the default.
    fn sweep<O: Observer, S: ActionSink>(
        &mut self,
        _fifo: &mut ReliableFifo,
        _out: &mut Out<'_, O, S>,
    ) {
    }

    /// The lowest confirmation of this entity's own PDUs across the
    /// cluster: everything below is known received everywhere. The base of
    /// the flow window.
    fn confirmed_of_me(&self, fifo: &ReliableFifo) -> Seq;

    /// A send gate on top of the flow condition; queued submissions wait
    /// while it is closed.
    fn gate_open(&self, _fifo: &ReliableFifo) -> bool {
        true
    }

    /// The `(packed, acked)` vectors of an outgoing `AckOnly` (`ack` is
    /// always the frontier).
    fn confirmation(&self, fifo: &ReliableFifo) -> (Vec<Seq>, Vec<Seq>);

    /// A counter that moves whenever knowledge worth advertising beyond
    /// the frontier does. Must reflect every fold made so far.
    fn knowledge_version(&self) -> u64 {
        0
    }

    /// PDUs held in the core's ordering buffers.
    fn held(&self) -> usize;

    /// Approximate resident bytes of the core's knowledge plus its
    /// buffered PDUs in a cluster of `n`.
    fn state_bytes(&self, n: usize) -> usize;

    /// Whether the core knows every peer has seen everything this entity
    /// sent (and, where the core tracks it, accepted). Until then the
    /// substrate keeps emitting heartbeat confirmations so tail losses are
    /// eventually detected and repaired.
    fn is_stable(&self, fifo: &ReliableFifo) -> bool;
}
