//! Point-in-time state snapshots, for operators and debugging.
//!
//! A wedged broadcast group is diagnosed by comparing entities' `REQ`
//! vectors and knowledge frontiers (that is exactly how the tail-loss
//! convergence bugs in this reproduction's own history were found);
//! [`crate::Entity::snapshot`] exposes that view as one serializable
//! value.

use causal_order::{EntityId, Seq};
use co_wire::DataPdu;

use crate::fifo::FifoState;
use crate::metrics::Metrics;

/// The *complete* protocol state of an entity, captured by
/// [`crate::Entity::export_state`] and restored with
/// [`crate::Entity::restore`]. Unlike [`EntitySnapshot`] (a lossy summary
/// for dashboards) this round-trips every log, matrix and queue, so a
/// crash-restarted entity resumes exactly where it left off — the paper
/// assumes entities keep their protocol state across failures (loss is the
/// failure model, not amnesia), and `co-check`'s crash-restart fault
/// exercises precisely that assumption.
///
/// Two halves, mirroring the engine: what the [`crate::ReliableFifo`]
/// substrate owns for every core, and the core's own knowledge and
/// ordering buffers (`S` is [`crate::DeliveryCore::State`]; the default is
/// the reference core's).
///
/// Not serializable on purpose: it carries raw PDUs ([`DataPdu`] with
/// [`bytes::Bytes`] payloads) and exists for in-process restart
/// simulation, not for durable storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityState<S = CoState> {
    /// The substrate's state: frontier, reorder buffer, send log, queued
    /// submissions, confirmation pacing, counters.
    pub fifo: FifoState,
    /// The core's state.
    pub core: S,
}

/// Exported [`crate::CoCore`] state: the matrices and the two receipt
/// logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoState {
    /// The acceptance matrix `AL`, row-major `[source][observer]`.
    pub al: Vec<Seq>,
    /// The pre-acknowledgment matrix `PAL`, row-major `[source][observer]`.
    pub pal: Vec<Seq>,
    /// The per-source receipt logs, oldest first.
    pub rrl: Vec<Vec<DataPdu>>,
    /// The causally ordered pre-acknowledged log, top first.
    pub prl: Vec<DataPdu>,
}

/// A serializable summary of an entity's protocol state.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EntitySnapshot {
    /// The entity.
    pub id: EntityId,
    /// Cluster size.
    pub n: usize,
    /// `REQ_j` for every `j` (raw sequence numbers).
    pub req: Vec<u64>,
    /// `minAL_j` — the pre-acknowledgment frontier per source.
    pub min_al: Vec<u64>,
    /// `minPAL_j` — the acknowledgment frontier per source.
    pub min_pal: Vec<u64>,
    /// PDUs in the per-source receipt logs (accepted, not pre-acked).
    pub rrl_pdus: usize,
    /// PDUs in the causally ordered pre-acknowledged log.
    pub prl_pdus: usize,
    /// Out-of-order PDUs awaiting gap repair.
    pub reorder_pdus: usize,
    /// Own PDUs retained for retransmission.
    pub send_log_pdus: usize,
    /// Application payloads queued behind the flow condition.
    pub pending_submits: usize,
    /// Free protocol-buffer units (the advertised `BUF`).
    pub free_buffer_units: u32,
    /// Nothing held or queued.
    pub quiescent: bool,
    /// Quiescent *and* everything accepted is known globally pre-acked.
    pub fully_stable: bool,
    /// Cumulative counters.
    pub metrics: Metrics,
}

impl std::fmt::Display for EntitySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} (cluster of {}): {}{}",
            self.id,
            self.n,
            if self.quiescent {
                "quiescent"
            } else {
                "active"
            },
            if self.fully_stable { ", stable" } else { "" },
        )?;
        writeln!(f, "  req:     {:?}", self.req)?;
        writeln!(f, "  minAL:   {:?}", self.min_al)?;
        writeln!(f, "  minPAL:  {:?}", self.min_pal)?;
        writeln!(
            f,
            "  held:    rrl={} prl={} reorder={} send-log={} pending={}",
            self.rrl_pdus,
            self.prl_pdus,
            self.reorder_pdus,
            self.send_log_pdus,
            self.pending_submits,
        )?;
        write!(
            f,
            "  sent:    data={} retrans={} ret={} ack-only={}  delivered={}",
            self.metrics.data_sent,
            self.metrics.retransmissions_sent,
            self.metrics.ret_sent,
            self.metrics.ack_only_sent,
            self.metrics.delivered,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, DeferralPolicy};
    use crate::entity::Entity;
    use bytes::Bytes;

    fn fresh(n: usize) -> Entity {
        Entity::new(
            Config::builder(0, n, EntityId::new(0))
                .deferral(DeferralPolicy::Immediate)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn initial_snapshot_is_clean() {
        let snap = fresh(3).snapshot();
        assert_eq!(snap.req, vec![1, 1, 1]);
        assert_eq!(snap.min_al, vec![1, 1, 1]);
        assert_eq!(snap.min_pal, vec![1, 1, 1]);
        assert!(snap.quiescent);
        assert!(snap.fully_stable);
        assert_eq!(snap.rrl_pdus + snap.prl_pdus + snap.reorder_pdus, 0);
    }

    #[test]
    fn snapshot_reflects_in_flight_state() {
        let mut e = fresh(2);
        let _ = e.submit(Bytes::from_static(b"x"), 0).unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.req[0], 2, "own PDU self-accepted");
        assert_eq!(snap.rrl_pdus, 1, "own PDU awaits pre-ack");
        assert_eq!(snap.send_log_pdus, 1);
        assert!(!snap.quiescent);
        assert!(!snap.fully_stable);
        assert_eq!(snap.metrics.data_sent, 1);
    }

    #[test]
    fn display_names_the_interesting_fields() {
        let text = fresh(2).snapshot().to_string();
        assert!(text.contains("E1 (cluster of 2)"));
        assert!(text.contains("quiescent"));
        assert!(text.contains("minPAL"));
        assert!(text.contains("held:"));
    }

    /// An entity in a deliberately messy mid-protocol state: own PDUs in
    /// the send log and receipt log, a queued submit behind a window of 1,
    /// an out-of-order PDU in the reorder buffer and an outstanding RET.
    fn messy_entity() -> Entity {
        use causal_order::Seq;
        use co_wire::{DataPdu, Pdu};

        let cfg = Config::builder(0, 2, EntityId::new(0))
            .window(1)
            .deferral(DeferralPolicy::Immediate)
            .build()
            .unwrap();
        let mut e = Entity::new(cfg).unwrap();
        let _ = e.submit(Bytes::from_static(b"first"), 10).unwrap();
        let _ = e.submit(Bytes::from_static(b"queued"), 20).unwrap();
        // E2's seq 2 arrives before seq 1: goes to the reorder buffer and
        // triggers a RET for the gap.
        let gap = DataPdu {
            cid: 0,
            src: EntityId::new(1),
            seq: Seq::new(2),
            ack: vec![Seq::FIRST, Seq::new(2)],
            buf: 4096,
            data: Bytes::from_static(b"late"),
        };
        e.on_pdu(Pdu::Data(gap), 30, &mut Vec::new()).unwrap();
        e
    }

    #[test]
    fn export_restore_round_trips_exactly() {
        let original = messy_entity();
        let state = original.export_state();
        // The messy state exercises every structure.
        assert!(!state.fifo.send_log.is_empty());
        assert!(state.core.rrl.iter().any(|log| !log.is_empty()));
        assert!(state.fifo.reorder.iter().any(|buf| !buf.is_empty()));
        assert!(!state.fifo.pending.is_empty());
        assert!(state.fifo.ret_outstanding.iter().any(Option::is_some));

        let restored = Entity::restore(original.config().clone(), state.clone()).unwrap();
        assert_eq!(
            restored.export_state(),
            state,
            "export∘restore must be identity"
        );
        assert_eq!(restored.snapshot(), original.snapshot());
    }

    #[test]
    fn restored_entity_behaves_identically() {
        use causal_order::Seq;
        use co_wire::{DataPdu, Pdu};

        let mut original = messy_entity();
        let mut restored =
            Entity::restore(original.config().clone(), original.export_state()).unwrap();
        // The gap-filling PDU arrives: both must accept it, drain the
        // reorder buffer and emit byte-identical actions.
        let fill = DataPdu {
            cid: 0,
            src: EntityId::new(1),
            seq: Seq::new(1),
            ack: vec![Seq::FIRST, Seq::FIRST],
            buf: 4096,
            data: Bytes::from_static(b"fill"),
        };
        let mut a = Vec::new();
        original
            .on_pdu(Pdu::Data(fill.clone()), 50, &mut a)
            .unwrap();
        let mut b = Vec::new();
        restored.on_pdu(Pdu::Data(fill), 50, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(original.req(), restored.req());
        assert_eq!(original.held_pdus(), restored.held_pdus());
    }

    #[test]
    fn restored_entity_re_advertises() {
        let original = messy_entity();
        let restored = Entity::restore(original.config().clone(), original.export_state()).unwrap();
        assert!(
            restored.next_deadline(1_000).is_some(),
            "a restored entity must owe the cluster an advertisement"
        );
    }

    #[test]
    fn restore_rejects_mismatched_dimensions() {
        use crate::config::ConfigError;

        let state = fresh(3).export_state();
        let cfg = Config::builder(0, 2, EntityId::new(0)).build().unwrap();
        assert_eq!(
            Entity::restore(cfg.clone(), state.clone()).err(),
            Some(ConfigError::StateMismatch {
                field: "next",
                expected: 2,
                got: 3
            })
        );
        // A core-owned field is checked the same way.
        let mut state = state;
        state.fifo = fresh(2).export_state().fifo;
        assert_eq!(
            Entity::restore(cfg, state).err(),
            Some(ConfigError::StateMismatch {
                field: "al",
                expected: 4,
                got: 9
            })
        );
    }

    #[test]
    fn snapshot_round_trips_through_serde_json_shape() {
        // serde derives exist for dashboards; spot-check the Debug/clone
        // equality contract the derive relies on.
        let a = fresh(2).snapshot();
        let b = a.clone();
        assert_eq!(a, b);
    }
}
