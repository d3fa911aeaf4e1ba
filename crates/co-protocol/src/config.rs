//! Protocol configuration (the paper's constants `W`, `H`, buffer size,
//! deferred-confirmation policy) and its builder.

use causal_order::{ClusterSpec, EntityId, EntityIdError};

/// When an entity emits confirmation-only PDUs (§4.2's *deferred
/// confirmation* and §5's discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferralPolicy {
    /// Confirm every accepted data PDU right away. This is the naive scheme
    /// the paper rejects ("if `E_i` transmits a PDU each time `E_i` receives
    /// a PDU, O(n²) PDUs are transmitted").
    Immediate,
    /// The paper's scheme: transmit a confirmation only after receiving at
    /// least one PDU from every other entity since the last own
    /// transmission, or after `timeout_us` microseconds — "deferred
    /// confirmation", giving O(n) PDUs.
    Deferred {
        /// The "some time units" fallback, in microseconds.
        timeout_us: u64,
    },
}

impl DeferralPolicy {
    /// The paper's deferred scheme with a 5 ms fallback.
    pub const fn deferred_default() -> Self {
        DeferralPolicy::Deferred { timeout_us: 5_000 }
    }

    /// How long an unadvertised frontier may wait for the "heard from
    /// everyone" trigger before a confirmation goes out anyway, in
    /// microseconds (`0` under [`DeferralPolicy::Immediate`]).
    pub const fn timeout_us(self) -> u64 {
        match self {
            DeferralPolicy::Immediate => 0,
            DeferralPolicy::Deferred { timeout_us } => timeout_us,
        }
    }
}

/// How lost PDUs are retransmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetransmissionPolicy {
    /// The paper's scheme: only the PDUs reported lost are rebroadcast, and
    /// receivers keep out-of-order PDUs while the gap is repaired
    /// ("selective retransmission").
    Selective,
    /// The go-back-n scheme of the TO protocols the paper compares against
    /// (§5): the source rebroadcasts *everything* from the first lost PDU
    /// onward, and receivers discard out-of-order PDUs instead of buffering
    /// them. Implemented as an ablation baseline.
    GoBackN,
}

/// Full configuration of one protocol entity.
///
/// Construct through [`Config::builder`]; all parameters have
/// paper-faithful defaults and are validated at
/// [`ConfigBuilder::build`]. The struct is `#[non_exhaustive]`: fields
/// stay readable, but direct literal construction is reserved to the
/// builder so configurations can never skip validation (and new knobs
/// are not breaking changes).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// The cluster this entity belongs to.
    pub cluster: ClusterSpec,
    /// This entity's identity within the cluster.
    pub me: EntityId,
    /// Window size `W` of the flow condition.
    pub window: u64,
    /// Buffer units one PDU occupies (`H` in the flow condition).
    pub pdu_buf_units: u32,
    /// Total receive-buffer units (`BUF` is advertised as the free part).
    pub buffer_units: u32,
    /// Confirmation policy.
    pub deferral: DeferralPolicy,
    /// Retransmission policy.
    pub retransmission: RetransmissionPolicy,
    /// Whether `RET` and `AckOnly` PDUs update the `AL` matrix (their `ACK`
    /// field is the sender's genuine `REQ` vector; see DESIGN.md).
    pub control_updates_al: bool,
    /// Minimum interval between repeated `RET` requests for the same gap,
    /// in microseconds.
    pub ret_retry_us: u64,
    /// Largest accepted application payload, in bytes.
    pub max_payload: usize,
}

impl Config {
    /// Starts building a configuration for entity `me` in a cluster of `n`
    /// entities identified by `cid`.
    pub fn builder(cid: u32, n: usize, me: EntityId) -> ConfigBuilder {
        ConfigBuilder {
            cid,
            n,
            me,
            window: 16,
            pdu_buf_units: 1,
            buffer_units: 4096,
            deferral: DeferralPolicy::deferred_default(),
            retransmission: RetransmissionPolicy::Selective,
            control_updates_al: true,
            ret_retry_us: 10_000,
            max_payload: 64 * 1024,
        }
    }

    /// Cluster size `n`.
    pub fn n(&self) -> usize {
        self.cluster.n
    }
}

/// Builder for [`Config`]; see [`Config::builder`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    cid: u32,
    n: usize,
    me: EntityId,
    window: u64,
    pdu_buf_units: u32,
    buffer_units: u32,
    deferral: DeferralPolicy,
    retransmission: RetransmissionPolicy,
    control_updates_al: bool,
    ret_retry_us: u64,
    max_payload: usize,
}

impl ConfigBuilder {
    /// Sets the flow-condition window `W`.
    pub fn window(&mut self, w: u64) -> &mut Self {
        self.window = w;
        self
    }

    /// Sets `H`, the buffer units one PDU occupies.
    pub fn pdu_buf_units(&mut self, h: u32) -> &mut Self {
        self.pdu_buf_units = h;
        self
    }

    /// Sets the total receive-buffer units.
    pub fn buffer_units(&mut self, units: u32) -> &mut Self {
        self.buffer_units = units;
        self
    }

    /// Sets the confirmation policy.
    pub fn deferral(&mut self, policy: DeferralPolicy) -> &mut Self {
        self.deferral = policy;
        self
    }

    /// Sets the retransmission policy.
    pub fn retransmission(&mut self, policy: RetransmissionPolicy) -> &mut Self {
        self.retransmission = policy;
        self
    }

    /// Sets whether control PDUs update the `AL` matrix.
    pub fn control_updates_al(&mut self, yes: bool) -> &mut Self {
        self.control_updates_al = yes;
        self
    }

    /// Sets the minimum interval between repeated `RET`s for one gap.
    pub fn ret_retry_us(&mut self, us: u64) -> &mut Self {
        self.ret_retry_us = us;
        self
    }

    /// Sets the largest accepted application payload.
    pub fn max_payload(&mut self, bytes: usize) -> &mut Self {
        self.max_payload = bytes;
        self
    }

    /// Validates and produces the [`Config`].
    ///
    /// # Errors
    ///
    /// * [`ConfigError::Cluster`] if `n < 2` or `me` is out of range;
    /// * [`ConfigError::ZeroWindow`] if `W == 0`;
    /// * [`ConfigError::ZeroPduUnits`] if `H == 0`;
    /// * [`ConfigError::BufferTooSmall`] if fewer than `H` buffer units;
    /// * [`ConfigError::ZeroTimerPeriod`] if the RET retry interval or a
    ///   deferred-confirmation timeout is zero (a zero period would make
    ///   the corresponding timer fire on every tick).
    pub fn build(&self) -> Result<Config, ConfigError> {
        let cluster = ClusterSpec::new(self.cid, self.n).map_err(ConfigError::Cluster)?;
        cluster.validate(self.me).map_err(ConfigError::Cluster)?;
        if self.window == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        if self.pdu_buf_units == 0 {
            return Err(ConfigError::ZeroPduUnits);
        }
        if self.buffer_units < self.pdu_buf_units {
            return Err(ConfigError::BufferTooSmall {
                units: self.buffer_units,
                per_pdu: self.pdu_buf_units,
            });
        }
        if self.ret_retry_us == 0 {
            return Err(ConfigError::ZeroTimerPeriod { timer: "ret_retry" });
        }
        if self.deferral == (DeferralPolicy::Deferred { timeout_us: 0 }) {
            return Err(ConfigError::ZeroTimerPeriod { timer: "deferral" });
        }
        Ok(Config {
            cluster,
            me: self.me,
            window: self.window,
            pdu_buf_units: self.pdu_buf_units,
            buffer_units: self.buffer_units,
            deferral: self.deferral,
            retransmission: self.retransmission,
            control_updates_al: self.control_updates_al,
            ret_retry_us: self.ret_retry_us,
            max_payload: self.max_payload,
        })
    }
}

/// Error produced when validating a [`Config`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Invalid cluster shape or entity id.
    Cluster(EntityIdError),
    /// The flow-condition window `W` must be positive.
    ZeroWindow,
    /// `H` (buffer units per PDU) must be positive.
    ZeroPduUnits,
    /// The buffer cannot hold even a single PDU.
    BufferTooSmall {
        /// Configured total units.
        units: u32,
        /// Units required per PDU.
        per_pdu: u32,
    },
    /// A timer period is zero (the timer would fire on every tick).
    ZeroTimerPeriod {
        /// Which timer: `"ret_retry"` or `"deferral"`.
        timer: &'static str,
    },
    /// Exported state handed to [`crate::Entity::restore`] does not have
    /// the dimensions this configuration's cluster size requires (state
    /// must be restored under the configuration it was exported under).
    StateMismatch {
        /// The offending state field.
        field: &'static str,
        /// Entries the cluster size requires.
        expected: usize,
        /// Entries the state holds.
        got: usize,
    },
}

impl ConfigError {
    /// `Ok` when a restored state vector has the length the cluster size
    /// requires, [`ConfigError::StateMismatch`] naming `field` otherwise.
    pub fn check_len(field: &'static str, got: usize, expected: usize) -> Result<(), ConfigError> {
        if got == expected {
            Ok(())
        } else {
            Err(ConfigError::StateMismatch {
                field,
                expected,
                got,
            })
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Cluster(e) => write!(f, "invalid cluster: {e}"),
            ConfigError::ZeroWindow => write!(f, "window size W must be positive"),
            ConfigError::ZeroPduUnits => write!(f, "pdu buffer units H must be positive"),
            ConfigError::BufferTooSmall { units, per_pdu } => {
                write!(
                    f,
                    "buffer of {units} units cannot hold one {per_pdu}-unit pdu"
                )
            }
            ConfigError::ZeroTimerPeriod { timer } => {
                write!(f, "{timer} timer period must be positive")
            }
            ConfigError::StateMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "restored state does not fit the cluster: {field} has {got} entries, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let c = Config::builder(7, 3, EntityId::new(1)).build().unwrap();
        assert_eq!(c.cluster.cid, 7);
        assert_eq!(c.n(), 3);
        assert_eq!(c.me, EntityId::new(1));
        assert_eq!(c.window, 16);
        assert_eq!(c.pdu_buf_units, 1);
        assert_eq!(c.retransmission, RetransmissionPolicy::Selective);
        assert!(c.control_updates_al);
        assert_eq!(c.deferral, DeferralPolicy::Deferred { timeout_us: 5_000 });
    }

    #[test]
    fn builder_overrides_apply() {
        let c = Config::builder(0, 4, EntityId::new(0))
            .window(2)
            .pdu_buf_units(3)
            .buffer_units(30)
            .deferral(DeferralPolicy::Immediate)
            .retransmission(RetransmissionPolicy::GoBackN)
            .control_updates_al(false)
            .ret_retry_us(99)
            .max_payload(128)
            .build()
            .unwrap();
        assert_eq!(c.window, 2);
        assert_eq!(c.pdu_buf_units, 3);
        assert_eq!(c.buffer_units, 30);
        assert_eq!(c.deferral, DeferralPolicy::Immediate);
        assert_eq!(c.retransmission, RetransmissionPolicy::GoBackN);
        assert!(!c.control_updates_al);
        assert_eq!(c.ret_retry_us, 99);
        assert_eq!(c.max_payload, 128);
    }

    #[test]
    fn invalid_cluster_rejected() {
        assert!(matches!(
            Config::builder(0, 1, EntityId::new(0)).build(),
            Err(ConfigError::Cluster(_))
        ));
        assert!(matches!(
            Config::builder(0, 3, EntityId::new(3)).build(),
            Err(ConfigError::Cluster(_))
        ));
    }

    #[test]
    fn zero_window_rejected() {
        assert_eq!(
            Config::builder(0, 2, EntityId::new(0)).window(0).build(),
            Err(ConfigError::ZeroWindow)
        );
    }

    #[test]
    fn zero_pdu_units_rejected() {
        assert_eq!(
            Config::builder(0, 2, EntityId::new(0))
                .pdu_buf_units(0)
                .build(),
            Err(ConfigError::ZeroPduUnits)
        );
    }

    #[test]
    fn tiny_buffer_rejected() {
        assert_eq!(
            Config::builder(0, 2, EntityId::new(0))
                .pdu_buf_units(8)
                .buffer_units(4)
                .build(),
            Err(ConfigError::BufferTooSmall {
                units: 4,
                per_pdu: 8
            })
        );
    }

    #[test]
    fn error_display() {
        let e = ConfigError::BufferTooSmall {
            units: 4,
            per_pdu: 8,
        };
        assert_eq!(
            e.to_string(),
            "buffer of 4 units cannot hold one 8-unit pdu"
        );
        assert!(ConfigError::ZeroWindow.to_string().contains("positive"));
    }
}
