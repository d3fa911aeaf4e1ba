//! Scenarios: a fully deterministic description of one adversarial run.
//!
//! A [`Scenario`] captures *everything* that makes a run what it is — the
//! cluster shape, the protocol knobs, the network parameters, the workload
//! and the fault plan. Two executions of the same scenario are
//! byte-identical (same [`mc_net::Simulator::trace_digest`]), which is what
//! makes shrinking and reproducer replay possible.
//!
//! Scenarios serialize to JSON (via the workspace codec,
//! [`co_observe::Json`]) so a shrunken counterexample can be committed to
//! `tests/regressions/` and replayed by a plain `#[test]`.

use co_observe::{Json, RecorderDump};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Latest time (µs) at which any workload submit may be scheduled.
pub const WORKLOAD_HORIZON_US: u64 = 20_000;

/// Latest time (µs) at which any fault window may still be active. Every
/// generated scenario leaves a quiet, fault-free tail after this point so
/// the protocol has a fair chance to recover — the liveness oracle is only
/// meaningful if the network eventually behaves.
pub const FAULT_HORIZON_US: u64 = 25_000;

/// One application submit: `node` broadcasts a payload at `at_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Absolute simulated time of the submit, µs.
    pub at_us: u64,
    /// Submitting entity index (`0`-based).
    pub node: u32,
}

/// One fault in the plan. Wire-level faults become
/// [`mc_net::TimedRule`]s; host-level faults (`PauseNode`, `CrashRestart`)
/// become simulator control events and commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Drop everything on the directed link `from → to` during the window.
    CutLink {
        /// Sending entity index.
        from: u32,
        /// Receiving entity index.
        to: u32,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        to_us: u64,
    },
    /// Drop everything *sent to* `node` during the window (the entity
    /// appears crashed to its peers).
    PauseReceiver {
        /// The unreachable entity index.
        node: u32,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        to_us: u64,
    },
    /// Cut every link between `group` and its complement, both directions,
    /// for the window — a clean two-sided partition that heals.
    Partition {
        /// One side of the partition (entity indices); the other side is
        /// the complement within the cluster.
        group: Vec<u32>,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        to_us: u64,
    },
    /// Each transmission on `from → to` arrives `1 + extra` times during
    /// the window (per-link FIFO still holds).
    Duplicate {
        /// Sending entity index.
        from: u32,
        /// Receiving entity index.
        to: u32,
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        to_us: u64,
        /// Extra copies per transmission.
        extra: u32,
    },
    /// Drop every transmission on every link during the window.
    LossBurst {
        /// Window start (inclusive), µs.
        from_us: u64,
        /// Window end (exclusive), µs.
        to_us: u64,
    },
    /// Pause the *host* of `node` for the window: its NIC keeps receiving
    /// (the inbox fills and may overrun, §2.1 loss) but nothing is
    /// processed until the resume.
    PauseNode {
        /// The paused entity index.
        node: u32,
        /// Pause time, µs.
        from_us: u64,
        /// Resume time, µs.
        to_us: u64,
    },
    /// Crash `node` at `at_us` and restart it immediately from a full
    /// protocol-state snapshot; the volatile NIC inbox is cleared (the
    /// paper's failure model is PDU loss, not state amnesia, so protocol
    /// state survives while in-flight receive state does not).
    CrashRestart {
        /// The crashing entity index.
        node: u32,
        /// Crash-and-restart time, µs.
        at_us: u64,
    },
}

impl FaultEvent {
    /// A short stable tag naming the fault kind (used in JSON and logs).
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::CutLink { .. } => "cut_link",
            FaultEvent::PauseReceiver { .. } => "pause_receiver",
            FaultEvent::Partition { .. } => "partition",
            FaultEvent::Duplicate { .. } => "duplicate",
            FaultEvent::LossBurst { .. } => "loss_burst",
            FaultEvent::PauseNode { .. } => "pause_node",
            FaultEvent::CrashRestart { .. } => "crash_restart",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.kind().to_string()))];
        fn num(fields: &mut Vec<(String, Json)>, k: &str, v: u64) {
            fields.push((k.to_string(), Json::Num(v)));
        }
        match self {
            FaultEvent::CutLink {
                from,
                to,
                from_us,
                to_us,
            } => {
                num(&mut fields, "from", u64::from(*from));
                num(&mut fields, "to", u64::from(*to));
                num(&mut fields, "from_us", *from_us);
                num(&mut fields, "to_us", *to_us);
            }
            FaultEvent::PauseReceiver {
                node,
                from_us,
                to_us,
            }
            | FaultEvent::PauseNode {
                node,
                from_us,
                to_us,
            } => {
                num(&mut fields, "node", u64::from(*node));
                num(&mut fields, "from_us", *from_us);
                num(&mut fields, "to_us", *to_us);
            }
            FaultEvent::Partition {
                group,
                from_us,
                to_us,
            } => {
                fields.push((
                    "group".to_string(),
                    Json::Arr(group.iter().map(|&g| Json::Num(u64::from(g))).collect()),
                ));
                num(&mut fields, "from_us", *from_us);
                num(&mut fields, "to_us", *to_us);
            }
            FaultEvent::Duplicate {
                from,
                to,
                from_us,
                to_us,
                extra,
            } => {
                num(&mut fields, "from", u64::from(*from));
                num(&mut fields, "to", u64::from(*to));
                num(&mut fields, "from_us", *from_us);
                num(&mut fields, "to_us", *to_us);
                num(&mut fields, "extra", u64::from(*extra));
            }
            FaultEvent::LossBurst { from_us, to_us } => {
                num(&mut fields, "from_us", *from_us);
                num(&mut fields, "to_us", *to_us);
            }
            FaultEvent::CrashRestart { node, at_us } => {
                num(&mut fields, "node", u64::from(*node));
                num(&mut fields, "at_us", *at_us);
            }
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("fault without `kind`")?;
        let u32_field = |k: &str| -> Result<u32, String> {
            u32::try_from(v.field_u64(k)?).map_err(|_| format!("fault field `{k}` out of range"))
        };
        Ok(match kind {
            "cut_link" => FaultEvent::CutLink {
                from: u32_field("from")?,
                to: u32_field("to")?,
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
            },
            "pause_receiver" => FaultEvent::PauseReceiver {
                node: u32_field("node")?,
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
            },
            "partition" => FaultEvent::Partition {
                group: v
                    .field_arr("group")?
                    .iter()
                    .map(|g| {
                        g.as_u64()
                            .and_then(|x| u32::try_from(x).ok())
                            .ok_or_else(|| "bad partition group entry".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
            },
            "duplicate" => FaultEvent::Duplicate {
                from: u32_field("from")?,
                to: u32_field("to")?,
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
                extra: u32_field("extra")?,
            },
            "loss_burst" => FaultEvent::LossBurst {
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
            },
            "pause_node" => FaultEvent::PauseNode {
                node: u32_field("node")?,
                from_us: v.field_u64("from_us")?,
                to_us: v.field_u64("to_us")?,
            },
            "crash_restart" => FaultEvent::CrashRestart {
                node: u32_field("node")?,
                at_us: v.field_u64("at_us")?,
            },
            other => return Err(format!("unknown fault kind `{other}`")),
        })
    }
}

/// Names of the network presets `--network` accepts, in the order the
/// nightly matrix runs them.
pub const NETWORK_PRESETS: [&str; 4] = ["uniform", "contended", "asymmetric", "wan"];

/// The network model of a scenario, in scenario-level (integer, `Eq`-safe)
/// parameters; [`crate::runner`] lowers it to an [`mc_net::NetworkModel`].
///
/// `Uniform` is the historical model: the scenario's `delay_min_us..=
/// delay_max_us` propagation band with unlimited bandwidth. The other
/// variants keep that band as the base delay and layer one realism axis on
/// top, so any divergence a preset exposes is attributable to that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkSpec {
    /// The paper's idealized network: delay band only, infinite bandwidth.
    Uniform,
    /// Finite shared links: every node's egress and ingress serialize
    /// PDUs at these rates, so concurrent traffic queues (§2.1 pressure
    /// without any loss fault).
    Contended {
        /// Sender-side rate, bytes per simulated millisecond.
        egress_bytes_per_ms: u64,
        /// Receiver-side rate, bytes per simulated millisecond.
        ingress_bytes_per_ms: u64,
    },
    /// Asymmetric per-direction links: `i → j` with `i < j` runs at the
    /// scenario's `delay_min_us`, the reverse direction at `delay_max_us ×
    /// skew_x10 / 10` — a deterministic per-pair matrix, no RNG involved.
    Asymmetric {
        /// Reverse-direction multiplier, tenths (30 = 3.0×).
        skew_x10: u64,
    },
    /// Heavy-tailed WAN delays ([`mc_net::WanDelay`]) with the scenario's
    /// `delay_min_us` as the jitter floor. Samples come from the
    /// simulator's dedicated delay stream, so loss fates and workload
    /// randomness are untouched.
    Wan {
        /// Scale of the heavy-tailed component, µs.
        median_us: u64,
        /// Maximum tail doublings.
        octaves: u32,
        /// Per-octave continuation probability, ‰.
        tail_per_mille: u32,
        /// Second-mode (bimodal) extra delay, µs.
        spike_us: u64,
        /// Second-mode probability, ‰.
        spike_per_mille: u32,
    },
}

impl NetworkSpec {
    /// A short stable tag naming the variant (used in JSON, logs and CI
    /// artifact names).
    pub fn kind(&self) -> &'static str {
        match self {
            NetworkSpec::Uniform => "uniform",
            NetworkSpec::Contended { .. } => "contended",
            NetworkSpec::Asymmetric { .. } => "asymmetric",
            NetworkSpec::Wan { .. } => "wan",
        }
    }

    /// The named preset used by `co-check --network` and the CI matrix,
    /// or `None` for an unknown name. Parameters are fixed so every CI
    /// cell is reproducible from its name alone.
    pub fn preset(name: &str) -> Option<NetworkSpec> {
        match name {
            "uniform" => Some(NetworkSpec::Uniform),
            // 2 MB/s per direction: a 64-byte PDU costs 32µs of NIC time,
            // so bursts of broadcasts visibly queue without starving the
            // 20ms workload horizon.
            "contended" => Some(NetworkSpec::Contended {
                egress_bytes_per_ms: 2_000,
                ingress_bytes_per_ms: 2_000,
            }),
            // Reverse direction 3× the scenario's max delay: the classic
            // slow-uplink shape.
            "asymmetric" => Some(NetworkSpec::Asymmetric { skew_x10: 30 }),
            // 800µs median, up to 8× tail at 30%/octave, 2% 5ms spikes.
            "wan" => Some(NetworkSpec::Wan {
                median_us: 800,
                octaves: 3,
                tail_per_mille: 300,
                spike_us: 5_000,
                spike_per_mille: 20,
            }),
            _ => None,
        }
    }

    fn to_json(self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.kind().to_string()))];
        match self {
            NetworkSpec::Uniform => {}
            NetworkSpec::Contended {
                egress_bytes_per_ms,
                ingress_bytes_per_ms,
            } => {
                fields.push((
                    "egress_bytes_per_ms".to_string(),
                    Json::Num(egress_bytes_per_ms),
                ));
                fields.push((
                    "ingress_bytes_per_ms".to_string(),
                    Json::Num(ingress_bytes_per_ms),
                ));
            }
            NetworkSpec::Asymmetric { skew_x10 } => {
                fields.push(("skew_x10".to_string(), Json::Num(skew_x10)));
            }
            NetworkSpec::Wan {
                median_us,
                octaves,
                tail_per_mille,
                spike_us,
                spike_per_mille,
            } => {
                fields.push(("median_us".to_string(), Json::Num(median_us)));
                fields.push(("octaves".to_string(), Json::Num(u64::from(octaves))));
                fields.push((
                    "tail_per_mille".to_string(),
                    Json::Num(u64::from(tail_per_mille)),
                ));
                fields.push(("spike_us".to_string(), Json::Num(spike_us)));
                fields.push((
                    "spike_per_mille".to_string(),
                    Json::Num(u64::from(spike_per_mille)),
                ));
            }
        }
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<NetworkSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("network without `kind`")?;
        let u32_field = |k: &str| -> Result<u32, String> {
            u32::try_from(v.field_u64(k)?).map_err(|_| format!("network field `{k}` out of range"))
        };
        Ok(match kind {
            "uniform" => NetworkSpec::Uniform,
            "contended" => NetworkSpec::Contended {
                egress_bytes_per_ms: v.field_u64("egress_bytes_per_ms")?,
                ingress_bytes_per_ms: v.field_u64("ingress_bytes_per_ms")?,
            },
            "asymmetric" => NetworkSpec::Asymmetric {
                skew_x10: v.field_u64("skew_x10")?,
            },
            "wan" => NetworkSpec::Wan {
                median_us: v.field_u64("median_us")?,
                octaves: u32_field("octaves")?,
                tail_per_mille: u32_field("tail_per_mille")?,
                spike_us: v.field_u64("spike_us")?,
                spike_per_mille: u32_field("spike_per_mille")?,
            },
            other => return Err(format!("unknown network kind `{other}`")),
        })
    }
}

/// A complete, self-contained description of one adversarial run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The delivery core (engine) under test — one of
    /// [`crate::runner::CORE_NAMES`] (`"co"`, `"hybrid"`, `"sender"`); see
    /// [`co_protocol::DeliveryCore`]. Omitted in reproducer JSON committed
    /// before pluggable cores existed, where it defaults to `"co"`.
    pub core: String,
    /// Cluster size (`n ≥ 2`).
    pub n: usize,
    /// Simulator RNG seed (drives delay jitter).
    pub seed: u64,
    /// Flow-condition window `W`.
    pub window: u64,
    /// Deferred-confirmation timeout, µs; `0` means immediate confirmation.
    pub deferral_us: u64,
    /// `true` = selective retransmission (the paper's scheme), `false` =
    /// go-back-n ablation.
    pub selective: bool,
    /// NIC inbox capacity, PDUs (small values + `PauseNode` exercise the
    /// §2.1 buffer-overrun loss).
    pub inbox_capacity: usize,
    /// Host processing time per received PDU, µs.
    pub proc_time_us: u64,
    /// Maximum PDUs a node drains from its inbox per processing step.
    /// Above 1, whole drains go through the engine's batched acceptance
    /// ([`co_protocol::Entity::on_pdus_into`]); `1` is the strict per-PDU
    /// path. Omitted in older reproducer JSON, where it defaults to 1.
    pub drain_batch: usize,
    /// The network model ([`NetworkSpec::Uniform`] is the historical
    /// delay-band-only network). Omitted in older reproducer JSON, where
    /// it defaults to `Uniform`.
    pub network: NetworkSpec,
    /// Propagation delay lower bound, µs.
    pub delay_min_us: u64,
    /// Propagation delay upper bound (inclusive), µs; equal to the minimum
    /// for a constant-delay network.
    pub delay_max_us: u64,
    /// Application payload size, bytes.
    pub payload: usize,
    /// The submits, in no particular order (the simulator orders them).
    pub workload: Vec<Submit>,
    /// The fault plan.
    pub faults: Vec<FaultEvent>,
    /// Inject the known delivery bug at entity index 1 (drop the first
    /// delivery record): used to validate that the oracles catch real
    /// violations and to exercise the shrinker end-to-end.
    pub break_delivery: bool,
}

impl Scenario {
    /// Generates the `index`-th random scenario of the exploration keyed by
    /// `base_seed`. Deterministic: the same `(index, base_seed)` always
    /// yields the same scenario.
    ///
    /// Every generated scenario is *recoverable by construction*: all fault
    /// windows close by [`FAULT_HORIZON_US`] and all submits happen by
    /// [`WORKLOAD_HORIZON_US`], leaving a fault-free tail in which the
    /// protocol's retry machinery must reach global stability — which the
    /// liveness oracle then asserts.
    pub fn random(index: u64, base_seed: u64, break_delivery: bool) -> Scenario {
        // Derive a per-scenario seed; splitmix-style mixing keeps nearby
        // indices uncorrelated.
        let mut x = base_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(0x94d0_49bb_1331_11eb);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        let mut rng = SmallRng::seed_from_u64(x);

        let n = rng.random_range(2..=5usize);
        let delay_min_us = rng.random_range(100..=1_000u64);
        let delay_max_us = delay_min_us + rng.random_range(0..=2_000u64);
        let submits = rng.random_range(1..=16usize);
        let workload = (0..submits)
            .map(|_| Submit {
                at_us: rng.random_range(0..=WORKLOAD_HORIZON_US),
                node: rng.random_range(0..n as u32),
            })
            .collect();
        let fault_count = rng.random_range(0..=4usize);
        let faults = (0..fault_count)
            .map(|_| Self::random_fault(&mut rng, n as u32))
            .collect();

        Scenario {
            // Pinned, never drawn: changing the engine under test is an
            // explorer-level decision (`co-check --core` rewrites it after
            // generation), and drawing it here would shift every later RNG
            // draw and invalidate the committed corpora.
            core: "co".to_string(),
            n,
            seed: rng.random_range(0..u64::MAX),
            window: rng.random_range(1..=8),
            deferral_us: *[0u64, 1_000, 2_000, 5_000]
                .get(rng.random_range(0..4usize))
                .expect("index in range"),
            selective: rng.random_bool(0.8),
            inbox_capacity: rng.random_range(8..=64usize),
            proc_time_us: rng.random_range(1..=50),
            delay_min_us,
            delay_max_us,
            payload: rng.random_range(8..=64usize),
            workload,
            faults,
            break_delivery,
            // Drawn after every pre-batching field so scenario generation
            // for a given (index, seed) keeps those identical to older
            // corpora.
            drain_batch: *[1usize, 2, 4, 8]
                .get(rng.random_range(0..4usize))
                .expect("index in range"),
            // Drawn last (struct-literal fields evaluate textually): adding
            // the network dimension shifts no earlier draw, so pre-network
            // corpora regenerate byte-identically.
            network: match rng.random_range(0..4u32) {
                0 => NetworkSpec::Uniform,
                1 => NetworkSpec::Contended {
                    egress_bytes_per_ms: rng.random_range(1_000..=4_000),
                    ingress_bytes_per_ms: rng.random_range(1_000..=4_000),
                },
                2 => NetworkSpec::Asymmetric {
                    skew_x10: rng.random_range(15..=40),
                },
                _ => NetworkSpec::Wan {
                    median_us: rng.random_range(200..=1_500),
                    octaves: rng.random_range(1..=3),
                    tail_per_mille: rng.random_range(100..=500),
                    spike_us: rng.random_range(1_000..=8_000),
                    spike_per_mille: rng.random_range(5..=50),
                },
            },
        }
    }

    fn random_fault(rng: &mut SmallRng, n: u32) -> FaultEvent {
        let from_us = rng.random_range(0..FAULT_HORIZON_US - 1_000);
        let to_us = rng.random_range(from_us + 500..=FAULT_HORIZON_US);
        let from = rng.random_range(0..n);
        let to = (from + rng.random_range(1..n)) % n;
        match rng.random_range(0..7u32) {
            0 => FaultEvent::CutLink {
                from,
                to,
                from_us,
                to_us,
            },
            1 => FaultEvent::PauseReceiver {
                node: from,
                from_us,
                to_us,
            },
            2 => {
                // A random non-empty strict subset as one side.
                let size = rng.random_range(1..n);
                let start = rng.random_range(0..n);
                let group = (0..size).map(|k| (start + k) % n).collect();
                FaultEvent::Partition {
                    group,
                    from_us,
                    to_us,
                }
            }
            3 => FaultEvent::Duplicate {
                from,
                to,
                from_us,
                to_us,
                extra: rng.random_range(1..=3),
            },
            4 => FaultEvent::LossBurst {
                from_us,
                // Keep cluster-wide blackouts short so recovery load stays
                // bounded.
                to_us: (from_us + rng.random_range(500..=3_000)).min(FAULT_HORIZON_US),
            },
            5 => FaultEvent::PauseNode {
                node: from,
                from_us,
                to_us,
            },
            _ => FaultEvent::CrashRestart {
                node: from,
                at_us: from_us,
            },
        }
    }

    /// Serializes to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("core".to_string(), Json::Str(self.core.clone())),
            ("n".to_string(), Json::Num(self.n as u64)),
            ("seed".to_string(), Json::Num(self.seed)),
            ("window".to_string(), Json::Num(self.window)),
            ("deferral_us".to_string(), Json::Num(self.deferral_us)),
            ("selective".to_string(), Json::Bool(self.selective)),
            (
                "inbox_capacity".to_string(),
                Json::Num(self.inbox_capacity as u64),
            ),
            ("proc_time_us".to_string(), Json::Num(self.proc_time_us)),
            (
                "drain_batch".to_string(),
                Json::Num(self.drain_batch as u64),
            ),
            ("network".to_string(), self.network.to_json()),
            ("delay_min_us".to_string(), Json::Num(self.delay_min_us)),
            ("delay_max_us".to_string(), Json::Num(self.delay_max_us)),
            ("payload".to_string(), Json::Num(self.payload as u64)),
            (
                "workload".to_string(),
                Json::Arr(
                    self.workload
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("at_us".to_string(), Json::Num(s.at_us)),
                                ("node".to_string(), Json::Num(u64::from(s.node))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "faults".to_string(),
                Json::Arr(self.faults.iter().map(FaultEvent::to_json).collect()),
            ),
            (
                "break_delivery".to_string(),
                Json::Bool(self.break_delivery),
            ),
        ])
    }

    /// Deserializes from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        let workload = v
            .field_arr("workload")?
            .iter()
            .map(|s| {
                Ok(Submit {
                    at_us: s.field_u64("at_us")?,
                    node: u32::try_from(s.field_u64("node")?)
                        .map_err(|_| "submit node out of range".to_string())?,
                })
            })
            .collect::<Result<_, String>>()?;
        let faults = v
            .field_arr("faults")?
            .iter()
            .map(FaultEvent::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Scenario {
            // Absent in reproducers committed before pluggable delivery
            // cores existed; those replay on the reference engine.
            core: match v.get("core") {
                None => "co".to_string(),
                Some(j) => j
                    .as_str()
                    .ok_or_else(|| "missing or non-string field `core`".to_string())?
                    .to_string(),
            },
            n: v.field_u64("n")? as usize,
            seed: v.field_u64("seed")?,
            window: v.field_u64("window")?,
            deferral_us: v.field_u64("deferral_us")?,
            selective: v.field_bool("selective")?,
            inbox_capacity: v.field_u64("inbox_capacity")? as usize,
            proc_time_us: v.field_u64("proc_time_us")?,
            // Absent in reproducers committed before batched acceptance
            // existed; those replay on the strict per-PDU path.
            drain_batch: match v.get("drain_batch") {
                None => 1,
                Some(j) => j
                    .as_u64()
                    .ok_or_else(|| "missing or non-integer field `drain_batch`".to_string())?
                    as usize,
            },
            // Absent in reproducers committed before network models
            // existed; those replay on the historical uniform network.
            network: match v.get("network") {
                None => NetworkSpec::Uniform,
                Some(j) => NetworkSpec::from_json(j)?,
            },
            delay_min_us: v.field_u64("delay_min_us")?,
            delay_max_us: v.field_u64("delay_max_us")?,
            payload: v.field_u64("payload")? as usize,
            workload,
            faults,
            break_delivery: v.field_bool("break_delivery")?,
        })
    }
}

/// A shrunken counterexample: the minimized scenario plus what it is
/// expected to violate. Committed to `tests/regressions/` and replayed
/// verbatim by `tests/check_regressions.rs` at the repo root (and by
/// co-check's own corpus test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reproducer {
    /// The minimized scenario.
    pub scenario: Scenario,
    /// Violation categories ([`crate::oracles::Category`] names) the replay
    /// must reproduce.
    pub expect: Vec<String>,
    /// Human context: where the counterexample came from.
    pub note: String,
    /// Per-node flight-recorder dumps captured from one execution of the
    /// shrunken scenario: the last protocol transitions of every entity,
    /// as JSONL lines `co-cli trace analyze` accepts. Empty when the
    /// explorer ran with `--flight-recorder 0` (and absent from the JSON
    /// then, so pre-recorder reproducers round-trip unchanged).
    pub flight_recorders: Vec<RecorderDump>,
}

fn recorder_dump_from_json(v: &Json) -> Result<RecorderDump, String> {
    let node = u32::try_from(v.field_u64("node")?)
        .map_err(|_| "recorder node out of range".to_string())?;
    let core = v
        .get("core")
        .and_then(Json::as_str)
        .ok_or("recorder without `core`")?
        .to_string();
    let network = v
        .get("network")
        .and_then(Json::as_str)
        .ok_or("recorder without `network`")?
        .to_string();
    let events = v
        .field_arr("events")?
        .iter()
        .map(|line| {
            let line = line.as_str().ok_or("non-string recorder event line")?;
            match co_observe::jsonl::parse_line_strict(line) {
                Ok(co_observe::TraceLine::Event { event, .. }) => Ok(event),
                Ok(co_observe::TraceLine::HostTco { .. }) => {
                    Err("recorder line is not a protocol event".to_string())
                }
                Err(e) => Err(format!("bad recorder event line: {e:?}")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(RecorderDump {
        node,
        core,
        network,
        capacity: v.field_u64("capacity")? as usize,
        evicted: v.field_u64("evicted")?,
        events,
    })
}

impl Reproducer {
    /// Serializes to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("note".to_string(), Json::Str(self.note.clone())),
            (
                "expect".to_string(),
                Json::Arr(self.expect.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("scenario".to_string(), self.scenario.to_json()),
        ];
        if !self.flight_recorders.is_empty() {
            fields.push((
                "flight_recorders".to_string(),
                Json::Arr(
                    self.flight_recorders
                        .iter()
                        .map(RecorderDump::to_json)
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }

    /// Deserializes from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json_text(text: &str) -> Result<Reproducer, String> {
        let v = Json::parse(text)?;
        let scenario = Scenario::from_json(v.get("scenario").ok_or("missing `scenario`")?)?;
        let expect = v
            .field_arr("expect")?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string expect entry".to_string())
            })
            .collect::<Result<_, _>>()?;
        let note = v
            .get("note")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        // Absent in reproducers committed before the flight recorder
        // existed (and in runs with retention disabled).
        let flight_recorders = match v.get("flight_recorders") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("`flight_recorders` is not an array")?
                .iter()
                .map(recorder_dump_from_json)
                .collect::<Result<_, _>>()?,
        };
        Ok(Reproducer {
            scenario,
            expect,
            note,
            flight_recorders,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scenarios_are_deterministic_per_index() {
        let a = Scenario::random(7, 42, false);
        let b = Scenario::random(7, 42, false);
        assert_eq!(a, b);
        assert_ne!(a, Scenario::random(8, 42, false));
        assert_ne!(a, Scenario::random(7, 43, false));
    }

    #[test]
    fn random_scenarios_are_well_formed() {
        for i in 0..200 {
            let sc = Scenario::random(i, 1, false);
            assert!((2..=5).contains(&sc.n), "n out of range");
            assert!(!sc.workload.is_empty());
            assert!(sc.delay_max_us >= sc.delay_min_us);
            for s in &sc.workload {
                assert!((s.node as usize) < sc.n);
                assert!(s.at_us <= WORKLOAD_HORIZON_US);
            }
            for f in &sc.faults {
                match f {
                    FaultEvent::CutLink {
                        from, to, to_us, ..
                    }
                    | FaultEvent::Duplicate {
                        from, to, to_us, ..
                    } => {
                        assert_ne!(from, to, "self-link fault");
                        assert!((*from as usize) < sc.n && (*to as usize) < sc.n);
                        assert!(*to_us <= FAULT_HORIZON_US);
                    }
                    FaultEvent::PauseReceiver { node, to_us, .. }
                    | FaultEvent::PauseNode { node, to_us, .. } => {
                        assert!((*node as usize) < sc.n);
                        assert!(*to_us <= FAULT_HORIZON_US);
                    }
                    FaultEvent::Partition { group, to_us, .. } => {
                        assert!(!group.is_empty() && group.len() < sc.n);
                        assert!(group.iter().all(|&g| (g as usize) < sc.n));
                        assert!(*to_us <= FAULT_HORIZON_US);
                    }
                    FaultEvent::LossBurst { to_us, .. } => {
                        assert!(*to_us <= FAULT_HORIZON_US);
                    }
                    FaultEvent::CrashRestart { node, at_us } => {
                        assert!((*node as usize) < sc.n);
                        assert!(*at_us <= FAULT_HORIZON_US);
                    }
                }
            }
        }
    }

    #[test]
    fn scenario_json_round_trips() {
        for i in 0..50 {
            let sc = Scenario::random(i, 3, i % 2 == 0);
            let text = sc.to_json().to_string();
            let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, sc, "index {i}");
        }
    }

    #[test]
    fn core_field_round_trips_and_defaults_to_co() {
        let mut sc = Scenario::random(1, 9, false);
        assert_eq!(sc.core, "co", "generation pins the reference engine");
        sc.core = "hybrid".to_string();
        let text = sc.to_json().to_string();
        let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, sc);

        // Reproducers committed before pluggable cores carry no `core`
        // field: they replay on the reference engine.
        let Json::Obj(fields) = Scenario::random(1, 9, false).to_json() else {
            unreachable!("scenarios serialize to objects")
        };
        let legacy = Json::Obj(fields.into_iter().filter(|(k, _)| k != "core").collect());
        assert_eq!(Scenario::from_json(&legacy).unwrap().core, "co");
    }

    #[test]
    fn network_field_round_trips_and_defaults_to_uniform() {
        // Every variant survives a JSON round trip.
        let mut sc = Scenario::random(2, 11, false);
        for network in [
            NetworkSpec::Uniform,
            NetworkSpec::Contended {
                egress_bytes_per_ms: 1_500,
                ingress_bytes_per_ms: 3_000,
            },
            NetworkSpec::Asymmetric { skew_x10: 25 },
            NetworkSpec::Wan {
                median_us: 900,
                octaves: 2,
                tail_per_mille: 250,
                spike_us: 4_000,
                spike_per_mille: 15,
            },
        ] {
            sc.network = network;
            let text = sc.to_json().to_string();
            let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, sc, "{}", network.kind());
        }

        // Reproducers committed before network models carry no `network`
        // field: they replay on the historical uniform network.
        let Json::Obj(fields) = Scenario::random(2, 11, false).to_json() else {
            unreachable!("scenarios serialize to objects")
        };
        let legacy = Json::Obj(fields.into_iter().filter(|(k, _)| k != "network").collect());
        assert_eq!(
            Scenario::from_json(&legacy).unwrap().network,
            NetworkSpec::Uniform
        );
    }

    #[test]
    fn network_presets_cover_every_kind() {
        for name in NETWORK_PRESETS {
            let spec = NetworkSpec::preset(name).expect("preset must exist");
            assert_eq!(spec.kind(), name, "preset name matches its kind tag");
        }
        assert!(NetworkSpec::preset("lan-party").is_none());
    }

    #[test]
    fn network_draw_does_not_shift_earlier_fields() {
        // The network dimension is drawn last: every pre-network field of
        // a generated scenario must be independent of it. Spot-check by
        // comparing against the scenario with network collapsed.
        for i in 0..50 {
            let sc = Scenario::random(i, 4, false);
            let mut collapsed = sc.clone();
            collapsed.network = NetworkSpec::Uniform;
            let again = Scenario::random(i, 4, false);
            assert_eq!(sc, again, "generation is deterministic");
            assert_eq!(collapsed.drain_batch, sc.drain_batch);
            assert_eq!(collapsed.workload, sc.workload);
            assert_eq!(collapsed.faults, sc.faults);
        }
        // All four kinds appear across a modest index sweep.
        let mut kinds: Vec<&str> = (0..64)
            .map(|i| {
                let sc = Scenario::random(i, 4, false);
                sc.network.kind()
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, vec!["asymmetric", "contended", "uniform", "wan"]);
    }

    #[test]
    fn reproducer_json_round_trips() {
        let rep = Reproducer {
            scenario: Scenario::random(0, 0, true),
            expect: vec!["atomicity".to_string()],
            note: "seed 0, schedule 0".to_string(),
            flight_recorders: Vec::new(),
        };
        let text = rep.to_json().to_string();
        assert_eq!(Reproducer::from_json_text(&text).unwrap(), rep);
        // No recorders ⇒ the field is absent, like pre-recorder artifacts.
        assert!(!text.contains("flight_recorders"), "{text}");
    }

    #[test]
    fn reproducer_with_recorders_round_trips() {
        use causal_order::{EntityId, Seq};
        use co_observe::{FlightRecorder, Observer, ProtocolEvent};
        let mut recorder = FlightRecorder::new(4);
        for t in 0..6u64 {
            recorder.on_event(ProtocolEvent::Delivered {
                src: EntityId::new(0),
                seq: Seq::new(t + 1),
                now_us: t * 10,
            });
        }
        let rep = Reproducer {
            scenario: Scenario::random(0, 0, true),
            expect: vec!["atomicity".to_string()],
            note: "with black box".to_string(),
            flight_recorders: vec![RecorderDump::capture(&recorder, 1, "co", "wan")],
        };
        let text = rep.to_json().to_string();
        let back = Reproducer::from_json_text(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.flight_recorders[0].events.len(), 4);
        assert_eq!(back.flight_recorders[0].evicted, 2);
        assert_eq!(back.flight_recorders[0].network, "wan");
        // The embedded lines are plain JSONL trace lines.
        for line in back.flight_recorders[0].event_lines() {
            assert!(
                co_observe::jsonl::parse_line_strict(&line).is_ok(),
                "{line}"
            );
        }
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = Scenario::from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert!(err.contains('`'), "error should name the field: {err}");
        assert!(Reproducer::from_json_text("{\"expect\": []}").is_err());
    }
}
