//! The five workloads and the seeded open-loop schedule they run.
//!
//! A workload fixes everything the product's behaviour depends on —
//! driver, delivery core, cluster size, payload size, offered rate, loss —
//! and the benchmark's seed fixes the rest: each sender's submissions fall
//! due at exponential inter-arrivals drawn from a per-sender stream of that
//! seed. Nothing in the schedule depends on the workload's *name* or core,
//! so `sim-n64-co` and `sim-n64-hybrid` consume byte-identical schedules.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Which runtime carries the PDUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `mc_net::Simulator`: one thread, simulated clock, exact counts.
    Sim,
    /// `co_transport::Cluster`: one OS thread per entity, wall clock.
    Threads,
}

/// Which delivery core orders the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Core {
    /// The paper's matrix/CPI engine (`co_protocol::CoCore`).
    Co,
    /// Hybrid buffering (`co_protocol::HybridCore`).
    Hybrid,
}

/// A product layer, named after its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `co-wire`: encode + decode.
    Wire,
    /// `co-protocol`: submit + on_pdus + on_tick, minus observer time.
    Protocol,
    /// `co-observe` + `co-trace`: the observer stack.
    Observe,
}

impl Layer {
    /// The crate name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wire => "co-wire",
            Layer::Protocol => "co-protocol",
            Layer::Observe => "co-observe",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it exists, in one line (copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Runtime.
    pub driver: Driver,
    /// Delivery core.
    pub core: Core,
    /// Cluster size.
    pub n: usize,
    /// Application payload bytes per message.
    pub payload: usize,
    /// Offered load, messages per second per sender.
    pub rate: u32,
    /// Sim only: the frozen amount of work in one repetition.
    pub msgs_per_sender: u32,
    /// Sim only: ≈ 2 % Gilbert–Elliott burst loss and a 64-PDU inbox.
    pub lossy: bool,
    /// The layer the traced run must find on top (by self time among the
    /// product layers), if the workload exists to stress one.
    pub top_layer: Option<Layer>,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether its
    /// end-to-end metrics are steady enough on a shared box to be held to
    /// regression bounds. `all` and `repeat` run the others too.
    pub guarded: bool,
}

/// Every workload, in the order `all` runs them. Sizes were frozen on the
/// 2-core builder box so one sim repetition takes 1.5–2.5 s there; see
/// README.md ("Frozen sizes").
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim-n64-co",
        why: "reference core at n=64, 64 B payloads: AL/PAL folds, PACK/ACK promotion and CPI dominate; where co_core ordering work must show",
        driver: Driver::Sim,
        core: Core::Co,
        n: 64,
        payload: 64,
        rate: 500,
        msgs_per_sender: 60,
        lossy: false,
        top_layer: Some(Layer::Protocol),
        guarded: true,
    },
    Workload {
        name: "sim-n64-hybrid",
        why: "bypass twin of sim-n64-co: byte-identical schedule, thin ordering policy; a co_core-only change predicts no change here",
        driver: Driver::Sim,
        core: Core::Hybrid,
        n: 64,
        payload: 64,
        rate: 500,
        msgs_per_sender: 60,
        lossy: false,
        top_layer: None,
        guarded: true,
    },
    Workload {
        name: "sim-n4-32k",
        why: "n=4 with 32 KiB payloads: per-PDU core work is minimal, co-wire encode/decode copies and allocation dominate",
        driver: Driver::Sim,
        core: Core::Co,
        n: 4,
        payload: 32 * 1024,
        rate: 500,
        msgs_per_sender: 9_000,
        lossy: false,
        top_layer: Some(Layer::Wire),
        guarded: true,
    },
    Workload {
        name: "sim-n8-lossy",
        why: "n=8 under ~2 % burst loss and a 64-PDU inbox: F1/F2 detection, RET service, reorder buffer and retransmission instead of the fast path",
        driver: Driver::Sim,
        core: Core::Co,
        n: 8,
        payload: 256,
        rate: 500,
        msgs_per_sender: 3_000,
        lossy: true,
        top_layer: None,
        guarded: true,
    },
    Workload {
        name: "thr-n4-64b",
        why: "the only real-runtime number: 4 OS threads, bounded channels, 500 us tick polling, real deferral timers, far below saturation",
        driver: Driver::Threads,
        core: Core::Co,
        n: 4,
        payload: 64,
        rate: 1000,
        msgs_per_sender: 0,
        lossy: false,
        top_layer: None,
        guarded: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The frozen sizes the benchmark reports.
    Full,
    /// A few hundred messages, for `cargo test` and quick checks.
    Smoke,
}

impl Workload {
    /// Messages each sender submits in one repetition. For `thr-*` the
    /// repetition is sized by its duration instead.
    pub fn msgs_for(&self, scale: Scale, rep_seconds: f64) -> u32 {
        match (self.driver, scale) {
            (Driver::Sim, Scale::Full) => self.msgs_per_sender,
            (Driver::Sim, Scale::Smoke) => (600 / self.n as u32).max(12),
            (Driver::Threads, _) => ((f64::from(self.rate) * rep_seconds) as u32).max(20),
        }
    }
}

/// Bytes of seeded random payload material every message slices from.
const POOL_BYTES: usize = 1 << 20;

/// Share of the schedule (by count) that runs untimed as warm-up.
const WARM_UP_SHARE: usize = 20;

/// The open-loop schedule of one repetition: when each sender's k-th
/// submission falls due, and what it carries.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Payload bytes per message.
    pub payload_len: usize,
    /// `due_us[sender][k]`: due time of the sender's k-th submission, µs
    /// from the start of the run. The product numbers that message
    /// `seq = k + 1`.
    pub due_us: Vec<Vec<u64>>,
    /// `payload_hash[sender][k]`: [`hash64`] of the k-th payload.
    pub payload_hash: Vec<Vec<u64>>,
    /// Messages due before this instant are warm-up: they run and are
    /// checked, but are left out of every rate and latency.
    pub warm_until_us: u64,
    pool: Bytes,
    offsets: Vec<Vec<u32>>,
}

impl Schedule {
    /// Generates the schedule for `n` senders at `rate` msg/s each.
    ///
    /// # Panics
    ///
    /// Panics if `payload_len` exceeds the payload pool or `n`, `rate` or
    /// `msgs_per_sender` is zero (workload-table bugs).
    pub fn generate(
        seed: u64,
        n: usize,
        payload_len: usize,
        rate: u32,
        msgs_per_sender: u32,
    ) -> Schedule {
        assert!(n > 0 && rate > 0 && msgs_per_sender > 0);
        assert!(payload_len < POOL_BYTES, "payload larger than the pool");
        let mut pool_rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0000_706f_6f6c);
        let mut pool = vec![0u8; POOL_BYTES];
        for word in pool.chunks_exact_mut(8) {
            word.copy_from_slice(&pool_rng.next_u64().to_le_bytes());
        }
        let mean_gap_us = 1e6 / f64::from(rate);
        let span = (POOL_BYTES - payload_len) as u32;
        let mut due_us = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        let mut payload_hash = Vec::with_capacity(n);
        for sender in 0..n as u64 {
            // One stream per sender: independent users, and a schedule
            // that does not shift when another sender's count changes.
            let mut rng =
                SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(sender));
            let mut t = 0.0f64;
            let mut due = Vec::with_capacity(msgs_per_sender as usize);
            let mut offs = Vec::with_capacity(msgs_per_sender as usize);
            let mut hashes = Vec::with_capacity(msgs_per_sender as usize);
            for _ in 0..msgs_per_sender {
                let u: f64 = rng.random();
                t += -mean_gap_us * (1.0 - u).ln();
                due.push(t as u64);
                let off = rng.random_range(0..=span);
                offs.push(off);
                hashes.push(hash64(&pool[off as usize..off as usize + payload_len]));
            }
            due_us.push(due);
            offsets.push(offs);
            payload_hash.push(hashes);
        }
        let mut all: Vec<u64> = due_us.iter().flatten().copied().collect();
        all.sort_unstable();
        let warm_until_us = all[all.len() / WARM_UP_SHARE];
        Schedule {
            payload_len,
            due_us,
            payload_hash,
            warm_until_us,
            pool: Bytes::from(pool),
            offsets,
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.due_us.len()
    }

    /// Messages in the whole schedule.
    pub fn total_msgs(&self) -> u64 {
        self.due_us.iter().map(|d| d.len() as u64).sum()
    }

    /// Messages that are not warm-up.
    pub fn timed_msgs(&self) -> u64 {
        self.due_us
            .iter()
            .flatten()
            .filter(|&&d| d >= self.warm_until_us)
            .count() as u64
    }

    /// The payload of `sender`'s k-th submission: a zero-copy view into the
    /// seeded pool, the way an application hands over a buffer it owns.
    pub fn payload(&self, sender: usize, k: usize) -> Bytes {
        let off = self.offsets[sender][k] as usize;
        self.pool.slice(off..off + self.payload_len)
    }

    /// [`hash64`] of `data`, delivered as `sender`'s k-th message. Bytes
    /// equal to what was submitted hash to the recorded value, so the
    /// common case costs one comparison against the pool instead of a
    /// hash pass — which on 32 KiB payloads would cost more than the
    /// codec being measured.
    pub fn delivered_hash(&self, sender: usize, k: usize, data: &[u8]) -> u64 {
        match self.offsets.get(sender).and_then(|o| o.get(k)) {
            Some(&off) if data == &self.pool[off as usize..off as usize + self.payload_len] => {
                self.payload_hash[sender][k]
            }
            _ => hash64(data),
        }
    }

    /// Every submission as `(due_us, sender, k)`, in due order.
    pub fn merged(&self) -> Vec<(u64, u32, u32)> {
        let mut all: Vec<(u64, u32, u32)> = self
            .due_us
            .iter()
            .enumerate()
            .flat_map(|(s, due)| {
                due.iter()
                    .enumerate()
                    .map(move |(k, &d)| (d, s as u32, k as u32))
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// Order-sensitive digest of every due time and payload byte: equal
    /// digests mean byte-identical schedules.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (sender, due) in self.due_us.iter().enumerate() {
            for (k, &d) in due.iter().enumerate() {
                h = mix(h ^ d);
                h = mix(h ^ self.payload_hash[sender][k]);
            }
        }
        h
    }
}

/// One round of a 64-bit finalizer (splitmix64's).
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Word-at-a-time payload hash (one multiply-rotate per 8 bytes, so
/// hashing an 8 KiB delivery stays far below the cost of copying it).
pub fn hash64(data: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = Schedule::generate(1, 4, 64, 500, 50);
        let b = Schedule::generate(1, 4, 64, 500, 50);
        let c = Schedule::generate(2, 4, 64, 500, 50);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.payload(2, 7), b.payload(2, 7));
        assert_eq!(hash64(&a.payload(2, 7)), a.payload_hash[2][7]);
        // The shortcut agrees with the hash, intact or corrupted.
        let mut bytes = a.payload(2, 7).to_vec();
        assert_eq!(a.delivered_hash(2, 7, &bytes), a.payload_hash[2][7]);
        bytes[40] ^= 1;
        assert_eq!(a.delivered_hash(2, 7, &bytes), hash64(&bytes));
        assert_ne!(a.delivered_hash(2, 7, &bytes), a.payload_hash[2][7]);
        assert_eq!(a.delivered_hash(9, 0, b"x"), hash64(b"x"));
    }

    #[test]
    fn inter_arrivals_match_the_rate_and_warm_up_is_a_twentieth() {
        let s = Schedule::generate(3, 2, 16, 1000, 20_000);
        for due in &s.due_us {
            assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
            let mean_gap = *due.last().unwrap() as f64 / due.len() as f64;
            assert!((950.0..1050.0).contains(&mean_gap), "mean gap {mean_gap}");
        }
        let timed = s.timed_msgs() as f64 / s.total_msgs() as f64;
        assert!((0.94..0.96).contains(&timed), "timed share {timed}");
    }

    #[test]
    fn the_n64_pair_shares_every_schedule_parameter() {
        let co = find("sim-n64-co").unwrap();
        let hy = find("sim-n64-hybrid").unwrap();
        assert_eq!(
            (co.n, co.payload, co.rate, co.msgs_per_sender, co.lossy),
            (hy.n, hy.payload, hy.rate, hy.msgs_per_sender, hy.lossy)
        );
        assert_ne!(co.core, hy.core);
    }
}
