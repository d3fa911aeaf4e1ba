//! The per-entity worker thread.

use bytes::{BufMut, Bytes, BytesMut};
use causal_order::EntityId;
use co_observe::{EventLog, FlightRecorder, LatencyTracker, RecorderDump, Tee, TraceLine};
use co_protocol::{Action, DeliveryCore, Entity, Pdu};
use co_trace::LiveDetector;
use crossbeam::channel::{Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::report::NodeReport;

/// The observer every cluster entity runs with: latency histograms always
/// (cheap, bounded state), a flight-recorder ring of the most recent
/// events plus the node-scope anomaly detectors (both bounded: the ring by
/// its depth, the detectors by the PDUs the entity itself holds), and a
/// full event log only when tracing is on.
pub(crate) type NodeObserver =
    Tee<LatencyTracker, Tee<Option<EventLog>, Tee<FlightRecorder, LiveDetector>>>;

/// A node that cannot quiesce after a shutdown request (a partitioned
/// peer, say) exits anyway once idle for this many drain-idle windows.
const HARD_EXIT_IDLE_WINDOWS: u32 = 20;

/// The `network` label stamped on threaded-cluster recorder dumps: this
/// transport runs on real channels, not an `mc-net` preset.
pub(crate) const NETWORK_LABEL: &str = "threaded";

/// Control-plane commands to a node thread.
#[derive(Debug)]
pub(crate) enum Cmd {
    /// Broadcast this payload (already timestamp-framed by the cluster).
    Submit(Bytes),
    /// Finish outstanding work, then report and exit.
    Shutdown,
}

pub(crate) struct NodeRuntime<C: DeliveryCore> {
    pub entity: Entity<C, NodeObserver>,
    pub me: EntityId,
    /// Whether to record host-Tco trace lines and keep the event log.
    pub trace: bool,
    /// Encoded-PDU channels to every peer (index = entity index; own slot
    /// unused).
    pub peers: Vec<Option<Sender<Bytes>>>,
    /// Each peer's overrun counter, bumped when its channel is full.
    pub peer_overruns: Vec<Option<Arc<AtomicU64>>>,
    pub pdu_rx: Receiver<Bytes>,
    pub cmd_rx: Receiver<Cmd>,
    /// Incremented by *senders* when this node's inbound channel was full.
    pub overruns: Arc<AtomicU64>,
    pub epoch: Instant,
    pub tick_interval: Duration,
    /// Artificial extra per-PDU processing cost (to provoke overruns).
    pub proc_delay: Duration,
    /// Artificial per-copy egress serialization cost (zero = none); the
    /// real-time analogue of `mc-net`'s shared-bandwidth model.
    pub egress_pace: Duration,
    /// How long the node keeps draining after a shutdown request.
    pub drain_idle: Duration,
    /// Maximum PDUs accepted per inbox drain (≥ 1). Everything already
    /// queued when the thread wakes is decoded with one warm pool and fed
    /// to the engine as one batch, so PACK/ACK bookkeeping and the
    /// confirmation `AckOnly` are paid once per drain instead of once per
    /// PDU.
    pub drain_batch: usize,
    /// Warm ack-vector pool for batched decode.
    pub ack_pool: co_wire::AckBufPool,
    /// Reused frame buffer for the inbox drain.
    pub frame_scratch: Vec<Bytes>,
    /// Reused decoded-PDU buffer for the inbox drain.
    pub pdu_scratch: Vec<Pdu>,
}

/// Frames `payload` with the submit timestamp (µs since epoch) so the
/// delivering node can compute Tap.
pub(crate) fn frame_payload(epoch: Instant, payload: &[u8]) -> Bytes {
    let mut framed = BytesMut::with_capacity(8 + payload.len());
    framed.put_u64(epoch.elapsed().as_micros() as u64);
    framed.put_slice(payload);
    framed.freeze()
}

/// Splits a framed payload back into (submit-µs, payload).
pub(crate) fn unframe_payload(data: &Bytes) -> Option<(u64, Bytes)> {
    if data.len() < 8 {
        return None;
    }
    let mut ts = [0u8; 8];
    ts.copy_from_slice(&data[..8]);
    Some((u64::from_be_bytes(ts), data.slice(8..)))
}

impl<C: DeliveryCore> NodeRuntime<C> {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn dispatch(&mut self, actions: Vec<Action>, report: &mut NodeReport) {
        for action in actions {
            match action {
                Action::Broadcast(pdu) => {
                    let encoded = pdu.encode();
                    let mut copies = 0u32;
                    for (i, peer) in self.peers.iter().enumerate() {
                        let Some(tx) = peer else { continue };
                        debug_assert_ne!(i, self.me.index());
                        copies += 1;
                        match tx.try_send(encoded.clone()) {
                            Ok(()) => {}
                            Err(TrySendError::Full(_)) => {
                                // Receiver's NIC buffer overran: the PDU is
                                // lost, exactly like the paper's MC
                                // service. The protocol will recover it.
                                if let Some(counter) = &self.peer_overruns[i] {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    }
                    if !self.egress_pace.is_zero() && copies > 0 {
                        // Busy-wait out the NIC serialization time of every
                        // copy just sent — the shared-egress-link model
                        // (`mc-net`'s `BandwidthModel::Shared`) in real
                        // time: a broadcast burst drains at link rate, not
                        // instantaneously.
                        let budget = self.egress_pace * copies;
                        let started = Instant::now();
                        while started.elapsed() < budget {
                            std::hint::spin_loop();
                        }
                    }
                }
                Action::Deliver(d) => {
                    let now = self.now_us();
                    if let Some((sent_us, payload)) = unframe_payload(&d.data) {
                        if d.src != self.me {
                            report
                                .tap_samples
                                .push(Duration::from_micros(now.saturating_sub(sent_us)));
                        }
                        report.delivered.push((d.src, d.seq.get(), payload));
                    } else {
                        report.delivered.push((d.src, d.seq.get(), d.data));
                    }
                }
                // `Action` is #[non_exhaustive].
                _ => {}
            }
        }
    }

    /// Processes one inbox drain: `first` plus everything already queued
    /// on the channel, up to the configured batch cap, through the
    /// engine's batched acceptance. One warm decode pool and one
    /// confirmation epilogue cover the whole batch.
    fn handle_batch(&mut self, first: Bytes, report: &mut NodeReport) {
        let started = Instant::now();
        let mut frames = std::mem::take(&mut self.frame_scratch);
        frames.clear();
        frames.push(first);
        while frames.len() < self.drain_batch.max(1) {
            match self.pdu_rx.try_recv() {
                Ok(raw) => frames.push(raw),
                Err(_) => break,
            }
        }
        if !self.proc_delay.is_zero() {
            // Busy-wait to emulate a host slower than the network (§2.1):
            // the emulated cost is per PDU, so a batch spins once per
            // frame drained.
            let budget = self.proc_delay * frames.len() as u32;
            while started.elapsed() < budget {
                std::hint::spin_loop();
            }
        }
        let mut pdus = std::mem::take(&mut self.pdu_scratch);
        pdus.clear();
        // Corrupt frames drop, like a bad checksum.
        Pdu::decode_batch_into(frames.iter().map(|b| &b[..]), &mut self.ack_pool, &mut pdus);
        let drained = frames.len();
        frames.clear();
        self.frame_scratch = frames;
        let now = self.now_us();
        let mut actions = Vec::new();
        // Mis-addressed PDUs drop inside the batch without poisoning it.
        self.entity.on_pdus_into(pdus.drain(..), now, &mut actions);
        self.pdu_scratch = pdus;
        self.dispatch(actions, report);
        let dur = started.elapsed();
        // Tco stays a *per-PDU* cost distribution (the paper's per-PDU
        // host cost, and what the offline trace analysis reconstructs):
        // attribute the batch duration evenly across the frames it
        // covered, one sample — and, when tracing, one HostTco record —
        // per frame.
        let per_frame = dur / drained as u32;
        for _ in 0..drained {
            report.tco_samples.push(per_frame);
            if self.trace {
                // Tco is a host measurement (CPU time inside the engine);
                // it cannot be reconstructed from event timestamps, so it
                // gets its own trace record.
                report.trace.push(TraceLine::HostTco {
                    node: self.me.raw(),
                    at_us: now,
                    dur_us: per_frame.as_micros() as u64,
                });
            }
        }
    }

    pub(crate) fn run(mut self) -> NodeReport {
        let mut report = NodeReport {
            id: self.me,
            delivered: Vec::new(),
            tco_samples: Vec::new(),
            tap_samples: Vec::new(),
            overrun_drops: 0,
            metrics: co_protocol::Metrics::default(),
            latency: LatencyTracker::default(),
            trace: Vec::new(),
            span_report: None,
            flight_recorder: RecorderDump::capture(
                &FlightRecorder::default(),
                self.me.raw(),
                C::NAME,
                NETWORK_LABEL,
            ),
            live_findings: Vec::new(),
            panicked: None,
        };
        // The event loop runs under a panic guard so the finalizer below
        // always executes: a crashed node still surrenders its black box
        // (flight recorder, live findings, partial measurements) instead
        // of taking them down with the thread.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drive(&mut report)));
        report.overrun_drops = self.overruns.load(Ordering::Relaxed);
        report.metrics = *self.entity.metrics();
        let node = self.me.raw();
        let Tee(latency, Tee(log, Tee(recorder, live))) = self.entity.into_observer();
        report.latency = latency;
        report.flight_recorder = RecorderDump::capture(&recorder, node, C::NAME, NETWORK_LABEL);
        report.live_findings = live.findings();
        if let Some(log) = log {
            report.trace.extend(
                log.into_events()
                    .into_iter()
                    .map(|event| TraceLine::Event { node, event }),
            );
            // Events were appended after the HostTco lines; restore time
            // order (stable within equal timestamps).
            report.trace.sort_by_key(TraceLine::t_us);
        }
        if let Err(payload) = outcome {
            report.panicked = Some(panic_message(payload.as_ref()));
        }
        report
    }

    fn drive(&mut self, report: &mut NodeReport) {
        let mut shutting_down = false;
        let mut last_activity = Instant::now();
        loop {
            // Ticks keep deferred confirmations and RET retries moving.
            crossbeam::channel::select! {
                recv(self.pdu_rx) -> raw => {
                    if let Ok(raw) = raw {
                        self.handle_batch(raw, report);
                        last_activity = Instant::now();
                    }
                }
                recv(self.cmd_rx) -> cmd => {
                    match cmd {
                        Ok(Cmd::Submit(framed)) => {
                            let now = self.now_us();
                            match self.entity.submit(framed, now) {
                                Ok((_outcome, actions)) => self.dispatch(actions, report),
                                Err(_) => { /* oversized: reported via metrics */ }
                            }
                            last_activity = Instant::now();
                        }
                        Ok(Cmd::Shutdown) | Err(_) => {
                            shutting_down = true;
                        }
                    }
                }
                default(self.tick_interval) => {
                    let now = self.now_us();
                    let actions = self.entity.on_tick(now);
                    if !actions.is_empty() {
                        last_activity = Instant::now();
                    }
                    self.dispatch(actions, report);
                }
            }
            if shutting_down
                && self.entity.is_quiescent()
                && last_activity.elapsed() >= self.drain_idle
            {
                break;
            }
            if shutting_down && last_activity.elapsed() >= self.drain_idle * HARD_EXIT_IDLE_WINDOWS
            {
                // Hard exit: something (e.g. a partitioned peer) prevents
                // quiescence; report what we have.
                break;
            }
        }
    }
}

/// Best-effort rendering of a panic payload (the common `&str` / `String`
/// shapes; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let epoch = Instant::now();
        let framed = frame_payload(epoch, b"payload");
        let (ts, payload) = unframe_payload(&framed).unwrap();
        assert_eq!(&payload[..], b"payload");
        assert!(ts < 1_000_000, "timestamp is fresh");
    }

    #[test]
    fn unframe_rejects_short_buffers() {
        assert!(unframe_payload(&Bytes::from_static(b"short")).is_none());
    }

    #[test]
    fn frame_empty_payload() {
        let framed = frame_payload(Instant::now(), b"");
        let (_, payload) = unframe_payload(&framed).unwrap();
        assert!(payload.is_empty());
    }
}
