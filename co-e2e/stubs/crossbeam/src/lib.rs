//! Offline stand-in for `crossbeam`, covering the surface `co-transport`
//! uses: [`channel::bounded`] / [`channel::unbounded`] multi-producer
//! channels with non-blocking `try_send` / `try_recv`, a blocking `send`,
//! and [`channel::select!`] over two receivers with a `default(timeout)`
//! arm.
//!
//! The published crate's channels are lock-free; these are a
//! `Mutex<VecDeque>` with condition variables. A receiver parked in
//! `select!` sleeps on one per-thread signal registered with both channels,
//! so a send wakes it directly (no polling), which is the property the
//! threaded benchmark's latency depends on.

#![forbid(unsafe_code)]

/// Multi-producer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    pub use crate::__crossbeam_select as select;

    /// The message could not be sent because the channel is disconnected.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why [`Sender::try_send`] failed; the message comes back.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why [`Receiver::try_recv`] returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// A parked `select!` caller: one flag the channels it waits on set.
    #[derive(Default)]
    struct Signal {
        fired: Mutex<bool>,
        cv: Condvar,
    }

    impl Signal {
        fn fire(&self) {
            *lock(&self.fired) = true;
            self.cv.notify_one();
        }

        fn reset(&self) {
            *lock(&self.fired) = false;
        }

        fn wait_until(&self, deadline: Instant) {
            let mut fired = lock(&self.fired);
            while !*fired {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return;
                };
                if left.is_zero() {
                    return;
                }
                fired = self
                    .cv
                    .wait_timeout(fired, left)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    }

    thread_local! {
        static SIGNAL: Arc<Signal> = Arc::new(Signal::default());
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
        /// Signals of `select!` callers parked on this channel.
        watchers: Vec<Arc<Signal>>,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        /// Senders blocked on a full bounded channel.
        space: Condvar,
    }

    /// A poisoned lock only means another thread panicked mid-operation;
    /// every update here leaves the queue valid at each step, so recover
    /// the guard (the published crate has no poisoning at all).
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    impl<T> Chan<T> {
        fn wake_watchers(state: &State<T>) {
            for w in &state.watchers {
                w.fire();
            }
        }
    }

    /// The sending half; clone it for more producers.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap.unwrap_or(0).min(4096)),
                senders: 1,
                receiver_alive: true,
                watchers: Vec::new(),
            }),
            cap,
            space: Condvar::new(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    /// A channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap))
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        /// Queues `msg` if there is room, without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = lock(&self.chan.state);
            if !state.receiver_alive {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.chan.cap.is_some_and(|cap| state.queue.len() >= cap) {
                return Err(TrySendError::Full(msg));
            }
            state.queue.push_back(msg);
            Chan::wake_watchers(&state);
            Ok(())
        }

        /// Queues `msg`, blocking while a bounded channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = lock(&self.chan.state);
            loop {
                if !state.receiver_alive {
                    return Err(SendError(msg));
                }
                if self.chan.cap.is_none_or(|cap| state.queue.len() < cap) {
                    break;
                }
                state = self
                    .chan
                    .space
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state.queue.push_back(msg);
            Chan::wake_watchers(&state);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            lock(&self.chan.state).senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = lock(&self.chan.state);
            state.senders -= 1;
            if state.senders == 0 {
                // Disconnection makes the channel ready (with an error).
                Chan::wake_watchers(&state);
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Takes the next message if one is queued, without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = lock(&self.chan.state);
            match state.queue.pop_front() {
                Some(msg) => {
                    if self.chan.cap.is_some() {
                        self.chan.space.notify_one();
                    }
                    Ok(msg)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// `select!` readiness: a message, or disconnection, or nothing.
        fn poll(&self) -> Option<Result<T, RecvError>> {
            match self.try_recv() {
                Ok(msg) => Some(Ok(msg)),
                Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
                Err(TryRecvError::Empty) => None,
            }
        }

        /// Registers `signal`; returns whether the channel is already
        /// ready, checked under the same lock so no send is missed.
        fn watch(&self, signal: &Arc<Signal>) -> bool {
            let mut state = lock(&self.chan.state);
            state.watchers.push(signal.clone());
            !state.queue.is_empty() || state.senders == 0
        }

        fn unwatch(&self, signal: &Arc<Signal>) {
            lock(&self.chan.state)
                .watchers
                .retain(|w| !Arc::ptr_eq(w, signal));
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = lock(&self.chan.state);
            state.receiver_alive = false;
            state.queue.clear();
            self.chan.space.notify_all();
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Outcome of a two-receiver [`select!`] with a `default(timeout)` arm.
    #[doc(hidden)]
    pub enum Selected2<A, B> {
        First(Result<A, RecvError>),
        Second(Result<B, RecvError>),
        Timeout,
    }

    /// Blocks until `a` or `b` is ready (has a message or is disconnected)
    /// or `timeout` elapses. When both are ready the arm tried first
    /// alternates per call, so neither channel can starve the other (the
    /// published crate picks at random for the same reason).
    #[doc(hidden)]
    pub fn select2_timeout<A, B>(
        a: &Receiver<A>,
        b: &Receiver<B>,
        timeout: Duration,
    ) -> Selected2<A, B> {
        thread_local! {
            static FLIP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        let b_first = FLIP.with(|f| f.replace(!f.get()));
        let poll = || {
            if b_first {
                if let Some(r) = b.poll() {
                    return Some(Selected2::Second(r));
                }
            }
            if let Some(r) = a.poll() {
                return Some(Selected2::First(r));
            }
            if !b_first {
                if let Some(r) = b.poll() {
                    return Some(Selected2::Second(r));
                }
            }
            None
        };
        if let Some(sel) = poll() {
            return sel;
        }
        let deadline = Instant::now() + timeout;
        let signal = SIGNAL.with(Arc::clone);
        loop {
            signal.reset();
            let ready_a = a.watch(&signal);
            let ready_b = b.watch(&signal);
            if !(ready_a || ready_b) {
                signal.wait_until(deadline);
            }
            a.unwatch(&signal);
            b.unwatch(&signal);
            if let Some(sel) = poll() {
                return sel;
            }
            if Instant::now() >= deadline {
                return Selected2::Timeout;
            }
        }
    }
}

/// `select!` for exactly the shape `co-transport` uses: two `recv` arms
/// and a `default(timeout)` arm, each with a block body.
#[doc(hidden)]
#[macro_export]
macro_rules! __crossbeam_select {
    (
        recv($r1:expr) -> $p1:pat => $b1:block
        recv($r2:expr) -> $p2:pat => $b2:block
        default($timeout:expr) => $b3:block
    ) => {{
        let __selected = $crate::channel::select2_timeout(&$r1, &$r2, $timeout);
        match __selected {
            $crate::channel::Selected2::First($p1) => $b1
            $crate::channel::Selected2::Second($p2) => $b2
            $crate::channel::Selected2::Timeout => $b3
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::{Duration, Instant};

    #[test]
    fn bounded_try_send_reports_full_then_drains_in_order() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn select_wakes_on_send_and_times_out_when_idle() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (_tx_b, rx_b) = unbounded::<u32>();
        let start = Instant::now();
        let hit = select! {
            recv(rx_a) -> _m => { 1 }
            recv(rx_b) -> _m => { 2 }
            default(Duration::from_millis(20)) => { 0 }
        };
        assert_eq!(hit, 0);
        assert!(start.elapsed() >= Duration::from_millis(20));

        // The sender signals through a barrier-free handshake: the
        // receiver is parked (or about to park) with a far deadline, and
        // must return the message, not the timeout.
        let sender = std::thread::spawn(move || {
            tx_a.send(7).unwrap();
        });
        let got = select! {
            recv(rx_a) -> m => { m.ok() }
            recv(rx_b) -> _m => { None }
            default(Duration::from_secs(30)) => { None }
        };
        assert_eq!(got, Some(7));
        sender.join().unwrap();
    }

    #[test]
    fn disconnected_receiver_is_ready_with_error() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (_tx_b, rx_b) = unbounded::<u32>();
        drop(tx_a);
        let disconnected = select! {
            recv(rx_a) -> m => { m.is_err() }
            recv(rx_b) -> _m => { false }
            default(Duration::from_secs(30)) => { false }
        };
        assert!(disconnected);
    }
}
