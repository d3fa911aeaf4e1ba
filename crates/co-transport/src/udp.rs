//! UDP ingress: the closest runnable analogue of the paper's testbed is
//! PDUs as real datagrams. UDP gives the MC service's semantics on a LAN —
//! per-path FIFO holds on loopback but not in general, datagrams are
//! dropped when buffers overrun, nothing is guaranteed — all recovered by
//! the protocol itself. Sending is `Link::Udp` in the node loop; this is
//! the other direction.

use bytes::Bytes;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::node::Inbox;

/// Upper bound on how long a reader outlives its node when the wake-up
/// datagram cannot be sent.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A thread that moves datagrams from a socket into a node's bounded
/// inbox, so the node loop waits on one kind of thing whatever the link.
/// Dropping the handle stops and joins the thread.
#[derive(Debug)]
pub(crate) struct UdpReader {
    stop: Arc<AtomicBool>,
    socket: UdpSocket,
    thread: Option<JoinHandle<()>>,
}

impl UdpReader {
    pub(crate) fn spawn(socket: &UdpSocket, inbox: Inbox, name: String) -> std::io::Result<Self> {
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        let stop = Arc::new(AtomicBool::new(false));
        let (reading, waking) = (socket.try_clone()?, socket.try_clone()?);
        let stopped = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name(name).spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            while !stopped.load(Ordering::Relaxed) {
                // Timeouts and transient socket errors (an ICMP
                // port-unreachable surfacing here, say) are not datagrams.
                if let Ok((len, _)) = reading.recv_from(&mut buf) {
                    inbox.push(Bytes::copy_from_slice(&buf[..len]));
                }
            }
        })?;
        Ok(UdpReader {
            stop,
            socket: waking,
            thread: Some(thread),
        })
    }
}

impl Drop for UdpReader {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // An empty datagram to ourselves ends the blocking read at once.
        if let Ok(addr) = self.socket.local_addr() {
            let _ = self.socket.send_to(&[], addr);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
