//! Allocation guard for [`LatencyTracker`], which sits in every production
//! observer stack.
//!
//! A counting global allocator watches a tracker at node 63 of a 64-node
//! cluster while broadcasts complete: its per-PDU timestamps live in one
//! table, so once that table has reached the size of what is in flight,
//! completing a broadcast allocates nothing — and once everything is
//! delivered the table is empty.
//!
//! This file holds a single test on purpose: the global allocator is
//! per-binary, and a lone test keeps the count free of concurrent test
//! threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use causal_order::{EntityId, Seq};
use co_observe::{LatencyTracker, Observer, ProtocolEvent};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the test, on its own thread, around the counted rounds:
    /// libtest's bookkeeping on the main thread runs concurrently and must
    /// not be counted.
    static COUNTED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_allocation() {
    if COUNTED_THREAD.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: u64 = 64;
const ME: u32 = 63;
/// Broadcasts in flight at once: accepted and pre-acked, not yet delivered.
const IN_FLIGHT: u64 = 8;

fn deliver(tracker: &mut LatencyTracker, src: EntityId, k: u64, now_us: u64) {
    let seq = Seq::new(k);
    tracker.on_event(ProtocolEvent::Delivered { src, seq, now_us });
}

/// Round `k`: every source's broadcast `k` is accepted (the node's own:
/// submitted and sent) and pre-acked here, and broadcast `k - IN_FLIGHT`
/// is delivered.
fn round(tracker: &mut LatencyTracker, k: u64) {
    let now_us = k * 100;
    for src in 0..N {
        let (src, seq) = (EntityId::new(src as u32), Seq::new(k));
        if src.raw() == ME {
            tracker.on_event(ProtocolEvent::Submitted { now_us });
            tracker.on_event(ProtocolEvent::DataSent { src, seq, now_us });
        } else {
            tracker.on_event(ProtocolEvent::Accepted {
                src,
                seq,
                from_reorder: false,
                now_us,
            });
        }
        tracker.on_event(ProtocolEvent::PreAcked { src, seq, now_us });
        if k > IN_FLIGHT {
            deliver(tracker, src, k - IN_FLIGHT, now_us);
        }
    }
}

#[test]
fn completed_broadcasts_allocate_nothing() {
    let mut tracker = LatencyTracker::default();
    for k in 1..=100 {
        round(&mut tracker, k);
    }
    COUNTED_THREAD.set(true);
    for k in 101..=10_000 {
        round(&mut tracker, k);
    }
    COUNTED_THREAD.set(false);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    // 9 900 rounds × 64 sources.
    assert!(
        allocations <= 2,
        "{allocations} allocations while 633 600 broadcasts completed: \
         at most one late table resize is expected"
    );
    assert_eq!(tracker.in_flight() as u64, N * IN_FLIGHT);
    assert_eq!(
        tracker.accept_to_deliver().count(),
        N * (10_000 - IN_FLIGHT)
    );
    assert_eq!(tracker.submit_to_accept().count(), 10_000);

    for k in 10_000 - IN_FLIGHT + 1..=10_000 {
        for src in 0..N {
            deliver(&mut tracker, EntityId::new(src as u32), k, 1_000_100);
        }
    }
    assert_eq!(tracker.in_flight(), 0, "every PDU was delivered");
}
