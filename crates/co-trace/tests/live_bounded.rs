//! Boundedness guard for the node-scope detector.
//!
//! A counting global allocator tracks the bytes the process holds, and how
//! often it allocates, while a [`LiveDetector`] at node 63 of a 64-node
//! cluster watches broadcasts complete. A PDU's record is dropped at the
//! node's own `delivered`, so what the detector holds after 10 000
//! completed broadcasts must be what it held after the first 1 000 — its
//! state follows the PDUs in flight, not the length of the run — and the
//! records live in one table, so completing a broadcast allocates nothing.
//!
//! This file holds a single test on purpose: the global allocator is
//! per-binary, and a lone test keeps the byte count free of concurrent
//! test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use causal_order::{EntityId, Seq};
use co_observe::{Observer, ProtocolEvent};
use co_trace::{AnomalyConfig, LiveDetector};

struct CountingAlloc;

static RESIDENT: AtomicI64 = AtomicI64::new(0);
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
// `GlobalAlloc` contract; the counters are only statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        RESIDENT.fetch_add(layout.size() as i64, Ordering::Relaxed);
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        RESIDENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIDENT.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
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

/// Round `k`: every source's broadcast `k` is accepted and pre-acked here,
/// and broadcast `k - IN_FLIGHT` is delivered.
fn round(live: &mut LiveDetector, k: u64) {
    let now_us = k * 100;
    for src in 0..N {
        let (src, seq) = (EntityId::new(src as u32), Seq::new(k));
        live.on_event(if src.raw() == ME {
            ProtocolEvent::DataSent { src, seq, now_us }
        } else {
            ProtocolEvent::Accepted {
                src,
                seq,
                from_reorder: false,
                now_us,
            }
        });
        live.on_event(ProtocolEvent::PreAcked { src, seq, now_us });
        if k > IN_FLIGHT {
            live.on_event(ProtocolEvent::Delivered {
                src,
                seq: Seq::new(k - IN_FLIGHT),
                now_us,
            });
        }
    }
}

#[test]
fn resident_bytes_do_not_grow_with_completed_broadcasts() {
    let mut live = LiveDetector::new(ME, AnomalyConfig::default());
    let rounds = |live: &mut LiveDetector, from: u64, to: u64| {
        COUNTED_THREAD.set(true);
        for k in from..=to {
            round(live, k);
        }
        COUNTED_THREAD.set(false);
        (
            RESIDENT.load(Ordering::Relaxed),
            ALLOCATIONS.load(Ordering::Relaxed),
        )
    };
    // 100 broadcasts (then 1 000, then 10 000) counted per source; all 64
    // sources send in every round. The sequence of events and the hasher
    // are fixed, so the table's one late resize always lands in the same
    // round (120: deletions leave tombstones, and a table more than half
    // full grows once instead of rehashing in place; from then on it
    // rehashes in place). The byte baseline is therefore taken at round
    // 1 000, with the table at its final size.
    let (_, allocations_100) = rounds(&mut live, 1, 100);
    let (after_1_000, allocations_1_000) = rounds(&mut live, 101, 1_000);
    let (after_10_000, allocations_10_000) = rounds(&mut live, 1_001, 10_000);
    assert_eq!(
        live.held() as u64,
        N * IN_FLIGHT,
        "exactly the undelivered PDUs are held"
    );
    // 9 900 rounds × 64 sources completed; a span per PDU would be one
    // allocation each.
    let late = allocations_10_000 - allocations_100;
    assert!(
        late <= 2,
        "{late} allocations while 633 600 broadcasts completed: \
         at most one late table resize is expected"
    );
    assert_eq!(
        allocations_10_000, allocations_1_000,
        "nothing allocates once the table has reached its final size"
    );
    // The same 512 records sit in the same table; a record kept per
    // completed broadcast would be a tenfold growth.
    assert!(
        after_10_000 <= after_1_000 + after_1_000 / 4,
        "resident bytes follow the PDUs in flight, not the run length: \
         {after_1_000} B after 1 000 broadcasts per source, {after_10_000} B after 10 000"
    );
    assert!(live.findings().is_empty(), "a healthy stream");
}
