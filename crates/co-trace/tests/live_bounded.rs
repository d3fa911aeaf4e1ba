//! Boundedness guard for the node-scope detector.
//!
//! A counting global allocator tracks the bytes the process holds while a
//! [`LiveDetector`] at node 63 of a 64-node cluster watches broadcasts
//! complete. A PDU's record is dropped at the node's own `delivered`, so
//! what the detector holds after 10 000 completed broadcasts must be what
//! it held after the first 100 (give or take how full its B-tree nodes
//! happen to be) — its state follows the PDUs in flight, not the length
//! of the run.
//!
//! This file holds a single test on purpose: the global allocator is
//! per-binary, and a lone test keeps the byte count free of concurrent
//! test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use causal_order::{EntityId, Seq};
use co_observe::{Observer, ProtocolEvent};
use co_trace::{AnomalyConfig, LiveDetector};

struct CountingAlloc;

static RESIDENT: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        RESIDENT.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        RESIDENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        RESIDENT.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
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
        for k in from..=to {
            round(live, k);
        }
        RESIDENT.load(Ordering::Relaxed)
    };
    // 100 broadcasts (and then 10 000) counted per source; all 64 sources
    // send in every round.
    let after_100 = rounds(&mut live, 1, 100);
    let after_10_000 = rounds(&mut live, 101, 10_000);
    assert_eq!(
        live.detectors().spans().spans.len() as u64,
        N * IN_FLIGHT,
        "exactly the undelivered PDUs are held"
    );
    // The same 512 records sit in B-tree nodes whose occupancy depends on
    // insertion history, hence the slack; a record kept per completed
    // broadcast would be a hundredfold growth.
    assert!(
        after_10_000 <= after_100 + after_100 / 4,
        "resident bytes follow the PDUs in flight, not the run length: \
         {after_100} B after 100 broadcasts per source, {after_10_000} B after 10 000"
    );
    assert!(live.findings().is_empty(), "a healthy stream");
}
