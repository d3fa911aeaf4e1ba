//! Property-based tests: every structurally valid PDU survives an
//! encode/decode roundtrip, no byte mutation can cause a panic, and the
//! pooled decode path ([`Pdu::decode_with`]) never bleeds `AckBufPool`
//! capacity — not on success (recycle restores every vector) and not on
//! any error path (truncation, mutation, trailing bytes).

use bytes::Bytes;
use causal_order::{EntityId, Seq};
use co_wire::{AckBufPool, AckOnlyPdu, DataPdu, Pdu, RetPdu};
use proptest::prelude::*;

/// How many pooled ack vectors a decoded PDU holds (and `recycle` returns).
fn ack_vecs(pdu: &Pdu) -> usize {
    match pdu {
        Pdu::Data(_) | Pdu::Ret(_) => 1,
        Pdu::AckOnly(_) => 3,
    }
}

/// Vectors of mixed magnitude, so every width arm of the codec is hit: a
/// base anywhere in `u64` with per-entry offsets capped at 0, 4, 8, 16, 32
/// or all 64 bits (saturating at `u64::MAX`), or fully arbitrary entries.
/// Lengths cross the encoder's 32-entry block and are odd as often as even.
fn arb_ack() -> impl Strategy<Value = Vec<Seq>> {
    let caps = prop::sample::select(vec![0u64, 0xF, 0xFF, 0xFFFF, 0xFFFF_FFFF, u64::MAX]);
    let framed = (any::<u64>(), caps).prop_flat_map(|(base, cap)| {
        let entry = (0..=cap).prop_map(move |offset| Seq::new(base.saturating_add(offset)));
        prop::collection::vec(entry, 0..40)
    });
    let arbitrary = prop::collection::vec(any::<u64>().prop_map(Seq::new), 0..40);
    prop_oneof![framed, arbitrary]
}

fn arb_data() -> impl Strategy<Value = Pdu> {
    (
        any::<u32>(),
        0u32..64,
        any::<u64>(),
        arb_ack(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(cid, src, seq, ack, buf, data)| {
            Pdu::Data(DataPdu {
                cid,
                src: EntityId::new(src),
                seq: Seq::new(seq),
                ack,
                buf,
                data: Bytes::from(data),
            })
        })
}

fn arb_ret() -> impl Strategy<Value = Pdu> {
    (
        any::<u32>(),
        0u32..64,
        0u32..64,
        any::<u64>(),
        arb_ack(),
        any::<u32>(),
    )
        .prop_map(|(cid, src, lsrc, lseq, ack, buf)| {
            Pdu::Ret(RetPdu {
                cid,
                src: EntityId::new(src),
                lsrc: EntityId::new(lsrc),
                lseq: Seq::new(lseq),
                ack,
                buf,
            })
        })
}

/// Per-entity lags capped at 0, 4, 8 or all 64 bits, of a length of
/// their own.
fn arb_lags() -> impl Strategy<Value = Vec<u64>> {
    prop::sample::select(vec![0u64, 0xF, 0xFF, u64::MAX])
        .prop_flat_map(|cap| prop::collection::vec(0..=cap, 0..40))
}

/// The vector that trails `ack` by `lags`, the way the wire counts it:
/// wrapping, and from 0 where `ack` has no entry.
fn behind(ack: &[Seq], lags: &[u64]) -> Vec<Seq> {
    let ahead = |j: usize| ack.get(j).map_or(0, |a| a.get());
    lags.iter()
        .enumerate()
        .map(|(j, lag)| Seq::new(ahead(j).wrapping_sub(*lag)))
        .collect()
}

/// An `AckOnly`'s three vectors: `packed` and `acked` trailing `ack` the
/// way honest senders produce them (so the lag vectors hit the widths
/// below a byte; the uncapped lags also run ahead of `ack`, and either
/// may be shorter or longer than it), or three unrelated vectors.
fn arb_ack_only_vectors() -> impl Strategy<Value = (Vec<Seq>, Vec<Seq>, Vec<Seq>)> {
    let trailing = (arb_ack(), arb_lags(), arb_lags()).prop_map(|(ack, packed, acked)| {
        let (packed, acked) = (behind(&ack, &packed), behind(&ack, &acked));
        (ack, packed, acked)
    });
    let unrelated = (arb_ack(), arb_ack(), arb_ack());
    prop_oneof![trailing, unrelated]
}

fn arb_ack_only() -> impl Strategy<Value = Pdu> {
    (any::<u32>(), 0u32..64, arb_ack_only_vectors(), any::<u32>()).prop_map(
        |(cid, src, (ack, packed, acked), buf)| {
            Pdu::AckOnly(AckOnlyPdu {
                cid,
                src: EntityId::new(src),
                ack,
                packed,
                acked,
                buf,
            })
        },
    )
}

fn arb_pdu() -> impl Strategy<Value = Pdu> {
    prop_oneof![arb_data(), arb_ret(), arb_ack_only()]
}

proptest! {
    #[test]
    fn roundtrip_identity(pdu in arb_pdu()) {
        let encoded = pdu.encode();
        let decoded = Pdu::decode(&encoded).expect("valid pdu decodes");
        prop_assert_eq!(decoded, pdu);
    }

    #[test]
    fn encoded_len_matches(pdu in arb_pdu()) {
        prop_assert_eq!(pdu.encode().len(), pdu.encoded_len());
    }

    #[test]
    fn mutated_bytes_never_panic(pdu in arb_pdu(), idx in any::<prop::sample::Index>(), byte in any::<u8>()) {
        let mut raw = pdu.encode().to_vec();
        let i = idx.index(raw.len());
        raw[i] = byte;
        // Any outcome is fine except a panic.
        let _ = Pdu::decode(&raw);
    }

    #[test]
    fn random_garbage_never_panics(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Pdu::decode(&raw);
    }

    #[test]
    fn every_prefix_fails_cleanly(pdu in arb_pdu()) {
        let raw = pdu.encode();
        for cut in 0..raw.len() {
            prop_assert!(Pdu::decode(&raw[..cut]).is_err());
        }
    }

    #[test]
    fn pooled_decode_success_takes_exactly_the_pdus_vectors(pdu in arb_pdu()) {
        let mut pool = AckBufPool::with_buffers(4, 64);
        let before = pool.len();
        let raw = pdu.encode();
        let decoded = Pdu::decode_with(&raw, &mut pool).expect("valid pdu decodes");
        prop_assert_eq!(before - pool.len(), ack_vecs(&decoded));
        pool.recycle(decoded);
        prop_assert_eq!(pool.len(), before);
    }

    #[test]
    fn pooled_decode_of_every_prefix_preserves_pool_size(pdu in arb_pdu()) {
        let raw = pdu.encode();
        let mut pool = AckBufPool::with_buffers(4, 64);
        let before = pool.len();
        for cut in 0..raw.len() {
            prop_assert!(Pdu::decode_with(&raw[..cut], &mut pool).is_err());
            prop_assert_eq!(
                pool.len(), before,
                "decode error at prefix length {} bled pooled capacity", cut
            );
        }
    }

    #[test]
    fn pooled_decode_of_mutated_bytes_preserves_pool_size(
        pdu in arb_pdu(),
        idx in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut raw = pdu.encode().to_vec();
        let i = idx.index(raw.len());
        raw[i] = byte;
        let mut pool = AckBufPool::with_buffers(4, 64);
        let before = pool.len();
        if let Ok(decoded) = Pdu::decode_with(&raw, &mut pool) {
            // The mutation kept the PDU well-formed; the usual success
            // accounting must hold.
            prop_assert_eq!(before - pool.len(), ack_vecs(&decoded));
            pool.recycle(decoded);
        }
        prop_assert_eq!(pool.len(), before);
    }

    #[test]
    fn pooled_decode_with_trailing_bytes_preserves_pool_size(
        pdu in arb_pdu(),
        extra in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        // `decode_with` requires the buffer to hold exactly one PDU; the
        // trailing-garbage error fires *after* a full decode, so it is the
        // one error path where whole vectors must be recycled, not given
        // back piecemeal.
        let mut raw = pdu.encode().to_vec();
        raw.extend_from_slice(&extra);
        let mut pool = AckBufPool::with_buffers(4, 64);
        let before = pool.len();
        prop_assert!(Pdu::decode_with(&raw, &mut pool).is_err());
        prop_assert_eq!(pool.len(), before);
    }

    #[test]
    fn warm_pooled_decode_loop_is_allocation_stable(
        pdus in prop::collection::vec(arb_pdu(), 1..8),
    ) {
        // Steady state: decode a stream of PDUs back-to-back from one warm
        // pool, recycling each. The pool must end every iteration at its
        // starting size — never growing (leaked takes) nor shrinking
        // (forgotten gives).
        let mut pool = AckBufPool::with_buffers(4, 64);
        let before = pool.len();
        for pdu in &pdus {
            let raw = pdu.encode();
            let decoded = Pdu::decode_with(&raw, &mut pool).expect("valid pdu decodes");
            pool.recycle(decoded);
            prop_assert_eq!(pool.len(), before);
        }
    }
}
