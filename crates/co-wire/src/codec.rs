//! Binary encoding of PDUs.
//!
//! Layout (big-endian throughout):
//!
//! ```text
//! magic: u16 | version: u8 | kind: u8 | cid: u32 | src: u32
//! kind = 0 (DATA):    seq: u64 | ack_len: u16 | ack: u64×len | buf: u32
//!                     | data_len: u32 | data
//! kind = 1 (RET):     lsrc: u32 | lseq: u64 | ack_len: u16 | ack | buf: u32
//! kind = 2 (ACKONLY): ack_len: u16 | ack | packed_len: u16 | packed
//!                     | acked_len: u16 | acked | buf: u32
//! ```
//!
//! The `ACK` vector makes every PDU **O(n)** bytes — §5's stated cost.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use causal_order::{EntityId, Seq};

use crate::error::DecodeError;
use crate::pdu::{AckOnlyPdu, DataPdu, Pdu, RetPdu};

/// Magic bytes identifying a CO-protocol PDU.
pub const MAGIC: u16 = 0xC0BD;

/// Current wire version.
pub const VERSION: u8 = 1;

/// Maximum accepted ack-vector length (sanity bound far above any real
/// cluster; guards against corrupt length prefixes).
const MAX_ACK_LEN: usize = 4096;

const KIND_DATA: u8 = 0;
const KIND_RET: u8 = 1;
const KIND_ACK_ONLY: u8 = 2;

impl Pdu {
    /// Serializes the PDU into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serializes the PDU into `buf` (appended). Reserves the exact
    /// encoded length up front so the write never reallocates mid-PDU —
    /// at most one `reserve` per call, and none once the buffer has grown
    /// to the cluster's working size.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        buf.put_u16(MAGIC);
        buf.put_u8(VERSION);
        match self {
            Pdu::Data(p) => {
                buf.put_u8(KIND_DATA);
                buf.put_u32(p.cid);
                buf.put_u32(p.src.raw());
                buf.put_u64(p.seq.get());
                put_ack(buf, &p.ack);
                buf.put_u32(p.buf);
                buf.put_u32(p.data.len() as u32);
                buf.put_slice(&p.data);
            }
            Pdu::Ret(p) => {
                buf.put_u8(KIND_RET);
                buf.put_u32(p.cid);
                buf.put_u32(p.src.raw());
                buf.put_u32(p.lsrc.raw());
                buf.put_u64(p.lseq.get());
                put_ack(buf, &p.ack);
                buf.put_u32(p.buf);
            }
            Pdu::AckOnly(p) => {
                buf.put_u8(KIND_ACK_ONLY);
                buf.put_u32(p.cid);
                buf.put_u32(p.src.raw());
                put_ack(buf, &p.ack);
                put_ack(buf, &p.packed);
                put_ack(buf, &p.acked);
                buf.put_u32(p.buf);
            }
        }
    }

    /// Exact number of bytes [`Pdu::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        // magic + version + kind + cid + src
        let header = 2 + 1 + 1 + 4 + 4;
        match self {
            Pdu::Data(p) => header + 8 + 2 + 8 * p.ack.len() + 4 + 4 + p.data.len(),
            Pdu::Ret(p) => header + 4 + 8 + 2 + 8 * p.ack.len() + 4,
            Pdu::AckOnly(p) => {
                header + 2 + 8 * p.ack.len() + 2 + 8 * p.packed.len() + 2 + 8 * p.acked.len() + 4
            }
        }
    }

    /// Decodes one PDU from `bytes`, requiring the buffer to contain exactly
    /// one PDU.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Pdu, DecodeError> {
        let mut pool = AckBufPool::new();
        Pdu::decode_with(bytes, &mut pool)
    }

    /// Like [`Pdu::decode`], but draws the PDU's ack vectors from `pool`
    /// instead of allocating. Recycling consumed PDUs back into the pool
    /// ([`AckBufPool::recycle`]) makes a steady-state decode loop
    /// allocation-free once the pool is warm.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode_with(bytes: &[u8], pool: &mut AckBufPool) -> Result<Pdu, DecodeError> {
        let mut cursor = bytes;
        let pdu = Pdu::decode_partial_with(&mut cursor, pool)?;
        if !cursor.is_empty() {
            pool.recycle(pdu);
            return Err(DecodeError::TrailingBytes {
                extra: cursor.len(),
            });
        }
        Ok(pdu)
    }

    /// Decodes a batch of independently framed PDUs through one shared
    /// `pool`, appending the successes to `out`. Corrupt frames are
    /// skipped — the same drop-a-bad-checksum treatment transports give
    /// them — and counted in the returned value.
    ///
    /// This is the decode half of a batched inbox drain: one warm pool
    /// across the whole batch makes the steady state allocation-free,
    /// where per-frame [`Pdu::decode`] would grow fresh ack vectors for
    /// every PDU.
    pub fn decode_batch_into<'a>(
        frames: impl IntoIterator<Item = &'a [u8]>,
        pool: &mut AckBufPool,
        out: &mut Vec<Pdu>,
    ) -> usize {
        let mut corrupt = 0;
        for frame in frames {
            match Pdu::decode_with(frame, pool) {
                Ok(pdu) => out.push(pdu),
                Err(_) => corrupt += 1,
            }
        }
        corrupt
    }

    /// Decodes one PDU from the front of `cursor`, advancing it (for
    /// stream parsing of back-to-back PDUs).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode_partial(cursor: &mut &[u8]) -> Result<Pdu, DecodeError> {
        let mut pool = AckBufPool::new();
        Pdu::decode_partial_with(cursor, &mut pool)
    }

    /// Like [`Pdu::decode_partial`], but draws ack vectors from `pool`.
    ///
    /// On a decode error, vectors already taken from the pool for the
    /// failed PDU are returned to it, so malformed input never bleeds
    /// pooled capacity.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode_partial_with(
        cursor: &mut &[u8],
        pool: &mut AckBufPool,
    ) -> Result<Pdu, DecodeError> {
        let magic = get_u16(cursor)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic { found: magic });
        }
        let version = get_u8(cursor)?;
        if version != VERSION {
            return Err(DecodeError::BadVersion { found: version });
        }
        let kind = get_u8(cursor)?;
        let cid = get_u32(cursor)?;
        let src = EntityId::new(get_u32(cursor)?);
        match kind {
            KIND_DATA => {
                let seq = Seq::new(get_u64(cursor)?);
                let ack = get_ack_pooled(cursor, pool)?;
                let buf = match get_u32(cursor) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        return Err(e);
                    }
                };
                let data_len = match get_u32(cursor) {
                    Ok(v) => v as usize,
                    Err(e) => {
                        pool.give(ack);
                        return Err(e);
                    }
                };
                if cursor.len() < data_len {
                    let needed = data_len - cursor.len();
                    pool.give(ack);
                    return Err(DecodeError::Truncated { needed });
                }
                let data = Bytes::copy_from_slice(&cursor[..data_len]);
                cursor.advance(data_len);
                Ok(Pdu::Data(DataPdu {
                    cid,
                    src,
                    seq,
                    ack,
                    buf,
                    data,
                }))
            }
            KIND_RET => {
                let lsrc = EntityId::new(get_u32(cursor)?);
                let lseq = Seq::new(get_u64(cursor)?);
                let ack = get_ack_pooled(cursor, pool)?;
                let buf = match get_u32(cursor) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        return Err(e);
                    }
                };
                Ok(Pdu::Ret(RetPdu {
                    cid,
                    src,
                    lsrc,
                    lseq,
                    ack,
                    buf,
                }))
            }
            KIND_ACK_ONLY => {
                let ack = get_ack_pooled(cursor, pool)?;
                let packed = match get_ack_pooled(cursor, pool) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        return Err(e);
                    }
                };
                let acked = match get_ack_pooled(cursor, pool) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        pool.give(packed);
                        return Err(e);
                    }
                };
                let buf = match get_u32(cursor) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        pool.give(packed);
                        pool.give(acked);
                        return Err(e);
                    }
                };
                Ok(Pdu::AckOnly(AckOnlyPdu {
                    cid,
                    src,
                    ack,
                    packed,
                    acked,
                    buf,
                }))
            }
            other => Err(DecodeError::BadKind { found: other }),
        }
    }
}

/// A free list of `Vec<Seq>` ack buffers for allocation-free decoding.
///
/// [`Pdu::decode_with`] / [`Pdu::decode_partial_with`] take vectors from
/// the pool instead of allocating; when the application is done with a
/// decoded PDU it hands the PDU (or its vectors) back via
/// [`AckBufPool::recycle`] / [`AckBufPool::give`]. After one warm-up
/// round-trip per concurrently live PDU, the decode loop performs no heap
/// allocations for ack vectors (the `DATA` payload still copies into its
/// own `Bytes`).
#[derive(Debug, Default)]
pub struct AckBufPool {
    free: Vec<Vec<Seq>>,
}

impl AckBufPool {
    /// Creates an empty pool (vectors are allocated on first use and
    /// retained thereafter).
    pub fn new() -> Self {
        AckBufPool::default()
    }

    /// Creates a pool pre-seeded with `count` buffers of capacity
    /// `capacity` (use the cluster size), so even the first decode is
    /// allocation-free.
    pub fn with_buffers(count: usize, capacity: usize) -> Self {
        AckBufPool {
            free: (0..count).map(|_| Vec::with_capacity(capacity)).collect(),
        }
    }

    /// Takes a cleared buffer from the pool, or a fresh one if empty.
    pub fn take(&mut self) -> Vec<Seq> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool for reuse (it is cleared here).
    pub fn give(&mut self, mut buf: Vec<Seq>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Reclaims every ack vector of a consumed PDU.
    pub fn recycle(&mut self, pdu: Pdu) {
        match pdu {
            Pdu::Data(p) => self.give(p.ack),
            Pdu::Ret(p) => self.give(p.ack),
            Pdu::AckOnly(p) => {
                self.give(p.ack);
                self.give(p.packed);
                self.give(p.acked);
            }
        }
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Words per `put_slice` when encoding an ack vector.
const ACK_BLOCK_WORDS: usize = 32;

/// Writes a length-prefixed ack vector, a stack block of words at a time
/// (one capacity check and cursor advance per block instead of per word).
fn put_ack(buf: &mut BytesMut, ack: &[Seq]) {
    buf.put_u16(ack.len() as u16);
    let mut block = [0u8; 8 * ACK_BLOCK_WORDS];
    for words in ack.chunks(ACK_BLOCK_WORDS) {
        for (dst, word) in block.chunks_exact_mut(8).zip(words) {
            dst.copy_from_slice(&word.get().to_be_bytes());
        }
        buf.put_slice(&block[..8 * words.len()]);
    }
}

fn need(cursor: &[u8], n: usize) -> Result<(), DecodeError> {
    if cursor.len() < n {
        Err(DecodeError::Truncated {
            needed: n - cursor.len(),
        })
    } else {
        Ok(())
    }
}

fn get_u8(cursor: &mut &[u8]) -> Result<u8, DecodeError> {
    need(cursor, 1)?;
    Ok(cursor.get_u8())
}

fn get_u16(cursor: &mut &[u8]) -> Result<u16, DecodeError> {
    need(cursor, 2)?;
    Ok(cursor.get_u16())
}

fn get_u32(cursor: &mut &[u8]) -> Result<u32, DecodeError> {
    need(cursor, 4)?;
    Ok(cursor.get_u32())
}

fn get_u64(cursor: &mut &[u8]) -> Result<u64, DecodeError> {
    need(cursor, 8)?;
    Ok(cursor.get_u64())
}

/// Reads a length-prefixed ack vector into `out` (cleared first).
fn get_ack_into(cursor: &mut &[u8], out: &mut Vec<Seq>) -> Result<(), DecodeError> {
    let len = get_u16(cursor)? as usize;
    if len > MAX_ACK_LEN {
        return Err(DecodeError::AckTooLong {
            declared: len,
            max: MAX_ACK_LEN,
        });
    }
    need(cursor, 8 * len)?;
    let (words, rest) = cursor.split_at(8 * len);
    out.clear();
    out.extend(
        words
            .chunks_exact(8)
            .map(|word| Seq::new(u64::from_be_bytes(word.try_into().expect("8-byte chunk")))),
    );
    *cursor = rest;
    Ok(())
}

/// [`get_ack_into`] over a pool-drawn buffer; the buffer goes back to the
/// pool on error, so malformed input never bleeds pooled capacity.
fn get_ack_pooled(cursor: &mut &[u8], pool: &mut AckBufPool) -> Result<Vec<Seq>, DecodeError> {
    let mut out = pool.take();
    match get_ack_into(cursor, &mut out) {
        Ok(()) => Ok(out),
        Err(e) => {
            pool.give(out);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(v: &[u64]) -> Vec<Seq> {
        v.iter().copied().map(Seq::new).collect()
    }

    fn sample_data(n: usize) -> Pdu {
        Pdu::Data(DataPdu {
            cid: 0xDEAD,
            src: EntityId::new(1),
            seq: Seq::new(42),
            ack: seqs(&(1..=n as u64).collect::<Vec<_>>()),
            buf: 99,
            data: Bytes::from_static(b"payload!"),
        })
    }

    #[test]
    fn data_roundtrip() {
        let p = sample_data(3);
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn roundtrip_across_encode_block_boundaries() {
        for n in [
            ACK_BLOCK_WORDS - 1,
            ACK_BLOCK_WORDS,
            ACK_BLOCK_WORDS + 1,
            100,
        ] {
            let p = sample_data(n);
            assert_eq!(Pdu::decode(&p.encode()).unwrap(), p, "n = {n}");
        }
    }

    #[test]
    fn ret_roundtrip() {
        let p = Pdu::Ret(RetPdu {
            cid: 5,
            src: EntityId::new(2),
            lsrc: EntityId::new(0),
            lseq: Seq::new(17),
            ack: seqs(&[4, 5, 6]),
            buf: 1,
        });
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ack_only_roundtrip() {
        let p = Pdu::AckOnly(AckOnlyPdu {
            cid: 5,
            src: EntityId::new(2),
            ack: seqs(&[4, 5, 6]),
            packed: seqs(&[1, 2, 3]),
            acked: seqs(&[0, 1, 2]),
            buf: 1,
        });
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let p = Pdu::Data(DataPdu {
            cid: 0,
            src: EntityId::new(0),
            seq: Seq::FIRST,
            ack: vec![],
            buf: 0,
            data: Bytes::new(),
        });
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn encoded_len_is_exact() {
        for n in [0usize, 1, 2, 8, 64] {
            let p = sample_data(n);
            assert_eq!(p.encode().len(), p.encoded_len(), "n = {n}");
        }
    }

    #[test]
    fn pdu_length_grows_linearly_in_n() {
        // §5: "the length of PDU is O(n)". Exactly 8 bytes per extra entity.
        let l2 = sample_data(2).encoded_len();
        let l3 = sample_data(3).encoded_len();
        let l10 = sample_data(10).encoded_len();
        assert_eq!(l3 - l2, 8);
        assert_eq!(l10 - l2, 8 * 8);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = sample_data(2).encode().to_vec();
        raw[0] = 0x00;
        assert!(matches!(
            Pdu::decode(&raw),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut raw = sample_data(2).encode().to_vec();
        raw[2] = 99;
        assert_eq!(
            Pdu::decode(&raw),
            Err(DecodeError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let mut raw = sample_data(2).encode().to_vec();
        raw[3] = 42;
        assert_eq!(Pdu::decode(&raw), Err(DecodeError::BadKind { found: 42 }));
    }

    #[test]
    fn truncation_at_every_length_is_an_error_not_a_panic() {
        let raw = sample_data(3).encode();
        for cut in 0..raw.len() {
            let res = Pdu::decode(&raw[..cut]);
            assert!(res.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = sample_data(2).encode().to_vec();
        raw.push(0xFF);
        assert_eq!(
            Pdu::decode(&raw),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_partial_consumes_one_pdu() {
        let a = sample_data(2);
        let b = Pdu::AckOnly(AckOnlyPdu {
            cid: 1,
            src: EntityId::new(0),
            ack: seqs(&[1, 1]),
            packed: seqs(&[1, 1]),
            acked: seqs(&[1, 1]),
            buf: 3,
        });
        let mut stream = a.encode().to_vec();
        stream.extend_from_slice(&b.encode());
        let mut cursor = &stream[..];
        assert_eq!(Pdu::decode_partial(&mut cursor).unwrap(), a);
        assert_eq!(Pdu::decode_partial(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn pooled_decode_roundtrips_and_reuses_buffers() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        let p = Pdu::AckOnly(AckOnlyPdu {
            cid: 5,
            src: EntityId::new(2),
            ack: seqs(&[4, 5, 6]),
            packed: seqs(&[1, 2, 3]),
            acked: seqs(&[0, 1, 2]),
            buf: 1,
        });
        let raw = p.encode();
        for _ in 0..4 {
            let decoded = Pdu::decode_with(&raw, &mut pool).unwrap();
            assert_eq!(decoded, p);
            assert!(pool.is_empty(), "all three buffers in use");
            pool.recycle(decoded);
            assert_eq!(pool.len(), 3, "recycle returns every vector");
        }
    }

    #[test]
    fn pooled_decode_errors_return_buffers_to_pool() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        let raw = sample_data(3).encode();
        for cut in 0..raw.len() {
            assert!(Pdu::decode_with(&raw[..cut], &mut pool).is_err());
            assert_eq!(pool.len(), 3, "no pooled buffer lost at cut {cut}");
        }
        // Trailing garbage also recycles the successfully decoded PDU.
        let mut extra = raw.to_vec();
        extra.push(0xFF);
        assert!(matches!(
            Pdu::decode_with(&extra, &mut pool),
            Err(DecodeError::TrailingBytes { .. })
        ));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn encode_into_reserves_exactly_once() {
        let p = sample_data(8);
        let mut buf = BytesMut::new();
        p.encode_into(&mut buf);
        assert_eq!(buf.len(), p.encoded_len());
        assert_eq!(Pdu::decode(&buf).unwrap(), p);
    }

    #[test]
    fn oversized_ack_len_rejected() {
        // Hand-craft an ACKONLY header with a huge ack_len.
        let mut raw = BytesMut::new();
        raw.put_u16(MAGIC);
        raw.put_u8(VERSION);
        raw.put_u8(2); // ACKONLY
        raw.put_u32(0); // cid
        raw.put_u32(0); // src
        raw.put_u16(u16::MAX); // ack_len = 65535 > MAX_ACK_LEN
        assert!(matches!(
            Pdu::decode(&raw),
            Err(DecodeError::AckTooLong {
                declared: 65535,
                ..
            })
        ));
    }
}

#[cfg(test)]
mod golden {
    use super::*;

    /// The wire format is a compatibility surface: these exact bytes must
    /// never change for version 1. (If the format must evolve, bump
    /// [`VERSION`] and add a new golden test.)
    #[test]
    fn data_pdu_golden_bytes() {
        let p = Pdu::Data(DataPdu {
            cid: 0x01020304,
            src: EntityId::new(2),
            seq: Seq::new(7),
            ack: vec![Seq::new(1), Seq::new(2)],
            buf: 9,
            data: Bytes::from_static(b"hi"),
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, // magic
            0x01, // version
            0x00, // kind = DATA
            0x01, 0x02, 0x03, 0x04, // cid
            0x00, 0x00, 0x00, 0x02, // src
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // seq
            0x00, 0x02, // ack len
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack[0]
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // ack[1]
            0x00, 0x00, 0x00, 0x09, // buf
            0x00, 0x00, 0x00, 0x02, // data len
            b'h', b'i',
        ];
        assert_eq!(p.encode().to_vec(), expected);
    }

    /// `bytes` with every ack word of `acks` appended big-endian after a
    /// `u16` length — the golden tests' vector field, spelled out.
    fn with_ack(mut bytes: Vec<u8>, acks: &[u64]) -> Vec<u8> {
        bytes.extend_from_slice(&[0x00, acks.len() as u8]);
        for ack in acks {
            bytes.extend_from_slice(&[0, 0, 0, 0, 0, 0, (ack >> 8) as u8, *ack as u8]);
        }
        bytes
    }

    /// One golden per PDU kind at n = 3, with distinct multi-byte words, so
    /// the bulk vector encode/decode is pinned to the per-word layout.
    #[test]
    fn golden_bytes_at_n3() {
        let ids = |v: &[u64]| v.iter().copied().map(Seq::new).collect::<Vec<_>>();
        let header = |kind: u8| vec![0xC0, 0xBD, 0x01, kind, 0, 0, 0, 7, 0, 0, 0, 2];

        let data = Pdu::Data(DataPdu {
            cid: 7,
            src: EntityId::new(2),
            seq: Seq::new(0x0105),
            ack: ids(&[0x0201, 0x0302, 0x0403]),
            buf: 9,
            data: Bytes::from_static(b"abc"),
        });
        let mut expected = header(0);
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x01, 0x05]); // seq
        expected = with_ack(expected, &[0x0201, 0x0302, 0x0403]);
        expected.extend_from_slice(&[0, 0, 0, 9, 0, 0, 0, 3, b'a', b'b', b'c']);
        assert_eq!(data.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), data);

        let ret = Pdu::Ret(RetPdu {
            cid: 7,
            src: EntityId::new(2),
            lsrc: EntityId::new(1),
            lseq: Seq::new(0x0A0B),
            ack: ids(&[0x0201, 0x0302, 0x0403]),
            buf: 4,
        });
        let mut expected = header(1);
        expected.extend_from_slice(&[0, 0, 0, 1]); // lsrc
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x0A, 0x0B]); // lseq
        expected = with_ack(expected, &[0x0201, 0x0302, 0x0403]);
        expected.extend_from_slice(&[0, 0, 0, 4]);
        assert_eq!(ret.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ret);

        let ack_only = Pdu::AckOnly(AckOnlyPdu {
            cid: 7,
            src: EntityId::new(2),
            ack: ids(&[0x0201, 0x0302, 0x0403]),
            packed: ids(&[0x0101, 0x0202, 0x0303]),
            acked: ids(&[0x0001, 0x0102, 0x0203]),
            buf: 5,
        });
        let mut expected = with_ack(header(2), &[0x0201, 0x0302, 0x0403]);
        expected = with_ack(expected, &[0x0101, 0x0202, 0x0303]);
        expected = with_ack(expected, &[0x0001, 0x0102, 0x0203]);
        expected.extend_from_slice(&[0, 0, 0, 5]);
        assert_eq!(ack_only.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ack_only);
    }

    #[test]
    fn ret_pdu_golden_bytes() {
        let p = Pdu::Ret(RetPdu {
            cid: 1,
            src: EntityId::new(0),
            lsrc: EntityId::new(1),
            lseq: Seq::new(3),
            ack: vec![Seq::new(1)],
            buf: 0,
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, 0x01, 0x01, // magic, version, kind = RET
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x00, 0x00, 0x01, // lsrc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // lseq
            0x00, 0x01, // ack len
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack[0]
            0x00, 0x00, 0x00, 0x00, // buf
        ];
        assert_eq!(p.encode().to_vec(), expected);
    }

    #[test]
    fn ack_only_golden_bytes() {
        let p = Pdu::AckOnly(AckOnlyPdu {
            cid: 1,
            src: EntityId::new(0),
            ack: vec![Seq::new(2)],
            packed: vec![Seq::new(1)],
            acked: vec![Seq::new(1)],
            buf: 5,
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, 0x01, 0x02, // magic, version, kind = ACKONLY
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // ack
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // packed
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // acked
            0x00, 0x00, 0x00, 0x05, // buf
        ];
        assert_eq!(p.encode().to_vec(), expected);
    }
}
