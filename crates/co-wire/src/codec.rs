//! Binary encoding of PDUs (wire version 2).
//!
//! Layout (big-endian throughout):
//!
//! ```text
//! magic: u16 | version: u8 | kind: u8 | cid: u32 | src: u32
//! kind = 0 (DATA):    seq: u64 | ack: vector | buf: u32 | data_len: u32 | data
//! kind = 1 (RET):     lsrc: u32 | lseq: u64 | ack: vector | buf: u32
//! kind = 2 (ACKONLY): ack: vector | packed: vector | acked: vector | buf: u32
//!
//! vector: len: u16 | width: u8 ∈ {1,2,4,8} | base: u64
//!         | (v[i] − base) as `width` big-endian bytes × len
//! ```
//!
//! # Frame-of-reference vectors
//!
//! Every entry of `ack` / `packed` / `acked` is a frontier into the same
//! stream of broadcasts, so `max − min` within one vector is bounded by
//! how far the sources' send counts have drifted apart, not by how long
//! the cluster has run. Each vector is therefore written on its own as a
//! `base` and fixed-width offsets from it: the writer picks
//! `base = min(v)` and the smallest `width` that holds `max(v) − min(v)`
//! (the empty vector is width 1, base 0). A PDU is still **O(n)** bytes —
//! §5's stated cost — at one byte per entity per vector while the spread
//! stays under 256, instead of eight.
//!
//! * **Total.** Any `Vec<Seq>` round-trips exactly; nothing about the
//!   protocol's invariants is assumed. The worst case (spread ≥ 2³²) is
//!   width 8: the v1 size plus the 9-byte `width` + `base` per vector.
//! * **Stateless.** A vector depends on nothing outside its own PDU, so a
//!   lost PDU cannot break a delta chain.
//! * **Lenient reader.** A wider-than-necessary `width` or a non-minimal
//!   `base` decodes to the same vector (like an over-long varint); only a
//!   `width` outside {1, 2, 4, 8} and a `base + offset` past `u64::MAX`
//!   are errors.
//! * **Why not LEB128.** A varint per entry needs a data-dependent branch
//!   per element on both sides and makes [`Pdu::encoded_len`] a
//!   per-element sum. Here the length is a function of `(len, min, max)`
//!   and each width arm is one bulk loop over fixed-size chunks.
//! * **Why not `packed` / `acked` as deltas from `ack`.** That needs
//!   `packed ≤ ack` and `acked ≤ ack` pointwise from every peer, which is
//!   a property of honest senders, not of the wire; and the tidier chain
//!   `acked ≤ packed ≤ ack` is false even for them (see DESIGN.md).
//!   Independent bases need neither.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use causal_order::{EntityId, Seq};

use crate::error::DecodeError;
use crate::pdu::{AckOnlyPdu, DataPdu, Pdu, RetPdu};

/// Magic bytes identifying a CO-protocol PDU.
pub const MAGIC: u16 = 0xC0BD;

/// Current wire version. Version 1 (vectors as fixed `u64`s) is not read.
pub const VERSION: u8 = 2;

/// Maximum accepted ack-vector length (sanity bound far above any real
/// cluster; guards against corrupt length prefixes).
const MAX_ACK_LEN: usize = 4096;

const KIND_DATA: u8 = 0;
const KIND_RET: u8 = 1;
const KIND_ACK_ONLY: u8 = 2;

/// magic + version + kind + cid + src
const HEADER_LEN: usize = 2 + 1 + 1 + 4 + 4;

/// len + width + base, before a vector's offsets.
const VECTOR_HEADER_LEN: usize = 2 + 1 + 8;

impl Pdu {
    /// Serializes the PDU into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serializes the PDU into `buf` (appended). Reserves the exact
    /// encoded length up front so the write never reallocates mid-PDU —
    /// at most one `reserve` per call, and none once the buffer has grown
    /// to the cluster's working size.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Pdu::Data(p) => {
                let ack = Framed::of(&p.ack);
                let len = self.fixed_len() + ack.wire_len();
                put_header(buf, len, KIND_DATA, p.cid, p.src);
                buf.put_u64(p.seq.get());
                ack.put(buf);
                buf.put_u32(p.buf);
                buf.put_u32(p.data.len() as u32);
                buf.put_slice(&p.data);
            }
            Pdu::Ret(p) => {
                let ack = Framed::of(&p.ack);
                let len = self.fixed_len() + ack.wire_len();
                put_header(buf, len, KIND_RET, p.cid, p.src);
                buf.put_u32(p.lsrc.raw());
                buf.put_u64(p.lseq.get());
                ack.put(buf);
                buf.put_u32(p.buf);
            }
            Pdu::AckOnly(p) => {
                let vectors = [&p.ack, &p.packed, &p.acked].map(|v| Framed::of(v));
                let len = self.fixed_len() + vectors.iter().map(Framed::wire_len).sum::<usize>();
                put_header(buf, len, KIND_ACK_ONLY, p.cid, p.src);
                for vector in &vectors {
                    vector.put(buf);
                }
                buf.put_u32(p.buf);
            }
        }
    }

    /// Exact number of bytes [`Pdu::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        let vectors = match self {
            Pdu::Data(p) => Framed::of(&p.ack).wire_len(),
            Pdu::Ret(p) => Framed::of(&p.ack).wire_len(),
            Pdu::AckOnly(p) => [&p.ack, &p.packed, &p.acked]
                .map(|v| Framed::of(v).wire_len())
                .iter()
                .sum(),
        };
        self.fixed_len() + vectors
    }

    /// Encoded bytes outside the vectors.
    fn fixed_len(&self) -> usize {
        match self {
            // seq + buf + data_len + data
            Pdu::Data(p) => HEADER_LEN + 8 + 4 + 4 + p.data.len(),
            // lsrc + lseq + buf
            Pdu::Ret(_) => HEADER_LEN + 4 + 8 + 4,
            // buf
            Pdu::AckOnly(_) => HEADER_LEN + 4,
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

/// Entries per `put_slice` when encoding a vector's offsets.
const ACK_BLOCK_WORDS: usize = 32;

/// A vector with its frame of reference, chosen once per encode.
struct Framed<'a> {
    v: &'a [Seq],
    base: u64,
    width: usize,
}

impl<'a> Framed<'a> {
    /// `base = min(v)` and the narrowest width holding `max(v) − min(v)`.
    fn of(v: &'a [Seq]) -> Self {
        let (min, max) = v.iter().fold((u64::MAX, 0), |(min, max), s| {
            (min.min(s.get()), max.max(s.get()))
        });
        let base = if v.is_empty() { 0 } else { min };
        let width = match max.saturating_sub(min) {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        };
        Framed { v, base, width }
    }

    fn wire_len(&self) -> usize {
        VECTOR_HEADER_LEN + self.width * self.v.len()
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u16(self.v.len() as u16);
        buf.put_u8(self.width as u8);
        buf.put_u64(self.base);
        match self.width {
            1 => put_offsets::<1>(buf, self.v, self.base),
            2 => put_offsets::<2>(buf, self.v, self.base),
            4 => put_offsets::<4>(buf, self.v, self.base),
            _ => put_offsets::<8>(buf, self.v, self.base),
        }
    }
}

/// Writes `v[i] − base` as `W` big-endian bytes each, a stack block of
/// entries at a time (one capacity check and cursor advance per block
/// instead of per entry).
fn put_offsets<const W: usize>(buf: &mut BytesMut, v: &[Seq], base: u64) {
    let mut block = [0u8; 8 * ACK_BLOCK_WORDS];
    for entries in v.chunks(ACK_BLOCK_WORDS) {
        for (dst, entry) in block.chunks_exact_mut(W).zip(entries) {
            dst.copy_from_slice(&(entry.get() - base).to_be_bytes()[8 - W..]);
        }
        buf.put_slice(&block[..W * entries.len()]);
    }
}

/// Reserves `len` bytes (the whole PDU) and writes the common header.
fn put_header(buf: &mut BytesMut, len: usize, kind: u8, cid: u32, src: EntityId) {
    buf.reserve(len);
    buf.put_u16(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
    buf.put_u32(cid);
    buf.put_u32(src.raw());
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

/// Reads one vector into `out` (cleared first).
fn get_ack_into(cursor: &mut &[u8], out: &mut Vec<Seq>) -> Result<(), DecodeError> {
    let len = get_u16(cursor)? as usize;
    if len > MAX_ACK_LEN {
        return Err(DecodeError::AckTooLong {
            declared: len,
            max: MAX_ACK_LEN,
        });
    }
    let width = get_u8(cursor)?;
    if !matches!(width, 1 | 2 | 4 | 8) {
        return Err(DecodeError::BadWidth { found: width });
    }
    let base = get_u64(cursor)?;
    let offsets_len = usize::from(width) * len;
    need(cursor, offsets_len)?;
    let (offsets, rest) = cursor.split_at(offsets_len);
    out.clear();
    match width {
        1 => get_offsets::<1>(offsets, base, out),
        2 => get_offsets::<2>(offsets, base, out),
        4 => get_offsets::<4>(offsets, base, out),
        _ => get_offsets::<8>(offsets, base, out),
    }?;
    *cursor = rest;
    Ok(())
}

/// Appends `base + offset` for every `W`-byte big-endian offset, in one
/// bulk pass with no data-dependent branch. Only a vector whose `base`
/// leaves no room for the widest `W`-byte offset is then searched for an
/// offset that overflows; `out` holds wrapped entries in that case and the
/// caller discards it.
fn get_offsets<const W: usize>(
    offsets: &[u8],
    base: u64,
    out: &mut Vec<Seq>,
) -> Result<(), DecodeError> {
    let offset_of = |chunk: &[u8; W]| {
        let mut word = [0u8; 8];
        word[8 - W..].copy_from_slice(chunk);
        u64::from_be_bytes(word)
    };
    // `need(width × len)` ran before the split: no remainder.
    let (chunks, _) = offsets.as_chunks::<W>();
    out.extend(
        chunks
            .iter()
            .map(|chunk| Seq::new(base.wrapping_add(offset_of(chunk)))),
    );
    if base.checked_add(u64::MAX >> (64 - 8 * W)).is_some() {
        return Ok(());
    }
    let mut all = chunks.iter().map(offset_of);
    match all.find(|offset| base.checked_add(*offset).is_none()) {
        Some(offset) => Err(DecodeError::OffsetOverflow { base, offset }),
        None => Ok(()),
    }
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

    fn data_with(ack: Vec<Seq>) -> Pdu {
        Pdu::Data(DataPdu {
            cid: 0xDEAD,
            src: EntityId::new(1),
            seq: Seq::new(42),
            ack,
            buf: 99,
            data: Bytes::from_static(b"payload!"),
        })
    }

    fn ret_with(ack: Vec<Seq>) -> Pdu {
        Pdu::Ret(RetPdu {
            cid: 5,
            src: EntityId::new(2),
            lsrc: EntityId::new(0),
            lseq: Seq::new(17),
            ack,
            buf: 1,
        })
    }

    fn ack_only_with(ack: Vec<Seq>, packed: Vec<Seq>, acked: Vec<Seq>) -> Pdu {
        Pdu::AckOnly(AckOnlyPdu {
            cid: 5,
            src: EntityId::new(2),
            ack,
            packed,
            acked,
            buf: 1,
        })
    }

    fn sample_data(n: usize) -> Pdu {
        data_with(seqs(&(1..=n as u64).collect::<Vec<_>>()))
    }

    fn sample_ack_only() -> Pdu {
        ack_only_with(seqs(&[4, 5, 6]), seqs(&[1, 2, 3]), seqs(&[0, 1, 2]))
    }

    /// One PDU of each kind over the same vector(s).
    fn each_kind(v: &[Seq]) -> [Pdu; 3] {
        [
            data_with(v.to_vec()),
            ret_with(v.to_vec()),
            ack_only_with(v.to_vec(), v.to_vec(), v.to_vec()),
        ]
    }

    fn vector_count(pdu: &Pdu) -> usize {
        match pdu {
            Pdu::Data(_) | Pdu::Ret(_) => 1,
            Pdu::AckOnly(_) => 3,
        }
    }

    /// What wire version 1 spent on `pdu`: a `u16` length and a fixed
    /// `u64` per entry for every vector.
    fn v1_len(pdu: &Pdu) -> usize {
        let entries = match pdu {
            Pdu::Data(p) => p.ack.len(),
            Pdu::Ret(p) => p.ack.len(),
            Pdu::AckOnly(p) => p.ack.len() + p.packed.len() + p.acked.len(),
        };
        pdu.fixed_len() + 2 * vector_count(pdu) + 8 * entries
    }

    /// A frame up to and including `len | width | base` of its first
    /// vector, for hand-crafting malformed vectors.
    fn ack_only_up_to_base(len: u16, width: u8, base: u64) -> BytesMut {
        let mut raw = BytesMut::new();
        put_header(&mut raw, 0, KIND_ACK_ONLY, 0, EntityId::new(0));
        raw.put_u16(len);
        raw.put_u8(width);
        raw.put_u64(base);
        raw
    }

    #[test]
    fn data_roundtrip() {
        let p = sample_data(3);
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ret_roundtrip() {
        let p = ret_with(seqs(&[4, 5, 6]));
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ack_only_roundtrip() {
        let p = sample_ack_only();
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

    /// Every width arm at both of its edges, across the encode block
    /// boundary and up to the longest accepted vector, with the base at
    /// the bottom and at the top of the `u64` range.
    #[test]
    fn width_boundaries_roundtrip_at_exact_length() {
        let spreads: [(u64, usize); 8] = [
            (0, 1),
            (0xFF, 1),
            (0x100, 2),
            (0xFFFF, 2),
            (0x1_0000, 4),
            (0xFFFF_FFFF, 4),
            (0x1_0000_0000, 8),
            (u64::MAX, 8),
        ];
        let lens = [
            0,
            1,
            ACK_BLOCK_WORDS - 1,
            ACK_BLOCK_WORDS,
            ACK_BLOCK_WORDS + 1,
            100,
            MAX_ACK_LEN,
        ];
        for (spread, spread_width) in spreads {
            for base in [0, u64::MAX - spread] {
                for n in lens {
                    // First entry at the base, last at base + spread,
                    // the rest spaced between them.
                    let last = n.saturating_sub(1).max(1) as u128;
                    let v: Vec<Seq> = (0..n as u128)
                        .map(|i| Seq::new(base + (spread as u128 * i / last) as u64))
                        .collect();
                    let width = if n < 2 { 1 } else { spread_width };
                    for pdu in each_kind(&v) {
                        let ctx = format!("{:?} spread {spread} base {base} n {n}", pdu.kind());
                        let raw = pdu.encode();
                        assert_eq!(raw.len(), pdu.encoded_len(), "{ctx}");
                        assert_eq!(
                            raw.len(),
                            pdu.fixed_len() + vector_count(&pdu) * (VECTOR_HEADER_LEN + width * n),
                            "{ctx}"
                        );
                        assert!(raw.len() <= v1_len(&pdu) + 9 * vector_count(&pdu), "{ctx}");
                        assert_eq!(Pdu::decode(&raw).unwrap(), pdu, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn vectors_of_one_pdu_pick_their_widths_independently() {
        let p = ack_only_with(
            seqs(&[7, 7, 7]),
            seqs(&[0, 0x1_0000, 2]),
            seqs(&[u64::MAX, 0, 5]),
        );
        let raw = p.encode();
        assert_eq!(
            raw.len(),
            p.fixed_len() + 3 * VECTOR_HEADER_LEN + 3 * (1 + 4 + 8)
        );
        assert_eq!(Pdu::decode(&raw).unwrap(), p);
    }

    #[test]
    fn pdu_length_grows_linearly_in_n() {
        // §5: "the length of PDU is O(n)". One byte per extra entity while
        // the vector's spread stays under 256 …
        let l2 = sample_data(2).encoded_len();
        assert_eq!(sample_data(3).encoded_len() - l2, 1);
        assert_eq!(sample_data(10).encoded_len() - l2, 8);
        // … and eight, v1's constant, at the widest.
        let wide = |n: usize| {
            let mut ack = vec![Seq::new(u64::MAX); n];
            ack[0] = Seq::new(0);
            data_with(ack).encoded_len()
        };
        assert_eq!(wide(3) - wide(2), 8);
        assert_eq!(wide(10) - wide(2), 8 * 8);
    }

    #[test]
    fn ack_only_at_n64_fits_one_ethernet_frame() {
        let v = seqs(&(1000..1064).collect::<Vec<_>>());
        let p = ack_only_with(v.clone(), v.clone(), v);
        assert_eq!(p.encoded_len(), 12 + 3 * (11 + 64) + 4);
        assert_eq!(p.encode().len(), 241);
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
    fn v1_frame_is_a_bad_version() {
        // A complete, well-formed version 1 RET (n = 1, fixed u64 entry).
        let v1: Vec<u8> = vec![
            0xC0, 0xBD, 0x01, 0x01, // magic, version 1, kind = RET
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x00, 0x00, 0x01, // lsrc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // lseq
            0x00, 0x01, // ack len
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack[0]
            0x00, 0x00, 0x00, 0x00, // buf
        ];
        assert_eq!(Pdu::decode(&v1), Err(DecodeError::BadVersion { found: 1 }));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut raw = sample_data(2).encode().to_vec();
        raw[3] = 42;
        assert_eq!(Pdu::decode(&raw), Err(DecodeError::BadKind { found: 42 }));
    }

    #[test]
    fn bad_width_rejected_with_the_pool_intact() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        for width in (0..=u8::MAX).filter(|w| !matches!(w, 1 | 2 | 4 | 8)) {
            // In the first vector, and in the third with two already drawn.
            let mut first = sample_ack_only().encode().to_vec();
            first[HEADER_LEN + 2] = width;
            let mut third = sample_ack_only().encode().to_vec();
            third[HEADER_LEN + 2 * (VECTOR_HEADER_LEN + 3) + 2] = width;
            for raw in [first, third] {
                assert_eq!(
                    Pdu::decode_with(&raw, &mut pool),
                    Err(DecodeError::BadWidth { found: width })
                );
                assert_eq!(pool.len(), 3);
            }
        }
    }

    #[test]
    fn offset_past_u64_max_rejected_with_the_pool_intact() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        for width in [1usize, 2, 4, 8] {
            // Three entries; only the middle one overflows, by exactly one.
            let mut raw = ack_only_up_to_base(3, width as u8, u64::MAX - 1);
            for offset in [0u64, 2, 1] {
                raw.put_slice(&offset.to_be_bytes()[8 - width..]);
            }
            assert_eq!(
                Pdu::decode_with(&raw, &mut pool),
                Err(DecodeError::OffsetOverflow {
                    base: u64::MAX - 1,
                    offset: 2
                }),
                "width {width}"
            );
            assert_eq!(pool.len(), 3);
        }
    }

    #[test]
    fn wider_width_and_lower_base_than_necessary_are_accepted() {
        let p = ret_with(seqs(&[10, 11, 12]));
        let minimal = p.encode();
        for width in [1usize, 2, 4, 8] {
            let mut raw = minimal[..HEADER_LEN + 4 + 8].to_vec(); // … lsrc, lseq
            raw.extend_from_slice(&[0, 3, width as u8]);
            raw.extend_from_slice(&7u64.to_be_bytes()); // base 7, not min = 10
            for offset in [3u64, 4, 5] {
                raw.extend_from_slice(&offset.to_be_bytes()[8 - width..]);
            }
            raw.extend_from_slice(&[0, 0, 0, 1]); // buf
            assert_eq!(Pdu::decode(&raw).unwrap(), p, "width {width}");
        }
    }

    #[test]
    fn truncation_at_every_cut_fails_with_the_pool_intact() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        let wide = seqs(&[1, 0x1_0000, 2]);
        for pdu in each_kind(&seqs(&[4, 5, 6]))
            .into_iter()
            .chain(each_kind(&wide))
        {
            let raw = pdu.encode();
            for cut in 0..raw.len() {
                let res = Pdu::decode_with(&raw[..cut], &mut pool);
                assert!(
                    matches!(res, Err(DecodeError::Truncated { .. })),
                    "{:?} cut at {cut}: {res:?}",
                    pdu.kind()
                );
                assert_eq!(pool.len(), 3, "{:?} cut at {cut}", pdu.kind());
            }
            // Trailing garbage also recycles the successfully decoded PDU.
            let mut extra = raw.to_vec();
            extra.push(0xFF);
            assert_eq!(
                Pdu::decode_with(&extra, &mut pool),
                Err(DecodeError::TrailingBytes { extra: 1 })
            );
            assert_eq!(pool.len(), 3);
        }
    }

    #[test]
    fn decode_partial_consumes_one_pdu() {
        let a = sample_data(2);
        let b = sample_ack_only();
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
        let p = sample_ack_only();
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
    fn encode_into_appends_exactly_encoded_len() {
        let mut buf = BytesMut::new();
        let (a, b) = (sample_data(8), sample_ack_only());
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len());
        b.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len() + b.encoded_len());
        let mut cursor = &buf[..];
        assert_eq!(Pdu::decode_partial(&mut cursor).unwrap(), a);
        assert_eq!(Pdu::decode_partial(&mut cursor).unwrap(), b);
    }

    #[test]
    fn oversized_ack_len_rejected_with_the_pool_intact() {
        // len = 65535 > MAX_ACK_LEN, then a plausible width and base.
        let raw = ack_only_up_to_base(u16::MAX, 1, 0);
        let mut pool = AckBufPool::with_buffers(3, 3);
        assert_eq!(
            Pdu::decode_with(&raw, &mut pool),
            Err(DecodeError::AckTooLong {
                declared: 65535,
                max: MAX_ACK_LEN
            })
        );
        assert_eq!(pool.len(), 3);
    }
}

#[cfg(test)]
mod golden {
    use super::*;

    // The wire format is a compatibility surface: these exact bytes must
    // never change for version 2. (If the format must evolve, bump
    // [`VERSION`] and re-pin.)

    fn ids(v: &[u64]) -> Vec<Seq> {
        v.iter().copied().map(Seq::new).collect()
    }

    #[test]
    fn data_pdu_golden_bytes() {
        let p = Pdu::Data(DataPdu {
            cid: 0x01020304,
            src: EntityId::new(2),
            seq: Seq::new(7),
            ack: ids(&[1, 2]),
            buf: 9,
            data: Bytes::from_static(b"hi"),
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, // magic
            0x02, // version
            0x00, // kind = DATA
            0x01, 0x02, 0x03, 0x04, // cid
            0x00, 0x00, 0x00, 0x02, // src
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // seq
            0x00, 0x02, // ack len
            0x01, // ack width
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack base
            0x00, 0x01, // ack[0] − base, ack[1] − base
            0x00, 0x00, 0x00, 0x09, // buf
            0x00, 0x00, 0x00, 0x02, // data len
            b'h', b'i',
        ];
        assert_eq!(p.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), p);
    }

    #[test]
    fn ret_pdu_golden_bytes() {
        let p = Pdu::Ret(RetPdu {
            cid: 1,
            src: EntityId::new(0),
            lsrc: EntityId::new(1),
            lseq: Seq::new(3),
            ack: ids(&[1]),
            buf: 0,
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, 0x02, 0x01, // magic, version, kind = RET
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x00, 0x00, 0x01, // lsrc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // lseq
            0x00, 0x01, 0x01, // ack len, width
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack base
            0x00, // ack[0] − base
            0x00, 0x00, 0x00, 0x00, // buf
        ];
        assert_eq!(p.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), p);
    }

    #[test]
    fn ack_only_golden_bytes() {
        let p = Pdu::AckOnly(AckOnlyPdu {
            cid: 1,
            src: EntityId::new(0),
            ack: ids(&[2]),
            packed: ids(&[1]),
            acked: ids(&[1]),
            buf: 5,
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, 0x02, 0x02, // magic, version, kind = ACKONLY
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, // ack
            0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, // packed
            0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, // acked
            0x00, 0x00, 0x00, 0x05, // buf
        ];
        assert_eq!(p.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), p);
    }

    #[test]
    fn empty_vector_golden_bytes() {
        let p = Pdu::Ret(RetPdu {
            cid: 1,
            src: EntityId::new(0),
            lsrc: EntityId::new(1),
            lseq: Seq::new(3),
            ack: vec![],
            buf: 0,
        });
        let raw = p.encode();
        // len 0 | width 1 | base 0
        assert_eq!(raw[24..24 + 11], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(raw.len(), 24 + 11 + 4);
    }

    /// `bytes` with one vector appended: `len | width | base`, then every
    /// offset as its low `width` bytes, big-endian.
    fn with_vector(mut bytes: Vec<u8>, width: usize, base: u64, offsets: &[u64]) -> Vec<u8> {
        bytes.extend_from_slice(&[0x00, offsets.len() as u8, width as u8]);
        bytes.extend_from_slice(&base.to_be_bytes());
        for offset in offsets {
            bytes.extend_from_slice(&offset.to_be_bytes()[8 - width..]);
        }
        bytes
    }

    /// One golden per PDU kind at n = 3 with multi-byte offsets, and an
    /// `AckOnly` whose three vectors land on three different widths, so
    /// the bulk offset loops are pinned to the per-entry layout.
    #[test]
    fn golden_bytes_at_n3() {
        let header = |kind: u8| vec![0xC0, 0xBD, 0x02, kind, 0, 0, 0, 7, 0, 0, 0, 2];

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
        expected = with_vector(expected, 2, 0x0201, &[0, 0x0101, 0x0202]);
        expected.extend_from_slice(&[0, 0, 0, 9, 0, 0, 0, 3, b'a', b'b', b'c']);
        assert_eq!(data.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), data);

        let ret = Pdu::Ret(RetPdu {
            cid: 7,
            src: EntityId::new(2),
            lsrc: EntityId::new(1),
            lseq: Seq::new(0x0A0B),
            ack: ids(&[0x0403, 0x0201, 0x0302]),
            buf: 4,
        });
        let mut expected = header(1);
        expected.extend_from_slice(&[0, 0, 0, 1]); // lsrc
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x0A, 0x0B]); // lseq
        expected = with_vector(expected, 2, 0x0201, &[0x0202, 0, 0x0101]);
        expected.extend_from_slice(&[0, 0, 0, 4]);
        assert_eq!(ret.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ret);

        let ack_only = Pdu::AckOnly(AckOnlyPdu {
            cid: 7,
            src: EntityId::new(2),
            ack: ids(&[0x0201, 0x0302, 0x0403]),
            packed: ids(&[0x0201, 0x0202, 0x0300]),
            acked: ids(&[0x0001_0001, 0x0102_0304, 0x0000_0001]),
            buf: 5,
        });
        let mut expected = with_vector(header(2), 2, 0x0201, &[0, 0x0101, 0x0202]);
        expected = with_vector(expected, 1, 0x0201, &[0, 0x01, 0xFF]);
        expected = with_vector(expected, 4, 1, &[0x0001_0000, 0x0102_0303, 0]);
        expected.extend_from_slice(&[0, 0, 0, 5]);
        assert_eq!(ack_only.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ack_only);
    }
}
