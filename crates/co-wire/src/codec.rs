//! Binary encoding of PDUs (wire version 3).
//!
//! Layout (big-endian throughout):
//!
//! ```text
//! magic: u16 | version: u8 | kind: u8 | cid: u32 | src: u32
//! kind = 0 (DATA):    seq: u64 | ack: vector | buf: u32 | data_len: u32 | data
//! kind = 1 (RET):     lsrc: u32 | lseq: u64 | ack: vector | buf: u32
//! kind = 2 (ACKONLY): ack: vector | ack ⊖ packed: vector | ack ⊖ acked: vector | buf: u32
//!
//! vector: len: u16 | width: u8 ∈ {0,4,8,16,32,64} bits | base: u64
//!         | (v[i] − base) as `width` big-endian bits × len, zero-padded to a byte
//! ```
//!
//! # Frame-of-reference vectors
//!
//! Every entry of `ack` / `packed` / `acked` is a frontier into the same
//! stream of broadcasts, so `max − min` within one vector is bounded by
//! how far the sources' send counts have drifted apart, not by how long
//! the cluster has run. Each vector is therefore written on its own as a
//! `base` and fixed-width offsets from it: the writer picks
//! `base = min(v)` and the smallest `width` that holds `max(v) − min(v)`.
//! Two of the widths are below a byte: **0** when every entry equals
//! `base` (no offset bytes at all; the empty vector is width 0, base 0)
//! and **4**, two entries per byte with the even-indexed one in the high
//! half (an odd `len` leaves the last low half zero, and the reader does
//! not look at it). A PDU is still **O(n)** bytes — §5's stated cost — at
//! one byte per entity per vector while the spread stays under 256.
//!
//! # Confirmations as lags
//!
//! An `AckOnly`'s `packed[j]` and `acked[j]` say how much of what the
//! sender has *accepted* from `E_j` (`ack[j]`) it has also seen
//! pre-acknowledged and acknowledged, so they trail `ack[j]` by what is
//! in flight from `E_j`, whatever the spread between sources. The two
//! are therefore written, through the same vector writer, as
//! `ack[j] ⊖ packed[j]` and `ack[j] ⊖ acked[j]` (wrapping `u64`; where
//! `ack` has no entry `j` it counts as 0; each vector keeps its own
//! `len`), and the reader subtracts them from the `ack` it has just read.
//! From an honest sender the lags are a handful: width 4, or 0 once it
//! has caught up.
//!
//! * **Total.** Any three `Vec<Seq>` round-trip exactly; nothing about
//!   the protocol's invariants is assumed. `packed[j] > ack[j]` wraps to
//!   a lag near 2⁶⁴, which lands the vector in width 64 and comes back as
//!   it went in: order between the vectors makes the lags *small*, not
//!   *correct*. The worst case (spread ≥ 2³²) is the v1 size plus the
//!   9-byte `width` + `base` per vector.
//! * **Stateless.** A vector depends on nothing outside its own PDU, so a
//!   lost PDU cannot break a delta chain.
//! * **Lenient reader.** A wider-than-necessary `width` or a non-minimal
//!   `base` decodes to the same vector (like an over-long varint); only a
//!   `width` outside {0, 4, 8, 16, 32, 64} and a `base + offset` past
//!   `u64::MAX` are errors.
//! * **Why not LEB128.** A varint per entry needs a data-dependent branch
//!   per element on both sides and makes [`Pdu::encoded_len`] a
//!   per-element sum. Here the length is a function of `(len, min, max)`
//!   of what is written and each width arm is one bulk loop over
//!   fixed-size chunks.
//! * **Why not the chain `ack ⊖ packed`, `packed ⊖ acked`.** `acked ≤
//!   packed` is false even for honest senders (see DESIGN.md); both
//!   lags are taken from `ack`, which every core keeps ahead of both.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use causal_order::{EntityId, Seq};

use crate::error::DecodeError;
use crate::pdu::{AckOnlyPdu, DataPdu, Pdu, RetPdu};

/// Magic bytes identifying a CO-protocol PDU.
pub const MAGIC: u16 = 0xC0BD;

/// Current wire version. Versions 1 (vectors as fixed `u64`s) and 2
/// (byte-wide offsets only, `packed` / `acked` as written) are not read.
pub const VERSION: u8 = 3;

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
                let ack = Framed::of(&p.ack, Scale::Plain);
                let len = self.fixed_len() + ack.wire_len();
                put_header(buf, len, KIND_DATA, p.cid, p.src);
                buf.put_u64(p.seq.get());
                ack.put(buf);
                buf.put_u32(p.buf);
                buf.put_u32(p.data.len() as u32);
                buf.put_slice(&p.data);
            }
            Pdu::Ret(p) => {
                let ack = Framed::of(&p.ack, Scale::Plain);
                let len = self.fixed_len() + ack.wire_len();
                put_header(buf, len, KIND_RET, p.cid, p.src);
                buf.put_u32(p.lsrc.raw());
                buf.put_u64(p.lseq.get());
                ack.put(buf);
                buf.put_u32(p.buf);
            }
            Pdu::AckOnly(p) => {
                let vectors = ack_only_vectors(p);
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
            Pdu::Data(p) => Framed::of(&p.ack, Scale::Plain).wire_len(),
            Pdu::Ret(p) => Framed::of(&p.ack, Scale::Plain).wire_len(),
            Pdu::AckOnly(p) => ack_only_vectors(p).iter().map(Framed::wire_len).sum(),
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
                let ack = get_vector(cursor, Scale::Plain, pool)?;
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
                let ack = get_vector(cursor, Scale::Plain, pool)?;
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
                let ack = get_vector(cursor, Scale::Plain, pool)?;
                let packed = match get_vector(cursor, Scale::Behind(&ack), pool) {
                    Ok(v) => v,
                    Err(e) => {
                        pool.give(ack);
                        return Err(e);
                    }
                };
                let acked = match get_vector(cursor, Scale::Behind(&ack), pool) {
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

/// Entries per `put_slice` when encoding a vector's offsets (even, so
/// only a vector's last block can end on half a byte).
const ACK_BLOCK_WORDS: usize = 32;

/// What a vector's wire entries measure.
#[derive(Clone, Copy)]
enum Scale<'a> {
    /// The entries themselves.
    Plain,
    /// How far each entry trails this vector's: `ahead[j] ⊖ v[j]`, an
    /// `ahead[j]` that does not exist counting as 0.
    Behind(&'a [Seq]),
}

impl Scale<'_> {
    /// What goes on the wire for `entries`, the block of the vector that
    /// starts at index `start`: the entries themselves, or their lags,
    /// worked out into `lags` (a lag is no sequence number; it borrows
    /// the type so that both cases are one slice).
    fn written<'b>(
        self,
        start: usize,
        entries: &'b [Seq],
        lags: &'b mut [Seq; ACK_BLOCK_WORDS],
    ) -> &'b [Seq] {
        let Scale::Behind(ahead) = self else {
            return entries;
        };
        let ahead = ahead.get(start..).unwrap_or(&[]);
        let lags = &mut lags[..entries.len()];
        let measured = ahead.len().min(entries.len());
        for ((lag, ahead), entry) in lags.iter_mut().zip(ahead).zip(entries) {
            *lag = Seq::new(ahead.get().wrapping_sub(entry.get()));
        }
        for (lag, entry) in lags[measured..].iter_mut().zip(&entries[measured..]) {
            *lag = Seq::new(0u64.wrapping_sub(entry.get()));
        }
        lags
    }
}

/// An `AckOnly`'s vectors as they go on the wire: `ack` plain, `packed`
/// and `acked` as lags behind it.
fn ack_only_vectors(p: &AckOnlyPdu) -> [Framed<'_>; 3] {
    [
        Framed::of(&p.ack, Scale::Plain),
        Framed::of(&p.packed, Scale::Behind(&p.ack)),
        Framed::of(&p.acked, Scale::Behind(&p.ack)),
    ]
}

/// A vector with its frame of reference, chosen once per encode.
struct Framed<'a> {
    v: &'a [Seq],
    scale: Scale<'a>,
    base: u64,
    /// Bits per offset.
    width: usize,
}

impl<'a> Framed<'a> {
    /// `base = min` and the narrowest width holding `max − min` of what
    /// `scale` writes for `v`.
    fn of(v: &'a [Seq], scale: Scale<'a>) -> Self {
        let mut lags = [Seq::new(0); ACK_BLOCK_WORDS];
        let (mut min, mut max) = (u64::MAX, 0);
        for (block, entries) in v.chunks(ACK_BLOCK_WORDS).enumerate() {
            let written = scale.written(block * ACK_BLOCK_WORDS, entries, &mut lags);
            written.iter().for_each(|val| {
                min = min.min(val.get());
                max = max.max(val.get());
            });
        }
        let base = if v.is_empty() { 0 } else { min };
        let width = match max.saturating_sub(min) {
            0 => 0,
            0x1..=0xF => 4,
            0x10..=0xFF => 8,
            0x100..=0xFFFF => 16,
            0x1_0000..=0xFFFF_FFFF => 32,
            _ => 64,
        };
        Framed {
            v,
            scale,
            base,
            width,
        }
    }

    fn wire_len(&self) -> usize {
        VECTOR_HEADER_LEN + offsets_len(self.width, self.v.len())
    }

    fn put(&self, buf: &mut BytesMut) {
        buf.put_u16(self.v.len() as u16);
        buf.put_u8(self.width as u8);
        buf.put_u64(self.base);
        match self.width {
            0 => {}
            4 => self.put_offsets(buf, pack_halves),
            8 => self.put_offsets(buf, pack_bytes::<1>),
            16 => self.put_offsets(buf, pack_bytes::<2>),
            32 => self.put_offsets(buf, pack_bytes::<4>),
            _ => self.put_offsets(buf, pack_bytes::<8>),
        }
    }

    /// Writes every offset through `pack`, a stack block of entries at a
    /// time (one capacity check and cursor advance per block instead of
    /// per entry). `pack` returns the bytes it filled.
    fn put_offsets(&self, buf: &mut BytesMut, pack: fn(&[Seq], u64, &mut [u8]) -> usize) {
        let mut lags = [Seq::new(0); ACK_BLOCK_WORDS];
        let mut bytes = [0u8; 8 * ACK_BLOCK_WORDS];
        for (block, entries) in self.v.chunks(ACK_BLOCK_WORDS).enumerate() {
            let written = self
                .scale
                .written(block * ACK_BLOCK_WORDS, entries, &mut lags);
            let filled = pack(written, self.base, &mut bytes);
            buf.put_slice(&bytes[..filled]);
        }
    }
}

/// Bytes taken by `len` offsets of `width` bits each.
fn offsets_len(width: usize, len: usize) -> usize {
    (width * len).div_ceil(8)
}

/// Every `vals[i] − base` as its low `W` bytes, big-endian.
fn pack_bytes<const W: usize>(vals: &[Seq], base: u64, bytes: &mut [u8]) -> usize {
    for (dst, val) in bytes.chunks_exact_mut(W).zip(vals) {
        dst.copy_from_slice(&(val.get() - base).to_be_bytes()[8 - W..]);
    }
    W * vals.len()
}

/// Two `vals[i] − base` per byte, the even-indexed one in the high half.
fn pack_halves(vals: &[Seq], base: u64, bytes: &mut [u8]) -> usize {
    let half = |val: &Seq| (val.get() - base) as u8;
    let (pairs, last) = vals.as_chunks::<2>();
    for (dst, [high, low]) in bytes.iter_mut().zip(pairs) {
        *dst = half(high) << 4 | half(low);
    }
    if let [high] = last {
        bytes[pairs.len()] = half(high) << 4;
    }
    vals.len().div_ceil(2)
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

/// Reads one vector from the wire and takes what `scale` says it
/// measures back to entries, into `out` (cleared first).
fn get_vector_into(
    cursor: &mut &[u8],
    scale: Scale<'_>,
    out: &mut Vec<Seq>,
) -> Result<(), DecodeError> {
    let len = get_u16(cursor)? as usize;
    if len > MAX_ACK_LEN {
        return Err(DecodeError::AckTooLong {
            declared: len,
            max: MAX_ACK_LEN,
        });
    }
    let width = get_u8(cursor)?;
    if !matches!(width, 0 | 4 | 8 | 16 | 32 | 64) {
        return Err(DecodeError::BadWidth { found: width });
    }
    let base = get_u64(cursor)?;
    let offsets_len = offsets_len(usize::from(width), len);
    need(cursor, offsets_len)?;
    let (offsets, rest) = cursor.split_at(offsets_len);
    out.clear();
    match scale {
        Scale::Plain => unpack(width, offsets, len, base, &[], |_, value| value, out),
        Scale::Behind(ahead) => unpack(width, offsets, len, base, ahead, u64::wrapping_sub, out),
    }?;
    *cursor = rest;
    Ok(())
}

/// Appends `fold(from[i], base + offset[i])` for each of the `len`
/// offsets, `from[i]` counting as 0 where `from` has run out: bulk
/// passes with no data-dependent branch, whatever the width. Only a
/// vector whose `base` leaves no room for the widest offset of its width
/// is then searched for an offset that overflows; `out` holds wrapped
/// entries in that case and the caller discards it.
fn unpack(
    width: u8,
    offsets: &[u8],
    len: usize,
    base: u64,
    from: &[Seq],
    fold: impl Fn(u64, u64) -> u64 + Copy,
    out: &mut Vec<Seq>,
) -> Result<(), DecodeError> {
    match width {
        0 => {
            let measured = &from[..from.len().min(len)];
            out.extend(measured.iter().map(|from| Seq::new(fold(from.get(), base))));
            out.resize(len, Seq::new(fold(0, base)));
            Ok(())
        }
        4 => unpack_halves(offsets, len, base, from, fold, out),
        8 => unpack_bytes::<1>(offsets, base, from, fold, out),
        16 => unpack_bytes::<2>(offsets, base, from, fold, out),
        32 => unpack_bytes::<4>(offsets, base, from, fold, out),
        _ => unpack_bytes::<8>(offsets, base, from, fold, out),
    }
}

/// [`unpack`] for two offsets per byte: a stack block of bytes is split
/// into halves, then folded like byte-wide offsets.
fn unpack_halves(
    offsets: &[u8],
    len: usize,
    base: u64,
    from: &[Seq],
    fold: impl Fn(u64, u64) -> u64 + Copy,
    out: &mut Vec<Seq>,
) -> Result<(), DecodeError> {
    let halves_of = |byte: &u8| [byte >> 4, byte & 0xF];
    let mut halves = [0u8; 2 * ACK_BLOCK_WORDS];
    // Once, not once per block.
    out.reserve(len);
    for (block, bytes) in offsets.chunks(ACK_BLOCK_WORDS).enumerate() {
        let (pairs, _) = halves.as_chunks_mut::<2>();
        for (pair, byte) in pairs.iter_mut().zip(bytes) {
            *pair = halves_of(byte);
        }
        // An odd `len` leaves half a byte of padding at the very end.
        let start = block * halves.len();
        let halves = &halves[..(len - start).min(halves.len())];
        let from = from.get(start..).unwrap_or(&[]);
        let value = |half: &u8| base.wrapping_add(u64::from(*half));
        extend_folded(out, halves, from, value, fold);
    }
    let halves = offsets.iter().flat_map(halves_of).take(len);
    check_offsets(base, 0xF, halves.map(u64::from))
}

/// [`unpack`] for `W`-byte big-endian offsets.
fn unpack_bytes<const W: usize>(
    offsets: &[u8],
    base: u64,
    from: &[Seq],
    fold: impl Fn(u64, u64) -> u64,
    out: &mut Vec<Seq>,
) -> Result<(), DecodeError> {
    let offset_of = |chunk: &[u8; W]| {
        let mut word = [0u8; 8];
        word[8 - W..].copy_from_slice(chunk);
        u64::from_be_bytes(word)
    };
    // `need(offsets_len)` ran before the split: no remainder.
    let (chunks, _) = offsets.as_chunks::<W>();
    let value = |chunk: &[u8; W]| base.wrapping_add(offset_of(chunk));
    extend_folded(out, chunks, from, value, fold);
    check_offsets(base, u64::MAX >> (64 - 8 * W), chunks.iter().map(offset_of))
}

/// Appends `fold(from[i], value(raw[i]))` for every `raw[i]`, `from[i]`
/// counting as 0 where `from` has run out.
fn extend_folded<T>(
    out: &mut Vec<Seq>,
    raw: &[T],
    from: &[Seq],
    value: impl Fn(&T) -> u64,
    fold: impl Fn(u64, u64) -> u64,
) {
    let (measured, rest) = raw.split_at(from.len().min(raw.len()));
    let measured = measured.iter().zip(from);
    out.extend(measured.map(|(raw, from)| Seq::new(fold(from.get(), value(raw)))));
    out.extend(rest.iter().map(|raw| Seq::new(fold(0, value(raw)))));
}

/// `Ok` unless `base` plus one of `offsets` (each at most `widest`) is
/// past `u64::MAX`.
fn check_offsets(
    base: u64,
    widest: u64,
    mut offsets: impl Iterator<Item = u64>,
) -> Result<(), DecodeError> {
    if base.checked_add(widest).is_some() {
        return Ok(());
    }
    match offsets.find(|offset| base.checked_add(*offset).is_none()) {
        Some(offset) => Err(DecodeError::OffsetOverflow { base, offset }),
        None => Ok(()),
    }
}

/// [`get_vector_into`] over a pool-drawn buffer; the buffer goes back to
/// the pool on error, so malformed input never bleeds pooled capacity.
fn get_vector(
    cursor: &mut &[u8],
    scale: Scale<'_>,
    pool: &mut AckBufPool,
) -> Result<Vec<Seq>, DecodeError> {
    let mut out = pool.take();
    match get_vector_into(cursor, scale, &mut out) {
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

    /// The vector that trails `ack` by `lags` (wrapping, as the wire does).
    fn behind(ack: &[Seq], lags: &[u64]) -> Vec<Seq> {
        let ahead = |j: usize| ack.get(j).map_or(0, |a| a.get());
        (0..lags.len())
            .map(|j| Seq::new(ahead(j).wrapping_sub(lags[j])))
            .collect()
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

    /// `ack` at half a byte per entry (2 bytes), `packed` trailing it by
    /// 0, 2 and 5 (2 bytes), `acked` by 4 everywhere (width 0).
    fn sample_ack_only() -> Pdu {
        ack_only_with(seqs(&[4, 5, 6]), seqs(&[4, 3, 1]), seqs(&[0, 1, 2]))
    }

    /// One PDU of each kind that writes `v` on the wire in every vector it
    /// has: as `ack`, and — `packed` and `acked` being all zero — as both
    /// lag vectors of the `AckOnly`.
    fn each_kind(v: &[Seq]) -> [Pdu; 3] {
        let zero = vec![Seq::new(0); v.len()];
        [
            data_with(v.to_vec()),
            ret_with(v.to_vec()),
            ack_only_with(v.to_vec(), zero.clone(), zero),
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

    /// Appends one vector by hand: `len | width | base` and then
    /// `offsets` at `width` bits each, whatever the writer would have
    /// chosen.
    pub(super) fn put_vector(raw: &mut Vec<u8>, width: usize, base: u64, offsets: &[u64]) {
        raw.extend_from_slice(&(offsets.len() as u16).to_be_bytes());
        raw.push(width as u8);
        raw.extend_from_slice(&base.to_be_bytes());
        match width {
            0 => {}
            4 => {
                raw.extend(offsets.chunks(2).map(|pair| {
                    (pair[0] as u8) << 4 | pair.get(1).map_or(0, |low| *low as u8 & 0xF)
                }))
            }
            _ => {
                for offset in offsets {
                    raw.extend_from_slice(&offset.to_be_bytes()[8 - width / 8..]);
                }
            }
        }
    }

    /// The common header of an `AckOnly`, for hand-building its vectors.
    fn ack_only_header() -> Vec<u8> {
        let mut raw = BytesMut::new();
        put_header(&mut raw, 0, KIND_ACK_ONLY, 5, EntityId::new(2));
        raw.to_vec()
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

    /// Every width arm at both of its edges, as a plain vector and as a
    /// lag vector, across the encode block boundary, at odd lengths and
    /// up to the longest accepted vector, with the base at the bottom and
    /// at the top of the `u64` range.
    #[test]
    fn width_boundaries_roundtrip_at_exact_length() {
        let spreads: [(u64, usize); 10] = [
            (0, 0),
            (0xF, 4),
            (0x10, 8),
            (0xFF, 8),
            (0x100, 16),
            (0xFFFF, 16),
            (0x1_0000, 32),
            (0xFFFF_FFFF, 32),
            (0x1_0000_0000, 64),
            (u64::MAX, 64),
        ];
        let lens = [
            0,
            1,
            2,
            3,
            ACK_BLOCK_WORDS - 1,
            ACK_BLOCK_WORDS,
            ACK_BLOCK_WORDS + 1,
            100,
            MAX_ACK_LEN - 1,
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
                    let width = if n < 2 { 0 } else { spread_width };
                    for pdu in each_kind(&v) {
                        let ctx = format!("{:?} spread {spread} base {base} n {n}", pdu.kind());
                        let raw = pdu.encode();
                        assert_eq!(raw.len(), pdu.encoded_len(), "{ctx}");
                        assert_eq!(
                            raw.len(),
                            pdu.fixed_len()
                                + vector_count(&pdu)
                                    * (VECTOR_HEADER_LEN + (width * n).div_ceil(8)),
                            "{ctx}"
                        );
                        assert!(raw.len() <= v1_len(&pdu) + 9 * vector_count(&pdu), "{ctx}");
                        assert_eq!(Pdu::decode(&raw).unwrap(), pdu, "{ctx}");
                    }
                }
            }
        }
    }

    /// The largest lag of an `AckOnly` prices its vector: 0 costs no
    /// offset bytes, up to 15 half a byte per entity, up to 255 one.
    #[test]
    fn lag_boundaries_at_their_exact_encoded_length() {
        let ack = seqs(&(1000..1064).collect::<Vec<_>>());
        let plain = VECTOR_HEADER_LEN + 64;
        for (lag, offset_bytes) in [(0, 0), (15, 32), (16, 64), (255, 64), (256, 128)] {
            let mut lags = [0u64; 64];
            lags[40] = lag;
            let p = ack_only_with(ack.clone(), ack.clone(), behind(&ack, &lags));
            let raw = p.encode();
            assert_eq!(
                raw.len(),
                p.fixed_len() + plain + VECTOR_HEADER_LEN + VECTOR_HEADER_LEN + offset_bytes,
                "lag {lag}"
            );
            assert_eq!(raw.len(), p.encoded_len(), "lag {lag}");
            assert_eq!(Pdu::decode(&raw).unwrap(), p, "lag {lag}");
        }
        // Every entity equally far behind is as cheap as none behind.
        let p = ack_only_with(ack.clone(), behind(&ack, &[9; 64]), ack.clone());
        assert_eq!(
            p.encoded_len(),
            p.fixed_len() + plain + 2 * VECTOR_HEADER_LEN
        );
        assert_eq!(Pdu::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn odd_lengths_at_half_a_byte_roundtrip() {
        for n in [1usize, 3, 5, 31, 33, 63, 65] {
            let ack: Vec<Seq> = (0..n as u64).map(|i| Seq::new(500 + i % 16)).collect();
            let lags: Vec<u64> = (0..n as u64).map(|i| (7 * i + 1) % 16).collect();
            let p = ack_only_with(ack.clone(), behind(&ack, &lags), ack.clone());
            let raw = p.encode();
            if n > 1 {
                let half = VECTOR_HEADER_LEN + n.div_ceil(2);
                assert_eq!(
                    raw.len(),
                    p.fixed_len() + 2 * half + VECTOR_HEADER_LEN,
                    "n {n}"
                );
            }
            assert_eq!(raw.len(), p.encoded_len(), "n {n}");
            assert_eq!(Pdu::decode(&raw).unwrap(), p, "n {n}");
        }
        // The spare low half of the last byte is padding: whatever it
        // holds is neither read nor counted as an offset that overflows.
        let mut raw = ack_only_header();
        put_vector(&mut raw, 4, u64::MAX - 1, &[0, 1, 1, 0xF]);
        raw[HEADER_LEN + 1] = 3; // len 3: the fourth half is padding
        put_vector(&mut raw, 0, 0, &[0; 3]);
        put_vector(&mut raw, 0, 0, &[0; 3]);
        raw.extend_from_slice(&[0, 0, 0, 1]);
        let ack = seqs(&[u64::MAX - 1, u64::MAX, u64::MAX]);
        assert_eq!(
            Pdu::decode(&raw).unwrap(),
            ack_only_with(ack.clone(), ack.clone(), ack)
        );
    }

    /// Nothing between the vectors is assumed: entries ahead of `ack`
    /// wrap to lags near 2⁶⁴ and vectors of other lengths than `ack`'s
    /// are measured from 0 where `ack` ends — wide, and exact.
    #[test]
    fn vectors_out_of_order_or_of_other_lengths_roundtrip_wrapped() {
        let ack = seqs(&[10, 20, 30]);
        let ahead = ack_only_with(ack.clone(), seqs(&[10, 21, 30]), seqs(&[u64::MAX, 0, 31]));
        let longer = ack_only_with(ack.clone(), seqs(&[9, 19, 29, 7, 0]), seqs(&[1; 40]));
        let shorter = ack_only_with(ack.clone(), seqs(&[9, 19]), vec![]);
        let no_ack = ack_only_with(vec![], seqs(&[9, 19]), seqs(&[0, 0]));
        for p in [&ahead, &longer, &shorter, &no_ack] {
            let raw = p.encode();
            assert_eq!(raw.len(), p.encoded_len());
            assert_eq!(&Pdu::decode(&raw).unwrap(), p);
        }
        // ack ⊖ packed = [0, 2⁶⁴ − 1, 0]: eight bytes an entry.
        let plain = VECTOR_HEADER_LEN + 3 * 8;
        assert_eq!(
            ahead.encoded_len(),
            ahead.fixed_len() + VECTOR_HEADER_LEN + 3 + 2 * plain
        );
    }

    /// What `tests/proptest_roundtrip.rs` asks of arbitrary triples, on a
    /// seeded stream, for builds that have no proptest.
    #[test]
    fn seeded_triples_roundtrip_at_their_encoded_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let caps = [0, 0xF, 0xFF, 0xFFFF, 0xFFFF_FFFF, u64::MAX];
        for _ in 0..2000 {
            let mut vector = |trail: Option<&[Seq]>| -> Vec<Seq> {
                let cap = caps[(next() % 6) as usize];
                let (n, base) = ((next() % 70) as usize, next() >> (next() % 64));
                let offsets: Vec<u64> = (0..n).map(|_| next() & cap).collect();
                match trail {
                    Some(ack) if next() % 4 != 0 => behind(ack, &offsets),
                    _ => offsets
                        .iter()
                        .map(|o| Seq::new(base.saturating_add(*o)))
                        .collect(),
                }
            };
            let ack = vector(None);
            let (packed, acked) = (vector(Some(&ack)), vector(Some(&ack)));
            for p in [
                data_with(ack.clone()),
                ret_with(packed.clone()),
                ack_only_with(ack, packed, acked),
            ] {
                let raw = p.encode();
                assert_eq!(raw.len(), p.encoded_len(), "{p:?}");
                assert_eq!(Pdu::decode(&raw).unwrap(), p);
            }
        }
    }

    #[test]
    fn vectors_of_one_pdu_pick_their_widths_independently() {
        let p = ack_only_with(
            seqs(&[0x300, 0x300, 0x300]),
            seqs(&[0x300, 0x2F1, 0x2FF]), // lags 0, 15, 1
            seqs(&[0x300, 0x200, 0x2FF]), // lags 0, 256, 1
        );
        let raw = p.encode();
        assert_eq!(raw.len(), p.fixed_len() + 3 * VECTOR_HEADER_LEN + 2 + 3 * 2);
        assert_eq!(Pdu::decode(&raw).unwrap(), p);
    }

    #[test]
    fn pdu_length_grows_linearly_in_n() {
        // §5: "the length of PDU is O(n)". Half a byte per extra entity
        // while the vector's spread stays under 16 …
        let l2 = sample_data(2).encoded_len();
        assert_eq!(sample_data(4).encoded_len() - l2, 1);
        assert_eq!(sample_data(16).encoded_len() - l2, 7);
        // … one while it stays under 256 …
        let spread = |max: u64, n: usize| {
            let mut ack = vec![Seq::new(max); n];
            ack[0] = Seq::new(0);
            data_with(ack).encoded_len()
        };
        assert_eq!(spread(200, 3) - spread(200, 2), 1);
        assert_eq!(spread(200, 10) - spread(200, 2), 8);
        // … and eight, v1's constant, at the widest.
        assert_eq!(spread(u64::MAX, 3) - spread(u64::MAX, 2), 8);
        assert_eq!(spread(u64::MAX, 10) - spread(u64::MAX, 2), 8 * 8);
    }

    #[test]
    fn ack_only_at_n64_is_priced_by_what_is_in_flight() {
        let ack = seqs(&(1000..1064).collect::<Vec<_>>());
        let lags: Vec<u64> = (0..64).map(|j| j % 11).collect();
        let steady = ack_only_with(ack.clone(), behind(&ack, &lags), behind(&ack, &lags));
        assert_eq!(steady.encoded_len(), 12 + (11 + 64) + 2 * (11 + 32) + 4);
        assert_eq!(steady.encode().len(), 177); // v2: 241
        let caught_up = ack_only_with(ack.clone(), ack.clone(), ack);
        assert_eq!(caught_up.encode().len(), 113);
    }

    #[test]
    fn ack_only_at_n512_fits_one_ethernet_frame() {
        // 1 500-byte MTU less the IPv4 and UDP headers.
        const UDP_PAYLOAD: usize = 1500 - 20 - 8;
        let ack: Vec<Seq> = (0..512).map(|j| Seq::new(9000 + j % 200)).collect();
        let lags: Vec<u64> = (0..512).map(|j| j % 16).collect();
        let p = ack_only_with(ack.clone(), behind(&ack, &lags), behind(&ack, &lags));
        assert_eq!(p.encode().len(), 12 + (11 + 512) + 2 * (11 + 256) + 4);
        assert!(p.encoded_len() <= UDP_PAYLOAD);
        // Wire version 2 spent a byte per entry on all three.
        assert!(12 + 3 * (11 + 512) + 4 > UDP_PAYLOAD);
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
    fn v2_frame_is_a_bad_version() {
        // Version 2's golden RET: width in bytes, one offset byte.
        let v2: Vec<u8> = vec![
            0xC0, 0xBD, 0x02, 0x01, // magic, version 2, kind = RET
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x00, 0x00, 0x01, // lsrc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // lseq
            0x00, 0x01, 0x01, // ack len, width
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack base
            0x00, // ack[0] − base
            0x00, 0x00, 0x00, 0x00, // buf
        ];
        assert_eq!(Pdu::decode(&v2), Err(DecodeError::BadVersion { found: 2 }));
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
        let Pdu::AckOnly(sample) = sample_ack_only() else {
            unreachable!()
        };
        let [ack, packed, _] = ack_only_vectors(&sample).map(|v| v.wire_len());
        for width in (0..=u8::MAX).filter(|w| !matches!(w, 0 | 4 | 8 | 16 | 32 | 64)) {
            // In the first vector, and in the third with two already drawn.
            let mut first = sample_ack_only().encode().to_vec();
            first[HEADER_LEN + 2] = width;
            let mut third = sample_ack_only().encode().to_vec();
            third[HEADER_LEN + ack + packed + 2] = width;
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
        for width in [4usize, 8, 16, 32, 64] {
            // Three entries; only the middle one overflows, by exactly
            // one — in `ack`, and in a lag vector behind a sound `ack`.
            let mut first = ack_only_header();
            put_vector(&mut first, width, u64::MAX - 1, &[0, 2, 1]);
            let mut second = ack_only_header();
            put_vector(&mut second, 0, 7, &[0; 3]);
            put_vector(&mut second, width, u64::MAX - 1, &[0, 2, 1]);
            for raw in [first, second] {
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
    }

    #[test]
    fn wider_width_and_lower_base_than_necessary_are_accepted() {
        let p = ret_with(seqs(&[10, 11, 12]));
        let minimal = p.encode();
        let ack_only = ack_only_with(seqs(&[10, 11, 12]), seqs(&[7, 7, 7]), seqs(&[5, 7, 9]));
        for width in [4usize, 8, 16, 32, 64] {
            let mut raw = minimal[..HEADER_LEN + 4 + 8].to_vec(); // … lsrc, lseq
            put_vector(&mut raw, width, 7, &[3, 4, 5]); // base 7, not min = 10
            raw.extend_from_slice(&[0, 0, 0, 1]); // buf
            assert_eq!(Pdu::decode(&raw).unwrap(), p, "width {width}");

            let mut raw = ack_only_header();
            put_vector(&mut raw, width, 1, &[9, 10, 11]);
            put_vector(&mut raw, width, 2, &[1, 2, 3]); // lags 3, 4, 5
            put_vector(&mut raw, width, 0, &[5, 4, 3]);
            raw.extend_from_slice(&[0, 0, 0, 1]);
            assert_eq!(Pdu::decode(&raw).unwrap(), ack_only, "width {width}");
        }
    }

    #[test]
    fn truncation_at_every_cut_fails_with_the_pool_intact() {
        let mut pool = AckBufPool::with_buffers(3, 3);
        let wide = seqs(&[1, 0x1_0000, 2]);
        for pdu in each_kind(&seqs(&[4, 5, 6]))
            .into_iter()
            .chain(each_kind(&wide))
            .chain([sample_ack_only()])
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

    /// Zero-width vectors make `len` the only thing between a short frame
    /// and a long allocation: 49 bytes may ask for `MAX_ACK_LEN` entries
    /// per vector and not one more.
    #[test]
    fn a_short_frame_cannot_allocate_past_max_ack_len() {
        let frame = |len: usize| {
            let mut raw = ack_only_header();
            for base in [9, 2, 3] {
                put_vector(&mut raw, 0, base, &[]);
                let at = raw.len() - VECTOR_HEADER_LEN;
                raw[at..at + 2].copy_from_slice(&(len as u16).to_be_bytes());
            }
            raw.extend_from_slice(&[0, 0, 0, 1]);
            raw
        };
        let mut pool = AckBufPool::with_buffers(3, 3);
        let longest = frame(MAX_ACK_LEN);
        assert_eq!(longest.len(), 49);
        assert_eq!(
            Pdu::decode_with(&longest, &mut pool).unwrap(),
            ack_only_with(
                seqs(&[9; MAX_ACK_LEN]),
                seqs(&[7; MAX_ACK_LEN]),
                seqs(&[6; MAX_ACK_LEN])
            )
        );
        let mut pool = AckBufPool::with_buffers(3, 3);
        for len in [MAX_ACK_LEN + 1, usize::from(u16::MAX)] {
            assert_eq!(
                Pdu::decode_with(&frame(len), &mut pool),
                Err(DecodeError::AckTooLong {
                    declared: len,
                    max: MAX_ACK_LEN
                })
            );
            assert_eq!(pool.len(), 3);
        }
    }
}

#[cfg(test)]
mod golden {
    use super::tests::put_vector;
    use super::*;

    // The wire format is a compatibility surface: these exact bytes must
    // never change for version 3. (If the format must evolve, bump
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
            0x03, // version
            0x00, // kind = DATA
            0x01, 0x02, 0x03, 0x04, // cid
            0x00, 0x00, 0x00, 0x02, // src
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // seq
            0x00, 0x02, // ack len
            0x04, // ack width, in bits
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack base
            0x01, // ack[0] − base, ack[1] − base: half a byte each
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
            0xC0, 0xBD, 0x03, 0x01, // magic, version, kind = RET
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x00, 0x00, 0x01, // lsrc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // lseq
            0x00, 0x01, 0x00, // ack len, width 0: no offsets follow
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // ack base
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
            acked: ids(&[2]),
            buf: 5,
        });
        let expected: Vec<u8> = vec![
            0xC0, 0xBD, 0x03, 0x02, // magic, version, kind = ACKONLY
            0x00, 0x00, 0x00, 0x01, // cid
            0x00, 0x00, 0x00, 0x00, // src
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // ack
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x01, // ack ⊖ packed
            0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ack ⊖ acked
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
        // len 0 | width 0 | base 0
        assert_eq!(raw[24..24 + 11], [0; 11]);
        assert_eq!(raw.len(), 24 + 11 + 4);
        assert_eq!(Pdu::decode(&raw).unwrap(), p);
    }

    /// `bytes` with one vector appended by hand.
    fn with_vector(mut bytes: Vec<u8>, width: usize, base: u64, offsets: &[u64]) -> Vec<u8> {
        put_vector(&mut bytes, width, base, offsets);
        bytes
    }

    /// One golden per PDU kind at n = 3 with multi-byte offsets, and an
    /// `AckOnly` whose three vectors land on three different widths — the
    /// two lag vectors on the two below a byte — so the bulk offset loops
    /// are pinned to the per-entry layout.
    #[test]
    fn golden_bytes_at_n3() {
        let header = |kind: u8| vec![0xC0, 0xBD, 0x03, kind, 0, 0, 0, 7, 0, 0, 0, 2];

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
        expected.extend_from_slice(&[0, 3, 16]); // ack len, width
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0x02, 0x01]); // ack base
        expected.extend_from_slice(&[0, 0, 0x01, 0x01, 0x02, 0x02]); // offsets
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
        expected = with_vector(expected, 16, 0x0201, &[0x0202, 0, 0x0101]);
        expected.extend_from_slice(&[0, 0, 0, 4]);
        assert_eq!(ret.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ret);

        let ack_only = Pdu::AckOnly(AckOnlyPdu {
            cid: 7,
            src: EntityId::new(2),
            ack: ids(&[0x0201, 0x0302, 0x0403]),
            packed: ids(&[0x01FE, 0x02F3, 0x03FA]), // 3, 15 and 9 behind
            acked: ids(&[0x01FB, 0x02FC, 0x03FD]),  // 6 behind, all three
            buf: 5,
        });
        let mut expected = with_vector(header(2), 16, 0x0201, &[0, 0x0101, 0x0202]);
        expected.extend_from_slice(&[0, 3, 4]); // ack ⊖ packed: len, width
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 3]); // base
        expected.extend_from_slice(&[0x0C, 0x60]); // 0, 12 | 6, padding
        expected.extend_from_slice(&[0, 3, 0]); // ack ⊖ acked: len, width
        expected.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 6]); // base
        expected.extend_from_slice(&[0, 0, 0, 5]);
        assert_eq!(ack_only.encode().to_vec(), expected);
        assert_eq!(Pdu::decode(&expected).unwrap(), ack_only);
    }
}
