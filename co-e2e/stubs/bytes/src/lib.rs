//! Offline stand-in for the `bytes` crate, covering the surface the product
//! uses: a cheaply cloneable immutable [`Bytes`], a growable [`BytesMut`]
//! that freezes into it without copying, and big-endian [`Buf`] /
//! [`BufMut`] cursors.
//!
//! Cost model kept close to the published crate where the benchmark can
//! see it: `clone` and `slice` are a reference-count bump, `freeze` moves
//! the buffer (one small allocation for the shared header, no byte copy),
//! `copy_from_slice` is one allocation plus one copy.

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer (no allocation).
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice (no allocation).
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing the same storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end && end <= self.len,
            "slice {begin}..{end} out of range for {} bytes",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &all[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that [`BytesMut::freeze`]s into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ensures room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts into an immutable [`Bytes`] without copying the contents.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.buf.fmt(f)
    }
}

/// Big-endian write cursor.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

/// Big-endian read cursor. The `get_*` methods panic when fewer bytes
/// remain than they read, like the published crate; callers check
/// [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Fills `dst` from the front of the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_slice_and_cursor_round_trip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u16(0xC0BD);
        m.put_u8(7);
        m.put_u32(9);
        m.put_u64(u64::MAX - 1);
        m.put_slice(b"xyz");
        let b = m.freeze();
        assert_eq!(b.len(), 18);
        let tail = b.slice(15..);
        assert_eq!(&tail[..], b"xyz");
        assert_eq!(tail.clone(), Bytes::from_static(b"xyz"));
        let mut cur: &[u8] = &b;
        assert_eq!(cur.get_u16(), 0xC0BD);
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u32(), 9);
        assert_eq!(cur.get_u64(), u64::MAX - 1);
        cur.advance(1);
        assert_eq!(cur, b"yz");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let _ = Bytes::from_static(b"ab").slice(1..4);
    }
}
