//! Offline shim for `bytes`: `Bytes`/`BytesMut` plus the big-endian
//! `Buf`/`BufMut` accessors the gateway wire format uses.
//!
//! `Bytes` shares its backing store behind an `Arc`, so cloning a frame and
//! handing it across channels stays cheap, as with the real crate. Reading
//! advances an internal cursor (the real crate's `Buf` semantics).

use std::sync::Arc;

/// A cheaply cloneable, contiguous, read-only byte buffer with a read
/// cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<[u8]>,
    pos: usize,
}

impl Bytes {
    /// The unread remainder as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// Number of unread bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: data.into(),
            pos: 0,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A growable byte buffer for frame assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Sequential big-endian reads from a buffer.
pub trait Buf {
    /// Number of unread bytes.
    fn remaining(&self) -> usize;

    /// Consumes and returns the next `N` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `N` bytes remain (callers check `remaining()`
    /// first, as with the real crate).
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take_array())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.remaining() >= N, "buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.remaining() >= N, "buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self[..N]);
        *self = &self[N..];
        out
    }
}

/// Sequential big-endian writes into a buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Writes one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Writes into a fixed slice, advancing it past the written bytes (the
/// real crate's semantics).
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        assert!(self.len() >= src.len(), "buffer overflow");
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, Bytes, BytesMut};

    #[test]
    fn round_trip_all_widths() {
        let mut buf = BytesMut::with_capacity(21);
        buf.put_u8(0xAB);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_i64(-12345);
        buf.put_f64(21.125);
        let mut frozen = buf.freeze();
        assert_eq!(frozen.remaining(), 21);
        assert_eq!(frozen.get_u8(), 0xAB);
        assert_eq!(frozen.get_u32(), 0xDEAD_BEEF);
        assert_eq!(frozen.get_i64(), -12345);
        assert_eq!(frozen.get_f64(), 21.125);
        assert_eq!(frozen.remaining(), 0);
    }

    #[test]
    fn clone_shares_but_cursors_are_independent() {
        let mut a = Bytes::from(vec![1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(a.get_u8(), 1);
        assert_eq!(b.remaining(), 3);
        assert_eq!(b.get_u8(), 1);
        assert_eq!(a.get_u8(), 2);
    }

    #[test]
    fn slice_writes_advance_and_overflow_panics() {
        let mut storage = [0u8; 5];
        let mut rest: &mut [u8] = &mut storage;
        rest.put_u8(7);
        rest.put_u16(0x0102);
        assert_eq!(rest.len(), 2);
        assert_eq!(storage, [7, 1, 2, 0, 0]);
        let overflow = std::panic::catch_unwind(|| {
            let mut small = [0u8; 3];
            let mut rest: &mut [u8] = &mut small;
            rest.put_u32(1);
        });
        assert!(overflow.is_err());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32();
    }
}
